//! The batch-at-a-time dataflow executor: "a set of composable operators
//! that can be combined to form a pipelined query execution plan"
//! (Section 5).
//!
//! Plans are DAGs of [`OperatorShell`]s fed by named external sources.
//! Execution is deterministic and scheduled a **batch at a time** rather
//! than a message at a time: every node owns an input queue of
//! `(port, message)` pairs; producers enqueue (an `Arc` refcount bump per
//! subscriber — events are never deep-copied on fan-out) and
//! [`Dataflow::run_to_quiescence`] drains nodes in topological order,
//! handing each node its queued messages as maximal same-port runs via
//! [`OperatorShell::push_batch`]. Draining upstream nodes before
//! downstream ones means a node sees everything its producers emitted this
//! round in one batch, amortising shell and module overhead across the run
//! (see `OpStats::mean_batch_len`). Per-node FIFO order is identical to
//! the historical message-at-a-time cascade, so operator semantics are
//! unchanged.
//!
//! # Scheduling
//!
//! Because nodes may only reference earlier nodes, a quiescence pass is a
//! single sweep in ascending node-id order. [`Dataflow::run_to_quiescence`]
//! drives that sweep from a **ready queue** — an ordered worklist of dirty
//! nodes, seeded with the staged sources and extended as producers emit —
//! so a pass costs O(dirty·log) instead of rescanning every node per step.
//! A dataflow is single-threaded and owns all of its state; parallelism
//! lives one layer up, where `cedr-core` drains whole dataflows (one per
//! standing query) on per-shard worker threads. Per-shell arrival order is
//! a function of the staged rounds alone, so execution is deterministic at
//! every consistency level (only *caller-side batch splitting* moves
//! Weak's forgetting horizon race, as documented at
//! [`Dataflow::enqueue_source_batch`]).
//!
//! Sink outputs are logged by [`cedr_streams::Collector`]s: each output
//! run is appended to the collector's [`OutputDelta`] log — the change
//! stream that engine-level subscriptions drain incrementally, and the
//! single store the temporal equivalence machinery (history tables, net
//! tables) is folded from.

use crate::consistency::ConsistencySpec;
use crate::operator::{OperatorModule, OperatorShell};
use crate::OpStats;
use cedr_obs::{ObsHub, TraceEvent};
use cedr_streams::{Collector, Message, MessageBatch, OutputDelta};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Identifies an operator node in a dataflow.
pub type NodeId = usize;

/// A connection endpoint feeding an operator input port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Port {
    /// External source `i`.
    Source(usize),
    /// Output of node `id`.
    Node(NodeId),
}

/// Builds a dataflow DAG.
pub struct DataflowBuilder {
    n_sources: usize,
    shells: Vec<OperatorShell>,
    inputs: Vec<Vec<Port>>,
}

impl DataflowBuilder {
    pub fn new(n_sources: usize) -> Self {
        DataflowBuilder {
            n_sources,
            shells: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Add an operator node; `inputs[i]` feeds the module's port `i`.
    /// Nodes may only reference earlier nodes (enforcing acyclicity).
    pub fn add_node(
        &mut self,
        module: Box<dyn OperatorModule>,
        spec: ConsistencySpec,
        inputs: Vec<Port>,
    ) -> NodeId {
        assert_eq!(
            inputs.len(),
            module.arity(),
            "operator {} expects {} inputs",
            module.name(),
            module.arity()
        );
        for p in &inputs {
            match p {
                Port::Source(s) => assert!(*s < self.n_sources, "unknown source {s}"),
                Port::Node(n) => assert!(*n < self.shells.len(), "forward edge to node {n}"),
            }
        }
        let id = self.shells.len();
        self.shells.push(OperatorShell::new(module, spec));
        self.inputs.push(inputs);
        id
    }

    /// Finish the graph; `watched` nodes get output collectors.
    pub fn build(self, watched: &[NodeId]) -> Dataflow {
        let mut source_subs: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); self.n_sources];
        let mut node_subs: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); self.shells.len()];
        for (node, inputs) in self.inputs.iter().enumerate() {
            for (port, src) in inputs.iter().enumerate() {
                match src {
                    Port::Source(s) => source_subs[*s].push((node, port)),
                    Port::Node(n) => node_subs[*n].push((node, port)),
                }
            }
        }
        let collectors = watched
            .iter()
            .map(|&n| {
                assert!(n < self.shells.len(), "cannot watch unknown node {n}");
                (n, Collector::new())
            })
            .collect();
        let queues = vec![VecDeque::new(); self.shells.len()];
        Dataflow {
            nodes: self.shells,
            source_subs,
            node_subs,
            collectors,
            queues,
            tick: 0,
            obs: None,
        }
    }
}

/// An executable dataflow with per-node input queues and a batch-at-a-time
/// scheduler (see the module docs).
pub struct Dataflow {
    nodes: Vec<OperatorShell>,
    source_subs: Vec<Vec<(NodeId, usize)>>,
    node_subs: Vec<Vec<(NodeId, usize)>>,
    collectors: HashMap<NodeId, Collector>,
    /// Per-node FIFO of `(port, message)` awaiting delivery.
    queues: Vec<VecDeque<(usize, Message)>>,
    tick: u64,
    /// Observability hub + the query index this dataflow traces under.
    /// Never serialized (`state_snapshot` excludes it) and never read by
    /// scheduling decisions, so it cannot perturb bit-identity.
    obs: Option<(Arc<ObsHub>, u16)>,
}

impl Dataflow {
    /// Attach an observability hub; `query` labels this dataflow's trace
    /// events and timings. Observation only — delivery order, operator
    /// state and statistics are unchanged with or without a hub.
    pub fn set_obs(&mut self, hub: Arc<ObsHub>, query: u16) {
        self.obs = Some((hub, query));
    }

    /// Enqueue one source message to its subscribers without running the
    /// scheduler. Each subscriber receives an `Arc`-shared clone.
    pub fn enqueue_source(&mut self, source: usize, msg: Message) {
        self.tick += 1;
        for &(node, port) in &self.source_subs[source] {
            self.queues[node].push_back((port, msg.clone()));
        }
    }

    /// Enqueue a whole batch to one source's subscribers without running
    /// the scheduler.
    ///
    /// # Tick semantics
    ///
    /// The CEDR tick is an *ingestion-round* counter, not a message
    /// counter: staging a batch advances it **once**, however many
    /// messages the batch carries, while the per-message
    /// [`Dataflow::enqueue_source`] advances it per call. Blocking
    /// durations ([`OpStats::blocked_ticks`]) therefore measure how many
    /// ingestion rounds a message waited in an alignment buffer —
    /// comparable across batch sizes — and never affect *what* is
    /// delivered: release decisions are driven by syncs and CTIs
    /// (occurrence time), not by the tick.
    pub fn enqueue_source_batch(&mut self, source: usize, batch: &MessageBatch) {
        if batch.is_empty() {
            return;
        }
        self.tick += 1;
        for m in batch {
            for &(node, port) in &self.source_subs[source] {
                self.queues[node].push_back((port, m.clone()));
            }
        }
    }

    /// One **pumped ingestion round**: stage every `(source, batch)` pair
    /// of the round in order — each batch advancing the tick once, as in
    /// [`Dataflow::enqueue_source_batch`] — then run a single quiescence
    /// pass over the union.
    ///
    /// This is the scheduler entry point for round-at-a-time drivers (the
    /// engine's ingress drain and channel pump): because the pass
    /// structure is fixed — one pass per round, however the round was
    /// assembled — a round-admitting caller that feeds identical rounds
    /// in identical order gets bit-identical execution, regardless of the
    /// thread timing that produced those rounds. An empty round still
    /// runs the (no-op) pass.
    pub fn run_round<'a>(&mut self, round: impl IntoIterator<Item = (usize, &'a MessageBatch)>) {
        for (source, batch) in round {
            self.enqueue_source_batch(source, batch);
        }
        self.run_to_quiescence();
    }

    /// Drain all node queues until the graph is quiet: one sweep driven by
    /// a ready queue, an ordered worklist of nodes with pending input.
    /// Edges only point forward, so popping the smallest dirty node
    /// processes every producer before its consumers — by the time a node
    /// runs it holds everything upstream emitted this round.
    ///
    /// Each node's drained input is delivered to its shell as **maximal
    /// same-port runs** in arrival order (messages move into each run — no
    /// re-clone); a watched node's outputs are appended to its collector's
    /// delta log, then fanned out to the subscribers' queues.
    pub fn run_to_quiescence(&mut self) {
        let now = self.tick;
        let Dataflow {
            nodes,
            node_subs,
            collectors,
            queues,
            obs,
            ..
        } = self;
        let mut ready: BTreeSet<NodeId> = (0..nodes.len())
            .filter(|&n| !queues[n].is_empty())
            .collect();
        while let Some(node) = ready.pop_first() {
            let drained: Vec<(usize, Message)> = queues[node].drain(..).collect();
            let mut input = drained.into_iter().peekable();
            while let Some((port, first)) = input.next() {
                let mut run = vec![first];
                while input.peek().is_some_and(|(p, _)| *p == port) {
                    run.push(input.next().expect("peeked").1);
                }
                if let Some((hub, query)) = obs {
                    hub.trace(|| TraceEvent::OperatorRun {
                        query: *query,
                        node: node as u16,
                        batch_len: run.len().min(u32::MAX as usize) as u32,
                    });
                }
                let outs = nodes[node].push_batch(port, &run, now);
                if outs.is_empty() {
                    continue;
                }
                let outs = MessageBatch::from(outs);
                if let Some(c) = collectors.get_mut(&node) {
                    c.absorb_batch(&outs);
                }
                for &(next, next_port) in &node_subs[node] {
                    for o in &outs {
                        queues[next].push_back((next_port, o.clone()));
                    }
                    ready.insert(next);
                }
            }
        }
    }

    /// Feed one message into external source `source`, cascading it through
    /// the graph to quiescence.
    pub fn push_source(&mut self, source: usize, msg: Message) {
        self.enqueue_source(source, msg);
        self.run_to_quiescence();
    }

    /// Feed a whole batch into external source `source`, then run the graph
    /// to quiescence. All of the batch is enqueued up front, so every node
    /// on the path processes it in amortised runs rather than one cascade
    /// per message.
    pub fn push_source_batch(&mut self, source: usize, batch: &MessageBatch) {
        self.enqueue_source_batch(source, batch);
        self.run_to_quiescence();
    }

    /// Feed a whole stream into one source, one cascade per message (the
    /// historical fine-grained mode; prefer [`Dataflow::push_source_batch`]
    /// when the caller already holds a run of messages).
    pub fn run_stream(&mut self, source: usize, msgs: impl IntoIterator<Item = Message>) {
        for m in msgs {
            self.push_source(source, m);
        }
    }

    /// The collector attached to a watched node.
    pub fn collector(&self, node: NodeId) -> &Collector {
        self.collectors
            .get(&node)
            .expect("node is not watched; pass it to build()")
    }

    /// Per-node runtime statistics.
    pub fn stats(&self, node: NodeId) -> &OpStats {
        self.nodes[node].stats()
    }

    /// Plan-wide totals.
    pub fn total_stats(&self) -> OpStats {
        let mut total = OpStats::default();
        for n in &self.nodes {
            total.absorb(n.stats());
        }
        total
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn node_name(&self, node: NodeId) -> &'static str {
        self.nodes[node].name()
    }

    /// Current CEDR tick (arrival counter).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Serialize the dataflow's full runtime state at a quiescent round
    /// boundary: the tick, every shell's state (module blob included) and
    /// every collector's delta log — each output event once; collector
    /// statistics are re-derived from the log on restore. Topology
    /// (`source_subs` / `node_subs`) is plan-derived and re-created by
    /// re-registering the query, so it is not part of the image. Fails if
    /// any node queue still holds undelivered messages — the caller must
    /// run to quiescence first.
    pub fn state_snapshot(&self, out: &mut Vec<u8>) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        if let Some(node) = self.queues.iter().position(|q| !q.is_empty()) {
            return Err(cedr_durable::CodecError::new(format!(
                "node {node} has undelivered queued messages; not at a quiescent boundary"
            )));
        }
        self.tick.encode(out);
        (self.nodes.len() as u64).encode(out);
        for (node, shell) in self.nodes.iter().enumerate() {
            let mut blob = Vec::new();
            shell
                .state_snapshot(&mut blob)
                .map_err(|e| e.in_section(&format!("node {node}")))?;
            blob.encode(out);
        }
        let mut watched: Vec<NodeId> = self.collectors.keys().copied().collect();
        watched.sort_unstable();
        (watched.len() as u64).encode(out);
        for node in watched {
            (node as u64).encode(out);
            // Same wire layout as `Vec<OutputDelta>`, without cloning the
            // log into one.
            let log = self.collectors[&node].delta_log();
            (log.len() as u64).encode(out);
            for delta in log {
                delta.encode(out);
            }
        }
        Ok(())
    }

    /// Restore state captured by [`Dataflow::state_snapshot`] into a
    /// freshly built dataflow of the *same plan*. Node count and watched
    /// set must match the image exactly.
    pub fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        self.tick = u64::decode(r)?;
        let n = u64::decode(r)? as usize;
        if n != self.nodes.len() {
            return Err(cedr_durable::CodecError::new(format!(
                "plan has {} nodes, image has {n}",
                self.nodes.len()
            )));
        }
        for (node, shell) in self.nodes.iter_mut().enumerate() {
            let blob = Vec::<u8>::decode(r)?;
            let mut br = cedr_durable::Reader::new(&blob);
            shell
                .state_restore(&mut br)
                .and_then(|()| br.expect_exhausted())
                .map_err(|e| e.in_section(&format!("node {node}")))?;
        }
        let watched = u64::decode(r)? as usize;
        if watched != self.collectors.len() {
            return Err(cedr_durable::CodecError::new(format!(
                "plan watches {} nodes, image has {watched}",
                self.collectors.len()
            )));
        }
        for _ in 0..watched {
            let node = u64::decode(r)? as NodeId;
            let log = Vec::<OutputDelta>::decode(r)?;
            match self.collectors.get_mut(&node) {
                Some(c) => *c = Collector::from_deltas(log),
                None => {
                    return Err(cedr_durable::CodecError::new(format!(
                        "image watches node {node}, which the plan does not"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::GroupAggregateOp;
    use crate::sequence::SequenceOp;
    use crate::stateless::{AlterLifetimeOp, SelectOp};
    use cedr_algebra::expr::{CmpOp, Pred, Scalar};
    use cedr_algebra::relational::AggFunc;
    use cedr_streams::StreamBuilder;
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::{Interval, Payload, TimePoint, Value};

    #[test]
    fn linear_pipeline_select_window_count() {
        // σ(value ≥ 0) → W_5 → count.
        let mut b = DataflowBuilder::new(1);
        let sel = b.add_node(
            Box::new(SelectOp::new(Pred::cmp(
                Scalar::Field(0),
                CmpOp::Ge,
                Scalar::lit(0i64),
            ))),
            ConsistencySpec::middle(),
            vec![Port::Source(0)],
        );
        let win = b.add_node(
            Box::new(AlterLifetimeOp::window(dur(5))),
            ConsistencySpec::middle(),
            vec![Port::Node(sel)],
        );
        let cnt = b.add_node(
            Box::new(GroupAggregateOp::global(AggFunc::Count)),
            ConsistencySpec::middle(),
            vec![Port::Node(win)],
        );
        let mut df = b.build(&[cnt]);

        let mut sb = StreamBuilder::new();
        for i in 0..10u64 {
            sb.insert(
                Interval::from(t(i)),
                Payload::from_values(vec![Value::Int(i as i64)]),
            );
        }
        df.run_stream(0, sb.build_ordered(Some(dur(1)), true));

        let net = df.collector(cnt).net_table();
        assert!(!net.is_empty());
        // With W_5 over points at 0..10, count at time 4 is 5 (events 0..4).
        let snap = net.snapshot_at(t(4));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].payload.get(0), Some(&Value::Int(5)));
        // The final CTI must have propagated through all three operators.
        assert_eq!(df.collector(cnt).max_cti(), Some(TimePoint::INFINITY));
    }

    #[test]
    fn fan_out_to_two_consumers() {
        let mut b = DataflowBuilder::new(1);
        let sel = b.add_node(
            Box::new(SelectOp::new(Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0)],
        );
        let w1 = b.add_node(
            Box::new(AlterLifetimeOp::window(dur(2))),
            ConsistencySpec::middle(),
            vec![Port::Node(sel)],
        );
        let w2 = b.add_node(
            Box::new(AlterLifetimeOp::window(dur(4))),
            ConsistencySpec::middle(),
            vec![Port::Node(sel)],
        );
        let mut df = b.build(&[w1, w2]);
        let mut sb = StreamBuilder::new();
        sb.insert(Interval::from(t(0)), Payload::empty());
        df.run_stream(0, sb.build_ordered(None, true));
        assert_eq!(
            df.collector(w1).net_table().rows[0].interval,
            Interval::new(t(0), t(2))
        );
        assert_eq!(
            df.collector(w2).net_table().rows[0].interval,
            Interval::new(t(0), t(4))
        );
    }

    #[test]
    fn two_sources_feed_a_sequence() {
        let mut b = DataflowBuilder::new(2);
        let seq = b.add_node(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0), Port::Source(1)],
        );
        let mut df = b.build(&[seq]);

        let mut a = StreamBuilder::with_id_base(0);
        a.insert_at(t(1), Payload::empty());
        let mut c = StreamBuilder::with_id_base(1000);
        c.insert_at(t(4), Payload::empty());
        // Round-robin the two providers' streams (equal lengths).
        for (ma, mc) in a
            .build_ordered(None, true)
            .into_iter()
            .zip(c.build_ordered(None, true))
        {
            df.push_source(0, ma);
            df.push_source(1, mc);
        }
        assert_eq!(df.collector(seq).stats().inserts, 1);
        assert_eq!(df.collector(seq).max_cti(), Some(TimePoint::INFINITY));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_is_rejected() {
        let mut b = DataflowBuilder::new(1);
        b.add_node(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0)], // needs 2
        );
    }

    #[test]
    fn snapshot_carries_each_output_event_once() {
        // A watched stateless node: between two CTI-closed rounds its
        // shell state is constant-size, so the image grows by exactly the
        // encoded size of the deltas appended to the log — one copy of
        // each output event, no history/tape mirrors.
        let build = || {
            let mut b = DataflowBuilder::new(1);
            let sel = b.add_node(
                Box::new(SelectOp::new(Pred::True)),
                ConsistencySpec::strong(),
                vec![Port::Source(0)],
            );
            (b.build(&[sel]), sel)
        };
        let (mut df, sel) = build();
        let round = |df: &mut Dataflow, base: u64| {
            let mut batch = MessageBatch::new();
            for i in base..base + 25 {
                batch.push(Message::insert(
                    i + 1,
                    Interval::new(t(i), t(i + 4)),
                    Payload::from_values(vec![Value::Int(i as i64), Value::str("payload")]),
                ));
            }
            batch.push_cti(t(base + 25));
            df.push_source_batch(0, &batch);
        };
        let image = |df: &Dataflow| {
            let mut out = Vec::new();
            df.state_snapshot(&mut out).unwrap();
            out
        };

        round(&mut df, 0);
        let (before, logged) = (image(&df), df.collector(sel).delta_log().len());
        round(&mut df, 25);
        let after = image(&df);
        let appended = &df.collector(sel).delta_log()[logged..];
        assert_eq!(appended.len(), 26, "25 inserts + the CTI");
        let appended_bytes: usize = appended
            .iter()
            .map(|d| cedr_durable::to_bytes(d).len())
            .sum();
        assert_eq!(after.len() - before.len(), appended_bytes);

        // And the image restores to the same log, stats and guarantee.
        let (mut restored, _) = build();
        restored
            .state_restore(&mut cedr_durable::Reader::new(&after))
            .unwrap();
        let (a, r) = (df.collector(sel), restored.collector(sel));
        assert_eq!(r.delta_log(), a.delta_log());
        assert_eq!(r.stats(), a.stats());
        assert_eq!(r.max_cti(), a.max_cti());
        assert_eq!(image(&restored), after);
    }

    #[test]
    fn total_stats_aggregate_across_nodes() {
        let mut b = DataflowBuilder::new(1);
        let s1 = b.add_node(
            Box::new(SelectOp::new(Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0)],
        );
        let _s2 = b.add_node(
            Box::new(SelectOp::new(Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Node(s1)],
        );
        let mut df = b.build(&[]);
        let mut sb = StreamBuilder::new();
        sb.insert_at(t(0), Payload::empty());
        df.run_stream(0, sb.build_ordered(None, false));
        let total = df.total_stats();
        assert_eq!(total.arrivals, 2, "both nodes saw the event");
        assert_eq!(total.out_inserts, 2);
    }
}
