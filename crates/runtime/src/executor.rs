//! The batch-at-a-time dataflow executor: "a set of composable operators
//! that can be combined to form a pipelined query execution plan"
//! (Section 5).
//!
//! Plans are DAGs of [`OperatorShell`]s fed by named external sources.
//! Execution is deterministic and scheduled a **batch at a time** rather
//! than a message at a time: a quiescence pass visits nodes in
//! topological order and hands each node its input as maximal same-port
//! **runs** via [`OperatorShell::push_batch`]. Draining upstream nodes
//! before downstream ones means a node sees everything its producers
//! emitted this round in one batch, amortising shell and module overhead
//! across the run (see `OpStats::mean_batch_len`). Per-node FIFO order is
//! identical to the historical message-at-a-time cascade, so operator
//! semantics are unchanged.
//!
//! # Delivery borrows
//!
//! A dataflow has one way in: [`Dataflow::run_round`] runs a round of
//! source batches, and [`Dataflow::push_source`] is the same call for a
//! round of one message. A source message is never copied on its way to
//! a shell: each node is handed the round's batches as `&[Message]`
//! slices of the caller's own [`MessageBatch`]es — no per-subscriber
//! clone, no queue hop. The run a shell receives may therefore *be* the
//! producer's memory; a module that keeps a message clones it (an `Arc`
//! bump, see [`crate::operator`]). A batch is copied into the node's
//! queue only where the node's runs are not the round's batches: two
//! adjacent batches on one port are one run, and one batch read on two
//! ports is interleaved per message. `tests/round_equivalence.rs` pins
//! delta logs, statistics and image bytes against those the deleted
//! stage-then-drain route produced.
//!
//! Between nodes, outputs travel as whole runs: a shell's output
//! `Vec<Message>` is moved into its last subscriber's queue (cloned —
//! one `Arc` bump per message — only for the others and for a collector
//! that is not the sole consumer).
//!
//! # Scheduling
//!
//! Because nodes may only reference earlier nodes, a round is a single
//! sweep in ascending node-id order, driven from a **ready queue** — an
//! ordered worklist of dirty nodes, seeded with the round's subscribers
//! and extended as producers emit — so a round costs O(dirty·log)
//! instead of rescanning every node per step. Every node queue is empty
//! when a round begins and when it ends, so a dataflow never holds input
//! between calls. A dataflow is single-threaded and owns all of its
//! state; parallelism lives one layer up, where `cedr-core` drains whole
//! dataflows (one per standing query) on drain worker threads. Per-shell
//! arrival order is a function of the rounds alone, so execution is
//! deterministic at every consistency level (only *caller-side batch
//! splitting* moves Weak's forgetting horizon race).
//!
//! Sink outputs are logged by [`cedr_streams::Collector`]s: each output
//! run is appended to the collector's [`OutputDelta`] log — the change
//! stream that engine-level subscriptions drain incrementally, and the
//! single store the temporal equivalence machinery (history tables, net
//! tables) is folded from.
//!
//! Nothing here depends on a hash order: collectors and queues are
//! indexed by node id, and a checkpoint image lists watched nodes
//! ascending.

use crate::consistency::ConsistencySpec;
use crate::operator::{OperatorModule, OperatorShell};
use crate::OpStats;
use cedr_obs::{ObsHub, TraceEvent};
use cedr_streams::{Collector, Message, MessageBatch, OutputDelta};
use std::collections::{BTreeSet, VecDeque};
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
        let mut node_sources: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.shells.len()];
        let mut node_subs: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); self.shells.len()];
        for (node, inputs) in self.inputs.iter().enumerate() {
            for (port, src) in inputs.iter().enumerate() {
                match src {
                    Port::Source(s) => {
                        source_subs[*s].push((node, port));
                        node_sources[node].push((*s, port));
                    }
                    Port::Node(n) => node_subs[*n].push((node, port)),
                }
            }
        }
        let mut collectors: Vec<Option<Collector>> = vec![None; self.shells.len()];
        for &n in watched {
            assert!(n < self.shells.len(), "cannot watch unknown node {n}");
            collectors[n] = Some(Collector::new());
        }
        let queues = vec![VecDeque::new(); self.shells.len()];
        Dataflow {
            nodes: self.shells,
            source_subs,
            node_sources,
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
    /// Per source: the `(node, port)` pairs reading it, ascending.
    source_subs: Vec<Vec<(NodeId, usize)>>,
    /// The same edges per node: the `(source, port)` pairs it reads,
    /// ports ascending.
    node_sources: Vec<Vec<(usize, usize)>>,
    node_subs: Vec<Vec<(NodeId, usize)>>,
    /// Indexed by node id; `Some` for watched nodes.
    collectors: Vec<Option<Collector>>,
    /// Per-node FIFO of `(port, run)` awaiting delivery within a round —
    /// empty between calls; adjacent runs are never on the same port (see
    /// [`enqueue`]).
    queues: Vec<VecDeque<(usize, Vec<Message>)>>,
    tick: u64,
    /// Observability hub + the query index this dataflow traces under.
    /// Never serialized (`state_snapshot` excludes it) and never read by
    /// scheduling decisions, so it cannot perturb bit-identity.
    obs: Option<(Arc<ObsHub>, u16)>,
}

/// Append `msgs` to a node's input queue: onto its last run when that run
/// is on the same port, as a new run otherwise — so what the queue holds
/// *is* the maximal same-port runs the node will be handed.
fn enqueue(
    queue: &mut VecDeque<(usize, Vec<Message>)>,
    port: usize,
    msgs: impl IntoIterator<Item = Message>,
) {
    match queue.back_mut() {
        Some((last, run)) if *last == port => run.extend(msgs),
        _ => queue.push_back((port, msgs.into_iter().collect())),
    }
}

impl Dataflow {
    /// Attach an observability hub; `query` labels this dataflow's trace
    /// events and timings. Observation only — delivery order, operator
    /// state and statistics are unchanged with or without a hub.
    pub fn set_obs(&mut self, hub: Arc<ObsHub>, query: u16) {
        self.obs = Some((hub, query));
    }

    /// Run one **ingestion round**: every `(source, batch)` pair in order,
    /// delivered in a single quiescence pass over their union — wherever a
    /// node's runs are exactly the round's batches, it is handed those
    /// batches' own slices.
    ///
    /// This is the one scheduler entry point: because the pass structure
    /// is fixed — one pass per round, however the round was assembled — a
    /// round-admitting caller that feeds identical rounds in identical
    /// order gets bit-identical execution, regardless of the thread
    /// timing that produced those rounds. An empty round still runs the
    /// (no-op) pass.
    ///
    /// # Tick semantics
    ///
    /// The CEDR tick is an *ingestion-round* counter, not a message
    /// counter: each non-empty batch of a round advances it **once**,
    /// however many messages the batch carries, while
    /// [`Dataflow::push_source`] advances it per message. Blocking
    /// durations ([`OpStats::blocked_ticks`]) therefore measure how many
    /// ingestion rounds a message waited in an alignment buffer —
    /// comparable across batch sizes — and never affect *what* is
    /// delivered: release decisions are driven by syncs and CTIs
    /// (occurrence time), not by the tick.
    pub fn run_round<'a>(&mut self, round: impl IntoIterator<Item = (usize, &'a MessageBatch)>) {
        let staged: Vec<(usize, &[Message])> = round
            .into_iter()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(source, batch)| (source, batch.as_slice()))
            .collect();
        self.tick += staged.len() as u64;
        self.sweep(&staged);
    }

    /// Feed one message into external source `source`: a round of one,
    /// cascaded through the graph to quiescence. A convenience for tests
    /// that drive a bare dataflow; the engine always enters through
    /// [`Dataflow::run_round`].
    pub fn push_source(&mut self, source: usize, msg: Message) {
        self.tick += 1;
        self.sweep(&[(source, std::slice::from_ref(&msg))]);
    }

    /// The one quiescence pass: a sweep driven by a ready queue, an
    /// ordered worklist of nodes with pending input. Edges only point
    /// forward, so popping the smallest dirty node processes every
    /// producer before its consumers — by the time a node runs it holds
    /// everything upstream emitted this round.
    ///
    /// A node's input is delivered to its shell as **maximal same-port
    /// runs**: first the round's `staged` source batches it reads, then
    /// what is queued for it. A staged batch is handed over as a borrowed
    /// slice — no clone, no queue — unless the node's runs are not the
    /// batches themselves: two adjacent batches on one port are one run,
    /// one batch on two ports is interleaved per message. Those are
    /// materialised through the node's queue. Every queue is empty when a
    /// pass begins, so whatever a node's queue holds when its turn comes
    /// was emitted upstream during this pass — after the round.
    ///
    /// A watched node's outputs are appended to its collector's delta log
    /// and moved (cloned only on fan-out) to its subscribers' queues.
    fn sweep(&mut self, staged: &[(usize, &[Message])]) {
        let now = self.tick;
        let Dataflow {
            nodes,
            source_subs,
            node_sources,
            node_subs,
            collectors,
            queues,
            obs,
            ..
        } = self;
        debug_assert!(queues.iter().all(VecDeque::is_empty));
        let mut ready: BTreeSet<NodeId> = staged
            .iter()
            .flat_map(|&(source, _)| source_subs[source].iter().map(|&(node, _)| node))
            .collect();
        // The current node's share of the round, as `(port, staged index)`
        // in staged order (a source read on two ports yields twice).
        let mut feed: Vec<(usize, usize)> = Vec::new();
        while let Some(node) = ready.pop_first() {
            let mut queued = std::mem::take(&mut queues[node]);
            let mut deliver = |port: usize, run: &[Message]| {
                if let Some((hub, query)) = obs {
                    hub.trace(|| TraceEvent::OperatorRun {
                        query: *query,
                        node: node as u16,
                        batch_len: run.len().min(u32::MAX as usize) as u32,
                    });
                }
                let outs = nodes[node].push_batch(port, run, now);
                if outs.is_empty() {
                    return;
                }
                let subs = &node_subs[node];
                if let Some(c) = &mut collectors[node] {
                    if subs.is_empty() {
                        c.push_all(outs);
                        return;
                    }
                    c.push_all(outs.iter().cloned());
                }
                let Some((&(last, last_port), rest)) = subs.split_last() else {
                    return;
                };
                for &(next, next_port) in rest {
                    enqueue(&mut queues[next], next_port, outs.iter().cloned());
                }
                enqueue(&mut queues[last], last_port, outs);
                ready.extend(subs.iter().map(|&(next, _)| next));
            };
            feed.clear();
            for (i, &(source, _)) in staged.iter().enumerate() {
                let reads = node_sources[node].iter();
                feed.extend(reads.filter_map(|&(s, port)| (s == source).then_some((port, i))));
            }
            // Borrowable: no two adjacent entries share a port or a batch.
            let mut pairs = feed.windows(2);
            if pairs.all(|w| w[0].0 != w[1].0 && w[0].1 != w[1].1) {
                for &(port, i) in &feed {
                    deliver(port, staged[i].1);
                }
            } else {
                // Source runs go first: the round precedes what upstream
                // emits during it.
                let mut sourced = VecDeque::new();
                for ports in feed.chunk_by(|a, b| a.1 == b.1) {
                    for m in staged[ports[0].1].1 {
                        for &(port, _) in ports {
                            enqueue(&mut sourced, port, [m.clone()]);
                        }
                    }
                }
                sourced.append(&mut queued);
                queued = sourced;
            }
            for (port, run) in queued.drain(..) {
                deliver(port, &run);
            }
            queues[node] = queued;
        }
    }

    /// The collector attached to a watched node.
    pub fn collector(&self, node: NodeId) -> &Collector {
        self.collectors[node]
            .as_ref()
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
    /// any node queue still holds undelivered messages — a guard, since
    /// every round ends with all queues empty.
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
        let watched = || {
            let slots = self.collectors.iter().enumerate();
            slots.filter_map(|(node, c)| Some((node, c.as_ref()?)))
        };
        (watched().count() as u64).encode(out);
        for (node, collector) in watched() {
            (node as u64).encode(out);
            // Same wire layout as `Vec<OutputDelta>`, without cloning the
            // log into one.
            let log = collector.delta_log();
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
        let plan_watched = self.collectors.iter().flatten().count();
        if watched != plan_watched {
            return Err(cedr_durable::CodecError::new(format!(
                "plan watches {plan_watched} nodes, image has {watched}"
            )));
        }
        for _ in 0..watched {
            let node = u64::decode(r)? as NodeId;
            let log = Vec::<OutputDelta>::decode(r)?;
            match self.collectors.get_mut(node) {
                Some(Some(c)) => *c = Collector::from_deltas(log),
                _ => {
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
        for m in sb.build_ordered(Some(dur(1)), true) {
            df.push_source(0, m);
        }

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
        for m in sb.build_ordered(None, true) {
            df.push_source(0, m);
        }
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
            df.run_round([(0, &batch)]);
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

    /// Pass-through module of any arity that records the `(port, ids)` of
    /// every run it is handed.
    struct Tap {
        arity: usize,
        runs: TapRuns,
    }

    type TapRuns = std::sync::Arc<std::sync::Mutex<Vec<(usize, Vec<u64>)>>>;

    impl OperatorModule for Tap {
        fn name(&self) -> &'static str {
            "tap"
        }
        fn arity(&self) -> usize {
            self.arity
        }
        fn on_batch(&mut self, input: usize, msgs: &[Message], ctx: &mut crate::OpContext) {
            let ids = msgs.iter().filter_map(|m| Some(m.as_insert()?.id.0));
            self.runs.lock().unwrap().push((input, ids.collect()));
            for e in msgs.iter().filter_map(Message::as_insert) {
                ctx.out.insert(e.clone());
            }
        }
    }

    fn inserts(ids: std::ops::Range<u64>) -> MessageBatch {
        ids.map(|i| Message::insert(i, Interval::new(t(i), t(i + 4)), Payload::empty()))
            .collect()
    }

    /// σ(true) on source 0 feeding port 0 of a two-port tap whose port 1
    /// reads source 0 directly; both watched.
    fn select_into_tap() -> (Dataflow, TapRuns) {
        let runs = TapRuns::default();
        let mut b = DataflowBuilder::new(1);
        let sel = b.add_node(
            Box::new(SelectOp::new(Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0)],
        );
        let tap = Box::new(Tap {
            arity: 2,
            runs: std::sync::Arc::clone(&runs),
        });
        let tap = b.add_node(
            tap,
            ConsistencySpec::middle(),
            vec![Port::Node(sel), Port::Source(0)],
        );
        (b.build(&[sel, tap]), runs)
    }

    #[test]
    fn two_batches_of_one_source_in_one_round_are_one_run() {
        let mut b = DataflowBuilder::new(1);
        let sel = b.add_node(
            Box::new(SelectOp::new(Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0)],
        );
        let mut df = b.build(&[sel]);
        let (first, second) = (inserts(0..3), inserts(3..8));
        df.run_round([(0, &first), (0, &second)]);
        assert_eq!(df.now(), 2, "each staged batch is one tick");
        let stats = df.stats(sel);
        assert_eq!(
            (stats.batches, stats.batch_peak, stats.delivered),
            (1, 8, 8)
        );
        assert_eq!(df.collector(sel).stats().inserts, 8);
    }

    #[test]
    fn a_node_sees_its_source_run_before_its_upstream_run() {
        let (mut df, runs) = select_into_tap();
        df.run_round([(0, &inserts(0..3))]);
        assert_eq!(
            *runs.lock().unwrap(),
            vec![(1, vec![0, 1, 2]), (0, vec![0, 1, 2])]
        );
    }

    #[test]
    fn one_batch_on_two_ports_is_interleaved_per_message() {
        let runs = TapRuns::default();
        let mut b = DataflowBuilder::new(1);
        let tap = Box::new(Tap {
            arity: 2,
            runs: std::sync::Arc::clone(&runs),
        });
        let tap = b.add_node(
            tap,
            ConsistencySpec::middle(),
            vec![Port::Source(0), Port::Source(0)],
        );
        let mut df = b.build(&[tap]);
        df.run_round([(0, &inserts(0..2))]);
        assert_eq!(
            *runs.lock().unwrap(),
            vec![(0, vec![0]), (1, vec![0]), (0, vec![1]), (1, vec![1])]
        );
    }

    #[test]
    fn the_trace_ring_records_one_operator_run_per_run() {
        let (mut df, _) = select_into_tap();
        let hub = Arc::new(ObsHub::new(64));
        df.set_obs(Arc::clone(&hub), 7);
        df.run_round([(0, &inserts(0..3)), (0, &inserts(3..5))]);
        let runs: Vec<(u16, u16, u32)> = hub
            .trace_events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::OperatorRun {
                    query,
                    node,
                    batch_len,
                } => Some((query, node, batch_len)),
                _ => None,
            })
            .collect();
        // The select's merged source run, then the tap's: source first.
        assert_eq!(runs, vec![(7, 0, 5), (7, 1, 5), (7, 1, 5)]);
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
        for m in sb.build_ordered(None, false) {
            df.push_source(0, m);
        }
        let total = df.total_stats();
        assert_eq!(total.arrivals, 2, "both nodes saw the event");
        assert_eq!(total.out_inserts, 2);
    }
}
