//! The paper's own running example (Section 3.1): alert when an INSTALL is
//! followed by a SHUTDOWN within 12 hours and then *no* RESTART within 5
//! minutes — UNLESS over SEQUENCE with a Machine_Id correlation key.
//!
//! The example runs the same disordered trace at all three consistency
//! levels and prints the Figure-8 trade-off live.
//!
//! Run with: `cargo run --example machine_monitoring`

use cedr::core::prelude::*;
use cedr::streams::merge_scramble;
use cedr::workload::accuracy_f1;
use cedr::workload::machines::{self, MachineWorkloadConfig};

const QUERY: &str = "\
EVENT CIDR07_Example
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE {x.Machine_Id = y.Machine_Id} AND
      {x.Machine_Id = z.Machine_Id}
OUTPUT x.Machine_Id AS machine";

fn run_at(
    spec: ConsistencySpec,
    trace: &machines::MachineTrace,
) -> Result<(Engine, QueryId), Box<dyn std::error::Error>> {
    let mut engine = Engine::new();
    for ty in ["INSTALL", "SHUTDOWN", "RESTART"] {
        engine.register_event_type(ty, vec![("Machine_Id", FieldType::Str)]);
    }
    let q = engine.register_query(QUERY, spec)?;

    // One global delivery timeline with bounded disorder (the "unreliable
    // network" substrate) — identical for every consistency level.
    let streams = trace.to_streams(Some(Duration::minutes(10)));
    let routed: Vec<(usize, &[Message])> = streams
        .iter()
        .enumerate()
        .map(|(i, (_, msgs))| (i, msgs.as_slice()))
        .collect();
    let disorder = DisorderConfig::heavy(42, 6 * 3600, 25);
    let tape = merge_scramble(&routed, &disorder);

    // Concurrent-provider topology: one `ChannelSource` per monitored
    // stream, each fed from its own thread in disordered micro-batches,
    // while the engine thread pumps — providers feed the engine *while it
    // drains*. The pump's canonical round order makes the run
    // deterministic regardless of how the three threads interleave, so
    // the Figure-8 numbers below are stable run to run.
    let mut sources: Vec<ChannelSource> = streams
        .iter()
        .map(|(ty, _)| engine.channel_source(ty))
        .collect::<Result<_, _>>()?;
    let mut slices: Vec<Vec<MessageBatch>> = vec![Vec::new(); streams.len()];
    for chunk in tape.chunks(16) {
        let mut per_type = vec![MessageBatch::new(); streams.len()];
        for (slot, msg) in chunk {
            per_type[*slot].push(msg.clone());
        }
        for (slot, batch) in per_type.into_iter().enumerate() {
            if !batch.is_empty() {
                slices[slot].push(batch);
            }
        }
    }
    std::thread::scope(|scope| {
        for (src, batches) in sources.drain(..).zip(slices) {
            scope.spawn(move || {
                let mut src = src.manual_flush();
                for batch in batches {
                    src.stage_batch(&batch);
                    src.flush(); // one emission per micro-batch
                }
                // Dropping the source disconnects its provider.
            });
        }
        engine.run_pipelined()
    })?;
    Ok((engine, q))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineWorkloadConfig {
        machines: 10,
        episodes: 20,
        shutdown_prob: 0.85,
        restart_prob: 0.5,
        seed: 2007,
    };
    let trace = machines::generate(&cfg);
    println!(
        "Machine-monitoring trace: {} installs, {} shutdowns, {} restarts, \
         {} ground-truth alerts\n",
        trace.installs.len(),
        trace.shutdowns.len(),
        trace.restarts.len(),
        trace.expected_alerts
    );
    println!("Query:\n{QUERY}\n");

    let (ref_engine, ref_q) = run_at(ConsistencySpec::strong(), &trace)?;
    let reference = ref_engine.collector(ref_q).net_table();

    println!(
        "{:<22} {:>8} {:>12} {:>10} {:>12} {:>9}",
        "consistency", "alerts", "retractions", "blocked", "peak state", "accuracy"
    );
    for (name, spec) in [
        ("Strong ⟨B=∞,M=∞⟩", ConsistencySpec::strong()),
        ("Middle ⟨B=0,M=∞⟩", ConsistencySpec::middle()),
        ("Weak ⟨B=0,M=4h⟩", ConsistencySpec::weak(Duration::hours(4))),
    ] {
        let (engine, q) = run_at(spec, &trace)?;
        let out = engine.collector(q);
        let net = out.net_table();
        let totals = engine.stats(q);
        println!(
            "{:<22} {:>8} {:>12} {:>10} {:>12} {:>9.3}",
            name,
            net.len(),
            out.stats().retractions,
            totals.blocked_ticks,
            totals.state_peak,
            accuracy_f1(&net, &reference),
        );
        if spec == ConsistencySpec::strong() {
            assert_eq!(net.len(), trace.expected_alerts, "strong is exact");
        }
    }
    println!(
        "\nStrong blocks until guarantees cover the 12h+5min scopes;\n\
         middle alerts immediately and retracts when a late RESTART heals\n\
         an episode; weak forgets episodes older than 4 hours."
    );
    Ok(())
}
