//! A collective operation built on the messaging layer: all-to-all
//! personalized exchange (each node sends a distinct block to every
//! other node), the communication kernel of matrix transpose and FFT.
//!
//! Shows the messaging-layer costs the paper measures composing at
//! application scale, and how the same collective shrinks on a
//! high-level network.
//!
//! Run with: `cargo run -p timego-bench --example collective`

use timego_am::{CmamConfig, Machine};
use timego_netsim::NodeId;
use timego_ni::share;
use timego_workloads::{payloads, scenarios};

const NODES: usize = 8;
const BLOCK_WORDS: usize = 64;

fn run(m: &mut Machine, hl: bool) -> Result<u64, Box<dyn std::error::Error>> {
    m.reset_costs();
    // Each ordered pair exchanges one block; verify every block.
    for s in 0..NODES {
        for d in 0..NODES {
            if s == d {
                continue;
            }
            let block = payloads::mixed(BLOCK_WORDS, (s * NODES + d) as u64);
            let out = if hl {
                m.hl_xfer(NodeId::new(s), NodeId::new(d), &block)?
            } else {
                m.xfer(NodeId::new(s), NodeId::new(d), &block)?
            };
            assert_eq!(
                m.read_buffer(NodeId::new(d), out.dst_buffer, BLOCK_WORDS),
                block,
                "block {s}->{d} must arrive intact"
            );
        }
    }
    Ok((0..NODES).map(|i| m.cpu(NodeId::new(i)).snapshot().total()).sum())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "all-to-all personalized exchange: {NODES} nodes x {BLOCK_WORDS}-word blocks ({} transfers)",
        NODES * (NODES - 1)
    );

    // CMAM protocols over the instant raw substrate.
    let mut m = Machine::new(share(scenarios::table_in_order(NODES)), NODES, CmamConfig::default());
    let cmam_total = run(&mut m, false)?;
    println!("CMAM finite-sequence transfers: {cmam_total} instructions");

    // The same collective on a high-level network.
    let mut m = Machine::new(share(scenarios::table_in_order(NODES)), NODES, CmamConfig::default());
    let hl_total = run(&mut m, true)?;
    println!(
        "high-level network transfers:   {hl_total} instructions ({:.0}% saved)",
        100.0 * (1.0 - hl_total as f64 / cmam_total as f64)
    );
    println!(
        "small blocks make the preallocation handshake dominate — exactly\nwhere the paper says buffer management hurts most."
    );

    // And over a real switched fat tree, to show it all still works with
    // contention, finite buffers and real routing.
    let mut m = Machine::new(
        share(scenarios::cm5_deterministic(NODES, 77)),
        NODES,
        CmamConfig::default(),
    );
    let switched_total = run(&mut m, false)?;
    println!("same collective over the switched fat tree: {switched_total} instructions (extra polls while packets are in flight)");

    // Engine-native collectives: a binomial broadcast and a
    // recursive-doubling all-reduce expressed as run-after dependency
    // DAGs, sharing one engine run. Each edge is admitted the moment
    // its predecessor delivers, so independent subtrees and rounds
    // overlap instead of waiting on a global phase barrier.
    use timego_am::Engine;
    use timego_workloads::apps::collectives;

    let inputs: Vec<u32> = (0..NODES as u32).map(|i| 10 + i).collect();
    let mut m = Machine::new(
        share(scenarios::cm5_deterministic(NODES, 77)),
        NODES,
        CmamConfig::default(),
    );
    let mut eng = Engine::new();
    let bc = collectives::submit_broadcast(&mut eng, &mut m, NodeId::new(0), [7, 7, 7, 7], None)?;
    let ar = collectives::submit_allreduce(&mut eng, &mut m, &inputs, None)?;
    eng.run(&mut m);
    let dag_cycles = m.network().borrow().now();
    let seen = collectives::broadcast_results(&mut eng, &bc, NODES)?;
    let sums = collectives::allreduce_results(&mut eng, &ar)?;
    assert!(seen.iter().all(|w| *w == [7, 7, 7, 7]), "broadcast must reach every node");
    let expect: u32 = inputs.iter().sum();
    assert!(sums.iter().all(|s| *s == expect), "every node must hold the full sum");
    // Held spans come straight off the scheduler trace: how long each
    // edge sat behind its predecessor before being released.
    let held: u64 = eng.hold_times().iter().map(|(_, h)| h).sum();

    // The same two collectives, phase-serial: one engine run per round.
    let mut m = Machine::new(
        share(scenarios::cm5_deterministic(NODES, 77)),
        NODES,
        CmamConfig::default(),
    );
    collectives::broadcast_phased(&mut m, NodeId::new(0), [7, 7, 7, 7])?;
    collectives::allreduce_phased(&mut m, &inputs)?;
    let phased_cycles = m.network().borrow().now();

    println!(
        "\nengine-native broadcast + all-reduce (one DAG run): sum {expect} at every node"
    );
    println!(
        "  dependency DAG: {dag_cycles} wall clock ({held} op-cycles spent held behind predecessors)"
    );
    println!(
        "  phase-serial:   {phased_cycles} wall clock — the DAG overlaps what phases serialize"
    );
    Ok(())
}
