//! Collectives from single-packet active messages: binomial-tree
//! broadcast, recursive-doubling all-reduce, and a barrier.
//!
//! The CM-5 had a dedicated control network for these; on the data
//! network they are what applications build from `CMAM_4`, and each
//! tree edge costs exactly one Table 1 round (20 + 27 instructions).
//!
//! Since the engine gained run-after dependencies, the collectives are
//! *dependency DAGs*: every tree edge is one [`Op::am4`] submitted
//! [`Op::after`] the delivery that fed its sender. Independent
//! subtrees overlap freely instead of marching in lockstep rounds — the
//! per-feature instruction bill is unchanged (same edges, same Table 1
//! shapes), only wall-cycles compress. Three entry points per
//! collective:
//!
//! * `submit_*` — build the DAG on a caller-owned [`Engine`] (compose
//!   with other traffic), then harvest with the matching `*_results`.
//!   Pass a [`RecoveryPolicy`] to make every edge self-healing.
//! * the blocking names ([`broadcast`], [`allreduce_sum`], [`barrier`])
//!   — thin run-to-completion wrappers: fresh engine, submit, run,
//!   harvest. Drop-in replacements for the old blocking loops, pinned
//!   cost-identical by the Table 1 edge-count tests below.
//! * `*_phased` — the pre-dependency baseline: one engine run per tree
//!   round with a full barrier between rounds. The bench report
//!   compares these against the DAGs to measure what run-after overlap
//!   buys.

use timego_am::{
    family, Engine, Machine, Op, OpId, OpOutcome, ProtocolError, RecoveryPolicy, Tags,
};
use timego_netsim::NodeId;

/// Tag used by collective packets (user range).
pub const COLLECTIVE_TAG: u8 = Tags::USER_BASE + 7;

/// One collective edge: an am4 held behind the delivery that fed its
/// sender, recovery-managed when the collective carries a policy.
fn edge(
    src: usize,
    dst: usize,
    words: [u32; 4],
    after: Option<OpId>,
    recovery: Option<&RecoveryPolicy>,
) -> Op<family::Am4> {
    let op = Op::am4(NodeId::new(src), NodeId::new(dst), COLLECTIVE_TAG, words)
        .after(after.as_slice());
    match recovery {
        Some(policy) => op.recovering(policy),
        None => op,
    }
}

/// Harvest one am4 outcome, surfacing the operation's failure.
fn take_am4(eng: &mut Engine, id: OpId) -> Result<[u32; 4], ProtocolError> {
    match eng.take_outcome(id).expect("collective op ran to completion") {
        Ok(OpOutcome::Am4(words)) => Ok(words),
        Ok(other) => unreachable!("am4 submission yielded {other:?}"),
        Err(e) => Err(e),
    }
}

/// Keep the most informative failure: a root-cause error (timeout,
/// refused injection) beats the `DependencyFailed` echoes downstream
/// of it.
fn keep_root_cause(slot: &mut Option<ProtocolError>, e: ProtocolError) {
    let echo = matches!(e, ProtocolError::DependencyFailed { .. });
    match slot {
        None => *slot = Some(e),
        Some(ProtocolError::DependencyFailed { .. }) if !echo => *slot = Some(e),
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Broadcast.
// ---------------------------------------------------------------------

/// A submitted broadcast DAG: the handle for harvesting per-node
/// results after the engine run.
pub struct BroadcastDag {
    value: [u32; 4],
    root: usize,
    /// `(receiver node, op that delivers to it)` — one entry per tree
    /// edge; every non-root node appears exactly once.
    edges: Vec<(usize, OpId)>,
}

/// Submit a binomial-tree broadcast of `value` from `root` as a
/// dependency DAG on `eng`: each relay edge runs after the edge that
/// delivered the value to its sender, so independent subtrees overlap.
/// Nothing moves until the caller pumps the engine.
///
/// With `recovery`, every tree edge carries that engine-native
/// [`RecoveryPolicy`]: an edge felled by a node crash-restart (or a
/// watchdog) is parked and re-executed by the engine itself, and — the
/// DAG-aware part — its dependent subtree stays held and releases when
/// the recovered edge finally delivers, instead of cascading
/// `DependencyFailed`. Each such edge carries a unique delivery token,
/// so a duplicate from a superseded execution can never satisfy (or
/// corrupt) another edge's delivery.
///
/// # Errors
///
/// [`ProtocolError::BadTransfer`] if an edge is rejected (a
/// zero-execution `recovery`; cannot happen otherwise).
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn submit_broadcast(
    eng: &mut Engine,
    m: &mut Machine,
    root: NodeId,
    value: [u32; 4],
    recovery: Option<&RecoveryPolicy>,
) -> Result<BroadcastDag, ProtocolError> {
    let n = m.num_nodes();
    assert!(root.index() < n);
    // Rank space rotated so the root is rank 0.
    let node_of = |rank: usize| (rank + root.index()) % n;

    // deliverer[rank]: the op that delivers the value to that rank.
    let mut deliverer: Vec<Option<OpId>> = vec![None; n];
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut stride = 1;
    while stride < n {
        for rank in 0..stride.min(n) {
            let peer = rank + stride;
            if peer < n {
                let op = edge(node_of(rank), node_of(peer), value, deliverer[rank], recovery);
                let id = eng.submit(m, op)?;
                deliverer[peer] = Some(id);
                edges.push((node_of(peer), id));
            }
        }
        stride *= 2;
    }
    Ok(BroadcastDag { value, root: root.index(), edges })
}

/// Harvest a finished broadcast: the value as seen at every node (the
/// root sees what it sent; every other node sees the words its edge op
/// actually delivered).
///
/// # Errors
///
/// The root cause when any edge failed ([`ProtocolError::Timeout`] from
/// the edge itself, in preference to downstream
/// [`ProtocolError::DependencyFailed`] echoes).
pub fn broadcast_results(
    eng: &mut Engine,
    dag: &BroadcastDag,
    num_nodes: usize,
) -> Result<Vec<[u32; 4]>, ProtocolError> {
    let mut seen = vec![[0u32; 4]; num_nodes];
    seen[dag.root] = dag.value;
    let mut failure = None;
    for &(node, id) in &dag.edges {
        match take_am4(eng, id) {
            Ok(words) => seen[node] = words,
            Err(e) => keep_root_cause(&mut failure, e),
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(seen),
    }
}

/// Broadcast four words from `root` to every node with a binomial tree:
/// `⌈log₂ N⌉` rounds, each node relays once. Returns the value as seen
/// at every node (for verification).
///
/// A thin run-to-completion wrapper over [`submit_broadcast`] on a
/// fresh engine — cost-identical to the old blocking loop (one Table 1
/// round per tree edge, pinned by test).
///
/// # Errors
///
/// [`ProtocolError::Timeout`] if a relay starves.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn broadcast(
    m: &mut Machine,
    root: NodeId,
    value: [u32; 4],
) -> Result<Vec<[u32; 4]>, ProtocolError> {
    let mut eng = Engine::new();
    let dag = submit_broadcast(&mut eng, m, root, value, None)?;
    eng.run(m);
    broadcast_results(&mut eng, &dag, m.num_nodes())
}

/// Blocking self-healing broadcast: [`submit_broadcast`] with
/// `recovery` on a fresh engine, run to completion. Returns the
/// per-node values plus the total number of edge re-executions the
/// engine performed (zero on a clean run, whose cost is identical to
/// [`broadcast`]).
///
/// # Errors
///
/// The root-cause error once some edge's recovery budget is exhausted;
/// [`ProtocolError::BadTransfer`] if `recovery.max_executions` is zero.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn broadcast_recovering(
    m: &mut Machine,
    root: NodeId,
    value: [u32; 4],
    recovery: &RecoveryPolicy,
) -> Result<(Vec<[u32; 4]>, u32), ProtocolError> {
    let mut eng = Engine::new();
    let dag = submit_broadcast(&mut eng, m, root, value, Some(recovery))?;
    eng.run(m);
    let re_executions = dag.edges.iter().map(|&(_, id)| eng.recovery_executions(id)).sum();
    broadcast_results(&mut eng, &dag, m.num_nodes()).map(|seen| (seen, re_executions))
}

/// The pre-dependency baseline: the same binomial tree, but one engine
/// run per round with a full barrier between rounds (no cross-round
/// overlap). Relays forward the words actually delivered to them.
///
/// # Errors
///
/// [`ProtocolError::Timeout`] if a relay starves.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn broadcast_phased(
    m: &mut Machine,
    root: NodeId,
    value: [u32; 4],
) -> Result<Vec<[u32; 4]>, ProtocolError> {
    let n = m.num_nodes();
    assert!(root.index() < n);
    let rank_of = |node: usize| (node + n - root.index()) % n;
    let node_of = |rank: usize| (rank + root.index()) % n;

    let mut have: Vec<Option<[u32; 4]>> = vec![None; n];
    have[0] = Some(value);
    let mut stride = 1;
    while stride < n {
        let mut eng = Engine::new();
        let mut round = Vec::new();
        for (rank, held) in have.iter().enumerate().take(stride.min(n)) {
            let peer = rank + stride;
            if peer < n {
                let v = held.expect("sender holds the value by round r");
                let id = eng.submit(m, edge(node_of(rank), node_of(peer), v, None, None))?;
                round.push((peer, id));
            }
        }
        eng.run(m);
        for (peer, id) in round {
            have[peer] = Some(take_am4(&mut eng, id)?);
        }
        stride *= 2;
    }
    Ok((0..n).map(|node| have[rank_of(node)].expect("all ranks covered")).collect())
}

// ---------------------------------------------------------------------
// All-reduce.
// ---------------------------------------------------------------------

/// A submitted all-reduce DAG: the handle for harvesting per-node sums
/// after the engine run.
pub struct AllreduceDag {
    inputs: Vec<u32>,
    /// `recv[round][node]`: the op that delivers `node`'s partial for
    /// that exchange round.
    recv: Vec<Vec<OpId>>,
}

/// Submit a recursive-doubling all-reduce (sum of one word per node) as
/// a dependency DAG on `eng`: in each round every node exchanges
/// partials with `node ^ stride`, and a node's round-`r` send runs
/// after the delivery that completed its round-`r-1` partial. Payloads
/// carry the deterministically predicted partials; harvesting sums the
/// *actually delivered* words, so the result is honest about what moved
/// on the wire. Nothing moves until the caller pumps the engine.
///
/// With `recovery`, every exchange edge carries that engine-native
/// [`RecoveryPolicy`]: an exchange felled by a node crash-restart is
/// parked and re-executed inside the engine, its later-round dependents
/// stay held until the recovered exchange delivers, and per-edge
/// delivery tokens keep superseded duplicates from satisfying any other
/// edge.
///
/// # Errors
///
/// [`ProtocolError::BadTransfer`] if an edge is rejected (a
/// zero-execution `recovery`; cannot happen otherwise).
///
/// # Panics
///
/// Panics if the node count is not a power of two or inputs are fewer
/// than the node count.
pub fn submit_allreduce(
    eng: &mut Engine,
    m: &mut Machine,
    inputs: &[u32],
    recovery: Option<&RecoveryPolicy>,
) -> Result<AllreduceDag, ProtocolError> {
    let n = m.num_nodes();
    assert!(n.is_power_of_two(), "recursive doubling needs a power-of-two node count");
    assert!(inputs.len() >= n, "one input per node");
    let mut acc: Vec<u32> = inputs[..n].to_vec();
    let mut recv: Vec<Vec<OpId>> = Vec::new();
    // prev[node]: the op whose delivery completed node's previous round.
    let mut prev: Vec<Option<OpId>> = vec![None; n];
    let mut stride = 1;
    while stride < n {
        let mut this: Vec<Option<OpId>> = vec![None; n];
        for node in 0..n {
            let peer = node ^ stride;
            let op = edge(node, peer, [acc[node], 0, 0, 0], prev[node], recovery);
            this[peer] = Some(eng.submit(m, op)?);
        }
        // Predicted partials for the next round's payloads.
        let snapshot = acc.clone();
        for node in 0..n {
            acc[node] = acc[node].wrapping_add(snapshot[node ^ stride]);
        }
        recv.push(this.into_iter().map(|id| id.expect("every node is someone's peer")).collect());
        prev = recv.last().expect("just pushed").iter().copied().map(Some).collect();
        stride *= 2;
    }
    Ok(AllreduceDag { inputs: inputs[..n].to_vec(), recv })
}

/// Harvest a finished all-reduce: every node's sum, accumulated from
/// the words its exchange ops actually delivered.
///
/// # Errors
///
/// The root cause when any exchange failed (in preference to downstream
/// [`ProtocolError::DependencyFailed`] echoes).
pub fn allreduce_results(
    eng: &mut Engine,
    dag: &AllreduceDag,
) -> Result<Vec<u32>, ProtocolError> {
    let mut acc = dag.inputs.clone();
    let mut failure = None;
    for round in &dag.recv {
        for (node, &id) in round.iter().enumerate() {
            match take_am4(eng, id) {
                Ok(words) => acc[node] = acc[node].wrapping_add(words[0]),
                Err(e) => keep_root_cause(&mut failure, e),
            }
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(acc),
    }
}

/// All-reduce (sum) of one word per node via recursive doubling:
/// `log₂ N` exchange rounds (N must be a power of two). Returns every
/// node's result — all equal to the global sum.
///
/// A thin run-to-completion wrapper over [`submit_allreduce`] on a
/// fresh engine — cost-identical to the old blocking loop (exactly N
/// Table 1 rounds per exchange round).
///
/// # Errors
///
/// [`ProtocolError::Timeout`] if an exchange starves.
///
/// # Panics
///
/// Panics if the node count is not a power of two or inputs are fewer
/// than the node count.
pub fn allreduce_sum(m: &mut Machine, inputs: &[u32]) -> Result<Vec<u32>, ProtocolError> {
    let mut eng = Engine::new();
    let dag = submit_allreduce(&mut eng, m, inputs, None)?;
    eng.run(m);
    allreduce_results(&mut eng, &dag)
}

/// Blocking self-healing all-reduce: [`submit_allreduce`] with
/// `recovery` on a fresh engine, run to completion. Returns every
/// node's sum plus the total number of exchange re-executions the
/// engine performed (zero on a clean run, whose cost is identical to
/// [`allreduce_sum`]).
///
/// # Errors
///
/// The root-cause error once some exchange's recovery budget is
/// exhausted; [`ProtocolError::BadTransfer`] if
/// `recovery.max_executions` is zero.
///
/// # Panics
///
/// Panics if the node count is not a power of two or inputs are fewer
/// than the node count.
pub fn allreduce_sum_recovering(
    m: &mut Machine,
    inputs: &[u32],
    recovery: &RecoveryPolicy,
) -> Result<(Vec<u32>, u32), ProtocolError> {
    let mut eng = Engine::new();
    let dag = submit_allreduce(&mut eng, m, inputs, Some(recovery))?;
    eng.run(m);
    let re_executions = dag
        .recv
        .iter()
        .flat_map(|round| round.iter())
        .map(|&id| eng.recovery_executions(id))
        .sum();
    allreduce_results(&mut eng, &dag).map(|acc| (acc, re_executions))
}

/// The pre-dependency baseline: the same recursive doubling, but one
/// engine run per exchange round with a full barrier between rounds.
/// Partials are accumulated from the words actually delivered.
///
/// # Errors
///
/// [`ProtocolError::Timeout`] if an exchange starves.
///
/// # Panics
///
/// Panics if the node count is not a power of two or inputs are fewer
/// than the node count.
pub fn allreduce_phased(m: &mut Machine, inputs: &[u32]) -> Result<Vec<u32>, ProtocolError> {
    let n = m.num_nodes();
    assert!(n.is_power_of_two(), "recursive doubling needs a power-of-two node count");
    assert!(inputs.len() >= n, "one input per node");
    let mut acc: Vec<u32> = inputs[..n].to_vec();
    let mut stride = 1;
    while stride < n {
        let mut eng = Engine::new();
        let mut recv: Vec<Option<OpId>> = vec![None; n];
        for (node, &a) in acc.iter().enumerate() {
            let peer = node ^ stride;
            recv[peer] = Some(eng.submit(m, edge(node, peer, [a, 0, 0, 0], None, None))?);
        }
        eng.run(m);
        for node in 0..n {
            let id = recv[node].expect("every node is someone's peer");
            let words = take_am4(&mut eng, id)?;
            acc[node] = acc[node].wrapping_add(words[0]);
        }
        stride *= 2;
    }
    Ok(acc)
}

// ---------------------------------------------------------------------
// Barrier.
// ---------------------------------------------------------------------

/// Barrier: an all-reduce of nothing. Completes only when every node
/// has participated.
///
/// # Errors
///
/// [`ProtocolError::Timeout`] if an exchange starves.
///
/// # Panics
///
/// Panics if the node count is not a power of two.
pub fn barrier(m: &mut Machine) -> Result<(), ProtocolError> {
    let zeros = vec![0u32; m.num_nodes()];
    allreduce_sum(m, &zeros).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use timego_am::CmamConfig;
    use timego_cost::Feature;
    use timego_ni::share;

    fn machine(nodes: usize) -> Machine {
        Machine::new(share(scenarios::table_in_order(nodes)), nodes, CmamConfig::default())
    }

    #[test]
    fn broadcast_reaches_every_node() {
        for nodes in [1usize, 2, 3, 5, 8] {
            let mut m = machine(nodes);
            let seen = broadcast(&mut m, NodeId::new(0), [7, 8, 9, 10]).unwrap();
            assert_eq!(seen.len(), nodes);
            assert!(seen.iter().all(|v| *v == [7, 8, 9, 10]), "nodes={nodes}");
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let mut m = machine(6);
        let seen = broadcast(&mut m, NodeId::new(4), [1, 2, 3, 4]).unwrap();
        assert!(seen.iter().all(|v| *v == [1, 2, 3, 4]));
    }

    #[test]
    fn broadcast_cost_is_one_round_trip_per_edge() {
        let mut m = machine(8);
        m.reset_costs();
        broadcast(&mut m, NodeId::new(0), [0; 4]).unwrap();
        let total: u64 = (0..8).map(|i| m.cpu(NodeId::new(i)).snapshot().total()).sum();
        // A binomial tree over 8 nodes has 7 edges; each edge is one
        // Table 1 send (20) + receive (27). The engine-native DAG pays
        // exactly the blocking loop's bill: no idle polls (receives are
        // peek-gated), no extra instructions from scheduling.
        assert_eq!(total, 7 * 47);
    }

    #[test]
    fn allreduce_sums_everywhere() {
        let mut m = machine(8);
        let inputs: Vec<u32> = (1..=8).collect();
        let out = allreduce_sum(&mut m, &inputs).unwrap();
        assert_eq!(out, vec![36; 8]);
    }

    #[test]
    fn allreduce_over_real_network() {
        let mut m =
            Machine::new(share(scenarios::cm5_deterministic(4, 2)), 4, CmamConfig::default());
        let out = allreduce_sum(&mut m, &[10, 20, 30, 40]).unwrap();
        assert_eq!(out, vec![100; 4]);
    }

    #[test]
    fn barrier_completes() {
        let mut m = machine(4);
        barrier(&mut m).unwrap();
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn allreduce_rejects_non_power_of_two() {
        let mut m = machine(3);
        let _ = allreduce_sum(&mut m, &[1, 2, 3]);
    }

    /// The DAG form and the round-serial phased form agree on results —
    /// including over a real (latency-bearing, adaptive) network.
    #[test]
    fn dag_matches_phased_results() {
        for nodes in [4usize, 8, 16] {
            let inputs: Vec<u32> = (0..nodes as u32).map(|i| i * 3 + 1).collect();
            let mut a = machine(nodes);
            let mut b = machine(nodes);
            assert_eq!(
                allreduce_sum(&mut a, &inputs).unwrap(),
                allreduce_phased(&mut b, &inputs).unwrap(),
                "allreduce, {nodes} nodes"
            );
            let mut a = machine(nodes);
            let mut b = machine(nodes);
            assert_eq!(
                broadcast(&mut a, NodeId::new(1), [9, 9, 9, 9]).unwrap(),
                broadcast_phased(&mut b, NodeId::new(1), [9, 9, 9, 9]).unwrap(),
                "broadcast, {nodes} nodes"
            );
        }
        let mut a = Machine::new(share(scenarios::cm5_deterministic(8, 2)), 8, CmamConfig::default());
        let mut b = Machine::new(share(scenarios::cm5_deterministic(8, 2)), 8, CmamConfig::default());
        let inputs: Vec<u32> = (1..=8).collect();
        assert_eq!(
            allreduce_sum(&mut a, &inputs).unwrap(),
            allreduce_phased(&mut b, &inputs).unwrap()
        );
    }

    /// Run-after overlap changes wall-cycles, never the per-feature
    /// instruction bill: every node's per-feature totals are identical
    /// between the DAG and the phased baseline.
    #[test]
    fn dag_and_phased_bills_are_per_feature_identical() {
        let nodes = 16;
        let inputs: Vec<u32> = (0..nodes as u32).collect();

        let mut dag = machine(nodes);
        dag.reset_costs();
        allreduce_sum(&mut dag, &inputs).unwrap();
        let mut phased = machine(nodes);
        phased.reset_costs();
        allreduce_phased(&mut phased, &inputs).unwrap();
        for i in 0..nodes {
            for f in Feature::ALL {
                assert_eq!(
                    dag.cpu(NodeId::new(i)).snapshot().feature_total(f),
                    phased.cpu(NodeId::new(i)).snapshot().feature_total(f),
                    "allreduce node {i}, {f:?}"
                );
            }
        }

        let mut dag = machine(nodes);
        dag.reset_costs();
        broadcast(&mut dag, NodeId::new(0), [5; 4]).unwrap();
        let mut phased = machine(nodes);
        phased.reset_costs();
        broadcast_phased(&mut phased, NodeId::new(0), [5; 4]).unwrap();
        for i in 0..nodes {
            for f in Feature::ALL {
                assert_eq!(
                    dag.cpu(NodeId::new(i)).snapshot().feature_total(f),
                    phased.cpu(NodeId::new(i)).snapshot().feature_total(f),
                    "broadcast node {i}, {f:?}"
                );
            }
        }
    }

    /// On a latency-bearing network the DAG's cross-round overlap
    /// finishes in fewer wall-cycles than the phased baseline.
    #[test]
    fn dag_overlap_compresses_wall_cycles() {
        let nodes = 16;
        let inputs: Vec<u32> = (0..nodes as u32).collect();
        let mut a = Machine::new(
            share(scenarios::cm5_deterministic(nodes, 2)),
            nodes,
            CmamConfig::default(),
        );
        let t0 = a.network().borrow().now();
        allreduce_sum(&mut a, &inputs).unwrap();
        let dag_cycles = a.network().borrow().now() - t0;
        let mut b = Machine::new(
            share(scenarios::cm5_deterministic(nodes, 2)),
            nodes,
            CmamConfig::default(),
        );
        let t0 = b.network().borrow().now();
        allreduce_phased(&mut b, &inputs).unwrap();
        let phased_cycles = b.network().borrow().now() - t0;
        assert!(
            dag_cycles <= phased_cycles,
            "DAG {dag_cycles} should not exceed phased {phased_cycles}"
        );
    }

    /// The submit/harvest split composes: two broadcasts from different
    /// roots share one engine run.
    #[test]
    fn two_collectives_share_one_engine() {
        let mut m = machine(8);
        let mut eng = Engine::new();
        let d1 = submit_broadcast(&mut eng, &mut m, NodeId::new(0), [1; 4], None).unwrap();
        let d2 = submit_broadcast(&mut eng, &mut m, NodeId::new(3), [2; 4], None).unwrap();
        eng.run(&mut m);
        let s1 = broadcast_results(&mut eng, &d1, 8).unwrap();
        let s2 = broadcast_results(&mut eng, &d2, 8).unwrap();
        assert!(s1.iter().all(|v| *v == [1; 4]));
        assert!(s2.iter().all(|v| *v == [2; 4]));
    }
}
