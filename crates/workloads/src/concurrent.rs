//! Concurrent many-to-many traffic driven through the protocol engine.
//!
//! Where [`crate::patterns`] describes *who talks to whom*, this module
//! turns a pattern into a set of planned operations and drives all of
//! them through **one** [`Engine`] run, so transfers between different
//! node pairs genuinely overlap on the substrate instead of executing
//! back to back. The outcome records enough to study aggregate
//! throughput and per-node load under contention.

use timego_am::{CmamConfig, Engine, Machine, Op, OpOutcome, RetryPolicy, StreamConfig};
use timego_netsim::NodeId;

use crate::patterns::Pattern;
use crate::payloads;

/// Which protocol a planned operation exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// Finite-sequence transfer ([`Machine::xfer`] semantics).
    Xfer,
    /// Fault-tolerant finite-sequence transfer
    /// ([`Machine::xfer_reliable`] semantics).
    Reliable,
    /// Indefinite-sequence stream send ([`Machine::stream_send`]
    /// semantics); a fresh stream is opened per planned operation.
    Stream,
}

/// One operation of a concurrent traffic plan.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// Protocol to run.
    pub kind: TrafficKind,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload words to move.
    pub data: Vec<u32>,
}

/// Plan one operation of `kind` per pair, with deterministic mixed
/// payloads of `words` words derived from `seed` (each pair gets a
/// distinct payload).
#[must_use]
pub fn plan(pairs: &[(NodeId, NodeId)], kind: TrafficKind, words: usize, seed: u64) -> Vec<PlannedOp> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (src, dst))| PlannedOp {
            kind,
            src: *src,
            dst: *dst,
            data: payloads::mixed(words, seed.wrapping_add(i as u64)),
        })
        .collect()
}

/// A random-permutation plan over `nodes` nodes: every node sends to
/// its image under the permutation (self-pairs are omitted, as in
/// [`Pattern::RandomPermutation`]).
#[must_use]
pub fn permutation_plan(nodes: usize, kind: TrafficKind, words: usize, seed: u64) -> Vec<PlannedOp> {
    plan(&Pattern::RandomPermutation(seed).pairs(nodes), kind, words, seed)
}

/// Aggregate outcome of one concurrent engine run.
#[derive(Debug, Clone, Default)]
pub struct ConcurrentOutcome {
    /// Operations submitted.
    pub submitted: usize,
    /// Operations that completed with a verified, byte-exact payload.
    pub completed: usize,
    /// Network cycles consumed by the whole run.
    pub elapsed_cycles: u64,
    /// Total payload words moved by completed operations.
    pub words_moved: u64,
    /// Scheduler trace length (submission/start/progress/completion
    /// events) — a cheap proxy for how finely the run interleaved.
    pub trace_events: usize,
    /// Failures, as `(plan index, error text)`.
    pub failures: Vec<(usize, String)>,
}

impl ConcurrentOutcome {
    /// Payload words moved per network cycle (aggregate throughput).
    /// Zero elapsed cycles (instant substrates) reports 0.0.
    #[must_use]
    pub fn words_per_cycle(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            0.0
        } else {
            self.words_moved as f64 / self.elapsed_cycles as f64
        }
    }
}

/// Drive every planned operation through one engine run and verify the
/// data each completed operation claims to have moved.
///
/// Reliable transfers and retried streams use `policy`-derived bounds;
/// plain transfers run the paper-faithful protocol. Verification is
/// end-to-end: destination segments and stream receive buffers are
/// compared word-for-word against the planned payloads.
///
/// # Panics
///
/// Panics if a planned operation is empty or its endpoints are out of
/// range (the same conditions the blocking APIs reject).
pub fn run_concurrent(
    m: &mut Machine,
    ops: &[PlannedOp],
    policy: &RetryPolicy,
) -> ConcurrentOutcome {
    let mut eng = Engine::new();
    let mut submitted = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let (planned, sid) = match op.kind {
            TrafficKind::Xfer => (Op::xfer(op.src, op.dst, &op.data), None),
            TrafficKind::Reliable => (Op::xfer_reliable(op.src, op.dst, &op.data, policy), None),
            TrafficKind::Stream => {
                let sid = m.open_stream(
                    op.src,
                    op.dst,
                    StreamConfig { rto_iterations: 256, ..StreamConfig::default() },
                );
                (Op::stream_send(sid, &op.data), Some(sid))
            }
        };
        submitted.push((i, eng.submit(m, planned).expect("valid plan"), sid));
    }

    let start = m.network().borrow().now();
    eng.run(m);
    let elapsed_cycles = m.network().borrow().now() - start;

    let mut out = ConcurrentOutcome {
        submitted: ops.len(),
        elapsed_cycles,
        trace_events: eng.trace().len(),
        ..ConcurrentOutcome::default()
    };
    for (i, id, sid) in submitted {
        let op = &ops[i];
        match eng.take_outcome(id).expect("engine ran to completion") {
            Ok(outcome) => match verify(m, op, &outcome, sid) {
                Ok(()) => {
                    out.completed += 1;
                    out.words_moved += op.data.len() as u64;
                }
                Err(e) => out.failures.push((i, e)),
            },
            Err(e) => out.failures.push((i, e.to_string())),
        }
    }
    out
}

fn verify(
    m: &Machine,
    op: &PlannedOp,
    outcome: &OpOutcome,
    sid: Option<timego_am::StreamId>,
) -> Result<(), String> {
    let delivered = match (op.kind, outcome) {
        (TrafficKind::Xfer, OpOutcome::Xfer(x)) => m.read_buffer(op.dst, x.dst_buffer, op.data.len()),
        (TrafficKind::Reliable, OpOutcome::Reliable(r)) => {
            m.read_buffer(op.dst, r.xfer.dst_buffer, op.data.len())
        }
        (TrafficKind::Stream, OpOutcome::Stream(_)) => {
            m.stream_received(sid.expect("stream op kept its id")).to_vec()
        }
        (kind, other) => return Err(format!("{kind:?} produced mismatched outcome {other:?}")),
    };
    if delivered == op.data {
        Ok(())
    } else {
        Err(format!("{:?}->{:?} payload mismatch", op.src, op.dst))
    }
}

/// A ready-made machine for concurrency studies: `nodes` endpoints on
/// the adaptive (reordering) fat-tree substrate, default CMAM config.
#[must_use]
pub fn switched_machine(nodes: usize, seed: u64) -> Machine {
    Machine::new(
        timego_ni::share(crate::scenarios::cm5_adaptive(nodes, seed)),
        nodes,
        CmamConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_plan_covers_every_non_self_pair() {
        let plan = permutation_plan(8, TrafficKind::Xfer, 16, 3);
        assert!(!plan.is_empty());
        for op in &plan {
            assert_ne!(op.src, op.dst);
            assert_eq!(op.data.len(), 16);
        }
    }

    #[test]
    fn concurrent_permutation_completes_byte_exact() {
        let mut m = switched_machine(8, 11);
        let ops = permutation_plan(8, TrafficKind::Reliable, 32, 5);
        let out = run_concurrent(&mut m, &ops, &RetryPolicy::default());
        assert_eq!(out.completed, out.submitted, "failures: {:?}", out.failures);
        assert!(out.words_moved >= 32 * out.completed as u64 / 2);
        assert!(out.elapsed_cycles > 0);
    }

    #[test]
    fn mixed_kinds_share_one_engine_run() {
        let mut m = switched_machine(8, 7);
        let mut ops = plan(
            &[(NodeId::new(0), NodeId::new(1)), (NodeId::new(2), NodeId::new(3))],
            TrafficKind::Xfer,
            24,
            1,
        );
        ops.extend(plan(
            &[(NodeId::new(4), NodeId::new(5)), (NodeId::new(6), NodeId::new(7))],
            TrafficKind::Stream,
            24,
            2,
        ));
        let out = run_concurrent(&mut m, &ops, &RetryPolicy::default());
        assert_eq!(out.completed, 4, "failures: {:?}", out.failures);
    }
}
