//! Retry policy for the fault-tolerant protocol variants.
//!
//! The paper's CMAM protocols *detect* losses (via the end-to-end
//! acknowledgement) but do not recover: a lost packet fails the whole
//! transfer. [`RetryPolicy`] parameterizes the recovery added by
//! [`Op::xfer_reliable`](crate::Op::xfer_reliable) and a retrying
//! [`Op::rpc`](crate::Op::rpc): how many attempts, how long each waits,
//! and how the waits grow.
//!
//! Backoff is exponential in cycles with a deterministic per-attempt
//! jitter (a splitmix64 hash of seed and attempt number), so two runs
//! with the same seed wait identically — fault-injection experiments
//! stay bit-reproducible.

use timego_netsim::rng::splitmix64;

/// Bounded-attempt exponential backoff with deterministic jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` disables recovery).
    pub max_attempts: u32,
    /// Cycles the first attempt waits before declaring a loss.
    pub base_wait: u64,
    /// Upper bound on any attempt's wait (pre-jitter).
    pub max_wait: u64,
    /// Maximum extra cycles added per attempt; the actual jitter is a
    /// deterministic function of `seed` and the attempt number.
    pub jitter: u64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 10,
            // Generous relative to simulated network latencies (tens of
            // cycles), tiny relative to `max_wait_cycles` (2^20): a
            // clean run never sees the deadline, a faulted run recovers
            // promptly.
            base_wait: 4_096,
            max_wait: 1 << 16,
            jitter: 64,
            seed: 0x7e7a_11ce,
        }
    }
}

impl RetryPolicy {
    /// No recovery: a single attempt, paper-faithful fail-on-loss.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The wait window (in cycles) for attempt `attempt` (0-based):
    /// `min(base_wait << attempt, max_wait)` plus deterministic jitter.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> u64 {
        let exp = if attempt >= self.base_wait.leading_zeros() {
            self.max_wait // the shift would overflow; saturate at the cap
        } else {
            (self.base_wait << attempt).min(self.max_wait)
        };
        let j = if self.jitter == 0 {
            0
        } else {
            splitmix64(self.seed ^ u64::from(attempt)) % (self.jitter + 1)
        };
        exp.saturating_add(j)
    }
}

/// Engine-native recovery: how many times the scheduler itself may
/// *re-execute* an operation that settles with a retryable error
/// ([`ProtocolError::is_retryable`](crate::ProtocolError::is_retryable)),
/// and how long to back off between executions.
///
/// Attach one at submission with [`Op::recovering`](crate::Op::recovering):
/// instead of surfacing a `SessionReset`, `Timeout` or
/// `DeadlineExceeded` to the caller, the engine parks the operation for
/// the backoff window and re-runs it under a fresh session epoch — the
/// operation keeps its [`OpId`](crate::OpId), so run-after dependents
/// stay held and release when the recovered execution finally succeeds.
/// Every re-execution bills the session-restart constants to
/// `Feature::FaultTol` at the operation's source node; a clean run
/// executes (and costs) exactly what the non-recovering submission
/// does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total executions the engine may run, including the first
    /// (`1` disables engine-native recovery).
    pub max_executions: u32,
    /// Backoff between executions (the wait before re-execution `k`
    /// is `backoff.backoff(k - 1)`).
    pub backoff: RetryPolicy,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_executions: 6,
            backoff: RetryPolicy::default(),
        }
    }
}

impl RecoveryPolicy {
    /// No engine-native recovery: one execution, errors surface to the
    /// caller exactly as without a policy.
    #[must_use]
    pub fn none() -> Self {
        RecoveryPolicy { max_executions: 1, ..RecoveryPolicy::default() }
    }

    /// The park window (in cycles) before re-execution `re_execution`
    /// (1-based: the first recovery waits `backoff.backoff(0)`).
    #[must_use]
    pub fn window(&self, re_execution: u32) -> u64 {
        self.backoff.backoff(re_execution.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy { jitter: 0, ..RetryPolicy::default() };
        assert_eq!(p.backoff(0), 4_096);
        assert_eq!(p.backoff(1), 8_192);
        assert_eq!(p.backoff(2), 16_384);
        assert_eq!(p.backoff(10), p.max_wait, "capped");
        assert_eq!(p.backoff(63), p.max_wait, "shift overflow saturates");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for a in 0..16 {
            let w = p.backoff(a);
            assert_eq!(w, p.backoff(a), "same attempt, same wait");
            let base = RetryPolicy { jitter: 0, ..p.clone() }.backoff(a);
            assert!(w >= base && w <= base + p.jitter, "attempt {a}: {w}");
        }
        // Different seeds give different jitter somewhere in the range.
        let q = RetryPolicy { seed: 99, ..p.clone() };
        assert!((0..16).any(|a| p.backoff(a) != q.backoff(a)));
    }

    #[test]
    fn none_means_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
