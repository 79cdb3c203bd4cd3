//! Network statistics: delivery counts, reordering, latency.

use std::fmt;

use crate::id::NodeId;
use crate::pair::PairMap;
use crate::time::Time;

/// Running latency summary (cycles from injection to delivery), with a
/// logarithmic histogram for percentile estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    // buckets[k] counts latencies in [2^(k-1), 2^k) (bucket 0: latency 0).
    buckets: [u64; 33],
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 33],
        }
    }
}

impl LatencyStats {
    fn bucket_index(latency: u64) -> usize {
        if latency == 0 {
            0
        } else {
            ((64 - latency.leading_zeros()) as usize).min(32)
        }
    }

    /// Record one delivery latency.
    pub fn record(&mut self, latency: u64) {
        if self.count == 0 {
            self.min = latency;
            self.max = latency;
        } else {
            self.min = self.min.min(latency);
            self.max = self.max.max(latency);
        }
        self.count += 1;
        self.sum += latency;
        self.buckets[Self::bucket_index(latency)] += 1;
    }

    /// Approximate latency at quantile `q` (0.0–1.0): the upper bound
    /// of the logarithmic histogram bucket containing that quantile.
    /// Returns 0 if nothing has been recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        let last = self.buckets.len() - 1;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The top bucket is a catch-all for [2^31, ∞); its only
                // honest upper bound is the recorded maximum.
                let upper = if k == 0 {
                    0
                } else if k == last {
                    self.max
                } else {
                    (1u64 << k) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// The lower and upper bounds of the histogram bucket containing
    /// quantile `q`: the true quantile of the recorded values is
    /// guaranteed to lie in `[lo, hi]`. [`quantile`](Self::quantile)
    /// reports `hi` (capped at the recorded maximum), so its error is
    /// at most one power-of-two bucket width — this holds at every
    /// `q`, including the deep-tail p999 the serving reports lean on
    /// (`hi ≤ 2·lo + 1` for any non-catch-all bucket; the catch-all
    /// top bucket is honestly bounded by the recorded maximum).
    /// Returns `(0, 0)` if nothing has been recorded.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        let last = self.buckets.len() - 1;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (lo, hi) = if k == 0 {
                    (0, 0)
                } else if k == last {
                    // Catch-all bucket: open-ended above, so the upper
                    // bound is the recorded maximum.
                    (1u64 << (k - 1), self.max)
                } else {
                    (1u64 << (k - 1), (1u64 << k) - 1)
                };
                return (lo.min(self.max), hi.min(self.max));
            }
        }
        (self.max, self.max)
    }

    /// Number of recorded deliveries.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or 0 if nothing recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum recorded latency (0 if nothing recorded).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Maximum recorded latency (0 if nothing recorded).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another summary into this one: counts and histogram buckets
    /// add, the extrema combine. The merged summary is exactly what a
    /// single recorder observing both delivery streams would hold, so
    /// composite substrates (dual, sharded) can aggregate per-side
    /// summaries without losing quantile fidelity.
    pub(crate) fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} max={} p50={} p95={} p99={} p999={}",
            self.count,
            self.mean(),
            self.min,
            self.max,
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.quantile(0.999)
        )
    }
}

/// Tracks, per `(src, dst)` pair, whether deliveries respect injection
/// order.
///
/// A delivered packet is counted *out of order* when some packet injected
/// earlier on the same pair has not yet been delivered — exactly the
/// condition that forces the receiving messaging layer to buffer it.
#[derive(Debug, Clone, Default)]
pub struct OrderTracker {
    // For each pair: next pair_seq expected in order, plus the set of
    // early-delivered seqs awaiting their predecessors.
    state: PairMap<PairOrder>,
    in_order: u64,
    out_of_order: u64,
}

#[derive(Debug, Clone, Default)]
struct PairOrder {
    next_expected: u64,
    early: Vec<u64>,
}

impl OrderTracker {
    /// New, empty tracker.
    pub fn new() -> Self {
        OrderTracker::default()
    }

    /// Record the delivery of packet `pair_seq` on `(src, dst)`; returns
    /// `true` if it arrived in order.
    pub fn record(&mut self, src: NodeId, dst: NodeId, pair_seq: u64) -> bool {
        let entry = self.state.entry((src, dst)).or_default();
        if pair_seq == entry.next_expected {
            entry.next_expected += 1;
            // Drain any buffered successors that are now in sequence.
            entry.early.sort_unstable();
            while let Some(pos) = entry
                .early
                .iter()
                .position(|&s| s == entry.next_expected)
            {
                entry.early.swap_remove(pos);
                entry.next_expected += 1;
            }
            self.in_order += 1;
            true
        } else {
            entry.early.push(pair_seq);
            self.out_of_order += 1;
            false
        }
    }

    /// Deliveries that arrived in injection order.
    pub fn in_order(&self) -> u64 {
        self.in_order
    }

    /// Deliveries that arrived ahead of an earlier-injected packet.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Fraction of deliveries that were out of order, in `[0, 1]`.
    pub fn ooo_fraction(&self) -> f64 {
        let total = self.in_order + self.out_of_order;
        if total == 0 {
            0.0
        } else {
            self.out_of_order as f64 / total as f64
        }
    }

    /// Fold another tracker's *verdict counts* into this one. Per-pair
    /// sequencing state is deliberately not merged: composite substrates
    /// (dual, sharded) partition `(src, dst)` pairs disjointly across
    /// their parts, so every pair's in/out-of-order verdicts were made
    /// by exactly one side and the counts add without double judgment.
    pub(crate) fn absorb_counts(&mut self, other: &OrderTracker) {
        self.in_order += other.in_order;
        self.out_of_order += other.out_of_order;
    }
}

/// Per-node delivery/occupancy accounting, for studying how concurrent
/// traffic loads individual endpoints (hot receivers, queue build-up).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeOccupancy {
    /// Packets delivered *to* this node (it was the destination).
    pub delivered_to: u64,
    /// Packets this node injected that were delivered somewhere.
    pub delivered_from: u64,
    /// High-water mark of this node's receive queue depth, sampled at
    /// each delivery (after the packet is enqueued).
    pub peak_rx_depth: usize,
}

/// Aggregate statistics for one network instance.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Packets accepted for injection.
    pub injected: u64,
    /// Packets handed to software at their destination.
    pub delivered: u64,
    /// Injection attempts refused with backpressure.
    pub backpressure: u64,
    /// Corrupted packets detected and discarded at the receiving NI
    /// (detect-only substrates).
    pub dropped_corrupt: u64,
    /// Packets corrupted in flight but repaired by hardware
    /// retransmission (CR substrate).
    pub hw_retransmits: u64,
    /// Header rejections followed by automatic hardware retry (CR
    /// substrate end-to-end flow control).
    pub rejects: u64,
    /// Packets silently lost by the fault plane (random drop).
    pub dropped_fault: u64,
    /// Packets delivered twice by the fault plane (link-level retry
    /// duplication); each counts one extra delivery.
    pub duplicated: u64,
    /// Packets held back by the fault plane so later traffic overtakes
    /// them (reorder bursts).
    pub reordered: u64,
    /// Packets given extra delivery delay by the fault plane.
    pub jitter_delayed: u64,
    /// Packets discarded because an endpoint was inside a scripted
    /// outage window.
    pub outage_drops: u64,
    /// Packets discarded because an endpoint was inside a scripted
    /// crash-restart window (the node was down and will come back with
    /// its endpoint protocol state erased).
    pub crash_drops: u64,
    /// Delivery-order accounting.
    pub order: OrderTracker,
    /// Injection→delivery latency.
    pub latency: LatencyStats,
    // Per-node occupancy, grown on demand (indexed by NodeId).
    per_node: Vec<NodeOccupancy>,
}

impl NetStats {
    /// New, empty statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Record a successful delivery. `rx_depth` is the destination's
    /// receive-queue depth *after* enqueueing the packet, used for the
    /// per-node occupancy high-water mark.
    pub(crate) fn record_delivery(
        &mut self,
        src: NodeId,
        dst: NodeId,
        pair_seq: u64,
        injected_at: Option<Time>,
        now: Time,
        rx_depth: usize,
    ) {
        self.delivered += 1;
        self.order.record(src, dst, pair_seq);
        if let Some(at) = injected_at {
            self.latency.record(now.since(at));
        }
        self.node_mut(src).delivered_from += 1;
        let to = self.node_mut(dst);
        to.delivered_to += 1;
        to.peak_rx_depth = to.peak_rx_depth.max(rx_depth);
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeOccupancy {
        let i = node.index();
        if self.per_node.len() <= i {
            self.per_node.resize(i + 1, NodeOccupancy::default());
        }
        &mut self.per_node[i]
    }

    /// Per-node delivery/occupancy accounting for `node` (zeroes if the
    /// node has seen no traffic).
    pub fn occupancy(&self, node: NodeId) -> NodeOccupancy {
        self.per_node.get(node.index()).copied().unwrap_or_default()
    }

    /// Per-node occupancy table, indexed by node (may be shorter than
    /// the node count if trailing nodes saw no traffic).
    pub fn occupancy_table(&self) -> &[NodeOccupancy] {
        &self.per_node
    }

    /// Fold another instance's aggregate counters into this one: scalar
    /// counters and order verdicts add, the latency histograms merge.
    /// The per-node table is *not* absorbed (composite substrates index
    /// it differently per part).
    pub(crate) fn absorb(&mut self, other: &NetStats) {
        self.zip_scalars(other, |x, y| *x += y);
        self.order.absorb_counts(&other.order);
        self.latency.merge(&other.latency);
    }

    /// Apply `f` to each scalar counter of this instance paired with the
    /// same counter of `other` — the one list of scalar counters every
    /// composite substrate sums through.
    pub(crate) fn zip_scalars(&mut self, other: &NetStats, f: impl Fn(&mut u64, u64)) {
        f(&mut self.injected, other.injected);
        f(&mut self.delivered, other.delivered);
        f(&mut self.backpressure, other.backpressure);
        f(&mut self.dropped_corrupt, other.dropped_corrupt);
        f(&mut self.hw_retransmits, other.hw_retransmits);
        f(&mut self.rejects, other.rejects);
        f(&mut self.dropped_fault, other.dropped_fault);
        f(&mut self.duplicated, other.duplicated);
        f(&mut self.reordered, other.reordered);
        f(&mut self.jitter_delayed, other.jitter_delayed);
        f(&mut self.outage_drops, other.outage_drops);
        f(&mut self.crash_drops, other.crash_drops);
    }

    /// Overwrite this instance's per-node table with the elementwise
    /// merge of two sides (used by composite networks): delivery counts
    /// add, high-water marks take the maximum.
    pub(crate) fn merge_per_node(&mut self, a: &NetStats, b: &NetStats) {
        let len = a.per_node.len().max(b.per_node.len());
        self.per_node.clear();
        self.per_node.resize(len, NodeOccupancy::default());
        for (i, slot) in self.per_node.iter_mut().enumerate() {
            let x = a.per_node.get(i).copied().unwrap_or_default();
            let y = b.per_node.get(i).copied().unwrap_or_default();
            slot.delivered_to = x.delivered_to + y.delivered_to;
            slot.delivered_from = x.delivered_from + y.delivered_from;
            slot.peak_rx_depth = x.peak_rx_depth.max(y.peak_rx_depth);
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} delivered {} (ooo {:.1}%) backpressure {} corrupt-drops {} hw-retx {} rejects {} \
             fault-drops {} dup {} reorder {} jitter {} outage-drops {} crash-drops {} latency[{}]",
            self.injected,
            self.delivered,
            self.order.ooo_fraction() * 100.0,
            self.backpressure,
            self.dropped_corrupt,
            self.hw_retransmits,
            self.rejects,
            self.dropped_fault,
            self.duplicated,
            self.reordered,
            self.jitter_delayed,
            self.outage_drops,
            self.crash_drops,
            self.latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn latency_summary() {
        let mut l = LatencyStats::default();
        assert_eq!(l.mean(), 0.0);
        l.record(10);
        l.record(20);
        l.record(3);
        assert_eq!(l.count(), 3);
        assert_eq!(l.min(), 3);
        assert_eq!(l.max(), 20);
        assert!((l.mean() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn latency_quantiles_bound_the_distribution() {
        let mut l = LatencyStats::default();
        for v in 1..=1000u64 {
            l.record(v);
        }
        assert_eq!(l.quantile(1.0), 1000); // capped at max
        let p50 = l.quantile(0.5);
        assert!((500..=1023).contains(&p50), "p50 bucket bound: {p50}");
        let p01 = l.quantile(0.01);
        assert!(p01 <= 15, "p01 bucket bound: {p01}");
        assert!(l.quantile(0.5) <= l.quantile(0.95));
    }

    #[test]
    fn latency_quantile_of_empty_is_zero() {
        let l = LatencyStats::default();
        assert_eq!(l.quantile(0.5), 0);
    }

    #[test]
    fn latency_zero_values_hit_bucket_zero() {
        let mut l = LatencyStats::default();
        l.record(0);
        l.record(0);
        assert_eq!(l.quantile(0.9), 0);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut l = LatencyStats::default();
        let mut rng = crate::rng::SimRng::new(99);
        for _ in 0..500 {
            l.record(rng.next_u64() % 100_000);
        }
        let qs = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            assert!(
                l.quantile(w[0]) <= l.quantile(w[1]),
                "quantile must be non-decreasing: q{} -> {}, q{} -> {}",
                w[0],
                l.quantile(w[0]),
                w[1],
                l.quantile(w[1])
            );
        }
    }

    #[test]
    fn single_sample_distribution_is_that_sample() {
        for v in [0u64, 1, 7, 1023, 1024, u64::MAX / 2] {
            let mut l = LatencyStats::default();
            l.record(v);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(l.quantile(q), v, "one sample of {v} at q={q}");
            }
            let (lo, hi) = l.quantile_bounds(0.5);
            assert!(lo <= v && v <= hi, "{lo} <= {v} <= {hi}");
        }
    }

    #[test]
    fn quantile_bounds_bracket_the_exact_percentile() {
        // Seeded property test: for many random distributions and many
        // quantiles, the histogram's bucket bounds must bracket the
        // exact percentile of the recorded values, and the reported
        // quantile must equal the (max-capped) upper bound.
        for seed in 0..20u64 {
            let mut rng = crate::rng::SimRng::new(seed);
            let n = 1 + rng.gen_index(400);
            let mut values = Vec::with_capacity(n);
            let mut l = LatencyStats::default();
            for _ in 0..n {
                // Mix magnitudes so samples span many buckets.
                let shift = rng.gen_index(40) as u32;
                let v = rng.next_u64() >> (24 + shift % 40);
                values.push(v);
                l.record(v);
            }
            values.sort_unstable();
            for q in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
                // Exact percentile with the same ceil(n*q) rank rule.
                let rank = ((n as f64 * q).ceil().max(1.0) as usize).min(n);
                let exact = values[rank - 1];
                let (lo, hi) = l.quantile_bounds(q);
                assert!(
                    lo <= exact && exact <= hi,
                    "seed {seed} q {q}: exact {exact} outside [{lo}, {hi}]"
                );
                assert_eq!(
                    l.quantile(q),
                    hi.min(l.max()),
                    "seed {seed} q {q}: quantile() must be the capped upper bound"
                );
            }
        }
    }

    #[test]
    fn display_includes_percentiles() {
        let mut l = LatencyStats::default();
        for v in [1u64, 2, 3, 100] {
            l.record(v);
        }
        let s = l.to_string();
        assert!(s.contains("p50="), "{s}");
        assert!(s.contains("p95="), "{s}");
        assert!(s.contains("p99="), "{s}");
        assert!(s.contains("p999="), "{s}");
    }

    #[test]
    fn p999_bucket_resolution_honesty() {
        // Deep-tail honesty: with enough samples for p999 to resolve
        // (n >> 1000), the bracket returned by `quantile_bounds(0.999)`
        // must contain the exact rank-ceil(0.999 n) value, the reported
        // p999 must be the max-capped upper bound, and the bracket
        // must be no wider than one power-of-two bucket — the
        // resolution this histogram honestly has in the tail.
        for seed in [7u64, 19, 71] {
            let mut rng = crate::rng::SimRng::new(seed);
            let n = 5000usize;
            let mut values = Vec::with_capacity(n);
            let mut l = LatencyStats::default();
            for i in 0..n {
                // Body latencies ~[64, 1088); the last ~0.3% land a
                // long tail two decades up, so p999 sits in the tail.
                let v = if i % 347 == 0 {
                    50_000 + rng.next_u64() % 100_000
                } else {
                    64 + rng.next_u64() % 1024
                };
                values.push(v);
                l.record(v);
            }
            values.sort_unstable();
            let rank = ((n as f64 * 0.999).ceil() as usize).min(n);
            let exact = values[rank - 1];
            let (lo, hi) = l.quantile_bounds(0.999);
            assert!(
                lo <= exact && exact <= hi,
                "seed {seed}: exact p999 {exact} outside [{lo}, {hi}]"
            );
            assert_eq!(l.quantile(0.999), hi.min(l.max()), "seed {seed}");
            // One-bucket bracket width: hi ≤ 2·lo + 1 (or the
            // max-capped catch-all, which is tighter still).
            assert!(
                hi <= 2 * lo + 1 || hi == l.max(),
                "seed {seed}: bracket [{lo}, {hi}] wider than one bucket"
            );
        }
    }

    #[test]
    fn order_tracker_in_order_stream() {
        let mut t = OrderTracker::new();
        for s in 0..10 {
            assert!(t.record(n(0), n(1), s));
        }
        assert_eq!(t.in_order(), 10);
        assert_eq!(t.out_of_order(), 0);
        assert_eq!(t.ooo_fraction(), 0.0);
    }

    #[test]
    fn order_tracker_alternate_swap_is_half_ooo() {
        // Delivery order 1,0,3,2,5,4,... : every odd-seq packet arrives
        // before its predecessor, i.e. exactly half are out of order.
        let mut t = OrderTracker::new();
        for base in (0..8).step_by(2) {
            assert!(!t.record(n(0), n(1), base + 1));
            assert!(t.record(n(0), n(1), base));
        }
        assert!((t.ooo_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn order_tracker_drains_early_buffer() {
        let mut t = OrderTracker::new();
        assert!(!t.record(n(0), n(1), 2));
        assert!(!t.record(n(0), n(1), 1));
        assert!(t.record(n(0), n(1), 0)); // releases 1 and 2
        assert!(t.record(n(0), n(1), 3)); // next expected is now 3
    }

    #[test]
    fn order_tracker_separates_pairs() {
        let mut t = OrderTracker::new();
        assert!(t.record(n(0), n(1), 0));
        assert!(t.record(n(2), n(1), 0));
        assert!(!t.record(n(0), n(1), 2));
        assert!(t.record(n(2), n(1), 1));
    }
}
