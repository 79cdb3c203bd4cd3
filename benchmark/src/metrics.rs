//! The names: workloads, end-to-end metrics and per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root lists the same names;
//! `tests/selftest.rs` fails when the two drift apart.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may worsen before `compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base median.
    Share(f64),
    /// Deterministic: any difference is a regression. A simulator
    /// speed-up must leave every simulated statistic identical.
    Exact,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Absolute change below which `compare` calls nothing worse, in
    /// the metric's unit: a 25 % swing of a 60-microsecond set-up is
    /// allocator noise, not a regression. 0 for no floor.
    pub floor: f64,
    /// Whether the metric is defined — and never zero — on all six
    /// workloads, which is what `BENCHMARK.json` requires of an
    /// end-to-end metric. The others are printed by the full run only
    /// (and the `sim_*` ones also ride in the per-layer list).
    pub on_every_workload: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    floor: f64,
    on_every_workload: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
        on_every_workload,
    }
}

/// The host-time metrics carry the widest bound `BENCHMARK.json`
/// allows (25 %): the sandbox's host shifts memory-bound work by that
/// much between one quarter-hour and the next (README.md, "How steady
/// the numbers are"). A tighter claim needs alternating pairs.
#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, Bound::Share(0.25), 0.002, true),
    e2e("wall_s", "s", Better::Lower, Bound::Share(0.25), 0.0, true),
    e2e("ops_per_s", "1/s", Better::Higher, Bound::Share(0.25), 0.0, true),
    e2e("packets_per_s", "1/s", Better::Higher, Bound::Share(0.25), 0.0, true),
    e2e("peak_rss_mb", "MB", Better::Lower, Bound::Share(0.15), 0.0, true),
    e2e("sim_cycles_per_s", "1/s", Better::Higher, Bound::Share(0.25), 0.0, false),
    e2e("failed_ops_share", "share", Better::Lower, Bound::Exact, 0.0, false),
    e2e("sim_cycles", "cycles", Better::Lower, Bound::Exact, 0.0, false),
    e2e("sim_p99_cycles", "cycles", Better::Lower, Bound::Exact, 0.0, false),
    e2e("sim_p999_cycles", "cycles", Better::Lower, Bound::Exact, 0.0, false),
    e2e("paper_table_mismatches", "count", Better::Lower, Bound::Exact, 0.0, false),
];

/// One per-layer metric; the layer is the prefix of the name.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in print order. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    lo("netsim.advance_s", "s"),
    lo("netsim.advance_calls", "count"),
    lo("netsim.advance_cycles", "cycles"),
    lo("netsim.ns_per_advance_cycle", "ns"),
    lo("netsim.inject_s", "s"),
    lo("netsim.inject_calls", "count"),
    lo("netsim.inject_refused", "count"),
    lo("netsim.receive_s", "s"),
    lo("netsim.receive_calls", "count"),
    lo("netsim.take_delivered_s", "s"),
    lo("netsim.take_delivered_calls", "count"),
    lo("netsim.rx_peek_calls", "count"),
    lo("netsim.rx_pending_calls", "count"),
    lo("netsim.share", "share"),
    hi("netsim.delivered", "count"),
    lo("netsim.backpressure", "count"),
    lo("netsim.crash_drops", "count"),
    lo("core.engine.run_s", "s"),
    lo("core.engine.self_s", "s"),
    lo("core.engine.submit_s", "s"),
    lo("core.engine.steps", "count"),
    lo("core.engine.passes", "count"),
    lo("core.engine.quanta", "count"),
    lo("core.engine.advances", "count"),
    lo("core.engine.timer_wakes", "count"),
    lo("core.engine.packet_wakes", "count"),
    hi("core.engine.idle_jumps", "count"),
    hi("core.engine.jumped_cycles", "cycles"),
    lo("core.engine.trace_events", "count"),
    lo("core.engine.ns_per_step", "ns"),
    lo("core.engine.phase.ready_pop_share", "share"),
    lo("core.engine.phase.op_step_share", "share"),
    lo("core.engine.phase.wheel_advance_share", "share"),
    lo("core.engine.phase.substrate_step_share", "share"),
    lo("workloads.service.run_s", "s"),
    lo("workloads.service.self_s", "s"),
    lo("workloads.service.us_per_request", "us"),
    lo("workloads.service.scaling_exponent", "log2"),
    hi("workloads.service.offered", "count"),
    hi("workloads.service.admitted", "count"),
    lo("workloads.service.shed", "count"),
    hi("workloads.service.completed", "count"),
    lo("workloads.service.failed", "count"),
    lo("workloads.service.re_executions", "count"),
    lo("workloads.service.hedges", "count"),
    hi("workloads.service.hedge_wins", "count"),
    lo("workloads.service.probes", "count"),
    lo("workloads.service.probe_failures", "count"),
    lo("workloads.service.ejections", "count"),
    hi("workloads.service.reinstatements", "count"),
    lo("workloads.service.handler_runs", "count"),
    lo("workloads.service.dup_suppressed", "count"),
    lo("workloads.service.peak_in_flight", "count"),
    lo("workloads.balancer.pick_ns", "ns"),
    lo("cost.instr_total", "count"),
    lo("cost.base", "count"),
    lo("cost.buffer_mgmt", "count"),
    lo("cost.in_order", "count"),
    lo("cost.fault_tol", "count"),
    lo("cost.overhead_share", "share"),
    lo("cost.record_ns", "ns"),
    lo("ni.send_recv_ns", "ns"),
    lo("core.sweep_s", "s"),
    lo("core.self_s", "s"),
    lo("core.xfer_s", "s"),
    lo("core.stream_s", "s"),
    lo("core.hl_xfer_s", "s"),
    lo("core.hl_stream_s", "s"),
    lo("core.xfer_ns_per_instr", "ns"),
    lo("core.stream_ns_per_instr", "ns"),
    lo("core.hl_xfer_ns_per_instr", "ns"),
    lo("core.hl_stream_ns_per_instr", "ns"),
    lo("sim_cycles", "cycles"),
    lo("sim_p99_cycles", "cycles"),
    lo("sim_p999_cycles", "cycles"),
    lo("bench.trace_overhead_share", "share"),
    lo("bench.span_count", "count"),
];

/// The six macro workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PermFlat,
    PermSharded,
    Hotspot,
    ServingPolicy,
    ServingFailover,
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PermFlat,
        Workload::PermSharded,
        Workload::Hotspot,
        Workload::ServingPolicy,
        Workload::ServingFailover,
        Workload::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PermFlat => "perm_flat",
            Workload::PermSharded => "perm_sharded",
            Workload::Hotspot => "hotspot",
            Workload::ServingPolicy => "serving_policy",
            Workload::ServingFailover => "serving_failover",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads, and which it
    /// leaves idle so an optimisation elsewhere predicts "no move".
    pub fn why(self) -> &'static str {
        match self {
            Workload::PermFlat => {
                "4096-node flat fat tree, random permutation of 8-word xfers: the substrate step dominates, the engine does little"
            }
            Workload::PermSharded => {
                "16384 nodes on 4 shards x 2 threads: the only run through ShardedNetwork's worker dispatch and boundary merge under load"
            }
            Workload::Hotspot => {
                "1024 nodes all sending to node 0: substrate nearly idle, engine ready-scan and wake fan-out are the run"
            }
            Workload::ServingPolicy => {
                "4096-node serving tier, two QoS classes at 84% of the knee, nothing shed: service driver, class plane and engine bookkeeping"
            }
            Workload::ServingFailover => {
                "512-node serving tier with four crash-restart windows, detector and hedging: recovery, probe, hedge and fault-plane paths"
            }
            Workload::PaperSweep => {
                "blocking protocols over a scripted substrate, 16 to 16384 words: cost recording, NI registers and protocol code only; checks the paper's table cells"
            }
        }
    }
}
