//! Fault-tolerant finite-sequence transfer (`xfer_reliable`).
//!
//! The paper's `CMAM_xfer` *detects* faults (the end-to-end
//! acknowledgement of step 6) but cannot recover: a dropped data packet
//! starves the receiver and the transfer fails. This module extends the
//! protocol with end-to-end recovery driven by a [`RetryPolicy`]:
//!
//! * **handshake retry** — a lost allocation request or reply is
//!   retransmitted after a backoff window; the receiver answers a
//!   duplicated request from its segment table instead of allocating
//!   twice;
//! * **selective retransmission** — when the receiver's drain stalls, it
//!   scans its receive bitmap and sends an `XFER_NACK` naming the first
//!   missing packet plus a 128-bit missing-set bitmap; the source
//!   retransmits exactly those packets;
//! * **acknowledgement probing** — if the final acknowledgement is lost,
//!   the source sends an `XFER_PROBE` and the receiver re-acknowledges
//!   from protocol state.
//!
//! Every recovery instruction — stray discards, duplicate detection, gap
//! scans, NACK/PROBE traffic, retransmitted packets — is charged to
//! `Feature::FaultTol` through the `costs::recovery` taxonomy. On a
//! fault-free run none of those paths execute, and the per-feature
//! instruction counts are **identical** to [`Machine::xfer`]'s (pinned
//! by `clean_run_costs_exactly_match_xfer` below): reliability costs
//! nothing until a fault actually happens.
//!
//! Data-packet headers carry a 12-bit per-transfer nonce above the
//! 20-bit buffer offset, derived from the per-ordered-pair **session
//! epoch** ([`Machine::next_session_epoch`]) the handshake packets also
//! carry: a delayed duplicate from an *earlier* same-pair transfer is
//! recognized as stale at either endpoint and discarded as fault-
//! tolerance work rather than corrupting (or wedging) the current
//! session.
//!
//! Above single-session recovery sits [`Machine::xfer_reliable_recovering`]:
//! when a peer crash-restart kills a session mid-flight (retryable
//! [`ProtocolError::SessionReset`] / deadline errors), it re-executes
//! the whole transfer under a fresh epoch until the policy's attempt
//! budget runs out, converging to exactly-once byte-exact delivery.

use timego_cost::{Feature, Fine};
use timego_netsim::NodeId;

use crate::costs::{recovery, xfer_order, xfer_recv};
use crate::engine::{Op, OpOutcome};
use crate::error::ProtocolError;
use crate::machine::{Machine, Tags};
use crate::retry::{RecoveryPolicy, RetryPolicy};
use crate::xfer::{XferOutcome, XferRx};

/// Offset bits in a reliable data-packet header; the bits above hold the
/// transfer nonce.
pub(crate) const OFFSET_BITS: u32 = 20;
pub(crate) const OFFSET_MASK: u32 = (1 << OFFSET_BITS) - 1;

/// Result of a completed fault-tolerant transfer: the underlying
/// [`XferOutcome`] plus recovery statistics (all zero on a clean run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliableOutcome {
    /// The plain transfer outcome (buffer, packets, segment, injection
    /// backpressure retries).
    pub xfer: XferOutcome,
    /// Handshake rounds that needed a retransmitted request.
    pub handshake_retries: u32,
    /// Data packets retransmitted after a NACK.
    pub data_retransmits: u64,
    /// NACK rounds the receiver initiated.
    pub nack_rounds: u32,
    /// Acknowledgement probes the source sent.
    pub ack_probes: u32,
}

impl Machine {
    /// Run a fault-tolerant finite-sequence transfer of `data` from
    /// `src` memory to a freshly allocated segment on `dst`.
    ///
    /// Behaves like [`Machine::xfer`] on a clean network (identical
    /// per-feature instruction counts); on a lossy network it recovers
    /// from dropped, duplicated, reordered, and outage-suppressed
    /// packets within `policy`'s attempt bounds. Recovery costs are
    /// charged to `Feature::FaultTol`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] for empty data, data too large
    /// for the 20-bit offset encoding, equal or out-of-range endpoints,
    /// or a zero-attempt policy; [`ProtocolError::Timeout`] (with node
    /// and attempt context) when a phase exhausts its retry budget.
    pub fn xfer_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: &[u32],
        policy: &RetryPolicy,
    ) -> Result<ReliableOutcome, ProtocolError> {
        match self.run_blocking(Op::xfer_reliable(src, dst, data, policy))? {
            (OpOutcome::Reliable(out), _) => Ok(out),
            _ => unreachable!("reliable op yields a reliable outcome"),
        }
    }

    /// [`Machine::xfer_reliable`] hardened against node crash-restarts:
    /// when an attempt dies with a *retryable* error (a peer crashed
    /// mid-session, a deadline or watchdog fired, a phase timed out),
    /// the transfer is re-executed from scratch under a fresh session
    /// epoch after the policy's backoff window, up to
    /// `policy.max_attempts` total executions. The re-execution happens
    /// *inside* the protocol engine (an engine-native
    /// [`RecoveryPolicy`], no caller-side loop): the op parks for the
    /// backoff window and re-runs under the same [`crate::OpId`].
    /// Packets of the dead session are recognizably stale under the new
    /// epoch and get discarded, so convergence is exactly-once and
    /// byte-exact.
    ///
    /// Each re-execution charges the session re-establishment costs
    /// (`SESSION_RESTART_REG`/`SESSION_RESTART_MEM`) to
    /// [`Feature::FaultTol`] at the source; a clean first attempt
    /// charges nothing beyond [`Machine::xfer_reliable`] itself.
    ///
    /// Returns the outcome plus the number of re-executions (zero when
    /// the first attempt succeeded).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadTransfer`] as [`Machine::xfer_reliable`];
    /// otherwise the last attempt's error once the retry budget is
    /// exhausted (non-retryable errors propagate immediately).
    pub fn xfer_reliable_recovering(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: &[u32],
        policy: &RetryPolicy,
    ) -> Result<(ReliableOutcome, u32), ProtocolError> {
        let recovery = RecoveryPolicy {
            max_executions: policy.max_attempts,
            backoff: policy.clone(),
        };
        match self.run_blocking(Op::xfer_reliable(src, dst, data, policy).recovering(&recovery))? {
            (OpOutcome::Reliable(out), re_executions) => Ok((out, re_executions)),
            _ => unreachable!("reliable op yields a reliable outcome"),
        }
    }

    /// Receive one data packet at the receiver, tolerating faults:
    /// stray tags and stale-nonce packets are discarded, duplicates are
    /// detected against the receive bitmap and dropped. The clean path
    /// (fresh in-nonce packet) is instruction-identical to
    /// [`Machine::recv_one_data_packet`]. Returns `false` (after the
    /// discovery latch) when nothing is waiting.
    pub(crate) fn recv_one_data_tolerant(
        &mut self,
        dst: NodeId,
        n: usize,
        rx: &mut XferRx,
        seen: &mut [bool],
        nonce: u32,
    ) -> bool {
        let node = self.node_mut(dst);
        let Some((_, tag)) = node.ni.latch_rx() else {
            return false;
        };
        if tag != Tags::XFER_DATA {
            node.cpu.clone().with_feature(Feature::FaultTol, |cpu| {
                cpu.reg(Fine::RegOp, recovery::STRAY_DISCARD_REG);
            });
            node.ni.drop_latched();
            return true;
        }
        // The latch and header read above/below are physical device
        // accesses spent identifying the packet; the dispatch and
        // placement costs are only paid for packets that are accepted,
        // so a discarded duplicate charges nothing outside fault
        // tolerance beyond those reads.
        let header = node.ni.read_header();
        let offset = header & OFFSET_MASK;
        let idx = offset as usize / n;
        if header & !OFFSET_MASK != nonce || idx >= seen.len() {
            // A delayed duplicate from an earlier transfer.
            node.cpu.clone().with_feature(Feature::FaultTol, |cpu| {
                cpu.reg(Fine::RegOp, recovery::STRAY_DISCARD_REG);
            });
            node.ni.drop_latched();
            return true;
        }
        if seen[idx] {
            node.cpu.clone().with_feature(Feature::FaultTol, |cpu| {
                cpu.reg(Fine::RegOp, recovery::DUP_DATA_REG);
            });
            node.ni.drop_latched();
            return true;
        }
        node.cpu.reg(Fine::Handler, xfer_recv::PER_PACKET_REG);
        node.cpu.clone().with_feature(Feature::InOrder, |cpu| {
            cpu.reg(Fine::RegOp, xfer_order::DST_PER_PACKET);
        });
        for d in 0..(n / 2) {
            let (w0, w1) = node.ni.read_payload2();
            node.mem
                .store2(rx.buffer.offset(offset as usize + 2 * d), w0, w1);
        }
        seen[idx] = true;
        rx.packets_received += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CmamConfig;
    use timego_netsim::{
        DeliveryScript, FaultConfig, Mesh2D, ScriptedNetwork, SwitchedConfig, SwitchedNetwork,
    };
    use timego_ni::share;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn scripted_machine(script: DeliveryScript) -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(2, script)),
            2,
            CmamConfig::default(),
        )
    }

    fn switched_machine(fault: FaultConfig, seed: u64) -> Machine {
        // Roomy queues: no injection backpressure, so runs that differ
        // only in faults stay comparable packet-for-packet.
        let net = SwitchedNetwork::new(
            Mesh2D::new(2, 1),
            SwitchedConfig {
                rx_queue_capacity: 4096,
                link_queue_capacity: 256,
                fault,
                seed,
                ..SwitchedConfig::default()
            },
        );
        Machine::new(share(net), 2, CmamConfig::default())
    }

    fn feature_totals(m: &Machine, node: NodeId) -> Vec<(Feature, u64)> {
        let snap = m.cpu(node).snapshot();
        Feature::ALL
            .into_iter()
            .map(|f| (f, snap.feature_total(f)))
            .collect()
    }

    #[test]
    fn clean_run_costs_exactly_match_xfer() {
        // The acceptance gate: with all fault probabilities zero,
        // `xfer_reliable` reports per-feature instruction counts
        // identical to `xfer` — recovery support costs nothing until a
        // fault happens.
        for script in [DeliveryScript::InOrder, DeliveryScript::AlternateSwap] {
            let data: Vec<u32> = (0..64).map(|i| i * 7 + 3).collect();
            let mut plain = scripted_machine(script);
            plain.reset_costs();
            plain.xfer(n(0), n(1), &data).unwrap();

            let mut reliable = scripted_machine(script);
            reliable.reset_costs();
            let out = reliable
                .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
                .unwrap();
            assert_eq!(out.handshake_retries, 0);
            assert_eq!(out.data_retransmits, 0);
            assert_eq!(out.nack_rounds, 0);
            assert_eq!(out.ack_probes, 0);
            assert_eq!(out.xfer.packets, 16);

            for node in [n(0), n(1)] {
                assert_eq!(
                    feature_totals(&plain, node),
                    feature_totals(&reliable, node),
                    "{script:?} node {node:?}: clean reliable run must cost exactly what xfer costs"
                );
            }
        }
    }

    #[test]
    fn clean_switched_run_costs_exactly_match_xfer() {
        // Same gate over a real store-and-forward substrate (latency,
        // backpressure) instead of the instant scripted network.
        let data: Vec<u32> = (0..128).collect();
        let mut plain = switched_machine(FaultConfig::default(), 7);
        plain.reset_costs();
        plain.xfer(n(0), n(1), &data).unwrap();

        let mut reliable = switched_machine(FaultConfig::default(), 7);
        reliable.reset_costs();
        reliable
            .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
            .unwrap();

        for node in [n(0), n(1)] {
            assert_eq!(
                feature_totals(&plain, node),
                feature_totals(&reliable, node),
                "clean switched run must cost exactly what xfer costs"
            );
        }
    }

    #[test]
    fn recovers_from_packet_drops() {
        let fault = FaultConfig {
            drop_prob: 0.1,
            ..FaultConfig::default()
        };
        let data: Vec<u32> = (0..256).map(|i| i ^ 0xABCD).collect();
        let mut ok = 0;
        for seed in 0..8 {
            let mut m = switched_machine(fault.clone(), seed);
            let out = m
                .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
                .expect("reliable transfer must survive 10% drops");
            assert_eq!(
                m.read_buffer(n(1), out.xfer.dst_buffer, data.len()),
                data,
                "seed {seed}: payload must be byte-exact"
            );
            if out.data_retransmits > 0 || out.handshake_retries > 0 || out.ack_probes > 0 {
                ok += 1;
            }
        }
        assert!(ok > 0, "at least one seed must actually exercise recovery");
    }

    #[test]
    fn recovery_work_lands_in_fault_tolerance() {
        let fault = FaultConfig {
            drop_prob: 0.15,
            ..FaultConfig::default()
        };
        let data: Vec<u32> = (0..256).collect();
        // Find a seed whose run drops data packets but leaves the
        // handshake and acknowledgement clean, so the non-recovery
        // features can be compared against a fault-free baseline.
        for seed in 0..32 {
            let mut m = switched_machine(fault.clone(), seed);
            m.reset_costs();
            let out = m
                .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
                .unwrap();
            if out.data_retransmits == 0 || out.handshake_retries > 0 || out.ack_probes > 0 {
                continue;
            }
            let mut clean = switched_machine(FaultConfig::default(), seed);
            clean.reset_costs();
            clean
                .xfer_reliable(n(0), n(1), &data, &RetryPolicy::default())
                .unwrap();
            // Base / buffer management / in-order totals are untouched
            // by recovery; the delta is all fault tolerance.
            for node in [n(0), n(1)] {
                let faulted = m.cpu(node).snapshot();
                let baseline = clean.cpu(node).snapshot();
                assert_eq!(
                    faulted.feature_total(Feature::InOrder),
                    baseline.feature_total(Feature::InOrder),
                    "in-order totals must not change under recovery"
                );
                assert_eq!(
                    faulted.feature_total(Feature::BufferMgmt),
                    baseline.feature_total(Feature::BufferMgmt),
                    "buffer management totals must not change under recovery"
                );
            }
            assert!(
                m.cpu(n(0)).snapshot().feature_total(Feature::FaultTol)
                    + m.cpu(n(1)).snapshot().feature_total(Feature::FaultTol)
                    > clean.cpu(n(0)).snapshot().feature_total(Feature::FaultTol)
                        + clean.cpu(n(1)).snapshot().feature_total(Feature::FaultTol),
                "recovery must be visible in the fault-tolerance feature"
            );
            return;
        }
        panic!("no seed exercised a data retransmission");
    }

    #[test]
    fn oversized_transfer_is_rejected() {
        let mut m = scripted_machine(DeliveryScript::InOrder);
        let data = vec![0u32; 1 << OFFSET_BITS];
        assert!(matches!(
            m.xfer_reliable(n(0), n(1), &data, &RetryPolicy::default()),
            Err(ProtocolError::BadTransfer(_))
        ));
    }
}
