//! Protocol error type.

use std::error::Error;
use std::fmt;

use timego_netsim::{Guarantees, NodeId};

use crate::engine::OpId;

/// Errors raised by protocol executions.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// A protocol phase waited longer than the configured bound for a
    /// packet. On a detect-only network this is how software observes a
    /// lost packet with no retransmission machinery (the paper's "detect
    /// errors and crash").
    Timeout {
        /// What the endpoint was waiting for.
        waiting_for: &'static str,
        /// Cycles waited.
        cycles: u64,
        /// The node that was waiting, when known.
        node: Option<NodeId>,
        /// Recovery attempts made before giving up (`0` when no retry
        /// policy was in effect).
        attempts: u32,
    },
    /// A high-level protocol was started on a substrate that lacks the
    /// required hardware guarantees.
    MissingGuarantees {
        /// What the substrate actually provides.
        have: Guarantees,
    },
    /// Transfer arguments were invalid (empty data, odd packet size, …).
    BadTransfer(String),
    /// An unexpected packet arrived during a protocol phase.
    UnexpectedPacket {
        /// The hardware tag of the offending packet.
        tag: u8,
    },
    /// A run-after predecessor of this operation failed, so the
    /// operation was never released for admission. The failure
    /// propagates transitively: each dependent carries the [`OpId`] of
    /// its *direct* failed predecessor plus the *root* error the chain
    /// started from, so retryability can follow the root cause without
    /// walking the engine's outcome table.
    DependencyFailed {
        /// The direct predecessor whose failure felled this operation.
        failed: OpId,
        /// The root-cause error the failure chain started from (chains
        /// of `DependencyFailed` are flattened to the original error).
        root: Box<ProtocolError>,
    },
    /// An operation overran its per-op deadline or was starved of
    /// progress long enough for the engine watchdog to fire. Retryable:
    /// the usual cause is lost traffic or a crashed-and-restarting
    /// peer, and a fresh submission starts a fresh session.
    DeadlineExceeded {
        /// What kind of supervision bound fired ("deadline" for an
        /// explicit per-op deadline, "watchdog" for the no-progress
        /// detector).
        what: &'static str,
        /// Cycles elapsed when the bound fired (since submission for
        /// deadlines, since last progress for the watchdog).
        cycles: u64,
    },
    /// The operation was cancelled via [`crate::engine::Engine::cancel`]
    /// or drained by `quiesce`. Deliberate, so never retryable.
    Cancelled,
    /// A peer node crashed and restarted mid-session, erasing its
    /// endpoint protocol state; the surviving side detected the restart
    /// (epoch mismatch or restart-counter advance) and failed fast.
    /// Retryable: re-executing opens a fresh epoch-stamped session.
    SessionReset {
        /// The node that restarted.
        node: NodeId,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Timeout { waiting_for, cycles, node, attempts } => {
                write!(f, "timed out after {cycles} cycles waiting for {waiting_for}")?;
                if let Some(n) = node {
                    write!(f, " at node {}", n.index())?;
                }
                if *attempts > 0 {
                    write!(f, " ({attempts} recovery attempts)")?;
                }
                Ok(())
            }
            ProtocolError::MissingGuarantees { have } => write!(
                f,
                "substrate lacks required high-level guarantees (has in_order={}, reliable={}, flow_controlled={})",
                have.in_order, have.reliable, have.flow_controlled
            ),
            ProtocolError::BadTransfer(msg) => write!(f, "invalid transfer: {msg}"),
            ProtocolError::UnexpectedPacket { tag } => {
                write!(f, "unexpected packet with tag {tag} during protocol phase")
            }
            ProtocolError::DependencyFailed { failed, root } => {
                write!(f, "run-after predecessor op {} failed: {root}", failed.raw())
            }
            ProtocolError::DeadlineExceeded { what, cycles } => {
                write!(f, "operation {what} exceeded after {cycles} cycles")
            }
            ProtocolError::Cancelled => write!(f, "operation cancelled"),
            ProtocolError::SessionReset { node } => {
                write!(f, "peer node {} crashed and restarted mid-session", node.index())
            }
        }
    }
}

impl ProtocolError {
    /// A [`ProtocolError::Timeout`] with no retry context.
    #[must_use]
    pub fn timeout(waiting_for: &'static str, cycles: u64) -> Self {
        ProtocolError::Timeout { waiting_for, cycles, node: None, attempts: 0 }
    }

    /// Build a [`ProtocolError::DependencyFailed`] naming the direct
    /// predecessor `failed`, flattening chained dependency failures so
    /// `root` is always the original non-dependency error.
    #[must_use]
    pub(crate) fn dependency_failed(failed: OpId, predecessor_err: &ProtocolError) -> Self {
        let root = match predecessor_err {
            ProtocolError::DependencyFailed { root, .. } => root.clone(),
            other => Box::new(other.clone()),
        };
        ProtocolError::DependencyFailed { failed, root }
    }

    /// Would retrying the operation plausibly succeed? Timeouts,
    /// deadline/watchdog expiries and session resets are transient (a
    /// packet was lost or delayed, or a peer restarted and a fresh
    /// session will succeed). A dependency failure follows its root
    /// cause: resubmitting the whole chain is sensible exactly when the
    /// root failure was itself transient. Cancellation is deliberate
    /// and everything else is a configuration or usage error that
    /// retrying cannot fix.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            ProtocolError::Timeout { .. }
            | ProtocolError::DeadlineExceeded { .. }
            | ProtocolError::SessionReset { .. } => true,
            ProtocolError::DependencyFailed { root, .. } => root.is_retryable(),
            _ => false,
        }
    }
}

impl Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = ProtocolError::timeout("ack", 99);
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("ack"));
        assert!(!e.to_string().contains("node"), "no context, no clutter");
        let e = ProtocolError::MissingGuarantees { have: Guarantees::RAW };
        assert!(e.to_string().contains("in_order=false"));
        assert!(ProtocolError::BadTransfer("x".into()).to_string().contains("x"));
        assert!(ProtocolError::UnexpectedPacket { tag: 9 }.to_string().contains('9'));
    }

    #[test]
    fn timeout_display_includes_retry_context() {
        let e = ProtocolError::Timeout {
            waiting_for: "xfer acknowledgement",
            cycles: 512,
            node: Some(NodeId::new(3)),
            attempts: 4,
        };
        let s = e.to_string();
        assert!(s.contains("512"), "{s}");
        assert!(s.contains("xfer acknowledgement"), "{s}");
        assert!(s.contains("node 3"), "{s}");
        assert!(s.contains("4 recovery attempts"), "{s}");
    }

    /// Table-driven audit of `is_retryable()` over **every** variant:
    /// the transient classes (timeouts, both supervision bounds, session
    /// resets, and dependency failures flattened onto those roots) all
    /// answer `true`; deliberate cancellation, usage errors, and
    /// dependency failures rooted in them all answer `false`. Adding a
    /// variant without classifying it here fails the completeness check.
    #[test]
    fn retryability_table_covers_every_variant() {
        let dep = |root: ProtocolError| ProtocolError::DependencyFailed {
            failed: OpId::from_raw(7),
            root: Box::new(root),
        };
        let table: Vec<(ProtocolError, bool)> = vec![
            // Transient: lost/delayed traffic or a restarted peer.
            (ProtocolError::timeout("ack", 1), true),
            (
                ProtocolError::Timeout {
                    waiting_for: "reply",
                    cycles: 9,
                    node: Some(NodeId::new(1)),
                    attempts: 3,
                },
                true,
            ),
            (ProtocolError::DeadlineExceeded { what: "deadline", cycles: 7 }, true),
            (ProtocolError::DeadlineExceeded { what: "watchdog", cycles: 7 }, true),
            (ProtocolError::SessionReset { node: NodeId::new(2) }, true),
            // Dependency failures follow their flattened root cause.
            (dep(ProtocolError::timeout("ack", 1)), true),
            (dep(ProtocolError::DeadlineExceeded { what: "watchdog", cycles: 3 }), true),
            (dep(ProtocolError::SessionReset { node: NodeId::new(0) }), true),
            (dep(ProtocolError::BadTransfer("x".into())), false),
            (dep(ProtocolError::Cancelled), false),
            // Deliberate or usage errors: retrying cannot fix them.
            (ProtocolError::Cancelled, false),
            (ProtocolError::MissingGuarantees { have: Guarantees::RAW }, false),
            (ProtocolError::BadTransfer("x".into()), false),
            (ProtocolError::UnexpectedPacket { tag: 1 }, false),
        ];
        for (err, want) in &table {
            assert_eq!(err.is_retryable(), *want, "{err:?}");
        }
        // Completeness: every variant of the enum appears in the table
        // (discriminant names extracted from the Debug rendering).
        let discriminant = |e: &ProtocolError| {
            let s = format!("{e:?}");
            s.split(|c: char| !c.is_alphanumeric()).next().unwrap().to_string()
        };
        let covered: std::collections::BTreeSet<String> =
            table.iter().map(|(e, _)| discriminant(e)).collect();
        for name in [
            "Timeout",
            "MissingGuarantees",
            "BadTransfer",
            "UnexpectedPacket",
            "DependencyFailed",
            "DeadlineExceeded",
            "Cancelled",
            "SessionReset",
        ] {
            assert!(covered.contains(name), "variant {name} missing from the table");
        }
    }

    #[test]
    fn supervision_errors_display_their_details() {
        let e = ProtocolError::DeadlineExceeded { what: "watchdog", cycles: 321 };
        let s = e.to_string();
        assert!(s.contains("watchdog"), "{s}");
        assert!(s.contains("321"), "{s}");
        assert!(ProtocolError::Cancelled.to_string().contains("cancelled"));
        let s = ProtocolError::SessionReset { node: NodeId::new(5) }.to_string();
        assert!(s.contains("node 5"), "{s}");
        assert!(s.contains("restarted"), "{s}");
    }

    #[test]
    fn dependency_failure_names_the_predecessor_and_follows_its_root() {
        let mut eng = crate::engine::Engine::new();
        let m = crate::machine::Machine::new(
            timego_ni::share(timego_netsim::ScriptedNetwork::new(
                2,
                timego_netsim::DeliveryScript::InOrder,
            )),
            2,
            crate::machine::CmamConfig::default(),
        );
        let id = eng.submit_xfer(&m, NodeId::new(0), NodeId::new(1), &[1]).unwrap();
        let root = ProtocolError::timeout("ack", 9);
        let e = ProtocolError::dependency_failed(id, &root);
        let s = e.to_string();
        assert!(s.contains("predecessor"), "{s}");
        assert!(s.contains(&id.raw().to_string()), "{s}");
        assert!(s.contains("ack"), "root cause spelled out: {s}");
        assert!(e.is_retryable(), "retryability follows the retryable root");

        let e2 = ProtocolError::dependency_failed(id, &ProtocolError::BadTransfer("x".into()));
        assert!(!e2.is_retryable(), "non-retryable root stays non-retryable");

        // Chains flatten: a dependency failure built atop another keeps
        // the original root, not the intermediate wrapper.
        let chained = ProtocolError::dependency_failed(id, &e);
        match chained {
            ProtocolError::DependencyFailed { root, .. } => {
                assert_eq!(*root, ProtocolError::timeout("ack", 9));
            }
            other => panic!("expected DependencyFailed, got {other:?}"),
        }
    }
}
