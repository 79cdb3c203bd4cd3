//! Active-message types, and the single four-word active message (the
//! paper's `CMAM_4`) as an engine operation.

use timego_netsim::{NodeId, RxMeta};

use crate::engine::OpOutcome;
use crate::error::ProtocolError;
use crate::machine::Machine;
use crate::op::{check_restart, win, KeyClass, OpMachine, Stepped};

/// A received four-word active message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Am4Msg {
    /// Sending node.
    pub src: NodeId,
    /// Hardware message tag (handler selector).
    pub tag: u8,
    /// The packet header word (0 for plain `am4` sends; protocols use it
    /// for offsets/sequence numbers).
    pub header: u32,
    /// The four payload words.
    pub words: [u32; 4],
}

/// Result of one [`Machine::poll`](crate::Machine::poll).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollOutcome {
    /// No packet was waiting.
    Idle,
    /// A message was dispatched to the handler registered for its tag.
    Handled(u8),
    /// A packet arrived with no registered handler (or a reserved
    /// protocol tag outside its protocol phase); the message is handed
    /// back to the caller.
    Unclaimed(Am4Msg),
}

impl PollOutcome {
    /// Whether a packet was consumed (handled or unclaimed).
    pub fn received(&self) -> bool {
        !matches!(self, PollOutcome::Idle)
    }
}

/// One user-tag four-word active message as an engine operation: the
/// Table 1 20-instruction send on `src`, then a destination poll once
/// the packet is at `dst`'s queue head. The building block the
/// engine-native collectives compose into dependency DAGs.
pub(crate) struct Am4Op {
    src: NodeId,
    dst: NodeId,
    tag: u8,
    words: [u32; 4],
    // Delivery token riding the header word: 0 for plain submissions
    // (matching `Machine::am4_send`), nonzero for recovery-managed ops
    // so a duplicate left by a crash-straddling re-execution is
    // attributable — consumption is token-gated, and an unclaimed
    // leftover is orphan-discardable.
    token: u32,
    // Recovery-managed ops fail fast with `SessionReset` on an
    // endpoint crash-restart (counters captured at start).
    managed: bool,
    sent: bool,
    stalled: bool,
    waited: u64,
    peer_restarts: (u32, u32),
}

impl Am4Op {
    pub(crate) fn new(
        src: NodeId,
        dst: NodeId,
        tag: u8,
        words: [u32; 4],
        token: u32,
        managed: bool,
    ) -> Self {
        Am4Op {
            src,
            dst,
            tag,
            words,
            token,
            managed,
            sent: false,
            stalled: false,
            waited: 0,
            peer_restarts: (0, 0),
        }
    }
}

impl OpMachine for Am4Op {
    fn endpoints(&self) -> (NodeId, NodeId) {
        (self.src, self.dst)
    }

    /// Same-pair messages are serialized, so two concurrent sends with
    /// the same tag cannot swap deliveries.
    fn conflict_key(&self) -> Option<(KeyClass, NodeId, NodeId)> {
        Some((KeyClass::Am, self.src, self.dst))
    }

    fn claims(&self, node: NodeId, meta: &RxMeta) -> bool {
        node == self.dst
            && meta.src == self.src
            && meta.tag == self.tag
            && meta.header == self.token
    }

    /// Keeps the delivery token: a duplicate left by the dead execution
    /// stays attributable to this operation.
    fn reset(&mut self) {
        *self = Am4Op::new(self.src, self.dst, self.tag, self.words, self.token, self.managed);
    }

    fn start(&mut self, m: &mut Machine) {
        self.peer_restarts = (m.restarts_of(self.src), m.restarts_of(self.dst));
    }

    fn tick_n(&mut self, k: u64) {
        self.stalled = false;
        self.waited += k;
    }

    /// Unsent messages retry injection every cycle once the stall
    /// clears; a sent message only acts again when the wait bound
    /// closes (delivery wakes it through the destination endpoint).
    fn wake_in(&self, max_wait: u64) -> u64 {
        if self.stalled || !self.sent {
            return 1;
        }
        win(max_wait, self.waited)
    }

    fn step(&mut self, m: &mut Machine) -> Result<Stepped, ProtocolError> {
        if self.managed {
            check_restart(m, self.src, self.dst, self.peer_restarts)?;
        }
        if self.waited > m.config().max_wait_cycles {
            let what = if self.sent { "am4 delivery" } else { "am4 injection" };
            return Err(ProtocolError::timeout(what, self.waited));
        }
        let mut progress = false;
        if !self.sent && !self.stalled {
            // One attempt of the Table 1 single-packet send; identical
            // instruction shape to `Machine::am4_send`'s loop body
            // (the token rides the header word the packet already
            // carries), paid again on every backpressure retry.
            if m.rpc_send_once(self.src, self.dst, self.tag, u64::from(self.token), self.words) {
                self.sent = true;
                self.waited = 0;
                progress = true;
            } else {
                self.stalled = true;
            }
        }
        // Consume the message once it surfaces at the destination's
        // queue head (a cost-free harness peek gated on our delivery
        // token; the poll itself pays Table 1's 27-instruction message
        // path, plus handler dispatch when a handler is registered for
        // the tag).
        if m.rx_peek_at(self.dst).is_some_and(|meta| self.claims(self.dst, &meta)) {
            return match m.poll(self.dst) {
                PollOutcome::Unclaimed(msg) => Ok(Stepped::Done(OpOutcome::Am4(msg.words))),
                // A registered handler consumed the payload; the
                // outcome reports zeros (the handler owns the words).
                PollOutcome::Handled(_) => Ok(Stepped::Done(OpOutcome::Am4([0; 4]))),
                PollOutcome::Idle => unreachable!("gated poll found an empty queue"),
            };
        }
        Ok(if progress { Stepped::Progress } else { Stepped::Idle })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn received_classification() {
        assert!(!PollOutcome::Idle.received());
        assert!(PollOutcome::Handled(20).received());
        let msg = Am4Msg {
            src: NodeId::new(0),
            tag: 9,
            header: 0,
            words: [0; 4],
        };
        assert!(PollOutcome::Unclaimed(msg).received());
    }
}
