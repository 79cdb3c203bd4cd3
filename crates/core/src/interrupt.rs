//! Interrupt-driven reception — the alternative the paper declines.
//!
//! Footnote 2 of the paper: *"The CM-5 NI also supports an
//! interrupt-driven interface for reception; however, the cost for
//! interrupts is very high for the SPARC processor."* This module makes
//! that trade-off measurable: a message can be delivered through a
//! simulated receive interrupt instead of a poll, paying a configurable
//! trap entry/exit cost (register windows, PSR save/restore) but no
//! polling at all.
//!
//! The polling discipline costs `27` instructions per delivered message
//! plus `13` per *idle* poll (the more often the application checks, the
//! more it pays when nothing is there); the interrupt discipline costs
//! `entry + 16 + exit` per message and nothing when idle. The crossover
//! analysis in [`polling_vs_interrupt`] quantifies when each wins.

use timego_cost::Fine;
use timego_netsim::NodeId;

use crate::am::PollOutcome;
use crate::costs::am4_recv;
use crate::machine::Machine;

/// Cost model for a receive interrupt, in register instructions.
///
/// The default approximates a SPARC-class trap: spilling a register
/// window and saving processor state on entry, restoring on exit —
/// expensive relative to a 27-instruction polled receive, which is the
/// paper's stated reason CMAM polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptModel {
    /// Trap entry: vectoring, window spill, state save.
    pub entry: u64,
    /// Trap exit: state restore, return from trap.
    pub exit: u64,
}

impl Default for InterruptModel {
    fn default() -> Self {
        InterruptModel { entry: 85, exit: 47 }
    }
}

impl InterruptModel {
    /// Instructions per message delivered by interrupt: trap overhead
    /// plus the receive path with neither the status poll nor the
    /// procedure-call overhead (the trap handler *is* the entry): latch,
    /// tag vectoring, header and payload loads — 16 instructions.
    pub(crate) fn per_message(&self) -> u64 {
        self.entry + 16 + self.exit
    }

    /// Idle polls per message at which interrupt delivery becomes
    /// cheaper than polling (27 per message + 13 per idle poll).
    pub fn breakeven_idle_polls(&self) -> f64 {
        (self.per_message() as f64 - 27.0) / 13.0
    }
}

/// One row of the polling-versus-interrupt comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisciplineCosts {
    /// Idle polls the application performs per delivered message.
    pub idle_polls: u64,
    /// Total polled-discipline cost per message.
    pub polling: u64,
    /// Total interrupt-discipline cost per message.
    pub interrupt: u64,
}

/// Compare receive disciplines across application polling rates:
/// `idle_polls` is how many empty status checks the application makes
/// per message it actually receives (a compute-bound application polls
/// rarely but pays interrupts; a communication-bound one polls
/// constantly and the polls are never idle).
pub fn polling_vs_interrupt(model: InterruptModel, idle_poll_rates: &[u64]) -> Vec<DisciplineCosts> {
    idle_poll_rates
        .iter()
        .map(|&idle_polls| DisciplineCosts {
            idle_polls,
            polling: 27 + 13 * idle_polls,
            interrupt: model.per_message(),
        })
        .collect()
}

impl Machine {
    /// Deliver one waiting message to `node` via a simulated receive
    /// interrupt: trap entry, then [`Machine::poll`]'s receive and
    /// dispatch without the procedure call and the status probe — the
    /// interrupt is the notification — then trap exit.
    ///
    /// Returns [`PollOutcome::Idle`] without cost if nothing is waiting
    /// (no interrupt would have fired).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn deliver_by_interrupt(&mut self, node: NodeId, model: InterruptModel) -> PollOutcome {
        if self.net.borrow().rx_pending(node) == 0 {
            return PollOutcome::Idle;
        }
        let n = self.node_mut(node);
        n.cpu.reg(Fine::CallReturn, model.entry);
        n.cpu.ctrl(am4_recv::CTRL);
        n.cpu.reg(Fine::CheckStatus, am4_recv::STATUS_REG);
        let out = n.read_msg().map_or(PollOutcome::Idle, |msg| n.dispatch(msg));
        n.cpu.reg(Fine::CallReturn, model.exit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CmamConfig;
    use timego_netsim::{DeliveryScript, ScriptedNetwork};
    use timego_ni::share;

    fn machine() -> Machine {
        Machine::new(
            share(ScriptedNetwork::new(2, DeliveryScript::InOrder)),
            2,
            CmamConfig::default(),
        )
    }

    #[test]
    fn interrupt_delivery_works_and_costs_trap_overhead() {
        let mut m = machine();
        m.register_handler(NodeId::new(1), 20, |_, _| {});
        m.am4_send(NodeId::new(0), NodeId::new(1), 20, [1, 2, 3, 4]).unwrap();
        m.cpu(NodeId::new(1)).reset();
        let model = InterruptModel::default();
        let out = m.deliver_by_interrupt(NodeId::new(1), model);
        assert_eq!(out, PollOutcome::Handled(20));
        let v = m.cpu(NodeId::new(1)).snapshot();
        // entry + (26 receive) + 2 handler dispatch + exit.
        assert_eq!(v.total(), model.per_message() + 2);
    }

    #[test]
    fn no_interrupt_fires_when_idle() {
        let mut m = machine();
        let out = m.deliver_by_interrupt(NodeId::new(1), InterruptModel::default());
        assert_eq!(out, PollOutcome::Idle);
        assert!(m.cpu(NodeId::new(1)).snapshot().is_empty());
    }

    #[test]
    fn breakeven_matches_the_formula() {
        let model = InterruptModel { entry: 85, exit: 47 };
        // per message = 85 + 16 + 47 = 148; (148-27)/13 ≈ 9.3.
        assert_eq!(model.per_message(), 148);
        assert!((model.breakeven_idle_polls() - 121.0 / 13.0).abs() < 1e-9);
        let rows = polling_vs_interrupt(model, &[0, 5, 9, 10, 20]);
        assert!(rows[0].polling < rows[0].interrupt, "hot polling wins");
        assert!(rows[4].polling > rows[4].interrupt, "idle machine prefers interrupts");
    }

    #[test]
    fn interrupt_receive_data_is_correct() {
        let mut m = machine();
        m.am4_send(NodeId::new(0), NodeId::new(1), 33, [9, 8, 7, 6]).unwrap();
        match m.deliver_by_interrupt(NodeId::new(1), InterruptModel::default()) {
            PollOutcome::Unclaimed(msg) => {
                assert_eq!(msg.tag, 33);
                assert_eq!(msg.words, [9, 8, 7, 6]);
            }
            other => panic!("expected unclaimed, got {other:?}"),
        }
    }
}
