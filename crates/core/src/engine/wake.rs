//! Readiness: whom a touch at a node wakes, how an op goes to sleep and
//! wakes again, and the orphan sweep that rides the same touches.

use std::cmp::Reverse;

use timego_netsim::{NodeId, RxMeta};

use super::{Engine, Timer};
use crate::machine::{Machine, Tags};

/// Why a node is being touched — which sleepers the touch can concern
/// (see [`Engine::touch_node`]).
pub(super) enum Touch {
    /// A delivery, or an engine stray discard surfacing the next packet:
    /// only the queue head's claimants.
    Packet,
    /// An op between this node and `peer` progressed or finished here:
    /// the head's claimants, plus the sleepers on that same pair.
    Pair { peer: NodeId },
    /// The node crash-restarted: every op with an endpoint here.
    Restart,
}

impl Engine {
    /// Note activity at `node`: mark it for the orphan sweep and wake the
    /// sleepers the touch can concern. Called on substrate deliveries,
    /// crash-restarts, engine stray discards, and whenever an op
    /// progresses or finishes at its endpoints (consumption can reveal
    /// the next queued packet).
    ///
    /// By the [`OpMachine`](crate::op::OpMachine) contract a sleeper's
    /// next step is non-idle only through its own timer (the timer
    /// queue's business), a restart of an endpoint, or a queue head it `claims`
    /// — and every `claims` requires the head's sender to be the op's
    /// other endpoint. So, by cause:
    ///
    /// 1. any touch with a packet at the head wakes the sleepers keyed
    ///    `(node, head.src)` that claim it;
    /// 2. a touch by an op's own progress or finish also wakes the
    ///    sleepers on that op's pair, whatever the head (a handful at
    ///    most): one of them may have slept behind the head this op just
    ///    consumed with a packet of its own still held by a scripted
    ///    substrate, which holds per pair — nothing of its own reaches a
    ///    queue head to wake it by, but its next look at the emptied
    ///    queue releases the packet, as the reference's re-step would;
    /// 3. a restart wakes every op with an endpoint here — the
    ///    `SessionReset` is each one's to observe;
    /// 4. a head sent by the node itself fits no pair key and falls back
    ///    to 3.
    ///
    /// The look at the head is pure ([`Machine::rx_head_at`]): an empty
    /// queue is "no head", never a substrate peek. And when nothing
    /// sleeps here the touch returns before any substrate call.
    pub(super) fn touch_node(&mut self, m: &Machine, node: NodeId, cause: Touch) {
        self.orphan_dirty.insert(node.index());
        if self.sleepers.get(node.index()).is_none_or(|&n| n == 0) {
            return;
        }
        let woken = match cause {
            Touch::Restart => return self.wake_all_at(node),
            Touch::Pair { peer } => {
                self.wake_pair(node, peer, None);
                Some(peer)
            }
            Touch::Packet => None,
        };
        match m.rx_head_at(node) {
            Some(head) if head.src == node => self.wake_all_at(node),
            // A head from the pair just woken wholesale has no one left
            // to name.
            Some(head) if Some(head.src) != woken => self.wake_pair(node, head.src, Some(&head)),
            _ => {}
        }
    }

    /// [`Engine::touch_node`] at both endpoints of an op that progressed
    /// or finished.
    pub(super) fn touch_endpoints(&mut self, m: &Machine, (a, b): (NodeId, NodeId)) {
        self.touch_node(m, a, Touch::Pair { peer: b });
        self.touch_node(m, b, Touch::Pair { peer: a });
    }

    /// Where the ops keyed `(node, peer)` start in `by_pair[node]`.
    fn pair_start(&self, node: NodeId, peer: NodeId) -> usize {
        self.by_pair.get(node.index()).map_or(0, |v| v.partition_point(|e| e.0 < peer))
    }

    /// Wake the sleepers keyed `(node, peer)` — those that claim `head`,
    /// or all of them when there is no head to ask about.
    fn wake_pair(&mut self, node: NodeId, peer: NodeId, head: Option<&RxMeta>) {
        let mut k = self.pair_start(node, peer);
        while let Some(&(p, slot)) = self.by_pair[node.index()].get(k) {
            if p != peer {
                break;
            }
            k += 1;
            let s = &self.slots[slot];
            if !self.running.is_ready(s.inc) && head.is_none_or(|h| s.a.op.claims(node, h)) {
                self.wake_slot(slot);
            }
        }
    }

    /// Wake every sleeper with an endpoint at `node`.
    fn wake_all_at(&mut self, node: NodeId) {
        for k in 0..self.by_pair[node.index()].len() {
            let slot = self.by_pair[node.index()][k].1;
            self.wake_slot(slot);
        }
    }

    /// Wake a sleeping slot, delivering the timer ticks it slept
    /// through in one lazy batch. Ticks are engine-advance epochs, not
    /// raw clock cycles: a same-epoch wake delivers zero ticks —
    /// preserving `stalled` until an idle advance actually passes,
    /// exactly like the reference (which only clears it on a tick).
    pub(super) fn wake_slot(&mut self, slot: u32) {
        let epoch = self.tick_epoch;
        let Some(s) = self.slots.get_mut(slot) else { return };
        if !self.running.set_ready(s.inc) {
            return;
        }
        // Invalidate the outstanding timer wake for this sleep.
        s.sleep_gen += 1;
        let elapsed = epoch.saturating_sub(s.slept_epoch);
        if elapsed > 0 {
            s.a.op.tick_n(elapsed);
        }
        let (a, b) = s.a.endpoints;
        self.sleepers[a.index()] -= 1;
        self.sleepers[b.index()] -= 1;
    }

    /// Put a slot to sleep after an `Idle` step: record the sleep
    /// anchor, clear its ready bit, and schedule the op's own
    /// timer wake — the earliest future cycle at which a timer tick
    /// could make its next step non-idle. A touch that concerns it
    /// ([`Engine::touch_node`]) wakes it earlier.
    pub(super) fn sleep_slot(&mut self, m: &Machine, slot: u32) {
        let now = m.now();
        let wake_in = self.slots[slot].a.op.wake_in(m.config().max_wait_cycles);
        let epoch = self.tick_epoch;
        let s = &mut self.slots[slot];
        s.slept_epoch = epoch;
        let inc = s.inc;
        self.running.clear_ready(inc);
        if wake_in != u64::MAX {
            let timer = Timer::Wake { slot, inc, gen: s.sleep_gen };
            self.timers.push(Reverse((now.saturating_add(wake_in), timer)));
        }
        let (a, b) = s.a.endpoints;
        self.sleepers[a.index()] += 1;
        self.sleepers[b.index()] += 1;
    }

    /// Is a packet with this envelope the engine's to discard once no
    /// running op claims it? Reserved protocol tags are engine-owned.
    /// User-tag packets carrying a nonzero header are recovery-stamped
    /// am4 sends (plain user traffic always rides header 0) and equally
    /// discardable once no running op claims their token.
    pub(super) fn discardable(meta: &RxMeta) -> bool {
        meta.tag < Tags::USER_BASE || meta.tag == Tags::RPC_REPLY || meta.header != 0
    }

    /// Is the packet at `node`'s queue head discardable and unclaimed?
    /// Only the ops keyed `(node, meta.src)` are asked — every `claims`
    /// requires the sender to be the op's other endpoint, so no one
    /// else can. A packet the node sent itself fits no pair key and is
    /// scanned for.
    fn orphaned(&self, node: NodeId, meta: &RxMeta) -> bool {
        if !Self::discardable(meta) {
            return false;
        }
        let claims = |slot: u32| self.slots[slot].a.op.claims(node, meta);
        if meta.src == node {
            return !self.running.iter().any(|(_, slot)| claims(slot));
        }
        let keyed = self.by_pair.get(node.index()).map_or(&[][..], Vec::as_slice);
        let keyed = &keyed[self.pair_start(node, meta.src)..];
        !keyed.iter().take_while(|e| e.0 == meta.src).any(|e| claims(e.1))
    }

    /// Discard one packet claimed by no active operation (a stale
    /// duplicate of an already-completed operation), charged with the
    /// same instruction shape the blocking recovery paths used for stray
    /// discards. Returns `true` if something was discarded. Only nodes
    /// with packet activity since their last clean verdict are
    /// examined: every path that can surface a discardable head marks
    /// the node dirty (deliveries, restarts, claimant progress/finish,
    /// prior discards), so the dirty bits are a superset of the nodes a
    /// scan of every node could act on, and taking the lowest first is
    /// that scan's order.
    pub(super) fn discard_orphan(&mut self, m: &mut Machine) -> bool {
        while let Some(ni) = self.orphan_dirty.first() {
            let node = NodeId::new(ni);
            if !m.rx_head_at(node).is_some_and(|meta| self.orphaned(node, &meta)) {
                self.orphan_dirty.remove(ni);
                continue;
            }
            m.discard_stray(node);
            // The next queued packet (if any) surfaced: leave the node
            // dirty and wake whom it concerns.
            self.touch_node(m, node, Touch::Packet);
            return true;
        }
        debug_assert!(
            !self.discard_scan_would_find(m),
            "orphan-dirty set missed a discardable packet"
        );
        false
    }

    /// Debug cross-check for [`Engine::discard_orphan`]: would a scan of
    /// every node have discarded something the dirty scan just declared
    /// absent?
    fn discard_scan_would_find(&self, m: &Machine) -> bool {
        (0..m.num_nodes())
            .map(NodeId::new)
            .any(|node| m.rx_head_at(node).is_some_and(|meta| self.orphaned(node, &meta)))
    }
}
