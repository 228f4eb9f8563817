//! The simulator's event calendar.
//!
//! Ordering is keyed on `(time, sequence)` where the sequence number makes
//! ordering stable: two events scheduled for the same instant fire in the
//! order they were scheduled. This is what makes runs deterministic.
//!
//! Internally the queue is an *indexed* binary heap: the heap itself holds
//! only small fixed-size keys (`time`, `seq`, slab slot), while the
//! [`EventKind`] payloads — which carry whole frames, packets and even
//! boxed protocol instances — sit still in a slab with a free list. Heap
//! sift operations therefore move 24-byte keys instead of the large event
//! enum, and popped slots are recycled so a steady-state run stops
//! allocating once the calendar reaches its high-water mark.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::ident::{LinkId, NodeId};
use crate::impairment::Impairment;
use crate::link::Frame;
use crate::packet::Packet;
use crate::protocol::{RoutingProtocol, TimerId};
use crate::time::SimTime;

/// A fresh protocol instance carried by a [`EventKind::NodeRestart`] event.
///
/// Wrapped so the event enum stays `Debug` even though
/// [`RoutingProtocol`] implementations need not be.
pub(crate) struct FreshProtocol(pub(crate) Box<dyn RoutingProtocol>);

impl std::fmt::Debug for FreshProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FreshProtocol({})", self.0.name())
    }
}

/// An event to be processed by the simulation engine.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// The transmitter of `channel` finished serializing its current frame.
    /// `epoch` guards against stale events after a link failure cleared the
    /// transmitter.
    FrameSerialized {
        channel: crate::ident::ChannelId,
        epoch: u64,
    },
    /// A frame finished propagating and arrives at the channel's head node.
    FrameArrived {
        channel: crate::ident::ChannelId,
        frame: Frame,
    },
    /// A protocol timer fired at `node`.
    TimerFired { node: NodeId, timer: TimerId },
    /// Both directions of `link` go down.
    LinkFail { link: LinkId },
    /// Both directions of `link` come back up.
    LinkRecover { link: LinkId },
    /// `node` locally detects that its attachment to `link` changed state.
    LinkStateDetected { node: NodeId, link: LinkId, up: bool },
    /// A traffic source injects a data packet at its attachment node.
    InjectPacket { packet: Packet },
    /// Tick `tick` of constant-bit-rate source `source` (an index into the
    /// simulator's source table) injects its packet. Only a source's next
    /// tick is ever pending; it runs under a sequence number reserved when
    /// the source was registered.
    CbrTick { source: usize, tick: u64 },
    /// The impairment of both channels of `link` changes to `impairment`
    /// (the onset or the end of a lossy period).
    SetImpairment { link: LinkId, impairment: Impairment },
    /// `node` reboots with cold routing state: its FIB is wiped, its
    /// pending protocol timers die and `protocol` replaces the crashed
    /// instance.
    NodeRestart { node: NodeId, protocol: FreshProtocol },
}

/// The fixed-size heap key: everything ordering needs, nothing more.
#[derive(Debug, Clone, Copy)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, breaking ties by schedule order.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Slots pre-allocated on construction. Real runs outgrow this: the fig3–7
/// runs on the 7×7 mesh peak between a few hundred and about 18k pending
/// events (median about 2.6k in the committed telemetry; RIP at degree 3
/// reaches 16515 in slot 0), and a 15×15 degree-8 run reaches about 375k.
/// Past this size the heap, slab and free list grow by doubling and keep
/// their capacity for the rest of the run.
const INITIAL_CAPACITY: usize = 1024;

/// A deterministic future-event list.
#[derive(Debug)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<HeapKey>,
    /// Payload slab indexed by `HeapKey::slot`; `None` marks a free slot.
    slab: Vec<Option<EventKind>>,
    /// Recyclable slab slots (popped events release theirs).
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    /// Peak number of simultaneously pending events.
    high_water: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(INITIAL_CAPACITY),
            slab: Vec::with_capacity(INITIAL_CAPACITY),
            free: Vec::with_capacity(INITIAL_CAPACITY),
            next_seq: 0,
            now: SimTime::ZERO,
            high_water: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `kind` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.reserve(1);
        self.schedule_reserved(at, seq, kind);
    }

    /// Reserves `n` consecutive sequence numbers and returns the first.
    ///
    /// An event later scheduled under a reserved number with
    /// [`schedule_reserved`](Self::schedule_reserved) ties with other
    /// same-instant events exactly as if it had been scheduled now: after
    /// everything scheduled before the reservation, before everything
    /// scheduled after it.
    pub(crate) fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `kind` at absolute time `at` under `seq`, a number taken
    /// from [`reserve`](Self::reserve). Each reserved number must be used
    /// at most once.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub(crate) fn schedule_reserved(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        assert!(
            at >= self.now,
            "attempt to schedule an event at {at} before now {}",
            self.now
        );
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event slab overflow");
                self.slab.push(Some(kind));
                slot
            }
        };
        self.heap.push(HeapKey {
            time: at,
            seq,
            slot,
        });
        self.high_water = self.high_water.max(self.heap.len() as u64);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let key = self.heap.pop()?;
        debug_assert!(key.time >= self.now, "event queue went backwards");
        self.now = key.time;
        let kind = self.slab[key.slot as usize]
            .take()
            .expect("heap key points at an occupied slab slot");
        self.free.push(key.slot);
        Some((key.time, kind))
    }

    /// Timestamp of the next event without popping it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Peak number of simultaneously pending events over the queue's life.
    pub(crate) fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Advances the clock to `t` without processing anything (the end of a
    /// bounded `run_until` window), so external interactions after the run
    /// happen at the window boundary rather than at the last event.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            debug_assert!(self.peek_time().is_none_or(|next| next >= t));
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::ChannelId;

    fn marker(ch: u32) -> EventKind {
        EventKind::FrameSerialized {
            channel: ChannelId::new(ch),
            epoch: 0,
        }
    }

    fn channel_of(kind: &EventKind) -> u32 {
        match kind {
            EventKind::FrameSerialized { channel, .. } => channel.index() as u32,
            _ => panic!("unexpected event"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), marker(3));
        q.schedule(SimTime::from_secs(1), marker(1));
        q.schedule(SimTime::from_secs(2), marker(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| channel_of(&k))
            .collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule(t, marker(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| channel_of(&k))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), marker(0));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), marker(0));
        q.pop();
        q.schedule(SimTime::from_secs(1), marker(1));
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        // Interleave schedule/pop so the in-flight count stays at one; the
        // slab must not grow beyond that high-water mark.
        for i in 0..100 {
            q.schedule(SimTime::from_secs(i + 1), marker(i as u32));
            let (_, kind) = q.pop().unwrap();
            assert_eq!(channel_of(&kind), i as u32);
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab.len(), 1, "one slot recycled a hundred times");
    }

    /// A lazily fed block of reserved sequence numbers pops in exactly the
    /// order eager scheduling gives: a periodic "source" of five ticks is
    /// registered between same-instant events scheduled before and after
    /// it, and only its next tick is ever pending.
    #[test]
    fn reserved_sequences_pop_like_eager_scheduling() {
        const TICKS: u32 = 5;
        let tick_at = |k: u32| SimTime::from_millis(100 * u64::from(k));
        // Markers 100+ and 200+ tie with ticks 0, 2 and 4 at 0, 200 and
        // 400 ms; 100+ are scheduled before the source, 200+ after.
        let before = [(0, 100), (200, 101), (400, 102), (150, 103)];
        let after = [(0, 200), (200, 201), (400, 202), (250, 203)];

        let mut eager = EventQueue::new();
        for &(ms, id) in &before {
            eager.schedule(SimTime::from_millis(ms), marker(id));
        }
        for k in 0..TICKS {
            eager.schedule(tick_at(k), marker(k));
        }
        for &(ms, id) in &after {
            eager.schedule(SimTime::from_millis(ms), marker(id));
        }
        let eager_order: Vec<(SimTime, u32)> = std::iter::from_fn(|| eager.pop())
            .map(|(t, k)| (t, channel_of(&k)))
            .collect();

        let mut lazy = EventQueue::new();
        for &(ms, id) in &before {
            lazy.schedule(SimTime::from_millis(ms), marker(id));
        }
        let base = lazy.reserve(u64::from(TICKS));
        lazy.schedule_reserved(tick_at(0), base, marker(0));
        for &(ms, id) in &after {
            lazy.schedule(SimTime::from_millis(ms), marker(id));
        }
        let mut lazy_order = Vec::new();
        while let Some((t, kind)) = lazy.pop() {
            let id = channel_of(&kind);
            if id < TICKS {
                assert!(lazy.len() <= before.len() + after.len(), "one tick pending at most");
                let next = id + 1;
                if next < TICKS {
                    lazy.schedule_reserved(tick_at(next), base + u64::from(next), marker(next));
                }
            }
            lazy_order.push((t, id));
        }
        assert_eq!(lazy_order, eager_order);
        assert!(lazy.high_water() < eager.high_water());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(700), marker(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(700)));
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(700));
        assert!(q.pop().is_none());
    }
}
