//! The simulator's event calendar.
//!
//! Ordering is keyed on `(time, sequence)` where the sequence number makes
//! ordering stable: two events scheduled for the same instant fire in the
//! order they were scheduled. This is what makes runs deterministic.
//!
//! The calendar keeps pending events in four stores, split by how far
//! ahead they fall and how large their payload is:
//!
//! - Two FIFO *lanes* hold the two frame events whose delay is nearly
//!   always the same: a clean link's `FrameArrived` after its propagation
//!   delay, and a data frame's `FrameSerialized` after the serialization
//!   delay of the data packet size. A lane takes its delay `d` from its
//!   first event; an event pushed onto it is due at `now + d`. The clock
//!   never runs backwards and every push takes a fresh, strictly larger
//!   sequence number, so each lane is already sorted by `(time, seq)` and
//!   costs O(1) per push and pop. A lane entry is 32 bytes of plain
//!   fields: the key, the channel, and the frame handle or the epoch.
//! - The *serialization heap* holds every other `FrameSerialized`:
//!   control frames, and data frames whose size differs from the lane's
//!   (go-back-N ACKs). They are due microseconds ahead, at most one per
//!   busy channel, and their key holds the channel and epoch inline.
//! - The *main heap* holds everything else: timers and CBR ticks, due
//!   seconds to minutes ahead, with their few fields inline in the key,
//!   and the rare large events (injected packets, impaired or off-lane
//!   arrivals, link events, impairment changes, restarts). Only those
//!   large events keep their `EventKind` in the calendar's slab, so heap
//!   sifts move small fixed-size keys and a steady-state run stops
//!   allocating once the calendar reaches its high-water mark.
//!
//! No event carries a frame. A `FrameArrived` or `InjectPacket` holds a
//! 12-byte `Frame` handle, and the data packet or control message it
//! names stays in the simulator's frame store (`link::Frames`: one slab
//! of packets, one of control payloads) from the moment it is sent, or
//! for a data packet scheduled or injected, until it is delivered or
//! lost. The rare `SetImpairment` and `NodeRestart` box their payloads.
//! So an `EventKind` is at most 24 bytes, and `const` assertions keep it
//! and the lane entries at their sizes. The calendar's slab, the two
//! frame slabs and the timer table are one `Slab` type with a free list.
//!
//! `EventQueue::schedule_reserved` picks the store from the event's kind;
//! `EventQueue::schedule_arrival` and `EventQueue::schedule_data_serialized`
//! try their lane first. Splitting keeps short-horizon frame events from
//! sifting past the long-horizon timers, but changes no event's
//! `(time, seq)` key: `EventQueue::next_due` scans the four heads once
//! and names the least key as a `Next`, and `EventQueue::pop` takes the
//! event from there. The total pop order is therefore exactly the order a
//! single heap would give.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::ident::{ChannelId, LinkId, NodeId};
use crate::impairment::Impairment;
use crate::link::Frame;
use crate::protocol::{RoutingProtocol, TimerId};
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// The total order of the calendar: an event's due time, then the
/// sequence number that breaks same-instant ties in schedule order.
pub(crate) type EventKey = (SimTime, u64);

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
    FrameSerialized { channel: ChannelId, epoch: u64 },
    /// A frame finished propagating and arrives at the channel's head node.
    FrameArrived { channel: ChannelId, frame: Frame },
    /// A protocol timer fired at `node`.
    TimerFired { node: NodeId, timer: TimerId },
    /// Both directions of `link` go down.
    LinkFail { link: LinkId },
    /// Both directions of `link` come back up.
    LinkRecover { link: LinkId },
    /// `node` locally detects that its attachment to `link` changed state.
    LinkStateDetected {
        node: NodeId,
        link: LinkId,
        up: bool,
    },
    /// A traffic source injects a data packet, already held as `frame`,
    /// at its attachment node.
    InjectPacket { frame: Frame },
    /// Tick `tick` of constant-bit-rate source `source` (an index into the
    /// simulator's source table) injects its packet. Only a source's next
    /// tick is ever pending; it runs under a sequence number reserved when
    /// the source was registered.
    CbrTick { source: usize, tick: u64 },
    /// The impairment of both channels of `link` changes to `impairment`
    /// (the onset or the end of a lossy period).
    /// Boxed, since impairment changes are rare and the impairment is
    /// the largest field of any event.
    SetImpairment {
        link: LinkId,
        impairment: Box<Impairment>,
    },
    /// `node` reboots with cold routing state: its FIB is wiped, its
    /// pending protocol timers die and `protocol` replaces the crashed
    /// instance.
    NodeRestart {
        node: NodeId,
        protocol: FreshProtocol,
    },
}

// Every event is moved into the calendar and out again, so it is kept
// small: frames are handles, and the rare large payloads are boxed.
const _: () = assert!(size_of::<EventKind>() <= 24);

/// What a main-heap key carries besides its order: the fields of a timer
/// or CBR tick inline, or the slab slot of a larger payload.
#[derive(Debug, Clone, Copy)]
enum HeapPayload {
    Timer(NodeId, TimerId),
    Cbr(usize, u64),
    Slab(u32),
}

/// A main-heap key: the event's order and its inline payload.
#[derive(Debug, Clone, Copy)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    payload: HeapPayload,
}

/// A serialization-heap key: a `FrameSerialized` event, whole.
#[derive(Debug, Clone, Copy)]
struct SerializedKey {
    time: SimTime,
    seq: u64,
    channel: ChannelId,
    epoch: u64,
}

/// Orders a heap key by `(time, seq)`, earliest first: `BinaryHeap` is a
/// max-heap, so the comparison is inverted.
macro_rules! earliest_first {
    ($key:ty) => {
        impl PartialEq for $key {
            fn eq(&self, other: &Self) -> bool {
                self.time == other.time && self.seq == other.seq
            }
        }

        impl Eq for $key {}

        impl PartialOrd for $key {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $key {
            fn cmp(&self, other: &Self) -> Ordering {
                (other.time, other.seq).cmp(&(self.time, self.seq))
            }
        }
    };
}

earliest_first!(HeapKey);
earliest_first!(SerializedKey);

/// Main-heap entries pre-allocated on construction. Real runs outgrow
/// this: the fig3–7 runs on the 7×7 mesh peak between a few hundred and
/// about 3k pending events (RIP at degree 3 peaks highest), nearly all of
/// them timers, and a 15×15 degree-8 run reaches about 53k. Past this
/// size the main heap grows by doubling and keeps its capacity for the
/// rest of the run. The serialization heap holds at most one event per
/// busy channel and the slab only the rare large events, so both start
/// empty and stay small.
const INITIAL_CAPACITY: usize = 1024;

/// A pending lane event: its key, its channel and the one other field
/// of its kind (a `Frame` or an epoch). Its fields are plain values, not
/// an `EventKind`, so a push writes them straight into the lane.
#[derive(Debug, Clone, Copy)]
struct LaneEvent<P> {
    time: SimTime,
    seq: u64,
    channel: ChannelId,
    payload: P,
}

const _: () = assert!(size_of::<LaneEvent<Frame>>() <= 32 && size_of::<LaneEvent<u64>>() <= 32);

/// The events of one lane, in `(time, seq)` order by construction.
#[derive(Debug)]
struct FifoLane<P> {
    /// The delay every event in the lane was scheduled with; set by the
    /// lane's first event.
    delay: Option<SimDuration>,
    events: VecDeque<LaneEvent<P>>,
}

impl<P> Default for FifoLane<P> {
    fn default() -> Self {
        FifoLane {
            delay: None,
            events: VecDeque::new(),
        }
    }
}

impl<P> FifoLane<P> {
    /// Pushes `event`, scheduled `delay` after now, if `delay` is the
    /// lane's delay (the lane's first event sets it), and tells whether
    /// it did.
    #[inline]
    fn push(&mut self, delay: SimDuration, event: LaneEvent<P>) -> bool {
        if *self.delay.get_or_insert(delay) != delay {
            return false;
        }
        self.events.push_back(event);
        true
    }

    /// The key of the lane's next event.
    fn head(&self) -> Option<EventKey> {
        self.events.front().map(|e| (e.time, e.seq))
    }
}

/// Where the next event waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Heap,
    Serialized,
    Arrivals,
    DataSerializations,
}

/// The next event of a queue as found by [`EventQueue::next_due`]: its
/// key and where it waits. It names the next event only until the queue
/// next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Next {
    time: SimTime,
    seq: u64,
    source: Source,
}

/// A deterministic future-event list.
#[derive(Debug)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<HeapKey>,
    /// `FrameSerialized` events that ride no lane.
    serialized: BinaryHeap<SerializedKey>,
    /// `FrameArrived` events of clean links: the propagation delay.
    arrivals: FifoLane<Frame>,
    /// `FrameSerialized` events of data frames, with their epoch: the
    /// serialization delay of the data packet size.
    data_serializations: FifoLane<u64>,
    /// Payloads of `HeapPayload::Slab` heap events; a popped event frees
    /// its slot.
    slab: Slab<EventKind>,
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
            serialized: BinaryHeap::new(),
            arrivals: FifoLane::default(),
            data_serializations: FifoLane::default(),
            slab: Slab::default(),
            next_seq: 0,
            now: SimTime::ZERO,
            high_water: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `kind` at absolute time `at`, which must not be in the
    /// past (see [`schedule_reserved`](Self::schedule_reserved)).
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
    /// at most once. The event's kind picks its store (see the module
    /// docs).
    ///
    /// `at` must not be before now. Callers guarantee it: the engine
    /// schedules at now plus a delay, at a timer's or CBR tick's due time
    /// (never earlier than the pop that moves it), and the simulator's
    /// public scheduling calls reject a past time with
    /// `BuildError::InThePast` before they get here. Debug builds check it.
    pub(crate) fn schedule_reserved(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        debug_assert!(
            at >= self.now,
            "attempt to schedule an event at {at} before now {}",
            self.now
        );
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        if let EventKind::FrameSerialized { channel, epoch } = kind {
            self.serialized.push(SerializedKey {
                time: at,
                seq,
                channel,
                epoch,
            });
        } else {
            let payload = match kind {
                EventKind::TimerFired { node, timer } => HeapPayload::Timer(node, timer),
                EventKind::CbrTick { source, tick } => HeapPayload::Cbr(source, tick),
                kind => HeapPayload::Slab(self.slab.insert(kind)),
            };
            self.heap.push(HeapKey {
                time: at,
                seq,
                payload,
            });
        }
        self.note_len();
    }

    /// Schedules the arrival of `frame` over `channel` `delay` from now:
    /// on the arrival lane when `delay` is the lane's delay, otherwise in
    /// the main heap. Either way the event takes the next sequence number
    /// and pops exactly where [`schedule`](Self::schedule) would put it.
    #[inline]
    pub(crate) fn schedule_arrival(
        &mut self,
        delay: SimDuration,
        channel: ChannelId,
        frame: Frame,
    ) {
        let (time, seq) = (self.now + delay, self.reserve(1));
        let event = LaneEvent {
            time,
            seq,
            channel,
            payload: frame,
        };
        if self.arrivals.push(delay, event) {
            self.note_len();
        } else {
            self.schedule_reserved(time, seq, EventKind::FrameArrived { channel, frame });
        }
    }

    /// Schedules the end of a data frame's serialization on `channel`
    /// (transmission `epoch`) `delay` from now: on the data serialization
    /// lane when `delay` is the lane's delay, otherwise in the
    /// serialization heap. It pops where [`schedule`](Self::schedule)
    /// would put it.
    #[inline]
    pub(crate) fn schedule_data_serialized(
        &mut self,
        delay: SimDuration,
        channel: ChannelId,
        epoch: u64,
    ) {
        let (time, seq) = (self.now + delay, self.reserve(1));
        let event = LaneEvent {
            time,
            seq,
            channel,
            payload: epoch,
        };
        if self.data_serializations.push(delay, event) {
            self.note_len();
        } else {
            self.schedule_reserved(time, seq, EventKind::FrameSerialized { channel, epoch });
        }
    }

    fn note_len(&mut self) {
        self.high_water = self.high_water.max(self.len() as u64);
    }

    /// Finds the next event, or `None` when the queue is empty or the next
    /// event is due after `until` (`None` bounds nothing). One scan of the
    /// two heap tops and the lane heads; [`pop`](Self::pop) then takes the
    /// event without looking again.
    #[inline]
    pub(crate) fn next_due(&self, until: Option<SimTime>) -> Option<Next> {
        let mut next = self.heap.peek().map(|k| Next {
            time: k.time,
            seq: k.seq,
            source: Source::Heap,
        });
        if let Some(head) = self.serialized.peek() {
            if next.is_none_or(|n| (head.time, head.seq) < (n.time, n.seq)) {
                next = Some(Next {
                    time: head.time,
                    seq: head.seq,
                    source: Source::Serialized,
                });
            }
        }
        let lanes = [
            (self.arrivals.head(), Source::Arrivals),
            (self.data_serializations.head(), Source::DataSerializations),
        ];
        for (head, source) in lanes {
            if let Some((time, seq)) = head {
                if next.is_none_or(|n| (time, seq) < (n.time, n.seq)) {
                    next = Some(Next { time, seq, source });
                }
            }
        }
        next.filter(|n| until.is_none_or(|until| n.time <= until))
    }

    /// Pops the event `next` names, advancing the clock to its timestamp.
    /// Returns the event's sequence number too, so a handler can tell
    /// which of several events standing for the same thing it was handed.
    /// `next` must come from [`next_due`](Self::next_due) with no change
    /// to the queue since; `None` means it named no pending event.
    #[inline]
    pub(crate) fn pop(&mut self, next: Next) -> Option<(SimTime, u64, EventKind)> {
        let (time, seq, kind) = match next.source {
            Source::Arrivals => {
                let e = self.arrivals.events.pop_front()?;
                let kind = EventKind::FrameArrived {
                    channel: e.channel,
                    frame: e.payload,
                };
                (e.time, e.seq, kind)
            }
            Source::DataSerializations => {
                let e = self.data_serializations.events.pop_front()?;
                let kind = EventKind::FrameSerialized {
                    channel: e.channel,
                    epoch: e.payload,
                };
                (e.time, e.seq, kind)
            }
            Source::Serialized => {
                let key = self.serialized.pop()?;
                let kind = EventKind::FrameSerialized {
                    channel: key.channel,
                    epoch: key.epoch,
                };
                (key.time, key.seq, kind)
            }
            Source::Heap => {
                let key = self.heap.pop()?;
                let kind = match key.payload {
                    HeapPayload::Timer(node, timer) => EventKind::TimerFired { node, timer },
                    HeapPayload::Cbr(source, tick) => EventKind::CbrTick { source, tick },
                    HeapPayload::Slab(slot) => self.slab.remove(slot)?,
                };
                (key.time, key.seq, kind)
            }
        };
        debug_assert_eq!((time, seq), (next.time, next.seq), "stale calendar handle");
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        Some((time, seq, kind))
    }

    /// Number of pending events, all four stores together.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
            + self.serialized.len()
            + self.arrivals.events.len()
            + self.data_serializations.events.len()
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
            debug_assert!(self.next_due(None).is_none_or(|next| next.time >= t));
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::PacketId;
    use crate::link::Frames;
    use crate::packet::Packet;
    use std::collections::BTreeMap;

    fn marker(ch: u32) -> EventKind {
        EventKind::FrameSerialized {
            channel: ChannelId::new(ch),
            epoch: 0,
        }
    }

    /// Pops the next event, however far off.
    fn pop_any(q: &mut EventQueue) -> Option<(SimTime, u64, EventKind)> {
        q.next_due(None).and_then(|next| q.pop(next))
    }

    fn channel_of(kind: &EventKind) -> u32 {
        match kind {
            EventKind::FrameSerialized { channel, .. }
            | EventKind::FrameArrived { channel, .. } => channel.index() as u32,
            _ => panic!("unexpected event"),
        }
    }

    /// A data frame of `bytes` bytes.
    fn frame(bytes: u32) -> Frame {
        let packet = Packet::new(
            PacketId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            bytes,
        );
        Frames::default().data(packet)
    }

    /// The calendar relies on its callers never to schedule in the past
    /// (see `schedule_reserved`); debug builds check that they do not.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_is_caught_in_debug_builds() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), marker(0));
        let _ = pop_any(&mut q);
        q.schedule(SimTime::from_secs(1), marker(1));
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), marker(3));
        q.schedule(SimTime::from_secs(1), marker(1));
        q.schedule(SimTime::from_secs(2), marker(2));
        let order: Vec<u32> = std::iter::from_fn(|| pop_any(&mut q))
            .map(|(_, _, k)| channel_of(&k))
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
        let order: Vec<u32> = std::iter::from_fn(|| pop_any(&mut q))
            .map(|(_, _, k)| channel_of(&k))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), marker(0));
        assert_eq!(q.now(), SimTime::ZERO);
        pop_any(&mut q);
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), marker(0));
        pop_any(&mut q);
        q.schedule(SimTime::from_secs(1), marker(1));
    }

    /// A kind that keeps its payload in the slab.
    fn slab_kind(link: u32) -> EventKind {
        EventKind::LinkFail {
            link: LinkId::new(link),
        }
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        // Interleave schedule/pop so the in-flight count stays at one; the
        // slab must not grow beyond that high-water mark.
        for i in 0..100 {
            q.schedule(SimTime::from_secs(i + 1), slab_kind(i as u32));
            let (_, _, kind) = pop_any(&mut q).unwrap();
            assert!(matches!(kind, EventKind::LinkFail { link } if link.index() == i as usize));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab.slots(), 1, "one slot recycled a hundred times");
    }

    /// Frame serializations, timers and CBR ticks carry their fields in
    /// their heap key and pop intact without a slab slot.
    #[test]
    fn inline_kinds_never_take_a_slab_slot() {
        let mut q = EventQueue::new();
        let base = q.reserve(2);
        q.schedule_reserved(
            SimTime::from_secs(3),
            base,
            EventKind::TimerFired {
                node: NodeId::new(7),
                timer: TimerId(41),
            },
        );
        q.schedule_reserved(
            SimTime::from_secs(2),
            base + 1,
            EventKind::CbrTick { source: 5, tick: 9 },
        );
        q.schedule(
            SimTime::from_secs(1),
            EventKind::FrameSerialized {
                channel: ChannelId::new(3),
                epoch: 8,
            },
        );
        assert_eq!(q.slab.slots(), 0, "inline kinds take no slot");
        let popped: Vec<_> = std::iter::from_fn(|| pop_any(&mut q))
            .map(|(_, _, kind)| describe(&kind))
            .collect();
        assert_eq!(popped, [(SERIALIZED, 3, 8), (CBR, 5, 9), (TIMER, 7, 41)]);
        assert_eq!(q.slab.slots(), 0);
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
        let eager_order: Vec<(SimTime, u32)> = std::iter::from_fn(|| pop_any(&mut eager))
            .map(|(t, _, k)| (t, channel_of(&k)))
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
        while let Some((t, _, kind)) = pop_any(&mut lazy) {
            let id = channel_of(&kind);
            if id < TICKS {
                assert!(
                    lazy.len() <= before.len() + after.len(),
                    "one tick pending at most"
                );
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

    /// One step of [`calendar_pops_like_a_sorted_model`].
    type Op = (u8, u64, usize);

    /// An event as the tests compare it: its kind and two fields.
    type Described = (u8, u64, u64);

    const SERIALIZED: u8 = 0;
    const TIMER: u8 = 1;
    const CBR: u8 = 2;
    const SLAB: u8 = 3;
    const ARRIVED: u8 = 4;

    fn describe(kind: &EventKind) -> Described {
        match *kind {
            EventKind::FrameSerialized { channel, epoch } => {
                (SERIALIZED, channel.index() as u64, epoch)
            }
            EventKind::TimerFired { node, timer } => (TIMER, node.index() as u64, timer.0),
            EventKind::CbrTick { source, tick } => (CBR, source as u64, tick),
            EventKind::LinkFail { link } => (SLAB, link.index() as u64, 0),
            EventKind::FrameArrived { channel, frame } => {
                (ARRIVED, channel.index() as u64, frame.size_bytes() as u64)
            }
            ref other => panic!("unexpected event {other:?}"),
        }
    }

    /// An event of one of the four routed kinds (`SERIALIZED` .. `SLAB`),
    /// its fields derived from `id`.
    fn routed_kind(kind: u8, id: u32) -> EventKind {
        match kind {
            SERIALIZED => EventKind::FrameSerialized {
                channel: ChannelId::new(id),
                epoch: u64::from(id) * 3,
            },
            TIMER => EventKind::TimerFired {
                node: NodeId::new(id),
                timer: TimerId(u64::from(id) * 5),
            },
            CBR => EventKind::CbrTick {
                source: id as usize,
                tick: u64::from(id) * 7,
            },
            _ => slab_kind(id),
        }
    }

    /// Lane delays in µs: two equal entries so most pushes match the
    /// lane's delay, and others that do not (they must go to a heap).
    const ARRIVAL_US: [u64; 4] = [1_000, 1_000, 0, 800];
    const SERIALIZATION_US: [u64; 4] = [800, 800, 1_000, 2_000];

    /// The calendar's specification: every pending event in one sorted
    /// map, keyed by `(time, seq)`, with sequence numbers handed out the
    /// way [`EventQueue::reserve`] hands them out.
    #[derive(Default)]
    struct SortedModel {
        pending: BTreeMap<EventKey, Described>,
        next_seq: u64,
        high_water: usize,
    }

    impl SortedModel {
        fn reserve(&mut self, n: u64) -> u64 {
            let first = self.next_seq;
            self.next_seq += n;
            first
        }

        fn schedule(&mut self, at: SimTime, kind: &EventKind) {
            let seq = self.reserve(1);
            self.insert((at, seq), kind);
        }

        fn insert(&mut self, key: EventKey, kind: &EventKind) {
            self.pending.insert(key, describe(kind));
            self.high_water = self.high_water.max(self.pending.len());
        }

        fn next_key(&self) -> Option<EventKey> {
            self.pending.keys().next().copied()
        }
    }

    /// Runs `ops` against an [`EventQueue`] and a [`SortedModel`],
    /// comparing every pop, the length after every step and the high
    /// water at the end. Returns the number of pops.
    fn run_against_model(ops: &[Op]) -> Result<usize, String> {
        let mut queue = EventQueue::new();
        let mut model = SortedModel::default();
        let mut reserved = Vec::new();
        let mut popped = 0;
        let mut next_id = 0;
        let mut id = || {
            next_id += 1;
            next_id
        };
        // Pops from both, `queue` through a pop bounded by `until`: it must
        // pop exactly when the model's next event is due by `until`, and
        // then the same event.
        let mut check_pop = |queue: &mut EventQueue,
                             model: &mut SortedModel,
                             until: Option<SimTime>| {
            let reference = model.next_key();
            let due = reference.filter(|&(time, _)| until.is_none_or(|until| time <= until));
            let Some(next) = queue.next_due(until) else {
                return match due {
                    None => Ok(false),
                    Some(_) => Err(format!("nothing due by {until:?}, model has {reference:?}")),
                };
            };
            let Some(key) = due else {
                return Err(format!(
                    "{next:?} due by {until:?}, model has {reference:?}"
                ));
            };
            let got = queue.pop(next).map(|(t, seq, k)| (t, seq, describe(&k)));
            let want = model.pending.remove(&key).map(|d| (key.0, key.1, d));
            if got.is_none() || got != want {
                return Err(format!("pop {got:?} vs model {want:?}"));
            }
            popped += 1;
            Ok(true)
        };
        for &(op, arg, pick) in ops {
            let now = queue.now();
            let kind = (pick % 4) as u8;
            match op {
                0 => {
                    let (at, event) = (
                        now + SimDuration::from_micros(arg * 100),
                        routed_kind(kind, id()),
                    );
                    model.schedule(at, &event);
                    queue.schedule(at, event);
                }
                1 => {
                    // Off its lane, an arrival goes to the main heap and
                    // keeps its event in the slab.
                    let delay = SimDuration::from_micros(ARRIVAL_US[pick % ARRIVAL_US.len()]);
                    let id = id();
                    let (channel, frame) = (ChannelId::new(id), frame(id * 7));
                    model.schedule(now + delay, &EventKind::FrameArrived { channel, frame });
                    queue.schedule_arrival(delay, channel, frame);
                }
                2 => {
                    // Off its lane, a data serialization goes to the
                    // serialization heap.
                    let delay =
                        SimDuration::from_micros(SERIALIZATION_US[pick % SERIALIZATION_US.len()]);
                    let id = id();
                    let (channel, epoch) = (ChannelId::new(id), u64::from(id) * 3);
                    model.schedule(now + delay, &EventKind::FrameSerialized { channel, epoch });
                    queue.schedule_data_serialized(delay, channel, epoch);
                }
                3 => {
                    let n = arg % 3 + 1;
                    let first = queue.reserve(n);
                    if model.reserve(n) != first {
                        return Err("reserved numbers differ".into());
                    }
                    reserved.extend(first..first + n);
                }
                4 if !reserved.is_empty() => {
                    let seq = reserved.swap_remove(pick % reserved.len());
                    let (at, event) = (
                        now + SimDuration::from_micros(arg * 100),
                        routed_kind(kind, id()),
                    );
                    model.insert((at, seq), &event);
                    queue.schedule_reserved(at, seq, event);
                }
                5 => {
                    let until = now + SimDuration::from_micros(arg * 100);
                    check_pop(&mut queue, &mut model, Some(until))?;
                }
                _ => {
                    check_pop(&mut queue, &mut model, None)?;
                }
            }
            if queue.len() != model.pending.len() {
                return Err(format!(
                    "len {} vs model {}",
                    queue.len(),
                    model.pending.len()
                ));
            }
        }
        while check_pop(&mut queue, &mut model, None)? {}
        if queue.high_water() != model.high_water as u64 {
            return Err(format!(
                "high water {} vs model {}",
                queue.high_water(),
                model.high_water
            ));
        }
        Ok(popped)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Splitting the calendar into lanes and heaps never changes the
        /// pop order: any interleaving of eager and reserved schedules of
        /// every routed kind, lane pushes (with matching and mismatched
        /// delays) and pops bounded by a time pops the same
        /// `(time, seq, event)` sequence as one sorted map, and a bounded
        /// pop finds nothing exactly when the model's next event is after
        /// the bound.
        #[test]
        fn calendar_pops_like_a_sorted_model(
            ops in proptest::prop::collection::vec((0u8..8, 0u64..30, 0usize..8), 1..160),
        ) {
            let outcome = run_against_model(&ops);
            proptest::prop_assert!(outcome.is_ok(), "{:?} for {:?}", outcome, ops);
        }
    }

    #[test]
    fn lane_events_tie_with_heap_events_in_schedule_order() {
        let mut q = EventQueue::new();
        let d = SimDuration::from_millis(1);
        q.schedule(SimTime::from_millis(1), marker(0));
        q.schedule_arrival(d, ChannelId::new(1), frame(1000));
        q.schedule(SimTime::from_millis(1), marker(2));
        q.schedule_data_serialized(d, ChannelId::new(3), 0);
        // A different delay than the lane's first one goes to the heap.
        q.schedule_arrival(SimDuration::ZERO, ChannelId::new(4), frame(1000));
        assert_eq!(q.arrivals.events.len(), 1);
        assert_eq!(q.len(), 5);
        let order: Vec<u32> = std::iter::from_fn(|| pop_any(&mut q))
            .map(|(_, _, k)| channel_of(&k))
            .collect();
        assert_eq!(order, [4, 0, 1, 2, 3]);
        assert_eq!(q.high_water(), 5);
    }

    #[test]
    fn next_due_is_bounded_inclusively() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(700);
        q.schedule(t, marker(0));
        let just_before = SimTime::from_nanos(t.as_nanos() - 1);
        assert_eq!(q.next_due(Some(just_before)), None);
        let next = q.next_due(Some(t)).expect("an event due at the bound");
        assert_eq!(q.len(), 1);
        let (at, _, _) = q.pop(next).unwrap();
        assert_eq!(at, t);
        assert_eq!(q.next_due(None), None);
    }

    #[test]
    fn lane_pops_leave_the_slab_alone() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_arrival(SimDuration::from_millis(1), ChannelId::new(i), frame(1000));
        }
        assert_eq!(q.slab.slots(), 0, "lane events are stored inline");
        let order: Vec<u32> = std::iter::from_fn(|| pop_any(&mut q))
            .map(|(_, _, k)| channel_of(&k))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert_eq!(q.slab.slots(), 0);
    }
}
