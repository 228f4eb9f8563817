//! Run traces.
//!
//! The simulator records everything the paper's post-hoc analysis needs:
//! per-packet lifecycles (including every forwarding hop, for loop
//! forensics), every FIB change (for convergence timing), control-plane
//! message counts (for routing load) and link events. Metrics are computed
//! from the trace by the `convergence` crate, never online, so a single run
//! can answer every question the paper asks.
//!
//! A [`Trace`] keeps its records in a compact byte encoding instead of a
//! `Vec<TraceEvent>`: a kind byte, the time since the previous record
//! and the fields, each as a LEB128 varint. A typical record takes 6–12
//! bytes where a `TraceEvent` takes 40. The bytes go into fixed-size
//! chunks that are never reallocated, so a trace holds about as much
//! memory as its records need: no buffer doubles past its content or is
//! copied to grow, and a run's peak memory follows its trace length
//! smoothly. A record is encoded in place at the end of the last chunk:
//! [`Trace`] starts a new chunk whenever the last one has less room than
//! the longest record, so no write reallocates a chunk and no record
//! straddles two.
//!
//! Readers get the records back by value, in order, from
//! [`Trace::iter`]; the encoding is exact, so a decoded record equals
//! the one recorded. Readers that need only part of a trace skip the
//! rest undecoded, using the number of varints in each kind of record:
//! [`Trace::census`] reads only kinds and times, and [`Trace::deliveries`]
//! decodes the time and injection time of each delivery — all the
//! fig5/fig7 series read — and only the kind and time of other records.

use std::fmt;
use std::iter::FusedIterator;

use serde::{Deserialize, Serialize};

use crate::ident::{LinkId, NodeId, PacketId};
use crate::packet::DropReason;
use crate::time::SimTime;

/// One record in a simulation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A traffic source handed a packet to its first router.
    PacketInjected {
        /// Event time.
        time: SimTime,
        /// Packet identifier.
        id: PacketId,
        /// Source router.
        src: NodeId,
        /// Destination router.
        dst: NodeId,
    },
    /// `node` forwarded the packet toward `next_hop`.
    PacketForwarded {
        /// Event time.
        time: SimTime,
        /// Packet identifier.
        id: PacketId,
        /// Forwarding router.
        node: NodeId,
        /// Chosen next hop.
        next_hop: NodeId,
    },
    /// The packet reached its destination.
    PacketDelivered {
        /// Event time.
        time: SimTime,
        /// Packet identifier.
        id: PacketId,
        /// Delivering router (== destination).
        node: NodeId,
        /// Hops traversed.
        hops: u32,
        /// Injection time, for delay computation.
        sent_at: SimTime,
    },
    /// The packet was discarded.
    PacketDropped {
        /// Event time.
        time: SimTime,
        /// Packet identifier.
        id: PacketId,
        /// Router at which the drop occurred.
        node: NodeId,
        /// Why it was dropped.
        reason: DropReason,
        /// Injection time.
        sent_at: SimTime,
    },
    /// A FIB entry changed (including initial installation, `old == None`).
    RouteChanged {
        /// Event time.
        time: SimTime,
        /// Router whose FIB changed.
        node: NodeId,
        /// Destination whose entry changed.
        dest: NodeId,
        /// Previous next hop.
        old: Option<NodeId>,
        /// New next hop (`None` = destination became unreachable).
        new: Option<NodeId>,
    },
    /// A control message was handed to the output link.
    ControlSent {
        /// Event time.
        time: SimTime,
        /// Sending router.
        from: NodeId,
        /// Receiving router.
        to: NodeId,
        /// Wire size in bytes.
        bytes: u32,
    },
    /// A link physically failed.
    LinkFailed {
        /// Event time.
        time: SimTime,
        /// The failed link.
        link: LinkId,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A link physically recovered.
    LinkRecovered {
        /// Event time.
        time: SimTime,
        /// The recovered link.
        link: LinkId,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// `node` detected the state change of its link to `neighbor`.
    LinkStateDetected {
        /// Event time.
        time: SimTime,
        /// Detecting router.
        node: NodeId,
        /// Neighbor across the affected link.
        neighbor: NodeId,
        /// New perceived state.
        up: bool,
    },
    /// The impairment applied to a link changed (e.g. a lossy period
    /// started or ended).
    ImpairmentChanged {
        /// Event time.
        time: SimTime,
        /// The affected link.
        link: LinkId,
        /// The new loss probability in parts per million.
        loss_ppm: u32,
    },
    /// A router rebooted with cold routing state.
    NodeRestarted {
        /// Event time.
        time: SimTime,
        /// The rebooted router.
        node: NodeId,
    },
}

impl TraceEvent {
    /// Renders the record as one stable text line for golden-trace
    /// fixtures: kind, raw nanosecond timestamp, then the fields in
    /// declaration order. The format is part of the fixture contract —
    /// changing it invalidates recorded goldens.
    #[must_use]
    pub fn render_line(&self) -> String {
        fn opt(node: &Option<NodeId>) -> String {
            node.map_or_else(|| "-".to_string(), |n| n.to_string())
        }
        match self {
            TraceEvent::PacketInjected { time, id, src, dst } => {
                format!("inject t={} id={id} src={src} dst={dst}", time.as_nanos())
            }
            TraceEvent::PacketForwarded {
                time,
                id,
                node,
                next_hop,
            } => format!(
                "forward t={} id={id} node={node} next={next_hop}",
                time.as_nanos()
            ),
            TraceEvent::PacketDelivered {
                time,
                id,
                node,
                hops,
                sent_at,
            } => format!(
                "deliver t={} id={id} node={node} hops={hops} sent={}",
                time.as_nanos(),
                sent_at.as_nanos()
            ),
            TraceEvent::PacketDropped {
                time,
                id,
                node,
                reason,
                sent_at,
            } => format!(
                "drop t={} id={id} node={node} reason={reason:?} sent={}",
                time.as_nanos(),
                sent_at.as_nanos()
            ),
            TraceEvent::RouteChanged {
                time,
                node,
                dest,
                old,
                new,
            } => format!(
                "route t={} node={node} dest={dest} old={} new={}",
                time.as_nanos(),
                opt(old),
                opt(new)
            ),
            TraceEvent::ControlSent {
                time,
                from,
                to,
                bytes,
            } => format!(
                "control t={} from={from} to={to} bytes={bytes}",
                time.as_nanos()
            ),
            TraceEvent::LinkFailed { time, link, a, b } => {
                format!("linkfail t={} link={link} a={a} b={b}", time.as_nanos())
            }
            TraceEvent::LinkRecovered { time, link, a, b } => {
                format!("linkrecover t={} link={link} a={a} b={b}", time.as_nanos())
            }
            TraceEvent::LinkStateDetected {
                time,
                node,
                neighbor,
                up,
            } => format!(
                "detect t={} node={node} neighbor={neighbor} up={up}",
                time.as_nanos()
            ),
            TraceEvent::ImpairmentChanged {
                time,
                link,
                loss_ppm,
            } => format!(
                "impair t={} link={link} loss_ppm={loss_ppm}",
                time.as_nanos()
            ),
            TraceEvent::NodeRestarted { time, node } => {
                format!("restart t={} node={node}", time.as_nanos())
            }
        }
    }

    /// The timestamp of this record.
    #[must_use]
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::PacketInjected { time, .. }
            | TraceEvent::PacketForwarded { time, .. }
            | TraceEvent::PacketDelivered { time, .. }
            | TraceEvent::PacketDropped { time, .. }
            | TraceEvent::RouteChanged { time, .. }
            | TraceEvent::ControlSent { time, .. }
            | TraceEvent::LinkFailed { time, .. }
            | TraceEvent::LinkRecovered { time, .. }
            | TraceEvent::LinkStateDetected { time, .. }
            | TraceEvent::ImpairmentChanged { time, .. }
            | TraceEvent::NodeRestarted { time, .. } => *time,
        }
    }
}

/// An append-only record of everything observable in a run, stored in
/// the compact encoding described in the module docs.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// The encoded records, in time order, in chunks of [`CHUNK_BYTES`];
    /// a record never straddles two chunks. Every chunk but the last is
    /// truncated to its records; the last one is zero past `tail`.
    chunks: Vec<Vec<u8>>,
    /// Bytes of records in the last chunk.
    tail: usize,
    /// Number of records.
    len: usize,
    /// Time of the last record; the next record's time is encoded as
    /// the difference from it.
    last: u64,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from pre-recorded events (replay, synthesis in
    /// tests, or deserialized archives).
    ///
    /// # Panics
    ///
    /// Panics if the events are not in non-decreasing time order.
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].time() <= w[1].time()),
            "trace events must be in time order"
        );
        let mut trace = Trace::new();
        for event in events {
            trace.push(event);
        }
        trace
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        debug_assert!(
            self.last <= event.time().as_nanos(),
            "trace must be appended in time order"
        );
        // Chunks are allocated zeroed at full size, so a record is
        // written with plain stores into the slice after the last one;
        // a chunk is closed by truncating it to its records.
        if self
            .chunks
            .last()
            .is_none_or(|chunk| chunk.len() - self.tail < MAX_RECORD)
        {
            if let Some(full) = self.chunks.last_mut() {
                full.truncate(self.tail);
            }
            self.chunks.push(vec![0; CHUNK_BYTES]);
            self.tail = 0;
        }
        let last = self.chunks.len() - 1;
        let mut out = Writer {
            buf: &mut self.chunks[last][self.tail..self.tail + MAX_RECORD],
            len: 0,
        };
        out.byte(kind_code(&event));
        // Wrapping differences keep the encoding exact for any input.
        let delta = |from: u64, to: SimTime| to.as_nanos().wrapping_sub(from);
        out.put(delta(self.last, event.time()));
        match event {
            TraceEvent::PacketInjected { id, src, dst, .. } => {
                out.put(id.raw());
                out.put_node(src);
                out.put_node(dst);
            }
            TraceEvent::PacketForwarded {
                id, node, next_hop, ..
            } => {
                out.put(id.raw());
                out.put_node(node);
                out.put_node(next_hop);
            }
            TraceEvent::PacketDelivered {
                time,
                id,
                node,
                hops,
                sent_at,
            } => {
                out.put(id.raw());
                out.put_node(node);
                out.put(u64::from(hops));
                out.put(delta(sent_at.as_nanos(), time));
            }
            TraceEvent::PacketDropped {
                time,
                id,
                node,
                reason,
                sent_at,
            } => {
                out.put(id.raw());
                out.put_node(node);
                out.put(reason as u64);
                out.put(delta(sent_at.as_nanos(), time));
            }
            TraceEvent::RouteChanged {
                node,
                dest,
                old,
                new,
                ..
            } => {
                out.put_node(node);
                out.put_node(dest);
                out.put_hop(old);
                out.put_hop(new);
            }
            TraceEvent::ControlSent {
                from, to, bytes, ..
            } => {
                out.put_node(from);
                out.put_node(to);
                out.put(u64::from(bytes));
            }
            TraceEvent::LinkFailed { link, a, b, .. }
            | TraceEvent::LinkRecovered { link, a, b, .. } => {
                out.put(u64::from(link.raw()));
                out.put_node(a);
                out.put_node(b);
            }
            TraceEvent::LinkStateDetected {
                node, neighbor, up, ..
            } => {
                out.put_node(node);
                out.put_node(neighbor);
                out.put(u64::from(up));
            }
            TraceEvent::ImpairmentChanged { link, loss_ppm, .. } => {
                out.put(u64::from(link.raw()));
                out.put(u64::from(loss_ppm));
            }
            TraceEvent::NodeRestarted { node, .. } => out.put_node(node),
        }
        self.tail += out.len;
        self.len += 1;
        self.last = event.time().as_nanos();
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the records in time order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        let (bytes, rest) = match self.chunks.as_slice() {
            [first, rest @ ..] => (first.as_slice(), rest),
            [] => (&[][..], &[][..]),
        };
        Iter {
            bytes,
            rest,
            pos: 0,
            time: 0,
            remaining: self.len,
        }
    }

    /// Renders the whole trace as stable text, one
    /// [`TraceEvent::render_line`] per record — the byte stream compared
    /// (and compressed) by golden-trace regression tests.
    #[must_use]
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for event in self {
            out.push_str(&event.render_line());
            out.push('\n');
        }
        out
    }

    /// Counts records by kind — a quick sanity profile of a run. Reads
    /// the kind byte and time delta of each record and skips the rest.
    #[must_use]
    pub fn census(&self) -> TraceCensus {
        let mut census = TraceCensus::default();
        let mut records = self.iter();
        while let Some(kind) = records.next_kind() {
            *match kind {
                PACKET_INJECTED => &mut census.injected,
                PACKET_FORWARDED => &mut census.forwarded,
                PACKET_DELIVERED => &mut census.delivered,
                PACKET_DROPPED => &mut census.dropped,
                ROUTE_CHANGED => &mut census.route_changes,
                CONTROL_SENT => &mut census.control_sent,
                LINK_FAILED => &mut census.link_failures,
                LINK_RECOVERED => &mut census.link_recoveries,
                LINK_STATE_DETECTED => &mut census.detections,
                IMPAIRMENT_CHANGED => &mut census.impairment_changes,
                _ => &mut census.node_restarts,
            } += 1;
            records.skip_varints(fields(kind));
        }
        census
    }

    /// Iterates over the `(time, sent_at)` of every
    /// [`TraceEvent::PacketDelivered`], in time order — the records the
    /// throughput and delay series read. Every other record is skipped
    /// after its kind byte and time delta.
    #[must_use]
    pub fn deliveries(&self) -> Deliveries<'_> {
        Deliveries(self.iter())
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

// Kind bytes of the encoding, in `TraceEvent` declaration order.
const PACKET_INJECTED: u8 = 0;
const PACKET_FORWARDED: u8 = 1;
const PACKET_DELIVERED: u8 = 2;
const PACKET_DROPPED: u8 = 3;
const ROUTE_CHANGED: u8 = 4;
const CONTROL_SENT: u8 = 5;
const LINK_FAILED: u8 = 6;
const LINK_RECOVERED: u8 = 7;
const LINK_STATE_DETECTED: u8 = 8;
const IMPAIRMENT_CHANGED: u8 = 9;
const NODE_RESTARTED: u8 = 10;

fn kind_code(event: &TraceEvent) -> u8 {
    match event {
        TraceEvent::PacketInjected { .. } => PACKET_INJECTED,
        TraceEvent::PacketForwarded { .. } => PACKET_FORWARDED,
        TraceEvent::PacketDelivered { .. } => PACKET_DELIVERED,
        TraceEvent::PacketDropped { .. } => PACKET_DROPPED,
        TraceEvent::RouteChanged { .. } => ROUTE_CHANGED,
        TraceEvent::ControlSent { .. } => CONTROL_SENT,
        TraceEvent::LinkFailed { .. } => LINK_FAILED,
        TraceEvent::LinkRecovered { .. } => LINK_RECOVERED,
        TraceEvent::LinkStateDetected { .. } => LINK_STATE_DETECTED,
        TraceEvent::ImpairmentChanged { .. } => IMPAIRMENT_CHANGED,
        TraceEvent::NodeRestarted { .. } => NODE_RESTARTED,
    }
}

/// Number of varints that follow the time delta in a record of `kind`:
/// the one table of the record layouts, for the readers that skip
/// records without decoding them.
fn fields(kind: u8) -> usize {
    match kind {
        PACKET_DELIVERED | PACKET_DROPPED | ROUTE_CHANGED => 4,
        PACKET_INJECTED | PACKET_FORWARDED | CONTROL_SENT | LINK_FAILED | LINK_RECOVERED
        | LINK_STATE_DETECTED => 3,
        IMPAIRMENT_CHANGED => 2,
        _ => 1,
    }
}

/// Longest encoded record: a `PacketDelivered` with every field at its
/// maximum — the kind byte, three 64-bit varints of ten bytes (time
/// delta, packet id, injection-time delta) and two 32-bit varints of
/// five (node, hops).
const MAX_RECORD: usize = 1 + 3 * 10 + 2 * 5;

/// Size of one trace chunk: about 6k typical records, and below the
/// size at which the system allocator maps a block of its own, so the
/// chunks of one run are reused by the next.
const CHUNK_BYTES: usize = 64 * 1024;

/// Encodes one record into the free end of a chunk.
struct Writer<'a> {
    /// The `MAX_RECORD` bytes after the last record.
    buf: &'a mut [u8],
    /// Bytes written.
    len: usize,
}

impl Writer<'_> {
    #[inline]
    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// Appends `v` as a LEB128 varint: seven bits a byte, low bits
    /// first, the high bit set on every byte but the last.
    #[inline]
    fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    #[inline]
    fn put_node(&mut self, node: NodeId) {
        self.put(u64::from(node.raw()));
    }

    /// `None` as 0, `Some(n)` as `n + 1`.
    #[inline]
    fn put_hop(&mut self, hop: Option<NodeId>) {
        self.put(hop.map_or(0, |n| u64::from(n.raw()) + 1));
    }
}

/// Iterator over a [`Trace`]'s records, decoded in time order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    /// The chunk being decoded.
    bytes: &'a [u8],
    /// The chunks after it.
    rest: &'a [Vec<u8>],
    /// Read position in `bytes`.
    pos: usize,
    /// Time of the previously decoded record.
    time: u64,
    remaining: usize,
}

impl Iter<'_> {
    /// Starts the next record: reads its kind byte and time delta, and
    /// leaves the fields after them unread. Always inlined, so that each
    /// reader's loop is one function.
    #[inline(always)]
    fn next_kind(&mut self) -> Option<u8> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.pos == self.bytes.len() {
            if let [next, rest @ ..] = self.rest {
                (self.bytes, self.rest, self.pos) = (next, rest, 0);
            }
        }
        let kind = self.bytes[self.pos];
        self.pos += 1;
        self.time = self.time.wrapping_add(self.get());
        Some(kind)
    }

    /// Skips `n` varints; each ends at the first byte below 0x80.
    #[inline(always)]
    fn skip_varints(&mut self, n: usize) {
        let mut left = n;
        for (i, &b) in self.bytes[self.pos..].iter().enumerate() {
            left -= usize::from(b < 0x80);
            if left == 0 {
                self.pos += i + 1;
                return;
            }
        }
    }

    #[inline]
    fn get(&mut self) -> u64 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        if b < 0x80 {
            return u64::from(b);
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// A field that was encoded from a `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        let v = self.get();
        debug_assert!(u32::try_from(v).is_ok(), "u32 field out of range");
        v as u32
    }

    #[inline]
    fn node(&mut self) -> NodeId {
        NodeId::new(self.get_u32())
    }

    #[inline]
    fn hop(&mut self) -> Option<NodeId> {
        match self.get() {
            0 => None,
            n => Some(NodeId::new((n - 1) as u32)),
        }
    }

    #[inline]
    fn packet(&mut self) -> PacketId {
        PacketId::new(self.get())
    }

    /// The injection time of a packet record at `time`.
    #[inline]
    fn sent_at(&mut self, time: SimTime) -> SimTime {
        SimTime::from_nanos(time.as_nanos().wrapping_sub(self.get()))
    }
}

impl Iterator for Iter<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        let kind = self.next_kind()?;
        let time = SimTime::from_nanos(self.time);
        let event = match kind {
            PACKET_INJECTED => TraceEvent::PacketInjected {
                time,
                id: self.packet(),
                src: self.node(),
                dst: self.node(),
            },
            PACKET_FORWARDED => TraceEvent::PacketForwarded {
                time,
                id: self.packet(),
                node: self.node(),
                next_hop: self.node(),
            },
            PACKET_DELIVERED => TraceEvent::PacketDelivered {
                time,
                id: self.packet(),
                node: self.node(),
                hops: self.get_u32(),
                sent_at: self.sent_at(time),
            },
            PACKET_DROPPED => TraceEvent::PacketDropped {
                time,
                id: self.packet(),
                node: self.node(),
                reason: DropReason::ALL[self.get() as usize],
                sent_at: self.sent_at(time),
            },
            ROUTE_CHANGED => TraceEvent::RouteChanged {
                time,
                node: self.node(),
                dest: self.node(),
                old: self.hop(),
                new: self.hop(),
            },
            CONTROL_SENT => TraceEvent::ControlSent {
                time,
                from: self.node(),
                to: self.node(),
                bytes: self.get_u32(),
            },
            LINK_FAILED => TraceEvent::LinkFailed {
                time,
                link: LinkId::new(self.get_u32()),
                a: self.node(),
                b: self.node(),
            },
            LINK_RECOVERED => TraceEvent::LinkRecovered {
                time,
                link: LinkId::new(self.get_u32()),
                a: self.node(),
                b: self.node(),
            },
            LINK_STATE_DETECTED => TraceEvent::LinkStateDetected {
                time,
                node: self.node(),
                neighbor: self.node(),
                up: self.get() != 0,
            },
            IMPAIRMENT_CHANGED => TraceEvent::ImpairmentChanged {
                time,
                link: LinkId::new(self.get_u32()),
                loss_ppm: self.get_u32(),
            },
            _ => {
                debug_assert_eq!(kind, NODE_RESTARTED, "unknown trace record kind");
                TraceEvent::NodeRestarted {
                    time,
                    node: self.node(),
                }
            }
        };
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FusedIterator for Iter<'_> {}

/// Iterator over the `(time, sent_at)` of a [`Trace`]'s deliveries, from
/// [`Trace::deliveries`].
#[derive(Debug, Clone)]
pub struct Deliveries<'a>(Iter<'a>);

impl Iterator for Deliveries<'_> {
    type Item = (SimTime, SimTime);

    #[inline]
    fn next(&mut self) -> Option<(SimTime, SimTime)> {
        let records = &mut self.0;
        loop {
            let kind = records.next_kind()?;
            if kind == PACKET_DELIVERED {
                // The packet id, node and hop count come before `sent_at`.
                records.skip_varints(3);
                let time = SimTime::from_nanos(records.time);
                return Some((time, records.sent_at(time)));
            }
            records.skip_varints(fields(kind));
        }
    }
}

impl FusedIterator for Deliveries<'_> {}

/// Per-kind record counts of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCensus {
    /// Packets injected by sources.
    pub injected: u64,
    /// Hop-level forwarding records.
    pub forwarded: u64,
    /// Deliveries.
    pub delivered: u64,
    /// Drops (all causes).
    pub dropped: u64,
    /// FIB changes.
    pub route_changes: u64,
    /// Control messages offered to links.
    pub control_sent: u64,
    /// Physical link failures.
    pub link_failures: u64,
    /// Physical link recoveries.
    pub link_recoveries: u64,
    /// Per-endpoint failure/recovery detections.
    pub detections: u64,
    /// Link impairment changes (lossy-period onsets and ends).
    pub impairment_changes: u64,
    /// Cold-state router reboots.
    pub node_restarts: u64,
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_preserves_order_and_contents() {
        let mut t = Trace::new();
        t.push(TraceEvent::LinkFailed {
            time: SimTime::from_secs(1),
            link: LinkId::new(0),
            a: NodeId::new(0),
            b: NodeId::new(1),
        });
        t.push(TraceEvent::LinkRecovered {
            time: SimTime::from_secs(2),
            link: LinkId::new(0),
            a: NodeId::new(0),
            b: NodeId::new(1),
        });
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.iter().next().map(|e| e.time()),
            Some(SimTime::from_secs(1))
        );
        assert_eq!(t.iter().count(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn event_time_covers_all_variants() {
        let t = SimTime::from_millis(5);
        let ev = TraceEvent::PacketDropped {
            time: t,
            id: PacketId::new(0),
            node: NodeId::new(0),
            reason: DropReason::NoRoute,
            sent_at: SimTime::ZERO,
        };
        assert_eq!(ev.time(), t);
    }

    #[test]
    fn census_counts_by_kind() {
        let t = Trace::from_events(vec![
            TraceEvent::LinkFailed {
                time: SimTime::from_secs(1),
                link: LinkId::new(0),
                a: NodeId::new(0),
                b: NodeId::new(1),
            },
            TraceEvent::LinkStateDetected {
                time: SimTime::from_secs(1),
                node: NodeId::new(0),
                neighbor: NodeId::new(1),
                up: false,
            },
            TraceEvent::RouteChanged {
                time: SimTime::from_secs(1),
                node: NodeId::new(0),
                dest: NodeId::new(1),
                old: None,
                new: None,
            },
        ]);
        let census = t.census();
        assert_eq!(census.link_failures, 1);
        assert_eq!(census.detections, 1);
        assert_eq!(census.route_changes, 1);
        assert_eq!(census.injected, 0);
    }

    #[test]
    fn render_lines_is_stable_text() {
        let t = Trace::from_events(vec![
            TraceEvent::PacketInjected {
                time: SimTime::from_millis(1),
                id: PacketId::new(3),
                src: NodeId::new(0),
                dst: NodeId::new(5),
            },
            TraceEvent::RouteChanged {
                time: SimTime::from_millis(2),
                node: NodeId::new(1),
                dest: NodeId::new(5),
                old: None,
                new: Some(NodeId::new(2)),
            },
            TraceEvent::PacketDropped {
                time: SimTime::from_millis(3),
                id: PacketId::new(3),
                node: NodeId::new(2),
                reason: DropReason::NoRoute,
                sent_at: SimTime::from_millis(1),
            },
        ]);
        let text = t.render_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "inject t=1000000 id=p3 src=n0 dst=n5");
        assert_eq!(lines[1], "route t=2000000 node=n1 dest=n5 old=- new=n2");
        assert_eq!(
            lines[2],
            "drop t=3000000 id=p3 node=n2 reason=NoRoute sent=1000000"
        );
        assert_eq!(t.render_lines(), text);
    }

    /// One record of every kind, with field values at the edges of
    /// their ranges: `u64::MAX` ids, `u32::MAX` nodes and counters, and
    /// a `sent_at` later than the record's time.
    fn every_kind_at_the_edges() -> Vec<TraceEvent> {
        let n = NodeId::new(u32::MAX);
        let t = SimTime::from_nanos(u64::MAX);
        vec![
            TraceEvent::PacketInjected {
                time: SimTime::ZERO,
                id: PacketId::new(u64::MAX),
                src: NodeId::new(0),
                dst: n,
            },
            TraceEvent::PacketForwarded {
                time: SimTime::from_nanos(1),
                id: PacketId::new(0),
                node: n,
                next_hop: NodeId::new(127),
            },
            TraceEvent::PacketDelivered {
                time: SimTime::from_nanos(128),
                id: PacketId::new(1 << 35),
                node: NodeId::new(128),
                hops: u32::MAX,
                sent_at: t,
            },
            TraceEvent::PacketDropped {
                time: SimTime::from_secs(3),
                id: PacketId::new(7),
                node: NodeId::new(3),
                reason: DropReason::Impaired,
                sent_at: SimTime::ZERO,
            },
            TraceEvent::RouteChanged {
                time: SimTime::from_secs(3),
                node: NodeId::new(1),
                dest: n,
                old: Some(n),
                new: None,
            },
            TraceEvent::RouteChanged {
                time: SimTime::from_secs(3),
                node: NodeId::new(1),
                dest: NodeId::new(0),
                old: None,
                new: Some(NodeId::new(0)),
            },
            TraceEvent::ControlSent {
                time: SimTime::from_secs(4),
                from: NodeId::new(2),
                to: NodeId::new(3),
                bytes: u32::MAX,
            },
            TraceEvent::LinkFailed {
                time: SimTime::from_secs(5),
                link: LinkId::new(u32::MAX),
                a: NodeId::new(0),
                b: n,
            },
            TraceEvent::LinkRecovered {
                time: SimTime::from_secs(6),
                link: LinkId::new(0),
                a: n,
                b: NodeId::new(0),
            },
            TraceEvent::LinkStateDetected {
                time: SimTime::from_secs(6),
                node: NodeId::new(4),
                neighbor: NodeId::new(5),
                up: true,
            },
            TraceEvent::LinkStateDetected {
                time: SimTime::from_secs(6),
                node: NodeId::new(5),
                neighbor: NodeId::new(4),
                up: false,
            },
            TraceEvent::ImpairmentChanged {
                time: SimTime::from_secs(7),
                link: LinkId::new(9),
                loss_ppm: 1_000_000,
            },
            TraceEvent::NodeRestarted { time: t, node: n },
        ]
    }

    #[test]
    fn every_kind_decodes_to_the_recorded_event() {
        let events = every_kind_at_the_edges();
        let trace = Trace::from_events(events.clone());
        assert_eq!(trace.len(), events.len());
        assert_eq!(trace.iter().len(), events.len());
        assert_eq!(trace.iter().collect::<Vec<_>>(), events);
        assert_eq!(format!("{trace:?}"), format!("{events:?}"));
    }

    /// Counts the decoded records by kind, the slow way.
    fn decoded_census(trace: &Trace) -> TraceCensus {
        let mut c = TraceCensus::default();
        for event in trace {
            *match event {
                TraceEvent::PacketInjected { .. } => &mut c.injected,
                TraceEvent::PacketForwarded { .. } => &mut c.forwarded,
                TraceEvent::PacketDelivered { .. } => &mut c.delivered,
                TraceEvent::PacketDropped { .. } => &mut c.dropped,
                TraceEvent::RouteChanged { .. } => &mut c.route_changes,
                TraceEvent::ControlSent { .. } => &mut c.control_sent,
                TraceEvent::LinkFailed { .. } => &mut c.link_failures,
                TraceEvent::LinkRecovered { .. } => &mut c.link_recoveries,
                TraceEvent::LinkStateDetected { .. } => &mut c.detections,
                TraceEvent::ImpairmentChanged { .. } => &mut c.impairment_changes,
                TraceEvent::NodeRestarted { .. } => &mut c.node_restarts,
            } += 1;
        }
        c
    }

    #[test]
    fn census_skips_records_without_decoding_them() {
        let trace = Trace::from_events(every_kind_at_the_edges());
        let census = trace.census();
        assert_eq!(census, decoded_census(&trace));
        assert_eq!(
            (
                census.route_changes,
                census.detections,
                census.node_restarts
            ),
            (2, 2, 1)
        );
    }

    #[test]
    fn layout_table_matches_the_encoder() {
        let trace = Trace::from_events(every_kind_at_the_edges());
        let (mut decoded, mut skipped) = (trace.iter(), trace.iter());
        let mut kinds = Vec::new();
        while decoded.next().is_some() {
            let kind = skipped.next_kind().expect("as many records skipped");
            skipped.skip_varints(fields(kind));
            assert_eq!(skipped.pos, decoded.pos, "kind {kind}");
            kinds.push(kind);
        }
        assert_eq!(skipped.next_kind(), None);
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds,
            (PACKET_INJECTED..=NODE_RESTARTED).collect::<Vec<_>>()
        );
    }

    /// A `PacketDelivered` with every field at its widest encoding.
    fn largest_record() -> TraceEvent {
        TraceEvent::PacketDelivered {
            time: SimTime::from_nanos(u64::MAX),
            id: PacketId::new(u64::MAX),
            node: NodeId::new(u32::MAX),
            hops: u32::MAX,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn largest_record_takes_max_record_bytes() {
        let largest = largest_record();
        let mut trace = Trace::new();
        trace.push(largest);
        assert_eq!(trace.tail, MAX_RECORD);
        for kind in PACKET_INJECTED..=NODE_RESTARTED {
            let mut trace = Trace::new();
            trace.push(arbitrary_event(kind, largest.time(), u64::MAX, 1 << 63));
            assert!(trace.tail <= MAX_RECORD, "kind {kind}");
        }
    }

    /// A trace whose first chunk has exactly `room` bytes left, filled
    /// with 3- and 4-byte restart records at time zero.
    fn trace_with_room(room: usize) -> Trace {
        let restart = |node| TraceEvent::NodeRestarted {
            time: SimTime::ZERO,
            node: NodeId::new(node),
        };
        let used = CHUNK_BYTES - room;
        let four = used % 3;
        let mut trace = Trace::new();
        for _ in 0..four {
            trace.push(restart(128));
        }
        for _ in 0..(used - 4 * four) / 3 {
            trace.push(restart(0));
        }
        assert_eq!(trace.chunks.len(), 1);
        assert_eq!(CHUNK_BYTES - trace.tail, room);
        trace
    }

    #[test]
    fn a_record_goes_in_place_only_with_max_record_bytes_of_room() {
        let largest = largest_record();
        for (room, chunks) in [(MAX_RECORD, 1), (MAX_RECORD - 1, 2)] {
            let mut trace = trace_with_room(room);
            let records = trace.len();
            trace.push(largest);
            assert_eq!(trace.chunks.len(), chunks, "room {room}");
            assert!(trace.chunks.iter().all(|c| c.capacity() == CHUNK_BYTES));
            assert_eq!(trace.iter().nth(records), Some(largest));
        }
    }

    #[test]
    fn records_never_straddle_chunks() {
        // Enough records for several chunks, every kind in turn.
        let kinds = every_kind_at_the_edges();
        let mut events = Vec::new();
        let mut time = SimTime::ZERO;
        for i in 0..40_000u64 {
            let mut event = kinds[i as usize % kinds.len()];
            time += crate::time::SimDuration::from_nanos(i % 977);
            set_time(&mut event, time);
            events.push(event);
        }
        let trace = Trace::from_events(events.clone());
        assert!(trace.chunks.len() > 2, "{} chunks", trace.chunks.len());
        // No chunk was ever reallocated, so none grew past its capacity.
        assert!(trace.chunks.iter().all(|c| c.capacity() == CHUNK_BYTES));
        assert_eq!(trace.iter().collect::<Vec<_>>(), events);
        assert_eq!(trace.census(), decoded_census(&trace));
    }

    fn set_time(event: &mut TraceEvent, at: SimTime) {
        match event {
            TraceEvent::PacketInjected { time, .. }
            | TraceEvent::PacketForwarded { time, .. }
            | TraceEvent::PacketDelivered { time, .. }
            | TraceEvent::PacketDropped { time, .. }
            | TraceEvent::RouteChanged { time, .. }
            | TraceEvent::ControlSent { time, .. }
            | TraceEvent::LinkFailed { time, .. }
            | TraceEvent::LinkRecovered { time, .. }
            | TraceEvent::LinkStateDetected { time, .. }
            | TraceEvent::ImpairmentChanged { time, .. }
            | TraceEvent::NodeRestarted { time, .. } => *time = at,
        }
    }

    #[test]
    fn drop_reasons_encode_as_their_reporting_index() {
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, i);
        }
    }

    #[test]
    fn records_are_compact() {
        // A forwarding hop 1 ms after the previous record takes 8 bytes
        // where a `TraceEvent` takes 40.
        let mut trace = Trace::new();
        trace.push(TraceEvent::ControlSent {
            time: SimTime::from_secs(3),
            from: NodeId::new(1),
            to: NodeId::new(2),
            bytes: 24,
        });
        let encoded = |t: &Trace| t.tail;
        let before = encoded(&trace);
        trace.push(TraceEvent::PacketForwarded {
            time: SimTime::from_secs(3) + crate::time::SimDuration::from_millis(1),
            id: PacketId::new(1000),
            node: NodeId::new(10),
            next_hop: NodeId::new(11),
        });
        // Kind 1 + delta 1e6 ns (3) + id 1000 (2) + two nodes (1 + 1).
        assert_eq!(encoded(&trace) - before, 8);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any time-ordered sequence of records decodes to itself.
        #[test]
        fn encoding_round_trips(
            raw in proptest::prop::collection::vec(
                (0u8..11, 0u64..u64::MAX, 0u64..u64::MAX),
                0..64,
            ),
            steps in proptest::prop::collection::vec(0u64..1 << 40, 64..65),
        ) {
            let mut time = 0u64;
            let events: Vec<TraceEvent> = raw
                .iter()
                .zip(&steps)
                .map(|(&(kind, big, other), &step)| {
                    time = time.saturating_add(step);
                    arbitrary_event(kind, SimTime::from_nanos(time), big, other)
                })
                .collect();
            let trace = Trace::from_events(events.clone());
            proptest::prop_assert_eq!(trace.iter().collect::<Vec<_>>(), events);
        }
    }

    /// Field values at the edges of the varint encoding, for generated
    /// records: zero, one and two bytes, `u32::MAX` and up to `u64::MAX`.
    const EDGES: [u64; 7] = [0, 127, 128, u32::MAX as u64, 1 << 32, 1 << 63, u64::MAX];

    /// Time steps between generated records: zero, small and huge.
    const STEPS: [u64; 4] = [0, 0, 977, 1 << 40];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The delivery reader yields exactly the `(time, sent_at)` of
        /// the decoded deliveries, over random mixes of every kind with
        /// edge values, across at least three chunks.
        #[test]
        fn deliveries_are_the_decoded_deliveries(
            pattern in proptest::prop::collection::vec(
                (0u8..11, (0usize..9, 0u64..u64::MAX), (0usize..9, 0u64..u64::MAX)),
                1..48,
            ),
            steps in proptest::prop::collection::vec(0usize..4, 1..16),
        ) {
            // Indices past `EDGES` take the random value instead.
            let pick = |(ix, random): (usize, u64)| EDGES.get(ix).copied().unwrap_or(random);
            let mut trace = Trace::new();
            let (mut time, mut i) = (0u64, 0);
            while trace.chunks.len() < 3 {
                let (kind, big, other) = pattern[i % pattern.len()];
                time += STEPS[steps[i % steps.len()]];
                let at = SimTime::from_nanos(time);
                trace.push(arbitrary_event(kind, at, pick(big), pick(other)));
                i += 1;
            }
            let expected: Vec<(SimTime, SimTime)> = trace
                .iter()
                .filter_map(|event| match event {
                    TraceEvent::PacketDelivered { time, sent_at, .. } => Some((time, sent_at)),
                    _ => None,
                })
                .collect();
            proptest::prop_assert_eq!(trace.deliveries().collect::<Vec<_>>(), expected);
        }
    }

    /// A record of kind `kind` built from raw values: `big` is the
    /// packet id, `other` the injection time and, split in halves, the
    /// 32-bit fields.
    fn arbitrary_event(kind: u8, time: SimTime, big: u64, other: u64) -> TraceEvent {
        let (x, y) = (other as u32, (other >> 32) as u32);
        let (id, a, b) = (PacketId::new(big), NodeId::new(x), NodeId::new(y));
        let sent_at = SimTime::from_nanos(other);
        let hop = |v: u32| (!v.is_multiple_of(3)).then(|| NodeId::new(v));
        match kind {
            0 => TraceEvent::PacketInjected {
                time,
                id,
                src: a,
                dst: b,
            },
            1 => TraceEvent::PacketForwarded {
                time,
                id,
                node: a,
                next_hop: b,
            },
            2 => TraceEvent::PacketDelivered {
                time,
                id,
                node: a,
                hops: y,
                sent_at,
            },
            3 => TraceEvent::PacketDropped {
                time,
                id,
                node: a,
                reason: DropReason::ALL[y as usize % DropReason::ALL.len()],
                sent_at,
            },
            4 => TraceEvent::RouteChanged {
                time,
                node: a,
                dest: b,
                old: hop(x),
                new: hop(y),
            },
            5 => TraceEvent::ControlSent {
                time,
                from: a,
                to: b,
                bytes: y,
            },
            6 => TraceEvent::LinkFailed {
                time,
                link: LinkId::new(x),
                a,
                b,
            },
            7 => TraceEvent::LinkRecovered {
                time,
                link: LinkId::new(y),
                a,
                b,
            },
            8 => TraceEvent::LinkStateDetected {
                time,
                node: a,
                neighbor: b,
                up: big.is_multiple_of(2),
            },
            9 => TraceEvent::ImpairmentChanged {
                time,
                link: LinkId::new(x),
                loss_ppm: y,
            },
            _ => TraceEvent::NodeRestarted { time, node: a },
        }
    }
}
