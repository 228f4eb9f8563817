//! The simulation engine: world assembly, the event loop, the data plane
//! and the protocol context.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

use crate::app::AppAgent;
use crate::error::{BuildError, EventBudgetExceeded};
use crate::event::{EventKey, EventKind, EventQueue, FreshProtocol};
use crate::fib::Fib;
use crate::ident::{ChannelId, LinkId, NodeId, PacketId};
use crate::impairment::{Impairment, PPM_SCALE};
use crate::link::{Channel, Contents, EnqueueOutcome, Frame, Frames, LinkConfig};
use crate::packet::{DropReason, Packet, DEFAULT_TTL};
use crate::protocol::{RoutingProtocol, SharedPayload, TimerId, TimerToken};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::timers::{TimerEntry, TimerPop, TimerSlab, TimerTarget};
use crate::trace::{Trace, TraceEvent, TraceSink};

/// A router in the simulated network.
#[derive(Debug)]
struct Node {
    /// The node's links as its protocol sees them, in link-configuration
    /// order.
    peers: Vec<Peer>,
    /// The forwarding side of the same links, slot for slot with `peers`:
    /// the outgoing channel toward the neighbor and the undirected link.
    ports: Vec<(ChannelId, LinkId)>,
    fib: Fib,
}

/// One link of a router, as its routing protocol sees it.
///
/// [`ProtocolContext::peers`] lists a router's peers in link-configuration
/// order; a peer's position in that slice (its *slot*) never changes, so
/// protocols can index per-neighbor state by slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Peer {
    /// The router at the other end of the link.
    pub neighbor: NodeId,
    /// The link's routing cost.
    pub cost: u32,
    /// This router's *perceived* state of the link: it lags the physical
    /// state by the link's detection delay.
    pub up: bool,
}

impl Node {
    /// The slot of the link toward `neighbor`, if the two are adjacent.
    fn slot_of(&self, neighbor: NodeId) -> Option<usize> {
        self.peers.iter().position(|p| p.neighbor == neighbor)
    }
}

/// An undirected link: two channels plus bookkeeping.
#[derive(Debug, Clone, Copy)]
struct LinkInfo {
    a: NodeId,
    b: NodeId,
    ab: ChannelId,
    ba: ChannelId,
    config: LinkConfig,
    up: bool,
}

/// A constant-bit-rate traffic source: one `src` → `dst` packet every
/// `gap`, the first at `start`, the last strictly before `end`.
///
/// Registered with [`Simulator::schedule_cbr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbrSource {
    /// Injecting router.
    pub src: NodeId,
    /// Destination router.
    pub dst: NodeId,
    /// Injection time of the first packet.
    pub start: SimTime,
    /// No packet is injected at or after this time.
    pub end: SimTime,
    /// Inter-packet gap; must be positive.
    pub gap: SimDuration,
    /// Packet size.
    pub size_bytes: u32,
    /// Initial TTL.
    pub ttl: u8,
}

/// A registered [`CbrSource`] and the packet ids and calendar sequence
/// numbers reserved for its ticks.
#[derive(Debug, Clone, Copy)]
struct CbrState {
    source: CbrSource,
    ticks: u64,
    first_packet: u64,
    first_seq: u64,
}

/// Aggregate counters updated online (cheap, always on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed by the engine, [`stale_timer_pops`] included.
    ///
    /// [`stale_timer_pops`]: SimStats::stale_timer_pops
    pub events_processed: u64,
    /// Processed `TimerFired` events that fired nothing: the timer had
    /// been cancelled or had fired, or a re-arm had moved it (an earlier
    /// deadline leaves the old event behind; a later one re-queues it when
    /// the old deadline pops).
    pub stale_timer_pops: u64,
    /// Data packets injected by traffic sources.
    pub packets_injected: u64,
    /// Data packets delivered to their destination.
    pub packets_delivered: u64,
    /// Data packets dropped (all causes).
    pub packets_dropped: u64,
    /// Control messages offered to links.
    pub control_messages_sent: u64,
    /// Control bytes offered to links.
    pub control_bytes_sent: u64,
    /// Control messages lost to link failure or queue overflow, or
    /// addressed to a router that is not a neighbor.
    pub control_messages_lost: u64,
    /// Frames (data or datagram control) lost to stochastic impairment.
    pub frames_impaired: u64,
    /// Retransmissions of reliable control frames forced by impairment
    /// loss (each shows up as extra delivery delay, never as a drop).
    pub control_retransmits: u64,
    /// Peak number of simultaneously pending events in the calendar.
    pub queue_high_water: u64,
    /// Control sends whose payload `Rc` was already shared with another
    /// handle at send time — each one is a deep payload clone the old
    /// `Box<dyn Payload>` fan-out would have performed.
    pub control_payloads_shared: u64,
}

/// Result of walking the FIBs from a source toward a destination.
///
/// Used by experiment runners to find the live forwarding path (to pick a
/// link to fail) and by metrics to track transient paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardingPath {
    /// A loop-free path `src..=dst` exists right now.
    Complete(Vec<NodeId>),
    /// Walking the FIBs revisited a node; the walk up to (and including)
    /// the repeated node is returned.
    Loop(Vec<NodeId>),
    /// Some router on the walk had no FIB entry; the partial walk is
    /// returned.
    Broken(Vec<NodeId>),
}

impl ForwardingPath {
    /// The node sequence regardless of outcome.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        match self {
            ForwardingPath::Complete(p) | ForwardingPath::Loop(p) | ForwardingPath::Broken(p) => p,
        }
    }

    /// Returns `true` for a complete loop-free path.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, ForwardingPath::Complete(_))
    }
}

/// Builds a [`Simulator`].
///
/// # Examples
///
/// ```
/// use netsim::simulator::SimulatorBuilder;
/// use netsim::link::LinkConfig;
///
/// let mut b = SimulatorBuilder::new();
/// let n0 = b.add_node();
/// let n1 = b.add_node();
/// b.add_link(n0, n1, LinkConfig::default())?;
/// let sim = b.build()?;
/// assert_eq!(sim.num_nodes(), 2);
/// # Ok::<(), netsim::error::BuildError>(())
/// ```
#[derive(Debug)]
pub struct SimulatorBuilder {
    num_nodes: u32,
    links: Vec<(NodeId, NodeId, LinkConfig)>,
    seed: u64,
}

impl Default for SimulatorBuilder {
    fn default() -> Self {
        SimulatorBuilder::new()
    }
}

impl SimulatorBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        SimulatorBuilder {
            num_nodes: 0,
            links: Vec::new(),
            seed: 0,
        }
    }

    /// Adds a router and returns its identifier.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.num_nodes);
        self.num_nodes += 1;
        id
    }

    /// Adds `count` routers, returning their identifiers.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node()).collect()
    }

    /// Adds an undirected link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error for self-loops, unknown endpoints or duplicates.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        config: LinkConfig,
    ) -> Result<LinkId, BuildError> {
        if a == b {
            return Err(BuildError::SelfLoop(a));
        }
        for &n in &[a, b] {
            if n.index() >= self.num_nodes as usize {
                return Err(BuildError::UnknownNode(n));
            }
        }
        if self
            .links
            .iter()
            .any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
        {
            return Err(BuildError::DuplicateLink(a, b));
        }
        let id = LinkId::new(self.links.len() as u32);
        self.links.push((a, b, config));
        Ok(id)
    }

    /// Sets the RNG seed for the run.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Assembles the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EmptyNetwork`] if no node was added.
    pub fn build(self) -> Result<Simulator, BuildError> {
        if self.num_nodes == 0 {
            return Err(BuildError::EmptyNetwork);
        }
        let n = self.num_nodes as usize;
        let mut nodes: Vec<Node> = (0..n)
            .map(|_| Node {
                peers: Vec::new(),
                ports: Vec::new(),
                fib: Fib::new(n),
            })
            .collect();
        let mut channels = Vec::with_capacity(self.links.len() * 2);
        let mut links = Vec::with_capacity(self.links.len());
        for (i, &(a, b, config)) in self.links.iter().enumerate() {
            let link = LinkId::new(i as u32);
            let ab = ChannelId::new(channels.len() as u32);
            channels.push(Channel::new(a, b, config));
            let ba = ChannelId::new(channels.len() as u32);
            channels.push(Channel::new(b, a, config));
            links.push(LinkInfo {
                a,
                b,
                ab,
                ba,
                config,
                up: true,
            });
            for (node, neighbor, out) in [(a, b, ab), (b, a, ba)] {
                let node = &mut nodes[node.index()];
                node.peers.push(Peer {
                    neighbor,
                    cost: config.cost,
                    up: true,
                });
                node.ports.push((out, link));
            }
        }
        Ok(Simulator {
            nodes,
            channels,
            links,
            protocols: (0..n).map(|_| None).collect(),
            apps: (0..n).map(|_| None).collect(),
            queue: EventQueue::new(),
            frames: Frames::default(),
            timers: TimerSlab::new(),
            cbr_sources: Vec::new(),
            next_packet: 0,
            rng: SimRng::seed_from(self.seed),
            // A dedicated stream for impairment decisions, seeded
            // independently of the main stream: enabling or disabling an
            // impairment never perturbs protocol/traffic randomness.
            impairment_rng: SimRng::seed_from(self.seed ^ 0x1a7e_5eed_0f00_cafe),
            sink: Box::new(Trace::new()),
            stats: SimStats::default(),
            last_route_change: SimTime::ZERO,
            started: false,
            recorder: None,
            shared: BTreeMap::new(),
        })
    }
}

/// The assembled network plus its event loop.
pub struct Simulator {
    nodes: Vec<Node>,
    channels: Vec<Channel>,
    links: Vec<LinkInfo>,
    protocols: Vec<Option<Box<dyn RoutingProtocol>>>,
    apps: Vec<Option<Box<dyn AppAgent>>>,
    queue: EventQueue,
    /// The payload of every frame the calendar and the channels hold a
    /// handle to.
    frames: Frames,
    timers: TimerSlab,
    cbr_sources: Vec<CbrState>,
    next_packet: u64,
    rng: SimRng,
    impairment_rng: SimRng,
    /// Where every trace record goes; a [`Trace`] unless replaced.
    sink: Box<dyn TraceSink>,
    stats: SimStats,
    /// Time of the last recorded [`TraceEvent::RouteChanged`].
    last_route_change: SimTime,
    started: bool,
    /// Optional span recorder: engine phases are measured against it when
    /// attached, and every check below is a branch on `Option::is_some`,
    /// so unobserved runs pay (almost) nothing.
    recorder: Option<Box<obs::span::Recorder>>,
    /// One value per type for [`ProtocolContext::shared`].
    shared: BTreeMap<TypeId, Rc<dyn Any>>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("now", &self.now())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Simulator {
    /// Number of routers.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The numbers of data packets and control messages the simulator
    /// holds right now. A data packet is held from when it is scheduled
    /// for injection (or injected) until it is delivered or dropped; a
    /// control message from when it is sent until it is delivered or
    /// lost. Both are zero once a run has drained its calendar.
    #[must_use]
    pub fn frames_in_flight(&self) -> (usize, usize) {
        self.frames.len()
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats;
        stats.queue_high_water = self.queue.high_water();
        stats
    }

    /// Attaches a span recorder. Engine activity from here on is measured
    /// against its clock: each processed event opens an
    /// [`obs::span::EVENT_DISPATCH`] span, with nested
    /// [`obs::span::PROTOCOL_PROCESSING`] and
    /// [`obs::span::TRACE_RECORDING`] spans inside. Over a wall clock the
    /// spans are a profile of the run; the run itself is unchanged.
    pub fn set_recorder(&mut self, recorder: Box<obs::span::Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the recorder, if one was attached.
    pub fn take_recorder(&mut self) -> Option<Box<obs::span::Recorder>> {
        self.recorder.take()
    }

    /// When a FIB entry last changed (the time of the last
    /// [`TraceEvent::RouteChanged`]; zero before any change).
    #[must_use]
    pub fn last_route_change(&self) -> SimTime {
        self.last_route_change
    }

    /// The trace recorded so far, while the simulator's sink is the
    /// [`Trace`] it was built with; `None` once another sink replaced it.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        let sink: &dyn std::any::Any = &*self.sink;
        sink.downcast_ref()
    }

    /// Replaces the sink every trace record goes to from now on and
    /// returns the previous one. A new simulator records into a
    /// [`Trace`]; a `Box::new(())` sink keeps nothing.
    pub fn replace_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
        std::mem::replace(&mut self.sink, sink)
    }

    /// Takes the attached sink back as its concrete type `S`, leaving a
    /// sink that keeps nothing in its place. `None`, with the sink left
    /// attached, if it is of another type.
    pub fn take_trace_sink<S: TraceSink>(&mut self) -> Option<S> {
        let sink: &dyn std::any::Any = &*self.sink;
        if !sink.is::<S>() {
            return None;
        }
        let sink: Box<dyn std::any::Any> = self.replace_trace_sink(Box::new(()));
        sink.downcast().ok().map(|sink| *sink)
    }

    /// Installs an application agent on `node`.
    ///
    /// If the simulation is already running, the agent's `on_start` fires
    /// immediately — agents can join mid-run (e.g. a transport flow that
    /// begins after routing warm-up).
    ///
    /// # Errors
    ///
    /// Returns an error if the node does not exist.
    pub fn install_app(
        &mut self,
        node: NodeId,
        agent: Box<dyn AppAgent>,
    ) -> Result<(), BuildError> {
        let slot = self
            .apps
            .get_mut(node.index())
            .ok_or(BuildError::NoSuchNode(node))?;
        *slot = Some(agent);
        if self.started {
            self.dispatch_app(node, |app, ctx| app.on_start(ctx));
        }
        Ok(())
    }

    /// Removes and returns the application agent of `node` (after a run,
    /// to read its collected statistics).
    pub fn take_app(&mut self, node: NodeId) -> Option<Box<dyn AppAgent>> {
        self.apps.get_mut(node.index())?.take()
    }

    /// Read access to the protocol instance on `node` (forensics: downcast
    /// via [`RoutingProtocol::as_any`]).
    #[must_use]
    pub fn protocol(&self, node: NodeId) -> Option<&dyn RoutingProtocol> {
        self.protocols.get(node.index())?.as_deref()
    }

    /// Installs a protocol instance on `node`.
    ///
    /// # Errors
    ///
    /// Returns an error if the node does not exist.
    pub fn install_protocol(
        &mut self,
        node: NodeId,
        protocol: Box<dyn RoutingProtocol>,
    ) -> Result<(), BuildError> {
        let slot = self
            .protocols
            .get_mut(node.index())
            .ok_or(BuildError::NoSuchNode(node))?;
        *slot = Some(protocol);
        Ok(())
    }

    /// The neighbors of `node` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.nodes[node.index()]
            .peers
            .iter()
            .map(|p| p.neighbor)
            .collect()
    }

    /// The undirected link between `a` and `b`, if one exists.
    #[must_use]
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let node = self.nodes.get(a.index())?;
        let slot = node.slot_of(b)?;
        Some(node.ports[slot].1)
    }

    /// The two endpoints of `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` does not exist.
    #[must_use]
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let info = self.links[link.index()];
        (info.a, info.b)
    }

    /// Read access to a node's FIB.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    #[must_use]
    pub fn fib(&self, node: NodeId) -> &Fib {
        &self.nodes[node.index()].fib
    }

    /// Walks the FIBs from `src` toward `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist.
    #[must_use]
    pub fn forwarding_path(&self, src: NodeId, dst: NodeId) -> ForwardingPath {
        let mut path = vec![src];
        let mut visited = vec![false; self.nodes.len()];
        visited[src.index()] = true;
        let mut at = src;
        while at != dst {
            match self.nodes[at.index()].fib.next_hop(dst) {
                None => return ForwardingPath::Broken(path),
                Some(next) => {
                    path.push(next);
                    if visited[next.index()] {
                        return ForwardingPath::Loop(path);
                    }
                    visited[next.index()] = true;
                    at = next;
                }
            }
        }
        ForwardingPath::Complete(path)
    }

    /// Starts all protocols (in node-id order).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "Simulator::start called twice");
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch(NodeId::new(i as u32), |proto, ctx| proto.on_start(ctx));
        }
        for i in 0..self.nodes.len() {
            self.dispatch_app(NodeId::new(i as u32), |app, ctx| app.on_start(ctx));
        }
    }

    /// Schedules a data packet injection at `at`.
    ///
    /// Returns the packet id for trace correlation.
    ///
    /// # Errors
    ///
    /// [`BuildError::NoSuchNode`] if either node is unknown, and
    /// [`BuildError::InThePast`] if `at` is before now.
    pub fn schedule_packet(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        size_bytes: u32,
        ttl: u8,
    ) -> Result<PacketId, BuildError> {
        for node in [src, dst] {
            if node.index() >= self.nodes.len() {
                return Err(BuildError::NoSuchNode(node));
            }
        }
        self.check_not_past(at)?;
        let id = PacketId::new(self.next_packet);
        self.next_packet += 1;
        let packet = Packet::new(id, src, dst, at, size_bytes).with_ttl(ttl);
        let frame = self.frames.data(packet);
        self.queue.schedule(at, EventKind::InjectPacket { frame });
        Ok(id)
    }

    /// The check every public scheduling call makes before it reaches the
    /// calendar, which relies on never being handed a past time.
    fn check_not_past(&self, at: SimTime) -> Result<(), BuildError> {
        let now = self.now();
        if at < now {
            return Err(BuildError::InThePast { at, now });
        }
        Ok(())
    }

    /// Registers a constant-bit-rate source and returns the ids of the
    /// packets it will inject.
    ///
    /// The result is indistinguishable from calling
    /// [`schedule_packet`](Self::schedule_packet) once per tick, at
    /// `start`, `start + gap`, … below `end`: the packet ids and the
    /// calendar sequence numbers those calls would have taken are reserved
    /// now, so every id and every same-instant tie comes out the same. Only
    /// the source's next tick sits in the calendar, however, so a long
    /// high-rate flow costs one pending event instead of one per packet.
    ///
    /// # Errors
    ///
    /// [`BuildError::NoSuchNode`] if either endpoint does not exist,
    /// [`BuildError::ZeroCbrGap`] if `gap` is zero, and
    /// [`BuildError::InThePast`] if the first tick (`start`, when
    /// `start < end`) is before now.
    pub fn schedule_cbr(&mut self, source: CbrSource) -> Result<Range<PacketId>, BuildError> {
        for node in [source.src, source.dst] {
            if node.index() >= self.nodes.len() {
                return Err(BuildError::NoSuchNode(node));
            }
        }
        if source.gap.is_zero() {
            return Err(BuildError::ZeroCbrGap);
        }
        let span = source
            .end
            .as_nanos()
            .saturating_sub(source.start.as_nanos());
        let ticks = span.div_ceil(source.gap.as_nanos());
        if ticks > 0 {
            self.check_not_past(source.start)?;
        }
        let first_packet = self.next_packet;
        self.next_packet += ticks;
        let first_seq = self.queue.reserve(ticks);
        if ticks > 0 {
            let index = self.cbr_sources.len();
            self.cbr_sources.push(CbrState {
                source,
                ticks,
                first_packet,
                first_seq,
            });
            self.queue.schedule_reserved(
                source.start,
                first_seq,
                EventKind::CbrTick {
                    source: index,
                    tick: 0,
                },
            );
        }
        Ok(PacketId::new(first_packet)..PacketId::new(self.next_packet))
    }

    /// Convenience: schedules a packet with the study defaults
    /// (1000 bytes, TTL 127).
    ///
    /// # Errors
    ///
    /// As [`schedule_packet`](Self::schedule_packet).
    pub fn schedule_default_packet(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
    ) -> Result<PacketId, BuildError> {
        self.schedule_packet(at, src, dst, 1000, DEFAULT_TTL)
    }

    /// Schedules a physical failure of `link` at `at`.
    ///
    /// # Errors
    ///
    /// Returns an error if the link does not exist or `at` is before now.
    pub fn schedule_link_failure(&mut self, at: SimTime, link: LinkId) -> Result<(), BuildError> {
        if link.index() >= self.links.len() {
            return Err(BuildError::NoSuchLink(link));
        }
        self.check_not_past(at)?;
        self.queue.schedule(at, EventKind::LinkFail { link });
        Ok(())
    }

    /// Schedules a physical recovery of `link` at `at`.
    ///
    /// # Errors
    ///
    /// Returns an error if the link does not exist or `at` is before now.
    pub fn schedule_link_recovery(&mut self, at: SimTime, link: LinkId) -> Result<(), BuildError> {
        if link.index() >= self.links.len() {
            return Err(BuildError::NoSuchLink(link));
        }
        self.check_not_past(at)?;
        self.queue.schedule(at, EventKind::LinkRecover { link });
        Ok(())
    }

    /// Schedules a change of `link`'s impairment at `at` (both directions).
    ///
    /// Used to model lossy periods: schedule a non-trivial impairment at
    /// the onset and [`Impairment::NONE`] at the end.
    ///
    /// # Errors
    ///
    /// Returns an error if the link does not exist or `at` is before now.
    pub fn schedule_link_impairment(
        &mut self,
        at: SimTime,
        link: LinkId,
        impairment: Impairment,
    ) -> Result<(), BuildError> {
        if link.index() >= self.links.len() {
            return Err(BuildError::NoSuchLink(link));
        }
        self.check_not_past(at)?;
        self.queue.schedule(
            at,
            EventKind::SetImpairment {
                link,
                impairment: Box::new(impairment),
            },
        );
        Ok(())
    }

    /// Schedules a crash-with-restart of `node`: at `at` every attached
    /// link physically fails (the node falls silent), and after `down` the
    /// links recover while the node reboots with *cold* routing state — an
    /// empty FIB, no pending protocol timers, and `fresh` replacing the
    /// crashed protocol instance.
    ///
    /// Neighbors experience the crash exactly like a set of link failures:
    /// detection lags by each link's `detection_delay`.
    ///
    /// # Errors
    ///
    /// Returns an error if the node does not exist or `at` is before now.
    pub fn schedule_node_crash_restart(
        &mut self,
        at: SimTime,
        node: NodeId,
        down: SimDuration,
        fresh: Box<dyn RoutingProtocol>,
    ) -> Result<(), BuildError> {
        if node.index() >= self.nodes.len() {
            return Err(BuildError::NoSuchNode(node));
        }
        self.check_not_past(at)?;
        let links: Vec<LinkId> = self.nodes[node.index()]
            .ports
            .iter()
            .map(|&(_, link)| link)
            .collect();
        for link in links {
            self.queue.schedule(at, EventKind::LinkFail { link });
            self.queue
                .schedule(at + down, EventKind::LinkRecover { link });
        }
        self.queue.schedule(
            at + down,
            EventKind::NodeRestart {
                node,
                protocol: FreshProtocol(fresh),
            },
        );
        Ok(())
    }

    /// Runs the event loop until the calendar is empty or the next event is
    /// after `until`, then advances the clock to `until` so follow-up
    /// interactions (installing agents, scheduling traffic) happen at the
    /// window boundary.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Simulator::start`].
    pub fn run_until(&mut self, until: SimTime) {
        assert!(self.started, "call Simulator::start before run_until");
        // A budget of `u64::MAX` events never runs out.
        let _ = self.run_loop(Some(until), u64::MAX);
    }

    /// Like [`Simulator::run_until`], but guarded by an event-budget
    /// watchdog: once the engine's *lifetime* event count
    /// ([`SimStats::events_processed`]) reaches `max_events`, the loop
    /// stops and reports how far it got. The simulation is left in a
    /// consistent (if unfinished) state and can still be inspected.
    ///
    /// # Errors
    ///
    /// Returns [`EventBudgetExceeded`] if the budget ran out before
    /// `until` was reached.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Simulator::start`].
    pub fn run_until_budgeted(
        &mut self,
        until: SimTime,
        max_events: u64,
    ) -> Result<(), EventBudgetExceeded> {
        assert!(
            self.started,
            "call Simulator::start before run_until_budgeted"
        );
        self.run_loop(Some(until), max_events)
    }

    /// Runs until the calendar drains completely; the clock stays at the
    /// last processed event.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Simulator::start`].
    pub fn run_to_completion(&mut self) {
        assert!(
            self.started,
            "call Simulator::start before run_to_completion"
        );
        // A budget of `u64::MAX` events never runs out.
        let _ = self.run_loop(None, u64::MAX);
    }

    /// The event loop behind every `run_*` method: processes events up to
    /// and including `until` (all of them for `None`) while fewer than
    /// `max_events` have been processed over the engine's lifetime. A
    /// bounded run that finishes advances the clock to `until`.
    fn run_loop(
        &mut self,
        until: Option<SimTime>,
        max_events: u64,
    ) -> Result<(), EventBudgetExceeded> {
        while let Some(next) = self.queue.next_due(until) {
            if self.stats.events_processed >= max_events {
                return Err(EventBudgetExceeded {
                    events: self.stats.events_processed,
                    at: self.now(),
                });
            }
            let Some((t, seq, kind)) = self.queue.pop(next) else {
                break;
            };
            self.stats.events_processed += 1;
            self.obs_enter(obs::span::EVENT_DISPATCH);
            self.handle((t, seq), kind);
            self.obs_exit();
        }
        if let Some(until) = until {
            self.queue.advance_to(until);
        }
        Ok(())
    }

    // ---- internal machinery ----------------------------------------------

    /// Opens a span on the attached recorder, if any.
    #[inline]
    fn obs_enter(&mut self, name: &'static str) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.enter(name);
        }
    }

    /// Closes the innermost span on the attached recorder, if any.
    #[inline]
    fn obs_exit(&mut self) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.exit();
        }
    }

    /// Hands a record to the trace sink, measured as a
    /// [`obs::span::TRACE_RECORDING`] span when a recorder is attached.
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if self.recorder.is_some() {
            self.obs_enter(obs::span::TRACE_RECORDING);
            self.sink.record(&event);
            self.obs_exit();
        } else {
            self.sink.record(&event);
        }
    }

    /// Processes `kind`, popped under calendar key `key`.
    fn handle(&mut self, key: EventKey, kind: EventKind) {
        match kind {
            EventKind::InjectPacket { frame } => self.inject(frame),
            EventKind::CbrTick { source, tick } => self.on_cbr_tick(source, tick),
            EventKind::FrameSerialized { channel, epoch } => {
                self.on_frame_serialized(channel, epoch);
            }
            EventKind::FrameArrived { channel, frame } => self.on_frame_arrived(channel, frame),
            EventKind::TimerFired { node, timer } => match self.timers.on_pop(timer, key) {
                TimerPop::Stale => self.stats.stale_timer_pops += 1,
                TimerPop::Moved((at, seq)) => {
                    self.stats.stale_timer_pops += 1;
                    self.queue
                        .schedule_reserved(at, seq, EventKind::TimerFired { node, timer });
                }
                TimerPop::Fire(entry) => {
                    debug_assert_eq!(entry.owner, node);
                    match entry.target {
                        TimerTarget::Protocol => {
                            self.dispatch(node, |proto, ctx| proto.on_timer(ctx, entry.token));
                        }
                        TimerTarget::App => {
                            self.dispatch_app(node, |app, ctx| app.on_timer(ctx, entry.token));
                        }
                    }
                }
            },
            EventKind::LinkFail { link } => self.on_link_fail(link),
            EventKind::LinkRecover { link } => self.on_link_recover(link),
            EventKind::LinkStateDetected { node, link, up } => {
                self.on_link_state_detected(node, link, up);
            }
            EventKind::SetImpairment { link, impairment } => {
                self.apply_impairment(link, *impairment);
            }
            EventKind::NodeRestart { node, protocol } => {
                self.on_node_restart(node, protocol.0);
            }
        }
    }

    /// A traffic source hands the packet of data frame `frame` to its
    /// attachment router.
    fn inject(&mut self, frame: Frame) {
        let Some(&mut Packet { id, src, dst, .. }) = self.frames.packet_mut(frame) else {
            return;
        };
        self.stats.packets_injected += 1;
        self.record(TraceEvent::PacketInjected {
            time: self.now(),
            id,
            src,
            dst,
        });
        self.forward_packet(src, frame);
    }

    /// Tick `tick` of CBR source `index`: keeps the source's next tick
    /// pending under its reserved sequence number, then injects this
    /// tick's packet.
    fn on_cbr_tick(&mut self, index: usize, tick: u64) {
        let state = self.cbr_sources[index];
        let source = state.source;
        let next = tick + 1;
        if next < state.ticks {
            self.queue.schedule_reserved(
                source.start + source.gap * next,
                state.first_seq + next,
                EventKind::CbrTick {
                    source: index,
                    tick: next,
                },
            );
        }
        let id = PacketId::new(state.first_packet + tick);
        let packet = Packet::new(id, source.src, source.dst, self.now(), source.size_bytes)
            .with_ttl(source.ttl);
        let frame = self.frames.data(packet);
        self.inject(frame);
    }

    fn apply_impairment(&mut self, link: LinkId, impairment: Impairment) {
        let info = self.links[link.index()];
        self.links[link.index()].config.impairment = impairment;
        self.channels[info.ab.index()].config.impairment = impairment;
        self.channels[info.ba.index()].config.impairment = impairment;
        self.record(TraceEvent::ImpairmentChanged {
            time: self.now(),
            link,
            loss_ppm: impairment.loss_ppm,
        });
    }

    fn on_node_restart(&mut self, node: NodeId, fresh: Box<dyn RoutingProtocol>) {
        let now = self.now();
        // Cold boot: the FIB comes up empty, with every wiped entry
        // recorded so convergence metrics see the forwarding-state loss.
        for dest in 0..self.nodes.len() {
            let dest = NodeId::new(dest as u32);
            let old = self.nodes[node.index()].fib.remove(dest);
            if old.is_some() {
                self.last_route_change = now;
                self.record(TraceEvent::RouteChanged {
                    time: now,
                    node,
                    dest,
                    old,
                    new: None,
                });
            }
        }
        // The crashed instance's pending timers die with it. (Application
        // agents survive a router reboot: transport endpoints live above
        // the forwarding plane.)
        self.timers
            .retain(|e| !(e.owner == node && e.target == TimerTarget::Protocol));
        self.protocols[node.index()] = Some(fresh);
        self.record(TraceEvent::NodeRestarted { time: now, node });
        self.dispatch(node, |proto, ctx| proto.on_start(ctx));
    }

    #[inline]
    fn on_frame_serialized(&mut self, channel: ChannelId, epoch: u64) {
        let now = self.now();
        let ch = &mut self.channels[channel.index()];
        if ch.epoch != epoch {
            // The transmission this event belonged to was wiped by a link
            // failure; the frame was already accounted as lost.
            return;
        }
        let Some((frame, next_delay)) = ch.finish_transmit() else {
            // Stale serialization event for an already-idle channel; the
            // epoch guard above makes this unreachable, but an idle
            // channel is simply nothing to deliver, not a crash.
            return;
        };
        if let Some(d) = next_delay {
            let data = ch.transmitting.is_some_and(Frame::is_data);
            let epoch = ch.epoch;
            self.schedule_serialized(channel, epoch, d, data);
        }
        let ch = &self.channels[channel.index()];
        if !ch.up {
            self.lose_frame(frame, ch.from, DropReason::LinkDown);
            return;
        }
        let imp = ch.config.impairment;
        let propagation = ch.config.propagation_delay;
        if imp.is_noop() {
            // The clean-link fast path draws nothing from the impairment
            // RNG, keeping unimpaired runs bit-identical.
            self.queue.schedule_arrival(propagation, channel, frame);
            return;
        }
        self.impaired_departure(channel, frame, now + propagation, imp);
    }

    /// Applies loss, jitter and reordering to a frame leaving the
    /// transmitter of an impaired channel.
    fn impaired_departure(
        &mut self,
        channel: ChannelId,
        frame: Frame,
        base_arrival: SimTime,
        imp: Impairment,
    ) {
        /// Bound on consecutive losses of one reliable frame, so a
        /// 100%-loss link cannot spin the retransmission loop forever.
        const MAX_RETRANSMITS: u32 = 30;

        let reliable = frame.is_reliable();
        let mut extra = SimDuration::ZERO;
        if imp.loss_ppm > 0 {
            if reliable {
                // The reliable session never surrenders the frame to loss:
                // each lost copy costs one retransmission delay, and the
                // retransmitted copy faces the same Bernoulli trial.
                let mut tries = 0;
                while tries < MAX_RETRANSMITS && self.draw_ppm() < imp.loss_ppm {
                    extra += imp.retransmit_delay;
                    self.stats.control_retransmits += 1;
                    tries += 1;
                }
            } else if self.draw_ppm() < imp.loss_ppm {
                self.stats.frames_impaired += 1;
                let from = self.channels[channel.index()].from;
                self.lose_frame(frame, from, DropReason::Impaired);
                return;
            }
        }
        if imp.jitter > SimDuration::ZERO {
            extra += self
                .impairment_rng
                .gen_duration(SimDuration::ZERO, imp.jitter);
        }
        if imp.reorder_ppm > 0 && self.draw_ppm() < imp.reorder_ppm {
            extra += imp.reorder_extra;
        }
        let mut arrival = base_arrival + extra;
        if reliable {
            // Emulated TCP delivers in order: a frame sent after a
            // retransmitted (or jittered) predecessor cannot overtake it.
            let ch = &mut self.channels[channel.index()];
            if arrival < ch.reliable_ready_at {
                arrival = ch.reliable_ready_at;
            }
            ch.reliable_ready_at = arrival;
        }
        self.queue
            .schedule(arrival, EventKind::FrameArrived { channel, frame });
    }

    /// One impairment Bernoulli draw in `[0, PPM_SCALE)`.
    fn draw_ppm(&mut self) -> u32 {
        self.impairment_rng.gen_range_u64(0, u64::from(PPM_SCALE)) as u32
    }

    #[inline]
    fn on_frame_arrived(&mut self, channel: ChannelId, frame: Frame) {
        let (up, to, from) = {
            let ch = &self.channels[channel.index()];
            (ch.up, ch.to, ch.from)
        };
        if !up {
            // Failed while the frame was propagating.
            self.lose_frame(frame, from, DropReason::LinkDown);
            return;
        }
        if frame.is_data() {
            self.forward_packet(to, frame);
        } else if let Some(Contents::Control(payload)) = self.frames.take(frame) {
            // The channel's tail node sent the message.
            self.dispatch(to, |proto, ctx| proto.on_message(ctx, from, &*payload));
        }
    }

    /// Discards `frame` at node `at`: a data packet is dropped for
    /// `reason`, a control message counts as lost. Frees its slot.
    fn lose_frame(&mut self, frame: Frame, at: NodeId, reason: DropReason) {
        match self.frames.take(frame) {
            Some(Contents::Data(packet)) => self.record_drop(&packet, at, reason),
            Some(Contents::Control(_)) => self.stats.control_messages_lost += 1,
            None => {}
        }
    }

    fn record_drop(&mut self, packet: &Packet, at: NodeId, reason: DropReason) {
        self.stats.packets_dropped += 1;
        self.record(TraceEvent::PacketDropped {
            time: self.now(),
            id: packet.id,
            node: at,
            reason,
            sent_at: packet.sent_at,
        });
    }

    /// Hop-by-hop forwarding of data frame `frame`'s packet: deliver
    /// locally, or decrement the TTL, look up the FIB and push the frame
    /// onto the outgoing channel. The packet is changed in place.
    fn forward_packet(&mut self, at: NodeId, frame: Frame) {
        let Some(packet) = self.frames.packet_mut(frame) else {
            return;
        };
        if packet.dst == at {
            self.deliver(frame, at);
            return;
        }
        if packet.ttl <= 1 {
            self.lose_frame(frame, at, DropReason::TtlExpired);
            return;
        }
        let node = &self.nodes[at.index()];
        let Some(next_hop) = node.fib.next_hop(packet.dst) else {
            self.lose_frame(frame, at, DropReason::NoRoute);
            return;
        };
        let Some(out) = node.slot_of(next_hop).map(|slot| node.ports[slot].0) else {
            // A protocol installed a next hop that is not a neighbor; treat
            // as no route rather than corrupting the run.
            debug_assert!(false, "FIB at {at} points to non-neighbor {next_hop}");
            self.lose_frame(frame, at, DropReason::NoRoute);
            return;
        };
        packet.ttl -= 1;
        packet.hops += 1;
        let id = packet.id;
        self.record(TraceEvent::PacketForwarded {
            time: self.now(),
            id,
            node: at,
            next_hop,
        });
        self.offer_frame(out, frame, at);
    }

    /// Hands data frame `frame`'s packet to its destination `at` (and the
    /// node's application agent, if any), freeing its slot.
    fn deliver(&mut self, frame: Frame, at: NodeId) {
        let Some(Contents::Data(packet)) = self.frames.take(frame) else {
            return;
        };
        self.stats.packets_delivered += 1;
        self.record(TraceEvent::PacketDelivered {
            time: self.now(),
            id: packet.id,
            node: at,
            hops: packet.hops,
            sent_at: packet.sent_at,
        });
        if self.apps[at.index()].is_some() {
            self.dispatch_app(at, |app, ctx| app.on_packet(ctx, &packet));
        }
    }

    #[inline]
    fn offer_frame(&mut self, channel: ChannelId, frame: Frame, from: NodeId) {
        let epoch = self.channels[channel.index()].epoch;
        match self.channels[channel.index()].offer(frame) {
            EnqueueOutcome::StartTransmit(d) => {
                self.schedule_serialized(channel, epoch, d, frame.is_data());
            }
            EnqueueOutcome::Queued => {}
            EnqueueOutcome::Dropped => self.lose_frame(frame, from, DropReason::QueueOverflow),
        }
    }

    /// Schedules the end of a frame's serialization, `delay` from now.
    /// Data frames share one serialization delay on a uniform network, so
    /// they go to their FIFO lane; control frames vary in size and go to
    /// the calendar's serialization heap.
    #[inline]
    fn schedule_serialized(
        &mut self,
        channel: ChannelId,
        epoch: u64,
        delay: SimDuration,
        data: bool,
    ) {
        if data {
            self.queue.schedule_data_serialized(delay, channel, epoch);
        } else {
            let kind = EventKind::FrameSerialized { channel, epoch };
            self.queue.schedule(self.now() + delay, kind);
        }
    }

    /// Arms `owner`'s timer `id` to fire `after` from now with `token`, in
    /// place when `id` is still armed (see [`crate::timers`]), and returns
    /// its id. Like cancelling `id` and arming a fresh timer, it takes one
    /// calendar sequence number, so every later event's number is the same
    /// either way.
    fn reset_timer(
        &mut self,
        id: Option<TimerId>,
        owner: NodeId,
        target: TimerTarget,
        after: SimDuration,
        token: TimerToken,
    ) -> TimerId {
        let at = self.now() + after;
        if let Some(id) = id {
            match self.timers.get_mut(id) {
                Some(entry) if entry.owner == owner && entry.target == target => {
                    let due = (at, self.queue.reserve(1));
                    entry.token = token;
                    entry.due = due;
                    if due < entry.queued {
                        entry.queued = due;
                        self.queue.schedule_reserved(
                            at,
                            due.1,
                            EventKind::TimerFired {
                                node: owner,
                                timer: id,
                            },
                        );
                    }
                    return id;
                }
                // Somebody else's timer: cancel it, as cancel-and-set would.
                Some(_) => {
                    let _ = self.timers.take(id);
                }
                None => {}
            }
        }
        let due = (at, self.queue.reserve(1));
        let id = self.timers.insert(TimerEntry {
            owner,
            token,
            target,
            due,
            queued: due,
        });
        self.queue.schedule_reserved(
            at,
            due.1,
            EventKind::TimerFired {
                node: owner,
                timer: id,
            },
        );
        id
    }

    fn on_link_fail(&mut self, link: LinkId) {
        let now = self.now();
        let info = self.links[link.index()];
        if !info.up {
            return;
        }
        self.links[link.index()].up = false;
        self.record(TraceEvent::LinkFailed {
            time: now,
            link,
            a: info.a,
            b: info.b,
        });
        for ch_id in [info.ab, info.ba] {
            let lost = {
                let ch = &mut self.channels[ch_id.index()];
                ch.up = false;
                ch.clear()
            };
            let from = self.channels[ch_id.index()].from;
            for frame in lost {
                self.lose_frame(frame, from, DropReason::LinkDown);
            }
        }
        let detect = now + info.config.detection_delay;
        for node in [info.a, info.b] {
            self.queue.schedule(
                detect,
                EventKind::LinkStateDetected {
                    node,
                    link,
                    up: false,
                },
            );
        }
    }

    fn on_link_recover(&mut self, link: LinkId) {
        let now = self.now();
        let info = self.links[link.index()];
        if info.up {
            return;
        }
        self.links[link.index()].up = true;
        self.channels[info.ab.index()].up = true;
        self.channels[info.ba.index()].up = true;
        self.record(TraceEvent::LinkRecovered {
            time: now,
            link,
            a: info.a,
            b: info.b,
        });
        let detect = now + info.config.detection_delay;
        for node in [info.a, info.b] {
            self.queue.schedule(
                detect,
                EventKind::LinkStateDetected {
                    node,
                    link,
                    up: true,
                },
            );
        }
    }

    fn on_link_state_detected(&mut self, node: NodeId, link: LinkId, up: bool) {
        let n = &mut self.nodes[node.index()];
        let Some(slot) = n.ports.iter().position(|&(_, l)| l == link) else {
            return;
        };
        let peer = &mut n.peers[slot];
        peer.up = up;
        let neighbor = peer.neighbor;
        self.record(TraceEvent::LinkStateDetected {
            time: self.now(),
            node,
            neighbor,
            up,
        });
        if up {
            self.dispatch(node, |proto, ctx| proto.on_link_up(ctx, neighbor));
        } else {
            self.dispatch(node, |proto, ctx| proto.on_link_down(ctx, neighbor));
        }
    }

    /// Temporarily removes the node's protocol, runs `f` with a context, and
    /// reinstalls it. This is what lets protocol code mutate the world
    /// without aliasing itself.
    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn RoutingProtocol, &mut ProtocolContext<'_>),
    {
        let Some(mut proto) = self.protocols[node.index()].take() else {
            return;
        };
        self.obs_enter(obs::span::PROTOCOL_PROCESSING);
        {
            let mut ctx = ProtocolContext { sim: self, node };
            f(proto.as_mut(), &mut ctx);
        }
        self.obs_exit();
        self.protocols[node.index()] = Some(proto);
    }

    /// [`Simulator::dispatch`], for application agents.
    fn dispatch_app<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn AppAgent, &mut AppContext<'_>),
    {
        let Some(mut app) = self.apps[node.index()].take() else {
            return;
        };
        self.obs_enter(obs::span::PROTOCOL_PROCESSING);
        {
            let mut ctx = AppContext { sim: self, node };
            f(app.as_mut(), &mut ctx);
        }
        self.obs_exit();
        self.apps[node.index()] = Some(app);
    }
}

/// The capabilities handed to a protocol event handler.
///
/// Everything a protocol may legitimately observe or do goes through this
/// context: it sees only local state (its own FIB and its own
/// [`peers`](Self::peers) with their *perceived* link states), never the
/// global topology. The one store all routers share,
/// [`shared`](Self::shared), interns values that travel in messages; it
/// is never a way to learn another router's state.
pub struct ProtocolContext<'a> {
    sim: &'a mut Simulator,
    node: NodeId,
}

impl std::fmt::Debug for ProtocolContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolContext")
            .field("node", &self.node)
            .field("now", &self.sim.now())
            .finish()
    }
}

impl ProtocolContext<'_> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The node this protocol instance runs on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total number of routers (= destinations) in the network.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.sim.num_nodes()
    }

    /// Every configured link of this node, with its cost and perceived
    /// state, in link-configuration order. A peer keeps its position
    /// (slot) for the whole run.
    #[must_use]
    pub fn peers(&self) -> &[Peer] {
        &self.sim.nodes[self.node.index()].peers
    }

    /// Sends a datagram control message (may be lost on failure/overflow).
    ///
    /// The payload is a shared handle: fanning one update out to several
    /// neighbors clones the `Rc`, not the payload.
    pub fn send(&mut self, to: NodeId, payload: SharedPayload) {
        self.send_inner(to, payload, false);
    }

    /// Sends a control message over a reliable in-order session (BGP/TCP
    /// emulation: immune to queue overflow, reset by link failure).
    pub fn send_reliable(&mut self, to: NodeId, payload: SharedPayload) {
        self.send_inner(to, payload, true);
    }

    fn send_inner(&mut self, to: NodeId, payload: SharedPayload, reliable: bool) {
        let node = &self.sim.nodes[self.node.index()];
        let Some(out) = node.slot_of(to).map(|slot| node.ports[slot].0) else {
            // A protocol addressed a router that is not a neighbor; lose
            // the message rather than abort the run.
            debug_assert!(false, "{to} is not a neighbor of {}", self.node);
            self.sim.stats.control_messages_lost += 1;
            return;
        };
        // The wire size adds a 20-byte header approximating IP+UDP/TCP
        // overhead.
        let bytes = (payload.size_bytes() + 20) as u32;
        self.sim.stats.control_messages_sent += 1;
        self.sim.stats.control_bytes_sent += u64::from(bytes);
        if Rc::strong_count(&payload) > 1 {
            self.sim.stats.control_payloads_shared += 1;
        }
        self.sim.record(TraceEvent::ControlSent {
            time: self.sim.now(),
            from: self.node,
            to,
            bytes,
        });
        let frame = self.sim.frames.control(payload, bytes, reliable);
        self.sim.offer_frame(out, frame, self.node);
    }

    /// Arms a one-shot timer `after` from now; the token is returned in
    /// [`RoutingProtocol::on_timer`].
    pub fn set_timer(&mut self, after: SimDuration, token: TimerToken) -> TimerId {
        self.reset_timer(None, after, token)
    }

    /// Re-arms timer `id` to fire `after` from now with `token`, and
    /// returns its id; with `None`, or an id that already fired or was
    /// cancelled, it arms a fresh timer like
    /// [`set_timer`](Self::set_timer).
    ///
    /// Behaves exactly like cancelling `id` and then calling `set_timer`
    /// — the same firing instant and the same place among same-instant
    /// events — but keeps the id and leaves no cancelled event behind in
    /// the calendar for a later deadline. Use it for timeouts refreshed on
    /// every message.
    pub fn reset_timer(
        &mut self,
        id: Option<TimerId>,
        after: SimDuration,
        token: TimerToken,
    ) -> TimerId {
        self.sim
            .reset_timer(id, self.node, TimerTarget::Protocol, after, token)
    }

    /// Cancels a pending timer; cancelling an already-fired timer is a
    /// harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        let _ = self.sim.timers.take(id);
    }

    /// Installs `next_hop` as the FIB entry for `dest`, recording the change.
    pub fn install_route(&mut self, dest: NodeId, next_hop: NodeId) {
        let old = self.sim.nodes[self.node.index()].fib.set(dest, next_hop);
        if old != Some(next_hop) {
            self.sim.last_route_change = self.sim.now();
            self.sim.record(TraceEvent::RouteChanged {
                time: self.sim.now(),
                node: self.node,
                dest,
                old,
                new: Some(next_hop),
            });
        }
    }

    /// Removes the FIB entry for `dest`, recording the change.
    pub fn remove_route(&mut self, dest: NodeId) {
        let old = self.sim.nodes[self.node.index()].fib.remove(dest);
        if old.is_some() {
            self.sim.last_route_change = self.sim.now();
            self.sim.record(TraceEvent::RouteChanged {
                time: self.sim.now(),
                node: self.node,
                dest,
                old,
                new: None,
            });
        }
    }

    /// The currently installed next hop for `dest`, if any.
    #[must_use]
    pub fn route(&self, dest: NodeId) -> Option<NodeId> {
        self.sim.nodes[self.node.index()].fib.next_hop(dest)
    }

    /// The run's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.sim.rng
    }

    /// The simulator's one `T`, created with `T::default()` on the first
    /// request. Every protocol instance of this simulator gets the same
    /// value, including a crashed node's fresh instance; another
    /// simulator has its own.
    ///
    /// The store interns values that protocols exchange by message, such
    /// as BGP's AS paths: a message can carry a small handle into it
    /// instead of the value. It is never a way to learn another router's
    /// state; what a router knows still arrives only in messages.
    pub fn shared<T: Default + 'static>(&mut self) -> Rc<RefCell<T>> {
        let key = TypeId::of::<T>();
        if let Some(value) = self.sim.shared.get(&key) {
            if let Ok(value) = Rc::clone(value).downcast::<RefCell<T>>() {
                return value;
            }
        }
        let value = Rc::new(RefCell::new(T::default()));
        self.sim.shared.insert(key, value.clone());
        value
    }
}

/// The capabilities handed to an application agent.
///
/// Agents send *data packets* through the normal forwarding plane — they
/// cannot touch routing state, which keeps the transport/routing layer
/// separation honest.
pub struct AppContext<'a> {
    sim: &'a mut Simulator,
    node: NodeId,
}

impl std::fmt::Debug for AppContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppContext")
            .field("node", &self.node)
            .field("now", &self.sim.now())
            .finish()
    }
}

impl AppContext<'_> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The node this agent runs on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends a data packet toward `dst` through the FIB, returning its id.
    pub fn send_data(&mut self, dst: NodeId, size_bytes: u32, ttl: u8, tag: u64) -> PacketId {
        let id = PacketId::new(self.sim.next_packet);
        self.sim.next_packet += 1;
        let packet = Packet::new(id, self.node, dst, self.sim.now(), size_bytes)
            .with_ttl(ttl)
            .with_tag(tag);
        let frame = self.sim.frames.data(packet);
        self.sim.inject(frame);
        id
    }

    /// Arms a one-shot timer; the token returns in
    /// [`AppAgent::on_timer`].
    pub fn set_timer(&mut self, after: SimDuration, token: TimerToken) -> TimerId {
        self.reset_timer(None, after, token)
    }

    /// Re-arms timer `id` (or arms a fresh one); see
    /// [`ProtocolContext::reset_timer`].
    pub fn reset_timer(
        &mut self,
        id: Option<TimerId>,
        after: SimDuration,
        token: TimerToken,
    ) -> TimerId {
        self.sim
            .reset_timer(id, self.node, TimerTarget::App, after, token)
    }

    /// Cancels a pending timer; harmless if it already fired.
    pub fn cancel_timer(&mut self, id: TimerId) {
        let _ = self.sim.timers.take(id);
    }

    /// The run's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.sim.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_path_accessors() {
        let nodes = vec![NodeId::new(0), NodeId::new(1)];
        let complete = ForwardingPath::Complete(nodes.clone());
        assert!(complete.is_complete());
        assert_eq!(complete.nodes(), &nodes[..]);
        let broken = ForwardingPath::Broken(nodes.clone());
        assert!(!broken.is_complete());
        assert_eq!(broken.nodes(), &nodes[..]);
        let looped = ForwardingPath::Loop(nodes.clone());
        assert!(!looped.is_complete());
    }

    #[test]
    fn builder_assigns_dense_node_ids() {
        let mut b = SimulatorBuilder::new();
        let ids = b.add_nodes(5);
        assert_eq!(ids, (0..5).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn neighbors_follow_link_insertion_order() {
        let mut b = SimulatorBuilder::new();
        let n = b.add_nodes(4);
        b.add_link(n[0], n[2], LinkConfig::default()).unwrap();
        b.add_link(n[0], n[1], LinkConfig::default()).unwrap();
        b.add_link(n[0], n[3], LinkConfig::default()).unwrap();
        let sim = b.build().unwrap();
        assert_eq!(sim.neighbors(n[0]), vec![n[2], n[1], n[3]]);
        assert_eq!(sim.neighbors(n[1]), vec![n[0]]);
    }

    #[test]
    fn link_lookup_is_symmetric() {
        let mut b = SimulatorBuilder::new();
        let n = b.add_nodes(3);
        let link = b.add_link(n[0], n[1], LinkConfig::default()).unwrap();
        let sim = b.build().unwrap();
        assert_eq!(sim.link_between(n[0], n[1]), Some(link));
        assert_eq!(sim.link_between(n[1], n[0]), Some(link));
        assert_eq!(sim.link_between(n[0], n[2]), None);
        assert_eq!(sim.link_endpoints(link), (n[0], n[1]));
    }

    #[test]
    fn stats_start_at_zero() {
        let mut b = SimulatorBuilder::new();
        b.add_node();
        let sim = b.build().unwrap();
        assert_eq!(sim.stats(), SimStats::default());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.num_nodes(), 1);
        assert_eq!(sim.num_links(), 0);
    }

    #[test]
    fn scheduling_failures_on_unknown_links_errors() {
        let mut b = SimulatorBuilder::new();
        b.add_node();
        let mut sim = b.build().unwrap();
        let bogus = LinkId::new(9);
        assert!(sim
            .schedule_link_failure(SimTime::from_secs(1), bogus)
            .is_err());
        assert!(sim
            .schedule_link_recovery(SimTime::from_secs(1), bogus)
            .is_err());
    }

    #[test]
    fn every_public_scheduling_call_rejects_a_past_time() {
        let mut b = SimulatorBuilder::new();
        let (n0, n1) = (b.add_node(), b.add_node());
        b.add_link(n0, n1, LinkConfig::default()).unwrap();
        let mut sim = b.build().unwrap();
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        let (past, now) = (SimTime::from_secs(1), SimTime::from_secs(2));
        let in_the_past: Result<(), _> = Err(BuildError::InThePast { at: past, now });
        let link = LinkId::new(0);
        assert_eq!(
            sim.schedule_default_packet(past, n0, n1).map(|_| ()),
            in_the_past
        );
        assert_eq!(sim.schedule_link_failure(past, link), in_the_past);
        assert_eq!(sim.schedule_link_recovery(past, link), in_the_past);
        assert_eq!(
            sim.schedule_link_impairment(past, link, Impairment::NONE),
            in_the_past
        );
        let cbr = CbrSource {
            src: n0,
            dst: n1,
            start: past,
            end: SimTime::from_secs(3),
            gap: SimDuration::from_millis(50),
            size_bytes: 1000,
            ttl: 64,
        };
        assert_eq!(sim.schedule_cbr(cbr).map(|_| ()), in_the_past);
        // A source with no ticks schedules nothing, so its start may lie
        // anywhere.
        let empty = CbrSource { end: past, ..cbr };
        assert_eq!(sim.schedule_cbr(empty).map(|r| r.is_empty()), Ok(true));
        let fresh: Box<dyn RoutingProtocol> = Box::new(NoRoutes);
        assert_eq!(
            sim.schedule_node_crash_restart(past, n0, SimDuration::from_secs(5), fresh)
                .map(|_| ()),
            in_the_past
        );
        // Nothing was scheduled, and now is still a valid time.
        assert_eq!(sim.stats().events_processed, 0);
        assert!(sim.schedule_default_packet(now, n0, n1).is_ok());
    }

    /// A protocol that installs nothing.
    struct NoRoutes;

    impl RoutingProtocol for NoRoutes {
        fn name(&self) -> &'static str {
            "none"
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
}
