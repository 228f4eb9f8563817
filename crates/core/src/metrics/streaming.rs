//! Single-pass computation of [`RunSummary`].
//!
//! [`SummaryObserver`] computes every metric the paper reports as an
//! online fold: one [`observe`](SummaryObserver::observe) call per
//! [`TraceEvent`], in trace order. It is a [`TraceSink`], and the runner
//! attaches it to the simulator from failure selection on, so a run's
//! summary is finished when the run is: no run keeps or replays a trace
//! to be summarized. The routes the warm-up installed reach it as a
//! [`FibReplay`] ([`SummaryObserver::with_routes`]).
//!
//! Each fold mirrors one of the post-hoc analyzers in the sibling modules
//! (drops, loops, path history, switch-overs, stretch, routing convergence
//! and mean delay) with the same summation order, so the result is equal
//! to theirs bit for bit. The test suite keeps the seven-pass composition
//! of those analyzers as its reference oracle and checks the equality
//! across every protocol family; golden summaries pin the values.

use netsim::dense::DenseMap;
use netsim::ident::{NodeId, PacketId};
use netsim::packet::DropReason;
use netsim::simulator::SimStats;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{TraceEvent, TraceSink};
use topology::graph::{Edge, Graph};
use topology::shortest_path::bfs;

use crate::metrics::convergence::{FibReplay, PathOutcome};
use crate::metrics::drops::DropCounts;
use crate::metrics::summary::{summarize, RunSummary};
use crate::metrics::MetricsError;
use crate::runner::{Flow, RunResult};

/// In-flight per-packet loop-forensics state (recycled for another packet
/// as soon as this one resolves, unlike the post-hoc analyzer which
/// retains every packet's full hop log until the end).
#[derive(Default)]
struct PacketLog {
    visited: Vec<NodeId>,
    looped: bool,
}

/// The entry for `id` in a table indexed by packet id, growing the table
/// on first touch. Packet ids are dense from 0 within a run, so the table
/// ends as long as the run's packet count.
fn entry<T: Default>(table: &mut Vec<T>, id: PacketId) -> &mut T {
    let i = id.index();
    if i >= table.len() {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

/// Incrementally folds a run's [`TraceEvent`]s into a [`RunSummary`].
///
/// Feed events in trace (time) order via [`observe`](Self::observe), then
/// call [`finish`](Self::finish) with the run's engine counters.
pub struct SummaryObserver {
    flow: Flow,
    t_fail: SimTime,
    detection: SimDuration,
    // Shortest-path baselines for stretch (pre-/post-failure epochs).
    dist_before: u32,
    dist_after: u32,
    // Drops and delivery.
    drops: DropCounts,
    delivered: u64,
    // Mean end-to-end delay.
    delay_sum: f64,
    delay_count: u64,
    // Routing convergence: the last post-failure FIB change anywhere.
    last_route_change: Option<SimTime>,
    // Forwarding-path history of the first flow.
    replay: FibReplay,
    baseline_done: bool,
    last_outcome: Option<PathOutcome>,
    transient_paths: usize,
    last_path_change: SimTime,
    // Loop forensics of in-flight packets: `log_of[id]` is 1 + the
    // packet's slot in `logs` (0 = none). A resolved packet's slot goes on
    // `free_logs`, so `logs` grows only to the peak number of packets in
    // flight.
    log_of: Vec<u32>,
    logs: Vec<PacketLog>,
    free_logs: Vec<u32>,
    looped_packets: u64,
    loop_escapes: u64,
    // Switch-over windows for the flow's destination, keyed by node.
    open_windows: DenseMap<SimTime>,
    max_switchover_s: f64,
    // Stretch of the flow's delivered packets; `flow_packets[id]` marks
    // the flow's own packets.
    flow_packets: Vec<bool>,
    stretch_sum: f64,
    stretch_count: u64,
    // End of the run = timestamp of the last event seen.
    last_event_time: Option<SimTime>,
}

impl SummaryObserver {
    /// Creates an observer for one run's context: the topology, the edges
    /// that fail at `t_fail`, the (first) flow being measured and the
    /// configured failure-detection latency.
    ///
    /// # Errors
    ///
    /// [`MetricsError::UnreachableDestination`] if the flow's receiver is
    /// unreachable even before the failure (mirroring the trace-based
    /// stretch oracle).
    pub fn new(
        graph: &Graph,
        failed: &[Edge],
        flow: Flow,
        t_fail: SimTime,
        detection: SimDuration,
    ) -> Result<Self, MetricsError> {
        let dist_before = bfs(graph, flow.sender).distance(flow.receiver).ok_or(
            MetricsError::UnreachableDestination {
                src: flow.sender,
                dst: flow.receiver,
            },
        )?;
        let mut degraded = graph.clone();
        for edge in failed {
            degraded = degraded.without_edge(*edge);
        }
        let dist_after = bfs(&degraded, flow.sender)
            .distance(flow.receiver)
            .unwrap_or(dist_before);
        Ok(SummaryObserver {
            flow,
            t_fail,
            detection,
            dist_before,
            dist_after,
            drops: DropCounts::default(),
            delivered: 0,
            delay_sum: 0.0,
            delay_count: 0,
            last_route_change: None,
            replay: FibReplay::new(graph.num_nodes()),
            baseline_done: false,
            last_outcome: None,
            transient_paths: 0,
            last_path_change: t_fail,
            log_of: Vec::new(),
            logs: Vec::new(),
            free_logs: Vec::new(),
            looped_packets: 0,
            loop_escapes: 0,
            open_windows: DenseMap::new(),
            max_switchover_s: 0.0,
            flow_packets: Vec::new(),
            stretch_sum: 0.0,
            stretch_count: 0,
            last_event_time: None,
        })
    }

    /// Starts the fold from `routes` instead of empty FIBs: the FIB state
    /// left by the route records that came before the observer was
    /// attached.
    #[must_use]
    pub fn with_routes(mut self, routes: FibReplay) -> Self {
        self.replay = routes;
        self
    }

    /// Folds one trace event. Must be called in trace (time) order.
    pub fn observe(&mut self, event: &TraceEvent) {
        let time = event.time();
        self.last_event_time = Some(time);

        // Forwarding-path history: pre-failure events only build FIB
        // state; the steady pre-failure path is walked once, the first
        // time the clock reaches `t_fail`.
        if !self.baseline_done && time >= self.t_fail {
            self.last_outcome = Some(self.replay.walk(self.flow.sender, self.flow.receiver));
            self.baseline_done = true;
        }
        if let TraceEvent::RouteChanged { .. } = event {
            self.replay.apply(event);
            if self.baseline_done {
                let outcome = self.replay.walk(self.flow.sender, self.flow.receiver);
                if self.last_outcome.as_ref() != Some(&outcome) {
                    self.transient_paths += 1;
                    self.last_outcome = Some(outcome);
                    self.last_path_change = time;
                }
            }
        }

        match event {
            TraceEvent::PacketInjected { id, src, dst, .. } => {
                self.log_mut(*id).visited.push(*src);
                if *src == self.flow.sender && *dst == self.flow.receiver {
                    *entry(&mut self.flow_packets, *id) = true;
                }
            }
            TraceEvent::PacketForwarded { id, next_hop, .. } => {
                let log = self.log_mut(*id);
                let newly_looped = !log.looped && log.visited.contains(next_hop);
                log.looped |= newly_looped;
                log.visited.push(*next_hop);
                self.looped_packets += u64::from(newly_looped);
            }
            TraceEvent::PacketDelivered {
                time,
                id,
                hops,
                sent_at,
                ..
            } => {
                self.delivered += 1;
                self.delay_sum += time.saturating_since(*sent_at).as_secs_f64();
                self.delay_count += 1;
                if self.release_log(*id) {
                    self.loop_escapes += 1;
                }
                if self.flow_packets.get(id.index()).copied().unwrap_or(false) {
                    let optimal = if *time < self.t_fail {
                        self.dist_before
                    } else {
                        self.dist_after
                    };
                    self.stretch_sum += f64::from(*hops) / f64::from(optimal.max(1));
                    self.stretch_count += 1;
                }
            }
            TraceEvent::PacketDropped { id, reason, .. } => {
                match reason {
                    DropReason::NoRoute => self.drops.no_route += 1,
                    DropReason::TtlExpired => self.drops.ttl_expired += 1,
                    DropReason::LinkDown => self.drops.link_down += 1,
                    DropReason::QueueOverflow => self.drops.queue_overflow += 1,
                    DropReason::Impaired => self.drops.impaired += 1,
                }
                self.release_log(*id);
            }
            TraceEvent::RouteChanged {
                time,
                node,
                dest,
                new,
                ..
            } => {
                if *time >= self.t_fail {
                    self.last_route_change = Some(*time);
                }
                if *dest == self.flow.receiver {
                    match new {
                        None => {
                            if *time >= self.t_fail {
                                self.open_windows.get_or_insert_with(*node, || *time);
                            }
                        }
                        Some(_) => {
                            if let Some(began) = self.open_windows.remove(*node) {
                                let dur = time.saturating_since(began).as_secs_f64();
                                self.max_switchover_s = self.max_switchover_s.max(dur);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// The loop log of in-flight packet `id`, started on first touch.
    fn log_mut(&mut self, id: PacketId) -> &mut PacketLog {
        let slot = entry(&mut self.log_of, id);
        if *slot == 0 {
            let free = match self.free_logs.pop() {
                Some(free) => free,
                None => {
                    self.logs.push(PacketLog::default());
                    (self.logs.len() - 1) as u32
                }
            };
            *slot = free + 1;
        }
        &mut self.logs[(*slot - 1) as usize]
    }

    /// Ends `id`'s loop log, returning whether the packet looped.
    fn release_log(&mut self, id: PacketId) -> bool {
        let Some(slot) = self.log_of.get_mut(id.index()).filter(|s| **s != 0) else {
            return false;
        };
        let free = *slot - 1;
        *slot = 0;
        let log = &mut self.logs[free as usize];
        let looped = log.looped;
        log.visited.clear();
        log.looped = false;
        self.free_logs.push(free);
        looped
    }

    /// Closes every open fold and produces the summary.
    #[must_use]
    pub fn finish(self, stats: &SimStats) -> RunSummary {
        let detect_at = self.t_fail + self.detection;
        let run_end = self.last_event_time.unwrap_or(self.t_fail);
        // Windows never closed by a re-install run to the end of the run.
        let mut max_switchover_s = self.max_switchover_s;
        for (_, began) in self.open_windows.iter() {
            max_switchover_s = max_switchover_s.max(run_end.saturating_since(*began).as_secs_f64());
        }
        RunSummary {
            injected: stats.packets_injected,
            delivered: self.delivered,
            drops: self.drops,
            routing_convergence_s: self
                .last_route_change
                .map_or(0.0, |t| t.saturating_since(detect_at).as_secs_f64()),
            forwarding_convergence_s: if self.last_path_change > self.t_fail {
                self.last_path_change
                    .saturating_since(detect_at)
                    .as_secs_f64()
            } else {
                0.0
            },
            transient_paths: self.transient_paths,
            looped_packets: self.looped_packets,
            loop_escapes: self.loop_escapes,
            mean_delay_s: (self.delay_count > 0).then(|| self.delay_sum / self.delay_count as f64),
            max_switchover_s,
            mean_stretch: if self.stretch_count == 0 {
                1.0
            } else {
                self.stretch_sum / self.stretch_count as f64
            },
            control_messages: stats.control_messages_sent,
            control_bytes: stats.control_bytes_sent,
        }
    }
}

impl TraceSink for SummaryObserver {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.observe(event);
    }
}

/// The summary of a finished run; the same function as [`summarize`].
/// Nothing in the workspace calls it: it remains only because the
/// benchmark in `perfbench/` names it, until a change to the benchmark
/// drops it there.
///
/// # Errors
///
/// See [`SummaryObserver::new`].
pub fn summarize_streaming(result: &RunResult) -> Result<RunSummary, MetricsError> {
    summarize(result)
}
