//! A window-limited ARQ transport (go-back-N), for the paper's §6
//! "end-to-end TCP performance during routing convergence" future work.
//!
//! The design follows the transport used by the prior study the paper
//! cites (\[25\] Shankar et al.): "a simple flow control with a maximal
//! window size and retransmission after timeout" — a fixed window,
//! cumulative ACKs, and go-back-N retransmission on a fixed RTO. That is
//! deliberately simpler than full TCP (no slow start, no RTT estimation),
//! isolating the interaction between *reliability mechanisms* and
//! *routing convergence*.

use netsim::app::AppAgent;
use netsim::ident::NodeId;
use netsim::packet::Packet;
use netsim::protocol::{TimerId, TimerToken};
use netsim::simulator::AppContext;
use netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Go-back-N parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoBackNConfig {
    /// Maximum unacknowledged packets in flight.
    pub window: usize,
    /// Initial retransmission timeout.
    pub rto: SimDuration,
    /// Ceiling for the exponentially backed-off timeout. Consecutive
    /// timeouts without ACK progress double the effective RTO up to this
    /// cap; any cumulative-ACK advance resets it to [`GoBackNConfig::rto`].
    /// Set equal to `rto` to recover the original fixed-RTO transport.
    pub rto_cap: SimDuration,
    /// Total data packets to transfer.
    pub total_packets: u64,
    /// Data packet payload size.
    pub packet_bytes: u32,
    /// ACK packet size.
    pub ack_bytes: u32,
    /// TTL for both directions.
    pub ttl: u8,
}

impl Default for GoBackNConfig {
    fn default() -> Self {
        GoBackNConfig {
            window: 8,
            rto: SimDuration::from_secs(1),
            rto_cap: SimDuration::from_secs(32),
            total_packets: 1000,
            packet_bytes: 1000,
            ack_bytes: 40,
            ttl: netsim::packet::DEFAULT_TTL,
        }
    }
}

/// Tag encoding: `flow << 48 | is_ack << 40 | seq`.
mod tag {
    pub fn data(flow: u16, seq: u64) -> u64 {
        assert!(seq < (1 << 40), "sequence number overflow");
        (u64::from(flow) << 48) | seq
    }

    pub fn ack(flow: u16, cumulative: u64) -> u64 {
        assert!(cumulative < (1 << 40), "ack number overflow");
        (u64::from(flow) << 48) | (1 << 40) | cumulative
    }

    pub fn decode(tag: u64) -> (u16, bool, u64) {
        (
            (tag >> 48) as u16,
            (tag >> 40) & 1 == 1,
            tag & ((1 << 40) - 1),
        )
    }
}

/// What a finished source agent reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowFlowReport {
    /// Cumulative in-order acknowledged packets over time.
    pub progress: Vec<(SimTime, u64)>,
    /// Data packets retransmitted.
    pub retransmissions: u64,
    /// When the transfer finished, if it did.
    pub completed_at: Option<SimTime>,
    /// The configured transfer size.
    pub total: u64,
}

impl WindowFlowReport {
    /// Cumulative acked packets at time `t` (step interpolation).
    #[must_use]
    pub fn acked_at(&self, t: SimTime) -> u64 {
        self.progress
            .iter()
            .rev()
            .find(|&&(when, _)| when <= t)
            .map_or(0, |&(_, n)| n)
    }

    /// Goodput (packets/s) in the window `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    #[must_use]
    pub fn goodput(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from < to, "empty goodput window");
        let span = to.saturating_since(from).as_secs_f64();
        (self.acked_at(to) - self.acked_at(from)) as f64 / span
    }
}

const TIMER_RTO: u64 = 1;

/// The sending endpoint of a go-back-N flow.
#[derive(Debug)]
pub struct GoBackNSource {
    config: GoBackNConfig,
    peer: NodeId,
    flow: u16,
    base: u64,
    next_seq: u64,
    current_rto: SimDuration,
    rto_timer: Option<TimerId>,
    progress: Vec<(SimTime, u64)>,
    retransmissions: u64,
    completed_at: Option<SimTime>,
}

impl GoBackNSource {
    /// Creates a source that will push `config.total_packets` to `peer`.
    #[must_use]
    pub fn new(config: GoBackNConfig, peer: NodeId, flow: u16) -> Self {
        GoBackNSource {
            config,
            peer,
            flow,
            base: 0,
            next_seq: 0,
            current_rto: config.rto,
            rto_timer: None,
            progress: Vec::new(),
            retransmissions: 0,
            completed_at: None,
        }
    }

    /// The report of everything that happened (read after the run via
    /// [`netsim::Simulator::take_app`] + downcast).
    #[must_use]
    pub fn report(&self) -> WindowFlowReport {
        WindowFlowReport {
            progress: self.progress.clone(),
            retransmissions: self.retransmissions,
            completed_at: self.completed_at,
            total: self.config.total_packets,
        }
    }

    fn send_window(&mut self, ctx: &mut AppContext<'_>) {
        while self.next_seq < self.base + self.config.window as u64
            && self.next_seq < self.config.total_packets
        {
            ctx.send_data(
                self.peer,
                self.config.packet_bytes,
                self.config.ttl,
                tag::data(self.flow, self.next_seq),
            );
            self.next_seq += 1;
        }
        self.arm_rto(ctx);
    }

    fn arm_rto(&mut self, ctx: &mut AppContext<'_>) {
        let old = self.rto_timer.take();
        if self.base < self.config.total_packets {
            self.rto_timer =
                Some(ctx.reset_timer(old, self.current_rto, TimerToken::compose(TIMER_RTO, 0)));
        } else if let Some(old) = old {
            ctx.cancel_timer(old);
        }
    }
}

impl AppAgent for GoBackNSource {
    fn name(&self) -> &'static str {
        "gbn-source"
    }

    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        self.progress.push((ctx.now(), 0));
        self.send_window(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppContext<'_>, packet: &Packet) {
        let (flow, is_ack, cumulative) = tag::decode(packet.tag);
        if flow != self.flow || !is_ack || cumulative <= self.base {
            return;
        }
        self.base = cumulative;
        self.current_rto = self.config.rto;
        self.progress.push((ctx.now(), self.base));
        if self.base >= self.config.total_packets {
            self.completed_at = Some(ctx.now());
            if let Some(t) = self.rto_timer.take() {
                ctx.cancel_timer(t);
            }
            return;
        }
        self.send_window(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AppContext<'_>, token: TimerToken) {
        debug_assert_eq!(token.kind(), TIMER_RTO);
        self.rto_timer = None;
        // Go-back-N: resend the whole outstanding window.
        for seq in self.base..self.next_seq {
            ctx.send_data(
                self.peer,
                self.config.packet_bytes,
                self.config.ttl,
                tag::data(self.flow, seq),
            );
            self.retransmissions += 1;
        }
        // A lost window means the path is likely down; back off so the
        // retransmit storm does not feed any transient forwarding loop.
        self.current_rto = (self.current_rto * 2).min(self.config.rto_cap);
        self.arm_rto(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The receiving endpoint: accepts in-order data, sends cumulative ACKs.
#[derive(Debug)]
pub struct GoBackNSink {
    config: GoBackNConfig,
    peer: NodeId,
    flow: u16,
    expected: u64,
}

impl GoBackNSink {
    /// Creates the sink for a flow from `peer`.
    #[must_use]
    pub fn new(config: GoBackNConfig, peer: NodeId, flow: u16) -> Self {
        GoBackNSink {
            config,
            peer,
            flow,
            expected: 0,
        }
    }

    /// In-order packets received so far.
    #[must_use]
    pub fn received_in_order(&self) -> u64 {
        self.expected
    }
}

impl AppAgent for GoBackNSink {
    fn name(&self) -> &'static str {
        "gbn-sink"
    }

    fn on_packet(&mut self, ctx: &mut AppContext<'_>, packet: &Packet) {
        let (flow, is_ack, seq) = tag::decode(packet.tag);
        if flow != self.flow || is_ack {
            return;
        }
        if seq == self.expected {
            self.expected += 1;
        }
        // Always (re-)acknowledge the cumulative in-order prefix; duplicate
        // ACKs are harmless and out-of-order arrivals elicit them.
        ctx.send_data(
            self.peer,
            self.config.ack_bytes,
            self.config.ttl,
            tag::ack(self.flow, self.expected),
        );
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        let t = tag::data(7, 123_456);
        assert_eq!(tag::decode(t), (7, false, 123_456));
        let t = tag::ack(65535, (1 << 40) - 1);
        assert_eq!(tag::decode(t), (65535, true, (1 << 40) - 1));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn oversized_sequence_is_rejected() {
        tag::data(0, 1 << 40);
    }

    #[test]
    fn report_interpolation() {
        let report = WindowFlowReport {
            progress: vec![
                (SimTime::from_secs(1), 0),
                (SimTime::from_secs(2), 10),
                (SimTime::from_secs(4), 30),
            ],
            retransmissions: 0,
            completed_at: None,
            total: 100,
        };
        assert_eq!(report.acked_at(SimTime::from_millis(500)), 0);
        assert_eq!(report.acked_at(SimTime::from_secs(2)), 10);
        assert_eq!(report.acked_at(SimTime::from_secs(3)), 10);
        assert_eq!(report.acked_at(SimTime::from_secs(9)), 30);
        let g = report.goodput(SimTime::from_secs(2), SimTime::from_secs(4));
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn default_config_is_simple_flow_control() {
        let cfg = GoBackNConfig::default();
        assert_eq!(cfg.window, 8);
        assert_eq!(cfg.rto, SimDuration::from_secs(1));
        assert_eq!(cfg.rto_cap, SimDuration::from_secs(32));
    }

    #[test]
    fn backoff_doubles_to_cap_and_resets() {
        let cfg = GoBackNConfig::default();
        let mut rto = cfg.rto;
        for _ in 0..10 {
            rto = (rto * 2).min(cfg.rto_cap);
        }
        assert_eq!(rto, cfg.rto_cap, "backoff must saturate at the cap");
        // An ACK advance resets to the initial timeout (mirrors
        // `GoBackNSource::on_packet`).
        rto = cfg.rto;
        assert_eq!(rto, SimDuration::from_secs(1));
    }
}
