//! Links and their directed channels.
//!
//! An undirected link between two routers is modeled as two independent
//! directed *channels*, each with its own drop-tail queue, transmitter and
//! propagation pipe. Control and data traffic share the same queue, so
//! routing messages experience (and contribute to) queueing exactly like the
//! paper's IRLSim setup.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::ident::NodeId;
use crate::impairment::Impairment;
use crate::packet::Packet;
use crate::protocol::SharedPayload;
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// Per-link physical parameters.
///
/// Defaults follow the paper's §5 setup: unit routing cost, 1 ms propagation
/// delay, 10 Mb/s transmission rate, a 20-packet queue, and 50 ms failure
/// detection latency. The paper notes "the exact values of these parameters
/// should have little impact on the results"; the ablation benches verify
/// that claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Routing metric for this link (paper: 1 everywhere).
    pub cost: u32,
    /// One-way propagation delay.
    pub propagation_delay: SimDuration,
    /// Transmission rate in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum number of frames waiting in the output queue
    /// (excluding the frame currently being serialized).
    pub queue_capacity: usize,
    /// Delay between a physical failure/repair and its detection by the two
    /// attached nodes.
    pub detection_delay: SimDuration,
    /// Stochastic channel imperfections (loss, jitter, reordering). The
    /// default is [`Impairment::NONE`]: a clean link, as in the paper.
    pub impairment: Impairment,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            cost: 1,
            propagation_delay: SimDuration::from_millis(1),
            bandwidth_bps: 10_000_000,
            queue_capacity: 20,
            detection_delay: SimDuration::from_millis(50),
            impairment: Impairment::NONE,
        }
    }
}

impl LinkConfig {
    /// Time to serialize `bytes` onto the wire at this link's bandwidth.
    ///
    /// # Examples
    ///
    /// ```
    /// use netsim::link::LinkConfig;
    /// use netsim::time::SimDuration;
    ///
    /// let cfg = LinkConfig::default(); // 10 Mb/s
    /// assert_eq!(cfg.serialization_delay(1250), SimDuration::from_millis(1));
    /// ```
    #[must_use]
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        let bits = bytes as u64 * 8;
        // Round up to the next nanosecond so zero-size frames still take
        // nonzero slots only if the link is infinitely fast.
        let nanos = (bits * 1_000_000_000).div_ceil(self.bandwidth_bps);
        SimDuration::from_nanos(nanos)
    }
}

/// What a [`Frame`] carries, and so how a channel treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    /// A forwarded data packet.
    Data,
    /// A datagram routing-protocol message.
    Control,
    /// A routing-protocol message on a reliable session: it emulates a
    /// TCP session, so queue overflow never drops it (the sender would
    /// have retransmitted) and only link failure does (after which the
    /// session itself resets).
    Reliable,
}

/// Anything occupying a channel, as a handle: a data packet or a control
/// message held in the simulator's [`Frames`], plus the two facts a
/// channel needs inline, the wire size and the kind.
///
/// A frame's payload stays in one place from the moment it is sent (or,
/// for a data packet, injected or scheduled for injection) until it is
/// delivered or lost, while the handle is copied between the channel
/// queues, the transmitter and the calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame {
    slot: u32,
    bytes: u32,
    kind: FrameKind,
}

const _: () = assert!(size_of::<Frame>() <= 16);

impl Frame {
    /// Wire size used for serialization delay.
    #[must_use]
    pub(crate) fn size_bytes(self) -> usize {
        self.bytes as usize
    }

    /// Whether the frame is a data packet.
    pub(crate) fn is_data(self) -> bool {
        self.kind == FrameKind::Data
    }

    /// Whether the frame is a control message on a reliable session.
    pub(crate) fn is_reliable(self) -> bool {
        self.kind == FrameKind::Reliable
    }
}

/// A frame's payload, taken out of [`Frames`] when the frame is delivered
/// or lost.
#[derive(Debug)]
pub(crate) enum Contents {
    /// A data packet.
    Data(Packet),
    /// A control message's payload. Its sender is the sending channel's
    /// tail node.
    Control(SharedPayload),
}

/// The payloads of every frame a simulator holds, each in its own slab
/// slot, named by [`Frame`] handles.
#[derive(Debug, Default)]
pub(crate) struct Frames {
    packets: Slab<Packet>,
    control: Slab<SharedPayload>,
}

impl Frames {
    /// Stores a data packet and returns its frame.
    pub(crate) fn data(&mut self, packet: Packet) -> Frame {
        let bytes = packet.size_bytes;
        Frame {
            slot: self.packets.insert(packet),
            bytes,
            kind: FrameKind::Data,
        }
    }

    /// Stores a control message of wire size `bytes` and returns its
    /// frame.
    pub(crate) fn control(&mut self, payload: SharedPayload, bytes: u32, reliable: bool) -> Frame {
        Frame {
            slot: self.control.insert(payload),
            bytes,
            kind: if reliable {
                FrameKind::Reliable
            } else {
                FrameKind::Control
            },
        }
    }

    /// The packet of a data frame still held; `None` for a control frame.
    pub(crate) fn packet_mut(&mut self, frame: Frame) -> Option<&mut Packet> {
        if frame.is_data() {
            self.packets.get_mut(frame.slot)
        } else {
            None
        }
    }

    /// Takes a frame's payload out and frees its slot; `None` if the frame
    /// is no longer held.
    pub(crate) fn take(&mut self, frame: Frame) -> Option<Contents> {
        if frame.is_data() {
            self.packets.remove(frame.slot).map(Contents::Data)
        } else {
            self.control.remove(frame.slot).map(Contents::Control)
        }
    }

    /// The numbers of data packets and control messages held.
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.packets.len(), self.control.len())
    }
}

/// One direction of a link.
#[derive(Debug)]
pub(crate) struct Channel {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) config: LinkConfig,
    pub(crate) up: bool,
    /// Bumped whenever in-progress transmissions are invalidated
    /// (link failure); stale serialization-complete events compare epochs
    /// and are ignored.
    pub(crate) epoch: u64,
    /// Frame currently being serialized by the transmitter, if any.
    pub(crate) transmitting: Option<Frame>,
    /// Frames waiting behind the transmitter.
    pub(crate) queue: VecDeque<Frame>,
    /// Earliest time the next *reliable* frame may arrive. Impairment loss
    /// turns into retransmission delay for reliable sessions, and this
    /// high-water mark keeps the emulated TCP stream in order: a frame sent
    /// after a retransmitted one cannot overtake it.
    pub(crate) reliable_ready_at: SimTime,
    /// The last frame size serialized and its serialization delay, so a
    /// run of equal-size frames divides once. Only the impairment of
    /// `config` ever changes, never its bandwidth.
    last_serialization: (usize, SimDuration),
}

/// Outcome of offering a frame to a channel's queue.
#[derive(Debug)]
pub(crate) enum EnqueueOutcome {
    /// The frame went straight to the transmitter; serialization must be
    /// scheduled for the returned duration.
    StartTransmit(SimDuration),
    /// The frame joined the queue behind an ongoing transmission.
    Queued,
    /// The queue was full and the frame was refused.
    Dropped,
}

impl Channel {
    pub(crate) fn new(from: NodeId, to: NodeId, config: LinkConfig) -> Self {
        Channel {
            from,
            to,
            config,
            up: true,
            epoch: 0,
            transmitting: None,
            queue: VecDeque::new(),
            reliable_ready_at: SimTime::ZERO,
            last_serialization: (0, config.serialization_delay(0)),
        }
    }

    /// [`LinkConfig::serialization_delay`] of `frame` on this channel.
    fn serialization_delay(&mut self, frame: Frame) -> SimDuration {
        let bytes = frame.size_bytes();
        if self.last_serialization.0 != bytes {
            self.last_serialization = (bytes, self.config.serialization_delay(bytes));
        }
        self.last_serialization.1
    }

    /// Offers a frame for transmission.
    ///
    /// Frames are accepted even while the link is down: the sending node has
    /// not yet detected the failure, so from its point of view the interface
    /// is healthy. Such frames are lost when serialization completes.
    #[inline]
    pub(crate) fn offer(&mut self, frame: Frame) -> EnqueueOutcome {
        if self.transmitting.is_none() {
            let delay = self.serialization_delay(frame);
            self.transmitting = Some(frame);
            EnqueueOutcome::StartTransmit(delay)
        } else if self.queue.len() < self.config.queue_capacity || frame.is_reliable() {
            self.queue.push_back(frame);
            EnqueueOutcome::Queued
        } else {
            EnqueueOutcome::Dropped
        }
    }

    /// Completes the in-progress transmission, returning the transmitted
    /// frame and, if another frame starts serializing, its delay.
    /// Returns `None` when no transmission is in progress.
    #[inline]
    pub(crate) fn finish_transmit(&mut self) -> Option<(Frame, Option<SimDuration>)> {
        let done = self.transmitting.take()?;
        let next_delay = self.queue.pop_front().map(|next| {
            let delay = self.serialization_delay(next);
            self.transmitting = Some(next);
            delay
        });
        Some((done, next_delay))
    }

    /// Drops all queued and in-flight state (used on link failure to model
    /// frames lost on the wire).
    pub(crate) fn clear(&mut self) -> Vec<Frame> {
        self.epoch += 1;
        // The failure resets any reliable session running over this
        // channel, so its in-order backlog dies with it.
        self.reliable_ready_at = SimTime::ZERO;
        let mut lost: Vec<Frame> = self.transmitting.take().into_iter().collect();
        lost.extend(self.queue.drain(..));
        lost
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use crate::ident::PacketId;
    use crate::protocol::Payload;
    use crate::time::SimTime;

    fn data_frame(frames: &mut Frames, size: u32) -> Frame {
        frames.data(Packet::new(
            PacketId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            size,
        ))
    }

    fn channel(capacity: usize) -> Channel {
        Channel::new(
            NodeId::new(0),
            NodeId::new(1),
            LinkConfig {
                queue_capacity: capacity,
                ..LinkConfig::default()
            },
        )
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let cfg = LinkConfig::default();
        assert_eq!(cfg.serialization_delay(1250), SimDuration::from_millis(1));
        assert_eq!(cfg.serialization_delay(2500), SimDuration::from_millis(2));
        assert_eq!(cfg.serialization_delay(0), SimDuration::ZERO);
    }

    #[test]
    fn serialization_delay_rounds_up() {
        let cfg = LinkConfig {
            bandwidth_bps: 3,
            ..LinkConfig::default()
        };
        // 8 bits at 3 b/s = 2.666..s, rounded up to the next nanosecond.
        assert_eq!(
            cfg.serialization_delay(1),
            SimDuration::from_nanos(2_666_666_667)
        );
    }

    #[test]
    fn first_frame_starts_transmitting() {
        let mut frames = Frames::default();
        let mut ch = channel(2);
        match ch.offer(data_frame(&mut frames, 1250)) {
            EnqueueOutcome::StartTransmit(d) => assert_eq!(d, SimDuration::from_millis(1)),
            other => panic!("expected StartTransmit, got {other:?}"),
        }
        assert!(ch.transmitting.is_some());
    }

    #[test]
    fn overflow_drops_tail() {
        let mut frames = Frames::default();
        let mut ch = channel(1);
        assert!(matches!(
            ch.offer(data_frame(&mut frames, 100)),
            EnqueueOutcome::StartTransmit(_)
        ));
        assert!(matches!(
            ch.offer(data_frame(&mut frames, 100)),
            EnqueueOutcome::Queued
        ));
        assert!(matches!(
            ch.offer(data_frame(&mut frames, 100)),
            EnqueueOutcome::Dropped
        ));
    }

    #[test]
    fn reliable_control_bypasses_capacity() {
        let mut frames = Frames::default();
        let mut ch = channel(0);
        assert!(matches!(
            ch.offer(data_frame(&mut frames, 100)),
            EnqueueOutcome::StartTransmit(_)
        ));

        #[derive(Debug)]
        struct Dummy;
        impl Payload for Dummy {
            fn size_bytes(&self) -> usize {
                10
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let ctrl = frames.control(Rc::new(Dummy), 30, true);
        assert!(matches!(ch.offer(ctrl), EnqueueOutcome::Queued));

        let unreliable = frames.control(Rc::new(Dummy), 30, false);
        assert!(matches!(ch.offer(unreliable), EnqueueOutcome::Dropped));
    }

    #[test]
    fn finish_transmit_advances_queue() {
        let mut frames = Frames::default();
        let mut ch = channel(4);
        ch.offer(data_frame(&mut frames, 1250));
        ch.offer(data_frame(&mut frames, 2500));
        let (_done, next) = ch.finish_transmit().unwrap();
        assert_eq!(next, Some(SimDuration::from_millis(2)));
        let (_done, next) = ch.finish_transmit().unwrap();
        assert_eq!(next, None);
    }

    /// The per-channel memo never changes a delay: alternating data,
    /// control and ACK-sized frames on several bandwidths, offered and
    /// finished one after another, each get exactly
    /// `LinkConfig::serialization_delay` of their size.
    #[test]
    fn memoized_delay_equals_serialization_delay() {
        #[derive(Debug)]
        struct Sized(usize);
        impl Payload for Sized {
            fn size_bytes(&self) -> usize {
                self.0
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut frames = Frames::default();
        // A control frame's wire size is its payload plus a 20-byte header.
        let control = |frames: &mut Frames, bytes: usize| {
            frames.control(Rc::new(Sized(bytes)), bytes as u32 + 20, true)
        };
        for bandwidth_bps in [3, 1_000_000, 10_000_000, 155_520_000] {
            let config = LinkConfig {
                bandwidth_bps,
                queue_capacity: 64,
                ..LinkConfig::default()
            };
            let mut ch = Channel::new(NodeId::new(0), NodeId::new(1), config);
            // Data 1000 B, control 40 + 20 B, ACK 40 B, repeats and a
            // zero-size frame, so the memo both hits and misses.
            let mut offered = || {
                [
                    data_frame(&mut frames, 1000),
                    data_frame(&mut frames, 1000),
                    control(&mut frames, 40),
                    data_frame(&mut frames, 40),
                    data_frame(&mut frames, 1000),
                    control(&mut frames, 480),
                    control(&mut frames, 480),
                    data_frame(&mut frames, 0),
                    data_frame(&mut frames, 40),
                    data_frame(&mut frames, 1000),
                ]
            };
            let sizes: Vec<usize> = offered().iter().map(|f| f.size_bytes()).collect();
            let mut delays = Vec::new();
            for frame in offered() {
                if let EnqueueOutcome::StartTransmit(d) = ch.offer(frame) {
                    delays.push(d);
                }
            }
            while let Some((_, next)) = ch.finish_transmit() {
                delays.extend(next);
            }
            let expected: Vec<SimDuration> = sizes
                .iter()
                .map(|&b| config.serialization_delay(b))
                .collect();
            assert_eq!(delays, expected, "{bandwidth_bps} b/s");
            // Offered to an idle channel one at a time, each frame starts
            // transmitting at once.
            for (frame, want) in offered().into_iter().zip(&expected) {
                match ch.offer(frame) {
                    EnqueueOutcome::StartTransmit(d) => assert_eq!(d, *want),
                    other => panic!("expected StartTransmit, got {other:?}"),
                }
                ch.finish_transmit();
            }
        }
    }

    #[test]
    fn clear_returns_all_frames() {
        let mut frames = Frames::default();
        let mut ch = channel(4);
        let offered: Vec<Frame> = (0..3).map(|_| data_frame(&mut frames, 100)).collect();
        for &frame in &offered {
            ch.offer(frame);
        }
        let lost = ch.clear();
        assert_eq!(lost.len(), 3);
        assert_eq!(lost, offered);
        assert!(ch.transmitting.is_none());
        assert!(ch.queue.is_empty());
    }

    /// A frame's payload stays in the store until it is taken, once, and
    /// a data frame's packet can be changed in place meanwhile.
    #[test]
    fn frames_hold_payloads_until_taken() {
        #[derive(Debug)]
        struct Dummy;
        impl Payload for Dummy {
            fn size_bytes(&self) -> usize {
                10
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut frames = Frames::default();
        let data = data_frame(&mut frames, 1000);
        let ctrl = frames.control(Rc::new(Dummy), 30, false);
        assert_eq!((data.size_bytes(), ctrl.size_bytes()), (1000, 30));
        assert!(data.is_data() && !data.is_reliable());
        assert!(!ctrl.is_data() && !ctrl.is_reliable());
        assert_eq!(frames.len(), (1, 1));
        frames.packet_mut(data).expect("held").ttl = 3;
        assert!(frames.packet_mut(ctrl).is_none(), "not a data frame");
        match frames.take(data) {
            Some(Contents::Data(packet)) => assert_eq!(packet.ttl, 3),
            other => panic!("expected the packet, got {other:?}"),
        }
        assert!(matches!(frames.take(ctrl), Some(Contents::Control(_))));
        assert_eq!(frames.len(), (0, 0));
        assert!(frames.take(data).is_none() && frames.take(ctrl).is_none());
        assert!(frames.packet_mut(data).is_none());
    }
}
