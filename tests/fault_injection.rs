//! End-to-end tests of the fault-injection subsystem: impaired links,
//! crash/restart failures, and the hardened sweep harness.

use convergence::prelude::*;
use netsim::time::SimDuration;
use netsim::trace::TraceEvent;
use topology::mesh::MeshDegree;

/// A paper run with a uniform background impairment on every link.
fn impaired_config(
    protocol: ProtocolKind,
    degree: MeshDegree,
    seed: u64,
    impairment: Impairment,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(protocol, degree, seed);
    cfg.link.impairment = impairment;
    cfg
}

#[test]
fn rip_converges_despite_heavy_background_loss() {
    // 20% of every frame (data and periodic updates alike) vanishes; RIP's
    // periodic full-table updates must still converge routing and deliver
    // most of the flow.
    let cfg = impaired_config(
        ProtocolKind::Rip,
        MeshDegree::D4,
        11,
        Impairment::lossy(0.20),
    );
    let result = run(&cfg).expect("run succeeds under loss");
    let s = summarize(&result).expect("summary");
    assert!(result.stats.frames_impaired > 0, "loss must actually fire");
    // Loss is per hop: a 6-12 hop path survives with 0.8^hops, i.e. only
    // 7-26% of packets arrive. Delivery degrades gracefully; the real
    // claim is that routing still converges underneath.
    assert!(
        s.delivery_ratio() > 0.05,
        "some packets must still arrive, got {:.2}",
        s.delivery_ratio()
    );
    assert!(
        s.routing_convergence_s.is_finite(),
        "routing must reconverge after the failure despite the loss"
    );
}

#[test]
fn dbf_converges_despite_background_loss() {
    let cfg = impaired_config(
        ProtocolKind::Dbf,
        MeshDegree::D4,
        12,
        Impairment::lossy(0.10),
    );
    let result = run(&cfg).expect("run succeeds under loss");
    let s = summarize(&result).expect("summary");
    assert!(result.stats.frames_impaired > 0);
    // 10% per-hop loss over 6-12 hops leaves 0.9^hops = 28-53% delivery.
    assert!(s.delivery_ratio() > 0.2, "got {:.2}", s.delivery_ratio());
    assert!(s.routing_convergence_s.is_finite());
}

#[test]
fn bgp_reliable_control_is_retransmitted_not_lost() {
    // BGP speaks over a reliable (TCP-like) transport: impairment loss
    // turns into retransmission delay, never into a lost update.
    let clean = ExperimentConfig::paper(ProtocolKind::Bgp3, MeshDegree::D4, 13);
    let lossy = impaired_config(
        ProtocolKind::Bgp3,
        MeshDegree::D4,
        13,
        Impairment::lossy(0.15),
    );
    let clean_run = run(&clean).expect("clean run succeeds");
    let lossy_run = run(&lossy).expect("lossy run succeeds");
    assert_eq!(clean_run.stats.control_retransmits, 0);
    assert!(
        lossy_run.stats.control_retransmits > 0,
        "15% loss must force reliable-frame retransmissions"
    );
    let s = summarize(&lossy_run).expect("summary");
    assert!(
        s.routing_convergence_s.is_finite(),
        "BGP-3 must still converge; updates are delayed, not dropped"
    );
}

#[test]
fn impairment_drops_preserve_packet_conservation() {
    for protocol in [ProtocolKind::Rip, ProtocolKind::Bgp3, ProtocolKind::Spf] {
        let cfg = impaired_config(protocol, MeshDegree::D4, 14, Impairment::lossy(0.15));
        let s = summarize(&run(&cfg).expect("run succeeds")).expect("summary");
        assert!(
            s.drops.impaired > 0,
            "{protocol}: expected impairment drops"
        );
        assert_eq!(
            s.injected,
            s.delivered + s.drops.total(),
            "{protocol}: injected != delivered + dropped (impaired drops leak)"
        );
    }
}

#[test]
fn impaired_runs_are_deterministic() {
    // Loss + jitter + reordering all draw from the seeded impairment
    // stream: identical configs must produce byte-identical traces.
    let impairment = Impairment::lossy(0.15)
        .with_jitter(SimDuration::from_millis(5))
        .with_reordering(0.05, SimDuration::from_millis(2));
    let cfg = impaired_config(ProtocolKind::Dbf, MeshDegree::D4, 15, impairment);
    let a = run(&cfg).expect("first run");
    let b = run(&cfg).expect("second run");
    assert!(
        a.trace.iter().eq(b.trace.iter()),
        "impaired traces must be identical event-for-event"
    );
    assert_eq!(
        summarize(&a).expect("summary"),
        summarize(&b).expect("summary")
    );
}

#[test]
fn clean_runs_never_touch_the_impairment_stream() {
    let cfg = ExperimentConfig::paper(ProtocolKind::Rip, MeshDegree::D4, 16);
    let result = run(&cfg).expect("run succeeds");
    assert_eq!(result.stats.frames_impaired, 0);
    assert_eq!(result.stats.control_retransmits, 0);
    assert_eq!(summarize(&result).expect("summary").drops.impaired, 0);
}

#[test]
fn node_crash_restart_recovers_with_cold_state() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 17);
    cfg.failure = FailurePlan::NodeCrashRestart {
        down: SimDuration::from_secs(10),
    };
    let result = run(&cfg).expect("run succeeds");
    let census = result.trace.census();
    assert_eq!(census.node_restarts, 1, "exactly one cold reboot");
    let restart = result.failure.restart.expect("a restart was selected");
    let degree = result.graph.neighbors(restart.node).len() as u64;
    assert_eq!(
        census.link_failures, degree,
        "every adjacent link fails with the router"
    );
    assert_eq!(census.link_recoveries, degree, "and recovers with it");
    // The reboot is visible in the trace at t_fail + down.
    let reboot_at = result
        .trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::NodeRestarted { time, node } if node == restart.node => Some(time),
            _ => None,
        })
        .expect("NodeRestarted event present");
    assert_eq!(reboot_at, result.t_fail + SimDuration::from_secs(10));
    let s = summarize(&result).expect("summary");
    assert!(
        s.routing_convergence_s.is_finite(),
        "routing must absorb the crash and the cold rejoin"
    );
    assert!(s.delivered > 0);
}

#[test]
fn node_crash_restart_is_reproducible() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Rip, MeshDegree::D5, 18);
    cfg.failure = FailurePlan::NodeCrashRestart {
        down: SimDuration::from_secs(5),
    };
    let a = run(&cfg).expect("first run");
    let b = run(&cfg).expect("second run");
    assert!(a.trace.iter().eq(b.trace.iter()));
    assert_eq!(a.failure.restart, b.failure.restart);
    assert_eq!(
        summarize(&a).expect("summary"),
        summarize(&b).expect("summary")
    );
}

#[test]
fn lossy_period_plan_impairs_then_heals_without_link_events() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Bgp3, MeshDegree::D4, 19);
    cfg.failure = FailurePlan::LossyLinkOnPath {
        impairment: Impairment::lossy(0.5),
        duration: SimDuration::from_secs(15),
    };
    let result = run(&cfg).expect("run succeeds");
    let census = result.trace.census();
    assert_eq!(
        census.impairment_changes, 2,
        "one lossy onset and one healing"
    );
    assert_eq!(
        census.link_failures, 0,
        "the link degrades; it never goes down"
    );
    assert!(
        result.stats.frames_impaired > 0,
        "50% loss on the live path must bite"
    );
    assert!(summarize(&result).expect("summary").delivered > 0);
}

#[test]
fn unsatisfiable_sweep_completes_with_typed_errors() {
    // 50 simultaneous link failures cannot leave a 49-node mesh connected
    // (the degree-4 7x7 mesh has 84 edges; 48 are needed for a spanning
    // tree). Every seed must fail with a typed selection error -- and the
    // sweep itself must finish instead of panicking.
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 0);
    cfg.failure = FailurePlan::MultipleLinks { count: 50 };
    let retry = RetryPolicy::default();
    let options = SweepOptions { jobs: 1, retry };
    let outcome = run_sweep(&cfg, 4, 1, options, summarize_streaming, |_| {});
    assert!(outcome.completed.is_empty());
    assert_eq!(outcome.failed.len(), 4);
    assert_eq!(
        outcome.retries(),
        4 * u64::from(retry.max_attempts - 1),
        "every slot exhausts its retries"
    );
    for failure in &outcome.failed {
        assert_eq!(failure.attempts, retry.max_attempts);
        assert!(
            matches!(
                failure.error,
                RunError::Selection(SelectionError::NotEnoughLinks { requested: 50, .. })
            ),
            "expected NotEnoughLinks, got: {}",
            failure.error
        );
    }
}

#[test]
fn satisfiable_sweep_still_completes_every_slot() {
    let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 0);
    let outcome = run_sweep(&cfg, 3, 7000, SweepOptions::default(), summarize, |_| {});
    assert_eq!(outcome.completed.len(), 3);
    assert!(outcome.failed.is_empty());
    assert_eq!(outcome.retries(), 0);
    // A first-try slot is plain `run` on seed base_seed + slot.
    let reference: Vec<RunSummary> = (7000..7003)
        .map(|seed| {
            let cfg = ExperimentConfig {
                seed,
                ..cfg.clone()
            };
            summarize(&run(&cfg).expect("run succeeds")).expect("summary")
        })
        .collect();
    assert_eq!(outcome.completed, reference);
}

#[test]
fn reordering_forces_go_back_n_retransmissions() {
    // Heavy reordering (no loss at all): 30% of data frames are held back
    // 40 ms, long enough for the rest of the window to overtake them. The
    // go-back-N sink only accepts in-sequence packets, so every overtaken
    // frame costs a timeout-driven window retransmission — yet the
    // transfer must still complete, because nothing is ever lost.
    let mut cfg = impaired_config(
        ProtocolKind::Spf,
        MeshDegree::D4,
        21,
        Impairment::NONE.with_reordering(0.30, SimDuration::from_millis(40)),
    );
    // A tight RTO keeps the run short: at 30% reordering nearly every
    // window stalls once, and each stall costs one timeout.
    cfg.traffic.mode = TrafficMode::GoBackN(GoBackNConfig {
        total_packets: 1_000,
        rto: SimDuration::from_millis(200),
        rto_cap: SimDuration::from_secs(2),
        ..GoBackNConfig::default()
    });
    cfg.traffic.lead = SimDuration::from_secs(2);
    cfg.traffic.tail = SimDuration::from_secs(120);
    cfg.drain = SimDuration::from_secs(300);

    let result = run(&cfg).expect("run succeeds under reordering");
    let report = &result.flow_reports[0];
    assert!(
        report.retransmissions > 0,
        "reordering must trigger go-back-N retransmissions"
    );
    assert_eq!(
        report.completed_at.map(|_| report.total),
        Some(1_000),
        "pure reordering delays packets, it never loses them: the \
         transfer must finish"
    );
    // Reordering draws from the seeded impairment stream like loss does,
    // so the whole retransmission schedule is reproducible.
    let again = run(&cfg).expect("second run succeeds");
    assert!(result.trace.iter().eq(again.trace.iter()));
    assert_eq!(
        report.retransmissions,
        again.flow_reports[0].retransmissions
    );
}

/// A protocol that re-arms a 5-second periodic timer and pings its
/// neighbors on every tick, making each tick visible in the trace.
#[derive(Debug, Default)]
struct TickProto {
    ticks: Vec<netsim::time::SimTime>,
}

#[derive(Debug)]
struct Ping;

impl netsim::protocol::Payload for Ping {
    fn size_bytes(&self) -> usize {
        8
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

const TICK: SimDuration = SimDuration::from_secs(5);

impl netsim::protocol::RoutingProtocol for TickProto {
    fn name(&self) -> &'static str {
        "tick"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut netsim::simulator::ProtocolContext<'_>) {
        ctx.set_timer(TICK, netsim::protocol::TimerToken(1));
    }

    fn on_timer(
        &mut self,
        ctx: &mut netsim::simulator::ProtocolContext<'_>,
        _token: netsim::protocol::TimerToken,
    ) {
        self.ticks.push(ctx.now());
        for slot in 0..ctx.peers().len() {
            let n = ctx.peers()[slot].neighbor;
            ctx.send(n, std::rc::Rc::new(Ping));
        }
        ctx.set_timer(TICK, netsim::protocol::TimerToken(1));
    }
}

#[test]
fn crash_restart_landing_on_a_timer_tick_wipes_the_pending_timer() {
    use netsim::link::LinkConfig;
    use netsim::simulator::SimulatorBuilder;
    use netsim::time::SimTime;

    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(2);
    b.add_link(nodes[0], nodes[1], LinkConfig::default())
        .expect("link");
    let mut sim = b.build().expect("build");
    sim.install_protocol(nodes[0], Box::new(TickProto::default()))
        .expect("install");
    sim.install_protocol(nodes[1], Box::new(TickProto::default()))
        .expect("install");
    // Crash at t=15s — the exact instant the third tick is due — and
    // reboot at t=20s, the exact instant the (now dead) fourth tick was
    // scheduled for. Both collisions are same-timestamp event-queue races
    // the engine must resolve deterministically.
    sim.schedule_node_crash_restart(
        SimTime::from_secs(15),
        nodes[0],
        SimDuration::from_secs(5),
        Box::new(TickProto::default()),
    )
    .expect("schedule crash");
    sim.start();
    sim.run_until(SimTime::from_secs(33));

    let tick_seconds = |node| -> Vec<u64> {
        sim.protocol(node)
            .expect("protocol installed")
            .as_any()
            .downcast_ref::<TickProto>()
            .expect("TickProto")
            .ticks
            .iter()
            .map(|t| t.as_nanos() / 1_000_000_000)
            .collect()
    };
    // The neighbor never crashed: its clock ticks straight through.
    assert_eq!(tick_seconds(nodes[1]), vec![5, 10, 15, 20, 25, 30]);
    // The replacement instance boots cold at t=20. The crashed instance's
    // pending t=20 tick must have died with it (same-instant NodeRestart
    // wins the queue race), so the fresh timer realigns to reboot + 5s.
    assert_eq!(tick_seconds(nodes[0]), vec![25, 30]);

    // The crashed instance's own ticks are gone with it, but its pings
    // survive in the trace: the t=15 tick fired at the crash instant
    // (links fail, the router itself stays up until reboot).
    let pings_from: Vec<u64> = sim
        .trace()
        .iter()
        .filter_map(|e| match e {
            netsim::trace::TraceEvent::ControlSent { time, from, .. } if from == nodes[0] => {
                Some(time.as_nanos() / 1_000_000_000)
            }
            _ => None,
        })
        .collect();
    assert_eq!(pings_from, vec![5, 10, 15, 25, 30]);
    // The t=15 ping left a router whose only link had just failed: it
    // must be charged as a lost control message, not delivered.
    assert!(sim.stats().control_messages_lost >= 1);
}

#[test]
fn watchdog_aborts_runaway_runs_with_typed_error() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Rip, MeshDegree::D4, 20);
    // Far too small for even the warm-up: the watchdog must fire.
    cfg.watchdog.max_events = 1_000;
    match run(&cfg) {
        Err(RunError::Watchdog { events, .. }) => {
            assert!(events >= 1_000, "fired at {events} events")
        }
        other => panic!("expected RunError::Watchdog, got {other:?}"),
    }
    // A watchdog abort is a resource bound, not a bad draw: sweeps report
    // it without burning retries.
    let outcome = run_sweep(
        &cfg,
        2,
        20,
        SweepOptions::default(),
        summarize_streaming,
        |_| {},
    );
    assert_eq!(outcome.failed.len(), 2);
    assert_eq!(outcome.retries(), 0);
    assert!(outcome.failed.iter().all(|f| f.attempts == 1));
}
