//! Extensions E1–E9: the paper's §6 future work and introduction threads.

use std::io;

use bench::{point_seed, BASE_SEED};
use bgp::{Bgp, BgpConfig, FlapConfig};
use convergence::aggregate::PointSummary;
use convergence::experiment::{ProtocolFactory, TopologySpec};
use convergence::failure::FailurePlan;
use convergence::prelude::*;
use convergence::report::fmt_f64;
use netsim::time::SimDuration;
use topology::mesh::MeshDegree;

use crate::{table, Frame};

/// Extension E1 (paper §6 future work): add a link-state protocol to the
/// comparison.
///
/// SPF floods the topology change and recomputes Dijkstra everywhere, so
/// its convergence is bounded by flooding + SPF hold-down rather than by
/// distance-vector exploration — the hypothesis the paper's future-work
/// section wants tested.
pub fn spf(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Extension E1 — SPF and DUAL vs the paper's family, {runs} runs/point\n"
    ))?;

    let mut table = table("degree,metric,RIP,DBF,BGP,BGP-3,SPF,DUAL");
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        let points: Vec<_> = ProtocolKind::ALL
            .iter()
            .map(|&p| f.sweeps.point(p, degree, |_| {}))
            .collect();
        let mut row = |metric: &str, value: &dyn Fn(&PointSummary) -> f64| {
            table.push_row(
                [degree.to_string(), metric.to_string()]
                    .into_iter()
                    .chain(points.iter().map(|p| fmt_f64(value(p))))
                    .collect(),
            );
        };
        row("no-route drops", &|p| p.drops_no_route.mean);
        row("ttl expirations", &|p| p.ttl_expirations.mean);
        row("rt convergence (s)", &|p| p.routing_convergence_s.mean);
        row("control msgs", &|p| p.control_messages.mean);
        eprintln!("  degree {degree} done");
    }
    f.line(table.render())?;
    f.line("expected: SPF converges in well under a second at every degree and")?;
    f.line("drops only the packets in flight during the detection window.\n")?;
    f.save(&[("ext_spf.csv", &table)])
}

/// Extension E2 (paper §6 future work): multiple sender/receiver pairs,
/// multiple simultaneous link failures, and whole-router failures.
pub fn multi(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Extension E2 — multiple flows / failures, {runs} runs/point\n"
    ))?;

    type Customize = fn(&mut ExperimentConfig);
    let scenarios: [(&str, Customize); 4] = [
        ("baseline", |_| {}),
        ("5 flows", |cfg| cfg.traffic.flows = 5),
        ("2 link failures", |cfg| {
            cfg.failure = FailurePlan::MultipleLinks { count: 2 };
        }),
        ("router failure", |cfg| {
            cfg.failure = FailurePlan::NodeOnPath
        }),
    ];
    let mut table = table("scenario,degree,protocol,delivery,no-route,ttl,rtconv(s)");
    for degree in [MeshDegree::D4, MeshDegree::D6] {
        for protocol in [ProtocolKind::Dbf, ProtocolKind::Bgp3] {
            for (label, customize) in scenarios {
                let point = f.sweeps.point(protocol, degree, customize);
                table.push_row(vec![
                    label.to_string(),
                    degree.to_string(),
                    protocol.label().to_string(),
                    format!("{:.4}", point.delivery_ratio.mean),
                    fmt_f64(point.drops_no_route.mean),
                    fmt_f64(point.ttl_expirations.mean),
                    fmt_f64(point.routing_convergence_s.mean),
                ]);
            }
            eprintln!("  degree {degree} {protocol} done");
        }
    }
    f.line(table.render())?;
    f.line("expected: richer connectivity keeps delivery high even under")?;
    f.line("compound failures; a router failure hurts more than any one link.\n")?;
    f.save(&[("ext_multi.csv", &table)])
}

/// Extension E3 (paper §6 future work): end-to-end reliable-transport
/// performance during routing convergence.
///
/// A window-limited go-back-N transfer (the "simple flow control with a
/// maximal window size and retransmission after timeout" of the paper's
/// reference \[25\]) crosses the mesh while one on-path link fails. We
/// measure the goodput stall and retransmission cost per protocol.
pub fn tcp(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs().min(50);
    f.line(format_args!(
        "Extension E3 — go-back-N transfer across a failure, {runs} runs/point\n"
    ))?;

    let mut table = table("degree,protocol,stall (s),retransmissions,completion (s)");
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        for protocol in ProtocolKind::PAPER {
            let mut cfg = ExperimentConfig::paper(protocol, degree, 0);
            cfg.traffic.mode = TrafficMode::GoBackN(GoBackNConfig {
                total_packets: 20_000,
                ..GoBackNConfig::default()
            });
            cfg.traffic.lead = SimDuration::from_secs(2);
            cfg.traffic.tail = SimDuration::from_secs(120);
            cfg.drain = SimDuration::from_secs(300);
            let outcome = f.sweeps.sweep(
                &format!("{}/d{degree}/gbn", protocol.label()),
                &cfg,
                runs,
                point_seed(degree, 0),
                |result| {
                    let report = &result.flow_reports[0];
                    // Stall: longest gap between progress events after the
                    // failure.
                    let mut stall = 0.0f64;
                    for w in report.progress.windows(2) {
                        if w[1].0 >= result.t_fail {
                            stall = stall.max(w[1].0.saturating_since(w[0].0).as_secs_f64());
                        }
                    }
                    let done = report
                        .completed_at
                        .map(|done| done.saturating_since(result.t_fail).as_secs_f64());
                    Ok((stall, report.retransmissions as f64, done))
                },
            );
            let per_run = outcome.completed;
            let stalls: Vec<f64> = per_run.iter().map(|&(s, _, _)| s).collect();
            let retx: Vec<f64> = per_run.iter().map(|&(_, r, _)| r).collect();
            let completion: Vec<f64> = per_run.iter().filter_map(|&(_, _, c)| c).collect();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            table.push_row(vec![
                degree.to_string(),
                protocol.label().to_string(),
                fmt_f64(mean(&stalls)),
                fmt_f64(mean(&retx)),
                if completion.is_empty() {
                    "-".into()
                } else {
                    fmt_f64(mean(&completion))
                },
            ]);
            eprintln!("  degree {degree} {protocol} done");
        }
    }
    f.line(table.render())?;
    f.line("expected: the transport hides packet loss but not time — the stall")?;
    f.line("tracks each protocol's forwarding-path convergence delay, and")?;
    f.line("go-back-N pays for every stall with a burst of retransmissions.\n")?;
    f.save(&[("ext_tcp.csv", &table)])
}

/// Extension E4: route-flap damping under a flapping link.
///
/// The paper's introduction cites Bush/Griffin/Mao and Mao et al.: flap
/// damping suppresses noisy routes but also punishes the path exploration
/// that *normal* convergence produces, extending unavailability after the
/// network has physically stabilized. This experiment flaps one on-path
/// link several times and compares BGP-3 with damping off vs on.
pub fn flap(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Extension E4 — route-flap damping vs a flapping link, {runs} runs/point"
    ))?;
    f.line("(BGP-3; 3 flap cycles of 2 s down / 3 s up, then stable)\n")?;

    let bgp3_with_damping = || {
        ProtocolFactory::new(|| {
            Box::new(
                Bgp::with_config(BgpConfig {
                    flap_damping: Some(FlapConfig::aggressive()),
                    ..BgpConfig::bgp3()
                })
                .expect("valid config"),
            )
        })
    };
    let flapping = FailurePlan::FlappingLink {
        cycles: 3,
        down: SimDuration::from_secs(2),
        up: SimDuration::from_secs(3),
    };
    let mut table = table("degree,damping,delivery %,no-route,rtconv(s),msgs");
    for degree in [MeshDegree::D4, MeshDegree::D6] {
        for (label, factory) in [
            ("off", None),
            ("rfc2439 (10s half-life)", Some(bgp3_with_damping())),
        ] {
            let mut cfg = ExperimentConfig::paper(ProtocolKind::Bgp3, degree, 0);
            cfg.failure = flapping.clone();
            cfg.traffic.tail = SimDuration::from_secs(60);
            cfg.protocol_override = factory;
            let outcome = f.sweeps.sweep(
                &format!("BGP-3/d{degree}/damping-{label}"),
                &cfg,
                runs,
                point_seed(degree, 0),
                summarize,
            );
            let point = aggregate_point(&outcome.completed).expect("nonempty sweep");
            table.push_row(vec![
                degree.to_string(),
                label.to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.routing_convergence_s.mean),
                fmt_f64(point.control_messages.mean),
            ]);
            eprintln!("  degree {degree} damping {label} done");
        }
    }
    f.line(table.render())?;
    f.line("expected: damping cuts update churn but *extends* unavailability —")?;
    f.line("suppressed routes stay unusable after the link stops flapping, so")?;
    f.line("delivery is worse with damping on (the Mao et al. effect).\n")?;
    f.save(&[("ext_flap.csv", &table)])
}

/// Extension E5 (paper §6 future work): larger network sizes.
///
/// Repeats the single-failure experiment on meshes from the paper's 7×7
/// up to 15×15, checking whether the delivery conclusions survive scale
/// (longer paths, more destinations per update, longer convergence
/// chains).
///
/// Degree 8 keeps every pair inside the distance-vector metric horizon:
/// RIP/DBF saturate at 16 hops (RFC 2453's design diameter), so a
/// degree-4 13×13 grid — diameter 24 — would leave far corners
/// legitimately unreachable. With both diagonals the 15×15 diameter is
/// 14 hops.
pub fn scale(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs().min(30);
    f.line(format_args!(
        "Extension E5 — mesh size scaling (degree 8), {runs} runs/point\n"
    ))?;

    let mut table = table("mesh,nodes,protocol,delivery %,no-route,fwdconv(s),rtconv(s)");
    for size in [7usize, 10, 13, 15] {
        for protocol in [ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp3] {
            let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D8, 0);
            cfg.topology = TopologySpec::Mesh {
                rows: size,
                cols: size,
                degree: MeshDegree::D8,
            };
            let outcome = f.sweeps.sweep(
                &format!("{}/mesh-{size}x{size}", protocol.label()),
                &cfg,
                runs,
                BASE_SEED + size as u64 * 1000,
                summarize,
            );
            let point = aggregate_point(&outcome.completed).expect("nonempty sweep");
            table.push_row(vec![
                format!("{size}x{size}"),
                (size * size).to_string(),
                protocol.label().to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.forwarding_convergence_s.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
            eprintln!("  {size}x{size} {protocol} done");
        }
    }
    f.line(table.render())?;
    f.line("expected: the protocol ordering (RIP worst, DBF/BGP-3 near-full")?;
    f.line("delivery) is scale-invariant; absolute convergence times grow")?;
    f.line("with the path lengths.\n")?;
    f.save(&[("ext_scale.csv", &table)])
}

/// Extension E6: the loop-freedom vs availability trade-off.
///
/// The paper's conclusion argues that loop-prevention schemes like
/// Garcia-Luna-Aceves' DUAL "eliminate routing loops by paying a high cost
/// of delaying routing updates and stopping packet delivery during
/// convergence", while in well-connected networks a plain distance vector
/// simply counts to the next-best path. This experiment puts numbers on
/// that claim: DUAL (zero loops by construction, diffusion freeze) against
/// DBF (instant switch-over, occasional loops) and BGP-3.
pub fn dual(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Extension E6 — DUAL vs the distance-vector family, {runs} runs/point\n"
    ))?;

    let mut table = table("degree,protocol,no-route,ttl-expired,looped,fwdconv(s),rtconv(s)");
    for degree in MeshDegree::ALL {
        for protocol in [ProtocolKind::Dual, ProtocolKind::Dbf, ProtocolKind::Bgp3] {
            let point = f.sweeps.point(protocol, degree, |_| {});
            table.push_row(vec![
                degree.to_string(),
                protocol.label().to_string(),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.ttl_expirations.mean),
                fmt_f64(point.looped_packets.mean),
                fmt_f64(point.forwarding_convergence_s.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
        }
        eprintln!("  degree {degree} done");
    }
    f.line(table.render())?;
    f.line("expected: DUAL's looped column is exactly zero at every degree,")?;
    f.line("but its no-route drops exceed DBF's in sparse meshes — the")?;
    f.line("diffusion freeze blackholes traffic that DBF would have delivered")?;
    f.line("over a transient (sometimes looping) alternate path.\n")?;
    f.save(&[("ext_dual.csv", &table)])
}

/// Extension E7: the paper's §4 design factors, measured directly.
///
/// §4 identifies three factors governing delivery during convergence:
/// (1) the *path switch-over period* — how long a router has no next hop;
/// (2) the probability the chosen alternate is *valid*; (3) the failure-
/// information propagation time. Figures 3–7 observe their consequences;
/// this table measures the factors themselves: the longest no-route window
/// anywhere for the flow's destination, and the mean path stretch of
/// delivered packets (valid-but-suboptimal alternates show up as stretch
/// just above 1).
pub fn factors(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Extension E7 — §4 factors: switch-over windows and path stretch, {runs} runs/point\n"
    ))?;

    let mut table = table("degree,protocol,max switch-over (s),mean stretch,transient paths");
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        for protocol in ProtocolKind::PAPER {
            let point = f.sweeps.point(protocol, degree, |_| {});
            table.push_row(vec![
                degree.to_string(),
                protocol.label().to_string(),
                fmt_f64(point.max_switchover_s.mean),
                format!("{:.4}", point.mean_stretch.mean),
                fmt_f64(point.transient_paths.mean),
            ]);
        }
        eprintln!("  degree {degree} done");
    }
    f.line(table.render())?;
    f.line("expected (§4.1): RIP's switch-over window dwarfs the others at every")?;
    f.line("degree — it keeps no alternate-path state; DBF/BGP windows shrink to")?;
    f.line("~0 as connectivity supplies instantly-valid alternates. Stretch just")?;
    f.line("above 1 marks valid-but-suboptimal transient paths (§4.2).\n")?;
    f.save(&[("ext_factors.csv", &table)])
}

/// Extension E9: routing convergence when links are *lossy* instead of
/// merely cut.
///
/// The paper's failure model is binary: a link is up or down. Real
/// outages often start as degradation — a flapping optical or congested
/// interface that drops a fraction of frames long before (or without
/// ever) going down. This experiment repeats the paper's single-link
/// failure while every link additionally drops a fixed fraction of all
/// frames, and asks how each protocol's convergence machinery copes:
/// RIP/DBF updates ride datagrams and simply vanish, while BGP's
/// TCP-style sessions turn loss into retransmission delay.
///
/// Like every sweep, runs execute through the hardened sweep driver: a
/// seed whose random draw yields no usable scenario is retried with a
/// derived reseed, and anything unsalvageable is reported, not panicked
/// over; the "failed runs" column counts those slots.
pub fn lossy(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Extension E9 — convergence under lossy links, {runs} runs/point"
    ))?;
    f.line("(paper single-link failure at degree 4, plus uniform frame loss)\n")?;

    let mut table =
        table("loss %,protocol,delivery %,impaired,no-route,rtconv(s),ctl-rexmit,failed runs");
    let degree = MeshDegree::D4;
    for loss in [0.0, 0.05, 0.10, 0.20] {
        for protocol in [ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp3] {
            let mut cfg = ExperimentConfig::paper(protocol, degree, 0);
            if loss > 0.0 {
                cfg.link.impairment = Impairment::lossy(loss);
            }
            let sweep_label = format!("{}/d{degree}/loss-{:.0}", protocol.label(), loss * 100.0);
            let outcome =
                f.sweeps
                    .sweep(&sweep_label, &cfg, runs, point_seed(degree, 0), summarize);
            let completed = outcome.completed.len().max(1) as f64;
            let retransmits = outcome
                .telemetry
                .iter()
                .map(|t| t.control_retransmits)
                .sum::<u64>() as f64
                / completed;
            let point = aggregate_point(&outcome.completed).expect("nonempty sweep");
            table.push_row(vec![
                format!("{:.0}", loss * 100.0),
                protocol.to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(
                    outcome
                        .completed
                        .iter()
                        .map(|s| s.drops.impaired as f64)
                        .sum::<f64>()
                        / completed,
                ),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.routing_convergence_s.mean),
                fmt_f64(retransmits),
                outcome.failed.len().to_string(),
            ]);
            eprintln!("  loss {:.0}% {protocol} done", loss * 100.0);
        }
    }
    f.line(table.render())?;
    f.line("expected: delivery falls with per-hop loss for every protocol, but")?;
    f.line("convergence degrades unevenly — RIP/DBF lose updates outright and")?;
    f.line("lean on periodic refresh, while BGP-3 converges at nearly the clean")?;
    f.line("pace at the cost of control retransmissions.\n")?;
    f.save(&[("ext_lossy.csv", &table)])
}

/// Extension E8: convergence under data-plane congestion.
///
/// The paper's 20 pkt/s flow leaves link queues empty, so routing messages
/// never wait behind data. Real networks converge *while loaded*: control
/// and data share the same drop-tail queues, so congestion can delay — or
/// drop — the very updates that would end the congestion. This experiment
/// raises the offered load toward link capacity and watches what happens
/// to convergence, separately for a datagram-signaled protocol (DBF, whose
/// updates can be lost) and a reliably-signaled one (BGP-3, immune to
/// queue drops by its TCP-like session).
pub fn load(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs().min(30);
    f.line(format_args!(
        "Extension E8 — convergence under load (degree 4), {runs} runs/point"
    ))?;
    f.line("(10 Mb/s links carry ~1250 x 1000B pkt/s; 5 flows share the mesh)\n")?;

    let mut table =
        table("rate/flow (pps),protocol,delivery %,no-route,queue drops,ctrl lost,rtconv(s)");
    for rate in [20u64, 200, 400] {
        for protocol in [ProtocolKind::Dbf, ProtocolKind::Bgp3] {
            let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, 0);
            cfg.traffic.rate_pps = rate;
            cfg.traffic.flows = 5;
            let outcome = f.sweeps.sweep(
                &format!("{}/d4/rate-{rate}", protocol.label()),
                &cfg,
                runs,
                point_seed(MeshDegree::D4, 0),
                |r| Ok((summarize(r)?, r.stats.control_messages_lost)),
            );
            let (summaries, lost): (Vec<_>, Vec<u64>) = outcome.completed.into_iter().unzip();
            let completed = summaries.len().max(1) as f64;
            let point = aggregate_point(&summaries).expect("nonempty sweep");
            let queue_drops = summaries
                .iter()
                .map(|s| s.drops.queue_overflow as f64)
                .sum::<f64>()
                / completed;
            table.push_row(vec![
                rate.to_string(),
                protocol.label().to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(queue_drops),
                fmt_f64(lost.iter().sum::<u64>() as f64 / completed),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
            eprintln!("  rate {rate} {protocol} done");
        }
    }
    f.line(table.render())?;
    f.line("expected: as shared queues fill, datagram-signaled DBF starts losing")?;
    f.line("updates (ctrl lost > 0) and its convergence/drops degrade, while")?;
    f.line("BGP-3's reliable session keeps signaling intact at the same load.\n")?;
    f.save(&[("ext_load.csv", &table)])
}
