//! Ablations A1–A5: what the paper's protocol details contribute.

use std::io;

use bgp::{Bgp, BgpConfig, MraiScope};
use convergence::aggregate::PointSummary;
use convergence::experiment::ProtocolFactory;
use convergence::protocols::ProtocolKind;
use convergence::report::fmt_f64;
use dbf::{Dbf, DbfConfig};
use netsim::time::SimDuration;
use rip::{Rip, RipConfig, SplitHorizon};
use routing_core::damping::DampingMode;
use topology::mesh::MeshDegree;

use crate::{table, Frame};

/// Ablation A1 (paper §5.2 note): per-neighbor vs per-(neighbor,
/// destination) MRAI granularity.
///
/// The paper observes that vendor implementations keep the MRAI per
/// neighbor, which holds back updates about *other* destinations after the
/// first post-failure update, lengthening inconsistency windows — "the
/// results could have been different had the MRAI timer been implemented
/// on a per (neighbor, destination) basis". This target measures that
/// difference.
pub fn mrai(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Ablation A1 — MRAI scope (BGP, 30 s mean), {runs} runs/point\n"
    ))?;
    // The scope cannot be switched through ProtocolKind, so the per-pair
    // variant replaces the experiment's protocol with a custom build.
    let mut table = table(
        "degree,ttl/neighbor,ttl/pair,rtconv/neighbor(s),rtconv/pair(s),msgs/neighbor,msgs/pair",
    );
    for degree in [
        MeshDegree::D3,
        MeshDegree::D4,
        MeshDegree::D5,
        MeshDegree::D6,
    ] {
        let vendor = f.sweeps.point(ProtocolKind::Bgp, degree, |_| {});
        let pair = f.sweeps.point(ProtocolKind::Bgp, degree, |cfg| {
            cfg.protocol_override = Some(ProtocolFactory::new(|| {
                Box::new(
                    Bgp::with_config(BgpConfig {
                        mrai_scope: MraiScope::PerNeighborDestination,
                        ..BgpConfig::standard()
                    })
                    .expect("valid config"),
                )
            }));
        });
        table.push_row(vec![
            degree.to_string(),
            fmt_f64(vendor.ttl_expirations.mean),
            fmt_f64(pair.ttl_expirations.mean),
            fmt_f64(vendor.routing_convergence_s.mean),
            fmt_f64(pair.routing_convergence_s.mean),
            fmt_f64(vendor.control_messages.mean),
            fmt_f64(pair.control_messages.mean),
        ]);
        eprintln!("  degree {degree} done");
    }
    f.line(table.render())?;
    f.line("expected: per-pair MRAI shortens loops/convergence at the cost of")?;
    f.line("more update messages.\n")?;
    f.save(&[("ablation_mrai.csv", &table)])
}

/// Ablation A2 (paper §4.2): how much of the valid-alternate-path
/// probability comes from split horizon with poisoned reverse?
///
/// Runs DBF with poisoned reverse (default), simple split horizon, and no
/// split horizon at the loop-prone sparse degrees.
pub fn split_horizon(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Ablation A2 — split-horizon modes (DBF), {runs} runs/point\n"
    ))?;

    let dbf_with = |mode: SplitHorizon| {
        ProtocolFactory::new(move || {
            Box::new(
                Dbf::with_config(DbfConfig {
                    split_horizon: mode,
                    ..DbfConfig::default()
                })
                .expect("valid config"),
            )
        })
    };
    let modes = [
        ("poison-reverse", SplitHorizon::PoisonReverse),
        ("simple", SplitHorizon::Simple),
        ("disabled", SplitHorizon::Disabled),
    ];
    let mut table = table("degree,mode,no-route,ttl-expired,looped,rtconv(s)");
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D5] {
        for (label, mode) in modes {
            let point = f.sweeps.point(ProtocolKind::Dbf, degree, |cfg| {
                cfg.protocol_override = Some(dbf_with(mode));
            });
            table.push_row(vec![
                degree.to_string(),
                label.to_string(),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.ttl_expirations.mean),
                fmt_f64(point.looped_packets.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
        }
        eprintln!("  degree {degree} done");
    }
    f.line(table.render())?;
    f.line("expected: disabling poisoned reverse admits two-hop loops, raising")?;
    f.line("TTL expirations and convergence time in sparse meshes.\n")?;
    f.save(&[("ablation_split_horizon.csv", &table)])
}

/// Ablation A4: triggered-update damping semantics.
///
/// RFC 2453 sends the first triggered update immediately
/// (`FirstImmediate`, the study default, matching the paper's §5.2
/// "failure information can propagate along the path in a few
/// milliseconds" and RIP's zero TTL expirations). `DelayedFlush` delays
/// every update by a fresh 1–5 s draw; this ablation shows that doing so
/// slows the poison wave enough to give even RIP transient loops —
/// contradicting the paper's Observation 2 and thereby justifying the
/// default.
pub fn damping(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Ablation A4 — triggered-update damping semantics, {runs} runs/point\n"
    ))?;

    let with_mode = |kind: ProtocolKind, mode: DampingMode| match kind {
        ProtocolKind::Rip => ProtocolFactory::new(move || {
            Box::new(
                Rip::with_config(RipConfig {
                    damping_mode: mode,
                    ..RipConfig::default()
                })
                .expect("valid config"),
            )
        }),
        ProtocolKind::Dbf => ProtocolFactory::new(move || {
            Box::new(
                Dbf::with_config(DbfConfig {
                    damping_mode: mode,
                    ..DbfConfig::default()
                })
                .expect("valid config"),
            )
        }),
        other => panic!("damping ablation only applies to RIP/DBF, not {other}"),
    };
    let mut table = table("protocol,degree,mode,no-route,ttl-expired,fwdconv(s)");
    for kind in [ProtocolKind::Rip, ProtocolKind::Dbf] {
        for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D5] {
            for (label, mode) in [
                ("first-immediate", DampingMode::FirstImmediate),
                ("delayed-flush", DampingMode::DelayedFlush),
            ] {
                let point = f.sweeps.point(kind, degree, |cfg| {
                    cfg.protocol_override = Some(with_mode(kind, mode));
                });
                table.push_row(vec![
                    kind.label().to_string(),
                    degree.to_string(),
                    label.to_string(),
                    fmt_f64(point.drops_no_route.mean),
                    fmt_f64(point.ttl_expirations.mean),
                    fmt_f64(point.forwarding_convergence_s.mean),
                ]);
            }
            eprintln!("  {kind} degree {degree} done");
        }
    }
    f.line(table.render())?;
    f.line("expected: delayed-flush inflates drops AND gives RIP nonzero TTL")?;
    f.line("expirations — the paper observed zero, supporting first-immediate.\n")?;
    f.save(&[("ablation_damping.csv", &table)])
}

/// Ablation A3 (paper §5 claim): "the exact values of these parameters
/// should have little impact on the results."
///
/// Sweeps the failure-detection delay, data rate and queue capacity for
/// DBF at degree 4 and checks that the *ratios* (delivery ratio, loop
/// counts) move little while absolute drop counts scale with the rate.
pub fn sensitivity(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Ablation A3 — parameter sensitivity (DBF, degree 4), {runs} runs/point\n"
    ))?;

    let mut table = table("variant,delivery ratio,no-route,ttl,rtconv(s)");
    let mut add = |label: &str, point: PointSummary| {
        table.push_row(vec![
            label.to_string(),
            format!("{:.4}", point.delivery_ratio.mean),
            fmt_f64(point.drops_no_route.mean),
            fmt_f64(point.ttl_expirations.mean),
            fmt_f64(point.routing_convergence_s.mean),
        ]);
    };
    add(
        "baseline (50ms detect, 20pps, q20)",
        f.sweeps.point(ProtocolKind::Dbf, MeshDegree::D4, |_| {}),
    );
    for (label, detect_ms) in [("detect 5ms", 5u64), ("detect 500ms", 500)] {
        add(
            label,
            f.sweeps.point(ProtocolKind::Dbf, MeshDegree::D4, |cfg| {
                cfg.link.detection_delay = SimDuration::from_millis(detect_ms);
            }),
        );
    }
    for (label, rate) in [("rate 10pps", 10u64), ("rate 100pps", 100)] {
        add(
            label,
            f.sweeps.point(ProtocolKind::Dbf, MeshDegree::D4, |cfg| {
                cfg.traffic.rate_pps = rate;
            }),
        );
    }
    for (label, cap) in [("queue 5", 5usize), ("queue 100", 100)] {
        add(
            label,
            f.sweeps.point(ProtocolKind::Dbf, MeshDegree::D4, |cfg| {
                cfg.link.queue_capacity = cap;
            }),
        );
    }
    for (label, delay_ms) in [("prop 0.1ms", 1u64), ("prop 10ms", 100)] {
        add(
            label,
            f.sweeps.point(ProtocolKind::Dbf, MeshDegree::D4, |cfg| {
                cfg.link.propagation_delay = SimDuration::from_micros(delay_ms * 100);
            }),
        );
    }
    f.line(table.render())?;
    f.line("expected: delivery ratio moves by at most a few percent across the")?;
    f.line("whole sweep (the paper's robustness claim); absolute drops scale")?;
    f.line("with the data rate.\n")?;
    f.save(&[("ablation_sensitivity.csv", &table)])
}

/// Ablation A5: the classic hold-down timer (paper §2's family of
/// "achieve loop-free routing through delaying routing update
/// propagation").
///
/// With hold-down, a router that loses a route refuses all news about the
/// destination for a fixed window — trading availability for stability.
/// RIP is already nearly loop-free via fast poison; hold-down's remaining
/// effect should be almost purely additional packet loss.
pub fn holddown(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Ablation A5 — RIP hold-down timer, {runs} runs/point\n"
    ))?;

    let rip_with_holddown = |secs: u64| {
        ProtocolFactory::new(move || {
            Box::new(
                Rip::with_config(RipConfig {
                    hold_down: Some(SimDuration::from_secs(secs)),
                    ..RipConfig::default()
                })
                .expect("valid config"),
            )
        })
    };
    let mut table = table("degree,hold-down,no-route,ttl-expired,fwdconv(s),rtconv(s)");
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        for (label, factory) in [
            ("off", None),
            ("15 s", Some(rip_with_holddown(15))),
            ("60 s", Some(rip_with_holddown(60))),
        ] {
            let point = f.sweeps.point(ProtocolKind::Rip, degree, |cfg| {
                cfg.protocol_override = factory;
            });
            table.push_row(vec![
                degree.to_string(),
                label.to_string(),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.ttl_expirations.mean),
                fmt_f64(point.forwarding_convergence_s.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
        }
        eprintln!("  degree {degree} done");
    }
    f.line(table.render())?;
    f.line("expected: hold-down adds its full window to the outage (drops grow")?;
    f.line("roughly by window x rate) while buying nothing — RIP's poison wave")?;
    f.line("already prevents the loops hold-down was invented for.\n")?;
    f.save(&[("ablation_holddown.csv", &table)])
}
