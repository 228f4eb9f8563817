//! The three workloads and the unit of work they repeat: one run plus the
//! metric extraction a figure binary would do with it.

use std::time::Instant;

use convergence::experiment::{ExperimentConfig, TopologySpec};
use convergence::metrics::series::{delay_series, throughput_series};
use convergence::metrics::streaming::summarize_streaming;
use convergence::metrics::summary::summarize;
use convergence::protocols::ProtocolKind;
use convergence::runner::{run, run_observed, RunResult};
use netsim::simulator::SimStats;
use obs::span::{Recorder, EVENT_DISPATCH, PROTOCOL_PROCESSING, TRACE_RECORDING};
use topology::instantiate::to_simulator_builder;
use topology::mesh::MeshDegree;

/// The figure binaries' base seed (`bench::BASE_SEED`): with `--seed 0`
/// every workload replays the seeds its figure or extension binary uses.
const BASE_SEED: u64 = 20_030_622;

/// Offset between the run-seed ranges of consecutive `--seed` values.
const SEED_STRIDE: u64 = 10_000_000;

/// The fig5/fig7 window around the failure, in seconds.
const SERIES_WINDOW: (i64, i64) = (-10, 40);

/// A named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RIP, DBF, BGP and BGP-3 at degrees 3–8 on the paper's 7×7 mesh,
    /// streaming fold (fig3/fig4/fig6).
    PaperGrid,
    /// RIP, DBF and BGP-3 at degree 4 under 5 flows × 400 pps; the trace
    /// is kept and read by `summarize` and the fig5/fig7 series.
    LoadedTimeline,
    /// RIP, DBF and BGP-3 on the 15×15 degree-8 mesh, streaming fold.
    LargeMesh,
}

/// Exact per-run work counters from the engine's [`SimStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub queue_high_water: u64,
    pub ctrl_msgs: u64,
    pub ctrl_bytes: u64,
    pub ctrl_lost: u64,
    pub ctrl_shared: u64,
    pub pkts_injected: u64,
    pub pkts_delivered: u64,
    pub pkts_dropped: u64,
}

impl Counts {
    fn of(stats: &SimStats) -> Self {
        Counts {
            events: stats.events_processed,
            queue_high_water: stats.queue_high_water,
            ctrl_msgs: stats.control_messages_sent,
            ctrl_bytes: stats.control_bytes_sent,
            ctrl_lost: stats.control_messages_lost,
            ctrl_shared: stats.control_payloads_shared,
            pkts_injected: stats.packets_injected,
            pkts_delivered: stats.packets_delivered,
            pkts_dropped: stats.packets_dropped,
        }
    }

    /// Folds another run in: sums, except the calendar high water, which
    /// is the peak over runs.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.queue_high_water = self.queue_high_water.max(o.queue_high_water);
        self.ctrl_msgs += o.ctrl_msgs;
        self.ctrl_bytes += o.ctrl_bytes;
        self.ctrl_lost += o.ctrl_lost;
        self.ctrl_shared += o.ctrl_shared;
        self.pkts_injected += o.pkts_injected;
        self.pkts_delivered += o.pkts_delivered;
        self.pkts_dropped += o.pkts_dropped;
    }
}

/// Protocol crates a run's `protocol_processing` time is attributed to.
pub const PROTOCOL_LAYERS: [&str; 3] = ["rip", "dbf", "bgp"];

/// `TraceEvent` kinds, in `TraceCensus` field order.
pub const TRACE_KINDS: [&str; 11] = [
    "PacketInjected",
    "PacketForwarded",
    "PacketDelivered",
    "PacketDropped",
    "RouteChanged",
    "ControlSent",
    "LinkFailed",
    "LinkRecovered",
    "LinkStateDetected",
    "ImpairmentChanged",
    "NodeRestarted",
];

/// What a traced run adds: layer self times (ns) and the counts only a
/// span recorder or the kept trace can give.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub realize_ns: u64,
    pub build_ns: u64,
    pub dispatch_ns: u64,
    pub trace_ns: u64,
    pub protocol_ns: [u64; 3],
    pub fold_ns: u64,
    pub series_ns: u64,
    /// `run_observed` wall time.
    pub run_ns: u64,
    pub dispatch_calls: u64,
    pub protocol_calls: [u64; 3],
    pub trace_kinds: [u64; 11],
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.realize_ns += o.realize_ns;
        self.build_ns += o.build_ns;
        self.dispatch_ns += o.dispatch_ns;
        self.trace_ns += o.trace_ns;
        self.fold_ns += o.fold_ns;
        self.series_ns += o.series_ns;
        self.run_ns += o.run_ns;
        self.dispatch_calls += o.dispatch_calls;
        for i in 0..3 {
            self.protocol_ns[i] += o.protocol_ns[i];
            self.protocol_calls[i] += o.protocol_calls[i];
        }
        for i in 0..TRACE_KINDS.len() {
            self.trace_kinds[i] += o.trace_kinds[i];
        }
    }

    /// The exact counts, for comparing traced passes with each other.
    pub fn counts(&self) -> (u64, [u64; 3], [u64; 11]) {
        (self.dispatch_calls, self.protocol_calls, self.trace_kinds)
    }
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a of the run's `RunSummary` (and series, when extracted).
    pub digest: u64,
    /// Wall time of the run plus its fold (and series).
    pub wall_ns: u64,
    pub counts: Counts,
    /// Present for traced runs.
    pub layers: Option<Layers>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::LoadedTimeline,
        Workload::LargeMesh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::LoadedTimeline => "loaded_timeline",
            Workload::LargeMesh => "large_mesh",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether runs keep their trace for `summarize` and the fig5/fig7
    /// series instead of a streaming fold.
    pub fn keeps_trace(self) -> bool {
        self == Workload::LoadedTimeline
    }

    /// Blocks in one pass over the run list: seeds per (protocol,
    /// topology) pair, sized so that an untraced pass takes 10–25 s on a
    /// shared 2-vCPU x86-64 (Intel Xeon) VM and holds enough distinct
    /// runs that one seed's list costs about what another's does.
    pub fn blocks_per_pass(self) -> usize {
        match self {
            Workload::PaperGrid => 20,
            Workload::LoadedTimeline => 10,
            Workload::LargeMesh => 8,
        }
    }

    /// Each (protocol, topology) pair with the seed offset its figure or
    /// extension binary uses for it.
    fn points(self) -> Vec<(ProtocolKind, TopologySpec, u64)> {
        let degree_offset = |d: MeshDegree| u64::from(d.as_u32()) * 100_000;
        match self {
            Workload::PaperGrid => MeshDegree::ALL
                .into_iter()
                .flat_map(|d| {
                    ProtocolKind::PAPER.map(|p| (p, TopologySpec::paper_mesh(d), degree_offset(d)))
                })
                .collect(),
            Workload::LoadedTimeline => [ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp3]
                .map(|p| {
                    let d = MeshDegree::D4;
                    (p, TopologySpec::paper_mesh(d), degree_offset(d))
                })
                .to_vec(),
            Workload::LargeMesh => [ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp3]
                .map(|p| {
                    let mesh = TopologySpec::Mesh {
                        rows: 15,
                        cols: 15,
                        degree: MeshDegree::D8,
                    };
                    (p, mesh, 15 * 1000)
                })
                .to_vec(),
        }
    }

    /// Block `index` of the run list for `seed`: one run per (protocol,
    /// topology) pair.
    pub fn block(self, seed: u64, index: usize) -> Vec<ExperimentConfig> {
        let base = BASE_SEED.wrapping_add(seed.wrapping_mul(SEED_STRIDE));
        self.points()
            .into_iter()
            .map(|(protocol, topology, offset)| {
                let run_seed = base.wrapping_add(offset).wrapping_add(index as u64);
                let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, run_seed);
                cfg.topology = topology;
                if self == Workload::LoadedTimeline {
                    cfg.traffic.rate_pps = 400;
                    cfg.traffic.flows = 5;
                }
                cfg
            })
            .collect()
    }
}

/// The benchmark's only wall-clock read.
pub fn now() -> Instant {
    // simlint: allow(wall-clock, reason = "the benchmark measures wall time")
    Instant::now()
}

pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of an ordered sequence of run digests.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

/// A span recorder over the wall clock, as `bench_profile` builds it.
fn wall_recorder() -> Box<Recorder> {
    let start = now();
    Box::new(Recorder::external(Box::new(move || elapsed_ns(start))))
}

fn protocol_slot(protocol: ProtocolKind) -> usize {
    match protocol {
        ProtocolKind::Rip => 0,
        ProtocolKind::Dbf => 1,
        ProtocolKind::Bgp | ProtocolKind::Bgp3 => 2,
        ProtocolKind::Spf | ProtocolKind::Dual => unreachable!("no workload runs {protocol}"),
    }
}

/// Times `realize` + `to_simulator_builder`, then `build` +
/// `install_protocol`, for the same inputs `run_observed` is about to
/// assemble internally.
fn time_assembly(cfg: &ExperimentConfig) -> Result<(u64, u64), String> {
    let t = now();
    let realized = cfg.topology.realize();
    let (mut builder, _links) =
        to_simulator_builder(&realized.graph, cfg.link).map_err(|e| e.to_string())?;
    let realize_ns = elapsed_ns(t);
    let t = now();
    builder.seed(cfg.seed);
    let mut sim = builder.build().map_err(|e| e.to_string())?;
    for node in realized.graph.nodes() {
        sim.install_protocol(node, cfg.protocol.build())
            .map_err(|e| e.to_string())?;
    }
    let build_ns = elapsed_ns(t);
    Ok((realize_ns, build_ns))
}

/// Folds a finished run the way its workload's figure binaries do and
/// digests what they would publish. Returns (digest, fold ns, series ns).
fn extract(result: &RunResult, keep_trace: bool) -> Result<(u64, u64, u64), String> {
    let t = now();
    let summary = if keep_trace {
        summarize(result)
    } else {
        summarize_streaming(result)
    }
    .map_err(|e| e.to_string())?;
    let fold_ns = elapsed_ns(t);
    let mut digest = fnv1a(FNV_OFFSET, format!("{summary:?}").as_bytes());
    let mut series_ns = 0;
    if keep_trace {
        let t = now();
        let (from, to) = SERIES_WINDOW;
        let throughput = throughput_series(&result.trace, result.t_fail, from, to);
        let delay = delay_series(&result.trace, result.t_fail, from, to);
        series_ns = elapsed_ns(t);
        digest = fnv1a(digest, format!("{throughput:?}{delay:?}").as_bytes());
    }
    let stats = &result.stats;
    let mut violations = Vec::new();
    if stats.packets_injected != stats.packets_delivered + stats.packets_dropped {
        violations.push("injected != delivered + dropped");
    }
    if summary.delivered != stats.packets_delivered
        || summary.drops.total() != stats.packets_dropped
    {
        violations.push("summary disagrees with the engine's packet counters");
    }
    if violations.is_empty() {
        Ok((digest, fold_ns, series_ns))
    } else {
        Err(violations.join("; "))
    }
}

/// Executes one run, traced (wall-clock span recorder attached, layer
/// times collected) or not.
///
/// # Errors
///
/// A `RunError`, a metrics error or a broken packet-accounting invariant,
/// rendered with the run's protocol and seed.
pub fn execute(cfg: &ExperimentConfig, keep_trace: bool, traced: bool) -> Result<Outcome, String> {
    execute_inner(cfg, keep_trace, traced)
        .map_err(|why| format!("{} seed {}: {why}", cfg.protocol, cfg.seed))
}

fn execute_inner(
    cfg: &ExperimentConfig,
    keep_trace: bool,
    traced: bool,
) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    if traced {
        (layers.realize_ns, layers.build_ns) = time_assembly(cfg)?;
    }
    let start = now();
    let (result, recorder) = if traced {
        run_observed(cfg, Some(wall_recorder())).map_err(|e| e.to_string())?
    } else {
        (run(cfg).map_err(|e| e.to_string())?, None)
    };
    layers.run_ns = elapsed_ns(start);
    let (digest, fold_ns, series_ns) = extract(&result, keep_trace)?;
    let wall_ns = elapsed_ns(start);
    let counts = Counts::of(&result.stats);
    if let Some(rec) = recorder {
        let slot = protocol_slot(cfg.protocol);
        layers.fold_ns = fold_ns;
        layers.series_ns = series_ns;
        layers.dispatch_ns = rec.exclusive_ns(EVENT_DISPATCH);
        layers.dispatch_calls = rec.calls(EVENT_DISPATCH);
        layers.trace_ns = rec.exclusive_ns(TRACE_RECORDING);
        layers.protocol_ns[slot] = rec.exclusive_ns(PROTOCOL_PROCESSING);
        layers.protocol_calls[slot] = rec.calls(PROTOCOL_PROCESSING);
        let c = result.trace.census();
        layers.trace_kinds = [
            c.injected,
            c.forwarded,
            c.delivered,
            c.dropped,
            c.route_changes,
            c.control_sent,
            c.link_failures,
            c.link_recoveries,
            c.detections,
            c.impairment_changes,
            c.node_restarts,
        ];
    }
    Ok(Outcome {
        digest,
        wall_ns,
        counts,
        layers: traced.then_some(layers),
    })
}
