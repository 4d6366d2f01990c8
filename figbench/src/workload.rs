//! The four workloads: what each one runs for a seed, and one timed pass.
//!
//! Every pass runs in a fresh process, so the program's process-global
//! warm-up caches start empty and every store is a new directory — the cost
//! a user pays on every figure regeneration. The seed only reaches the
//! program through `SimConfig::seed` and the serve request stream, so the
//! amount of work is the same for every seed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use hotgauge_core::experiments::{sec5b_grid, tuh_grid, Fidelity};
use hotgauge_core::pipeline::{RunResult, SimConfig};
use hotgauge_core::sweep::{pool_workers, run_many_batched_with};
use hotgauge_floorplan::tech::TechNode;
use hotgauge_store::{request_config, ResultStore, ServeOptions, SweepRequest};
use hotgauge_thermal::warmup::Warmup;
use hotgauge_workloads::spec2006::ALL_BENCHMARKS;

use crate::checks::{self, Checker};
use crate::clock::{self, Stopwatch};
use crate::serve_loop;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11's TUH grid from cold and idle starts on the smoke preset,
    /// on a two-worker pool: per-run core warm-up dominates.
    Fig11Grid,
    /// §V-B's IC-area ladder: three geometries (14 nm and two enlarged
    /// 7 nm dies), each built and idle-warmed once, so geometry
    /// construction dominates.
    Sec5bLadder,
    /// Long cold-start transients over one full lockstep lane group of one
    /// geometry: per-substep perf/power/thermal/analysis stepping dominates.
    TransientLong,
    /// The resident NDJSON service on a fresh store: store misses
    /// (simulate + persist) and hits (read + verify) in one closed loop.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig11Grid,
        Workload::Sec5bLadder,
        Workload::TransientLong,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Grid => "fig11_grid",
            Workload::Sec5bLadder => "sec5b_ladder",
            Workload::TransientLong => "transient_long",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what `BENCHMARK.json` measures; `Tiny` runs a few
/// jobs of the same shape, for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few runs or requests.
    Tiny,
}

impl Scale {
    /// Parses `full` / `tiny`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// The scale's name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// Fig. 11's grid runs every benchmark on every core of the 7-core die. It
/// is cut to the first few SPEC proxies, in count only, so a pass takes a
/// few seconds rather than the full grid's half minute.
const FIG11_BENCHMARKS: usize = 3;
const FIG11_CORES: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];

/// §V-B's benchmarks (the `sec5b_ic_scaling` default set) and two rungs of
/// its IC area ladder: each rung is a geometry costing about a second to
/// build and idle-warm on a 2-CPU host, so the ladder is cut to two rungs
/// to keep a pass near four seconds.
const SEC5B_BENCHMARKS: [&str; 4] = ["gcc", "hmmer", "povray", "gobmk"];
const SEC5B_FACTORS: [f64; 2] = [1.5, 2.0];
/// Short enough that geometry construction, not stepping, dominates.
const SEC5B_HORIZON_S: f64 = 2e-3;

/// Eight benchmarks fill exactly one lockstep lane group of one geometry.
const TRANSIENT_BENCHMARKS: [&str; 8] = [
    "perlbench",
    "bzip2",
    "gcc",
    "mcf",
    "gobmk",
    "hmmer",
    "sjeng",
    "libquantum",
];
/// Long enough that stepping, not the eight core warm-ups, dominates. The
/// runs start cold: an idle thermal warm-up of the 150 µm grid costs as
/// much as the whole transient, and construction changes should not move
/// this workload.
const TRANSIENT_HORIZON_S: f64 = 16e-3;

/// The serve stream draws from the first ten SPEC proxies.
const SERVE_BENCHMARKS: usize = 10;
/// Distinct requests per pass. Each is sent once as a store miss and
/// re-sent once later as a store hit.
const SERVE_DISTINCT: usize = 24;
/// Serve requests run the smoke preset for one simulated millisecond.
const SERVE_MS: f64 = 1.0;

/// A workload's inputs for one seed.
#[derive(Debug, Clone)]
pub enum Jobs {
    /// Batch sweeps: each inner list is one `run_many_batched_with` call.
    Batch {
        /// The preset, thread budget and batch width of every sweep.
        fid: Fidelity,
        /// The sweeps, run one after another.
        sweeps: Vec<Vec<SimConfig>>,
    },
    /// A closed-loop request stream against `hotgauge_store::serve`.
    Serve {
        /// The service's preset and executor knobs.
        opts: ServeOptions,
        /// Requests in send order: the distinct requests first, then the
        /// seeded re-sends.
        stream: Vec<SweepRequest>,
        /// How many leading requests of `stream` are distinct.
        distinct: usize,
    },
}

impl Jobs {
    /// Builds the inputs of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Self {
        let tiny = scale == Scale::Tiny;
        match workload {
            Workload::Fig11Grid => {
                let fid = Fidelity {
                    threads: 2,
                    batch: 8,
                    ..Fidelity::smoke()
                };
                let benches = &ALL_BENCHMARKS[..if tiny { 1 } else { FIG11_BENCHMARKS }];
                let sweeps = [Warmup::Cold, Warmup::Idle]
                    .into_iter()
                    .map(|warmup| {
                        let grid = tuh_grid(&fid, TechNode::N7, warmup, benches, &FIG11_CORES);
                        seeded(grid, seed)
                    })
                    .collect();
                Jobs::Batch { fid, sweeps }
            }
            Workload::Sec5bLadder => {
                let fid = Fidelity {
                    threads: 1,
                    batch: 8,
                    ..Fidelity::fast()
                };
                let (benches, factors): (&[&str], &[f64]) = if tiny {
                    (&SEC5B_BENCHMARKS[..1], &SEC5B_FACTORS[..1])
                } else {
                    (&SEC5B_BENCHMARKS, &SEC5B_FACTORS)
                };
                let horizon = if tiny { 1e-3 } else { SEC5B_HORIZON_S };
                let grid = sec5b_grid(&fid, benches, factors, horizon);
                Jobs::Batch {
                    fid,
                    sweeps: vec![seeded(grid, seed)],
                }
            }
            Workload::TransientLong => {
                let fid = Fidelity {
                    threads: 1,
                    batch: 8,
                    ..Fidelity::medium()
                };
                let benches: &[&str] = if tiny {
                    &TRANSIENT_BENCHMARKS[..2]
                } else {
                    &TRANSIENT_BENCHMARKS
                };
                let horizon = if tiny { 1e-3 } else { TRANSIENT_HORIZON_S };
                let grid = tuh_grid(&fid, TechNode::N7, Warmup::Cold, benches, &[0])
                    .into_iter()
                    .map(|mut cfg| {
                        cfg.stop_at_first_hotspot = false;
                        cfg.max_time_s = horizon;
                        cfg
                    })
                    .collect();
                Jobs::Batch {
                    fid,
                    sweeps: vec![seeded(grid, seed)],
                }
            }
            Workload::ServeMixed => {
                let fidelity = Fidelity {
                    threads: 1,
                    batch: 8,
                    ..Fidelity::smoke()
                };
                let distinct = if tiny { 2 } else { SERVE_DISTINCT };
                Jobs::Serve {
                    opts: ServeOptions::from_fidelity(fidelity),
                    stream: serve_stream(seed, distinct),
                    distinct,
                }
            }
        }
    }

    /// The simulation configs behind the jobs, one per distinct run.
    pub fn configs(&self) -> Vec<SimConfig> {
        match self {
            Jobs::Batch { sweeps, .. } => sweeps.iter().flatten().cloned().collect(),
            Jobs::Serve {
                opts,
                stream,
                distinct,
            } => stream[..*distinct]
                .iter()
                .filter_map(|r| request_config(r, &opts.fidelity).ok())
                .collect(),
        }
    }
}

fn seeded(grid: Vec<SimConfig>, seed: u64) -> Vec<SimConfig> {
    grid.into_iter()
        .map(|mut cfg| {
            cfg.seed = seed;
            cfg
        })
        .collect()
}

/// SplitMix64: a tiny deterministic generator for the request stream, so
/// the same seed always yields the same requests in the same order.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The serve stream: `distinct` requests stratified over benchmark, node
/// and warm-up (so every seed asks for the same mix of work), with core and
/// request seed drawn from `seed` (redrawn until the request is new); then
/// every request re-sent once, in a seeded order.
fn serve_stream(seed: u64, distinct: usize) -> Vec<SweepRequest> {
    let mut rng = SplitMix(seed);
    let mut firsts: Vec<SweepRequest> = Vec::with_capacity(distinct);
    for i in 0..distinct {
        let req = loop {
            let req = SweepRequest {
                benchmark: ALL_BENCHMARKS[i % SERVE_BENCHMARKS].to_owned(),
                node: Some(if (i / 2) % 2 == 0 { "7nm" } else { "14nm" }.to_owned()),
                core: Some(rng.below(7)),
                // Four request seeds per benchmark seed, disjoint across seeds.
                seed: Some(seed.wrapping_mul(4).wrapping_add(rng.below(4) as u64)),
                cold: Some(i % 2 == 1),
                ms: Some(SERVE_MS),
                ..SweepRequest::default()
            };
            let seen = |r: &SweepRequest| {
                (&r.benchmark, &r.node, r.core, r.seed, r.cold)
                    == (&req.benchmark, &req.node, req.core, req.seed, req.cold)
            };
            if !firsts.iter().any(seen) {
                break req;
            }
        };
        firsts.push(req);
    }
    let mut again = firsts.clone();
    for i in (1..again.len()).rev() {
        let j = rng.below(i + 1);
        again.swap(i, j);
    }
    let mut stream = firsts;
    stream.extend(again);
    stream
}

/// What one timed pass measured and checked.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// CPU seconds the process had used when the timed pass began: its
    /// set-up (exec, loading, input construction, store creation).
    pub setup_s: f64,
    /// Host seconds of the timed pass.
    pub wall_s: f64,
    /// Simulated die milliseconds of the freshly simulated runs.
    pub sim_ms: f64,
    /// Runs or requests attempted.
    pub attempted: u64,
    /// Runs or requests whose output failed a check.
    pub failed: u64,
    /// The first few check failures, for the log.
    pub errors: Vec<String>,
    /// `key_of_value` over the results. Reported, not checked.
    pub digest: String,
    /// `key_of_value` over the results that must repeat exactly: all of
    /// them, except the idle-start runs of a pool of several workers.
    /// Those depend on which worker fills the program's first-caller-wins
    /// idle warm-up cache first (see README.md).
    pub checked_digest: String,
    /// Sweep workers per executor call.
    pub workers: usize,
    /// Runs simulated (not served from the store).
    pub simulated: u64,
    /// Distinct geometries among the idle-start simulated runs: each pays
    /// one idle thermal warm-up per process.
    pub idle_geometries: u64,
    /// Closed-loop latency of each store hit, ms (serve only).
    pub hit_ms: Vec<f64>,
    /// Closed-loop latency of each store miss, ms (serve only).
    pub miss_ms: Vec<f64>,
}

/// Runs one timed pass of `jobs`. Stores live under `tmp`. With
/// `setup_only`, stops where the timed pass would start: the outcome then
/// carries only `setup_s`.
pub fn run_pass(jobs: Jobs, tmp: &Path, setup_only: bool) -> Result<PassOutcome, String> {
    let idle_geometries = idle_geometries(&jobs.configs());
    let mut out = match jobs {
        Jobs::Batch { fid, sweeps } => run_batch(&fid, sweeps, setup_only)?,
        Jobs::Serve {
            opts,
            stream,
            distinct,
        } => run_serve(&opts, &stream, distinct, tmp, setup_only)?,
    };
    out.idle_geometries = idle_geometries;
    Ok(out)
}

fn run_batch(
    fid: &Fidelity,
    sweeps: Vec<Vec<SimConfig>>,
    setup_only: bool,
) -> Result<PassOutcome, String> {
    let expected = sweeps.clone();
    let jobs: usize = sweeps.iter().map(Vec::len).sum();
    let setup_s = setup_cpu_s()?;
    if setup_only {
        return Ok(PassOutcome {
            setup_s,
            ..PassOutcome::default()
        });
    }
    let timer = Stopwatch::start();
    let results: Vec<Vec<RunResult>> = sweeps
        .into_iter()
        .map(|cfgs| run_many_batched_with(cfgs, fid.threads, fid.batch, None))
        .collect();
    let wall_s = timer.elapsed_s();

    let mut checker = Checker::default();
    let mut sim_ms = 0.0;
    for (cfgs, rs) in expected.iter().zip(&results) {
        if cfgs.len() != rs.len() {
            checker.fail(
                cfgs.len() as u64,
                format!(
                    "sweep returned {} results for {} jobs",
                    rs.len(),
                    cfgs.len()
                ),
            );
        }
        for (cfg, r) in cfgs.iter().zip(rs) {
            checker.check(checks::run_result(cfg, r));
            sim_ms += r.records.last().map_or(0.0, |s| s.time_s) * 1e3;
        }
    }
    let workers = pool_workers(fid.threads, expected.first().map_or(1, Vec::len));
    let all: Vec<&RunResult> = results.iter().flatten().collect();
    let repeatable: Vec<&RunResult> = expected
        .iter()
        .flatten()
        .zip(&all)
        .filter(|(cfg, _)| workers == 1 || cfg.warmup == Warmup::Cold)
        .map(|(_, r)| *r)
        .collect();
    Ok(PassOutcome {
        setup_s,
        wall_s,
        sim_ms,
        attempted: jobs as u64,
        failed: checker.failed,
        errors: checker.errors,
        digest: checks::digest(&serde_json::to_value(&all)),
        checked_digest: checks::digest(&serde_json::to_value(&repeatable)),
        workers,
        simulated: jobs as u64,
        ..PassOutcome::default()
    })
}

fn run_serve(
    opts: &ServeOptions,
    stream: &[SweepRequest],
    distinct: usize,
    tmp: &Path,
    setup_only: bool,
) -> Result<PassOutcome, String> {
    let setup_s = setup_cpu_s()?;
    if setup_only {
        return Ok(PassOutcome {
            setup_s,
            ..PassOutcome::default()
        });
    }
    // Opening the fresh store is part of the timed session: its filesystem
    // calls would otherwise dominate, and destabilise, the tiny set-up.
    let timer = Stopwatch::start();
    let root = fresh_dir(tmp, "store");
    let session = ResultStore::open(&root)
        .map_err(|e| format!("cannot open a fresh store: {e}"))
        .and_then(|mut store| serve_loop::closed_loop(&mut store, opts, stream));
    let wall_s = timer.elapsed_s();
    let _ = std::fs::remove_dir_all(&root);
    let replies = session?;

    let mut checker = Checker::default();
    let mut sim_ms = 0.0;
    let mut out = PassOutcome {
        setup_s,
        wall_s,
        attempted: stream.len() as u64,
        workers: 1,
        ..PassOutcome::default()
    };
    // A re-sent request is answered from the store with its first reply.
    let texts: Vec<String> = stream
        .iter()
        .map(|r| serde_json::to_string(r).unwrap_or_default())
        .collect();
    for (i, (req, reply)) in stream.iter().zip(&replies).enumerate() {
        let miss = i < distinct;
        let first = texts[..distinct]
            .iter()
            .position(|t| *t == texts[i])
            .and_then(|j| replies.get(j));
        let cfg = match request_config(req, &opts.fidelity) {
            Ok(cfg) => cfg,
            Err(e) => {
                checker.fail(1, format!("request {i} is invalid: {e}"));
                continue;
            }
        };
        checker.check(checks::serve_reply(
            req,
            reply,
            first,
            miss,
            checks::horizon_s(&cfg),
        ));
        if miss {
            out.miss_ms.push(reply.ms);
            sim_ms += cfg.max_time_s * 1e3;
        } else {
            out.hit_ms.push(reply.ms);
        }
    }
    if replies.len() != stream.len() {
        checker.fail(
            (stream.len() - replies.len().min(stream.len())) as u64,
            format!("{} replies for {} requests", replies.len(), stream.len()),
        );
    }
    let rows: Vec<serde::Value> = replies.iter().map(checks::reply_identity).collect();
    // One client in a seeded order: every result repeats exactly.
    out.digest = checks::digest(&serde::Value::Seq(rows));
    out.checked_digest = out.digest.clone();
    out.sim_ms = sim_ms;
    out.failed = checker.failed;
    out.errors = checker.errors;
    out.simulated = distinct as u64;
    Ok(out)
}

/// A path under `tmp` for a store of this process, emptied first: a
/// process id can repeat across runs, a left-over store must not.
pub fn fresh_dir(tmp: &Path, tag: &str) -> PathBuf {
    let dir = tmp.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The process's CPU time so far, s.
fn setup_cpu_s() -> Result<f64, String> {
    clock::process_cpu_ns()
        .map(|ns| ns as f64 * 1e-9)
        .ok_or_else(|| "cannot read the process CPU clock".to_owned())
}

/// The die geometry a config simulates: the inputs of its floorplan, grid
/// and thermal model.
pub fn geometry_key(c: &SimConfig) -> String {
    format!(
        "{:?}|{}|{}|{}",
        c.node, c.ic_area_factor, c.cell_um, c.border_mm
    )
}

/// Distinct geometries among the idle-start configs.
fn idle_geometries(cfgs: &[SimConfig]) -> u64 {
    cfgs.iter()
        .filter(|c| c.warmup == Warmup::Idle)
        .map(geometry_key)
        .collect::<BTreeSet<_>>()
        .len() as u64
}
