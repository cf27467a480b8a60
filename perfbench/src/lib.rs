//! The repository benchmark: workloads over the public API of
//! `pp_model`, `dsc_core`, `pp_protocols`, `pp_sim` and `pp_analysis`.
//!
//! A run measures one workload for a fixed time. The work is cut into
//! repetitions of fixed size whose inputs derive from the seed and the
//! repetition index, so a seed fixes every row. End-to-end metrics are
//! medians over the repetitions of an untraced run. A traced run replays
//! the same repetitions with spans around each layer call, checks that
//! every repetition's row digest equals the untraced one, and derives the
//! per-layer metrics from the spans plus the layer ladder.

#![forbid(unsafe_code)]

pub mod checks;
pub mod count_substrates;
pub mod grid_crash;
pub mod ladder;
pub mod manifest;
pub mod stats;
pub mod trace;

use dsc_core::{DscConfig, DynamicSizeCounting};
use pp_model::SizeEstimator;
use pp_sim::{Backend, BackendError, Recording, RunResult, Simulator, Sweep, SweepResults};
use stats::{median, mix};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DSC grid with static and crash schedules at cache-resident n.
    GridCrash,
    /// Finite-state substrates on the count and batched backends.
    CountSubstrates,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::GridCrash, Workload::CountSubstrates];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCrash => "grid_crash",
            Workload::CountSubstrates => "count_substrates",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload runs.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Seconds-long smoke scale: tiny inputs, same code paths and checks.
    pub smoke: bool,
    /// Worker threads of the grid workloads.
    pub threads: usize,
}

impl Config {
    /// Worker threads for a box: at most two, the parallelism the
    /// workloads were sized on, and never more than the box has.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
    }
}

/// Set-up samples taken before each untraced repetition.
pub const SETUPS_PER_REP: usize = 3;

/// What one repetition did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Wall time of the repetition's measured work.
    pub wall: Duration,
    /// Interactions performed (agent-array or exact count-backend).
    pub interactions: u64,
    /// Completed runs.
    pub runs: u64,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Digest of the repetition's rows.
    pub digest: u64,
}

/// Runs repetitions `0, 1, …` until `seconds` have passed (at least one),
/// or exactly `count` of them when given.
pub fn repeat(seconds: f64, count: Option<usize>, mut rep: impl FnMut(usize) -> Rep) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let done = match count {
            Some(c) => reps.len() >= c,
            None => !reps.is_empty() && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            return reps;
        }
        reps.push(rep(reps.len()));
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result line (digests, manifest, ladder).
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Adds a phase's operations.
    pub fn count(&mut self, reps: &[Rep]) {
        for r in reps {
            self.attempted += r.attempted;
            self.failed += r.failed;
        }
    }

    /// Runs an untraced phase of `seconds` and reports its checks, row
    /// digests and end-to-end metrics. `setup(i)` times set-up sample `i`;
    /// [`SETUPS_PER_REP`] samples precede every repetition `rep(i)`, so
    /// set-up and wall time are sampled over the same stretch of the run.
    pub fn untraced(
        seconds: f64,
        mut setup: impl FnMut(usize) -> f64,
        mut rep: impl FnMut(usize) -> Rep,
    ) -> Report {
        let mut setups = Vec::new();
        let reps = repeat(seconds, None, |i| {
            setups.extend((0..SETUPS_PER_REP).map(|k| setup(i * SETUPS_PER_REP + k)));
            rep(i)
        });
        let mut report = Report::default();
        report.count(&reps);
        report.notes = digest_notes("untraced", &reps);
        report.metrics = end_to_end(&reps, &setups, report.attempted, report.failed);
        report
    }

    /// The report of a traced run: the checks of both phases, one digest
    /// comparison per repetition, the tracing overhead, the spans written
    /// out, the layer ladder and every per-layer metric, `layers`
    /// supplying the workload's own.
    pub fn traced(
        c: &Config,
        untraced: &[Rep],
        traced: &[Rep],
        spans: &[trace::Span],
        mut layers: Layers,
    ) -> Report {
        let mut report = Report::default();
        report.count(untraced);
        report.count(traced);
        let (attempted, failed) = compare_digests(untraced, traced);
        report.attempted += attempted;
        report.failed += failed;
        report.notes = digest_notes("untraced", untraced);
        report.notes.extend(digest_notes("traced", traced));
        layers.insert("trace.overhead_frac", overhead(untraced, traced));
        write_trace(c, spans, &mut report.notes);
        ladder_layers(c, &mut layers, &mut report.notes);
        report.metrics = per_layer(&layers);
        report
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a metric that cannot be
                // computed reads 0.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as a JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
pub fn json_number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; a layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("trace.overhead_frac", "ratio"),
    ("runs", "count"),
    ("interactions", "count"),
    ("snapshots", "count"),
    ("pp_sim.sweep.cell_busy_s", "s"),
    ("pp_sim.runner.idle_frac", "ratio"),
    ("pp_sim.sweep.cell_ms_p50", "ms"),
    ("pp_sim.sweep.cell_ms_max", "ms"),
    ("pp_sim.recording.scan_s", "s"),
    ("pp_sim.recording.scan_share", "ratio"),
    ("pp_sim.simulator.ns_per_interaction", "ns"),
    ("pp_sim.adversary.agents_removed", "count"),
    ("dsc_core.converge_pt_mean", "pt"),
    ("pp_sim.count_sim.cell_busy_s", "s"),
    ("pp_sim.count_sim.ns_per_interaction", "ns"),
    ("pp_sim.batched_sim.cell_busy_s", "s"),
    ("pp_sim.batched_sim.ms_per_run", "ms"),
    ("rand.ns_per_word.n14", "ns"),
    ("pp_model.scheduler.ns_per_pair.n14", "ns"),
    ("pp_sim.simulator.gather_ns_per_pair.n14", "ns"),
    ("dsc_core.interact_ns.n14", "ns"),
    ("pp_sim.simulator.step_ns_per_interaction.n14", "ns"),
    ("pp_sim.recording.scan_ns_per_agent.n14", "ns"),
    ("rand.ns_per_word.n20", "ns"),
    ("pp_model.scheduler.ns_per_pair.n20", "ns"),
    ("pp_sim.simulator.gather_ns_per_pair.n20", "ns"),
    ("dsc_core.interact_ns.n20", "ns"),
    ("pp_sim.simulator.step_ns_per_interaction.n20", "ns"),
    ("pp_sim.recording.scan_ns_per_agent.n20", "ns"),
];

/// Per-layer values a traced run measured, by metric name.
pub type Layers = std::collections::BTreeMap<&'static str, f64>;

/// Every [`PER_LAYER`] metric, read from `layers` (0 where absent).
fn per_layer(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(reps: &[Rep], setup: &[f64], attempted: u64, failed: u64) -> Vec<Metric> {
    let per_wall = |f: fn(&Rep) -> u64| {
        let rates: Vec<f64> = reps
            .iter()
            .map(|r| f(r) as f64 / r.wall.as_secs_f64())
            .collect();
        median(&rates)
    };
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    vec![
        metric("wall_s", median(&walls), "s"),
        metric("setup_s", median(setup), "s"),
        metric("interactions_per_s", per_wall(|r| r.interactions), "1/s"),
        metric("runs_per_s", per_wall(|r| r.runs), "1/s"),
        metric("peak_rss_mb", manifest::peak_rss_mib(), "MiB"),
        metric(
            "ok_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Compares the traced repetitions' digests with the untraced ones: one
/// checked operation per repetition. Returns `(attempted, failed)`.
fn compare_digests(untraced: &[Rep], traced: &[Rep]) -> (u64, u64) {
    let failed = untraced
        .iter()
        .zip(traced)
        .filter(|(a, b)| a.digest != b.digest)
        .count()
        + untraced.len().abs_diff(traced.len());
    (untraced.len().max(traced.len()) as u64, failed as u64)
}

/// Tracing overhead: the traced repetitions' median wall over the
/// untraced one, minus one.
fn overhead(untraced: &[Rep], traced: &[Rep]) -> f64 {
    let wall = |reps: &[Rep]| {
        median(
            &reps
                .iter()
                .map(|r| r.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    wall(traced) / wall(untraced) - 1.0
}

/// Digest lines for the notes: one per repetition, with its wall time.
fn digest_notes(phase: &str, reps: &[Rep]) -> Vec<String> {
    reps.iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "digest {phase} rep {i} {:016x} wall_s {}",
                r.digest,
                r.wall.as_secs_f64()
            )
        })
        .collect()
}

/// Span name of one `Sweep::run_on` call.
pub const RUN_ON: &str = "pp_sim.sweep.run_on";

/// Runs `sweep` on backend `B` under `recording` and times the call.
/// Traced, the call runs inside a [`RUN_ON`] span on the
/// [`trace::Timed`] backend under the [`trace::Traced`] plan. A
/// [`BackendError`] or a panic comes back as `Err` with its message.
pub fn run_sweep<P, B, R>(
    sweep: Sweep<P>,
    recording: R,
    traced: bool,
) -> (Duration, Result<SweepResults, String>)
where
    P: SizeEstimator + Clone + Send + Sync,
    P::State: Clone + Send + Sync + 'static,
    B: Backend<Protocol = P, State = P::State>,
    R: Recording<P>,
{
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            trace::span(
                RUN_ON,
                |r: &Result<SweepResults, BackendError>| {
                    r.as_ref().map_or(0, |s| s.total_runs() as u64)
                },
                || sweep.run_on::<trace::Timed<B>, _>(trace::Traced(recording)),
            )
        } else {
            sweep.run_on::<B, _>(recording)
        }
    }));
    let wall = start.elapsed();
    let result = match outcome {
        Ok(Ok(results)) => Ok(results),
        Ok(Err(error)) => Err(error.to_string()),
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())),
    };
    (wall, result)
}

/// Agents the adversary removed during a run: the summed population drops
/// between consecutive snapshots.
pub fn agents_removed(run: &RunResult) -> u64 {
    run.snapshots
        .windows(2)
        .map(|w| w[0].n.saturating_sub(w[1].n) as u64)
        .sum()
}

/// Folds a run's rows into `digest`: seed, final population, and every
/// snapshot's time, interaction count, population and estimate summary.
pub fn digest_run(digest: &mut stats::Digest, run: &RunResult) {
    digest.word(run.seed);
    digest.word(run.final_n as u64);
    for s in &run.snapshots {
        digest.float(s.parallel_time);
        digest.word(s.interactions);
        digest.word(s.n as u64);
        if let Some(e) = s.estimates {
            for x in [e.min, e.median, e.max, e.mean] {
                digest.float(x);
            }
            digest.word(e.without_estimate);
        }
    }
}

/// Backend names the [`trace::Timed`] wrapper names cell spans after.
pub const CELL_SPANS: [&str; 3] = ["agent-array", "count", "batched-count"];

/// Per-layer values of the grid engine, from the spans of a traced phase
/// run on `threads` workers: busy time of all cells, the runner's idle
/// share, and the median and slowest cell.
pub fn grid_layers(spans: &[trace::Span], threads: usize, layers: &mut Layers) {
    let wall = trace::totals(spans, RUN_ON).secs;
    let cell_ms: Vec<f64> = spans
        .iter()
        .filter(|s| CELL_SPANS.contains(&s.name))
        .map(|s| s.secs() * 1e3)
        .collect();
    let busy = cell_ms.iter().sum::<f64>() * 1e-3;
    layers.insert("pp_sim.sweep.cell_busy_s", busy);
    layers.insert(
        "pp_sim.runner.idle_frac",
        1.0 - busy / (wall * threads as f64),
    );
    layers.insert("pp_sim.sweep.cell_ms_p50", median(&cell_ms));
    layers.insert(
        "pp_sim.sweep.cell_ms_max",
        cell_ms.iter().copied().fold(0.0, f64::max),
    );
}

/// Warm-up of a ladder population, in parallel time, before it counts as
/// steady: a fresh population of 2^20 converges into its band by ≈ 25 pt.
const WARM_PT: f64 = 40.0;

/// The paper's protocol with its §5 empirical constants.
pub fn paper_protocol() -> DynamicSizeCounting {
    DynamicSizeCounting::new(DscConfig::empirical())
}

/// A DSC simulator of `n` fresh agents warmed up for [`WARM_PT`].
fn warmed(n: usize, seed: u64) -> Simulator<DynamicSizeCounting> {
    let mut sim = Simulator::with_seed(paper_protocol(), n, seed);
    sim.run_parallel_time(WARM_PT);
    sim
}

/// Runs the layer ladder on two freshly warmed populations and adds its
/// medians to `layers` and its quartiles to `notes`.
fn ladder_layers(c: &Config, layers: &mut Layers, notes: &mut Vec<String>) {
    // Smoke runs shrink both populations and every sample; their rung
    // values only prove the pipeline.
    let (small_n, large_n, rounds, scale) = if c.smoke {
        (1 << 12, 1 << 14, 2, 64)
    } else {
        (1 << 14, 1 << 20, 7, 1)
    };
    let mut small = warmed(small_n, mix(c.seed, 0x1AD0));
    let mut large = warmed(large_n, mix(c.seed, 0x1AD1));
    let mut populations = [
        ladder::Population {
            label: "n14",
            sim: &mut small,
        },
        ladder::Population {
            label: "n20",
            sim: &mut large,
        },
    ];
    let rungs = ladder::run(&mut populations, rounds, scale, mix(c.seed, 0x1AD2));
    let mut parts = Vec::new();
    for rung in &rungs {
        let (q1, mid, q3) = stats::quartiles(&rung.samples);
        parts.push(format!(
            "\"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"rounds\": {}}}",
            rung.name,
            json_number(mid),
            json_number(q1),
            json_number(q3),
            rung.samples.len()
        ));
        if let Some(&(name, _)) = PER_LAYER.iter().find(|(name, _)| *name == rung.name) {
            layers.insert(name, mid);
        }
    }
    notes.push(format!("ladder {{{}}}", parts.join(", ")));
}

/// Where traced runs write their spans: `perfbench-trace/<workload>.tsv`
/// under the Cargo target directory (`CARGO_TARGET_DIR`, else the
/// package's own `target`).
pub fn trace_path(c: &Config) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        std::path::PathBuf::from,
    );
    target
        .join("perfbench-trace")
        .join(format!("{}.tsv", c.workload.name()))
}

/// Writes the spans of a traced run and notes where they went.
fn write_trace(c: &Config, spans: &[trace::Span], notes: &mut Vec<String>) {
    let path = trace_path(c);
    match trace::write(&path, spans) {
        Ok(()) => notes.push(format!("trace {} spans {}", spans.len(), path.display())),
        Err(error) => notes.push(format!("trace not written to {}: {error}", path.display())),
    }
}

/// Runs one invocation.
pub fn run(config: &Config) -> Report {
    let mut report = match config.workload {
        Workload::GridCrash => grid_crash::run(config),
        Workload::CountSubstrates => count_substrates::run(config),
    };
    report
        .notes
        .push(format!("manifest {}", manifest::manifest(config)));
    report
}
