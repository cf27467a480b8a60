//! `count_substrates`: finite-state substrates on the count backends.
//!
//! Bounded CHVP (the paper's Lemma 4.3/4.4 set-ups) runs on the exact
//! `CountSimulator`, and the Infection epidemic runs under the five
//! built-in churn traces on the tau-leaping `BatchedCountSimulator`, both
//! through `Sweep::run_on`. Neither touches the agent array, `dsc_core` or
//! the snapshot scans, so agent-array changes should leave this workload
//! unmoved; it is also the only workload on the count layers.

use crate::stats::{mix, Digest};
use crate::{
    agents_removed, checks, digest_run, grid_layers, repeat, run_sweep, trace, Config, Layers, Rep,
    Report,
};
use pp_protocols::{BoundedChvp, Infection};
use pp_sim::{
    scenario, BatchedCountSimulator, CountSimulator, Sweep, SweepResults, TrackedEstimates,
    BUILTIN_TRACES,
};
use std::time::{Duration, Instant};

/// Sizes of one repetition.
#[derive(Debug, Clone)]
pub struct Params {
    /// CHVP population.
    pub chvp_n: usize,
    /// CHVP start value `m`.
    pub m: u32,
    /// Lemma 4.3 drop `Δ`.
    pub delta: f64,
    /// Lemma error exponent `k`.
    pub k: f64,
    /// Runs per CHVP lemma.
    pub chvp_runs: usize,
    /// Infection populations under the traces.
    pub trace_populations: Vec<usize>,
    /// Runs per trace cell.
    pub trace_runs: usize,
}

impl Params {
    /// Measurement scale, or the smoke scale.
    pub fn new(smoke: bool) -> Params {
        Params {
            chvp_n: if smoke { 1 << 10 } else { 1 << 14 },
            m: 400,
            delta: 60.0,
            k: 2.0,
            chvp_runs: if smoke { 1 } else { 2 },
            trace_populations: if smoke {
                vec![1 << 12]
            } else {
                vec![1 << 16, 1 << 20]
            },
            trace_runs: if smoke { 1 } else { 2 },
        }
    }

    /// `Δ + k·log2 n`: the lemmas' window in parallel time per 7 units.
    pub fn window(&self) -> f64 {
        self.delta + self.k * (self.chvp_n as f64).log2()
    }

    /// Runs per repetition.
    pub fn runs(&self) -> u64 {
        (2 * self.chvp_runs + BUILTIN_TRACES.len() * self.trace_populations.len() * self.trace_runs)
            as u64
    }
}

/// The last end time over the built-in traces.
fn churn_end() -> f64 {
    BUILTIN_TRACES
        .iter()
        .filter_map(|name| scenario::builtin(name))
        .map(|t| t.end_time())
        .fold(0.0, f64::max)
}

/// Initial counts of a CHVP lemma run: all agents at `m` (Lemma 4.3), or
/// one at `m` and the rest at 0 (Lemma 4.4).
fn chvp_counts(n: u64, m: u32, lemma44: bool) -> Vec<u64> {
    let mut counts = vec![0u64; m as usize + 1];
    if lemma44 {
        counts[0] = n - 1;
        counts[m as usize] = 1;
    } else {
        counts[m as usize] = n;
    }
    counts
}

/// A CHVP lemma grid; `full` runs the `7(Δ + k log n)` budget, otherwise
/// horizon 0.
fn chvp_sweep(
    p: &Params,
    lemma44: bool,
    seed: u64,
    threads: usize,
    full: bool,
) -> Sweep<BoundedChvp> {
    let m = p.m;
    Sweep::new(BoundedChvp::new(m))
        .populations([p.chvp_n])
        .runs(p.chvp_runs)
        .master_seed(seed)
        .threads(threads)
        .horizon(if full { 7.0 * p.window() } else { 0.0 })
        .snapshot_every(1.0)
        .init_counts(move |n| chvp_counts(n, m, lemma44))
}

/// The Infection grid under every built-in trace; `full` gives each cell
/// the last churn end plus the Lemma 4.2 window of the grown population,
/// like the `scenario` experiment; otherwise horizon 0.
fn trace_sweep(p: &Params, seed: u64, threads: usize, full: bool) -> Sweep<Infection> {
    let end = churn_end();
    let mut grid = Sweep::new(Infection::new())
        .populations(p.trace_populations.iter().copied())
        .runs(p.trace_runs)
        .master_seed(seed)
        .threads(threads)
        .horizon_with(move |n| {
            if full {
                end + checks::epidemic_window(4 * n) + 1.0
            } else {
                0.0
            }
        })
        .snapshot_every(1.0)
        .init_counts(|n| vec![n - 1, 1]);
    for name in BUILTIN_TRACES {
        grid = grid.scenario(name, scenario::builtin(name).expect("built-in trace"));
    }
    grid
}

/// Row tallies a traced phase reports as counts.
#[derive(Debug, Default)]
struct Tally {
    snapshots: u64,
    removed: u64,
}

/// What one grid of a repetition produced.
struct Part {
    runs: u64,
    failed: u64,
    interactions: u64,
}

/// Checks and digests one grid's rows; `check` judges one run of a cell.
fn evaluate(
    results: &Result<SweepResults, String>,
    expected_runs: u64,
    digest: &mut Digest,
    tally: &mut Tally,
    exact: bool,
    check: impl Fn(&pp_sim::SweepCell, &pp_sim::RunResult) -> bool,
) -> Part {
    let results = match results {
        Ok(r) => r,
        Err(error) => {
            eprintln!("count_substrates: {error}");
            return Part {
                runs: expected_runs,
                failed: expected_runs,
                interactions: 0,
            };
        }
    };
    let mut part = Part {
        runs: results.total_runs() as u64,
        failed: 0,
        interactions: 0,
    };
    for cell in &results.cells {
        for run in &cell.runs {
            digest_run(digest, run);
            tally.snapshots += run.snapshots.len() as u64;
            tally.removed += agents_removed(run);
            if exact {
                part.interactions += trace::run_interactions(run);
            }
            if !check(cell, run) {
                part.failed += 1;
                eprintln!(
                    "count_substrates: check failed for a {} run at n = {} (seed {}): last snapshot {:?}",
                    cell.schedule,
                    cell.n,
                    run.seed,
                    run.snapshots.last()
                );
            }
        }
    }
    part
}

/// One repetition: both CHVP lemma grids and the trace grid.
fn rep(c: &Config, p: &Params, index: usize, traced: bool, tally: &mut Tally) -> Rep {
    let seed = mix(c.seed, index as u64);
    let mut digest = Digest::default();
    let mut wall = Duration::ZERO;
    let mut rep = Rep::default();
    let window = p.window();
    let (m, delta) = (p.m, p.delta);
    let chvp_runs = p.chvp_runs as u64;
    for lemma44 in [false, true] {
        let grid = chvp_sweep(p, lemma44, mix(seed, u64::from(lemma44)), c.threads, true);
        let (w, results) = run_sweep::<_, CountSimulator<_>, _>(grid, TrackedEstimates, traced);
        wall += w;
        let part = evaluate(&results, chvp_runs, &mut digest, tally, true, |_, run| {
            if lemma44 {
                checks::chvp_min_caught_up(run, m, window)
            } else {
                checks::chvp_max_dropped(run, m, delta)
            }
        });
        rep.runs += part.runs;
        rep.failed += part.failed;
        rep.interactions += part.interactions;
    }
    let grid = trace_sweep(p, mix(seed, 2), c.threads, true);
    let (w, results) = run_sweep::<_, BatchedCountSimulator<_>, _>(grid, TrackedEstimates, traced);
    wall += w;
    let expected = p.runs() - 2 * chvp_runs;
    let part = evaluate(
        &results,
        expected,
        &mut digest,
        tally,
        false,
        |cell, run| {
            let end = scenario::builtin(&cell.schedule).map_or(0.0, |t| t.end_time());
            checks::trace_run_settles(run, end, checks::epidemic_window(4 * cell.n))
        },
    );
    rep.runs += part.runs;
    rep.failed += part.failed;
    rep.attempted = rep.runs;
    rep.wall = wall;
    rep.digest = digest.value();
    rep
}

/// Set-up time: building the three grids and running them to horizon 0
/// (pre-flight, trace compilation and schedule validation, initial
/// counts, and every cell's count-simulator construction), on one worker
/// thread like `grid_crash`'s set-up. One sample times `SETUP_BATCH` such
/// set-ups back to back and reports their mean, since a single one takes
/// well under a millisecond.
fn setup(c: &Config, p: &Params, index: usize) -> f64 {
    let start = Instant::now();
    let mut errors = Vec::new();
    for b in 0..SETUP_BATCH {
        let seed = mix(c.seed, 1 << 32 | (index * SETUP_BATCH + b) as u64);
        for lemma44 in [false, true] {
            let grid = chvp_sweep(p, lemma44, mix(seed, u64::from(lemma44)), 1, false);
            errors.push(
                run_sweep::<_, CountSimulator<_>, _>(grid, TrackedEstimates, false)
                    .1
                    .err(),
            );
        }
        let grid = trace_sweep(p, mix(seed, 2), 1, false);
        errors.push(
            run_sweep::<_, BatchedCountSimulator<_>, _>(grid, TrackedEstimates, false)
                .1
                .err(),
        );
    }
    let secs = start.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    for error in errors.into_iter().flatten() {
        eprintln!("count_substrates set-up: {error}");
    }
    secs
}

/// Set-ups timed together as one sample.
const SETUP_BATCH: usize = 20;

/// Runs the workload.
pub fn run(c: &Config) -> Report {
    let p = Params::new(c.smoke);
    if !c.trace {
        return Report::untraced(
            c.seconds,
            |i| setup(c, &p, i),
            |i| rep(c, &p, i, false, &mut Tally::default()),
        );
    }
    let untraced = repeat(c.seconds / 2.0, None, |i| {
        rep(c, &p, i, false, &mut Tally::default())
    });
    trace::enable();
    let mut tally = Tally::default();
    let traced = repeat(0.0, Some(untraced.len()), |i| {
        rep(c, &p, i, true, &mut tally)
    });
    let spans = trace::take();

    let count = trace::totals(&spans, "count");
    let batched = trace::totals(&spans, "batched-count");
    let mut layers = Layers::new();
    grid_layers(&spans, c.threads, &mut layers);
    layers.insert("runs", traced.iter().map(|r| r.runs).sum::<u64>() as f64);
    layers.insert("interactions", count.count as f64);
    layers.insert("snapshots", tally.snapshots as f64);
    layers.insert("pp_sim.adversary.agents_removed", tally.removed as f64);
    layers.insert("pp_sim.count_sim.cell_busy_s", count.secs);
    layers.insert(
        "pp_sim.count_sim.ns_per_interaction",
        count.secs * 1e9 / count.count as f64,
    );
    layers.insert("pp_sim.batched_sim.cell_busy_s", batched.secs);
    layers.insert(
        "pp_sim.batched_sim.ms_per_run",
        batched.secs * 1e3 / batched.spans as f64,
    );
    Report::traced(c, &untraced, &traced, &spans, layers)
}
