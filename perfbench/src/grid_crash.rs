//! `grid_crash`: a DSC grid at cache-resident populations under a static
//! and a crash schedule, on the agent-array backend with a scan per 1 pt
//! snapshot.
//!
//! This is the shape of most registry experiments at default scale
//! (`Sweep::run_on` → `Simulator` → `ScannedEstimates`). The largest agent
//! array, 2^14 × 24 B = 384 KiB, stays below the gather threshold, so the
//! in-place stepping path runs and the cost lands on the grid engine, the
//! transition and the scans. Crash cells also exercise removal and
//! re-convergence.

use crate::checks;
use crate::stats::{mix, Digest};
use crate::{
    agents_removed, digest_run, grid_layers, paper_protocol, repeat, run_sweep, trace, Config,
    Layers, Rep, Report,
};
use dsc_core::DynamicSizeCounting;
use pp_sim::{
    AdversarySchedule, PopulationEvent, ScannedEstimates, Simulator, Sweep, SweepResults,
};
use std::time::Instant;

/// Grid shape.
#[derive(Debug, Clone)]
pub struct Params {
    /// Populations of the grid.
    pub populations: Vec<usize>,
    /// Runs per cell.
    pub runs: usize,
    /// Parallel time of the crash; every static run has converged by then
    /// (convergence takes about 15–21 pt at these sizes).
    pub crash_at: f64,
    /// Population left by the crash: two dozen agents, whose estimate
    /// level sits clearly below the pre-crash level even at n = 2^10.
    pub survivors: usize,
    /// Horizon of every cell. After the crash the median took up to 970 pt
    /// to fall below its pre-crash value over 12 800 surveyed runs; the
    /// horizon leaves 1560 pt.
    pub horizon: f64,
}

impl Params {
    /// Measurement scale, or the smoke scale (one population, two runs).
    pub fn new(smoke: bool) -> Params {
        Params {
            populations: if smoke {
                vec![1 << 10]
            } else {
                vec![1 << 10, 1 << 12, 1 << 14]
            },
            runs: if smoke { 2 } else { 4 },
            crash_at: 40.0,
            survivors: 24,
            horizon: 1600.0,
        }
    }

    /// Runs per grid: populations × two schedules × runs.
    pub fn grid_runs(&self) -> u64 {
        (self.populations.len() * 2 * self.runs) as u64
    }
}

/// The grid of one repetition, seeded by `seed`, run to `horizon`.
pub fn sweep(p: &Params, seed: u64, horizon: f64, threads: usize) -> Sweep<DynamicSizeCounting> {
    let crash = AdversarySchedule::new().at(p.crash_at, PopulationEvent::ResizeTo(p.survivors));
    Sweep::new(paper_protocol())
        .populations(p.populations.iter().copied())
        .schedule("static", AdversarySchedule::new())
        .schedule("crash", crash)
        .runs(p.runs)
        .master_seed(seed)
        .threads(threads)
        .horizon(horizon)
        .snapshot_every(1.0)
}

/// Row tallies a traced phase reports as counts.
#[derive(Debug, Default)]
struct Tally {
    snapshots: u64,
    removed: u64,
    converge_sum: f64,
    converged: u64,
}

/// Checks and digests one grid's rows.
fn evaluate(p: &Params, results: &SweepResults, tally: &mut Tally) -> (u64, u64, u64, u64) {
    let (mut failed, mut interactions) = (0u64, 0u64);
    let mut digest = Digest::default();
    for cell in &results.cells {
        for run in &cell.runs {
            digest_run(&mut digest, run);
            interactions += trace::run_interactions(run);
            tally.snapshots += run.snapshots.len() as u64;
            tally.removed += agents_removed(run);
            let ok = if cell.schedule == "crash" {
                checks::crash_run_adapts(run, cell.n, p.survivors)
            } else {
                let t = checks::static_convergence(run, cell.n);
                if let Some(t) = t {
                    tally.converge_sum += t;
                    tally.converged += 1;
                }
                t.is_some()
            };
            if !ok {
                failed += 1;
                eprintln!(
                    "grid_crash: check failed for a {} run at n = {} (seed {}): last snapshot {:?}",
                    cell.schedule,
                    cell.n,
                    run.seed,
                    run.snapshots.last()
                );
            }
        }
    }
    (
        results.total_runs() as u64,
        failed,
        interactions,
        digest.value(),
    )
}

/// One repetition: grid `index` of the run, untraced or traced.
fn rep(c: &Config, p: &Params, index: usize, traced: bool, tally: &mut Tally) -> Rep {
    let grid = sweep(p, mix(c.seed, index as u64), p.horizon, c.threads);
    let (wall, result) = run_sweep::<_, Simulator<_>, _>(grid, ScannedEstimates, traced);
    match result {
        Ok(results) => {
            let (runs, failed, interactions, digest) = evaluate(p, &results, tally);
            Rep {
                wall,
                interactions,
                runs,
                attempted: runs,
                failed,
                digest,
            }
        }
        Err(error) => {
            eprintln!("grid_crash rep {index}: {error}");
            Rep {
                wall,
                attempted: p.grid_runs(),
                failed: p.grid_runs(),
                ..Rep::default()
            }
        }
    }
}

/// Set-up time: building the grid and running it to horizon 0, which
/// covers `Sweep::run_on`'s pre-flight, task building and every cell's agent
/// array allocation and initial configuration. It runs on one worker
/// thread, so it times that work rather than thread start-up, which every
/// measured repetition pays anyway.
fn setup(c: &Config, p: &Params, index: usize) -> f64 {
    let start = Instant::now();
    let grid = sweep(p, mix(c.seed, 1 << 32 | index as u64), 0.0, 1);
    let (_, result) = run_sweep::<_, Simulator<_>, _>(grid, ScannedEstimates, false);
    let secs = start.elapsed().as_secs_f64();
    if let Err(error) = result {
        eprintln!("grid_crash set-up: {error}");
    }
    secs
}

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

    let mut layers = Layers::new();
    grid_layers(&spans, c.threads, &mut layers);
    let cells = trace::totals(&spans, "agent-array");
    let scan_s = trace::child_secs(&spans, "agent-array", trace::SCAN);
    layers.insert("runs", traced.iter().map(|r| r.runs).sum::<u64>() as f64);
    layers.insert("interactions", cells.count as f64);
    layers.insert("snapshots", tally.snapshots as f64);
    layers.insert("pp_sim.recording.scan_s", scan_s);
    layers.insert("pp_sim.recording.scan_share", scan_s / cells.secs);
    layers.insert(
        "pp_sim.simulator.ns_per_interaction",
        (cells.secs - scan_s) * 1e9 / cells.count as f64,
    );
    layers.insert("pp_sim.adversary.agents_removed", tally.removed as f64);
    layers.insert(
        "dsc_core.converge_pt_mean",
        tally.converge_sum / tally.converged.max(1) as f64,
    );
    Report::traced(c, &untraced, &traced, &spans, layers)
}
