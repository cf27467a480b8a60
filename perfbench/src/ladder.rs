//! The layer ladder: one DSC interaction's cost split into rungs, each
//! timed from outside through public API at a cache-resident and an
//! L2-missing population.
//!
//! Rungs, in order of the layers an interaction passes through:
//! 1. `rand.ns_per_word` — one `SmallRng` word;
//! 2. `pp_model.scheduler.ns_per_pair` — one `random_ordered_pair` draw;
//! 3. `pp_sim.simulator.gather_ns_per_pair` — a draw plus reads of both
//!    drawn states from `Simulator::states()` (the benchmark's own gather,
//!    not the engine's);
//! 4. `dsc_core.interact_ns` — one `Protocol::interact` on L1-resident
//!    steady-state pairs;
//! 5. `pp_sim.simulator.step_ns_per_interaction` — `step_n` with no
//!    observer;
//! 6. `pp_sim.recording.scan_ns_per_agent` — `estimate_stats` per agent.
//!
//! Rounds alternate the population order and rotate the rung order, so
//! drift on the box spreads over every rung; each rung reports the median
//! of its rounds, with the quartiles beside it.

use crate::stats::mix;
use dsc_core::{DscState, DynamicSizeCounting};
use pp_model::{random_ordered_pair, Protocol};
use pp_sim::Simulator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Rung names, without the population suffix.
pub const RUNGS: [&str; 6] = [
    "rand.ns_per_word",
    "pp_model.scheduler.ns_per_pair",
    "pp_sim.simulator.gather_ns_per_pair",
    "dsc_core.interact_ns",
    "pp_sim.simulator.step_ns_per_interaction",
    "pp_sim.recording.scan_ns_per_agent",
];

/// One rung at one population: its per-round samples in nanoseconds per
/// operation.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Full metric name, e.g. `dsc_core.interact_ns.n14`.
    pub name: String,
    /// One sample per round.
    pub samples: Vec<f64>,
}

/// A steady-state simulator the ladder runs against, labelled by the
/// metric suffix of its population (`n14`, `n20`).
pub struct Population<'a> {
    /// Metric suffix.
    pub label: &'static str,
    /// The simulator, already warmed into its valid configuration.
    pub sim: &'a mut Simulator<DynamicSizeCounting>,
}

/// Operations per sample of each rung; `scale` divides them (smoke mode).
struct Sizes {
    words: u64,
    pairs: u64,
    gathers: u64,
    interacts: u64,
    steps: u64,
    scan_agents: u64,
}

fn sizes(scale: u64) -> Sizes {
    Sizes {
        words: (1 << 24) / scale,
        pairs: (1 << 23) / scale,
        gathers: (1 << 21) / scale,
        interacts: (1 << 22) / scale,
        steps: (1 << 20) / scale,
        scan_agents: (1 << 23) / scale,
    }
}

/// Runs `rounds` alternated rounds over `populations`; `scale` shrinks
/// every sample (1 for measurement, larger for smoke runs).
pub fn run(populations: &mut [Population<'_>], rounds: usize, scale: u64, seed: u64) -> Vec<Rung> {
    let sz = sizes(scale.max(1));
    let mut rungs: Vec<Rung> = populations
        .iter()
        .flat_map(|p| {
            RUNGS.iter().map(move |r| Rung {
                name: format!("{r}.{}", p.label),
                samples: Vec::with_capacity(rounds),
            })
        })
        .collect();
    for round in 0..rounds {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..populations.len()).collect()
        } else {
            (0..populations.len()).rev().collect()
        };
        for pi in order {
            let pop = &mut populations[pi];
            for k in 0..RUNGS.len() {
                let rung = (k + round) % RUNGS.len();
                let rng_seed = mix(seed, (round * 64 + pi * 8 + rung) as u64);
                let ns = time_rung(rung, pop.sim, &sz, rng_seed);
                rungs[pi * RUNGS.len() + rung].samples.push(ns);
            }
        }
    }
    rungs
}

/// Nanoseconds per operation of rung `rung` on `sim`.
fn time_rung(rung: usize, sim: &mut Simulator<DynamicSizeCounting>, sz: &Sizes, seed: u64) -> f64 {
    let n = sim.states().len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (ops, start) = match rung {
        0 => {
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..sz.words {
                acc ^= rng.next_u64();
            }
            black_box(acc);
            (sz.words, start)
        }
        1 => {
            let start = Instant::now();
            let mut acc = 0usize;
            for _ in 0..sz.pairs {
                let (i, j) = random_ordered_pair(n, &mut rng);
                acc ^= i ^ j;
            }
            black_box(acc);
            (sz.pairs, start)
        }
        2 => {
            let states = sim.states();
            let start = Instant::now();
            for _ in 0..sz.gathers {
                let (i, j) = random_ordered_pair(n, &mut rng);
                black_box(states[i]);
                black_box(states[j]);
            }
            (sz.gathers, start)
        }
        3 => {
            let protocol = crate::paper_protocol();
            let pool: Vec<DscState> = sim.states().iter().take(512).copied().collect();
            let half = pool.len() / 2;
            let pairs: Vec<(usize, usize)> = (0..1024)
                .map(|_| random_ordered_pair(half, &mut rng))
                .collect();
            let batches = sz.interacts / pairs.len() as u64;
            let mut initiators = pool[..half].to_vec();
            let mut responders = pool[half..2 * half].to_vec();
            let start = Instant::now();
            for _ in 0..batches {
                // Restart each batch from the steady-state states, so the
                // pool never drifts away from the population it samples.
                initiators.copy_from_slice(&pool[..half]);
                responders.copy_from_slice(&pool[half..2 * half]);
                for &(a, b) in &pairs {
                    protocol.interact(&mut initiators[a], &mut responders[b], &mut rng);
                }
                black_box(&mut initiators);
            }
            (batches * pairs.len() as u64, start)
        }
        4 => {
            let start = Instant::now();
            sim.step_n(sz.steps);
            (sz.steps, start)
        }
        _ => {
            let scans = (sz.scan_agents / n as u64).max(1);
            let start = Instant::now();
            for _ in 0..scans {
                black_box(sim.estimate_stats());
            }
            (scans * n as u64, start)
        }
    };
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}
