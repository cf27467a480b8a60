//! Times the sequential agent-array hot loop: single-thread interactions
//! per second for the DSC empirical configuration at n ∈ {10³, 10⁴, 10⁵,
//! 10⁶}, recorded into `BENCH_hotloop.json` together with the baseline
//! numbers of the two previous engines, so each overhaul's speedup stays
//! auditable:
//!
//! * **seed engine** (commit e6ffe7a): `&mut dyn Rng` transitions, two RNG
//!   draws per pair, per-step float time accounting (no 10⁶ point — the
//!   seed harness never ran one);
//! * **PR-2 engine** (commit ec8a6c8): monomorphized chunked `step_block`,
//!   single-draw pair sampling — but 40-byte `DscState` and in-place
//!   sequential application, leaving stepping memory-latency-bound at
//!   n ≥ 10⁵;
//! * **current engine**: 24-byte packed states, gather/compute/scatter
//!   chunks with a within-chunk hazard scan (see
//!   `pp_sim::Simulator::step_block`).
//!
//! Two modes per population size:
//!
//! * **plain** — raw `Simulator` stepping, no observer (`O = ()`);
//! * **tracked** — stepping under the [`pp_sim::EstimateTracker`] observer, i.e.
//!   exactly the per-interaction work of a run under the
//!   `TrackedEstimates` recording plan.
//!
//! A chunk-size sweep rides along: `step_block`'s pairs-per-chunk constant
//! (production: 64) is measured against 32 and 128 on the memory-bound
//! populations via [`Simulator::step_n_with_chunk`], alternated A/B/C over
//! several rounds against the shared-vCPU noise, and recorded under
//! `"chunk_sweep"` in the JSON so the choice of `CHUNK` stays auditable.
//!
//! A scanned-vs-tracked crossover rides along too: from the measured plain
//! and tracked rates plus a timed full-state estimate scan, the snapshot
//! interval (in parallel time units) above which `ScannedEstimates` beats
//! `TrackedEstimates`, recorded per population under
//! `scanned_crossover_snapshot_interval_pt`. Every figure snapshots at
//! ≥ 1 pt, so the experiments run under `ScannedEstimates`.
//!
//! Flags: the shared `Scale` flags; `--smoke` shrinks the measurement
//! budget so CI can exercise the harness (and validate the JSON schema)
//! in seconds.

use pp_bench::Scale;
use pp_sim::{ChunkSize, Simulator};
use std::io::Write;
use std::time::Instant;

/// Single-thread interactions/sec of the two previous engines on this
/// repository's reference box (1-core Intel Xeon @ 2.10 GHz, shared vCPU).
/// The PR-2 numbers are medians of 35 runs *alternated* with the current
/// engine (A/B/A/B… on the same box, same seed; the shared box swings
/// ±20% on second timescales, hence the large sample); re-measure by
/// checking out ec8a6c8, adding the 10⁶ point, and alternating the two
/// binaries. Seed-engine numbers carry over from the PR-2 measurement
/// session (no 10⁶ point existed).
const BASELINE: [Baseline; 4] = [
    Baseline {
        n: 1_000,
        seed_plain: Some(50.99e6),
        seed_tracked: Some(28.08e6),
        pr2_plain: 58.83e6,
        pr2_tracked: 50.46e6,
    },
    Baseline {
        n: 10_000,
        seed_plain: Some(47.69e6),
        seed_tracked: Some(28.19e6),
        pr2_plain: 55.73e6,
        pr2_tracked: 50.96e6,
    },
    Baseline {
        n: 100_000,
        seed_plain: Some(30.05e6),
        seed_tracked: Some(16.50e6),
        pr2_plain: 41.67e6,
        pr2_tracked: 36.35e6,
    },
    Baseline {
        n: 1_000_000,
        seed_plain: None,
        seed_tracked: None,
        pr2_plain: 32.23e6,
        pr2_tracked: 27.67e6,
    },
];

struct Baseline {
    n: usize,
    /// Seed-engine rates; `None` where the seed harness had no point.
    seed_plain: Option<f64>,
    seed_tracked: Option<f64>,
    /// PR-2-engine rates (alternating-run medians on this box).
    pr2_plain: f64,
    pr2_tracked: f64,
}

fn measure(mut sim_step: impl FnMut(u64), budget_secs: f64) -> f64 {
    let batch: u64 = 100_000;
    let start = Instant::now();
    let mut total = 0u64;
    loop {
        sim_step(batch);
        total += batch;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget_secs {
            return total as f64 / elapsed;
        }
    }
}

/// Measures plain stepping at each chunk size on the memory-bound
/// populations, alternating the three sizes per round (A/B/C/A/B/C…) so
/// box-level throughput swings hit all of them alike. Returns one JSON
/// object per population.
fn chunk_sweep(scale: &Scale, warm: f64, budget: f64, rounds: usize) -> Vec<String> {
    const CHUNKS: [(ChunkSize, &str); 3] = [
        (ChunkSize::C32, "c32"),
        (ChunkSize::C64, "c64"),
        (ChunkSize::C128, "c128"),
    ];
    let ns: &[usize] = if scale.smoke {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let mut lines = Vec::new();
    for &n in ns {
        // One warmed steady-state simulator per chunk size, re-measured
        // every round.
        let mut sims: Vec<Simulator<_, ()>> = CHUNKS
            .iter()
            .map(|_| {
                let mut sim = Simulator::with_seed(pp_bench::paper_protocol(), n, scale.seed);
                sim.run_parallel_time(warm);
                sim
            })
            .collect();
        let mut rates: Vec<Vec<f64>> = vec![Vec::new(); CHUNKS.len()];
        for _ in 0..rounds {
            for (k, &(chunk, _)) in CHUNKS.iter().enumerate() {
                rates[k].push(measure(|c| sims[k].step_n_with_chunk(c, chunk), budget));
            }
        }
        let medians: Vec<f64> = rates
            .iter()
            .map(|r| pp_analysis::median(r).expect("at least one round"))
            .collect();
        let winner = CHUNKS[medians
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite rates"))
            .expect("nonempty")
            .0]
            .1;
        println!(
            "chunk sweep n = {:>7}: c32 {:6.2} M/s  c64 {:6.2} M/s  c128 {:6.2} M/s  -> {winner}",
            n,
            medians[0] / 1e6,
            medians[1] / 1e6,
            medians[2] / 1e6,
        );
        lines.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {},\n",
                "      \"c32_interactions_per_sec\": {:.1},\n",
                "      \"c64_interactions_per_sec\": {:.1},\n",
                "      \"c128_interactions_per_sec\": {:.1},\n",
                "      \"winner\": \"{}\"\n",
                "    }}"
            ),
            n, medians[0], medians[1], medians[2], winner,
        ));
    }
    lines
}

fn main() {
    let scale = Scale::from_args();
    let (warm, budget) = if scale.smoke {
        (5.0, 0.05)
    } else {
        // 2.5 s per point: the reference box is a shared vCPU whose
        // throughput swings ±20% on second timescales; longer windows
        // average the neighbor noise down.
        (50.0, 2.5)
    };
    println!("single-thread DSC hot-loop timing (budget {budget} s per point)");

    let mut lines = Vec::new();
    for b in BASELINE {
        let mut plain_sim = Simulator::with_seed(pp_bench::paper_protocol(), b.n, scale.seed);
        plain_sim.run_parallel_time(warm);
        let plain = measure(|c| plain_sim.step_n(c), budget);

        let mut tracked_sim = Simulator::tracked(pp_bench::paper_protocol(), b.n, scale.seed);
        tracked_sim.run_parallel_time(warm);
        let tracked = measure(|c| tracked_sim.step_n(c), budget);

        // Scanned-vs-tracked crossover: tracking costs
        // (1/tracked − 1/plain) s per interaction; a snapshot scan costs
        // one `estimate_stats` pass. Scanning wins once the snapshot
        // interval exceeds scan_cost / (n · per-interaction overhead)
        // parallel-time units.
        let scans = if scale.smoke { 20 } else { 200 };
        let scan_secs = {
            let start = Instant::now();
            for _ in 0..scans {
                std::hint::black_box(plain_sim.estimate_stats());
            }
            start.elapsed().as_secs_f64() / scans as f64
        };

        let overhead = 1.0 / tracked - 1.0 / plain;
        let crossover_pt = if overhead > 0.0 {
            format!("{:.6}", scan_secs / (overhead * b.n as f64))
        } else {
            // Box noise swallowed the tracker overhead this round.
            "null".to_string()
        };

        let speedup_plain = plain / b.pr2_plain;
        let speedup_tracked = tracked / b.pr2_tracked;
        println!(
            "n = {:>7}: plain {:7.2} M/s ({speedup_plain:4.2}x vs PR-2 {:5.2} M)  \
             tracked {:7.2} M/s ({speedup_tracked:4.2}x vs PR-2 {:5.2} M)",
            b.n,
            plain / 1e6,
            b.pr2_plain / 1e6,
            tracked / 1e6,
            b.pr2_tracked / 1e6,
        );
        let seed_fields = match (b.seed_plain, b.seed_tracked) {
            (Some(sp), Some(st)) => format!(
                concat!(
                    "      \"seed_plain_interactions_per_sec\": {:.1},\n",
                    "      \"seed_tracked_interactions_per_sec\": {:.1},\n",
                    "      \"plain_speedup_vs_seed\": {:.4},\n",
                    "      \"tracked_speedup_vs_seed\": {:.4},\n",
                ),
                sp,
                st,
                plain / sp,
                tracked / st,
            ),
            _ => String::new(),
        };
        lines.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {},\n",
                "      \"plain_interactions_per_sec\": {:.1},\n",
                "      \"tracked_interactions_per_sec\": {:.1},\n",
                "{}",
                "      \"pr2_plain_interactions_per_sec\": {:.1},\n",
                "      \"pr2_tracked_interactions_per_sec\": {:.1},\n",
                "      \"plain_speedup_vs_pr2\": {:.4},\n",
                "      \"tracked_speedup_vs_pr2\": {:.4},\n",
                "      \"scanned_crossover_snapshot_interval_pt\": {}\n",
                "    }}"
            ),
            b.n,
            plain,
            tracked,
            seed_fields,
            b.pr2_plain,
            b.pr2_tracked,
            speedup_plain,
            speedup_tracked,
            crossover_pt,
        ));
    }

    // The chunk-size sweep: fewer rounds in smoke mode, where only the
    // schema matters.
    let chunk_rounds = if scale.smoke { 1 } else { 5 };
    let chunk_lines = chunk_sweep(
        &scale,
        if scale.smoke { 1.0 } else { warm },
        budget,
        chunk_rounds,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"DSC empirical configuration, steady state, single thread; ",
            "tracked = under the EstimateTracker observer, the per-interaction work of ",
            "a run under the TrackedEstimates plan\",\n",
            "  \"engine\": \"packed 24-byte DscState, gather/compute/scatter step_block ",
            "with within-chunk hazard scan, single-draw pair sampling\",\n",
            "  \"pr2_engine\": \"ec8a6c8: monomorphized chunked step_block, 40-byte states, ",
            "in-place sequential application\",\n",
            "  \"seed_engine\": \"e6ffe7a: dyn Rng, two draws per pair\",\n",
            "  \"master_seed\": {},\n",
            "  \"available_parallelism\": {},\n",
            "  \"scanned_crossover_note\": \"snapshot interval (parallel-time units) above ",
            "which ScannedEstimates beats TrackedEstimates, from measured rates and a timed ",
            "estimate_stats scan; null when box noise swallowed the tracker overhead\",\n",
            "  \"points\": [\n{}\n  ],\n",
            "  \"chunk_sweep_note\": \"plain stepping at 32/64/128 pairs per step_block ",
            "chunk, alternated per round, medians of {} rounds; the winner justifies ",
            "the production CHUNK constant\",\n",
            "  \"chunk_sweep\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale.seed,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        lines.join(",\n"),
        chunk_rounds,
        chunk_lines.join(",\n"),
    );
    // Smoke runs must not clobber the committed paper-scale record.
    let path = if scale.smoke {
        "BENCH_hotloop_smoke.json"
    } else {
        "BENCH_hotloop.json"
    };
    let mut f = std::fs::File::create(path).expect("create BENCH_hotloop json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_hotloop json");
    println!("wrote {path}");
}
