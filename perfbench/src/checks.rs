//! Correctness checks on the rows each workload produces. Every check
//! judges one operation (a run or a snapshot) and is counted into the
//! `failed` total; any failure makes the benchmark exit non-zero.

use pp_analysis::{convergence_time, Band};
use pp_sim::{EstimateSummary, RunResult, Snapshot};

/// The valid-configuration band of the paper's Theorem 2.1 as the
/// `convergence` experiment reads it: every estimate within
/// `[0.5·log2 n, 4·log2 n]`.
pub fn band(n: usize) -> Band {
    Band::around_log_n(n, 0.5, 4.0)
}

/// When a static DSC run converged into the band of its population; the
/// check fails when it never did within its horizon.
pub fn static_convergence(run: &RunResult, n: usize) -> Option<f64> {
    convergence_time(run, band(n))
}

/// Upper band factor for a crashed population of a few dozen agents: the
/// `holding` experiment's `10·log2 n`. The end-of-run median of so few
/// DSC agents has a geometric upper tail (for 32 agents about one run in
/// 2000 ends above `4·log2 32 = 20`, with the bulk at 10–13), so the
/// `4·log2 n` edge of [`band`] would fail correct runs.
pub const SURVIVOR_HI: f64 = 10.0;

/// A crash run (population `n` resized to `survivors` at some point):
/// the median estimate later drops below its last pre-crash value, and
/// the final median lies in `[0.5·log2 s, SURVIVOR_HI·log2 s]` for the
/// survivor population `s`.
pub fn crash_run_adapts(run: &RunResult, n: usize, survivors: usize) -> bool {
    let Some(crash) = run.snapshots.iter().position(|s| s.n != n) else {
        return false;
    };
    let median = |s: &Snapshot| s.estimates.map(|e| e.median);
    let Some(pre) = crash.checked_sub(1).and_then(|i| median(&run.snapshots[i])) else {
        return false;
    };
    let dropped = run.snapshots[crash..]
        .iter()
        .any(|s| median(s).is_some_and(|m| m < pre));
    let post = Band::around_log_n(survivors, 0.5, SURVIVOR_HI);
    let ends_in_band = run
        .snapshots
        .last()
        .and_then(median)
        .is_some_and(|m| m >= post.lo && m <= post.hi);
    dropped && ends_in_band && run.final_n == survivors
}

/// The estimate summary of a run's last snapshot.
fn last_summary(run: &RunResult) -> Option<EstimateSummary> {
    run.snapshots.last().and_then(|s| s.estimates)
}

/// Lemma 4.3 on bounded CHVP started with every agent at `m`: after the
/// `7n(Δ + k log n)`-interaction budget the largest value dropped by at
/// least `delta`.
pub fn chvp_max_dropped(run: &RunResult, m: u32, delta: f64) -> bool {
    last_summary(run).is_some_and(|e| e.max <= f64::from(m) - delta)
}

/// Lemma 4.4 on bounded CHVP started with one agent at `m` and the rest
/// at 0: after the same budget the smallest value is at least
/// `m − 12(Δ + k log n)`; `window` is `Δ + k log n`.
pub fn chvp_min_caught_up(run: &RunResult, m: u32, window: f64) -> bool {
    last_summary(run).is_some_and(|e| e.min >= f64::from(m) - 12.0 * window)
}

/// Lemma 4.2 window for `k = 1` in parallel time, `4(k+1)·log2 n`: the
/// re-convergence budget the `scenario` experiment grants an epidemic.
pub fn epidemic_window(n: usize) -> f64 {
    8.0 * (n.max(2) as f64).log2()
}

/// An Infection run under a churn trace whose events end at `churn_end`
/// settles within `window` (the Lemma 4.2 budget): either the churn
/// removed every infected agent and the epidemic stays extinct (without
/// removals the infected count never falls), or the epidemic covers the
/// whole population again within `window` of the churn ending.
///
/// Extinction is a legal outcome, not a failure: a uniform crash early in
/// the epidemic can remove the few infected agents, and a targeted
/// campaign removes them first by design; the `scenario` experiment
/// counts such runs as not recovered.
pub fn trace_run_settles(run: &RunResult, churn_end: f64, window: f64) -> bool {
    let Some(at_end) = run.snapshots.iter().find(|s| s.parallel_time >= churn_end) else {
        return false;
    };
    if at_end.estimates.is_none() {
        return run.snapshots.last().is_some_and(|s| s.estimates.is_none());
    }
    run.snapshots
        .iter()
        .find(|s| s.parallel_time >= churn_end && covered(s))
        .is_some_and(|s| s.parallel_time <= churn_end + window)
}

fn covered(s: &Snapshot) -> bool {
    s.estimates.is_some_and(|e| e.without_estimate == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t: f64, n: usize, median: f64, spread: f64) -> Snapshot {
        Snapshot {
            parallel_time: t,
            interactions: 0,
            n,
            estimates: Some(EstimateSummary {
                min: median - spread,
                median,
                max: median + spread,
                mean: median,
                without_estimate: 0,
            }),
            memory: None,
        }
    }

    fn run(snapshots: Vec<Snapshot>) -> RunResult {
        let final_n = snapshots.last().map_or(0, |s| s.n);
        RunResult {
            seed: 0,
            snapshots,
            ticks: vec![],
            recovery: vec![],
            final_n,
        }
    }

    #[test]
    fn static_check_rejects_an_out_of_band_run() {
        let n = 1 << 10; // band [5, 40]
        let ok = run(vec![snap(0.0, n, 1.0, 0.0), snap(1.0, n, 14.0, 1.0)]);
        assert_eq!(static_convergence(&ok, n), Some(1.0));
        let over = run(vec![snap(0.0, n, 1.0, 0.0), snap(1.0, n, 60.0, 1.0)]);
        assert_eq!(static_convergence(&over, n), None);
    }

    #[test]
    fn crash_check_needs_a_drop_and_an_in_band_end() {
        let n = 1 << 14;
        let sv = 32; // survivor band [2.5, 50]
        let adapted = run(vec![
            snap(0.0, n, 20.0, 0.0),
            snap(1.0, sv, 20.0, 0.0),
            snap(2.0, sv, 12.0, 2.0),
        ]);
        assert!(crash_run_adapts(&adapted, n, sv));
        let stuck = run(vec![snap(0.0, n, 20.0, 0.0), snap(1.0, sv, 20.0, 0.0)]);
        assert!(!crash_run_adapts(&stuck, n, sv), "no drop");
        let out_of_band = run(vec![snap(0.0, n, 60.0, 0.0), snap(1.0, sv, 55.0, 0.0)]);
        assert!(
            !crash_run_adapts(&out_of_band, n, sv),
            "ends above the band"
        );
        let never_crashed = run(vec![snap(0.0, n, 20.0, 0.0), snap(1.0, n, 12.0, 0.0)]);
        assert!(!crash_run_adapts(&never_crashed, n, sv));
    }

    #[test]
    fn substrate_checks_reject_out_of_bound_runs() {
        let n = 1 << 14;
        let hi = run(vec![snap(0.0, n, 390.0, 5.0)]);
        assert!(!chvp_max_dropped(&hi, 400, 60.0));
        assert!(chvp_min_caught_up(&hi, 400, 88.0));
        let low = run(vec![snap(0.0, n, 200.0, 10.0)]);
        assert!(chvp_max_dropped(&low, 400, 60.0));
        assert!(!chvp_min_caught_up(&low, 400, 10.0));

        let mut partial = snap(40.0, n, 1.0, 0.0);
        partial
            .estimates
            .as_mut()
            .expect("estimates")
            .without_estimate = 7;
        let late = run(vec![partial.clone(), snap(90.0, n, 1.0, 0.0)]);
        assert!(!trace_run_settles(&late, 30.0, 20.0), "covers too late");
        assert!(trace_run_settles(&late, 30.0, 60.0));
        assert!(!trace_run_settles(&run(vec![partial.clone()]), 30.0, 60.0));
        let mut extinct = snap(40.0, n, 1.0, 0.0);
        extinct.estimates = None;
        assert!(trace_run_settles(&run(vec![extinct.clone()]), 30.0, 60.0));
        let revived = run(vec![extinct, partial]);
        assert!(
            !trace_run_settles(&revived, 30.0, 60.0),
            "an extinct epidemic stays extinct"
        );
    }
}
