//! Algorithm 2 on synthetic coins: no external randomness.
//!
//! The paper's §3 notes that assuming agents can draw GRVs "is not a strong
//! assumption. Indeed, the process of generating one GRV can be split up
//! into multiple interactions, each consisting of one coin flip", using the
//! synthetic coins of Alistarh et al. (SODA 2017). This module performs
//! that splitting:
//!
//! * every agent carries a parity bit, toggled whenever it initiates;
//! * a coin flip is the *responder's* parity bit;
//! * a reset does not sample `GRV(k)` instantly — the agent enters a short
//!   *sampling limbo*, feeding one flip per interaction into a
//!   [`GrvSampler`]; the reset (or backup
//!   adoption) is applied when the sampler completes.
//!
//! Design choices the paper leaves open, documented here: during limbo the
//! agent freezes — it neither exchanges maxima nor participates in CHVP —
//! which keeps the deferred reset semantics identical to Algorithm 2's
//! atomic one. Limbo lasts `2k + O(√k)` interactions in expectation
//! (`≈ 34` for `k = 16`), i.e. `O(k/n)` parallel time: asymptotically free,
//! exactly as the paper argues. Early coins are biased (all parities start
//! equal) — the protocol is loosely stabilizing, so it recovers from the
//! biased warm-up like from any other adverse initialization, which the
//! tests confirm.

use crate::config::DscConfig;
use crate::full::DynamicSizeCounting;
use crate::phase::Phase;
use crate::state::DscState;
use pp_model::{MemoryFootprint, Protocol, SizeEstimator, TickProtocol};
use pp_protocols::GrvSampler;
use rand::Rng;

/// Why an agent is sampling: which deferred action to apply on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Lines 5–6 (full reset).
    Reset,
    /// Lines 8–10 (backup GRV; adopt only if larger).
    Backup,
}

/// State of a synthetic-coin agent: the Algorithm 2 state plus the parity
/// bit and an optional in-flight sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticState {
    /// The Algorithm 2 variables.
    pub dsc: DscState,
    /// Synthetic-coin parity bit (toggled on every initiation).
    pub parity: bool,
    /// In-flight GRV sampling, if any.
    sampler: Option<(GrvSampler, Pending)>,
}

impl SyntheticState {
    /// Whether the agent is currently in sampling limbo.
    pub fn is_sampling(&self) -> bool {
        self.sampler.is_some()
    }
}

impl MemoryFootprint for SyntheticState {
    fn memory_bits(&self) -> u32 {
        // Parity bit + the Algorithm 2 variables; an in-flight sampler
        // stores two GRV-sized counters and a countdown to k.
        let sampler_bits = if self.sampler.is_some() { 16 } else { 0 };
        1 + self.dsc.memory_bits() + sampler_bits
    }
}

/// [`DynamicSizeCounting`] driven by synthetic coins instead of an RNG.
///
/// # Examples
///
/// ```
/// use dsc_core::{DscConfig, SyntheticDsc};
/// use pp_model::Protocol;
///
/// let p = SyntheticDsc::new(DscConfig::empirical());
/// let mut u = p.initial_state();
/// let mut v = p.initial_state();
/// // The RNG argument is ignored — all randomness is scheduler-derived.
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticDsc {
    inner: DynamicSizeCounting,
}

impl SyntheticDsc {
    /// Creates the synthetic-coin protocol.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: DscConfig) -> Self {
        SyntheticDsc {
            inner: DynamicSizeCounting::new(config),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DscConfig {
        self.inner.config()
    }

    /// The phase of the embedded counting state.
    pub fn phase(&self, state: &SyntheticState) -> Phase {
        self.inner.phase(&state.dsc)
    }

    /// The reported (descaled) estimate.
    pub fn reported_estimate(&self, state: &SyntheticState) -> u64 {
        self.inner.reported_estimate(&state.dsc)
    }

    fn apply_completed(&self, u: &mut DscState, grv: u32, pending: Pending) {
        let c = self.config();
        let tau1 = c.tau1 as i64;
        match pending {
            Pending::Reset => {
                let grv = crate::state::narrow_max(c.overestimate, u64::from(grv));
                u.time = tau1 * i64::from(u.max.max(grv));
                u.interactions = 0;
                u.last_max = u.max;
                u.max = grv;
                u.ticks += 1;
            }
            Pending::Backup => {
                if grv > u.max {
                    let scaled = crate::state::narrow_max(c.overestimate, u64::from(grv));
                    u.time = tau1 * i64::from(scaled);
                    u.max = scaled;
                    u.ticks += 1;
                }
            }
        }
    }
}

impl Protocol for SyntheticDsc {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = SyntheticState;

    fn initial_state(&self) -> SyntheticState {
        SyntheticState {
            dsc: self.inner.initial_state(),
            parity: false,
            sampler: None,
        }
    }

    fn interact<R: Rng + ?Sized>(
        &self,
        u: &mut SyntheticState,
        v: &mut SyntheticState,
        _rng: &mut R,
    ) {
        let coin = v.parity; // read the responder's parity as the flip
        u.parity = !u.parity; // toggle own parity on initiation

        // Sampling limbo: feed the flip; apply the deferred action when done.
        if let Some((sampler, pending)) = u.sampler.as_mut() {
            if let Some(grv) = sampler.feed(coin) {
                let pending = *pending;
                u.sampler = None;
                self.apply_completed(&mut u.dsc, grv, pending);
            }
            return;
        }

        let c = self.config();
        let du = &mut u.dsc;
        let dv = &v.dsc;

        // Lines 2–4: the reset triggers enter limbo instead of sampling.
        if du.time <= 0
            || (Phase::of(c, du) == Phase::Reset && Phase::of(c, dv) == Phase::Exchange)
            || (Phase::of(c, du) != Phase::Exchange && du.max != dv.max)
        {
            u.sampler = Some((GrvSampler::new(c.k), Pending::Reset));
            return;
        }

        // Lines 7–8: backup trigger enters limbo.
        if u64::from(du.interactions) > c.tau_prime * u64::from(du.max.max(du.last_max)) {
            du.interactions = 0;
            u.sampler = Some((GrvSampler::new(c.k), Pending::Backup));
            return;
        }

        // Lines 11–12.
        if Phase::of(c, du) == Phase::Exchange
            && Phase::of(c, dv) == Phase::Exchange
            && du.max < dv.max
        {
            du.time = c.tau1 as i64 * i64::from(dv.max);
            du.max = dv.max;
            du.last_max = dv.last_max;
        }

        // Lines 13–14.
        if du.max == dv.max
            && !(Phase::of(c, du) == Phase::Exchange && Phase::of(c, dv) == Phase::Reset)
        {
            du.last_max = du.last_max.max(dv.last_max);
        }

        // Line 15 (saturating, as in `full.rs`: a counter at the cap means
        // the backup threshold cannot fit the packed width anyway).
        du.time = du.time.max(dv.time) - 1;
        du.interactions = du.interactions.saturating_add(1);
    }
}

impl SizeEstimator for SyntheticDsc {
    fn estimate_log2(&self, state: &SyntheticState) -> Option<f64> {
        self.inner.estimate_log2(&state.dsc)
    }

    fn estimate_bucket(&self, state: &SyntheticState) -> Option<u32> {
        self.inner.estimate_bucket(&state.dsc)
    }
}

impl TickProtocol for SyntheticDsc {
    fn tick_count(&self, state: &SyntheticState) -> u64 {
        u64::from(state.dsc.ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::Simulator;

    fn proto() -> SyntheticDsc {
        SyntheticDsc::new(DscConfig::empirical())
    }

    #[test]
    fn parity_toggles_on_initiation_only() {
        let p = proto();
        let mut u = p.initial_state();
        let mut v = p.initial_state();
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(u.parity, "initiator toggled");
        assert!(!v.parity, "responder untouched");
    }

    #[test]
    fn reset_defers_into_limbo_and_completes() {
        let p = proto();
        let mut u = p.initial_state();
        u.dsc.time = 0; // wrap-around trigger
        let mut v = p.initial_state();
        v.parity = false; // every coin is tails ⇒ each GRV finishes in 1 flip
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(u.is_sampling(), "trigger enters limbo");
        let ticks_before = u.dsc.ticks;
        // k = 16 tails-coins complete the sampler in 16 more interactions.
        for _ in 0..16 {
            p.interact(&mut u, &mut v, &mut rand::rng());
        }
        assert!(!u.is_sampling(), "sampler completed");
        assert_eq!(u.dsc.ticks, ticks_before + 1, "deferred reset applied");
        assert_eq!(u.dsc.max, 1, "all-tails coins give GRV(k) = 1");
    }

    #[test]
    fn limbo_freezes_chvp() {
        let p = proto();
        let mut u = p.initial_state();
        u.dsc.time = 0;
        let mut v = p.initial_state();
        v.parity = true; // heads keep the sampler running
        v.dsc.time = 1_000;
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(u.is_sampling());
        let frozen = u.dsc.time;
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert_eq!(u.dsc.time, frozen, "no CHVP while sampling");
    }

    /// End to end without any external randomness: the population still
    /// converges to a Θ(log n) estimate band.
    #[test]
    fn converges_without_external_randomness() {
        let n = 2_000;
        let log_n = (n as f64).log2();
        let mut sim = Simulator::tracked(proto(), n, 71);
        sim.run_parallel_time(600.0);
        let s = sim.observer().histogram().summary().unwrap();
        assert!(
            s.median >= 0.5 * log_n && s.median <= 4.0 * log_n,
            "median {} outside Θ(log n) band around {log_n:.1}",
            s.median
        );
    }

    #[test]
    fn memory_counts_parity_and_sampler() {
        let p = proto();
        let mut s = p.initial_state();
        let base = s.memory_bits();
        s.sampler = Some((GrvSampler::new(4), Pending::Reset));
        assert!(s.memory_bits() > base);
    }
}
