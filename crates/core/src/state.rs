//! The per-agent state of the dynamic size counting protocol.
//!
//! Algorithm 2's four variables (paper §3):
//!
//! * `max` — the current maximum of GRVs encountered, spread by epidemic;
//! * `lastMax` — the *trailing* estimate: the previous round's maximum,
//!   kept so that a freshly resampled (usually small) GRV does not shrink
//!   the phase lengths ("Most agents' newly sampled GRVs will be much
//!   smaller than log n. To keep the population synchronized, the agents
//!   store a 'trailing' estimate lastMax");
//! * `time` — the CHVP-synchronized countdown that drives the three-phase
//!   clock;
//! * `interactions` — interactions since the last reset, *not exchanged*,
//!   used to trigger backup GRV generation.
//!
//! The extra `ticks` field is simulation instrumentation (the Theorem 2.2
//! signal counter) and is excluded from space accounting.
//!
//! ## Layout
//!
//! The struct is deliberately packed to 24 bytes (down from the former 40)
//! so that two states fit a 64-byte cache line with room to spare — at
//! n ≥ 10⁵ the agent array outgrows L2 and raw stepping is bound by the
//! memory latency of the two random agent loads per interaction, so bytes
//! per state translate directly into throughput. The widths are what the
//! paper's value ranges need:
//!
//! * `max`/`lastMax`: a GRV is ≤ ~64 w.h.p. (one per RNG word) and the
//!   overestimation factor `20(k+1)` keeps scaled maxima far below 2³²
//!   for any plausible `k` — `u32`. [`DynamicSizeCounting`] asserts the
//!   narrowing at the old `u64` boundary on every fresh sample (on in
//!   release builds too: the check rides the reset path, not the
//!   per-interaction path).
//! * `interactions`: zeroed whenever it exceeds `τ′·max{max, lastMax}`
//!   (Algorithm 2 line 7), so it is bounded by `τ′·max` + 1 ≪ 2³² — `u32`.
//!   The increment saturates: a configuration whose backup threshold does
//!   not fit the packed width (`τ′·max ≥ 2³²`) pins the counter at the cap
//!   (backup disabled) instead of wrapping.
//! * `ticks`: resets per agent; even a 10¹²-interaction run stays far
//!   below 2³² per agent — `u32`.
//! * `time`: holds products `τ1·max` which reach ~4·10⁸ under the theory
//!   configuration (`τ1 = 1140k`, overestimated maxima) and scale with
//!   `k²` — kept `i64` so exotic configurations cannot overflow. The
//!   packed struct is 24 bytes either way (alignment pads an `i32` back
//!   to a multiple of 8 only under repacking pressure; 24 ≤ 32 meets the
//!   two-per-line budget).
//!
//! `tests/layout.rs` (and a unit test below) pin `size_of::<DscState>()
//! <= 32` so future fields cannot silently straddle cache lines again.
//!
//! [`DynamicSizeCounting`]: crate::full::DynamicSizeCounting

use pp_model::{bit_len, MemoryFootprint};

/// State of one agent running Algorithm 2 (or Algorithm 1, which ignores
/// `last_max` and `interactions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DscState {
    /// Phase-clock countdown (negative only transiently, until the next
    /// interaction wraps it).
    pub time: i64,
    /// Current maximum GRV (scaled by the overestimation factor when one is
    /// configured).
    pub max: u32,
    /// Trailing estimate: the previous round's maximum.
    pub last_max: u32,
    /// Interactions since the last reset (not exchanged between agents).
    pub interactions: u32,
    /// Reset counter — the paper's "signal" (Theorem 2.2). Instrumentation:
    /// excluded from [`MemoryFootprint`].
    pub ticks: u32,
}

impl DscState {
    /// The effective maximum `max{max, lastMax}` that defines phase lengths
    /// and the reported estimate (paper §4.1: "We define all phases using
    /// whichever is larger").
    #[inline]
    pub fn effective_max(&self) -> u32 {
        self.max.max(self.last_max)
    }
}

/// Scales a maximum by the overestimation factor and narrows the product
/// to the packed `u32` width. The paper's maxima are GRVs (≤ ~64 w.h.p.)
/// times the overestimation factor; a product that does not fit `u32`
/// means a configuration far outside the analyzed ranges, and wrapping
/// silently would corrupt every phase and estimate readout — so the guard
/// stays on in release builds too, and covers the multiplication itself
/// (a wrapped `u64` product could land back inside the `u32` range). It
/// sits on the reset path, ~once per round per agent, next to a 16-fold
/// GRV sample; not on the per-interaction path.
#[inline]
pub(crate) fn narrow_max(overestimate: u64, value: u64) -> u32 {
    overestimate
        .checked_mul(value)
        .and_then(|scaled| u32::try_from(scaled).ok())
        .unwrap_or_else(|| {
            panic!(
                "scaled maximum {overestimate}·{value} exceeds the packed u32 width \
                 (overestimate factor too large for the packed state layout)"
            )
        })
}

impl MemoryFootprint for DscState {
    fn memory_bits(&self) -> u32 {
        // The four protocol variables in binary; `ticks` is instrumentation.
        bit_len(u64::from(self.max))
            + bit_len(u64::from(self.last_max))
            + (bit_len(self.time.unsigned_abs()) + 1)
            + bit_len(u64::from(self.interactions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_max_picks_larger() {
        let s = DscState {
            max: 3,
            last_max: 9,
            time: 10,
            interactions: 0,
            ticks: 0,
        };
        assert_eq!(s.effective_max(), 9);
        let s = DscState { max: 12, ..s };
        assert_eq!(s.effective_max(), 12);
    }

    #[test]
    fn memory_excludes_ticks() {
        let a = DscState {
            max: 7,
            last_max: 7,
            time: 42,
            interactions: 100,
            ticks: 0,
        };
        let b = DscState {
            ticks: u32::MAX,
            ..a
        };
        assert_eq!(a.memory_bits(), b.memory_bits());
        // 3 + 3 + (6 + 1) + 7 = 20 bits.
        assert_eq!(a.memory_bits(), 20);
    }

    /// The cache-line budget: two states per 64-byte line. A new field (or
    /// a widened one) that pushes past 32 bytes is a performance regression
    /// at large n and must be a deliberate decision.
    #[test]
    fn packed_layout_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<DscState>() <= 32);
        assert_eq!(std::mem::size_of::<DscState>(), 24);
    }

    #[test]
    fn narrow_max_is_identity_in_range() {
        assert_eq!(narrow_max(1, 0), 0);
        assert_eq!(narrow_max(1, u64::from(u32::MAX)), u32::MAX);
        assert_eq!(narrow_max(20, 3), 60);
    }
}
