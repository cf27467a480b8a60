//! Count-based simulation of finite-state protocols.
//!
//! For a protocol whose state space is small (binary epidemics, bounded
//! CHVP), the configuration is fully described by one counter per state.
//! [`CountSimulator`] samples each interaction directly from the counters —
//! exactly the same distribution as the agent-array simulator, verified by
//! cross-checking integration tests — with O(#states) memory regardless of
//! `n`. This enables validating the paper's substrate lemmas (4.2–4.4) at
//! populations far beyond what an agent array would hold.
//!
//! Every weighted draw computes the **same draw-to-state mapping** — the
//! CDF inverse `i : prefix(i) <= r < prefix(i + 1)` — from one RNG word,
//! two words per step in a fixed order, pinned by a reference-stepper
//! equivalence test and RNG-budget tests. One sampler answers every draw:
//! a **block index** (`BlockCounts`) — per-block count sums over fixed
//! `BLOCK`-state blocks plus a lazily raised lower bound on the lowest
//! occupied state. A draw walks the block sums from the bound, then the
//! states of one block; an update touches two counters. Finite substrates
//! occupy a narrow window of their state space (bounded CHVP with m = 400
//! spends its run inside ~10 states), so both walks are short; a narrow
//! state space is simply one block.
//!
//! A step never takes the initiator out of the counts to draw the
//! responder: the responder's offset is shifted past the initiator's last
//! unit instead (derivation at the shift in [`CountSimulator::step`]).
//! After the transition only the *net* count change is applied — a no-op
//! touches nothing, a one-way step (CHVP, epidemics) moves one agent
//! between two states, and only a step that changes both agents pays two
//! moves.
//!
//! The batched backend ([`BatchedCountSimulator`](crate::BatchedCountSimulator))
//! owns one of these simulators: its exact steps, adversary operations and
//! checkpoint restores all run here, and its batches land through one
//! crate-private method that applies net per-state deltas.

use pp_model::FiniteProtocol;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// States per block of [`BlockCounts`]. A draw walks up to `#states / 32`
/// block sums and then up to 32 counters (four cache lines): for the
/// widest registry substrate (bounded CHVP, 401 states) that is at most
/// 13 sums, and its ~10-state occupied window lies in one or two blocks.
/// A power of two, so a state's block is a shift.
const BLOCK: usize = 32;

/// Per-state counts indexed for weighted draws by per-block sums.
///
/// A draw returns **exactly** the CDF inverse — the unique state `i` with
/// `prefix(i) <= r < prefix(i + 1)` — together with `prefix(i)`, the mass
/// below it. Every state below `lo` is empty: increments lower the bound
/// eagerly, and draws raise it lazily past emptied blocks and then
/// emptied states, so a draw skips everything below the occupied window.
#[derive(Debug, Clone)]
struct BlockCounts {
    /// One counter per state.
    counts: Vec<u64>,
    /// `sums[b]` = total count of the states in block `b`.
    sums: Vec<u64>,
    /// Lower bound on the lowest occupied state.
    lo: usize,
}

impl BlockCounts {
    /// Indexes `counts` in O(#states).
    fn build(counts: Vec<u64>) -> Self {
        let sums = counts
            .chunks(BLOCK)
            .map(|block| block.iter().sum())
            .collect();
        let lo = counts.iter().position(|&c| c > 0).unwrap_or(0);
        BlockCounts { counts, sums, lo }
    }

    /// Adds `delta` agents to state `i`.
    #[inline]
    fn add(&mut self, i: usize, delta: u64) {
        self.counts[i] += delta;
        self.sums[i / BLOCK] += delta;
        self.lo = self.lo.min(i);
    }

    /// Removes `delta` agents from state `i`.
    #[inline]
    fn sub(&mut self, i: usize, delta: u64) {
        self.counts[i] -= delta;
        self.sums[i / BLOCK] -= delta;
    }

    /// Moves one agent from state `from` to state `to`.
    #[inline]
    fn shift(&mut self, from: usize, to: usize) {
        self.sub(from, 1);
        self.add(to, 1);
    }

    /// The state containing offset `r` of the cumulative distribution, and
    /// the mass of the states below it. `r` must be below the total count.
    #[inline]
    fn draw(&mut self, r: u64) -> (usize, u64) {
        let mut b = self.lo / BLOCK;
        if self.sums[b] == 0 {
            while self.sums[b] == 0 {
                b += 1;
            }
            self.lo = b * BLOCK;
        }
        while self.counts[self.lo] == 0 {
            self.lo += 1;
        }
        // The states of block `b` below `lo` are empty, so its sum is the
        // mass from `lo` on.
        let mut rest = r;
        while rest >= self.sums[b] {
            rest -= self.sums[b];
            b += 1;
        }
        let mut i = (b * BLOCK).max(self.lo);
        while rest >= self.counts[i] {
            rest -= self.counts[i];
            i += 1;
        }
        (i, r - rest)
    }
}

/// An execution of a finite-state protocol represented by state counts.
///
/// The generator type parameter `R` defaults to [`SmallRng`]; tests inject
/// an instrumented RNG via [`CountSimulator::from_counts_with_rng`] to pin
/// down the exact number of random words a step consumes.
///
/// # Examples
///
/// ```
/// use pp_model::{FiniteProtocol, Protocol};
/// use pp_sim::CountSimulator;
/// use rand::Rng;
///
/// struct Or;
/// impl Protocol for Or {
///     type State = bool;
///     fn initial_state(&self) -> bool { false }
///     fn interact<R: Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _: &mut R) { *u = *u || *v; }
/// }
/// impl FiniteProtocol for Or {
///     fn num_states(&self) -> usize { 2 }
///     fn state_index(&self, s: &bool) -> usize { usize::from(*s) }
///     fn state_from_index(&self, i: usize) -> bool { i == 1 }
/// }
///
/// let mut sim = CountSimulator::with_seed(Or, 10_000, 99);
/// sim.set_count(1, 1);       // one infected agent
/// sim.set_count(0, 9_999);
/// sim.run_parallel_time(40.0);
/// assert_eq!(sim.count(1), 10_000);
/// ```
#[derive(Debug)]
pub struct CountSimulator<P: FiniteProtocol, R: Rng = SmallRng> {
    protocol: P,
    /// The per-state counts and their draw index.
    index: BlockCounts,
    n: u64,
    rng: R,
    interactions: u64,
    parallel_time: f64,
}

impl<P: FiniteProtocol> CountSimulator<P, SmallRng> {
    /// Creates a simulator of `n` agents in the protocol's initial state.
    pub fn with_seed(protocol: P, n: u64, seed: u64) -> Self {
        let mut counts = vec![0u64; protocol.num_states()];
        counts[protocol.state_index(&protocol.initial_state())] = n;
        Self::from_counts(protocol, counts, seed)
    }

    /// Creates a simulator from explicit per-state counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != protocol.num_states()`.
    pub fn from_counts(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
        Self::from_counts_with_rng(protocol, counts, SmallRng::seed_from_u64(seed))
    }
}

impl<P: FiniteProtocol, R: Rng> CountSimulator<P, R> {
    /// Creates a simulator from explicit per-state counts and an explicit
    /// generator (the instrumentation entry point).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != protocol.num_states()`.
    pub fn from_counts_with_rng(protocol: P, counts: Vec<u64>, rng: R) -> Self {
        assert_eq!(
            counts.len(),
            protocol.num_states(),
            "counts must cover every state"
        );
        let n = counts.iter().sum();
        CountSimulator {
            protocol,
            index: BlockCounts::build(counts),
            n,
            rng,
            interactions: 0,
            parallel_time: 0.0,
        }
    }

    /// Rebuilds a simulator from checkpointed state: per-state counts, the
    /// generator mid-stream, and the clocks.
    ///
    /// Only the five arguments are serialized; everything else is derived.
    /// The block index rebuilds from the counts (pinned equal to the
    /// incrementally maintained one by the
    /// `block_index_stays_consistent_with_a_fresh_build` test; its lazy
    /// lower bound may start higher, which only skips empty states, and
    /// draws compute the same CDF inverse either way), so a restored
    /// simulator replays the uninterrupted run bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != protocol.num_states()`.
    pub fn restore(
        protocol: P,
        counts: Vec<u64>,
        rng: R,
        interactions: u64,
        parallel_time: f64,
    ) -> Self {
        let mut sim = Self::from_counts_with_rng(protocol, counts, rng);
        sim.interactions = interactions;
        sim.parallel_time = parallel_time;
        sim
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Interactions simulated so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Parallel time elapsed.
    pub fn parallel_time(&self) -> f64 {
        self.parallel_time
    }

    /// Count of agents in the state with index `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.index.counts[i]
    }

    /// The simulator's generator (read-only; instrumented RNGs injected via
    /// [`CountSimulator::from_counts_with_rng`] expose their counters here).
    pub fn rng(&self) -> &R {
        &self.rng
    }

    /// All per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.index.counts
    }

    /// The simulator's generator, for the batched backend's binomial
    /// draws.
    pub(crate) fn rng_mut(&mut self) -> &mut R {
        &mut self.rng
    }

    /// Overwrites the count of state `i` (population setup).
    ///
    /// O(1): the population total is adjusted by the delta instead of
    /// re-summing every state.
    pub fn set_count(&mut self, i: usize, count: u64) {
        let old = self.index.counts[i];
        self.n = self.n - old + count;
        self.index.sub(i, old);
        self.index.add(i, count);
    }

    /// Smallest state index with a nonzero count.
    pub fn min_occupied(&self) -> Option<usize> {
        self.counts().iter().position(|&c| c > 0)
    }

    /// Largest state index with a nonzero count.
    pub fn max_occupied(&self) -> Option<usize> {
        self.counts().iter().rposition(|&c| c > 0)
    }

    /// Simulates one interaction.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents.
    pub fn step(&mut self) {
        assert!(self.n >= 2, "an interaction needs at least two agents");
        let (si, below) = self.index.draw(self.rng.random_range(0..self.n));
        // The responder is drawn from the counts with the initiator taken
        // out, without taking it out. With one unit of `si` removed, every
        // prefix past `si` drops by one, so the decremented CDF inverse of
        // offset `r` is the full one's at `r` below the initiator's last
        // unit (`below + counts[si] − 1`) and at `r + 1` from there on.
        let r = self.rng.random_range(0..self.n - 1);
        let r = r + u64::from(r + 1 >= below + self.index.counts[si]);
        let (sj, _) = self.index.draw(r);
        self.interact_and_apply(si, sj);
        self.interactions += 1;
        self.parallel_time += 1.0 / self.n as f64;
    }

    /// Runs the transition on an initiator in state `si` and a responder
    /// in state `sj`, and applies its net count change: one matching
    /// removed/added state cancels, so a no-op touches nothing and a
    /// one-way step moves one agent.
    #[inline]
    fn interact_and_apply(&mut self, si: usize, sj: usize) {
        let mut u = self.protocol.state_from_index(si);
        let mut v = self.protocol.state_from_index(sj);
        self.protocol.interact(&mut u, &mut v, &mut self.rng);
        let oi = self.protocol.state_index(&u);
        let oj = self.protocol.state_index(&v);
        let (from, to) = if oi == si {
            (sj, oj)
        } else if oj == sj {
            (si, oi)
        } else if oi == sj {
            (si, oj)
        } else if oj == si {
            (sj, oi)
        } else {
            self.index.shift(si, oi);
            (sj, oj)
        };
        if from != to {
            self.index.shift(from, to);
        }
    }

    /// Applies a batch's net per-state count changes `net` (indexed by
    /// state, summing to zero; empty for a span of no-ops) and books its
    /// `k` interactions. The caller has checked that no count goes
    /// negative.
    pub(crate) fn apply_batch(&mut self, net: &[i64], k: u64) {
        for (state, &d) in net.iter().enumerate() {
            if d > 0 {
                self.index.add(state, d as u64);
            } else if d < 0 {
                self.index.sub(state, d.unsigned_abs());
            }
        }
        self.interactions = self.interactions.saturating_add(k);
        self.parallel_time += k as f64 / self.n as f64;
    }

    /// Simulates `count` interactions.
    pub fn step_n(&mut self, count: u64) {
        for _ in 0..count {
            self.step();
        }
    }

    /// Runs for `duration` units of parallel time.
    ///
    /// With a population of fewer than two agents, time passes without
    /// interactions (matching the agent-array simulator's convention).
    pub fn run_parallel_time(&mut self, duration: f64) {
        let target = self.parallel_time + duration;
        if self.n < 2 {
            self.parallel_time = target;
            return;
        }
        while self.parallel_time < target {
            self.step();
        }
    }

    /// Adds `count` agents in the protocol's initial state (the dynamic
    /// adversary's *add*).
    pub fn add_agents(&mut self, count: u64) {
        let init = self.protocol.state_index(&self.protocol.initial_state());
        self.index.add(init, count);
        self.n += count;
    }

    /// Removes one agent drawn uniformly at random and returns its state.
    #[inline]
    fn remove_one(&mut self) -> usize {
        let (si, _) = self.index.draw(self.rng.random_range(0..self.n));
        self.index.sub(si, 1);
        self.n -= 1;
        si
    }

    /// Removes `count` agents chosen uniformly at random (weighted state
    /// sampling — the count representation of uniform agent removal).
    ///
    /// Cost is O(min(count, n − count)) draws: removing `count` agents
    /// uniformly without replacement is the same distribution as choosing
    /// the `n − count` *survivors* uniformly without replacement, so a
    /// near-total crash (the paper's Fig. 4 removes all but 500 of 10⁶)
    /// samples the survivors instead of performing ~n removal draws.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the population size.
    pub fn remove_uniform(&mut self, count: u64) {
        assert!(
            count <= self.n,
            "cannot remove {count} of {} agents",
            self.n
        );
        let keep = self.n - count;
        if count <= keep {
            for _ in 0..count {
                self.remove_one();
            }
        } else {
            // Draw the survivors without replacement from the current
            // configuration, then swap the survivor counts in.
            let mut survivors = vec![0u64; self.index.counts.len()];
            for _ in 0..keep {
                survivors[self.remove_one()] += 1;
            }
            self.index = BlockCounts::build(survivors);
            self.n = keep;
        }
    }

    /// Resizes the population to `target`: grows with fresh agents or
    /// shrinks by uniform removal.
    pub fn resize_to(&mut self, target: u64) {
        if target > self.n {
            self.add_agents(target - self.n);
        } else {
            self.remove_uniform(self.n - target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_model::Protocol;
    use rand::Rng;

    #[derive(Clone, Copy)]
    struct Or;
    impl Protocol for Or {
        type State = bool;
        fn initial_state(&self) -> bool {
            false
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut bool, v: &mut bool, _: &mut R) {
            *u = *u || *v;
        }
    }
    impl FiniteProtocol for Or {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: &bool) -> usize {
            usize::from(*s)
        }
        fn state_from_index(&self, i: usize) -> bool {
            i == 1
        }
    }

    /// An RNG wrapper counting the 64-bit words drawn through it.
    struct CountingRng {
        inner: SmallRng,
        words: u64,
    }

    impl CountingRng {
        fn seeded(seed: u64) -> Self {
            CountingRng {
                inner: SmallRng::seed_from_u64(seed),
                words: 0,
            }
        }
    }

    impl Rng for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// Regression guard for the per-step randomness budget: one step of an
    /// RNG-free protocol draws exactly two words (one weighted state draw
    /// for the initiator, one for the responder). Lemire rejection could in
    /// principle add retries, but its per-draw probability is `total/2^64`
    /// and the seed is fixed, so the count is deterministic. If this test
    /// starts failing after an engine change, the change altered how much
    /// randomness a step consumes — which silently breaks every recorded
    /// trace — so account for it deliberately, don't just bump the number.
    #[test]
    fn step_consumes_exactly_two_rng_words() {
        let steps = 1_000u64;
        let mut sim =
            CountSimulator::from_counts_with_rng(Or, vec![600, 400], CountingRng::seeded(12));
        assert_eq!(sim.index.sums.len(), 1, "two states are one block");
        sim.step_n(steps);
        assert_eq!(sim.rng().words, 2 * steps);
    }

    /// Width of the wide-state-space fixtures in the fixed-width tests:
    /// several blocks.
    const DRIFT_STATES: usize = 300;

    /// One-sided "drift towards the larger value, plus one, capped" over
    /// `.0` states. RNG-free transitions, so the per-step word budget is
    /// pure sampler.
    #[derive(Clone, Copy)]
    struct Drift(usize);
    impl Protocol for Drift {
        type State = u16;
        fn initial_state(&self) -> u16 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u16, v: &mut u16, _: &mut R) {
            *u = (*u).max(*v).saturating_add(1).min(self.0 as u16 - 1);
        }
    }

    /// A protocol over `.0` states whose transitions never change any
    /// count: a static distribution, so every step is a net no-op.
    #[derive(Clone, Copy)]
    struct Inert(usize);
    impl Protocol for Inert {
        type State = u16;
        fn initial_state(&self) -> u16 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, _u: &mut u16, _v: &mut u16, _: &mut R) {}
    }

    /// One-way countdown over `.0` states, shaped like bounded CHVP:
    /// `(u, v) → (max{u, v} − 1, v)`, so the occupied window drifts down
    /// and the lower bound moves with it. Fresh agents start at the top.
    #[derive(Clone, Copy)]
    struct Countdown(usize);
    impl Protocol for Countdown {
        type State = u16;
        fn initial_state(&self) -> u16 {
            self.0 as u16 - 1
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u16, v: &mut u16, _: &mut R) {
            *u = (*u).max(*v).saturating_sub(1);
        }
    }

    /// A two-way fixture over `.0` states that spends one RNG word per
    /// transition on picking one of `.1` outcomes: a move of both agents,
    /// a one-sided move, a swap, or (all the rest) a no-op. Every net-delta
    /// case runs and the transition's words interleave with the sampler's;
    /// with many outcomes long runs of net no-ops end in moves that depend
    /// on the responder.
    #[derive(Clone, Copy)]
    struct Mix(usize, u64);
    impl Protocol for Mix {
        type State = u16;
        fn initial_state(&self) -> u16 {
            0
        }
        fn interact<R: Rng + ?Sized>(&self, u: &mut u16, v: &mut u16, rng: &mut R) {
            let s = self.0 as u64;
            let (a, b) = (u64::from(*u), u64::from(*v));
            match rng.next_u64() % self.1 {
                0 => {
                    *u = ((a + b + 1) % s) as u16;
                    *v = ((3 * a + 2) % s) as u16;
                }
                1 => *u = ((a + b + 1) % s) as u16,
                2 => std::mem::swap(u, v),
                _ => {}
            }
        }
    }

    /// The state indexing of the `u16`-state fixtures: the width is the
    /// first field, and a state is its own index.
    macro_rules! u16_states {
        ($($fixture:ident),*) => {$(
            impl FiniteProtocol for $fixture {
                fn num_states(&self) -> usize {
                    self.0
                }
                fn state_index(&self, s: &u16) -> usize {
                    *s as usize
                }
                fn state_from_index(&self, i: usize) -> u16 {
                    i as u16
                }
            }
        )*};
    }
    u16_states!(Drift, Inert, Countdown, Mix);

    /// Same draw-order guard for a multi-block state space: each draw is
    /// still one word per state sample, so wide state spaces keep the
    /// exact per-step randomness budget of narrow ones — recorded traces
    /// stay valid whatever the state-space width.
    #[test]
    fn wide_state_step_consumes_exactly_two_rng_words() {
        let steps = 1_000u64;
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[0] = 700;
        counts[150] = 200;
        counts[DRIFT_STATES - 1] = 100;
        let mut sim = CountSimulator::from_counts_with_rng(
            Drift(DRIFT_STATES),
            counts,
            CountingRng::seeded(13),
        );
        assert!(sim.index.sums.len() > 1, "wide spaces span several blocks");
        sim.step_n(steps);
        assert_eq!(sim.rng().words, 2 * steps);
    }

    /// The sampler this module replaced, kept as the equivalence oracle:
    /// a linear CDF scan over the full count vector per draw, with the
    /// initiator's count decremented before the responder draw and every
    /// count of a step updated eagerly.
    struct ReferenceStepper<P> {
        protocol: P,
        counts: Vec<u64>,
        n: u64,
        rng: CountingRng,
    }

    impl<P: FiniteProtocol> ReferenceStepper<P> {
        fn new(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
            let n = counts.iter().sum();
            ReferenceStepper {
                protocol,
                counts,
                n,
                rng: CountingRng::seeded(seed),
            }
        }

        fn draw(&mut self, total: u64) -> usize {
            let mut r = self.rng.random_range(0..total);
            for (i, &c) in self.counts.iter().enumerate() {
                if r < c {
                    return i;
                }
                r -= c;
            }
            unreachable!("offset beyond total");
        }

        fn step(&mut self) {
            let si = self.draw(self.n);
            self.counts[si] -= 1;
            let sj = self.draw(self.n - 1);
            self.counts[sj] -= 1;
            let mut u = self.protocol.state_from_index(si);
            let mut v = self.protocol.state_from_index(sj);
            self.protocol.interact(&mut u, &mut v, &mut self.rng);
            self.counts[self.protocol.state_index(&u)] += 1;
            self.counts[self.protocol.state_index(&v)] += 1;
        }

        fn step_n(&mut self, count: u64) {
            for _ in 0..count {
                self.step();
            }
        }

        fn add_agents(&mut self, count: u64) {
            let init = self.protocol.state_index(&self.protocol.initial_state());
            self.counts[init] += count;
            self.n += count;
        }

        fn remove_uniform(&mut self, count: u64) {
            let keep = self.n - count;
            let draws = count.min(keep);
            let mut drawn = vec![0u64; self.counts.len()];
            for _ in 0..draws {
                let si = self.draw(self.n);
                self.counts[si] -= 1;
                self.n -= 1;
                drawn[si] += 1;
            }
            if count > keep {
                self.counts = drawn;
                self.n = keep;
            }
        }

        fn set_count(&mut self, i: usize, count: u64) {
            self.n = self.n - self.counts[i] + count;
            self.counts[i] = count;
        }

        fn resize_to(&mut self, target: u64) {
            if target > self.n {
                self.add_agents(target - self.n);
            } else {
                self.remove_uniform(self.n - target);
            }
        }
    }

    /// Asserts the incrementally maintained index equals a fresh build of
    /// its counts: the same block sums, and a lower bound at or below the
    /// lowest occupied state.
    fn assert_index_consistent(index: &BlockCounts) {
        let fresh = BlockCounts::build(index.counts.clone());
        assert_eq!(index.sums, fresh.sums, "block sums drifted from the counts");
        if let Some(lowest) = index.counts.iter().position(|&c| c > 0) {
            assert!(
                index.lo <= lowest,
                "lower bound {} above the lowest occupied state {lowest}",
                index.lo
            );
        }
    }

    /// Asserts the simulator and the reference hold the same counts and
    /// population, and have drawn the same number of RNG words.
    fn assert_in_lockstep<P: FiniteProtocol>(
        sim: &CountSimulator<P, CountingRng>,
        reference: &ReferenceStepper<P>,
        context: &str,
    ) {
        assert_eq!(sim.counts(), &reference.counts[..], "counts: {context}");
        assert_eq!(sim.population(), reference.n, "population: {context}");
        assert_eq!(sim.rng().words, reference.rng.words, "RNG words: {context}");
        assert_index_consistent(&sim.index);
    }

    /// Runs `ops` — `(kind, amount, state)` triples decoded into steps and
    /// every adversary-style mutation, both `remove_uniform` branches
    /// included — on the simulator and the reference stepper in lockstep,
    /// asserting identical counts and RNG word counts after every one.
    fn check_against_reference<P: FiniteProtocol + Copy>(
        protocol: P,
        counts: Vec<u64>,
        seed: u64,
        ops: &[(usize, u64, usize)],
    ) {
        let width = counts.len();
        let mut sim = CountSimulator::from_counts_with_rng(
            protocol,
            counts.clone(),
            CountingRng::seeded(seed),
        );
        let mut reference = ReferenceStepper::new(protocol, counts, seed);
        assert_in_lockstep(&sim, &reference, "initial");
        for (k, &(kind, amount, state)) in ops.iter().enumerate() {
            let n = sim.population();
            match kind {
                0 | 1 if n >= 2 => {
                    sim.step_n(amount);
                    reference.step_n(amount);
                }
                0 | 1 => {}
                2 => {
                    sim.add_agents(amount % 50);
                    reference.add_agents(amount % 50);
                }
                3 => {
                    sim.remove_uniform(amount % (n + 1));
                    reference.remove_uniform(amount % (n + 1));
                }
                4 => {
                    sim.set_count(state % width, amount % 40);
                    reference.set_count(state % width, amount % 40);
                }
                _ => {
                    sim.resize_to(amount % (2 * n + 5));
                    reference.resize_to(amount % (2 * n + 5));
                }
            }
            assert_in_lockstep(&sim, &reference, &format!("op {k} {:?}", ops[k]));
        }
    }

    /// A random count vector of `width` states: mostly empty, with a dense
    /// window somewhere, so draws cross block edges and skip empty blocks.
    fn random_counts(width: usize, shape: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(shape);
        let lo = rng.random_range(0..width as u64) as usize;
        let hi = (lo + 1 + rng.random_range(0..40u64) as usize).min(width);
        let mut counts = vec![0u64; width];
        for c in &mut counts[lo..hi] {
            *c = rng.random_range(0..30u64);
        }
        for _ in 0..rng.random_range(0..3u64) {
            counts[rng.random_range(0..width as u64) as usize] += rng.random_range(1..5u64);
        }
        counts[lo] += 2;
        counts
    }

    proptest::proptest! {
        /// The block index, the responder draw without removal and the
        /// net-delta apply together replay the reference stepper exactly:
        /// same counts and same RNG word count after every step batch and
        /// every mutation, on every fixture and across block-edge widths.
        /// Fixtures 6 and 7 are bounded CHVP's two openings at m = 400
        /// under `Countdown(401)`: Lemma 4.3 (every agent at the top) and
        /// Lemma 4.4 (all but one at the bottom), each crashed by a
        /// `resize_to` between two step runs before the random ops.
        #[test]
        fn count_simulator_matches_the_reference_stepper(
            width_ix in 0usize..8,
            fixture in 0usize..8,
            shape: u64,
            seed: u64,
            ops in proptest::collection::vec((0usize..6, 0u64..400, 0usize..512), 1..10),
        ) {
            let width = [1usize, 2, 31, 32, 33, 64, 300, 401][width_ix];
            let counts = random_counts(width, shape);
            match fixture {
                0 => {
                    let counts = vec![counts[0], counts[width - 1] + 1];
                    check_against_reference(Or, counts, seed, &ops)
                }
                1 => check_against_reference(Drift(width), counts, seed, &ops),
                2 => check_against_reference(Inert(width), counts, seed, &ops),
                3 => check_against_reference(Countdown(width), counts, seed, &ops),
                4 => check_against_reference(Mix(width, 4), counts, seed, &ops),
                5 => check_against_reference(Mix(width, 128), counts, seed, &ops),
                _ => {
                    let n = 64 + shape % 512;
                    let mut counts = vec![0u64; 401];
                    if fixture == 6 {
                        counts[400] = n;
                    } else {
                        counts[0] = n - 1;
                        counts[400] = 1;
                    }
                    let crash = [(0, 300, 0), (5, 3 + shape % 10, 0), (0, 300, 0)];
                    let ops: Vec<_> = crash.into_iter().chain(ops).collect();
                    check_against_reference(Countdown(401), counts, seed, &ops)
                }
            }
        }
    }

    /// The reference-stepper check on a fixed wide scenario long enough to
    /// move the occupied window across many blocks, with mutations between
    /// rounds.
    #[test]
    fn block_index_and_reference_produce_identical_trajectories() {
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[0] = 900;
        counts[7] = 50;
        counts[220] = 50;
        let ops: Vec<(usize, u64, usize)> = (0..20)
            .flat_map(|round| [(0, 200, 0), (2 + round % 3, 40, 5)])
            .collect();
        check_against_reference(Drift(DRIFT_STATES), counts.clone(), 77, &ops);
        counts.reverse();
        check_against_reference(Countdown(DRIFT_STATES), counts, 78, &ops);
    }

    /// The incremental block-index updates must stay consistent with a
    /// fresh build after arbitrary mutations (including the
    /// survivor-branch rebuild of a near-total removal).
    #[test]
    fn block_index_stays_consistent_with_a_fresh_build() {
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[3] = 500;
        counts[100] = 500;
        let mut sim = CountSimulator::from_counts(Drift(DRIFT_STATES), counts, 31);
        sim.step_n(500);
        assert_index_consistent(&sim.index);
        sim.remove_uniform(900); // survivor branch: rebuild
        assert_index_consistent(&sim.index);
        sim.add_agents(25);
        sim.set_count(42, 17);
        sim.step_n(100);
        assert_index_consistent(&sim.index);
    }

    /// Draws every offset of `index` and checks each against the linear
    /// CDF inverse and the mass below it, then checks the index against a
    /// fresh build.
    fn assert_draws_match_the_cdf_inverse(index: &mut BlockCounts) {
        let counts = index.counts.clone();
        let total: u64 = counts.iter().sum();
        let (mut state, mut below) = (0usize, 0u64);
        for r in 0..total {
            while r >= below + counts[state] {
                below += counts[state];
                state += 1;
            }
            assert_eq!(index.draw(r), (state, below), "offset {r} of {counts:?}");
        }
        assert_index_consistent(index);
    }

    /// The block walk at its edges, exhaustively over every offset of small
    /// totals: mass only at the first or the last state, a window straddling
    /// a block edge, the lowest states emptying (the lazy bound must climb
    /// across empty blocks), an add below the bound, and the survivor-branch
    /// rebuild.
    #[test]
    fn block_index_edge_cases_match_the_cdf_inverse() {
        for width in [1usize, 2, 31, 32, 33, 64, 401] {
            let mut first = vec![0u64; width];
            first[0] = 7;
            assert_draws_match_the_cdf_inverse(&mut BlockCounts::build(first));

            let mut last = vec![0u64; width];
            last[width - 1] = 7;
            let mut index = BlockCounts::build(last);
            index.lo = 0; // a stale bound: the draw must climb to the top
            assert_draws_match_the_cdf_inverse(&mut index);
            assert_eq!(index.lo, width - 1);
        }

        let mut straddle = vec![0u64; 96];
        for (i, c) in straddle[28..37].iter_mut().enumerate() {
            *c = i as u64 % 3 + 1;
        }
        assert_draws_match_the_cdf_inverse(&mut BlockCounts::build(straddle));

        let mut counts = vec![0u64; 401];
        counts[0] = 2;
        counts[1] = 1;
        counts[5] = 1;
        counts[2 * BLOCK] = 3;
        counts[200] = 2;
        counts[400] = 1;
        let mut index = BlockCounts::build(counts);
        assert_draws_match_the_cdf_inverse(&mut index);
        index.sub(0, 2);
        index.sub(1, 1);
        assert_eq!(index.lo, 0, "removals leave the bound where it was");
        assert_draws_match_the_cdf_inverse(&mut index);
        assert_eq!(index.lo, 5, "the draw raises the bound past empty states");
        index.sub(5, 1);
        assert_draws_match_the_cdf_inverse(&mut index);
        assert_eq!(
            index.lo,
            2 * BLOCK,
            "the draw raises the bound past empty blocks, onto an occupied block start"
        );
        index.sub(2 * BLOCK, 3);
        assert_draws_match_the_cdf_inverse(&mut index);
        assert_eq!(index.lo, 200);
        index.add(5, 2);
        assert_eq!(index.lo, 5, "an add below the bound lowers it eagerly");
        assert_draws_match_the_cdf_inverse(&mut index);
        index.shift(5, 399);
        assert_draws_match_the_cdf_inverse(&mut index);

        // Survivor-branch rebuild on a simulator whose window spans blocks.
        let mut spread = vec![0u64; 401];
        for c in &mut spread[20..80] {
            *c = 3;
        }
        let mut sim = CountSimulator::from_counts(Inert(401), spread, 17);
        sim.remove_uniform(170);
        assert_eq!(sim.population(), 10);
        assert_draws_match_the_cdf_inverse(&mut sim.index);
    }

    fn spread_counts() -> Vec<u64> {
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[0] = 500;
        counts[13] = 250;
        counts[170] = 200;
        counts[DRIFT_STATES - 1] = 50;
        counts
    }

    #[test]
    fn population_is_conserved() {
        let mut sim = CountSimulator::from_counts(Or, vec![99, 1], 5);
        sim.step_n(1_000);
        assert_eq!(sim.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn epidemic_infects_everyone() {
        let mut sim = CountSimulator::from_counts(Or, vec![9_999, 1], 6);
        sim.run_parallel_time(60.0);
        assert_eq!(sim.count(1), 10_000, "epidemic did not finish in 60 time");
        assert_eq!(sim.count(0), 0);
    }

    #[test]
    fn infection_is_monotone() {
        let mut sim = CountSimulator::from_counts(Or, vec![500, 500], 7);
        let mut last = sim.count(1);
        for _ in 0..100 {
            sim.step_n(10);
            let now = sim.count(1);
            assert!(now >= last, "infections cannot be cured");
            last = now;
        }
    }

    #[test]
    fn occupied_range_tracks_counts() {
        let mut sim = CountSimulator::from_counts(Or, vec![3, 0], 8);
        assert_eq!(sim.min_occupied(), Some(0));
        assert_eq!(sim.max_occupied(), Some(0));
        sim.set_count(1, 2);
        assert_eq!(sim.max_occupied(), Some(1));
        assert_eq!(sim.population(), 5);
    }

    #[test]
    fn set_count_adjusts_population_incrementally() {
        let mut sim = CountSimulator::from_counts(Or, vec![10, 5], 11);
        sim.set_count(0, 3); // shrink
        assert_eq!(sim.population(), 8);
        sim.set_count(1, 50); // grow
        assert_eq!(sim.population(), 53);
        sim.set_count(1, 0); // empty the top state
        assert_eq!(sim.population(), 3);
        assert_eq!(sim.max_occupied(), Some(0), "bound tightens past zeros");
    }

    #[test]
    fn near_total_removal_samples_survivors() {
        // Removing all but 10 of a million must cost ~10 draws, not ~10^6
        // (the count representation of the paper's Fig. 4 crash).
        let mut sim = CountSimulator::from_counts(Or, vec![500_000, 500_000], 21);
        sim.remove_uniform(999_990);
        assert_eq!(sim.population(), 10);
        assert_eq!(sim.counts().iter().sum::<u64>(), 10);
        // With a 50/50 configuration the survivors almost surely straddle
        // both states less often than not — just check bounds invariants.
        assert!(sim.max_occupied().is_some());
        sim.set_count(0, sim.count(0)); // no-op; exercises bound upkeep
        assert_eq!(sim.population(), 10);
    }

    #[test]
    fn small_and_survivor_removal_branches_conserve_population() {
        let mut sim = CountSimulator::from_counts(Or, vec![60, 40], 22);
        sim.remove_uniform(30); // small branch (30 <= 70 kept)
        assert_eq!(sim.population(), 70);
        sim.remove_uniform(60); // survivor branch (keep 10 < remove 60)
        assert_eq!(sim.population(), 10);
        assert_eq!(sim.counts().iter().sum::<u64>(), 10);
    }

    #[test]
    fn remove_uniform_to_zero_leaves_a_consistent_empty_simulator() {
        // The batched backend's adversary schedules can crash the whole
        // population mid-run: keep == 0 takes the survivor branch with
        // zero draws and must leave every invariant (counts, bounds,
        // block sums) consistent, not a half-updated husk.
        let mut sim = CountSimulator::from_counts(Inert(DRIFT_STATES), spread_counts(), 61);
        let n = sim.population();
        sim.remove_uniform(n);
        assert_eq!(sim.population(), 0);
        assert!(sim.counts().iter().all(|&c| c == 0));
        assert_eq!(sim.min_occupied(), None);
        assert_eq!(sim.max_occupied(), None);
        // Time still passes on an empty population (no interactions)...
        sim.run_parallel_time(5.0);
        assert!(sim.parallel_time() >= 5.0);
        // ...and the simulator comes back to life when agents are added.
        sim.add_agents(50);
        assert_eq!(sim.population(), 50);
        sim.step_n(100);
        assert_eq!(sim.counts().iter().sum::<u64>(), 50);
    }

    #[test]
    fn removal_and_growth_of_zero_agents_are_no_ops() {
        let mut sim = CountSimulator::from_counts(Or, vec![60, 40], 62);
        let before = sim.counts().to_vec();
        sim.remove_uniform(0);
        sim.add_agents(0);
        sim.resize_to(100);
        assert_eq!(sim.counts(), &before[..]);
        assert_eq!(sim.population(), 100);
    }

    #[test]
    fn mass_removal_shrinks_the_occupied_range_consistently() {
        // Survivor-branch removal rebuilds counts from scratch; the block
        // sums and the lower bound must both resync with the new (much
        // sparser) configuration or later draws walk off the end of the
        // old range.
        let mut sim = CountSimulator::from_counts(Inert(DRIFT_STATES), spread_counts(), 63);
        let n = sim.population();
        sim.remove_uniform(n - 4); // survivor branch: keep 4 of 1000
        assert_eq!(sim.population(), 4);
        let survivors = sim.counts().to_vec();
        let top = survivors.iter().rposition(|&c| c > 0).unwrap();
        assert_eq!(sim.max_occupied(), Some(top), "bound must match counts");
        assert_index_consistent(&sim.index);
        // Inert transitions never change counts, so any drift here means
        // the post-removal sampler state was inconsistent.
        sim.step_n(500);
        assert_eq!(sim.counts(), &survivors[..]);
    }

    #[test]
    fn small_branch_removal_that_empties_a_state_tightens_the_bound() {
        // All mass in one high state: small-branch draws hit it
        // deterministically; removing down to zero there must not strand
        // max_occupied above the (now empty) top state forever.
        let mut counts = vec![0u64; DRIFT_STATES];
        counts[170] = 100;
        counts[3] = 100;
        let mut sim = CountSimulator::from_counts(Inert(DRIFT_STATES), counts, 64);
        sim.set_count(170, 0); // remove-to-zero of the top state mid-run
        assert_eq!(sim.population(), 100);
        assert_eq!(sim.max_occupied(), Some(3));
        sim.step_n(200); // draws must stay inside the live range
        assert_eq!(sim.count(3), 100);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn stepping_a_lone_agent_panics() {
        let mut sim = CountSimulator::from_counts(Or, vec![1, 0], 9);
        sim.step();
    }

    #[test]
    #[should_panic(expected = "cover every state")]
    fn from_counts_validates_length() {
        let _ = CountSimulator::from_counts(Or, vec![1, 2, 3], 10);
    }
}
