//! In-memory span tracing around the calls into each layer.
//!
//! Spans are recorded only from the benchmark's own code: around each
//! `Sweep::run_on` call, around each backend cell (the [`Timed`] backend
//! wrapper) and around each snapshot scan (the [`Traced`] recording
//! wrapper). Each span has a name, start, end, the span that caused it and
//! one count.
//! Spans stay in memory until [`take`] drains them when the run ends; a
//! thread buffers its spans locally and hands them over when its
//! outermost span closes, so worker threads never contend per scan.
//!
//! Tracing is off unless [`enable`] was called, and then costs one relaxed
//! load per wrapped call; the untraced end-to-end runs never wrap anything.

use pp_model::SizeEstimator;
use pp_sim::{Backend, BackendError, CellSpec, EstimateSummary, Recording, RunResult};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps (e.g. `pp_sim.sweep.run_on`).
    pub name: &'static str,
    /// Unique id (ids start at 1).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Work the span did, in the layer's own unit (interactions for a
    /// cell, agents for a scan); 0 where there is none.
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// The open root span of the main thread: the parent of spans that worker
/// threads open while it runs (cells of a sweep).
static OUTER: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether span recording is on.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`; `count` reads the span's work
/// count off the result. Without tracing this is a plain call.
pub fn span<T>(name: &'static str, count: impl FnOnce(&T) -> u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let enclosing = CURRENT.with(Cell::get);
    let parent = if enclosing == 0 {
        OUTER.load(Ordering::Relaxed)
    } else {
        enclosing
    };
    // A root span on a thread with no outer span is the main thread's own
    // root: worker threads hang their spans under it.
    let publish_outer = enclosing == 0 && parent == 0;
    if publish_outer {
        OUTER.store(id, Ordering::Relaxed);
    }
    CURRENT.with(|c| c.set(id));
    let start_ns = now_ns();
    let value = f();
    let end_ns = now_ns();
    CURRENT.with(|c| c.set(enclosing));
    if publish_outer {
        OUTER.store(0, Ordering::Relaxed);
    }
    let span = Span {
        name,
        id,
        parent,
        start_ns,
        end_ns,
        count: count(&value),
    };
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        local.push(span);
        if enclosing == 0 {
            SINK.lock()
                .expect("a thread panicked while handing over spans")
                .append(&mut local);
        }
    });
    value
}

/// Drains every span recorded so far, in closing order per thread.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SINK
            .lock()
            .expect("a thread panicked while handing over spans"),
    )
}

/// Writes spans as tab-separated lines (`name id parent start_ns end_ns
/// count`) to `path`, creating its directory.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\tstart_ns\tend_ns\tcount")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

/// Interactions a run performed: the counter of its last snapshot.
pub fn run_interactions(run: &RunResult) -> u64 {
    run.snapshots.last().map_or(0, |s| s.interactions)
}

/// A [`Backend`] that times each inner `B::run_cell` as one span named
/// after the backend ([`Backend::NAME`]), counting the run's interactions.
///
/// Forwards every capability const `Sweep::run_on` reads, except the
/// intra-run parallelism flag, which the benchmark never requests.
pub struct Timed<B>(PhantomData<B>);

impl<B: Backend> Backend for Timed<B> {
    type Protocol = B::Protocol;
    type State = B::State;
    const NAME: &'static str = B::NAME;
    const SUPPORTS_ADVERSARY: bool = B::SUPPORTS_ADVERSARY;
    const SUPPORTS_AGENT_INDICES: bool = B::SUPPORTS_AGENT_INDICES;
    const SUPPORTS_EMPTY_POPULATION: bool = B::SUPPORTS_EMPTY_POPULATION;

    fn run_cell<R>(
        protocol: Self::Protocol,
        spec: &CellSpec<'_, Self::State>,
        recording: &R,
    ) -> Result<RunResult, BackendError>
    where
        R: Recording<Self::Protocol>,
    {
        span(
            B::NAME,
            |r: &Result<RunResult, BackendError>| r.as_ref().map_or(0, run_interactions),
            || B::run_cell(protocol, spec, recording),
        )
    }
}

/// Span name of one snapshot scan.
pub const SCAN: &str = "pp_sim.recording.estimates";

/// A [`Recording`] that times each inner `R::estimates` call (the
/// per-snapshot scan) as one span, counting the agents scanned.
///
/// Forwards every capability const except the per-interaction hook flag,
/// which only the intra-run parallel stepper reads.
pub struct Traced<R>(pub R);

impl<P: SizeEstimator, R: Recording<P>> Recording<P> for Traced<R> {
    type Observer = R::Observer;
    const ESTIMATES: bool = R::ESTIMATES;
    const MEMORY: bool = R::MEMORY;
    const TICKS: bool = R::TICKS;
    const RECOVERY: bool = R::RECOVERY;

    fn observer(&self) -> Self::Observer {
        self.0.observer()
    }

    fn estimates(
        protocol: &P,
        observer: &Self::Observer,
        states: &[P::State],
    ) -> Option<EstimateSummary> {
        span(
            SCAN,
            |_| states.len() as u64,
            || R::estimates(protocol, observer, states),
        )
    }

    fn memory(states: &[P::State]) -> Option<pp_sim::MemorySummary> {
        R::memory(states)
    }

    fn into_ticks(observer: Self::Observer) -> Vec<pp_sim::TickEvent> {
        R::into_ticks(observer)
    }

    fn into_records(
        observer: Self::Observer,
    ) -> (Vec<pp_sim::TickEvent>, Vec<pp_sim::RecoveryPoint>) {
        R::into_records(observer)
    }
}

/// Per-layer sums over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Number of spans.
    pub spans: u64,
    /// Summed duration in seconds.
    pub secs: f64,
    /// Summed counts.
    pub count: u64,
}

/// Sums the spans named `name`.
pub fn totals(spans: &[Span], name: &str) -> Totals {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(Totals::default(), |t, s| Totals {
            spans: t.spans + 1,
            secs: t.secs + s.secs(),
            count: t.count + s.count,
        })
}

/// Summed duration of the spans named `child` whose parent is named
/// `parent`: the part of the parents' time their children cover (children
/// of one parent run on the parent's thread, one after another).
pub fn child_secs(spans: &[Span], parent: &str, child: &str) -> f64 {
    let parents: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == child && parents.contains(&s.parent))
        .map(Span::secs)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_drain_once() {
        enable();
        let _ = take();
        let total = span(
            "outer",
            |v: &u64| *v,
            || {
                let a = span("inner", |_| 1, || 2u64);
                let b = std::thread::scope(|s| {
                    s.spawn(|| span("worker", |_| 1, || 3u64))
                        .join()
                        .expect("worker thread")
                });
                a + b
            },
        );
        assert_eq!(total, 5);
        let spans = take();
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        assert_eq!(outer.count, 5);
        for name in ["inner", "worker"] {
            let s = spans.iter().find(|s| s.name == name).expect("child span");
            assert_eq!(s.parent, outer.id, "{name} hangs under outer");
            assert!(s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns);
        }
        assert!(take().is_empty(), "take drains the sink");
    }
}
