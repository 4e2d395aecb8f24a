//! What the serving workloads share: the tuning they serve under, the
//! replica boot (cold compile → journal warm start → first response) and
//! bit-exact output comparison.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{tuner_searches, CpuTuneMode, GpuTuneMode};
use unit_isa::{Scalar, TypedBuf};
use unit_serve::{ExecMode, Journal, JournalConfig, ServeEngine};

use crate::report::Metrics;
use crate::stats::{median, trimmed_mean};
use crate::sys::ScratchDir;

/// The tuning every engine in the benchmark serves under: a real search
/// on every target, so cold compiles exercise the tuner and cost model.
#[must_use]
pub fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 8 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// A serving engine on the compiled-tape path, with tracing as asked
/// (whatever the environment says).
#[must_use]
pub fn engine(traced: bool) -> ServeEngine {
    let engine = ServeEngine::new(tuning()).with_exec_mode(ExecMode::Tape);
    engine.tracer().set_enabled(traced);
    engine
}

/// Whether two buffers hold the same dtype and the same bits.
#[must_use]
pub fn same_bits(a: &TypedBuf, b: &TypedBuf) -> bool {
    let bits = |s: Scalar| match s {
        Scalar::Int(v) => v as u64,
        Scalar::Float(v) => v.to_bits(),
    };
    a.dtype == b.dtype
        && a.len() == b.len()
        && (0..a.len()).all(|i| bits(a.get(i)) == bits(b.get(i)))
}

/// Timings of one replica boot.
#[derive(Debug, Clone, Copy)]
pub struct BootTimes {
    /// A fresh replica with an empty journal serves the serving set.
    pub cold: Duration,
    /// A second fresh replica attaches the journal and serves the set.
    pub warm: Duration,
    /// The first request through the second replica's front door.
    pub first: Duration,
    /// The whole boot.
    pub total: Duration,
    /// Tuner searches the warm replica performed (the contract is 0).
    pub warm_searches: u64,
}

/// Boot timings over a run, as the end-to-end metrics report them.
/// Boots are spread over the whole run ([`rounds`]), and each figure but
/// `setup_s` is a [`trimmed_mean`]: a boot lasts a fraction of a second,
/// and on a host that changes speed for seconds at a time a median of
/// boots jumps between the fast and the slow figure.
#[derive(Debug, Clone, Copy)]
pub struct BootSummary {
    /// Cold-compile seconds.
    pub cold_s: f64,
    /// Warm-start seconds.
    pub warm_s: f64,
    /// First-response milliseconds.
    pub first_ms: f64,
    /// Median boot seconds.
    pub setup_s: f64,
    /// Warm-replica searches summed over every boot.
    pub warm_searches: u64,
}

impl BootSummary {
    /// Summarize `boots`.
    #[must_use]
    pub fn of(boots: &[BootTimes]) -> BootSummary {
        let all = |f: fn(&BootTimes) -> f64| boots.iter().map(f).collect::<Vec<_>>();
        BootSummary {
            cold_s: trimmed_mean(&all(|b| b.cold.as_secs_f64())),
            warm_s: trimmed_mean(&all(|b| b.warm.as_secs_f64())),
            first_ms: trimmed_mean(&all(|b| b.first.as_secs_f64() * 1e3)),
            setup_s: median(&all(|b| b.total.as_secs_f64())),
            warm_searches: boots.iter().map(|b| b.warm_searches).sum(),
        }
    }

    /// Set the setup and replica-start end-to-end metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set("setup_s", self.setup_s);
        m.set("cold_compile_s", self.cold_s);
        m.set("warm_start_s", self.warm_s);
        m.set("first_response_ms", self.first_ms);
    }
}

/// How a workload's serving set is served during a boot.
pub trait ServingSet {
    /// The front door a booted replica serves through (HTTP server,
    /// scheduler, ...).
    type Door;

    /// Serve every item of the set once, in-process.
    ///
    /// # Errors
    ///
    /// A rendered failure.
    fn serve_all(&self, engine: &ServeEngine) -> Result<(), String>;

    /// Open the front door on `engine`.
    ///
    /// # Errors
    ///
    /// A rendered failure.
    fn open(&self, engine: Arc<ServeEngine>) -> Result<Self::Door, String>;

    /// Send the first request through the door.
    ///
    /// # Errors
    ///
    /// A rendered failure.
    fn first_request(&self, door: &Self::Door) -> Result<(), String>;
}

/// Boot a replica for `set`: a cold replica serves the set with a fresh
/// journal at `journal_path` attached (it appends every tuning
/// decision), then a second replica attaches that journal, opens its
/// front door, answers a first request through it, and serves the rest
/// of the set — with zero tuner searches, which `warm_searches` records.
/// Returns the warm replica's door and the timings.
///
/// # Errors
///
/// A rendered failure from any step.
pub fn boot<S: ServingSet>(set: &S, journal_path: &Path) -> Result<(S::Door, BootTimes), String> {
    let journal = || {
        Journal::open(JournalConfig::at(journal_path))
            .map(Arc::new)
            .map_err(|e| format!("journal: {e}"))
    };
    let t0 = Instant::now();
    let cold = engine(false);
    cold.attach_journal(journal()?)
        .map_err(|e| format!("attach: {e}"))?;
    set.serve_all(&cold)?;
    drop(cold);
    let cold_done = Instant::now();

    let searches = tuner_searches();
    let warm = Arc::new(engine(false));
    warm.attach_journal(journal()?)
        .map_err(|e| format!("attach: {e}"))?;
    let door = set.open(Arc::clone(&warm))?;
    let first_start = Instant::now();
    set.first_request(&door)?;
    let first = first_start.elapsed();
    set.serve_all(&warm)?;
    let done = Instant::now();
    Ok((
        door,
        BootTimes {
            cold: cold_done - t0,
            warm: done - cold_done,
            first,
            total: done - t0,
            warm_searches: tuner_searches() - searches,
        },
    ))
}

/// Run `rounds` rounds in `dir` that fill `seconds` of load between
/// them: each boots a fresh replica with a fresh journal and runs
/// `slice` through its front door, given the round's index and its
/// share of the time. Boots and
/// load alternate so both sample the whole run. Returns every boot's
/// timings and every slice's result.
///
/// # Errors
///
/// The first boot failure.
pub fn rounds<S: ServingSet, P>(
    set: &S,
    dir: &ScratchDir,
    rounds: usize,
    seconds: f64,
    mut slice: impl FnMut(&S::Door, usize, f64) -> P,
) -> Result<(Vec<BootTimes>, Vec<P>), String> {
    let share = seconds / rounds as f64;
    let (mut boots, mut passes) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for i in 0..rounds {
        let (door, times) = boot(set, &dir.join(&format!("journal-{i}")))?;
        boots.push(times);
        passes.push(slice(&door, i, share));
    }
    Ok((boots, passes))
}
