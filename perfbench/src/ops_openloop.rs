//! `ops-openloop`: one generator thread `try_submit`s op-shaped
//! requests on a fixed schedule at [`OFFERED_RPS`], about a sixth of
//! the saturating rate, and a second thread collects the replies. It is the only
//! workload that builds a queue, so scheduler batching and batched-GEMM
//! fusion do real work here. It runs in-process: an open loop over HTTP
//! would need more connections than there are cores.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use unit_graph::layout::op_for_target;
use unit_graph::OpSpec;
use unit_interp::{alloc_op_buffers, random_fill, run_reference};
use unit_isa::{registry, TypedBuf};
use unit_serve::trace::Trace;
use unit_serve::{
    Scheduler, SchedulerConfig, ServeEngine, ServeRequest, ServeResponse, SubmitError,
};

use crate::report::{Metrics, TARGETS};
use crate::serving::{self, same_bits, BootSummary, BootTimes, ServingSet};
use crate::spans::{clock_offset, now_us, SpanLog};
use crate::stats::{
    due_latency_ms, fast_time, mean, median, percentile, summarize, supported_percentile, FAST_PCT,
};
use crate::sys::{Rng, ScratchDir};
use crate::Outcome;

/// Artifact namespace of the op traffic.
const MODEL: &str = "ops";
/// Input seeds per run (drawn from the run seed).
const INPUT_SEEDS: usize = 4;
/// Rounds per run: each boots a replica, then offers it load for its
/// share of the run.
const ROUNDS: usize = 20;
/// The offered rate: about a sixth of the saturating rate of the op
/// mix, which measured 240–290 requests/s on a 2-core x86 host. Fixed
/// rather than re-measured per run, so run-to-run noise in a calibration
/// does not move the load; the traced run re-measures the saturating
/// rate and records it as `bench.saturating_rps`. Queueing delay grows
/// steeply with utilization, and the host's speed swings by 1.6×: at
/// half, and still at a quarter, of the saturating rate the latency
/// percentiles moved with them by more than the benchmark's bounds.
pub const OFFERED_RPS: f64 = 40.0;
/// Requests kept in flight while measuring the saturating rate.
const CALIBRATION_WINDOW: usize = 32;
/// Requests per arrival burst: one client fanning out the same op over
/// several inputs to one target, so the dispatcher batches them and
/// same-shape GEMMs fuse into one dispatch.
const BURST: usize = 4;
/// Bursts in the precomputed schedule (it repeats after this many).
const SCHEDULE_BURSTS: usize = 1024;
/// The ops of one lap of bursts, as indices into [`menu`]. The 1×1
/// convolution comes twice: with four equal shares the median request
/// fell on the gap between the batched GEMMs' latencies and the
/// convolution's and flipped between them from run to run; with this
/// share it falls inside the convolution's broad spread.
const LAP: [usize; 5] = [0, 1, 2, 3, 2];

/// Burst rotation: consecutive bursts take the next op of the lap on
/// the next target, shifted by one target every lap, so every run of 20
/// bursts offers every (lap slot, target) pair once, in the same order,
/// and only the inputs depend on the seed. Heavy ops never arrive back
/// to back: clustering them (drawn at random, or all targets of one op
/// in a row) made the tail depend on how the heavy bursts bunched.
fn burst_combo(burst: usize) -> (usize, usize) {
    let lap = burst / LAP.len();
    (LAP[burst % LAP.len()], (burst + lap) % TARGETS.len())
}

/// The op mix: same-shape batched GEMMs (fusable), a 32³ GEMM, a 1×1
/// convolution and a depthwise convolution (the Inspector rejects it, so
/// it takes the SIMD fallback).
fn menu() -> [OpSpec; 4] {
    [
        OpSpec::batched_gemm(2, 8, 16, 16),
        OpSpec::gemm(32, 32, 32),
        OpSpec::conv2d(16, 8, 16, 1, 1, 0),
        OpSpec::depthwise(8, 8, 3, 1, 1),
    ]
}

fn request(op: OpSpec, target: &str, seed: u64) -> ServeRequest {
    ServeRequest {
        model: MODEL.to_string(),
        target: target.to_string(),
        op,
        seed,
    }
}

/// A booted replica behind its scheduler.
pub struct Door {
    engine: Arc<ServeEngine>,
    scheduler: Scheduler,
}

struct OpsSet {
    seed: u64,
}

impl ServingSet for OpsSet {
    type Door = Door;

    fn serve_all(&self, engine: &ServeEngine) -> Result<(), String> {
        for op in menu() {
            for target in TARGETS {
                engine
                    .execute(MODEL, target, op, self.seed)
                    .map_err(|e| format!("{target} {}: {e}", op.describe()))?;
            }
        }
        Ok(())
    }

    fn open(&self, engine: Arc<ServeEngine>) -> Result<Door, String> {
        let scheduler = Scheduler::start(Arc::clone(&engine), SchedulerConfig::default());
        Ok(Door { engine, scheduler })
    }

    fn first_request(&self, door: &Door) -> Result<(), String> {
        let (_, rx) = door
            .scheduler
            .submit(request(menu()[0], TARGETS[0], self.seed))
            .map_err(|e| e.to_string())?;
        let response = rx.recv().map_err(|e| e.to_string())?;
        response.result.map(drop)
    }
}

/// One request of the mix: op, target and seed indices.
type Combo = (usize, usize, usize);

/// The op mix, its schedule and the expected outputs.
pub struct Fixture {
    set: OpsSet,
    seeds: Vec<u64>,
    /// `run_reference` output per combo.
    oracle: HashMap<Combo, TypedBuf>,
    /// The request order: bursts of [`BURST`] requests with one op on
    /// one target ([`burst_combo`]), inputs drawn from the seed.
    schedule: Vec<Combo>,
    dir: ScratchDir,
}

impl Fixture {
    fn request(&self, (o, t, s): Combo) -> ServeRequest {
        request(menu()[o], TARGETS[t], self.seeds[s])
    }
}

/// Compute the oracle and the schedule.
///
/// # Errors
///
/// A rendered setup failure.
pub fn setup(seed: u64) -> Result<Fixture, String> {
    let mut rng = Rng::new(seed, 2);
    let seeds: Vec<u64> = (0..INPUT_SEEDS).map(|_| rng.next_u64() >> 1).collect();
    let dir = ScratchDir::new();

    let mut oracle = HashMap::new();
    for (o, op) in menu().into_iter().enumerate() {
        for (t, target) in TARGETS.iter().enumerate() {
            let desc = registry::target_by_id(target).expect("registered target");
            let (lowered, _) = op_for_target(&op, &desc);
            for (s, &input_seed) in seeds.iter().enumerate() {
                let mut bufs = alloc_op_buffers(&lowered);
                random_fill(&mut bufs, input_seed);
                run_reference(&lowered, &mut bufs).map_err(|e| format!("oracle: {e:?}"))?;
                oracle.insert((o, t, s), bufs.swap_remove(lowered.output.0 as usize));
            }
        }
    }
    let mut schedule = Vec::with_capacity(SCHEDULE_BURSTS * BURST);
    for b in 0..SCHEDULE_BURSTS {
        let (o, t) = burst_combo(b);
        for _ in 0..BURST {
            schedule.push((o, t, rng.below(INPUT_SEEDS)));
        }
    }
    Ok(Fixture {
        set: OpsSet { seed: seeds[0] },
        seeds,
        oracle,
        schedule,
        dir,
    })
}

/// Boot one replica outside the rounds of a run.
///
/// # Errors
///
/// A rendered boot failure.
pub fn boot(fx: &Fixture) -> Result<(Door, BootTimes), String> {
    serving::boot(&fx.set, &fx.dir.join("journal"))
}

/// Completed requests per second with [`CALIBRATION_WINDOW`] requests
/// kept in flight for `seconds` (blocking submits).
///
/// # Errors
///
/// A failed request.
pub fn saturating_rps(fx: &Fixture, door: &Door, seconds: f64) -> Result<f64, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut inflight = std::collections::VecDeque::new();
    let mut done = 0u64;
    let mut i = 0;
    while Instant::now() < deadline || !inflight.is_empty() {
        while Instant::now() < deadline && inflight.len() < CALIBRATION_WINDOW {
            let combo = fx.schedule[i % fx.schedule.len()];
            i += 1;
            let (_, rx) = door
                .scheduler
                .submit(fx.request(combo))
                .map_err(|e| e.to_string())?;
            inflight.push_back(rx);
        }
        if let Some(rx) = inflight.pop_front() {
            rx.recv().map_err(|e| e.to_string())?.result?;
            done += 1;
        }
    }
    Ok(done as f64 / start.elapsed().as_secs_f64())
}

struct Pending {
    combo: Combo,
    due: Instant,
    sent_us: u64,
    rx: Receiver<ServeResponse>,
}

/// One answered request.
struct Done {
    latency_ms: f64,
    ok: bool,
    wrong: bool,
    batch_size: usize,
    span: (u64, u64),
    trace: Option<Arc<Trace>>,
}

/// The result of one open-loop pass.
pub struct Pass {
    done: Vec<Done>,
    /// Requests the generator tried to send.
    attempted: u64,
    /// Refused at admission (queue full).
    refused: u64,
    /// How late the generator sent each request (ms).
    lags_ms: Vec<f64>,
    /// Offered rate (requests/s).
    rate: f64,
    elapsed: Duration,
}

impl Pass {
    fn merge(passes: Vec<Pass>) -> Pass {
        let rate = passes.first().map_or(0.0, |p| p.rate);
        let mut merged = Pass {
            done: Vec::new(),
            attempted: 0,
            refused: 0,
            lags_ms: Vec::new(),
            rate,
            elapsed: Duration::ZERO,
        };
        for p in passes {
            merged.done.extend(p.done);
            merged.attempted += p.attempted;
            merged.refused += p.refused;
            merged.lags_ms.extend(p.lags_ms);
            merged.elapsed += p.elapsed;
        }
        merged
    }

    /// Requests attempted, failed (refused or errored) and answered
    /// wrongly.
    #[must_use]
    pub fn counts(&self) -> (u64, u64, u64) {
        let errors = self.done.iter().filter(|d| !d.ok).count() as u64;
        let wrong = self.done.iter().filter(|d| d.wrong).count() as u64;
        (self.attempted, self.refused + errors, wrong)
    }

    fn ok_latencies(&self) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.ok)
            .map(|d| d.latency_ms)
            .collect()
    }
}

fn collect(fx: &Fixture, door: &Door, rx: &Receiver<Pending>, traced: bool) -> Vec<Done> {
    let mut out = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut open = true;
    let mut finish = |p: Pending, response: Option<ServeResponse>| {
        let now = Instant::now();
        let (ok, wrong, batch_size, trace) = match response {
            Some(r) => {
                let trace = r
                    .trace_id
                    .filter(|_| traced)
                    .and_then(|id| door.engine.tracer().get(id));
                match r.result {
                    Ok(buf) => (
                        true,
                        !same_bits(&buf, &fx.oracle[&p.combo]),
                        r.batch_size,
                        trace,
                    ),
                    Err(e) => {
                        eprintln!("ops-openloop: {e}");
                        (false, false, r.batch_size, trace)
                    }
                }
            }
            None => (false, false, 0, None),
        };
        out.push(Done {
            latency_ms: due_latency_ms(p.due, now),
            ok,
            wrong,
            batch_size,
            span: (p.sent_us, now_us()),
            trace,
        });
    };
    while open || !pending.is_empty() {
        if pending.is_empty() {
            match rx.recv() {
                Ok(p) => pending.push(p),
                Err(_) => open = false,
            }
            continue;
        }
        loop {
            match rx.try_recv() {
                Ok(p) => pending.push(p),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        // Block briefly on the oldest request (replies mostly arrive in
        // order), then sweep the rest: a reply that overtakes the oldest
        // is stamped at most one wait late.
        match pending[0].rx.recv_timeout(Duration::from_micros(200)) {
            Ok(r) => {
                let p = pending.remove(0);
                finish(p, Some(r));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                let p = pending.remove(0);
                finish(p, None);
            }
        }
        let mut j = 0;
        while j < pending.len() {
            match pending[j].rx.try_recv() {
                Ok(r) => {
                    let p = pending.remove(j);
                    finish(p, Some(r));
                }
                Err(TryRecvError::Empty) => j += 1,
                Err(TryRecvError::Disconnected) => {
                    let p = pending.remove(j);
                    finish(p, None);
                }
            }
        }
    }
    out
}

/// Offer `rate` requests/s through `door` for `seconds`, in bursts of
/// [`BURST`] requests due at the same instant.
#[must_use]
pub fn drive(fx: &Fixture, door: &Door, rate: f64, seconds: f64, traced: bool) -> Pass {
    door.engine.tracer().set_enabled(traced);
    let (tx, rx) = channel::<Pending>();
    let start = Instant::now();
    let n = (rate * seconds).ceil() as usize;
    let (generated, done) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(fx, door, &rx, traced));
        let generator = scope.spawn(move || {
            let (mut refused, mut lags) = (0u64, Vec::with_capacity(n));
            for i in 0..n {
                let burst_start = i - i % BURST;
                let due = start + Duration::from_secs_f64(burst_start as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let combo = fx.schedule[i % fx.schedule.len()];
                lags.push(due_latency_ms(due, Instant::now()));
                let sent_us = now_us();
                match door.scheduler.try_submit(fx.request(combo)) {
                    Ok((_, rx)) => tx
                        .send(Pending {
                            combo,
                            due,
                            sent_us,
                            rx,
                        })
                        .expect("collector outlives the generator"),
                    Err(SubmitError::QueueFull) => refused += 1,
                    Err(e) => panic!("admission failed: {e}"),
                }
            }
            drop(tx);
            (refused, lags)
        });
        (
            generator.join().expect("generator thread"),
            collector.join().expect("collector thread"),
        )
    });
    door.engine.tracer().set_enabled(false);
    let (refused, lags_ms) = generated;
    Pass {
        done,
        attempted: n as u64,
        refused,
        lags_ms,
        rate,
        elapsed: start.elapsed(),
    }
}

/// Median latency of a pass, in milliseconds.
#[must_use]
pub fn p50_ms(pass: &Pass) -> f64 {
    median(&pass.ok_latencies())
}

/// The untraced workload run: [`ROUNDS`] rounds of a replica boot and
/// an open-loop slice through it.
///
/// # Errors
///
/// A rendered setup failure, or a pass too short to summarize.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let fx = setup(seed)?;
    let (boots, passes) = serving::rounds(&fx.set, &fx.dir, ROUNDS, seconds, |door, _, share| {
        drive(&fx, door, OFFERED_RPS, share, false)
    })?;
    outcome(&BootSummary::of(&boots), passes)
}

/// End-to-end metrics of untraced passes: the rounds of a run, or one
/// pass. Every round offers the same requests, from the start of the
/// schedule, so `latency_p50_ms` is the [`fast_time`] of the rounds'
/// median latencies: the figure at the host's full speed.
///
/// # Errors
///
/// When too few requests completed to summarize.
pub fn outcome(boot: &BootSummary, passes: Vec<Pass>) -> Result<Outcome, String> {
    let p50s: Vec<f64> = passes
        .iter()
        .map(Pass::ok_latencies)
        .filter(|r| !r.is_empty())
        .map(|r| median(&r))
        .collect();
    if p50s.is_empty() {
        return Err("no ops-openloop request completed".to_string());
    }
    let pass = Pass::merge(passes);
    let lat = pass.ok_latencies();
    let s = summarize(&lat).ok_or("too few ops-openloop requests completed")?;
    let (attempted, failed, wrong) = pass.counts();
    let mut m = Metrics::default();
    m.set("latency_p50_ms", fast_time(&p50s));
    m.set("latency_p99_ms", s.tail);
    m.set(
        "throughput_rps",
        lat.len() as f64 / pass.elapsed.as_secs_f64(),
    );
    boot.report(&mut m);
    let mut out = Outcome::new(attempted, failed, wrong, m);
    out.notes.push(format!(
        "offered {:.1} req/s; latency_p50_ms is the p{FAST_PCT} fast end of {} rounds (over the \
         whole run: median {:.3} ms), latency_p99_ms is p{:.2} of {} requests, timed from their \
         due time",
        pass.rate,
        p50s.len(),
        median(&lat),
        s.tail_pct,
        s.n
    ));
    Ok(out)
}

/// Traced layer metrics of a pass: queue wait, batching, fusion,
/// refusals and generator lag.
pub fn layers(
    door: &Door,
    pass: &Pass,
    fused_before: (u64, u64),
    log: &mut SpanLog,
    m: &mut Metrics,
) {
    let offset = clock_offset(door.engine.tracer());
    let mut waits = Vec::new();
    for d in pass.done.iter().filter(|d| d.ok) {
        let Some(trace) = &d.trace else { continue };
        let request = log.push(None, "op_request", d.span, "");
        let root = log.import(Some(request), "serve_op", trace, offset);
        waits.extend(
            log.spans()[root + 1..]
                .iter()
                .filter(|s| s.name == "queue")
                .map(|s| s.dur_us() as f64),
        );
    }
    waits.sort_by(f64::total_cmp);
    if !waits.is_empty() {
        m.set("scheduler.queue_wait_p50_us", percentile(&waits, 50.0));
        let tail = supported_percentile(waits.len(), 99.0).unwrap_or(50.0);
        m.set("scheduler.queue_wait_p99_us", percentile(&waits, tail));
    }
    let batches: Vec<f64> = pass
        .done
        .iter()
        .filter(|d| d.ok)
        .map(|d| d.batch_size as f64)
        .collect();
    m.set("scheduler.batch_size_mean", mean(&batches));
    let metrics = door.engine.metrics();
    let fused = metrics.tape_fused_requests() - fused_before.0;
    let completed = metrics.completed() - fused_before.1;
    m.set(
        "scheduler.fused_frac",
        fused as f64 / completed.max(1) as f64,
    );
    m.set("scheduler.rejected", pass.refused as f64);
    let mut lags = pass.lags_ms.clone();
    lags.sort_by(f64::total_cmp);
    if !lags.is_empty() {
        let tail = supported_percentile(lags.len(), 99.0).unwrap_or(50.0);
        m.set("bench.gen_lag_p99_ms", percentile(&lags, tail));
    }
    m.set("engine.artifact_hit_rate", metrics.artifact_hit_rate());
}

/// Fused-request and completion counters before a pass, for
/// [`layers`].
#[must_use]
pub fn fusion_counters(door: &Door) -> (u64, u64) {
    let metrics = door.engine.metrics();
    (metrics.tape_fused_requests(), metrics.completed())
}
