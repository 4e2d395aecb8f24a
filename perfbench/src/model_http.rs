//! `model-http`: a closed loop of one client sending fused
//! `transformer-micro` forwards over real HTTP and rotating across
//! every registered target. This is the end-to-end request of
//! the roadmap; tape dispatch and intrinsic execution do almost all of
//! its work, and the scheduler queue is bypassed (whole-model requests
//! execute on the connection thread).

use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unit_core::pipeline::Target;
use unit_dsl::DType;
use unit_graph::compile::UnitProvider;
use unit_graph::{build_plan, CacheWorkload, Graph, OpSpec, PlanSource};
use unit_interp::{alloc_buffers, Tape};
use unit_isa::{Scalar, TypedBuf};
use unit_serve::model::{self, Compact};
use unit_serve::net::{encode_typed_buf, http_request};
use unit_serve::trace::Trace;
use unit_serve::{ExecMode, HttpServer, HttpServerConfig, Scheduler, SchedulerConfig, ServeEngine};
use unit_tir::EpiGeom;

use crate::report::{Metrics, PLAN_STEPS, TARGETS};
use crate::serving::{self, BootSummary, BootTimes, ServingSet};
use crate::spans::{clock_offset, detail_field, now_us, SpanLog};
use crate::stats::{fast_rate, fast_time, mean, median, summarize, FAST_PCT};
use crate::sys::{Rng, ScratchDir};
use crate::Outcome;

/// The served graph.
pub const GRAPH: &str = "transformer-micro";
/// Token seeds per run (drawn from the run seed).
const TOKEN_SEEDS: usize = 4;
/// Rounds per run: each boots a replica, then loads it for its share of
/// the run.
const ROUNDS: usize = 20;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Consecutive forwards of a round that make one window of the
/// end-to-end statistics: a whole deck of targets, so every window holds
/// each target once. A window lasts under a tenth of a second, less
/// than the host stays at one speed.
const WINDOW: usize = TARGETS.len();

/// A booted replica behind its HTTP front end.
pub struct Door {
    engine: Arc<ServeEngine>,
    _scheduler: Arc<Scheduler>,
    http: Option<HttpServer>,
}

impl Door {
    fn addr(&self) -> SocketAddr {
        self.http.as_ref().expect("open until dropped").local_addr()
    }
}

impl Drop for Door {
    fn drop(&mut self) {
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
    }
}

struct ModelSet {
    graph: Graph,
    seed: u64,
}

fn body(target: &str, seed: u64) -> String {
    format!("graph {GRAPH}\ntarget {target}\nseed {seed}\n")
}

fn post(addr: SocketAddr, target: &str, seed: u64) -> Result<String, String> {
    match http_request(addr, "POST", "/v1/execute", &body(target, seed), TIMEOUT) {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("HTTP {status}: {}", body.trim())),
        Err(e) => Err(format!("HTTP: {e}")),
    }
}

impl ServingSet for ModelSet {
    type Door = Door;

    fn serve_all(&self, engine: &ServeEngine) -> Result<(), String> {
        for target in TARGETS {
            engine
                .execute_model(&self.graph, target, self.seed, true)
                .map_err(|e| format!("{target}: {e}"))?;
        }
        Ok(())
    }

    fn open(&self, engine: Arc<ServeEngine>) -> Result<Door, String> {
        let scheduler = Arc::new(Scheduler::start(
            Arc::clone(&engine),
            SchedulerConfig::default(),
        ));
        let http = HttpServer::start(Arc::clone(&scheduler), HttpServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Door {
            engine,
            _scheduler: scheduler,
            http: Some(http),
        })
    }

    fn first_request(&self, door: &Door) -> Result<(), String> {
        post(door.addr(), TARGETS[0], self.seed).map(drop)
    }
}

/// The response payload as the server encodes it.
fn payload_of(c: &Compact) -> String {
    let mut buf = TypedBuf::zeros(DType::I64, c.vals.len());
    for (i, &v) in c.vals.iter().enumerate() {
        buf.set(i, Scalar::Int(v));
    }
    encode_typed_buf(&buf)
}

/// The serving set and everything needed to check its answers.
pub struct Fixture {
    set: ModelSet,
    seed: u64,
    seeds: Vec<u64>,
    /// Expected payload per `(target index, seed index)`, from the
    /// tree-walking interpreter.
    oracle: HashMap<(usize, usize), String>,
    dir: ScratchDir,
}

/// Compute the oracle.
///
/// # Errors
///
/// A rendered setup failure.
pub fn setup(seed: u64) -> Result<Fixture, String> {
    let graph = model::model_graph(GRAPH).expect("registered graph");
    let mut rng = Rng::new(seed, 1);
    let seeds: Vec<u64> = (0..TOKEN_SEEDS).map(|_| rng.next_u64() >> 1).collect();
    let dir = ScratchDir::new();
    let set = ModelSet {
        graph: graph.clone(),
        seed: seeds[0],
    };

    let interp = ServeEngine::new(serving::tuning()).with_exec_mode(ExecMode::Interp);
    interp.tracer().set_enabled(false);
    let mut oracle = HashMap::new();
    for (t, target) in TARGETS.iter().enumerate() {
        for (s, &token_seed) in seeds.iter().enumerate() {
            let out = interp
                .execute_model(&graph, target, token_seed, true)
                .map_err(|e| format!("oracle {target}: {e}"))?;
            oracle.insert((t, s), payload_of(&out.output));
        }
    }
    Ok(Fixture {
        set,
        seed,
        seeds,
        oracle,
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

/// One request's record.
struct Sample {
    target: usize,
    start_us: u64,
    end_us: u64,
    latency_ms: f64,
    ok: bool,
    wrong: bool,
    trace: Option<Arc<Trace>>,
}

/// The result of one closed-loop pass.
pub struct Pass {
    samples: Vec<Sample>,
    elapsed: Duration,
}

impl Pass {
    fn merge(passes: Vec<Pass>) -> Pass {
        Pass {
            elapsed: passes.iter().map(|p| p.elapsed).sum(),
            samples: passes.into_iter().flat_map(|p| p.samples).collect(),
        }
    }

    fn ok_latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ms)
            .collect()
    }

    /// Requests attempted, failed and answered wrongly.
    #[must_use]
    pub fn counts(&self) -> (u64, u64, u64) {
        let failed = self.samples.iter().filter(|s| !s.ok).count();
        let wrong = self.samples.iter().filter(|s| s.wrong).count();
        (self.samples.len() as u64, failed as u64, wrong as u64)
    }
}

fn client(fx: &Fixture, door: &Door, mut rng: Rng, deadline: Instant, traced: bool) -> Vec<Sample> {
    let addr = door.addr();
    let mut out = Vec::new();
    let mut deck = Vec::new();
    while Instant::now() < deadline {
        // Targets are dealt from shuffled decks of all of them: dealt,
        // because a target forward costs up to three times another's, and
        // a mix drawn independently would move the figures with the seed;
        // shuffled, so no target always follows the same one.
        if deck.is_empty() {
            deck = (0..TARGETS.len()).collect();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        let t = deck.pop().expect("refilled above");
        let s = rng.below(fx.seeds.len());
        let start_us = now_us();
        let t0 = Instant::now();
        let response = post(addr, TARGETS[t], fx.seeds[s]);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let end_us = now_us();
        let (ok, wrong, trace) = match &response {
            Ok(body) => {
                let payload = body.find("dtype ").map(|at| &body[at..]);
                let wrong = payload != Some(fx.oracle[&(t, s)].as_str());
                let trace = body
                    .lines()
                    .find_map(|l| l.strip_prefix("trace "))
                    .and_then(|id| id.parse().ok())
                    .filter(|_| traced)
                    .and_then(|id| door.engine.tracer().get(id));
                (true, wrong, trace)
            }
            Err(e) => {
                eprintln!("model-http: {e}");
                (false, false, None)
            }
        };
        out.push(Sample {
            target: t,
            start_us,
            end_us,
            latency_ms,
            ok,
            wrong,
            trace,
        });
    }
    out
}

/// Drive the closed loop through `door` for `seconds` from one client,
/// so a forward needs one core at a time and the figures do not measure
/// how a small host's scheduler shares its cores among several clients.
/// Each `stream` gives the client its own random sequence.
#[must_use]
pub fn drive(fx: &Fixture, door: &Door, stream: u64, seconds: f64, traced: bool) -> Pass {
    door.engine.tracer().set_enabled(traced);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let rng = Rng::new(fx.seed, 100 + (stream << 8));
    let samples = client(fx, door, rng, deadline, traced);
    door.engine.tracer().set_enabled(false);
    Pass {
        samples,
        elapsed: start.elapsed(),
    }
}

/// Median latency of a pass, in milliseconds.
#[must_use]
pub fn p50_ms(pass: &Pass) -> f64 {
    median(&pass.ok_latencies())
}

/// The untraced workload run: [`ROUNDS`] rounds of a replica boot and
/// a closed-loop slice through it.
///
/// # Errors
///
/// A rendered setup failure, or a pass too short to summarize.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let fx = setup(seed)?;
    let (boots, passes) = serving::rounds(&fx.set, &fx.dir, ROUNDS, seconds, |door, i, share| {
        drive(&fx, door, i as u64, share, false)
    })?;
    outcome(&BootSummary::of(&boots), passes)
}

/// The median latency (ms) and the rate (forwards per second) of every
/// whole [`WINDOW`] of the passes' forwards that has no failure.
fn windows(passes: &[Pass]) -> (Vec<f64>, Vec<f64>) {
    let (mut p50s, mut rates) = (Vec::new(), Vec::new());
    for w in passes
        .iter()
        .flat_map(|pass| pass.samples.chunks_exact(WINDOW))
    {
        if w.iter().any(|s| !s.ok) {
            continue;
        }
        p50s.push(median(&w.iter().map(|s| s.latency_ms).collect::<Vec<_>>()));
        let span_us = w[WINDOW - 1].end_us.saturating_sub(w[0].start_us).max(1);
        rates.push(WINDOW as f64 * 1e6 / span_us as f64);
    }
    (p50s, rates)
}

/// End-to-end metrics of untraced passes: the rounds of a run, or one
/// pass. `latency_p50_ms` is the [`fast_time`] of the windows' median
/// latencies and `throughput_rps` the [`fast_rate`] of their rates: the
/// figures at the host's full speed.
///
/// # Errors
///
/// When too few requests completed to summarize.
pub fn outcome(boot: &BootSummary, passes: Vec<Pass>) -> Result<Outcome, String> {
    let (p50s, rates) = windows(&passes);
    if p50s.is_empty() {
        return Err("no whole window of model-http forwards completed".to_string());
    }
    let pass = Pass::merge(passes);
    let lat = pass.ok_latencies();
    let s = summarize(&lat).ok_or("too few model-http requests completed")?;
    let (attempted, failed, wrong) = pass.counts();
    let mut m = Metrics::default();
    m.set("latency_p50_ms", fast_time(&p50s));
    m.set("latency_p99_ms", s.tail);
    m.set("throughput_rps", fast_rate(&rates));
    boot.report(&mut m);
    let mut out = Outcome::new(attempted, failed, wrong, m);
    out.notes.push(format!(
        "latency_p50_ms and throughput_rps are the p{FAST_PCT} fast end of {} windows of \
         {WINDOW} forwards (over the whole run: median {:.3} ms, {:.2} forwards/s); \
         latency_p99_ms is p{:.2} of {} forwards; warm-start tuner searches {}",
        p50s.len(),
        median(&lat),
        lat.len() as f64 / pass.elapsed.as_secs_f64(),
        s.tail_pct,
        s.n,
        boot.warm_searches
    ));
    Ok(out)
}

/// Per-step costs of the served plan on one target, timed from outside
/// around the public `unit_serve::model` adapters and `Tape::run`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanProbe {
    /// Operand scatter per forward: gather data, weights, buffer
    /// allocation, scatter, epilogue operands (µs).
    pub scatter_us: f64,
    /// Output gather per forward (µs).
    pub gather_us: f64,
    /// `Tape::run` per forward, reusing scratch and buffers (µs).
    pub run_reuse_us: f64,
    /// `Tape::run` per forward with a new scratch and new buffers per
    /// call (µs).
    pub run_fresh_us: f64,
}

fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Probe the plan on `target`; also returns the name of the intrinsic
/// the plan's kernels use there.
///
/// # Errors
///
/// When the plan or a step does not build.
pub fn probe_plan(target: &str) -> Result<(PlanProbe, String), String> {
    const REPS: usize = 7;
    let graph = model::model_graph(GRAPH).expect("registered graph");
    let plan = build_plan(&graph)?;
    let provider = UnitProvider::new(
        Target::by_id(target).ok_or("unknown target")?,
        serving::tuning(),
    );
    let (rows, cols) = model::plan_input_dims(&graph)?;
    let tokens = model::input_tokens(1, rows, cols);
    let mut outputs: Vec<Compact> = Vec::new();
    let mut probe = PlanProbe::default();
    let mut intrinsic = String::new();
    for step in &plan.steps {
        let OpSpec::Gemm { m, n, k, batch } = step.op else {
            return Err(format!("step {} is not a GEMM", step.name));
        };
        let kernel = provider.compile_workload_full(&CacheWorkload::Fused {
            op: step.op,
            epi: step.epi,
        });
        if intrinsic.is_empty() {
            intrinsic = kernel
                .note
                .split(' ')
                .next()
                .unwrap_or_default()
                .to_string();
        }
        let source = |src: PlanSource| match src {
            PlanSource::Input => &tokens,
            PlanSource::Step(s) => &outputs[s],
        };
        let scatter = || -> Result<Vec<TypedBuf>, String> {
            let data = model::gather_data(source(step.data), batch, m, k)?;
            let weight = match step.weight {
                None => model::implicit_weight(&graph.name, &step.name, batch, n, k),
                Some(src) => {
                    model::weight_from_activation(source(src), batch, n, k, step.weight_rows_are_n)?
                }
            };
            let mut bufs = alloc_buffers(&kernel.func);
            model::scatter_operands(&kernel.func, &data, &weight, &mut bufs)?;
            let bias = model::implicit_bias(&graph.name, &step.name, n);
            let residuals = model::resolve_residuals(step, &tokens, &outputs)?;
            model::fill_epilogue_operands(&kernel.func, &bias, &residuals, &mut bufs)?;
            Ok(bufs)
        };
        let mut bufs = scatter()?;
        probe.scatter_us += median_us(REPS, || {
            black_box(scatter().expect("scatter succeeded once"));
        });
        let tape = Tape::compile(&kernel.func).map_err(|e| format!("{e:?}"))?;
        let mut scratch = tape.scratch();
        let template = bufs.clone();
        probe.run_reuse_us += median_us(REPS, || {
            tape.run(&mut bufs, &mut scratch).expect("tape runs");
        });
        probe.run_fresh_us += median_us(REPS, || {
            let mut fresh = template.clone();
            tape.run_fresh(&mut fresh).expect("tape runs");
            black_box(fresh);
        });
        let geom = EpiGeom::for_output(batch, m, n, &kernel.func.buffers[kernel.output].shape)
            .ok_or("no epilogue geometry")?;
        probe.gather_us += median_us(REPS, || {
            black_box(model::gather_output(&bufs[kernel.output], geom));
        });
        outputs.push(model::gather_output(&bufs[kernel.output], geom));
    }
    Ok((probe, intrinsic))
}

/// Traced layer metrics of a pass: per-step dispatch, tape counters,
/// intrinsic share, epilogue, network overhead, cache lookups and the
/// coverage check. `isa_ns` and `plan` are the probes per target.
pub fn layers(
    door: &Door,
    pass: &Pass,
    isa_ns: &HashMap<String, f64>,
    plan: &HashMap<String, PlanProbe>,
    log: &mut SpanLog,
    m: &mut Metrics,
) {
    let offset = clock_offset(door.engine.tracer());
    let mut forwards = Vec::new();
    for s in pass.samples.iter().filter(|s| s.ok) {
        let Some(trace) = &s.trace else { continue };
        let client = log.push(
            None,
            "http_request",
            (s.start_us, s.end_us),
            TARGETS[s.target],
        );
        let server = log.import(Some(client), "serve_model", trace, offset);
        forwards.push((s.target, client, server, log.spans().len()));
    }
    let self_times = log.self_times();
    let spans = log.spans();
    let n = forwards.len().max(1) as f64;
    let mut dispatch: HashMap<String, f64> = HashMap::new();
    let (mut ops, mut guards, mut intrins) = (0.0, 0.0, 0.0);
    let (mut intrin_ns, mut dispatch_ns) = (0.0, 0.0);
    let (mut epi, mut net, mut lookups) = (0.0, 0.0, Vec::new());
    let (mut server_total, mut gap_total) = (0.0, 0.0);
    for &(t, client, server, end) in &forwards {
        let target = TARGETS[t];
        let server_us = spans[server].dur_us() as f64;
        net += spans[client].dur_us() as f64 - server_us;
        server_total += server_us;
        // The engine records no span around the operand scatter between
        // dispatches. What a forward leaves unexplained is compared with
        // the scatter cost probed on its target, forward by forward, so
        // over- and under-attribution cannot cancel.
        let scatter = plan.get(target).map_or(0.0, |p| p.scatter_us);
        gap_total += (self_times[server] as f64 - scatter).abs();
        for span in &spans[server + 1..end] {
            let dur = span.dur_us() as f64;
            let field = |k: &str| {
                detail_field(&span.detail, k)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            match span.name.as_str() {
                "tape_dispatch" => {
                    let step = detail_field(&span.detail, "func").unwrap_or("?");
                    *dispatch.entry(step.to_string()).or_default() += dur;
                    ops += field("ops_retired");
                    guards += field("guards_executed");
                    let calls = field("intrin_dispatches");
                    intrins += calls;
                    intrin_ns += calls * isa_ns.get(target).copied().unwrap_or(0.0);
                    dispatch_ns += dur * 1e3;
                }
                "epilogue" => epi += dur,
                "cache_lookup" => lookups.push(dur),
                _ => {}
            }
        }
    }
    for step in PLAN_STEPS {
        m.set(
            format!("tape.dispatch_us.{step}"),
            dispatch.get(step).copied().unwrap_or(0.0) / n,
        );
    }
    m.set("tape.ops_retired", ops / n);
    m.set("tape.guards_executed", guards / n);
    m.set("tape.intrin_dispatches", intrins / n);
    m.set("isa.intrin_share", intrin_ns / dispatch_ns.max(1.0));
    m.set("epilogue.us", epi / n);
    m.set("net.overhead_us", net / n);
    m.set("engine.cache_lookup_us", mean(&lookups));
    m.set(
        "engine.kernel_hit_rate",
        door.engine.metrics().kernel_hit_rate(),
    );
    m.set("trace.coverage_gap_frac", gap_total / server_total.max(1.0));
    let mean_of = |f: fn(&PlanProbe) -> f64| mean(&plan.values().map(f).collect::<Vec<_>>());
    m.set("model.scatter_us", mean_of(|p| p.scatter_us));
    m.set("model.gather_us", mean_of(|p| p.gather_us));
    m.set("tape.run_reuse_us", mean_of(|p| p.run_reuse_us));
    m.set("tape.run_fresh_us", mean_of(|p| p.run_fresh_us));
    let out = Compact::zeros(1, 8, 16);
    m.set(
        "net.encode_us",
        median_us(201, || {
            black_box(payload_of(&out));
        }),
    );
}
