//! `cold-start`: fresh replicas compile the model zoo on every target
//! while appending to a journal (writes); a second replica warm-starts
//! from that journal with zero searches and a third from a saved
//! artifact store (reads); a tiered engine answers one novel GEMM.
//! Compilation, the tuner, the cost model and persistence do the work
//! here; execution does almost none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use unit_core::pipeline::{Target, Tensorizer};
use unit_core::tuner::tuner_searches;
use unit_graph::layout::op_for_target;
use unit_graph::models::{inception_v3, mobilenet_v1, resnet, transformer_tiny, ResnetDepth};
use unit_graph::{compile_graph, unique_workloads, E2eReport, Graph, OpSpec};
use unit_interp::{alloc_op_buffers, random_fill, run_reference};
use unit_isa::{registry, TypedBuf};
use unit_serve::{ArtifactStore, Journal, JournalConfig, JournalRecord, ServeEngine};

use crate::report::{Metrics, TARGETS, ZOO};
use crate::serving::{self, same_bits};
use crate::spans::{clock_offset, now_us, SpanLog};
use crate::stats::{fast_rate, fast_time, mean, median, summarize, trimmed_mean, FAST_PCT};
use crate::sys::{Rng, ScratchDir};
use crate::Outcome;

/// The workload a tiered engine sees for the first time.
const NOVEL: OpSpec = OpSpec::Gemm {
    m: 24,
    n: 24,
    k: 24,
    batch: 1,
};
/// Where the novel GEMM is served.
const NOVEL_TARGET: &str = "x86-avx512-vnni";
/// A pass repeats the setup after every this many cycles; `setup_s` is
/// the median of every setup of the run. Spread over the run like the
/// cycles, the setups see the host's fast and slow spells in proportion,
/// where a few back to back at the start all land in one.
const SETUP_EVERY: usize = 6;
/// Cycles a pass makes at least, however short its time.
const MIN_CYCLES: usize = 3;

fn zoo() -> Vec<Graph> {
    let graphs = vec![
        resnet(ResnetDepth::R50),
        mobilenet_v1(),
        inception_v3(),
        transformer_tiny(),
    ];
    debug_assert!(graphs.iter().map(|g| g.name.as_str()).eq(ZOO));
    graphs
}

/// The zoo and its reference reports.
pub struct Fixture {
    graphs: Vec<Graph>,
    /// `compile_graph` per (model, target), in zoo × target order.
    reports: Vec<E2eReport>,
    novel_seed: u64,
    novel_expected: TypedBuf,
    /// Seconds the setup took.
    setup_s: f64,
}

/// Whether two reports agree bit for bit.
fn same_report(a: &E2eReport, b: &E2eReport) -> bool {
    a.model == b.model
        && a.total_ms.to_bits() == b.total_ms.to_bits()
        && a.layers.len() == b.layers.len()
        && a.layers.iter().zip(&b.layers).all(|(x, y)| {
            x.name == y.name && x.micros.to_bits() == y.micros.to_bits() && x.note == y.note
        })
}

/// The timed part of the setup: build the zoo and compile its reference
/// reports.
fn build_zoo() -> (Vec<Graph>, Vec<E2eReport>, Duration) {
    let t0 = Instant::now();
    let graphs = zoo();
    let mut reports = Vec::new();
    for g in &graphs {
        for target in TARGETS {
            let target = Target::by_id(target).expect("registered target");
            reports.push(compile_graph(g, target, serving::tuning()));
        }
    }
    (graphs, reports, t0.elapsed())
}

/// Build the zoo and its reference reports, plus the novel GEMM's
/// reference output.
#[must_use]
pub fn setup(seed: u64) -> Fixture {
    let (graphs, reports, took) = build_zoo();
    let novel_seed = Rng::new(seed, 3).next_u64() >> 1;
    let desc = registry::target_by_id(NOVEL_TARGET).expect("registered target");
    let (lowered, _) = op_for_target(&NOVEL, &desc);
    let mut bufs = alloc_op_buffers(&lowered);
    random_fill(&mut bufs, novel_seed);
    run_reference(&lowered, &mut bufs).expect("reference executes");
    Fixture {
        graphs,
        reports,
        novel_seed,
        novel_expected: bufs.swap_remove(lowered.output.0 as usize),
        setup_s: took.as_secs_f64(),
    }
}

/// One cycle's measurements.
#[derive(Debug, Default)]
pub struct Cycle {
    /// Per-(model, target) cold `compile_model` latencies (ms).
    pub cold_calls_ms: Vec<f64>,
    /// Cold replica, whole zoo.
    pub cold: Duration,
    /// Journal warm replica: attach + whole zoo.
    pub warm: Duration,
    /// Store warm replica: load + import + whole zoo.
    pub store_warm: Duration,
    /// Tiered engine's first response to the novel GEMM.
    pub first: Duration,
    /// `ArtifactStore::save` / `load`.
    pub save: Duration,
    /// See `save`.
    pub load: Duration,
    /// Tuner searches of the journal warm replica (contract: 0).
    pub warm_searches: u64,
    /// Calls attempted, failed and answered wrongly.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// See `attempted`.
    pub wrong: u64,
    /// The cold replica's exported decisions (for the journal probe).
    pub store: ArtifactStore,
    /// A repeat of the setup after the cycle, when one was due.
    pub setup: Option<Duration>,
}

/// Move `engine`'s finished traces into `log`. `compile_model` records
/// no engine trace, so the compiling replicas contribute none; the
/// tiered engine's `execute` records one with its compile-path spans.
fn import_traces(engine: &ServeEngine, log: &mut Option<&mut SpanLog>) {
    if let Some(log) = log.as_deref_mut() {
        let offset = clock_offset(engine.tracer());
        for trace in engine.tracer().traces() {
            log.import(None, "engine_trace", &trace, offset);
        }
    }
}

/// Run one cycle in a fresh scratch directory. With `log`, every engine
/// has tracing on, the public calls are wrapped in stopwatch spans and
/// the engines' own traces are imported.
pub fn cycle(fx: &Fixture, mut log: Option<&mut SpanLog>) -> Cycle {
    let dir = ScratchDir::new();
    let traced = log.is_some();
    let journal = || {
        Journal::open(JournalConfig::at(dir.join("journal")))
            .map(Arc::new)
            .expect("open journal")
    };
    let mut c = Cycle::default();
    let span = |log: &mut Option<&mut SpanLog>, name: &str, start: u64, detail: String| {
        if let Some(log) = log.as_deref_mut() {
            log.push(None, name, (start, now_us()), detail);
        }
    };
    let compile_zoo =
        |engine: &ServeEngine, c: &mut Cycle, log: &mut Option<&mut SpanLog>, cold: bool| {
            for (i, g) in fx.graphs.iter().enumerate() {
                for (t, target) in TARGETS.iter().enumerate() {
                    let start = now_us();
                    let t0 = Instant::now();
                    let report = engine.compile_model(g, target);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    span(
                        log,
                        "compile_model",
                        start,
                        format!("model={} target={target}", g.name),
                    );
                    c.attempted += 1;
                    match report {
                        Ok(r) => {
                            if cold {
                                c.cold_calls_ms.push(ms);
                            }
                            if !same_report(&r, &fx.reports[i * TARGETS.len() + t]) {
                                c.wrong += 1;
                            }
                        }
                        Err(e) => {
                            eprintln!("cold-start: {e}");
                            c.failed += 1;
                        }
                    }
                }
            }
            import_traces(engine, log);
        };

    let t0 = Instant::now();
    let cold = serving::engine(traced);
    cold.attach_journal(journal()).expect("attach journal");
    compile_zoo(&cold, &mut c, &mut log, true);
    c.cold = t0.elapsed();
    let store_path = dir.join("store");
    let start = now_us();
    let t0 = Instant::now();
    c.store = cold.export_artifacts();
    c.store.save(&store_path).expect("save artifact store");
    c.save = t0.elapsed();
    span(
        &mut log,
        "artifact_save",
        start,
        format!("entries={}", c.store.len()),
    );
    drop(cold);

    let searches = tuner_searches();
    let t0 = Instant::now();
    let warm = serving::engine(traced);
    let start = now_us();
    warm.attach_journal(journal()).expect("attach journal");
    span(&mut log, "journal_attach", start, String::new());
    compile_zoo(&warm, &mut c, &mut log, false);
    c.warm = t0.elapsed();
    c.warm_searches = tuner_searches() - searches;

    let t0 = Instant::now();
    let start = now_us();
    let loaded = ArtifactStore::load(&store_path).expect("load artifact store");
    c.load = t0.elapsed();
    span(&mut log, "artifact_load", start, String::new());
    let replica = serving::engine(traced);
    replica.import_artifacts(loaded);
    compile_zoo(&replica, &mut c, &mut log, false);
    c.store_warm = t0.elapsed();

    let tiered = serving::engine(traced).with_tiered_cold_start();
    let start = now_us();
    let t0 = Instant::now();
    let first = tiered.execute("novel", NOVEL_TARGET, NOVEL, fx.novel_seed);
    c.first = t0.elapsed();
    span(&mut log, "first_response", start, NOVEL.describe());
    c.attempted += 1;
    match first {
        Ok(out) if same_bits(&out.output, &fx.novel_expected) => {}
        Ok(_) => c.wrong += 1,
        Err(e) => {
            eprintln!("cold-start: {e}");
            c.failed += 1;
        }
    }
    if traced {
        let start = now_us();
        tiered.run_pending_retunes();
        span(&mut log, "run_pending_retunes", start, String::new());
        import_traces(&tiered, &mut log);
    }
    c
}

/// Cycles for `seconds` (at least [`MIN_CYCLES`]), traced into `log`
/// when given, with a repeat of the setup after every [`SETUP_EVERY`]
/// cycles. A repeat whose reports differ from the first setup's counts
/// as a wrong output.
pub fn run_cycles(fx: &Fixture, seconds: f64, mut log: Option<&mut SpanLog>) -> Vec<Cycle> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cycles = Vec::new();
    while cycles.len() < MIN_CYCLES || Instant::now() < deadline {
        let mut c = cycle(fx, log.as_deref_mut());
        if (cycles.len() + 1) % SETUP_EVERY == 0 {
            let (_, reports, took) = build_zoo();
            c.attempted += reports.len() as u64;
            c.wrong += reports
                .iter()
                .zip(&fx.reports)
                .filter(|(a, b)| !same_report(a, b))
                .count() as u64;
            c.setup = Some(took);
        }
        cycles.push(c);
    }
    cycles
}

/// The untraced workload run.
///
/// # Errors
///
/// When too few compiles completed to summarize.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let fx = setup(seed);
    let cycles = run_cycles(&fx, seconds, None);
    outcome(&fx, &cycles)
}

/// Median cold `compile_model` latency over cycles (ms).
#[must_use]
pub fn p50_ms(cycles: &[Cycle]) -> f64 {
    median(
        &cycles
            .iter()
            .flat_map(|c| c.cold_calls_ms.iter().copied())
            .collect::<Vec<_>>(),
    )
}

/// Calls attempted, failed and answered wrongly over cycles.
#[must_use]
pub fn counts(cycles: &[Cycle]) -> (u64, u64, u64) {
    let sum = |f: fn(&Cycle) -> u64| cycles.iter().map(f).sum::<u64>();
    (sum(|c| c.attempted), sum(|c| c.failed), sum(|c| c.wrong))
}

/// [`trimmed_mean`] of a per-cycle value: a cycle's phases are short
/// enough that a median over cycles jumps with the host's speed states.
fn per_cycle(cycles: &[Cycle], f: fn(&Cycle) -> f64) -> f64 {
    trimmed_mean(&cycles.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end metrics over cycles. A cycle makes one cold compile of
/// every (model, target) pair, so `latency_p50_ms` is the [`fast_time`]
/// of the cycles' median cold-compile latencies and `throughput_rps` the
/// [`fast_rate`] of their cold-compile rates: the figures at the host's
/// full speed.
///
/// # Errors
///
/// When too few compiles completed to summarize.
pub fn outcome(fx: &Fixture, cycles: &[Cycle]) -> Result<Outcome, String> {
    let calls: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.cold_calls_ms.iter().copied())
        .collect();
    let s = summarize(&calls).ok_or("too few cold compiles completed")?;
    let whole: Vec<&Cycle> = cycles
        .iter()
        .filter(|c| c.cold_calls_ms.len() == ZOO.len() * TARGETS.len())
        .collect();
    if whole.is_empty() {
        return Err("no cycle compiled every model cold".to_string());
    }
    let p50s: Vec<f64> = whole.iter().map(|c| median(&c.cold_calls_ms)).collect();
    let rates: Vec<f64> = whole
        .iter()
        .map(|c| c.cold_calls_ms.len() as f64 / c.cold.as_secs_f64())
        .collect();
    let cold_total: f64 = cycles.iter().map(|c| c.cold.as_secs_f64()).sum();
    let mut m = Metrics::default();
    m.set("latency_p50_ms", fast_time(&p50s));
    m.set("latency_p99_ms", s.tail);
    m.set("throughput_rps", fast_rate(&rates));
    let mut setups = vec![fx.setup_s];
    setups.extend(
        cycles
            .iter()
            .filter_map(|c| c.setup)
            .map(|d| d.as_secs_f64()),
    );
    m.set("setup_s", median(&setups));
    m.set(
        "cold_compile_s",
        per_cycle(cycles, |c| c.cold.as_secs_f64()),
    );
    m.set("warm_start_s", per_cycle(cycles, |c| c.warm.as_secs_f64()));
    m.set(
        "first_response_ms",
        per_cycle(cycles, |c| c.first.as_secs_f64() * 1e3),
    );
    let (attempted, failed, wrong) = counts(cycles);
    let mut out = Outcome::new(attempted, failed, wrong, m);
    out.notes.push(format!(
        "{} cycles; latency is per cold compile_model call; latency_p50_ms and throughput_rps \
         are the p{FAST_PCT} fast end of the cycles (over the whole run: median {:.3} ms, {:.2} \
         compiles/s), latency_p99_ms is p{:.2} of {}; store warm start {:.4} s; warm-start \
         tuner searches {}",
        cycles.len(),
        median(&calls),
        calls.len() as f64 / cold_total,
        s.tail_pct,
        s.n,
        per_cycle(cycles, |c| c.store_warm.as_secs_f64()),
        cycles.iter().map(|c| c.warm_searches).sum::<u64>()
    ));
    Ok(out)
}

/// Traced layer metrics: persistence and search counts of the traced
/// `cycles`, the compile pipeline's stages timed around
/// `Tensorizer::compile` per unique workload (`compile_model` records no
/// engine spans of its own), whole-graph compiles, and journal appends,
/// snapshots and polls.
pub fn layers(fx: &Fixture, cycles: &[Cycle], log: &mut SpanLog, m: &mut Metrics) {
    m.set(
        "artifact.save_ms",
        per_cycle(cycles, |c| c.save.as_secs_f64() * 1e3),
    );
    m.set(
        "artifact.load_ms",
        per_cycle(cycles, |c| c.load.as_secs_f64() * 1e3),
    );
    m.set(
        "engine.tuner_searches",
        cycles.iter().map(|c| c.warm_searches).sum::<u64>() as f64,
    );
    m.set(
        "engine.cold_compile_s",
        per_cycle(cycles, |c| c.cold.as_secs_f64()),
    );
    m.set(
        "engine.warm_start_s",
        per_cycle(cycles, |c| c.warm.as_secs_f64()),
    );
    m.set(
        "engine.first_response_ms",
        per_cycle(cycles, |c| c.first.as_secs_f64() * 1e3),
    );

    let (mut inspect, mut tune, mut lower, mut candidates) = (0u64, 0u64, 0u64, 0usize);
    for g in &fx.graphs {
        let mut graph_ms = 0.0;
        for target in TARGETS {
            let desc = registry::target_by_id(target).expect("registered target");
            let tensorizer =
                Tensorizer::new(Target::from_desc(desc.clone())).with_tuning(serving::tuning());
            for spec in unique_workloads(&[g])
                .into_iter()
                .filter(|s| !s.is_depthwise())
            {
                let (op, hint) = op_for_target(&spec, &desc);
                let start = now_us();
                let Ok(kernel) = tensorizer.compile_with_hint(&op, hint) else {
                    continue;
                };
                let end = now_us();
                let parent = log.push(None, "tensorizer_compile", (start, end), spec.describe());
                let st = kernel.stages;
                let (a, b) = (start + st.inspect_us, start + st.inspect_us + st.tune_us);
                log.push(Some(parent), "inspect", (start, a), "");
                log.push(Some(parent), "tune", (a, b), "");
                log.push(Some(parent), "lower", (b, b + st.lower_us), "");
                inspect += st.inspect_us;
                tune += st.tune_us;
                lower += st.lower_us;
                candidates += kernel.tuning_log.len();
            }
            let start = now_us();
            let t0 = Instant::now();
            let _ = compile_graph(g, Target::from_desc(desc), serving::tuning());
            graph_ms += t0.elapsed().as_secs_f64() * 1e3;
            log.push(
                None,
                "compile_graph",
                (start, now_us()),
                format!("model={}", g.name),
            );
        }
        m.set(format!("graph.compile_ms.{}", g.name), graph_ms);
    }
    m.set("core.inspect_ms", inspect as f64 / 1e3);
    m.set("core.tune_ms", tune as f64 / 1e3);
    m.set("core.lower_ms", lower as f64 / 1e3);
    m.set("core.candidates", candidates as f64);
    let last = cycles.last().expect("at least one traced cycle");
    journal_probe(&last.store, log, m);
}

/// Append the cold replica's decisions one record at a time to a fresh
/// journal, snapshot it, and time a peer handle polling new appends.
fn journal_probe(store: &ArtifactStore, log: &mut SpanLog, m: &mut Metrics) {
    const POLLED: usize = 16;
    let dir = ScratchDir::new();
    let config = || JournalConfig::at(dir.join("journal"));
    let writer = Journal::open(config()).expect("open journal");
    let reader = Journal::open(config()).expect("open journal");
    let records: Vec<JournalRecord> = store
        .model_targets()
        .into_iter()
        .flat_map(|(model, target)| {
            store
                .entries(&model, &target)
                .iter()
                .map(|e| JournalRecord::Put {
                    model: model.clone(),
                    target: target.clone(),
                    entry: Box::new(e.clone()),
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let (head, tail) = records.split_at(records.len().saturating_sub(POLLED));
    let mut appends = Vec::new();
    for r in head {
        let start = now_us();
        let t0 = Instant::now();
        writer.append(std::slice::from_ref(r)).expect("append");
        appends.push(t0.elapsed().as_secs_f64() * 1e6);
        log.push(None, "journal_append", (start, now_us()), "");
    }
    reader.poll().expect("poll");
    writer.append(tail).expect("append");
    let start = now_us();
    let t0 = Instant::now();
    let polled = reader.poll().expect("poll");
    m.set("journal.poll_us", t0.elapsed().as_secs_f64() * 1e6);
    log.push(
        None,
        "journal_poll",
        (start, now_us()),
        format!("records={}", polled.len()),
    );
    let start = now_us();
    let t0 = Instant::now();
    let snapshot = writer.snapshot().expect("snapshot");
    m.set("journal.snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
    log.push(
        None,
        "journal_snapshot",
        (start, now_us()),
        format!("entries={}", snapshot.len()),
    );
    m.set("journal.append_us", mean(&appends));
}
