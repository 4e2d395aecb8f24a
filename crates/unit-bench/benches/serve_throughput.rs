//! Serving-runtime throughput: cold vs warm whole-model compilation and
//! scheduler requests/sec.
//!
//! Run via `cargo bench -p unit-bench --bench serve_throughput`. Five
//! tracked numbers:
//!
//! * **cold compile**: transformer-tiny + mobilenet-v1 on every
//!   registered target into an empty engine (full tuner searches),
//! * **warm compile**: the same set into a fresh engine restored from
//!   the artifact store the cold run persisted — replayed tuning
//!   decisions, *zero tuner searches* (asserted),
//! * **journal-warm compile**: the same set into a replica that
//!   attached the fleet-shared artifact journal the cold engine
//!   appended to — the multi-replica warm-start path, also asserted
//!   search-free,
//! * **cold first response**: the first-request latency for a novel
//!   workload on a *tiered* engine (cheap cold-tier search, re-tune
//!   deferred to the background) vs a non-tiered engine paying the full
//!   search up front — asserted faster, and asserted bit-identical
//!   before and after the background swap,
//! * **serving throughput**: a burst of small mixed Conv/Gemm requests
//!   pushed through the batching scheduler by 8 client threads across
//!   all targets, reported as requests/sec.
//!
//! `SERVE_THROUGHPUT_SMOKE=1` switches to a single-repetition smoke run
//! that still asserts the warm-start contract.

use std::sync::Arc;
use std::time::{Duration, Instant};

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{tuner_searches, CpuTuneMode, GpuTuneMode};
use unit_graph::models::{mobilenet_v1, transformer_tiny};
use unit_graph::{Graph, OpSpec};
use unit_isa::registry;
use unit_serve::{
    ArtifactStore, Journal, JournalConfig, Scheduler, SchedulerConfig, ServeEngine, ServeRequest,
};

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 8 },
        gpu: GpuTuneMode::Tuned,
    }
}

/// The request mix (small: the interpreter executes every request).
fn menu() -> Vec<(&'static str, OpSpec)> {
    vec![
        ("mobilenet-v1", OpSpec::depthwise(8, 8, 3, 1, 1)),
        ("mobilenet-v1", OpSpec::conv2d(4, 6, 8, 3, 1, 1)),
        ("transformer-tiny", OpSpec::gemm(16, 16, 16)),
        ("transformer-tiny", OpSpec::batched_gemm(2, 8, 16, 16)),
    ]
}

fn compile_all(engine: &ServeEngine, models: &[Graph], targets: &[String]) -> Duration {
    let t0 = Instant::now();
    for graph in models {
        for target in targets {
            let _ = engine.compile_model(graph, target).expect("compile");
        }
    }
    t0.elapsed()
}

fn main() {
    let smoke = std::env::var("SERVE_THROUGHPUT_SMOKE").is_ok();
    let models = [transformer_tiny(), mobilenet_v1()];
    let targets: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
    let store_path = std::env::temp_dir().join("unit-serve-bench.store");
    let journal_dir = std::env::temp_dir().join(format!("unit-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("journal dir");
    let journal_path = journal_dir.join("journal");

    // --- Cold compile (and persist — both store and journal). ---
    let cold = ServeEngine::new(tuning());
    cold.attach_journal(Arc::new(
        Journal::open(JournalConfig::at(&journal_path)).expect("open journal"),
    ))
    .expect("attach journal");
    let cold_elapsed = compile_all(&cold, &models, &targets);
    for (model, op) in menu() {
        for target in &targets {
            cold.execute(model, target, op, 0).expect("cold execute");
        }
    }
    cold.export_artifacts().save(&store_path).expect("save");

    // --- Warm compile from the persisted store. ---
    let warm = ServeEngine::new(tuning());
    warm.import_artifacts(ArtifactStore::load(&store_path).expect("load"));
    std::fs::remove_file(&store_path).ok();
    let searches_before = tuner_searches();
    let warm_elapsed = compile_all(&warm, &models, &targets);
    assert_eq!(
        tuner_searches(),
        searches_before,
        "warm compile must perform zero tuner searches"
    );

    // --- Journal warm start: a fresh replica attaching the journal the
    // cold engine appended to, as a second replica in a fleet would. ---
    let journal_warm = ServeEngine::new(tuning());
    let restored = journal_warm
        .attach_journal(Arc::new(
            Journal::open(JournalConfig::at(&journal_path)).expect("reopen journal"),
        ))
        .expect("attach journal");
    assert!(restored > 0, "the journal snapshot restores entries");
    let searches_before = tuner_searches();
    let journal_warm_elapsed = compile_all(&journal_warm, &models, &targets);
    assert_eq!(
        tuner_searches(),
        searches_before,
        "journal-warm compile must perform zero tuner searches"
    );
    std::fs::remove_dir_all(&journal_dir).ok();

    // --- Cold first response: how long the *first* request for a novel
    // workload waits, tiered (cheap cold-tier search now, full search in
    // the background) vs non-tiered (full search up front). The probe
    // op is small so the search — not the interpreter's execution of
    // the request — dominates the first response; best of five fresh
    // engines each, so one scheduling hiccup cannot flip the
    // comparison. ---
    use unit_serve::TuneTier;
    let full16 = TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 16 },
        gpu: GpuTuneMode::Tuned,
    };
    let probe = OpSpec::gemm(16, 16, 16);
    let probe_target = &targets[0];
    let mut tiered_first = Duration::MAX;
    let mut full_first = Duration::MAX;
    let mut probe_bits: Option<Vec<u8>> = None;
    for _ in 0..5 {
        let tiered = ServeEngine::new(full16).with_tiered_cold_start();
        let t0 = Instant::now();
        let cold_out = tiered
            .execute("probe", probe_target, probe, 3)
            .expect("tiered cold execute");
        tiered_first = tiered_first.min(t0.elapsed());
        assert_eq!(cold_out.tier, TuneTier::Cold);

        let full = ServeEngine::new(full16);
        let t0 = Instant::now();
        let full_out = full
            .execute("probe", probe_target, probe, 3)
            .expect("full cold execute");
        full_first = full_first.min(t0.elapsed());
        assert_eq!(full_out.tier, TuneTier::Full);
        assert_eq!(
            cold_out.output, full_out.output,
            "the cold tier must not change bits"
        );

        // The background upgrade lands without changing bits either.
        assert!(tiered.run_pending_retunes() >= 1);
        let swapped = tiered
            .execute("probe", probe_target, probe, 3)
            .expect("post-swap execute");
        assert_eq!(swapped.tier, TuneTier::Full);
        assert_eq!(swapped.output, full_out.output);
        let bits = unit_serve::net::encode_typed_buf(&full_out.output).into_bytes();
        assert!(probe_bits.get_or_insert(bits.clone()) == &bits);
    }
    assert!(
        tiered_first < full_first,
        "tiered cold start ({tiered_first:?}) must answer before a full search ({full_first:?})"
    );

    // --- Serving throughput: submit the whole burst, then drain, so the
    // dispatcher actually forms multi-request batches. ---
    let requests: usize = if smoke { 128 } else { 512 };
    let clients = 8;
    let per_client = requests / clients;
    let engine = Arc::new(warm);
    let scheduler = Arc::new(Scheduler::start(
        Arc::clone(&engine),
        SchedulerConfig {
            queue_capacity: 64,
            max_batch: 8,
        },
    ));
    let menu = menu();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let scheduler = Arc::clone(&scheduler);
            let (menu, targets) = (&menu, &targets);
            scope.spawn(move || {
                let mut pending = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let (model, op) = &menu[(client + i) % menu.len()];
                    let target = &targets[(client + i) % targets.len()];
                    let (_, rx) = scheduler
                        .submit(ServeRequest {
                            model: (*model).to_string(),
                            target: target.clone(),
                            op: *op,
                            seed: (i % 5) as u64,
                        })
                        .expect("admission");
                    pending.push(rx);
                }
                for rx in pending {
                    assert!(rx.recv().expect("response").result.is_ok());
                }
            });
        }
    });
    let serve_elapsed = t0.elapsed();
    let rps = engine.metrics().throughput_rps(serve_elapsed);

    println!(
        "serve_throughput: {} targets, {} requests",
        targets.len(),
        requests
    );
    println!(
        "  cold compile {:>8.1} ms   warm compile {:>8.2} ms   ({:.0}x)",
        cold_elapsed.as_secs_f64() * 1e3,
        warm_elapsed.as_secs_f64() * 1e3,
        cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "  journal-warm compile {:>8.2} ms   ({:.0}x vs cold)",
        journal_warm_elapsed.as_secs_f64() * 1e3,
        cold_elapsed.as_secs_f64() / journal_warm_elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "  cold first response {:>8.2} ms tiered   {:>8.2} ms full   ({:.1}x)",
        tiered_first.as_secs_f64() * 1e3,
        full_first.as_secs_f64() * 1e3,
        full_first.as_secs_f64() / tiered_first.as_secs_f64().max(1e-9)
    );
    println!(
        "  serving      {:>8.2} s    {:>8.0} req/s",
        serve_elapsed.as_secs_f64(),
        rps
    );
    println!("{}", engine.metrics().render());

    assert_eq!(engine.metrics().completed(), requests as u64);
    assert_eq!(engine.metrics().failed(), 0);
    assert_eq!(engine.metrics().tuner_searches(), 0);
    assert!(
        warm_elapsed < cold_elapsed,
        "replaying artifacts must be faster than searching"
    );
}
