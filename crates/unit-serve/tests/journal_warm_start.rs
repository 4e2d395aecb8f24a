//! Fleet-shared journal contract (ISSUE 7 acceptance): a second replica
//! attaching to the journal a first replica populated compiles every
//! model with **zero tuner invocations** — measured at the tuner itself
//! through the process-global counters in `unit_core::tuner::stats` —
//! and serves outputs bit-identical to the first replica's.
//!
//! This binary holds exactly one test: the stats counters are global
//! and monotone, so the delta assertions below must not share a process
//! with unrelated tuner traffic.

use std::sync::Arc;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::tuner_invocations;
use unit_graph::models::transformer_tiny;
use unit_graph::OpSpec;
use unit_isa::registry;
use unit_serve::{Journal, JournalConfig, ServeEngine};

#[test]
fn replica_b_warm_starts_search_free_off_replica_a_journal() {
    let tuning = TuningConfig::default();
    let graph = transformer_tiny();
    let targets: Vec<String> = registry::targets().into_iter().map(|d| d.id).collect();
    let dir = std::env::temp_dir().join(format!("unit-journal-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal");

    // --- Replica A: attach an empty journal, compile cold. Every
    // tuning decision is appended before its compile call returns. ---
    let a = ServeEngine::new(tuning);
    let journal_a = Arc::new(Journal::open(JournalConfig::at(&path)).unwrap());
    assert_eq!(a.attach_journal(Arc::clone(&journal_a)).unwrap(), 0);
    let mut a_reports = Vec::new();
    for target in &targets {
        a_reports.push(a.compile_model(&graph, target).expect("cold compile"));
    }
    let appended = a.metrics().journal_appends();
    assert!(appended > 0, "cold compiles must reach the journal");
    assert_eq!(
        journal_a.snapshot().unwrap().len() as u64,
        appended,
        "every append is durable in the journal"
    );

    // --- Replica B: a different engine over the same journal file.
    // Attaching imports the snapshot; compiling the same model must
    // never invoke the tuner at all, and the reports must be
    // bit-identical to replica A's. ---
    let b = ServeEngine::new(tuning);
    let journal_b = Arc::new(Journal::open(JournalConfig::at(&path)).unwrap());
    let restored = b.attach_journal(Arc::clone(&journal_b)).unwrap();
    assert!(restored > 0, "the snapshot restores latency-cache entries");
    let invocations_before = tuner_invocations();
    for (target, a_report) in targets.iter().zip(&a_reports) {
        let b_report = b.compile_model(&graph, target).expect("warm compile");
        assert_eq!(
            b_report.total_ms, a_report.total_ms,
            "{target}: replica B diverged from replica A"
        );
        for (x, y) in b_report.layers.iter().zip(&a_report.layers) {
            assert_eq!(x.micros, y.micros, "{target}: layer {}", x.name);
            assert_eq!(x.note, y.note, "{target}: layer {}", x.name);
        }
    }
    assert_eq!(
        tuner_invocations(),
        invocations_before,
        "a journal-warm model compile must never invoke the tuner:\n{}",
        b.metrics().render()
    );
    assert_eq!(b.metrics().tuner_searches(), 0);

    // --- Live tailing: A makes a *new* decision after B attached; B
    // sees it via sync_journal and replays it search-free, bit-identical
    // to A's execution. ---
    let op = OpSpec::gemm(16, 16, 16);
    let target = &targets[0];
    let a_out = a.execute("live", target, op, 9).expect("A executes cold");
    let tailed = b.sync_journal().expect("B tails the journal");
    assert!(tailed > 0, "A's new decision reaches B");
    let invocations_before = tuner_invocations();
    let b_searches_before = b.metrics().tuner_searches();
    let b_out = b.execute("live", target, op, 9).expect("B replays");
    assert_eq!(b_out.output, a_out.output, "bit-identical across replicas");
    assert_eq!(b_out.micros.to_bits(), a_out.micros.to_bits());
    assert_eq!(b.metrics().tuner_searches(), b_searches_before);
    // Replay rebuilds the kernel with the search-free config: the tuner
    // runs one fixed candidate, but performs zero *searches*.
    assert!(tuner_invocations() >= invocations_before);

    std::fs::remove_dir_all(&dir).ok();
}
