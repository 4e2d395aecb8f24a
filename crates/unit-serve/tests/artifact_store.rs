//! ArtifactStore round-trip through a real engine and the real
//! filesystem: save → load in a fresh engine → 100% artifact hit rate,
//! with corrupt/truncated/version-bumped files rejected by typed errors
//! at the `load` entry point (the unit suite covers `decode`-level
//! corruption exhaustively; here the same rejections are exercised
//! through on-disk files, plus graceful handling of partial stores and
//! stores naming unserved targets).
//!
//! Counter-based *zero-search* assertions live in
//! `tests/warm_start_zero_search.rs` (their process-global counters need
//! a dedicated binary); this suite asserts hit rates through the
//! engine's own metrics, which are per-engine and race-free across
//! tests.

use std::path::PathBuf;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
use unit_graph::models::transformer_tiny;
use unit_serve::{ArtifactError, ArtifactStore, ServeEngine, TailRecovery};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "unit-serve-artifact-{tag}-{}.store",
        std::process::id()
    ))
}

fn tuning() -> TuningConfig {
    TuningConfig {
        cpu: CpuTuneMode::Tuned { max_pairs: 4 },
        gpu: GpuTuneMode::Tuned,
    }
}

#[test]
fn save_load_round_trip_reaches_full_artifact_hit_rate() {
    let graph = transformer_tiny();
    let cold = ServeEngine::new(tuning());
    let cold_report = cold.compile_model(&graph, "x86-avx512-vnni").unwrap();
    let path = tmp_path("roundtrip");
    cold.export_artifacts().save(&path).unwrap();

    let warm = ServeEngine::new(tuning());
    let loaded = ArtifactStore::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!loaded.is_empty());
    let restored = warm.import_artifacts(loaded);
    assert!(restored > 0);

    let warm_report = warm.compile_model(&graph, "x86-avx512-vnni").unwrap();
    assert_eq!(warm_report.total_ms, cold_report.total_ms);
    for (w, c) in warm_report.layers.iter().zip(&cold_report.layers) {
        assert_eq!(w.micros, c.micros, "layer {}", w.name);
        assert_eq!(w.note, c.note, "layer {}", w.name);
    }
    // Every compile lookup was answered by the store: the report path
    // is pure cache hits (no artifact consults at all), so the metrics
    // must show zero artifact misses and zero engine-level searches.
    let rendered = warm.metrics().render();
    assert!(rendered.contains("artifact_misses 0"), "{rendered}");
    assert!(rendered.contains("tuner_searches 0"), "{rendered}");
}

#[test]
fn partial_store_warms_partially_and_backfills() {
    let graph = transformer_tiny();
    let cold = ServeEngine::new(tuning());
    let _ = cold.compile_model(&graph, "arm-neon-dot").unwrap();
    let full = cold.export_artifacts();

    // Keep only half the entries.
    let entries = full.entries(&graph.name, "arm-neon-dot");
    assert!(entries.len() >= 4, "transformer has 5 unique GEMMs");
    let mut partial = ArtifactStore::new();
    for e in &entries[..entries.len() / 2] {
        partial.record(&graph.name, "arm-neon-dot", e.clone());
    }

    let warm = ServeEngine::new(tuning());
    warm.import_artifacts(partial);
    let report = warm.compile_model(&graph, "arm-neon-dot").unwrap();
    let reference = cold.compile_model(&graph, "arm-neon-dot").unwrap();
    assert_eq!(
        report.total_ms, reference.total_ms,
        "partial warm still exact"
    );
    // The missing half was compiled cold and recorded: exporting now
    // yields the full set again.
    let refilled = warm.export_artifacts();
    assert_eq!(
        refilled.entries(&graph.name, "arm-neon-dot").len(),
        entries.len()
    );
    let rendered = warm.metrics().render();
    assert!(
        warm.metrics().tuner_searches() > 0,
        "the missing half must have searched: {rendered}"
    );
}

#[test]
fn stores_for_unserved_targets_are_kept_but_not_restored() {
    let cold = ServeEngine::new(tuning());
    let _ = cold
        .compile_model(&transformer_tiny(), "nvidia-tensor-core")
        .unwrap();
    let store = cold.export_artifacts();

    // An engine serving only x86 imports the nvidia store: nothing to
    // restore, nothing lost (re-export still carries the entries).
    let warm = ServeEngine::for_targets(tuning(), &["x86-avx512-vnni"]).unwrap();
    let n = store.len();
    assert_eq!(warm.import_artifacts(store), 0);
    assert_eq!(warm.export_artifacts().len(), n);
}

#[test]
fn load_rejects_bad_files_with_typed_errors() {
    let cold = ServeEngine::new(tuning());
    let _ = cold
        .compile_model(&transformer_tiny(), "x86-avx512-vnni")
        .unwrap();
    let good = cold.export_artifacts().encode();

    // Version bump.
    let path = tmp_path("version");
    std::fs::write(&path, good.replace("v1", "v9")).unwrap();
    assert!(matches!(
        ArtifactStore::load(&path),
        Err(ArtifactError::UnsupportedVersion { .. })
    ));

    // Truncation: cut the file mid-body.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let err = ArtifactStore::load(&path).unwrap_err();
    assert!(
        matches!(
            err,
            ArtifactError::Truncated { .. } | ArtifactError::Corrupt { .. }
        ),
        "got {err:?}"
    );

    // Corruption: flip one byte inside the body (a note character).
    let tampered = good.replacen("vpdpbusd", "vpdpbusq", 1);
    assert_ne!(tampered, good);
    std::fs::write(&path, tampered).unwrap();
    assert!(matches!(
        ArtifactStore::load(&path),
        Err(ArtifactError::ChecksumMismatch { .. })
    ));

    // Missing file is an Io error, not a panic.
    std::fs::remove_file(&path).ok();
    assert!(matches!(
        ArtifactStore::load(&path),
        Err(ArtifactError::Io(_))
    ));
}

#[test]
fn torn_on_disk_store_recovers_and_warms_the_engine() {
    let graph = transformer_tiny();
    let cold = ServeEngine::new(tuning());
    let cold_report = cold.compile_model(&graph, "x86-avx512-vnni").unwrap();
    let full = cold.export_artifacts();
    let encoded = full.encode();

    // Simulate a crash mid-append: tear the file in the middle of its
    // final kernel line (no trailer, half a record).
    let final_record = encoded.rfind("\nkernel ").unwrap() + 1;
    let torn = &encoded[..final_record + "kernel ".len() + 3];
    let path = tmp_path("torn");
    std::fs::write(&path, torn).unwrap();

    // The strict loader still rejects the file whole...
    assert!(ArtifactStore::load(&path).is_err());
    // ...but the recovering loader keeps every completed entry.
    let (recovered, how) = ArtifactStore::load_recovering(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(matches!(how, TailRecovery::Recovered { .. }));
    assert_eq!(recovered.len(), full.len() - 1);

    // The recovered store warms a fresh engine: only the torn entry
    // (at most one kernel) needs a cold search.
    let warm = ServeEngine::new(tuning());
    assert!(warm.import_artifacts(recovered) > 0);
    let warm_report = warm.compile_model(&graph, "x86-avx512-vnni").unwrap();
    assert_eq!(warm_report.total_ms, cold_report.total_ms);
    assert!(
        warm.metrics().tuner_searches() <= 1,
        "at most the torn entry re-searches: {}",
        warm.metrics().render()
    );
}

#[test]
fn threads_saving_to_one_path_never_clobber_each_other() {
    // Regression: every save of one process staged through the same
    // `<file>.tmp.<pid>`, so two threads saving to one path truncated
    // and renamed each other's staging file: saves failed with
    // `NotFound`, and loads read an empty or half-written store.
    use std::sync::Barrier;
    use unit_graph::{CacheWorkload, OpSpec};
    use unit_serve::{ArtifactEntry, TuneTier};

    const SAVES: usize = 50;
    let stores: Vec<ArtifactStore> = (0..4u32)
        .map(|i| {
            let mut store = ArtifactStore::new();
            for k in 1..=32u32 {
                let entry = ArtifactEntry {
                    workload: CacheWorkload::Op(OpSpec::gemm(16, 16, 16 * i64::from(k))),
                    tuning: tuning(),
                    replay: tuning(),
                    micros: f64::from(i * 100 + k),
                    tier: TuneTier::Full,
                    note: format!("saver {i} kernel {k}"),
                };
                store.record(&format!("saver-{i}"), "x86-avx512-vnni", entry);
            }
            store
        })
        .collect();
    let encoded: Vec<String> = stores.iter().map(ArtifactStore::encode).collect();
    let path = tmp_path("concurrent-save");
    stores[0].save(&path).unwrap();

    let start = Barrier::new(stores.len() + 1);
    std::thread::scope(|s| {
        let savers: Vec<_> = stores
            .iter()
            .map(|store| {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for n in 0..SAVES {
                        if let Err(e) = store.save(path) {
                            panic!("save {n} failed: {e}");
                        }
                    }
                })
            })
            .collect();
        start.wait();
        let mut loads = 0;
        while !savers.iter().all(|h| h.is_finished()) {
            let loaded = ArtifactStore::load(&path)
                .unwrap_or_else(|e| panic!("load {loads} read a clobbered store: {e}"));
            assert!(
                encoded.contains(&loaded.encode()),
                "load {loads} is none of the saved stores"
            );
            loads += 1;
        }
        for saver in savers {
            saver.join().expect("every concurrent save succeeds");
        }
    });
    let last = ArtifactStore::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(encoded.contains(&last.encode()));
}
