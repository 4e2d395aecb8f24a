//! The persistent compiled-artifact store.
//!
//! An [`ArtifactStore`] maps `(model id, target id)` to the list of
//! compiled-kernel decisions that model needs on that target: for every
//! [`KernelCacheKey`]-shaped workload, the tuning config it was compiled
//! under, the **search-free replay config** that rebuilds the identical
//! kernel (`CpuTuneMode::Fixed` at the searched winner /
//! `GpuTuneMode::Generic`), the modeled latency and the provider note.
//! A warm start restores these into the engine's caches and performs
//! *zero* tuner searches — the contract `tests/warm_start_zero_search.rs`
//! asserts through `unit_core::tuner::stats`.
//!
//! # File format (version 1)
//!
//! The vendored `serde` is a no-op stub, so the format is a hand-rolled,
//! versioned, line-oriented text format, written and parsed by hand:
//!
//! ```text
//! unit-artifact-store v1
//! model <model-id>|<target-id>|<entry-count>
//! kernel <workload>|<tuning>|<replay>|<f64-bits-hex16>|[tier=<tier>|]<note>
//! ...
//! end <fnv1a-64-hex16>
//! ```
//!
//! * One `model` header per `(model, target)` pair, each followed by
//!   exactly `<entry-count>` `kernel` lines.
//! * `<workload>` is [`CacheWorkload::encode`], `<tuning>`/`<replay>` are
//!   [`TuningConfig::encode`] — the sub-encodings owned by `unit-graph`
//!   and `unit-core` respectively.
//! * Latency is persisted as the raw IEEE-754 bit pattern (16 hex
//!   digits) so micros round-trip *bit-exactly*; a decimal rendering
//!   would silently perturb warm-start latency reports.
//! * The optional `tier=<tier>|` marker ([`TuneTier::encode`]) says
//!   which tuning tier compiled the entry. Full-tier entries — the
//!   terminal state — omit it, so stores without cold entries are
//!   byte-identical to the pre-tier format and **absent means full
//!   tier** when decoding old files. A field starting with `tier=` that
//!   is not a valid marker is rejected (provider notes never start with
//!   `tier=`).
//! * The note is the last field and may contain anything but newlines
//!   (including `|`).
//! * `end` carries an FNV-1a 64 checksum over every body line; a
//!   missing or partial trailer means truncation, a wrong checksum means
//!   corruption — both are rejected with typed [`ArtifactError`]s, as is
//!   any unknown version line.
//!
//! Model and target ids must not contain `|` or newlines ([`ArtifactStore::record`]
//! panics on such ids rather than writing an unparseable file).
//!
//! # Crash recovery
//!
//! [`ArtifactStore::decode`] is all-or-nothing by design, but a crash
//! mid-[`save`](ArtifactStore::save) leaves exactly one damage shape: a
//! *torn tail* — a partially written final line and/or a missing `end`
//! trailer, with every earlier line intact. Rejecting such a file throws
//! away every valid entry for want of the last one. The
//! [`decode_recovering`](ArtifactStore::decode_recovering) /
//! [`load_recovering`](ArtifactStore::load_recovering) entry points
//! accept that one shape: they truncate to the last fully valid entry
//! and report what was dropped via [`TailRecovery`]. Everything else —
//! version mismatches, a full trailer whose checksum disagrees, any
//! damaged line *followed by more content* — is still hard-rejected,
//! because mid-file damage is corruption, not a crash signature.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

use unit_core::pipeline::TuningConfig;
use unit_core::tuner::TuneTier;
use unit_graph::compile::KernelCache;
use unit_graph::{CacheWorkload, KernelCacheKey};

use crate::journal::JOURNAL_FORMAT_VERSION;
use crate::lock_recovering;

/// The version tag this build writes and accepts.
pub const ARTIFACT_FORMAT_VERSION: &str = "unit-artifact-store v1";

/// Typed artifact-store errors; every malformed file is rejected with
/// one of these (never a panic).
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure while loading/saving.
    Io(std::io::Error),
    /// The version line names a format this build does not understand.
    UnsupportedVersion {
        /// The version line found in the file.
        found: String,
    },
    /// The file ends before the declared content (or the `end` trailer).
    Truncated {
        /// What was missing.
        reason: String,
    },
    /// A line failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The body does not match the `end` trailer's checksum.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: String,
        /// Checksum of the body as loaded.
        found: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact store I/O: {e}"),
            ArtifactError::UnsupportedVersion { found } => write!(
                f,
                "unsupported version line `{found}` (this build reads \
                 `{ARTIFACT_FORMAT_VERSION}` stores and `{JOURNAL_FORMAT_VERSION}` journals, \
                 migrating journals from v1 and v2)"
            ),
            ArtifactError::Truncated { reason } => {
                write!(f, "truncated artifact store: {reason}")
            }
            ArtifactError::Corrupt { line, reason } => {
                write!(f, "corrupt artifact store at line {line}: {reason}")
            }
            ArtifactError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "artifact store checksum mismatch: trailer {expected}, body {found}"
                )
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

/// One persisted compiled-kernel decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactEntry {
    /// The workload identity (conv / grouped conv / GEMM / dense).
    pub workload: CacheWorkload,
    /// The tuning config the kernel was compiled under — together with
    /// the workload and target id this reconstructs the [`KernelCacheKey`].
    pub tuning: TuningConfig,
    /// The search-free config that rebuilds the identical kernel.
    pub replay: TuningConfig,
    /// Modeled latency in microseconds (bit-exact round-trip).
    pub micros: f64,
    /// The tuning tier that compiled this entry: [`TuneTier::Cold`]
    /// entries are provisional (a background re-tune owes them a
    /// full-tier upgrade), [`TuneTier::Full`] entries are terminal.
    pub tier: TuneTier,
    /// Provider note (chosen schedule / fallback reason).
    pub note: String,
}

/// The persistent compiled-artifact store. In memory it is a sorted
/// two-level map `model id -> target id -> entries`: sorted so the file
/// rendering is canonical (same contents, same bytes), two-level so
/// [`ArtifactStore::lookup`] — which the serving engine calls on the
/// request hot path under its artifacts mutex — allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ArtifactStore {
    models: BTreeMap<String, BTreeMap<String, Vec<ArtifactEntry>>>,
}

impl ArtifactStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Record one entry for `(model, target)`, replacing any previous
    /// entry with the same workload + tuning identity.
    ///
    /// # Panics
    ///
    /// Panics when `model` or `target` is empty or contains `|` or a
    /// newline (such ids would render an unparseable file; the serving
    /// engine rejects them with a typed error before reaching here).
    pub fn record(&mut self, model: &str, target: &str, entry: ArtifactEntry) {
        for id in [model, target] {
            assert!(
                !id.is_empty() && !id.contains('|') && !id.contains('\n'),
                "artifact ids must be non-empty and free of `|`/newlines: {id:?}"
            );
        }
        let entries = self
            .models
            .entry(model.to_string())
            .or_default()
            .entry(target.to_string())
            .or_default();
        match entries
            .iter_mut()
            .find(|e| e.workload == entry.workload && e.tuning == entry.tuning)
        {
            Some(slot) => *slot = entry,
            None => entries.push(entry),
        }
    }

    /// The entry for a workload compiled under `tuning`, if persisted.
    #[must_use]
    pub fn lookup(
        &self,
        model: &str,
        target: &str,
        workload: &CacheWorkload,
        tuning: TuningConfig,
    ) -> Option<&ArtifactEntry> {
        self.models
            .get(model)
            .and_then(|targets| targets.get(target))
            .and_then(|entries| {
                entries
                    .iter()
                    .find(|e| e.workload == *workload && e.tuning == tuning)
            })
    }

    /// All entries for a `(model, target)` pair (empty when unknown).
    #[must_use]
    pub fn entries(&self, model: &str, target: &str) -> &[ArtifactEntry] {
        self.models
            .get(model)
            .and_then(|targets| targets.get(target))
            .map_or(&[], Vec::as_slice)
    }

    /// Every persisted `(model, target)` pair, in canonical order.
    #[must_use]
    pub fn model_targets(&self) -> Vec<(String, String)> {
        self.models
            .iter()
            .flat_map(|(model, targets)| {
                targets
                    .keys()
                    .map(move |target| (model.clone(), target.clone()))
            })
            .collect()
    }

    /// Total entries across all models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models
            .values()
            .flat_map(BTreeMap::values)
            .map(Vec::len)
            .sum()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Restore every entry of `(model, target)` into a kernel (latency)
    /// cache — `unit_graph::compile::compile_model_with_artifacts` then
    /// reports from the cache without ever invoking the tuner. Existing
    /// cache entries win (first-insert-wins), matching the cache's
    /// consistency contract. Returns how many entries were inserted.
    pub fn restore_latency_cache(&self, model: &str, target: &str, cache: &KernelCache) -> usize {
        cache.restore(self.entries(model, target).iter().map(|e| {
            (
                KernelCacheKey::new(e.workload, target, e.tuning),
                (e.micros, e.note.clone()),
            )
        }))
    }

    /// Record `entry` only if it *upgrades* the store: inserted when the
    /// identity is absent or the incumbent entry sits at a strictly
    /// lower tier; ties and downgrades keep the incumbent. Returns
    /// whether the entry landed. This is the merge primitive the fleet
    /// needs — a cold-tier record tailed from a slow peer must never
    /// clobber a local full-tier decision.
    ///
    /// # Panics
    ///
    /// As [`ArtifactStore::record`], on invalid ids.
    pub fn absorb(&mut self, model: &str, target: &str, entry: ArtifactEntry) -> bool {
        match self.lookup(model, target, &entry.workload, entry.tuning) {
            Some(incumbent) if incumbent.tier >= entry.tier => false,
            _ => {
                self.record(model, target, entry);
                true
            }
        }
    }

    /// Merge another store into this one. Per same-identity entry the
    /// **higher tier wins**; on a tie the incumbent is kept (see
    /// [`ArtifactStore::absorb`]) — merging is how journal tails and
    /// store imports land, and neither may downgrade a hot-swapped
    /// full-tier kernel back to its cold ancestor.
    pub fn merge(&mut self, other: ArtifactStore) {
        for (model, targets) in other.models {
            for (target, entries) in targets {
                for entry in entries {
                    self.absorb(&model, &target, entry);
                }
            }
        }
    }

    /// Drop every entry for `target` across all models (the journal's
    /// retired-target GC). Returns how many entries were removed.
    pub fn retire_target(&mut self, target: &str) -> usize {
        let mut removed = 0;
        self.models.retain(|_, targets| {
            if let Some(entries) = targets.remove(target) {
                removed += entries.len();
            }
            !targets.is_empty()
        });
        removed
    }

    /// Render the canonical file representation (format version 1).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut body = String::new();
        for (model, target, entries) in self
            .models
            .iter()
            .flat_map(|(m, ts)| ts.iter().map(move |(t, es)| (m, t, es)))
        {
            let mut sorted: Vec<&ArtifactEntry> = entries.iter().collect();
            sorted.sort_by_key(|e| (e.workload.encode(), e.tuning.encode()));
            body.push_str(&format!("model {model}|{target}|{}\n", sorted.len()));
            for e in sorted {
                body.push_str(&format!("kernel {}\n", encode_entry_fields(e)));
            }
        }
        format!(
            "{ARTIFACT_FORMAT_VERSION}\n{body}end {:016x}\n",
            fnv1a(body.as_bytes())
        )
    }

    /// Parse a file produced by [`ArtifactStore::encode`].
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`ArtifactError`]:
    /// unknown version lines, truncation (a torn tail: missing kernel
    /// lines, a missing or partial trailer, a damaged final line),
    /// field-level corruption, checksum mismatches.
    pub fn decode(text: &str) -> Result<ArtifactStore, ArtifactError> {
        match ArtifactStore::decode_recovering(text)? {
            (store, TailRecovery::Clean) => Ok(store),
            (_, TailRecovery::Recovered { .. }) => Err(ArtifactError::Truncated {
                reason: "torn tail: no complete end trailer".to_string(),
            }),
        }
    }

    /// Save the canonical rendering to `path` **atomically**: the bytes
    /// are written to a sibling temp file, fsynced, then renamed over
    /// `path`. A crash at any instant leaves either the previous store
    /// or the new one — never a torn mix (the pre-fix direct
    /// `fs::write` could tear the very file `load_recovering` then had
    /// to salvage).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        write_atomically(path.as_ref(), self.encode().as_bytes())?;
        Ok(())
    }

    /// Load and parse a store from `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, otherwise whatever
    /// [`ArtifactStore::decode`] rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<ArtifactStore, ArtifactError> {
        let text = std::fs::read_to_string(path)?;
        ArtifactStore::decode(&text)
    }

    /// Parse like [`ArtifactStore::decode`], but recover from a *torn
    /// tail* — the one damage shape a crash mid-[`save`](ArtifactStore::save)
    /// can leave: a partially written final line and/or a missing or
    /// partial `end` trailer, with every earlier line intact. Recovery
    /// truncates to the last fully valid entry; [`TailRecovery`] reports
    /// whether anything was dropped. This is the one line walk both
    /// decoders share: [`ArtifactStore::decode`] rejects whatever it
    /// recovers.
    ///
    /// # Errors
    ///
    /// Everything that is *not* a torn tail is still rejected exactly as
    /// [`ArtifactStore::decode`] rejects it: unknown versions, a full
    /// 16-digit trailer whose checksum disagrees with the body, and any
    /// damaged line that is followed by more content (mid-file damage
    /// cannot come from a crashed append, so it is treated as
    /// corruption, never silently truncated).
    pub fn decode_recovering(text: &str) -> Result<(ArtifactStore, TailRecovery), ArtifactError> {
        let mut lines = text.lines().zip(1..).peekable();
        let (version, _) = lines.next().ok_or(ArtifactError::Truncated {
            reason: "empty file (missing version line)".to_string(),
        })?;
        if version != ARTIFACT_FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version.to_string(),
            });
        }
        let torn = |dropped_line| TailRecovery::Recovered { dropped_line };
        let mut store = ArtifactStore::new();
        let mut body = String::new();
        let mut pending: Option<(String, String, usize)> = None; // model, target, remaining
        while let Some((line, lineno)) = lines.next() {
            let is_last = lines.peek().is_none();
            if let Some(expected) = line.strip_prefix("end ") {
                // Anything after the trailer is corruption, not padding.
                if !is_last {
                    return Err(corrupt(lineno + 1, "content after the end trailer"));
                }
                // The crash hit mid-trailer: everything before it parsed.
                if expected.len() != 16 || !expected.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Ok((store, torn(false)));
                }
                // A fully written trailer means the save completed, so what
                // disagrees with it is real damage.
                if let Some((model, target, remaining @ 1..)) = pending {
                    return Err(ArtifactError::Truncated {
                        reason: format!("{model}/{target}: {remaining} kernel line(s) missing"),
                    });
                }
                let found = format!("{:016x}", fnv1a(body.as_bytes()));
                if expected != found {
                    return Err(ArtifactError::ChecksumMismatch {
                        expected: expected.to_string(),
                        found,
                    });
                }
                return Ok((store, TailRecovery::Clean));
            }
            match parse_body_line(line, lineno, &mut pending, &mut store) {
                Ok(()) => {}
                // A damaged *final* line is the torn-tail signature; drop it.
                Err(_) if is_last => return Ok((store, torn(true))),
                Err(e) => return Err(e),
            }
            body.push_str(line);
            body.push('\n');
        }
        // Ran off the end without any trailer. An incomplete trailing model
        // block is exactly the torn-tail shape, so `pending` is not checked.
        Ok((store, torn(false)))
    }

    /// [`ArtifactStore::load`] with torn-tail recovery — see
    /// [`ArtifactStore::decode_recovering`]. This is the entry point a
    /// serving warm start should use: a crash mid-save costs at most the
    /// entry being written, never the whole store.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, otherwise whatever
    /// [`ArtifactStore::decode_recovering`] rejects.
    pub fn load_recovering(
        path: impl AsRef<Path>,
    ) -> Result<(ArtifactStore, TailRecovery), ArtifactError> {
        let text = std::fs::read_to_string(path)?;
        ArtifactStore::decode_recovering(&text)
    }
}

/// What [`ArtifactStore::decode_recovering`] found at the end of the
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailRecovery {
    /// The file was intact; nothing was dropped.
    Clean,
    /// The tail was torn (missing or partial `end` trailer) and was
    /// dropped; `dropped_line` says whether a damaged final body line
    /// went with it. Every entry before the tear was kept.
    Recovered {
        /// Whether a partially written final body line was discarded in
        /// addition to the trailer.
        dropped_line: bool,
    },
}

/// Parse one body line (`model ` header or `kernel ` entry) into
/// `store`, tracking the current block in `pending`.
fn parse_body_line(
    line: &str,
    lineno: usize,
    pending: &mut Option<(String, String, usize)>,
    store: &mut ArtifactStore,
) -> Result<(), ArtifactError> {
    if let Some(rest) = line.strip_prefix("model ") {
        if let Some((model, target, remaining)) = pending.take() {
            if remaining > 0 {
                return Err(ArtifactError::Truncated {
                    reason: format!(
                        "{model}/{target}: {remaining} kernel line(s) missing before line {lineno}"
                    ),
                });
            }
        }
        let mut parts = rest.splitn(3, '|');
        let model = parts.next().unwrap_or_default();
        let target = parts
            .next()
            .ok_or_else(|| corrupt(lineno, "model header needs model|target|count"))?;
        let count: usize = parts
            .next()
            .ok_or_else(|| corrupt(lineno, "model header needs model|target|count"))?
            .parse()
            .map_err(|e| corrupt(lineno, &format!("bad entry count: {e}")))?;
        if model.is_empty() || target.is_empty() {
            return Err(corrupt(lineno, "empty model or target id"));
        }
        *pending = Some((model.to_string(), target.to_string(), count));
    } else if let Some(rest) = line.strip_prefix("kernel ") {
        let (model, target, remaining) = pending
            .as_mut()
            .ok_or_else(|| corrupt(lineno, "kernel line outside a model block"))?;
        if *remaining == 0 {
            return Err(corrupt(
                lineno,
                "more kernel lines than the header declared",
            ));
        }
        *remaining -= 1;
        let entry = decode_entry_fields(rest).map_err(|e| corrupt(lineno, &e))?;
        let (model, target) = (model.clone(), target.clone());
        store.record(&model, &target, entry);
    } else {
        return Err(corrupt(lineno, "unrecognized line"));
    }
    Ok(())
}

fn corrupt(line: usize, reason: &str) -> ArtifactError {
    ArtifactError::Corrupt {
        line,
        reason: reason.to_string(),
    }
}

/// Render one entry's payload fields —
/// `workload|tuning|replay|f64-bits-hex16|[tier=<tier>|]note` — shared
/// by the store's `kernel ` lines and the journal's `put ` records so
/// the two formats can never drift on the entry encoding. Full-tier
/// entries omit the tier marker: the terminal state encodes exactly as
/// the pre-tier format did, so only transient cold entries perturb the
/// bytes (and absent decodes as full — old files keep loading).
pub(crate) fn encode_entry_fields(e: &ArtifactEntry) -> String {
    let tier = match e.tier {
        TuneTier::Full => String::new(),
        tier => format!("tier={tier}|"),
    };
    format!(
        "{}|{}|{}|{:016x}|{tier}{}",
        e.workload.encode(),
        e.tuning.encode(),
        e.replay.encode(),
        e.micros.to_bits(),
        e.note
    )
}

/// Parse the [`encode_entry_fields`] payload. Errors are plain strings;
/// callers wrap them with their own line/position context.
pub(crate) fn decode_entry_fields(s: &str) -> Result<ArtifactEntry, String> {
    let mut parts = s.splitn(5, '|');
    let workload = parts.next().ok_or("missing workload")?;
    let tuning = parts.next().ok_or("missing tuning config")?;
    let replay = parts.next().ok_or("missing replay config")?;
    let bits = parts.next().ok_or("missing latency bits")?;
    let rest = parts.next().ok_or("missing note field")?;
    let workload = CacheWorkload::decode(workload)?;
    let tuning = TuningConfig::decode(tuning)?;
    let replay = TuningConfig::decode(replay)?;
    if bits.len() != 16 {
        return Err("latency bits must be 16 hex digits".to_string());
    }
    let micros = f64::from_bits(
        u64::from_str_radix(bits, 16).map_err(|e| format!("bad latency bits: {e}"))?,
    );
    if !micros.is_finite() || micros < 0.0 {
        return Err("latency must be finite and non-negative".to_string());
    }
    // Sniff the optional tier marker. Absent = full tier (the pre-tier
    // encoding). A field that is a *torn* marker — `tier=co`, or any
    // proper prefix like `tie` — is damage, not a note: provider notes
    // never spell a tier marker, and accepting the fragment as a note
    // would silently mislabel a cold entry as full. Rejecting it lets
    // torn-tail recovery drop exactly the line being written.
    let (tier, note) = match rest.strip_prefix("tier=") {
        None => {
            if !rest.is_empty()
                && ("tier=cold|".starts_with(rest) || "tier=full|".starts_with(rest))
            {
                return Err("torn tier marker".to_string());
            }
            (TuneTier::Full, rest)
        }
        Some(marked) => {
            let (tier, note) = marked
                .split_once('|')
                .ok_or("unterminated tier marker (missing `|`)")?;
            (TuneTier::decode(tier)?, note)
        }
    };
    Ok(ArtifactEntry {
        workload,
        tuning,
        replay,
        micros,
        tier,
        note: note.to_string(),
    })
}

/// The sibling temp path an atomic write of `path` stages through
/// (pid-suffixed so concurrent processes saving the same path never
/// clobber each other's staging file; threads of one process are
/// serialized by [`write_atomically`]).
pub(crate) fn save_temp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the target, then best-effort `fsync` of the
/// parent directory so the rename itself is durable. Shared by
/// [`ArtifactStore::save`] and the journal's compaction rewrite.
///
/// Writers in one process take a process-wide lock: they share one
/// staging name per path, and two threads staging through it at once
/// would truncate and rename each other's file.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    static WRITERS: Mutex<()> = Mutex::new(());
    let _writer = lock_recovering(&WRITERS);
    let tmp = save_temp_path(path);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Directory fsync makes the rename durable; failure here
            // (e.g. an fs that cannot open directories) is not fatal.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// FNV-1a 64-bit: tiny, dependency-free, good enough to catch flipped
/// bits and truncated/edited bodies (not a cryptographic signature).
/// Shared with the journal's per-record checksums.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::tuner::{CpuTuneMode, GpuTuneMode};
    use unit_graph::OpSpec;

    fn sample_store() -> ArtifactStore {
        let tuning = TuningConfig::default();
        let replay = TuningConfig {
            cpu: CpuTuneMode::Fixed {
                par: 3000,
                unroll: 16,
            },
            gpu: GpuTuneMode::Generic,
        };
        let mut store = ArtifactStore::new();
        store.record(
            "resnet-18",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::conv2d(64, 14, 64, 3, 1, 1)),
                tuning,
                replay,
                micros: 123.456789,
                tier: TuneTier::Full,
                note: "llvm.x86.avx512.vpdpbusd.512 [parallel<3000,unroll<16]".to_string(),
            },
        );
        store.record(
            "resnet-18",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Dense {
                    in_features: 512,
                    units: 1000,
                },
                tuning,
                replay,
                micros: 17.25,
                tier: TuneTier::Full,
                note: String::new(),
            },
        );
        store.record(
            "transformer-tiny",
            "nvidia-tensor-core",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::batched_gemm(4, 64, 64, 32)),
                tuning,
                replay: TuningConfig {
                    cpu: CpuTuneMode::ParallelUnroll,
                    gpu: GpuTuneMode::Generic,
                },
                micros: 0.1 + 0.2, // deliberately non-representable exactly
                tier: TuneTier::Full,
                note: "wmma [p=2,fuse=false,splitK=1]".to_string(),
            },
        );
        // A third block, sorted first, with a cold entry: chops land in
        // every line shape, not only in the final record.
        for (spec, tier, micros) in [
            (OpSpec::conv2d(32, 28, 32, 3, 1, 1), TuneTier::Cold, 48.5),
            (OpSpec::batched_gemm(2, 16, 16, 16), TuneTier::Full, 3.0e-3),
        ] {
            store.record(
                "mobilenet-v1",
                "arm-neon-dot",
                ArtifactEntry {
                    workload: CacheWorkload::Op(spec),
                    tuning,
                    replay,
                    micros,
                    tier,
                    note: "sdot [parallel<3000,unroll<16]".to_string(),
                },
            );
        }
        store
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let store = sample_store();
        let text = store.encode();
        let back = ArtifactStore::decode(&text).unwrap();
        assert_eq!(back.len(), store.len());
        for (model, target) in store.model_targets() {
            assert_eq!(
                back.entries(&model, &target),
                store.entries(&model, &target)
            );
        }
        // Bit-exact latency: 0.1 + 0.2 != 0.3 must survive.
        let e = &back.entries("transformer-tiny", "nvidia-tensor-core")[0];
        assert_eq!(e.micros.to_bits(), (0.1f64 + 0.2).to_bits());
        // Canonical: encoding the decoded store reproduces the bytes.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn version_bump_is_rejected_with_a_typed_error() {
        let text = sample_store()
            .encode()
            .replace("unit-artifact-store v1", "unit-artifact-store v2");
        match ArtifactStore::decode(&text) {
            Err(ArtifactError::UnsupportedVersion { found }) => {
                assert_eq!(found, "unit-artifact-store v2");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected_with_a_typed_error() {
        let full = sample_store().encode();
        // Drop the trailer.
        let without_end: String = full
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            ArtifactStore::decode(&without_end),
            Err(ArtifactError::Truncated { .. })
        ));
        // Drop a kernel line mid-block: the count no longer matches.
        let mut dropped_one = false;
        let missing_kernel: String = full
            .lines()
            .filter(|l| {
                if !dropped_one && l.starts_with("kernel ") {
                    dropped_one = true;
                    false
                } else {
                    true
                }
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            ArtifactStore::decode(&missing_kernel),
            Err(ArtifactError::Truncated { .. }) | Err(ArtifactError::Corrupt { .. })
        ));
        // Empty file.
        assert!(matches!(
            ArtifactStore::decode(""),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn corruption_is_rejected_with_a_typed_error() {
        let full = sample_store().encode();
        // Field-level corruption: an unknown workload kind fails to parse.
        let bad_kind = full.replacen("kernel conv", "kernel vonc", 1);
        assert_ne!(bad_kind, full, "the fixture must contain a conv entry");
        assert!(matches!(
            ArtifactStore::decode(&bad_kind),
            Err(ArtifactError::Corrupt { .. })
        ));
        // Silent edit: a tampered note still parses, but the checksum
        // catches it.
        let tampered = full.replacen("wmma", "wmmb", 1);
        assert_ne!(tampered, full, "the fixture must contain a wmma note");
        assert!(matches!(
            ArtifactStore::decode(&tampered),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        // A stray line between body and trailer is corruption.
        let stray = full.replace("end ", "garbage\nend ");
        assert!(matches!(
            ArtifactStore::decode(&stray),
            Err(ArtifactError::Corrupt { .. })
        ));
        // Invalid group structure is caught by workload validation even
        // when someone recomputes the checksum.
        let mut bad_groups = sample_store();
        bad_groups.record(
            "m",
            "t",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
                tuning: TuningConfig::default(),
                replay: TuningConfig::default(),
                micros: 1.0,
                tier: TuneTier::Full,
                note: String::new(),
            },
        );
        let text = bad_groups.encode().replace("gemm:1:8:8:8", "gemm:1:8:8:0");
        let body: String = text
            .lines()
            .skip(1)
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect();
        let rechecksummed = format!(
            "{ARTIFACT_FORMAT_VERSION}\n{body}end {:016x}\n",
            fnv1a(body.as_bytes())
        );
        assert!(matches!(
            ArtifactStore::decode(&rechecksummed),
            Err(ArtifactError::Corrupt { .. })
        ));
    }

    /// Every recovered entry must match an original entry with the same
    /// workload+tuning identity — bit-exact latency and replay config,
    /// and a note that is at worst a prefix of the original (a chop
    /// inside the note still parses, since the note is the last field).
    fn assert_entries_survive(original: &ArtifactStore, recovered: &ArtifactStore, ctx: &str) {
        for (model, target) in recovered.model_targets() {
            for e in recovered.entries(&model, &target) {
                let orig = original
                    .lookup(&model, &target, &e.workload, e.tuning)
                    .unwrap_or_else(|| panic!("{ctx}: recovered entry not in the original"));
                assert_eq!(e.replay, orig.replay, "{ctx}");
                assert_eq!(e.micros.to_bits(), orig.micros.to_bits(), "{ctx}");
                assert!(
                    orig.note.starts_with(&e.note),
                    "{ctx}: note {:?} is not a prefix of {:?}",
                    e.note,
                    orig.note
                );
            }
        }
    }

    #[test]
    fn chopping_the_final_record_recovers_at_every_byte_offset() {
        let store = sample_store();
        let full = store.encode();
        let n = store.len();
        // The final record: the last kernel line plus the end trailer.
        let final_record = full.rfind("\nkernel ").unwrap() + 1;
        for cut in final_record..full.len() {
            let chopped = &full[..cut];
            let ctx = format!("cut at byte {cut}");
            let (back, how) =
                ArtifactStore::decode_recovering(chopped).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            // The torn final entry either still parses (the chop landed
            // in its note, the last field) or is dropped — recovery
            // never costs more than the entry being written.
            assert!(
                back.len() == n || back.len() == n - 1,
                "{ctx}: kept {} of {n}",
                back.len()
            );
            // Only removing the trailing newline leaves the file intact.
            if ArtifactStore::decode(chopped).is_ok() {
                assert_eq!(how, TailRecovery::Clean, "{ctx}");
                assert_eq!(back.len(), n, "{ctx}");
            } else {
                assert!(matches!(how, TailRecovery::Recovered { .. }), "{ctx}");
            }
            assert_entries_survive(&store, &back, &ctx);
        }
    }

    #[test]
    fn chopping_anywhere_keeps_every_complete_entry() {
        let store = sample_store();
        let full = store.encode();
        let body_start = full.find('\n').unwrap() + 1;
        for cut in body_start..=full.len() {
            let chopped = &full[..cut];
            let ctx = format!("cut at byte {cut}");
            let (back, how) =
                ArtifactStore::decode_recovering(chopped).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            // Every kernel line a newline still ends survives; the cut
            // line's entry survives too when the cut landed in its note.
            let lines: Vec<&str> = chopped.split_inclusive('\n').collect();
            let complete = lines
                .iter()
                .filter(|l| l.starts_with("kernel ") && l.ends_with('\n'))
                .count();
            let cut_kernel = lines
                .last()
                .is_some_and(|l| l.starts_with("kernel ") && !l.ends_with('\n'));
            assert!(
                back.len() == complete || (cut_kernel && back.len() == complete + 1),
                "{ctx}: kept {} with {complete} complete kernel lines",
                back.len()
            );
            assert_entries_survive(&store, &back, &ctx);
            // Only the intact file, or one missing its final newline,
            // decodes strictly and recovers as clean.
            let intact = cut + 1 >= full.len();
            assert_eq!(ArtifactStore::decode(chopped).is_ok(), intact, "{ctx}");
            assert_eq!(how == TailRecovery::Clean, intact, "{ctx}");
        }
    }

    #[test]
    fn missing_trailer_alone_recovers_every_entry() {
        let store = sample_store();
        let without_end: String = store
            .encode()
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(ArtifactStore::decode(&without_end).is_err());
        let (back, how) = ArtifactStore::decode_recovering(&without_end).unwrap();
        assert_eq!(
            how,
            TailRecovery::Recovered {
                dropped_line: false
            }
        );
        assert_eq!(back.len(), store.len());
        assert_entries_survive(&store, &back, "missing trailer");
    }

    #[test]
    fn recovery_still_rejects_mid_file_damage() {
        let full = sample_store().encode();
        // Version mismatch: never recovered.
        let versioned = full.replace("unit-artifact-store v1", "unit-artifact-store v2");
        assert!(matches!(
            ArtifactStore::decode_recovering(&versioned),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));
        // A full trailer with a disagreeing body is corruption, not a
        // torn tail: the save completed, then something edited the file.
        let tampered = full.replacen("wmma", "wmmb", 1);
        assert_ne!(tampered, full);
        assert!(matches!(
            ArtifactStore::decode_recovering(&tampered),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        // A damaged line *followed by more content* is mid-file damage.
        let bad_kind = full.replacen("kernel conv", "kernel vonc", 1);
        assert_ne!(bad_kind, full);
        assert!(matches!(
            ArtifactStore::decode_recovering(&bad_kind),
            Err(ArtifactError::Corrupt { .. })
        ));
        // A stray line between body and trailer, likewise.
        let stray = full.replace("end ", "garbage\nend ");
        assert!(matches!(
            ArtifactStore::decode_recovering(&stray),
            Err(ArtifactError::Corrupt { .. })
        ));
    }

    #[test]
    fn clean_files_recover_as_clean() {
        let store = sample_store();
        let (back, how) = ArtifactStore::decode_recovering(&store.encode()).unwrap();
        assert_eq!(how, TailRecovery::Clean);
        assert_eq!(back.encode(), store.encode());
    }

    #[test]
    fn record_replaces_same_identity_entries() {
        let mut store = sample_store();
        let n = store.len();
        let tuning = TuningConfig::default();
        store.record(
            "resnet-18",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::conv2d(64, 14, 64, 3, 1, 1)),
                tuning,
                replay: tuning,
                micros: 99.0,
                tier: TuneTier::Full,
                note: "updated".to_string(),
            },
        );
        assert_eq!(store.len(), n, "same identity replaces, not appends");
        let got = store
            .lookup(
                "resnet-18",
                "x86-avx512-vnni",
                &CacheWorkload::Op(OpSpec::conv2d(64, 14, 64, 3, 1, 1)),
                tuning,
            )
            .unwrap();
        assert_eq!(got.note, "updated");
    }

    #[test]
    #[should_panic(expected = "artifact ids")]
    fn pipe_in_model_id_is_rejected() {
        let tuning = TuningConfig::default();
        ArtifactStore::new().record(
            "bad|id",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
                tuning,
                replay: tuning,
                micros: 1.0,
                tier: TuneTier::Full,
                note: String::new(),
            },
        );
    }

    #[test]
    fn save_is_atomic_under_a_simulated_mid_save_crash() {
        // Regression: `save` used to `fs::write` the final path directly,
        // so a crash mid-save tore the very file warm starts depend on.
        // Now the bytes stage through a sibling temp file and land via
        // rename: a crash before the rename leaves the previous store
        // byte-identical and strictly loadable (no recovery needed).
        let dir = std::env::temp_dir().join(format!("unit-atomic-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        let old = sample_store();
        old.save(&path).unwrap();
        assert!(
            !save_temp_path(&path).exists(),
            "a completed save leaves no staging file behind"
        );

        // Simulate the crash: a new save that died after writing half its
        // temp file and never reached the rename.
        let mut bigger = sample_store();
        bigger.record(
            "extra-model",
            "x86-avx512-vnni",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::gemm(32, 32, 32)),
                tuning: TuningConfig::default(),
                replay: TuningConfig::default(),
                micros: 3.5,
                tier: TuneTier::Full,
                note: "late arrival".to_string(),
            },
        );
        let torn = &bigger.encode()[..bigger.encode().len() / 2];
        std::fs::write(save_temp_path(&path), torn).unwrap();

        // The store at `path` is untouched: strict decode (not the
        // recovering path) still sees the exact old bytes.
        let back = ArtifactStore::load(&path).expect("old store survives the crash intact");
        assert_eq!(back.encode(), old.encode());

        // A subsequent completed save replaces it and cleans up staging.
        bigger.save(&path).unwrap();
        assert!(!save_temp_path(&path).exists());
        let back = ArtifactStore::load(&path).unwrap();
        assert_eq!(back.encode(), bigger.encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retire_target_drops_every_model_entry_for_it() {
        let mut store = sample_store();
        let total = store.len();
        let vnni: usize = store
            .model_targets()
            .iter()
            .filter(|(_, t)| t == "x86-avx512-vnni")
            .map(|(m, t)| store.entries(m, t).len())
            .sum();
        assert!(vnni > 0);
        let removed = store.retire_target("x86-avx512-vnni");
        assert_eq!(removed, vnni);
        assert_eq!(store.len(), total - vnni);
        assert!(store.entries("resnet-18", "x86-avx512-vnni").is_empty());
        // Other targets are untouched and the store still round-trips.
        assert!(!store
            .entries("transformer-tiny", "nvidia-tensor-core")
            .is_empty());
        let back = ArtifactStore::decode(&store.encode()).unwrap();
        assert_eq!(back.encode(), store.encode());
        assert_eq!(store.retire_target("x86-avx512-vnni"), 0, "idempotent");
    }

    fn tiered_entry(tier: TuneTier, note: &str) -> ArtifactEntry {
        ArtifactEntry {
            workload: CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
            tuning: TuningConfig::default(),
            replay: TuningConfig {
                cpu: CpuTuneMode::Fixed { par: 64, unroll: 4 },
                gpu: GpuTuneMode::Generic,
            },
            micros: 42.5,
            tier,
            note: note.to_string(),
        }
    }

    #[test]
    fn tiered_entries_round_trip_and_absent_tier_decodes_full() {
        let mut store = ArtifactStore::new();
        store.record("m", "t", tiered_entry(TuneTier::Cold, "cheap|pick"));
        store.record("m2", "t", tiered_entry(TuneTier::Full, "final pick"));
        let text = store.encode();
        assert!(text.contains("|tier=cold|"), "{text}");
        assert!(
            !text.contains("tier=full"),
            "full tier stays implicit (pre-tier bytes): {text}"
        );
        let back = ArtifactStore::decode(&text).unwrap();
        assert_eq!(back.entries("m", "t")[0].tier, TuneTier::Cold);
        assert_eq!(back.entries("m", "t")[0].note, "cheap|pick");
        assert_eq!(back.entries("m2", "t")[0].tier, TuneTier::Full);
        assert_eq!(back.encode(), text, "canonical through the tier marker");

        // Absent marker = full tier: the pre-tier encoding still loads.
        assert_eq!(
            decode_entry_fields(&encode_entry_fields(&tiered_entry(TuneTier::Full, "n")))
                .unwrap()
                .tier,
            TuneTier::Full
        );
        // Torn markers are damage, not notes.
        for bad in ["tier=co|x", "tier=cold", "tier=", "tie"] {
            let line = format!(
                "gemm:1:8:8:8|{t}|{t}|{:016x}|{bad}",
                42.5f64.to_bits(),
                t = TuningConfig::default().encode()
            );
            assert!(
                decode_entry_fields(&line).is_err(),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn chopping_a_cold_record_recovers_or_drops_never_mislabels() {
        // The torn-tail walk over a *cold* final record: every chop
        // offset either keeps the entry with its tier intact (the chop
        // landed in the note) or drops the line — never a full-tier
        // mislabel from a half-written `tier=cold|` marker.
        let mut store = ArtifactStore::new();
        store.record("m", "t", tiered_entry(TuneTier::Cold, "cold note"));
        let full = store.encode();
        let final_record = full.rfind("\nkernel ").unwrap() + 1;
        // A chop at exactly the marker start leaves `…|<micros>|` — a
        // syntactically complete pre-tier line with an empty note,
        // byte-identical to a legitimate full-tier record. Undetectable
        // by construction (the marker is what distinguishes tiers), so
        // that one offset is allowed to decode as full/empty-note.
        let marker_start = full.rfind("|tier=cold|").unwrap() + 1;
        for cut in final_record..full.len() {
            let chopped = &full[..cut];
            let (back, _) = ArtifactStore::decode_recovering(chopped)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            match back.entries("m", "t") {
                [] => {}
                [e] if cut == marker_start => {
                    assert_eq!(e.tier, TuneTier::Full, "cut at byte {cut}");
                    assert!(e.note.is_empty(), "cut at byte {cut}");
                }
                [e] => {
                    assert_eq!(e.tier, TuneTier::Cold, "cut at byte {cut} mislabeled");
                    assert!("cold note".starts_with(&e.note), "cut at byte {cut}");
                }
                more => panic!("cut at byte {cut}: {} entries", more.len()),
            }
        }
    }

    #[test]
    fn merge_keeps_the_higher_tier_in_both_directions() {
        // Satellite regression: merge used to replace unconditionally,
        // so a tier-2 (cold) record tailed from a slow peer clobbered a
        // local tier-16 (full) entry.
        let cold = tiered_entry(TuneTier::Cold, "cheap");
        let full = tiered_entry(TuneTier::Full, "retuned");

        // Direction 1: cold incoming, full incumbent → incumbent wins.
        let mut local = ArtifactStore::new();
        local.record("m", "t", full.clone());
        let mut peer = ArtifactStore::new();
        peer.record("m", "t", cold.clone());
        local.merge(peer);
        assert_eq!(local.entries("m", "t"), std::slice::from_ref(&full));

        // Direction 2: full incoming, cold incumbent → upgrade lands.
        let mut local = ArtifactStore::new();
        local.record("m", "t", cold.clone());
        let mut peer = ArtifactStore::new();
        peer.record("m", "t", full.clone());
        local.merge(peer);
        assert_eq!(local.entries("m", "t"), std::slice::from_ref(&full));

        // Tie goes to the incumbent.
        let mut local = ArtifactStore::new();
        local.record("m", "t", tiered_entry(TuneTier::Full, "incumbent"));
        let mut peer = ArtifactStore::new();
        peer.record("m", "t", tiered_entry(TuneTier::Full, "challenger"));
        local.merge(peer);
        assert_eq!(local.entries("m", "t")[0].note, "incumbent");

        // And absorb reports whether the entry landed.
        let mut store = ArtifactStore::new();
        assert!(store.absorb("m", "t", cold.clone()));
        assert!(!store.absorb("m", "t", cold.clone()), "tie → incumbent");
        assert!(store.absorb("m", "t", full.clone()), "upgrade lands");
        assert!(!store.absorb("m", "t", cold), "downgrade refused");
        assert_eq!(store.entries("m", "t"), &[full]);
    }

    #[test]
    fn notes_may_contain_pipes() {
        let tuning = TuningConfig::default();
        let mut store = ArtifactStore::new();
        store.record(
            "m",
            "t",
            ArtifactEntry {
                workload: CacheWorkload::Op(OpSpec::gemm(8, 8, 8)),
                tuning,
                replay: tuning,
                micros: 2.5,
                tier: TuneTier::Full,
                note: "a|b|c".to_string(),
            },
        );
        let back = ArtifactStore::decode(&store.encode()).unwrap();
        assert_eq!(back.entries("m", "t")[0].note, "a|b|c");
    }
}
