//! The fleet-shared artifact **journal** — append-only persistence for
//! tuning decisions, shared live by N serving replicas on one host.
//!
//! The whole-file [`ArtifactStore::save`](crate::ArtifactStore::save) /
//! `load` cycle is fine for a single process, but replicas sharing one
//! path would overwrite each other's entries (last writer wins the
//! *whole file*). The journal replaces it with an append-only log under
//! an advisory file lock: each replica appends the decisions it makes,
//! and tails the decisions everyone else appended — so replica B
//! warm-starts search-free off a kernel replica A tuned seconds ago.
//!
//! # File format (version 3)
//!
//! Line-oriented text, one record per line, hand-rolled like
//! [`crate::artifact`]:
//!
//! ```text
//! unit-artifact-journal v3 gen <generation>
//! put <fnv1a-64-hex16> <model>|<target>|<workload>|<tuning>|<replay>|<f64-bits-hex16>|[tier=<tier>|]<note>
//! retire <fnv1a-64-hex16> <target>
//! ...
//! ```
//!
//! * The `put` payload after the checksum reuses the store's entry
//!   encoding verbatim (`crate::artifact::encode_entry_fields`), so the
//!   two formats cannot drift. Version 3 adds the optional
//!   `tier=<tier>|` marker before the note (cold-tier decisions awaiting
//!   a background re-tune); full-tier records omit it, and **absent
//!   decodes as full tier** — which is the entire v2→v3 delta.
//! * Every record carries its own FNV-1a 64 checksum — **before** the
//!   payload, because the trailing note field may contain `|` and must
//!   stay last. A `\n`-terminated line whose checksum disagrees is hard
//!   corruption; a final line with *no* `\n` is a torn append (a crash
//!   mid-`write`) and is healed by truncation.
//! * `gen` is the **compaction generation**. Compaction rewrites the
//!   file atomically with `gen + 1`; tailing readers that see a new
//!   generation re-read from the top instead of resuming a byte offset
//!   that no longer means anything. Re-reading is idempotent: `put`
//!   replaces same-identity entries, `retire` is a no-op when already
//!   applied.
//!
//! Version 1 (`unit-artifact-journal v1`, `add <payload>` lines, no
//! checksums or generation) and version 2 (`unit-artifact-journal v2` —
//! same record grammar, no tier markers: every record decodes as a
//! full-tier decision) are migrated to v3 atomically on
//! [`Journal::open`]. The v2 migration preserves the file's compaction
//! generation, so tailing replicas' cursors stay meaningful.
//!
//! # Durability
//!
//! [`Journal::append`] writes a whole batch of records with one `write`
//! and one `fsync` under the exclusive lock. The serving engine appends
//! once per engine call, batching every decision the call made, so a
//! decision is durable before the call that made it returns. A crash
//! mid-call loses only that call's decisions, which a later compile
//! searches again. A crash mid-`write` tears at most the batch being
//! written, and that batch keeps its complete records: every line
//! carries its own checksum, readers stop before the unterminated final
//! line, and the next append truncates it.
//!
//! # Lock protocol
//!
//! All cross-process exclusion uses an advisory lock on a **sentinel
//! file** `<path>.lock` — never on the journal itself, because
//! compaction replaces the journal inode via rename and a lock on the
//! old inode would no longer exclude anyone. Writers (append, compact,
//! open/migrate) take the lock exclusively; readers (poll, snapshot)
//! take it shared. Locks are advisory: every accessor in this module
//! takes one, and external tooling must too.
//!
//! # Compaction & GC
//!
//! [`Journal::append`] auto-compacts when the file outgrows
//! [`JournalConfig::max_bytes`] (with a doubling floor so a live set
//! that is itself near the cap does not trigger a rewrite on every
//! append). Compaction folds the log into an [`ArtifactStore`] — at
//! which point `retire` records have deleted every entry for their
//! target — and atomically rewrites the file as pure `put` records in
//! canonical store order under `gen + 1`. Retired-target entries are
//! thereby garbage-collected, and the `retire` records themselves
//! vanish with them.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::artifact::{
    decode_entry_fields, encode_entry_fields, fnv1a, write_atomically, ArtifactEntry,
    ArtifactError, ArtifactStore,
};
use crate::lock_recovering;

/// The version+generation prefix this build writes and accepts.
pub const JOURNAL_FORMAT_VERSION: &str = "unit-artifact-journal v3";

/// The legacy v1 header [`Journal::open`] migrates from.
pub const JOURNAL_V1_VERSION: &str = "unit-artifact-journal v1";

/// The legacy v2 header [`Journal::open`] migrates from (identical
/// record grammar, no tier markers — every v2 record is full-tier).
pub const JOURNAL_V2_VERSION: &str = "unit-artifact-journal v2";

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A tuning decision for `(model, target)` — same payload as a
    /// store `kernel` line.
    Put {
        /// Model id.
        model: String,
        /// Target id.
        target: String,
        /// The persisted decision (boxed: an entry dwarfs the other
        /// variant and records travel in `Vec`s).
        entry: Box<ArtifactEntry>,
    },
    /// Retire a target fleet-wide: replicas drop its entries on tail,
    /// compaction garbage-collects them from the file.
    Retire {
        /// Target id being retired.
        target: String,
    },
}

/// Where the journal lives and when it auto-compacts.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal file path. The advisory lock lives at `<path>.lock`.
    pub path: PathBuf,
    /// Auto-compact when an append leaves the file larger than this.
    /// The live set may legitimately exceed it; a doubling floor keeps
    /// compaction amortized instead of per-append in that regime.
    pub max_bytes: u64,
}

impl JournalConfig {
    /// A config at `path` with the default 1 MiB compaction threshold.
    pub fn at(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            path: path.into(),
            max_bytes: 1 << 20,
        }
    }
}

/// Process-local tail cursor: where this replica has read up to, valid
/// only for the generation it was taken in.
#[derive(Debug, Clone, Copy)]
struct TailState {
    /// Generation the offset belongs to.
    generation: u64,
    /// Byte offset just past the last record this replica has applied.
    offset: usize,
    /// Auto-compaction trigger: compact only once the file exceeds
    /// this. Starts at `max_bytes` and doubles past the live-set size
    /// after each compaction.
    compact_floor: u64,
}

/// A handle on the shared journal file. Cheap to clone behind an `Arc`;
/// every operation re-opens the file under the advisory lock, so
/// multiple processes (and multiple engines in one process) can hold
/// handles on the same path concurrently.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    lock_path: PathBuf,
    max_bytes: u64,
    tail: Mutex<TailState>,
    /// Appends that reached the file (one `write` + `fsync` each).
    writes: AtomicU64,
}

impl Journal {
    /// Open (creating or migrating as needed) the journal at
    /// `config.path`.
    ///
    /// * Missing file → created atomically with an empty v3 header.
    /// * v1 file → migrated atomically to v3 (generation 1), keeping
    ///   every valid record and dropping a torn v1 tail.
    /// * v2 file → migrated atomically to v3, preserving the file's
    ///   generation; every v2 record decodes as a full-tier decision
    ///   (absent tier marker = full) and re-encodes byte-identically
    ///   under the new header. A torn v2 tail is dropped.
    /// * v3 file → validated (header + every complete record).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure,
    /// [`ArtifactError::UnsupportedVersion`] on an unknown header,
    /// [`ArtifactError::Corrupt`] on a checksum-failing complete record.
    pub fn open(config: JournalConfig) -> Result<Journal, ArtifactError> {
        let journal = Journal {
            lock_path: lock_path_of(&config.path),
            path: config.path,
            max_bytes: config.max_bytes.max(1),
            tail: Mutex::new(TailState {
                generation: 0,
                offset: 0,
                compact_floor: config.max_bytes.max(1),
            }),
            writes: AtomicU64::new(0),
        };
        let _lock = journal.lock_file(true)?;
        match std::fs::read_to_string(&journal.path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_atomically(&journal.path, render_header(1).as_bytes())?;
            }
            Err(e) => return Err(e.into()),
            Ok(text) => {
                // Validate header + all complete records up front so a
                // corrupt journal fails at open, not mid-serving. A torn
                // tail is fine (healed on the next append).
                let (generation, records) = if text.starts_with(JOURNAL_V1_VERSION) {
                    (1, parse_v1(&text)?)
                } else {
                    let parsed = parse_journal(&text)?;
                    if !parsed.legacy {
                        return Ok(journal);
                    }
                    (parsed.generation, parsed.records)
                };
                // A migration rewrites the complete records under the v3
                // header, dropping a torn tail. v2 records re-encode
                // unchanged (none carries a tier marker, and absent decodes
                // as full tier), and the v2 generation is kept so other
                // handles' tail cursors stay coherent.
                let mut out = render_header(generation);
                for r in &records {
                    out.push_str(&encode_record(r));
                }
                write_atomically(&journal.path, out.as_bytes())?;
            }
        }
        Ok(journal)
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The current compaction generation (starts at 1, bumped by every
    /// compaction).
    ///
    /// # Errors
    ///
    /// Propagates read/parse failures like [`Journal::poll`].
    pub fn generation(&self) -> Result<u64, ArtifactError> {
        let _lock = self.lock_file(false)?;
        let text = std::fs::read_to_string(&self.path)?;
        Ok(parse_journal(&text)?.generation)
    }

    /// Append records to the journal under the exclusive lock, healing
    /// a torn tail (a previous appender's crash) first, then
    /// auto-compacting if the file outgrew the size policy. Returns
    /// whether a compaction ran.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure; compaction can also
    /// surface [`ArtifactError::Corrupt`] on a damaged record.
    ///
    /// # Panics
    ///
    /// Panics when a record carries an empty id or one containing `|`
    /// or a newline — same contract as [`ArtifactStore::record`].
    pub fn append(&self, records: &[JournalRecord]) -> Result<bool, ArtifactError> {
        if records.is_empty() {
            return Ok(false);
        }
        let mut buf = String::new();
        for r in records {
            for id in r.ids() {
                assert!(
                    !id.is_empty() && !id.contains('|') && !id.contains('\n'),
                    "journal ids must be non-empty and free of `|`/newlines: {id:?}"
                );
            }
            buf.push_str(&encode_record(r));
        }

        let _lock = self.lock_file(true)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        let healed_len = heal_torn_tail(&mut file)?;
        file.seek(SeekFrom::Start(healed_len))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        file.write_all(buf.as_bytes())?;
        file.sync_all()?;
        let len = healed_len + buf.len() as u64;
        drop(file);

        let floor = {
            let state = lock_recovering(&self.tail);
            state.compact_floor.max(self.max_bytes)
        };
        if len > floor {
            self.compact_locked()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// The records appended (by anyone) since this handle last read the
    /// journal. After a compaction the generation changes and the full
    /// post-compaction contents are returned — re-applying them is
    /// idempotent for the store fold.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, otherwise the
    /// parse errors of a corrupt journal.
    pub fn poll(&self) -> Result<Vec<JournalRecord>, ArtifactError> {
        let _lock = self.lock_file(false)?;
        let text = std::fs::read_to_string(&self.path)?;
        let parsed = parse_journal(&text)?;
        let mut state = lock_recovering(&self.tail);
        let start = if state.generation == parsed.generation && state.offset <= parsed.valid_end {
            state.offset
        } else {
            parsed.body_start
        };
        let (records, valid_end) = parse_records_from(&text, start)?;
        state.generation = parsed.generation;
        state.offset = valid_end;
        Ok(records)
    }

    /// Fold the entire journal into an [`ArtifactStore`] (the
    /// warm-start entry point) and advance this handle's tail cursor to
    /// the end, so a subsequent [`Journal::poll`] only reports records
    /// appended afterwards.
    ///
    /// # Errors
    ///
    /// Same as [`Journal::poll`].
    pub fn snapshot(&self) -> Result<ArtifactStore, ArtifactError> {
        let _lock = self.lock_file(false)?;
        let text = std::fs::read_to_string(&self.path)?;
        let parsed = parse_journal(&text)?;
        let store = fold_records(parsed.records);
        let mut state = lock_recovering(&self.tail);
        state.generation = parsed.generation;
        state.offset = parsed.valid_end;
        Ok(store)
    }

    /// Compact the journal now: fold, GC retired targets, atomically
    /// rewrite as canonical `put` records under the next generation.
    ///
    /// # Errors
    ///
    /// Same as [`Journal::poll`], plus write failures.
    pub fn compact(&self) -> Result<(), ArtifactError> {
        let _lock = self.lock_file(true)?;
        self.compact_locked()
    }

    /// Compaction body; the caller must hold the exclusive lock.
    fn compact_locked(&self) -> Result<(), ArtifactError> {
        let text = std::fs::read_to_string(&self.path)?;
        let parsed = parse_journal(&text)?;
        let store = fold_records(parsed.records);
        let mut out = render_header(parsed.generation + 1);
        for record in store_records(&store) {
            out.push_str(&encode_record(&record));
        }
        let new_len = out.len() as u64;
        write_atomically(&self.path, out.as_bytes())?;
        let mut state = lock_recovering(&self.tail);
        // Doubling floor: don't re-compact until the file has grown
        // well past the live set we just wrote.
        state.compact_floor = self.max_bytes.max(new_len.saturating_mul(2));
        Ok(())
    }

    /// Appends by this handle that reached the file.
    #[cfg(test)]
    pub(crate) fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Open (creating) and lock the sentinel file.
    fn lock_file(&self, exclusive: bool) -> Result<File, ArtifactError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.lock_path)?;
        if exclusive {
            file.lock()?;
        } else {
            file.lock_shared()?;
        }
        Ok(file)
    }
}

impl JournalRecord {
    /// The ids this record carries (for validation).
    fn ids(&self) -> Vec<&str> {
        match self {
            JournalRecord::Put { model, target, .. } => vec![model, target],
            JournalRecord::Retire { target } => vec![target],
        }
    }
}

/// Every entry of `store` as `put` records, in the store's canonical
/// order — what compaction writes, and what a whole-store import
/// appends.
#[must_use]
pub fn store_records(store: &ArtifactStore) -> Vec<JournalRecord> {
    let mut records = Vec::new();
    for (model, target) in store.model_targets() {
        for entry in store.entries(&model, &target) {
            records.push(JournalRecord::Put {
                model: model.clone(),
                target: target.clone(),
                entry: Box::new(entry.clone()),
            });
        }
    }
    records
}

/// Fold records into a store: `put` records replace same-identity
/// entries (chronological last-wins at equal tier, but never a
/// *downgrade* — a cold-tier record a slow peer appended after another
/// replica's full-tier upgrade must not resurrect the cheap kernel in
/// the fold), `retire` records drop their target's entries.
#[must_use]
pub fn fold_records(records: Vec<JournalRecord>) -> ArtifactStore {
    let mut store = ArtifactStore::new();
    for record in records {
        match record {
            JournalRecord::Put {
                model,
                target,
                entry,
            } => {
                let downgrade = store
                    .lookup(&model, &target, &entry.workload, entry.tuning)
                    .is_some_and(|e| e.tier > entry.tier);
                if !downgrade {
                    store.record(&model, &target, *entry);
                }
            }
            JournalRecord::Retire { target } => {
                store.retire_target(&target);
            }
        }
    }
    store
}

/// The sentinel lock path for a journal at `path`.
fn lock_path_of(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".lock");
    path.with_file_name(name)
}

fn render_header(generation: u64) -> String {
    format!("{JOURNAL_FORMAT_VERSION} gen {generation}\n")
}

/// Render one record line (with trailing newline): checksum before the
/// payload because the note field may contain `|` and must stay last.
fn encode_record(record: &JournalRecord) -> String {
    let (kind, payload) = match record {
        JournalRecord::Put {
            model,
            target,
            entry,
        } => (
            "put",
            format!("{model}|{target}|{}", encode_entry_fields(entry)),
        ),
        JournalRecord::Retire { target } => ("retire", target.clone()),
    };
    format!("{kind} {:016x} {payload}\n", fnv1a(payload.as_bytes()))
}

/// Parse one complete (`\n`-terminated, newline stripped) record line.
fn parse_record(line: &str, lineno: usize) -> Result<JournalRecord, ArtifactError> {
    let corrupt = |reason: &str| ArtifactError::Corrupt {
        line: lineno,
        reason: reason.to_string(),
    };
    let (kind, rest) = line
        .split_once(' ')
        .ok_or_else(|| corrupt("record needs `<kind> <checksum> <payload>`"))?;
    let (sum, payload) = rest
        .split_once(' ')
        .ok_or_else(|| corrupt("record needs `<kind> <checksum> <payload>`"))?;
    if sum.len() != 16 || !sum.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(corrupt("checksum must be 16 hex digits"));
    }
    let found = format!("{:016x}", fnv1a(payload.as_bytes()));
    if sum != found {
        return Err(corrupt(&format!(
            "record checksum mismatch: line says {sum}, payload hashes to {found}"
        )));
    }
    match kind {
        "put" => {
            let mut parts = payload.splitn(3, '|');
            let model = parts.next().unwrap_or_default();
            let target = parts
                .next()
                .ok_or_else(|| corrupt("put payload needs model|target|entry"))?;
            let entry_fields = parts
                .next()
                .ok_or_else(|| corrupt("put payload needs model|target|entry"))?;
            if model.is_empty() || target.is_empty() {
                return Err(corrupt("empty model or target id"));
            }
            let entry = decode_entry_fields(entry_fields).map_err(|e| corrupt(&e))?;
            Ok(JournalRecord::Put {
                model: model.to_string(),
                target: target.to_string(),
                entry: Box::new(entry),
            })
        }
        "retire" => {
            if payload.is_empty() || payload.contains('|') {
                return Err(corrupt("retire payload must be a bare target id"));
            }
            Ok(JournalRecord::Retire {
                target: payload.to_string(),
            })
        }
        other => Err(corrupt(&format!("unknown record kind `{other}`"))),
    }
}

/// A fully parsed v2 or v3 journal.
struct ParsedJournal {
    /// A v2 header, which [`Journal::open`] migrates to v3.
    legacy: bool,
    generation: u64,
    /// Byte offset of the first record (just past the header line).
    body_start: usize,
    /// Every complete record.
    records: Vec<JournalRecord>,
    /// Byte offset just past the last complete record; bytes beyond
    /// this are a torn tail.
    valid_end: usize,
}

/// Parse the header + every complete record. The header's version tag
/// is the whole line up to ` gen `: exactly v3, or v2 (the same record
/// grammar without tier markers). A trailing fragment with no `\n` (a
/// torn append) is tolerated and excluded from `valid_end`; a
/// `\n`-terminated line that fails its checksum is hard corruption.
fn parse_journal(text: &str) -> Result<ParsedJournal, ArtifactError> {
    let header_end = text.find('\n').ok_or_else(|| ArtifactError::Truncated {
        reason: "journal header line is incomplete".to_string(),
    })?;
    let header = &text[..header_end];
    let (version, generation) = header.split_once(" gen ").unwrap_or((header, ""));
    if version != JOURNAL_FORMAT_VERSION && version != JOURNAL_V2_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: header.to_string(),
        });
    }
    let generation = generation
        .parse::<u64>()
        .map_err(|_| ArtifactError::Corrupt {
            line: 1,
            reason: format!("bad generation in header `{header}`"),
        })?;
    let body_start = header_end + 1;
    let (records, valid_end) = parse_records_from(text, body_start)?;
    Ok(ParsedJournal {
        legacy: version == JOURNAL_V2_VERSION,
        generation,
        body_start,
        records,
        valid_end,
    })
}

/// Parse complete records from byte offset `start` (which must sit on a
/// line boundary at or past the header). Returns the records and the
/// offset just past the last complete one.
fn parse_records_from(
    text: &str,
    start: usize,
) -> Result<(Vec<JournalRecord>, usize), ArtifactError> {
    let mut records = Vec::new();
    let mut pos = start;
    let mut lineno = 1 + text[..start].matches('\n').count();
    while pos < text.len() {
        let Some(nl) = text[pos..].find('\n') else {
            break; // torn tail: a crashed append's partial line
        };
        lineno += 1;
        records.push(parse_record(&text[pos..pos + nl], lineno)?);
        pos += nl + 1;
    }
    Ok((records, pos))
}

/// Parse a legacy v1 journal (`add <model>|<target>|<entry>` lines, no
/// checksums, no generation). A torn final line (no `\n`) is dropped;
/// any complete line that fails to parse is corruption.
fn parse_v1(text: &str) -> Result<Vec<JournalRecord>, ArtifactError> {
    let header_end = text.find('\n').ok_or_else(|| ArtifactError::Truncated {
        reason: "v1 journal header line is incomplete".to_string(),
    })?;
    let header = &text[..header_end];
    if header != JOURNAL_V1_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: header.to_string(),
        });
    }
    let mut records = Vec::new();
    let mut pos = header_end + 1;
    let mut lineno = 1;
    while pos < text.len() {
        let Some(nl) = text[pos..].find('\n') else {
            break; // torn v1 tail: dropped by the migration
        };
        lineno += 1;
        let line = &text[pos..pos + nl];
        pos += nl + 1;
        let corrupt = |reason: String| ArtifactError::Corrupt {
            line: lineno,
            reason,
        };
        let payload = line
            .strip_prefix("add ")
            .ok_or_else(|| corrupt(format!("unknown v1 record `{line}`")))?;
        let mut parts = payload.splitn(3, '|');
        let model = parts.next().unwrap_or_default();
        let target = parts
            .next()
            .ok_or_else(|| corrupt("v1 add needs model|target|entry".to_string()))?;
        let entry_fields = parts
            .next()
            .ok_or_else(|| corrupt("v1 add needs model|target|entry".to_string()))?;
        if model.is_empty() || target.is_empty() {
            return Err(corrupt("empty model or target id".to_string()));
        }
        let entry = decode_entry_fields(entry_fields).map_err(corrupt)?;
        records.push(JournalRecord::Put {
            model: model.to_string(),
            target: target.to_string(),
            entry: Box::new(entry),
        });
    }
    Ok(records)
}

/// Truncate a torn tail (bytes after the last `\n`) left by a crashed
/// append, returning the healed length. The caller must hold the
/// exclusive lock. A file with no `\n` at all never came from us
/// (headers are written atomically) and is rejected rather than
/// truncated to nothing.
fn heal_torn_tail(file: &mut File) -> Result<u64, ArtifactError> {
    let len = file.metadata()?.len();
    let mut last_nl: Option<u64> = None;
    let mut chunk_end = len;
    let mut buf = vec![0u8; 4096];
    while chunk_end > 0 && last_nl.is_none() {
        let chunk_start = chunk_end.saturating_sub(buf.len() as u64);
        let n = usize::try_from(chunk_end - chunk_start).expect("chunk fits usize");
        file.seek(SeekFrom::Start(chunk_start))?;
        file.read_exact(&mut buf[..n])?;
        last_nl = buf[..n]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|i| chunk_start + i as u64);
        chunk_end = chunk_start;
    }
    let Some(nl) = last_nl else {
        return Err(ArtifactError::Truncated {
            reason: "journal has no complete header line".to_string(),
        });
    };
    if nl + 1 < len {
        file.set_len(nl + 1)?;
        file.sync_all()?;
    }
    Ok(nl + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::pipeline::TuningConfig;
    use unit_core::tuner::{CpuTuneMode, GpuTuneMode, TuneTier};
    use unit_graph::{CacheWorkload, OpSpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("unit-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(note: &str) -> ArtifactEntry {
        ArtifactEntry {
            workload: CacheWorkload::Op(OpSpec::gemm(16, 16, 16)),
            tuning: TuningConfig::default(),
            replay: TuningConfig {
                cpu: CpuTuneMode::Fixed {
                    par: 2000,
                    unroll: 8,
                },
                gpu: GpuTuneMode::Generic,
            },
            micros: 0.1 + 0.2, // non-representable: bit-exactness matters
            tier: TuneTier::Full,
            note: note.to_string(),
        }
    }

    fn put(model: &str, target: &str, note: &str) -> JournalRecord {
        JournalRecord::Put {
            model: model.to_string(),
            target: target.to_string(),
            entry: Box::new(entry(note)),
        }
    }

    #[test]
    fn append_poll_round_trips_across_two_handles() {
        let dir = temp_dir("round-trip");
        let path = dir.join("journal");
        let a = Journal::open(JournalConfig::at(&path)).unwrap();
        let b = Journal::open(JournalConfig::at(&path)).unwrap();
        assert!(b.snapshot().unwrap().is_empty());

        let records = vec![put("m1", "t1", "pipe|in|note"), put("m2", "t2", "")];
        assert!(!a.append(&records).unwrap());

        let seen = b.poll().unwrap();
        assert_eq!(seen, records);
        assert!(b.poll().unwrap().is_empty(), "tail cursor advanced");

        // Bit-exact entry round trip through the fold.
        let store = fold_records(seen);
        let e = &store.entries("m1", "t1")[0];
        assert_eq!(e.micros.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(e.note, "pipe|in|note");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_applies_puts_and_retires_in_order() {
        let dir = temp_dir("fold");
        let path = dir.join("journal");
        let j = Journal::open(JournalConfig::at(&path)).unwrap();
        j.append(&[
            put("m", "old-target", "gone"),
            put("m", "live-target", "kept"),
            JournalRecord::Retire {
                target: "old-target".to_string(),
            },
            put("m2", "old-target", "re-added after retire"),
        ])
        .unwrap();
        let store = j.snapshot().unwrap();
        assert!(store.entries("m", "old-target").is_empty());
        assert_eq!(store.entries("m", "live-target").len(), 1);
        assert_eq!(
            store.entries("m2", "old-target")[0].note,
            "re-added after retire"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_is_healed_and_costs_only_the_torn_record() {
        let dir = temp_dir("torn");
        let path = dir.join("journal");
        let j = Journal::open(JournalConfig::at(&path)).unwrap();
        j.append(&[put("m1", "t1", "intact")]).unwrap();

        // Simulate a crash mid-append: a partial record with no newline.
        let torn_line = encode_record(&put("m2", "t2", "torn"));
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&torn_line.as_bytes()[..torn_line.len() / 2])
            .unwrap();
        drop(file);

        // Readers stop before the torn tail rather than erroring.
        let fresh = Journal::open(JournalConfig::at(&path)).unwrap();
        let store = fresh.snapshot().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.entries("m1", "t1")[0].note, "intact");

        // The next append heals (truncates) the tail, then appends.
        fresh.append(&[put("m3", "t3", "after heal")]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("t2"), "torn record is gone: {text}");
        let store = Journal::open(JournalConfig::at(&path))
            .unwrap()
            .snapshot()
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.entries("m3", "t3")[0].note, "after heal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_batch_keeps_its_complete_records() {
        let dir = temp_dir("torn-batch");
        let path = dir.join("journal");
        let batch: Vec<JournalRecord> = (0..8)
            .map(|i| put(&format!("m{i}"), "t", &format!("decision {i}")))
            .collect();
        Journal::open(JournalConfig::at(&path))
            .unwrap()
            .append(&batch)
            .unwrap();
        let file = std::fs::read(&path).unwrap();
        let body_start = file.iter().position(|&b| b == b'\n').unwrap() + 1;
        let healer = put("healer", "t", "appended after the tear");

        // Tear a copy of the file at every byte offset of the batch.
        let torn = dir.join("torn");
        for cut in body_start..=file.len() {
            std::fs::write(&torn, &file[..cut]).unwrap();
            let complete = file[body_start..cut]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            let expected = fold_records(batch[..complete].to_vec());

            let j = Journal::open(JournalConfig::at(&torn)).unwrap();
            let store = j.snapshot().unwrap();
            assert_eq!(store.len(), complete, "cut at byte {cut}");
            assert_eq!(store.encode(), expected.encode(), "cut at byte {cut}");

            j.append(std::slice::from_ref(&healer)).unwrap();
            let mut healed = batch[..complete].to_vec();
            healed.push(healer.clone());
            let fresh = Journal::open(JournalConfig::at(&torn)).unwrap();
            assert_eq!(fresh.poll().unwrap(), healed, "cut at byte {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn complete_line_with_bad_checksum_is_hard_corruption() {
        let dir = temp_dir("corrupt");
        let path = dir.join("journal");
        let j = Journal::open(JournalConfig::at(&path)).unwrap();
        j.append(&[put("m", "t", "wmma pick")]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("wmma pick", "wmmb pick");
        assert_ne!(tampered, text);
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(j.poll(), Err(ArtifactError::Corrupt { .. })));
        assert!(matches!(
            Journal::open(JournalConfig::at(&path)),
            Err(ArtifactError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_gcs_retired_targets_and_bumps_the_generation() {
        let dir = temp_dir("compact");
        let path = dir.join("journal");
        let j = Journal::open(JournalConfig::at(&path)).unwrap();
        assert_eq!(j.generation().unwrap(), 1);
        j.append(&[
            put("m", "retired", "to be gc'd"),
            put("m", "live", "v1 of the entry"),
            put("m", "live", "v2 replaces v1"),
            JournalRecord::Retire {
                target: "retired".to_string(),
            },
        ])
        .unwrap();

        // Another handle that has already tailed everything…
        let other = Journal::open(JournalConfig::at(&path)).unwrap();
        other.snapshot().unwrap();
        assert!(other.poll().unwrap().is_empty());

        j.compact().unwrap();
        assert_eq!(j.generation().unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("retired"), "GC'd: {text}");
        assert!(!text.contains("retire "), "retire records vanish: {text}");
        assert!(!text.contains("v1 of the entry"), "superseded put GC'd");
        assert_eq!(
            text.lines().count(),
            2,
            "header + the single live record: {text}"
        );

        // …sees the generation bump and re-reads idempotently.
        let replayed = other.poll().unwrap();
        assert_eq!(replayed.len(), 1);
        let store = fold_records(replayed);
        assert_eq!(store.entries("m", "live")[0].note, "v2 replaces v1");

        // The compacted journal folds to the same store as before.
        let store = j.snapshot().unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.entries("m", "retired").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_auto_compacts_past_the_size_policy() {
        let dir = temp_dir("auto-compact");
        let path = dir.join("journal");
        let mut config = JournalConfig::at(&path);
        config.max_bytes = 512;
        let j = Journal::open(config).unwrap();
        // Same-identity puts: the live set stays one record, so the log
        // is almost all garbage and compaction shrinks it below the cap.
        let mut compacted = false;
        for i in 0..32 {
            compacted |= j.append(&[put("m", "t", &format!("rev {i}"))]).unwrap();
        }
        assert!(compacted, "size policy never triggered");
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len <= 512, "compaction kept the file small: {len} bytes");
        let store = j.snapshot().unwrap();
        assert_eq!(store.len(), 1, "one live identity survives");
        assert!(j.generation().unwrap() > 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_journals_migrate_atomically_on_open() {
        let dir = temp_dir("migrate");
        let path = dir.join("journal");
        // Hand-write a v1 journal: `add` records, no checksums, plus a
        // torn final line the migration must drop.
        let complete = format!(
            "{JOURNAL_V1_VERSION}\nadd m1|t1|{}\nadd m2|t2|{}\n",
            encode_entry_fields(&entry("v1 first")),
            encode_entry_fields(&entry("v1 second")),
        );
        let torn = format!("add m3|t3|{}", encode_entry_fields(&entry("torn")));
        std::fs::write(&path, format!("{complete}{}", &torn[..torn.len() / 2])).unwrap();

        let j = Journal::open(JournalConfig::at(&path)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with(&format!("{JOURNAL_FORMAT_VERSION} gen 1\n")),
            "migrated header: {text}"
        );
        assert!(!text.contains("add "), "no v1 records remain: {text}");
        assert!(!text.contains("m3"), "torn v1 tail dropped: {text}");
        let store = j.snapshot().unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.entries("m1", "t1")[0].note, "v1 first");
        assert_eq!(store.entries("m2", "t2")[0].note, "v1 second");
        // Bit-exact through the migration.
        assert_eq!(
            store.entries("m1", "t1")[0].micros.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );

        // Unknown versions are still rejected, not "migrated".
        let weird = dir.join("weird");
        std::fs::write(&weird, "unit-artifact-journal v99\n").unwrap();
        assert!(matches!(
            Journal::open(JournalConfig::at(&weird)),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_journals_migrate_atomically_on_open_preserving_generation() {
        // Mirrors `v1_journals_migrate_atomically_on_open` one version
        // up: a v2 journal (same record grammar, no tier markers) is
        // rewritten under the v3 header on open. Every record decodes as
        // a **full-tier** decision — absent tier = full — the
        // generation survives, and a torn v2 tail is dropped.
        let dir = temp_dir("migrate-v2");
        let path = dir.join("journal");
        let complete = format!(
            "{JOURNAL_V2_VERSION} gen 7\n{}{}",
            encode_record(&put("m1", "t1", "v2 first")),
            encode_record(&put("m2", "t2", "v2 second")),
        );
        let torn = encode_record(&put("m3", "t3", "torn"));
        std::fs::write(&path, format!("{complete}{}", &torn[..torn.len() / 2])).unwrap();

        let j = Journal::open(JournalConfig::at(&path)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with(&format!("{JOURNAL_FORMAT_VERSION} gen 7\n")),
            "migrated header keeps the generation: {text}"
        );
        assert!(!text.contains(JOURNAL_V2_VERSION), "no v2 header remains");
        assert!(!text.contains("m3"), "torn v2 tail dropped: {text}");
        assert_eq!(j.generation().unwrap(), 7);
        let store = j.snapshot().unwrap();
        assert_eq!(store.len(), 2);
        for (model, target, note) in [("m1", "t1", "v2 first"), ("m2", "t2", "v2 second")] {
            let e = &store.entries(model, target)[0];
            assert_eq!(e.note, note);
            assert_eq!(e.tier, TuneTier::Full, "absent tier decodes as full");
            assert_eq!(e.micros.to_bits(), (0.1f64 + 0.2).to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_version_tags_are_unsupported_not_corrupt() {
        // Regression: headers were matched by prefix, so `v30` read as v3
        // and `v2x` as v2 with a bad generation (`Corrupt`), and the
        // message named only the store format.
        let dir = temp_dir("unknown-version");
        let path = dir.join("journal");
        for header in [
            "unit-artifact-journal v30 gen 1",
            "unit-artifact-journal v2x gen 1",
            "unit-artifact-journal v99",
        ] {
            std::fs::write(&path, format!("{header}\n")).unwrap();
            match Journal::open(JournalConfig::at(&path)) {
                Err(e @ ArtifactError::UnsupportedVersion { .. }) => {
                    let msg = e.to_string();
                    assert!(msg.contains(header), "{msg}");
                    assert!(msg.contains(JOURNAL_FORMAT_VERSION), "{msg}");
                }
                other => panic!("{header}: expected UnsupportedVersion, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiered_records_round_trip_and_absent_tier_decodes_full() {
        let dir = temp_dir("tiered");
        let path = dir.join("journal");
        let j = Journal::open(JournalConfig::at(&path)).unwrap();
        let mut cold = entry("cheap pick");
        cold.tier = TuneTier::Cold;
        j.append(&[
            JournalRecord::Put {
                model: "m".to_string(),
                target: "t".to_string(),
                entry: Box::new(cold.clone()),
            },
            put("m", "t2", "full pick"),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("|tier=cold|"),
            "cold marker persisted: {text}"
        );
        assert!(!text.contains("tier=full"), "full tier stays implicit");

        // A second handle (a tailing replica) sees the tiers verbatim.
        let other = Journal::open(JournalConfig::at(&path)).unwrap();
        let store = other.snapshot().unwrap();
        assert_eq!(store.entries("m", "t")[0], cold);
        assert_eq!(store.entries("m", "t2")[0].tier, TuneTier::Full);

        // An upgrade (same identity, full tier) appended later replaces
        // the cold record in the fold — the hot-swap a peer tails.
        let mut upgraded = entry("retuned pick");
        upgraded.tier = TuneTier::Full;
        j.append(&[JournalRecord::Put {
            model: "m".to_string(),
            target: "t".to_string(),
            entry: Box::new(upgraded.clone()),
        }])
        .unwrap();
        let polled = other.poll().unwrap();
        assert_eq!(polled.len(), 1);
        let folded = fold_records(polled);
        assert_eq!(folded.entries("m", "t")[0], upgraded);

        // Compaction keeps only the upgraded entry and round-trips it.
        j.compact().unwrap();
        let store = j.snapshot().unwrap();
        assert_eq!(store.entries("m", "t")[0], upgraded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appenders_lose_no_records() {
        let dir = temp_dir("concurrent");
        let path = dir.join("journal");
        let threads: Vec<_> = (0..4)
            .map(|worker| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let j = Journal::open(JournalConfig::at(&path)).unwrap();
                    for i in 0..8 {
                        j.append(&[put(&format!("m{worker}"), &format!("t{i}"), "x")])
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let j = Journal::open(JournalConfig::at(&path)).unwrap();
        assert_eq!(j.snapshot().unwrap().len(), 32);
        std::fs::remove_dir_all(&dir).ok();
    }
}
