//! The append-only synthesis journal (durability between snapshots) — the deployment's one
//! durability path.
//!
//! A snapshot (the `persist` module) only captures the cache at the moment it was written — a
//! crash between snapshots would silently forget every synthesis since, and with it the
//! knowledge bound the deployment owes its tenants. The journal closes that window:
//! every entry the single-flight synthesis path commits is **appended as it lands** (via the
//! shared cache's commit observer), so a warm restart is *snapshot load + journal replay* and
//! re-synthesizes nothing it already served.
//!
//! # Format
//!
//! `anosy-synth-journal v1` is the same line-oriented text family as the snapshot format, with
//! one extra layer: per-record length/checksum framing, because an append-only file can be cut
//! mid-write (a torn final record) where a temp-file-plus-rename snapshot cannot:
//!
//! ```text
//! anosy-synth-journal v1 domain=interval
//! record len=214 sum=91a0c2f7b3d45e68
//! entry kind=under members=-
//! layout x:0:400 y:0:400
//! pred ((abs((v0 - 200)) + abs((v1 - 200))) <= 100)
//! truthy 121..279,179..221
//! falsy 0..400,0..99
//! end
//! record len=...
//! ```
//!
//! Each `record` line announces the exact byte length of the six-line entry body that follows
//! (the body is byte-for-byte the snapshot format's entry unit) and its FNV-1a 64 checksum in
//! hex. Replay walks records front to back; the first record whose framing, checksum or body
//! fails to decode ends the replay — everything before it is the *good prefix*, everything
//! from it on is truncated away and counted as torn. Entries that cannot be encoded
//! faithfully are skipped on append with the same rule the snapshot save uses, so journal and
//! snapshot always agree on what is persistable.
//!
//! # Flush policies
//!
//! [`FlushPolicy`] trades write syscalls against the crash window: `every-entry` hands each
//! record to the OS as it is appended (a killed process loses nothing), `every-N` amortizes
//! appends N records at a time, and `on-tick` defers to the server's tick boundary (cheapest;
//! at most one tick of synthesis is at risk). Flushing pushes bytes to the OS — it survives a
//! killed *process*; only compaction's snapshot (`sync_all` + rename) is also hardened
//! against a host crash.
//!
//! # Compaction
//!
//! [`Journal::compact_with`] folds the journal back into a snapshot *while traffic continues*:
//! it locks the journal (appends briefly queue), snapshots the cache through the caller's
//! export closure, writes the snapshot with the usual temp-file-plus-rename, then atomically
//! replaces the journal with a fresh header-only file. The lock ordering is the correctness
//! argument: the cache publishes an entry *before* its observer appends, so any entry already
//! journaled when the lock is taken is also in the exported snapshot, and a commit racing the
//! compaction appends to the *truncated* journal (possibly duplicating the snapshot — replay
//! tolerates duplicates, the in-memory entry wins). No entry is ever lost and nothing stops
//! the world.

use crate::persist;
use crate::ServeError;
use anosy_core::SharedCacheEntry;
use anosy_domains::AbstractDomain;
use anosy_synth::DomainCodec;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic prefix of the journal file; the version is bumped on any incompatible format change.
const HEADER_PREFIX: &str = "anosy-synth-journal v1 domain=";

/// When appended records are pushed from the process to the OS (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after every appended record (`every-entry`): a killed process loses nothing.
    EveryEntry,
    /// Flush **and `fsync`** after every appended record (`every-entry-fsync`): a killed
    /// process *or a crashed host* loses nothing. The other rungs only push records to the
    /// OS page cache, which a power cut still eats; this one pays a `sync_data` per append
    /// for host-crash durability.
    EveryEntryFsync,
    /// Flush once `N` records are pending (`every-N`, e.g. `every-8`): at most `N - 1`
    /// records are at risk.
    EveryN(u64),
    /// Flush at server tick boundaries (`on-tick`): at most one tick of synthesis is at risk.
    OnTick,
}

impl FlushPolicy {
    /// Parses the wire/CLI form: `every-entry`, `every-entry-fsync`, `every-<N>` (N ≥ 1) or
    /// `on-tick`.
    pub fn parse(text: &str) -> Option<FlushPolicy> {
        match text {
            "every-entry" => Some(FlushPolicy::EveryEntry),
            "every-entry-fsync" => Some(FlushPolicy::EveryEntryFsync),
            "on-tick" => Some(FlushPolicy::OnTick),
            other => {
                let n: u64 = other.strip_prefix("every-")?.parse().ok()?;
                if n == 0 {
                    None
                } else {
                    Some(FlushPolicy::EveryN(n))
                }
            }
        }
    }
}

impl fmt::Display for FlushPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlushPolicy::EveryEntry => write!(f, "every-entry"),
            FlushPolicy::EveryEntryFsync => write!(f, "every-entry-fsync"),
            FlushPolicy::EveryN(n) => write!(f, "every-{n}"),
            FlushPolicy::OnTick => write!(f, "on-tick"),
        }
    }
}

/// Configuration of a deployment's journal (the `--journal* --compact-every` surface of
/// `anosy-served`, carried on [`crate::ServeConfig::journal`]).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// The journal file. The compaction snapshot lives next to it at
    /// [`JournalConfig::snapshot_path`].
    pub path: PathBuf,
    /// When appended records reach the OS.
    pub flush: FlushPolicy,
    /// Compact every `N` server ticks (`None`: only on explicit [`crate::Deployment::compact`]
    /// calls).
    pub compact_every: Option<u64>,
}

impl JournalConfig {
    /// A journal at `path` with the safest flush policy (`every-entry`) and no periodic
    /// compaction.
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig { path: path.into(), flush: FlushPolicy::EveryEntry, compact_every: None }
    }

    /// Overrides the flush policy.
    pub fn with_flush(mut self, flush: FlushPolicy) -> JournalConfig {
        self.flush = flush;
        self
    }

    /// Compact every `ticks` server ticks (clamped to at least one).
    pub fn with_compact_every(mut self, ticks: u64) -> JournalConfig {
        self.compact_every = Some(ticks.max(1));
        self
    }

    /// Where the compaction snapshot (and warm-restart load) lives: the journal path with a
    /// `.snapshot` suffix appended.
    pub fn snapshot_path(&self) -> PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(".snapshot");
        PathBuf::from(os)
    }
}

/// Point-in-time journal counters (the `journal=appended:compacted:replayed:torn` token of the
/// wire stats line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since this process opened the journal.
    pub appended: u64,
    /// Records folded into a snapshot and truncated away by compactions.
    pub compacted: u64,
    /// Records replayed from the journal at recovery.
    pub replayed: u64,
    /// Torn/corrupt tails truncated away (at recovery, and by fault-injection tests).
    pub torn: u64,
}

/// What [`Journal::compact_with`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactOutcome {
    /// The snapshot save (written + skipped entry counts).
    pub snapshot: persist::SaveOutcome,
    /// Journal records truncated away (now covered by the snapshot).
    pub truncated: u64,
}

/// FNV-1a 64 over the record body — cheap, dependency-free, and plenty to reject a torn or
/// bit-flipped record (this is corruption *detection* on a trusted file, not authentication).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The parsed-out good prefix of a journal file (see [`scan`]).
struct Scan<D: AbstractDomain> {
    /// Entries decoded from intact records, in append order.
    entries: Vec<SharedCacheEntry<D>>,
    /// Byte length of the good prefix (header + intact records); everything past it is torn.
    good_len: u64,
    /// `1` when a torn/corrupt tail was found past the good prefix, else `0`.
    torn: u64,
}

/// Walks the journal bytes front to back, decoding intact records and stopping at the first
/// torn or corrupt one (module docs). Never panics on any byte sequence; the only errors are
/// I/O and a *well-formed* header naming the wrong domain (silently ignoring another
/// deployment's journal would be an operator trap, not tolerance).
fn scan<D: DomainCodec>(bytes: &[u8]) -> Result<Scan<D>, ServeError> {
    let mut scan = Scan { entries: Vec::new(), good_len: 0, torn: 0 };
    if bytes.is_empty() {
        return Ok(scan); // a fresh (or never-written) journal
    }
    // The header must be an intact line; a torn header means no good prefix at all.
    let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
        scan.torn = 1;
        return Ok(scan);
    };
    let Ok(header) = std::str::from_utf8(&bytes[..header_end]) else {
        scan.torn = 1;
        return Ok(scan);
    };
    let Some(domain) = header.strip_prefix(HEADER_PREFIX) else {
        scan.torn = 1;
        return Ok(scan);
    };
    if domain != D::TAG {
        return Err(ServeError::Format {
            line: 1,
            reason: format!("journal is for domain `{domain}`, deployment uses `{}`", D::TAG),
        });
    }
    scan.good_len = (header_end + 1) as u64;

    let mut at = header_end + 1;
    while at < bytes.len() {
        // Frame line: `record len=<bytes> sum=<hex64>`.
        let Some(line_end) = bytes[at..].iter().position(|&b| b == b'\n').map(|p| at + p) else {
            scan.torn = 1;
            break;
        };
        let frame = match std::str::from_utf8(&bytes[at..line_end]) {
            Ok(frame) => frame,
            Err(_) => {
                scan.torn = 1;
                break;
            }
        };
        let parsed = frame.strip_prefix("record len=").and_then(|rest| {
            let (len, sum) = rest.split_once(" sum=")?;
            Some((len.parse::<usize>().ok()?, u64::from_str_radix(sum, 16).ok()?))
        });
        let Some((len, sum)) = parsed else {
            scan.torn = 1;
            break;
        };
        let body_start = line_end + 1;
        let Some(body_end) = body_start.checked_add(len).filter(|&end| end <= bytes.len()) else {
            scan.torn = 1;
            break;
        };
        let body = &bytes[body_start..body_end];
        if fnv1a(body) != sum {
            scan.torn = 1;
            break;
        }
        let Ok(body) = std::str::from_utf8(body) else {
            scan.torn = 1;
            break;
        };
        let Ok(entry) = persist::parse_entry::<D>(body) else {
            scan.torn = 1;
            break;
        };
        scan.entries.push(entry);
        scan.good_len = body_end as u64;
        at = body_end;
    }
    Ok(scan)
}

/// Replays a journal file without opening it for append: the decoded good-prefix entries plus
/// the torn-tail count (`0` or `1`). A missing file replays empty. Fault-injection tests use
/// this directly; deployments recover through [`Journal::recover`], which also truncates the
/// torn tail and keeps the file open for appending.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on filesystem failures and [`ServeError::Format`] when an intact
/// header names a different domain. Corruption is never an error — it bounds the good prefix.
pub fn replay<D: DomainCodec>(path: &Path) -> Result<(Vec<SharedCacheEntry<D>>, u64), ServeError> {
    if !path.exists() {
        return Ok((Vec::new(), 0));
    }
    let bytes = std::fs::read(path)?;
    let scan = scan::<D>(&bytes)?;
    Ok((scan.entries, scan.torn))
}

struct Writer {
    file: BufWriter<File>,
    /// Records appended since the last flush (drives [`FlushPolicy::EveryN`]).
    pending: u64,
    /// Records currently in the file (replayed good prefix + appends); what a compaction
    /// truncates away.
    records: u64,
}

/// What [`Journal::recover`] found on disk before opening the journal for appending.
pub struct Recovered<D: AbstractDomain> {
    /// The journal, open for appending after the good prefix.
    pub journal: Journal<D>,
    /// The good-prefix entries, in append order (install these into the cache).
    pub entries: Vec<SharedCacheEntry<D>>,
    /// `1` when a torn/corrupt tail was truncated away.
    pub torn: u64,
}

/// An open append-only journal (see the [module docs](self)). Shared behind an `Arc` by every
/// handle of a deployment; appends, flushes and compactions serialize on an internal lock.
pub struct Journal<D: AbstractDomain> {
    config: JournalConfig,
    writer: Mutex<Writer>,
    appended: AtomicU64,
    compacted: AtomicU64,
    replayed: AtomicU64,
    torn: AtomicU64,
    ticks: AtomicU64,
    fsyncs: AtomicU64,
    _domain: std::marker::PhantomData<fn() -> D>,
}

impl<D: AbstractDomain> fmt::Debug for Journal<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.config.path)
            .field("flush", &self.config.flush)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<D: DomainCodec> Journal<D> {
    /// Opens (or creates) the journal at `config.path`: replays the good prefix, truncates any
    /// torn tail away, and leaves the file open for appending. The replayed entries are
    /// returned for the caller to install (the deployment composes them with the snapshot load
    /// and `--verify-on-load`); `stats().replayed`/`stats().torn` record what happened.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failures and [`ServeError::Format`] for a
    /// journal of the wrong domain.
    pub fn recover(config: JournalConfig) -> Result<Recovered<D>, ServeError> {
        let _span = anosy_telemetry::span("journal.replay");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&config.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan::<D>(&bytes)?;
        if scan.torn > 0 || bytes.is_empty() {
            // Truncate the torn tail (or materialize the header of a fresh journal) so the
            // next append lands right after the good prefix.
            file.set_len(scan.good_len)?;
        }
        file.seek(SeekFrom::Start(scan.good_len))?;
        let mut writer = BufWriter::new(file);
        if scan.good_len == 0 {
            // A fresh journal — or one whose very header was torn away — needs its header
            // (re)written before the first record can land.
            writer.write_all(format!("{HEADER_PREFIX}{}\n", D::TAG).as_bytes())?;
            writer.flush()?;
        }
        anosy_telemetry::count("journal.replayed", scan.entries.len() as u64);
        anosy_telemetry::count("journal.torn", scan.torn);
        let journal = Journal {
            writer: Mutex::new(Writer {
                file: writer,
                pending: 0,
                records: scan.entries.len() as u64,
            }),
            appended: AtomicU64::new(0),
            compacted: AtomicU64::new(0),
            replayed: AtomicU64::new(scan.entries.len() as u64),
            torn: AtomicU64::new(scan.torn),
            ticks: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            config,
            _domain: std::marker::PhantomData,
        };
        Ok(Recovered { journal, entries: scan.entries, torn: scan.torn })
    }

    /// Appends one committed entry as a framed record, flushing per the configured policy.
    /// Entries the text encoding cannot represent faithfully are skipped — exactly the
    /// entries a snapshot save would skip, so journal and snapshot never disagree.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failures.
    pub fn append(&self, entry: &SharedCacheEntry<D>) -> Result<(), ServeError> {
        let Some(body) = persist::encode_entry(entry) else { return Ok(()) };
        let _span = anosy_telemetry::span("journal.append");
        let frame = format!("record len={} sum={:016x}\n", body.len(), fnv1a(body.as_bytes()));
        let mut writer = lock(&self.writer);
        writer.file.write_all(frame.as_bytes())?;
        writer.file.write_all(body.as_bytes())?;
        writer.pending += 1;
        writer.records += 1;
        let flush = match self.config.flush {
            FlushPolicy::EveryEntry | FlushPolicy::EveryEntryFsync => true,
            FlushPolicy::EveryN(n) => writer.pending >= n,
            FlushPolicy::OnTick => false,
        };
        if flush {
            writer.file.flush()?;
            writer.pending = 0;
            if self.config.flush == FlushPolicy::EveryEntryFsync {
                // `flush` only moved the record into the OS page cache; `sync_data` pins it
                // to stable storage before the append reports success.
                writer.file.get_ref().sync_data()?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(writer);
        self.appended.fetch_add(1, Ordering::Relaxed);
        anosy_telemetry::count("journal.appended", 1);
        Ok(())
    }

    /// Pushes any buffered records to the OS regardless of policy (exit paths, tests).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failures.
    pub fn flush(&self) -> Result<(), ServeError> {
        let mut writer = lock(&self.writer);
        writer.file.flush()?;
        writer.pending = 0;
        Ok(())
    }

    /// A server tick happened: flush under the `on-tick` policy, and report whether a
    /// periodic compaction is now due (`compact_every` ticks have elapsed). The caller (the
    /// deployment) runs the compaction, because only it can export the cache.
    pub fn note_tick(&self) -> bool {
        if self.config.flush == FlushPolicy::OnTick {
            // A flush failure here must not take the reactor down mid-tick; the next append
            // or the exit-path flush will surface the error.
            let _ = self.flush();
        }
        match self.config.compact_every {
            Some(every) => (self.ticks.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(every),
            None => {
                self.ticks.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Compacts the journal into a snapshot at [`JournalConfig::snapshot_path`] while traffic
    /// continues: locks the journal, snapshots the cache via `export` (see the module docs for
    /// why this ordering never loses an entry), writes the snapshot atomically, then truncates
    /// the journal back to its header.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failures. The journal is truncated only after
    /// the snapshot has been renamed into place, so a failed compaction leaves the journal
    /// intact.
    pub fn compact_with(
        &self,
        export: impl FnOnce() -> Vec<SharedCacheEntry<D>>,
    ) -> Result<CompactOutcome, ServeError> {
        let _span = anosy_telemetry::span("journal.compact");
        let mut writer = lock(&self.writer);
        let entries = export();
        let snapshot = persist::save_entries(&self.config.snapshot_path(), &entries)?;
        // Atomically replace the journal with a fresh header-only file, then re-point the
        // append handle at it.
        let tmp = self.config.path.with_extension("tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(format!("{HEADER_PREFIX}{}\n", D::TAG).as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &self.config.path)?;
        let mut file = OpenOptions::new().write(true).open(&self.config.path)?;
        file.seek(SeekFrom::End(0))?;
        let truncated = writer.records;
        *writer = Writer { file: BufWriter::new(file), pending: 0, records: 0 };
        drop(writer);
        self.compacted.fetch_add(truncated, Ordering::Relaxed);
        anosy_telemetry::count("journal.compacted", truncated);
        Ok(CompactOutcome { snapshot, truncated })
    }
}

impl<D: AbstractDomain> Journal<D> {
    /// The configuration this journal runs with.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.appended.load(Ordering::Relaxed),
            compacted: self.compacted.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
        }
    }

    /// `sync_data` calls issued so far — non-zero only under
    /// [`FlushPolicy::EveryEntryFsync`], where it equals the flushed append count (the
    /// durability test's witness that every append reached stable storage).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }
}

impl<D: AbstractDomain> Drop for Journal<D> {
    fn drop(&mut self) {
        // Best-effort exit flush: buffered `every-N`/`on-tick` records should not be lost to a
        // *clean* shutdown (a killed process is what the flush policy already priced in).
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.file.flush();
        }
    }
}

/// Journal state must survive a panicking appender (the poison flag carries no meaning here —
/// every critical section leaves the writer consistent).
fn lock(writer: &Mutex<Writer>) -> std::sync::MutexGuard<'_, Writer> {
    writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_domains::{AInt, IntervalDomain};
    use anosy_logic::{IntExpr, SecretLayout};
    use anosy_synth::{ApproxKind, IndSets};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn entry(xo: i64) -> SharedCacheEntry<IntervalDomain> {
        let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        SharedCacheEntry {
            pred,
            layout: layout(),
            kind: ApproxKind::Under,
            members: None,
            indsets: IndSets::new(
                ApproxKind::Under,
                IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]),
                IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 99)]),
            ),
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("anosy-serve-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(JournalConfig::new(&path).snapshot_path());
        path
    }

    fn recover(path: &Path, flush: FlushPolicy) -> Recovered<IntervalDomain> {
        Journal::recover(JournalConfig::new(path).with_flush(flush)).unwrap()
    }

    #[test]
    fn append_then_recover_round_trips() {
        let path = tmp_path("round_trip.journal");
        let first = recover(&path, FlushPolicy::EveryEntry);
        assert!(first.entries.is_empty());
        first.journal.append(&entry(200)).unwrap();
        first.journal.append(&entry(300)).unwrap();
        assert_eq!(first.journal.stats().appended, 2);
        drop(first);

        let second = recover(&path, FlushPolicy::EveryEntry);
        assert_eq!(second.entries.len(), 2);
        assert_eq!(second.torn, 0);
        assert_eq!(second.journal.stats().replayed, 2);
        for (a, b) in [entry(200), entry(300)].iter().zip(&second.entries) {
            assert_eq!(a.pred, b.pred);
            assert_eq!(a.indsets, b.indsets);
        }
    }

    #[test]
    fn flush_policies_gate_when_bytes_reach_the_os() {
        let path = tmp_path("flush_policy.journal");
        let r = recover(&path, FlushPolicy::EveryN(2));
        let header_only = std::fs::metadata(&path).unwrap().len();
        r.journal.append(&entry(200)).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            header_only,
            "one pending record under every-2 stays buffered"
        );
        r.journal.append(&entry(300)).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > header_only, "second append flushes");

        let path = tmp_path("flush_on_tick.journal");
        let r = recover(&path, FlushPolicy::OnTick);
        let header_only = std::fs::metadata(&path).unwrap().len();
        r.journal.append(&entry(200)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), header_only);
        r.journal.note_tick();
        assert!(std::fs::metadata(&path).unwrap().len() > header_only, "tick flushes");
    }

    #[test]
    fn every_entry_fsync_reaches_sync_data_per_append() {
        let path = tmp_path("fsync_policy.journal");
        let r = recover(&path, FlushPolicy::EveryEntryFsync);
        assert_eq!(r.journal.fsyncs(), 0);
        r.journal.append(&entry(200)).unwrap();
        r.journal.append(&entry(300)).unwrap();
        assert_eq!(r.journal.stats().appended, 2);
        assert_eq!(r.journal.fsyncs(), 2, "every flushed append must reach sync_data");
        // Bytes are on disk (not just the page cache — but at minimum past the BufWriter).
        drop(r);
        let second = recover(&path, FlushPolicy::EveryEntryFsync);
        assert_eq!(second.entries.len(), 2);
        assert_eq!(second.torn, 0);

        // The other rungs never fsync.
        let path = tmp_path("no_fsync.journal");
        let r = recover(&path, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        assert_eq!(r.journal.fsyncs(), 0);
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record() {
        let path = tmp_path("torn.journal");
        let r = recover(&path, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        r.journal.append(&entry(300)).unwrap();
        drop(r);
        // Simulate a crash mid-append: cut the file inside the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let r = recover(&path, FlushPolicy::EveryEntry);
        assert_eq!(r.entries.len(), 1, "the torn final record is dropped");
        assert_eq!(r.torn, 1);
        // The truncation repaired the file: appending works and a fresh recovery is clean.
        r.journal.append(&entry(300)).unwrap();
        drop(r);
        let r = recover(&path, FlushPolicy::EveryEntry);
        assert_eq!((r.entries.len(), r.torn), (2, 0));
    }

    #[test]
    fn wrong_domain_is_an_error_not_tolerance() {
        let path = tmp_path("wrong_domain.journal");
        let r = recover(&path, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        drop(r);
        let err = Journal::<anosy_domains::PowersetDomain>::recover(JournalConfig::new(&path));
        assert!(matches!(err, Err(ServeError::Format { line: 1, .. })));
    }

    #[test]
    fn compaction_moves_records_into_the_snapshot() {
        let path = tmp_path("compact.journal");
        let r = recover(&path, FlushPolicy::EveryEntry);
        r.journal.append(&entry(200)).unwrap();
        r.journal.append(&entry(300)).unwrap();
        let outcome = r.journal.compact_with(|| vec![entry(200), entry(300)]).unwrap();
        assert_eq!(outcome.truncated, 2);
        assert_eq!(outcome.snapshot.written, 2);
        // Journal is back to header-only; appends keep working after the handle swap.
        let (entries, torn) = replay::<IntervalDomain>(&path).unwrap();
        assert_eq!((entries.len(), torn), (0, 0));
        r.journal.append(&entry(250)).unwrap();
        assert_eq!(
            r.journal.stats(),
            JournalStats { appended: 3, compacted: 2, ..r.journal.stats() }
        );
        drop(r);
        // Snapshot + journal together hold all three entries.
        let config = JournalConfig::new(&path);
        let snapshot = persist::load_entries::<IntervalDomain>(&config.snapshot_path()).unwrap();
        let (journaled, _) = replay::<IntervalDomain>(&path).unwrap();
        assert_eq!(snapshot.len() + journaled.len(), 3);
    }

    #[test]
    fn flush_policy_parse_display_round_trips() {
        for text in ["every-entry", "every-entry-fsync", "every-8", "on-tick"] {
            assert_eq!(FlushPolicy::parse(text).unwrap().to_string(), text);
        }
        assert_eq!(FlushPolicy::parse("every-0"), None);
        assert_eq!(FlushPolicy::parse("sometimes"), None);
        assert_eq!(FlushPolicy::parse("every-"), None);
    }

    #[test]
    fn note_tick_schedules_periodic_compaction() {
        let path = tmp_path("tick_compaction.journal");
        let config =
            JournalConfig::new(&path).with_flush(FlushPolicy::OnTick).with_compact_every(3);
        let r = Journal::<IntervalDomain>::recover(config).unwrap();
        let due: Vec<bool> = (0..7).map(|_| r.journal.note_tick()).collect();
        assert_eq!(due, vec![false, false, true, false, false, true, false]);
    }
}
