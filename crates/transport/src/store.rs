//! Durable stable storage: the file a host mirrors an actor's durable
//! record to, so a SIGKILLed `tempod` rehydrates `(r_i, ε_i)` — or the
//! cluster `(view, high-water)` record — on relaunch.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use tempo_core::{Duration, Timestamp};
use tempo_service::{ClusterState, MemoryStore, PersistedState};

/// The file a [`MemoryStore`] durable record is mirrored to.
///
/// Writes are atomic in the crash sense: the record is written to a
/// sibling temporary file, fsynced, then renamed over the target, so
/// a crash at any instant leaves either the old record or the new one
/// — never a torn write. A stale `.tmp` left by a crash *between* the
/// fsync and the rename is ignored and cleaned up on the next open:
/// only the renamed target is ever trusted.
///
/// The format is a single line of six hex fields:
/// `reset_clock inherited_error reset_at view high_water flags`. The
/// first three are IEEE-754 bit patterns (seconds) round-tripping the
/// `f64`-backed [`Timestamp`]/[`Duration`] exactly; `view` and
/// `high_water` are the cluster record's integers; `flags` bit 0 says
/// the base triple is present, bit 1 the cluster pair.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
    /// The record last written or read, so a flush can rewrite it.
    record: MemoryStore,
}

const FLAG_BASE: u64 = 1;
const FLAG_CLUSTER: u64 = 2;

impl FileStore {
    /// Opens (or prepares to create) the store at `path`, reading any
    /// surviving record — the durable-restart path. A stale sibling
    /// `.tmp` (a crash mid-persist) is removed without being read.
    ///
    /// # Errors
    ///
    /// Fails if the file exists but cannot be read or parsed; a
    /// missing file is simply an empty store.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        // A crash between writing the temporary and renaming it leaves
        // a `.tmp` of unknown integrity (possibly torn: the data fsync
        // may never have happened). It is never a committed record, so
        // it must not be trusted — discard it before reading the real
        // file so a later persist cannot collide with it either.
        let tmp = path.with_extension("tmp");
        if tmp.exists() {
            let _ = fs::remove_file(&tmp);
        }
        let record = match File::open(&path) {
            Ok(mut file) => {
                let mut text = String::new();
                file.read_to_string(&mut text)?;
                parse_record(&text).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: {e}", path.display()),
                    )
                })?
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => MemoryStore::new(),
            Err(e) => return Err(e),
        };
        Ok(FileStore { path, record })
    }

    /// The record the file holds.
    #[must_use]
    pub fn record(&self) -> MemoryStore {
        self.record
    }

    /// Makes `record` the file's content: atomically rewritten, or the
    /// file removed when the record is empty (an amnesia wipe).
    pub fn write(&mut self, record: MemoryStore) {
        self.record = record;
        if record == MemoryStore::new() {
            let _ = fs::remove_file(&self.path);
        } else {
            self.write_or_report("persist");
        }
    }

    /// Rewrites the record in case the medium lost it: the
    /// graceful-shutdown hook, so a SIGTERM leaves the record on disk.
    pub fn flush(&mut self) {
        if self.record != MemoryStore::new() {
            self.write_or_report("flush");
        }
    }

    fn write_record(&self) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(encode_record(&self.record).as_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &self.path)?;
        // Persist the rename itself where the platform allows
        // directory fsync; failure here is not a torn write.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn write_or_report(&self, what: &str) {
        // A disk error degrades durability, not correctness, so it is
        // reported and survived — the actor keeps running on its
        // in-memory record.
        if let Err(e) = self.write_record() {
            eprintln!(
                "tempo-transport: failed to {what} state to {}: {e}",
                self.path.display()
            );
        }
    }
}

fn encode_record(record: &MemoryStore) -> String {
    let (base, cluster) = (record.load(), record.load_cluster());
    let b = base.unwrap_or(PersistedState {
        reset_clock: Timestamp::from_secs(0.0),
        inherited_error: Duration::from_secs(0.0),
        reset_at: Timestamp::from_secs(0.0),
    });
    let c = cluster.unwrap_or_default();
    let flags = u64::from(base.is_some()) * FLAG_BASE + u64::from(cluster.is_some()) * FLAG_CLUSTER;
    format!(
        "{:016x} {:016x} {:016x} {:016x} {:016x} {:02x}\n",
        b.reset_clock.as_secs().to_bits(),
        b.inherited_error.as_secs().to_bits(),
        b.reset_at.as_secs().to_bits(),
        c.view,
        c.high_water,
        flags,
    )
}

fn parse_record(text: &str) -> Result<MemoryStore, String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    if words.len() != 6 {
        return Err(format!("expected 6 fields, found {}", words.len()));
    }
    let raw = |idx: usize, name: &str| {
        u64::from_str_radix(words[idx], 16).map_err(|_| format!("bad hex field `{name}`"))
    };
    let secs = |idx: usize, name: &str| {
        raw(idx, name).and_then(|bits| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("field `{name}` is not finite"))
            }
        })
    };
    let flags = raw(5, "flags")?;
    let mut record = MemoryStore::new();
    if flags & FLAG_BASE != 0 {
        record.persist(PersistedState {
            reset_clock: Timestamp::from_secs(secs(0, "reset_clock")?),
            inherited_error: Duration::from_secs(secs(1, "inherited_error")?),
            reset_at: Timestamp::from_secs(secs(2, "reset_at")?),
        });
    }
    if flags & FLAG_CLUSTER != 0 {
        record.persist_cluster(ClusterState {
            view: raw(3, "view")?,
            high_water: raw(4, "high_water")?,
        });
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(r: f64, eps: f64, at: f64) -> PersistedState {
        PersistedState {
            reset_clock: Timestamp::from_secs(r),
            inherited_error: Duration::from_secs(eps),
            reset_at: Timestamp::from_secs(at),
        }
    }

    /// A record holding only the base triple.
    fn base(state: PersistedState) -> MemoryStore {
        let mut record = MemoryStore::new();
        record.persist(state);
        record
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tempo-filestore-{name}-{}", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn reopened(path: &Path) -> MemoryStore {
        FileStore::open(path).unwrap().record()
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = temp_path("roundtrip");
        let written = state(123.456789, 0.001234, 123.5);
        {
            let mut store = FileStore::open(&path).unwrap();
            assert_eq!(store.record(), MemoryStore::new());
            store.write(base(written));
        }
        assert_eq!(reopened(&path).load(), Some(written));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn exact_bits_survive_even_awkward_values() {
        let path = temp_path("bits");
        // A value with no short decimal representation.
        let written = state(1.0 / 3.0, f64::MIN_POSITIVE, 1e9 + 1.0 / 7.0);
        FileStore::open(&path).unwrap().write(base(written));
        assert_eq!(reopened(&path).load(), Some(written));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_overwrites() {
        let path = temp_path("overwrite");
        let mut store = FileStore::open(&path).unwrap();
        store.write(base(state(1.0, 0.5, 1.0)));
        store.write(base(state(2.0, 0.25, 2.0)));
        assert_eq!(store.record().load(), Some(state(2.0, 0.25, 2.0)));
        assert_eq!(reopened(&path).load(), Some(state(2.0, 0.25, 2.0)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn empty_record_is_durable_amnesia() {
        let path = temp_path("wipe");
        let mut store = FileStore::open(&path).unwrap();
        store.write(base(state(1.0, 0.5, 1.0)));
        store.write(MemoryStore::new());
        assert_eq!(store.record(), MemoryStore::new());
        assert!(!path.exists(), "a wiped record leaves no file");
        assert_eq!(reopened(&path), MemoryStore::new());
    }

    #[test]
    fn corrupt_record_is_an_error_not_a_panic() {
        let path = temp_path("corrupt");
        fs::write(&path, "not hex at all\n").unwrap();
        assert!(FileStore::open(&path).is_err());
        fs::write(&path, "deadbeef\n").unwrap();
        assert!(FileStore::open(&path).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flush_rewrites_a_lost_file() {
        let path = temp_path("flush");
        let mut store = FileStore::open(&path).unwrap();
        store.write(base(state(3.0, 0.1, 3.0)));
        fs::remove_file(&path).unwrap();
        store.flush();
        assert_eq!(reopened(&path).load(), Some(state(3.0, 0.1, 3.0)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn cluster_record_round_trips_across_reopen() {
        let path = temp_path("cluster");
        let cs = ClusterState {
            view: 7,
            high_water: 12_500_001,
        };
        let mut record = MemoryStore::new();
        record.persist_cluster(cs);
        FileStore::open(&path).unwrap().write(record);
        let back = reopened(&path);
        assert_eq!(back.load_cluster(), Some(cs));
        // No base record was ever written; the slot stays empty.
        assert_eq!(back.load(), None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn base_and_cluster_records_coexist() {
        let path = temp_path("both");
        let cs = ClusterState {
            view: 2,
            high_water: 99,
        };
        let mut record = base(state(5.0, 0.02, 5.001));
        record.persist_cluster(cs);
        {
            let mut store = FileStore::open(&path).unwrap();
            store.write(record);
            // Re-persisting one side must not lose the other.
            record.persist(state(6.0, 0.01, 6.0));
            store.write(record);
        }
        let back = reopened(&path);
        assert_eq!(back.load(), Some(state(6.0, 0.01, 6.0)));
        assert_eq!(back.load_cluster(), Some(cs));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn three_field_file_is_refused_naming_the_path() {
        // The pre-cluster format: a base triple without the cluster
        // pair and flags.
        let path = temp_path("threefield");
        let written = state(123.456789, 0.001234, 123.5);
        fs::write(
            &path,
            format!(
                "{:016x} {:016x} {:016x}\n",
                written.reset_clock.as_secs().to_bits(),
                written.inherited_error.as_secs().to_bits(),
                written.reset_at.as_secs().to_bits(),
            ),
        )
        .unwrap();
        let err = FileStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn stale_tmp_is_ignored_and_cleaned_up() {
        // A crash mid-persist — after writing the temporary but before
        // the rename — leaves a `.tmp` of unknown integrity next to the
        // last committed record. Rehydration must trust only the
        // committed file and remove the leftover.
        let path = temp_path("staletmp");
        let committed = state(10.0, 0.5, 10.0);
        FileStore::open(&path).unwrap().write(base(committed));
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, "0123456789abcdef 0123").unwrap(); // torn write
        assert_eq!(
            reopened(&path).load(),
            Some(committed),
            "committed record lost"
        );
        assert!(!tmp.exists(), "stale .tmp not cleaned up");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn orphan_tmp_without_committed_record_is_an_empty_store() {
        // A crash during the *first* persist: no committed file exists
        // at all, only the suspect `.tmp`. The store must come up
        // empty (amnesia, handled by the bootstrap path), not adopt
        // the torn bytes.
        let path = temp_path("orphantmp");
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, "deadbeef").unwrap();
        let mut store = FileStore::open(&path).unwrap();
        assert_eq!(store.record(), MemoryStore::new());
        assert!(!tmp.exists(), "orphan .tmp not cleaned up");
        // And the next write works normally.
        store.write(base(state(1.0, 0.1, 1.0)));
        assert_eq!(reopened(&path).load(), Some(state(1.0, 0.1, 1.0)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn wrong_field_count_is_an_error() {
        let path = temp_path("fields");
        fs::write(&path, "0 0 0 0\n").unwrap();
        assert!(FileStore::open(&path).is_err());
        let _ = fs::remove_file(&path);
    }
}
