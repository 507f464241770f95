//! File-backed vault store: the offline-storage deployment model.
//!
//! Paper §4.2: "the records required to reverse account deletion might be
//! in offline storage". Each user's vault is one append-only file of
//! checksummed records (see [`crate::wal`]) under a root directory; user
//! keys are hex-encoded into file names so arbitrary id renderings are
//! safe.
//!
//! Crash consistency: appends are framed with per-record SHA-256
//! checksums and fsynced before `put` returns, rewrites (remove/purge) go
//! through temp-file + fsync + atomic rename, every change to the
//! directory's entries (new file, rename, removal) is followed by a
//! directory fsync, and reads recover from a torn tail — the partial record a
//! crash mid-append leaves behind — by truncating the file back to the
//! last complete record instead of failing to load. [`FileStore::open`]
//! also sweeps leftover `.tmp` files from interrupted rewrites.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use edna_obs::Tracer;
use edna_util::buf::{Bytes, BytesMut};
use edna_util::sync::{read_unpoisoned, write_unpoisoned};

use crate::entry::{EntryMeta, StoredEntry};
use crate::error::Result;
use crate::retry::RetryPolicy;
use crate::serialize::{read_bytes, write_bytes};
use crate::ship::{ShipKind, ShipSlot};
use crate::wal;

use super::{StoreStats, VaultStore};

/// A vault store persisting each user's entries to one file.
pub struct FileStore {
    root: PathBuf,
    // Serializes rewrites (remove/purge) against appends.
    lock: Mutex<()>,
    retry: RetryPolicy,
    retries: AtomicU64,
    recovered_records: AtomicU64,
    truncated_bytes: AtomicU64,
    tracer: RwLock<Option<Tracer>>,
    /// Replication tap: every durable append/rewrite of a user file is
    /// emitted here (as raw file bytes — sealed payloads ship sealed).
    ship: ShipSlot,
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `root`, removing any
    /// temp files a crashed rewrite left behind. Torn record tails are
    /// recovered lazily, on the first read of each user file.
    pub fn open(root: impl AsRef<Path>) -> Result<FileStore> {
        Self::open_with_retry(root, RetryPolicy::NONE)
    }

    /// Like [`FileStore::open`], with transient I/O errors retried per
    /// `retry`.
    pub fn open_with_retry(root: impl AsRef<Path>, retry: RetryPolicy) -> Result<FileStore> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        for entry in fs::read_dir(&root)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                fs::remove_file(&path)?;
            }
        }
        Ok(FileStore {
            root,
            lock: Mutex::new(()),
            retry,
            retries: AtomicU64::new(0),
            recovered_records: AtomicU64::new(0),
            truncated_bytes: AtomicU64::new(0),
            tracer: RwLock::new(None),
            ship: ShipSlot::new(),
        })
    }

    /// A clone of this store's replication tap slot: installing a hook
    /// into it (even after the store has been boxed behind a
    /// [`VaultStore`]) observes every durable file mutation. See
    /// [`crate::ship`].
    pub fn ship_slot(&self) -> ShipSlot {
        self.ship.clone()
    }

    /// Scans every user file now, truncating torn tails; returns how many
    /// bytes were discarded. Useful right after reopening a store that may
    /// have crashed mid-append (the CLI calls this on workspace open).
    pub fn recover(&self) -> Result<usize> {
        let users = self.users()?;
        let _g = self.lock.lock().unwrap();
        let before = self.truncated_bytes.load(Ordering::SeqCst);
        for user in users {
            self.read_all(&self.user_path(&user))?;
        }
        Ok((self.truncated_bytes.load(Ordering::SeqCst) - before) as usize)
    }

    fn user_path(&self, user: &str) -> PathBuf {
        let hex: String = user.bytes().map(|b| format!("{b:02x}")).collect();
        self.root.join(format!("vault_{hex}.bin"))
    }

    fn user_from_path(path: &Path) -> Option<String> {
        let stem = path.file_stem()?.to_str()?;
        let hex = stem.strip_prefix("vault_")?;
        if hex.len() % 2 != 0 {
            return None;
        }
        let bytes: Option<Vec<u8>> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
            .collect();
        String::from_utf8(bytes?).ok()
    }

    /// Reads every complete record; a torn tail is truncated away on the
    /// spot (and counted in [`StoreStats`]) rather than failing the read.
    /// Caller must hold `self.lock`.
    fn read_all(&self, path: &Path) -> Result<Vec<StoredEntry>> {
        // A missing file means "no entries", not a transient fault to retry.
        let data = match self.with_retry("file_read", || match fs::read(path) {
            Ok(d) => Ok(Some(d)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        })? {
            Some(d) => d,
            None => return Ok(Vec::new()),
        };
        let scan = wal::scan_records(&data);
        if scan.valid_len < data.len() {
            let torn = scan.torn_bytes(data.len());
            self.with_retry("file_truncate", || {
                let f = fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(scan.valid_len as u64)?;
                f.sync_all()?;
                Ok(())
            })?;
            self.truncated_bytes
                .fetch_add(torn as u64, Ordering::SeqCst);
            self.recovered_records
                .fetch_add(scan.records.len() as u64, Ordering::SeqCst);
        }
        scan.records
            .iter()
            .map(|body| Self::decode_record(body))
            .collect()
    }

    /// Fsyncs the store's directory, making a created, renamed or removed
    /// file name durable.
    fn sync_dir(&self) -> std::io::Result<()> {
        fs::File::open(&self.root)?.sync_all()
    }

    /// Caller must hold `self.lock`.
    fn write_all(&self, path: &Path, entries: &[StoredEntry]) -> Result<()> {
        if entries.is_empty() {
            self.with_retry("file_remove", || {
                match fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                self.sync_dir()?;
                Ok(())
            })?;
            self.ship
                .emit(ShipKind::Replace, &Self::file_name(path), &[]);
            return Ok(());
        }
        let mut buf = BytesMut::new();
        for e in entries {
            wal::append_record(&mut buf, &Self::record_body(e));
        }
        // Write, fsync, then rename for crash atomicity.
        let tmp = path.with_extension("tmp");
        self.with_retry("file_rewrite", || {
            use std::io::Write;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(buf.as_ref())?;
            f.sync_all()?;
            fs::rename(&tmp, path)?;
            self.sync_dir()?;
            Ok(())
        })?;
        self.ship
            .emit(ShipKind::Replace, &Self::file_name(path), buf.as_ref());
        Ok(())
    }

    fn file_name(path: &Path) -> String {
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    }

    fn record_body(entry: &StoredEntry) -> Vec<u8> {
        let mut buf = BytesMut::new();
        write_bytes(&mut buf, &entry.meta.encode());
        write_bytes(&mut buf, &entry.payload);
        buf.to_vec()
    }

    fn decode_record(body: &[u8]) -> Result<StoredEntry> {
        let mut buf = Bytes::copy_from_slice(body);
        let meta_bytes = read_bytes(&mut buf)?;
        let payload = read_bytes(&mut buf)?;
        let mut mb = Bytes::from(meta_bytes);
        let meta = EntryMeta::decode(&mut mb)?;
        Ok(StoredEntry { meta, payload })
    }

    fn with_retry<T>(&self, label: &str, op: impl FnMut() -> Result<T>) -> Result<T> {
        let tracer = read_unpoisoned(&self.tracer).clone();
        self.retry
            .run_traced(&self.retries, tracer.as_ref(), label, op)
    }

    fn append_bytes(&self, user: &str, bytes: &[u8]) -> Result<()> {
        let path = self.user_path(user);
        let (f, created) = self.with_retry("file_append", || {
            use std::io::Write;
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            // Files are removed when their last entry goes, so an empty
            // file is one this call may just have created.
            let created = f.metadata()?.len() == 0;
            f.write_all(bytes)?;
            Ok((f, created))
        })?;
        // Outside the retry: re-running the closure after a failed sync
        // would append the record twice.
        f.sync_data()?;
        if created {
            self.sync_dir()?;
        }
        self.ship
            .emit(ShipKind::Append, &Self::file_name(&path), bytes);
        Ok(())
    }
}

impl VaultStore for FileStore {
    fn put(&self, user: &str, entry: StoredEntry) -> Result<()> {
        let _g = self.lock.lock().unwrap();
        self.append_bytes(user, &wal::encode_record(&Self::record_body(&entry)))
    }

    fn list(&self, user: &str) -> Result<Vec<StoredEntry>> {
        let _g = self.lock.lock().unwrap();
        self.read_all(&self.user_path(user))
    }

    fn users(&self) -> Result<Vec<String>> {
        let _g = self.lock.lock().unwrap();
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "bin") {
                if let Some(user) = Self::user_from_path(&path) {
                    out.push(user);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn remove(&self, user: &str, disguise_id: u64) -> Result<usize> {
        let _g = self.lock.lock().unwrap();
        let path = self.user_path(user);
        let mut entries = self.read_all(&path)?;
        let before = entries.len();
        entries.retain(|e| e.meta.disguise_id != disguise_id);
        let removed = before - entries.len();
        if removed > 0 {
            self.write_all(&path, &entries)?;
        }
        Ok(removed)
    }

    fn purge_expired(&self, now: i64) -> Result<usize> {
        let users = self.users()?;
        let _g = self.lock.lock().unwrap();
        let mut purged = 0;
        for user in users {
            let path = self.user_path(&user);
            let mut entries = self.read_all(&path)?;
            let before = entries.len();
            entries.retain(|e| !e.meta.is_expired(now));
            if entries.len() != before {
                purged += before - entries.len();
                self.write_all(&path, &entries)?;
            }
        }
        Ok(purged)
    }

    fn entry_count(&self) -> Result<usize> {
        let users = self.users()?;
        let mut n = 0;
        for user in users {
            n += self.list(&user)?.len();
        }
        Ok(n)
    }

    fn put_torn(&self, user: &str, entry: StoredEntry, keep: f64) -> Result<()> {
        let _g = self.lock.lock().unwrap();
        let record = wal::encode_record(&Self::record_body(&entry));
        // Keep at least nothing and strictly less than the whole record,
        // so the write is really torn.
        let cut = ((record.len() as f64 * keep) as usize).min(record.len() - 1);
        self.append_bytes(user, &record[..cut])
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            retries: self.retries.load(Ordering::SeqCst),
            recovered_records: self.recovered_records.load(Ordering::SeqCst),
            truncated_bytes: self.truncated_bytes.load(Ordering::SeqCst),
        }
    }

    fn set_tracer(&self, tracer: Option<Tracer>) {
        *write_unpoisoned(&self.tracer) = tracer;
    }
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("root", &self.root)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryMeta;

    fn entry(id: u64, expires_at: Option<i64>) -> StoredEntry {
        StoredEntry {
            meta: EntryMeta {
                disguise_id: id,
                disguise_name: format!("d{id}"),
                created_at: 7,
                expires_at,
            },
            payload: vec![1, 2, 3, id as u8],
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("edna_vault_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persist_and_reload() {
        let dir = tempdir("persist");
        {
            let s = FileStore::open(&dir).unwrap();
            s.put("19", entry(1, None)).unwrap();
            s.put("19", entry(2, None)).unwrap();
            s.put("user'weird\"id", entry(3, None)).unwrap();
        }
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.list("19").unwrap().len(), 2);
        assert_eq!(s.list("19").unwrap()[0], entry(1, None));
        assert_eq!(s.list("user'weird\"id").unwrap().len(), 1);
        assert_eq!(
            s.users().unwrap().len(),
            2,
            "both user files should be discovered"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_rewrites_file() {
        let dir = tempdir("remove");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        s.put("u", entry(2, None)).unwrap();
        assert_eq!(s.remove("u", 1).unwrap(), 1);
        assert_eq!(s.list("u").unwrap(), vec![entry(2, None)]);
        // Removing the last entry deletes the file (user disappears).
        assert_eq!(s.remove("u", 2).unwrap(), 1);
        assert!(s.users().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn purge_expired_on_disk() {
        let dir = tempdir("purge");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, Some(10))).unwrap();
        s.put("u", entry(2, None)).unwrap();
        assert_eq!(s.purge_expired(10).unwrap(), 1);
        assert_eq!(s.entry_count().unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tempdir("torn");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        s.put("u", entry(2, None)).unwrap();
        let path = s.user_path("u");
        let full = fs::read(&path).unwrap();
        // Tear the file at every point inside the second record: the first
        // record must always survive, and a reload must settle the file.
        let first_record_len = {
            let scan = wal::scan_records(&full);
            assert_eq!(scan.records.len(), 2);
            let mut one = BytesMut::new();
            wal::append_record(&mut one, &scan.records[0]);
            one.len()
        };
        // Strictly inside the second record: a cut at the boundary is a
        // complete file, not a torn one.
        for cut in first_record_len + 1..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let s = FileStore::open(&dir).unwrap();
            let got = s.list("u").unwrap();
            assert_eq!(got, vec![entry(1, None)], "cut at {cut}");
            assert_eq!(
                fs::metadata(&path).unwrap().len(),
                first_record_len as u64,
                "file truncated back to the last complete record at cut {cut}"
            );
            let stats = s.stats();
            assert_eq!(stats.recovered_records, 1);
            assert_eq!(stats.truncated_bytes as usize, cut - first_record_len);
            // After recovery, appends resume cleanly.
            s.put("u", entry(3, None)).unwrap();
            assert_eq!(s.list("u").unwrap().len(), 2);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_torn_leaves_recoverable_tail() {
        let dir = tempdir("put_torn");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        for keep in [0.0, 0.33, 0.5, 0.9, 1.0] {
            s.put_torn("u", entry(2, None), keep).unwrap();
            // The torn record is invisible and gets truncated away.
            assert_eq!(s.list("u").unwrap(), vec![entry(1, None)], "keep {keep}");
        }
        assert!(s.stats().truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_recover_sweeps_all_users() {
        let dir = tempdir("recover");
        let s = FileStore::open(&dir).unwrap();
        s.put("a", entry(1, None)).unwrap();
        s.put_torn("a", entry(2, None), 0.5).unwrap();
        s.put("b", entry(3, None)).unwrap();
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        let torn = s.recover().unwrap();
        assert!(torn > 0);
        assert_eq!(s.recover().unwrap(), 0, "second pass finds nothing");
        assert_eq!(s.entry_count().unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_swept_on_open() {
        let dir = tempdir("tmp_sweep");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        let tmp = s.user_path("u").with_extension("tmp");
        fs::write(&tmp, b"half a rewrite").unwrap();
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert!(!tmp.exists(), "crashed rewrite's temp file is removed");
        assert_eq!(s.list("u").unwrap(), vec![entry(1, None)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_file_stops_at_first_bad_record() {
        let dir = tempdir("bitflip");
        let s = FileStore::open(&dir).unwrap();
        s.put("u", entry(1, None)).unwrap();
        s.put("u", entry(2, None)).unwrap();
        let path = s.user_path("u");
        let mut data = fs::read(&path).unwrap();
        // Flip a byte in the first record's body: nothing can be trusted.
        data[6] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        assert!(s.list("u").unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
