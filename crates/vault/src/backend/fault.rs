//! Fault injection for vault backends.
//!
//! [`FaultPlan`] is a seedable, deterministic description of *which* vault
//! operations misbehave and *how*: fail the nth operation, fail a random
//! fraction of operations, add a latency spike, or tear a write in half
//! (persist only a prefix of the record, as a crash mid-`write` would).
//! [`FaultyStore`] wraps any [`VaultStore`] and consults the plan before
//! delegating, so the whole storage stack above it — retry policies,
//! abort handling, crash recovery — can be exercised without real
//! disks or networks misbehaving on cue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use edna_util::rng::{Rng, SplitMix64};

use crate::entry::StoredEntry;
use crate::error::{Error, Result};

use super::{StoreStats, VaultStore};

/// What the plan decided for one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decision {
    /// Let the operation through untouched.
    Pass,
    /// Fail the operation with an injected error.
    Fail,
    /// Delay, then let the operation through.
    Delay(Duration),
    /// For writes: persist only `keep` (a fraction in `0.0..1.0`) of the
    /// record's bytes, then report success — a torn write.
    Torn(f64),
}

/// A deterministic, seedable fault schedule for a vault backend.
///
/// Operations are counted across the whole store (puts, lists, removals,
/// …) in call order; the counter is what `fail_nth` indexes. All
/// randomness comes from a [`SplitMix64`] stream seeded at construction,
/// so a failing schedule reproduces exactly from its seed.
///
/// # Examples
///
/// ```
/// use edna_vault::{FaultPlan, FaultyStore, MemoryStore, VaultStore};
///
/// // Fail the second operation the store sees, permanently.
/// let store = FaultyStore::new(MemoryStore::new(), FaultPlan::new(7).fail_nth(1));
/// assert!(store.users().is_ok());
/// assert!(store.users().is_err());
/// assert!(store.users().is_ok());
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    rng: Mutex<SplitMix64>,
    ops: AtomicU64,
    injected: AtomicU64,
    fail_nth: Option<u64>,
    error_rate: f64,
    transient: bool,
    io_kind: Option<std::io::ErrorKind>,
    latency_nth: Option<u64>,
    latency: Duration,
    torn_nth: Option<u64>,
    torn_keep: f64,
}

impl FaultPlan {
    /// A plan that injects nothing yet; combine with the builder methods.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: Mutex::new(SplitMix64::new(seed)),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            fail_nth: None,
            error_rate: 0.0,
            transient: false,
            io_kind: None,
            latency_nth: None,
            latency: Duration::ZERO,
            torn_nth: None,
            torn_keep: 0.5,
        }
    }

    /// Fail the `n`th operation (0-based, counted across all ops).
    pub fn fail_nth(mut self, n: u64) -> FaultPlan {
        self.fail_nth = Some(n);
        self
    }

    /// Fail each operation independently with probability `p`.
    pub fn error_rate(mut self, p: f64) -> FaultPlan {
        self.error_rate = p.clamp(0.0, 1.0);
        self
    }

    /// Injected failures are transient ([`Error::is_transient`] is true),
    /// so retry policies may absorb them. Default: permanent.
    pub fn transient(mut self) -> FaultPlan {
        self.transient = true;
        self
    }

    /// Injected failures surface as [`Error::Io`] with the given kind
    /// (e.g. [`std::io::ErrorKind::StorageFull`] for a full disk) instead
    /// of [`Error::Injected`] — their retry classification then follows
    /// the real I/O rules, so fail-fast behavior on ENOSPC/EROFS can be
    /// exercised without actually filling a disk.
    pub fn io_error_kind(mut self, kind: std::io::ErrorKind) -> FaultPlan {
        self.io_kind = Some(kind);
        self
    }

    /// Delay the `n`th operation by `latency` (a latency spike) instead of
    /// failing it.
    pub fn latency_spike(mut self, n: u64, latency: Duration) -> FaultPlan {
        self.latency_nth = Some(n);
        self.latency = latency;
        self
    }

    /// Tear the `n`th operation *if it is a write*: persist only `keep`
    /// (a fraction in `0.0..1.0`) of the record bytes, then report
    /// success — what a crash between `write` and `fsync` leaves behind.
    /// Non-write operations at that index pass through.
    pub fn torn_write_nth(mut self, n: u64, keep: f64) -> FaultPlan {
        self.torn_nth = Some(n);
        self.torn_keep = keep.clamp(0.0, 1.0);
        self
    }

    /// Operations the plan has seen so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Faults injected so far (failures and torn writes, not delays).
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Consumes one operation slot and decides its fate. `is_write`
    /// enables torn-write decisions.
    fn decide(&self, is_write: bool) -> (u64, Decision) {
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.torn_nth == Some(index) && is_write {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return (index, Decision::Torn(self.torn_keep));
        }
        if self.fail_nth == Some(index) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return (index, Decision::Fail);
        }
        if self.error_rate > 0.0 {
            let roll = {
                let mut rng = self.rng.lock().unwrap();
                // Map the top 53 bits to [0, 1), as `Rng::gen_bool` does.
                (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
            };
            if roll < self.error_rate {
                self.injected.fetch_add(1, Ordering::SeqCst);
                return (index, Decision::Fail);
            }
        }
        if self.latency_nth == Some(index) {
            return (index, Decision::Delay(self.latency));
        }
        (index, Decision::Pass)
    }
}

/// A [`VaultStore`] wrapper that injects the faults of a [`FaultPlan`].
pub struct FaultyStore<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: VaultStore> FaultyStore<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStore<S> {
        FaultyStore {
            inner,
            plan: Arc::new(plan),
        }
    }

    /// The shared plan (for asserting on counters after a run).
    pub fn plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.plan)
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Applies the plan's decision for one non-write op, then runs `f`.
    fn guard<T>(&self, op: &str, f: impl FnOnce(&S) -> Result<T>) -> Result<T> {
        let (index, decision) = self.plan.decide(false);
        match decision {
            Decision::Fail => Err(self.injected(op, index)),
            Decision::Delay(d) => {
                std::thread::sleep(d);
                f(&self.inner)
            }
            // Torn is write-only; decide() never returns it here.
            Decision::Pass | Decision::Torn(_) => f(&self.inner),
        }
    }

    fn injected(&self, op: &str, index: u64) -> Error {
        match self.plan.io_kind {
            Some(kind) => Error::Io(std::io::Error::new(
                kind,
                format!("injected I/O fault on vault op {op} (op index {index})"),
            )),
            None => Error::Injected {
                op: op.to_string(),
                index,
                transient: self.plan.transient,
            },
        }
    }
}

impl<S: VaultStore> VaultStore for FaultyStore<S> {
    fn put(&self, user: &str, entry: StoredEntry) -> Result<()> {
        let (index, decision) = self.plan.decide(true);
        match decision {
            Decision::Fail => Err(self.injected("put", index)),
            Decision::Torn(keep) => self.inner.put_torn(user, entry, keep),
            Decision::Delay(d) => {
                std::thread::sleep(d);
                self.inner.put(user, entry)
            }
            Decision::Pass => self.inner.put(user, entry),
        }
    }

    fn list(&self, user: &str) -> Result<Vec<StoredEntry>> {
        self.guard("list", |s| s.list(user))
    }

    fn users(&self) -> Result<Vec<String>> {
        self.guard("users", |s| s.users())
    }

    fn remove(&self, user: &str, disguise_id: u64) -> Result<usize> {
        self.guard("remove", |s| s.remove(user, disguise_id))
    }

    fn purge_expired(&self, now: i64) -> Result<usize> {
        self.guard("purge_expired", |s| s.purge_expired(now))
    }

    fn entry_count(&self) -> Result<usize> {
        self.guard("entry_count", |s| s.entry_count())
    }

    fn storage_bytes(&self) -> Result<usize> {
        self.guard("storage_bytes", |s| s.storage_bytes())
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn set_tracer(&self, tracer: Option<edna_obs::Tracer>) {
        self.inner.set_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryStore;
    use crate::entry::EntryMeta;

    fn entry(id: u64) -> StoredEntry {
        StoredEntry {
            meta: EntryMeta {
                disguise_id: id,
                disguise_name: "d".to_string(),
                created_at: 0,
                expires_at: None,
            },
            payload: vec![1, 2, 3],
        }
    }

    #[test]
    fn fail_nth_hits_exactly_one_op() {
        let store = FaultyStore::new(MemoryStore::new(), FaultPlan::new(1).fail_nth(2));
        store.put("u", entry(1)).unwrap(); // op 0
        store.put("u", entry(2)).unwrap(); // op 1
        let err = store.put("u", entry(3)).unwrap_err(); // op 2
        assert!(matches!(err, Error::Injected { index: 2, .. }));
        store.put("u", entry(4)).unwrap(); // op 3
        assert_eq!(store.inner().entry_count().unwrap(), 3);
        assert_eq!(store.plan().faults_injected(), 1);
    }

    #[test]
    fn error_rate_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let store = FaultyStore::new(MemoryStore::new(), FaultPlan::new(seed).error_rate(0.5));
            (0..64)
                .map(|i| store.put("u", entry(i)).is_err())
                .collect::<Vec<bool>>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same schedule");
        assert_ne!(a, run(43), "different seed, different schedule");
        let failures = a.iter().filter(|x| **x).count();
        assert!(
            (10..=54).contains(&failures),
            "rate ~0.5, got {failures}/64"
        );
    }

    #[test]
    fn transient_flag_controls_classification() {
        let permanent = FaultyStore::new(MemoryStore::new(), FaultPlan::new(1).fail_nth(0));
        assert!(!permanent.users().unwrap_err().is_transient());
        let transient = FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(1).fail_nth(0).transient(),
        );
        assert!(transient.users().unwrap_err().is_transient());
    }

    #[test]
    fn latency_spike_delays_but_succeeds() {
        let store = FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(1).latency_spike(0, Duration::from_millis(20)),
        );
        let start = std::time::Instant::now();
        store.put("u", entry(1)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
        store.put("u", entry(2)).unwrap();
        assert_eq!(store.inner().entry_count().unwrap(), 2);
    }

    #[test]
    fn torn_write_unsupported_on_memory_store() {
        // MemoryStore can't model partial persistence; the default
        // `put_torn` reports that instead of silently dropping the write.
        let store = FaultyStore::new(MemoryStore::new(), FaultPlan::new(1).torn_write_nth(0, 0.5));
        assert!(store.put("u", entry(1)).is_err());
    }

    #[test]
    fn torn_decision_skips_reads() {
        let store = FaultyStore::new(MemoryStore::new(), FaultPlan::new(1).torn_write_nth(0, 0.5));
        // Op 0 is a read: the torn decision does not apply to it.
        assert!(store.users().is_ok());
    }
}
