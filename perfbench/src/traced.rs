//! The traced run: the wire run's requests replayed in process under a
//! tracer, for per-layer attribution.
//!
//! The replay opens a fresh copy of the prepared workspace, installs a
//! tracer through `Disguiser::set_tracer` (database, vaults, journal),
//! wraps it in `Service` and calls `Service::handle` from the same number
//! of connections as the wire run, with a checkpoint every
//! [`CHECKPOINT_SECS`]. It adds no span inside the program; every
//! number comes from the program's existing spans, its registry counters,
//! or timings taken around the calls into it. Spans are kept in memory,
//! folded into aggregates in batches, and written to `spans.jsonl` in the
//! replay's directory.
//!
//! The benchmark holds its own reader/writer lock in front of
//! `Service::handle`, taken the way the service's door is taken:
//! apply, reveal and `apply_many` (and the checkpoint) exclusively,
//! statements shared. It changes no ordering the door would allow, and
//! makes two things exact: counter deltas around an exclusive call belong
//! to that call alone, and every program span inside its window belongs to
//! it. The door wait the service would have shown inside `handle` is
//! measured as the wait for this lock and counted in the handle time.
//!
//! The tracer tracks nesting through one global "current span", so spans
//! of concurrent statements cannot be linked to their request by parent
//! id. Statements are attributed instead by their own attributes
//! (`parse` carries the SQL text, `statement` its op), and exclusive
//! requests by time window.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use edna_core::Workspace;
use edna_obs::{SpanRecord, Tracer};
use edna_relational::{Database, StatsSnapshot};
use edna_server::{Request, Response, Service};
use edna_util::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};

use crate::drive::{self, Budget, Conn, Pace};
use crate::prep::{self, Prepared};
use crate::serve::CHECKPOINT_SECS;
use crate::stats::{mean, ratio};
use crate::workload::{Class, Workload};

/// What the wire run measured that per-layer metrics need.
pub struct WireFacts {
    /// The run length.
    pub seconds: u64,
    /// Requests the wire run sent.
    pub ops: usize,
    /// Mean client-side time from send to response, µs.
    pub client_us_mean: f64,
    /// Mean `edna_server_request_us` over the same requests, µs.
    pub request_us_mean: f64,
    /// Connections refused `busy` plus requests the clients re-sent.
    pub busy_rejections: f64,
}

/// The replay's outcome.
pub struct Replay {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Requests replayed.
    pub attempted: usize,
    /// Failed requests plus failed end-of-run checks.
    pub failed: usize,
    /// Human-readable remarks.
    pub notes: Vec<String>,
}

/// Spans buffered before the benchmark folds them into its aggregates.
const HARVEST_AT: usize = 20_000;

/// Registry counters sampled around calls.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    stats: StatsSnapshot,
    fsyncs: u64,
    wal_bytes: u64,
    frames: u64,
    group_commits: u64,
    group_frames: u64,
}

impl Counters {
    fn read(db: &Database) -> Counters {
        let m = db.metrics();
        let c = |name: &str| m.counter(name, "").get();
        let group = m.histogram("edna_wal_group_size", "", &[1, 2, 4, 8, 16, 32, 64, 128]);
        Counters {
            stats: db.stats(),
            fsyncs: c("edna_wal_fsyncs_total"),
            wal_bytes: c("edna_wal_bytes_total"),
            frames: c("edna_wal_frames_total"),
            group_commits: c("edna_wal_group_commits_total"),
            group_frames: group.sum_micros(),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            stats: self.stats.since(&before.stats),
            fsyncs: self.fsyncs - before.fsyncs,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            frames: self.frames - before.frames,
            group_commits: self.group_commits - before.group_commits,
            group_frames: self.group_frames - before.group_frames,
        }
    }

    /// Adds the deltas the per-layer metrics use.
    fn add(&mut self, d: &Counters) {
        let s = &mut self.stats;
        s.statements += d.stats.statements;
        s.rows_read += d.stats.rows_read;
        s.rows_written += d.stats.rows_written;
        self.fsyncs += d.fsyncs;
        self.wal_bytes += d.wal_bytes;
    }
}

/// Per-class totals.
#[derive(Debug, Default, Clone)]
struct ClassAgg {
    n: usize,
    /// Lock wait + `Service::handle`, µs.
    root_us: f64,
    /// `Service::handle` alone, µs.
    handle_us: f64,
    /// Root time covered by program spans, µs.
    covered_us: f64,
    /// Users disguised.
    users: usize,
    /// Rows returned (reads).
    rows: usize,
    /// Counter deltas (exclusive classes only).
    counters: Counters,
}

#[derive(Debug, Default)]
struct Agg {
    classes: BTreeMap<Class, ClassAgg>,
    /// (class, label) → (total µs, count).
    labels: BTreeMap<(Class, String), (f64, usize)>,
    /// Root self time (µs) and count, for `disguise_apply` and `reveal`.
    self_us: BTreeMap<&'static str, (f64, usize)>,
    checkpoints: Vec<f64>,
    checkpoint_counters: Counters,
    failed: usize,
    /// The first error writing the span file.
    write_error: Option<String>,
}

struct Shared<'a> {
    svc: &'a Service,
    door: RwLock<()>,
    tracer: Tracer,
    agg: Mutex<Agg>,
    /// Every span, as JSON Lines (`edna trace` reads them).
    out: Mutex<BufWriter<File>>,
}

fn class_of(req: &Request) -> Class {
    match req.op.as_str() {
        "apply" => Class::Apply,
        "reveal" => Class::Reveal,
        "apply_many" => Class::ApplyMany,
        _ if is_select(&req.body) => Class::Read,
        _ => Class::Write,
    }
}

fn is_select(sql: &str) -> bool {
    sql.trim_start()
        .get(..6)
        .is_some_and(|p| p.eq_ignore_ascii_case("select"))
}

fn attr<'s>(s: &'s SpanRecord, key: &str) -> Option<&'s str> {
    s.attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

impl Shared<'_> {
    /// Moves the buffered spans out of the tracer. Called with the door
    /// held exclusively, so no request is half-recorded.
    fn take_spans(&self) -> Vec<SpanRecord> {
        let spans = self.tracer.spans();
        self.tracer.clear();
        spans
    }

    /// Folds a batch of complete spans into the aggregates.
    fn fold(&self, spans: Vec<SpanRecord>) {
        let mut agg = lock_unpoisoned(&self.agg);
        {
            let mut out = lock_unpoisoned(&self.out);
            for span in &spans {
                if let Err(e) = writeln!(out, "{}", span.to_json()) {
                    agg.write_error.get_or_insert_with(|| e.to_string());
                    break;
                }
            }
        }
        // Exclusive request windows, by start.
        let mut windows: Vec<(u64, u64, Class)> = spans
            .iter()
            .filter(|s| s.label == "bench.handle")
            .filter_map(|s| {
                let class = class_from_name(attr(s, "class")?)?;
                class
                    .exclusive()
                    .then_some((s.start_us, s.start_us + s.dur_us, class))
            })
            .collect();
        windows.sort_unstable();
        let window_of = |s: &SpanRecord| -> Option<usize> {
            let i = windows.partition_point(|w| w.0 <= s.start_us);
            let i = i.checked_sub(1)?;
            (s.start_us + s.dur_us <= windows[i].1).then_some(i)
        };
        let statement_class: BTreeMap<u64, Class> = spans
            .iter()
            .filter(|s| s.label == "statement" && window_of(s).is_none())
            .map(|s| {
                let c = if attr(s, "op") == Some("select") {
                    Class::Read
                } else {
                    Class::Write
                };
                (s.id, c)
            })
            .collect();
        let mut in_window: Vec<Vec<&SpanRecord>> = vec![Vec::new(); windows.len()];
        for s in spans.iter().filter(|s| s.label != "bench.handle") {
            let window = window_of(s);
            let class = match (window, s.label.as_str()) {
                (Some(i), _) => {
                    in_window[i].push(s);
                    windows[i].2
                }
                (None, "parse") if attr(s, "sql").is_some_and(is_select) => Class::Read,
                (None, "parse") => Class::Write,
                (None, "statement") => statement_class[&s.id],
                // `lock_wait` and `execute` belong to their statement;
                // anything else outside a request (checkpoints) is skipped.
                (None, _) => match s.parent.and_then(|p| statement_class.get(&p)) {
                    Some(&c) => c,
                    None => continue,
                },
            };
            let e = agg.labels.entry((class, label_key(s))).or_default();
            e.0 += s.dur_us as f64;
            e.1 += 1;
            if window.is_none() && matches!(s.label.as_str(), "parse" | "statement") {
                agg.classes.entry(class).or_default().covered_us += s.dur_us as f64;
            }
        }
        for (i, members) in in_window.iter().enumerate() {
            let class = windows[i].2;
            let covered = union_len(
                members
                    .iter()
                    .map(|s| (s.start_us, s.start_us + s.dur_us))
                    .collect(),
            );
            agg.classes.entry(class).or_default().covered_us += covered as f64;
            for root in members
                .iter()
                .filter(|s| s.label == "disguise_apply" || s.label == "reveal")
            {
                let children: u64 = members
                    .iter()
                    .filter(|c| c.parent == Some(root.id))
                    .map(|c| c.dur_us)
                    .sum();
                let key = if root.label == "reveal" {
                    "reveal"
                } else {
                    "disguise_apply"
                };
                let e = agg.self_us.entry(key).or_default();
                e.0 += root.dur_us.saturating_sub(children) as f64;
                e.1 += 1;
            }
        }
    }
}

/// Statement spans are split by op so selects and writes keep apart.
fn label_key(s: &SpanRecord) -> String {
    match (s.label.as_str(), attr(s, "op")) {
        ("statement", Some("select")) => "statement.select".to_string(),
        ("statement", _) => "statement.write".to_string(),
        (l, _) => l.to_string(),
    }
}

fn class_from_name(name: &str) -> Option<Class> {
    Class::ALL.into_iter().find(|c| c.name() == name)
}

/// One lane's in-process connection.
struct InProc<'a, 'b> {
    shared: &'a Shared<'b>,
}

impl Conn for InProc<'_, '_> {
    fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        let sh = self.shared;
        let class = class_of(req);
        let asked = Instant::now();
        let (resp, waited, took, delta, harvest) = if class.exclusive() {
            let _door = write_unpoisoned(&sh.door);
            let waited = asked.elapsed();
            let before = Counters::read(&sh.svc.workspace().db);
            let started = Instant::now();
            let resp = sh.svc.handle(req);
            let took = started.elapsed();
            let delta = Counters::read(&sh.svc.workspace().db).since(&before);
            record(sh, class, waited, started, took);
            let harvest = (sh.tracer.len() >= HARVEST_AT).then(|| sh.take_spans());
            (resp, waited, took, Some(delta), harvest)
        } else {
            let _door = read_unpoisoned(&sh.door);
            let waited = asked.elapsed();
            let started = Instant::now();
            let resp = sh.svc.handle(req);
            let took = started.elapsed();
            record(sh, class, waited, started, took);
            (resp, waited, took, None, None)
        };
        {
            let mut agg = lock_unpoisoned(&sh.agg);
            let c = agg.classes.entry(class).or_default();
            c.n += 1;
            c.root_us += (waited + took).as_secs_f64() * 1e6;
            c.handle_us += took.as_secs_f64() * 1e6;
            if let Some(d) = &delta {
                c.counters.add(d);
            }
            if resp.ok {
                let num = |k: &str| {
                    resp.header_value(k)
                        .and_then(|v| v.trim().parse::<usize>().ok())
                };
                match class {
                    Class::Read => c.rows += num("rows").unwrap_or(0),
                    Class::Apply => c.users += 1,
                    Class::ApplyMany => c.users += num("succeeded").unwrap_or(0),
                    Class::Write | Class::Reveal => {}
                }
            }
        }
        if let Some(spans) = harvest {
            sh.fold(spans);
        }
        Ok(resp)
    }
}

fn record(sh: &Shared<'_>, class: Class, waited: Duration, started: Instant, took: Duration) {
    sh.tracer.record(
        None,
        "bench.handle",
        started,
        took,
        vec![
            ("class".to_string(), class.name().to_string()),
            ("door_wait_us".to_string(), waited.as_micros().to_string()),
        ],
    );
}

/// Replays the wire run's requests in process and derives the per-layer
/// metrics.
pub fn replay(
    workload: Workload,
    seed: u64,
    work: &Path,
    prepared: &Prepared,
    facts: &WireFacts,
) -> Result<Replay, String> {
    let dir = work.join(format!("traced-{}", workload.name()));
    let state = prep::fresh_copy(prepared, &dir)?;
    let vault_before = prep::tree_bytes(&prep::vault_dir(&state)) as f64;
    let ws = Workspace::open(&state, workload.passphrase()).map_err(|e| format!("open: {e}"))?;
    let tracer = Tracer::new(4 * HARVEST_AT);
    ws.edna.set_tracer(Some(tracer.clone()));
    let svc = Service::new(ws).map_err(|e| format!("service: {e}"))?;
    let spans_path = dir.join("spans.jsonl");
    let out = File::create(&spans_path)
        .map_err(|e| format!("cannot create {}: {e}", spans_path.display()))?;
    let shared = Shared {
        svc: &svc,
        door: RwLock::new(()),
        tracer: tracer.clone(),
        agg: Mutex::new(Agg::default()),
        out: Mutex::new(BufWriter::new(out)),
    };
    let total_before = Counters::read(&svc.workspace().db);
    let mut lane = drive::Lane::new(workload, seed, &prepared.ids);
    // The same requests: the same arrival times in the open loop, the same
    // count in the closed loop.
    let (pace, budget) = match workload.open_rate() {
        Some(rate) => (
            Pace::Open(rate),
            Budget {
                until: Duration::from_secs(facts.seconds),
                max_ops: None,
            },
        ),
        None => (
            Pace::Closed,
            Budget {
                until: Duration::from_secs(facts.seconds * 10),
                max_ops: Some(facts.ops),
            },
        ),
    };
    let done = std::sync::atomic::AtomicBool::new(false);
    let t0 = Instant::now();
    let result = std::thread::scope(|s| {
        let checkpointer = s.spawn(|| {
            let every = Duration::from_secs(CHECKPOINT_SECS);
            let mut next = t0 + every;
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                if Instant::now() < next {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
                next += every;
                let _door = write_unpoisoned(&shared.door);
                let before = Counters::read(&svc.workspace().db);
                let started = Instant::now();
                let ok = svc.checkpoint().is_ok();
                let took = started.elapsed();
                let d = Counters::read(&svc.workspace().db).since(&before);
                let mut agg = lock_unpoisoned(&shared.agg);
                agg.checkpoints.push(took.as_secs_f64() * 1e3);
                agg.checkpoint_counters.add(&d);
                if !ok {
                    agg.failed += 1;
                }
            }
        });
        let mut conns: Vec<InProc> = (0..workload.connections())
            .map(|_| InProc { shared: &shared })
            .collect();
        let conns = conns.iter_mut().map(|c| c as _).collect();
        let result = drive::run_lane(workload, &mut lane, conns, pace, budget, t0);
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        checkpointer.join().expect("checkpointer panicked");
        result
    });
    let total = Counters::read(&svc.workspace().db).since(&total_before);
    shared.fold(shared.take_spans());
    let dropped = tracer.dropped();
    let vault_growth = prep::tree_bytes(&prep::vault_dir(&state)) as f64 - vault_before;
    let mut agg = shared.agg.into_inner().unwrap_or_else(|p| p.into_inner());
    let flushed = shared
        .out
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_inner()
        .map_err(|e| e.to_string())
        .and_then(|f| f.sync_all().map_err(|e| e.to_string()));
    if let Err(e) = flushed {
        agg.write_error.get_or_insert(e);
    }
    drop(svc);
    let promises = lane.promises().clone();
    let verdict =
        crate::check::verify(&state, workload, &prepared.dir.join(prep::STATE), &promises);
    let attempted = result.samples.len();
    let failed = result.samples.iter().filter(|s| !s.ok).count()
        + result.refusals as usize
        + agg.failed
        + verdict.failures.len();
    let mut notes = vec![format!(
        "traced replay: {attempted} requests, {} checkpoints, {} end-of-run checks ({} failed), \
         {dropped} spans dropped",
        agg.checkpoints.len(),
        verdict.checked,
        verdict.failures.len()
    )];
    notes.push(match &agg.write_error {
        None => format!("spans written to {}", spans_path.display()),
        Some(e) => format!("writing {} failed: {e}", spans_path.display()),
    });
    notes.extend(
        verdict
            .failures
            .iter()
            .take(10)
            .map(|f| format!("check failure: {f}")),
    );
    notes.extend(result.errors.iter().map(|e| format!("op failure: {e}")));
    Ok(Replay {
        metrics: per_layer(&agg, &total, facts, vault_growth),
        attempted,
        failed,
        notes,
    })
}

/// Mean µs per event of `label` spans of the given classes.
fn label_mean(agg: &Agg, classes: &[Class], label: &str) -> f64 {
    let (sum, n) = label_total(agg, classes, label);
    ratio(sum, n as f64)
}

/// Total µs and count of `label` spans of the given classes.
fn label_total(agg: &Agg, classes: &[Class], label: &str) -> (f64, usize) {
    classes.iter().fold((0.0, 0), |(s, n), c| {
        let (ls, ln) = agg
            .labels
            .get(&(*c, label.to_string()))
            .copied()
            .unwrap_or_default();
        (s + ls, n + ln)
    })
}

fn per_layer(
    agg: &Agg,
    total: &Counters,
    facts: &WireFacts,
    vault_growth: f64,
) -> Vec<(String, f64, &'static str)> {
    let all = Class::ALL;
    let class = |c: Class| agg.classes.get(&c).cloned().unwrap_or_default();
    let (apply, reveal, many) = (
        class(Class::Apply),
        class(Class::Reveal),
        class(Class::ApplyMany),
    );
    let (reads, writes) = (class(Class::Read), class(Class::Write));
    let n_all: usize = agg.classes.values().map(|c| c.n).sum();
    let root_all: f64 = agg.classes.values().map(|c| c.root_us).sum();
    let covered_all: f64 = agg.classes.values().map(|c| c.covered_us).sum();
    let handle_all: f64 = agg.classes.values().map(|c| c.handle_us).sum();
    // Counter deltas of the exclusive calls, and what the statements and
    // the checkpoints did besides.
    let mut exclusive = Counters::default();
    for c in [&apply, &reveal, &many] {
        exclusive.add(&c.counters);
    }
    let mut disguising = apply.counters;
    disguising.add(&many.counters);
    let users = (apply.users + many.users) as f64;
    let shared_rows_read = total.stats.rows_read as f64
        - exclusive.stats.rows_read as f64
        - agg.checkpoint_counters.stats.rows_read as f64;
    let shared_fsyncs =
        total.fsyncs as f64 - exclusive.fsyncs as f64 - agg.checkpoint_counters.fsyncs as f64;
    let per_apply = |label: &str| ratio(label_total(agg, &[Class::Apply], label).0, apply.n as f64);
    let per_reveal =
        |label: &str| ratio(label_total(agg, &[Class::Reveal], label).0, reveal.n as f64);
    let per_user = |labels: &[&str]| {
        let sum: f64 = labels
            .iter()
            .map(|l| label_total(agg, &[Class::Apply, Class::ApplyMany], l).0)
            .sum();
        ratio(sum, users)
    };
    let self_mean = |key: &str| {
        let (s, n) = agg.self_us.get(key).copied().unwrap_or_default();
        ratio(s, n as f64)
    };
    let unattributed = |c: &ClassAgg| ratio(c.root_us - c.covered_us, c.root_us);
    let st = &total.stats;
    vec![
        (
            "server.wire_us".into(),
            facts.client_us_mean - facts.request_us_mean,
            "us",
        ),
        (
            "server.handle_us".into(),
            ratio(root_all, n_all as f64),
            "us",
        ),
        (
            "server.handle_self_us".into(),
            ratio(root_all - covered_all, n_all as f64),
            "us",
        ),
        (
            "server.busy_rejections".into(),
            facts.busy_rejections,
            "count",
        ),
        (
            "server.checkpoint_stall_ms".into(),
            mean(&agg.checkpoints),
            "ms",
        ),
        (
            "relational.select_us".into(),
            label_mean(agg, &all, "statement.select"),
            "us",
        ),
        (
            "relational.write_us".into(),
            label_mean(agg, &all, "statement.write"),
            "us",
        ),
        (
            "relational.lock_wait_us".into(),
            label_mean(agg, &all, "lock_wait"),
            "us",
        ),
        (
            "relational.parse_us".into(),
            label_mean(agg, &all, "parse"),
            "us",
        ),
        (
            "relational.rows_read_per_row_returned".into(),
            ratio(shared_rows_read, reads.rows as f64),
            "ratio",
        ),
        (
            "relational.table_scans_per_select".into(),
            ratio(st.table_scans as f64, st.selects as f64),
            "ratio",
        ),
        (
            "relational.stmt_cache_hit_ratio".into(),
            ratio(
                st.stmt_cache_hits as f64,
                (st.stmt_cache_hits + st.stmt_cache_misses) as f64,
            ),
            "ratio",
        ),
        (
            "relational.plan_cache_hits_per_statement".into(),
            ratio(st.plan_cache_hits as f64, st.statements as f64),
            "ratio",
        ),
        (
            "relational.statements_per_disguise".into(),
            ratio(disguising.stats.statements as f64, users),
            "count",
        ),
        (
            "relational.rows_written_per_disguise".into(),
            ratio(disguising.stats.rows_written as f64, users),
            "count",
        ),
        (
            "wal.fsyncs_per_disguise".into(),
            ratio(disguising.fsyncs as f64, users),
            "count",
        ),
        (
            "wal.bytes_per_disguise".into(),
            ratio(disguising.wal_bytes as f64, users),
            "bytes",
        ),
        (
            "wal.frames_per_fsync".into(),
            ratio(total.frames as f64, total.fsyncs as f64),
            "ratio",
        ),
        (
            "wal.group_size_mean".into(),
            ratio(total.group_frames as f64, total.group_commits as f64),
            "frames",
        ),
        (
            "wal.fsyncs_per_write".into(),
            ratio(shared_fsyncs, writes.n as f64),
            "count",
        ),
        ("core.apply_us".into(), per_apply("disguise_apply"), "us"),
        (
            "core.apply_self_us".into(),
            self_mean("disguise_apply"),
            "us",
        ),
        ("core.transform_us".into(), per_apply("transform"), "us"),
        (
            "core.predicate_scan_us".into(),
            per_apply("predicate_scan"),
            "us",
        ),
        (
            "core.history_append_us".into(),
            per_apply("history_append"),
            "us",
        ),
        ("core.recorrelate_us".into(), per_apply("recorrelate"), "us"),
        ("core.redo_pass_us".into(), per_apply("redo_pass"), "us"),
        ("core.reapply_us".into(), per_reveal("reapply"), "us"),
        ("core.reveal_us".into(), per_reveal("reveal"), "us"),
        ("core.reveal_self_us".into(), self_mean("reveal"), "us"),
        (
            "core.apply_many_us_per_user".into(),
            ratio(
                label_total(agg, &[Class::ApplyMany], "disguise_apply_many").0,
                many.users as f64,
            ),
            "us",
        ),
        ("vault.write_us".into(), per_user(&["vault_write"]), "us"),
        (
            "vault.put_us".into(),
            per_user(&["vault_put", "vault_put_batch"]),
            "us",
        ),
        (
            "vault.file_append_us".into(),
            per_user(&["file_append"]),
            "us",
        ),
        (
            "vault.journal_append_us".into(),
            per_user(&["journal_append"]),
            "us",
        ),
        (
            "vault.bytes_per_disguise".into(),
            ratio(vault_growth, users),
            "bytes",
        ),
        (
            "trace.unattributed_share.read".into(),
            unattributed(&reads),
            "ratio",
        ),
        (
            "trace.unattributed_share.write".into(),
            unattributed(&writes),
            "ratio",
        ),
        (
            "trace.unattributed_share.apply".into(),
            unattributed(&apply),
            "ratio",
        ),
        (
            "trace.unattributed_share.reveal".into(),
            unattributed(&reveal),
            "ratio",
        ),
        (
            "trace.unattributed_share.apply_many".into(),
            unattributed(&many),
            "ratio",
        ),
        (
            "trace.overhead_ratio".into(),
            ratio(ratio(handle_all, n_all as f64), facts.request_us_mean),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_intervals() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![(3, 4), (0, 10)]), 10);
    }

    #[test]
    fn classes_from_requests() {
        assert_eq!(
            class_of(&Request::new("sql").body("  select 1")),
            Class::Read
        );
        assert_eq!(
            class_of(&Request::new("sql").body("UPDATE t SET a = 1")),
            Class::Write
        );
        assert_eq!(class_of(&Request::new("apply_many")), Class::ApplyMany);
    }
}
