//! `perfbench`: the wire-level benchmark of `edna serve`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --edna <path to the edna binary> [--work <dir>]
//! ```
//!
//! One run prepares (or reuses) the workload's instance, starts `edna serve`
//! on a fresh copy several times to time set-up, drives the workload's
//! traffic over loopback for `--seconds`, drains the server, reopens the
//! state and checks it. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it also replays the same requests in process
//! under a tracer and prints the per-layer metrics. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `run.sh` builds everything and calls this.

mod check;
mod drive;
mod prep;
mod serve;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use edna_server::Client;

use drive::{Budget, Lane, LaneResult, Pace, Sample};
use workload::{Class, Workload};

/// Times `edna serve` is started on a fresh copy to measure set-up: a
/// HotCRP start takes tens of milliseconds, a Lobsters one over half a
/// second, so HotCRP is started more often for the same steadiness.
fn setup_reps(workload: Workload) -> usize {
    match workload.app() {
        workload::App::HotCrp => 9,
        workload::App::Lobsters => 3,
    }
}

/// Tail percentile of every class (the percentile rule may lower it).
const TAIL: f64 = 0.90;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    edna: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
        edna: PathBuf::from(get("edna")?),
        work: flags
            .get("work")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_work")),
    })
}

/// Metric name → (value, unit), in print order.
type Metrics = Vec<(String, f64, &'static str)>;

/// Counters and histogram sums parsed from the `stats` op's Prometheus
/// text.
fn prom(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    let resp = client.stats().map_err(|e| format!("stats: {e}"))?;
    if !resp.ok {
        return Err(format!("stats: {}", resp.body.trim_end()));
    }
    Ok(resp
        .body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect())
}

fn delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// The requests of the measured phase.
struct Phase {
    result: LaneResult,
    elapsed: Duration,
}

impl Phase {
    /// Drives `lane` over `conns` at `pace` until `budget` ends.
    fn run(
        workload: Workload,
        lane: &mut Lane,
        conns: Vec<&mut (dyn drive::Conn + Send)>,
        pace: Pace,
        budget: Budget,
    ) -> Phase {
        let t0 = Instant::now();
        let result = drive::run_lane(workload, lane, conns, pace, budget, t0);
        Phase {
            result,
            elapsed: t0.elapsed(),
        }
    }

    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.result.samples.iter()
    }

    fn class_ms(&self, class: Class) -> Vec<f64> {
        self.samples()
            .filter(|s| s.ok && s.class == class)
            .map(|s| s.latency_s * 1e3)
            .collect()
    }

    fn failed(&self) -> usize {
        self.samples().filter(|s| !s.ok).count() + self.result.refusals as usize
    }
}

/// What the wire run measured.
struct WireRun {
    setup_s: Vec<f64>,
    nominal: Phase,
    stats_before: BTreeMap<String, f64>,
    stats_after: BTreeMap<String, f64>,
    vault_growth: f64,
    rss_mb: f64,
    verdict: check::Verdict,
}

fn wire_run(args: &Args, prepared: &prep::Prepared) -> Result<WireRun, String> {
    let w = args.workload;
    let run_dir = args.work.join(format!("run-{}", w.name()));
    let mut setup_s = Vec::new();
    let mut state = PathBuf::new();
    let mut server = None;
    let reps = setup_reps(w);
    for i in 0..reps {
        state = prep::fresh_copy(prepared, &run_dir)?;
        let s = serve::Server::spawn(&args.edna, &state, w)?;
        setup_s.push(s.setup.as_secs_f64());
        if i + 1 < reps {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let mut clients: Vec<Client> = (0..w.connections())
        .map(|_| Client::connect(server.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    let stats_before = prom(&mut clients[0])?;
    let vault_before = prep::tree_bytes(&prep::vault_dir(&state)) as f64;
    let mut lane = Lane::new(w, args.seed, &prepared.ids);
    let pace = match w.open_rate() {
        Some(rate) => Pace::Open(rate),
        None => Pace::Closed,
    };
    let budget = Budget {
        until: Duration::from_secs(args.seconds),
        max_ops: None,
    };
    let conns = clients.iter_mut().map(|c| c as _).collect();
    let nominal = Phase::run(w, &mut lane, conns, pace, budget);
    let stats_after = prom(&mut clients[0])?;
    let vault_after = prep::tree_bytes(&prep::vault_dir(&state)) as f64;
    let rss_mb = server.peak_rss_mb()?;
    drop(clients);
    server.shutdown()?;
    let promises = lane.promises().clone();
    let verdict = check::verify(&state, w, &prepared.dir.join(prep::STATE), &promises);
    Ok(WireRun {
        setup_s,
        nominal,
        stats_before,
        stats_after,
        vault_growth: vault_after - vault_before,
        rss_mb,
        verdict,
    })
}

fn users_disguised(phase: &Phase) -> f64 {
    phase.samples().map(|s| s.users).sum::<usize>() as f64
}

fn end_to_end(run: &WireRun) -> Metrics {
    let mut m: Metrics = vec![("setup_s".into(), stats::median(&run.setup_s), "s")];
    // Medians of reads, applies and reveals only. Over ten runs the tails,
    // the write median (mostly one fsync) and the request rate tracked the
    // host's slow spells (spreads 0.2 to 0.7); the summary prints them.
    for class in [Class::Read, Class::Apply, Class::Reveal] {
        let s = stats::summarize(&run.nominal.class_ms(class), TAIL);
        m.push((format!("{}_p50_ms", class.name()), s.p50, "ms"));
    }
    let cohort_rates: Vec<f64> = run
        .nominal
        .samples()
        .filter(|s| s.ok && s.class == Class::ApplyMany)
        .map(|s| s.users as f64 / s.service_s)
        .collect();
    m.push((
        "cohort_users_per_s".into(),
        stats::median(&cohort_rates),
        "1/s",
    ));
    let wal = delta(&run.stats_after, &run.stats_before, "edna_wal_bytes_total");
    m.push((
        "durable_bytes_per_disguise".into(),
        stats::ratio(wal + run.vault_growth, users_disguised(&run.nominal)),
        "bytes",
    ));
    m.push(("peak_rss_mb".into(), run.rss_mb, "MiB"));
    m
}

fn summary_lines(args: &Args, run: &WireRun) {
    println!(
        "perfbench {} seed {} ({} s, {} connection(s), {}, host parallelism {}): set-up {:?} s",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.workload.connections(),
        match args.workload.open_rate() {
            Some(r) => format!("open loop at {r}/s"),
            None => "closed loop".to_string(),
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        run.setup_s
    );
    for class in Class::ALL {
        let mut ms = run.nominal.class_ms(class);
        let s = stats::summarize(&ms, TAIL);
        ms.sort_by(f64::total_cmp);
        let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
            .iter()
            .map(|&q| format!("{:.2}", stats::quantile(&ms, q)))
            .collect();
        println!(
            "  {:<10} n={:<6} p50={:>9.3} ms  p{:.1}={:>9.3} ms  mean={:>9.3} ms  p10..p90 [{}]",
            class.name(),
            s.n,
            s.p50,
            s.tail_q * 100.0,
            s.tail,
            s.mean,
            deciles.join(" ")
        );
    }
    let failed = run.nominal.failed() + run.verdict.failures.len();
    let attempted = run.nominal.samples().count();
    let ok = run.nominal.samples().filter(|s| s.ok).count() as f64;
    println!(
        "  goodput={:.2} requests/s",
        ok / run.nominal.elapsed.as_secs_f64()
    );
    println!(
        "  error_rate={} ({} failed ops or refusals, {} failed of {} end-of-run checks, {} ops)",
        stats::ratio(failed as f64, attempted as f64),
        run.nominal.failed(),
        run.verdict.failures.len(),
        run.verdict.checked,
        attempted
    );
    for e in &run.nominal.result.errors {
        println!("  op failure: {e}");
    }
    for f in run.verdict.failures.iter().take(10) {
        println!("  check failure: {f}");
    }
    if args.workload.open_rate().is_some() {
        let late: Vec<f64> = run.nominal.samples().map(|s| s.late_s * 1e3).collect();
        let late = stats::summarize(&late, 0.99);
        println!(
            "  generator lateness p{:.1}={:.3} ms",
            late.tail_q * 100.0,
            late.tail
        );
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let prepared = prep::prepare(&args.work, args.workload)?;
    let wire = wire_run(args, &prepared)?;
    summary_lines(args, &wire);
    let mut attempted = wire.nominal.samples().count();
    let mut failed = wire.nominal.failed() + wire.verdict.failures.len();
    let metrics = if args.trace {
        let replay = traced::replay(
            args.workload,
            args.seed,
            &args.work,
            &prepared,
            &wire_inputs(args, &wire),
        )?;
        attempted += replay.attempted;
        failed += replay.failed;
        for line in &replay.notes {
            println!("  {line}");
        }
        replay.metrics
    } else {
        end_to_end(&wire)
    };
    Ok(json_line(failed == 0, attempted.max(1), failed, &metrics))
}

/// What the traced replay needs from the wire run.
fn wire_inputs(args: &Args, wire: &WireRun) -> traced::WireFacts {
    let count = delta(
        &wire.stats_after,
        &wire.stats_before,
        "edna_server_request_us_count",
    );
    let sum_s = delta(
        &wire.stats_after,
        &wire.stats_before,
        "edna_server_request_us_sum",
    );
    let service: Vec<f64> = wire.nominal.samples().map(|s| s.service_s).collect();
    traced::WireFacts {
        seconds: args.seconds,
        ops: wire.nominal.samples().count(),
        client_us_mean: stats::mean(&service) * 1e6,
        request_us_mean: stats::ratio(sum_s * 1e6, count),
        busy_rejections: delta(
            &wire.stats_after,
            &wire.stats_before,
            "edna_server_busy_rejections_total",
        ) + wire.nominal.result.refusals as f64,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
