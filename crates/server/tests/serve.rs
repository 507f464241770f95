//! End-to-end server tests: a real listener, real sockets, concurrent
//! clients, backpressure, capability enforcement, and graceful drain.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use edna_core::Workspace;
use edna_server::{code, server, Client, Request, ServerConfig, ServerHandle, Service};

fn temp_state(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("edna_serve_test_{tag}_{}", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
    for suffix in [".tmp", ".metrics", ".metrics.tmp", ".wal", ".lock"] {
        let _ = std::fs::remove_file(edna_core::workspace::sidecar(p, suffix));
    }
    let _ = std::fs::remove_dir_all(edna_core::workspace::sidecar(p, ".vault"));
}

const SPEC: &str = r#"
disguise_name: "Gdpr"
user_to_disguise: $UID
tables: {
  users: { transformations: [ Remove(pred: "id = $UID") ] },
}
"#;

fn start_server(tag: &str, config: ServerConfig) -> (ServerHandle, PathBuf) {
    let state = temp_state(tag);
    let ws = Workspace::init(&state, None).unwrap();
    ws.db
        .execute("CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)")
        .unwrap();
    ws.db
        .execute("INSERT INTO users (name) VALUES ('bea'), ('mel'), ('lyn')")
        .unwrap();
    ws.register_spec(SPEC).unwrap();
    let svc = Arc::new(Service::new(ws).unwrap());
    let handle = server::start(svc, config).unwrap();
    (handle, state)
}

#[test]
fn full_lifecycle_over_the_wire() {
    let (handle, state) = start_server("lifecycle", ServerConfig::default());
    let addr = handle.addr();

    let mut c = Client::connect(addr).unwrap();
    assert!(c.health().unwrap().ok);
    assert!(c.request(&Request::new("ready")).unwrap().ok);

    // SQL round trip on a persistent connection.
    let r = c.sql("SELECT name FROM users ORDER BY id").unwrap();
    assert!(r.ok, "{}", r.body);
    assert_eq!(r.header_value("rows"), Some("3"));
    assert!(r.body.contains("bea\n"), "{}", r.body);
    let r = c.sql("INSERT INTO users (name) VALUES ('new')").unwrap();
    assert_eq!(r.header_value("affected"), Some("1"));
    assert!(r.header_value("last-insert-id").is_some());

    // Apply mints a capability; reveal requires it.
    let r = c.apply("Gdpr", Some("1")).unwrap();
    assert!(r.ok, "{}", r.body);
    let id: u64 = r.header_value("id").unwrap().parse().unwrap();
    let cap = r.header_value("cap").unwrap().to_string();
    assert_eq!(cap.len(), 64, "32 random bytes, hex-encoded");

    let denied = c.reveal(id, &"ab".repeat(32)).unwrap();
    assert!(!denied.ok);
    assert_eq!(denied.code.as_deref(), Some(code::DENIED));
    let missing = c
        .request(&Request::new("reveal").header("id", id.to_string()))
        .unwrap();
    assert_eq!(missing.code.as_deref(), Some(code::DENIED));

    let r = c.reveal(id, &cap).unwrap();
    assert!(r.ok, "{}", r.body);
    let r = c.sql("SELECT COUNT(*) FROM users").unwrap();
    assert!(r.body.contains('4'), "all rows back: {}", r.body);

    // check and recover ops answer over the wire.
    let r = c.request(&Request::new("check").arg("Gdpr")).unwrap();
    assert!(r.ok, "{}", r.body);
    let r = c
        .request(&Request::new("recover").header("verify", "true"))
        .unwrap();
    assert!(r.ok, "{}", r.body);
    assert!(r.body.contains("integrity: ok"), "{}", r.body);

    // Live stats include the server's own counters.
    let r = c.stats().unwrap();
    assert!(r.body.contains("edna_server_requests_total"), "{}", r.body);
    assert!(
        r.body.contains("edna_server_connections_total"),
        "{}",
        r.body
    );

    // Graceful drain: shutdown (with the operator token) answers, then
    // the server checkpoints and exits; the WAL is folded into the
    // snapshot.
    assert!(c.shutdown(handle.shutdown_token()).unwrap().ok);
    handle.wait().unwrap();
    let wal = edna_core::workspace::sidecar(&state, ".wal");
    let wal_len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    assert_eq!(wal_len, 0, "clean shutdown leaves a checkpointed WAL");

    // The state reopens cleanly (the server released the lock).
    let ws = Workspace::open(&state, None).unwrap();
    assert_eq!(ws.last_recovery.frames_replayed, 0);
    assert_eq!(ws.db.row_count("users").unwrap(), 4);
    drop(ws);
    cleanup(&state);
}

#[test]
fn shutdown_without_the_operator_token_is_denied() {
    let (handle, state) = start_server("shutdown_token", ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();

    // Missing and wrong tokens are both refused, and the refusal does
    // not drain the server: other tenants keep working.
    let r = c.request(&Request::new("shutdown")).unwrap();
    assert!(!r.ok);
    assert_eq!(r.code.as_deref(), Some(code::DENIED), "{}", r.body);
    let r = c.shutdown(&"ff".repeat(32)).unwrap();
    assert_eq!(r.code.as_deref(), Some(code::DENIED), "{}", r.body);
    assert!(c.health().unwrap().ok, "denied shutdown must not drain");
    let mut other = Client::connect(handle.addr()).unwrap();
    assert!(other.sql("SELECT COUNT(*) FROM users").unwrap().ok);

    // The real token drains.
    assert!(c.shutdown(handle.shutdown_token()).unwrap().ok);
    handle.wait().unwrap();
    cleanup(&state);
}

#[test]
fn wire_sql_cannot_forge_or_destroy_capabilities() {
    let (handle, state) = start_server("reserved_wire", ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();

    let r = c.apply("Gdpr", Some("1")).unwrap();
    assert!(r.ok, "{}", r.body);
    let id: u64 = r.header_value("id").unwrap().parse().unwrap();
    let cap = r.header_value("cap").unwrap().to_string();

    // A hostile tenant cannot rewrite the stored hash to one they chose,
    // delete it to deny the legitimate reveal, or read hashes out.
    for stmt in [
        "UPDATE _edna_caps SET cap_hash = 'mine'",
        "DELETE FROM _edna_caps",
        "SELECT cap_hash FROM _edna_caps",
        "DROP TABLE _edna_caps",
    ] {
        let r = c.sql(stmt).unwrap();
        assert!(!r.ok, "{stmt} must be refused");
        assert_eq!(r.code.as_deref(), Some(code::DENIED), "{stmt}: {}", r.body);
    }

    // The legitimate capability still reveals.
    let r = c.reveal(id, &cap).unwrap();
    assert!(r.ok, "{}", r.body);

    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

#[test]
fn second_server_on_same_state_is_refused_by_the_lock() {
    let (handle, state) = start_server("lock", ServerConfig::default());
    let err = match Workspace::open(&state, None) {
        Ok(_) => panic!("state lock should refuse a second opener"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("locked by running process"), "got: {err}");
    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

#[test]
fn admission_control_answers_busy_instead_of_queueing_forever() {
    // One worker, no spare queue slot beyond it: with the worker pinned
    // on a slow statement and one connection queued, the next connection
    // must get an immediate `err busy`.
    let config = ServerConfig {
        max_conns: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let (handle, state) = start_server("busy", config);
    let addr = handle.addr();

    let mut pinned = Client::connect(addr).unwrap();
    assert!(pinned.health().unwrap().ok); // worker now owns this connection
    let _queued = Client::connect(addr).unwrap(); // fills the queue slot
    std::thread::sleep(Duration::from_millis(100));

    // The rejected connection gets the busy frame as the response to
    // whatever it sends first. The client retries `busy` with bounded
    // backoff (reconnecting each attempt, since the server closes after
    // the refusal); with the worker still pinned, every retry is also
    // refused and the exhaustion surfaces as an error naming the code.
    let t0 = Instant::now();
    let mut rejected = Client::connect(addr).unwrap();
    let err = rejected
        .health()
        .expect_err("busy past every retry must surface");
    assert!(err.to_string().contains("busy"), "{err}");
    assert_eq!(rejected.retry_count(), 4, "MAX_ATTEMPTS-1 bounded retries");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "busy must be immediate (and backoff bounded), not queued"
    );

    drop(pinned);
    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

#[test]
fn slow_apply_does_not_block_health_probes() {
    let config = ServerConfig {
        max_conns: 4,
        ..ServerConfig::default()
    };
    let (handle, state) = start_server("liveness", config);
    let addr = handle.addr();

    // Slow each statement so the apply holds the door a while.
    {
        let mut c = Client::connect(addr).unwrap();
        // Injected latency is a test knob on the engine, reachable only
        // in-process — but the apply path issues many statements, so a
        // big INSERT workload keeps the writer busy instead.
        for _ in 0..3 {
            let values: Vec<String> = (0..400).map(|i| format!("('bulk{i}')")).collect();
            let stmt = format!("INSERT INTO users (name) VALUES {}", values.join(", "));
            assert!(c.sql(&stmt).unwrap().ok);
        }
    }

    let applier = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let r = c.apply("Gdpr", Some("2")).unwrap();
        assert!(r.ok, "{}", r.body);
    });
    // While the apply runs, health (lock-free) answers with bounded
    // latency from a separate connection.
    let mut prober = Client::connect(addr).unwrap();
    for _ in 0..10 {
        let t0 = Instant::now();
        assert!(prober.health().unwrap().ok);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "health must not wait on the apply"
        );
    }
    applier.join().unwrap();
    handle.stop_and_wait().unwrap();
    cleanup(&state);
}

#[test]
fn drain_refuses_new_connections_and_finishes_in_flight_work() {
    let (handle, state) = start_server("drain", ServerConfig::default());
    let addr = handle.addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert!(a.health().unwrap().ok);
    assert!(b.health().unwrap().ok);

    assert!(a.shutdown(handle.shutdown_token()).unwrap().ok);

    // The other persistent connection is told the server is draining on
    // its next request (or sees a clean close), and new connections
    // cannot get work done.
    // An Err means the connection was already closed by the drain,
    // which is also an acceptable refusal.
    if let Ok(r) = b.health() {
        assert_eq!(r.code.as_deref(), Some(code::SHUTTING_DOWN));
    }
    handle.wait().unwrap();
    if let Ok(mut c) = Client::connect(addr) {
        if let Ok(r) = c.health() {
            assert_eq!(r.code.as_deref(), Some(code::SHUTTING_DOWN));
        }
    }
    cleanup(&state);
}

#[test]
fn concurrent_mixed_clients_keep_state_consistent() {
    let (handle, state) = start_server(
        "mixed",
        ServerConfig {
            max_conns: 8,
            queue_depth: 16,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    std::thread::scope(|s| {
        for t in 0..8 {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..10 {
                    if t % 2 == 0 {
                        let r = c
                            .sql(&format!("INSERT INTO users (name) VALUES ('t{t}i{i}')"))
                            .unwrap();
                        assert!(r.ok, "{}", r.body);
                    } else {
                        let r = c.sql("SELECT COUNT(*) FROM users").unwrap();
                        assert!(r.ok, "{}", r.body);
                    }
                }
            });
        }
    });

    let mut c = Client::connect(addr).unwrap();
    let r = c.sql("SELECT COUNT(*) FROM users").unwrap();
    assert!(r.body.contains("43"), "3 seed + 40 inserted: {}", r.body);
    assert!(c.shutdown(handle.shutdown_token()).unwrap().ok);
    handle.wait().unwrap();

    // Everything survived into the checkpointed state.
    let ws = Workspace::open(&state, None).unwrap();
    assert_eq!(ws.db.row_count("users").unwrap(), 43);
    assert_eq!(ws.db.verify_integrity(), Vec::<String>::new());
    drop(ws);
    cleanup(&state);
}

#[test]
fn background_checkpointer_bounds_the_wal() {
    let (handle, state) = start_server(
        "ckpt",
        ServerConfig {
            checkpoint_every: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    for i in 0..20 {
        assert!(
            c.sql(&format!("INSERT INTO users (name) VALUES ('w{i}')"))
                .unwrap()
                .ok
        );
    }
    let wal = edna_core::workspace::sidecar(&state, ".wal");
    let grown = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    assert!(grown > 0, "writes land in the WAL first");
    // Within a few checkpoint intervals the WAL is truncated without any
    // client asking for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        if len == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background checkpoint never truncated the WAL (still {len} bytes)"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // The checkpoint is a real snapshot: metrics sidecar refreshed too.
    assert!(edna_core::workspace::sidecar(&state, ".metrics").exists());
    assert!(c.shutdown(handle.shutdown_token()).unwrap().ok);
    handle.wait().unwrap();
    cleanup(&state);
}

#[test]
fn apply_many_disguises_a_cohort_over_the_wire() {
    let (handle, state) = start_server("apply_many", ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();

    // Grow the population past the three seed users.
    for i in 0..20 {
        let r = c
            .sql(&format!("INSERT INTO users (name) VALUES ('u{i}')"))
            .unwrap();
        assert!(r.ok, "{}", r.body);
    }

    // Disguise users 1..=20 in one request, leaving 21..=23.
    let ids: String = (1..=20).map(|i| format!("{i}\n")).collect();
    let r = c
        .request(
            &Request::new("apply_many")
                .arg("Gdpr")
                .body(format!("# departing cohort\n{ids}")),
        )
        .unwrap();
    assert!(r.ok, "{}", r.body);
    assert_eq!(r.header_value("users"), Some("20"));
    assert_eq!(r.header_value("succeeded"), Some("20"));
    assert_eq!(r.header_value("failed"), Some("0"));

    let r = c.sql("SELECT COUNT(*) FROM users").unwrap();
    assert!(r.body.contains('3'), "only the cohort is gone: {}", r.body);

    // Bad requests answer with usage errors, not hangs.
    let r = c.request(&Request::new("apply_many")).unwrap();
    assert_eq!(r.code.as_deref(), Some(code::USAGE));
    let r = c
        .request(
            &Request::new("apply_many")
                .arg("Gdpr")
                .body("\n# only comments\n"),
        )
        .unwrap();
    assert_eq!(r.code.as_deref(), Some(code::USAGE));
    // Older clients send a `shards` header; it is ignored, even malformed.
    let r = c
        .request(
            &Request::new("apply_many")
                .arg("Gdpr")
                .header("shards", "zap")
                .body("21\n"),
        )
        .unwrap();
    assert!(r.ok, "{}", r.body);
    assert_eq!(r.header_value("succeeded"), Some("1"));
    assert_eq!(r.header_value("shards"), None);

    handle.stop_and_wait().unwrap();
    cleanup(&state);
}
