//! Load generation: open loop at a fixed arrival rate, or closed loop.
//!
//! In the open loop every request has a due time drawn from the stream's
//! seeded arrival process, and its latency runs from that due time, not
//! from when it was sent: a stall delays every request queued behind it,
//! and that wait is counted (no coordinated omission). How late the
//! generator sent each request is recorded too.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use edna_server::{Request, Response};
use edna_util::rng::{Prng, Rng};
use edna_util::sync::lock_unpoisoned;

use crate::workload::{Class, Ids, Mix, Op, Workload, WriteCheck};

/// A connection to the service, on the wire or in process.
pub trait Conn {
    /// Sends one request and waits for its response.
    fn call(&mut self, req: &Request) -> std::io::Result<Response>;
    /// Requests the connection re-sent or reconnected for, so far; each
    /// one hides a refusal (`busy`, `shutting-down`) or a reset.
    fn refusals(&self) -> u64 {
        0
    }
}

impl Conn for edna_server::Client {
    fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.request(req)
    }

    fn refusals(&self) -> u64 {
        self.retry_count() + self.reconnect_count()
    }
}

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Poisson arrivals at this many requests per second.
    Open(f64),
    /// Each connection sends its next request when the previous one answered.
    Closed,
}

/// When the stream stops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// No request is due (open) or sent (closed) after this.
    pub until: Duration,
    /// At most this many requests, when set.
    pub max_ops: Option<usize>,
}

/// One finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Its class.
    pub class: Class,
    /// Seconds the generator sent it after its due time.
    pub late_s: f64,
    /// Seconds from due time to response.
    pub latency_s: f64,
    /// Seconds from send to response.
    pub service_s: f64,
    /// Whether it succeeded (and its response checked out).
    pub ok: bool,
    /// Users it disguised (apply: 1, cohort: its size) when it succeeded.
    pub users: usize,
}

/// What the acknowledged requests promise about the final state.
#[derive(Debug, Clone, Default)]
pub struct Promises {
    /// Users whose last acknowledged op disguised them.
    pub disguised: BTreeSet<i64>,
    /// Users whose last acknowledged op revealed them.
    pub revealed: BTreeSet<i64>,
    /// Per write key, the check of its last acknowledged write.
    pub writes: BTreeMap<String, String>,
}

/// The outcome of driving a stream.
#[derive(Debug, Default)]
pub struct LaneResult {
    /// Every request, in order.
    pub samples: Vec<Sample>,
    /// Requests re-sent or reconnected for (hidden refusals).
    pub refusals: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

/// A request stream's state, carried across phases of one run.
pub struct Lane {
    /// The request generator.
    mix: Mix,
    /// The arrival process.
    arrivals: Prng,
    /// Standing applies with their reveal capabilities.
    standing: Vec<(i64, Option<(u64, String)>)>,
    /// Promises accumulated so far.
    promises: Promises,
}

impl Lane {
    /// The stream of `workload` at `seed` over the prepared `ids`.
    pub fn new(workload: Workload, seed: u64, ids: &Ids) -> Lane {
        Lane {
            mix: Mix::new(workload, seed, ids),
            arrivals: Prng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7)),
            standing: Vec::new(),
            promises: Promises::default(),
        }
    }

    /// The promises of every acknowledged request so far.
    pub fn promises(&self) -> &Promises {
        &self.promises
    }
}

fn exp_gap(rng: &mut Prng, rate: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

/// Renders a generated op as a wire request, or says why it cannot be
/// sent (a reveal whose apply failed).
fn request(workload: Workload, lane: &mut Lane, op: &Op) -> Result<Request, String> {
    Ok(match op {
        Op::Read(sql) | Op::Write(sql, _) => Request::new("sql").body(sql.clone()),
        Op::Apply(u) => Request::new("apply")
            .arg(workload.disguise())
            .header("user", u.to_string()),
        Op::Reveal(u) => match lane.standing.last() {
            Some((top, Some((id, cap)))) if top == u => Request::new("reveal")
                .header("id", id.to_string())
                .header("cap", cap.clone()),
            Some((top, None)) if top == u => {
                lane.standing.pop();
                return Err(format!("reveal of {u}: its apply failed"));
            }
            other => {
                return Err(format!(
                    "reveal of {u} but the newest standing apply is {other:?}"
                ))
            }
        },
        Op::ApplyMany(users) => Request::new("apply_many")
            .arg(workload.disguise())
            .header("shards", crate::workload::COHORT_SHARDS.to_string())
            .body(
                users
                    .iter()
                    .map(i64::to_string)
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
    })
}

/// Keeps the standing applies in step with the generator when a
/// request fails: a failed apply stands without a capability, and a
/// failed reveal is not retried.
fn unwind(lane: &mut Lane, op: &Op) {
    match op {
        Op::Apply(u) => lane.standing.push((*u, None)),
        Op::Reveal(_) => {
            lane.standing.pop();
        }
        _ => {}
    }
}

/// Checks a response and records what it promises. Returns the users it
/// disguised, or why it failed.
fn settle(lane: &mut Lane, op: &Op, resp: &Response) -> Result<usize, String> {
    if !resp.ok {
        unwind(lane, op);
        return Err(format!(
            "err {}: {}",
            resp.code.as_deref().unwrap_or("?"),
            resp.body.trim_end()
        ));
    }
    let num = |key: &str| -> Option<u64> { resp.header_value(key)?.trim().parse().ok() };
    match op {
        Op::Read(_) => Ok(0),
        Op::Write(_, WriteCheck { key, verify }) => {
            if num("affected") != Some(1) {
                return Err(format!("write {key} affected {:?} rows", num("affected")));
            }
            let verify = match num("last-insert-id") {
                Some(id) if verify.contains("{id}") => verify.replace("{id}", &id.to_string()),
                _ => verify.clone(),
            };
            lane.promises.writes.insert(key.clone(), verify);
            Ok(0)
        }
        Op::Apply(u) => {
            let id = num("id");
            let cap = resp.header_value("cap").map(str::to_string);
            match (id, cap) {
                (Some(id), Some(cap)) => {
                    lane.standing.push((*u, Some((id, cap))));
                    lane.promises.disguised.insert(*u);
                    lane.promises.revealed.remove(u);
                    Ok(1)
                }
                _ => {
                    unwind(lane, op);
                    Err(format!("apply of {u} returned no id/cap"))
                }
            }
        }
        Op::Reveal(u) => {
            lane.standing.pop();
            lane.promises.disguised.remove(u);
            lane.promises.revealed.insert(*u);
            Ok(0)
        }
        Op::ApplyMany(users) => {
            let ok = num("succeeded") == Some(users.len() as u64) && num("failed") == Some(0);
            if !ok {
                return Err(format!("apply_many: {}", resp.body.trim_end()));
            }
            lane.promises.disguised.extend(users.iter().copied());
            Ok(users.len())
        }
    }
}

/// A stream's shared state while its connections drive it.
struct Stream<'l> {
    lane: &'l mut Lane,
    next_due: f64,
    issued: usize,
    /// The previous disguise op: a reveal needs its apply's capability,
    /// so disguise ops never overlap.
    last_disguise: Option<usize>,
    /// The previous write per key, so overwrites land in order.
    last_write: BTreeMap<String, usize>,
    done: BTreeSet<usize>,
    samples: Vec<(usize, Sample)>,
    errors: Vec<String>,
}

/// Drives the request stream over `conns` until the budget ends.
///
/// In the closed loop each connection sends its next request when the
/// previous one answered. In the open loop requests are due on the stream's
/// arrival schedule and go, in due order, to whichever connection is free
/// (a connection pool), except that a request waits for the one it
/// depends on: the previous disguise op, or the previous write to the
/// same row.
pub fn run_lane(
    workload: Workload,
    lane: &mut Lane,
    conns: Vec<&mut (dyn Conn + Send)>,
    pace: Pace,
    budget: Budget,
    t0: Instant,
) -> LaneResult {
    let refusals_before: u64 = conns.iter().map(|c| c.refusals()).sum();
    let stream = Mutex::new(Stream {
        lane,
        next_due: 0.0,
        issued: 0,
        last_disguise: None,
        last_write: BTreeMap::new(),
        done: BTreeSet::new(),
        samples: Vec::new(),
        errors: Vec::new(),
    });
    let finished = Condvar::new();
    let refusals_after: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|conn| {
                let (stream, finished) = (&stream, &finished);
                s.spawn(move || {
                    work(workload, stream, finished, conn, pace, budget, t0);
                    conn.refusals()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("connection worker panicked"))
            .sum()
    });
    let st = stream.into_inner().unwrap_or_else(|p| p.into_inner());
    let mut samples = st.samples;
    samples.sort_by_key(|(seq, _)| *seq);
    LaneResult {
        samples: samples.into_iter().map(|(_, s)| s).collect(),
        refusals: refusals_after - refusals_before,
        errors: st.errors,
    }
}

fn work(
    workload: Workload,
    stream: &Mutex<Stream<'_>>,
    finished: &Condvar,
    conn: &mut (dyn Conn + Send),
    pace: Pace,
    budget: Budget,
    t0: Instant,
) {
    let until = budget.until.as_secs_f64();
    loop {
        let (seq, due_s, op, dep) = {
            let mut st = lock_unpoisoned(stream);
            if budget.max_ops.is_some_and(|m| st.issued >= m) {
                return;
            }
            let due_s = match pace {
                Pace::Open(rate) => {
                    let gap = exp_gap(&mut st.lane.arrivals, rate);
                    st.next_due += gap;
                    st.next_due
                }
                Pace::Closed => t0.elapsed().as_secs_f64(),
            };
            if due_s >= until {
                return;
            }
            let op = st.lane.mix.next_op();
            let seq = st.issued;
            st.issued += 1;
            let dep = match &op {
                Op::Apply(_) | Op::Reveal(_) | Op::ApplyMany(_) => st.last_disguise.replace(seq),
                Op::Write(_, check) => st.last_write.insert(check.key.clone(), seq),
                Op::Read(_) => None,
            };
            (seq, due_s, op, dep)
        };
        if let Pace::Open(_) = pace {
            let target = t0 + Duration::from_secs_f64(due_s);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        let req = {
            let mut st = lock_unpoisoned(stream);
            while dep.is_some_and(|d| !st.done.contains(&d)) {
                st = finished.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            request(workload, st.lane, &op)
        };
        let sent_s = t0.elapsed().as_secs_f64();
        let due_s = match pace {
            Pace::Open(_) => due_s,
            Pace::Closed => sent_s,
        };
        let resp = req.map(|req| (conn.call(&req), req.op));
        let done_s = t0.elapsed().as_secs_f64();
        let mut st = lock_unpoisoned(stream);
        let outcome = match resp {
            Ok((Ok(resp), _)) => settle(st.lane, &op, &resp),
            Ok((Err(e), name)) => {
                unwind(st.lane, &op);
                Err(format!("{name}: {e}"))
            }
            Err(e) => Err(e),
        };
        let (ok, users) = match outcome {
            Ok(users) => (true, users),
            Err(e) => {
                if st.errors.len() < 5 {
                    st.errors.push(e);
                }
                (false, 0)
            }
        };
        st.samples.push((
            seq,
            Sample {
                class: op.class(),
                late_s: (sent_s - due_s).max(0.0),
                latency_s: done_s - due_s,
                service_s: done_s - sent_s,
                ok,
                users,
            },
        ));
        st.done.insert(seq);
        finished.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edna_server::code;

    /// A fake service: answers reads after `delay`, except that the
    /// request sent at `stall_at` takes `stall` instead; refuses the
    /// `refuse`-th request as `busy` once and then answers it.
    struct Fake {
        delay: Duration,
        stall_at: usize,
        stall: Duration,
        seen: usize,
        fail_every: usize,
        resent: u64,
        refuse: Option<usize>,
    }

    impl Fake {
        fn new() -> Fake {
            Fake {
                delay: Duration::from_micros(200),
                stall_at: usize::MAX,
                stall: Duration::ZERO,
                seen: 0,
                fail_every: 0,
                resent: 0,
                refuse: None,
            }
        }
    }

    impl Conn for Fake {
        fn call(&mut self, req: &Request) -> std::io::Result<Response> {
            self.seen += 1;
            if self.refuse == Some(self.seen) {
                // What `Client` does on `err busy`: sleep, then re-send.
                self.resent += 1;
            }
            std::thread::sleep(if self.seen == self.stall_at {
                self.stall
            } else {
                self.delay
            });
            if self.fail_every > 0 && self.seen.is_multiple_of(self.fail_every) {
                return Ok(Response::err(code::RUNTIME, "injected"));
            }
            Ok(match req.op.as_str() {
                "apply" => Response::ok("")
                    .header("id", self.seen.to_string())
                    .header("cap", "c"),
                "apply_many" => {
                    let n = req.body.lines().count();
                    Response::ok("")
                        .header("succeeded", n.to_string())
                        .header("failed", "0")
                }
                "sql" if req.body.starts_with("SELECT") => Response::ok("").header("rows", "1"),
                _ => Response::ok("").header("affected", "1"),
            })
        }

        fn refusals(&self) -> u64 {
            self.resent
        }
    }

    fn ids() -> Ids {
        Ids {
            heavy: (1..=30).collect(),
            light: (31..=430).collect(),
            items: (1..=450).collect(),
            rows: (1..=1400).collect(),
        }
    }

    fn lane(w: Workload, seed: u64) -> Lane {
        Lane::new(w, seed, &ids())
    }

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_stall() {
        let w = Workload::ReviewCycle;
        let mut l = lane(w, 3);
        let mut fake = Fake::new();
        fake.stall_at = 20;
        fake.stall = Duration::from_millis(300);
        let t0 = Instant::now();
        let budget = Budget {
            until: Duration::from_millis(900),
            max_ops: None,
        };
        // One request due every 10 ms on average.
        let r = run_lane(w, &mut l, vec![&mut fake], Pace::Open(100.0), budget, t0);
        let after: Vec<&Sample> = r.samples.iter().skip(20).take(10).collect();
        assert!(after.len() == 10, "{} samples", r.samples.len());
        // Requests due during the stall were sent late, and their latency
        // includes that wait: it is measured from the due time.
        let late: Vec<&&Sample> = after.iter().filter(|s| s.late_s > 0.05).collect();
        assert!(late.len() >= 5, "{:?}", after);
        for s in late {
            assert!(s.latency_s >= s.late_s, "{s:?}");
            assert!(s.latency_s > 0.05, "{s:?}");
        }
        // Before the stall the generator kept its schedule.
        let before = &r.samples[..15];
        assert!(before.iter().all(|s| s.late_s < 0.05), "{before:?}");
    }

    #[test]
    fn closed_loop_times_from_send() {
        let w = Workload::ConfAnonCompose;
        let mut l = lane(w, 3);
        let mut fake = Fake::new();
        let budget = Budget {
            until: Duration::from_secs(5),
            max_ops: Some(50),
        };
        let r = run_lane(
            w,
            &mut l,
            vec![&mut fake],
            Pace::Closed,
            budget,
            Instant::now(),
        );
        assert_eq!(r.samples.len(), 50);
        assert!(r.samples.iter().all(|s| s.ok && s.late_s == 0.0));
        assert!(r.samples.iter().all(|s| s.latency_s >= 0.0002));
    }

    #[test]
    fn failures_and_refusals_are_counted() {
        let w = Workload::ConfAnonCompose;
        let mut l = lane(w, 5);
        let mut fake = Fake::new();
        fake.delay = Duration::ZERO;
        fake.fail_every = 7;
        fake.refuse = Some(3);
        let budget = Budget {
            until: Duration::from_secs(5),
            max_ops: Some(70),
        };
        let r = run_lane(
            w,
            &mut l,
            vec![&mut fake],
            Pace::Closed,
            budget,
            Instant::now(),
        );
        let failed = r.samples.iter().filter(|s| !s.ok).count();
        // Every 7th answer is an error; a reveal whose apply failed is
        // not sent but still fails, so there may be more.
        assert!(failed >= 10, "{failed} failed");
        assert_eq!(r.refusals, 1, "a hidden retry counts as a refusal");
        // A failed apply is never promised; its reveal is never sent.
        let sent = fake.seen;
        assert!(sent < 70, "reveals of failed applies are not sent ({sent})");
        for s in r.samples.iter().filter(|s| !s.ok) {
            assert_eq!(s.users, 0);
        }
    }
}
