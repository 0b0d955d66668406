//! Workload `tcp`: an in-process `NetServer` on loopback with caching
//! on, driven by two `qods_net::Client` connections in lockstep
//! rounds (a closed loop: each client sends its next request only
//! after the previous answer).
//!
//! In four of every five rounds each connection asks for a hot
//! configuration, an output-cache hit. In every fifth round both send
//! the same fresh-seed request, so one executes and the other is
//! coalesced onto it. Set-up fills the context cache to capacity
//! with cheap Table 2 configurations behind the hot set, so fresh
//! configurations insert and evict from the first miss on.
//!
//! The harness uses the client exactly as shipped: it sets no socket
//! option, so whatever the transport costs shows in the hit latency.

use crate::harness::{derive, Budget, Cx, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use qods_core::StudyConfig;
use qods_net::protocol::{render, result_line};
use qods_net::{Client, ConnState, LineSink, NetServer, ServeCore, ServeOptions};
use qods_service::{Overrides, RunRequest, Scheduler};
use serde_json::Value;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The experiments every request asks for.
pub const EXPERIMENTS: [&str; 3] = ["table9", "fig7", "fig15"];
/// Hot configurations the hit rounds cycle through.
pub const HOT: u64 = 4;
/// Every `MISS_EVERY`-th round is a miss round.
pub const MISS_EVERY: u64 = 5;
/// Load-generator connections (one thread each).
pub const CONNS: usize = 2;
/// In-process probe repetitions per service call (traced runs).
const PROBES: usize = 100;
/// In-process fresh-configuration probes (traced runs).
const MISS_PROBES: u64 = 5;

/// A request for `experiments` at study seed `seed`.
pub fn request(seed: u64, experiments: &[&str]) -> RunRequest {
    RunRequest::of(experiments.iter().copied()).with_overrides(Overrides {
        seed: Some(seed),
        ..Overrides::default()
    })
}

/// The wire line of a request.
pub fn wire(req: &RunRequest) -> String {
    serde_json::to_string(req).expect("run requests serialize")
}

/// Whether round `r` is a miss round.
pub fn is_miss(r: u64) -> bool {
    r % MISS_EVERY == MISS_EVERY - 1
}

/// The hot configuration connection `c` asks for in hit round `r`.
fn hot_index(r: u64, c: usize) -> u64 {
    (r * CONNS as u64 + c as u64) % HOT
}

/// The study seed connection `c` asks for in round `r`.
pub fn round_seed(seed: u64, r: u64, c: usize) -> u64 {
    if is_miss(r) {
        derive(seed, "fresh", r / MISS_EVERY)
    } else {
        derive(seed, "hot", hot_index(r, c))
    }
}

/// A result line's config hash, the exact bytes of its records, and
/// its `computed` count.
pub fn answer(line: &str) -> Result<(String, &str, u64), String> {
    let v: Value =
        serde_json::from_str(line).map_err(|e| format!("tcp: unparsable answer ({e})"))?;
    let clip = || line.chars().take(160).collect::<String>();
    if !matches!(v.get("event"), Some(Value::Str(e)) if e == "result") {
        return Err(format!("tcp: not a result line: {}", clip()));
    }
    let config = match v.get("config") {
        Some(Value::Str(c)) => c.clone(),
        _ => return Err(format!("tcp: result without config: {}", clip())),
    };
    let computed = v
        .get("computed")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("tcp: result without computed: {}", clip()))?;
    let at = line
        .find("\"records\":")
        .ok_or_else(|| format!("tcp: result without records: {}", clip()))?;
    let records = line[at..].strip_suffix('}').unwrap_or(&line[at..]);
    Ok((config, records, computed as u64))
}

/// What an in-process `Scheduler::run` answers for `req`: config hash
/// and records bytes. Each call uses a scheduler of its own and drops
/// it, so references hold no memory during the timed loop.
fn expected(req: &RunRequest) -> Result<(String, String), String> {
    let reference = Scheduler::with_options(StudyConfig::default(), 1, true);
    let result = reference
        .run(req)
        .map_err(|e| format!("tcp: reference run failed: {e}"))?;
    let line = render(&result_line(None, &result));
    let (config, records, _) = answer(&line)?;
    Ok((config, records.to_string()))
}

/// Compares an answer with its reference; `computed` is checked when
/// given.
pub fn check_answer(
    line: &str,
    want: &(String, String),
    computed: Option<u64>,
) -> Result<(), String> {
    let (config, records, got_computed) = answer(line)?;
    if config != want.0 || records != want.1 {
        return Err(format!(
            "tcp: answer for config {config} differs from the in-process run"
        ));
    }
    match computed {
        Some(n) if n != got_computed => Err(format!(
            "tcp: answer reports computed {got_computed}, expected {n}"
        )),
        _ => Ok(()),
    }
}

/// A sink that keeps the lines `ServeCore::handle_line` answers with.
#[derive(Default)]
struct Capture(Mutex<Vec<String>>);

impl LineSink for Capture {
    fn emit(&self, line: &str) {
        self.0.lock().expect("capture lock").push(line.to_string());
    }
}

/// Serves one line in-process, without a socket.
fn handle(core: &ServeCore, line: &str) -> Result<String, String> {
    let sink = Capture::default();
    core.handle_line(line, &mut ConnState::default(), &sink);
    let mut lines = sink.0.into_inner().expect("capture lock");
    match lines.len() {
        1 => Ok(lines.remove(0)),
        n => Err(format!("tcp: handle_line answered {n} lines")),
    }
}

struct Server {
    core: Arc<ServeCore>,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start() -> Result<Server, String> {
        let core = Arc::new(ServeCore::new(
            Scheduler::with_options(StudyConfig::default(), 1, true),
            ServeOptions::default(),
        ));
        let server = NetServer::bind(Arc::clone(&core), "127.0.0.1:0")
            .map_err(|e| format!("tcp: bind: {e}"))?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Server { core, addr, thread })
    }

    /// Sends the `shutdown` verb, closes the clients and joins the
    /// server (which joins its connection threads).
    fn stop(self, clients: Vec<Client>) -> Result<(), String> {
        let mut control = Client::connect(self.addr).map_err(|e| format!("tcp: connect: {e}"))?;
        let answer = control.roundtrip("{\"verb\":\"shutdown\"}");
        drop(clients);
        drop(control);
        let joined = self.thread.join();
        answer.map_err(|e| format!("tcp: shutdown: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("tcp: server failed: {e}")),
            Err(_) => Err("tcp: server thread panicked".to_string()),
        }
    }
}

/// One request as the load generator saw it.
struct Sample {
    round: u64,
    conn: usize,
    rtt_ms: f64,
    /// Hits are checked at once; misses after the loop.
    check: Result<(), String>,
    answer: Option<String>,
}

struct State {
    server: Server,
    clients: Vec<Client>,
    /// Config hash and records of each hot configuration.
    hot: Vec<(String, String)>,
}

/// Runs rounds `first..` on both connections until `budget` says stop.
fn run_rounds(
    tr: &Tracer,
    seed: u64,
    st: &mut State,
    first: u64,
    budget: Budget,
) -> (Vec<Sample>, f64) {
    let barrier = Barrier::new(CONNS);
    let stop = AtomicBool::new(false);
    let (hits, misses) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let start = Instant::now();
    let hot = &st.hot;
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = st
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, stop, hits, misses) = (&barrier, &stop, &hits, &misses);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for r in first.. {
                        if barrier.wait().is_leader() {
                            let go = budget.keep_going(
                                start,
                                r - first,
                                hits.load(Ordering::SeqCst),
                                misses.load(Ordering::SeqCst),
                            );
                            stop.store(!go, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let miss = is_miss(r);
                        let kind = if miss { "miss" } else { "hit" };
                        let line = wire(&request(round_seed(seed, r, c), &EXPERIMENTS));
                        let round = tr.open("tcp.round", || kind.to_string(), 0, c as u64 + 1);
                        let rt =
                            tr.open("net.roundtrip", || kind.to_string(), round.id, c as u64 + 1);
                        let got = client.roundtrip(&line);
                        let rtt_ms = tr.close(rt);
                        let got = match got {
                            Ok(Some(answer)) => Ok(answer),
                            Ok(None) => Err("tcp: server closed the connection".to_string()),
                            Err(e) => Err(format!("tcp: roundtrip: {e}")),
                        };
                        let (check, answer) = match got {
                            Err(e) => (Err(e), None),
                            Ok(answer) if miss => (Ok(()), Some(answer)),
                            Ok(answer) => {
                                let want = &hot[hot_index(r, c) as usize];
                                (check_answer(&answer, want, Some(0)), None)
                            }
                        };
                        tr.close(round);
                        if miss { misses } else { hits }.fetch_add(1, Ordering::SeqCst);
                        mine.push(Sample {
                            round: r,
                            conn: c,
                            rtt_ms,
                            check,
                            answer,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| (s.round, s.conn));
    (samples, wall_s)
}

/// Checks miss answers against the reference and folds every sample
/// into `out`. Returns the miss rounds seen and the per-round
/// follower delay (later answer minus earlier, ms).
fn settle(seed: u64, samples: Vec<Sample>, out: &mut Outcome) -> (u64, Vec<f64>) {
    let (misses, hits): (Vec<Sample>, Vec<Sample>) =
        samples.into_iter().partition(|s| is_miss(s.round));
    for s in hits {
        out.record(true, s.rtt_ms, s.check);
    }
    let mut extra = Vec::new();
    let mut miss_rounds = 0;
    for round in misses.chunk_by(|a, b| a.round == b.round) {
        miss_rounds += 1;
        let want = expected(&request(round_seed(seed, round[0].round, 0), &EXPERIMENTS));
        if let [a, b] = round {
            extra.push((a.rtt_ms - b.rtt_ms).abs());
        }
        for s in round {
            let check = match (&s.check, &s.answer, &want) {
                (Err(e), _, _) | (_, _, Err(e)) => Err(e.clone()),
                (Ok(()), Some(answer), Ok(w)) => check_answer(answer, w, None),
                (Ok(()), None, Ok(_)) => Err("tcp: miss answer missing".to_string()),
            };
            out.record(false, s.rtt_ms, check);
        }
    }
    (miss_rounds, extra)
}

fn set_up(cx: &Cx) -> Result<State, String> {
    let server = Server::start()?;
    let core = &server.core;
    let capacity = core.scheduler().pool().capacity() as u64;
    // Filler first, hot set last: the hot set is the most recently
    // used, so evictions take filler and old fresh entries. Table 2
    // is cheap but makes each filler context hold its benchmark
    // circuits, as a fresh context does.
    for f in 0..capacity - HOT {
        answer(&handle(
            core,
            &wire(&request(derive(cx.seed, "fill", f), &["table2"])),
        )?)?;
    }
    let mut hot = Vec::new();
    for h in 0..HOT {
        let req = request(derive(cx.seed, "hot", h), &EXPERIMENTS);
        let want = expected(&req)?;
        check_answer(
            &handle(core, &wire(&req))?,
            &want,
            Some(EXPERIMENTS.len() as u64),
        )?;
        hot.push(want);
    }
    if core.scheduler().pool().len() as u64 != capacity {
        return Err("tcp: set-up did not fill the context cache".to_string());
    }
    let clients = (0..CONNS)
        .map(|_| Client::connect(server.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("tcp: connect: {e}"))?;
    Ok(State {
        server,
        clients,
        hot,
    })
}

/// Times the serving layers in-process on the live server: the job
/// key, a context checkout, a coalesced run and a whole `handle_line`
/// for a hot configuration, and `handle_line` for fresh ones.
fn probes(cx: &Cx, st: &State, out: &mut Outcome) {
    let tr = cx.tracer;
    let core = &st.server.core;
    let sched = core.scheduler();
    let hot_req = request(derive(cx.seed, "hot", 0), &EXPERIMENTS);
    let hot_line = wire(&hot_req);
    for _ in 0..PROBES {
        let (key, _) = tr.time("service.job_key", String::new, 0, || {
            sched.job_key(&hot_req)
        });
        let (entry, _) = tr.time("service.checkout", String::new, 0, || {
            sched.pool().checkout(&hot_req.overrides)
        });
        let (run, _) = tr.time("service.run_coalesced", String::new, 0, || {
            sched.run_coalesced(&hot_req)
        });
        let (line, _) = tr.time(
            "net.handle_line",
            || "hit".to_string(),
            0,
            || handle(core, &hot_line),
        );
        let check = match (key, entry.1, run) {
            (Err(e), _, _) | (_, _, Err(e)) => Err(format!("tcp: probe: {e}")),
            (_, false, _) => Err("tcp: probe checkout of a hot configuration missed".to_string()),
            (_, _, Ok((result, _))) if result.computed != 0 => {
                Err("tcp: probe run of a hot configuration computed".to_string())
            }
            _ => line.and_then(|l| check_answer(&l, &st.hot[0], Some(0))),
        };
        out.op(check.is_ok());
        out.failures.extend(check.err());
    }
    for m in 0..MISS_PROBES {
        let req = request(derive(cx.seed, "probe", m), &EXPERIMENTS);
        let (line, _) = tr.time(
            "net.handle_line",
            || "miss".to_string(),
            0,
            || handle(core, &wire(&req)),
        );
        let check = line.and_then(|l| {
            let want = expected(&req)?;
            check_answer(&l, &want, Some(EXPERIMENTS.len() as u64))
        });
        out.op(check.is_ok());
        out.failures.extend(check.err());
    }
}

/// The workload: `reps` set-ups (server, cache fill, references and
/// one untraced warm-up cycle of rounds each), then the loop under
/// `budget`.
pub fn run(cx: &Cx, budget: Budget, reps: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut state: Option<State> = None;
    for _ in 0..reps {
        // One server at a time: the previous set-up's goes first.
        if let Some(old) = state.take() {
            old.server.stop(old.clients)?;
        }
        let t = Instant::now();
        let mut st = set_up(cx)?;
        let (samples, _) = run_rounds(
            &Tracer::new(false),
            cx.seed,
            &mut st,
            0,
            Budget::Ops(MISS_EVERY),
        );
        let mut warmup = Outcome::default();
        settle(cx.seed, samples, &mut warmup);
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.failures.extend(warmup.failures);
        state = Some(st);
    }
    let mut st = state.ok_or("tcp: no set-up ran")?;
    let sched = st.server.core.scheduler();
    let (cache0, sched0, refused0) = (
        sched.pool().stats(),
        sched.stats(),
        st.server.core.stats_line().overloaded,
    );
    let (samples, wall_s) = run_rounds(cx.tracer, cx.seed, &mut st, MISS_EVERY, budget);
    let sched = st.server.core.scheduler();
    let (cache1, sched1, refused1) = (
        sched.pool().stats(),
        sched.stats(),
        st.server.core.stats_line().overloaded,
    );
    out.wall_s = wall_s;
    let (miss_rounds, extra) = settle(cx.seed, samples, &mut out);

    let executed = cache1.output_misses - cache0.output_misses;
    let per_round = executed as f64 / (EXPERIMENTS.len() as u64 * miss_rounds.max(1)) as f64;
    if per_round != 1.0 {
        out.failures.push(format!("tcp: {executed} experiment executions over {miss_rounds} miss rounds; expected exactly one per fresh configuration"));
    }
    let lookups = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let counts = cx.counts;
    counts.set("service.exec_per_miss_round", per_round);
    counts.set("service.led", (sched1.jobs_led - sched0.jobs_led) as f64);
    counts.set(
        "service.coalesced",
        (sched1.jobs_coalesced - sched0.jobs_coalesced) as f64,
    );
    counts.set(
        "service.output_hit_rate",
        lookups(cache1.output_hits - cache0.output_hits, executed),
    );
    counts.set(
        "service.context_hit_rate",
        lookups(
            cache1.context_hits - cache0.context_hits,
            cache1.context_misses - cache0.context_misses,
        ),
    );
    counts.set("service.follower_extra_ms", median(&extra));
    counts.set("net.refused", (refused1 - refused0) as f64);
    counts.set(
        "net.client_retries",
        st.clients.iter().map(Client::retries).sum::<u64>() as f64,
    );

    if cx.tracer.recording() {
        probes(cx, &st, &mut out);
    }
    st.server.stop(st.clients)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_four_hits_then_one_shared_miss() {
        let kinds: Vec<bool> = (0..10).map(is_miss).collect();
        assert_eq!(
            kinds,
            [false, false, false, false, true, false, false, false, false, true]
        );
        assert_eq!(round_seed(3, 4, 0), round_seed(3, 4, 1));
        assert_ne!(round_seed(3, 4, 0), round_seed(3, 9, 0));
        assert_ne!(round_seed(3, 0, 0), round_seed(3, 0, 1));
        let hot: std::collections::BTreeSet<u64> = (0..20)
            .filter(|&r| !is_miss(r))
            .flat_map(|r| [round_seed(3, r, 0), round_seed(3, r, 1)])
            .collect();
        assert_eq!(hot.len() as u64, HOT);
    }

    #[test]
    fn requests_are_a_function_of_the_seed() {
        let a: Vec<String> = (0..10)
            .map(|r| wire(&request(round_seed(9, r, 1), &EXPERIMENTS)))
            .collect();
        let b: Vec<String> = (0..10)
            .map(|r| wire(&request(round_seed(9, r, 1), &EXPERIMENTS)))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], wire(&request(round_seed(10, 0, 1), &EXPERIMENTS)));
    }

    #[test]
    fn a_mutated_answer_fails_the_check() {
        let good = r#"{"event":"result","id":null,"config":"00ff","context_hit":true,"output_hits":3,"computed":0,"records":[{"id":"table9","title":"T","output":{"x":1}}]}"#;
        let want = (
            "00ff".to_string(),
            r#""records":[{"id":"table9","title":"T","output":{"x":1}}]"#.to_string(),
        );
        assert_eq!(check_answer(good, &want, Some(0)), Ok(()));
        assert!(check_answer(&good.replace("\"x\":1", "\"x\":2"), &want, Some(0)).is_err());
        assert!(check_answer(&good.replace("00ff", "00fe"), &want, Some(0)).is_err());
        assert!(check_answer(good, &want, Some(3)).is_err());
        assert!(check_answer(r#"{"event":"error","kind":"overloaded"}"#, &want, None).is_err());
    }
}
