//! Shared run machinery: the run plan, the in-process server the TCP
//! workloads talk to, answer tallies and the `stats` counters a traced run
//! turns into per-layer metrics.

use crate::report::Layers;
use crate::stats::median;
use rpq_server::{Client, Json, Server, ServerConfig, SpawnedServer};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What one run does: how many operations it times and warms up with, how
/// many times it sets up, and whether it traces.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The input seed.
    pub seed: u64,
    /// Timed operations (a fixed count, never a duration).
    pub ops: usize,
    /// Untimed operations after each set-up, counted in `setup_s`.
    pub warmup: usize,
    /// Complete set-ups per run; `setup_s` is their median, and the first
    /// one serves the timed phase.
    pub setups: usize,
    /// Whether half the timed operations carry `"trace": true` (see
    /// [`Plan::is_traced`]).
    pub traced: bool,
}

impl Plan {
    /// Whether timed operation `i` is a traced one. Half the operations
    /// are, in the pattern `U T U T T U T U`: over every 8 operations each
    /// residue mod 2 and mod 4 (the toggle state of `hosted_churn`, the
    /// batch of `wire_batch`) is traced exactly as often as it is not.
    pub fn is_traced(&self, i: usize) -> bool {
        self.traced && (i + i / 4) % 2 == 1
    }
}

/// Everything a workload hands back to `main` for reporting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each set-up: wall time in seconds.
    pub setups: Vec<Sample>,
    /// Each untraced timed operation: latency in ms.
    pub latencies: Vec<Sample>,
    /// Each traced timed operation: latency in ms (trace runs only).
    pub traced: Vec<Sample>,
    /// Wall time of the whole timed phase, seconds.
    pub timed_s: f64,
    /// Host-adjusted wall time of the timed operations, seconds: each
    /// operation's wall time (answer checks included) times its host
    /// factor.
    pub adjusted_timed_s: f64,
    /// Median host probe time over the timed phase, ms.
    pub probe_ms: f64,
    /// `VmHWM` at the end of the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Answer checks.
    pub tally: Tally,
    /// Per-layer sums of the traced operations.
    pub layers: Layers,
}

/// One measured time and the host factor ([`HostProbe::factor`]) it was
/// measured under.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The time as measured.
    pub raw: f64,
    /// The host factor when it was measured.
    pub factor: f64,
}

impl Sample {
    /// The time scaled to the nominal host.
    pub fn adjusted(self) -> f64 {
        self.raw * self.factor
    }
}

/// The raw times of `samples`.
pub fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.raw).collect()
}

/// The host-adjusted times of `samples`.
pub fn adjusted(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.adjusted()).collect()
}

/// Probe passes the host factor is the median of.
const PROBE_WINDOW: usize = 5;
/// Words the probe loop walks: 32 KB, the size of an L1 data cache.
const PROBE_WORDS: usize = 8192;
/// Walks over the probe buffer per pass (about 0.07 ms).
const PROBE_WALKS: usize = 10;
/// The probe pass time the factors scale to: about the pass time in the
/// fast phase of the 2-core Intel Xeon VM the benchmark was defined on.
const NOMINAL_PROBE_MS: f64 = 0.07;
/// How the workloads' times follow the probe's: a time measured while a
/// probe pass takes `r` times its nominal time is about `r^0.75` times the
/// nominal-host time. Fitted on six 25 s runs of each workload; the
/// run-to-run spread of `p50_ms` was least at this exponent on all three.
const HOST_EXPONENT: f64 = 0.75;

/// A host-speed probe: a fixed walk over an L1-sized buffer, run before
/// every timed operation and around every set-up. On a shared virtual
/// machine the host alternates, for seconds to minutes, between phases in
/// which cache-bound code runs at full speed and phases in which it runs
/// up to 1.8 times slower, alike for every workload and for this probe. The
/// probe is benchmark code, so a change to the program does not move it.
pub struct HostProbe {
    buffer: Vec<u32>,
    recent: VecDeque<f64>,
    all: Vec<f64>,
}

impl HostProbe {
    /// A probe with a fresh buffer.
    pub fn new() -> HostProbe {
        HostProbe {
            buffer: (0..PROBE_WORDS as u32).collect(),
            recent: VecDeque::with_capacity(PROBE_WINDOW),
            all: Vec::new(),
        }
    }

    /// Times one probe pass, ms.
    fn pass_ms(&mut self) -> f64 {
        let started = Instant::now();
        let mut acc = 0u32;
        for _ in 0..PROBE_WALKS {
            for i in 0..PROBE_WORDS {
                acc = acc.wrapping_add(self.buffer[(i * 7) & (PROBE_WORDS - 1)]);
                self.buffer[i] ^= acc;
            }
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Runs one probe pass and returns the host factor now: how much a time
    /// measured now is scaled to the nominal host,
    /// `(NOMINAL_PROBE_MS / m)^HOST_EXPONENT` with `m` the median of the
    /// last [`PROBE_WINDOW`] passes.
    pub fn factor(&mut self) -> f64 {
        let ms = self.pass_ms();
        self.all.push(ms);
        if self.recent.len() == PROBE_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
        let m = median(self.recent.make_contiguous()).unwrap_or(NOMINAL_PROBE_MS);
        (NOMINAL_PROBE_MS / m).powf(HOST_EXPONENT)
    }

    /// Runs a full window of probe passes and returns the host factor.
    fn settled_factor(&mut self) -> f64 {
        (0..PROBE_WINDOW).map(|_| self.factor()).last().unwrap_or(1.0)
    }

    /// The median of every probe pass so far, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.all).unwrap_or(0.0)
    }
}

/// Runs the timed phase: `plan.ops` operations, each after one probe pass.
/// `op(i, out)` runs operation `i` and returns whether it was traced and
/// its latency in ms.
pub fn timed_loop(
    plan: &Plan,
    out: &mut Outcome,
    mut op: impl FnMut(usize, &mut Outcome) -> Result<(bool, f64), String>,
) -> Result<(), String> {
    let mut probe = HostProbe::new();
    let started = Instant::now();
    for i in 0..plan.ops {
        let factor = probe.factor();
        let op_started = Instant::now();
        let (traced, ms) = op(i, out)?;
        out.adjusted_timed_s += op_started.elapsed().as_secs_f64() * factor;
        let sample = Sample { raw: ms, factor };
        if traced {
            out.traced.push(sample);
        } else {
            out.latencies.push(sample);
        }
    }
    out.timed_s = started.elapsed().as_secs_f64();
    out.probe_ms = probe.median_ms();
    Ok(())
}

/// Operations attempted and failed (an error response or a wrong answer).
/// Set-up checks against the oracle count as operations too.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs a workload: one set-up, the timed phase on it (`timed`), the peak
/// resident set, and then `plan.setups - 1` more set-ups, each torn down
/// at once, so that `setup_s` is a median over set-ups spread across the
/// run. Set-up checks count in the tally.
///
/// The timed phase runs on the first set-up, before any server has been
/// torn down, so `peak_rss_mb` is one set-up plus the timed phase. A server
/// started after another was torn down inherits the exited threads' malloc
/// arenas in whatever order those threads exited, which made the peak vary
/// by ±15% between runs of one seed.
pub fn run_with_setups<S>(
    plan: &Plan,
    setup: impl Fn(&mut Tally) -> Result<S, String>,
    teardown: impl Fn(S) -> Result<(), String>,
    timed: impl FnOnce(&mut S, &mut Outcome) -> Result<(), String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut probe = HostProbe::new();
    // A set-up's host factor is the mean of the factors just before and
    // just after it.
    let mut time_setup = |out: &mut Outcome| {
        let before = probe.settled_factor();
        let started = Instant::now();
        let state = setup(&mut out.tally)?;
        let raw = started.elapsed().as_secs_f64();
        let factor = (before + probe.settled_factor()) / 2.0;
        out.setups.push(Sample { raw, factor });
        Ok::<S, String>(state)
    };
    let mut state = time_setup(&mut out)?;
    timed(&mut state, &mut out)?;
    out.peak_rss_mb = crate::report::peak_rss_mb();
    teardown(state)?;
    for _ in 1..plan.setups {
        let state = time_setup(&mut out)?;
        teardown(state)?;
    }
    Ok(out)
}

/// An in-process server (`Server::bind` + `spawn`) and the one client
/// connection a closed-loop workload drives it over.
pub struct Wire {
    client: Client,
    running: SpawnedServer,
}

impl Wire {
    /// Binds a loopback server with [`SERVER_THREADS`] workers and connects
    /// to it.
    pub fn start() -> Result<Wire, String> {
        let config = ServerConfig { threads: SERVER_THREADS, ..ServerConfig::default() };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let running = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let client = Client::connect(running.addr).map_err(|e| format!("connect: {e}"))?;
        // A hung server fails the run instead of outliving its time limit.
        client.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        Ok(Wire { client, running })
    }

    /// Sends one request line; returns the response line and the client
    /// round trip in milliseconds.
    pub fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let started = Instant::now();
        let response = self.client.request_line(line).map_err(|e| format!("request: {e}"))?;
        Ok((response, started.elapsed().as_secs_f64() * 1e3))
    }

    /// Sends one request line and parses the response.
    pub fn call_json(&mut self, line: &str) -> Result<Json, String> {
        let (response, _) = self.call(line)?;
        Json::parse(&response).map_err(|e| format!("response is not JSON: {e}"))
    }

    /// The server's `stats` object.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.call_json(r#"{"op":"stats"}"#)
    }

    /// Shuts the server down and waits for every server thread to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.call(r#"{"op":"shutdown"}"#)?;
        drop(self.client);
        self.running.join().map_err(|e| format!("server exit: {e}"))
    }
}

/// Worker threads for the in-process server. The load is a closed loop over
/// one connection, so one request is in flight at a time and one worker
/// serves it. More workers only add noise: each request lands on whichever
/// worker wakes first.
pub const SERVER_THREADS: usize = 1;

/// Pins this process to the last CPU it may run on, with `taskset`, and
/// returns that CPU. Call it before any thread starts: threads inherit the
/// pin. With one request in flight the client and the server worker never
/// run at once, and on a virtual machine waking a worker on the other,
/// idle CPU cost a round trip a varying 0–4 ms. `None` (run unpinned) when
/// `taskset` is missing or fails.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = last_cpu(allowed)?;
    let pid = std::process::id().to_string();
    let output = std::process::Command::new("taskset")
        .args(["-c", "-p", &cpu.to_string(), &pid])
        .output()
        .ok()?;
    output.status.success().then_some(cpu)
}

/// The highest CPU of a kernel CPU list such as `0-3,8,10-11`.
fn last_cpu(list: &str) -> Option<usize> {
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Whether a response (or batch entry) is a success: `"ok"` is not `false`
/// and, for a routed answer, `degraded` is `false`.
pub fn answered(entry: &Json) -> bool {
    entry.get("ok").and_then(Json::as_bool) != Some(false)
        && entry.get("degraded").and_then(Json::as_bool) == Some(false)
}

/// Times `f` in milliseconds, returning its result too.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

fn counter(stats: &Json, object: &str, field: &str) -> f64 {
    stats.get(object).and_then(|o| o.get(field)).and_then(Json::as_int).unwrap_or(0) as f64
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Turns the `stats` counters before and after the timed phase into the
/// cache, store and router per-layer metrics.
pub fn fold_stats(layers: &mut Layers, before: &Json, after: &Json) {
    let delta =
        |object: &str, field: &str| counter(after, object, field) - counter(before, object, field);
    layers.fixed.insert("cache.hit_ratio", ratio(delta("cache", "hits"), delta("cache", "misses")));
    layers.fixed.insert(
        "store.incremental_ratio",
        ratio(delta("store", "incremental_solves"), delta("store", "full_solves")),
    );
    layers.fixed.insert(
        "store.result_hit_ratio",
        ratio(delta("store", "result_hits"), delta("store", "result_misses")),
    );
    layers.fixed.insert("store.materializations", delta("store", "materializations"));
    layers.fixed.insert("store.log_entries", counter(after, "store", "log_entries"));
    layers.fixed.insert("router.degraded_total", counter(after, "router", "degraded"));
}

/// Bench-side JSON costs of one traced exchange: decoding the exact request
/// line with `Request::parse`, and re-encoding the parsed response.
pub fn fold_json_costs(layers: &mut Layers, line: &str, response: &Json, response_bytes: usize) {
    let (_, decode_ms) =
        timed_ms(|| std::hint::black_box(rpq_server::Request::parse(line)).is_ok());
    let (_, encode_ms) = timed_ms(|| std::hint::black_box(response.to_string()).len());
    layers.add("json.request_decode_ms", decode_ms);
    layers.add("json.response_encode_ms", encode_ms);
    layers.add("json.response_bytes", response_bytes as f64);
}

/// Times `rpq_graphdb::text::parse` over `texts` and records the cost per
/// fact.
pub fn fold_parse_cost(layers: &mut Layers, texts: &[String]) -> Result<(), String> {
    let started = Instant::now();
    let mut facts = 0usize;
    for text in texts {
        let db = rpq_graphdb::text::parse(text).map_err(|e| format!("graph text: {e}"))?;
        facts += std::hint::black_box(db).num_facts();
    }
    let ns = started.elapsed().as_secs_f64() * 1e9;
    layers.fixed.insert("graphdb.parse_ns_per_fact", ns / facts.max(1) as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::last_cpu;

    #[test]
    fn last_cpu_of_a_kernel_cpu_list() {
        assert_eq!(last_cpu("0-1"), Some(1));
        assert_eq!(last_cpu("\t0-3,8,10-11\n"), Some(11));
        assert_eq!(last_cpu("5"), Some(5));
        assert_eq!(last_cpu(""), None);
    }
}
