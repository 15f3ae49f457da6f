//! End-to-end protocol test: a real TCP server on a loopback port, several
//! concurrent client threads, and agreement with direct `Engine` results.
//!
//! This is the acceptance scenario of the server subsystem: a 4-thread
//! `solve_batch` run over 32 databases must return exactly the values the
//! engine computes sequentially, and preparing the same language under
//! different regex spellings must be answered from the cache.

use rpq_automata::Word;
use rpq_graphdb::generate::word_path;
use rpq_graphdb::text;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use rpq_server::{Client, Json, QuerySpec, Request, Server, ServerConfig};
use std::time::Duration;

/// Bound on any single round trip, so a hung server fails a test instead of
/// stalling the run.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// 32 small databases exercising the `ax*b` local-language plan: paths
/// labeled `a x^k b` (resilience 1), plus some negatives (no match,
/// resilience 0) and a branching database with two disjoint matches.
fn corpus() -> Vec<String> {
    let mut dbs = Vec::new();
    for k in 0..20 {
        let word = format!("a{}b", "x".repeat(k));
        dbs.push(text::serialize(&word_path(&Word::from_str_word(&word))));
    }
    for word in ["ba", "ax", "xb", "aa", "bb", "axxa"] {
        dbs.push(text::serialize(&word_path(&Word::from_str_word(word))));
    }
    for k in 0..6 {
        // Two node-disjoint matches (the original path plus a renamed copy):
        // resilience 2.
        let left =
            text::serialize(&word_path(&Word::from_str_word(&format!("a{}b", "x".repeat(k)))));
        let mut combined = left.clone();
        for line in left.lines() {
            let mut parts: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            parts[0] = format!("c_{}", parts[0]);
            parts[2] = format!("c_{}", parts[2]);
            combined.push_str(&parts.join(" "));
            combined.push('\n');
        }
        dbs.push(combined);
    }
    assert_eq!(dbs.len(), 32);
    dbs
}

fn expected_values(pattern: &str, dbs: &[String]) -> Vec<Json> {
    let engine = Engine::new();
    let prepared = engine.prepare(&Rpq::parse(pattern).unwrap()).unwrap();
    dbs.iter()
        .map(|db_text| {
            let db = text::parse(db_text).unwrap();
            let outcome = prepared.solve(&db).unwrap();
            match outcome.value.finite() {
                Some(v) => Json::Int(v as i128),
                None => Json::Str("infinite".into()),
            }
        })
        .collect()
}

#[test]
fn concurrent_solve_batch_agrees_with_the_direct_engine() {
    let dbs = corpus();
    let expected = expected_values("ax*b", &dbs);
    // Sanity: the corpus is not all-zeros.
    assert!(expected.contains(&Json::Int(0)));
    assert!(expected.contains(&Json::Int(1)));
    assert!(expected.contains(&Json::Int(2)));

    let server =
        Server::bind("127.0.0.1:0", ServerConfig { threads: 4, ..ServerConfig::default() })
            .unwrap();
    let running = server.spawn().unwrap();
    let addr = running.addr;

    // Warm the cache once so every spelling below is a guaranteed hit.
    let mut warmup = Client::connect(addr).unwrap();
    let response = warmup.request(&Request::Prepare { query: QuerySpec::new("ax*b") }).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(response.get("cached"), Some(&Json::Bool(false)));
    let fingerprint = response.get("fingerprint").unwrap().clone();

    // Four client threads, each using a different spelling of the same
    // language, each solving the whole 32-database batch.
    let spellings = ["ax*b", "a(x)*b", "(a)x*b", "ax*b|axx*b"];
    let handles: Vec<_> = spellings
        .iter()
        .map(|&pattern| {
            let dbs = dbs.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let response = client
                    .request(&Request::SolveBatch {
                        query: QuerySpec::new(pattern),
                        dbs: dbs.clone(),
                    })
                    .unwrap();
                assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{pattern}");
                assert_eq!(
                    response.get("cached"),
                    Some(&Json::Bool(true)),
                    "equivalent spelling `{pattern}` must hit the cache"
                );
                response
                    .get("results")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|r| r.get("value").unwrap().clone())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), expected);
    }

    // Different spellings share the fingerprint too.
    let response = warmup.request(&Request::Prepare { query: QuerySpec::new("a(x)*b") }).unwrap();
    assert_eq!(response.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(response.get("fingerprint"), Some(&fingerprint));

    // Stats: one miss (the warm-up), at least 5 hits (4 batches + reprepare),
    // and every request counted.
    let stats = warmup.request(&Request::Stats).unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("misses"), Some(&Json::Int(1)));
    assert!(cache.get("hits").unwrap().as_int().unwrap() >= 5, "{stats}");
    assert_eq!(cache.get("entries"), Some(&Json::Int(1)));
    assert!(stats.get("requests").unwrap().as_int().unwrap() >= 7);

    // Clean shutdown: acknowledged, then the server thread exits.
    let bye = warmup.request(&Request::Shutdown).unwrap();
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    running.join().unwrap();
}

#[test]
fn want_cut_variants_share_one_cache_entry_and_differ_only_in_the_witness() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let running = server.spawn().unwrap();
    let mut client = Client::connect(running.addr).unwrap();

    // A one-dangling query (witnesses come from the Proposition 7.9 cut
    // mapping) over a database where the optimal cut is the shared b-fact.
    let db = "1 a 2\n2 b 3\n3 c 4\n3 e 5\n".to_string();
    let with_cut = client
        .request(&Request::Solve { query: QuerySpec::new("abc|be"), db: db.clone() })
        .unwrap();
    assert_eq!(with_cut.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(with_cut.get("algorithm").and_then(Json::as_str), Some("one-dangling"));
    assert_eq!(
        with_cut.get("contingency_set").unwrap().as_array().unwrap(),
        &vec![Json::Str("2 -b-> 3".into())]
    );

    // The value-only variant of the same language: no witness, same value,
    // answered from the same cache entry (want_cut is not part of the key).
    let value_only = client
        .request(&Request::Solve {
            query: QuerySpec { want_cut: Some(false), ..QuerySpec::new("abc|be") },
            db,
        })
        .unwrap();
    assert_eq!(value_only.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(value_only.get("value"), with_cut.get("value"));
    assert!(value_only.get("contingency_set").is_none());
    assert_eq!(value_only.get("cached"), Some(&Json::Bool(true)));

    let stats = client.request(&Request::Stats).unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("entries"), Some(&Json::Int(1)), "one entry for both variants");
    assert_eq!(cache.get("misses"), Some(&Json::Int(1)));

    client.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

#[test]
fn newline_less_shutdown_at_eof_stops_the_server() {
    use std::io::{Read, Write};
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let running = server.spawn().unwrap();
    let mut stream = std::net::TcpStream::connect(running.addr).unwrap();
    // No trailing newline; the write half-close makes the request visible
    // only at EOF. The shutdown must still be honored.
    stream.write_all(b"{\"op\":\"shutdown\"}").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.contains("\"ok\":true"), "{response}");
    running.join().unwrap();
}

#[test]
fn solve_over_tcp_matches_solve_via_pipe_mode() {
    let dbs = corpus();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let running = server.spawn().unwrap();

    let mut client = Client::connect(running.addr).unwrap();
    let mut tcp_values = Vec::new();
    for db in &dbs {
        let response = client
            .request(&Request::Solve { query: QuerySpec::new("ax*b"), db: db.clone() })
            .unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        tcp_values.push(response.get("value").unwrap().clone());
    }

    // The same workload through the stdio pipe front end.
    let state = rpq_server::ServerState::new(ServerConfig::default());
    let mut input = String::new();
    for db in &dbs {
        input.push_str(
            &Request::Solve { query: QuerySpec::new("ax*b"), db: db.clone() }.to_json().to_string(),
        );
        input.push('\n');
    }
    let mut output = Vec::new();
    rpq_server::run_pipe(&state, input.as_bytes(), &mut output).unwrap();
    let pipe_values: Vec<Json> = std::str::from_utf8(&output)
        .unwrap()
        .trim()
        .lines()
        .map(|line| Json::parse(line).unwrap().get("value").unwrap().clone())
        .collect();
    assert_eq!(tcp_values, pipe_values);

    client.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

/// Replaces the digits after every `"elapsed_us":` and `"uptime_secs":` key
/// with `X`: wall-clock readings are the only part of a response that may
/// differ between two runs of the same requests.
fn mask_timings(output: &str) -> String {
    let mut masked = String::with_capacity(output.len());
    let mut rest = output;
    while let Some((at, key)) = ["\"elapsed_us\":", "\"uptime_secs\":"]
        .into_iter()
        .filter_map(|key| rest.find(key).map(|at| (at, key)))
        .min()
    {
        let value = at + key.len();
        masked.push_str(&rest[..value]);
        masked.push('X');
        rest = rest[value..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    masked.push_str(rest);
    masked
}

/// The golden wire transcript: `scripts/pipe_transcript.ndjson` (prepare,
/// solve with and without cut and budgets, `solve_batch` at 1 and 4 jobs,
/// the `db_*` verbs, the error paths of the solve family — unparsable
/// queries and databases, enumeration-limit failures inline and per entry,
/// unknown snapshots — malformed lines, cut-carrying solves over small local,
/// chain and one-dangling databases (set and bag semantics, exogenous facts,
/// an infinite value), `stats`, `shutdown`) fed through the stdio front end
/// must answer byte for byte as recorded in `scripts/pipe_transcript.expected`
/// once the timings are masked. Re-record the expected file only for an
/// intended wire change, with this same default `ServerConfig`.
#[test]
fn pipe_transcript_matches_the_recorded_responses() {
    let input = include_str!("../../../scripts/pipe_transcript.ndjson");
    let expected = include_str!("../../../scripts/pipe_transcript.expected");
    let state = rpq_server::ServerState::new(ServerConfig::default());
    let mut output = Vec::new();
    rpq_server::run_pipe(&state, input.as_bytes(), &mut output).unwrap();
    let masked = mask_timings(std::str::from_utf8(&output).unwrap());
    assert_eq!(masked.lines().count(), expected.lines().count());
    for (i, (got, want)) in masked.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "response {} differs from the recording", i + 1);
    }
    assert_eq!(masked, expected);
}

/// The `→`/`←` pairs of the README section `title`, up to the first
/// request containing `stop` (to the section's end without one). A wrapped
/// `←` line continues on the indented lines after it; every wrap falls
/// between JSON tokens, so the pieces join without spaces.
fn readme_examples(title: &str, stop: Option<&str>) -> (Vec<&'static str>, Vec<String>) {
    let readme = include_str!("../../../README.md");
    let section = readme
        .split("\n### ")
        .find(|section| section.starts_with(title))
        .unwrap_or_else(|| panic!("the README has a section `{title}`"));
    let mut requests: Vec<&str> = Vec::new();
    let mut responses: Vec<String> = Vec::new();
    let mut wrapped = false;
    for line in section.lines() {
        let continued = line.strip_prefix("   ").filter(|_| wrapped);
        wrapped = false;
        if let (Some(rest), Some(response)) = (continued, responses.last_mut()) {
            response.push_str(rest.trim_start());
            wrapped = true;
        } else if let Some(request) = line.strip_prefix("→ ") {
            if stop.is_some_and(|stop| requests.last().is_some_and(|last| last.contains(stop))) {
                break;
            }
            requests.push(request);
        } else if let Some(response) = line.strip_prefix("← ") {
            responses.push(response.to_string());
            wrapped = true;
        }
    }
    assert_eq!(requests.len(), responses.len(), "every request has one response");
    (requests, responses)
}

/// Replays `requests` in order on a fresh server and requires each answer
/// to be its documented response byte for byte once the timings are masked.
fn replay_verbatim(requests: &[&str], responses: &[String]) {
    let state = rpq_server::ServerState::new(ServerConfig::default());
    let mut output = Vec::new();
    rpq_server::run_pipe(&state, requests.join("\n").as_bytes(), &mut output).unwrap();
    let got = mask_timings(std::str::from_utf8(&output).unwrap());
    assert_eq!(got.lines().count(), requests.len());
    for ((request, got), want) in requests.iter().zip(got.lines()).zip(responses) {
        assert_eq!(got, mask_timings(want), "the README's answer to {request}");
    }
}

/// The README's *Hosted snapshot databases* examples, `db_put` through
/// `shutdown`, replay verbatim: the `stats` answer pins the store's
/// incremental / full solve split of the solves before it.
#[test]
fn readme_hosted_database_examples_replay_verbatim() {
    let (requests, responses) = readme_examples("Hosted snapshot databases", None);
    assert!(requests.first().is_some_and(|request| request.contains(r#""op":"db_put""#)));
    assert!(requests.iter().any(|request| request.contains(r#""op":"stats""#)));
    assert!(requests.last().is_some_and(|request| request.contains(r#""op":"shutdown""#)));
    replay_verbatim(&requests, &responses);
}

/// The README's *Wire protocol* examples (`prepare`, `solve` with and
/// without the cut, `solve_batch`) and its *Deadlines & tiered answers*
/// examples replay verbatim, each section on a fresh server. Their cuts come
/// from the flow core's narrow path, so they also pin its wire bytes.
#[test]
fn readme_wire_protocol_examples_replay_verbatim() {
    for (title, count) in [("Wire protocol", 4), ("Deadlines & tiered answers", 3)] {
        let (requests, responses) = readme_examples(title, None);
        assert_eq!(requests.len(), count, "{title}");
        replay_verbatim(&requests, &responses);
    }
}

/// A query nested far past `MAX_REGEX_DEPTH` (~12 KB of parentheses, deep
/// enough to overflow a worker's stack and abort the whole server without
/// the bound) is an ordinary error response, and the same connection keeps
/// being served.
#[test]
fn a_deeply_nested_query_is_an_error_response_not_a_crash() {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { threads: 2, ..ServerConfig::default() })
            .unwrap();
    let running = server.spawn().unwrap();
    let mut client = Client::connect(running.addr).unwrap();
    client.set_read_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
    let pattern = format!("{}a{}", "(".repeat(6_000), ")".repeat(6_000));
    let response = client.request(&Request::Prepare { query: QuerySpec::new(pattern) }).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    let error = response.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("nesting deeper than 128"), "{error}");
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
    assert_eq!(stats.get("errors").and_then(Json::as_int), Some(1), "{stats}");
    client.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

/// A TCP request line that never ends stops being buffered past
/// `6 × max_body_bytes + 1 MiB`: the peer gets one `line_too_long` error,
/// then the connection closes, and the server counts one failed request.
#[test]
fn an_endless_request_line_is_cut_off_with_a_typed_error() {
    use std::io::{BufRead, BufReader, Read, Write};
    let store = rpq_store::StoreConfig { max_body_bytes: 1024, ..Default::default() };
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { store, ..ServerConfig::default() }).unwrap();
    let running = server.spawn().unwrap();
    let stream = std::net::TcpStream::connect(running.addr).unwrap();
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
    // 2 MiB without a newline, twice the cap; the writes fail once the
    // server has given up on the line and closed the connection.
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let chunk = [b'x'; 64 * 1024];
        for _ in 0..32 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("a response before the close");
    let response = Json::parse(line.trim_end()).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert_eq!(response.get("code").and_then(Json::as_str), Some("line_too_long"), "{response}");
    // Nothing follows the error: the server closed its end. The close may
    // reach the client as a reset, since the rest of the line went unread.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "{} more bytes", rest.len()),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    sender.join().unwrap();

    let mut client = Client::connect(running.addr).unwrap();
    client.set_read_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats.get("errors").and_then(Json::as_int), Some(1), "{stats}");
    assert_eq!(stats.get("requests").and_then(Json::as_int), Some(2), "{stats}");
    client.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

/// Every Prometheus family of the `metrics` page, with the `stats` value it
/// exports: a `.`-separated path, for a labeled family the object whose
/// keys its label takes, or `""` for a latency family.
const FAMILY_STATS: [(&str, &str); 31] = [
    ("rpq_requests_total", "requests"),
    ("rpq_errors_total", "errors"),
    ("rpq_panics_total", "panics"),
    ("rpq_uptime_seconds", "uptime_secs"),
    ("rpq_requests_by_verb_total", "requests_by_verb"),
    ("rpq_connections_open", "connections.open"),
    ("rpq_connections_accepted_total", "connections.accepted"),
    ("rpq_ready_queue_depth", "connections.queue_depth"),
    ("rpq_cache_hits_total", "cache.hits"),
    ("rpq_cache_misses_total", "cache.misses"),
    ("rpq_cache_evictions_total", "cache.evictions"),
    ("rpq_cache_entries", "cache.entries"),
    ("rpq_store_databases", "store.databases"),
    ("rpq_store_named_snapshots", "store.named_snapshots"),
    ("rpq_store_materialized", "store.materialized"),
    ("rpq_store_log_entries", "store.log_entries"),
    ("rpq_store_log_bytes", "store.log_bytes"),
    ("rpq_store_incremental_solves_total", "store.incremental_solves"),
    ("rpq_store_full_solves_total", "store.full_solves"),
    ("rpq_store_materializations_total", "store.materializations"),
    ("rpq_store_evictions_total", "store.evictions"),
    ("rpq_store_result_cache_hits_total", "store.result_hits"),
    ("rpq_store_result_cache_misses_total", "store.result_misses"),
    ("rpq_routed_total", "router"),
    ("rpq_routed_degraded_total", "router.degraded"),
    ("rpq_overload_sheds_total", "router.overload_sheds"),
    ("rpq_solve_latency_us", ""),
    ("rpq_solve_latency_us_p50", ""),
    ("rpq_solve_latency_us_p95", ""),
    ("rpq_solve_latency_us_p99", ""),
    ("rpq_solve_latency_us_max", ""),
];

/// After requests of every verb over one TCP connection, hosted ones and a
/// degraded solve included, every counter and gauge sample of `metrics`
/// equals its `stats` value, and every family has one `# HELP`/`# TYPE`
/// pair. The latency families have no `stats` value and are only counted.
#[test]
fn stats_and_metrics_report_the_same_counters() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let running = server.spawn().unwrap();
    let mut client = Client::connect(running.addr).unwrap();
    client.set_read_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
    for line in [
        r#"{"op":"prepare","query":"ax*b"}"#,
        r#"{"op":"solve","query":"ax*b","db":"s a u\nu x v\nv b t\n"}"#,
        r#"{"op":"solve_batch","query":"a(x)*b","dbs":["s a t\n","s a u\nu b t\n"]}"#,
        r#"{"op":"solve","query":"aa","db":"1 a 2\n2 a 3\n3 a 4\n","deadline_ms":0}"#,
        r#"{"op":"db_put","name":"g","db":"s a u\nu x v\nv b t\n"}"#,
        r#"{"op":"db_snapshot","name":"g","snapshot_name":"v0"}"#,
        r#"{"op":"db_solve","name":"g","query":"ax*b"}"#,
        r#"{"op":"db_patch","name":"g","patch":"+ s a v\n- u x v\n"}"#,
        r#"{"op":"db_solve","name":"g","query":"ax*b"}"#,
        r#"{"op":"db_solve","name":"g","query":"ax*b","snapshots":["v0",1,"ghost"]}"#,
        r#"{"op":"db_put","name":"h","db":"s a t\n"}"#,
        r#"{"op":"db_list"}"#,
        r#"{"op":"db_drop","name":"h"}"#,
        r#"{"op":"db_patch","name":"g","patch":"+ v b w\n"}"#,
        "not json",
    ] {
        client.request_line(line).unwrap();
    }
    let stats = client.request(&Request::Stats).unwrap();
    let metrics = client.request(&Request::Metrics).unwrap();
    client.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
    let page = metrics.get("metrics").and_then(Json::as_str).unwrap();

    let mut families = Vec::new();
    let mut lines = page.lines();
    while let Some(line) = lines.next() {
        let Some(help) = line.strip_prefix("# HELP ") else { continue };
        let name = help.split(' ').next().unwrap();
        let kind = lines.next().and_then(|l| l.strip_prefix(&format!("# TYPE {name} ")));
        assert!(kind.is_some(), "`# HELP {name}` is not followed by its `# TYPE`");
        assert!(!families.contains(&name), "`{name}` has two headers");
        families.push(name);
    }
    assert_eq!(page.matches("# TYPE ").count(), families.len(), "{page}");
    let mapped: Vec<&str> = FAMILY_STATS.iter().map(|(family, _)| *family).collect();
    for family in &families {
        assert!(mapped.contains(family), "`{family}` has no entry in FAMILY_STATS");
    }

    let mut checked = 0;
    for line in page.lines().filter(|line| !line.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').unwrap();
        let (name, label) = match series.split_once('{') {
            Some((name, labels)) => (name, Some(labels.trim_end_matches('}'))),
            None => (series, None),
        };
        let Some((_, path)) = FAMILY_STATS.iter().find(|(family, _)| *family == name) else {
            assert!(name.starts_with("rpq_solve_latency_us"), "sample `{line}` has no family");
            continue;
        };
        if path.is_empty() {
            continue;
        }
        let mut at = &stats;
        for key in path.split('.') {
            at = at.get(key).unwrap_or_else(|| panic!("`stats` has no `{path}`: {stats}"));
        }
        if let Some(label) = label {
            let (_, key) = label.split_once('=').unwrap();
            at = at.get(key.trim_matches('"')).unwrap_or_else(|| panic!("`{line}`: {stats}"));
        }
        let want = at.as_int().unwrap();
        // The `metrics` request is counted before its page is rendered.
        let want = match (*path, label) {
            ("requests", _) | (_, Some("verb=\"metrics\"")) => want + 1,
            _ => want,
        };
        let got: i128 = value.parse().unwrap();
        if *path == "uptime_secs" {
            assert!((want..=want + 1).contains(&got), "`{line}` against {want}");
        } else {
            assert_eq!(got, want, "`{line}` against `stats`: {stats}");
        }
        checked += 1;
    }
    // 24 unlabeled samples, 12 verbs and 3 tiers.
    assert_eq!(checked, 39, "{page}");
    // The requests reached the hosted and degraded paths the families count.
    let store = stats.get("store").unwrap();
    for key in ["incremental_solves", "full_solves", "result_hits", "named_snapshots"] {
        assert!(store.get(key).and_then(Json::as_int).unwrap() > 0, "store.{key}: {stats}");
    }
    let router = stats.get("router").unwrap();
    assert!(router.get("approx").and_then(Json::as_int).unwrap() > 0, "{stats}");
    assert_eq!(stats.get("connections").unwrap().get("accepted"), Some(&Json::Int(1)));
}
