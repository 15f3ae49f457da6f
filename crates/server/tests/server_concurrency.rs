//! Concurrency tests for the TCP front end's connection threads.
//!
//! The original server pinned one worker thread per connection for the
//! connection's whole lifetime, so `threads` idle persistent connections
//! starved every later client indefinitely. Each connection now has its own
//! thread, and `threads` bounds the *worker slots* a connection holds only
//! while it answers one request; these tests pin down the properties that
//! design must keep:
//!
//! 1. **No starvation**: a client connecting after `threads + 4` idle
//!    persistent connections is still served (the regression test for the
//!    original bug).
//! 2. **Fair pipelining**: many requests buffered on one connection are
//!    answered in order, and a second client is answered before they are
//!    all done, even with one slot.
//! 3. **No blocking writes under a slot**: a client that pipelines
//!    requests and never reads blocks only its own connection thread.
//! 4. **Prompt shutdown**: idle connections do not keep the server from
//!    exiting, and each sees EOF.
//! 5. **Correctness under load**: many clients × persistent connections ×
//!    concurrent `solve_batch` agree with the direct engine, while the
//!    shared cache's stats stay monotone and bounded.

use rpq_automata::Word;
use rpq_graphdb::generate::word_path;
use rpq_graphdb::text;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use rpq_server::{Client, Json, QuerySpec, Request, Server, ServerConfig};
use std::time::Duration;

/// Generous bound on any single round trip: the server answers idle-free
/// requests in microseconds, so a timeout only fires when the server is
/// actually starved (which is exactly what the regression test detects).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

fn connect(addr: std::net::SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(RESPONSE_TIMEOUT)).expect("set timeout");
    client
}

#[test]
fn idle_persistent_connections_do_not_starve_new_clients() {
    let threads = 2;
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { threads, ..ServerConfig::default() }).unwrap();
    let running = server.spawn().unwrap();
    let addr = running.addr;

    // `threads + 4` persistent connections, each warmed with one request so
    // the server has demonstrably adopted them — then left idle and open.
    let mut idle: Vec<Client> = (0..threads + 4)
        .map(|_| {
            let mut client = connect(addr);
            let response = client.request(&Request::Stats).expect("warm-up request");
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
            client
        })
        .collect();

    // The regression: with one-connection-per-worker scheduling, both workers
    // are now pinned to idle connections and this request never gets served.
    let mut fresh = connect(addr);
    let response = fresh
        .request(&Request::Solve {
            query: QuerySpec::new("ax*b"),
            db: "s a u\nu x v\nv b t\n".to_string(),
        })
        .expect("a new client must be served despite threads+4 idle connections");
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(response.get("value"), Some(&Json::Int(1)));

    // The idle connections are still alive — parking did not drop them.
    for (i, client) in idle.iter_mut().enumerate() {
        let response = client.request(&Request::Stats).expect("idle connection still serviceable");
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "idle connection {i}");
    }

    // Keep-alive metrics: all connections are open, each served ≥ 1 request.
    let stats = fresh.request(&Request::Stats).unwrap();
    let connections = stats.get("connections").unwrap();
    let open = connections.get("open").unwrap().as_int().unwrap();
    assert!(open >= (threads + 5) as i128, "{stats}");
    assert!(
        connections.get("accepted").unwrap().as_int().unwrap() >= open,
        "accepted is a monotone total: {stats}"
    );
    assert!(
        connections.get("requests").unwrap().as_int().unwrap() >= (2 * (threads + 4) + 2) as i128,
        "{stats}"
    );
    assert!(connections.get("max_requests").unwrap().as_int().unwrap() >= 2, "{stats}");

    fresh.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

#[test]
fn pipelined_requests_on_one_connection_are_answered_in_order() {
    use std::io::{BufRead, BufReader, Write};
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { threads: 3, ..ServerConfig::default() })
            .unwrap();
    let running = server.spawn().unwrap();

    let mut stream = std::net::TcpStream::connect(running.addr).unwrap();
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
    // 16 requests written back to back before reading anything: the server
    // must slice the buffer into lines and answer them one by one,
    // preserving order.
    let words = ["ab", "axb", "axxb", "ba"];
    let mut pipelined = String::new();
    for i in 0..16 {
        let db = text::serialize(&word_path(&Word::from_str_word(words[i % words.len()])));
        pipelined
            .push_str(&Request::Solve { query: QuerySpec::new("ax*b"), db }.to_json().to_string());
        pipelined.push('\n');
    }
    stream.write_all(pipelined.as_bytes()).unwrap();

    let engine = Engine::new();
    let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..16 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("pipelined response");
        let response = Json::parse(line.trim()).unwrap();
        let db = word_path(&Word::from_str_word(words[i % words.len()]));
        let expected = prepared.solve(&db).unwrap().value.finite().unwrap() as i128;
        assert_eq!(response.get("value"), Some(&Json::Int(expected)), "response {i}");
    }

    let mut closer = connect(running.addr);
    // One connection issued 16 requests: the keep-alive maximum saw it.
    let stats = closer.request(&Request::Stats).unwrap();
    let max = stats.get("connections").unwrap().get("max_requests").unwrap();
    assert!(max.as_int().unwrap() >= 16, "{stats}");
    closer.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

#[test]
fn a_line_arriving_in_many_pieces_is_answered_before_the_requests_behind_it() {
    use rpq_graphdb::generate::flow_instance;
    use std::io::{BufRead, BufReader, Write};
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let running = server.spawn().unwrap();

    // A ~87 KB `solve_batch` line (16 flow networks of ~400 facts each),
    // written in 40 pieces with pauses, so the server sees dozens of
    // partial reads before the newline.
    let engine = Engine::new();
    let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap().with_bag_semantics()).unwrap();
    let dbs: Vec<String> =
        (0..16).map(|seed| text::serialize(&flow_instance(8, 16, 3, 9, seed))).collect();
    let expected: Vec<Json> = dbs
        .iter()
        .map(|t| {
            let db = text::parse(t).unwrap();
            Json::Int(prepared.solve(&db).unwrap().value.finite().unwrap() as i128)
        })
        .collect();
    let query = QuerySpec { bag: true, ..QuerySpec::new("ax*b") };
    let mut batch = Request::SolveBatch { query, dbs }.to_json().to_string();
    batch.push('\n');
    assert!(batch.len() > 64 * 1024, "the batch line is only {} bytes", batch.len());

    let mut stream = std::net::TcpStream::connect(running.addr).unwrap();
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
    stream.set_nodelay(true).unwrap();
    // The last piece goes out in one write with two small requests, so the
    // server finds both behind the large line's newline in its buffer.
    let small = Request::Solve {
        query: QuerySpec::new("ax*b"),
        db: text::serialize(&word_path(&Word::from_str_word("axxb"))),
    };
    let piece = batch.len().div_ceil(40);
    let mut pieces: Vec<Vec<u8>> = batch.as_bytes().chunks(piece).map(<[u8]>::to_vec).collect();
    assert!(pieces.len() >= 32);
    if let Some(last) = pieces.last_mut() {
        let behind = format!("{}\n{}\n", small.to_json(), Request::Stats.to_json());
        last.extend_from_slice(behind.as_bytes());
    }
    for piece in &pieces {
        std::thread::sleep(Duration::from_millis(2));
        stream.write_all(piece).unwrap();
    }

    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        Json::parse(line.trim()).unwrap()
    };
    let response = next();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    let values: Vec<Json> = response
        .get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r.get("value").unwrap().clone())
        .collect();
    assert_eq!(values, expected);
    let response = next();
    assert_eq!(response.get("value"), Some(&Json::Int(1)), "{response}");
    let response = next();
    assert!(response.get("requests_by_verb").is_some(), "{response}");

    let mut closer = connect(running.addr);
    closer.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

#[test]
fn a_pipelining_connection_cannot_keep_the_only_slot() {
    use std::io::{BufRead, BufReader, Write};
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { threads: 1, ..ServerConfig::default() })
            .unwrap();
    let running = server.spawn().unwrap();
    let addr = running.addr;
    // Connection B is open and served once before A starts, so its thread
    // is already waiting in a read when B asks again.
    let mut client = connect(addr);
    client.request(&Request::Stats).expect("warm-up response");

    // Connection A pipelines 16 solves of a few milliseconds each: exact
    // searches for `aa` on a 200-fact path.
    let db = text::serialize(&word_path(&Word::from_str_word(&"a".repeat(200))));
    let query = QuerySpec { want_cut: Some(false), ..QuerySpec::new("aa") };
    let mut line = Request::Solve { query, db }.to_json().to_string();
    line.push('\n');
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
    stream.write_all(line.repeat(16).as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut response = String::new();
        reader.read_line(&mut response).expect("pipelined response");
        let response = Json::parse(response.trim()).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    };
    next();

    // Connection B asks once while A still has 15 requests to go: after the
    // request A is answering now, B's turn comes before A's next one. The
    // router's counters in B's answer say how many of A's solves were done
    // when B was served.
    let stats = client.request(&Request::Stats).expect("stats response");
    let router = stats.get("router").unwrap();
    let solved: i128 =
        ["poly", "exact", "approx"].iter().map(|t| router.get(t).unwrap().as_int().unwrap()).sum();
    assert!(solved < 16, "B waited out all 16 of A's pipelined requests: {stats}");
    (1..16).for_each(|_| next());

    client.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

#[test]
fn a_client_that_never_reads_its_responses_does_not_block_the_others() {
    use std::io::Write;
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { threads: 1, ..ServerConfig::default() })
            .unwrap();
    let running = server.spawn().unwrap();
    let state = running.state();
    let mut client = connect(running.addr);
    client.request(&Request::Stats).expect("warm-up response");

    // Connection A writes 20,000 `stats` requests and reads nothing. Its
    // responses fill both socket buffers, and the server's write blocks.
    const FLOOD: i128 = 20_000;
    let flood = std::net::TcpStream::connect(running.addr).unwrap();
    let mut writer = flood.try_clone().unwrap();
    writer.set_write_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
    let lines = format!("{}\n", Request::Stats.to_json()).repeat(FLOOD as usize);
    let flooding = std::thread::spawn(move || {
        let _ = writer.write_all(lines.as_bytes());
    });
    // Wait until A's thread is stuck in that write: the connections' request
    // count, read in process without a worker slot, has grown and holds.
    let requests = || {
        let (stats, _) = state.answer(Request::Stats.to_json().to_string().as_bytes());
        let stats = Json::parse(&stats).unwrap();
        stats.get("connections").unwrap().get("requests").unwrap().as_int().unwrap()
    };
    let mut last = requests();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = requests();
        if now > 1 && now == last {
            break;
        }
        last = now;
    }
    assert!(last < FLOOD, "A's responses never filled the socket buffers: {last} requests");

    // Connection B is answered while A's write is blocked.
    let response = client.request(&Request::Stats).expect("B answered while A does not read");
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");

    // Closing A fails the server's blocked write and ends A's thread, so
    // the shutdown can join it.
    flood.shutdown(std::net::Shutdown::Both).unwrap();
    flooding.join().unwrap();
    drop(flood);
    client.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}

#[test]
fn shutdown_closes_idle_connections_and_returns_promptly() {
    use std::io::{BufRead, BufReader, Write};
    let running = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn().unwrap();
    // Three connections go idle after one request each.
    let mut idle: Vec<BufReader<std::net::TcpStream>> = (0..3)
        .map(|_| {
            let mut stream = std::net::TcpStream::connect(running.addr).unwrap();
            stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).unwrap();
            stream.write_all(format!("{}\n", Request::Stats.to_json()).as_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            let mut response = String::new();
            reader.read_line(&mut response).expect("warm-up response");
            assert!(response.contains("\"ok\":true"), "{response}");
            reader
        })
        .collect();

    // The last one has started a line that a shutdown cuts short.
    idle[2].get_mut().write_all(br#"{"op":"stats""#).unwrap();
    connect(running.addr).request(&Request::Shutdown).unwrap();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(running.join()));
    let exited = joined.recv_timeout(RESPONSE_TIMEOUT / 4);
    exited.expect("the server exits with idle connections open").unwrap();
    // Each reads EOF, and the cut-short line gets no answer. Its unread
    // bytes may make the close reach the client as a reset.
    for (i, mut reader) in idle.into_iter().enumerate() {
        let mut rest = String::new();
        match reader.read_line(&mut rest) {
            Ok(read) => assert_eq!(read, 0, "connection {i}: {rest}"),
            Err(e) if i == 2 => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
            Err(e) => panic!("connection {i}: {e}"),
        }
    }
}

/// The stress corpus: word paths for `ax*b` with known resilience values.
fn corpus() -> Vec<String> {
    let mut dbs = Vec::new();
    for k in 0..12 {
        dbs.push(text::serialize(&word_path(&Word::from_str_word(&format!(
            "a{}b",
            "x".repeat(k)
        )))));
    }
    for word in ["ba", "ax", "xb", "axxa"] {
        dbs.push(text::serialize(&word_path(&Word::from_str_word(word))));
    }
    dbs
}

#[test]
fn stress_many_clients_with_batches_agree_with_the_engine_and_stats_stay_monotone() {
    let dbs = corpus();
    let engine = Engine::new();
    let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
    let expected: Vec<Json> = dbs
        .iter()
        .map(|t| {
            let db = text::parse(t).unwrap();
            Json::Int(prepared.solve(&db).unwrap().value.finite().unwrap() as i128)
        })
        .collect();

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { threads: 3, cache_capacity: 64, ..ServerConfig::default() },
    )
    .unwrap();
    let running = server.spawn().unwrap();
    let addr = running.addr;

    // 8 clients × 4 rounds of parallel `solve_batch` over one persistent
    // connection each, under several equivalent spellings (all one cache
    // entry) plus a second genuine language (a second entry).
    let spellings = ["ax*b", "a(x)*b", "(a)x*b", "ax*b|axx*b"];
    let workers: Vec<_> = (0..8)
        .map(|c| {
            let dbs = dbs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = connect(addr);
                for round in 0..4 {
                    let pattern = spellings[(c + round) % spellings.len()];
                    let response = client
                        .request(&Request::SolveBatch {
                            query: QuerySpec { jobs: Some(2), ..QuerySpec::new(pattern) },
                            dbs: dbs.clone(),
                        })
                        .expect("batch response");
                    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
                    let values: Vec<Json> = response
                        .get("results")
                        .unwrap()
                        .as_array()
                        .unwrap()
                        .iter()
                        .map(|r| r.get("value").unwrap().clone())
                        .collect();
                    assert_eq!(values, expected, "client {c} round {round} ({pattern})");
                    // Interleave a second language so two entries are hot.
                    let response = client
                        .request(&Request::Prepare { query: QuerySpec::new("ab|bc") })
                        .expect("prepare response");
                    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
                }
            })
        })
        .collect();

    // While the fleet hammers the server, watch the cache stats over a
    // separate persistent connection: hits+misses never decreases, entries
    // never exceed the capacity, and the error counter stays at zero.
    let mut observer = connect(addr);
    let mut last_lookups: i128 = -1;
    let mut last_by_verb: i128 = -1;
    while workers.iter().any(|w| !w.is_finished()) {
        let stats = observer.request(&Request::Stats).expect("stats under load");
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("errors"), Some(&Json::Int(0)), "{stats}");
        let cache = stats.get("cache").unwrap();
        let lookups = cache.get("hits").unwrap().as_int().unwrap()
            + cache.get("misses").unwrap().as_int().unwrap();
        assert!(lookups >= last_lookups, "cache lookups must be monotone: {stats}");
        last_lookups = lookups;
        let entries = cache.get("entries").unwrap().as_int().unwrap();
        let capacity = cache.get("capacity").unwrap().as_int().unwrap();
        assert!(entries <= capacity, "{stats}");
        // Per-verb counters never decrease and never exceed the total, even
        // while 8 clients hammer the counters from worker threads.
        let by_verb = stats.get("requests_by_verb").unwrap();
        let batches = by_verb.get("solve_batch").unwrap().as_int().unwrap();
        let prepares = by_verb.get("prepare").unwrap().as_int().unwrap();
        assert!(batches >= last_by_verb, "per-verb counts must be monotone: {stats}");
        last_by_verb = batches;
        assert!(
            batches + prepares <= stats.get("requests").unwrap().as_int().unwrap(),
            "verb totals cannot exceed the request total: {stats}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    for worker in workers {
        worker.join().expect("client thread");
    }

    // Final agreement on the cache shape: the four spellings canonicalize to
    // one language; `ab|bc` is the second entry. Clients racing on a cold
    // language may each record a miss (the first insert wins), but every
    // post-warm-up lookup hits: 64 lookups total, at most 16 cold ones.
    let stats = observer.request(&Request::Stats).unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("entries"), Some(&Json::Int(2)), "{stats}");
    let misses = cache.get("misses").unwrap().as_int().unwrap();
    let hits = cache.get("hits").unwrap().as_int().unwrap();
    assert!((2..=16).contains(&misses), "{stats}");
    assert_eq!(hits + misses, 64, "8 clients × 4 rounds × 2 lookups: {stats}");
    assert_eq!(stats.get("errors"), Some(&Json::Int(0)), "{stats}");
    // Exactly 8 clients × 4 rounds of `solve_batch` (and as many prepares)
    // were served, and the per-verb counters saw every one — no torn or
    // lost increments under the concurrent load.
    let by_verb = stats.get("requests_by_verb").unwrap();
    assert_eq!(by_verb.get("solve_batch"), Some(&Json::Int(32)), "{stats}");
    assert_eq!(by_verb.get("prepare"), Some(&Json::Int(32)), "{stats}");

    // The latency histograms agree: the `solve_batch` histogram recorded
    // exactly one observation per batch served, and the whole exposition
    // parses as Prometheus text (headers + `name[{labels}] value` samples).
    let metrics = observer.request(&Request::Metrics).expect("metrics response");
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)));
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
    let mut batch_count: Option<u64> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "unexpected comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample lines carry a value");
        assert!(value.parse::<u64>().is_ok(), "non-numeric sample value: {line}");
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !name.starts_with(|c: char| c.is_ascii_digit()),
            "invalid metric name: {line}"
        );
        if name_end < series.len() {
            assert!(series.ends_with('}'), "unterminated label list: {line}");
        }
        if series.starts_with("rpq_solve_latency_us_count{verb=\"solve_batch\"") {
            batch_count = Some(value.parse().unwrap());
        }
    }
    assert_eq!(batch_count, Some(32), "histogram count must equal batches served");

    observer.request(&Request::Shutdown).unwrap();
    running.join().unwrap();
}
