//! `rpq-cli`: command-line front end for the RPQ resilience library.
//!
//! ```text
//! rpq-cli classify  '<regex>'                 classify RES(L) (Figure 1 engine)
//! rpq-cli resilience '<regex>' <db.txt>...    compute the resilience on databases
//!            [--bag] [--algorithm <name>] [--enumeration-limit <n>] [--show-cut]
//! rpq-cli gadget    '<regex>'                 derive a verified hardness gadget
//! rpq-cli figure1                             re-derive the Figure 1 classification map
//! rpq-cli serve                               run the resilience service (TCP or --pipe)
//! rpq-cli client <verb> ...                   talk to a running service
//! ```
//!
//! `serve` starts the `rpq-server` daemon: a newline-delimited JSON protocol
//! (`prepare`, `solve`, `solve_batch`, the `db_*` hosted-database verbs,
//! `stats`, `metrics`, `shutdown`) over TCP — or stdin/stdout with `--pipe`
//! — backed by
//! a worker pool, a prepared-query cache keyed by canonicalized language, and
//! a snapshot-database store (`rpq-store`) patched in place by incremental
//! solves. `client` is the matching one-shot front end; see the repository
//! README for the wire format.
//!
//! All resilience computations go through the prepared-query engine
//! ([`rpq_resilience::engine::Engine`]): the query is classified **once**
//! (`Engine::prepare`) and the cached plan is reused for every database file
//! on the command line, so batch invocations never re-derive the language
//! analysis. `--algorithm` accepts every backend name of [`Algorithm`]
//! (`rpq-cli --help` shows the list).
//!
//! Databases use the line-based text format of `rpq-graphdb::text`: one fact
//! per line, `source label target [multiplicity] [!]` (a trailing `!` marks
//! the fact exogenous, i.e. un-removable), `#` for comments.

#![forbid(unsafe_code)]
use std::io::Write;
use std::process::ExitCode;

use rpq_automata::Language;
use rpq_graphdb::{text, GraphDb};
use rpq_resilience::algorithms::{Algorithm, ResilienceOutcome};
use rpq_resilience::classify::{classify, figure1_rows};
use rpq_resilience::engine::{Engine, SolveCall, SolveOptions};
use rpq_resilience::gadgets::families::find_gadget;
use rpq_resilience::obs::Trace;
use rpq_resilience::router::{RouteBudget, TieredOutcome};
use rpq_resilience::rpq::Rpq;
use rpq_server::{
    run_pipe, Client, Json, QuerySpec, Request, Server, ServerConfig, ServerState, SnapshotSel,
};

const USAGE: &str = "\
usage:
  rpq-cli classify '<regex>'
  rpq-cli resilience '<regex>' <db.txt>... [--bag] [--algorithm <name>]
          [--enumeration-limit <n>] [--show-cut] [--no-cut] [--jobs <n>]
          [--deadline-ms <n>] [--cost-budget-us <n>]
  rpq-cli gadget '<regex>'
  rpq-cli figure1
  rpq-cli serve [--port <p>] [--pipe] [--threads <n>] [--cache-capacity <n>]
          [--cache-shards <n>] [--jobs <n>] [--enumeration-limit <n>]
          [--store-capacity <n>] [--store-body-limit <bytes>] [--slow-query-log <us>]
          [--shed-queue-depth <n>] [--shed-cost-budget <us>]
  rpq-cli client [--addr <host:port>] prepare '<regex>' [query options]
  rpq-cli client [--addr <host:port>] solve '<regex>' <db.txt>... [query options]
  rpq-cli client [--addr <host:port>] db-put <name> <db.txt>
  rpq-cli client [--addr <host:port>] db-patch <name> <patch.txt>
  rpq-cli client [--addr <host:port>] db-snapshot <name> <snapshot-name> [--at <ref>]
  rpq-cli client [--addr <host:port>] db-solve <name> '<regex>' [--snapshot <ref>]...
          [query options]
  rpq-cli client [--addr <host:port>] db-list | db-drop <name>
  rpq-cli client [--addr <host:port>] stats | metrics | shutdown | raw '<json>'

algorithms: local (Thm 3.13), chain (Prp 7.6), one-dangling (Prp 7.9),
            exact (budgeted branch & bound: exact, or certified [lower, upper]
            bounds when its work budget runs out), enumeration (subset oracle,
            tiny inputs)
database format: one fact per line, `source label target [multiplicity] [!]`\n(a trailing `!` declares the fact exogenous / un-removable)
with several database files, the query plan is prepared once and reused
serve: NDJSON protocol (prepare/solve/solve_batch/db_*/stats/metrics/shutdown)
       on 127.0.0.1, default port 7878; --pipe serves stdin/stdout instead of TCP.
       Connections are multiplexed: workers pick up one request at a time, so
       idle persistent connections never starve new clients. The prepared-query
       cache is keyed by canonicalized language (equivalent regex spellings
       share one cached plan) and striped over --cache-shards locks.
       --slow-query-log <us> logs solve-family requests slower than the
       threshold to stderr with their per-phase breakdown
jobs: worker threads for the per-database half of a batch (default 1);
      on `serve` the default for requests without a `jobs` field, on `client`
      sent with the request, on `resilience` used across the database files
show-cut: `contingency set : {}` means the optimal cut is empty (resilience 0);
          an explicit `(…)` note says why no witness is available instead
no-cut: value-only solving (skips witness extraction; with --show-cut, the
        contingency set line reports the cut as not extracted)
client query options: [--bag] [--algorithm <name>] [--enumeration-limit <n>]
                      [--no-cut] (value-only response: sends want_cut=false)
                      [--jobs <n>] (parallel per-database solving server-side)
                      [--trace] (per-phase timings in the response: sends trace=true)
                      [--deadline-ms <n>] [--cost-budget-us <n>] (deadline-aware routing:
                      the server answers exactly when the projected cost fits, else
                      degrades to the exact search under a work budget scaled from
                      the limit, exact or certified [lower, upper] bounds; responses
                      report the answering `tier` and a `route` reason)
deadline-ms / cost-budget-us: on `resilience`, route locally through the cost
      model — over-budget solves degrade to the budgeted exact search instead of
      running the planned backend; the tier line reports which tier answered and
      why. Without a limit the exact search stops at a fixed work cap, with
      certified bounds if it has not finished.
      On `serve`, --shed-queue-depth / --shed-cost-budget tune the overload
      shedding (a ready-queue deeper than the threshold tightens every solve
      budget so the backlog drains with certified degraded answers)
client: `solve` with several databases sends one solve_batch request
client metrics: prints the server's Prometheus text exposition (latency
        histograms by verb/family/tier/backend, cache, store and connection
        counters); every solve response also carries `elapsed_us`
db-*: server-hosted snapshot databases. `db-put` uploads under a name,
      `db-patch` appends a delta (`+ u a v [mult] [!]` / `- u a v` per line);
      both print the new snapshot id (the fact-log offset). A snapshot <ref>
      is an integer offset or a name pinned with `db-snapshot`. `db-solve`
      binds to (name, snapshot) — no --snapshot means the current head, one
      answers inline, several return per-snapshot results; consecutive head
      solves of the same query reuse the server's incrementally patched flow
      network. --store-capacity bounds hosted databases and cached snapshot
      materializations (named snapshots and heads are never evicted);
      --store-body-limit rejects larger db-put/db-patch bodies";

/// Prints one line to stdout, exiting quietly when the consumer closed the
/// pipe — `rpq-cli figure1 | head` must not panic with a broken-pipe error.
fn out(args: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.write_all(b"\n")) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

macro_rules! outln {
    () => { out(format_args!("")) };
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("classify") => {
            let pattern = args.get(1).ok_or("missing regular expression")?;
            cmd_classify(pattern)
        }
        Some("resilience") => {
            let pattern = args.get(1).ok_or("missing regular expression")?;
            cmd_resilience(pattern, &args[2..])
        }
        Some("gadget") => {
            let pattern = args.get(1).ok_or("missing regular expression")?;
            cmd_gadget(pattern)
        }
        Some("figure1") => {
            cmd_figure1();
            Ok(())
        }
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("--help" | "-h" | "help") => {
            outln!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".to_string()),
    }
}

fn parse_language(pattern: &str) -> Result<Language, String> {
    Language::parse(pattern).map_err(|e| format!("cannot parse `{pattern}`: {e}"))
}

fn load_database(path: &str) -> Result<GraphDb, String> {
    let contents =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    text::parse(&contents).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

fn cmd_classify(pattern: &str) -> Result<(), String> {
    let language = parse_language(pattern)?;
    let classification = classify(&language);
    outln!("language        : {pattern}");
    outln!("infix-free form : {}", language.infix_free().description());
    outln!("classification  : {}", classification.label());
    match find_gadget(&language) {
        Some(found) => outln!(
            "hardness gadget : {:?} ({}){}",
            found.family,
            found.family.paper_result(),
            if found.for_mirror { " — for the mirror language (Prp 6.3)" } else { "" }
        ),
        None if classification.is_np_hard() => {
            outln!(
                "hardness gadget : none transcribed (certificate is a language-theoretic witness)"
            )
        }
        None => {}
    }
    Ok(())
}

fn cmd_resilience(pattern: &str, args: &[String]) -> Result<(), String> {
    let language = parse_language(pattern)?;
    let mut query = Rpq::new(language);
    let mut algorithm: Option<Algorithm> = None;
    let mut options = SolveOptions::default();
    let mut show_cut = false;
    let mut want_cut = true;
    let mut jobs: usize = 1;
    let mut budget = RouteBudget::UNLIMITED;
    let mut paths: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(option) = iter.next() {
        match option.as_str() {
            "--bag" => query = query.with_bag_semantics(),
            "--show-cut" => show_cut = true,
            "--no-cut" => want_cut = false,
            "--algorithm" => {
                let name = iter.next().ok_or("--algorithm requires a value")?;
                algorithm = Some(name.parse::<Algorithm>()?);
            }
            "--enumeration-limit" => {
                options.enumeration_limit = parse_number("--enumeration-limit", iter.next())?;
            }
            "--jobs" => jobs = parse_number("--jobs", iter.next())?,
            "--deadline-ms" => {
                budget.deadline_ms = Some(parse_number("--deadline-ms", iter.next())?);
            }
            "--cost-budget-us" => {
                budget.cost_budget_us = Some(parse_number("--cost-budget-us", iter.next())?);
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            _ => paths.push(option),
        }
    }
    if paths.is_empty() {
        return Err("missing database file".to_string());
    }

    // Prepare the query once; solve every database with the cached plan.
    let engine = Engine::with_options(options);
    let prepared = match algorithm {
        Some(algorithm) => engine.prepare_with(algorithm, &query),
        None => engine.prepare(&query),
    }
    .map_err(|e| e.to_string())?;

    outln!("query           : {query}");
    outln!("classification  : {}", classify(query.language()).label());
    outln!("plan            : {}", prepared.plan());
    let budgeted = budget.deadline_ms.is_some() || budget.cost_budget_us.is_some();
    let report = |path: &str, db: &GraphDb, tiered: &TieredOutcome| {
        let outcome = &tiered.outcome;
        outln!();
        outln!("database        : {path} ({} nodes, {} facts)", db.num_nodes(), db.num_facts());
        outln!("algorithm       : {}", outcome.algorithm);
        // Budget routing is opt-in on the command line; without a budget the
        // tier lines would repeat the plan on every database.
        if budgeted {
            outln!(
                "tier            : {}{}",
                tiered.tier,
                if tiered.degraded { " (degraded)" } else { "" }
            );
            outln!("route           : {}", tiered.reason);
        }
        match outcome.bounds {
            Some((lower, upper)) if lower != upper => {
                outln!("resilience      : in [{lower}, {upper}] (certified bounds)")
            }
            _ => outln!("resilience      : {}", outcome.value),
        }
        if show_cut {
            for line in cut_report(outcome, db, want_cut) {
                outln!("{line}");
            }
        }
    };
    let call = SolveCall { budget, ..SolveCall::new(want_cut) };
    if jobs > 1 {
        // `--jobs n`: load everything, solve the whole batch on scoped
        // threads, then print in file order.
        let dbs = paths.iter().map(|path| load_database(path)).collect::<Result<Vec<_>, _>>()?;
        let outcomes = prepared.route_batch(&dbs, jobs, &call, &mut Trace::disabled());
        for ((path, db), outcome) in paths.iter().zip(&dbs).zip(outcomes) {
            report(path, db, &outcome.map_err(|e| e.to_string())?);
        }
    } else {
        // Sequential default: stream each database's result as it is
        // solved (earlier results survive a later file failing to load).
        for path in paths {
            let db = load_database(path)?;
            let tiered =
                prepared.route(&db, &call, &mut Trace::disabled()).map_err(|e| e.to_string())?;
            report(path, &db, &tiered);
        }
    }
    Ok(())
}

/// Renders the `--show-cut` lines for one outcome. The three cases are
/// explicitly distinguishable: a non-empty witness is listed fact by fact, a
/// genuinely empty optimal cut prints `{}` (the query does not hold, nothing
/// needs removing), and a missing witness states *why* none is shown —
/// value-only solving (`--no-cut`), an infinite value (no finite cut exists),
/// or a backend that only certifies the value.
fn cut_report(outcome: &ResilienceOutcome, db: &GraphDb, want_cut: bool) -> Vec<String> {
    match &outcome.contingency_set {
        Some(cut) if !cut.is_empty() => {
            let mut lines = vec!["contingency set :".to_string()];
            lines.extend(cut.iter().map(|&fact| format!("  {}", db.display_fact(fact))));
            lines
        }
        Some(_) => vec!["contingency set : {}".to_string()],
        None if !want_cut => {
            vec!["contingency set : (not extracted: --no-cut)".to_string()]
        }
        None if outcome.value.is_infinite() => {
            vec!["contingency set : (none exists: the resilience is infinite)".to_string()]
        }
        None => vec![format!(
            "contingency set : (unavailable: `{}` only certifies the value)",
            outcome.algorithm
        )],
    }
}

fn cmd_gadget(pattern: &str) -> Result<(), String> {
    let language = parse_language(pattern)?;
    match find_gadget(&language) {
        Some(found) => {
            outln!("language        : {pattern}");
            outln!("gadget family   : {:?} ({})", found.family, found.family.paper_result());
            if found.for_mirror {
                outln!("note            : the gadget certifies the mirror language (Prp 6.3)");
            }
            outln!("matches         : {}", found.report.num_matches);
            outln!("condensed path  : {} edges (odd)", found.report.path_length.unwrap());
            outln!("pre-gadget facts:");
            let db = found.gadget.db();
            for (id, _) in db.facts() {
                outln!("  {}", db.display_fact(id));
            }
            Ok(())
        }
        None => Err(format!(
            "no verified gadget found for `{pattern}` (the language may be tractable, \
             unclassified, or only covered by the untranscribed Figure 6 / Figure 12 families)"
        )),
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
    value.parse::<T>().map_err(|_| format!("invalid {flag} `{value}`"))
}

/// Runs the resilience service: TCP on 127.0.0.1 (default port 7878, `0`
/// asks the OS for a free port) or stdin/stdout with `--pipe`. Blocks until
/// a `shutdown` request (TCP) or EOF (pipe).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut port: u16 = 7878;
    let mut pipe = false;
    let mut iter = args.iter();
    while let Some(option) = iter.next() {
        match option.as_str() {
            "--pipe" => pipe = true,
            "--port" => port = parse_number("--port", iter.next())?,
            "--threads" => config.threads = parse_number("--threads", iter.next())?,
            "--cache-capacity" => {
                config.cache_capacity = parse_number("--cache-capacity", iter.next())?;
            }
            "--cache-shards" => {
                config.cache_shards = parse_number("--cache-shards", iter.next())?;
            }
            "--jobs" => config.jobs = parse_number("--jobs", iter.next())?,
            "--enumeration-limit" => {
                config.options.enumeration_limit =
                    parse_number("--enumeration-limit", iter.next())?;
            }
            "--store-capacity" => {
                config.store.capacity = parse_number("--store-capacity", iter.next())?;
            }
            "--store-body-limit" => {
                config.store.max_body_bytes = parse_number("--store-body-limit", iter.next())?;
            }
            "--slow-query-log" => {
                config.slow_query_log_us = Some(parse_number("--slow-query-log", iter.next())?);
            }
            "--shed-queue-depth" => {
                config.shed_queue_depth = parse_number("--shed-queue-depth", iter.next())?;
            }
            "--shed-cost-budget" => {
                config.shed_cost_budget_us = parse_number("--shed-cost-budget", iter.next())?;
            }
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    if pipe {
        let state = ServerState::new(config);
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        run_pipe(&state, stdin.lock(), stdout.lock())
            .map_err(|e| format!("pipe server failed: {e}"))
    } else {
        let server = Server::bind(("127.0.0.1", port), config)
            .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        outln!(
            "rpq-server listening on {addr} (threads={}, jobs={}, cache-capacity={})",
            config.threads.max(1),
            config.jobs.max(1),
            config.cache_capacity
        );
        server.run().map_err(|e| format!("server failed: {e}"))
    }
}

/// The parsed client command line: the shared query settings, the snapshot
/// references of the `db-*` verbs, and the leftover positionals.
struct ClientArgs {
    spec: QuerySpec,
    /// `--snapshot <ref>` occurrences (db-solve only).
    snapshots: Vec<SnapshotSel>,
    /// `--at <ref>` (db-snapshot only).
    at: Option<SnapshotSel>,
    positional: Vec<String>,
}

/// A snapshot reference from the command line: an integer is a log offset,
/// anything else a snapshot name.
fn parse_snapshot_sel(value: &str) -> SnapshotSel {
    match value.parse::<usize>() {
        Ok(offset) => SnapshotSel::Offset(offset),
        Err(_) => SnapshotSel::Named(value.to_string()),
    }
}

/// Parses the shared query options (`--bag`, `--algorithm`,
/// `--enumeration-limit`, `--no-cut`, `--jobs`, `--deadline-ms`,
/// `--cost-budget-us`) plus the snapshot options of the `db-*` verbs out of
/// `args`.
fn parse_query_options(args: &[String]) -> Result<ClientArgs, String> {
    let mut spec = QuerySpec::default();
    let mut snapshots = Vec::new();
    let mut at = None;
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(option) = iter.next() {
        match option.as_str() {
            "--bag" => spec.bag = true,
            "--algorithm" => {
                let name = iter.next().ok_or("--algorithm requires a value")?;
                spec.algorithm = Some(name.parse::<Algorithm>()?);
            }
            "--enumeration-limit" => {
                spec.enumeration_limit = Some(parse_number("--enumeration-limit", iter.next())?);
            }
            "--no-cut" => spec.want_cut = Some(false),
            "--trace" => spec.trace = Some(true),
            "--jobs" => spec.jobs = Some(parse_number("--jobs", iter.next())?),
            "--deadline-ms" => {
                spec.deadline_ms = Some(parse_number("--deadline-ms", iter.next())?);
            }
            "--cost-budget-us" => {
                spec.cost_budget_us = Some(parse_number("--cost-budget-us", iter.next())?);
            }
            "--snapshot" => {
                let value = iter.next().ok_or("--snapshot requires a value")?;
                snapshots.push(parse_snapshot_sel(value));
            }
            "--at" => {
                let value = iter.next().ok_or("--at requires a value")?;
                at = Some(parse_snapshot_sel(value));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown client option `{other}`"));
            }
            _ => positional.push(option.clone()),
        }
    }
    Ok(ClientArgs { spec, snapshots, at, positional })
}

/// One-shot protocol client: builds the request, sends it to a running
/// server, prints the raw JSON response line, and fails on `"ok": false`.
fn cmd_client(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(option) = iter.next() {
        match option.as_str() {
            "--addr" => {
                addr = iter.next().ok_or("--addr requires a value")?.clone();
            }
            _ => rest.push(option.clone()),
        }
    }
    let verb = rest.first().cloned().ok_or("missing client verb")?;
    let ClientArgs { spec: spec_options, snapshots, at, positional } =
        parse_query_options(&rest[1..])?;
    if !snapshots.is_empty() && verb != "db-solve" {
        return Err("--snapshot is only valid with `client db-solve`".to_string());
    }
    if at.is_some() && verb != "db-snapshot" {
        return Err("--at is only valid with `client db-snapshot`".to_string());
    }
    let read_file = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    };

    let line = match verb.as_str() {
        "prepare" => {
            let pattern =
                positional.first().ok_or("client prepare requires a regular expression")?;
            let query = QuerySpec { pattern: pattern.clone(), ..spec_options };
            Request::Prepare { query }.to_json().to_string()
        }
        "solve" => {
            let pattern = positional.first().ok_or("client solve requires a regular expression")?;
            let paths = &positional[1..];
            if paths.is_empty() {
                return Err("client solve requires at least one database file".to_string());
            }
            let dbs = paths.iter().map(read_file).collect::<Result<Vec<_>, _>>()?;
            let query = QuerySpec { pattern: pattern.clone(), ..spec_options };
            if dbs.len() == 1 {
                Request::Solve { query, db: dbs.into_iter().next().expect("one database") }
            } else {
                Request::SolveBatch { query, dbs }
            }
            .to_json()
            .to_string()
        }
        "db-put" => {
            let [name, path] = positional.as_slice() else {
                return Err("client db-put requires a database name and a database file".into());
            };
            Request::DbPut { name: name.clone(), db: read_file(path)? }.to_json().to_string()
        }
        "db-patch" => {
            let [name, path] = positional.as_slice() else {
                return Err("client db-patch requires a database name and a patch file".into());
            };
            Request::DbPatch { name: name.clone(), patch: read_file(path)? }.to_json().to_string()
        }
        "db-snapshot" => {
            let [name, snapshot_name] = positional.as_slice() else {
                return Err(
                    "client db-snapshot requires a database name and a snapshot name".to_string()
                );
            };
            Request::DbSnapshot { name: name.clone(), snapshot_name: snapshot_name.clone(), at }
                .to_json()
                .to_string()
        }
        "db-solve" => {
            let [name, pattern] = positional.as_slice() else {
                return Err(
                    "client db-solve requires a database name and a regular expression".into()
                );
            };
            let query = QuerySpec { pattern: pattern.clone(), ..spec_options };
            // One `--snapshot` is answered inline, several as a results
            // array; none binds to the current head.
            let (snapshot, snapshots) = match snapshots.len() {
                0 => (None, None),
                1 => (snapshots.into_iter().next(), None),
                _ => (None, Some(snapshots)),
            };
            Request::DbSolve { query, name: name.clone(), snapshot, snapshots }
                .to_json()
                .to_string()
        }
        "db-list" => Request::DbList.to_json().to_string(),
        "db-drop" => {
            let name = positional.first().ok_or("client db-drop requires a database name")?;
            Request::DbDrop { name: name.clone() }.to_json().to_string()
        }
        "stats" => Request::Stats.to_json().to_string(),
        "metrics" => Request::Metrics.to_json().to_string(),
        "shutdown" => Request::Shutdown.to_json().to_string(),
        "raw" => positional.first().ok_or("client raw requires a JSON line")?.clone(),
        other => Err(format!("unknown client verb `{other}`"))?,
    };

    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let response = client.request_line(&line).map_err(|e| format!("request failed: {e}"))?;
    let json = Json::parse(&response);
    // `metrics` prints the Prometheus text itself (ready to scrape or pipe to
    // a file); every other verb prints the raw JSON response line.
    match &json {
        Ok(parsed) if verb == "metrics" && parsed.get("metrics").is_some() => {
            outln!("{}", parsed.get("metrics").and_then(Json::as_str).unwrap_or("").trim_end());
        }
        _ => outln!("{response}"),
    }
    match json {
        Ok(json) if json.get("ok").and_then(Json::as_bool) == Some(false) => {
            Err(json.get("error").and_then(Json::as_str).unwrap_or("request failed").to_string())
        }
        _ => Ok(()),
    }
}

fn cmd_figure1() {
    outln!("{:<16} {:<36} {:<40}", "language", "Figure 1 region", "computed classification");
    outln!("{}", "-".repeat(94));
    for row in figure1_rows() {
        outln!("{:<16} {:<36} {:<40}", row.pattern, row.expected, row.computed.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_and_gadget_commands_succeed() {
        assert!(run(&["classify".into(), "ax*b".into()]).is_ok());
        assert!(run(&["classify".into(), "aa".into()]).is_ok());
        assert!(run(&["gadget".into(), "aab".into()]).is_ok());
        assert!(run(&["figure1".into()]).is_ok());
        assert!(run(&["--help".into()]).is_ok());
    }

    #[test]
    fn every_engine_backend_is_reachable_from_the_command_line() {
        let dir = std::env::temp_dir();
        let path = dir.join("rpq_cli_backends_db.txt");
        std::fs::write(&path, "s a u\nu a v\nv a t\n").unwrap();
        let path = path.to_string_lossy().to_string();
        for algorithm in Algorithm::ALL {
            let result = run(&[
                "resilience".into(),
                "aa".into(),
                path.clone(),
                "--algorithm".into(),
                algorithm.name().into(),
            ]);
            // `aa` is not local / chain / one-dangling: those backends must
            // report NotApplicable; the exact and approximate ones succeed.
            match algorithm {
                Algorithm::Local | Algorithm::BipartiteChain | Algorithm::OneDangling => {
                    assert!(result.unwrap_err().contains("does not apply"), "{algorithm}")
                }
                _ => assert!(result.is_ok(), "{algorithm}"),
            }
        }
    }

    #[test]
    fn several_databases_reuse_one_prepared_query() {
        let dir = std::env::temp_dir();
        let path_1 = dir.join("rpq_cli_batch_1.txt");
        let path_2 = dir.join("rpq_cli_batch_2.txt");
        std::fs::write(&path_1, "s a u\nu x v\nv b t\n").unwrap();
        std::fs::write(&path_2, "s a u\nu b t\n").unwrap();
        assert!(run(&[
            "resilience".into(),
            "ax*b".into(),
            path_1.to_string_lossy().to_string(),
            path_2.to_string_lossy().to_string(),
            "--show-cut".into(),
        ])
        .is_ok());
    }

    #[test]
    fn cut_report_distinguishes_empty_unavailable_and_suppressed() {
        use rpq_resilience::rpq::ResilienceValue;
        let mut db = GraphDb::new();
        let fact = db.add_fact_by_names("u", 'a', "v");
        let outcome = |value, cut| ResilienceOutcome::new(value, Algorithm::Local, cut);

        // A non-empty witness is listed fact by fact.
        let lines = cut_report(&outcome(ResilienceValue::Finite(1), Some(vec![fact])), &db, true);
        assert_eq!(lines, vec!["contingency set :".to_string(), "  u -a-> v".to_string()]);
        // An empty optimal cut is `{}` — distinguishable from "no witness".
        let lines = cut_report(&outcome(ResilienceValue::Finite(0), Some(vec![])), &db, true);
        assert_eq!(lines, vec!["contingency set : {}".to_string()]);
        // Value-only solving says so explicitly.
        let lines = cut_report(&outcome(ResilienceValue::Finite(1), None), &db, false);
        assert_eq!(lines, vec!["contingency set : (not extracted: --no-cut)".to_string()]);
        // Infinite resilience has no finite cut.
        let lines = cut_report(&outcome(ResilienceValue::Infinite, None), &db, true);
        assert_eq!(
            lines,
            vec!["contingency set : (none exists: the resilience is infinite)".to_string()]
        );
        // A value-only backend is named.
        let none =
            ResilienceOutcome::new(ResilienceValue::Finite(1), Algorithm::ExactEnumeration, None);
        let lines = cut_report(&none, &db, true);
        assert_eq!(
            lines,
            vec!["contingency set : (unavailable: `enumeration` only certifies the value)"
                .to_string()]
        );
    }

    #[test]
    fn one_dangling_show_cut_and_no_cut_work_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join("rpq_cli_one_dangling_db.txt");
        std::fs::write(&path, "1 a 2\n2 b 3\n3 c 4\n3 e 5\n").unwrap();
        let path = path.to_string_lossy().to_string();
        // The one-dangling backend now extracts witnesses: --show-cut lists
        // them, and --no-cut degrades to the explicit "(not extracted)" note.
        assert!(
            run(&["resilience".into(), "abc|be".into(), path.clone(), "--show-cut".into()]).is_ok()
        );
        assert!(run(&[
            "resilience".into(),
            "abc|be".into(),
            path,
            "--show-cut".into(),
            "--no-cut".into(),
        ])
        .is_ok());
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[]).is_err());
        assert!(run(&["bogus".into()]).is_err());
        assert!(run(&["classify".into(), "((".into()]).is_err());
        assert!(run(&["gadget".into(), "ax*b".into()]).is_err());
        assert!(run(&["resilience".into(), "aa".into()]).is_err());
        assert!(run(&["resilience".into(), "aa".into(), "/nonexistent/file".into()]).is_err());
        assert!(run(&["serve".into(), "--bogus".into()]).is_err());
        assert!(run(&["serve".into(), "--slow-query-log".into(), "soon".into()]).is_err());
        assert!(run(&["client".into()]).is_err());
        assert!(run(&["client".into(), "fly".into()]).is_err());
        assert!(run(&["client".into(), "--addr".into(), "127.0.0.1:1".into(), "stats".into()])
            .unwrap_err()
            .contains("cannot connect"));
    }

    #[test]
    fn enumeration_limit_is_threaded_through_the_resilience_command() {
        let dir = std::env::temp_dir();
        let path = dir.join("rpq_cli_enum_limit_db.txt");
        std::fs::write(&path, "1 a 2\n2 a 3\n3 a 4\n").unwrap();
        let path = path.to_string_lossy().to_string();
        let err = run(&[
            "resilience".into(),
            "aa".into(),
            path.clone(),
            "--algorithm".into(),
            "enumeration".into(),
            "--enumeration-limit".into(),
            "2".into(),
        ])
        .unwrap_err();
        assert!(err.contains("limit of 2"), "{err}");
        assert!(run(&[
            "resilience".into(),
            "aa".into(),
            path,
            "--algorithm".into(),
            "enumeration".into(),
            "--enumeration-limit".into(),
            "10".into(),
        ])
        .is_ok());
    }

    #[test]
    fn client_talks_to_an_in_process_server() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let running = server.spawn().unwrap();
        let addr = running.addr.to_string();
        let dir = std::env::temp_dir();
        let db1 = dir.join("rpq_cli_client_db1.txt");
        let db2 = dir.join("rpq_cli_client_db2.txt");
        std::fs::write(&db1, "s a u\nu x v\nv b t\n").unwrap();
        std::fs::write(&db2, "s a u\nu b t\n").unwrap();

        let client = |args: &[&str]| -> Result<(), String> {
            let mut full = vec!["client".to_string(), "--addr".to_string(), addr.clone()];
            full.extend(args.iter().map(|s| s.to_string()));
            run(&full)
        };
        assert!(client(&["prepare", "ax*b"]).is_ok());
        assert!(client(&["prepare", "a(x)*b"]).is_ok());
        assert!(client(&["solve", "ax*b", &db1.to_string_lossy()]).is_ok());
        assert!(client(&[
            "solve",
            "ax*b",
            &db1.to_string_lossy(),
            &db2.to_string_lossy(),
            "--bag"
        ])
        .is_ok());
        assert!(client(&["stats"]).is_ok());
        assert!(client(&["raw", r#"{"op":"stats"}"#]).is_ok());
        // The observability surface: traced solves and the metrics scrape.
        assert!(client(&["solve", "ax*b", &db1.to_string_lossy(), "--trace"]).is_ok());
        assert!(client(&["metrics"]).is_ok());
        // Deadline-aware routing over the wire: an impossible deadline is
        // still an `"ok": true` response (certified bounds, tier reported).
        assert!(client(&["solve", "ax*b", &db1.to_string_lossy(), "--deadline-ms", "0"]).is_ok());
        assert!(
            client(&["solve", "ax*b", &db1.to_string_lossy(), "--cost-budget-us", "50000"]).is_ok()
        );
        // A server-side failure surfaces as a CLI error.
        assert!(client(&["prepare", "(("]).unwrap_err().contains("cannot parse"));

        // The hosted-database verbs: upload, patch, solve at two snapshots,
        // pin, list, drop.
        let patch = dir.join("rpq_cli_client_patch.txt");
        std::fs::write(&patch, "- u x v\n").unwrap();
        assert!(client(&["db-put", "g", &db1.to_string_lossy()]).is_ok());
        assert!(client(&["db-patch", "g", &patch.to_string_lossy()]).is_ok());
        assert!(client(&["db-snapshot", "g", "before", "--at", "3"]).is_ok());
        assert!(client(&["db-solve", "g", "ax*b"]).is_ok());
        assert!(
            client(&["db-solve", "g", "ax*b", "--snapshot", "before", "--snapshot", "4"]).is_ok()
        );
        assert!(client(&["db-list"]).is_ok());
        assert!(client(&["db-drop", "g"]).is_ok());
        // Store errors surface typed through the CLI too.
        assert!(client(&["db-patch", "ghost", &patch.to_string_lossy()])
            .unwrap_err()
            .contains("unknown database"));
        // Misplaced snapshot options are rejected client-side.
        assert!(client(&["stats", "--snapshot", "1"]).unwrap_err().contains("db-solve"));
        assert!(client(&["db-solve", "g", "ax*b", "--at", "1"])
            .unwrap_err()
            .contains("db-snapshot"));
        assert!(client(&["shutdown"]).is_ok());
        running.join().unwrap();
    }

    #[test]
    fn deadline_routing_is_reachable_from_the_command_line() {
        let dir = std::env::temp_dir();
        let path = dir.join("rpq_cli_deadline_db.txt");
        std::fs::write(&path, "s a u\nu x v\nv b t\n").unwrap();
        let path = path.to_string_lossy().to_string();
        // An impossible deadline still answers (certified bounds, no error),
        // sequentially and through the parallel batch path.
        assert!(run(&[
            "resilience".into(),
            "ax*b".into(),
            path.clone(),
            "--deadline-ms".into(),
            "0".into(),
        ])
        .is_ok());
        assert!(run(&[
            "resilience".into(),
            "ax*b".into(),
            path.clone(),
            path.clone(),
            "--jobs".into(),
            "2".into(),
            "--cost-budget-us".into(),
            "0".into(),
        ])
        .is_ok());
        // A generous budget runs the planned backend.
        assert!(run(&[
            "resilience".into(),
            "ax*b".into(),
            path,
            "--deadline-ms".into(),
            "60000".into(),
        ])
        .is_ok());
        assert!(run(&["resilience".into(), "ax*b".into(), "--deadline-ms".into()]).is_err());
    }

    #[test]
    fn resilience_command_works_on_a_temp_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("rpq_cli_test_db.txt");
        std::fs::write(&path, "s a u\nu x v 3\nv b t\n").unwrap();
        let path = path.to_string_lossy().to_string();
        assert!(run(&[
            "resilience".into(),
            "ax*b".into(),
            path.clone(),
            "--bag".into(),
            "--show-cut".into()
        ])
        .is_ok());
        assert!(run(&[
            "resilience".into(),
            "ax*b".into(),
            path,
            "--algorithm".into(),
            "local".into()
        ])
        .is_ok());
    }
}
