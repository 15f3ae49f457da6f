//! The newline-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line; the server answers with one
//! JSON object on one line. The `op` field selects the verb:
//!
//! | `op`          | extra fields                                   |
//! |---------------|------------------------------------------------|
//! | `prepare`     | `query`, and optional query settings (below)   |
//! | `solve`       | `query`, `db` (graph text format), settings    |
//! | `solve_batch` | `query`, `dbs` (array of graph texts), settings|
//! | `db_put`      | `name`, `db` (graph text format)               |
//! | `db_patch`    | `name`, `patch` (patch text format)            |
//! | `db_snapshot` | `name`, `snapshot_name`, optional `at`         |
//! | `db_solve`    | `name`, `query`, settings, optional `snapshot` *or* `snapshots` |
//! | `db_list`     | —                                              |
//! | `db_drop`     | `name`                                         |
//! | `stats`       | —                                              |
//! | `metrics`     | —                                              |
//! | `shutdown`    | —                                              |
//!
//! The `db_*` verbs operate on **server-hosted databases** (see `rpq-store`):
//! `db_put` uploads a database under a name, `db_patch` appends a delta in
//! the patch text format (`+ u a v [mult] [!]` / `- u a v`), and every
//! append returns the new snapshot id (the fact-log offset). A snapshot
//! reference is either an integer offset or a string naming a pinned
//! snapshot created with `db_snapshot`; `db_solve` binds its answer to
//! `(name, snapshot)` — omitting the reference solves the current head. The
//! single-`snapshot` form answers inline, the array `snapshots` form
//! returns a `results` array with one entry per reference (per-snapshot
//! failures carry their resolved `snapshot` id instead of failing the whole
//! request). Store failures carry a machine-readable `code` next to the
//! human-readable `error`.
//!
//! Query settings (all optional): `bag` (bool, bag semantics),
//! `enumeration_limit` (facts cap of the subset-enumeration oracle),
//! `algorithm` (force a backend by its
//! [`Algorithm`] name instead of automatic dispatch), `want_cut` (bool,
//! default `true`: extract an optimal contingency set alongside the value;
//! set `false` for value-only responses), `jobs` (int, worker threads for
//! the per-database half of a `solve_batch`; defaults to the server's
//! `--jobs` setting), `trace` (bool, default `false`: time the solve phases
//! and attach a `timings` object to the response), `deadline_ms` (wall-clock
//! deadline in milliseconds: the router answers exactly when the projected
//! cost fits, else falls back to certified `[lower, upper]` bounds),
//! `cost_budget_us` (structural cost budget in estimated microseconds; the
//! tighter of the two knobs wins). All settings except `want_cut`, `jobs`,
//! `trace`, `deadline_ms` and `cost_budget_us` participate in the
//! prepared-query cache key — cut extraction, batch parallelism, tracing and
//! budget routing are solve-time choices, so their variants share one cached
//! plan. Unrecognised keys are ignored. That includes the retired `flow`
//! setting: every flow-based reduction cuts with Dinic, and the cut is the
//! unique minimal source side of every maximum flow, so no former backend
//! choice changed an answer.
//!
//! Every `solve`, `solve_batch` and `db_solve` outcome reports which tier
//! answered and why: `tier` (`poly`, `exact` or `approx`), `degraded` (the
//! planned backend did not answer exactly: the budget sent the solve to the
//! budgeted exact search, or that search stopped on its work budget) and
//! `route` (the router's reason). Degraded answers are never uncertified:
//! they are exact, or carry `exact: false` with a `bounds` array such that
//! `lower ≤ resilience ≤ upper`.
//!
//! Every `solve`, `solve_batch` and `db_solve` response carries an
//! `elapsed_us` field (whole-request wall-clock in microseconds, always on).
//! The `metrics` verb returns the server's latency histograms and counters
//! as a Prometheus text-exposition string in the `metrics` field.
//!
//! Successful responses carry `"ok": true`; failures carry `"ok": false` and
//! an `error` string. Databases travel in the line-based text format of
//! `rpq_graphdb::text` (escaped into a JSON string). See the top-level
//! README for one example request/response per verb.

use crate::json::Json;
use rpq_graphdb::GraphDb;
use rpq_resilience::algorithms::{Algorithm, ResilienceOutcome};
use rpq_resilience::engine::PlanReport;
use rpq_resilience::router::{CostClass, CostModel, TieredOutcome};
use rpq_resilience::rpq::ResilienceValue;

/// The query half of a request: the regex plus the per-request settings that
/// participate in the cache key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuerySpec {
    /// The regular expression defining the query language.
    pub pattern: String,
    /// Bag semantics (fact removals cost their multiplicity).
    pub bag: bool,
    /// Override of the subset-enumeration fact limit.
    pub enumeration_limit: Option<usize>,
    /// Force a specific algorithm instead of automatic dispatch.
    pub algorithm: Option<Algorithm>,
    /// Whether to extract a contingency set alongside the value (`None`
    /// means `true`). Not part of the cache key: the flag is applied per
    /// solve call.
    pub want_cut: Option<bool>,
    /// Worker threads for the per-database half of a `solve_batch` (`None`
    /// defers to the server default). Like `want_cut`, a solve-time setting:
    /// never part of the cache key.
    pub jobs: Option<usize>,
    /// Whether to record per-phase timings and return them in a `timings`
    /// object on the response (`None`/`false` skips the instrumentation
    /// entirely). A solve-time setting: never part of the cache key.
    pub trace: Option<bool>,
    /// Wall-clock deadline for the solve in milliseconds: the router answers
    /// exactly when the projected cost fits, and degrades to certified
    /// `[lower, upper]` bounds otherwise. A solve-time routing knob: never
    /// part of the cache key.
    pub deadline_ms: Option<u64>,
    /// Structural cost budget in estimated microseconds of solver work (the
    /// finer-grained sibling of `deadline_ms`; the tighter of the two wins).
    /// A solve-time routing knob: never part of the cache key.
    pub cost_budget_us: Option<u64>,
}

impl QuerySpec {
    /// A spec with default settings for `pattern`.
    pub fn new(pattern: impl Into<String>) -> QuerySpec {
        QuerySpec { pattern: pattern.into(), ..QuerySpec::default() }
    }
}

/// A reference to a snapshot of a hosted database: an integer fact-log
/// offset, or the name of a pinned snapshot (`db_snapshot`). The head of a
/// database is referenced by omitting the field, so there is no `Head`
/// variant on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotSel {
    /// A fact-log offset (a snapshot id as returned by `db_put`/`db_patch`).
    Offset(usize),
    /// A named snapshot pinned with `db_snapshot`.
    Named(String),
}

impl SnapshotSel {
    fn parse(value: &Json, field: &str) -> Result<SnapshotSel, String> {
        if let Some(offset) = value.as_usize() {
            return Ok(SnapshotSel::Offset(offset));
        }
        if let Some(name) = value.as_str() {
            return Ok(SnapshotSel::Named(name.to_string()));
        }
        Err(format!("`{field}` entries must be integer offsets or snapshot-name strings"))
    }

    fn to_json(&self) -> Json {
        match self {
            SnapshotSel::Offset(offset) => Json::Int(*offset as i128),
            SnapshotSel::Named(name) => Json::Str(name.clone()),
        }
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify the query and cache its plan.
    Prepare {
        /// The query to prepare.
        query: QuerySpec,
    },
    /// Compute the resilience on one database.
    Solve {
        /// The query to solve.
        query: QuerySpec,
        /// The database, in the graph text format.
        db: String,
    },
    /// Compute the resilience on several databases with one cached plan.
    SolveBatch {
        /// The query to solve.
        query: QuerySpec,
        /// The databases, each in the graph text format.
        dbs: Vec<String>,
    },
    /// Upload (or replace) a hosted database under a name.
    DbPut {
        /// The database name.
        name: String,
        /// The database, in the graph text format.
        db: String,
    },
    /// Append a delta to a hosted database's fact log.
    DbPatch {
        /// The database name.
        name: String,
        /// The delta, in the patch text format.
        patch: String,
    },
    /// Pin a snapshot of a hosted database under a name.
    DbSnapshot {
        /// The database name.
        name: String,
        /// The name to pin the snapshot under.
        snapshot_name: String,
        /// The snapshot to pin (`None` pins the current head).
        at: Option<SnapshotSel>,
    },
    /// Compute the resilience on one or more snapshots of a hosted database.
    DbSolve {
        /// The query to solve.
        query: QuerySpec,
        /// The database name.
        name: String,
        /// One snapshot reference, answered inline (`None` together with an
        /// empty `snapshots` means the current head).
        snapshot: Option<SnapshotSel>,
        /// Several snapshot references, answered as a `results` array.
        /// Mutually exclusive with `snapshot`.
        snapshots: Option<Vec<SnapshotSel>>,
    },
    /// List the hosted databases with their snapshot state.
    DbList,
    /// Drop a hosted database (idempotent).
    DbDrop {
        /// The database name.
        name: String,
    },
    /// Report server and cache counters.
    Stats,
    /// Export latency histograms and counters as Prometheus text exposition.
    Metrics,
    /// Stop accepting connections and exit once open connections drain.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut json = Json::parse(line).map_err(|e| e.to_string())?;
        let op = take_str(&mut json, "op")
            .ok_or("request must be an object with a string `op` field")?;
        match op.as_str() {
            "prepare" => Ok(Request::Prepare { query: parse_query_spec(&json)? }),
            "solve" => {
                let db = take_str(&mut json, "db")
                    .ok_or("`solve` requires a string `db` field (graph text format)")?;
                Ok(Request::Solve { query: parse_query_spec(&json)?, db })
            }
            "solve_batch" => {
                let Some(Json::Array(items)) = json.get_mut("dbs") else {
                    return Err("`solve_batch` requires an array `dbs` field".to_string());
                };
                let dbs = items
                    .iter_mut()
                    .map(|item| match item {
                        Json::Str(text) => Ok(std::mem::take(text)),
                        _ => Err("`dbs` entries must be strings (graph text format)".to_string()),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::SolveBatch { query: parse_query_spec(&json)?, dbs })
            }
            "db_put" => {
                let db = take_str(&mut json, "db")
                    .ok_or("`db_put` requires a string `db` field (graph text format)")?;
                Ok(Request::DbPut { name: parse_name(&json, "db_put")?, db })
            }
            "db_patch" => {
                let patch = take_str(&mut json, "patch")
                    .ok_or("`db_patch` requires a string `patch` field (patch text format)")?;
                Ok(Request::DbPatch { name: parse_name(&json, "db_patch")?, patch })
            }
            "db_snapshot" => {
                let snapshot_name = json
                    .get("snapshot_name")
                    .and_then(Json::as_str)
                    .ok_or("`db_snapshot` requires a string `snapshot_name` field")?
                    .to_string();
                let at = match json.get("at") {
                    None => None,
                    Some(v) => Some(SnapshotSel::parse(v, "at")?),
                };
                Ok(Request::DbSnapshot {
                    name: parse_name(&json, "db_snapshot")?,
                    snapshot_name,
                    at,
                })
            }
            "db_solve" => {
                let snapshot = match json.get("snapshot") {
                    None => None,
                    Some(v) => Some(SnapshotSel::parse(v, "snapshot")?),
                };
                let snapshots = match json.get("snapshots") {
                    None => None,
                    Some(v) => Some(
                        v.as_array()
                            .ok_or("`snapshots` must be an array of snapshot references")?
                            .iter()
                            .map(|item| SnapshotSel::parse(item, "snapshots"))
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                };
                if snapshot.is_some() && snapshots.is_some() {
                    return Err(
                        "`db_solve` takes either `snapshot` or `snapshots`, not both".to_string()
                    );
                }
                Ok(Request::DbSolve {
                    query: parse_query_spec(&json)?,
                    name: parse_name(&json, "db_solve")?,
                    snapshot,
                    snapshots,
                })
            }
            "db_list" => Ok(Request::DbList),
            "db_drop" => Ok(Request::DbDrop { name: parse_name(&json, "db_drop")? }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op `{other}` (expected prepare, solve, solve_batch, db_put, db_patch, \
                 db_snapshot, db_solve, db_list, db_drop, stats, metrics or shutdown)"
            )),
        }
    }

    /// Renders the request as its wire JSON (used by clients).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Prepare { query } => query_spec_json("prepare", query, Vec::new()),
            Request::Solve { query, db } => {
                query_spec_json("solve", query, vec![("db", Json::Str(db.clone()))])
            }
            Request::SolveBatch { query, dbs } => {
                let dbs = dbs.iter().map(|d| Json::Str(d.clone())).collect();
                query_spec_json("solve_batch", query, vec![("dbs", Json::Array(dbs))])
            }
            Request::DbPut { name, db } => Json::object([
                ("op", Json::Str("db_put".into())),
                ("name", Json::Str(name.clone())),
                ("db", Json::Str(db.clone())),
            ]),
            Request::DbPatch { name, patch } => Json::object([
                ("op", Json::Str("db_patch".into())),
                ("name", Json::Str(name.clone())),
                ("patch", Json::Str(patch.clone())),
            ]),
            Request::DbSnapshot { name, snapshot_name, at } => {
                let mut pairs = vec![
                    ("op", Json::Str("db_snapshot".into())),
                    ("name", Json::Str(name.clone())),
                    ("snapshot_name", Json::Str(snapshot_name.clone())),
                ];
                if let Some(at) = at {
                    pairs.push(("at", at.to_json()));
                }
                Json::object(pairs)
            }
            Request::DbSolve { query, name, snapshot, snapshots } => {
                let mut extra = vec![("name", Json::Str(name.clone()))];
                if let Some(snapshot) = snapshot {
                    extra.push(("snapshot", snapshot.to_json()));
                }
                if let Some(snapshots) = snapshots {
                    extra.push((
                        "snapshots",
                        Json::Array(snapshots.iter().map(SnapshotSel::to_json).collect()),
                    ));
                }
                query_spec_json("db_solve", query, extra)
            }
            Request::DbList => Json::object([("op", Json::Str("db_list".into()))]),
            Request::DbDrop { name } => Json::object([
                ("op", Json::Str("db_drop".into())),
                ("name", Json::Str(name.clone())),
            ]),
            Request::Stats => Json::object([("op", Json::Str("stats".into()))]),
            Request::Metrics => Json::object([("op", Json::Str("metrics".into()))]),
            Request::Shutdown => Json::object([("op", Json::Str("shutdown".into()))]),
        }
    }
}

/// Moves the string value of `key` out of a parsed request, leaving an empty
/// string behind: the graph and patch texts are the bulk of a request line,
/// so they are not copied a second time.
fn take_str(json: &mut Json, key: &str) -> Option<String> {
    match json.get_mut(key)? {
        Json::Str(value) => Some(std::mem::take(value)),
        _ => None,
    }
}

/// Parses the mandatory `name` field of a `db_*` request.
fn parse_name(json: &Json, op: &str) -> Result<String, String> {
    json.get("name")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("`{op}` requires a string `name` field (the database name)"))
}

fn parse_query_spec(json: &Json) -> Result<QuerySpec, String> {
    let pattern = json
        .get("query")
        .and_then(Json::as_str)
        .ok_or("missing string `query` field (a regular expression)")?
        .to_string();
    let bag = match json.get("bag") {
        None => false,
        Some(v) => v.as_bool().ok_or("`bag` must be a boolean")?,
    };
    let enumeration_limit = match json.get("enumeration_limit") {
        None => None,
        Some(v) => Some(v.as_usize().ok_or("`enumeration_limit` must be a non-negative integer")?),
    };
    let algorithm = match json.get("algorithm") {
        None => None,
        Some(v) => Some(v.as_str().ok_or("`algorithm` must be a string")?.parse::<Algorithm>()?),
    };
    let want_cut = match json.get("want_cut") {
        None => None,
        Some(v) => Some(v.as_bool().ok_or("`want_cut` must be a boolean")?),
    };
    let jobs = match json.get("jobs") {
        None => None,
        Some(v) => Some(v.as_usize().ok_or("`jobs` must be a non-negative integer")?),
    };
    let trace = match json.get("trace") {
        None => None,
        Some(v) => Some(v.as_bool().ok_or("`trace` must be a boolean")?),
    };
    let deadline_ms = match json.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_usize().ok_or("`deadline_ms` must be a non-negative integer")? as u64),
    };
    let cost_budget_us = match json.get("cost_budget_us") {
        None => None,
        Some(v) => {
            Some(v.as_usize().ok_or("`cost_budget_us` must be a non-negative integer")? as u64)
        }
    };
    Ok(QuerySpec {
        pattern,
        bag,
        enumeration_limit,
        algorithm,
        want_cut,
        jobs,
        trace,
        deadline_ms,
        cost_budget_us,
    })
}

fn query_spec_json(op: &'static str, query: &QuerySpec, extra: Vec<(&'static str, Json)>) -> Json {
    let mut pairs =
        vec![("op", Json::Str(op.to_string())), ("query", Json::Str(query.pattern.clone()))];
    if query.bag {
        pairs.push(("bag", Json::Bool(true)));
    }
    if let Some(limit) = query.enumeration_limit {
        pairs.push(("enumeration_limit", Json::Int(limit as i128)));
    }
    if let Some(algorithm) = query.algorithm {
        pairs.push(("algorithm", Json::Str(algorithm.name().to_string())));
    }
    if let Some(want_cut) = query.want_cut {
        pairs.push(("want_cut", Json::Bool(want_cut)));
    }
    if let Some(jobs) = query.jobs {
        pairs.push(("jobs", Json::Int(jobs as i128)));
    }
    if let Some(trace) = query.trace {
        pairs.push(("trace", Json::Bool(trace)));
    }
    if let Some(deadline_ms) = query.deadline_ms {
        pairs.push(("deadline_ms", Json::Int(deadline_ms as i128)));
    }
    if let Some(cost_budget_us) = query.cost_budget_us {
        pairs.push(("cost_budget_us", Json::Int(cost_budget_us as i128)));
    }
    pairs.extend(extra);
    Json::object(pairs)
}

/// The uniform failure response: `{"ok":false,"error":"…"}`.
pub fn error_response(message: impl Into<String>) -> Json {
    Json::object([("ok", Json::Bool(false)), ("error", Json::Str(message.into()))])
}

/// A failure response with a machine-readable `code` field (store errors:
/// `store_full`, `body_too_large`, `unknown_database`, `unknown_snapshot`,
/// `parse`).
pub fn coded_error_response(message: impl Into<String>, code: &'static str) -> Json {
    Json::object([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
        ("code", Json::Str(code.into())),
    ])
}

/// Renders a resilience value: a JSON integer, or the string `"infinite"`.
pub fn value_json(value: ResilienceValue) -> Json {
    match value {
        ResilienceValue::Infinite => Json::Str("infinite".into()),
        ResilienceValue::Finite(v) => match i128::try_from(v) {
            Ok(i) => Json::Int(i),
            // u128 values beyond i128 cannot be a JSON int in this
            // implementation; fall back to a decimal string.
            Err(_) => Json::Str(v.to_string()),
        },
    }
}

/// Renders a prepared query's plan report, the `plan` of a `prepare`
/// response: `{"algorithm":…,"reason":…,"infix_free":…,"forced":…,"cost":{…}}`,
/// where `cost` is the plan's [`CostModel`]: its algorithm, growth `class`
/// (`linear` or `exponential`) and that class's calibrated coefficients.
pub fn plan_json(plan: &PlanReport) -> Json {
    let CostModel { algorithm, class } = plan.cost;
    let mut cost = vec![("algorithm", Json::Str(algorithm.name().to_string()))];
    match class {
        CostClass::Linear { base_ns, ns_per_fact } => cost.extend([
            ("class", Json::Str("linear".to_string())),
            ("base_ns", Json::Int(base_ns.into())),
            ("ns_per_fact", Json::Int(ns_per_fact.into())),
        ]),
        CostClass::Exponential { base_ns, facts_per_doubling } => cost.extend([
            ("class", Json::Str("exponential".to_string())),
            ("base_ns", Json::Int(base_ns.into())),
            ("facts_per_doubling", Json::Int(facts_per_doubling.into())),
        ]),
    }
    Json::object([
        ("algorithm", Json::Str(plan.algorithm.name().to_string())),
        ("reason", Json::Str(plan.reason.clone())),
        ("infix_free", Json::Str(plan.infix_free.clone())),
        ("forced", Json::Bool(plan.forced)),
        ("cost", Json::object(cost)),
    ])
}

/// Renders one solve outcome (without the `ok` marker, so it can serve both
/// as a full `solve` response body and as a `solve_batch` results entry).
pub fn outcome_json(outcome: &ResilienceOutcome, db: &GraphDb) -> Json {
    let mut pairs = vec![
        ("value", value_json(outcome.value)),
        ("algorithm", Json::Str(outcome.algorithm.name().to_string())),
        ("exact", Json::Bool(outcome.is_exact())),
    ];
    if let Some((lower, upper)) = outcome.bounds {
        pairs.push((
            "bounds",
            Json::Array(vec![
                value_json(ResilienceValue::Finite(lower)),
                value_json(ResilienceValue::Finite(upper)),
            ]),
        ));
    }
    if let Some(cut) = &outcome.contingency_set {
        let facts = cut.iter().map(|&f| Json::Str(db.display_fact(f))).collect();
        pairs.push(("contingency_set", Json::Array(facts)));
    }
    Json::object(pairs)
}

/// Renders one routed solve outcome: the [`outcome_json`] fields plus the
/// routing verdict — `tier` (the complexity tier that answered: `poly`,
/// `exact` or `approx`), `degraded` (`true` when the planned backend did
/// not answer exactly) and `route` (the human-readable reason the router
/// picked this tier).
pub fn tiered_outcome_json(tiered: &TieredOutcome, db: &GraphDb) -> Json {
    let mut pairs = match outcome_json(&tiered.outcome, db) {
        Json::Object(pairs) => pairs,
        other => return other,
    };
    pairs.push(("tier".to_string(), Json::Str(tiered.tier.to_string())));
    pairs.push(("degraded".to_string(), Json::Bool(tiered.degraded)));
    pairs.push(("route".to_string(), Json::Str(tiered.reason.clone())));
    Json::Object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let requests = [
            Request::Prepare { query: QuerySpec::new("ax*b") },
            Request::Prepare {
                query: QuerySpec {
                    pattern: "a|b".into(),
                    bag: true,
                    enumeration_limit: Some(12),
                    algorithm: Some(Algorithm::ExactEnumeration),
                    want_cut: Some(false),
                    jobs: Some(2),
                    trace: Some(true),
                    deadline_ms: Some(250),
                    cost_budget_us: Some(4_000),
                },
            },
            Request::Solve { query: QuerySpec::new("ab"), db: "u a v\nv b w\n".into() },
            Request::SolveBatch {
                query: QuerySpec::new("ab"),
                dbs: vec!["u a v\n".into(), "u b v\n".into()],
            },
            Request::DbPut { name: "corpus".into(), db: "u a v\nv b w\n".into() },
            Request::DbPatch { name: "corpus".into(), patch: "+ v b x 3 !\n- u a v\n".into() },
            Request::DbSnapshot {
                name: "corpus".into(),
                snapshot_name: "release".into(),
                at: None,
            },
            Request::DbSnapshot {
                name: "corpus".into(),
                snapshot_name: "v2".into(),
                at: Some(SnapshotSel::Offset(4)),
            },
            Request::DbSolve {
                query: QuerySpec::new("ab"),
                name: "corpus".into(),
                snapshot: None,
                snapshots: None,
            },
            Request::DbSolve {
                query: QuerySpec::new("ab"),
                name: "corpus".into(),
                snapshot: Some(SnapshotSel::Named("release".into())),
                snapshots: None,
            },
            Request::DbSolve {
                query: QuerySpec { bag: true, ..QuerySpec::new("ax*b") },
                name: "corpus".into(),
                snapshot: None,
                snapshots: Some(vec![SnapshotSel::Offset(2), SnapshotSel::Named("release".into())]),
            },
            Request::DbList,
            Request::DbDrop { name: "corpus".into() },
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_json().to_string();
            assert_eq!(Request::parse(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, fragment) in [
            ("nonsense", "invalid JSON"),
            ("{}", "`op`"),
            (r#"{"op":"fly"}"#, "unknown op `fly`"),
            (r#"{"op":"prepare"}"#, "missing string `query`"),
            (r#"{"op":"solve","query":"ab"}"#, "`db`"),
            (r#"{"op":"solve_batch","query":"ab"}"#, "`dbs`"),
            (r#"{"op":"solve_batch","query":"ab","dbs":[1]}"#, "must be strings"),
            (r#"{"op":"prepare","query":"ab","algorithm":"bogus"}"#, "unknown algorithm"),
            (r#"{"op":"prepare","query":"ab","enumeration_limit":-3}"#, "non-negative"),
            (r#"{"op":"prepare","query":"ab","bag":"yes"}"#, "boolean"),
            (r#"{"op":"solve","query":"ab","db":"u a v\n","want_cut":1}"#, "`want_cut`"),
            (r#"{"op":"solve","query":"ab","db":"u a v\n","trace":"yes"}"#, "`trace`"),
            (r#"{"op":"solve_batch","query":"ab","dbs":[],"jobs":-2}"#, "`jobs`"),
            (r#"{"op":"solve_batch","query":"ab","dbs":[],"jobs":true}"#, "`jobs`"),
            (r#"{"op":"solve","query":"ab","db":"u a v\n","deadline_ms":-1}"#, "`deadline_ms`"),
            (r#"{"op":"solve","query":"ab","db":"u a v\n","deadline_ms":"1s"}"#, "`deadline_ms`"),
            (
                r#"{"op":"solve","query":"ab","db":"u a v\n","cost_budget_us":false}"#,
                "`cost_budget_us`",
            ),
            (r#"{"op":"db_put","db":"u a v\n"}"#, "`db_put` requires a string `name`"),
            (r#"{"op":"db_put","name":"g"}"#, "`db_put` requires a string `db`"),
            (r#"{"op":"db_patch","name":"g"}"#, "`db_patch` requires a string `patch`"),
            (r#"{"op":"db_snapshot","name":"g"}"#, "`snapshot_name`"),
            (r#"{"op":"db_snapshot","name":"g","snapshot_name":"s","at":true}"#, "`at`"),
            (r#"{"op":"db_solve","name":"g"}"#, "missing string `query`"),
            (r#"{"op":"db_solve","query":"ab"}"#, "`db_solve` requires a string `name`"),
            (r#"{"op":"db_solve","query":"ab","name":"g","snapshot":1.5}"#, "`snapshot`"),
            (r#"{"op":"db_solve","query":"ab","name":"g","snapshots":3}"#, "array"),
            (
                r#"{"op":"db_solve","query":"ab","name":"g","snapshot":1,"snapshots":[2]}"#,
                "not both",
            ),
            (r#"{"op":"db_drop"}"#, "`db_drop` requires a string `name`"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(fragment), "{line}: {err}");
        }
    }

    #[test]
    fn plan_reports_render_as_json() {
        use rpq_resilience::engine::Engine;
        use rpq_resilience::rpq::Rpq;
        let prepared = Engine::new().prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let json = plan_json(prepared.plan()).to_string();
        assert!(json.starts_with("{\"algorithm\":\"local\""), "{json}");
        assert!(json.contains("\"forced\":false"));
        assert!(json.contains("\"infix_free\":"));
        // Quotes, backslashes and newlines in reasons are escaped; the cost
        // model carries its class and coefficients.
        let report = PlanReport {
            algorithm: Algorithm::Local,
            reason: "say \"hi\" \\ bye\n".to_string(),
            infix_free: "IF".to_string(),
            forced: true,
            cost: CostModel::for_plan(Algorithm::Local),
        };
        assert_eq!(
            plan_json(&report).to_string(),
            "{\"algorithm\":\"local\",\"reason\":\"say \\\"hi\\\" \\\\ bye\\n\",\
             \"infix_free\":\"IF\",\"forced\":true,\"cost\":{\"algorithm\":\"local\",\
             \"class\":\"linear\",\"base_ns\":2000,\"ns_per_fact\":4200}}"
        );
        let exact = PlanReport {
            algorithm: Algorithm::ExactBranchAndBound,
            cost: CostModel::for_plan(Algorithm::ExactBranchAndBound),
            ..report
        };
        let json = plan_json(&exact).to_string();
        assert!(json.contains("\"class\":\"exponential\""), "{json}");
        assert!(json.contains("\"facts_per_doubling\":2"), "{json}");
    }

    #[test]
    fn value_rendering() {
        assert_eq!(value_json(ResilienceValue::Finite(3)).to_string(), "3");
        assert_eq!(value_json(ResilienceValue::Infinite).to_string(), "\"infinite\"");
        assert_eq!(
            value_json(ResilienceValue::Finite(u128::MAX)).to_string(),
            format!("\"{}\"", u128::MAX)
        );
    }
}
