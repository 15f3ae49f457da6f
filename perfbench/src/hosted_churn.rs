//! `hosted_churn`: writes beside reads on the store. One operation is, for
//! each of two hosted local-language databases (~2k facts, `base` pinned):
//! a 1-fact `db_patch` toggling one fact, a `db_solve` at the head (must be
//! `incremental`) and a `db_solve` of `base` (must be `result_cached`).
//! Every line is small; log append, snapshot materialization, warm flow
//! resume and the result cache dominate.

use crate::harness::{
    answered, fold_json_costs, fold_parse_cost, fold_stats, run_with_setups, timed_loop, timed_ms,
    Outcome, Plan, Tally, Wire,
};
use crate::inputs::{hosted_db, hosted_lines, HostedLines, HOSTED};
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use rpq_server::protocol::value_json;
use rpq_server::Json;
use std::collections::BTreeSet;

struct Hosted {
    lines: HostedLines,
    /// The oracle's value with the toggled fact present (the `base` state).
    value_on: Json,
    /// The oracle's value with it deleted.
    value_off: Json,
}

struct State {
    hosted: Vec<Hosted>,
    texts: Vec<String>,
    wire: Wire,
    /// Operations run since the uploads (warm-up included): even ones
    /// delete the toggled fact, odd ones re-insert it.
    ops_done: usize,
}

fn flag(entry: &Json, field: &str) -> Option<bool> {
    entry.get(field).and_then(Json::as_bool)
}

/// Checks one `db_solve` answer: its value and its two store markers.
fn check_solve(response: &Json, value: &Json, incremental: bool, result_cached: bool) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
        && answered(response)
        && response.get("value") == Some(value)
        && flag(response, "incremental") == Some(incremental)
        && flag(response, "result_cached") == Some(result_cached)
}

/// Oracle and request lines of hosted database `index`: the toggled fact is
/// the first fact of the in-process optimal cut of the upload, so deleting
/// it lowers the resilience by one.
fn prepare_hosted(seed: u64, index: usize) -> Result<(Hosted, String), String> {
    let db = hosted_db(seed, index);
    let prepared = Engine::new()
        .prepare(&Rpq::parse(HOSTED[index].pattern).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let on = prepared.solve(&db).map_err(|e| e.to_string())?;
    let fact =
        on.contingency_set.as_ref().and_then(|cut| cut.iter().min().copied()).ok_or_else(|| {
            format!("{}: empty optimal cut, nothing to toggle", HOSTED[index].name)
        })?;
    let off =
        prepared.solve(&db.without_facts(&BTreeSet::from([fact]))).map_err(|e| e.to_string())?;
    let f = db.fact(fact);
    let toggle = format!(
        "{} {} {} {}",
        db.node_name(f.source),
        f.label,
        db.node_name(f.target),
        db.multiplicity(fact)
    );
    let lines = hosted_lines(seed, index, &toggle);
    let text = rpq_graphdb::text::serialize(&db);
    Ok((Hosted { lines, value_on: value_json(on.value), value_off: value_json(off.value) }, text))
}

fn setup(plan: &Plan, tally: &mut Tally) -> Result<State, String> {
    let mut hosted = Vec::with_capacity(HOSTED.len());
    let mut texts = Vec::with_capacity(HOSTED.len());
    for index in 0..HOSTED.len() {
        let (h, text) = prepare_hosted(plan.seed, index)?;
        hosted.push(h);
        texts.push(text);
    }
    let mut wire = Wire::start()?;
    for h in &hosted {
        for line in [&h.lines.put, &h.lines.pin] {
            let response = wire.call_json(line)?;
            tally.record(response.get("ok").and_then(Json::as_bool) == Some(true));
        }
        // Bootstraps the incremental session at `base` and fills the
        // result cache every later `base` read hits.
        let response = wire.call_json(&h.lines.base[0])?;
        tally.record(check_solve(&response, &h.value_on, false, false));
    }
    let mut state = State { hosted, texts, wire, ops_done: 0 };
    for _ in 0..plan.warmup {
        let (ok, _) = operation(&mut state, false, None)?;
        tally.record(ok);
    }
    Ok(state)
}

/// What a `db_solve` answer must carry: its value and its `incremental` and
/// `result_cached` markers.
type Expected<'a> = (&'a Json, bool, bool);

/// Runs one operation; returns whether every answer was right and the sum
/// of its six round trips. A traced operation folds its layers in.
fn operation(
    state: &mut State,
    traced: bool,
    mut layers: Option<&mut crate::report::Layers>,
) -> Result<(bool, f64), String> {
    let deleting = state.ops_done.is_multiple_of(2);
    state.ops_done += 1;
    let mut ok = true;
    let mut total_ms = 0.0;
    for h in &state.hosted {
        let patch = if deleting { &h.lines.delete } else { &h.lines.insert };
        let head_value = if deleting { &h.value_off } else { &h.value_on };
        let steps: [(&String, Option<Expected>); 3] = [
            (patch, None),
            (&h.lines.head[usize::from(traced)], Some((head_value, true, false))),
            (&h.lines.base[usize::from(traced)], Some((&h.value_on, false, true))),
        ];
        for (line, expect) in steps {
            let (raw, rtt_ms) = state.wire.call(line)?;
            total_ms += rtt_ms;
            let (parsed, decode_ms) = timed_ms(|| Json::parse(&raw));
            let response = parsed.map_err(|e| format!("response is not JSON: {e}"))?;
            ok &= match expect {
                None => response.get("ok").and_then(Json::as_bool) == Some(true),
                Some((value, incremental, cached)) => {
                    check_solve(&response, value, incremental, cached)
                }
            };
            if let Some(layers) = layers.as_deref_mut() {
                layers.add("client.decode_ms", decode_ms);
                if expect.is_some() {
                    layers.add_solve_response(&response, rtt_ms);
                }
                fold_json_costs(layers, line, &response, raw.len());
            }
        }
    }
    Ok((ok, total_ms))
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    run_with_setups(
        plan,
        |tally| setup(plan, tally),
        |s: State| s.wire.stop(),
        |s, out| timed(plan, s, out),
    )
}

fn timed(plan: &Plan, state: &mut State, out: &mut Outcome) -> Result<(), String> {
    let before = if plan.traced { Some(state.wire.stats()?) } else { None };
    timed_loop(plan, out, |op, out| {
        let traced = plan.is_traced(op);
        let layers = traced.then(|| {
            out.layers.ops += 1;
            &mut out.layers
        });
        let (ok, ms) = operation(state, traced, layers)?;
        out.tally.record(ok);
        Ok((traced, ms))
    })?;
    if let Some(before) = before {
        let after = state.wire.stats()?;
        fold_stats(&mut out.layers, &before, &after);
        fold_parse_cost(&mut out.layers, &state.texts)?;
    }
    Ok(())
}
