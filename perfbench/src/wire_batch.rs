//! `wire_batch`: one `solve_batch` of 16 `ax*b` databases (~512 facts each,
//! a ~135 KB line) per operation, over one TCP connection, rotating through
//! a few seeded batches. Front end, JSON and graph-text ingestion dominate;
//! the flow core is a small share.

use crate::harness::{
    answered, fold_json_costs, fold_parse_cost, fold_stats, run_with_setups, timed_loop, timed_ms,
    Outcome, Plan, Tally, Wire,
};
use crate::inputs::{batch_line, batch_texts, BATCHES, BATCH_QUERY};
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use rpq_server::protocol::value_json;
use rpq_server::Json;

struct Batch {
    texts: Vec<String>,
    /// Untraced and traced request lines.
    lines: [String; 2],
    /// The oracle's value per database, as the wire renders it.
    expected: Vec<Json>,
}

struct State {
    batches: Vec<Batch>,
    wire: Wire,
}

fn check(response: &Json, expected: &[Json]) -> bool {
    let Some(results) = response.get("results").and_then(Json::as_array) else {
        return false;
    };
    response.get("ok").and_then(Json::as_bool) == Some(true)
        && results.len() == expected.len()
        && results
            .iter()
            .zip(expected)
            .all(|(entry, want)| answered(entry) && entry.get("value") == Some(want))
}

fn setup(plan: &Plan, tally: &mut Tally) -> Result<State, String> {
    let prepared = Engine::new()
        .prepare(&Rpq::parse(BATCH_QUERY).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let mut batches = Vec::with_capacity(BATCHES);
    for index in 0..BATCHES {
        let texts = batch_texts(plan.seed, index);
        let expected = texts
            .iter()
            .map(|text| {
                let db = rpq_graphdb::text::parse(text).map_err(|e| e.to_string())?;
                let outcome = prepared.solve(&db).map_err(|e| e.to_string())?;
                Ok(value_json(outcome.value))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let lines = [batch_line(&texts, false), batch_line(&texts, true)];
        batches.push(Batch { texts, lines, expected });
    }
    let mut wire = Wire::start()?;
    for op in 0..plan.warmup {
        let batch = &batches[op % BATCHES];
        let response = wire.call_json(&batch.lines[0])?;
        tally.record(check(&response, &batch.expected));
    }
    Ok(State { batches, wire })
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
        let batch = &state.batches[op % BATCHES];
        let line = &batch.lines[usize::from(traced)];
        let (raw, rtt_ms) = state.wire.call(line)?;
        let (parsed, decode_ms) = timed_ms(|| Json::parse(&raw));
        let response = parsed.map_err(|e| format!("response is not JSON: {e}"))?;
        out.tally.record(check(&response, &batch.expected));
        if traced {
            let layers = &mut out.layers;
            layers.ops += 1;
            layers.add("client.decode_ms", decode_ms);
            layers.add_solve_response(&response, rtt_ms);
            fold_json_costs(layers, line, &response, raw.len());
        }
        Ok((traced, rtt_ms))
    })?;
    if let Some(before) = before {
        let after = state.wire.stats()?;
        fold_stats(&mut out.layers, &before, &after);
        let texts: Vec<String> = state.batches.iter().flat_map(|b| b.texts.clone()).collect();
        fold_parse_cost(&mut out.layers, &texts)?;
    }
    Ok(())
}
