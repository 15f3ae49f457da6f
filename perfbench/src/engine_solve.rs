//! `engine_solve`: one operation is a full round of `PreparedQuery::solve`
//! over four pre-built databases, one per tractable family (`ax*b` ~33k
//! facts, `ab|ad|cd` ~27k, `ab|bc` ~16k, `abc|be` ~16k). Only the product
//! and flow core runs: no wire, no JSON, no graph-text ingestion, no store.

use crate::harness::{fold_parse_cost, run_with_setups, timed_loop, Outcome, Plan, Tally};
use crate::inputs::{family_db, FAMILIES};
use crate::stats::median;
use rpq_graphdb::{FactId, GraphDb};
use rpq_obs::Trace;
use rpq_resilience::algorithms::{Algorithm, ResilienceOutcome};
use rpq_resilience::engine::{Engine, PreparedQuery};
use rpq_resilience::rpq::{ResilienceValue, Rpq};
use std::collections::BTreeSet;
use std::time::Instant;

/// The backend each family must plan to (Theorem 3.13, Proposition 7.6,
/// Proposition 7.9), in [`FAMILIES`] order.
const PLANNED: [Algorithm; 4] =
    [Algorithm::Local, Algorithm::Local, Algorithm::BipartiteChain, Algorithm::OneDangling];

struct Family {
    rpq: Rpq,
    db: GraphDb,
    prepared: PreparedQuery,
    expected: ResilienceValue,
}

/// Whether an outcome has the oracle's value and a cut that costs exactly
/// that value.
fn check(family: &Family, outcome: &ResilienceOutcome) -> bool {
    let cut: BTreeSet<FactId> = outcome.contingency_set.iter().flatten().copied().collect();
    outcome.value == family.expected
        && outcome.bounds.is_none()
        && ResilienceValue::Finite(family.rpq.cost(&family.db, &cut)) == outcome.value
}

fn setup(plan: &Plan, tally: &mut Tally) -> Result<Vec<Family>, String> {
    let engine = Engine::new();
    let mut families = Vec::with_capacity(FAMILIES.len());
    for (index, planned) in PLANNED.iter().enumerate() {
        let rpq = Rpq::parse(FAMILIES[index].pattern).map_err(|e| e.to_string())?;
        let db = family_db(plan.seed, index);
        let prepared = engine.prepare(&rpq).map_err(|e| e.to_string())?;
        // The oracle: the value, and a witness that really falsifies the
        // query at exactly that cost.
        let outcome = prepared.solve(&db).map_err(|e| e.to_string())?;
        let cut: BTreeSet<FactId> = outcome.contingency_set.iter().flatten().copied().collect();
        tally.record(
            prepared.plan().algorithm == *planned
                && outcome.contingency_set.is_some()
                && rpq.is_contingency_set(&db, &cut)
                && ResilienceValue::Finite(rpq.cost(&db, &cut)) == outcome.value,
        );
        families.push(Family { rpq, db, prepared, expected: outcome.value });
    }
    for _ in 0..plan.warmup {
        let (ok, _, _) = round(&families, None)?;
        tally.record(ok);
    }
    Ok(families)
}

/// Solves every family once; returns whether every answer was right, the
/// round's wall time and each family's solve time (ms). With a trace
/// sink, every solve is traced and its sealed spans folded in.
fn round(
    families: &[Family],
    mut layers: Option<&mut crate::report::Layers>,
) -> Result<(bool, f64, [f64; 4]), String> {
    let mut ok = true;
    let mut per_family = [0.0; 4];
    for (family, slot) in families.iter().zip(per_family.iter_mut()) {
        let started = Instant::now();
        let outcome = match layers.as_deref_mut() {
            None => family.prepared.solve(&family.db),
            Some(layers) => {
                let mut trace = Trace::enabled();
                let outcome = family.prepared.solve_with_cut_traced(&family.db, true, &mut trace);
                trace.seal();
                layers.solves += 1;
                for &(phase, us) in trace.spans() {
                    *layers.phases_us.entry(phase.to_string()).or_default() += us as f64;
                }
                outcome
            }
        }
        .map_err(|e| e.to_string())?;
        *slot = started.elapsed().as_secs_f64() * 1e3;
        ok &= check(family, &outcome);
    }
    Ok((ok, per_family.iter().sum(), per_family))
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    run_with_setups(
        plan,
        |tally| setup(plan, tally),
        |_| Ok(()),
        |f: &mut Vec<Family>, out| timed(plan, f, out),
    )
}

fn timed(plan: &Plan, families: &[Family], out: &mut Outcome) -> Result<(), String> {
    let mut per_family: [Vec<f64>; 4] = Default::default();
    timed_loop(plan, out, |op, out| {
        let traced = plan.is_traced(op);
        let layers = traced.then(|| {
            out.layers.ops += 1;
            &mut out.layers
        });
        let (ok, ms, split) = round(families, layers)?;
        out.tally.record(ok);
        if !traced {
            for (samples, ms) in per_family.iter_mut().zip(split) {
                samples.push(ms);
            }
        }
        Ok((traced, ms))
    })?;
    if plan.traced {
        for (family, samples) in FAMILIES.iter().zip(&per_family) {
            out.layers.fixed.insert(family.metric, median(samples).unwrap_or(0.0));
        }
        let texts: Vec<String> =
            families.iter().map(|f| rpq_graphdb::text::serialize(&f.db)).collect();
        fold_parse_cost(&mut out.layers, &texts)?;
    }
    Ok(())
}
