//! Seeded inputs: every database and request line of a run is a pure
//! function of `--seed`, built with the repository's own generators
//! (`rpq_graphdb::generate`) so the program only ever sees generated data.

use rpq_automata::Alphabet;
use rpq_graphdb::generate::{flow_instance, layered_instance, random_labeled_graph};
use rpq_graphdb::GraphDb;
use rpq_server::{QuerySpec, Request, SnapshotSel};

/// SplitMix64 finalizer: decorrelates the per-input seeds derived from one
/// run seed, so neighbouring run seeds do not yield overlapping inputs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An `ax*b` flow network of about `facts` facts: 8 layers of random `x`
/// edges, out-degree 2, capacities 1–16 (the `flow_db_of_size` shape).
pub fn flow_db(facts: usize, seed: u64) -> GraphDb {
    flow_instance(8, (facts / 16).max(1), 2, 16, seed)
}

/// A 6-layer random DAG over `abcd` of about `facts` facts, out-degree 2.
pub fn layered_db(facts: usize, seed: u64) -> GraphDb {
    layered_instance(&Alphabet::from_chars("abcd"), 6, (facts / 10).max(1), 2, seed)
}

/// A uniformly random multigraph over `letters` with `facts` attempted
/// facts on `facts / 3` nodes.
pub fn random_db(letters: &str, facts: usize, seed: u64) -> GraphDb {
    random_labeled_graph((facts / 3).max(2), facts, &Alphabet::from_chars(letters), seed)
}

// ---------------------------------------------------------------------------
// wire_batch
// ---------------------------------------------------------------------------

/// The query every `wire_batch` request solves.
pub const BATCH_QUERY: &str = "ax*b";
/// Batches the run rotates through.
pub const BATCHES: usize = 4;
/// Databases per `solve_batch` request.
pub const BATCH_DBS: usize = 16;
/// Facts per database of a batch (before duplicate merging).
pub const BATCH_DB_FACTS: usize = 512;

/// The graph texts of batch `batch`.
pub fn batch_texts(seed: u64, batch: usize) -> Vec<String> {
    (0..BATCH_DBS)
        .map(|i| {
            let stream = 0x100 + (batch * BATCH_DBS + i) as u64;
            rpq_graphdb::text::serialize(&flow_db(BATCH_DB_FACTS, mix(seed, stream)))
        })
        .collect()
}

/// The `solve_batch` request line for a batch's texts.
pub fn batch_line(texts: &[String], traced: bool) -> String {
    let query = QuerySpec { trace: traced.then_some(true), ..QuerySpec::new(BATCH_QUERY) };
    Request::SolveBatch { query, dbs: texts.to_vec() }.to_json().to_string()
}

// ---------------------------------------------------------------------------
// engine_solve
// ---------------------------------------------------------------------------

/// One tractable family of `engine_solve`: its per-layer metric name, query
/// and database builder.
pub struct Family {
    /// The per-layer metric reporting this family's solve time.
    pub metric: &'static str,
    /// The regular expression of the query.
    pub pattern: &'static str,
    /// Builds the family's database from a seed.
    pub build: fn(u64) -> GraphDb,
}

/// The four families, one per tractable case of the paper: Theorem 3.13
/// (two local languages), Proposition 7.6 (bipartite chain) and
/// Proposition 7.9 (one-dangling).
pub const FAMILIES: [Family; 4] = [
    Family { metric: "engine.local_axb_ms", pattern: "ax*b", build: |s| flow_db(32_768, s) },
    Family {
        metric: "engine.local_ab_ad_cd_ms",
        pattern: "ab|ad|cd",
        build: |s| layered_db(27_300, s),
    },
    Family {
        metric: "engine.chain_ab_bc_ms",
        pattern: "ab|bc",
        build: |s| random_db("abc", 16_384, s),
    },
    Family {
        metric: "engine.one_dangling_abc_be_ms",
        pattern: "abc|be",
        build: |s| random_db("abce", 16_384, s),
    },
];

/// The database of family `index`.
pub fn family_db(seed: u64, index: usize) -> GraphDb {
    (FAMILIES[index].build)(mix(seed, 0x200 + index as u64))
}

// ---------------------------------------------------------------------------
// hosted_churn
// ---------------------------------------------------------------------------

/// A hosted database of `hosted_churn`: its name, query and builder.
pub struct Hosted {
    /// The store name.
    pub name: &'static str,
    /// The regular expression of the query solved against it.
    pub pattern: &'static str,
    /// Builds the uploaded database from a seed.
    pub build: fn(u64) -> GraphDb,
}

/// The two hosted local-language databases, about 2k facts each.
pub const HOSTED: [Hosted; 2] = [
    Hosted { name: "flow", pattern: "ax*b", build: |s| flow_db(2_048, s) },
    Hosted { name: "layered", pattern: "ab|ad|cd", build: |s| layered_db(2_050, s) },
];

/// The name every hosted database pins its uploaded state under.
pub const BASE: &str = "base";

/// The uploaded database of hosted database `index`.
pub fn hosted_db(seed: u64, index: usize) -> GraphDb {
    (HOSTED[index].build)(mix(seed, 0x300 + index as u64))
}

/// The request lines of one hosted database.
pub struct HostedLines {
    /// `db_put` of the uploaded database.
    pub put: String,
    /// `db_snapshot` pinning the upload as `base`.
    pub pin: String,
    /// `db_patch` deleting the toggled fact.
    pub delete: String,
    /// `db_patch` re-inserting it.
    pub insert: String,
    /// `db_solve` at the head, untraced and traced.
    pub head: [String; 2],
    /// `db_solve` of `base`, untraced and traced.
    pub base: [String; 2],
}

/// Builds the lines of hosted database `index`; `toggle` is the text-format
/// body (`source label target multiplicity`) of the fact the run toggles.
pub fn hosted_lines(seed: u64, index: usize, toggle: &str) -> HostedLines {
    let hosted = &HOSTED[index];
    let name = hosted.name.to_string();
    let solve = |snapshot: Option<SnapshotSel>, traced: bool| {
        let query = QuerySpec { trace: traced.then_some(true), ..QuerySpec::new(hosted.pattern) };
        Request::DbSolve { query, name: name.clone(), snapshot, snapshots: None }
            .to_json()
            .to_string()
    };
    let mut key = toggle.split_whitespace();
    let (source, label, target) =
        (key.next().unwrap_or(""), key.next().unwrap_or(""), key.next().unwrap_or(""));
    let patch =
        |body: String| Request::DbPatch { name: name.clone(), patch: body }.to_json().to_string();
    HostedLines {
        put: Request::DbPut {
            name: name.clone(),
            db: rpq_graphdb::text::serialize(&hosted_db(seed, index)),
        }
        .to_json()
        .to_string(),
        pin: Request::DbSnapshot { name: name.clone(), snapshot_name: BASE.into(), at: None }
            .to_json()
            .to_string(),
        delete: patch(format!("- {source} {label} {target}\n")),
        insert: patch(format!("+ {toggle}\n")),
        head: [solve(None, false), solve(None, true)],
        base: [
            solve(Some(SnapshotSel::Named(BASE.into())), false),
            solve(Some(SnapshotSel::Named(BASE.into())), true),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every wire line and database text a workload derives from `seed`
    /// (the toggled fact is fixed here; the run picks it from the oracle).
    fn all_inputs(seed: u64) -> Vec<String> {
        let mut out = Vec::new();
        for batch in 0..BATCHES {
            let texts = batch_texts(seed, batch);
            out.push(batch_line(&texts, false));
            out.push(batch_line(&texts, true));
        }
        for index in 0..FAMILIES.len() {
            out.push(rpq_graphdb::text::serialize(&family_db(seed, index)));
        }
        for index in 0..HOSTED.len() {
            let lines = hosted_lines(seed, index, "source a l0_0 3");
            out.extend([lines.put, lines.pin, lines.delete, lines.insert]);
            out.extend(lines.head);
            out.extend(lines.base);
        }
        out
    }

    #[test]
    fn one_seed_yields_byte_identical_inputs() {
        assert_eq!(all_inputs(7), all_inputs(7));
    }

    #[test]
    fn different_seeds_yield_different_databases() {
        let (a, b) = (all_inputs(1), all_inputs(2));
        assert_eq!(a.len(), b.len());
        // Every database-carrying input differs; only the fixed-shape
        // control lines (pins, patches of the fixed fact, solves) coincide.
        for batch in 0..BATCHES {
            assert_ne!(batch_texts(1, batch), batch_texts(2, batch), "batch {batch}");
        }
        for index in 0..FAMILIES.len() {
            assert_ne!(
                rpq_graphdb::text::serialize(&family_db(1, index)),
                rpq_graphdb::text::serialize(&family_db(2, index)),
                "family {index}"
            );
        }
        for index in 0..HOSTED.len() {
            assert_ne!(
                hosted_lines(1, index, "s a t 1").put,
                hosted_lines(2, index, "s a t 1").put
            );
        }
    }

    #[test]
    fn batches_of_one_run_differ_from_each_other() {
        let texts: Vec<Vec<String>> = (0..BATCHES).map(|b| batch_texts(3, b)).collect();
        for i in 0..BATCHES {
            for j in i + 1..BATCHES {
                assert_ne!(texts[i], texts[j]);
            }
        }
    }

    #[test]
    fn database_sizes_match_the_documented_workloads() {
        let sizes: Vec<usize> = (0..FAMILIES.len()).map(|i| family_db(5, i).num_facts()).collect();
        // ax*b ~33k, ab|ad|cd ~27k, ab|bc ~16k, abc|be ~16k facts.
        for (size, (lo, hi)) in sizes.iter().zip([
            (30_000, 33_000),
            (25_000, 27_500),
            (15_000, 16_400),
            (15_000, 16_400),
        ]) {
            assert!((lo..=hi).contains(size), "{sizes:?}");
        }
        for index in 0..HOSTED.len() {
            let facts = hosted_db(5, index).num_facts();
            assert!((1_800..=2_100).contains(&facts), "hosted {index}: {facts}");
        }
        let line = batch_line(&batch_texts(5, 0), false);
        assert!((100_000..=170_000).contains(&line.len()), "{} bytes", line.len());
    }
}
