//! Lint 2 — lock discipline.
//!
//! Tracks `Mutex` guard scopes per function body (the workspace has no
//! `RwLock`; `.read(`/`.write(` would collide with `io::Read`/`io::Write`),
//! names each lock with a crate-qualified *class* (all store database
//! handles are one class), and derives:
//!
//! - the cross-crate lock-acquisition graph: an edge `A → B` whenever a
//!   blocking `lock()` of class `B` happens while a guard of class `A` is
//!   live. Cycles in this graph are deadlock candidates and are reported by
//!   the workspace pass ([`cycle_findings`]).
//! - locks held across solve calls or blocking I/O: a live guard at a call
//!   to the solver entry points or blocking socket/channel operations
//!   serializes unrelated requests (or worse, deadlocks on a full pipe).
//!
//! `try_lock` acquisitions cannot block, so they never create graph edges,
//! but a successfully acquired try-guard is still *held* — blocking calls
//! under it are still findings.

use crate::lexer::{matching_close, TokKind, Token};
use crate::lints::receiver_name;
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Solver entry points and blocking operations that must not run under a
/// lock (per-database serialization being the one deliberate exception,
/// annotated at the site).
const BLOCKING_CALLS: [&str; 23] = [
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "sleep",
    "accept",
    "connect",
    "read_line",
    "read_until",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "solve",
    "solve_with",
    "solve_with_cut_traced",
    "route",
    "route_batch",
    "route_incremental",
    "prepare",
    "get_or_prepare_text",
];

/// Receivers whose `.lock()` is not a `Mutex` (std stream handles).
const NOT_A_MUTEX: [&str; 3] = ["stdout", "stdin", "stderr"];

/// One acquisition observed while another lock class was held.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The class already held.
    pub from: String,
    /// The class being acquired.
    pub to: String,
    /// File of the acquisition site.
    pub file: String,
    /// Line of the acquisition site.
    pub line: u32,
}

/// Per-file lock scan output: graph edges plus direct findings.
#[derive(Debug, Default)]
pub struct LockScan {
    /// Acquired-while-holding edges, for the workspace cycle check.
    pub edges: Vec<LockEdge>,
    /// Locks held across blocking calls.
    pub findings: Vec<Finding>,
}

#[derive(Debug)]
struct Guard {
    class: String,
    name: Option<String>,
    depth: i32,
    /// Bound to a statement temporary (dropped at the next `;`/`{`/`}`)
    /// rather than a `let` binding.
    temp: bool,
    line: u32,
}

/// Scans one file for guard scopes; `crate_name` qualifies the lock classes.
pub fn scan(path: &str, crate_name: &str, tokens: &[Token], masked: &[bool]) -> LockScan {
    let mut scan = LockScan::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i];
        match tok.kind {
            TokKind::Punct('{') => {
                let d = depth;
                guards.retain(|g| !(g.temp && g.depth == d));
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                let d = depth;
                guards.retain(|g| g.depth <= d);
            }
            TokKind::Punct(';') => {
                let d = depth;
                guards.retain(|g| !(g.temp && g.depth == d));
            }
            TokKind::Punct('.') => {
                if let Some(acquired) = match_lock_call(tokens, i) {
                    if !masked[i] {
                        record_acquisition(
                            path,
                            crate_name,
                            tokens,
                            i,
                            acquired,
                            depth,
                            &mut guards,
                            &mut scan,
                        );
                    }
                    i += 2; // Past `.lock`; the `(` advances normally.
                    continue;
                }
                // `.callee(` form of a blocking call.
                if let Some(callee) = match_call(tokens, i + 1) {
                    check_blocking(path, tokens, i + 1, callee, masked[i], &guards, &mut scan);
                }
            }
            TokKind::Ident(ref name)
                if name == "drop"
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                // `drop(guard)` releases a named guard early.
                if let Some(TokKind::Ident(victim)) = tokens.get(i + 2).map(|t| &t.kind) {
                    guards.retain(|g| g.name.as_deref() != Some(victim));
                }
            }
            TokKind::Ident(_) => {
                // Bare `callee(` form (free function or macro-free call);
                // skip `fn callee(` definitions.
                if let Some(callee) = match_call(tokens, i) {
                    let is_def = i > 0 && tokens[i - 1].is_ident("fn");
                    let is_method = i > 0 && tokens[i - 1].is_punct('.');
                    if !is_def && !is_method {
                        check_blocking(path, tokens, i, callee, masked[i], &guards, &mut scan);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    scan
}

/// Is `tokens[dot..]` a `.lock()` / `.try_lock()` call? Returns the method.
fn match_lock_call(tokens: &[Token], dot: usize) -> Option<&str> {
    let method = tokens.get(dot + 1)?.ident_or_empty();
    if method != "lock" && method != "try_lock" {
        return None;
    }
    tokens.get(dot + 2)?.is_punct('(').then_some(method)
}

/// Is `tokens[at]` an identifier directly followed by `(`? Returns its name.
fn match_call(tokens: &[Token], at: usize) -> Option<&str> {
    match &tokens.get(at)?.kind {
        TokKind::Ident(name) if tokens.get(at + 1).is_some_and(|t| t.is_punct('(')) => Some(name),
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn record_acquisition(
    path: &str,
    crate_name: &str,
    tokens: &[Token],
    dot: usize,
    method: &str,
    depth: i32,
    guards: &mut Vec<Guard>,
    scan: &mut LockScan,
) {
    let Some(receiver) = receiver_name(tokens, dot) else { return };
    if NOT_A_MUTEX.contains(&receiver.as_str()) {
        return;
    }
    let class = lock_class(crate_name, &receiver);
    let line = tokens[dot + 1].line;
    if method == "lock" {
        // A blocking acquisition while holding anything is a graph edge
        // (same-class re-entry shows up as a self-loop = self-deadlock).
        for held in guards.iter() {
            scan.edges.push(LockEdge {
                from: held.class.clone(),
                to: class.clone(),
                file: path.to_string(),
                line,
            });
        }
    }
    // A `let` only binds the *guard* when the statement's chain ends at the
    // lock call (modulo `.unwrap()` / `.expect(...)` / `?` wrappers). In
    // `let req = ready.lock().unwrap().recv();` the binding is the received
    // value and the guard is a statement temporary.
    let name = guard_reaches_binding(tokens, dot).then(|| binding_name(tokens, dot)).flatten();
    guards.push(Guard { class, temp: name.is_none(), name, depth, line });
}

/// Whether the value bound by the enclosing statement is (a wrapper around)
/// the guard produced by the lock call whose `.` is at `dot`.
fn guard_reaches_binding(tokens: &[Token], dot: usize) -> bool {
    let Some(mut j) = matching_close(tokens, dot + 2).map(|c| c + 1) else { return false };
    const WRAPPERS: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "map_err"];
    loop {
        match tokens.get(j).map(|t| &t.kind) {
            Some(TokKind::Punct(';' | '}')) | None => return true,
            // `let Ok(g) = x.try_lock() else { … };`
            Some(TokKind::Ident(id)) if id == "else" => return true,
            Some(TokKind::Punct('?')) => j += 1,
            Some(TokKind::Punct('.')) => {
                let wrapped =
                    tokens.get(j + 1).is_some_and(|t| WRAPPERS.contains(&t.ident_or_empty()))
                        && tokens.get(j + 2).is_some_and(|t| t.is_punct('('));
                if !wrapped {
                    return false;
                }
                match matching_close(tokens, j + 2) {
                    Some(close) => j = close + 1,
                    None => return false,
                }
            }
            _ => return false,
        }
    }
}

/// The `let` binding a lock chain is assigned to, if any: handles
/// `let [mut] g = …`, `let Ok([mut] g) = …`, and plain `g = …` re-binds.
fn binding_name(tokens: &[Token], dot: usize) -> Option<String> {
    let start = crate::lints::chain_start(tokens, dot.checked_sub(1)?);
    let eq = start.checked_sub(1)?;
    if !tokens[eq].is_punct('=') {
        return None;
    }
    // Equality `==` is not a binding.
    if eq >= 1 && tokens[eq - 1].is_punct('=') {
        return None;
    }
    let mut name = None;
    for j in (eq.saturating_sub(8)..eq).rev() {
        match &tokens[j].kind {
            TokKind::Ident(id) if id == "let" => {
                return name;
            }
            TokKind::Ident(id)
                if name.is_none()
                    && !matches!(id.as_str(), "mut" | "ref" | "Ok" | "Some" | "Err") =>
            {
                name = Some(id.clone());
            }
            TokKind::Punct('(' | ')') | TokKind::Ident(_) => {}
            // Statement boundary without `let`: a plain re-assignment.
            _ => return name,
        }
    }
    name
}

fn check_blocking(
    path: &str,
    tokens: &[Token],
    at: usize,
    callee: &str,
    masked: bool,
    guards: &[Guard],
    scan: &mut LockScan,
) {
    if masked || guards.is_empty() || !BLOCKING_CALLS.contains(&callee) {
        return;
    }
    let held: Vec<String> =
        guards.iter().map(|g| format!("`{}` (line {})", g.class, g.line)).collect();
    scan.findings.push(Finding::new(
        path,
        tokens[at].line,
        Rule::LockDiscipline,
        format!("call to `{callee}` while holding {}", held.join(", ")),
    ));
}

/// Crate-qualified lock class for a receiver name. Aliases collapse the
/// different spellings of one lock (accessor, field, loop variable) so the
/// graph talks about locks, not variables.
fn lock_class(crate_name: &str, receiver: &str) -> String {
    let class = match (crate_name, receiver) {
        (_, "databases") => "store.registry",
        (_, "handle") => "store.database",
        (_, "addr") => "server.addr",
        (_, "ready") => "server.ready_queue",
        ("core", "0") => "core.scratch_pool",
        _ => return format!("{crate_name}.{receiver}"),
    };
    class.to_string()
}

/// Workspace pass: find cycles in the union of every file's edges. Each
/// distinct cycle is reported once, at the site of its first edge.
pub fn cycle_findings(edges: &[LockEdge]) -> Vec<Finding> {
    let mut adjacency: BTreeMap<&str, BTreeMap<&str, &LockEdge>> = BTreeMap::new();
    for edge in edges {
        adjacency.entry(&edge.from).or_default().entry(&edge.to).or_insert(edge);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<&str>> = BTreeSet::new();
    for &origin in adjacency.keys().collect::<Vec<_>>() {
        let mut stack = vec![origin];
        let mut on_stack: BTreeSet<&str> = [origin].into();
        dfs(&adjacency, &mut stack, &mut on_stack, &mut reported, &mut findings);
    }
    findings
}

fn dfs<'e>(
    adjacency: &BTreeMap<&'e str, BTreeMap<&'e str, &'e LockEdge>>,
    stack: &mut Vec<&'e str>,
    on_stack: &mut BTreeSet<&'e str>,
    reported: &mut BTreeSet<Vec<&'e str>>,
    findings: &mut Vec<Finding>,
) {
    let current = *stack.last().expect("dfs stack is never empty");
    let Some(next_hops) = adjacency.get(current) else { return };
    for (&next, &edge) in next_hops {
        if on_stack.contains(next) {
            // Found a cycle: the suffix of the stack from `next` onward.
            let from = stack.iter().position(|&n| n == next).unwrap_or(0);
            let mut cycle: Vec<&str> = stack[from..].to_vec();
            let mut key = cycle.clone();
            key.sort_unstable();
            if reported.insert(key) {
                cycle.push(next);
                findings.push(Finding::new(
                    &edge.file,
                    edge.line,
                    Rule::LockDiscipline,
                    format!("lock-order cycle: {}", cycle.join(" -> ")),
                ));
            }
            continue;
        }
        stack.push(next);
        on_stack.insert(next);
        dfs(adjacency, stack, on_stack, reported, findings);
        stack.pop();
        on_stack.remove(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(crate_name: &str, src: &str) -> LockScan {
        let lexed = lex(src);
        let masked = vec![false; lexed.tokens.len()];
        scan("f.rs", crate_name, &lexed.tokens, &masked)
    }

    #[test]
    fn nested_acquisition_yields_edge() {
        let src = "fn f(&self) {\n  let registry = self.databases.lock().unwrap();\n  \
                   let db = handle.lock().unwrap();\n}";
        let scan = run("store", src);
        assert_eq!(scan.edges.len(), 1);
        assert_eq!(scan.edges[0].from, "store.registry");
        assert_eq!(scan.edges[0].to, "store.database");
    }

    #[test]
    fn scoped_guard_drops_before_second_lock() {
        let src = "fn f(&self) {\n  let h = { let r = self.databases.lock().unwrap(); \
                   r.get() };\n  let db = handle.lock().unwrap();\n}";
        assert!(run("store", src).edges.is_empty());
    }

    #[test]
    fn explicit_drop_releases_guard() {
        let src = "fn f(&self) { let r = self.databases.lock().unwrap(); drop(r); \
                   let db = handle.lock().unwrap(); }";
        assert!(run("store", src).edges.is_empty());
    }

    #[test]
    fn try_lock_makes_no_edge_but_holds() {
        let src = "fn f(&self) { let r = self.databases.lock().unwrap(); \
                   let Ok(db) = handle.try_lock() else { return }; db.solve(q); }";
        let scan = run("store", src);
        assert!(scan.edges.is_empty(), "try_lock cannot deadlock");
        assert_eq!(scan.findings.len(), 1, "but solving under it is held-across");
    }

    #[test]
    fn blocking_call_under_guard_fires() {
        let src = "fn f(&self) { let db = handle.lock().unwrap(); \
                   prepared.route_incremental(a, b); prepared.route(a, c); }";
        let scan = run("store", src);
        assert_eq!(scan.findings.len(), 2);
        assert!(scan.findings.iter().all(|f| f.message.contains("store.database")));
        assert!(scan.findings[1].message.contains("`route`"));
    }

    #[test]
    fn temp_guard_chained_recv_fires_then_dies() {
        let src = "fn f() { let req = ready.lock().unwrap().recv(); other.recv(); }";
        let scan = run("server", src);
        assert_eq!(scan.findings.len(), 1, "recv on the guard fires; after `;` it is gone");
        assert_eq!(scan.findings[0].line, 1);
    }

    #[test]
    fn std_stream_locks_are_not_mutexes() {
        let src = "fn f() { let out = std::io::stdout().lock(); out.flush(); }";
        let scan = run("cli", src);
        assert!(scan.edges.is_empty());
        assert!(scan.findings.is_empty());
    }

    #[test]
    fn fn_definitions_are_not_calls() {
        let src = "impl S { fn solve(&self) { let g = self.databases.lock().unwrap(); } }";
        assert!(run("store", src).findings.is_empty());
    }

    #[test]
    fn cycle_detection_reports_once() {
        let mk = |from: &str, to: &str, line| LockEdge {
            from: from.into(),
            to: to.into(),
            file: "f.rs".into(),
            line,
        };
        let cyclic = [mk("a", "b", 1), mk("b", "a", 2), mk("b", "c", 3)];
        let findings = cycle_findings(&cyclic);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("lock-order cycle"));
        let acyclic = [mk("a", "b", 1), mk("b", "c", 2), mk("a", "c", 3)];
        assert!(cycle_findings(&acyclic).is_empty());
    }

    #[test]
    fn self_deadlock_is_a_cycle() {
        let src = "fn f(&self) { let a = self.databases.lock().unwrap(); \
                   let b = self.databases.lock().unwrap(); }";
        let scan = run("store", src);
        assert_eq!(scan.edges.len(), 1);
        let findings = cycle_findings(&scan.edges);
        assert_eq!(findings.len(), 1);
    }
}
