#![forbid(unsafe_code)]
//! `rpq-analyze` — workspace-local static analysis for the RPQ resilience
//! codebase, hand-rolled in the repo's zero-dependency style.
//!
//! Four project-specific lints run over a lightweight token stream
//! ([`lexer`]) of every in-scope workspace `.rs` file:
//!
//! | rule | checks |
//! |------|--------|
//! | `panic-freedom`    | no `unwrap`/`expect`/`panic!`/`[idx]` on request paths |
//! | `lock-discipline`  | lock-order cycles; locks held across solves / blocking I/O |
//! | `atomic-ordering`  | `Ordering::Relaxed` RMWs whose result is consumed |
//! | `wire-protocol`    | every `Request` verb and counter documented, every verb counted |
//!
//! Findings print as clickable `file:line: [rule] message` diagnostics.
//! Deliberate exceptions are annotated in-source with
//! `// lint: allow(<rule>, <reason>)` (see [`scope::Allows`]); the reason is
//! mandatory and malformed annotations are themselves findings, so the
//! suppression trail stays auditable.

pub mod lexer;
pub mod lints;
pub mod scope;

use lints::locks::{self, LockEdge};
use scope::{crate_of, policy_for, Allows, FilePolicy};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint rules, in catalogue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No panic-capable constructs on request paths.
    PanicFreedom,
    /// Lock-order cycles and locks held across blocking calls.
    LockDiscipline,
    /// Relaxed read-modify-writes outside pure counters.
    AtomicOrdering,
    /// Protocol verbs must be documented and counted.
    WireProtocol,
    /// Malformed `lint:` annotations (never suppressible).
    Annotation,
}

impl Rule {
    /// The rule's diagnostic / annotation name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicFreedom => "panic-freedom",
            Rule::LockDiscipline => "lock-discipline",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::WireProtocol => "wire-protocol",
            Rule::Annotation => "annotation",
        }
    }

    /// Parses an annotation rule name (`relaxed-ok` aliases the atomic
    /// lint, matching its prescribed annotation wording).
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "panic-freedom" => Some(Rule::PanicFreedom),
            "lock-discipline" => Some(Rule::LockDiscipline),
            "atomic-ordering" | "relaxed-ok" => Some(Rule::AtomicOrdering),
            "wire-protocol" => Some(Rule::WireProtocol),
            _ => None,
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which lint fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(file: &str, line: u32, rule: Rule, message: String) -> Finding {
        Finding { file: file.to_string(), line, rule, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.message)
    }
}

/// Per-file analysis output.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by `lint: allow` annotations.
    pub suppressed: usize,
    /// Lock-graph edges contributed to the workspace cycle check.
    pub edges: Vec<LockEdge>,
}

/// Analyzes one file's source under `policy` (path is workspace-relative
/// and only used for labeling and crate attribution).
pub fn analyze_file(rel_path: &str, src: &str, policy: FilePolicy) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let masked = scope::test_region_mask(&lexed.tokens);
    let allows = Allows::parse(rel_path, &lexed.comments);
    let mut raw = Vec::new();
    raw.extend(lints::panics::check(rel_path, &lexed.tokens, &masked, policy));
    let mut edges = Vec::new();
    if policy.lock_lint {
        let scan = locks::scan(rel_path, crate_of(rel_path), &lexed.tokens, &masked);
        raw.extend(scan.findings);
        edges = scan.edges;
    }
    if policy.atomic_lint {
        raw.extend(lints::atomics::check(rel_path, &lexed.tokens, &masked));
    }
    let mut analysis = FileAnalysis { edges, ..FileAnalysis::default() };
    for finding in raw {
        if allows.suppresses(finding.rule, finding.line) {
            analysis.suppressed += 1;
        } else {
            analysis.findings.push(finding);
        }
    }
    // Annotation problems are findings about the suppressions themselves.
    analysis.findings.extend(allows.findings);
    analysis
}

/// Whole-workspace analysis report.
#[derive(Debug, Default)]
pub struct Report {
    /// All unsuppressed findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Total suppressed findings.
    pub suppressed: usize,
    /// Number of files analyzed.
    pub files: usize,
}

/// Runs every lint over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut allows_by_file: HashMap<String, Allows> = HashMap::new();
    for rel_path in &files {
        let Some(policy) = policy_for(rel_path) else { continue };
        let src = fs::read_to_string(root.join(rel_path))?;
        allows_by_file
            .insert(rel_path.clone(), Allows::parse(rel_path, &lexer::lex(&src).comments));
        let analysis = analyze_file(rel_path, &src, policy);
        report.files += 1;
        report.suppressed += analysis.suppressed;
        report.findings.extend(analysis.findings);
        edges.extend(analysis.edges);
    }
    // Workspace-level passes: lock-order cycles and protocol exhaustiveness.
    let mut global = locks::cycle_findings(&edges);
    global.extend(protocol_findings(root)?);
    for finding in global {
        let suppressed = allows_by_file
            .get(&finding.file)
            .is_some_and(|allows| allows.suppresses(finding.rule, finding.line));
        if suppressed {
            report.suppressed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn protocol_findings(root: &Path) -> io::Result<Vec<Finding>> {
    let protocol_path = "crates/server/src/protocol.rs";
    let server_path = "crates/server/src/server.rs";
    let Ok(protocol_src) = fs::read_to_string(root.join(protocol_path)) else {
        // Not a tree with the wire protocol (e.g. a test fixture root).
        return Ok(Vec::new());
    };
    let readme = fs::read_to_string(root.join("README.md")).ok();
    let server_src = fs::read_to_string(root.join(server_path)).ok();
    Ok(lints::protocol::check(
        protocol_path,
        &protocol_src,
        readme.as_deref(),
        server_path,
        server_src.as_deref(),
    ))
}

/// Collects workspace-relative paths (with `/` separators) of every `.rs`
/// file under `dir`, skipping obvious non-source trees early.
fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel_to_string(rel));
            }
        }
    }
    Ok(())
}

fn rel_to_string(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Re-exported for the CLI and tests.
pub use scope::FilePolicy as Policy;

/// Convenience: `PathBuf` of the workspace root to analyze, from CLI args.
/// Defaults to the current directory (what `cargo run -p rpq-analyze` gives
/// at the workspace root).
pub fn root_from_args(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [] => Ok(PathBuf::from(".")),
        [root] if !root.starts_with('-') => Ok(PathBuf::from(root)),
        _ => Err("usage: rpq-analyze [workspace-root]".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in
            [Rule::PanicFreedom, Rule::LockDiscipline, Rule::AtomicOrdering, Rule::WireProtocol]
        {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("relaxed-ok"), Some(Rule::AtomicOrdering));
        assert_eq!(Rule::from_name("annotation"), None, "annotation is not suppressible");
    }

    #[test]
    fn finding_display_is_clickable() {
        let f = Finding::new("crates/store/src/lib.rs", 42, Rule::PanicFreedom, "msg".into());
        assert_eq!(f.to_string(), "crates/store/src/lib.rs:42: [panic-freedom] msg");
    }

    #[test]
    fn analyze_file_suppression_counts() {
        let policy = scope::policy_for("crates/store/src/lib.rs").unwrap();
        let src = "fn f() {\n    x.unwrap(); // lint: allow(panic-freedom, recovered below)\n    \
                   y.unwrap();\n}\n";
        let analysis = analyze_file("crates/store/src/lib.rs", src, policy);
        assert_eq!(analysis.suppressed, 1);
        assert_eq!(analysis.findings.len(), 1);
        assert_eq!(analysis.findings[0].line, 3);
    }

    #[test]
    fn args_parsing() {
        assert!(root_from_args(&[]).is_ok());
        assert!(root_from_args(&["some/dir".into()]).is_ok());
        assert!(root_from_args(&["--help".into()]).is_err());
        assert!(root_from_args(&["a".into(), "b".into()]).is_err());
    }
}
