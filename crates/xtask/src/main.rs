//! Workspace automation (`cargo xtask <task>`).
//!
//! `bench-diff <parent.jsonl> <change.jsonl>` judges repeated benchmark
//! runs of two commits against `BENCHMARK.json`'s bounds (see
//! [`bench_diff`]).
//!
//! `lint` is the atomics-discipline (and file-length) lint that CI runs
//! tree-wide. It is textual on purpose — no syn, no rustc plumbing,
//! no dependencies — because the disciplines it enforces are *comment*
//! conventions and module-level import rules that a line scanner checks
//! reliably:
//!
//! 1. **`relaxed`** — every `Ordering::Relaxed` in non-test code carries
//!    a `// relaxed:` justification on the same line or within the
//!    [`JUSTIFY_WINDOW`] lines above it. Relaxed is the one ordering
//!    whose correctness argument lives entirely outside the type system;
//!    the comment is where that argument goes (and what review + the
//!    model checker audit).
//! 2. **`safety`** — every `unsafe` token likewise carries a
//!    `// SAFETY:` comment. Complements `#![deny(unsafe_op_in_unsafe_fn)]`
//!    (workspace lints), which forces the *block*; this forces the
//!    *argument*.
//! 3. **`fastpath`** — no lock types or lock acquisitions inside the
//!    lock-free fast path: all of `crates/sync/src/pinword.rs`, plus any
//!    region bracketed by `// xtask: fastpath-begin` /
//!    `// xtask: fastpath-end` markers (the manager's `fetch_fast` /
//!    `unpin_fast` hot sections). A mutex creeping into these regions is
//!    exactly the regression the lock-free hit path exists to prevent.
//! 4. **`facade`** — `crates/sync` and `crates/core` must not import
//!    `std::sync::atomic` directly; everything goes through the
//!    `spitfire_sync::atomic` facade so `--cfg spitfire_modelcheck`
//!    builds route every atomic through the model checker. An atomic
//!    that bypasses the facade is invisible to the checker — silently
//!    unverified.
//!
//! 5. **`length`** — no `.rs` file under `crates/core/src/` exceeds
//!    [`CORE_FILE_LINE_LIMIT`] lines (tests included: a long test module
//!    belongs in its own file). The buffer manager was once a single
//!    3 100-line file holding two protocols for every tier move; the
//!    limit keeps its per-concern split from silently regrowing.
//!
//! 6. **`gates`** — the repo has one perf gate (`benchmark/` plus counted
//!    `cargo test`s). No `BENCH_*.json` baseline may sit at the root
//!    other than [`ALLOWED_BASELINES`], and `.github/workflows/ci.yml`
//!    may carry an inline `python3 - <<` threshold block only in the
//!    [`INLINE_GATE_JOB`] job, so another ad-hoc gate cannot come back
//!    unnoticed.
//!
//! 7. **`node-io`** — under `crates/index/src/` only `node.rs` touches
//!    page bytes (`guard.read` / `guard.write` / `read_u64` /
//!    `write_u64`). The device charges every access a whole line, so the
//!    node reads and writes by line; a field accessor growing back in
//!    `tree.rs` would pay a line for eight bytes again.
//!
//! 8. **`index-state`** — nothing under `crates/index/src/` names a
//!    `ConcurrentMap`, a `HashMap` or an `Arc<VersionLatch>`. A node's
//!    latch is its page's, kept in the buffer manager's descriptor and
//!    reached through the pin; the tree holds no per-page state, and a
//!    pid-keyed side table (with its hash order, its shard lock and its
//!    reference counts on every node visit) must not grow back unnoticed.
//!
//! 9. **`dead-code`** — no `allow(dead_code)` in non-test source under
//!    `crates/*/src/`. Code nothing calls is deleted; a helper only tests
//!    call lives in (or under) a `#[cfg(test)]` module, where the compiler
//!    still checks that something uses it.
//!
//! 10. **`crates`** — the crate tables in DESIGN.md §2 and README's
//!     "What's here" name exactly the packages under `crates/`: a crate
//!     added, folded into another or deleted updates both tables, so
//!     neither lists a crate that is gone or misses one that exists.
//!
//! 11. **`msrv`** — every `crates/*/Cargo.toml` inherits the workspace
//!     `rust-version` (`rust-version.workspace = true` under
//!     `[package]`). Clippy's MSRV-aware lints run only in crates that
//!     declare one, so a crate without it may use std APIs newer than the
//!     version the workspace promises, and clippy steers code onto them.
//!
//! Test modules (`#[cfg(test)]`) are exempt from rules 1, 2, 4, 7, 8 and 9: test
//! code freely uses relaxed counters and raw atomics, and verifying the
//! tests is the job of the tests themselves. The lint skips everything
//! from a `#[cfg(test)]` attribute line onward (test modules sit at the
//! bottom of files in this codebase). `crates/xtask` itself and
//! `vendor/` are excluded from the walk: the lint's own source contains
//! the needles it scans for, and vendored third-party code follows its
//! own conventions.

mod bench_diff;
mod json;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How many lines above a flagged token a justification comment may sit.
/// Large enough for a short paragraph, small enough that a comment
/// cannot accidentally cover an unrelated site a screen away.
const JUSTIFY_WINDOW: usize = 8;

/// Fast-path region markers (see module docs, rule 3).
const FASTPATH_BEGIN: &str = "xtask: fastpath-begin";
const FASTPATH_END: &str = "xtask: fastpath-end";

/// Longest `.rs` file allowed under `crates/core/src/` (rule 5).
const CORE_FILE_LINE_LIMIT: usize = 800;

/// Page-byte accessors that only [`NODE_IO_OWNER`] may call under
/// [`NODE_IO_SCOPE`] (rule 7).
const NODE_IO_NEEDLES: [&str; 4] = ["guard.read", "guard.write", "read_u64", "write_u64"];
const NODE_IO_SCOPE: &str = "crates/index/src/";
const NODE_IO_OWNER: &str = "crates/index/src/node.rs";

/// Per-page side-table types that may not appear anywhere under
/// [`NODE_IO_SCOPE`] (rule 8).
const INDEX_STATE_NEEDLES: [&str; 3] = ["ConcurrentMap", "HashMap", "Arc<VersionLatch>"];

/// Root-level bench baselines that may exist (rule 6): the migration
/// storm bench waits for a storm workload in `benchmark/`; the server
/// file is the loadgen fairness record.
const ALLOWED_BASELINES: [&str; 2] = ["BENCH_migration.json", "BENCH_server.json"];

/// The one CI job that may carry an inline threshold script (rule 6).
const INLINE_GATE_JOB: &str = "migration";
const CI_WORKFLOW: &str = ".github/workflows/ci.yml";

/// The crate tables (rule 10): each document and how the heading of the
/// section that holds its table begins.
const CRATE_TABLES: [(&str, &str); 2] = [
    ("DESIGN.md", "## 2. Crate inventory"),
    ("README.md", "## What's here"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((task, [])) if task == "lint" => lint(),
        Some((task, rest)) if task == "bench-diff" => bench_diff::run(&workspace_root(), rest),
        _ => {
            eprintln!(
                "xtask: expected `lint` or `bench-diff <parent.jsonl> <change.jsonl>`, got {args:?}"
            );
            ExitCode::FAILURE
        }
    }
}

struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();
    let mut findings = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        // The lint scans for its own needle strings; linting itself would
        // only ever flag them.
        if file.starts_with(root.join("crates/xtask")) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(file) else {
            findings.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "io",
                message: "unreadable file".into(),
            });
            continue;
        };
        checked += 1;
        lint_file(&root, file, &text, &mut findings);
    }
    let root_names: Vec<String> = std::fs::read_dir(&root)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let ci = std::fs::read_to_string(root.join(CI_WORKFLOW)).unwrap_or_default();
    lint_gates(&root_names, &ci, &mut findings);
    let manifests = crate_manifests(&root.join("crates"));
    for (path, text) in &manifests {
        let file = path.strip_prefix(&root).unwrap_or(path);
        lint_msrv(file, text, &mut findings);
    }
    let packages = crate_packages(&manifests);
    for (doc, heading) in CRATE_TABLES {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_default();
        lint_crate_table(&packages, doc, heading, &text, &mut findings);
    }
    if findings.is_empty() {
        println!("xtask lint: {checked} files clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "xtask lint: {} finding(s) in {checked} files",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

/// Rule 6: stray root-level bench baselines and inline CI threshold
/// scripts. `root_names` are the file names directly under the workspace
/// root; `ci` is the workflow text (empty when the file is absent).
fn lint_gates(root_names: &[String], ci: &str, findings: &mut Vec<Finding>) {
    for name in root_names {
        if name.starts_with("BENCH_")
            && name.ends_with(".json")
            && !ALLOWED_BASELINES.contains(&name.as_str())
        {
            findings.push(Finding {
                file: PathBuf::from(name),
                line: 0,
                rule: "gates",
                message: "ad-hoc bench baseline; timings are gated by benchmark/, \
                          counts by `cargo test`"
                    .into(),
            });
        }
    }
    // A job id is a key indented by exactly two spaces under `jobs:`.
    let mut job = "";
    for (i, raw) in ci.lines().enumerate() {
        if let Some(key) = raw.strip_prefix("  ").and_then(|l| l.strip_suffix(':')) {
            if !key.starts_with(' ') && !key.contains(' ') {
                job = key;
            }
        }
        if raw.contains("python3 - <<") && job != INLINE_GATE_JOB {
            findings.push(Finding {
                file: PathBuf::from(CI_WORKFLOW),
                line: i + 1,
                rule: "gates",
                message: format!(
                    "inline threshold script in job `{job}`; only \
                     `{INLINE_GATE_JOB}` may carry one — assert counts in a test"
                ),
            });
        }
    }
}

/// Each `Cargo.toml` one level under `dir` and its text, by path.
fn crate_manifests(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut manifests: Vec<(PathBuf, String)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let path = e.path().join("Cargo.toml");
            let text = std::fs::read_to_string(&path).ok()?;
            Some((path, text))
        })
        .collect();
    manifests.sort();
    manifests
}

/// Rule 11: `manifest`'s `[package]` section inherits the workspace
/// `rust-version`.
fn lint_msrv(file: &Path, manifest: &str, findings: &mut Vec<Finding>) {
    let inherits = manifest
        .lines()
        .skip_while(|l| l.trim() != "[package]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .any(|l| l.replace(' ', "") == "rust-version.workspace=true");
    if !inherits {
        findings.push(Finding {
            file: file.to_path_buf(),
            line: 0,
            rule: "msrv",
            message: "[package] lacks `rust-version.workspace = true`; \
                      clippy's MSRV lints are off in this crate"
                .into(),
        });
    }
}

/// The package names of the crates in `manifests`: the first
/// `name = "..."` line of each.
fn crate_packages(manifests: &[(PathBuf, String)]) -> Vec<String> {
    let mut packages: Vec<String> = manifests
        .iter()
        .filter_map(|(_, toml)| {
            toml.lines().find_map(|l| {
                let value = l.strip_prefix("name = \"")?;
                Some(value.trim_end().strip_suffix('"')?.to_string())
            })
        })
        .collect();
    packages.sort();
    packages
}

/// Rule 10: the table in `doc`'s `heading` section names exactly
/// `packages`. A row names the last backticked token of its first cell
/// (`` `crates/txn` (`spitfire-txn`) `` names `spitfire-txn`); rows without
/// one (the header, the separator) name nothing.
fn lint_crate_table(
    packages: &[String],
    doc: &str,
    heading: &str,
    text: &str,
    findings: &mut Vec<Finding>,
) {
    let mut finding = |line: usize, message: String| {
        findings.push(Finding {
            file: PathBuf::from(doc),
            line,
            rule: "crates",
            message,
        });
    };
    // A missing section names nothing, so every package is reported.
    let lines: Vec<&str> = text.lines().collect();
    let start = lines.iter().position(|l| l.starts_with(heading));
    let mut named = Vec::new();
    for (i, line) in lines
        .iter()
        .enumerate()
        .skip(start.map_or(lines.len(), |s| s + 1))
    {
        if line.starts_with("## ") {
            break;
        }
        let Some(first_cell) = line.strip_prefix('|').and_then(|r| r.split('|').next()) else {
            continue;
        };
        if let Some(name) = first_cell.split('`').rev().nth(1) {
            if !packages.iter().any(|p| p == name) {
                finding(
                    i + 1,
                    format!("names `{name}`, not a package under crates/"),
                );
            }
            named.push(name);
        }
    }
    for package in packages {
        if !named.contains(&package.as_str()) {
            finding(
                start.map_or(0, |s| s + 1),
                format!("crate table lacks `{package}`"),
            );
        }
    }
}

/// The workspace root, two levels up from this crate's manifest (the
/// binary may be invoked from any CWD via the `cargo xtask` alias).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Integration tests and benches are test code — exempt for
            // the same reason `#[cfg(test)]` modules are.
            let name = entry.file_name();
            if name == "tests" || name == "benches" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The code portion of a line: everything before a `//` comment. Naive
/// about `//` inside string literals, which the codebase's conventions
/// make a non-issue (no slash-bearing string constants near atomics).
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Does `line` or any of the `JUSTIFY_WINDOW` raw lines above it carry
/// `needle` (a justification tag, lowercase) inside a comment?
fn justified(lines: &[&str], idx: usize, needle: &str) -> bool {
    let lo = idx.saturating_sub(JUSTIFY_WINDOW);
    lines[lo..=idx].iter().any(|l| {
        l.find("//")
            .is_some_and(|c| l[c..].to_ascii_lowercase().contains(needle))
    })
}

/// Does the code part contain `unsafe` as a standalone token (not part
/// of `unsafe_op_in_unsafe_fn` or another identifier)?
fn has_unsafe_token(code: &str) -> bool {
    let mut rest = code;
    while let Some(i) = rest.find("unsafe") {
        let before_ok = rest[..i]
            .chars()
            .next_back()
            .map_or(true, |c| !c.is_alphanumeric() && c != '_');
        let after = &rest[i + "unsafe".len()..];
        let after_ok = after
            .chars()
            .next()
            .map_or(true, |c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
        rest = after;
    }
    false
}

fn lint_file(root: &Path, file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let lines: Vec<&str> = text.lines().collect();

    let facade_scoped = (rel_str.starts_with("crates/sync/src")
        || rel_str.starts_with("crates/core/src"))
        && rel_str != "crates/sync/src/atomic.rs"
        && rel_str != "crates/sync/src/lock.rs";
    let whole_file_fastpath = rel_str == "crates/sync/src/pinword.rs";
    let index_scoped = rel_str.starts_with(NODE_IO_SCOPE);
    let node_io_scoped = index_scoped && rel_str != NODE_IO_OWNER;
    let crate_src = rel_str
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(_, r)| r.starts_with("src/"));

    if rel_str.starts_with("crates/core/src/") && lines.len() > CORE_FILE_LINE_LIMIT {
        findings.push(Finding {
            file: rel.to_path_buf(),
            line: CORE_FILE_LINE_LIMIT + 1,
            rule: "length",
            message: format!(
                "{} lines; files under crates/core/src are capped at \
                 {CORE_FILE_LINE_LIMIT} — split by concern",
                lines.len()
            ),
        });
    }

    let mut in_fastpath = whole_file_fastpath;
    let mut fastpath_open_line = 0usize;

    for (i, raw) in lines.iter().enumerate() {
        let lineno = i + 1;
        // Test modules are exempt (and sit at the bottom of each file).
        if raw.trim() == "#[cfg(test)]" {
            break;
        }
        let code = code_part(raw);

        // Region markers live in comments, so match the raw line.
        if raw.contains(FASTPATH_BEGIN) {
            if in_fastpath {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: "fastpath",
                    message: format!(
                        "nested `{FASTPATH_BEGIN}` (previous at line {fastpath_open_line})"
                    ),
                });
            }
            in_fastpath = true;
            fastpath_open_line = lineno;
            continue;
        }
        if raw.contains(FASTPATH_END) {
            if !in_fastpath || whole_file_fastpath {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: "fastpath",
                    message: format!("`{FASTPATH_END}` without matching begin"),
                });
            }
            in_fastpath = whole_file_fastpath;
            continue;
        }

        if code.contains("Ordering::Relaxed") && !justified(&lines, i, "relaxed:") {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "relaxed",
                message: "`Ordering::Relaxed` without a `// relaxed:` justification".into(),
            });
        }

        if has_unsafe_token(&code.replace("unsafe_op_in_unsafe_fn", ""))
            && !justified(&lines, i, "safety:")
        {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "safety",
                message: "`unsafe` without a `// SAFETY:` comment".into(),
            });
        }

        if facade_scoped && code.contains("std::sync::atomic") {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "facade",
                message: "direct `std::sync::atomic` use; go through the \
                          `spitfire_sync::atomic` facade"
                    .into(),
            });
        }

        if node_io_scoped {
            if let Some(needle) = NODE_IO_NEEDLES.iter().find(|n| code.contains(**n)) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: "node-io",
                    message: format!(
                        "`{needle}` outside node.rs; read and write nodes through \
                         `Node`'s line-sized accessors"
                    ),
                });
            }
        }

        if index_scoped {
            if let Some(needle) = INDEX_STATE_NEEDLES.iter().find(|n| code.contains(**n)) {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: "index-state",
                    message: format!(
                        "`{needle}` in the index; a node's latch is its page's \
                         (`PageGuard::latch`) and the tree keeps no per-page table"
                    ),
                });
            }
        }

        if crate_src && code.contains("allow(") && code.contains("dead_code") {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "dead-code",
                message: "`allow(dead_code)` outside tests; delete the code, or move a \
                          test-only helper under `#[cfg(test)]`"
                    .into(),
            });
        }

        if in_fastpath {
            for needle in [
                ".lock()",
                ".try_lock(",
                "Mutex",
                "RwLock",
                ".read()",
                ".write()",
            ] {
                if code.contains(needle) {
                    findings.push(Finding {
                        file: rel.to_path_buf(),
                        line: lineno,
                        rule: "fastpath",
                        message: format!(
                            "`{needle}` inside a lock-free fast-path region \
                             (opened at line {fastpath_open_line})"
                        ),
                    });
                }
            }
        }
    }
    if in_fastpath && !whole_file_fastpath {
        findings.push(Finding {
            file: rel.to_path_buf(),
            line: fastpath_open_line,
            rule: "fastpath",
            message: format!("`{FASTPATH_BEGIN}` never closed"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_token_boundaries() {
        assert!(has_unsafe_token("unsafe { x }"));
        assert!(has_unsafe_token("pub unsafe fn f()"));
        assert!(has_unsafe_token("unsafe impl Sync for X {}"));
        assert!(!has_unsafe_token("unsafe_op_in_unsafe_fn"));
        assert!(!has_unsafe_token("not_unsafe_here"));
        assert!(!has_unsafe_token("let safe = 1;"));
    }

    #[test]
    fn justification_window() {
        let lines = vec![
            "// relaxed: counter only",
            "",
            "x.fetch_add(1, Ordering::Relaxed);",
        ];
        assert!(justified(&lines, 2, "relaxed:"));
        let far: Vec<&str> = std::iter::once("// relaxed: too far")
            .chain(std::iter::repeat_n("", JUSTIFY_WINDOW + 1))
            .chain(std::iter::once("x.load(Ordering::Relaxed);"))
            .collect();
        assert!(!justified(&far, far.len() - 1, "relaxed:"));
    }

    #[test]
    fn core_files_are_length_capped() {
        let root = Path::new("/ws");
        let long = "fn f() {}\n".repeat(CORE_FILE_LINE_LIMIT + 1);
        let mut findings = Vec::new();
        lint_file(
            root,
            &root.join("crates/core/src/manager/mod.rs"),
            &long,
            &mut findings,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "length");
        // At the limit, and outside crates/core/src, nothing fires.
        findings.clear();
        let at_limit = "fn f() {}\n".repeat(CORE_FILE_LINE_LIMIT);
        lint_file(
            root,
            &root.join("crates/core/src/pool.rs"),
            &at_limit,
            &mut findings,
        );
        lint_file(
            root,
            &root.join("crates/txn/src/wal.rs"),
            &long,
            &mut findings,
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn page_bytes_are_touched_only_in_node_rs() {
        let root = Path::new("/ws");
        let text = "let k = node.guard.read_u64(8)?;\n\
                    guard.write(0, &line)?; // header\n\
                    let v = self.root.read(); // a lock, not a page\n\
                    #[cfg(test)]\n\
                    guard.read(0, &mut buf).unwrap();\n";
        let mut findings = Vec::new();
        lint_file(
            root,
            &root.join("crates/index/src/tree.rs"),
            text,
            &mut findings,
        );
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "node-io"));
        assert_eq!((findings[0].line, findings[1].line), (1, 2));
        // node.rs owns the accessors; other crates are out of scope.
        findings.clear();
        for file in ["crates/index/src/node.rs", "crates/txn/src/table.rs"] {
            lint_file(root, &root.join(file), text, &mut findings);
        }
        assert!(findings.is_empty());
    }

    #[test]
    fn the_index_keeps_no_per_page_table() {
        let root = Path::new("/ws");
        let text = "use spitfire_sync::{ConcurrentMap, VersionLatch};\n\
                    latches: HashMap<u64, Arc<VersionLatch>>,\n\
                    node.latch(VersionLatch::write_unlock); // the page's latch\n\
                    // a ConcurrentMap in a comment\n\
                    #[cfg(test)]\n\
                    let model: HashMap<u64, u64> = HashMap::new();\n";
        let mut findings = Vec::new();
        for file in ["crates/index/src/tree.rs", "crates/index/src/node.rs"] {
            lint_file(root, &root.join(file), text, &mut findings);
        }
        assert_eq!(findings.len(), 4);
        assert!(findings.iter().all(|f| f.rule == "index-state"));
        assert_eq!(findings.iter().filter(|f| f.line == 1).count(), 2);
        assert_eq!(findings.iter().filter(|f| f.line == 2).count(), 2);
        // The mapping table lives in core, where it is the design.
        findings.clear();
        lint_file(
            root,
            &root.join("crates/core/src/manager/mod.rs"),
            text,
            &mut findings,
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn dead_code_allowances_are_flagged_outside_tests() {
        let root = Path::new("/ws");
        let text = "#[allow(dead_code)]\n\
                    pub(crate) fn unused() {}\n\
                    #[cfg_attr(not(test), allow(dead_code))]\n\
                    // allow(dead_code) in a comment\n\
                    #[cfg(test)]\n\
                    #[allow(dead_code)]\n";
        let mut findings = Vec::new();
        for file in ["crates/core/src/pool.rs", "crates/device/src/dram.rs"] {
            lint_file(root, &root.join(file), text, &mut findings);
        }
        assert_eq!(findings.len(), 4);
        assert!(findings.iter().all(|f| f.rule == "dead-code"));
        assert!(findings.iter().all(|f| f.line == 1 || f.line == 3));
        // Integration tests and code outside a crate's src/ are out of scope.
        findings.clear();
        for file in ["crates/core/tests/stress.rs", "benchmark/src/main.rs"] {
            lint_file(root, &root.join(file), text, &mut findings);
        }
        assert!(findings.is_empty());
    }

    #[test]
    fn stray_baselines_and_inline_gates_are_flagged() {
        let names = [
            "BENCH_migration.json",
            "BENCH_server.json",
            "BENCHMARK.json",
        ];
        let ci = "jobs:\n  migration:\n    steps:\n      - run: |\n          python3 - <<'EOF'\n";
        let mut findings = Vec::new();
        lint_gates(&names.map(String::from), ci, &mut findings);
        assert!(findings.is_empty());

        let names = ["BENCH_regime.json".to_string()];
        let ci = "jobs:\n  migration:\n    steps: []\n  regime:\n    steps:\n      - run: |\n          python3 - <<'EOF'\n";
        lint_gates(&names, ci, &mut findings);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "gates"));
        assert_eq!(findings[1].line, 7);
        assert!(findings[1].message.contains("`regime`"));
    }

    #[test]
    fn crate_tables_name_exactly_the_packages() {
        let packages = ["spitfire-core".to_string(), "xtask".to_string()];
        let doc = "# T\n## Crates\n| Crate | Role |\n|---|---|\n\
                   | `crates/core` (`spitfire-core`) | buffer manager |\n\
                   | `crates/xtask` (`xtask`) | lints |\n## Next\n| `gone` | x |\n";
        let mut findings = Vec::new();
        lint_crate_table(&packages, "D.md", "## Crates", doc, &mut findings);
        assert!(
            findings.is_empty(),
            "rows past the section are not the table"
        );

        let stale = doc.replace(
            "`crates/xtask` (`xtask`)",
            "`crates/snap` (`spitfire-snap`)",
        );
        lint_crate_table(&packages, "D.md", "## Crates", &stale, &mut findings);
        let messages: Vec<(usize, &str)> = findings
            .iter()
            .map(|f| (f.line, f.message.as_str()))
            .collect();
        assert_eq!(
            messages,
            [
                (6, "names `spitfire-snap`, not a package under crates/"),
                (2, "crate table lacks `xtask`"),
            ]
        );
        lint_crate_table(&packages, "D.md", "## Elsewhere", doc, &mut findings);
        assert_eq!(findings.len(), 4, "no section: both packages lacking");
        assert!(findings.iter().all(|f| f.rule == "crates"));
    }

    #[test]
    fn crates_inherit_the_workspace_rust_version() {
        let good = "[package]\nname = \"a\"\nrust-version.workspace = true\n\n[dependencies]\n";
        let mut findings = Vec::new();
        lint_msrv(Path::new("a/Cargo.toml"), good, &mut findings);
        assert!(findings.is_empty());

        let missing = "[package]\nname = \"b\"\nedition.workspace = true\n";
        let elsewhere = "[package]\nname = \"c\"\n[lints]\nrust-version.workspace = true\n";
        lint_msrv(Path::new("b/Cargo.toml"), missing, &mut findings);
        lint_msrv(Path::new("c/Cargo.toml"), elsewhere, &mut findings);
        let files: Vec<&Path> = findings.iter().map(|f| f.file.as_path()).collect();
        assert_eq!(
            files,
            [Path::new("b/Cargo.toml"), Path::new("c/Cargo.toml")]
        );
        assert!(findings.iter().all(|f| f.rule == "msrv"));
    }

    #[test]
    fn comments_do_not_trip_code_rules() {
        assert_eq!(
            code_part("x.load(o); // Ordering::Relaxed mention"),
            "x.load(o); "
        );
        assert!(!code_part("// unsafe in a comment").contains("unsafe"));
    }
}
