//! Parallel-safety auditor: source concurrency lints (`P0xx`) and the
//! static reduction-schedule certifier (`P010`).
//!
//! The determinism auditor (`crate::det`) proves single-thread runs are
//! bit-reproducible; this module is its multi-core counterpart. It has
//! two layers:
//!
//! **Layer 1 — concurrency lints**, token-level over the same
//! layout-preserving strip+lex infrastructure ([`crate::lexer`]):
//!
//! | code | finding |
//! |------|---------|
//! | P000 | `par-ok` allowlist annotation without a reason |
//! | P001 | `static mut` or shared static typed with interior mutability (`Cell`/`RefCell`/`UnsafeCell`/`Rc`) outside `thread_local!` |
//! | P002 | spawn closure capturing a name tainted as interior-mutable without synchronization |
//! | P003 | `Ordering::Relaxed` on an atomic that guards data (loads/stores/swaps of non-counter cells, any `compare_exchange`) |
//! | P004 | lock acquisition order that differs across functions (cycle in the workspace lock-order graph) |
//! | P005 | float accumulation (`sum`/`fold`/`product`/`+=`) inside a spawned closure, where join order is thread-dependent |
//! | P006 | channel/`Mutex`/`RwLock`/`Condvar`/`Barrier` inside the tape hot path — kernels must be fork-join with a declared schedule |
//! | P009 | stale `par-ok` annotation that no longer matches any finding |
//!
//! **Layer 2 — the schedule certifier** ([`certify`]): every parallel
//! kernel declares a [`tensor::sched::ReductionSchedule`] (split axis,
//! chunk ranges, fixed binary join tree). The certifier replays the tree
//! *symbolically* against the canonical per-`OpKind` accumulation order
//! declared in [`crate::order`]: reductions become expression trees over
//! abstract contributions, the sequential order is the left fold in
//! ascending-`k` order, and a schedule certifies only if its combined
//! expression is structurally identical to the sequential one — f32
//! addition is not associative, so structural identity is the only
//! grouping that is *bit*-equal (`(a+b)+c ≠ a+(b+c)` in ULPs, and even
//! `0.0 + x` is not an identity for `x = -0.0`). Splits along `m`/`n`
//! never chop a reduction chain, so they certify for any join tree;
//! splits along `k` fragment every chain into per-worker partial sums
//! whose re-combination is a reassociation, and the certifier rejects
//! them naming the first diverging contribution. Failures become `P010`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use tensor::sched::{JoinTree, ReductionSchedule, SplitAxis};

use crate::det::SourceFinding;
use crate::lexer::{drop_test_modules_spanned, is_ident, strip_and_lex};
use crate::suppress::Suppressions;

/// Tally of parallel-safety findings across a whole audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParCounts {
    pub files: usize,
    pub suppressed: usize,
    pub p000: usize,
    pub p001: usize,
    pub p002: usize,
    pub p003: usize,
    pub p004: usize,
    pub p005: usize,
    pub p006: usize,
    /// Stale `par-ok` annotations (allowlist rot).
    pub p009: usize,
    /// Schedule-certification failures folded in by `par_audit`.
    pub p010: usize,
}

impl ParCounts {
    /// Records one source finding (suppressed findings count separately).
    pub fn record(&mut self, finding: &SourceFinding) {
        if finding.suppressed.is_some() {
            self.suppressed += 1;
            return;
        }
        match finding.code {
            "P000" => self.p000 += 1,
            "P001" => self.p001 += 1,
            "P002" => self.p002 += 1,
            "P003" => self.p003 += 1,
            "P004" => self.p004 += 1,
            "P005" => self.p005 += 1,
            "P006" => self.p006 += 1,
            "P009" => self.p009 += 1,
            other => panic!("unknown parallel-safety code {other}"),
        }
    }

    /// Records one schedule-certification failure (`P010`).
    pub fn record_schedule(&mut self, code: &str) {
        match code {
            "P010" => self.p010 += 1,
            other => panic!("unknown schedule certification code {other}"),
        }
    }

    /// Findings that fail the audit (suppressed ones do not).
    pub fn unsuppressed(&self) -> usize {
        self.p000
            + self.p001
            + self.p002
            + self.p003
            + self.p004
            + self.p005
            + self.p006
            + self.p009
            + self.p010
    }
}

impl fmt::Display for ParCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} files | P001:{} P002:{} P003:{} P004:{} P005:{} P006:{} P009:{} P010:{} | \
             {} allowed (par-ok), {} unreasoned (P000)",
            self.files,
            self.p001,
            self.p002,
            self.p003,
            self.p004,
            self.p005,
            self.p006,
            self.p009,
            self.p010,
            self.suppressed,
            self.p000,
        )
    }
}

/// Per-file scan options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParScanOptions {
    /// Tape hot path (`crates/tensor/src`, the packed-batch decode step):
    /// blocking primitives are forbidden outright there (P006) — parallel
    /// kernels must be fork-join under a declared schedule.
    pub hot_path: bool,
}

/// Interior-mutability markers for P001/P002. `Rc` rides along: it is not
/// interior-mutable itself but is never `Send`/`Sync`, so sharing it with
/// a spawned closure is the same class of bug.
const INTERIOR_MUTABLE: &[&str] = &["Cell", "RefCell", "UnsafeCell", "OnceCell", "Rc"];

/// Blocking/queueing primitives forbidden in the hot path (P006).
const BLOCKING_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc", "channel"];

/// Atomic RMW methods that are order-insensitive counters by construction
/// (the add commutes); `Relaxed` is fine on these.
const COUNTER_RMW: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
];

/// Atomic methods where `Relaxed` is suspect unless the cell is a counter.
const GUARD_METHODS: &[&str] = &["load", "store", "swap", "fetch_update"];

/// Receiver-name fragments that mark an atomic as a statistics counter
/// (monotonic, order-insensitive) rather than a data guard.
const COUNTER_NAMES: &[&str] = &[
    "count", "counter", "total", "seq", "tick", "hits", "misses", "bytes", "calls", "dropped",
    "epoch",
];

/// Type-path tokens skipped when walking left from an interior-mutable
/// type to the name it declares.
const TYPE_WRAPPERS: &[&str] = &[
    "<", "Vec", "Option", "Box", "Arc", "Rc", "std", "cell", "rc", "sync", "::", "&", "'", "mut",
];

/// Names in one file declared with interior-mutable types — the taint set
/// P002 checks spawn closures against.
fn collect_interior_mutable_names(texts: &[&str]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..texts.len() {
        if !INTERIOR_MUTABLE.contains(&texts[i]) {
            continue;
        }
        let mut j = i;
        while j > 0 && TYPE_WRAPPERS.contains(&texts[j - 1]) {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        match texts[j - 1] {
            // `name: RefCell<…>` — struct field, fn arg, or typed let/static.
            ":" if j >= 2 && is_ident(texts[j - 2]) => {
                names.insert(texts[j - 2].to_string());
            }
            // `let [mut] name = RefCell::new(…)`.
            "=" => {
                let mut k = j - 1;
                while k > 0 && !is_ident(texts[k - 1]) && texts[k - 1] != "let" {
                    k -= 1;
                }
                if k >= 2 && is_ident(texts[k - 1]) {
                    let name = texts[k - 1];
                    let kw = texts[k - 2];
                    if kw == "let" || (kw == "mut" && k >= 3 && texts[k - 3] == "let") {
                        names.insert(name.to_string());
                    }
                }
            }
            _ => {}
        }
    }
    names
}

/// Token-index ranges covered by `thread_local! { … }` invocations: the
/// statics inside are per-thread storage, not shared state, so P001 must
/// not fire on them.
fn thread_local_ranges(texts: &[&str]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 2 < texts.len() {
        if texts[i] == "thread_local" && texts[i + 1] == "!" {
            let mut j = i + 2;
            while j < texts.len() && texts[j] != "{" {
                j += 1;
            }
            let start = j;
            let mut depth = 0i32;
            while j < texts.len() {
                match texts[j] {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            ranges.push((start, j));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Token-index ranges of `spawn(…)` call arguments — the closures P002
/// and P005 inspect. Matches both `thread::spawn(…)` and scoped
/// `scope.spawn(…)`.
fn spawn_ranges(texts: &[&str]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for i in 0..texts.len() {
        if texts[i] != "spawn" || texts.get(i + 1) != Some(&"(") {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < texts.len() {
            match texts[j] {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        ranges.push((i + 1, j));
    }
    ranges
}

/// One directed lock-order edge: some function acquires `from` and then
/// `to` while scanning forward through its body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// 1-based line of the second acquisition.
    pub line: usize,
}

/// Collects the lock-order edges of one file: per function body, the
/// receiver sequence of `.lock(` / `.read(` / `.write(` calls, paired in
/// acquisition order. Token-level scanning cannot see guard drops, so
/// sequential (non-nested) acquisitions also produce edges — that is the
/// conservative direction: a cycle among them still means two functions
/// disagree about lock order.
pub fn collect_lock_edges(text: &str) -> Vec<LockEdge> {
    let stripped = strip_and_lex(text);
    let toks = crate::lexer::drop_test_modules(stripped.tokens);
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    let mut edges = Vec::new();
    let mut i = 0;
    while i < texts.len() {
        if texts[i] != "fn" {
            i += 1;
            continue;
        }
        // Find the function body (first brace after the signature).
        let mut j = i + 1;
        while j < texts.len() && texts[j] != "{" && texts[j] != ";" {
            j += 1;
        }
        if j >= texts.len() || texts[j] == ";" {
            i = j + 1;
            continue;
        }
        let body_start = j;
        let mut depth = 0i32;
        while j < texts.len() {
            match texts[j] {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let body_end = j;
        let mut acquired: Vec<(String, usize)> = Vec::new();
        for t in body_start..body_end {
            if texts[t] == "lock"
                && t >= 2
                && texts[t - 1] == "."
                && texts.get(t + 1) == Some(&"(")
                && is_ident(texts[t - 2])
            {
                acquired.push((texts[t - 2].to_string(), toks[t].line));
            }
        }
        for pair in acquired.windows(2) {
            if pair[0].0 != pair[1].0 {
                edges.push(LockEdge {
                    from: pair[0].0.clone(),
                    to: pair[1].0.clone(),
                    line: pair[1].1,
                });
            }
        }
        i = body_end + 1;
    }
    edges
}

/// Workspace-wide lock-order context for P004: the set of edges that
/// participate in a cycle.
#[derive(Debug, Clone, Default)]
pub struct ParContext {
    pub cyclic_edges: BTreeSet<(String, String)>,
}

impl ParContext {
    /// Builds the context from every file's edges: an edge `a → b` is
    /// cyclic when `b` can reach `a` through the global edge set — i.e.
    /// some other code path acquires the same locks in the opposite
    /// order, which is the classic ABBA deadlock shape.
    pub fn from_edges(edges: &[LockEdge]) -> ParContext {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in edges {
            adj.entry(e.from.as_str())
                .or_default()
                .insert(e.to.as_str());
        }
        let reaches = |start: &str, goal: &str| -> bool {
            let mut seen = BTreeSet::new();
            let mut stack = vec![start];
            while let Some(node) = stack.pop() {
                if node == goal {
                    return true;
                }
                if !seen.insert(node) {
                    continue;
                }
                if let Some(next) = adj.get(node) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        };
        let mut cyclic = BTreeSet::new();
        for e in edges {
            if reaches(e.to.as_str(), e.from.as_str()) {
                cyclic.insert((e.from.clone(), e.to.clone()));
            }
        }
        ParContext {
            cyclic_edges: cyclic,
        }
    }
}

/// Scans one file for parallel-safety findings against the workspace-wide
/// lock-order context.
pub fn scan_par_source(
    file: &str,
    text: &str,
    ctx: &ParContext,
    opts: ParScanOptions,
) -> Vec<SourceFinding> {
    let stripped = strip_and_lex(text);
    let mut supp = Suppressions::from_stripped(&stripped, "par-ok");
    let (toks, test_spans) = drop_test_modules_spanned(stripped.tokens);
    supp.discard_lines_in(&test_spans);
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();

    let mut findings = Vec::new();

    // P000: allowlist annotations must carry a reason.
    for line in supp.missing_reason_lines() {
        findings.push(SourceFinding {
            code: "P000",
            file: file.to_string(),
            line,
            message: "par-ok annotation without a reason; write `par-ok: <why this \
                      site is thread-safe>`"
                .to_string(),
            suppressed: None,
        });
    }

    let mut push = |code: &'static str, line: usize, message: String| {
        let suppressed = supp.consume(line);
        findings.push(SourceFinding {
            code,
            file: file.to_string(),
            line,
            message,
            suppressed,
        });
    };

    let tl_ranges = thread_local_ranges(&texts);
    let in_thread_local = |i: usize| {
        tl_ranges
            .iter()
            .any(|&(start, end)| (start..=end).contains(&i))
    };

    // P001: `static mut` and interior-mutable shared statics.
    for i in 0..toks.len() {
        if texts[i] != "static" || (i > 0 && texts[i - 1] == "'") || in_thread_local(i) {
            continue;
        }
        if texts.get(i + 1) == Some(&"mut") {
            let name = texts.get(i + 2).copied().unwrap_or("?");
            push(
                "P001",
                toks[i].line,
                format!(
                    "`static mut {name}`: unsynchronized shared mutable state; use an \
                     atomic, a lock, or thread_local!"
                ),
            );
            continue;
        }
        // Walk the declared type (after `:`, up to `=` or `;`).
        let mut j = i + 1;
        while j < texts.len() && texts[j] != ":" && texts[j] != ";" && texts[j] != "=" {
            j += 1;
        }
        if j >= texts.len() || texts[j] != ":" {
            continue;
        }
        let name = texts.get(i + 1).copied().unwrap_or("?");
        let mut t = j + 1;
        while t < texts.len() && texts[t] != "=" && texts[t] != ";" {
            if INTERIOR_MUTABLE.contains(&texts[t]) {
                push(
                    "P001",
                    toks[i].line,
                    format!(
                        "shared static `{name}` typed with non-Sync interior mutability \
                         (`{}`); use an atomic, a lock, or thread_local!",
                        texts[t]
                    ),
                );
                break;
            }
            t += 1;
        }
    }

    // P002 / P005: spawn-closure captures and float accumulation.
    let tainted = collect_interior_mutable_names(&texts);
    for (start, end) in spawn_ranges(&texts) {
        for i in start..end {
            if tainted.contains(texts[i]) {
                push(
                    "P002",
                    toks[i].line,
                    format!(
                        "spawned closure captures `{}`, declared with interior \
                         mutability but no synchronization; wrap it in a lock or keep \
                         it thread-local",
                        texts[i]
                    ),
                );
            }
            let is_float_reduce = ["sum", "fold", "product"].contains(&texts[i])
                && i > 0
                && texts[i - 1] == "."
                && texts.get(i + 1).is_some_and(|t| *t == "(" || *t == "::");
            if is_float_reduce || texts[i] == "+=" {
                push(
                    "P005",
                    toks[i].line,
                    format!(
                        "accumulation (`{}`) inside a spawned closure: per-thread \
                         partial results join in thread-completion order, which is \
                         not bit-reproducible; accumulate on the spawning thread \
                         under a certified schedule instead",
                        texts[i]
                    ),
                );
            }
        }
    }

    // P003: Relaxed ordering on atomics that guard data. One finding per
    // call site: `compare_exchange` passes two orderings, so dedupe on
    // the enclosing call's opening paren.
    let mut p003_sites = BTreeSet::new();
    for i in 0..toks.len() {
        if texts[i] != "Relaxed" || i < 2 || texts[i - 1] != "::" || texts[i - 2] != "Ordering" {
            continue;
        }
        // Walk left to the opening paren of the enclosing call, then read
        // `receiver . method (`.
        let mut depth = 0i32;
        let mut open = None;
        let mut j = i;
        while j > 0 {
            j -= 1;
            match texts[j] {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth < 0 {
                        open = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        if !p003_sites.insert(open) {
            continue;
        }
        let method = if open >= 1 { texts[open - 1] } else { "" };
        let receiver = if open >= 3 && texts[open - 2] == "." {
            texts[open - 3]
        } else {
            ""
        };
        if COUNTER_RMW.contains(&method) {
            continue; // commutative RMW: order cannot change the final value
        }
        let is_counter = COUNTER_NAMES
            .iter()
            .any(|frag| receiver.to_ascii_lowercase().contains(frag));
        if method.starts_with("compare_exchange") {
            push(
                "P003",
                toks[i].line,
                format!(
                    "`{receiver}.{method}` with Ordering::Relaxed: CAS loops \
                     coordinate ownership and need acquire/release edges"
                ),
            );
        } else if GUARD_METHODS.contains(&method) && !is_counter {
            push(
                "P003",
                toks[i].line,
                format!(
                    "`{receiver}.{method}` with Ordering::Relaxed: this atomic \
                     guards data, not a counter — unsynchronized readers may see \
                     stale state; use Acquire/Release or name it as a counter"
                ),
            );
        }
    }

    // P004: lock-order edges that participate in a workspace cycle.
    for edge in collect_lock_edges(text) {
        if ctx
            .cyclic_edges
            .contains(&(edge.from.clone(), edge.to.clone()))
        {
            push(
                "P004",
                edge.line,
                format!(
                    "lock order `{}` → `{}` conflicts with another code path \
                     acquiring them in the opposite order (ABBA deadlock); pick one \
                     global order",
                    edge.from, edge.to
                ),
            );
        }
    }

    // P006: blocking primitives in the tape hot path.
    if opts.hot_path {
        for i in 0..toks.len() {
            if BLOCKING_PRIMITIVES.contains(&texts[i])
                && texts
                    .get(i + 1)
                    .is_some_and(|t| *t == "::" || *t == "<" || *t == "(")
            {
                push(
                    "P006",
                    toks[i].line,
                    format!(
                        "`{}` in the tape hot path: kernels must be fork-join under \
                         a certified ReductionSchedule, never lock- or \
                         channel-synchronized",
                        texts[i]
                    ),
                );
            }
        }
    }

    // P009: reasoned annotations nothing consumed — the stale allowlist.
    for line in supp.stale_lines() {
        findings.push(SourceFinding {
            code: "P009",
            file: file.to_string(),
            line,
            message: "stale par-ok suppression: no parallel-safety finding on this or \
                      the following line; remove the annotation or re-audit the site"
                .to_string(),
            suppressed: None,
        });
    }

    findings.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    findings
}

/// The outcome of a workspace parallel-safety sweep.
#[derive(Debug, Clone, Default)]
pub struct ParAudit {
    /// Unsuppressed findings — any entry here fails the audit.
    pub findings: Vec<SourceFinding>,
    /// `par-ok`-allowlisted findings, kept visible in reports.
    pub allowed: Vec<SourceFinding>,
    pub counts: ParCounts,
}

/// Sweeps every `crates/*/src/**/*.rs` (plus the workspace root `src/`)
/// under `root`: pass 1 builds the workspace lock-order graph, pass 2
/// lints each file against it.
pub fn audit_par_sources(root: &Path) -> std::io::Result<ParAudit> {
    let sources = crate::lexer::workspace_sources(root)?;

    let mut all_edges = Vec::new();
    for (_, text) in &sources {
        all_edges.extend(collect_lock_edges(text));
    }
    let ctx = ParContext::from_edges(&all_edges);

    let mut audit = ParAudit::default();
    for (rel, text) in &sources {
        let opts = ParScanOptions {
            hot_path: rel.starts_with("crates/tensor/src/") || rel == "crates/nn/src/batch.rs",
        };
        for finding in scan_par_source(rel, text, &ctx, opts) {
            audit.counts.record(&finding);
            if finding.suppressed.is_some() {
                audit.allowed.push(finding);
            } else {
                audit.findings.push(finding);
            }
        }
        audit.counts.files += 1;
    }
    Ok(audit)
}

// ---------------------------------------------------------------------------
// Layer 2: the static schedule certifier.
// ---------------------------------------------------------------------------

/// Proof that a schedule's combined reduction order is bit-equivalent to
/// the canonical sequential order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    pub kernel: &'static str,
    pub shape: (usize, usize, usize),
    pub workers: usize,
    /// The canonical order (from [`crate::order::spec`]) the schedule was
    /// proven equivalent to.
    pub canonical: &'static str,
    /// Why the equivalence holds.
    pub argument: String,
}

/// Why a schedule failed certification. Rendered as a `P010` finding by
/// `par_audit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRejection {
    pub kernel: &'static str,
    pub shape: (usize, usize, usize),
    pub reason: String,
}

impl fmt::Display for ScheduleRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, k, n) = self.shape;
        write!(
            f,
            "error[P010] schedule {} ({m}x{k}x{n}): {}",
            self.kernel, self.reason
        )
    }
}

/// Symbolic reduction expression over abstract contributions: the value
/// of one output element as a tree of f32 additions. Structural equality
/// is bit-equality — f32 `+` is commutative here only in the trivial
/// sense that we never commute; any regrouping changes rounding.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expr {
    /// The zero-initialized accumulator a reduction starts from.
    Zero,
    /// The `i`-th contribution along the reduction axis (`a[i]·b[i]`).
    Contrib(usize),
    /// `left + right`, evaluated left-to-right.
    Add(Box<Expr>, Box<Expr>),
}

/// The canonical sequential reduction: a left fold of contributions
/// `lo..hi` in ascending order into a zero-initialized accumulator.
fn left_fold(lo: usize, hi: usize) -> Expr {
    let mut acc = Expr::Zero;
    for i in lo..hi {
        acc = Expr::Add(Box::new(acc), Box::new(Expr::Contrib(i)));
    }
    acc
}

/// The expression a schedule actually computes for one output element
/// under a `k`-axis split: each worker left-folds its own chunk from a
/// fresh zero accumulator, then the join tree adds the partial sums.
fn schedule_expr(chunks: &[(usize, usize)], join: &JoinTree) -> Expr {
    match join {
        JoinTree::Leaf(c) => {
            let (lo, hi) = chunks[*c];
            left_fold(lo, hi)
        }
        JoinTree::Node(l, r) => Expr::Add(
            Box::new(schedule_expr(chunks, l)),
            Box::new(schedule_expr(chunks, r)),
        ),
    }
}

/// Records, for every contribution, the *accumulation context* it is
/// added into: how many zero-initialized accumulators and which other
/// contributions are already folded in to its left at that moment.
/// Returns `(zeros, contribs)` contained in `e`.
fn contexts(
    e: &Expr,
    left_zeros: usize,
    left_set: &BTreeSet<usize>,
    out: &mut BTreeMap<usize, (usize, BTreeSet<usize>)>,
) -> (usize, BTreeSet<usize>) {
    match e {
        Expr::Zero => (1, BTreeSet::new()),
        Expr::Contrib(i) => {
            out.insert(*i, (left_zeros, left_set.clone()));
            (0, BTreeSet::from([*i]))
        }
        Expr::Add(l, r) => {
            let (lz, ls) = contexts(l, left_zeros, left_set, out);
            let mut right_left = left_set.clone();
            right_left.extend(ls.iter().copied());
            let (rz, rs) = contexts(r, left_zeros + lz, &right_left, out);
            let mut all = ls;
            all.extend(rs);
            (lz + rz, all)
        }
    }
}

/// First contribution whose accumulation context diverges from the
/// canonical sequential left fold, or `None` if the schedule replays it
/// exactly. Sequential context for contribution `i` is one accumulator
/// and exactly `{0..i}` to its left; a fresh per-worker partial sum shows
/// up as a second zero accumulator in the context of the first
/// contribution that lands in it.
fn first_divergence(k: usize, scheduled: &Expr) -> Option<usize> {
    let mut ctxs = BTreeMap::new();
    contexts(scheduled, 0, &BTreeSet::new(), &mut ctxs);
    for i in 0..k {
        let expected: BTreeSet<usize> = (0..i).collect();
        match ctxs.get(&i) {
            Some((zeros, set)) if *zeros == 1 && *set == expected => {}
            _ => return Some(i),
        }
    }
    None
}

/// Certifies that executing `schedule` is bit-equivalent to the canonical
/// sequential kernel, or explains exactly where the orders diverge.
pub fn certify(schedule: &ReductionSchedule) -> Result<Certificate, ScheduleRejection> {
    let reject = |reason: String| ScheduleRejection {
        kernel: schedule.kernel,
        shape: schedule.shape,
        reason,
    };

    // The chunks must tile the split axis: contiguous, ascending,
    // non-empty, covering `[0, len)`.
    let len = schedule.axis_len();
    if schedule.chunks.is_empty() {
        return Err(reject("schedule declares no chunks".to_string()));
    }
    let mut expect = 0usize;
    for &(lo, hi) in &schedule.chunks {
        if lo != expect || hi <= lo {
            return Err(reject(format!(
                "chunks must be contiguous ascending non-empty ranges; found \
                 [{lo}, {hi}) where [{expect}, …) was expected"
            )));
        }
        expect = hi;
    }
    if expect != len {
        return Err(reject(format!(
            "chunks cover [0, {expect}) but the {} axis has length {len}",
            schedule.split.as_str()
        )));
    }

    // The join tree must reference each chunk exactly once.
    let leaves = schedule.join.leaves();
    let mut seen = vec![false; schedule.chunks.len()];
    for &leaf in &leaves {
        if leaf >= seen.len() || seen[leaf] {
            return Err(reject(format!(
                "join tree references chunk {leaf} {}",
                if leaf >= seen.len() {
                    "which does not exist"
                } else {
                    "more than once"
                }
            )));
        }
        seen[leaf] = true;
    }
    if leaves.len() != schedule.chunks.len() {
        return Err(reject(format!(
            "join tree combines {} chunks but {} are declared",
            leaves.len(),
            schedule.chunks.len()
        )));
    }

    let canonical = crate::order::matmul_canonical_order(schedule.orient);
    let (_, k, _) = schedule.shape;

    match schedule.split {
        // Output-axis splits never break a reduction chain: every C[i,j]
        // keeps its full ascending-k fold inside exactly one worker, and
        // workers write disjoint outputs, so join order is irrelevant to
        // the bits.
        SplitAxis::M | SplitAxis::N => Ok(Certificate {
            kernel: schedule.kernel,
            shape: schedule.shape,
            workers: schedule.chunks.len(),
            canonical,
            argument: format!(
                "split along output axis `{}`: each output element's full \
                 ascending-k reduction chain stays inside one worker, outputs are \
                 disjoint, so any join order is bit-equal to sequential",
                schedule.split.as_str()
            ),
        }),
        // A k-split fragments every reduction chain into per-worker
        // partial sums. Replay the join symbolically and demand structural
        // identity with the sequential left fold.
        SplitAxis::K => {
            let sched = schedule_expr(&schedule.chunks, &schedule.join);
            match first_divergence(k, &sched) {
                None => Ok(Certificate {
                    kernel: schedule.kernel,
                    shape: schedule.shape,
                    workers: schedule.chunks.len(),
                    canonical,
                    argument: "k-split join tree replays the exact sequential left \
                               fold"
                        .to_string(),
                }),
                Some(i) => Err(reject(format!(
                    "k-axis split is not bit-equivalent to the canonical \
                     '{canonical}' order: first diverging reduction at contribution \
                     k={i}, which is grouped into a separate partial sum instead of \
                     folding into the running accumulator (f32 addition is not \
                     associative; even a zero-initialized partial changes -0.0 \
                     handling)"
                ))),
            }
        }
    }
}

/// Certifies every schedule the dispatch layer declares for the given
/// launch shapes and worker counts — the sweep `par_audit` runs and CI
/// gates on.
pub fn certify_declared(
    shapes: &[(usize, usize, usize)],
    worker_counts: &[usize],
) -> Vec<Result<Certificate, ScheduleRejection>> {
    let mut out = Vec::new();
    for &(m, k, n) in shapes {
        for &w in worker_counts {
            for schedule in tensor::sched::declared_schedules(m, k, n, w) {
                out.push(certify(&schedule));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::MmOrient;

    fn scan(text: &str) -> Vec<SourceFinding> {
        let ctx = ParContext::from_edges(&collect_lock_edges(text));
        scan_par_source("test.rs", text, &ctx, ParScanOptions::default())
    }

    fn scan_hot(text: &str) -> Vec<SourceFinding> {
        let ctx = ParContext::from_edges(&collect_lock_edges(text));
        scan_par_source("test.rs", text, &ctx, ParScanOptions { hot_path: true })
    }

    fn unsuppressed(text: &str) -> Vec<SourceFinding> {
        scan(text)
            .into_iter()
            .filter(|f| f.suppressed.is_none())
            .collect()
    }

    #[test]
    fn p001_static_mut_and_interior_mutability() {
        let f = unsuppressed("static mut COUNTER: usize = 0;");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "P001");

        let f = unsuppressed("static CACHE: RefCell<Vec<u32>> = RefCell::new(Vec::new());");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "P001");
        assert!(f[0].message.contains("CACHE"));
    }

    #[test]
    fn p001_allows_sync_statics_and_thread_local() {
        let src = "
            static ENABLED: AtomicBool = AtomicBool::new(false);
            static TABLE: Mutex<Vec<u32>> = Mutex::new(Vec::new());
            thread_local! {
                static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
            }
            fn f(x: &'static str) -> &'static str { x }
        ";
        assert!(unsuppressed(src).is_empty(), "{:?}", unsuppressed(src));
    }

    #[test]
    fn p002_spawn_capturing_interior_mutable_state() {
        let src = "
            fn f() {
                let shared = RefCell::new(0u32);
                std::thread::spawn(move || {
                    shared.borrow_mut();
                });
            }
        ";
        let f = unsuppressed(src);
        assert!(f.iter().any(|f| f.code == "P002"), "{f:?}");
        assert!(f[0].message.contains("shared"));
    }

    #[test]
    fn p003_relaxed_on_data_guard_but_not_counters() {
        let flagged = "
            fn f() {
                let ready = READY.load(Ordering::Relaxed);
                STATE.store(1, Ordering::Relaxed);
                SLOT.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
            }
        ";
        let f = unsuppressed(flagged);
        assert_eq!(f.iter().filter(|f| f.code == "P003").count(), 3, "{f:?}");

        let clean = "
            fn f() {
                HITS.fetch_add(1, Ordering::Relaxed);
                let n = step_count.load(Ordering::Relaxed);
                total_bytes.store(n, Ordering::Relaxed);
            }
        ";
        assert!(unsuppressed(clean).is_empty(), "{:?}", unsuppressed(clean));
    }

    #[test]
    fn p004_abba_lock_order_cycle() {
        let src = "
            fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
                let x = a.lock().unwrap();
                let y = b.lock().unwrap();
            }
            fn ba(a: &Mutex<u32>, b: &Mutex<u32>) {
                let y = b.lock().unwrap();
                let x = a.lock().unwrap();
            }
        ";
        let f = unsuppressed(src);
        assert_eq!(f.iter().filter(|f| f.code == "P004").count(), 2, "{f:?}");
        assert!(f[0].message.contains("opposite order"));
    }

    #[test]
    fn p004_consistent_order_is_clean() {
        let src = "
            fn one(a: &Mutex<u32>, b: &Mutex<u32>) {
                let x = a.lock().unwrap();
                let y = b.lock().unwrap();
            }
            fn two(a: &Mutex<u32>, b: &Mutex<u32>) {
                let x = a.lock().unwrap();
                let y = b.lock().unwrap();
            }
        ";
        assert!(unsuppressed(src).is_empty());
    }

    #[test]
    fn p005_float_accumulation_in_spawn() {
        let src = "
            fn f(xs: Vec<f32>) {
                std::thread::spawn(move || {
                    let total: f32 = xs.iter().sum();
                    total
                });
            }
        ";
        let f = unsuppressed(src);
        assert!(f.iter().any(|f| f.code == "P005"), "{f:?}");
    }

    #[test]
    fn p006_blocking_primitives_only_in_hot_path() {
        let src = "
            fn f() {
                let m = Mutex::new(0u32);
                let (tx, rx) = std::sync::mpsc::channel::<u32>();
            }
        ";
        assert!(unsuppressed(src).is_empty(), "cold path allows Mutex");
        let f: Vec<SourceFinding> = scan_hot(src)
            .into_iter()
            .filter(|f| f.suppressed.is_none())
            .collect();
        assert!(
            f.iter().filter(|f| f.code == "P006").count() >= 2,
            "hot path forbids Mutex and channels: {f:?}"
        );
    }

    #[test]
    fn p000_reasonless_and_p009_stale_annotations() {
        let f = unsuppressed("fn f() { let x = 1; } // par-ok");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "P000");

        let f = unsuppressed("fn f() { let x = 1; } // par-ok: nothing here anymore");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "P009");
    }

    #[test]
    fn par_ok_with_reason_suppresses() {
        let src = "
            fn f() {
                // par-ok: config cell read once at startup, never raced
                let ready = READY.load(Ordering::Relaxed);
            }
        ";
        let all = scan(src);
        assert_eq!(all.len(), 1, "{all:?}");
        assert!(all[0].suppressed.is_some());
        assert!(unsuppressed(src).is_empty());
    }

    // -- certifier ---------------------------------------------------------

    fn m_split(workers: usize) -> ReductionSchedule {
        tensor::sched::declared_schedules(65, 130, 257, workers)
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn m_split_schedules_certify_for_all_shape_classes() {
        let shapes = [(1, 1, 1), (3, 63, 5), (7, 64, 129), (65, 130, 257)];
        for result in certify_declared(&shapes, &[1, 2, 4, 8]) {
            let cert = result.expect("declared M-split schedules must certify");
            assert!(!cert.canonical.is_empty());
            assert!(cert.argument.contains("ascending-k"));
        }
    }

    #[test]
    fn k_split_left_comb_is_rejected_as_partial_sum_regrouping() {
        let mut s = m_split(2);
        s.split = SplitAxis::K;
        s.chunks = vec![(0, 65), (65, 130)];
        s.join = JoinTree::left_spine(2);
        let err = certify(&s).expect_err("k-split partial sums are never bit-equal");
        assert!(err.reason.contains("k=65"), "{}", err.reason);
        assert!(
            err.reason.contains("first diverging reduction"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn k_split_planted_inside_an_mm_nn_tile_is_rejected() {
        let mut tile = tensor::sched::declared_schedules(8, 96, 1883, 1)
            .into_iter()
            .find(|s| s.kernel == "mm_nn.cols")
            .unwrap();
        certify(&tile).expect("the declared column tiling certifies");
        // A tile that restarts its accumulators every 64 contributions
        // and adds the partial sums afterwards.
        tile.split = SplitAxis::K;
        tile.chunks = vec![(0, 64), (64, 96)];
        tile.join = JoinTree::left_spine(2);
        let err = certify(&tile).expect_err("a k-split tile must be rejected");
        assert!(err.reason.contains("k=64"), "{}", err.reason);
        assert!(err
            .to_string()
            .starts_with("error[P010] schedule mm_nn.cols"));
    }

    #[test]
    fn deliberately_reassociated_join_tree_is_rejected_naming_the_divergence() {
        // A balanced tree over four k-chunks: (S0 ⊕ S1) ⊕ (S2 ⊕ S3).
        // Sequential order folds contribution 33 into the running
        // accumulator; this tree groups it into a separate partial first.
        let mut s = m_split(4);
        s.split = SplitAxis::K;
        s.chunks = vec![(0, 33), (33, 66), (66, 98), (98, 130)];
        s.join = JoinTree::Node(
            Box::new(JoinTree::Node(
                Box::new(JoinTree::Leaf(0)),
                Box::new(JoinTree::Leaf(1)),
            )),
            Box::new(JoinTree::Node(
                Box::new(JoinTree::Leaf(2)),
                Box::new(JoinTree::Leaf(3)),
            )),
        );
        let err = certify(&s).expect_err("reassociated tree must be rejected");
        assert!(err.reason.contains("k=33"), "{}", err.reason);
        assert!(err.to_string().contains("P010"));
    }

    #[test]
    fn malformed_tilings_and_trees_are_rejected() {
        let mut s = m_split(2);
        s.chunks = vec![(0, 30), (40, 65)]; // gap
        assert!(certify(&s).is_err());

        let mut s = m_split(2);
        s.chunks = vec![(0, 30), (30, 60)]; // short of m=65
        assert!(certify(&s).is_err());

        let mut s = m_split(2);
        s.join = JoinTree::Node(
            Box::new(JoinTree::Leaf(0)),
            Box::new(JoinTree::Leaf(0)), // chunk 0 twice, chunk 1 never
        );
        assert!(certify(&s).is_err());
    }

    #[test]
    fn single_chunk_k_split_is_the_degenerate_sequential_case() {
        let mut s = m_split(1);
        s.split = SplitAxis::K;
        s.chunks = vec![(0, 130)];
        s.join = JoinTree::Leaf(0);
        let cert = certify(&s).expect("one k-chunk IS the sequential fold");
        assert_eq!(cert.workers, 1);
    }

    #[test]
    fn counts_tally_and_display() {
        let mut c = ParCounts::default();
        c.record(&SourceFinding {
            code: "P003",
            file: "x.rs".into(),
            line: 1,
            message: String::new(),
            suppressed: None,
        });
        c.record(&SourceFinding {
            code: "P001",
            file: "x.rs".into(),
            line: 2,
            message: String::new(),
            suppressed: Some("audited".into()),
        });
        c.record_schedule("P010");
        assert_eq!(c.unsuppressed(), 2);
        assert_eq!(c.suppressed, 1);
        let text = c.to_string();
        assert!(text.contains("P003:1"), "{text}");
        assert!(text.contains("P010:1"), "{text}");
    }

    #[test]
    fn certificate_cites_the_order_spec() {
        let cert = certify(&m_split(4)).unwrap();
        assert_eq!(
            cert.canonical,
            crate::order::matmul_canonical_order(MmOrient::Nn)
        );
        assert_eq!(cert.workers, 4);
    }
}
