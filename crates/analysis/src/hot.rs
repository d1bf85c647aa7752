//! Hot-path auditor: panic-freedom and allocation-discipline lints
//! (`H0xx`) over the serving engine's steady-state decode path.
//!
//! The determinism auditor (`crate::det`) proves runs are bit-reproducible
//! and the parallel auditor (`crate::par`) proves multi-core runs match;
//! this module polices a different axis: **liveness under load**. The
//! serving loop (`serve::engine` tick → `nn::batch` packed step → tensor
//! kernels) must neither panic on a bookkeeping divergence — a panic
//! aborts every in-flight request — nor allocate per tick, which caps
//! throughput at the allocator instead of the hardware.
//!
//! Unlike det/par, which sweep the whole workspace, this auditor runs
//! over an explicit **hot-path manifest** ([`HOT_MANIFEST`]): the files
//! that execute per serve tick, each with the set of *tick functions*
//! whose bodies form the steady state. Two scopes follow:
//!
//! * **file scope** (everything outside `#[cfg(test)]`): panics hidden
//!   behind `unwrap`/`expect` are a liability anywhere on the hot path —
//!   H001 fires file-wide.
//! * **tick scope** (the bodies of the manifest's tick functions):
//!   panic-family macros, unchecked indexing, heap allocation, and
//!   fallible casts are only forbidden where they run once per decoded
//!   token — H002–H005 fire there.
//!
//! | code | scope | finding |
//! |------|-------|---------|
//! | H000 | file  | `hot-ok` allowlist annotation without a reason |
//! | H001 | file  | `.unwrap()` / `.expect()` in hot-path non-test code |
//! | H002 | tick  | `panic!`/`unreachable!`/`assert!`-family macro in a steady-state tick function |
//! | H003 | tick  | direct slice indexing where a checked accessor exists |
//! | H004 | tick  | heap allocation per tick (`vec!`, `format!`, `collect`, `clone`, `to_vec`, `::new`/`::with_capacity` of a container) |
//! | H005 | tick  | fallible `as` cast feeding a capacity/length sink or a slice index |
//! | H009 | file  | stale `hot-ok` annotation that no longer matches any finding |
//!
//! Suppressions are `// hot-ok: <reason>` on the finding's line or the
//! line above; a reason is mandatory (H000) and unmatched annotations rot
//! loudly (H009). The static layer is paired with a dynamic witness: the
//! counting-allocator test (`crates/serve/tests/zero_alloc.rs`) runs the
//! real engine to steady state and certifies **zero** allocations per
//! decode tick, so a `hot-ok: warm-up only` claim on an H004 site is
//! checked at runtime, not just asserted in a comment.

use std::fmt;
use std::path::Path;

use crate::det::SourceFinding;
use crate::lexer::{drop_test_modules_spanned, is_ident, strip_and_lex};
use crate::suppress::Suppressions;

/// One manifest entry: a hot-path source file and the names of its
/// steady-state tick functions (bodies get the tick-scope lints).
#[derive(Debug, Clone, Copy)]
pub struct HotFile {
    /// Workspace-relative path, as `lexer::workspace_sources` reports it.
    pub file: &'static str,
    /// Functions whose bodies execute once per decode tick.
    pub tick_fns: &'static [&'static str],
}

/// The hot-path manifest: every file that executes per serve tick.
///
/// `serve::testing::ScriptedDecoder` is deliberately absent — it is a
/// test double that trades allocation for scriptability and never serves
/// traffic. Renaming or moving a manifest file fails the audit loudly
/// (the file read errors) instead of silently shrinking coverage.
pub const HOT_MANIFEST: &[HotFile] = &[
    HotFile {
        file: "crates/serve/src/engine.rs",
        tick_fns: &["tick", "tick_inner", "take_flight"],
    },
    HotFile {
        file: "crates/serve/src/queue.rs",
        tick_fns: &["pop", "expire"],
    },
    HotFile {
        file: "crates/nn/src/batch.rs",
        tick_fns: &[
            "step_packed",
            "step_packed_into",
            "linear_packed",
            "rms_norm_packed",
            "add_assign",
            "attend_row",
        ],
    },
    HotFile {
        file: "crates/nn/src/decode.rs",
        tick_fns: &["batched_decode_loop"],
    },
    HotFile {
        file: "crates/nn/src/prefix_cache.rs",
        tick_fns: &[],
    },
    HotFile {
        file: "crates/tensor/src/kernels.rs",
        tick_fns: &["mm_nn", "mm_nt", "softmax_rows"],
    },
    HotFile {
        file: "crates/tensor/src/kernels/avx2.rs",
        tick_fns: &["mm_nn", "mm_nn_avx2", "row_block", "tile", "column_tail"],
    },
];

/// Tally of hot-path findings across a whole audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCounts {
    pub files: usize,
    pub suppressed: usize,
    pub h000: usize,
    pub h001: usize,
    pub h002: usize,
    pub h003: usize,
    pub h004: usize,
    pub h005: usize,
    /// Stale `hot-ok` annotations (allowlist rot).
    pub h009: usize,
}

impl HotCounts {
    /// Records one source finding (suppressed findings count separately).
    pub fn record(&mut self, finding: &SourceFinding) {
        if finding.suppressed.is_some() {
            self.suppressed += 1;
            return;
        }
        match finding.code {
            "H000" => self.h000 += 1,
            "H001" => self.h001 += 1,
            "H002" => self.h002 += 1,
            "H003" => self.h003 += 1,
            "H004" => self.h004 += 1,
            "H005" => self.h005 += 1,
            "H009" => self.h009 += 1,
            other => panic!("unknown hot-path code {other}"),
        }
    }

    /// Findings that fail the audit (suppressed ones do not).
    pub fn unsuppressed(&self) -> usize {
        self.h000 + self.h001 + self.h002 + self.h003 + self.h004 + self.h005 + self.h009
    }
}

impl fmt::Display for HotCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} files | H001:{} H002:{} H003:{} H004:{} H005:{} H009:{} | \
             {} allowed (hot-ok), {} unreasoned (H000)",
            self.files,
            self.h001,
            self.h002,
            self.h003,
            self.h004,
            self.h005,
            self.h009,
            self.suppressed,
            self.h000,
        )
    }
}

/// Panic-family macros forbidden in tick scope (H002). `debug_assert*`
/// is deliberately absent: it compiles out of release builds, which is
/// exactly the sanctioned way to keep invariant teeth without a
/// production abort path.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Method calls that heap-allocate (H004) when they appear per tick.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_string", "to_owned", "clone"];

/// Container types whose `::new` / `::with_capacity` allocate (H004).
/// `with_capacity` counts too: *per-tick* capacity reservation is still a
/// per-tick allocation — reserve at admission and reuse.
const ALLOC_CONTAINERS: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Rc", "Arc",
];

/// Capacity/length sinks whose arguments must not contain fallible casts
/// (H005): a truncated cast here silently corrupts buffer sizing.
const CAPACITY_SINKS: &[&str] = &[
    "with_capacity",
    "resize",
    "reserve",
    "reserve_exact",
    "truncate",
    "set_len",
];

/// Cast targets that narrow on a 64-bit host (H005 in index brackets).
/// `as usize` is excluded: widening from the u32 token ids the decode
/// path carries cannot truncate there.
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Body token ranges `(start_brace, end_brace, fn_name)` of the manifest
/// tick functions. Trait method *declarations* (ending in `;`) have no
/// body and are skipped; same-named test helpers are gone before this
/// runs because the caller drops `#[cfg(test)]` modules first.
fn tick_fn_ranges<'a>(texts: &[&str], tick_fns: &[&'a str]) -> Vec<(usize, usize, &'a str)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < texts.len() {
        if texts[i] != "fn" {
            i += 1;
            continue;
        }
        let name = texts.get(i + 1).copied().unwrap_or("");
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
        if let Some(tick) = tick_fns.iter().find(|t| **t == name) {
            ranges.push((body_start, body_end, *tick));
        }
        i = body_end + 1;
    }
    ranges
}

/// One `ident[…]` index site: the receiver token index and the bracket
/// content range, plus what the content looks like.
struct IndexSite {
    recv: usize,
    content: (usize, usize),
    is_range: bool,
    is_literal: bool,
}

/// Collects every `ident[…]` site. Attribute brackets (`#[…]`), array
/// types/literals (`[f32; 4]`), and macro brackets (`vec![…]`) never
/// match: their `[` does not follow a plain identifier.
fn index_sites(texts: &[&str]) -> Vec<IndexSite> {
    let mut sites = Vec::new();
    for i in 0..texts.len() {
        if !is_ident(texts[i]) || texts.get(i + 1) != Some(&"[") {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < texts.len() {
            match texts[j] {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let content = (i + 2, j);
        let inner = &texts[content.0..content.1.min(texts.len())];
        sites.push(IndexSite {
            recv: i,
            content,
            is_range: inner.iter().any(|t| *t == ".." || *t == "..="),
            is_literal: inner.len() == 1 && inner[0].bytes().all(|b| b.is_ascii_digit()),
        });
    }
    sites
}

/// Argument-paren ranges of capacity-sink calls (`resize(…)` etc.).
fn sink_arg_ranges(texts: &[&str]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for i in 0..texts.len() {
        if !CAPACITY_SINKS.contains(&texts[i]) || texts.get(i + 1) != Some(&"(") {
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
        ranges.push((i + 2, j));
    }
    ranges
}

/// Scans one hot-path file. `tick_fns` names the steady-state functions
/// whose bodies get the tick-scope lints (H002–H005); H001 and the
/// suppression hygiene codes apply file-wide.
pub fn scan_hot_source(file: &str, text: &str, tick_fns: &[&str]) -> Vec<SourceFinding> {
    let stripped = strip_and_lex(text);
    let mut supp = Suppressions::from_stripped(&stripped, "hot-ok");
    let (toks, test_spans) = drop_test_modules_spanned(stripped.tokens);
    supp.discard_lines_in(&test_spans);
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();

    let mut findings = Vec::new();

    // H000: allowlist annotations must carry a reason.
    for line in supp.missing_reason_lines() {
        findings.push(SourceFinding {
            code: "H000",
            file: file.to_string(),
            line,
            message: "hot-ok annotation without a reason; write `hot-ok: <why this site \
                      cannot panic or allocate per tick>`"
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

    // H001 (file scope): unwrap/expect hide a panic behind a method call.
    // `unwrap_or` / `unwrap_or_else` / `unwrap_or_default` are distinct
    // tokens and do not match — they are the sanctioned replacements.
    for i in 0..toks.len() {
        if (texts[i] == "unwrap" || texts[i] == "expect")
            && i > 0
            && texts[i - 1] == "."
            && texts.get(i + 1) == Some(&"(")
        {
            push(
                "H001",
                toks[i].line,
                format!(
                    "`.{}()` on the hot path: a poisoned invariant becomes a \
                     process-killing panic that aborts every in-flight request; \
                     return a typed error (see serve::EngineError) or annotate the \
                     invariant argument",
                    texts[i]
                ),
            );
        }
    }

    let ticks = tick_fn_ranges(&texts, tick_fns);
    let tick_of = |i: usize| -> Option<&str> {
        ticks
            .iter()
            .find(|&&(start, end, _)| (start..=end).contains(&i))
            .map(|&(_, _, name)| name)
    };

    // H002 (tick scope): panic-family macros abort the whole batch.
    for i in 0..toks.len() {
        if !PANIC_MACROS.contains(&texts[i]) || texts.get(i + 1) != Some(&"!") {
            continue;
        }
        if let Some(name) = tick_of(i) {
            push(
                "H002",
                toks[i].line,
                format!(
                    "`{}!` inside steady-state tick fn `{name}`: a panic here aborts \
                     every in-flight request; pre-validate at admission, return a \
                     typed error, or demote to debug_assert!",
                    texts[i]
                ),
            );
        }
    }

    // H003 / H005-index (tick scope): direct indexing and narrowing casts
    // inside index brackets. Range slices (`a[lo..hi]`) and literal
    // indices (`a[0]`) are exempt from H003: the former fail as checked
    // slices, the latter are pinned by the surrounding shape contract.
    let sites = index_sites(&texts);
    for site in &sites {
        let Some(name) = tick_of(site.recv) else {
            continue;
        };
        if !site.is_range && !site.is_literal {
            push(
                "H003",
                toks[site.recv].line,
                format!(
                    "direct index `{}[…]` inside tick fn `{name}`: a bookkeeping bug \
                     becomes an abort; use `get`/`get_mut` so it degrades into a \
                     typed error instead",
                    texts[site.recv]
                ),
            );
        }
        // One finding per index site: a chained cast (`x as u32 as u16`)
        // is a single defect, not one per `as`.
        if let Some(j) = (site.content.0..site.content.1).find(|&j| {
            texts[j] == "as"
                && texts
                    .get(j + 1)
                    .is_some_and(|t| NARROWING_TARGETS.contains(t))
        }) {
            push(
                "H005",
                toks[j].line,
                format!(
                    "narrowing cast `as {}` inside an index expression in tick fn \
                     `{name}`: truncation silently redirects the access; use a \
                     checked conversion",
                    texts[j + 1]
                ),
            );
        }
    }

    // H004 (tick scope): per-tick heap allocation.
    for i in 0..toks.len() {
        let Some(name) = tick_of(i) else { continue };
        let alloc_macro =
            (texts[i] == "vec" || texts[i] == "format") && texts.get(i + 1) == Some(&"!");
        let alloc_method = ALLOC_METHODS.contains(&texts[i])
            && i > 0
            && texts[i - 1] == "."
            && texts.get(i + 1).is_some_and(|t| *t == "(" || *t == "::");
        // `Vec::new`, `Vec::<f32>::with_capacity`, … — skip a turbofish
        // between the container and the constructor name.
        let mut ctor = None;
        if ALLOC_CONTAINERS.contains(&texts[i]) && texts.get(i + 1) == Some(&"::") {
            let mut j = i + 2;
            if texts.get(j) == Some(&"<") {
                let mut depth = 0i32;
                while j < texts.len() {
                    match texts[j] {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
                if texts.get(j) == Some(&"::") {
                    j += 1;
                }
            }
            if texts
                .get(j)
                .is_some_and(|t| *t == "new" || *t == "with_capacity")
            {
                ctor = Some(texts[j]);
            }
        }
        if alloc_macro || alloc_method || ctor.is_some() {
            let what = if alloc_macro {
                format!("{}!", texts[i])
            } else if alloc_method {
                format!(".{}()", texts[i])
            } else {
                format!("{}::{}", texts[i], ctor.unwrap_or("new"))
            };
            push(
                "H004",
                toks[i].line,
                format!(
                    "heap allocation (`{what}`) inside steady-state tick fn `{name}`: \
                     per-tick allocation breaks the zero-alloc certification \
                     (crates/serve/tests/zero_alloc.rs); preallocate at admission \
                     and reuse the buffer"
                ),
            );
        }
    }

    // H005-sink (tick scope): any cast inside capacity/length arguments.
    for (lo, hi) in sink_arg_ranges(&texts) {
        if tick_of(lo.saturating_sub(2)).is_none() {
            continue;
        }
        let name = tick_of(lo.saturating_sub(2)).unwrap_or("?");
        // One finding per sink call: a chained cast in the argument is a
        // single defect, not one per `as`.
        if let Some(j) = (lo..hi.min(texts.len())).find(|&j| texts[j] == "as") {
            push(
                "H005",
                toks[j].line,
                format!(
                    "`as` cast feeding a capacity/length sink in tick fn \
                     `{name}`: a truncated or wrapped value silently corrupts \
                     buffer sizing; use a checked conversion",
                ),
            );
        }
    }

    // H009: reasoned annotations nothing consumed — the stale allowlist.
    for line in supp.stale_lines() {
        findings.push(SourceFinding {
            code: "H009",
            file: file.to_string(),
            line,
            message: "stale hot-ok suppression: no hot-path finding on this or the \
                      following line; remove the annotation or re-audit the site"
                .to_string(),
            suppressed: None,
        });
    }

    findings.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    findings
}

/// The outcome of a hot-path sweep over [`HOT_MANIFEST`].
#[derive(Debug, Clone, Default)]
pub struct HotAudit {
    /// Unsuppressed findings — any entry here fails the audit.
    pub findings: Vec<SourceFinding>,
    /// `hot-ok`-allowlisted findings, kept visible in reports.
    pub allowed: Vec<SourceFinding>,
    pub counts: HotCounts,
}

/// Audits every manifest file under `root`. A missing manifest file is a
/// hard `io::Error`, not an empty result: renames must update the
/// manifest or the audit fails loudly.
pub fn audit_hot_sources(root: &Path) -> std::io::Result<HotAudit> {
    let mut audit = HotAudit::default();
    for entry in HOT_MANIFEST {
        let path = root.join(entry.file);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!(
                    "hot-path manifest file {} is unreadable ({e}); if it moved, \
                     update analysis::hot::HOT_MANIFEST",
                    entry.file
                ),
            )
        })?;
        for finding in scan_hot_source(entry.file, &text, entry.tick_fns) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> Vec<SourceFinding> {
        scan_hot_source("test.rs", text, &["tick"])
    }

    fn unsuppressed(text: &str) -> Vec<SourceFinding> {
        scan(text)
            .into_iter()
            .filter(|f| f.suppressed.is_none())
            .collect()
    }

    #[test]
    fn h001_unwrap_expect_file_wide_even_outside_tick_fns() {
        let src = "
            fn cold(x: Option<u32>) -> u32 { x.unwrap() }
            fn tick(x: Option<u32>) -> u32 { x.expect(\"live\") }
        ";
        let f = unsuppressed(src);
        assert_eq!(f.iter().filter(|f| f.code == "H001").count(), 2, "{f:?}");
    }

    #[test]
    fn h001_ignores_unwrap_or_family() {
        let src = "
            fn tick(x: Option<u32>) -> u32 {
                x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()
            }
        ";
        assert!(unsuppressed(src).is_empty(), "{:?}", unsuppressed(src));
    }

    #[test]
    fn h002_panic_macros_only_in_tick_fns() {
        let src = "
            fn cold(n: usize) { assert!(n > 0); }
            fn tick(n: usize) {
                assert_eq!(n, 1);
                if n == 2 { panic!(\"boom\"); }
                debug_assert!(n < 10);
            }
        ";
        let f = unsuppressed(src);
        assert_eq!(f.iter().filter(|f| f.code == "H002").count(), 2, "{f:?}");
        // Neither the cold assert (line 2) nor the debug_assert (line 6).
        assert!(f.iter().all(|f| f.line == 4 || f.line == 5), "{f:?}");
    }

    #[test]
    fn h003_direct_index_but_not_ranges_literals_or_cold_fns() {
        let src = "
            fn cold(xs: &[f32], i: usize) -> f32 { xs[i] }
            fn tick(xs: &[f32], i: usize) -> f32 {
                let head = &xs[0];
                let window = &xs[1..4];
                xs[i] + head + window[0]
            }
        ";
        let f = unsuppressed(src);
        assert_eq!(f.iter().filter(|f| f.code == "H003").count(), 1, "{f:?}");
        assert!(f.iter().any(|f| f.message.contains("`xs[…]`")));
    }

    #[test]
    fn h004_allocation_forms_in_tick_scope() {
        let src = "
            fn cold() -> Vec<u32> { vec![1, 2, 3] }
            fn tick(xs: &[u32]) {
                let a = vec![0u8; 4];
                let b = format!(\"{}\", xs.len());
                let c: Vec<u32> = xs.iter().copied().collect();
                let d = xs.to_vec();
                let e = Vec::<f32>::with_capacity(8);
                let g = BTreeMap::<u32, u32>::new();
            }
        ";
        let f = unsuppressed(src);
        assert_eq!(f.iter().filter(|f| f.code == "H004").count(), 6, "{f:?}");
    }

    #[test]
    fn h005_casts_feeding_capacity_and_indexing() {
        let src = "
            fn tick(xs: &mut Vec<f32>, n: u64, i: u64) {
                xs.reserve(n as usize);
                let x = xs[(i as u32) as usize];
                let y = xs[i as usize];
            }
        ";
        let f = unsuppressed(src);
        // reserve arg + the narrowing `as u32` in the index; the widening
        // `as usize` index casts are exempt.
        assert_eq!(f.iter().filter(|f| f.code == "H005").count(), 2, "{f:?}");
    }

    #[test]
    fn h000_reasonless_and_h009_stale_annotations() {
        let f = unsuppressed("fn tick() { let x = 1; } // hot-ok");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "H000");

        let f = unsuppressed("fn tick() { let x = 1; } // hot-ok: nothing here anymore");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "H009");
    }

    #[test]
    fn hot_ok_with_reason_suppresses_and_reports_family() {
        let src = "
            fn tick(x: Option<u32>) -> u32 {
                // hot-ok: slot installed at admission two lines up; cannot be vacant
                x.expect(\"live slot\")
            }
        ";
        let all = scan(src);
        assert_eq!(all.len(), 1, "{all:?}");
        assert_eq!(
            all[0].suppressed.as_deref(),
            Some("slot installed at admission two lines up; cannot be vacant")
        );
        assert_eq!(all[0].family(), "hot-ok");
        assert!(unsuppressed(src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "
            fn tick(n: usize) -> usize { n }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let v = vec![1, 2, 3];
                    assert_eq!(v[0], 1);
                    v.get(9).unwrap();
                }
            }
        ";
        assert!(unsuppressed(src).is_empty(), "{:?}", unsuppressed(src));
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let src = "
            trait Decoder {
                fn tick(&mut self) -> bool;
            }
            fn after(xs: &[u32], i: usize) -> u32 { xs[i] }
        ";
        // `after` is not a tick fn, and the bodyless decl must not make
        // the range scanner swallow it.
        assert!(unsuppressed(src).is_empty(), "{:?}", unsuppressed(src));
    }

    #[test]
    fn counts_tally_and_display() {
        let mut c = HotCounts::default();
        c.record(&SourceFinding {
            code: "H004",
            file: "x.rs".into(),
            line: 1,
            message: String::new(),
            suppressed: None,
        });
        c.record(&SourceFinding {
            code: "H001",
            file: "x.rs".into(),
            line: 2,
            message: String::new(),
            suppressed: Some("audited".into()),
        });
        assert_eq!(c.unsuppressed(), 1);
        assert_eq!(c.suppressed, 1);
        let text = c.to_string();
        assert!(text.contains("H004:1"), "{text}");
        assert!(text.contains("1 allowed (hot-ok)"), "{text}");
    }

    #[test]
    fn manifest_names_the_serving_loop() {
        let files: Vec<&str> = HOT_MANIFEST.iter().map(|h| h.file).collect();
        assert!(files.contains(&"crates/serve/src/engine.rs"));
        assert!(files.contains(&"crates/nn/src/batch.rs"));
        assert!(files.contains(&"crates/tensor/src/kernels.rs"));
        // The scripted test decoder must never be on the manifest.
        assert!(!files.iter().any(|f| f.contains("testing")));
    }
}
