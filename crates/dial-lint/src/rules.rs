//! The rule catalogue. Each rule is a token-stream walk over one file,
//! scoped to the crates where its invariant is load-bearing (DESIGN §14).
//!
//! Rules are heuristic by design: they over-approximate, and intentional
//! sites are silenced with a *reasoned* `// lint:allow(<rule>): why`
//! comment — an unexplained allow is itself a diagnostic. The payoff is
//! that the two nondeterminism bugs that shipped in earlier PRs (the LTA
//! top-3 tie-break and the Table 5 `extrapolated_total_usd` float sum,
//! both `HashMap`-iteration-order bugs) become CI failures instead of
//! equivalence-gate archaeology.

use crate::analysis::FileAnalysis;
use crate::index::{ErrorSiteKind, WorkspaceIndex};
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose outputs feed paper tables/figures; iteration order there
/// is result order.
const RESULT_CRATES: &[&str] = &["core", "dial-stats", "dial-stream", "dial-model", "dial-graph"];

/// Crates that must be replayable from seeds alone: wall-clock reads are
/// hidden inputs. An entry is either a whole crate dir (`dial-store`) or
/// a single `crate-dir/file.rs` when only one module of a crate carries
/// the invariant — `dial-replicate/promote.rs` is the failover decision,
/// which must name the same new leader on every replay of a chaos seed
/// even though the rest of its crate is sockets and timeouts.
const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "dial-stats",
    "dial-stream",
    "dial-sim",
    "dial-scenario",
    "dial-store",
    "dial-replicate/promote.rs",
];

/// dial-serve modules on the request path; a panic here kills a worker
/// mid-request instead of answering 5xx.
const SERVE_PATH_FILES: &[&str] = &["http.rs", "wire.rs", "engine.rs", "cache.rs", "scheduler.rs"];

/// Crates whose loops must cooperate with `dial_fault` deadlines.
const CHECKPOINT_CRATES: &[&str] = &["dial-serve", "dial-par"];

/// R4 fires on loop bodies longer than this many source lines.
pub const CHECKPOINT_LOOP_LINES: usize = 20;

/// Iterator-producing methods whose order is the receiver's order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Workspace-wide facts collected before any rule runs.
#[derive(Debug, Default)]
pub struct GlobalFacts {
    /// Names of functions (in any scanned file) whose return type mentions
    /// `HashMap`/`HashSet` — calling one and iterating the result is as
    /// order-sensitive as iterating a local map.
    pub map_returning_fns: BTreeSet<String>,
}

impl GlobalFacts {
    /// Harvests facts from one file (called for every file, pass 1).
    pub fn collect(&mut self, file: &FileAnalysis<'_>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("fn") {
                continue;
            }
            let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            // Scan the signature up to the body `{` or a `;` (trait decl),
            // looking for a map type after `->`.
            let mut j = i + 2;
            let mut after_arrow = false;
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                match t.text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" | ";" if depth == 0 => break,
                    "-" if toks.get(j + 1).is_some_and(|n| n.is_punct('>')) && depth == 0 => {
                        after_arrow = true;
                    }
                    "HashMap" | "HashSet" if after_arrow && t.kind == TokenKind::Ident => {
                        self.map_returning_fns.insert(name.text.to_string());
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
}

/// Catalogue metadata for one rule: the stable id, the short `R<n>`
/// code (both accepted by `--rule` and `lint:allow`), and the severity
/// reported in schema-2 JSON.
pub struct RuleInfo {
    /// Stable long id (`lock-order-inversion`).
    pub id: &'static str,
    /// Short code (`R5`). `bare-allow` carries `A0` — it is the
    /// meta-rule about suppressions, not part of the numbered catalogue.
    pub code: &'static str,
    /// `critical` | `error` | `warning`.
    pub severity: &'static str,
    /// True for workspace graph rules (phase two over the index), false
    /// for per-file token-stream rules.
    pub graph: bool,
}

/// The full catalogue, in stable order. Schema-2 `summary.by_rule`
/// iterates this, so appending here is a schema-compatible change and
/// reordering is not.
pub const CATALOGUE: &[RuleInfo] = &[
    RuleInfo { id: "nondeterministic-iteration", code: "R1", severity: "error", graph: false },
    RuleInfo { id: "unwrap-in-serve", code: "R2", severity: "error", graph: false },
    RuleInfo { id: "wall-clock-in-deterministic", code: "R3", severity: "error", graph: false },
    RuleInfo { id: "missing-checkpoint", code: "R4", severity: "warning", graph: false },
    RuleInfo { id: "lock-order-inversion", code: "R5", severity: "critical", graph: true },
    RuleInfo { id: "guard-across-blocking", code: "R6", severity: "error", graph: true },
    RuleInfo { id: "counter-drift", code: "R7", severity: "warning", graph: true },
    RuleInfo { id: "raw-error-response", code: "R8", severity: "error", graph: true },
    RuleInfo { id: "bare-allow", code: "A0", severity: "error", graph: false },
];

/// Resolves a `--rule` argument or `lint:allow` target — long id or
/// short code — to its catalogue entry.
pub fn rule_info(id_or_code: &str) -> Option<&'static RuleInfo> {
    CATALOGUE.iter().find(|r| r.id == id_or_code || r.code == id_or_code)
}

/// Severity for a rule id; unknown ids (impossible for shipped findings)
/// degrade to `error`.
pub fn severity_for(id: &str) -> &'static str {
    rule_info(id).map(|r| r.severity).unwrap_or("error")
}

/// Short code for a rule id.
pub fn code_for(id: &str) -> &'static str {
    rule_info(id).map(|r| r.code).unwrap_or("??")
}

/// A single lint rule.
pub trait Rule {
    /// Stable rule id, used in output and in `lint:allow(<id>)`.
    fn id(&self) -> &'static str;
    /// One-line description for `dial lint --rules`.
    fn describe(&self) -> &'static str;
    /// Whether the rule's invariant applies to this file at all. Ignored
    /// when the engine runs in force-all mode (single-file / fixtures).
    fn applies(&self, file: &FileAnalysis<'_>) -> bool;
    /// Walks the file and appends findings.
    fn check(&self, file: &FileAnalysis<'_>, facts: &GlobalFacts, out: &mut Vec<Finding>);
}

/// The shipped rule set, in catalogue order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NondeterministicIteration),
        Box::new(UnwrapInServe),
        Box::new(WallClockInDeterministic),
        Box::new(MissingCheckpoint),
    ]
}

fn finding(
    rule: &'static str,
    file: &FileAnalysis<'_>,
    tok: &Token<'_>,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity: severity_for(rule),
        path: file.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: file.snippet(tok.line),
        suppressed: false,
        reason: None,
    }
}

/// [`finding`] for graph rules, which locate sites through the index
/// rather than holding a token.
fn graph_finding(
    rule: &'static str,
    files: &[FileAnalysis<'_>],
    file: usize,
    line: u32,
    col: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity: severity_for(rule),
        path: files[file].rel_path.clone(),
        line,
        col,
        message,
        snippet: files[file].snippet(line),
        suppressed: false,
        reason: None,
    }
}

// --------------------------------------------------------------------
// R1: nondeterministic-iteration
// --------------------------------------------------------------------

/// Flags iteration over `HashMap`/`HashSet` in result-producing crates
/// unless the surrounding statement establishes an order (a `sort*` call
/// or a BTree collection) or the site carries a reasoned allow.
pub struct NondeterministicIteration;

impl Rule for NondeterministicIteration {
    fn id(&self) -> &'static str {
        "nondeterministic-iteration"
    }

    fn describe(&self) -> &'static str {
        "HashMap/HashSet iteration in result-producing crates without an established order"
    }

    fn applies(&self, file: &FileAnalysis<'_>) -> bool {
        file.crate_dir.as_deref().is_some_and(|c| RESULT_CRATES.contains(&c)) && !file.aux_file
    }

    fn check(&self, file: &FileAnalysis<'_>, facts: &GlobalFacts, out: &mut Vec<Finding>) {
        let maps = local_map_idents(file, facts);
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            // `.values()` / `.iter()` / … on a map-typed receiver.
            if toks[i].is_punct('.')
                && toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident && ITER_METHODS.contains(&t.text))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                let (is_map, via) = receiver_is_map(file, i, &maps, facts);
                if is_map && !statement_establishes_order(file, i) {
                    out.push(finding(
                        self.id(),
                        file,
                        &toks[i + 1],
                        format!(
                            ".{}() iterates `{via}` in hash order; sort the result, use a \
                             BTree collection, or justify with lint:allow",
                            toks[i + 1].text
                        ),
                    ));
                }
            }
            // `for pat in <expr-with-map> {`.
            if toks[i].is_ident("for") {
                if let Some((expr_start, expr_end)) = for_loop_expr(file, i) {
                    if let Some(via) = window_mentions_map(file, expr_start, expr_end, &maps, facts)
                    {
                        if !range_establishes_order(toks, expr_start, expr_end) {
                            out.push(finding(
                                self.id(),
                                file,
                                &toks[i],
                                format!(
                                    "for-loop over `{via}` in hash order; iterate sorted keys, \
                                     use a BTree collection, or justify with lint:allow"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Identifiers in this file that name `HashMap`/`HashSet` values: `let`
/// bindings, fn parameters, and struct fields with a map type annotation,
/// plus `let` patterns whose initialiser visibly builds or returns a map.
fn local_map_idents(file: &FileAnalysis<'_>, facts: &GlobalFacts) -> BTreeSet<String> {
    let toks = &file.tokens;
    let mut maps = BTreeSet::new();
    for i in 0..toks.len() {
        // `name : <type…>` where the type mentions HashMap/HashSet before
        // the annotation ends — covers `let x: HashMap…`, fn params, and
        // struct fields (including wrappers like `RwLock<HashMap<…>>`).
        if toks[i].kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            // Skip `::` paths and struct literals `Name { field: value }` —
            // only a single `:` introduces a type annotation.
            if toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
                continue;
            }
            if type_annotation_mentions_map(toks, i + 2) {
                maps.insert(toks[i].text.to_string());
            }
        }
        // `let [mut] <pattern> = <rhs>;` where the rhs constructs a map or
        // calls a known map-returning fn: every ident bound by the pattern
        // is (conservatively) map-suspect. Handles tuple destructuring of
        // helpers like `involvement_counts`.
        if toks[i].is_ident("let") {
            let Some(eq) = assignment_eq(toks, i) else { continue };
            let mut rhs_is_map = false;
            let mut j = eq + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                match t.text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => break,
                    "HashMap" | "HashSet" if t.kind == TokenKind::Ident => rhs_is_map = true,
                    name if t.kind == TokenKind::Ident
                        && facts.map_returning_fns.contains(name)
                        && toks.get(j + 1).is_some_and(|n| n.is_punct('(')) =>
                    {
                        rhs_is_map = true
                    }
                    _ => {}
                }
                j += 1;
            }
            if rhs_is_map {
                for t in &toks[i + 1..eq] {
                    if t.kind == TokenKind::Ident && t.text != "mut" {
                        maps.insert(t.text.to_string());
                    }
                }
            }
        }
    }
    maps
}

/// True when the type annotation starting at `from` is *outermost* a
/// `HashMap`/`HashSet` (after references and path prefixes). Inner maps —
/// `Vec<HashSet<u32>>`, `RwLock<HashMap<…>>` — do not mark the binding:
/// iterating the wrapper is not iterating the map, and reaching the map
/// requires a call the receiver analysis sees separately.
fn type_annotation_mentions_map(toks: &[Token<'_>], from: usize) -> bool {
    let mut j = from;
    // Skip `&`, `&'a`, `mut`.
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('&') || t.kind == TokenKind::Lifetime || t.is_ident("mut") {
            j += 1;
        } else {
            break;
        }
    }
    // Read a path `a::b::Name` and judge its final segment.
    let mut last_ident: Option<&str> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokenKind::Ident {
            last_ident = Some(t.text);
            // Path separator `::` continues the name.
            if toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
            {
                j += 3;
                continue;
            }
        }
        break;
    }
    matches!(last_ident, Some("HashMap") | Some("HashSet"))
}

/// Token index of the `=` ending a `let` pattern, if this statement has
/// an initialiser before `;`.
fn assignment_eq(toks: &[Token<'_>], let_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(let_idx + 1) {
        match t.text {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            "=" if depth == 0 && t.kind == TokenKind::Punct => {
                // Not `==`, `>=`, `<=`, `=>`.
                let prev = toks[j - 1].text;
                let next = toks.get(j + 1).map(|t| t.text);
                if prev != "="
                    && prev != "<"
                    && prev != ">"
                    && prev != "!"
                    && next != Some("=")
                    && next != Some(">")
                {
                    return Some(j);
                }
            }
            ";" | "{" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Walks back from the `.` at `dot` to decide whether the receiver chain
/// roots in a map-typed ident or a map-returning call. Returns the name
/// that triggered the match for the diagnostic message.
fn receiver_is_map(
    file: &FileAnalysis<'_>,
    dot: usize,
    maps: &BTreeSet<String>,
    facts: &GlobalFacts,
) -> (bool, String) {
    let toks = &file.tokens;
    // The token directly left of the `.` decides the receiver:
    //
    //  * an ident — a variable or a field. Map-typed: flag. Otherwise
    //    follow a field chain (`self.counts.iter()`) one hop left, but
    //    never walk past a non-`.` boundary (`for v in users.iter()` must
    //    not reach `v`).
    //  * a `)` — a call result. Flag only when the callee is a known
    //    map-returning fn; any other call (`.get(k)`, `.read()`, …)
    //    yields a *new* value whose iteration order is its own business.
    let mut i = dot;
    while i > 0 {
        let t = &toks[i - 1];
        if t.kind == TokenKind::Ident {
            if maps.contains(t.text) {
                return (true, t.text.to_string());
            }
            // Continue only through a field chain: `recv . field . iter()`.
            if i >= 2 && toks[i - 2].is_punct('.') {
                i -= 2;
                continue;
            }
            return (false, String::new());
        } else if t.is_punct(')') {
            let mut depth = 0i32;
            let mut j = i - 1;
            loop {
                if toks[j].is_punct(')') {
                    depth += 1;
                } else if toks[j].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return (false, String::new());
                }
                j -= 1;
            }
            if j > 0 && toks[j - 1].kind == TokenKind::Ident {
                let callee = toks[j - 1].text;
                if facts.map_returning_fns.contains(callee) {
                    return (true, format!("{callee}()"));
                }
            }
            return (false, String::new());
        } else {
            return (false, String::new());
        }
    }
    (false, String::new())
}

/// The expression tokens of `for <pat> in <expr> {`: range between the
/// top-level `in` and the body `{`.
fn for_loop_expr(file: &FileAnalysis<'_>, for_idx: usize) -> Option<(usize, usize)> {
    let toks = &file.tokens;
    let mut depth = 0i32;
    let mut in_idx = None;
    for (j, t) in toks.iter().enumerate().skip(for_idx + 1) {
        match t.text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 && t.kind == TokenKind::Ident => {
                in_idx = Some(j);
                break;
            }
            "{" | ";" if depth == 0 => return None,
            _ => {}
        }
    }
    let start = in_idx? + 1;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(start) {
        match t.text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some((start, j)),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Does the token window reference a map-typed ident (not as a call) or a
/// map-returning call? Returns the matched name.
fn window_mentions_map(
    file: &FileAnalysis<'_>,
    start: usize,
    end: usize,
    maps: &BTreeSet<String>,
    facts: &GlobalFacts,
) -> Option<String> {
    let toks = &file.tokens;
    for j in start..end {
        let t = &toks[j];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let called = toks.get(j + 1).is_some_and(|n| n.is_punct('('));
        // `map[key]` indexes by an (externally ordered) key — only a bare
        // mention of the map itself iterates it.
        let indexed = toks.get(j + 1).is_some_and(|n| n.is_punct('['));
        if maps.contains(t.text) && !called && !indexed {
            return Some(t.text.to_string());
        }
        if facts.map_returning_fns.contains(t.text) && called {
            return Some(format!("{}()", t.text));
        }
    }
    None
}

/// True when the statement containing `site` visibly establishes an order:
/// a `sort*` call, a BTree collection, or — for `let mut x = …;` — an
/// immediate `x.sort*(…)` as the next statement.
fn statement_establishes_order(file: &FileAnalysis<'_>, site: usize) -> bool {
    let (start, end) = file.statement_window(site);
    if range_establishes_order(&file.tokens, start, end) {
        return true;
    }
    // `let mut keys: … = map.keys().collect(); keys.sort();` — the
    // canonical sorted-iteration idiom. Accept a sort on the bound name
    // in the immediately following statement.
    let toks = &file.tokens;
    // Comments and attributes (`#[allow(…)]` on the `let`) may sit between
    // statements or precede the binding; skip both.
    let next = |mut j: usize| loop {
        while toks.get(j).is_some_and(|t| t.is_comment()) {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_punct('#'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            if let Some(close) = file.matching_close(j + 1) {
                j = close + 1;
                continue;
            }
        }
        return j;
    };
    let s0 = next(start);
    let s1 = next(s0 + 1);
    let s2 = next(s1 + 1);
    if toks.get(s0).is_some_and(|t| t.is_ident("let"))
        && toks.get(s1).is_some_and(|t| t.is_ident("mut"))
        && toks.get(s2).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        let name = toks[s2].text;
        if toks.get(end).is_some_and(|t| t.is_punct(';')) {
            let e1 = next(end + 1);
            let e2 = next(e1 + 1);
            let e3 = next(e2 + 1);
            if toks.get(e1).is_some_and(|t| t.is_ident(name))
                && toks.get(e2).is_some_and(|t| t.is_punct('.'))
                && toks.get(e3).is_some_and(|t| t.text.contains("sort"))
            {
                return true;
            }
        }
    }
    false
}

fn range_establishes_order(toks: &[Token<'_>], start: usize, end: usize) -> bool {
    toks[start..end.min(toks.len())].iter().any(|t| {
        t.kind == TokenKind::Ident
            && (t.text.contains("sort") || t.text == "BTreeMap" || t.text == "BTreeSet")
    })
}

// --------------------------------------------------------------------
// R2: unwrap-in-serve
// --------------------------------------------------------------------

/// Flags `.unwrap()` / `.expect(` / `panic!` on the dial-serve request
/// path (outside `#[cfg(test)]`): a panic there kills a worker mid-request
/// instead of producing a structured 5xx.
pub struct UnwrapInServe;

impl Rule for UnwrapInServe {
    fn id(&self) -> &'static str {
        "unwrap-in-serve"
    }

    fn describe(&self) -> &'static str {
        "unwrap/expect/panic! on the dial-serve request path"
    }

    fn applies(&self, file: &FileAnalysis<'_>) -> bool {
        file.crate_dir.as_deref() == Some("dial-serve")
            && SERVE_PATH_FILES.contains(&file.file_name.as_str())
            && !file.aux_file
    }

    fn check(&self, file: &FileAnalysis<'_>, _facts: &GlobalFacts, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            let t = &toks[i];
            let hit = if t.is_ident("unwrap") || t.is_ident("expect") {
                i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            } else if t.is_ident("panic") || t.is_ident("unimplemented") || t.is_ident("todo") {
                toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            } else {
                false
            };
            if hit {
                out.push(finding(
                    self.id(),
                    file,
                    t,
                    format!(
                        "`{}` can panic on the request path; return an error (the engine maps \
                         them to 5xx envelopes) or justify with lint:allow",
                        t.text
                    ),
                ));
            }
        }
    }
}

// --------------------------------------------------------------------
// R3: wall-clock-in-deterministic
// --------------------------------------------------------------------

/// Flags wall-clock reads (`SystemTime`, `Instant`, `std::time`) in
/// crates whose outputs must be a pure function of seed + input; time
/// there must flow through `dial-time`'s simulated clock types.
pub struct WallClockInDeterministic;

impl Rule for WallClockInDeterministic {
    fn id(&self) -> &'static str {
        "wall-clock-in-deterministic"
    }

    fn describe(&self) -> &'static str {
        "SystemTime/Instant/std::time in deterministic (seed-replayable) crates"
    }

    fn applies(&self, file: &FileAnalysis<'_>) -> bool {
        let Some(crate_dir) = file.crate_dir.as_deref() else {
            return false;
        };
        !file.aux_file
            && DETERMINISTIC_CRATES.iter().any(|entry| {
                *entry == crate_dir
                    || entry
                        .split_once('/')
                        .is_some_and(|(c, f)| c == crate_dir && f == file.file_name)
            })
    }

    fn check(&self, file: &FileAnalysis<'_>, _facts: &GlobalFacts, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            let t = &toks[i];
            let hit = t.is_ident("SystemTime")
                || t.is_ident("Instant")
                || (t.is_ident("std")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("time")));
            if hit {
                out.push(finding(
                    self.id(),
                    file,
                    t,
                    format!(
                        "`{}` reads the wall clock in a deterministic crate; all time must \
                         flow through dial-time's simulated clock",
                        t.text
                    ),
                ));
            }
        }
    }
}

// --------------------------------------------------------------------
// R4: missing-checkpoint
// --------------------------------------------------------------------

/// Flags `loop`/`while` bodies in dial-serve and dial-par longer than
/// [`CHECKPOINT_LOOP_LINES`] source lines with no `checkpoint()` call:
/// long-running loops must cooperate with `dial_fault` deadlines
/// (DESIGN §12) or a deadline-bounded drain cannot reclaim their slot.
pub struct MissingCheckpoint;

impl Rule for MissingCheckpoint {
    fn id(&self) -> &'static str {
        "missing-checkpoint"
    }

    fn describe(&self) -> &'static str {
        "long serve/par loop with no dial_fault deadline checkpoint"
    }

    fn applies(&self, file: &FileAnalysis<'_>) -> bool {
        file.crate_dir.as_deref().is_some_and(|c| CHECKPOINT_CRATES.contains(&c)) && !file.aux_file
    }

    fn check(&self, file: &FileAnalysis<'_>, _facts: &GlobalFacts, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            let is_loop = toks[i].is_ident("loop");
            let is_while = toks[i].is_ident("while");
            if !is_loop && !is_while {
                continue;
            }
            // Find the body `{` at bracket depth 0 after the keyword.
            let mut open = None;
            let mut depth = 0i32;
            for (j, t) in toks.iter().enumerate().skip(i + 1) {
                match t.text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            let Some(open) = open else { continue };
            let Some(close) = file.matching_close(open) else { continue };
            let span = toks[close].line.saturating_sub(toks[open].line) as usize;
            if span <= CHECKPOINT_LOOP_LINES {
                continue;
            }
            let has_checkpoint = toks[open..close]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text.contains("checkpoint"));
            if !has_checkpoint {
                out.push(finding(
                    self.id(),
                    file,
                    &toks[i],
                    format!(
                        "{}-line `{}` body without a dial_fault checkpoint; call \
                         deadline::checkpoint() so deadline-bounded drains can reclaim the \
                         thread (DESIGN §12), or justify with lint:allow",
                        span, toks[i].text
                    ),
                ));
            }
        }
    }
}

// --------------------------------------------------------------------
// Graph rules (R5–R8): phase two, over the workspace index
// --------------------------------------------------------------------

/// A workspace graph rule: runs once over the whole index instead of
/// once per file.
pub trait GraphRule {
    /// Stable rule id.
    fn id(&self) -> &'static str;
    /// One-line description for `dial lint --rules`.
    fn describe(&self) -> &'static str;
    /// Walks the index and appends findings. `force_all` (single-file /
    /// fixture mode) disables any crate scoping the rule applies.
    fn check(
        &self,
        files: &[FileAnalysis<'_>],
        index: &WorkspaceIndex,
        force_all: bool,
        out: &mut Vec<Finding>,
    );
}

/// The shipped graph-rule set, in catalogue order.
pub fn all_graph_rules() -> Vec<Box<dyn GraphRule>> {
    vec![
        Box::new(LockOrderInversion),
        Box::new(GuardAcrossBlocking),
        Box::new(CounterDrift),
        Box::new(RawErrorResponse),
    ]
}

// --------------------------------------------------------------------
// R5: lock-order-inversion
// --------------------------------------------------------------------

/// One edge of the lock-acquisition-order graph: while a guard on
/// `from` was live, `to` was acquired — directly, or inside a callee one
/// call level down.
pub struct LockEdge {
    /// Lock index of the held guard.
    pub from: usize,
    /// Lock index of the inner acquisition.
    pub to: usize,
    /// File index of the outer acquisition (the finding anchor).
    pub file: usize,
    /// Line of the outer acquisition.
    pub line: u32,
    /// Column of the outer acquisition.
    pub col: u32,
    /// `method` of the outer and inner acquisitions (`read`, `lock`, …).
    pub methods: (&'static str, &'static str),
    /// Human witness: `path:line takes X; path:line takes Y [via call]`.
    pub witness: String,
}

/// Builds the deduplicated lock-order edge list: one edge per ordered
/// lock pair, first witness wins (files and acquisitions are already in
/// sorted order, so "first" is deterministic).
pub fn lock_edges(files: &[FileAnalysis<'_>], index: &WorkspaceIndex) -> Vec<LockEdge> {
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut push = |seen: &mut BTreeSet<(usize, usize)>,
                    from: &crate::index::Acquisition,
                    to: &crate::index::Acquisition,
                    via: Option<String>| {
        if !seen.insert((from.lock, to.lock)) {
            return;
        }
        let f_label = &index.locks[from.lock].label;
        let t_label = &index.locks[to.lock].label;
        let via = via.map(|v| format!(" via {v}")).unwrap_or_default();
        edges.push(LockEdge {
            from: from.lock,
            to: to.lock,
            file: from.file,
            line: from.line,
            col: from.col,
            methods: (from.method, to.method),
            witness: format!(
                "{}:{} .{}()s {f_label}; {}:{} .{}()s {t_label}{via}",
                files[from.file].rel_path,
                from.line,
                from.method,
                files[to.file].rel_path,
                to.line,
                to.method,
            ),
        });
    };
    for a in &index.acquisitions {
        // Direct: another acquisition inside this guard's live range.
        for b in &index.acquisitions {
            if b.file == a.file && b.token > a.token && b.token <= a.live.1 {
                push(&mut seen, a, b, None);
            }
        }
        // One call level deep: a workspace call inside the live range
        // whose (uniquely-resolved) callee body acquires locks.
        for c in &index.calls {
            if c.file != a.file || c.token <= a.token || c.token > a.live.1 {
                continue;
            }
            let Some(def) = index.unique_fn(&c.name) else { continue };
            // A self-recursive call would fabricate edges from a fn to
            // itself; the direct pass already covers same-body pairs.
            if def.file == a.file && (def.body.0..=def.body.1).contains(&a.token) {
                continue;
            }
            for b in &index.acquisitions {
                if b.file == def.file && (def.body.0..=def.body.1).contains(&b.token) {
                    push(
                        &mut seen,
                        a,
                        b,
                        Some(format!("{}() at {}:{}", c.name, files[c.file].rel_path, c.line)),
                    );
                }
            }
        }
    }
    edges
}

/// Summary of the lock graph for the gate test and `--json` consumers:
/// distinct locks acquired, distinct ordered edges, and a description of
/// every canonical cycle (empty = provably cycle-free at this
/// approximation level).
pub fn lock_graph_summary(
    files: &[FileAnalysis<'_>],
    index: &WorkspaceIndex,
) -> (usize, usize, Vec<String>) {
    let edges = lock_edges(files, index);
    let nodes: BTreeSet<usize> = index.acquisitions.iter().map(|a| a.lock).collect();
    let cycles = find_cycles(&edges).into_iter().map(|(_, desc)| desc).collect();
    (nodes.len(), edges.len(), cycles)
}

/// Shortest edge path from `from` to `to` (BFS over sorted adjacency,
/// deterministic). Returns edge indices.
fn edge_path(edges: &[LockEdge], from: usize, to: usize) -> Option<Vec<usize>> {
    let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (ei, e) in edges.iter().enumerate() {
        if e.from != e.to {
            adj.entry(e.from).or_default().push(ei);
        }
    }
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new(); // node -> incoming edge
    let mut queue = std::collections::VecDeque::from([from]);
    let mut visited = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = Vec::new();
            let mut cur = to;
            while cur != from {
                let ei = prev[&cur];
                path.push(ei);
                cur = edges[ei].from;
            }
            path.reverse();
            return Some(path);
        }
        for &ei in adj.get(&n).into_iter().flatten() {
            let next = edges[ei].to;
            if visited.insert(next) {
                prev.insert(next, ei);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Every canonical cycle in the edge list: for each edge u→v with a
/// return path v→…→u, one cycle keyed by its node set. Returns the
/// anchor edge index (the u→v witness — the finding and any allow sit at
/// its acquisition site) and the full two-path description.
fn find_cycles(edges: &[LockEdge]) -> Vec<(usize, String)> {
    let mut seen_cycles: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut out = Vec::new();
    for (ei, e) in edges.iter().enumerate() {
        if e.from == e.to {
            continue; // self-loops are reported as re-acquisitions
        }
        let Some(back) = edge_path(edges, e.to, e.from) else { continue };
        let mut nodes: BTreeSet<usize> = [e.from, e.to].into();
        for &bi in &back {
            nodes.insert(edges[bi].from);
            nodes.insert(edges[bi].to);
        }
        let key: Vec<usize> = nodes.into_iter().collect();
        if !seen_cycles.insert(key) {
            continue;
        }
        let back_desc: Vec<&str> = back.iter().map(|&bi| edges[bi].witness.as_str()).collect();
        out.push((
            ei,
            format!("forward path: {}; return path: {}", e.witness, back_desc.join("; ")),
        ));
    }
    out
}

/// Flags cycles in the lock-acquisition-order graph (two threads taking
/// the same pair of locks in opposite orders deadlock under load) and
/// same-lock re-acquisition while a guard is still live (self-deadlock
/// for `Mutex`/`write`; read-read is allowed through).
pub struct LockOrderInversion;

impl GraphRule for LockOrderInversion {
    fn id(&self) -> &'static str {
        "lock-order-inversion"
    }

    fn describe(&self) -> &'static str {
        "cycle in the workspace lock-acquisition-order graph, or a re-acquired held lock"
    }

    fn check(
        &self,
        files: &[FileAnalysis<'_>],
        index: &WorkspaceIndex,
        _force_all: bool,
        out: &mut Vec<Finding>,
    ) {
        let edges = lock_edges(files, index);
        for e in &edges {
            if e.from == e.to {
                // Re-acquisition. Shared reads stack fine; anything
                // involving an exclusive guard self-deadlocks (Mutex)
                // or deadlocks behind a queued writer (RwLock).
                let reads = |m: &str| m == "read" || m == "try_read";
                if reads(e.methods.0) && reads(e.methods.1) {
                    continue;
                }
                out.push(graph_finding(
                    self.id(),
                    files,
                    e.file,
                    e.line,
                    e.col,
                    format!(
                        "{} re-acquired while its guard is still live ({}); drop the first \
                         guard before taking the second",
                        index.locks[e.from].label, e.witness
                    ),
                ));
            }
        }
        for (anchor, desc) in find_cycles(&edges) {
            let e = &edges[anchor];
            out.push(graph_finding(
                self.id(),
                files,
                e.file,
                e.line,
                e.col,
                format!(
                    "lock-order cycle: {} — establish one global order for these locks \
                     (DESIGN §19) or narrow a guard's live range",
                    desc
                ),
            ));
        }
    }
}

// --------------------------------------------------------------------
// R6: guard-across-blocking
// --------------------------------------------------------------------

/// Crates whose request/sync paths must never hold a guard across
/// blocking I/O: every other thread wanting that lock becomes a
/// disk/network waiter, and a wedged peer wedges the whole server.
const BLOCKING_SCOPE_CRATES: &[&str] = &["dial-serve", "dial-replicate"];

/// Flags a `Mutex`/`RwLock` guard live across an fsync / socket-I/O /
/// `SyncClient` call in dial-serve or dial-replicate.
pub struct GuardAcrossBlocking;

impl GraphRule for GuardAcrossBlocking {
    fn id(&self) -> &'static str {
        "guard-across-blocking"
    }

    fn describe(&self) -> &'static str {
        "lock guard held across fsync/socket/SyncClient calls on serve or sync paths"
    }

    fn check(
        &self,
        files: &[FileAnalysis<'_>],
        index: &WorkspaceIndex,
        force_all: bool,
        out: &mut Vec<Finding>,
    ) {
        for a in &index.acquisitions {
            let file = &files[a.file];
            let in_scope =
                file.crate_dir.as_deref().is_some_and(|c| BLOCKING_SCOPE_CRATES.contains(&c));
            if !force_all && !in_scope {
                continue;
            }
            for b in &index.blocking {
                if b.file == a.file && b.token > a.token && b.token <= a.live.1 {
                    let held = a
                        .bound
                        .as_deref()
                        .map(|n| format!("guard `{n}`"))
                        .unwrap_or_else(|| "a temporary guard".to_string());
                    out.push(graph_finding(
                        self.id(),
                        files,
                        b.file,
                        b.line,
                        files[b.file].tokens[b.token].col,
                        format!(
                            "{held} on {} (taken at line {}) is live across blocking `{}`; \
                             copy what you need and drop the guard before the I/O",
                            index.locks[a.lock].label, a.line, b.name
                        ),
                    ));
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// R7: counter-drift
// --------------------------------------------------------------------

/// Flags drift between the three places a metrics counter must agree:
/// its `Counter` field in `Metrics` (which is also its `/v1/metrics`
/// key), at least one `.inc(` / `.add(` site, and a row in the DESIGN
/// metrics table. Each direction of drift is a distinct finding.
pub struct CounterDrift;

impl GraphRule for CounterDrift {
    fn id(&self) -> &'static str {
        "counter-drift"
    }

    fn describe(&self) -> &'static str {
        "metrics counter missing an increment or a DESIGN row"
    }

    fn check(
        &self,
        files: &[FileAnalysis<'_>],
        index: &WorkspaceIndex,
        _force_all: bool,
        out: &mut Vec<Finding>,
    ) {
        let mut by_name: BTreeMap<&str, Vec<&crate::index::CounterDecl>> = BTreeMap::new();
        for c in &index.counters {
            by_name.entry(c.name.as_str()).or_default().push(c);
        }
        for (name, decls) in &by_name {
            for dup in &decls[1..] {
                out.push(graph_finding(
                    self.id(),
                    files,
                    dup.file,
                    dup.line,
                    1,
                    format!(
                        "counter `{name}` declared more than once (first at {}:{})",
                        files[decls[0].file].rel_path, decls[0].line
                    ),
                ));
            }
            let decl = decls[0];
            if !index.counter_increments.contains_key(*name) {
                out.push(graph_finding(
                    self.id(),
                    files,
                    decl.file,
                    decl.line,
                    1,
                    format!(
                        "counter `{name}` is declared but never incremented (no .inc/.add \
                         site); wire it up or delete it"
                    ),
                ));
            }
            if index.design_table_present && !index.design_rows.iter().any(|r| r.name == **name) {
                out.push(graph_finding(
                    self.id(),
                    files,
                    decl.file,
                    decl.line,
                    1,
                    format!(
                        "counter `{name}` is missing from the DESIGN metrics table \
                         (between the lint:metrics-table markers)"
                    ),
                ));
            }
        }
        // Reverse direction: DESIGN rows that no counter backs. An index
        // that found no counters at all reports every row.
        for row in &index.design_rows {
            if !by_name.contains_key(row.name.as_str()) {
                out.push(Finding {
                    rule: self.id(),
                    severity: severity_for(self.id()),
                    path: "DESIGN.md".to_string(),
                    line: row.line,
                    col: 1,
                    message: format!(
                        "DESIGN metrics table documents `{}`, which is not a declared \
                         counter; remove or rename the row",
                        row.name
                    ),
                    snippet: format!("| `{}` | …", row.name),
                    suppressed: false,
                    reason: None,
                });
            }
        }
    }
}

// --------------------------------------------------------------------
// R8: raw-error-response
// --------------------------------------------------------------------

/// Flags non-2xx HTTP responses constructed outside the error-envelope
/// helper (`Response::error`): raw `Response::json(4xx/5xx, …)` calls
/// and literal `HTTP/1.1 <4xx/5xx>` status lines. The envelope is what
/// keeps every client-visible error machine-parseable (API v1 contract,
/// DESIGN §7).
pub struct RawErrorResponse;

impl GraphRule for RawErrorResponse {
    fn id(&self) -> &'static str {
        "raw-error-response"
    }

    fn describe(&self) -> &'static str {
        "non-200 response constructed outside the Response::error envelope"
    }

    fn check(
        &self,
        files: &[FileAnalysis<'_>],
        index: &WorkspaceIndex,
        _force_all: bool,
        out: &mut Vec<Finding>,
    ) {
        for site in &index.error_sites {
            let how = match site.kind {
                ErrorSiteKind::JsonCall => {
                    format!("Response::json({}, …) bypasses the error envelope", site.status)
                }
                ErrorSiteKind::RawWrite => format!(
                    "raw `HTTP/1.1 {}` status line written directly to the socket",
                    site.status
                ),
            };
            out.push(graph_finding(
                self.id(),
                files,
                site.file,
                site.line,
                site.col,
                format!(
                    "{how}; build non-2xx responses with Response::error(status, code, \
                     message, detail) so clients always get the envelope"
                ),
            ));
        }
    }
}
