//! Phase one of the workspace analysis: the cross-file symbol index.
//!
//! The per-file rules (R1–R4) only ever needed a token stream; the graph
//! rules (R5–R8) need to know what the *workspace* looks like — which
//! struct fields are locks, where each guard is taken and how long it
//! lives, which function calls resolve to which workspace definitions,
//! where metrics counters are declared and incremented, and where
//! non-200 responses are built. [`WorkspaceIndex::build`] walks every
//! lexed file once and collects exactly that; the graph rules in
//! `rules.rs` then run over the index instead of over files.
//!
//! Everything here is heuristic in the same spirit as the per-file rules:
//! resolution is by name (field names for locks, fn names for calls),
//! qualified just enough to stay honest — a lock resolves to a
//! declaration in its own file first, then its own crate, then anywhere;
//! a call edge only exists when the callee name resolves to exactly one
//! workspace definition. Over-approximation is the point: a false edge is
//! a reviewable `lint:allow`, a missed edge is a 3 a.m. deadlock.

use crate::analysis::FileAnalysis;
use crate::lexer::{field_chain, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// Methods that acquire a `Mutex`/`RwLock` guard. All are nullary, which
/// is what separates `RwLock::write()` from `io::Write::write(buf)`.
pub const GUARD_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Calls that block on the disk or the network: fsync-family, socket
/// I/O, and the `SyncClient` verbs (`manifest`/`fetch`) plus anything in
/// the `httpc` module. Holding a guard across one of these turns every
/// other thread wanting that lock into a disk/network waiter.
pub const BLOCKING_CALLS: &[&str] = &[
    "sync_all",
    "sync_data",
    "fsync",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "flush",
    "connect",
    "manifest",
    "fetch",
];

/// Markers delimiting the metrics table in `DESIGN.md` that R7 audits.
pub const DESIGN_TABLE_BEGIN: &str = "<!-- lint:metrics-table:begin -->";
/// Closing marker of the DESIGN metrics table.
pub const DESIGN_TABLE_END: &str = "<!-- lint:metrics-table:end -->";

/// One `fn` definition with a brace-delimited body.
#[derive(Debug)]
pub struct FnDef {
    /// The function's name (methods and free functions alike).
    pub name: String,
    /// Index into the file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[open, close]` of the body braces.
    pub body: (usize, usize),
}

/// One declared lock: a field, static, or binding whose type annotation
/// mentions `Mutex`/`RwLock` (wrappers like `Arc<Mutex<…>>` count — the
/// guard methods auto-deref through them).
#[derive(Debug)]
pub struct LockDecl {
    /// The declared name (`state`, `by_endpoint`, `LOCK`).
    pub name: String,
    /// Index into the file list.
    pub file: usize,
    /// 1-based line of the declaration.
    pub line: u32,
    /// Display label qualified by the declaring file: `engine.state`.
    pub label: String,
}

/// One guard acquisition site: a `GUARD_METHODS` call on a receiver that
/// resolves to a [`LockDecl`] (or to a lock-returning workspace fn).
#[derive(Debug)]
pub struct Acquisition {
    /// Index into [`WorkspaceIndex::locks`].
    pub lock: usize,
    /// Index into the file list.
    pub file: usize,
    /// Token index of the method name.
    pub token: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
    /// The acquisition method (`lock`, `read`, `write`, …).
    pub method: &'static str,
    /// Token range over which the guard is live: from the acquisition to
    /// the enclosing block close for `let`-bound guards, to the end of
    /// the statement for temporaries, truncated at an explicit `drop`.
    pub live: (usize, usize),
    /// The bound guard name, when the statement binds exactly one.
    pub bound: Option<String>,
}

/// One call site whose callee name is defined somewhere in the workspace.
#[derive(Debug)]
pub struct CallSite {
    /// The callee name as written.
    pub name: String,
    /// Index into the file list.
    pub file: usize,
    /// Token index of the callee identifier.
    pub token: usize,
    /// 1-based line of the call.
    pub line: u32,
}

/// One blocking-call site (a [`BLOCKING_CALLS`] name or `httpc::…`).
#[derive(Debug)]
pub struct BlockingSite {
    /// The call name as written (`sync_all`, `httpc::get`, …).
    pub name: String,
    /// Index into the file list.
    pub file: usize,
    /// Token index of the call identifier.
    pub token: usize,
    /// 1-based line of the call.
    pub line: u32,
}

/// One metrics counter declaration: a `Counter` field of a struct named
/// `Metrics`.
#[derive(Debug)]
pub struct CounterDecl {
    /// The counter name.
    pub name: String,
    /// Index into the file list.
    pub file: usize,
    /// 1-based line of the field.
    pub line: u32,
}

/// One row of the DESIGN metrics table (first backticked cell).
#[derive(Debug)]
pub struct DesignRow {
    /// The counter name the row documents.
    pub name: String,
    /// 1-based line in DESIGN.md.
    pub line: u32,
}

/// How a non-200 response was built outside the envelope helper.
#[derive(Debug, PartialEq, Eq)]
pub enum ErrorSiteKind {
    /// `Response::json(<non-2xx literal>, …)`.
    JsonCall,
    /// A string/byte-string literal starting a raw `HTTP/1.1 <status>`
    /// status line with a non-2xx code.
    RawWrite,
}

/// One raw (non-enveloped) error-response construction site.
#[derive(Debug)]
pub struct ErrorSite {
    /// Index into the file list.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The status code written.
    pub status: u16,
    /// How the response was built.
    pub kind: ErrorSiteKind,
}

/// The phase-one product: every cross-file fact the graph rules consume.
#[derive(Default)]
pub struct WorkspaceIndex {
    /// Every `fn` definition with a body, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// fn name → indices into `fns` (multiple = ambiguous by name).
    pub fn_by_name: BTreeMap<String, Vec<usize>>,
    /// Every lock declaration.
    pub locks: Vec<LockDecl>,
    /// Names of workspace fns whose return type mentions Mutex/RwLock —
    /// calling one and taking a guard is an acquisition of that fn's
    /// lock (`active().read()` in dial-fault).
    pub lock_returning_fns: BTreeSet<String>,
    /// Every guard acquisition, in (file, token) order.
    pub acquisitions: Vec<Acquisition>,
    /// Every workspace-resolvable call site, in (file, token) order.
    pub calls: Vec<CallSite>,
    /// Every blocking-call site, in (file, token) order.
    pub blocking: Vec<BlockingSite>,
    /// Metrics counter declarations (`Counter` fields of `Metrics`).
    pub counters: Vec<CounterDecl>,
    /// counter name → `.inc(` / `.add(` site count.
    pub counter_increments: BTreeMap<String, u32>,
    /// Rows of the DESIGN metrics table, when DESIGN.md was provided.
    pub design_rows: Vec<DesignRow>,
    /// True when a DESIGN.md with table markers was provided — without
    /// one (a single-file lint) no counter is missing a DESIGN row.
    pub design_table_present: bool,
    /// Raw error-response construction sites.
    pub error_sites: Vec<ErrorSite>,
}

impl WorkspaceIndex {
    /// Builds the index over every lexed file, plus the optional
    /// `DESIGN.md` source for the R7 table audit.
    pub fn build(files: &[FileAnalysis<'_>], design: Option<&str>) -> Self {
        let mut idx = WorkspaceIndex::default();
        for (fi, file) in files.iter().enumerate() {
            if file.aux_file {
                continue;
            }
            idx.collect_fns(fi, file);
        }
        for (fi, file) in files.iter().enumerate() {
            if file.aux_file {
                continue;
            }
            idx.collect_locks(fi, file);
        }
        for (fi, file) in files.iter().enumerate() {
            if file.aux_file {
                continue;
            }
            idx.collect_sites(fi, file, files);
            idx.collect_metrics(fi, file);
            idx.collect_error_sites(fi, file);
        }
        if let Some(src) = design {
            idx.collect_design_rows(src);
        }
        idx
    }

    /// The innermost fn whose body contains `token` in `file`.
    pub fn fn_containing(&self, file: usize, token: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file == file && (f.body.0..=f.body.1).contains(&token) {
                let tighter = best
                    .map(|b| {
                        let cur = &self.fns[b];
                        f.body.1 - f.body.0 < cur.body.1 - cur.body.0
                    })
                    .unwrap_or(true);
                if tighter {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// The unique workspace definition of `name`, or `None` when the name
    /// is undefined or ambiguous (defined in more than one place) — call
    /// edges require unambiguous resolution.
    pub fn unique_fn(&self, name: &str) -> Option<&FnDef> {
        match self.fn_by_name.get(name).map(Vec::as_slice) {
            Some([one]) => Some(&self.fns[*one]),
            _ => None,
        }
    }

    fn collect_fns(&mut self, fi: usize, file: &FileAnalysis<'_>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("fn") {
                continue;
            }
            let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            // Find the body `{` (or `;` for trait declarations) at
            // paren/bracket depth 0.
            let mut depth = 0i32;
            let mut open = None;
            for (j, t) in toks.iter().enumerate().skip(i + 2) {
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
            // Lock-returning fns: Mutex/RwLock named in the signature
            // after `->` (scan the slice between name and body).
            let mut after_arrow = false;
            for j in i + 2..open {
                let t = &toks[j];
                if t.is_punct('-') && toks.get(j + 1).is_some_and(|n| n.is_punct('>')) {
                    after_arrow = true;
                }
                if after_arrow && (t.is_ident("Mutex") || t.is_ident("RwLock")) {
                    self.lock_returning_fns.insert(name.text.to_string());
                    break;
                }
            }
            let idx = self.fns.len();
            self.fns.push(FnDef {
                name: name.text.to_string(),
                file: fi,
                line: toks[i].line,
                body: (open, close),
            });
            self.fn_by_name.entry(name.text.to_string()).or_default().push(idx);
        }
    }

    fn collect_locks(&mut self, fi: usize, file: &FileAnalysis<'_>) {
        let toks = &file.tokens;
        let stem = file.file_name.trim_end_matches(".rs");
        for i in 0..toks.len() {
            // `name : <annotation mentioning Mutex/RwLock>` — struct
            // fields, statics, `let` annotations, fn params alike.
            if toks[i].kind != TokenKind::Ident || !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            {
                continue;
            }
            // `::` paths and struct literal fields are not declarations.
            if toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
                continue;
            }
            if !annotation_mentions_lock(toks, i + 2) {
                continue;
            }
            self.locks.push(LockDecl {
                name: toks[i].text.to_string(),
                file: fi,
                line: toks[i].line,
                label: format!("{stem}.{}", toks[i].text),
            });
        }
    }

    /// Resolves an acquisition receiver name to a lock declaration:
    /// same file wins, then same crate, then any. Returns an index into
    /// `locks`.
    fn resolve_lock(&self, name: &str, fi: usize, files: &[FileAnalysis<'_>]) -> Option<usize> {
        let mut same_crate = None;
        let mut anywhere = None;
        for (li, l) in self.locks.iter().enumerate() {
            if l.name != name {
                continue;
            }
            if l.file == fi {
                return Some(li);
            }
            if same_crate.is_none() && files[l.file].crate_dir == files[fi].crate_dir {
                same_crate = Some(li);
            }
            if anywhere.is_none() {
                anywhere = Some(li);
            }
        }
        same_crate.or(anywhere)
    }

    fn collect_sites(&mut self, fi: usize, file: &FileAnalysis<'_>, files: &[FileAnalysis<'_>]) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            let t = &toks[i];
            // Guard acquisitions: `.method()` with an empty argument list
            // on a receiver resolving to a lock.
            if i > 0
                && toks[i - 1].is_punct('.')
                && t.is_ident_in(GUARD_METHODS)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
            {
                let lock = self.acquisition_target(fi, file, i - 1, files);
                if let Some(lock) = lock {
                    let method =
                        GUARD_METHODS.iter().find(|m| t.is_ident(m)).copied().unwrap_or("lock");
                    // The guard is the statement's binding only when the
                    // call chain ends at the guard method (modulo
                    // `.unwrap()` / `.expect(…)` / `?`). A continued
                    // chain — `.lock().expect("…").push_back(x)`,
                    // `.read().unwrap().clone()` — consumes the guard as
                    // a statement-scoped temporary and binds something
                    // else (if anything).
                    let consumed = chain_continues(file, i);
                    let bound = if consumed { None } else { file.binding_of_statement(i) };
                    let live_to = guard_live_to(file, i, bound.is_some());
                    let live_to = truncate_at_drop(file, bound.as_deref(), i, live_to);
                    self.acquisitions.push(Acquisition {
                        lock,
                        file: fi,
                        token: i,
                        line: t.line,
                        col: t.col,
                        method,
                        live: (i, live_to),
                        bound,
                    });
                }
            }
            // Workspace-resolvable calls: `name(` where `name` is a
            // workspace fn (free call or method call alike — resolution
            // is by name).
            if t.kind == TokenKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && self.fn_by_name.contains_key(t.text)
                && !(i > 0 && toks[i - 1].is_ident("fn"))
            {
                self.calls.push(CallSite {
                    name: t.text.to_string(),
                    file: fi,
                    token: i,
                    line: t.line,
                });
            }
            // Blocking calls: the fsync/socket/SyncClient verb list plus
            // any `httpc::<fn>` path call.
            if t.is_ident_in(BLOCKING_CALLS) && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                self.blocking.push(BlockingSite {
                    name: t.text.to_string(),
                    file: fi,
                    token: i,
                    line: t.line,
                });
            }
            if t.is_ident("httpc")
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.kind == TokenKind::Ident)
                && toks.get(i + 4).is_some_and(|n| n.is_punct('('))
            {
                self.blocking.push(BlockingSite {
                    name: format!("httpc::{}", toks[i + 3].text),
                    file: fi,
                    token: i + 3,
                    line: t.line,
                });
            }
        }
    }

    /// What lock a `.lock()`/`.read()`/… at `dot` acquires: the last
    /// field in the receiver chain when it names a declared lock, or the
    /// callee when the receiver is a lock-returning fn call.
    fn acquisition_target(
        &self,
        fi: usize,
        file: &FileAnalysis<'_>,
        dot: usize,
        files: &[FileAnalysis<'_>],
    ) -> Option<usize> {
        let toks = &file.tokens;
        let chain = field_chain(toks, dot);
        if let Some(last) = chain.last() {
            return self.resolve_lock(last, fi, files);
        }
        // `active().read()` — receiver is a call whose callee returns a
        // lock. Walk back over the argument list to the callee name.
        if dot > 0 && toks[dot - 1].is_punct(')') {
            let mut depth = 0i32;
            let mut j = dot - 1;
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
                    return None;
                }
                j -= 1;
            }
            if j > 0 && toks[j - 1].kind == TokenKind::Ident {
                let callee = toks[j - 1].text;
                if self.lock_returning_fns.contains(callee) {
                    // Resolved by the callee's name; a fn with no matching
                    // field declaration simply contributes no node.
                    return self.resolve_lock(callee, fi, files);
                }
            }
        }
        None
    }

    fn collect_metrics(&mut self, fi: usize, file: &FileAnalysis<'_>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            // The struct declaration named Metrics.
            if toks[i].is_ident("struct") && toks.get(i + 1).is_some_and(|t| t.is_ident("Metrics"))
            {
                let Some(open) = (i + 2..toks.len()).find(|j| toks[*j].is_punct('{')) else {
                    continue;
                };
                let Some(close) = file.matching_close(open) else { continue };
                let mut j = open + 1;
                while j < close {
                    // Field shape: `[pub] name : <type…> ,` at depth 1.
                    if toks[j].kind == TokenKind::Ident
                        && !toks[j].is_ident("pub")
                        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                        && !toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                    {
                        let (is_counter, next) = field_type_info(toks, j + 2, close);
                        if is_counter {
                            self.counters.push(CounterDecl {
                                name: toks[j].text.to_string(),
                                file: fi,
                                line: toks[j].line,
                            });
                        }
                        j = next;
                        continue;
                    }
                    j += 1;
                }
            }
            // Increment sites: `.<name>.inc(` and `.<name>.add(`.
            if toks[i].is_ident_in(&["inc", "add"])
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                let chain = field_chain(toks, i - 1);
                if let Some(name) = chain.last() {
                    *self.counter_increments.entry((*name).to_string()).or_default() += 1;
                }
            }
        }
    }

    fn collect_error_sites(&mut self, fi: usize, file: &FileAnalysis<'_>) {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.in_test(i) {
                continue;
            }
            let t = &toks[i];
            // `Response::json(<status literal>, …)` with a non-2xx code.
            if t.is_ident("Response")
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_ident("json"))
                && toks.get(i + 4).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 5).is_some_and(|n| n.kind == TokenKind::Num)
            {
                if let Ok(status) = toks[i + 5].text.parse::<u16>() {
                    if !(200..300).contains(&status) {
                        self.error_sites.push(ErrorSite {
                            file: fi,
                            line: t.line,
                            col: t.col,
                            status,
                            kind: ErrorSiteKind::JsonCall,
                        });
                    }
                }
            }
            // Raw status lines in string/byte-string literals.
            if matches!(t.kind, TokenKind::Str | TokenKind::ByteStr | TokenKind::RawStr) {
                if let Some(status) = raw_status_line(t.text) {
                    if !(200..300).contains(&status) && status >= 300 {
                        self.error_sites.push(ErrorSite {
                            file: fi,
                            line: t.line,
                            col: t.col,
                            status,
                            kind: ErrorSiteKind::RawWrite,
                        });
                    }
                }
            }
        }
    }

    fn collect_design_rows(&mut self, src: &str) {
        let mut in_table = false;
        for (i, line) in src.lines().enumerate() {
            if line.contains(DESIGN_TABLE_BEGIN) {
                in_table = true;
                self.design_table_present = true;
                continue;
            }
            if line.contains(DESIGN_TABLE_END) {
                in_table = false;
                continue;
            }
            if !in_table {
                continue;
            }
            // Rows look like `| `name` | description |`; the header and
            // separator rows have no backticked first cell.
            let Some(cell) = line.trim().strip_prefix('|') else { continue };
            let cell = cell.split('|').next().unwrap_or("").trim();
            if let Some(name) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
                if !name.is_empty() {
                    self.design_rows
                        .push(DesignRow { name: name.to_string(), line: (i + 1) as u32 });
                }
            }
        }
    }
}

/// Scans a type annotation starting at `from` and reports whether it
/// mentions `Mutex`/`RwLock` anywhere (wrappers included), stopping at
/// the annotation's end: `,`/`;`/`=`/`)`/`}`/`{` at angle-depth 0.
fn annotation_mentions_lock(toks: &[Token<'_>], from: usize) -> bool {
    let mut depth = 0i32;
    for t in toks.iter().skip(from) {
        match t.text {
            "<" | "(" | "[" if t.kind == TokenKind::Punct => depth += 1,
            ">" | ")" | "]" if t.kind == TokenKind::Punct => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            "," | ";" | "=" | "{" | "}" if depth == 0 => return false,
            "Mutex" | "RwLock" if t.kind == TokenKind::Ident => return true,
            _ => {}
        }
    }
    false
}

/// Field-type scan for the Metrics struct: from the `:` at `from` to the
/// field-ending `,` (or the struct close), reporting whether the type
/// mentions `Counter`. Returns `(is_counter, index past the field)`.
fn field_type_info(toks: &[Token<'_>], from: usize, close: usize) -> (bool, usize) {
    let mut depth = 0i32;
    let mut is_counter = false;
    let mut j = from;
    while j < close {
        let t = &toks[j];
        match t.text {
            "<" | "(" | "[" if t.kind == TokenKind::Punct => depth += 1,
            ">" | ")" | "]" if t.kind == TokenKind::Punct => depth -= 1,
            "," if depth == 0 => return (is_counter, j + 1),
            _ => is_counter |= t.is_ident("Counter"),
        }
        j += 1;
    }
    (is_counter, close)
}

/// True when the call chain continues past the guard method at `site`
/// (after skipping `?` and `.unwrap()` / `.expect(…)` adapters): the
/// guard is consumed inside the statement and whatever the statement
/// binds is a derived value, not the guard.
fn chain_continues(file: &FileAnalysis<'_>, site: usize) -> bool {
    let toks = &file.tokens;
    // site is the method ident; site+1/site+2 are the `(` `)` pair.
    let mut j = site + 3;
    loop {
        let Some(t) = toks.get(j) else { return false };
        if t.is_punct('?') {
            j += 1;
            continue;
        }
        if t.is_punct('.')
            && toks.get(j + 1).is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
            && toks.get(j + 2).is_some_and(|n| n.is_punct('('))
        {
            match file.matching_close(j + 2) {
                Some(close) => {
                    j = close + 1;
                    continue;
                }
                None => return false,
            }
        }
        return t.is_punct('.');
    }
}

/// The token index a guard taken at `site` stays live to.
///
/// Bound guards (`let g = m.lock()…;`) live to the end of their binding
/// scope: the enclosing block for a plain `let`, the attached block for
/// `if let` / `while let` headers. Temporaries live to the end of their
/// expression — the statement's `;`, the arm's `,`, or the header's `{`
/// — except `match` scrutinees and `if let`/`while let` headers, whose
/// temporaries Rust keeps alive through the attached block.
fn guard_live_to(file: &FileAnalysis<'_>, site: usize, bound: bool) -> usize {
    let toks = &file.tokens;
    if bound {
        let (start, end) = file.statement_window(site);
        // `if let Ok(g) = m.lock() {` — g lives for the attached block,
        // not the enclosing one.
        let header = toks.get(start).is_some_and(|t| t.is_ident("if") || t.is_ident("while"))
            || toks
                .get(start)
                .is_some_and(|t| t.is_punct('{') || t.is_punct('}') || t.is_punct(';'))
                && first_code_token(file, start + 1)
                    .is_some_and(|k| toks[k].is_ident("if") || toks[k].is_ident("while"));
        if header && toks.get(end).is_some_and(|t| t.is_punct('{')) {
            return file.matching_close(end).unwrap_or(toks.len());
        }
        return file.enclosing_block_close(site);
    }
    // Temporary: walk to the end of the containing expression.
    let mut depth = 0i32;
    let mut j = site;
    while j < toks.len() {
        let t = &toks[j];
        match t.text {
            "(" | "[" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" if t.kind == TokenKind::Punct => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" | "," | "}" if t.kind == TokenKind::Punct && depth == 0 => return j,
            "{" if t.kind == TokenKind::Punct && depth == 0 => {
                // A `match m.lock() { … }` scrutinee (and an `if let` /
                // `while let` header) keeps its temporaries alive for
                // the whole attached block; a plain `if`/`while`
                // condition drops them at the `{`.
                let (start, _) = file.statement_window(site);
                let head = first_code_token(file, start).map(|k| toks[k].text).unwrap_or("");
                let head = if matches!(head, "{" | "}" | ";") {
                    first_code_token(file, start + 1).map(|k| toks[k].text).unwrap_or("")
                } else {
                    head
                };
                let is_let_header = (head == "if" || head == "while")
                    && toks[start..j].iter().any(|t| t.is_ident("let"));
                if head == "match" || is_let_header {
                    return file.matching_close(j).unwrap_or(toks.len());
                }
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// First non-comment, non-attribute token at or after `from`.
fn first_code_token(file: &FileAnalysis<'_>, from: usize) -> Option<usize> {
    let toks = &file.tokens;
    let mut j = from;
    loop {
        let t = toks.get(j)?;
        if t.is_comment() {
            j += 1;
            continue;
        }
        if t.is_punct('#') && toks.get(j + 1).is_some_and(|n| n.is_punct('[')) {
            if let Some(close) = file.matching_close(j + 1) {
                j = close + 1;
                continue;
            }
        }
        return Some(j);
    }
}

/// Truncates a guard's live range at an explicit `drop(<name>)` of its
/// binding (or `mem::drop`). Without a binding there is nothing to drop.
fn truncate_at_drop(file: &FileAnalysis<'_>, bound: Option<&str>, from: usize, to: usize) -> usize {
    let Some(name) = bound else { return to };
    let toks = &file.tokens;
    for j in from..to.min(toks.len()) {
        if toks[j].is_ident("drop")
            && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(j + 2).is_some_and(|n| n.is_ident(name))
            && toks.get(j + 3).is_some_and(|n| n.is_punct(')'))
        {
            return j;
        }
    }
    to
}

/// If `literal` (with its quotes/prefix) starts an HTTP status line,
/// the status code it carries.
fn raw_status_line(literal: &str) -> Option<u16> {
    let body = literal.trim_start_matches(['b', 'r', '#']).trim_start_matches('"');
    let rest = body.strip_prefix("HTTP/1.1 ").or_else(|| body.strip_prefix("HTTP/1.0 "))?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if digits.len() == 3 {
        digits.parse().ok()
    } else {
        None
    }
}
