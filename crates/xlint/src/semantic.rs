//! Workspace-level semantic analysis: a cross-file symbol table and
//! approximate call graph over the items extracted by [`crate::parser`],
//! plus the three invariant rules built on it:
//!
//! - **wal-before-write** — durable `Database`/`Smr` mutation paths must
//!   reach a WAL append, and reach it before the first applied write.
//! - **lock-order** — the cross-crate Mutex/RwLock acquisition graph must
//!   stay acyclic.
//! - **no-blocking-in-par** — no fsync/file I/O/unbounded lock waits inside
//!   `Pool::scope`/`par_*` closures.
//!
//! The call graph is approximate by design. `self.m()` resolves within the
//! caller's own type and `Type::m()` through its qualifier; other method
//! calls resolve by name only when exactly one workspace type defines that
//! name — ambiguously named methods resolve to nothing rather than to
//! everything. That keeps the deadlock-shaped rules (lock-order, blocking)
//! quiet without receiver type inference, while `self.` chains stay precise
//! for the transitive WAL walks; per-line `// xlint: allow(rule)`
//! markers document the intentional exceptions.

use crate::lexer::{Lexed, TokKind};
use crate::parser::{self, CallSite, Callee, FnItem};
use crate::rules::{self, Rule, Violation};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

/// Types whose public `&mut self` methods are durable mutation entry points
/// for the wal-before-write rule.
const DURABLE_TYPES: &[(&str, &str)] = &[
    ("crates/relstore/src/", "Database"),
    ("crates/smr/src/", "Smr"),
];

/// Method names that open a parallel closure region. `run` is included only
/// when invoked on a receiver named `pool` (plain `run(…)` is too common).
const PAR_ENTRIES: &[&str] = &["scope", "par_chunks_mut", "par_map_collect", "par_sum"];

/// Method names that block the calling thread.
const BLOCKING_METHODS: &[&str] = &[
    "lock",
    "sync_all",
    "sync_data",
    "flush",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "wait_while",
    "park",
];

/// One direct lock acquisition with its approximate hold range.
#[derive(Debug, Clone)]
struct Acq {
    class: String,
    tok: usize,
    line: u32,
    /// Token index up to which the guard is considered held: end of the
    /// enclosing block for let-bound guards, end of the statement for
    /// temporaries. `drop(guard)` is not modelled — held ranges only
    /// over-approximate, which is the safe direction for deadlock rules.
    hold_end: usize,
}

/// One function plus the semantic facts extracted from its body.
#[derive(Debug)]
struct FnInfo {
    item: FnItem,
    calls: Vec<CallSite>,
    acqs: Vec<Acq>,
    /// Direct blocking operations: (token index, line, description).
    blocking: Vec<(usize, u32, String)>,
    /// Parallel closure regions: (entry method name, token range of args).
    par_regions: Vec<(String, Range<usize>)>,
    /// This fn *is* a WAL append sink.
    wal_sink: bool,
    /// Direct applied-write call sites: (tok, line). Recorded only in the
    /// Database entry layer (`crates/relstore/src/db.rs`), where `insert`
    /// and `execute` calls are applied table writes — deeper relstore files
    /// use the same method names for plain map bookkeeping.
    applies: Vec<(usize, u32)>,
}

/// The assembled workspace: functions, symbol tables, call-graph edges.
struct Workspace {
    fns: Vec<FnInfo>,
    succ: Vec<Vec<usize>>,
    methods_by_name: HashMap<String, Vec<usize>>,
    free_by_name: HashMap<String, Vec<usize>>,
    by_owner_name: HashMap<(String, String), Vec<usize>>,
    /// Method names defined by more than one type. Without receiver types,
    /// resolving these to every same-named method floods the call graph
    /// with phantom edges (`.get(` on a map "reaching" `Table::get`), so
    /// ambiguous names resolve to nothing unless the receiver is `self`.
    ambiguous_methods: BTreeSet<String>,
}

impl Workspace {
    fn display_name(&self, i: usize) -> String {
        let it = &self.fns[i].item;
        match &it.owner {
            Some(o) => format!("{o}::{}", it.name),
            None => it.name.clone(),
        }
    }

    /// Resolves a call site made from a method of `caller_owner`:
    /// `self.m(…)` resolves within the caller's own type; other method
    /// calls resolve by name only when exactly one type defines the name;
    /// qualified `Type::f` by (owner, name); free calls by function name.
    fn resolve(&self, caller_owner: Option<&str>, callee: &Callee) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        match callee {
            Callee::Method { name, recv } => {
                if recv.as_deref() == Some("self") {
                    if let Some(owner) = caller_owner {
                        if let Some(ids) =
                            self.by_owner_name.get(&(owner.to_string(), name.clone()))
                        {
                            out.extend(ids.iter().copied());
                            return out;
                        }
                    }
                }
                if !self.ambiguous_methods.contains(name) {
                    if let Some(ids) = self.methods_by_name.get(name) {
                        out.extend(ids.iter().copied());
                    }
                }
            }
            Callee::Free { path, name } => {
                let qualified = path
                    .last()
                    .filter(|seg| seg.chars().next().is_some_and(char::is_uppercase));
                if let Some(ty) = qualified {
                    if let Some(ids) = self.by_owner_name.get(&(ty.clone(), name.clone())) {
                        out.extend(ids.iter().copied());
                    }
                } else if let Some(ids) = self.free_by_name.get(name) {
                    out.extend(ids.iter().copied());
                }
            }
        }
        out
    }

    /// Convenience: resolves a call site within function `i`.
    fn resolve_in(&self, i: usize, callee: &Callee) -> BTreeSet<usize> {
        self.resolve(self.fns[i].item.owner.as_deref(), callee)
    }
}

fn ident_at(lexed: &Lexed, i: usize) -> Option<&str> {
    lexed.tokens.get(i).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn punct_at(lexed: &Lexed, i: usize, c: char) -> bool {
    lexed
        .tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Punct(c))
}

/// Scans every file for lock *classes*: struct fields and statics of type
/// `Mutex<…>` / `RwLock<…>` (optionally behind a path or a wrapper such as
/// `Vec<…>`/`Arc<…>`). The field/static name is the class. Single-letter
/// names are skipped — they are generic helper parameters
/// (`fn lock<T>(m: &Mutex<T>)`), not shared workspace state.
fn discover_lock_classes(files: &[(String, Lexed)]) -> BTreeSet<String> {
    let mut classes = BTreeSet::new();
    for (_, lexed) in files {
        let mask = rules::test_region_mask(&lexed.tokens);
        for (i, in_test) in mask.iter().enumerate() {
            if *in_test {
                continue;
            }
            let Some(name) = ident_at(lexed, i) else {
                continue;
            };
            if (name != "Mutex" && name != "RwLock") || !punct_at(lexed, i + 1, '<') {
                continue;
            }
            let mut j = i;
            loop {
                // `std::sync::Mutex` → walk back over the path.
                while j >= 3
                    && punct_at(lexed, j - 1, ':')
                    && punct_at(lexed, j - 2, ':')
                    && ident_at(lexed, j - 3).is_some()
                {
                    j -= 3;
                }
                // `Vec<Mutex<…>>`, `Arc<RwLock<…>>` → walk out of wrappers.
                if j >= 2 && punct_at(lexed, j - 1, '<') && ident_at(lexed, j - 2).is_some() {
                    j -= 2;
                } else {
                    break;
                }
            }
            if j >= 2 && punct_at(lexed, j - 1, ':') && !punct_at(lexed, j - 2, ':') {
                if let Some(class) = ident_at(lexed, j - 2) {
                    if class.len() > 1 {
                        classes.insert(class.to_string());
                    }
                }
            }
        }
    }
    classes
}

/// For each token, the index of the closing `}` of its innermost block
/// (`tokens.len()` at top level).
fn enclosing_close(lexed: &Lexed) -> Vec<usize> {
    let tokens = &lexed.tokens;
    let closes = parser::brace_matches(tokens);
    let mut out = vec![tokens.len(); tokens.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..tokens.len() {
        while stack.last().is_some_and(|&open| i > closes[open]) {
            stack.pop();
        }
        if let Some(&open) = stack.last() {
            out[i] = closes[open];
        }
        if tokens[i].kind == TokKind::Punct('{') {
            stack.push(i);
        }
    }
    out
}

/// Is the expression whose call chain starts at token `chain_start` bound by
/// a `let`? (`let [mut] guard = self.engine.write();`)
fn is_let_bound(lexed: &Lexed, chain_start: usize) -> bool {
    if chain_start == 0 || !punct_at(lexed, chain_start - 1, '=') {
        return false;
    }
    // `==`, `!=`, `<=`, `>=`, `+=`, … are not bindings.
    if chain_start >= 2
        && matches!(
            lexed.tokens[chain_start - 2].kind,
            TokKind::Punct('=' | '!' | '<' | '>' | '+' | '-' | '*' | '/')
        )
    {
        return false;
    }
    let mut j = chain_start - 1;
    for _ in 0..6 {
        if j == 0 {
            return false;
        }
        j -= 1;
        match &lexed.tokens[j].kind {
            TokKind::Ident if lexed.tokens[j].text == "let" => return true,
            TokKind::Ident => continue,
            TokKind::Punct(':' | '<' | '>') => continue, // `let g: Guard<'_> =`
            _ => return false,
        }
    }
    false
}

/// Start of the receiver chain for the call whose name ident is at `i`:
/// walks `self.db.execute` back to the `self` token.
fn chain_start(lexed: &Lexed, i: usize) -> usize {
    let mut j = i;
    while j >= 2 && punct_at(lexed, j - 1, '.') && ident_at(lexed, j - 2).is_some() {
        j -= 2;
    }
    j
}

/// Hold range end for an acquisition at call-name token `i` with args
/// ending at `args_end`.
fn hold_end(lexed: &Lexed, encl: &[usize], i: usize, args_end: usize) -> usize {
    let start = chain_start(lexed, i);
    if is_let_bound(lexed, start) {
        return encl.get(i).copied().unwrap_or(lexed.tokens.len());
    }
    // Temporary: the guard drops at the end of the statement.
    let mut j = args_end;
    let stop = encl.get(i).copied().unwrap_or(lexed.tokens.len());
    while j < lexed.tokens.len() && j < stop {
        if lexed.tokens[j].kind == TokKind::Punct(';') {
            return j;
        }
        j += 1;
    }
    stop
}

/// Builds the workspace model from the lexed files.
fn build(files: &[(String, Lexed)]) -> Workspace {
    let classes = discover_lock_classes(files);
    let mut fns: Vec<FnInfo> = Vec::new();

    for (rel, lexed) in files {
        let mask = rules::test_region_mask(&lexed.tokens);
        let encl = enclosing_close(lexed);
        let is_db_layer = rel == "crates/relstore/src/db.rs";
        for item in parser::parse_items(rel, &lexed.tokens, &mask) {
            if item.in_test {
                continue;
            }
            let calls = parser::call_sites(&lexed.tokens, item.body.clone());
            let wal_sink = item.name == "wal_commit"
                || (item.owner.as_deref() == Some("Wal")
                    && matches!(item.name.as_str(), "commit" | "append"));
            let mut info = FnInfo {
                item,
                calls,
                acqs: Vec::new(),
                blocking: Vec::new(),
                par_regions: Vec::new(),
                wal_sink,
                applies: Vec::new(),
            };
            extract_facts(lexed, &encl, &classes, is_db_layer, &mut info);
            fns.push(info);
        }
    }

    // Symbol tables.
    let mut methods_by_name: HashMap<String, Vec<usize>> = HashMap::new();
    let mut free_by_name: HashMap<String, Vec<usize>> = HashMap::new();
    let mut by_owner_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        match &f.item.owner {
            Some(owner) => {
                // Method-call syntax reaches only functions with a `self`
                // receiver: `flag.load(Ordering::Acquire)` never calls an
                // associated `fn load(path: &Path)`.
                if f.item.takes_self {
                    methods_by_name
                        .entry(f.item.name.clone())
                        .or_default()
                        .push(i);
                }
                by_owner_name
                    .entry((owner.clone(), f.item.name.clone()))
                    .or_default()
                    .push(i);
            }
            None => free_by_name.entry(f.item.name.clone()).or_default().push(i),
        }
    }

    let mut ambiguous_methods = BTreeSet::new();
    {
        let mut owners_of: HashMap<&str, BTreeSet<&str>> = HashMap::new();
        for (owner, name) in by_owner_name.keys() {
            owners_of.entry(name).or_default().insert(owner);
        }
        for (name, owners) in owners_of {
            if owners.len() > 1 {
                ambiguous_methods.insert(name.to_string());
            }
        }
    }

    let mut ws = Workspace {
        fns,
        succ: Vec::new(),
        methods_by_name,
        free_by_name,
        by_owner_name,
        ambiguous_methods,
    };
    // Call-graph edges.
    let mut succ: Vec<Vec<usize>> = Vec::with_capacity(ws.fns.len());
    for (i, f) in ws.fns.iter().enumerate() {
        let mut out = BTreeSet::new();
        for c in &f.calls {
            out.extend(ws.resolve_in(i, &c.callee));
        }
        succ.push(out.into_iter().collect());
    }
    ws.succ = succ;
    ws
}

/// Populates the direct semantic facts of one function from its call sites.
fn extract_facts(
    lexed: &Lexed,
    encl: &[usize],
    classes: &BTreeSet<String>,
    is_db_layer: bool,
    info: &mut FnInfo,
) {
    for c in info.calls.clone() {
        match &c.callee {
            Callee::Method { name, recv } => {
                // Lock acquisitions on known classes.
                if matches!(name.as_str(), "lock" | "read" | "write") {
                    if let Some(r) = recv {
                        if classes.contains(r) {
                            info.acqs.push(Acq {
                                class: r.clone(),
                                tok: c.tok,
                                line: c.line,
                                hold_end: hold_end(lexed, encl, c.tok, c.args.end),
                            });
                        }
                    }
                }
                // Blocking operations. `.read(`/`.write(` only count via the
                // class check above — bare io reads are not lock waits.
                if BLOCKING_METHODS.contains(&name.as_str()) {
                    info.blocking
                        .push((c.tok, c.line, format!(".{name}() wait")));
                }
                // Parallel closure regions.
                if PAR_ENTRIES.contains(&name.as_str())
                    || (name == "run" && recv.as_deref() == Some("pool"))
                {
                    info.par_regions.push((name.clone(), c.args.clone()));
                }
                if is_db_layer && name == "insert" {
                    info.applies.push((c.tok, c.line));
                }
            }
            Callee::Free { path, name } => {
                // The `lock(&self.state)` / `read_lock(&self.current)` /
                // `write_lock(&self.current)` poison-proof helpers: an
                // acquisition of any class named in their arguments.
                if matches!(name.as_str(), "lock" | "read_lock" | "write_lock") {
                    for i in c.args.clone() {
                        if let Some(id) = ident_at(lexed, i) {
                            if classes.contains(id) {
                                info.acqs.push(Acq {
                                    class: id.to_string(),
                                    tok: c.tok,
                                    line: c.line,
                                    hold_end: hold_end(lexed, encl, c.tok, c.args.end),
                                });
                            }
                        }
                    }
                }
                let last = path.last().map(String::as_str);
                let blocking = match (last, name.as_str()) {
                    (Some("File"), "open" | "create") => Some("File open/create".to_string()),
                    (Some("fs"), op) => Some(format!("fs::{op}")),
                    (Some("thread") | None, "sleep" | "park") => Some(format!("{name}()")),
                    _ => None,
                };
                if let Some(desc) = blocking {
                    info.blocking.push((c.tok, c.line, desc));
                }
                if is_db_layer && name == "execute" {
                    info.applies.push((c.tok, c.line));
                }
            }
        }
    }
    info.acqs.sort_by_key(|a| a.tok);
    info.blocking.sort_by_key(|b| b.0);
}

/// Boolean reachability fixpoint: `out[i]` is true when `init(fns[i])` or
/// some successor is reachable-true.
fn fixpoint_reach(
    fns: &[FnInfo],
    succ: &[Vec<usize>],
    init: impl Fn(&FnInfo) -> bool,
) -> Vec<bool> {
    let mut r: Vec<bool> = fns.iter().map(&init).collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            if !r[i] && succ[i].iter().any(|&j| r[j]) {
                r[i] = true;
                changed = true;
            }
        }
        if !changed {
            return r;
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 1: wal-before-write
// ---------------------------------------------------------------------------

fn lint_wal(ws: &Workspace) -> Vec<Violation> {
    let reaches_apply = fixpoint_reach(&ws.fns, &ws.succ, |f| !f.applies.is_empty());
    let reaches_wal = fixpoint_reach(&ws.fns, &ws.succ, |f| f.wal_sink);
    let mut out = Vec::new();
    for (prefix, ty) in DURABLE_TYPES {
        for i in 0..ws.fns.len() {
            let f = &ws.fns[i];
            let it = &f.item;
            if !it.file.starts_with(prefix)
                || it.owner.as_deref() != Some(*ty)
                || !it.is_pub
                || !it.takes_mut_self
            {
                continue;
            }
            if !reaches_apply[i] {
                continue; // not a durable write path
            }
            if !reaches_wal[i] {
                out.push(Violation {
                    file: it.file.clone(),
                    line: it.line,
                    rule: Rule::WalBeforeWrite,
                    message: format!(
                        "`{ty}::{}` reaches an applied write but no call path from it \
                         reaches a WAL append (`wal_commit`); the mutation is not \
                         crash-recoverable",
                        it.name
                    ),
                });
                continue;
            }
            // Both reachable: the first applied write in this body must not
            // strictly precede the first WAL append.
            let site_reaches = |c: &CallSite, set: &[bool]| -> bool {
                ws.resolve_in(i, &c.callee).iter().any(|&g| set[g])
            };
            let first_apply = f
                .applies
                .iter()
                .map(|&(tok, _)| tok)
                .chain(
                    f.calls
                        .iter()
                        .filter(|c| site_reaches(c, &reaches_apply))
                        .map(|c| c.tok),
                )
                .min();
            let first_wal = f
                .calls
                .iter()
                .filter(|c| site_reaches(c, &reaches_wal))
                .map(|c| c.tok)
                .min();
            if let (Some(a), Some(w)) = (first_apply, first_wal) {
                if a < w {
                    let line = f
                        .applies
                        .iter()
                        .find(|&&(tok, _)| tok == a)
                        .map(|&(_, l)| l)
                        .or_else(|| f.calls.iter().find(|c| c.tok == a).map(|c| c.line))
                        .unwrap_or(it.line);
                    out.push(Violation {
                        file: it.file.clone(),
                        line,
                        rule: Rule::WalBeforeWrite,
                        message: format!(
                            "`{ty}::{}` applies a write before its WAL append; log the \
                             operation first so recovery can replay it",
                            it.name
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 2: lock-order
// ---------------------------------------------------------------------------

/// A directed "class B acquired while class A held" pair.
type LockEdge = (String, String);
/// First witness (file, line) recorded for a lock edge.
type WitnessSite = (String, u32);

fn lint_lock_order(ws: &Workspace) -> Vec<Violation> {
    // Transitive acquisition sets per fn.
    let n = ws.fns.len();
    let mut trans: Vec<BTreeSet<String>> = ws
        .fns
        .iter()
        .map(|f| f.acqs.iter().map(|a| a.class.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for s in 0..ws.succ[i].len() {
                let j = ws.succ[i][s];
                if j == i {
                    continue;
                }
                let extra: Vec<String> = trans[j].difference(&trans[i]).cloned().collect();
                if !extra.is_empty() {
                    trans[i].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Directed edges class A → class B ("B acquired while A held"), with the
    // first witness site per edge.
    let mut edges: BTreeMap<LockEdge, WitnessSite> = BTreeMap::new();
    let mut add_edge = |a: &str, b: &str, file: &str, line: u32| {
        if a != b {
            edges
                .entry((a.to_string(), b.to_string()))
                .or_insert_with(|| (file.to_string(), line));
        }
    };
    for (i, f) in ws.fns.iter().enumerate() {
        for a in &f.acqs {
            // Intra-fn: later acquisitions inside the hold range.
            for b in &f.acqs {
                if b.tok > a.tok && b.tok < a.hold_end {
                    add_edge(&a.class, &b.class, &f.item.file, b.line);
                }
            }
            // Interprocedural: calls made while the guard is held acquire
            // the callee's transitive lock set.
            for c in &f.calls {
                if c.tok <= a.tok || c.tok >= a.hold_end {
                    continue;
                }
                for g in ws.resolve_in(i, &c.callee) {
                    for l in &trans[g] {
                        add_edge(&a.class, l, &f.item.file, c.line);
                    }
                }
            }
        }
    }

    // Cycle detection: strongly-connected components of ≥2 classes.
    let nodes: Vec<String> = edges
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index: BTreeMap<&str, usize> = nodes
        .iter()
        .map(|s| s.as_str())
        .enumerate()
        .map(|(i, s)| (s, i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        adj[index[a.as_str()]].push(index[b.as_str()]);
    }
    let sccs = kosaraju(&adj);
    let mut out = Vec::new();
    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        let names: Vec<&str> = scc.iter().map(|&i| nodes[i].as_str()).collect();
        // Witness: the two lexicographically-smallest in-SCC edges in
        // opposite "directions" (any two suffice to show the cycle).
        let in_scc: Vec<(&LockEdge, &WitnessSite)> = edges
            .iter()
            .filter(|((a, b), _)| names.contains(&a.as_str()) && names.contains(&b.as_str()))
            .collect();
        let mut detail = String::new();
        for ((a, b), (file, line)) in in_scc.iter().take(3) {
            if !detail.is_empty() {
                detail.push_str(", ");
            }
            detail.push_str(&format!("`{a}` then `{b}` at {file}:{line}"));
        }
        let ((_, _), (file, line)) = in_scc[0];
        out.push(Violation {
            file: file.clone(),
            line: *line,
            rule: Rule::LockOrder,
            message: format!(
                "lock classes {{{}}} are acquired in inconsistent orders ({detail}); \
                 pick one global order and stick to it or the paths can deadlock",
                names.join(", ")
            ),
        });
    }
    out
}

/// Kosaraju SCC over a small adjacency list; returns components with nodes
/// sorted, components ordered by smallest member.
fn kosaraju(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for s in 0..n {
        if seen[s] {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack = vec![(s, 0usize)];
        seen[s] = true;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < adj[v].len() {
                let w = adj[v][*ei];
                *ei += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, ws) in adj.iter().enumerate() {
        for &w in ws {
            radj[w].push(v);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let id = comps.len();
        let mut members = vec![s];
        comp[s] = id;
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            for &w in &radj[v] {
                if comp[w] == usize::MAX {
                    comp[w] = id;
                    members.push(w);
                    stack.push(w);
                }
            }
        }
        members.sort_unstable();
        comps.push(members);
    }
    comps.sort();
    comps
}

// ---------------------------------------------------------------------------
// Rule 3: no-blocking-in-par
// ---------------------------------------------------------------------------

fn par_exempt(file: &str) -> bool {
    // The pool's own machinery blocks by design (worker parking, result
    // collection); the rule polices the closures handed *to* it.
    file.starts_with("crates/par/")
}

fn lint_no_blocking_in_par(ws: &Workspace) -> Vec<Violation> {
    let n = ws.fns.len();
    // Multi-source BFS on the reverse graph from every blocking fn, giving
    // each fn its next hop toward the nearest blocking target.
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, succs) in ws.succ.iter().enumerate() {
        for &j in succs {
            pred[j].push(i);
        }
    }
    let is_source =
        |f: &FnInfo| !par_exempt(&f.item.file) && (!f.blocking.is_empty() || !f.acqs.is_empty());
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut target: Vec<Option<usize>> = vec![None; n];
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if is_source(f) {
            target[i] = Some(i);
            queue.push(i);
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let j = queue[qi];
        qi += 1;
        for &i in &pred[j] {
            if target[i].is_none() && !par_exempt(&ws.fns[i].item.file) {
                target[i] = target[j];
                next[i] = Some(j);
                queue.push(i);
            }
        }
    }

    let mut out = Vec::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        if par_exempt(&f.item.file) || f.par_regions.is_empty() {
            continue;
        }
        for (entry, region) in &f.par_regions {
            // Direct blocking facts inside the closure region.
            for (tok, line, desc) in &f.blocking {
                if region.contains(tok) {
                    out.push(Violation {
                        file: f.item.file.clone(),
                        line: *line,
                        rule: Rule::NoBlockingInPar,
                        message: format!(
                            "blocking operation ({desc}) inside a `{entry}` closure; \
                             pool workers must never block or the whole batch stalls"
                        ),
                    });
                }
            }
            for a in &f.acqs {
                if region.contains(&a.tok) {
                    out.push(Violation {
                        file: f.item.file.clone(),
                        line: a.line,
                        rule: Rule::NoBlockingInPar,
                        message: format!(
                            "lock `{}` acquired inside a `{entry}` closure; \
                             lock waits are unbounded and stall the pool",
                            a.class
                        ),
                    });
                }
            }
            // Calls that transitively reach a blocking fn.
            let mut reported: BTreeSet<usize> = BTreeSet::new();
            for c in &f.calls {
                if !region.contains(&c.tok) || !reported.insert(c.tok) {
                    continue;
                }
                let ids = ws.resolve_in(fi, &c.callee);
                let Some(&g0) = ids.iter().find(|&&g| target[g].is_some()) else {
                    continue;
                };
                // Render the path g0 → … → blocking target.
                let mut path = vec![ws.display_name(g0)];
                let mut cur = g0;
                while let Some(nx) = next[cur] {
                    path.push(ws.display_name(nx));
                    cur = nx;
                }
                let t = target[g0].unwrap_or(g0);
                let tf = &ws.fns[t];
                let what = tf
                    .blocking
                    .first()
                    .map(|(_, _, d)| d.clone())
                    .or_else(|| tf.acqs.first().map(|a| format!("lock `{}` wait", a.class)))
                    .unwrap_or_else(|| "blocking operation".to_string());
                out.push(Violation {
                    file: f.item.file.clone(),
                    line: c.line,
                    rule: Rule::NoBlockingInPar,
                    message: format!(
                        "call inside a `{entry}` closure reaches a blocking operation \
                         ({what} in `{}` at {}:{}) via {}",
                        ws.display_name(t),
                        tf.item.file,
                        tf.item.line,
                        path.join(" → "),
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs the three workspace semantic rules over the lexed files
/// (`(workspace-relative path, lexed)` pairs). Allow markers are applied
/// by the caller.
pub(crate) fn lint_semantic(files: &[(String, Lexed)]) -> Vec<Violation> {
    let ws = build(files);
    let mut out = Vec::new();
    out.extend(lint_wal(&ws));
    out.extend(lint_lock_order(&ws));
    out.extend(lint_no_blocking_in_par(&ws));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let lexed: Vec<(String, Lexed)> =
            files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
        lint_semantic(&lexed)
    }

    #[test]
    fn tx_lock_fields_join_the_lock_order_graph() {
        // The tx cell's fields are ordinary lock classes: an inconsistent
        // order against another class is a cycle like any other, including
        // through the `read_lock`/`write_lock` poison-proof helpers.
        let v = run(&[(
            "crates/tx/src/lib.rs",
            "pub struct Mvcc { current: RwLock<V>, writer: Mutex<u64> }\n\
             impl Mvcc {\n\
                 pub fn a(&self) { let w = lock(&self.writer); let c = write_lock(&self.current); }\n\
                 pub fn b(&self) { let c = read_lock(&self.current); let w = lock(&self.writer); }\n\
             }",
        )]);
        let lo: Vec<&Violation> = v.iter().filter(|v| v.rule == Rule::LockOrder).collect();
        assert_eq!(lo.len(), 1, "{v:?}");
        assert!(lo[0].message.contains("current"));
        assert!(lo[0].message.contains("writer"));
    }

    #[test]
    fn wal_missing_and_misordered() {
        let base = "pub struct Database;\n\
                    impl Database {\n\
                        fn wal_commit(&mut self) {}\n\
                        pub fn good(&mut self) { self.wal_commit(); self.rows.insert(1); }\n";
        let missing = run(&[(
            "crates/relstore/src/db.rs",
            &format!("{base}    pub fn bad(&mut self) {{ self.rows.insert(2); }}\n}}"),
        )]);
        let wal: Vec<&Violation> = missing
            .iter()
            .filter(|v| v.rule == Rule::WalBeforeWrite)
            .collect();
        assert_eq!(wal.len(), 1, "{missing:?}");
        assert_eq!(wal[0].line, 5);

        let misordered = run(&[(
            "crates/relstore/src/db.rs",
            &format!(
                "{base}    pub fn late(&mut self) {{ self.rows.insert(2); self.wal_commit(); }}\n}}"
            ),
        )]);
        let wal: Vec<&Violation> = misordered
            .iter()
            .filter(|v| v.rule == Rule::WalBeforeWrite)
            .collect();
        assert_eq!(wal.len(), 1, "{misordered:?}");
        assert!(wal[0].message.contains("before its WAL append"));
    }

    #[test]
    fn method_calls_never_reach_associated_functions() {
        // `load` names one function in the workspace, but it has no
        // receiver, so the atomic `.load(…)` in `peek` cannot call it and
        // `peek` reaches no applied write.
        let v = run(&[(
            "crates/relstore/src/db.rs",
            "pub struct Database;\n\
             impl Database {\n\
                 pub fn load(path: &Path) -> Database { let mut d = Database; d.rows.insert(1); d }\n\
                 pub fn peek(&mut self) -> u64 { self.seq.load(Ordering::Acquire) }\n\
             }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_order_cycle_detected() {
        let v = run(&[(
            "crates/server/src/app.rs",
            "pub struct App { engine: RwLock<E>, tags: RwLock<T> }\n\
             impl App {\n\
                 fn a(&self) { let e = self.engine.write(); let t = self.tags.write(); }\n\
                 fn b(&self) { let t = self.tags.read(); let e = self.engine.read(); }\n\
             }",
        )]);
        let lo: Vec<&Violation> = v.iter().filter(|v| v.rule == Rule::LockOrder).collect();
        assert_eq!(lo.len(), 1, "{v:?}");
        assert!(lo[0].message.contains("engine"));
        assert!(lo[0].message.contains("tags"));
    }

    #[test]
    fn lock_order_consistent_is_clean_and_interprocedural_cycle_fires() {
        let clean = run(&[(
            "crates/server/src/app.rs",
            "pub struct App { engine: RwLock<E>, tags: RwLock<T> }\n\
             impl App {\n\
                 fn a(&self) { let e = self.engine.write(); let t = self.tags.write(); }\n\
                 fn b(&self) { let e = self.engine.read(); let t = self.tags.read(); }\n\
             }",
        )]);
        assert!(clean.iter().all(|v| v.rule != Rule::LockOrder), "{clean:?}");

        // b holds tags and calls helper() which takes engine → cycle with a.
        let v = run(&[(
            "crates/server/src/app.rs",
            "pub struct App { engine: RwLock<E>, tags: RwLock<T> }\n\
             impl App {\n\
                 fn a(&self) { let e = self.engine.write(); let t = self.tags.write(); }\n\
                 fn b(&self) { let t = self.tags.read(); self.helper(); }\n\
                 fn helper(&self) { let e = self.engine.read(); }\n\
             }",
        )]);
        assert!(v.iter().any(|v| v.rule == Rule::LockOrder), "{v:?}");
    }

    #[test]
    fn blocking_in_par_direct_and_transitive() {
        let v = run(&[(
            "crates/rank/src/solve.rs",
            "fn f(pool: &Pool, data: &mut [f64]) {\n\
                 pool.par_chunks_mut(data, 64, |chunk| {\n\
                     file.sync_all();\n\
                 });\n\
             }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoBlockingInPar);
        assert_eq!(v[0].line, 3);

        let transitive = run(&[(
            "crates/rank/src/solve.rs",
            "fn f(pool: &Pool, data: &mut [f64]) {\n\
                 pool.par_chunks_mut(data, 64, |chunk| { persist(chunk); });\n\
             }\n\
             fn persist(c: &mut [f64]) { std::fs::write(\"x\", b\"y\"); }",
        )]);
        assert_eq!(transitive.len(), 1, "{transitive:?}");
        assert!(transitive[0].message.contains("persist"));

        // Pure closures are clean.
        let clean = run(&[(
            "crates/rank/src/solve.rs",
            "fn f(pool: &Pool, data: &mut [f64]) {\n\
                 pool.par_chunks_mut(data, 64, |chunk| { for x in chunk { *x += 1.0; } });\n\
             }",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn par_crate_itself_is_exempt() {
        let v = run(&[(
            "crates/par/src/lib.rs",
            "impl Pool {\n\
                 pub fn scope(&self, f: F) { let s = lock(&self.state); s.wait(); }\n\
             }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_classes_discovered_through_wrappers() {
        let classes = discover_lock_classes(&[(
            "a.rs".to_string(),
            lex(
                "struct S { shards: Vec<Mutex<Shard>>, tables: std::sync::RwLock<T> }\n\
                 static REGISTRY: Mutex<Reg> = Mutex::new(Reg);\n\
                 fn lock<T>(m: &Mutex<T>) {}",
            ),
        )]);
        let names: Vec<&str> = classes.iter().map(String::as_str).collect();
        assert_eq!(names, vec!["REGISTRY", "shards", "tables"]);
    }
}
