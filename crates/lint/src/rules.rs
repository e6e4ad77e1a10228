//! The three rule families, implemented over the sanitized view from
//! [`crate::lexer`]. Every matcher is token-accurate (identifier
//! boundaries, empty-argument checks, receiver lookup across
//! line-wrapped method chains) but deliberately type-free: the rules
//! are specified textually, and anything the scanner cannot prove is
//! left alone rather than guessed at.

use crate::lexer::Scan;
use crate::{Diagnostic, Family};

/// HashMap/HashSet iteration feeding results (determinism family).
pub const MAP_ITER: &str = "map-iter";
/// `Instant::now` / `SystemTime` in pure-compute code.
pub const WALL_CLOCK: &str = "wall-clock";
/// Environment reads outside the documented knobs.
pub const ENV_READ: &str = "env-read";
/// `.unwrap()` / `.expect()` in a request path.
pub const NO_UNWRAP: &str = "no-unwrap";
/// `panic!` / `unreachable!` / `todo!` / `unimplemented!` in a request path.
pub const NO_PANIC: &str = "no-panic";
/// A second lock acquisition under a held guard.
pub const LOCK_ORDER: &str = "lock-order";
/// An fsync-class call under a held guard.
pub const FSYNC_UNDER_LOCK: &str = "fsync-under-lock";
/// An explain pipeline call under a held guard.
pub const COMPUTE_UNDER_LOCK: &str = "compute-under-lock";

/// Environment variables the workspace documents as behaviour knobs.
/// Reads of anything else inside a determinism-scoped crate are
/// findings: an undocumented env read is a hidden input that can make
/// two runs of the same request diverge.
pub const ALLOWED_ENV_KNOBS: &[&str] = &["TSX_THREADS", "TSX_LOG", "TSX_REGEN_GOLDEN"];

/// Every rule id, for directive validation and `--list-rules`.
pub const ALL_RULES: &[&str] = &[
    MAP_ITER,
    WALL_CLOCK,
    ENV_READ,
    NO_UNWRAP,
    NO_PANIC,
    LOCK_ORDER,
    FSYNC_UNDER_LOCK,
    COMPUTE_UNDER_LOCK,
];

/// Map methods whose iteration order is the hash order.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Runs every family in `families` over one sanitized file.
pub fn run(scan: &Scan, families: &[Family], wall_clock_exempt: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for family in families {
        match family {
            Family::Determinism => determinism(scan, wall_clock_exempt, &mut out),
            Family::PanicFree => panic_free(scan, &mut out),
            Family::Locks => locks(scan, &mut out),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

fn determinism(scan: &Scan, wall_clock_exempt: bool, out: &mut Vec<Diagnostic>) {
    let maps = map_typed_idents(&scan.code);

    // Iteration methods on a receiver known to be HashMap/HashSet-typed.
    for method in MAP_ITER_METHODS {
        for call in method_calls(&scan.code, method) {
            if scan.in_test(call.at) {
                continue;
            }
            let Some(receiver) = receiver_ident(&scan.code, call.dot) else {
                continue; // call-result receiver: type unknowable here
            };
            if maps.contains(&receiver) {
                out.push(Diagnostic::at(
                    scan.line_of(call.at),
                    MAP_ITER,
                    format!(
                        "`{receiver}.{method}()` iterates a HashMap/HashSet in hash \
                         order; emit through a sorted/BTreeMap/chunk-ordered path \
                         (construction and lookup are fine)"
                    ),
                ));
            }
        }
    }
    // `for x in [&[mut]] ident` over a known map.
    for (at, expr) in for_loop_exprs(&scan.code) {
        if scan.in_test(at) {
            continue;
        }
        let path = expr
            .trim_start_matches('&')
            .trim_start()
            .trim_start_matches("mut ")
            .trim();
        let last = path.rsplit('.').next().unwrap_or(path).trim();
        if is_ident(last) && maps.contains(&last.to_string()) {
            out.push(Diagnostic::at(
                scan.line_of(at),
                MAP_ITER,
                format!(
                    "`for … in {expr}` iterates a HashMap/HashSet in hash order; \
                     emit through a sorted/BTreeMap/chunk-ordered path"
                ),
            ));
        }
    }

    // Wall-clock reads. Timing modules (latency.rs, timers.rs) are the
    // documented exemption: their output is golden-stripped by design.
    if !wall_clock_exempt {
        for token in ["Instant::now", "SystemTime::now", "SystemTime"] {
            for at in ident_path_occurrences(&scan.code, token) {
                if scan.in_test(at) {
                    continue;
                }
                // `SystemTime` alone also matches the `::now` form; report
                // each offset once.
                if token == "SystemTime" && scan.code[at..].starts_with("SystemTime::now") {
                    continue;
                }
                out.push(Diagnostic::at(
                    scan.line_of(at),
                    WALL_CLOCK,
                    format!(
                        "`{token}` in a pure-compute crate: wall-clock reads are \
                         nondeterministic inputs; only golden-stripped timing \
                         output (latency.*, StageTimers) may observe time"
                    ),
                ));
            }
        }
    }

    // Environment reads outside the documented knobs.
    let aliases = env_knob_aliases(scan);
    for name in ["var", "var_os"] {
        for at in env_calls(&scan.code, name) {
            if scan.in_test(at) {
                continue;
            }
            let Some(args) = call_arg_range(&scan.code, at) else {
                continue;
            };
            let allowed = match scan.string_in(args) {
                Some(lit) => ALLOWED_ENV_KNOBS.contains(&lit.content.as_str()),
                None => {
                    let arg_text = scan.code[args.0..args.1].trim();
                    aliases.iter().any(|a| a == arg_text)
                }
            };
            if !allowed {
                out.push(Diagnostic::at(
                    scan.line_of(at),
                    ENV_READ,
                    format!(
                        "environment read outside the documented knobs \
                         ({}): hidden inputs break run-to-run determinism",
                        ALLOWED_ENV_KNOBS.join(", ")
                    ),
                ));
            }
        }
    }
}

/// Constants in this file bound to an allowed knob name, e.g.
/// `pub const THREADS_ENV: &str = "TSX_THREADS";` — reads through the
/// alias are reads of the documented knob.
fn env_knob_aliases(scan: &Scan) -> Vec<String> {
    let mut out = Vec::new();
    for lit in &scan.strings {
        if !ALLOWED_ENV_KNOBS.contains(&lit.content.as_str()) {
            continue;
        }
        // Walk back over `= … str & : IDENT const` (loosely).
        let before = &scan.code[..lit.start];
        let Some(eq) = before.rfind('=') else {
            continue;
        };
        let decl = &before[..eq];
        let Some(colon) = decl.rfind(':') else {
            continue;
        };
        let name = decl[..colon].trim().rsplit(char::is_whitespace).next();
        if let Some(name) = name {
            if is_ident(name) && decl.contains("const") {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Occurrences of `env::var(` / `env::var_os(` / `std::env::var(`.
fn env_calls(code: &str, name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for at in ident_occurrences(code, name) {
        // Must be a path call `env::var(`…
        let before = code[..at].trim_end();
        if !before.ends_with("env::") {
            continue;
        }
        let after = code[at + name.len()..].trim_start();
        if after.starts_with('(') {
            out.push(at);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Panic freedom
// ---------------------------------------------------------------------------

fn panic_free(scan: &Scan, out: &mut Vec<Diagnostic>) {
    for method in ["unwrap", "expect"] {
        for call in method_calls(&scan.code, method) {
            if scan.in_test(call.at) {
                continue;
            }
            out.push(Diagnostic::at(
                scan.line_of(call.at),
                NO_UNWRAP,
                format!(
                    "`.{method}()` in a request path: a panic here is a dropped \
                     connection or a poisoned lock, not a bug report — map the \
                     error to a typed 4xx/5xx instead"
                ),
            ));
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for at in macro_calls(&scan.code, mac) {
            if scan.in_test(at) {
                continue;
            }
            out.push(Diagnostic::at(
                scan.line_of(at),
                NO_PANIC,
                format!(
                    "`{mac}!` in a request path: request handling must degrade \
                     to a typed error, never unwind"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Lock / IO discipline
// ---------------------------------------------------------------------------

fn locks(scan: &Scan, out: &mut Vec<Diagnostic>) {
    let code = &scan.code;

    // Every acquisition-shaped call, by offset.
    let mut acquisitions: Vec<(usize, usize, &'static str)> = Vec::new(); // (at, dot, name)
    for name in ["lock", "try_lock", "read", "write"] {
        for call in method_calls(code, name) {
            if empty_args(code, call.at) {
                let n: &'static str = match name {
                    "lock" => "lock",
                    "try_lock" => "try_lock",
                    "read" => "read",
                    _ => "write",
                };
                acquisitions.push((call.at, call.dot, n));
            }
        }
    }
    acquisitions.sort_unstable();

    // Calls that must not run under a live guard: fsync-class calls, and
    // the explain pipeline (Cascading Analysts + segmentation), which runs
    // on a prepared cube after the lock is released. `.prepare(` is the
    // one explain step meant to run under the tenant lock.
    let mut held_calls: Vec<(usize, &'static str, &'static str)> = Vec::new(); // (at, name, rule)
    for (name, rule) in [
        ("sync_all", FSYNC_UNDER_LOCK),
        ("sync_data", FSYNC_UNDER_LOCK),
        ("explain", COMPUTE_UNDER_LOCK),
        ("explain_with_positions", COMPUTE_UNDER_LOCK),
    ] {
        for call in method_calls(code, name) {
            held_calls.push((call.at, name, rule));
        }
    }
    held_calls.sort_unstable();

    // Guard bindings: `let <pat> = <receiver>.lock()…;` where the
    // initializer's tail is guard-preserving (`?`, `.expect(…)`,
    // `.unwrap…(…)`, `.map_err(…)`), so the binding holds the guard for
    // the rest of its scope.
    #[derive(Debug)]
    struct Guard {
        name: String,
        bind_at: usize, // offset of the acquisition that created it
        depth: usize,   // brace depth the guard lives at
        line: usize,
        receiver: String,
    }
    let lets = let_statements(code);
    let mut pending: Vec<(usize, String, String, usize)> = Vec::new(); // (bind_at, name, receiver, depth_bias)
    for stmt in &lets {
        let init = &code[stmt.init.0..stmt.init.1];
        let Some((acq_rel, acq_dot_rel)) = last_acquisition_in(init) else {
            continue;
        };
        let after = &init[acq_rel..];
        let Some(close) = balanced_call_end(after) else {
            continue;
        };
        if !trailing_is_guard_preserving(&after[close..]) {
            continue;
        }
        let bind_at = stmt.init.0 + acq_rel;
        let receiver =
            receiver_ident(code, stmt.init.0 + acq_dot_rel).unwrap_or_else(|| "<expr>".to_string());
        // A `{`-terminated initializer (if-let / while-let) scopes the
        // guard to the block that follows, one level deeper.
        let depth_bias = usize::from(stmt.brace_terminated);
        pending.push((bind_at, stmt.pattern_name.clone(), receiver, depth_bias));
    }
    pending.sort_by_key(|p| p.0);

    // One linear walk: brace depth + the set of live guards.
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut live: Vec<Guard> = Vec::new();
    let mut pi = 0usize; // next pending guard
    let mut ai = 0usize; // next acquisition
    let mut si = 0usize; // next held call
    let drops = drop_calls(code);
    let mut di = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        while pi < pending.len() && pending[pi].0 == i {
            let (bind_at, name, receiver, bias) = pending[pi].clone();
            live.push(Guard {
                name,
                bind_at,
                depth: depth + bias,
                line: scan.line_of(bind_at),
                receiver,
            });
            pi += 1;
        }
        while ai < acquisitions.len() && acquisitions[ai].0 == i {
            let (at, dot, name) = acquisitions[ai];
            ai += 1;
            if scan.in_test(at) {
                continue;
            }
            // A guard-creating acquisition is itself already in `live`
            // (pushed just above at this same offset); it must still be
            // checked against every *other* held guard.
            if let Some(guard) = live.iter().rev().find(|g| g.bind_at != at) {
                let receiver = receiver_ident(code, dot).unwrap_or_else(|| "<expr>".to_string());
                out.push(Diagnostic::at(
                    scan.line_of(at),
                    LOCK_ORDER,
                    format!(
                        "`{receiver}.{name}()` acquired while guard `{g}` \
                         (over `{gr}`, line {gl}) is held; nested acquisitions \
                         must follow the documented order registry → session → \
                         store WAL and carry an allow directive citing it",
                        g = guard.name,
                        gr = guard.receiver,
                        gl = guard.line,
                    ),
                ));
            }
        }
        while si < held_calls.len() && held_calls[si].0 == i {
            let (at, name, rule) = held_calls[si];
            si += 1;
            if scan.in_test(at) {
                continue;
            }
            if let Some(guard) = live.last() {
                let why = if rule == FSYNC_UNDER_LOCK {
                    "fsync latency under a lock stalls every waiter; \
                     deliberate fsync-before-ack sites must carry an allow \
                     directive citing the documented order"
                } else {
                    "pipeline work under a lock stalls every waiter; \
                     `.prepare()` the cube under the guard, release it, \
                     then explain the prepared cube"
                };
                out.push(Diagnostic::at(
                    scan.line_of(at),
                    rule,
                    format!(
                        "`{name}()` while guard `{g}` (over `{gr}`, line {gl}) is \
                         held: {why}",
                        g = guard.name,
                        gr = guard.receiver,
                        gl = guard.line,
                    ),
                ));
            }
        }
        while di < drops.len() && drops[di].0 == i {
            let name = drops[di].1.clone();
            di += 1;
            live.retain(|g| g.name != name);
        }
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
            }
            _ => {}
        }
    }
}

/// `drop(ident)` call sites: (offset, ident).
fn drop_calls(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for at in ident_occurrences(code, "drop") {
        // Free-function position: not preceded by `.` or `::`.
        let before = code[..at].trim_end();
        if before.ends_with('.') || before.ends_with("::") {
            continue;
        }
        let Some(args) = call_arg_range(code, at) else {
            continue;
        };
        let arg = code[args.0..args.1].trim();
        if is_ident(arg) {
            out.push((at, arg.to_string()));
        }
    }
    out.sort_by_key(|d| d.0);
    out
}

/// One `let` statement's shape, offsets into sanitized code.
#[derive(Debug)]
struct LetStmt {
    /// Initializer range (after `=`, before `;` / `else` / `{`).
    init: (usize, usize),
    /// First meaningful identifier bound by the pattern.
    pattern_name: String,
    /// Whether the initializer was terminated by `{` (if-let/while-let).
    brace_terminated: bool,
}

fn let_statements(code: &str) -> Vec<LetStmt> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for at in ident_occurrences(code, "let") {
        // Find the binder `=` (skip `==`, `>=`, `<=`, `!=`, `=>`).
        let mut i = at + 3;
        let mut eq = None;
        while i < bytes.len() {
            match bytes[i] {
                b'=' => {
                    let prev = bytes[i - 1];
                    let next = bytes.get(i + 1).copied().unwrap_or(0);
                    if prev != b'='
                        && prev != b'!'
                        && prev != b'<'
                        && prev != b'>'
                        && next != b'='
                        && next != b'>'
                    {
                        eq = Some(i);
                        break;
                    }
                    i += 1;
                }
                b';' | b'{' => break, // `let x;` or something odd
                _ => i += 1,
            }
        }
        let Some(eq) = eq else { continue };
        let pattern_name = pattern_ident(&code[at + 3..eq]);
        // Initializer: forward to `;`, `else`, or `{` at nesting 0.
        let mut j = eq + 1;
        let mut paren = 0isize;
        let mut brk = 0isize;
        let mut end = None;
        let mut brace_terminated = false;
        while j < bytes.len() {
            match bytes[j] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'[' => brk += 1,
                b']' => brk -= 1,
                // Closure parameters may contain anything; a `|` at
                // nesting 0 means the initializer is a closure —
                // never a guard binding. Bail.
                b'|' if paren == 0 && brk == 0 => {
                    end = None;
                    break;
                }
                b';' if paren == 0 && brk == 0 => {
                    end = Some(j);
                    break;
                }
                b'{' if paren == 0 && brk == 0 => {
                    end = Some(j);
                    brace_terminated = true;
                    break;
                }
                b'e' if paren == 0
                    && brk == 0
                    && code[j..].starts_with("else")
                    && word_boundary(bytes, j, 4) =>
                {
                    end = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(end) = end else { continue };
        out.push(LetStmt {
            init: (eq + 1, end),
            pattern_name,
            brace_terminated,
        });
    }
    out
}

/// First bound identifier in a `let` pattern, skipping `mut`, wrapper
/// constructors and type ascription.
fn pattern_ident(pattern: &str) -> String {
    let pattern = pattern.split(':').next().unwrap_or(pattern);
    pattern
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .find(|w| !matches!(*w, "mut" | "ref" | "Ok" | "Some" | "Err"))
        .unwrap_or("_")
        .to_string()
}

/// Last acquisition-shaped call inside an initializer; returns
/// `(offset_of_name, offset_of_dot)` relative to `init`.
fn last_acquisition_in(init: &str) -> Option<(usize, usize)> {
    let mut best = None;
    for name in ["lock", "try_lock", "read", "write"] {
        for call in method_calls(init, name) {
            if empty_args(init, call.at) && best.is_none_or(|(b, _)| call.at > b) {
                best = Some((call.at, call.dot));
            }
        }
    }
    best
}

/// Given text starting at a method name, the relative offset one past
/// the call's balanced `(...)`.
fn balanced_call_end(s: &str) -> Option<usize> {
    let open = s.find('(')?;
    let bytes = s.as_bytes();
    let mut depth = 0isize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether an initializer tail after the acquisition keeps the guard:
/// only `?` and error-mapping adapters are allowed; any other method
/// call consumes the guard into a temporary.
fn trailing_is_guard_preserving(mut s: &str) -> bool {
    loop {
        s = s.trim_start();
        if s.is_empty() {
            return true;
        }
        if let Some(rest) = s.strip_prefix('?') {
            s = rest;
            continue;
        }
        let mut matched = false;
        for adapter in [".unwrap_or_else", ".expect", ".unwrap", ".map_err"] {
            if let Some(rest) = s.strip_prefix(adapter) {
                let Some(end) = balanced_call_end(rest) else {
                    return false;
                };
                // `.unwrap` must be the call itself, not `.unwrap_or(…)`.
                if rest.trim_start().starts_with('(') {
                    s = &rest[end..];
                    matched = true;
                    break;
                }
            }
        }
        if !matched {
            return false;
        }
    }
}

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

/// A `.name(` method call: `at` is the name's offset, `dot` the dot's.
#[derive(Clone, Copy, Debug)]
pub struct MethodCall {
    pub at: usize,
    pub dot: usize,
}

/// Exact-identifier method calls `.name(`, dot and call possibly
/// separated by whitespace/newlines (rustfmt wraps long chains).
pub fn method_calls(code: &str, name: &str) -> Vec<MethodCall> {
    let mut out = Vec::new();
    for at in ident_occurrences(code, name) {
        let before = code[..at].trim_end();
        if !before.ends_with('.') {
            continue;
        }
        let dot = before.len() - 1;
        let after = code[at + name.len()..].trim_start();
        if after.starts_with('(') {
            out.push(MethodCall { at, dot });
        }
    }
    out
}

/// Whether the call at `name_at` has an empty argument list `()`.
pub fn empty_args(code: &str, name_at: usize) -> bool {
    let after = &code[name_at..];
    let Some(open) = after.find('(') else {
        return false;
    };
    after[open + 1..].trim_start().starts_with(')')
}

/// The identifier immediately before a `.` (the receiver's last path
/// segment), or `None` when the receiver is a call result / closing
/// bracket / literal.
pub fn receiver_ident(code: &str, dot: usize) -> Option<String> {
    let before = code[..dot].trim_end();
    let bytes = before.as_bytes();
    let mut i = bytes.len();
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == bytes.len() {
        return None;
    }
    let ident = &before[i..];
    if ident.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(ident.to_string())
}

/// Word-boundary occurrences of a bare identifier.
pub fn ident_occurrences(code: &str, ident: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = code.get(from..).and_then(|s| s.find(ident)) {
        let at = from + p;
        if word_boundary(bytes, at, ident.len()) {
            out.push(at);
        }
        from = at + 1;
    }
    out
}

/// Occurrences of a `Path::like` token with identifier boundaries on
/// both ends.
pub fn ident_path_occurrences(code: &str, path: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = code.get(from..).and_then(|s| s.find(path)) {
        let at = from + p;
        let head_ok = at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let endb = at + path.len();
        let tail_ok =
            endb >= bytes.len() || !(bytes[endb].is_ascii_alphanumeric() || bytes[endb] == b'_');
        if head_ok && tail_ok {
            out.push(at);
        }
        from = at + 1;
    }
    out
}

fn word_boundary(bytes: &[u8], at: usize, len: usize) -> bool {
    let head_ok = at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
    let end = at + len;
    let tail_ok = end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
    head_ok && tail_ok
}

/// `name!(` macro invocations in non-path position.
pub fn macro_calls(code: &str, name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for at in ident_occurrences(code, name) {
        let after = code[at + name.len()..].trim_start();
        if after.starts_with('!') {
            out.push(at);
        }
    }
    out
}

/// `(start, end)` of a call's argument text, given the callee offset.
pub fn call_arg_range(code: &str, name_at: usize) -> Option<(usize, usize)> {
    let after = &code[name_at..];
    let open = after.find('(')?;
    let end = balanced_call_end(after)?;
    Some((name_at + open + 1, name_at + end - 1))
}

/// `for <pat> in <expr> {` headers: `(offset_of_for, expr_text)`.
fn for_loop_exprs(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for at in ident_occurrences(code, "for") {
        let rest = &code[at + 3..];
        let Some(in_rel) = find_word(rest, "in") else {
            continue;
        };
        let after_in = &rest[in_rel + 2..];
        let Some(brace) = after_in.find('{') else {
            continue;
        };
        // Generic `for<'a>` and trait bounds have no `in`-then-`{` shape
        // nearby; cap the search to the same statement.
        if rest[..in_rel].contains(';') || after_in[..brace].contains(';') {
            continue;
        }
        out.push((at, after_in[..brace].trim().to_string()));
    }
    out
}

/// First word-boundary occurrence of `word` in `s`.
fn find_word(s: &str, word: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut from = 0usize;
    while let Some(p) = s.get(from..).and_then(|t| t.find(word)) {
        let at = from + p;
        if word_boundary(bytes, at, word.len()) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

pub fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        && !s.as_bytes()[0].is_ascii_digit()
}

/// Identifiers declared with a HashMap/HashSet type or constructed via
/// `HashMap::new()`-style calls, collected file-wide (scope-free on
/// purpose: shadowing across scopes is rare and a false positive is one
/// allow directive away).
fn map_typed_idents(code: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        for at in ident_occurrences(code, ty) {
            let after = code[at + ty.len()..].trim_start();
            let before = code[..at].trim_end();
            if after.starts_with("::") {
                // `let [mut] name = HashMap::new()` / `with_capacity(…)`.
                let Some(rest) = before.strip_suffix('=') else {
                    continue;
                };
                let decl = rest.trim_end();
                let bytes = decl.as_bytes();
                let mut i = bytes.len();
                while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
                    i -= 1;
                }
                let name = &decl[i..];
                if is_ident(name) && name != "mut" {
                    out.push(name.to_string());
                }
            } else if after.starts_with('<') || after.starts_with('>') || after.starts_with(',') {
                // Type position: `name: [&[mut]] HashMap<…>`. Strip
                // reference sigils back to the `:`, then take the
                // identifier before it. A `Vec<HashMap<…>>` receiver is
                // *not* recorded: iterating the Vec is ordered.
                let mut decl = before;
                loop {
                    let trimmed = decl.trim_end();
                    if let Some(r) = trimmed.strip_suffix("mut") {
                        decl = r;
                    } else if let Some(r) = trimmed.strip_suffix('&') {
                        decl = r;
                    } else {
                        decl = trimmed;
                        break;
                    }
                }
                let Some(rest) = decl.strip_suffix(':') else {
                    continue;
                };
                let decl = rest.trim_end();
                let bytes = decl.as_bytes();
                let mut i = bytes.len();
                while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
                    i -= 1;
                }
                let name = &decl[i..];
                if is_ident(name) {
                    out.push(name.to_string());
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn diags(src: &str, family: Family) -> Vec<Diagnostic> {
        run(&scan(src), &[family], false)
    }

    #[test]
    fn map_iteration_is_flagged_but_lookup_is_not() {
        let src = "use std::collections::HashMap;\n\
                   fn f(scores: &HashMap<String, f64>) -> Vec<String> {\n\
                       let mut out = Vec::new();\n\
                       for (k, v) in scores.iter() { out.push(format!(\"{k}{v}\")); }\n\
                       let _ = scores.get(\"x\");\n\
                       out\n\
                   }\n";
        let d = diags(src, Family::Determinism);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, MAP_ITER);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn for_loop_over_map_is_flagged_and_btreemap_is_not() {
        let src = "use std::collections::{BTreeMap, HashSet};\n\
                   fn f(seen: HashSet<u32>, sorted: BTreeMap<u32, u32>) {\n\
                       for x in &seen { emit(x); }\n\
                       for (k, v) in &sorted { emit2(k, v); }\n\
                   }\n";
        let d = diags(src, Family::Determinism);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn wall_clock_and_env_reads_are_flagged() {
        let src = "fn f() {\n\
                       let t = std::time::Instant::now();\n\
                       let h = std::env::var(\"HOME\");\n\
                       let ok = std::env::var(\"TSX_THREADS\");\n\
                   }\n";
        let d = diags(src, Family::Determinism);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].rule, WALL_CLOCK);
        assert_eq!(d[1].rule, ENV_READ);
        assert_eq!(d[1].line, 3);
    }

    #[test]
    fn env_reads_through_documented_const_aliases_are_clean() {
        let src = "pub const THREADS_ENV: &str = \"TSX_THREADS\";\n\
                   fn f() { let _ = std::env::var(THREADS_ENV); }\n";
        assert!(diags(src, Family::Determinism).is_empty());
    }

    #[test]
    fn unwraps_and_panics_flag_outside_tests_only() {
        let src = "fn live() { x.unwrap(); y.expect(\"no\"); panic!(\"boom\"); }\n\
                   fn ok() { z.unwrap_or_else(|e| e.into_inner()); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { q.unwrap(); panic!(); } }\n";
        let d = diags(src, Family::PanicFree);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|x| x.line == 1));
    }

    #[test]
    fn second_lock_under_a_held_guard_is_flagged() {
        let src = "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                       let ga = a.lock().unwrap_or_else(|e| e.into_inner());\n\
                       let gb = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                   }\n";
        let d = diags(src, Family::Locks);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, LOCK_ORDER);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn statement_temporaries_do_not_open_guard_scopes() {
        let src = "fn f(m: &RwLock<Vec<u32>>, n: &Mutex<u32>) {\n\
                       m.write().unwrap_or_else(|e| e.into_inner()).push(1);\n\
                       let g = n.lock().unwrap_or_else(|e| e.into_inner());\n\
                   }\n";
        assert!(diags(src, Family::Locks).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                       let ga = a.lock().unwrap_or_else(|e| e.into_inner());\n\
                       drop(ga);\n\
                       let gb = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                   }\n";
        assert!(diags(src, Family::Locks).is_empty());
    }

    #[test]
    fn fsync_under_guard_is_flagged() {
        let src = "fn f(m: &Mutex<File>) -> std::io::Result<()> {\n\
                       let g = m.lock().unwrap_or_else(|e| e.into_inner());\n\
                       g.sync_all()?;\n\
                       Ok(())\n\
                   }\n";
        let d = diags(src, Family::Locks);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, FSYNC_UNDER_LOCK);
    }

    #[test]
    fn explain_under_a_session_guard_is_flagged_but_prepare_is_not() {
        // The shape of a registry explain that runs the whole pipeline
        // under the tenant lock.
        let locked = "fn explain(&self, id: DatasetId, request: &ExplainRequest) -> R {\n\
                          let handle = self.session(id)?;\n\
                          let result = {\n\
                              let mut session = handle.lock().map_err(|_| Poisoned(id))?;\n\
                              session.explain(request)?\n\
                          };\n\
                          self.enforce_global_budget();\n\
                          Ok(result)\n\
                      }\n\
                      fn stream(s: &Mutex<ExplainSession>, r: &ExplainRequest) -> R {\n\
                          let g = s.lock()?;\n\
                          g.explain_with_positions(r, None)\n\
                      }\n";
        let d = diags(locked, Family::Locks);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == COMPUTE_UNDER_LOCK), "{d:?}");
        assert_eq!((d[0].line, d[1].line), (5, 12));
        // Prepare under the guard, explain after it is released.
        let prepared = "fn prepare(&self, id: DatasetId, request: &ExplainRequest) -> P {\n\
                            let tenant = self.tenant(id)?;\n\
                            let prepared = {\n\
                                let mut session = tenant.lock()?;\n\
                                session.prepare(request)?\n\
                            };\n\
                            Ok(prepared)\n\
                        }\n\
                        fn explain(&self, id: DatasetId, request: &ExplainRequest) -> R {\n\
                            let prepared = self.prepare(id, request)?;\n\
                            Ok(prepared.explain(request)?)\n\
                        }\n";
        assert!(diags(prepared, Family::Locks).is_empty());
    }

    #[test]
    fn let_else_guards_scope_to_the_enclosing_block() {
        let src = "fn f(gate: &Mutex<()>, h: &Mutex<u32>) {\n\
                       let Ok(_g) = gate.try_lock() else { return };\n\
                       let Ok(s) = h.lock() else { return };\n\
                   }\n";
        let d = diags(src, Family::Locks);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn if_let_guard_scopes_to_its_block_only() {
        let src = "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                       if let Ok(g) = a.try_lock() {\n\
                           use_it(&g);\n\
                       }\n\
                       let h = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                   }\n";
        assert!(diags(src, Family::Locks).is_empty());
    }

    #[test]
    fn io_write_with_args_is_not_an_acquisition() {
        let src = "fn f(m: &Mutex<File>) {\n\
                       let g = m.lock().unwrap_or_else(|e| e.into_inner());\n\
                       g.write_all(b\"x\").ok();\n\
                       other.write(buf).ok();\n\
                   }\n";
        assert!(diags(src, Family::Locks).is_empty());
    }
}
