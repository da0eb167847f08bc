//! Interpreted predicates and functions (§5.2) and the multi-sorted values
//! bindings range over.
//!
//! Built-ins cover everything the paper uses: `contains` and `near` for
//! information retrieval, comparisons for positions (`I < J` in the letters
//! query), `length` on paths, `name` on attributes, `set_to_list` /
//! `first` / `count` on collections.

#[cfg(test)]
use docql_model::sym;
use docql_model::{Sym, Value};
use docql_paths::ConcretePath;
use docql_text::{ContainsExpr, ContainsMatcher, NearUnit};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A multi-sorted runtime value: data, path or attribute.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CalcValue {
    /// Sort val.
    Data(Value),
    /// Sort path.
    Path(ConcretePath),
    /// Sort att.
    Attr(Sym),
}

impl CalcValue {
    /// The path, if this is one.
    pub fn as_path(&self) -> Option<&ConcretePath> {
        match self {
            CalcValue::Path(p) => Some(p),
            _ => None,
        }
    }

    /// The attribute, if this is one.
    pub fn as_attr(&self) -> Option<Sym> {
        match self {
            CalcValue::Attr(a) => Some(*a),
            _ => None,
        }
    }
}

impl fmt::Display for CalcValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalcValue::Data(v) => write!(f, "{v}"),
            CalcValue::Path(p) => write!(f, "{p}"),
            CalcValue::Attr(a) => write!(f, "{a}"),
        }
    }
}

/// Errors raised by interpreted functions/predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpError(pub String);

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreted call failed: {}", self.0)
    }
}

/// Evaluation context handed to interpreted predicates/functions: gives
/// them access to the instance so they can dereference objects (e.g.
/// `contains` applied to a `Title` *object* reads its text).
pub struct InterpCtx<'a> {
    /// The instance queries run against.
    pub instance: &'a docql_model::Instance,
    /// Execution governance, when the query runs under limits: `contains`/
    /// `near` charge scan fuel against it before scanning.
    pub guard: Option<&'a docql_guard::Guard>,
    /// The constant pattern of the `contains` atom being evaluated,
    /// compiled with its program; `contains` parses any other pattern.
    pub contains: Option<&'a ContainsPattern>,
}

/// A `contains` atom's constant pattern, compiled once: its matcher, or
/// the error the pattern raises when a binding reaches the atom.
#[derive(Debug, Clone)]
pub struct ContainsPattern {
    source: String,
    matcher: Result<ContainsMatcher, InterpError>,
}

impl ContainsPattern {
    /// Parse and compile `source`, keeping a parse error for later.
    pub fn compile(source: &str) -> ContainsPattern {
        ContainsPattern {
            source: source.to_string(),
            matcher: compile_pattern(source),
        }
    }
}

/// Parse and compile a `contains` pattern.
fn compile_pattern(source: &str) -> Result<ContainsMatcher, InterpError> {
    ContainsExpr::pattern(source)
        .map(|e| e.compile())
        .map_err(|e| InterpError(format!("contains: bad pattern: {e}")))
}

/// Marker carried by [`InterpError`] when a guard interrupts an interpreted
/// call; engines read the authoritative [`docql_guard::Guard::trip`] instead
/// of parsing this.
pub const INTERRUPTED: &str = "execution interrupted by guard";

impl<'a> InterpCtx<'a> {
    /// An ungoverned context over `instance`.
    pub fn new(instance: &'a docql_model::Instance) -> InterpCtx<'a> {
        InterpCtx {
            instance,
            guard: None,
            contains: None,
        }
    }

    /// The §3 `text` of a value: the one text `contains`, `near`,
    /// `near_chars` and `text()` read. A string is its own text, and an
    /// object is the text the loader recorded for it (`derive_text`, the
    /// text the inverted index is built from). Only an object with no
    /// recorded text (built directly, or no longer reached by any document
    /// after an update) and other values fall back to their content walk.
    pub fn text<'v>(&'v self, v: &'v Value) -> Cow<'v, str> {
        match v {
            Value::Str(s) => return Cow::Borrowed(s),
            Value::Oid(o) if let Some(t) = self.instance.text(*o) => return Cow::Borrowed(t),
            _ => {}
        }
        let mut out = String::new();
        self.collect_text(v, &mut out, &mut HashSet::new());
        Cow::Owned(out)
    }

    /// The content walk: every string, joined by one space, with a nested
    /// object read as its recorded text when it has one (cycle-safe).
    fn collect_text(&self, v: &Value, out: &mut String, visited: &mut HashSet<u32>) {
        let mut push = |s: &str| {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(s);
        };
        match v {
            Value::Str(s) => push(s),
            Value::Tuple(fs) => {
                for (_, v) in fs {
                    self.collect_text(v, out, visited);
                }
            }
            Value::Union(_, p) => self.collect_text(p, out, visited),
            Value::List(items) | Value::Set(items) => {
                for v in items {
                    self.collect_text(v, out, visited);
                }
            }
            Value::Oid(o) if visited.insert(o.0) => match self.instance.text(*o) {
                Some(t) => push(t),
                None => {
                    if let Ok(inner) = self.instance.value_of(*o) {
                        self.collect_text(inner, out, visited);
                    }
                }
            },
            _ => {}
        }
    }

    /// Dereference one level: an oid becomes its value.
    pub fn deref(&self, v: &Value) -> Value {
        match v {
            Value::Oid(o) => self.instance.value_of(*o).cloned().unwrap_or(Value::Nil),
            other => other.clone(),
        }
    }
}

/// Interpreted predicate implementation. `Arc` (not `Box`) so that a
/// registry clone — e.g. a store forking its evaluation context for a new
/// snapshot — shares the closures instead of being impossible.
pub type PredFn =
    std::sync::Arc<dyn Fn(&InterpCtx<'_>, &[CalcValue]) -> Result<bool, InterpError> + Send + Sync>;
/// Interpreted function implementation (see [`PredFn`] on `Arc`).
pub type FuncFn = std::sync::Arc<
    dyn Fn(&InterpCtx<'_>, &[CalcValue]) -> Result<CalcValue, InterpError> + Send + Sync,
>;

/// Registry of interpreted predicates and functions.
///
/// Cloning shares the registered closures; re-registering a name in the
/// clone (the bindings override) never affects the original.
#[derive(Clone)]
pub struct Interp {
    preds: BTreeMap<Sym, PredFn>,
    funcs: BTreeMap<Sym, FuncFn>,
}

impl std::fmt::Debug for Interp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interp")
            .field("preds", &self.preds.keys().collect::<Vec<_>>())
            .field("funcs", &self.funcs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for Interp {
    fn default() -> Interp {
        Interp::with_builtins()
    }
}

impl Interp {
    /// Registry preloaded with the paper's built-ins.
    pub fn with_builtins() -> Interp {
        let mut i = Interp {
            preds: BTreeMap::new(),
            funcs: BTreeMap::new(),
        };
        i.register_pred("contains", p_contains);
        i.register_pred("near", p_near);
        i.register_pred("<", p_lt);
        i.register_pred("<=", p_le);
        i.register_pred(">", p_gt);
        i.register_pred(">=", p_ge);
        i.register_pred("!=", p_ne);
        i.register_func("length", f_length);
        i.register_func("name", f_name);
        i.register_func("set_to_list", f_set_to_list);
        i.register_func("first", f_first);
        i.register_func("count", f_count);
        i.register_func("text", f_text);
        i.register_func("concat", f_concat);
        i.register_func("positions", f_positions);
        i.register_func("sort_by", f_sort_by);
        i.register_func("element", f_element);
        i.register_pred("near_chars", p_near_chars);
        i
    }

    /// The built-in `contains` predicate, exposed so embedders (e.g. a
    /// store) can wrap it — count text scans, consult an index first — and
    /// re-register the wrapper under the same name.
    pub fn builtin_contains(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
        p_contains(ctx, args)
    }

    /// The built-in `near` predicate (see [`Interp::builtin_contains`]).
    pub fn builtin_near(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
        p_near(ctx, args)
    }

    /// The built-in `near_chars` predicate (see [`Interp::builtin_contains`]).
    pub fn builtin_near_chars(
        ctx: &InterpCtx<'_>,
        args: &[CalcValue],
    ) -> Result<bool, InterpError> {
        p_near_chars(ctx, args)
    }

    /// Register a custom predicate (overrides any existing binding).
    pub fn register_pred<F>(&mut self, name: impl Into<Sym>, f: F)
    where
        F: Fn(&InterpCtx<'_>, &[CalcValue]) -> Result<bool, InterpError> + Send + Sync + 'static,
    {
        self.preds.insert(name.into(), std::sync::Arc::new(f));
    }

    /// Register a custom function (overrides any existing binding).
    pub fn register_func<F>(&mut self, name: impl Into<Sym>, f: F)
    where
        F: Fn(&InterpCtx<'_>, &[CalcValue]) -> Result<CalcValue, InterpError>
            + Send
            + Sync
            + 'static,
    {
        self.funcs.insert(name.into(), std::sync::Arc::new(f));
    }

    /// Evaluate a predicate.
    pub fn pred(
        &self,
        ctx: &InterpCtx<'_>,
        name: Sym,
        args: &[CalcValue],
    ) -> Result<bool, InterpError> {
        let f = self
            .preds
            .get(&name)
            .ok_or_else(|| InterpError(format!("unknown predicate `{name}`")))?;
        f(ctx, args)
    }

    /// Evaluate a function.
    pub fn func(
        &self,
        ctx: &InterpCtx<'_>,
        name: Sym,
        args: &[CalcValue],
    ) -> Result<CalcValue, InterpError> {
        let f = self
            .funcs
            .get(&name)
            .ok_or_else(|| InterpError(format!("unknown function `{name}`")))?;
        f(ctx, args)
    }
}

fn str_arg<'v>(args: &'v [CalcValue], i: usize, what: &str) -> Result<&'v str, InterpError> {
    match args.get(i) {
        Some(CalcValue::Data(Value::Str(s))) => Ok(s),
        other => Err(InterpError(format!(
            "{what}: expected a string argument, got {other:?}"
        ))),
    }
}

/// The text an IRS predicate reads ([`InterpCtx::text`]). `None` for data
/// that is neither a string nor an object: the atom is then false, not an
/// error (§5.3).
fn text_arg<'c>(
    ctx: &'c InterpCtx<'_>,
    args: &'c [CalcValue],
    what: &str,
) -> Result<Option<Cow<'c, str>>, InterpError> {
    match args.first() {
        Some(CalcValue::Data(v @ (Value::Str(_) | Value::Oid(_)))) => Ok(Some(ctx.text(v))),
        Some(CalcValue::Data(_)) => Ok(None),
        other => Err(InterpError(format!("{what}: expected data, got {other:?}"))),
    }
}

fn int_arg(args: &[CalcValue], i: usize, what: &str) -> Result<i64, InterpError> {
    match args.get(i) {
        Some(CalcValue::Data(Value::Int(n))) => Ok(*n),
        other => Err(InterpError(format!(
            "{what}: expected an integer argument, got {other:?}"
        ))),
    }
}

/// `contains(text, pattern)`: the pattern string supports the §4.1 pattern
/// operators (concatenation, `|`, closures). Boolean combinations are
/// expressed as conjunctions/disjunctions of `contains` atoms by the
/// O₂SQL translation. The pattern compiled with the atom
/// ([`InterpCtx::contains`]) is used when it is the one passed.
fn p_contains(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
    // Objects (e.g. a Title) contain their §3 text — the system-supplied
    // inverse mapping of Q2.
    let Some(text) = text_arg(ctx, args, "contains")? else {
        return Ok(false);
    };
    let pattern = str_arg(args, 1, "contains")?;
    let compiled;
    let matcher = match ctx.contains {
        Some(p) if p.source == pattern => p.matcher.as_ref().map_err(Clone::clone)?,
        _ => {
            compiled = compile_pattern(pattern)?;
            &compiled
        }
    };
    match matcher.eval_guarded(&text, ctx.guard) {
        Some(b) => Ok(b),
        None => interrupted(ctx),
    }
}

/// The guard tripped mid-scan: degrade to "atom false" (partial result, the
/// engine flags it) or abort with the [`INTERRUPTED`] marker.
fn interrupted(ctx: &InterpCtx<'_>) -> Result<bool, InterpError> {
    match ctx.guard {
        Some(g) if g.degrades() => Ok(false),
        _ => Err(InterpError(INTERRUPTED.to_string())),
    }
}

/// `near(text, w1, w2, k)` — within `k` words.
fn p_near(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
    near_in(ctx, args, "near", NearUnit::Words)
}

/// `near_chars(text, w1, w2, k)` — within `k` characters (§4.1 mentions
/// both units).
fn p_near_chars(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
    near_in(ctx, args, "near_chars", NearUnit::Chars)
}

/// `near` in either unit, charging the scan to the guard like `contains`.
fn near_in(
    ctx: &InterpCtx<'_>,
    args: &[CalcValue],
    what: &str,
    unit: NearUnit,
) -> Result<bool, InterpError> {
    let Some(text) = text_arg(ctx, args, what)? else {
        return Ok(false);
    };
    let w1 = str_arg(args, 1, what)?;
    let w2 = str_arg(args, 2, what)?;
    let k = int_arg(args, 3, what)?;
    match docql_text::near_guarded(
        &text,
        w1,
        w2,
        usize::try_from(k).unwrap_or(0),
        unit,
        ctx.guard,
    ) {
        Some(b) => Ok(b),
        None => interrupted(ctx),
    }
}

fn cmp(args: &[CalcValue]) -> Result<std::cmp::Ordering, InterpError> {
    match (args.first(), args.get(1)) {
        (Some(CalcValue::Data(a)), Some(CalcValue::Data(b))) => match (a, b) {
            (Value::Int(x), Value::Float(y)) => Ok((*x as f64).total_cmp(y)),
            (Value::Float(x), Value::Int(y)) => Ok(x.total_cmp(&(*y as f64))),
            _ => Ok(a.cmp(b)),
        },
        (a, b) => Err(InterpError(format!("comparison on {a:?} and {b:?}"))),
    }
}

fn p_lt(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
    Ok(cmp(args)? == std::cmp::Ordering::Less)
}
fn p_le(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
    Ok(cmp(args)? != std::cmp::Ordering::Greater)
}
fn p_gt(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
    Ok(cmp(args)? == std::cmp::Ordering::Greater)
}
fn p_ge(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
    Ok(cmp(args)? != std::cmp::Ordering::Less)
}
fn p_ne(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<bool, InterpError> {
    match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => Ok(a != b),
        _ => Err(InterpError("!=: needs two arguments".to_string())),
    }
}

/// `length(P)` on paths (also on lists/strings for convenience).
fn f_length(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    let n = match args.first() {
        Some(CalcValue::Path(p)) => p.length(),
        Some(CalcValue::Data(Value::List(items))) => items.len(),
        Some(CalcValue::Data(Value::Set(items))) => items.len(),
        Some(CalcValue::Data(Value::Str(s))) => s.chars().count(),
        other => return Err(InterpError(format!("length: bad argument {other:?}"))),
    };
    Ok(CalcValue::Data(Value::Int(n as i64)))
}

/// `name(A)` — the attribute's name as a string (§4.3, Q5).
fn f_name(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    match args.first() {
        Some(CalcValue::Attr(a)) => Ok(CalcValue::Data(Value::str(a.as_str()))),
        other => Err(InterpError(format!(
            "name: expected an attribute, got {other:?}"
        ))),
    }
}

/// `set_to_list(S)` — deterministic (sorted) listing of a set.
fn f_set_to_list(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    match args.first() {
        Some(CalcValue::Data(Value::Set(items))) => Ok(CalcValue::Data(Value::List(items.clone()))),
        Some(CalcValue::Data(Value::List(items))) => {
            Ok(CalcValue::Data(Value::List(items.clone())))
        }
        other => Err(InterpError(format!("set_to_list: bad argument {other:?}"))),
    }
}

/// `first(L)` — first element of a list (Q1: `first(a.authors)`).
fn f_first(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    match args.first() {
        Some(CalcValue::Data(Value::List(items))) => Ok(CalcValue::Data(
            items.first().cloned().unwrap_or(Value::Nil),
        )),
        other => Err(InterpError(format!("first: bad argument {other:?}"))),
    }
}

/// `count(C)` — cardinality.
fn f_count(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    match args.first() {
        Some(CalcValue::Data(Value::List(items) | Value::Set(items))) => {
            Ok(CalcValue::Data(Value::Int(items.len() as i64)))
        }
        other => Err(InterpError(format!("count: bad argument {other:?}"))),
    }
}

/// `text(x)` — the paper's inverse mapping from a logical object to its
/// portion of the document text (§3), read through [`InterpCtx::text`].
fn f_text(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    match args.first() {
        Some(CalcValue::Data(v)) => Ok(CalcValue::Data(Value::Str(ctx.text(v).into_owned()))),
        other => Err(InterpError(format!("text: bad argument {other:?}"))),
    }
}

/// `element(v, i)` — the `i`-th component of a tuple viewed as a
/// heterogeneous list (§4.4), returned as the marked value `[aᵢ: vᵢ]`; also
/// plain list indexing. Objects are dereferenced.
fn f_element(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    let i = int_arg(args, 1, "element")?;
    let i = usize::try_from(i).map_err(|_| InterpError("element: negative index".into()))?;
    match args.first() {
        Some(CalcValue::Data(v)) => {
            let v = ctx.deref(v);
            let out = match &v {
                Value::List(items) => items.get(i).cloned(),
                Value::Tuple(fs) => fs
                    .get(i)
                    .map(|(n, x)| Value::Union(*n, Box::new(x.clone()))),
                Value::Union(_, payload) => match payload.as_ref() {
                    Value::Tuple(fs) => fs
                        .get(i)
                        .map(|(n, x)| Value::Union(*n, Box::new(x.clone()))),
                    _ => None,
                },
                _ => None,
            };
            Ok(CalcValue::Data(out.unwrap_or(Value::Nil)))
        }
        other => Err(InterpError(format!("element: bad argument {other:?}"))),
    }
}

/// `sort_by(collection, "attr")` — list the elements ordered by the named
/// attribute (the paper's suggested companion to `set_to_list`). Elements
/// missing the attribute sort last; objects are dereferenced to read it.
fn f_sort_by(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    let items = match args.first() {
        Some(CalcValue::Data(Value::List(items) | Value::Set(items))) => items.clone(),
        other => {
            return Err(InterpError(format!("sort_by: bad collection {other:?}")));
        }
    };
    let attr = docql_model::sym(str_arg(args, 1, "sort_by")?);
    let mut keyed: Vec<(Option<Value>, Value)> = items
        .into_iter()
        .map(|v| {
            let deref = ctx.deref(&v);
            let key = deref.attr(attr).cloned().or_else(|| match &deref {
                Value::Union(_, payload) => payload.attr(attr).cloned(),
                _ => None,
            });
            (key, v)
        })
        .collect();
    keyed.sort_by(|(ka, va), (kb, vb)| match (ka, kb) {
        (Some(a), Some(b)) => a.cmp(b).then_with(|| va.cmp(vb)),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => va.cmp(vb),
    });
    Ok(CalcValue::Data(Value::List(
        keyed.into_iter().map(|(_, v)| v).collect(),
    )))
}

/// `positions(v, "a")` — 0-based positions at which attribute `a` occurs in
/// a tuple viewed as a heterogeneous list (§4.4 / Q6). A marked-union value
/// looks through its marker.
fn f_positions(ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    let name = docql_model::sym(str_arg(args, 1, "positions")?);
    fn hetero(v: &Value) -> Option<Vec<(Sym, Value)>> {
        match v {
            Value::Tuple(fs) => Some(fs.clone()),
            Value::Union(_, payload) => hetero(payload),
            _ => None,
        }
    }
    match args.first() {
        Some(CalcValue::Data(v)) => {
            let v = ctx.deref(v);
            let items = hetero(&v).unwrap_or_default();
            let out: Vec<Value> = items
                .iter()
                .enumerate()
                .filter(|(_, (n, _))| *n == name)
                .map(|(i, _)| Value::Int(i as i64))
                .collect();
            Ok(CalcValue::Data(Value::List(out)))
        }
        other => Err(InterpError(format!("positions: bad argument {other:?}"))),
    }
}

/// `concat(s1, s2, …)` — string concatenation.
fn f_concat(_ctx: &InterpCtx<'_>, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
    let mut out = String::new();
    for (i, a) in args.iter().enumerate() {
        out.push_str(
            str_arg(std::slice::from_ref(a), 0, "concat")
                .map_err(|_| InterpError(format!("concat: argument {i} is not a string")))?,
        );
    }
    Ok(CalcValue::Data(Value::Str(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_paths::{ConcretePath, PathStep};
    use std::sync::Arc;

    fn d(v: Value) -> CalcValue {
        CalcValue::Data(v)
    }

    fn test_instance() -> docql_model::Instance {
        let schema = Arc::new(
            docql_model::Schema::builder()
                .class(docql_model::ClassDef::new("C", docql_model::Type::Any))
                .build()
                .unwrap(),
        );
        docql_model::Instance::new(schema)
    }

    fn call_pred(i: &Interp, name: Sym, args: &[CalcValue]) -> Result<bool, InterpError> {
        let inst = test_instance();
        let ctx = InterpCtx::new(&inst);
        i.pred(&ctx, name, args)
    }

    fn call_func(i: &Interp, name: Sym, args: &[CalcValue]) -> Result<CalcValue, InterpError> {
        let inst = test_instance();
        let ctx = InterpCtx::new(&inst);
        i.func(&ctx, name, args)
    }

    #[test]
    fn contains_with_pattern_operators() {
        let i = Interp::with_builtins();
        assert!(call_pred(
            &i,
            sym("contains"),
            &[d(Value::str("the Title")), d(Value::str("(t|T)itle"))]
        )
        .unwrap());
        assert!(!call_pred(
            &i,
            sym("contains"),
            &[d(Value::str("TITLE")), d(Value::str("(t|T)itle"))]
        )
        .unwrap());
    }

    #[test]
    fn contains_on_non_string_is_false_not_error() {
        let i = Interp::with_builtins();
        assert!(!call_pred(&i, sym("contains"), &[d(Value::Int(7)), d(Value::str("x"))]).unwrap());
        for near in ["near", "near_chars"] {
            let args = [
                d(Value::Int(7)),
                d(Value::str("x")),
                d(Value::str("y")),
                d(Value::Int(1)),
            ];
            assert!(!call_pred(&i, sym(near), &args).unwrap(), "{near}");
        }
    }

    #[test]
    fn near_predicate() {
        let i = Interp::with_builtins();
        assert!(call_pred(
            &i,
            sym("near"),
            &[
                d(Value::str("SGML and OODBMS queries")),
                d(Value::str("SGML")),
                d(Value::str("OODBMS")),
                d(Value::Int(1))
            ]
        )
        .unwrap());
    }

    #[test]
    fn comparisons_mixed_numeric() {
        let i = Interp::with_builtins();
        assert!(call_pred(&i, sym("<"), &[d(Value::Int(1)), d(Value::Float(1.5))]).unwrap());
        assert!(call_pred(&i, sym(">="), &[d(Value::str("b")), d(Value::str("a"))]).unwrap());
    }

    #[test]
    fn length_of_path() {
        let i = Interp::with_builtins();
        let p = ConcretePath::from_steps([
            PathStep::attr("sections"),
            PathStep::Index(0),
            PathStep::attr("subsectns"),
            PathStep::Index(0),
        ]);
        assert_eq!(
            call_func(&i, sym("length"), &[CalcValue::Path(p)]).unwrap(),
            d(Value::Int(4))
        );
    }

    #[test]
    fn name_of_attr() {
        let i = Interp::with_builtins();
        assert_eq!(
            call_func(&i, sym("name"), &[CalcValue::Attr(sym("status"))]).unwrap(),
            d(Value::str("status"))
        );
        assert!(call_func(&i, sym("name"), &[d(Value::Int(1))]).is_err());
    }

    #[test]
    fn collection_functions() {
        let i = Interp::with_builtins();
        let l = Value::list([Value::Int(3), Value::Int(1)]);
        assert_eq!(
            call_func(&i, sym("first"), &[d(l.clone())]).unwrap(),
            d(Value::Int(3))
        );
        assert_eq!(
            call_func(&i, sym("count"), &[d(l)]).unwrap(),
            d(Value::Int(2))
        );
        let s = Value::set([Value::Int(3), Value::Int(1)]);
        assert_eq!(
            call_func(&i, sym("set_to_list"), &[d(s)]).unwrap(),
            d(Value::list([Value::Int(1), Value::Int(3)]))
        );
        assert_eq!(
            call_func(&i, sym("first"), &[d(Value::List(vec![]))]).unwrap(),
            d(Value::Nil)
        );
    }

    #[test]
    fn unknown_names_error() {
        let i = Interp::with_builtins();
        assert!(call_pred(&i, sym("frobnicate"), &[]).is_err());
        assert!(call_func(&i, sym("frobnicate"), &[]).is_err());
    }

    #[test]
    fn text_collects_strings() {
        let i = Interp::with_builtins();
        let v = Value::tuple([
            ("a", Value::str("hello")),
            ("b", Value::list([Value::str("world")])),
        ]);
        assert_eq!(
            call_func(&i, sym("text"), &[d(v)]).unwrap(),
            d(Value::str("hello world"))
        );
        assert!(
            call_func(&i, sym("text_of"), &[]).is_err(),
            "one name, one builtin"
        );
    }

    #[test]
    fn text_reads_the_object_and_falls_back_to_its_content() {
        let i = Interp::with_builtins();
        let mut inst = test_instance();
        let loaded = inst.new_object("C", Value::str("value text")).unwrap();
        inst.set_text(loaded, Some("document text")).unwrap();
        let built = inst.new_object("C", Value::str("built")).unwrap();
        let ctx = InterpCtx::new(&inst);
        let text = |o| i.func(&ctx, sym("text"), &[d(Value::Oid(o))]).unwrap();
        assert_eq!(text(loaded), d(Value::str("document text")));
        assert_eq!(text(built), d(Value::str("built")));
    }
}
