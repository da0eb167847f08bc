//! Evaluation of calculus queries (§5.2).
//!
//! The evaluator is a safe, set-at-a-time interpreter:
//!
//! * conjunctions are *planned*: conjuncts are picked greedily in an order
//!   where each one's inputs are already bound (sideways information
//!   passing); if no order exists the query is not range-restricted and is
//!   rejected — this is exactly the paper's range-restriction discipline;
//! * path predicates `⟨v P ·a (X) …⟩` are evaluated by walking the value
//!   graph in place: unbound path variables expand via
//!   [`docql_paths::visit_paths_guarded`] under the chosen semantics
//!   (restricted per-class dereference by default), the rest of the path
//!   being walked from each visited value as it is reached; inside walks,
//!   attribute/index selection applies the §5.3 *implicit selectors*
//!   (union markers may be skipped) but is **strict** about object
//!   boundaries — crossing one takes an explicit or absorbed `→`.
//!   Term-position access (`a.title`) additionally dereferences
//!   implicitly, as O₂SQL expects;
//! * the §5.3 rule "each atom where this occurs is **false**" is realised by
//!   undefined term evaluations producing no bindings rather than errors.

use crate::interp::{CalcValue, Interp, InterpCtx, InterpError};
use crate::term::{Atom, AttrTerm, DataTerm, Formula, IntTerm, PathAtom, Query, Var};
use docql_model::{Instance, Sym, Value};
use docql_paths::{ConcretePath, EnumOptions, PathSemantics, PathStep};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A variable binding environment.
pub type Env = BTreeMap<Var, CalcValue>;

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CalcError {
    /// The formula is not range-restricted: no evaluation order binds all
    /// variables.
    RangeRestriction(String),
    /// An interpreted function/predicate failed.
    Interp(InterpError),
    /// An unknown root of persistence was referenced.
    UnknownName(String),
    /// Execution was interrupted by its [`docql_guard::Guard`] (deadline,
    /// budget, or cancellation).
    Interrupted(docql_guard::ExecError),
}

impl fmt::Display for CalcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalcError::RangeRestriction(s) => write!(f, "not range-restricted: {s}"),
            CalcError::Interp(e) => write!(f, "{e}"),
            CalcError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            CalcError::Interrupted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CalcError {}

impl From<InterpError> for CalcError {
    fn from(e: InterpError) -> CalcError {
        CalcError::Interp(e)
    }
}

impl From<docql_guard::ExecError> for CalcError {
    fn from(e: docql_guard::ExecError) -> CalcError {
        CalcError::Interrupted(e)
    }
}

/// The calculus evaluator, bound to an instance and interpreted registry.
pub struct Evaluator<'a> {
    instance: &'a Instance,
    interp: &'a Interp,
    /// Path-variable semantics (restricted by default).
    pub semantics: PathSemantics,
    /// Include `{v}` set-element steps during path-variable expansion.
    pub set_elements: bool,
    /// Execution governance: atom loops charge rows, path walks charge
    /// fuel. `None` (the default) costs one pointer test per row.
    pub guard: Option<&'a docql_guard::Guard>,
}

impl<'a> Evaluator<'a> {
    /// New evaluator with the paper's restricted path semantics.
    pub fn new(instance: &'a Instance, interp: &'a Interp) -> Evaluator<'a> {
        Evaluator {
            instance,
            interp,
            semantics: PathSemantics::Restricted,
            set_elements: true,
            guard: None,
        }
    }

    /// Charge one row to the guard. `Ok(true)` continues, `Ok(false)` stops
    /// the loop keeping partial bindings (degrade mode), `Err` aborts.
    #[inline]
    fn guard_row(&self) -> Result<bool, CalcError> {
        match self.guard {
            None => Ok(true),
            Some(g) => match g.row() {
                docql_guard::Flow::Continue => Ok(true),
                docql_guard::Flow::Stop => Ok(false),
                docql_guard::Flow::Abort(e) => Err(CalcError::Interrupted(e)),
            },
        }
    }

    /// Charge one path step; same contract as [`Self::guard_row`].
    #[inline]
    fn guard_step(&self) -> Result<bool, CalcError> {
        match self.guard {
            None => Ok(true),
            Some(g) => match g.fuel(1) {
                docql_guard::Flow::Continue => Ok(true),
                docql_guard::Flow::Stop => Ok(false),
                docql_guard::Flow::Abort(e) => Err(CalcError::Interrupted(e)),
            },
        }
    }

    /// Evaluate a query to its (deduplicated) answer rows — one
    /// [`CalcValue`] per head variable.
    pub fn eval_query(&self, q: &Query) -> Result<Vec<Vec<CalcValue>>, CalcError> {
        self.eval_query_with(q, &Env::new())
    }

    /// Evaluate with outer bindings (nested queries).
    pub fn eval_query_with(
        &self,
        q: &Query,
        outer: &Env,
    ) -> Result<Vec<Vec<CalcValue>>, CalcError> {
        let envs = self.eval_formula(&q.body, vec![outer.clone()])?;
        let mut seen = BTreeSet::new();
        let mut rows = Vec::new();
        for env in envs {
            let mut row = Vec::with_capacity(q.head.len());
            for v in &q.head {
                match env.get(v) {
                    Some(cv) => row.push(cv.clone()),
                    None => {
                        return Err(CalcError::RangeRestriction(format!(
                            "head variable {} is not bound by the body",
                            q.name_of(*v)
                        )));
                    }
                }
            }
            if seen.insert(row.clone()) {
                rows.push(row);
            }
        }
        Ok(rows)
    }

    /// Evaluate a formula against a set of environments.
    pub fn eval_formula(&self, f: &Formula, envs: Vec<Env>) -> Result<Vec<Env>, CalcError> {
        match f {
            Formula::Atom(a) => self.eval_atom(a, envs),
            Formula::And(fs) => self.eval_and(fs, envs),
            Formula::Or(fs) => {
                let mut out = Vec::new();
                for sub in fs {
                    out.extend(self.eval_formula(sub, envs.clone())?);
                }
                Ok(out)
            }
            Formula::Not(inner) => {
                // ¬¬φ is a *semi-join*: keep envs for which φ has at least
                // one solution, binding nothing. (Arises from the ∀ rewrite.)
                if let Formula::Not(g) = inner.as_ref() {
                    let mut out = Vec::new();
                    for env in envs {
                        if !self.eval_formula(g, vec![env.clone()])?.is_empty() {
                            out.push(env);
                        }
                    }
                    return Ok(out);
                }
                let mut out = Vec::new();
                for env in envs {
                    // Negation as failure over bound variables: keep the env
                    // iff the inner formula has no solution.
                    let free = inner.free_vars();
                    if let Some(missing) = free.iter().find(|v| !env.contains_key(v)) {
                        return Err(CalcError::RangeRestriction(format!(
                            "variable v{missing} free under negation"
                        )));
                    }
                    if self.eval_formula(inner, vec![env.clone()])?.is_empty() {
                        out.push(env);
                    }
                }
                Ok(out)
            }
            Formula::Exists(vars, inner) => {
                let solved = self.eval_formula(inner, envs)?;
                let mut out: Vec<Env> = Vec::new();
                let mut seen = BTreeSet::new();
                for mut env in solved {
                    for v in vars {
                        env.remove(v);
                    }
                    if seen.insert(env.clone()) {
                        out.push(env);
                    }
                }
                Ok(out)
            }
            Formula::Forall(vars, inner) => {
                // ∀x̄ φ ≡ ¬∃x̄ ¬φ.
                let rewritten = Formula::Not(Box::new(Formula::Exists(
                    vars.clone(),
                    Box::new(Formula::Not(inner.clone())),
                )));
                self.eval_formula(&rewritten, envs)
            }
        }
    }

    /// Greedy sideways-information-passing over conjuncts.
    fn eval_and(&self, fs: &[Formula], mut envs: Vec<Env>) -> Result<Vec<Env>, CalcError> {
        let mut remaining: Vec<&Formula> = fs.iter().collect();
        let mut bound: BTreeSet<Var> = envs
            .first()
            .map(|e| e.keys().copied().collect())
            .unwrap_or_default();
        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .enumerate()
                .find_map(|(i, f)| Some((i, self.runnable(f, &bound)?)));
            match pick {
                Some((i, provides)) => {
                    let f = remaining.remove(i);
                    envs = self.eval_formula(f, envs)?;
                    bound.extend(provides);
                    if envs.is_empty() {
                        return Ok(envs);
                    }
                }
                None => {
                    let descr: Vec<String> = remaining.iter().map(|f| f.to_string()).collect();
                    return Err(CalcError::RangeRestriction(format!(
                        "cannot order conjuncts {descr:?} with bound set {bound:?}"
                    )));
                }
            }
        }
        Ok(envs)
    }

    /// If `f` can run with `bound` variables available, the set of variables
    /// it will additionally bind.
    fn runnable(&self, f: &Formula, bound: &BTreeSet<Var>) -> Option<BTreeSet<Var>> {
        match f {
            Formula::Atom(a) => self.atom_runnable(a, bound),
            Formula::And(fs) => {
                // Simulate the greedy planner.
                let mut b = bound.clone();
                let mut remaining: Vec<&Formula> = fs.iter().collect();
                while !remaining.is_empty() {
                    let (pick, provides) = remaining
                        .iter()
                        .enumerate()
                        .find_map(|(i, g)| Some((i, self.runnable(g, &b)?)))?;
                    remaining.remove(pick);
                    b.extend(provides);
                }
                Some(b.difference(bound).copied().collect())
            }
            Formula::Or(fs) => {
                let mut provides: Option<BTreeSet<Var>> = None;
                for sub in fs {
                    let p = self.runnable(sub, bound)?;
                    provides = Some(match provides {
                        None => p,
                        Some(prev) => prev.intersection(&p).copied().collect(),
                    });
                }
                provides
            }
            Formula::Not(inner) => {
                // Semi-join form ¬¬φ is runnable whenever φ is.
                if let Formula::Not(g) = inner.as_ref() {
                    self.runnable(g, bound)?;
                    return Some(BTreeSet::new());
                }
                if inner.free_vars().iter().all(|v| bound.contains(v)) {
                    Some(BTreeSet::new())
                } else {
                    None
                }
            }
            Formula::Exists(vars, inner) => {
                let p = self.runnable(inner, bound)?;
                Some(p.into_iter().filter(|v| !vars.contains(v)).collect())
            }
            Formula::Forall(vars, inner) => {
                // ∀x̄ φ ≡ ¬∃x̄ ¬φ: runnable when the rewritten form is.
                let rewritten = Formula::Not(Box::new(Formula::Exists(
                    vars.clone(),
                    Box::new(Formula::Not(inner.clone())),
                )));
                self.runnable(&rewritten, bound)
            }
        }
    }

    fn atom_runnable(&self, a: &Atom, bound: &BTreeSet<Var>) -> Option<BTreeSet<Var>> {
        let all_bound = |t: &DataTerm| -> bool {
            let mut vs = BTreeSet::new();
            t.vars(&mut vs);
            vs.iter().all(|v| bound.contains(v))
        };
        match a {
            Atom::PathPred(t, p) => {
                if !all_bound(t) {
                    return None;
                }
                let mut vs = BTreeSet::new();
                p.vars(&mut vs);
                Some(vs.difference(bound).copied().collect())
            }
            Atom::Eq(x, y) => match (x, y, all_bound(x), all_bound(y)) {
                (_, _, true, true) => Some(BTreeSet::new()),
                (DataTerm::Var(v), _, false, true) => Some(BTreeSet::from([*v])),
                (_, DataTerm::Var(v), true, false) => Some(BTreeSet::from([*v])),
                _ => None,
            },
            Atom::In(x, coll) => {
                if !all_bound(coll) {
                    return None;
                }
                match x {
                    DataTerm::Var(v) if !bound.contains(v) => Some(BTreeSet::from([*v])),
                    t if all_bound(t) => Some(BTreeSet::new()),
                    _ => None,
                }
            }
            Atom::Subset(x, y) => {
                if all_bound(x) && all_bound(y) {
                    Some(BTreeSet::new())
                } else {
                    None
                }
            }
            Atom::Pred(_, args) => {
                if args.iter().all(all_bound) {
                    Some(BTreeSet::new())
                } else {
                    None
                }
            }
        }
    }

    fn eval_atom(&self, a: &Atom, envs: Vec<Env>) -> Result<Vec<Env>, CalcError> {
        let mut out = Vec::new();
        for env in envs {
            if !self.guard_row()? {
                break;
            }
            match a {
                Atom::PathPred(t, p) => {
                    let Some(base) = self.term_value(t, &env)? else {
                        continue; // undefined base ⇒ atom false
                    };
                    let CalcValue::Data(base) = base else {
                        continue;
                    };
                    self.walk_path(&base, &p.0, env, &mut out)?;
                }
                Atom::Eq(x, y) => {
                    let xv = self.term_value_opt(x, &env)?;
                    let yv = self.term_value_opt(y, &env)?;
                    match (xv, yv) {
                        (Some(a), Some(b)) => {
                            if calc_eq(&a, &b) {
                                out.push(env);
                            }
                        }
                        (None, Some(b)) => {
                            if let DataTerm::Var(v) = x {
                                let mut e = env;
                                e.insert(*v, b);
                                out.push(e);
                            }
                        }
                        (Some(a), None) => {
                            if let DataTerm::Var(v) = y {
                                let mut e = env;
                                e.insert(*v, a);
                                out.push(e);
                            }
                        }
                        (None, None) => {}
                    }
                }
                Atom::In(x, coll) => {
                    let Some(CalcValue::Data(cv)) = self.term_value(coll, &env)? else {
                        continue;
                    };
                    let Some(items) = self.element_collection(&cv) else {
                        continue;
                    };
                    match self.term_value_opt(x, &env)? {
                        Some(xv) => {
                            if items
                                .iter()
                                .any(|i| matches!(&xv, CalcValue::Data(x) if i == x))
                            {
                                out.push(env);
                            }
                        }
                        None => {
                            if let DataTerm::Var(v) = x {
                                for item in items {
                                    let mut e = env.clone();
                                    e.insert(*v, CalcValue::Data(item.clone()));
                                    out.push(e);
                                }
                            }
                        }
                    }
                }
                Atom::Subset(x, y) => {
                    let (Some(CalcValue::Data(xv)), Some(CalcValue::Data(yv))) =
                        (self.term_value(x, &env)?, self.term_value(y, &env)?)
                    else {
                        continue;
                    };
                    let (Some(xs), Some(ys)) =
                        (self.element_collection(&xv), self.element_collection(&yv))
                    else {
                        continue;
                    };
                    if xs.iter().all(|i| ys.contains(i)) {
                        out.push(env);
                    }
                }
                Atom::Pred(name, args) => {
                    let mut vals = Vec::with_capacity(args.len());
                    let mut ok = true;
                    for t in args {
                        match self.term_value(t, &env)? {
                            Some(v) => vals.push(v),
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    let ctx = InterpCtx {
                        instance: self.instance,
                        guard: self.guard,
                    };
                    if ok && self.interp.pred(&ctx, *name, &vals)? {
                        out.push(env);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Term evaluation: `Ok(None)` means *undefined* (triggers the §5.3
    /// false-atom rule). Unbound variables are an error here (the planner
    /// guarantees boundness) except through [`Self::term_value_opt`].
    fn term_value(&self, t: &DataTerm, env: &Env) -> Result<Option<CalcValue>, CalcError> {
        match t {
            DataTerm::Name(n) => match self.instance.root(*n) {
                Ok(v) => Ok(Some(CalcValue::Data(v.clone()))),
                Err(_) => Err(CalcError::UnknownName(n.to_string())),
            },
            DataTerm::Const(v) => Ok(Some(CalcValue::Data(v.clone()))),
            DataTerm::Var(v) => Ok(env.get(v).cloned()),
            DataTerm::Tuple(fields) => {
                let mut fs = Vec::with_capacity(fields.len());
                for (a, t) in fields {
                    let name = match a {
                        AttrTerm::Name(n) => *n,
                        AttrTerm::Var(v) => match env.get(v) {
                            Some(CalcValue::Attr(n)) => *n,
                            _ => return Ok(None),
                        },
                    };
                    match self.term_value(t, env)? {
                        Some(CalcValue::Data(v)) => fs.push((name, v)),
                        _ => return Ok(None),
                    }
                }
                Ok(Some(CalcValue::Data(Value::Tuple(fs))))
            }
            DataTerm::List(items) => {
                let mut vs = Vec::with_capacity(items.len());
                for t in items {
                    match self.term_value(t, env)? {
                        Some(CalcValue::Data(v)) => vs.push(v),
                        _ => return Ok(None),
                    }
                }
                Ok(Some(CalcValue::Data(Value::List(vs))))
            }
            DataTerm::Set(items) => {
                let mut vs = Vec::with_capacity(items.len());
                for t in items {
                    match self.term_value(t, env)? {
                        Some(CalcValue::Data(v)) => vs.push(v),
                        _ => return Ok(None),
                    }
                }
                Ok(Some(CalcValue::Data(Value::set(vs))))
            }
            DataTerm::PathApp(base, p) => {
                let Some(CalcValue::Data(mut cur)) = self.term_value(base, env)? else {
                    return Ok(None);
                };
                for atom in &p.0 {
                    let next = match atom {
                        PathAtom::PathVar(v) => match env.get(v) {
                            Some(CalcValue::Path(path)) => {
                                docql_paths::resolve(self.instance, &cur, path)
                            }
                            _ => None,
                        },
                        PathAtom::Deref => match &cur {
                            Value::Oid(o) => self.instance.value_of(*o).ok().cloned(),
                            _ => None,
                        },
                        PathAtom::Attr(a) => {
                            let name = match a {
                                AttrTerm::Name(n) => Some(*n),
                                AttrTerm::Var(v) => env.get(v).and_then(|cv| cv.as_attr()),
                            };
                            name.and_then(|n| self.attr_select(&cur, n))
                        }
                        PathAtom::Index(it) => {
                            let i = match it {
                                IntTerm::Const(i) => Some(*i),
                                IntTerm::Var(v) => match env.get(v) {
                                    Some(CalcValue::Data(Value::Int(n))) => {
                                        usize::try_from(*n).ok()
                                    }
                                    _ => None,
                                },
                            };
                            i.and_then(|i| self.index_select(&cur, i))
                        }
                        PathAtom::Bind(v) | PathAtom::SetBind(v) => {
                            // In term position the bound variable must agree.
                            match env.get(v) {
                                Some(CalcValue::Data(x)) if *x == cur => Some(cur.clone()),
                                _ => None,
                            }
                        }
                    };
                    match next {
                        Some(v) => cur = v,
                        None => return Ok(None),
                    }
                }
                Ok(Some(CalcValue::Data(cur)))
            }
            DataTerm::Apply(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for t in args {
                    match self.term_value(t, env)? {
                        Some(v) => vals.push(v),
                        None => return Ok(None),
                    }
                }
                let ctx = InterpCtx {
                    instance: self.instance,
                    guard: self.guard,
                };
                Ok(Some(self.interp.func(&ctx, *name, &vals)?))
            }
            DataTerm::AttrConst(a) => Ok(Some(CalcValue::Attr(*a))),
            DataTerm::MakePath(p) => {
                let mut steps = Vec::new();
                for atom in &p.0 {
                    match atom {
                        PathAtom::PathVar(v) => match env.get(v) {
                            Some(CalcValue::Path(sub)) => {
                                steps.extend(sub.steps().iter().cloned());
                            }
                            _ => return Ok(None),
                        },
                        PathAtom::Deref => steps.push(PathStep::Deref),
                        PathAtom::Attr(AttrTerm::Name(n)) => steps.push(PathStep::Attr(*n)),
                        PathAtom::Attr(AttrTerm::Var(v)) => match env.get(v) {
                            Some(CalcValue::Attr(n)) => steps.push(PathStep::Attr(*n)),
                            _ => return Ok(None),
                        },
                        PathAtom::Index(IntTerm::Const(i)) => steps.push(PathStep::Index(*i)),
                        PathAtom::Index(IntTerm::Var(v)) => match env.get(v) {
                            Some(CalcValue::Data(Value::Int(n))) => match usize::try_from(*n) {
                                Ok(i) => steps.push(PathStep::Index(i)),
                                Err(_) => return Ok(None),
                            },
                            _ => return Ok(None),
                        },
                        // Zero-width data binders contribute no step.
                        PathAtom::Bind(_) => {}
                        PathAtom::SetBind(v) => match env.get(v) {
                            Some(CalcValue::Data(e)) => {
                                steps.push(PathStep::Elem(e.clone()));
                            }
                            _ => return Ok(None),
                        },
                    }
                }
                Ok(Some(CalcValue::Path(ConcretePath(steps))))
            }
            DataTerm::Sub(q) => {
                let rows = self.eval_query_with(q, env)?;
                let items: Vec<Value> = rows
                    .into_iter()
                    .map(|row| {
                        if row.len() == 1 {
                            calc_to_value(&row[0])
                        } else {
                            Value::Tuple(
                                row.iter()
                                    .enumerate()
                                    .map(|(i, cv)| {
                                        (docql_model::sym(&q.name_of(q.head[i])), calc_to_value(cv))
                                    })
                                    .collect(),
                            )
                        }
                    })
                    .collect();
                Ok(Some(CalcValue::Data(Value::set(items))))
            }
        }
    }

    /// Like [`Self::term_value`] but distinguishes "unbound variable" (for
    /// Eq binding) from other undefined results: unbound var ⇒ `None`.
    fn term_value_opt(&self, t: &DataTerm, env: &Env) -> Result<Option<CalcValue>, CalcError> {
        if let DataTerm::Var(v) = t {
            return Ok(env.get(v).cloned());
        }
        self.term_value(t, env)
    }

    /// Attribute selection with the paper's implicit behaviours:
    /// implicit dereferencing of objects and implicit selectors through
    /// union markers ("Important Omissions", §5.3). Path-predicate walks
    /// use the strict [`docql_paths::attr_select`] instead: a `·a` step on
    /// an object reference is undefined there, exactly as in the paper's
    /// concrete-path model (crossing an object boundary requires `→`,
    /// usually absorbed by a path variable, whose expansion the restriction
    /// governs).
    fn attr_select(&self, value: &Value, name: Sym) -> Option<Value> {
        match value {
            Value::Union(m, payload) if *m != name => self.attr_select(payload, name),
            Value::Oid(o) => self.attr_select(self.instance.value_of(*o).ok()?, name),
            _ => docql_paths::attr_select(value, name).cloned(),
        }
    }

    fn strict_attrs_here<'v>(&self, value: &'v Value) -> Vec<(Sym, &'v Value)> {
        match value {
            Value::Tuple(fs) => fs.iter().map(|(n, v)| (*n, v)).collect(),
            Value::Union(m, payload) => {
                let mut out = vec![(*m, payload.as_ref())];
                out.extend(self.strict_attrs_here(payload));
                out
            }
            _ => Vec::new(),
        }
    }

    fn strict_lenable(&self, value: &Value) -> Option<usize> {
        match value {
            Value::List(items) => Some(items.len()),
            Value::Tuple(fs) => Some(fs.len()),
            Value::Union(_, payload) => self.strict_lenable(payload),
            _ => None,
        }
    }

    /// Index selection: lists, and tuples viewed as heterogeneous lists.
    /// A marked-union value indexes *through* its marker (omission
    /// semantics: the letters query `Letters[I](Y)[J]·to` indexes the tuple
    /// inside the union without naming `a1`/`a2`); term position also
    /// dereferences implicitly.
    fn index_select(&self, value: &Value, i: usize) -> Option<Value> {
        match value {
            Value::Union(_, payload) => self.index_select(payload, i),
            Value::Oid(o) => self.index_select(self.instance.value_of(*o).ok()?, i),
            _ => docql_paths::index_select(value, i).map(Cow::into_owned),
        }
    }

    /// Elements of a collection, looking through oids and union markers
    /// (the §4.2 iterator semantics with implicit selectors).
    fn element_collection<'v>(&self, value: &'v Value) -> Option<&'v [Value]>
    where
        'a: 'v,
    {
        match value {
            Value::List(items) | Value::Set(items) => Some(items),
            Value::Oid(o) => self.element_collection(self.instance.value_of(*o).ok()?),
            Value::Union(_, payload) => self.element_collection(payload),
            _ => None,
        }
    }

    /// Walk a path-predicate term from `base`, extending `env` at each
    /// variable, pushing completed environments into `out`.
    fn walk_path(
        &self,
        base: &Value,
        atoms: &[PathAtom],
        env: Env,
        out: &mut Vec<Env>,
    ) -> Result<(), CalcError> {
        if !self.guard_step()? {
            return Ok(());
        }
        let Some(atom) = atoms.first() else {
            out.push(env);
            return Ok(());
        };
        let rest = &atoms[1..];
        match atom {
            PathAtom::PathVar(v) => match env.get(v) {
                Some(CalcValue::Path(path)) => {
                    if let Some(value) = docql_paths::resolve(self.instance, base, path) {
                        self.walk_path(&value, rest, env, out)?;
                    }
                    Ok(())
                }
                Some(_) => Ok(()),
                None => {
                    let opts = EnumOptions {
                        semantics: self.semantics,
                        include_set_elements: self.set_elements,
                        ..EnumOptions::default()
                    };
                    // The visitor charges one fuel unit per visited pair and
                    // stops on a trip; the rest of the path is walked from
                    // each pair as it is visited, so rows found before a
                    // trip are kept. An error prunes every later pair.
                    let mut walked = Ok(());
                    docql_paths::visit_paths_guarded(
                        self.instance,
                        base,
                        &opts,
                        self.guard,
                        &mut |subpath, value| {
                            if walked.is_err() {
                                return false;
                            }
                            let mut e = env.clone();
                            e.insert(*v, CalcValue::Path(subpath.clone()));
                            walked = self.walk_path(value, rest, e, out);
                            walked.is_ok()
                        },
                    );
                    walked
                }
            },
            PathAtom::Deref => {
                if let Value::Oid(o) = base {
                    if let Ok(v) = self.instance.value_of(*o) {
                        self.walk_path(v, rest, env, out)?;
                    }
                }
                Ok(())
            }
            PathAtom::Attr(AttrTerm::Name(n)) => {
                if let Some(v) = docql_paths::attr_select(base, *n) {
                    self.walk_path(v, rest, env, out)?;
                }
                Ok(())
            }
            PathAtom::Attr(AttrTerm::Var(av)) => {
                match env.get(av).and_then(|cv| cv.as_attr()) {
                    Some(n) => {
                        if let Some(v) = docql_paths::attr_select(base, n) {
                            self.walk_path(v, rest, env, out)?;
                        }
                        Ok(())
                    }
                    None => {
                        // Enumerate the attributes available here: tuple
                        // fields, union markers and (through omission) the
                        // chosen branch's fields.
                        for (name, value) in self.strict_attrs_here(base) {
                            let mut e = env.clone();
                            e.insert(*av, CalcValue::Attr(name));
                            self.walk_path(value, rest, e, out)?;
                        }
                        Ok(())
                    }
                }
            }
            PathAtom::Index(it) => match it {
                IntTerm::Const(i) => {
                    if let Some(v) = docql_paths::index_select(base, *i) {
                        self.walk_path(&v, rest, env, out)?;
                    }
                    Ok(())
                }
                IntTerm::Var(v) => match env.get(v) {
                    Some(CalcValue::Data(Value::Int(n))) => {
                        if let Ok(i) = usize::try_from(*n) {
                            if let Some(val) = docql_paths::index_select(base, i) {
                                self.walk_path(&val, rest, env, out)?;
                            }
                        }
                        Ok(())
                    }
                    Some(_) => Ok(()),
                    None => {
                        let len = match self.strict_lenable(base) {
                            Some(n) => n,
                            None => return Ok(()),
                        };
                        for i in 0..len {
                            if let Some(val) = docql_paths::index_select(base, i) {
                                let mut e = env.clone();
                                e.insert(*v, CalcValue::Data(Value::Int(i as i64)));
                                self.walk_path(&val, rest, e, out)?;
                            }
                        }
                        Ok(())
                    }
                },
            },
            PathAtom::Bind(v) => match env.get(v) {
                Some(CalcValue::Data(x)) => {
                    if x == base {
                        self.walk_path(base, rest, env, out)?;
                    }
                    Ok(())
                }
                Some(_) => Ok(()),
                None => {
                    let mut e = env;
                    e.insert(*v, CalcValue::Data(base.clone()));
                    self.walk_path(base, rest, e, out)
                }
            },
            PathAtom::SetBind(v) => {
                let items = match base {
                    Value::Set(items) => items,
                    Value::Oid(o) => match self.instance.value_of(*o).ok() {
                        Some(Value::Set(items)) => items,
                        _ => return Ok(()),
                    },
                    _ => return Ok(()),
                };
                for item in items {
                    match env.get(v) {
                        Some(CalcValue::Data(x)) if x != item => continue,
                        Some(CalcValue::Data(_)) => {
                            self.walk_path(item, rest, env.clone(), out)?;
                        }
                        Some(_) => continue,
                        None => {
                            let mut e = env.clone();
                            e.insert(*v, CalcValue::Data(item.clone()));
                            self.walk_path(item, rest, e, out)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// Equality over calc values; data compares with `Value::Eq` (identity up to
/// canonical sets).
fn calc_eq(a: &CalcValue, b: &CalcValue) -> bool {
    a == b
}

/// Convert a calc value into a data value for embedding in results
/// (paths render as their step lists, attributes as strings).
pub fn calc_to_value(cv: &CalcValue) -> Value {
    match cv {
        CalcValue::Data(v) => v.clone(),
        CalcValue::Attr(a) => Value::str(a.as_str()),
        CalcValue::Path(p) => Value::List(
            p.steps()
                .iter()
                .map(|s| match s {
                    PathStep::Attr(a) => Value::union("attr", Value::str(a.as_str())),
                    PathStep::Index(i) => Value::union("index", Value::Int(*i as i64)),
                    PathStep::Deref => Value::union("deref", Value::Nil),
                    PathStep::Elem(v) => Value::union("elem", v.clone()),
                })
                .collect(),
        ),
    }
}

/// Check range-restriction statically (without evaluating): every head
/// variable and every free variable must be bindable in some conjunct
/// order.
pub fn check_range_restricted(
    q: &Query,
    instance: &Instance,
    interp: &Interp,
) -> Result<(), CalcError> {
    let ev = Evaluator::new(instance, interp);
    let mut bound: BTreeSet<Var> = q.outer_vars.iter().copied().collect();
    match ev.runnable(&q.body, &bound) {
        Some(provides) => {
            bound.extend(provides);
            for v in &q.head {
                if !bound.contains(v) {
                    return Err(CalcError::RangeRestriction(format!(
                        "head variable {} not range-restricted",
                        q.name_of(*v)
                    )));
                }
            }
            Ok(())
        }
        None => Err(CalcError::RangeRestriction(
            "no safe evaluation order exists".to_string(),
        )),
    }
}
