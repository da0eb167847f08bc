//! Evaluation of calculus queries (§5.2).
//!
//! A query is compiled once into a [`Program`] (the O₂SQL plan cache keeps
//! one per cached query) and run any number of times:
//!
//! * compiling fixes the conjunct order: each next conjunct is the first
//!   whose inputs are already bound (sideways information passing); with
//!   no order the query is not range-restricted — the paper's discipline —
//!   and a binding reaching the unorderable rest fails. It also rewrites
//!   `∀x̄ φ` to `¬∃x̄ ¬φ` and checks negations read only bound variables;
//! * evaluation is depth-first over one mutable row with a slot per
//!   variable: an atom binds its slots in place, runs the rest of the
//!   conjunction, then unbinds them, so rows come out in the order a
//!   set-at-a-time reading gives. Only where that order depends on a whole
//!   batch — a disjunction concatenates its branches' answers, an
//!   existential deduplicates its projection — are the rows reaching it
//!   collected first; otherwise a row is built only at the head;
//! * path predicates `⟨v P ·a (X) …⟩` walk the value graph in place:
//!   unbound path variables expand via [`docql_paths::visit_paths_guarded`]
//!   under the chosen semantics (restricted per-class dereference by
//!   default), the rest of the path walked from each visited value as it
//!   is reached. Inside walks, attribute/index selection applies the §5.3
//!   *implicit selectors* (union markers may be skipped) but is **strict**
//!   about object boundaries — crossing one takes an explicit or absorbed
//!   `→`; term-position access (`a.title`) also dereferences implicitly;
//! * the §5.3 rule "each atom where this occurs is **false**" is realised by
//!   undefined term evaluations producing no bindings rather than errors;
//! * governance charges a row per atom run on one binding and a unit of
//!   path fuel per walk step. After a degrade-mode trip only generators
//!   stop (path expansion, `∈` iteration, attribute-, index- and
//!   set-element enumeration): bindings already made still pass the
//!   filters and reach the head. What a trip may have cut short answers
//!   nothing from then on — `contains` is false, a negation keeps nothing,
//!   a nested query is undefined, a disjunction runs no later branch — so
//!   a partial answer is a prefix.

use crate::interp::{CalcValue, ContainsPattern, Interp, InterpCtx, InterpError};
use crate::rows::RowSet;
use crate::term::{Atom, AttrTerm, DataTerm, Formula, IntTerm, PathAtom, Query, Var};
use docql_guard::Flow;
use docql_model::{Instance, Sym, Value};
use docql_paths::{ConcretePath, EnumOptions, PathSemantics, PathStep};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

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

/// A compiled query: conjuncts in evaluation order over variable slots.
/// Compile once with [`Program::compile`], run with [`Evaluator::run`].
///
/// A variable's slot is its number: [`crate::QueryBuilder`] numbers a
/// query's variables densely from 0, so the slot row is dense.
#[derive(Debug, Clone)]
pub struct Program {
    /// One more than the highest variable number the query mentions.
    slots: usize,
    body: Seq,
    head: Vec<Var>,
    head_names: Vec<String>,
}

/// A conjunction in evaluation order. The conjuncts before its first
/// batch boundary run depth-first on one binding at a time; the boundary
/// runs over every row they produced, then the rest follows.
type Seq = Vec<Conj>;

/// One conjunct of a compiled conjunction.
#[derive(Debug, Clone)]
enum Conj {
    Atom(PreparedAtom),
    /// Negation as failure: keep the binding iff the inner has no solution.
    Not(Seq),
    /// `¬¬φ`, a semi-join: keep the binding iff the inner has a solution.
    Semi(Seq),
    /// The range-restriction error raised when a binding gets here.
    Fail(String),
    Batch(Boundary),
}

/// A conjunct whose answer order depends on the whole batch of bindings.
#[derive(Debug, Clone)]
enum Boundary {
    /// Each branch over the batch, answers concatenated.
    Or(Vec<Seq>),
    /// The inner over the batch, with these variables projected out and
    /// the rest deduplicated.
    Exists(Vec<Var>, Seq),
}

/// An atom ready to run: a `contains` atom whose pattern is a constant
/// string holds that pattern compiled, so no evaluation parses it. Both the
/// compiled [`Program`] and the algebra's operators run atoms in this form.
#[derive(Debug, Clone)]
pub struct PreparedAtom {
    atom: Atom,
    contains: Option<ContainsPattern>,
}

impl PreparedAtom {
    /// Prepare `atom`, compiling its constant `contains` pattern.
    pub fn new(atom: Atom) -> PreparedAtom {
        let contains = match &atom {
            Atom::Pred(name, args) if name.as_str() == "contains" => match args.get(1) {
                Some(DataTerm::Const(Value::Str(src))) => Some(ContainsPattern::compile(src)),
                _ => None,
            },
            _ => None,
        };
        PreparedAtom { atom, contains }
    }
}

/// What a conjunct binds beyond the variables bound before it; `None` when
/// it cannot run with those (its compiled form then fails when reached).
type Provides = Option<BTreeSet<Var>>;

impl Program {
    /// Compile `q`.
    pub fn compile(q: &Query) -> Program {
        Program::compile_with(q, BTreeSet::new())
    }

    /// Compile `q` with the variables in `bound` bound from the start.
    fn compile_with(q: &Query, bound: BTreeSet<Var>) -> Program {
        let mut vars = bound.clone();
        vars.extend(&q.head);
        let (body, _) = seq(&q.body, &bound, &mut vars);
        Program {
            slots: vars.last().map_or(0, |v| *v as usize + 1),
            body,
            head: q.head.clone(),
            head_names: q.head.iter().map(|v| q.name_of(*v)).collect(),
        }
    }

    /// The value `row` binds to the `i`-th head variable.
    fn head_value<'r>(&self, row: &'r Row, i: usize) -> Result<&'r CalcValue, CalcError> {
        get(row, self.head[i]).ok_or_else(|| {
            let name = &self.head_names[i];
            let msg = format!("head variable {name} is not bound by the body");
            CalcError::RangeRestriction(msg)
        })
    }
}

/// Compile `f` as one conjunction, noting every variable it mentions in
/// `vars`.
fn seq(f: &Formula, bound: &BTreeSet<Var>, vars: &mut BTreeSet<Var>) -> (Seq, Provides) {
    let mut seq = Seq::new();
    let provides = conjunct(f, bound, vars, &mut seq);
    (seq, provides)
}

/// Append `f`'s conjuncts, in evaluation order, to `out`.
fn conjunct(
    f: &Formula,
    bound: &BTreeSet<Var>,
    vars: &mut BTreeSet<Var>,
    out: &mut Seq,
) -> Provides {
    let empty = || Some(BTreeSet::new());
    let (item, provides) = match f {
        Formula::Atom(a) => {
            a.vars(vars);
            (
                Conj::Atom(PreparedAtom::new(a.clone())),
                atom_provides(a, bound),
            )
        }
        Formula::And(fs) => {
            // Greedy sideways information passing: the first conjunct that
            // can run with what is bound so far goes next.
            let mut now = bound.clone();
            let mut remaining: Vec<&Formula> = fs.iter().collect();
            while !remaining.is_empty() {
                let pick = remaining.iter().enumerate().find_map(|(i, g)| {
                    let mut items = Vec::new();
                    Some((i, conjunct(g, &now, vars, &mut items)?, items))
                });
                let Some((i, provides, items)) = pick else {
                    let descr: Vec<String> = remaining.iter().map(|f| f.to_string()).collect();
                    let msg = format!("cannot order conjuncts {descr:?} with bound set {now:?}");
                    out.push(Conj::Fail(msg));
                    return None;
                };
                remaining.remove(i);
                out.extend(items);
                now.extend(provides);
            }
            return Some(now.difference(bound).copied().collect());
        }
        Formula::Or(fs) => {
            // A disjunction binds what every branch binds.
            let (branches, ps): (Vec<_>, Vec<_>) = fs.iter().map(|g| seq(g, bound, vars)).unzip();
            let provides = ps.into_iter().reduce(|a, b| Some(&a? & &b?));
            (Conj::Batch(Boundary::Or(branches)), provides.flatten())
        }
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Not(g) => {
                let (inner, p) = seq(g, bound, vars);
                (Conj::Semi(inner), p.and_then(|_| empty()))
            }
            _ => match inner.free_vars().into_iter().find(|v| !bound.contains(v)) {
                Some(v) => {
                    let msg = format!("variable v{v} free under negation");
                    (Conj::Fail(msg), None)
                }
                None => (Conj::Not(seq(inner, bound, vars).0), empty()),
            },
        },
        Formula::Exists(xs, inner) => {
            vars.extend(xs);
            let (inner, p) = seq(inner, bound, vars);
            let p = p.map(|p| p.into_iter().filter(|v| !xs.contains(v)).collect());
            (Conj::Batch(Boundary::Exists(xs.clone(), inner)), p)
        }
        Formula::Forall(xs, inner) => {
            // ∀x̄ φ ≡ ¬∃x̄ ¬φ.
            let rewritten = Formula::Not(Box::new(Formula::Exists(
                xs.clone(),
                Box::new(Formula::Not(inner.clone())),
            )));
            return conjunct(&rewritten, bound, vars, out);
        }
    };
    out.push(item);
    provides
}

/// What atom `a` binds beyond `bound`, or `None` when its inputs are not
/// all bound.
fn atom_provides(a: &Atom, bound: &BTreeSet<Var>) -> Provides {
    let all_bound = |t: &DataTerm| -> bool {
        let mut vs = BTreeSet::new();
        t.vars(&mut vs);
        vs.iter().all(|v| bound.contains(v))
    };
    match a {
        Atom::PathPred(t, p) => all_bound(t).then(|| {
            let mut vs = BTreeSet::new();
            p.vars(&mut vs);
            &vs - bound
        }),
        Atom::Eq(x, y) => match (x, y, all_bound(x), all_bound(y)) {
            (_, _, true, true) => Some(BTreeSet::new()),
            (DataTerm::Var(v), _, false, true) => Some(BTreeSet::from([*v])),
            (_, DataTerm::Var(v), true, false) => Some(BTreeSet::from([*v])),
            _ => None,
        },
        Atom::In(_, coll) if !all_bound(coll) => None,
        Atom::In(DataTerm::Var(v), _) if !bound.contains(v) => Some(BTreeSet::from([*v])),
        Atom::In(x, _) => all_bound(x).then(BTreeSet::new),
        Atom::Subset(x, y) => (all_bound(x) && all_bound(y)).then(BTreeSet::new),
        Atom::Pred(_, args) => args.iter().all(all_bound).then(BTreeSet::new),
    }
}

/// The slot row evaluation binds in place: one value per variable.
type Row = Vec<Option<CalcValue>>;

/// Where a conjunct sends each binding it makes.
type Emit<'k> = dyn FnMut(&mut Row) -> Result<(), CalcError> + 'k;

/// The calculus evaluator, bound to an instance and interpreted registry.
pub struct Evaluator<'a> {
    instance: &'a Instance,
    interp: &'a Interp,
    /// Path-variable semantics (restricted by default).
    pub semantics: PathSemantics,
    /// Include `{v}` set-element steps during path-variable expansion.
    pub set_elements: bool,
    /// Execution governance: atoms charge rows, path walks charge fuel.
    /// `None` (the default) costs one pointer test per charge.
    pub guard: Option<&'a docql_guard::Guard>,
    nested: RefCell<Vec<Nested>>,
}

/// A nested query compiled during evaluation and the variables bound there.
type Nested = (Query, Vec<Var>, Rc<Program>);

impl<'a> Evaluator<'a> {
    /// New evaluator with the paper's restricted path semantics.
    pub fn new(instance: &'a Instance, interp: &'a Interp) -> Evaluator<'a> {
        Evaluator {
            instance,
            interp,
            semantics: PathSemantics::Restricted,
            set_elements: true,
            guard: None,
            nested: RefCell::default(),
        }
    }

    /// Charge the guard: `Err` when a strict-mode limit aborts; after a
    /// degrade-mode trip generators stop at their next item.
    #[inline]
    fn charge(&self, f: impl FnOnce(&docql_guard::Guard) -> Flow) -> Result<(), CalcError> {
        match self.guard.map(f) {
            Some(Flow::Abort(e)) => Err(CalcError::Interrupted(e)),
            _ => Ok(()),
        }
    }

    /// Has a limit tripped?
    #[inline]
    fn tripped(&self) -> bool {
        self.guard.is_some_and(|g| g.tripped())
    }

    /// Compile and evaluate a query to its (deduplicated) answer rows — one
    /// [`CalcValue`] per head variable. Callers that run a query more than
    /// once compile it once and use [`Evaluator::run`].
    pub fn eval_query(&self, q: &Query) -> Result<Vec<Vec<CalcValue>>, CalcError> {
        self.run(&Program::compile(q))
    }

    /// Evaluate a compiled query.
    pub fn run(&self, p: &Program) -> Result<Vec<Vec<CalcValue>>, CalcError> {
        self.answer(p, &mut Row::new())
    }

    /// Run one atom on `row` (a value or `None` per variable number),
    /// passing `found` each solution — how the §5.4 algebra's filters and
    /// assignments evaluate atoms. `row` is unchanged when this returns `Ok`.
    pub fn solve_atom(
        &self,
        atom: &PreparedAtom,
        row: &mut Vec<Option<CalcValue>>,
        found: &mut dyn FnMut(&[Option<CalcValue>]),
    ) -> Result<(), CalcError> {
        self.atom(atom, row, &mut |row| {
            found(row);
            Ok(())
        })
    }

    /// The deduplicated head rows of `p`'s solutions from `row`, in the
    /// order each first came.
    fn answer(&self, p: &Program, row: &mut Row) -> Result<Vec<Vec<CalcValue>>, CalcError> {
        row.resize(row.len().max(p.slots), None);
        let mut seen = RowSet::new();
        self.solve(&p.body, row, &mut |row| {
            match p.head.len() {
                // A one-column row already seen is found without building it.
                1 => {
                    let one = p.head_value(row, 0)?;
                    seen.insert_with(std::slice::from_ref(one), || vec![one.clone()]);
                }
                n => {
                    let out = (0..n).map(|i| p.head_value(row, i).cloned());
                    seen.insert(out.collect::<Result<Vec<_>, _>>()?);
                }
            }
            Ok(())
        })?;
        Ok(seen.into_vec())
    }

    /// Every solution of `seq` extending the one binding in `row`, each
    /// passed to `k`; `row` is as it was when this returns.
    fn solve(&self, seq: &[Conj], row: &mut Row, k: &mut Emit<'_>) -> Result<(), CalcError> {
        if !seq.iter().any(|c| matches!(c, Conj::Batch(_))) {
            return self.stream(seq, row, k);
        }
        let saved = row.clone();
        self.batch(seq, vec![saved.clone()], row, k)?;
        *row = saved;
        Ok(())
    }

    /// `seq` over a batch of bindings, in the set-at-a-time order: each
    /// batch boundary sees every row that reaches it before any of its
    /// answers goes on. Loads each binding into `row`.
    fn batch(
        &self,
        seq: &[Conj],
        inputs: Vec<Row>,
        row: &mut Row,
        k: &mut Emit<'_>,
    ) -> Result<(), CalcError> {
        let collect = |out: &mut Vec<Row>, r: &mut Row| {
            out.push(r.clone());
            Ok(())
        };
        let at = seq.iter().position(|c| matches!(c, Conj::Batch(_)));
        let (nodes, rest) = seq.split_at(at.unwrap_or(seq.len()));
        let mut reached = Vec::new();
        for input in inputs {
            *row = input;
            match rest {
                [] => self.stream(nodes, row, k)?,
                _ => self.stream(nodes, row, &mut |r| collect(&mut reached, r))?,
            }
        }
        let Some((Conj::Batch(boundary), rest)) = rest.split_first() else {
            return Ok(());
        };
        let out = match boundary {
            Boundary::Or(branches) => {
                // After a trip no later branch runs (it would add rows past
                // the gap); the first over a prefix batch answers a prefix.
                let mut out = Vec::new();
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 && self.tripped() {
                        break;
                    }
                    self.batch(b, reached.clone(), row, &mut |r| collect(&mut out, r))?;
                }
                out
            }
            Boundary::Exists(xs, inner) => {
                let mut seen = RowSet::new();
                self.batch(inner, reached, row, &mut |r| {
                    let mut r = r.clone();
                    for x in xs {
                        put(&mut r, *x, None);
                    }
                    seen.insert(r);
                    Ok(())
                })?;
                seen.into_vec()
            }
        };
        self.batch(rest, out, row, k)
    }

    /// Run `nodes` depth-first on the binding in `row`.
    fn stream(&self, nodes: &[Conj], row: &mut Row, k: &mut Emit<'_>) -> Result<(), CalcError> {
        let Some((node, rest)) = nodes.split_first() else {
            return k(row);
        };
        let mut next = |row: &mut Row| self.stream(rest, row, k);
        match node {
            Conj::Atom(a) => self.atom(a, row, &mut next),
            Conj::Not(inner) | Conj::Semi(inner) => {
                // Every solution is enumerated, so the inner charges the
                // guard exactly as a full evaluation does.
                let mut found = false;
                self.solve(inner, row, &mut |_| {
                    found = true;
                    Ok(())
                })?;
                // After a trip the inner may have stopped short, so a
                // negation cannot trust "no solution": it keeps nothing.
                let keep = match node {
                    Conj::Semi(_) => found,
                    _ => !found && !self.tripped(),
                };
                if keep {
                    next(row)
                } else {
                    Ok(())
                }
            }
            Conj::Fail(msg) => Err(CalcError::RangeRestriction(msg.clone())),
            // Unreached from `batch`; one binding alone is a batch too.
            Conj::Batch(_) => self.solve(nodes, row, k),
        }
    }

    fn atom(&self, a: &PreparedAtom, row: &mut Row, k: &mut Emit<'_>) -> Result<(), CalcError> {
        self.charge(|g| g.row())?;
        match &a.atom {
            Atom::PathPred(t, p) => match self.term(t, row)? {
                Some(CalcValue::Data(base)) => self.walk(&base, &p.0, row, k),
                _ => Ok(()), // undefined base ⇒ atom false
            },
            // An undefined variable side is an unbound one: bind it.
            Atom::Eq(x, y) => match (self.term(x, row)?, self.term(y, row)?, x, y) {
                (Some(a), Some(b), ..) if a == b => k(row),
                (None, Some(v), DataTerm::Var(x), _) | (Some(v), None, _, DataTerm::Var(x)) => {
                    bind(row, *x, v, k)
                }
                _ => Ok(()),
            },
            Atom::In(x, coll) => {
                let Some(CalcValue::Data(cv)) = self.term(coll, row)? else {
                    return Ok(());
                };
                let Some(items) = self.element_collection(&cv) else {
                    return Ok(());
                };
                match (x, self.term(x, row)?) {
                    (_, Some(CalcValue::Data(xv))) if items.contains(&xv) => k(row),
                    (DataTerm::Var(x), None) => {
                        for item in items {
                            if self.tripped() {
                                break;
                            }
                            bind(row, *x, CalcValue::Data(item.clone()), k)?;
                        }
                        Ok(())
                    }
                    _ => Ok(()),
                }
            }
            Atom::Subset(x, y) => {
                let (Some(CalcValue::Data(xv)), Some(CalcValue::Data(yv))) =
                    (self.term(x, row)?, self.term(y, row)?)
                else {
                    return Ok(());
                };
                match (self.element_collection(&xv), self.element_collection(&yv)) {
                    (Some(xs), Some(ys)) if xs.iter().all(|i| ys.contains(i)) => k(row),
                    _ => Ok(()),
                }
            }
            Atom::Pred(name, args) => match self.terms(args, row)? {
                Some(vals)
                    if self
                        .interp
                        .pred(&self.ctx(a.contains.as_ref()), *name, &vals)? =>
                {
                    k(row)
                }
                _ => Ok(()),
            },
        }
    }

    /// The context an interpreted call runs in, with the constant pattern
    /// of the `contains` atom making it.
    fn ctx<'c>(&self, contains: Option<&'c ContainsPattern>) -> InterpCtx<'c>
    where
        'a: 'c,
    {
        InterpCtx {
            instance: self.instance,
            guard: self.guard,
            contains,
        }
    }

    /// Every term's value, or `None` when one is undefined.
    fn terms(&self, ts: &[DataTerm], row: &Row) -> Result<Option<Vec<CalcValue>>, CalcError> {
        ts.iter().map(|t| self.term(t, row)).collect()
    }

    /// Every term's data value, or `None` when one is undefined or not data.
    fn data_terms(&self, ts: &[DataTerm], row: &Row) -> Result<Option<Vec<Value>>, CalcError> {
        let data = |v: Option<CalcValue>| match v {
            Some(CalcValue::Data(v)) => Some(v),
            _ => None,
        };
        ts.iter().map(|t| Ok(data(self.term(t, row)?))).collect()
    }

    /// Term evaluation: `Ok(None)` means *undefined* (triggers the §5.3
    /// false-atom rule) — an unbound variable included, which is what lets
    /// an equality bind it.
    fn term(&self, t: &DataTerm, row: &Row) -> Result<Option<CalcValue>, CalcError> {
        let data = |v: Option<Value>| Ok(v.map(CalcValue::Data));
        match t {
            DataTerm::Name(n) => match self.instance.root(*n) {
                Ok(v) => data(Some(v.clone())),
                Err(_) => Err(CalcError::UnknownName(n.to_string())),
            },
            DataTerm::Const(v) => data(Some(v.clone())),
            DataTerm::AttrConst(a) => Ok(Some(CalcValue::Attr(*a))),
            DataTerm::Var(v) => Ok(get(row, *v).cloned()),
            DataTerm::Tuple(fields) => {
                let mut fs = Vec::with_capacity(fields.len());
                for (a, t) in fields {
                    let (Some(name), Some(CalcValue::Data(v))) = (attr(row, a), self.term(t, row)?)
                    else {
                        return Ok(None);
                    };
                    fs.push((name, v));
                }
                data(Some(Value::Tuple(fs)))
            }
            DataTerm::List(items) => data(self.data_terms(items, row)?.map(Value::List)),
            DataTerm::Set(items) => data(self.data_terms(items, row)?.map(Value::set)),
            DataTerm::PathApp(base, p) => {
                let Some(CalcValue::Data(mut cur)) = self.term(base, row)? else {
                    return Ok(None);
                };
                for step in &p.0 {
                    let next = match step {
                        PathAtom::PathVar(v) => match get(row, *v) {
                            Some(CalcValue::Path(path)) => {
                                docql_paths::resolve(self.instance, &cur, path)
                            }
                            _ => None,
                        },
                        PathAtom::Deref => deref(self.instance, &cur).cloned(),
                        PathAtom::Attr(a) => attr(row, a).and_then(|n| self.attr_select(&cur, n)),
                        PathAtom::Index(i) => {
                            index(row, i).and_then(|i| self.index_select(&cur, i))
                        }
                        // In term position the bound variable must agree.
                        PathAtom::Bind(v) | PathAtom::SetBind(v) => match get(row, *v) {
                            Some(CalcValue::Data(x)) if *x == cur => Some(cur),
                            _ => None,
                        },
                    };
                    match next {
                        Some(v) => cur = v,
                        None => return Ok(None),
                    }
                }
                data(Some(cur))
            }
            DataTerm::Apply(name, args) => match self.terms(args, row)? {
                Some(vals) => Ok(Some(self.interp.func(&self.ctx(None), *name, &vals)?)),
                None => Ok(None),
            },
            DataTerm::MakePath(p) => {
                let mut steps = Vec::new();
                for atom in &p.0 {
                    match atom {
                        PathAtom::PathVar(v) => match get(row, *v) {
                            Some(CalcValue::Path(sub)) => steps.extend(sub.steps().iter().cloned()),
                            _ => return Ok(None),
                        },
                        PathAtom::Deref => steps.push(PathStep::Deref),
                        PathAtom::Attr(a) => match attr(row, a) {
                            Some(n) => steps.push(PathStep::Attr(n)),
                            None => return Ok(None),
                        },
                        PathAtom::Index(i) => match index(row, i) {
                            Some(i) => steps.push(PathStep::Index(i)),
                            None => return Ok(None),
                        },
                        // Zero-width data binders contribute no step.
                        PathAtom::Bind(_) => {}
                        PathAtom::SetBind(v) => match get(row, *v) {
                            Some(CalcValue::Data(e)) => steps.push(PathStep::Elem(e.clone())),
                            _ => return Ok(None),
                        },
                    }
                }
                Ok(Some(CalcValue::Path(ConcretePath(steps))))
            }
            DataTerm::Sub(q) => {
                // Compiled once per query and bound set, a nested query reads
                // the outer row's bindings and shares its variable numbering.
                // After a trip it may be cut short, so it is undefined.
                let bound = || (0..row.len() as Var).filter(|v| get(row, *v).is_some());
                let cached = self.nested.borrow().iter().find_map(|(nq, vs, p)| {
                    (nq == &**q && vs.iter().copied().eq(bound())).then(|| Rc::clone(p))
                });
                let p = cached.unwrap_or_else(|| {
                    let p = Rc::new(Program::compile_with(q, bound().collect()));
                    let entry = ((**q).clone(), bound().collect(), Rc::clone(&p));
                    self.nested.borrow_mut().push(entry);
                    p
                });
                let rows = self.answer(&p, &mut row.clone())?;
                if self.tripped() {
                    return Ok(None);
                }
                let items: Vec<Value> = rows
                    .into_iter()
                    .map(|row| match row.as_slice() {
                        [one] => calc_to_value(one),
                        _ => Value::Tuple(
                            row.iter()
                                .zip(&p.head_names)
                                .map(|(cv, n)| (docql_model::sym(n), calc_to_value(cv)))
                                .collect(),
                        ),
                    })
                    .collect();
                data(Some(Value::set(items)))
            }
        }
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

    /// Walk a path-predicate term from `base`, binding each unbound
    /// variable in place, and pass every completed binding to `k`.
    fn walk(
        &self,
        base: &Value,
        steps: &[PathAtom],
        row: &mut Row,
        k: &mut Emit<'_>,
    ) -> Result<(), CalcError> {
        self.charge(|g| g.fuel(1))?;
        let Some((step, rest)) = steps.split_first() else {
            return k(row);
        };
        let mut on = |v: Option<&Value>, row: &mut Row| match v {
            Some(v) => self.walk(v, rest, row, k),
            None => Ok(()),
        };
        match step {
            PathAtom::PathVar(v) => match get(row, *v) {
                Some(CalcValue::Path(path)) => {
                    let reached = docql_paths::resolve(self.instance, base, path);
                    on(reached.as_ref(), row)
                }
                Some(_) => Ok(()),
                None => self.expand(base, *v, rest, row, k),
            },
            PathAtom::Deref => on(deref(self.instance, base), row),
            // The attributes available here: tuple fields, union markers
            // and (through omission) the chosen branch's fields.
            PathAtom::Attr(AttrTerm::Var(v)) if get(row, *v).is_none() => {
                let payloads = std::iter::successors(Some(base), |v| match v {
                    Value::Union(_, payload) => Some(payload),
                    _ => None,
                });
                let attrs = payloads.flat_map(|v| {
                    let (fields, marker) = match v {
                        Value::Tuple(fs) => (&fs[..], None),
                        Value::Union(m, payload) => (&[][..], Some((*m, &**payload))),
                        _ => (&[][..], None),
                    };
                    fields.iter().map(|(n, v)| (*n, v)).chain(marker)
                });
                let attrs = attrs.map(|(n, v)| (CalcValue::Attr(n), Cow::Borrowed(v)));
                self.each(*v, attrs, rest, row, k)
            }
            PathAtom::Attr(a) => {
                let reached = attr(row, a).and_then(|n| docql_paths::attr_select(base, n));
                on(reached, row)
            }
            PathAtom::Index(IntTerm::Var(v)) if get(row, *v).is_none() => {
                // Every position up to the first one the step cannot select.
                let items = (0..).map_while(|i| {
                    let reached = docql_paths::index_select(base, i)?;
                    Some((CalcValue::Data(Value::Int(i as i64)), reached))
                });
                self.each(*v, items, rest, row, k)
            }
            PathAtom::Index(i) => {
                let reached = index(row, i).and_then(|i| docql_paths::index_select(base, i));
                on(reached.as_deref(), row)
            }
            PathAtom::Bind(v) => match get(row, *v) {
                Some(CalcValue::Data(x)) if x == base => on(Some(base), row),
                Some(_) => Ok(()),
                None => bind(row, *v, CalcValue::Data(base.clone()), &mut |row| {
                    self.walk(base, rest, row, k)
                }),
            },
            PathAtom::SetBind(v) => {
                let Ok(Value::Set(items)) = self.instance.deref(base) else {
                    return Ok(());
                };
                match get(row, *v) {
                    Some(CalcValue::Data(x)) => {
                        let reached = items.iter().find(|i| *i == x);
                        on(reached, row)
                    }
                    Some(_) => Ok(()),
                    None => {
                        let items = items.iter();
                        let items = items.map(|i| (CalcValue::Data(i.clone()), Cow::Borrowed(i)));
                        self.each(*v, items, rest, row, k)
                    }
                }
            }
        }
    }

    /// Expand the unbound path variable `v`: walk the rest of the path from
    /// each `(path, value)` pair the visitor reaches, which charges one fuel
    /// unit per pair and stops on a trip, so rows found before a trip are
    /// kept. An error prunes every later pair.
    fn expand(
        &self,
        base: &Value,
        v: Var,
        rest: &[PathAtom],
        row: &mut Row,
        k: &mut Emit<'_>,
    ) -> Result<(), CalcError> {
        let opts = EnumOptions {
            semantics: self.semantics,
            include_set_elements: self.set_elements,
            ..EnumOptions::default()
        };
        // The slot holds the walk's own path buffer while a pair's rest
        // runs: swapping it in and out copies and frees nothing.
        let lend = |row: &mut Row, path: &mut ConcretePath| {
            if let Some(Some(CalcValue::Path(bound))) = row.get_mut(v as usize) {
                std::mem::swap(bound, path);
            }
        };
        let mut walked = Ok(());
        put(row, v, Some(CalcValue::Path(ConcretePath::empty())));
        docql_paths::visit_paths_guarded(self.instance, base, &opts, self.guard, &mut |path, x| {
            // A literal attribute step is tested before the path is lent,
            // charged as `walk` would: most pairs fail it.
            let (x, rest) = match rest.split_first() {
                Some((PathAtom::Attr(AttrTerm::Name(n)), after)) if walked.is_ok() => {
                    walked = self.charge(|g| g.fuel(1));
                    match docql_paths::attr_select(x, *n) {
                        Some(selected) => (selected, after),
                        None => return walked.is_ok(),
                    }
                }
                _ => (x, rest),
            };
            if walked.is_err() {
                return false;
            }
            lend(row, path);
            walked = self.walk(x, rest, row, k);
            lend(row, path);
            walked.is_ok()
        });
        put(row, v, None);
        walked
    }

    /// A generator step: bind `v` to each `(binding, value)` in turn and
    /// walk the rest of the path from the value. Stops at the next item
    /// once a limit trips.
    fn each<'v>(
        &self,
        v: Var,
        items: impl Iterator<Item = (CalcValue, Cow<'v, Value>)>,
        rest: &[PathAtom],
        row: &mut Row,
        k: &mut Emit<'_>,
    ) -> Result<(), CalcError> {
        for (binding, reached) in items {
            if self.tripped() {
                break;
            }
            put(row, v, Some(binding));
            self.walk(&reached, rest, row, k)?;
        }
        put(row, v, None);
        Ok(())
    }
}

/// The value bound to `v`, if any.
fn get(row: &Row, v: Var) -> Option<&CalcValue> {
    row.get(v as usize)?.as_ref()
}

/// Bind `v` to `value` (`None` unbinds it).
fn put(row: &mut Row, v: Var, value: Option<CalcValue>) {
    let i = v as usize;
    if i >= row.len() {
        row.resize(i + 1, None);
    }
    row[i] = value;
}

/// The value an explicit `→` reaches: an object's value.
fn deref<'v>(instance: &'v Instance, value: &Value) -> Option<&'v Value> {
    match value {
        Value::Oid(o) => instance.value_of(*o).ok(),
        _ => None,
    }
}

/// An attribute term's name: a literal, or an attribute variable's value.
fn attr(row: &Row, a: &AttrTerm) -> Option<Sym> {
    match a {
        AttrTerm::Name(n) => Some(*n),
        AttrTerm::Var(v) => get(row, *v)?.as_attr(),
    }
}

/// An index term's position: a literal, or a variable holding an integer.
fn index(row: &Row, i: &IntTerm) -> Option<usize> {
    match i {
        IntTerm::Const(i) => Some(*i),
        IntTerm::Var(v) => match get(row, *v)? {
            CalcValue::Data(Value::Int(n)) => usize::try_from(*n).ok(),
            _ => None,
        },
    }
}

/// Bind `v` to `value` for the duration of `k`.
fn bind(row: &mut Row, v: Var, value: CalcValue, k: &mut Emit<'_>) -> Result<(), CalcError> {
    put(row, v, Some(value));
    let r = k(row);
    put(row, v, None);
    r
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
pub fn check_range_restricted(q: &Query) -> Result<(), CalcError> {
    let mut bound: BTreeSet<Var> = q.outer_vars.iter().copied().collect();
    let (_, provides) = seq(&q.body, &bound, &mut BTreeSet::new());
    bound.extend(provides.ok_or_else(|| {
        CalcError::RangeRestriction("no safe evaluation order exists".to_string())
    })?);
    match q.head.iter().find(|v| !bound.contains(v)) {
        Some(v) => Err(CalcError::RangeRestriction(format!(
            "head variable {} not range-restricted",
            q.name_of(*v)
        ))),
        None => Ok(()),
    }
}
