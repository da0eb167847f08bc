//! Translation of O₂SQL queries into the calculus (§5.2: "any O₂SQL query …
//! can be translated into a calculus expression").
//!
//! A `select e from v₁ in t₁, …, pattern-items… where φ` becomes
//! `{H | t₁-membership ∧ … ∧ path-predicates ∧ φ' ∧ H = e'}` — from-items
//! become `∈` atoms or path predicates, the where-clause becomes a formula
//! (with `contains` combinations expanded into boolean structure over
//! `contains` atoms), and the select expression is materialised into the
//! single head variable.

use crate::ast::*;
use crate::O2sqlError;
use docql_calculus::{
    Atom, AttrTerm, DataTerm, Formula, IntTerm, PathAtom, PathTerm, Program, Query, QueryBuilder,
    Sort, Var,
};
use docql_model::{sym, Schema};
use std::collections::BTreeMap;

/// Result of translating a top-level query.
pub struct Translated {
    /// The calculus query (for set-ops: the left side; see `set_op`).
    pub query: Query,
    /// `query` compiled for the interpreter.
    pub program: Program,
    /// Column labels for the result (one per head variable).
    pub columns: Vec<String>,
    /// Set operation against a second query, if any.
    pub set_op: Option<(SetOpKind, Box<Translated>)>,
}

/// Translate a parsed query against a schema (used to resolve identifiers
/// that name roots of persistence).
pub fn translate(q: &TopQuery, schema: &Schema) -> Result<Translated, O2sqlError> {
    match q {
        TopQuery::Select(s) => translate_select(s, schema),
        TopQuery::PathQuery { base, steps } => translate_path_query(base, steps, schema),
        TopQuery::SetOp(l, op, r) => {
            let left = translate(l, schema)?;
            let right = translate(r, schema)?;
            if left.columns.len() != right.columns.len() {
                return Err(O2sqlError::Type(format!(
                    "set operation arity mismatch: {} vs {} columns",
                    left.columns.len(),
                    right.columns.len()
                )));
            }
            Ok(Translated {
                query: left.query,
                program: left.program,
                columns: left.columns,
                set_op: Some((*op, Box::new(right))),
            })
        }
    }
}

struct Cx<'s> {
    schema: &'s Schema,
    b: QueryBuilder,
    scope: BTreeMap<String, Var>,
}

impl Cx<'_> {
    fn declare(&mut self, name: &str) -> Var {
        let sort = if name.starts_with("PATH_") {
            Sort::Path
        } else if name.starts_with("ATT_") {
            Sort::Attr
        } else {
            Sort::Data
        };
        let v = self.b.var(name, sort);
        self.scope.insert(name.to_string(), v);
        v
    }

    fn resolve(&self, name: &str) -> Result<DataTerm, O2sqlError> {
        if let Some(&v) = self.scope.get(name) {
            return Ok(DataTerm::Var(v));
        }
        if self.schema.has_root(sym(name)) {
            return Ok(DataTerm::Name(sym(name)));
        }
        Err(O2sqlError::UnknownIdent(name.to_string()))
    }
}

fn translate_select(s: &SelectQuery, schema: &Schema) -> Result<Translated, O2sqlError> {
    let mut cx = Cx {
        schema,
        b: QueryBuilder::new(),
        scope: BTreeMap::new(),
    };
    let mut conjuncts = Vec::new();
    for item in &s.from {
        match item {
            FromItem::In(var, source) => {
                // Resolve the source *before* declaring the variable so that
                // `x in x.children` style self-reference errors out.
                let src_term = expr_term(source, &mut cx)?;
                let v = cx.declare(var);
                conjuncts.push(Formula::Atom(Atom::In(DataTerm::Var(v), src_term)));
            }
            FromItem::Pattern { base, steps } => {
                let base_term = cx.resolve(base)?;
                let pterm = pattern_to_path_term(steps, &mut cx)?;
                conjuncts.push(Formula::Atom(Atom::PathPred(base_term, pterm)));
            }
        }
    }
    if let Some(w) = &s.where_ {
        conjuncts.push(cond_formula(w, &mut cx)?);
    }
    let select_term = expr_term(&s.select, &mut cx)?;
    let h = cx.b.data("result");
    conjuncts.push(Formula::Atom(Atom::Eq(DataTerm::Var(h), select_term)));
    let query = cx.b.query(vec![h], Formula::And(conjuncts));
    Ok(Translated {
        program: Program::compile(&query),
        query,
        columns: vec!["result".to_string()],
        set_op: None,
    })
}

fn translate_path_query(
    base: &str,
    steps: &[PatStep],
    schema: &Schema,
) -> Result<Translated, O2sqlError> {
    let mut cx = Cx {
        schema,
        b: QueryBuilder::new(),
        scope: BTreeMap::new(),
    };
    let base_term = cx.resolve(base)?;
    let pterm = pattern_to_path_term(steps, &mut cx)?;
    // Head: the named pattern variables, in declaration order.
    let mut head: Vec<Var> = Vec::new();
    let mut columns = Vec::new();
    for (name, &v) in &cx.scope {
        if !name.starts_with('\u{0}') {
            head.push(v);
            columns.push(name.clone());
        }
    }
    head.sort();
    columns = head
        .iter()
        .map(|v| {
            cx.scope
                .iter()
                .find(|(_, &sv)| sv == *v)
                .map(|(n, _)| n.clone())
                .unwrap_or_default()
        })
        .collect();
    if head.is_empty() {
        return Err(O2sqlError::Type(
            "a bare path query must bind at least one variable".to_string(),
        ));
    }
    let query =
        cx.b.query(head, Formula::Atom(Atom::PathPred(base_term, pterm)));
    Ok(Translated {
        program: Program::compile(&query),
        query,
        columns,
        set_op: None,
    })
}

fn pattern_to_path_term(steps: &[PatStep], cx: &mut Cx<'_>) -> Result<PathTerm, O2sqlError> {
    let mut atoms = Vec::new();
    let mut anon = 0usize;
    for step in steps {
        match step {
            PatStep::PathVar(name) => {
                let v = match cx.scope.get(name) {
                    Some(&v) => v,
                    None => cx.declare(name),
                };
                atoms.push(PathAtom::PathVar(v));
            }
            PatStep::AnonPath => {
                // Anonymous `..` path variables are fresh and hidden.
                let v = cx.b.path(&format!("..{anon}"));
                anon += 1;
                atoms.push(PathAtom::PathVar(v));
            }
            PatStep::Attr(name) => {
                atoms.push(PathAtom::Attr(AttrTerm::Name(sym(name))));
            }
            PatStep::AttrVar(name) => {
                let v = match cx.scope.get(name) {
                    Some(&v) => v,
                    None => cx.declare(name),
                };
                atoms.push(PathAtom::Attr(AttrTerm::Var(v)));
            }
            PatStep::Index(i) => atoms.push(PathAtom::Index(IntTerm::Const(*i))),
            PatStep::IndexVar(name) => {
                let v = match cx.scope.get(name) {
                    Some(&v) => v,
                    None => cx.declare(name),
                };
                atoms.push(PathAtom::Index(IntTerm::Var(v)));
            }
            PatStep::Bind(name) => {
                let v = match cx.scope.get(name) {
                    Some(&v) => v,
                    None => cx.declare(name),
                };
                atoms.push(PathAtom::Bind(v));
            }
            PatStep::SetBind(name) => {
                let v = match cx.scope.get(name) {
                    Some(&v) => v,
                    None => cx.declare(name),
                };
                atoms.push(PathAtom::SetBind(v));
            }
            PatStep::Deref => atoms.push(PathAtom::Deref),
        }
    }
    Ok(PathTerm(atoms))
}

/// Translate an expression in *value* position.
fn expr_term(e: &Expr, cx: &mut Cx<'_>) -> Result<DataTerm, O2sqlError> {
    match e {
        Expr::Lit(v) => Ok(DataTerm::Const(v.clone())),
        Expr::Ident(name) => cx.resolve(name),
        Expr::Path(base, sels) => {
            let base_term = expr_term(base, cx)?;
            let atoms = sels
                .iter()
                .map(|s| match s {
                    Sel::Attr(a) => PathAtom::Attr(AttrTerm::Name(sym(a))),
                    Sel::Index(i) => PathAtom::Index(IntTerm::Const(*i)),
                })
                .collect();
            Ok(DataTerm::PathApp(Box::new(base_term), PathTerm(atoms)))
        }
        Expr::Call(name, args) => {
            let args = args
                .iter()
                .map(|a| expr_term(a, cx))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(DataTerm::Apply(sym(name), args))
        }
        Expr::TupleCons(fields) => Ok(DataTerm::Tuple(
            fields
                .iter()
                .map(|(n, e)| Ok((AttrTerm::Name(sym(n)), expr_term(e, cx)?)))
                .collect::<Result<Vec<_>, O2sqlError>>()?,
        )),
        Expr::ListCons(items) => Ok(DataTerm::List(
            items
                .iter()
                .map(|e| expr_term(e, cx))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Expr::SetCons(items) => Ok(DataTerm::Set(
            items
                .iter()
                .map(|e| expr_term(e, cx))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Expr::Cmp(..)
        | Expr::And(_)
        | Expr::Or(_)
        | Expr::Not(_)
        | Expr::Contains(..)
        | Expr::InTest(..)
        | Expr::Exists(..) => Err(O2sqlError::Type(format!(
            "boolean expression used in value position: {e:?}"
        ))),
    }
}

/// Translate an expression in *boolean* (where-clause) position.
fn cond_formula(e: &Expr, cx: &mut Cx<'_>) -> Result<Formula, O2sqlError> {
    match e {
        Expr::And(items) => Ok(Formula::And(
            items
                .iter()
                .map(|i| cond_formula(i, cx))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Or(items) => Ok(Formula::Or(
            items
                .iter()
                .map(|i| cond_formula(i, cx))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Not(inner) => Ok(Formula::Not(Box::new(cond_formula(inner, cx)?))),
        Expr::Cmp(op, l, r) => {
            let lt = expr_term(l, cx)?;
            let rt = expr_term(r, cx)?;
            Ok(match op {
                CmpOp::Eq => Formula::Atom(Atom::Eq(lt, rt)),
                CmpOp::Ne => Formula::Atom(Atom::Pred(sym("!="), vec![lt, rt])),
                CmpOp::Lt => Formula::Atom(Atom::Pred(sym("<"), vec![lt, rt])),
                CmpOp::Le => Formula::Atom(Atom::Pred(sym("<="), vec![lt, rt])),
                CmpOp::Gt => Formula::Atom(Atom::Pred(sym(">"), vec![lt, rt])),
                CmpOp::Ge => Formula::Atom(Atom::Pred(sym(">="), vec![lt, rt])),
            })
        }
        Expr::Contains(target, cbool) => {
            let t = expr_term(target, cx)?;
            Ok(contains_formula(&t, cbool))
        }
        Expr::InTest(x, coll) => Ok(Formula::Atom(Atom::In(
            expr_term(x, cx)?,
            expr_term(coll, cx)?,
        ))),
        Expr::Call(name, args) => {
            // Predicates used as calls (e.g. near(...)).
            let args = args
                .iter()
                .map(|a| expr_term(a, cx))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Formula::Atom(Atom::Pred(sym(name), args)))
        }
        Expr::Exists(var, source, cond) => {
            // exists(v in e : φ) ≡ ∃v(v ∈ e ∧ φ). The bound variable
            // shadows any outer binding of the same name during translation
            // of the condition and is scoped back out afterwards.
            let src_term = expr_term(source, cx)?;
            let shadowed = cx.scope.get(var).copied();
            let v = cx.declare(var);
            let cond_f = cond_formula(cond, cx)?;
            match shadowed {
                Some(prev) => {
                    cx.scope.insert(var.to_string(), prev);
                }
                None => {
                    cx.scope.remove(var);
                }
            }
            Ok(Formula::Exists(
                vec![v],
                Box::new(Formula::And(vec![
                    Formula::Atom(Atom::In(DataTerm::Var(v), src_term)),
                    cond_f,
                ])),
            ))
        }
        other => Err(O2sqlError::Type(format!(
            "expression is not a condition: {other:?}"
        ))),
    }
}

/// Expand a boolean pattern combination into formula structure over
/// `contains` atoms (Q1's `contains ("SGML" and "OODBMS")`).
fn contains_formula(target: &DataTerm, c: &CBool) -> Formula {
    match c {
        CBool::Pat(p) => Formula::Atom(Atom::Pred(
            sym("contains"),
            vec![
                target.clone(),
                DataTerm::Const(docql_model::Value::str(p.clone())),
            ],
        )),
        CBool::And(items) => {
            Formula::And(items.iter().map(|i| contains_formula(target, i)).collect())
        }
        CBool::Or(items) => {
            Formula::Or(items.iter().map(|i| contains_formula(target, i)).collect())
        }
        CBool::Not(inner) => Formula::Not(Box::new(contains_formula(target, inner))),
    }
}
