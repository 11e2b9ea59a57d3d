//! Parameterized query templates (the plan-cache front end).
//!
//! Production traffic is dominated by query *templates* that differ only in
//! comparison literals (`person_id = ?`, `creation_date < ?`). This module
//! gives `SpjmQuery` a parameterized view:
//!
//! * [`parameterize`] lifts comparison literals into **parameter slots** and
//!   renders the rest of the query — pattern elements renamed through
//!   [`relgo_pattern::canonical_form`] — into an isomorphism-invariant
//!   template descriptor. Together with the [`OptimizerMode`] and the
//!   parameter-slot signature this forms [`PlanKey`], under which renamed
//!   queries with different constants share one plan-cache entry.
//! * [`rebind_plan`] takes a cached [`PhysicalPlan`] skeleton (optimized for
//!   one set of literals) and substitutes fresh bindings into every
//!   predicate — pattern constraints, graph operators and relational
//!   operators alike — without re-running the optimizer.
//!
//! A literal is a parameter slot iff it is the literal side of a comparison
//! whose other side is a non-literal expression (`col = lit`, `lit < expr`).
//! Everything else — `IN`-list members, `STARTS WITH` prefixes, standalone
//! boolean literals — is part of the template structure. Rebinding matches
//! plan literals against the cached instance's slot values; if two slots
//! shared a value but now diverge (or a slot value cannot be found in the
//! plan), rebinding reports an error and the caller falls back to a full
//! optimizer run, counting a *rebind failure*.

use crate::optimizer::OptimizerMode;
use crate::rel_plan::PhysicalPlan;
use crate::spjm::{AttrRef, PatternElemRef, SpjmQuery};
use relgo_common::fxhash::{combine, hash_u64, FxHasher};
use relgo_common::{RelGoError, Result, Value};
use relgo_storage::ScalarExpr;
use std::fmt::Write as _;
use std::hash::Hasher as _;

/// The parameterized view of one query instance: the template descriptor
/// (shape), the canonical pattern fingerprint, and the literal bindings.
#[derive(Debug, Clone)]
pub struct ParamQuery {
    /// Isomorphism-invariant pattern fingerprint (via `canonical_form`).
    pub canon_fingerprint: u64,
    /// The full template descriptor: every structural aspect of the query
    /// with parameter slots rendered as `?N`. Compared verbatim on cache
    /// hits, so hash collisions cannot alias distinct templates.
    pub shape: String,
    /// Literal bindings, in slot order.
    pub params: Vec<Value>,
    /// One variant tag per slot (`i`/`f`/`s`/`b`/`d`/`n`).
    pub slot_sig: String,
}

impl ParamQuery {
    /// The cache key of this instance under `mode` (bindings excluded).
    pub fn key(&self, mode: OptimizerMode) -> PlanKey {
        PlanKey {
            mode,
            canon_fingerprint: self.canon_fingerprint,
            shape: self.shape.clone(),
            slot_sig: self.slot_sig.clone(),
        }
    }

    /// [`ParamQuery::key`] without the copies: the key takes the
    /// descriptor strings and the bindings come back beside it (what the
    /// serving path does per query).
    pub fn into_key(self, mode: OptimizerMode) -> (PlanKey, Vec<Value>) {
        let key = PlanKey {
            mode,
            canon_fingerprint: self.canon_fingerprint,
            shape: self.shape,
            slot_sig: self.slot_sig,
        };
        (key, self.params)
    }
}

/// A plan-cache key: `(mode, canonical pattern fingerprint, relational
/// shape, parameter-slot signature)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The optimizer that produced (or would produce) the plan.
    pub mode: OptimizerMode,
    /// Isomorphism-invariant pattern fingerprint.
    pub canon_fingerprint: u64,
    /// The template descriptor (see [`ParamQuery::shape`]).
    pub shape: String,
    /// Parameter-slot signature.
    pub slot_sig: String,
}

impl PlanKey {
    /// A stable 64-bit hash (shard selection).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(self.canon_fingerprint);
        h.write(self.shape.as_bytes());
        h.write(self.slot_sig.as_bytes());
        combine(hash_u64(self.mode as u64), h.finish())
    }
}

/// The one-character signature tag of a slot value (`i`/`f`/`s`/`b`/`d`/`n`).
pub fn slot_tag(v: &Value) -> char {
    match v {
        Value::Null => 'n',
        Value::Int(_) => 'i',
        Value::Float(_) => 'f',
        Value::Str(_) => 's',
        Value::Bool(_) => 'b',
        Value::Date(_) => 'd',
    }
}

/// The slot signature of a binding vector (one tag per value, in order).
pub fn binding_signature(values: &[Value]) -> String {
    values.iter().map(slot_tag).collect()
}

/// Validate a fresh binding vector against a template's slot signature:
/// the arity and every per-slot type tag must match. This is the only
/// front-end check a prepared statement performs — no parse, no
/// re-parameterization.
pub fn validate_bindings(slot_sig: &str, bindings: &[Value]) -> Result<()> {
    if slot_sig.len() != bindings.len() {
        return Err(RelGoError::query(format!(
            "binding arity mismatch: template has {} slot(s), got {} binding(s)",
            slot_sig.len(),
            bindings.len()
        )));
    }
    for (i, (expected, v)) in slot_sig.chars().zip(bindings).enumerate() {
        let got = slot_tag(v);
        if got != expected {
            return Err(RelGoError::query(format!(
                "binding type mismatch at slot {i}: template expects '{expected}', got '{got}' ({v})"
            )));
        }
    }
    Ok(())
}

/// Render a structural string into the shape with Rust-style escaping —
/// free-form text must not be able to forge the descriptor's delimiters
/// (two distinct templates rendering one shape would alias cache entries).
fn render_str(out: &mut String, s: &str) {
    let _ = write!(out, "{s:?}");
}

/// Render a structural literal type-injectively: `Value`'s `Display` prints
/// `Int(1)` and `Float(1.0)` identically, so each variant gets its tag
/// prefix — otherwise two differently-typed templates could share a shape.
fn render_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => render_str(out, s),
        other => {
            let _ = write!(out, "{}{}", slot_tag(other), other);
        }
    }
}

/// Is `e` a literal? (Slot detection: `Cmp` with exactly one literal side.)
fn is_lit(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Lit(_))
}

/// Render `expr` into `out` with parameter-position literals lifted into
/// `params` and printed as `?N`.
fn render_template(expr: &ScalarExpr, out: &mut String, params: &mut Vec<Value>) {
    match expr {
        ScalarExpr::Col(i) => {
            let _ = write!(out, "${i}");
        }
        ScalarExpr::Lit(v) => render_value(out, v),
        ScalarExpr::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
            (l, ScalarExpr::Lit(v)) if !is_lit(l) => {
                render_template(l, out, params);
                let _ = write!(out, " {op} ?{}", params.len());
                params.push(v.clone());
            }
            (ScalarExpr::Lit(v), r) if !is_lit(r) => {
                let _ = write!(out, "?{} {op} ", params.len());
                params.push(v.clone());
                render_template(r, out, params);
            }
            // Two literals or two expressions: structural.
            (l, r) => {
                render_template(l, out, params);
                let _ = write!(out, " {op} ");
                render_template(r, out, params);
            }
        },
        ScalarExpr::And(l, r) => {
            out.push('(');
            render_template(l, out, params);
            out.push_str(" AND ");
            render_template(r, out, params);
            out.push(')');
        }
        ScalarExpr::Or(l, r) => {
            out.push('(');
            render_template(l, out, params);
            out.push_str(" OR ");
            render_template(r, out, params);
            out.push(')');
        }
        ScalarExpr::Not(e) => {
            out.push_str("NOT ");
            render_template(e, out, params);
        }
        ScalarExpr::StartsWith(e, p) => {
            render_template(e, out, params);
            out.push_str(" STARTS WITH ");
            render_str(out, p);
        }
        ScalarExpr::Contains(e, p) => {
            render_template(e, out, params);
            out.push_str(" CONTAINS ");
            render_str(out, p);
        }
        ScalarExpr::IsNull(e) => {
            render_template(e, out, params);
            out.push_str(" IS NULL");
        }
        ScalarExpr::InList(e, list) => {
            render_template(e, out, params);
            out.push_str(" IN (");
            for (i, v) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_value(out, v);
            }
            out.push(')');
        }
    }
}

/// Element indices in canonical order, given `perm[old] = canonical
/// position`: the slot order of pattern predicates.
fn canonical_order(perm: &[usize]) -> impl Iterator<Item = usize> {
    let mut order = vec![0; perm.len()];
    for (old, &canon) in perm.iter().enumerate() {
        order[canon] = old;
    }
    order.into_iter()
}

/// Compute the parameterized view of `query`.
///
/// Slot order is deterministic: the relational selection first (expression
/// tree order), then pattern vertex predicates in canonical vertex order,
/// then pattern edge predicates in canonical edge order — so two isomorphic
/// instances of one template produce positionally aligned bindings.
pub fn parameterize(query: &SpjmQuery) -> ParamQuery {
    let form = relgo_pattern::canonical_form(&query.pattern);
    let mut shape = String::with_capacity(256);
    let mut params = Vec::new();

    let _ = write!(shape, "sem:{:?};", query.pattern.semantics());

    // COLUMNS in list order, elements renamed canonically. List order is
    // semantic (it fixes the global column numbering), so it stays as-is.
    shape.push_str("cols:");
    for c in &query.columns {
        match c.element {
            PatternElemRef::Vertex(v) => {
                let _ = write!(shape, "v{}", form.vertex_perm[v]);
            }
            PatternElemRef::Edge(e) => {
                let _ = write!(shape, "e{}", form.edge_perm[e]);
            }
        }
        match c.attr {
            AttrRef::Id => shape.push_str(".id"),
            AttrRef::Column(i) => {
                let _ = write!(shape, ".{i}");
            }
        }
        shape.push_str(" AS ");
        render_str(&mut shape, &c.alias);
        shape.push(';');
    }

    let _ = write!(shape, "tables:{:?};", query.tables);
    let _ = write!(shape, "join:{:?};", query.join_on);

    shape.push_str("sel:");
    if let Some(sel) = &query.selection {
        render_template(sel, &mut shape, &mut params);
    }
    shape.push(';');

    // Pattern predicates in canonical element order.
    shape.push_str("vpred:");
    for (canon, v) in canonical_order(&form.vertex_perm).enumerate() {
        if let Some(p) = &query.pattern.vertex(v).predicate {
            let _ = write!(shape, "v{canon}[");
            render_template(p, &mut shape, &mut params);
            shape.push_str("];");
        }
    }
    shape.push_str("epred:");
    for (canon, e) in canonical_order(&form.edge_perm).enumerate() {
        if let Some(p) = &query.pattern.edge(e).predicate {
            let _ = write!(shape, "e{canon}[");
            render_template(p, &mut shape, &mut params);
            shape.push_str("];");
        }
    }

    let _ = write!(shape, "proj:{:?};", query.projection);
    shape.push_str("agg:");
    for a in &query.aggregates {
        let _ = write!(shape, "{:?}(${});", a.func, a.column);
    }
    let _ = write!(shape, "distinct:{};", query.distinct);
    shape.push_str("order:");
    for k in &query.order_by {
        let _ = write!(
            shape,
            "{}{};",
            k.column,
            if k.descending { "d" } else { "a" }
        );
    }
    let _ = write!(shape, "limit:{:?}", query.limit);

    let slot_sig: String = params.iter().map(slot_tag).collect();
    ParamQuery {
        canon_fingerprint: form.code.fingerprint(),
        shape,
        params,
        slot_sig,
    }
}

/// The literal-substitution map of one rebind, with conflict detection.
struct Bindings {
    pairs: Vec<(Value, Value)>,
    hit: Vec<bool>,
}

impl Bindings {
    fn build(old: &[Value], new: &[Value]) -> Result<Bindings> {
        if old.len() != new.len() {
            return Err(RelGoError::plan(format!(
                "rebind arity mismatch: {} cached slots, {} bindings",
                old.len(),
                new.len()
            )));
        }
        let mut pairs: Vec<(Value, Value)> = Vec::with_capacity(old.len());
        for (o, n) in old.iter().zip(new) {
            match pairs.iter().find(|(po, _)| po == o) {
                Some((_, pn)) if pn == n => {}
                Some((_, pn)) => {
                    return Err(RelGoError::plan(format!(
                        "ambiguous rebind: cached literal {o} maps to both {pn} and {n}"
                    )))
                }
                None => pairs.push((o.clone(), n.clone())),
            }
        }
        let hit = vec![false; pairs.len()];
        Ok(Bindings { pairs, hit })
    }

    fn substitute(&mut self, v: &Value) -> Option<Value> {
        for (i, (o, n)) in self.pairs.iter().enumerate() {
            if o == v {
                self.hit[i] = true;
                return Some(n.clone());
            }
        }
        None
    }

    fn check_complete(&self) -> Result<()> {
        for (i, hit) in self.hit.iter().enumerate() {
            if !hit {
                return Err(RelGoError::plan(format!(
                    "rebind: cached literal {} not found in the plan",
                    self.pairs[i].0
                )));
            }
        }
        Ok(())
    }
}

/// Visit the parameter slots of `expr` in slot order: the literal side of
/// each comparison whose other side is not a literal, in the order
/// [`render_template`] numbers them.
fn for_each_slot(expr: &mut ScalarExpr, f: &mut dyn FnMut(&mut Value)) {
    match expr {
        ScalarExpr::Cmp(_, l, r) => match (l.as_mut(), r.as_mut()) {
            (l, ScalarExpr::Lit(v)) if !is_lit(l) => {
                for_each_slot(l, f);
                f(v);
            }
            (ScalarExpr::Lit(v), r) if !is_lit(r) => {
                f(v);
                for_each_slot(r, f);
            }
            (l, r) => {
                for_each_slot(l, f);
                for_each_slot(r, f);
            }
        },
        ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
            for_each_slot(l, f);
            for_each_slot(r, f);
        }
        ScalarExpr::Not(e)
        | ScalarExpr::StartsWith(e, _)
        | ScalarExpr::Contains(e, _)
        | ScalarExpr::IsNull(e)
        | ScalarExpr::InList(e, _) => for_each_slot(e, f),
        ScalarExpr::Col(_) | ScalarExpr::Lit(_) => {}
    }
}

/// Substitute parameter-position literals of `expr` through `b`.
fn rebind_expr(expr: &mut ScalarExpr, b: &mut Bindings) {
    for_each_slot(expr, &mut |v| {
        if let Some(n) = b.substitute(v) {
            *v = n;
        }
    });
}

/// Substitute fresh literal bindings into a cached plan skeleton.
///
/// `old` are the bindings the plan was optimized with (stored alongside the
/// cache entry), `new` the current instance's. Every predicate site — the
/// plan's pattern constraints, the graph operators inside
/// `SCAN_GRAPH_TABLE`, and the relational operators — is rewritten.
/// Errors (rather than producing a wrong plan) when the substitution is
/// ambiguous or incomplete; callers count a rebind failure and fall back to
/// the optimizer.
pub fn rebind_plan(plan: &PhysicalPlan, old: &[Value], new: &[Value]) -> Result<PhysicalPlan> {
    if old == new {
        return Ok(plan.clone());
    }
    let mut b = Bindings::build(old, new)?;
    let mut plan = plan.clone();
    plan.for_each_predicate_mut(&mut |e| rebind_expr(e, &mut b));
    b.check_complete()?;
    Ok(plan)
}

/// Substitute fresh literal bindings into a *query* (not a plan): the
/// rebind-only entry point prepared statements use when their pinned
/// skeleton is stale (or its by-value rebind ambiguous) and the instance
/// must be re-optimized with the new literals.
///
/// Binding is **positional**, mirroring [`parameterize`]'s slot order —
/// selection slots in expression-tree order, then pattern vertex/edge
/// predicates in canonical element order — so unlike [`rebind_plan`]'s
/// by-value substitution it can never be ambiguous: `new[i]` lands exactly
/// in slot `i`. Errors on arity mismatch.
pub fn bind_query(query: &SpjmQuery, new: &[Value]) -> Result<SpjmQuery> {
    let form = relgo_pattern::canonical_form(&query.pattern);
    let mut q = query.clone();
    let mut slots = 0usize;
    let mut bind = |e: &mut ScalarExpr| {
        for_each_slot(e, &mut |v| {
            if let Some(n) = new.get(slots) {
                *v = n.clone();
            }
            slots += 1;
        })
    };
    if let Some(selection) = &mut q.selection {
        bind(selection);
    }
    for v in canonical_order(&form.vertex_perm) {
        if let Some(p) = q.pattern.vertex_predicate_mut(v) {
            bind(p);
        }
    }
    for e in canonical_order(&form.edge_perm) {
        if let Some(p) = q.pattern.edge_predicate_mut(e) {
            bind(p);
        }
    }
    if slots != new.len() {
        return Err(RelGoError::query(format!(
            "bind_query arity mismatch: template has {slots} slot(s), got {} binding(s)",
            new.len()
        )));
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spjm::SpjmBuilder;
    use relgo_common::LabelId;
    use relgo_pattern::PatternBuilder;
    use relgo_storage::BinaryOp;

    /// A two-vertex likes pattern, optionally built with swapped vertex
    /// insertion order (an isomorphic renaming).
    fn query(person: i64, date: i64, swapped: bool) -> SpjmQuery {
        let mut pb = PatternBuilder::new();
        let (p, m) = if swapped {
            let m = pb.vertex("m", LabelId(1));
            let p = pb.vertex("p", LabelId(0));
            (p, m)
        } else {
            let p = pb.vertex("p", LabelId(0));
            let m = pb.vertex("m", LabelId(1));
            (p, m)
        };
        pb.edge(p, m, LabelId(0)).unwrap();
        let pattern = pb.build().unwrap();
        let mut b = SpjmBuilder::new(pattern);
        let pid = b.vertex_column(p, 0, "p_id");
        let mdate = b.vertex_column(m, 2, "m_date");
        b.select(ScalarExpr::col_eq(pid, person).and(ScalarExpr::col_cmp(
            mdate,
            BinaryOp::Lt,
            Value::Date(date),
        )));
        b.project(&[mdate]);
        b.build()
    }

    #[test]
    fn literals_become_slots() {
        let pq = parameterize(&query(5, 100, false));
        assert_eq!(pq.params, vec![Value::Int(5), Value::Date(100)]);
        assert_eq!(pq.slot_sig, "id");
        assert!(pq.shape.contains("?0"), "{}", pq.shape);
        assert!(pq.shape.contains("?1"), "{}", pq.shape);
        assert!(!pq.shape.contains("100"), "literal leaked: {}", pq.shape);
    }

    #[test]
    fn instances_share_shape_different_params() {
        let a = parameterize(&query(5, 100, false));
        let b = parameterize(&query(9, 777, false));
        assert_eq!(a.shape, b.shape);
        assert_eq!(a.canon_fingerprint, b.canon_fingerprint);
        assert_eq!(a.slot_sig, b.slot_sig);
        assert_ne!(a.params, b.params);
        assert_eq!(
            a.key(OptimizerMode::RelGo),
            b.key(OptimizerMode::RelGo),
            "same template, same key"
        );
        assert_ne!(
            a.key(OptimizerMode::RelGo),
            a.key(OptimizerMode::DuckDbLike),
            "mode is part of the key"
        );
        let (key, params) = (a.key(OptimizerMode::RelGo), a.params.clone());
        assert_eq!(a.into_key(OptimizerMode::RelGo), (key, params));
    }

    #[test]
    fn renamed_isomorphic_query_shares_fingerprint() {
        let a = parameterize(&query(5, 100, false));
        let b = parameterize(&query(6, 200, true));
        assert_eq!(a.canon_fingerprint, b.canon_fingerprint);
        assert_eq!(a.shape, b.shape, "renaming normalizes away");
    }

    #[test]
    fn structural_literals_stay_in_shape() {
        let mut pb = PatternBuilder::new();
        let p = pb.vertex("p", LabelId(0));
        let m = pb.vertex("m", LabelId(1));
        pb.edge(p, m, LabelId(0)).unwrap();
        let mut b = SpjmBuilder::new(pb.build().unwrap());
        let pid = b.vertex_column(p, 0, "p_id");
        b.select(ScalarExpr::InList(
            Box::new(ScalarExpr::Col(pid)),
            vec![Value::Int(1), Value::Int(2)],
        ));
        let q = b.build();
        let pq = parameterize(&q);
        assert!(pq.params.is_empty(), "IN-list members are structural");
        assert!(pq.shape.contains("IN (i1, i2)"), "{}", pq.shape);
    }

    #[test]
    fn forged_delimiters_cannot_alias_shapes() {
        // A structural string containing the rendered delimiter sequence
        // must not collapse two distinct predicates into one shape.
        let mk = |expr: ScalarExpr| {
            let mut pb = PatternBuilder::new();
            let p = pb.vertex("p", LabelId(0));
            let m = pb.vertex("m", LabelId(1));
            pb.edge(p, m, LabelId(0)).unwrap();
            let mut b = SpjmBuilder::new(pb.build().unwrap());
            let c = b.vertex_column(p, 1, "p_name");
            let _ = c;
            b.select(expr);
            b.build()
        };
        let nested = mk(ScalarExpr::Contains(
            Box::new(ScalarExpr::Contains(
                Box::new(ScalarExpr::Col(0)),
                "a".into(),
            )),
            "b".into(),
        ));
        let forged = mk(ScalarExpr::Contains(
            Box::new(ScalarExpr::Col(0)),
            "a\" CONTAINS \"b".into(),
        ));
        assert_ne!(parameterize(&nested).shape, parameterize(&forged).shape);
    }

    #[test]
    fn rebind_conflicting_duplicates_error() {
        // Two slots share the old value but diverge in the new instance.
        let old = vec![Value::Int(5), Value::Int(5)];
        let new = vec![Value::Int(7), Value::Int(9)];
        assert!(Bindings::build(&old, &new).is_err());
        // Agreeing duplicates are fine.
        let new_ok = vec![Value::Int(7), Value::Int(7)];
        assert!(Bindings::build(&old, &new_ok).is_ok());
    }

    #[test]
    fn validate_bindings_checks_arity_and_tags() {
        assert!(validate_bindings("id", &[Value::Int(1), Value::Date(2)]).is_ok());
        assert!(validate_bindings("id", &[Value::Int(1)]).is_err(), "arity");
        assert!(
            validate_bindings("id", &[Value::Date(2), Value::Int(1)]).is_err(),
            "tag order"
        );
        assert!(validate_bindings("", &[]).is_ok());
        assert_eq!(
            binding_signature(&[Value::str("x"), Value::Bool(true)]),
            "sb"
        );
    }

    #[test]
    fn bind_query_substitutes_and_reparameterizes_identically() {
        let q1 = query(5, 100, false);
        let pq1 = parameterize(&q1);
        let q2 = bind_query(&q1, &[Value::Int(9), Value::Date(777)]).unwrap();
        let pq2 = parameterize(&q2);
        assert_eq!(pq1.shape, pq2.shape, "binding never changes the template");
        assert_eq!(pq2.params, vec![Value::Int(9), Value::Date(777)]);
        // Mirrors building the instance directly.
        let direct = parameterize(&query(9, 777, false));
        assert_eq!(pq2.shape, direct.shape);
        assert_eq!(pq2.params, direct.params);
        // Arity mismatches error.
        assert!(bind_query(&q1, &[Value::Int(9)]).is_err());
        assert!(bind_query(&q1, &[Value::Int(9), Value::Date(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn bind_query_is_positional_never_ambiguous() {
        // Both slots share the value 5 in the source instance; positional
        // binding still lands each new value in its own slot (by-value
        // `rebind_plan` would refuse this).
        let mut pb = PatternBuilder::new();
        let p = pb.vertex("p", LabelId(0));
        let m = pb.vertex("m", LabelId(1));
        pb.edge(p, m, LabelId(0)).unwrap();
        let mut b = SpjmBuilder::new(pb.build().unwrap());
        let pid = b.vertex_column(p, 0, "p_id");
        let mdate = b.vertex_column(m, 2, "m_date");
        b.select(ScalarExpr::col_eq(pid, 5i64).and(ScalarExpr::col_cmp(
            mdate,
            BinaryOp::Gt,
            Value::Int(5),
        )));
        b.project(&[mdate]);
        let q = b.build();
        assert_eq!(
            parameterize(&q).params,
            vec![Value::Int(5), Value::Int(5)],
            "colliding source slots"
        );
        let bound = bind_query(&q, &[Value::Int(7), Value::Int(9)]).unwrap();
        assert_eq!(
            parameterize(&bound).params,
            vec![Value::Int(7), Value::Int(9)]
        );
        // Pattern-predicate slots bind positionally too.
        let pq = parameterize(&q);
        let rebound = bind_query(&bound, &pq.params).unwrap();
        assert_eq!(parameterize(&rebound).params, pq.params, "round trip");
    }

    /// A plan with one distinct slot literal at every predicate site.
    fn plan_with_every_predicate_site(lit: impl Fn(i64) -> ScalarExpr) -> PhysicalPlan {
        use crate::graph_plan::{GraphOp, PlanAnnotation, StarLeg};
        use crate::rel_plan::RelOp;
        use relgo_graph::Direction;
        let ann = PlanAnnotation::default();
        let mut pb = PatternBuilder::new();
        let p = pb.vertex("p", LabelId(0));
        let m = pb.vertex("m", LabelId(1));
        pb.edge(p, m, LabelId(0)).unwrap();
        pb.vertex_predicate(p, lit(0));
        pb.edge_predicate(0, lit(1));
        let expand = GraphOp::Expand {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: Some(lit(2)),
                ann,
            }),
            from: 0,
            edge: 0,
            to: 1,
            dir: Direction::Out,
            emit_edge: true,
            edge_predicate: Some(lit(3)),
            vertex_predicate: Some(lit(4)),
            ann,
        };
        let intersect = GraphOp::ExpandIntersect {
            input: Box::new(GraphOp::ScanEdge {
                e: 0,
                predicate: Some(lit(5)),
                ann,
            }),
            legs: vec![StarLeg {
                from: 0,
                edge: 0,
                dir: Direction::Out,
            }],
            to: 1,
            emit_edges: true,
            vertex_predicate: Some(lit(6)),
            ann,
        };
        let graph = GraphOp::JoinSub {
            left: Box::new(expand),
            right: Box::new(GraphOp::FilterVertex {
                input: Box::new(intersect),
                v: 1,
                predicate: lit(7),
                ann,
            }),
            on_vertices: vec![0, 1],
            on_edges: vec![],
            ann,
        };
        let join = RelOp::HashJoin {
            left: Box::new(RelOp::ScanGraphTable {
                graph,
                columns: vec![],
            }),
            right: Box::new(RelOp::ScanTable {
                table: "T".into(),
                predicate: Some(lit(8)),
            }),
            keys: vec![(0, 0)],
        };
        PhysicalPlan {
            pattern: pb.build().unwrap(),
            root: RelOp::Filter {
                input: Box::new(join),
                predicate: lit(9),
            },
        }
    }

    #[test]
    fn rebind_reaches_every_predicate_site() {
        const SITES: i64 = 10;
        let old: Vec<Value> = (0..SITES).map(|i| Value::Int(1000 + i)).collect();
        let new: Vec<Value> = (0..SITES).map(|i| Value::Int(2000 + i)).collect();
        let plan = plan_with_every_predicate_site(|i| ScalarExpr::col_eq(0, 1000 + i));
        let rebound = rebind_plan(&plan, &old, &new).unwrap();
        let rendered = format!("{rebound:?}");
        for (o, n) in old.iter().zip(&new) {
            assert!(!rendered.contains(&format!("{o:?}")), "{o} survived");
            assert!(rendered.contains(&format!("{n:?}")), "{n} missing");
        }
        // Literal for literal, the rebound plan is the one built fresh.
        let fresh = plan_with_every_predicate_site(|i| ScalarExpr::col_eq(0, 2000 + i));
        assert_eq!(rendered, format!("{fresh:?}"));
    }

    #[test]
    fn rebind_expr_substitutes_param_positions_only() {
        let e = ScalarExpr::col_eq(0, 5i64).and(ScalarExpr::InList(
            Box::new(ScalarExpr::Col(1)),
            vec![Value::Int(5)],
        ));
        let mut b = Bindings::build(&[Value::Int(5)], &[Value::Int(42)]).unwrap();
        let mut rebound = e.clone();
        rebind_expr(&mut rebound, &mut b);
        let s = rebound.to_string();
        assert!(s.contains("$0 = 42"), "{s}");
        assert!(s.contains("IN (5)"), "IN-list untouched: {s}");
        assert!(b.check_complete().is_ok());
    }
}
