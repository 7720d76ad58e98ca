//! Static analysis of denial-constraint programs.
//!
//! Classic dependency theory says that satisfiability and implication are
//! decidable for exactly the comparison fragment our DC AST lives in, so a
//! lot can be learned about a constraint program before the first row is
//! scanned. [`analyze`] runs four passes over a parsed program and returns an
//! [`Analysis`] of structured [`Diagnostic`]s plus per-constraint verdicts
//! and a scan-cost plan report:
//!
//! 1. **Schema typecheck** — unknown attributes (`TREX-E001`), comparisons of
//!    a column with a constant of an incomparable type class (`TREX-E002`),
//!    and comparisons between incomparable columns (`TREX-E003`). Under SQL
//!    null semantics a cross-class comparison is simply *false*, so these
//!    predicates can never hold — almost certainly a typo.
//! 2. **Per-DC satisfiability** — [`statically_unviolable`] proves a DC's
//!    predicate conjunction unsatisfiable (`TREX-W101`): constant predicates
//!    that are false, reflexive predicates like `t1.A < t1.A`, contradictory
//!    predicate pairs over the same operands (`t1.A = t2.A & t1.A != t2.A`),
//!    and empty constant intervals (`t1.x < 5 & t1.x > 9`). Tautological
//!    constant predicates are flagged too (`TREX-W102`).
//! 3. **Pairwise subsumption** — constraint *D* is redundant when every
//!    predicate of some *C* is implied by a predicate of *D* (up to the
//!    `t1↔t2` renaming and operator weakening, e.g. `=` implies `<=`): then
//!    every *D*-violation is already a *C*-violation (`TREX-W103`).
//! 4. **Plan report** — per-DC scan-cost estimates from
//!    [`trex_table::EncodedTable::distinct_counts`] (equality-partition
//!    fan-out), ranking constraints by expected work.
//!
//! # Soundness
//!
//! The unviolability verdict is what the violation scan's dead-DC skipping
//! rests on, so it is deliberately conservative: it only uses
//! *data-independent* reasoning that stays valid under the exact null
//! semantics of [`CmpOp::eval`] (plain nulls compare false under every
//! operator; labeled nulls equal only their own label). The dense-domain assumption (`x < 5 & x > 4` is *satisfiable*
//! over ints) errs in the feasible direction — the analyzer may miss an
//! unsatisfiable DC but never claims a satisfiable one unviolable. Type
//! mismatches (`TREX-E002`/`E003`) are diagnostics only and are *not* used
//! for skipping, since a table's dynamic cell contents can disagree with its
//! declared schema.
//!
//! Subsumption is advisory (warn-only): dropping a subsumed DC would drop
//! the witnesses carrying its own name, and the `=`⇒`<=` weakening has a
//! labeled-null edge (two cells with the same null label are `=` but not
//! `<=`). The program scan ([`crate::parallel::find_all_violations_par`])
//! therefore skips only [`statically_unviolable`] DCs, whose witness lists
//! are provably empty — output stays byte-identical.

use crate::ast::{CmpOp, DenialConstraint, Operand, Predicate, TupleVar};
use crate::diagnostics::{codes, json_str, Diagnostic, Severity};
use std::cmp::Ordering;
use trex_table::{DType, Schema, Table, Value};

// ---------------------------------------------------------------------------
// Relation-set model
// ---------------------------------------------------------------------------

/// Bitmask over the three orderings a comparable pair can be in.
const REL_L: u8 = 1;
const REL_E: u8 = 2;
const REL_G: u8 = 4;

/// The set of orderings under which `op` holds (for a comparable pair).
/// Contradiction detection intersects these: an empty intersection means no
/// ordering satisfies both operators, and the null cases (where `sql_cmp` is
/// `None`) can never satisfy both either — checked case by case against
/// `sql_eq`/`sql_ne`, whose only extra-ordering truths (same-label `=`,
/// cross-label `!=`) never overlap between operators with disjoint masks.
fn rel_mask(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => REL_E,
        CmpOp::Neq => REL_L | REL_G,
        CmpOp::Lt => REL_L,
        CmpOp::Leq => REL_L | REL_E,
        CmpOp::Gt => REL_G,
        CmpOp::Geq => REL_G | REL_E,
    }
}

/// Comparability classes of [`DType`]s: `sql_cmp` orders within a class and
/// returns `None` across classes (ints and floats share the numeric class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypeClass {
    Num,
    Text,
    Boolean,
}

impl TypeClass {
    fn of(dt: DType) -> TypeClass {
        match dt {
            DType::Int | DType::Float => TypeClass::Num,
            DType::Str => TypeClass::Text,
            DType::Bool => TypeClass::Boolean,
        }
    }

    fn label(self) -> &'static str {
        match self {
            TypeClass::Num => "numeric",
            TypeClass::Text => "text",
            TypeClass::Boolean => "boolean",
        }
    }
}

// ---------------------------------------------------------------------------
// Normalized predicate form
// ---------------------------------------------------------------------------

/// An operand in canonical form, borrowed from its predicate: attribute
/// references by `(var, name)`, constants by value. Ordered so every
/// unordered operand pair has one canonical orientation (attributes sort
/// before constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NormOperand<'a> {
    Attr(u8, &'a str),
    Const(&'a Value),
}

fn norm_operand(o: &Operand) -> NormOperand<'_> {
    match o {
        Operand::Attr { var, name, .. } => NormOperand::Attr(
            match var {
                TupleVar::T1 => 0,
                TupleVar::T2 => 1,
            },
            name,
        ),
        Operand::Const(v) => NormOperand::Const(v),
    }
}

/// A predicate in canonical orientation: operands sorted, operator flipped to
/// match. `t2.A > t1.A` and `t1.A < t2.A` normalize identically.
fn normalize(p: &Predicate) -> (NormOperand<'_>, CmpOp, NormOperand<'_>) {
    let l = norm_operand(&p.left);
    let r = norm_operand(&p.right);
    if l <= r {
        (l, p.op, r)
    } else {
        (r, p.op.flipped(), l)
    }
}

/// The predicate with `t1` and `t2` exchanged (the σ renaming used by the
/// subsumption pass — a binary DC is symmetric in its tuple variables over
/// the set of *unordered* row pairs).
fn swap_vars(p: &Predicate) -> Predicate {
    let swap = |o: &Operand| match o {
        Operand::Attr { var, name, .. } => Operand::attr(
            match var {
                TupleVar::T1 => TupleVar::T2,
                TupleVar::T2 => TupleVar::T1,
            },
            name.clone(),
        ),
        Operand::Const(v) => Operand::Const(v.clone()),
    };
    Predicate::new(swap(&p.left), p.op, swap(&p.right))
}

// ---------------------------------------------------------------------------
// Satisfiability
// ---------------------------------------------------------------------------

/// Is `x op1 c1 ∧ x op2 c2` satisfiable for some value `x`, given concrete
/// constants? Conservative under the dense-domain assumption: `false` is
/// only returned when no `x` can exist under the exact semantics of
/// [`CmpOp::eval`].
fn const_pair_feasible(op1: CmpOp, c1: &Value, op2: CmpOp, c2: &Value) -> bool {
    use CmpOp::*;
    let is_upper = |op: CmpOp| matches!(op, Lt | Leq);
    match (op1, op2) {
        // Dense domains: something differs from any two constants.
        (Neq, Neq) => true,
        // x = c1 pins x; substitute it into the other predicate.
        (Eq, _) => op2.eval(c1, c2),
        (_, Eq) => op1.eval(c2, c1),
        // Ordering + ≠: x must live in the ordered constant's class, and
        // `sql_ne` between concrete values of different classes is false —
        // so cross-class pairs are unsatisfiable, same-class pairs dense.
        (Neq, _) | (_, Neq) => c1.sql_cmp(c2).is_some(),
        // Two orderings: x is comparable to both constants, so the
        // constants are comparable to each other.
        _ => {
            let d = match c1.sql_cmp(c2) {
                None => return false,
                Some(d) => d,
            };
            match (is_upper(op1), is_upper(op2)) {
                // Same direction: one bound dominates, always satisfiable.
                (true, true) | (false, false) => true,
                // x below c1, x above c2: needs c2 < c1 (or equal with both
                // bounds inclusive).
                (true, false) => {
                    d == Ordering::Greater || (d == Ordering::Equal && op1 == Leq && op2 == Geq)
                }
                (false, true) => {
                    d == Ordering::Less || (d == Ordering::Equal && op1 == Geq && op2 == Leq)
                }
            }
        }
    }
}

/// `p` as `var.attr op const`, when it compares an attribute with a
/// concrete constant. Plain nulls are caught by pass 1 of
/// [`statically_unviolable`]; labeled-null constants have bespoke equality
/// and get no interval reasoning.
fn attr_op_const(p: &Predicate) -> Option<(TupleVar, &str, CmpOp, &Value)> {
    let (var, name, op, c) = match (&p.left, &p.right) {
        (Operand::Attr { var, name, .. }, Operand::Const(c)) => (*var, name, p.op, c),
        (Operand::Const(c), Operand::Attr { var, name, .. }) => (*var, name, p.op.flipped(), c),
        _ => return None,
    };
    c.is_concrete().then_some((var, name.as_str(), op, c))
}

/// Proof that `dc` can never be violated on any table, or `None`.
///
/// Only data-independent facts are used (see the module docs on soundness),
/// so a `Some` verdict licenses skipping the DC's scan entirely: its witness
/// list is empty on every input. The returned string is the human-readable
/// reason, quoting the offending predicate(s).
pub fn statically_unviolable(dc: &DenialConstraint) -> Option<String> {
    // Pass 1: single predicates that never hold. A false predicate anywhere
    // in the conjunction makes the DC unviolable.
    for p in &dc.predicates {
        match (&p.left, &p.right) {
            // Constant comparisons evaluate now, with the runtime semantics.
            (Operand::Const(a), Operand::Const(b)) if !p.op.eval(a, b) => {
                return Some(format!("constant predicate `{p}` never holds"));
            }
            // Any comparison against a plain null constant is false.
            (Operand::Const(Value::Null), _) | (_, Operand::Const(Value::Null)) => {
                return Some(format!(
                    "predicate `{p}` compares against null and never holds"
                ));
            }
            // Reflexive self-comparisons: x ≠ x, x < x, x > x never hold
            // (for nulls every comparison is false; for values sql_cmp is
            // reflexively Equal).
            (
                Operand::Attr {
                    var: v1, name: n1, ..
                },
                Operand::Attr {
                    var: v2, name: n2, ..
                },
            ) if v1 == v2 && n1 == n2 => {
                if matches!(p.op, CmpOp::Neq | CmpOp::Lt | CmpOp::Gt) {
                    return Some(format!("reflexive predicate `{p}` never holds"));
                }
            }
            _ => {}
        }
    }

    // Pass 2: contradictory predicate pairs over the same operand pair.
    // Intersect the ordering sets of every operator applied to one
    // normalized (lhs, rhs); an empty intersection is unsatisfiable even
    // under labeled nulls (same-label `=` and cross-label `!=` never rescue
    // a pair of operators with disjoint masks). Every program scan runs
    // this check, so it rescans the few earlier predicates instead of
    // building a map, and allocates only to report a finding.
    for (j, p) in dc.predicates.iter().enumerate() {
        let (l, op, r) = normalize(p);
        let mut mask = rel_mask(op);
        let mut last = None;
        for q in &dc.predicates[..j] {
            let (ql, qop, qr) = normalize(q);
            if (ql, qr) == (l, r) {
                mask &= rel_mask(qop);
                last = Some(q);
            }
        }
        if let (0, Some(q)) = (mask, last) {
            return Some(format!(
                "contradictory predicates `{q}` and `{p}` cannot both hold"
            ));
        }
    }

    // Pass 3: empty constant intervals per (var, attr). Normalize each
    // attribute-vs-constant predicate to `attr op const` and test every
    // pair for joint satisfiability.
    for (j, p) in dc.predicates.iter().enumerate() {
        let Some((var, name, op, c)) = attr_op_const(p) else {
            continue;
        };
        for p0 in &dc.predicates[..j] {
            let Some((var0, name0, op0, c0)) = attr_op_const(p0) else {
                continue;
            };
            if (var0, name0) == (var, name) && !const_pair_feasible(op0, c0, op, c) {
                return Some(format!(
                    "predicates `{p0}` and `{p}` leave no possible value for {var}.{name}"
                ));
            }
        }
    }

    None
}

// ---------------------------------------------------------------------------
// Subsumption
// ---------------------------------------------------------------------------

/// Does predicate `q` imply predicate `p`? True when both compare the same
/// normalized operand pair and `q`'s ordering set is a subset of `p`'s
/// (`=` implies `<=`, `<` implies `!=`, every predicate implies itself).
fn pred_implies(q: &Predicate, p: &Predicate) -> bool {
    let (ql, qop, qr) = normalize(q);
    let (pl, pop, pr) = normalize(p);
    ql == pl && qr == pr && rel_mask(qop) & !rel_mask(pop) == 0
}

/// Does `c` make `d` redundant? True when, under the identity or the
/// `t1↔t2` renaming of `c`, every predicate of `c` is implied by some
/// predicate of `d` — then `conj(d) ⇒ conj(c)` pointwise, so every
/// violation pair of `d` also violates `c`. Restricted to DCs of the same
/// arity (row-pair vs row-local scans have different binding semantics).
fn makes_redundant(c: &DenialConstraint, d: &DenialConstraint) -> bool {
    if c.predicates.is_empty() || c.is_binary() != d.is_binary() {
        return false;
    }
    let id: Vec<Predicate> = c.predicates.clone();
    let swapped: Vec<Predicate> = c.predicates.iter().map(swap_vars).collect();
    [id, swapped].iter().any(|sigma_c| {
        sigma_c
            .iter()
            .all(|p| d.predicates.iter().any(|q| pred_implies(q, p)))
    })
}

// ---------------------------------------------------------------------------
// Analysis result types
// ---------------------------------------------------------------------------

/// Per-constraint verdict of the satisfiability and subsumption passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DcVerdict {
    /// Constraint name.
    pub name: String,
    /// `Some(reason)` iff the DC is statically unviolable (prunable).
    pub unviolable: Option<String>,
    /// `Some(name)` of a constraint that makes this one redundant.
    pub subsumed_by: Option<String>,
}

/// How a DC's violation scan is expected to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Hash-partition on the DC's `t1.A = t2.A` join keys.
    EqualityJoin,
    /// All ordered row pairs (no equality join key).
    NestedLoop,
    /// Row-local scan of a single-tuple DC.
    UnaryScan,
    /// Statically unviolable — the scan can be skipped outright.
    Skipped,
}

impl PlanStrategy {
    /// Stable lowercase label for text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            PlanStrategy::EqualityJoin => "equality-join",
            PlanStrategy::NestedLoop => "nested-loop",
            PlanStrategy::UnaryScan => "unary-scan",
            PlanStrategy::Skipped => "skipped",
        }
    }
}

/// Estimated scan cost of one DC against one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DcPlan {
    /// Constraint name.
    pub name: String,
    /// Expected scan shape.
    pub strategy: PlanStrategy,
    /// Equality join keys (for [`PlanStrategy::EqualityJoin`]).
    pub join_attrs: Vec<String>,
    /// Estimated candidate bindings: `n` for unary scans, `n·(n−1)` for
    /// nested loops, `n²/min(Πdᵢ, n)` for an equality join over keys with
    /// distinct counts `dᵢ` (the partition fan-out bound), `0` when skipped.
    pub estimated_pairs: u64,
}

impl DcPlan {
    /// The plan as one JSON object.
    pub fn to_json(&self) -> String {
        let joins = self
            .join_attrs
            .iter()
            .map(|a| json_str(a))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{ \"name\": {}, \"strategy\": {}, \"join_attrs\": [{}], \"estimated_pairs\": {} }}",
            json_str(&self.name),
            json_str(self.strategy.label()),
            joins,
            self.estimated_pairs
        )
    }
}

/// Everything the analyzer learned about a DC program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    /// All findings, in deterministic order (constraint index, predicate
    /// index, code).
    pub diagnostics: Vec<Diagnostic>,
    /// One verdict per input constraint, in input order.
    pub verdicts: Vec<DcVerdict>,
    /// Scan-cost plan report, most expensive first. Empty unless the
    /// analysis was given a table ([`analyze_with_table`]).
    pub plans: Vec<DcPlan>,
}

impl Analysis {
    /// `true` iff any diagnostic is an error (lint exit code 1).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// `(errors, warnings, infos)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warn => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// Table-derived facts that sharpen the schema passes.
struct TableFacts {
    num_rows: usize,
    /// Distinct value count per column (dictionary size), schema order.
    distinct: Vec<usize>,
    /// Per column: is it a `Str` column whose concrete values all parse as
    /// numbers (at least one)? Ordering predicates on such columns compare
    /// lexicographically, which is rarely what the author meant.
    numeric_text: Vec<bool>,
}

/// Analyze a DC program against an optional schema. Without a schema the
/// typecheck pass is skipped; the satisfiability and subsumption passes are
/// purely syntactic and always run. Plans are only produced by
/// [`analyze_with_table`].
pub fn analyze(dcs: &[DenialConstraint], schema: Option<&Schema>) -> Analysis {
    analyze_impl(dcs, schema, None)
}

/// The program's error-severity findings against `schema`: unknown
/// attributes and comparisons that can never hold at the columns' types
/// (`TREX-E001`–`E003`), in report order. `Ok` when there are none.
///
/// Every boundary that takes user DCs runs this before a session sees
/// them (the `trex` subcommands' input loader, `POST /constraint`): a
/// predicate that can never hold makes its DC unviolable, so a scan or a
/// repair would ignore it without a word. `trex lint` reports the same
/// findings, with the warnings beside them.
pub fn typecheck(dcs: &[DenialConstraint], schema: &Schema) -> Result<(), Vec<Diagnostic>> {
    let errors: Vec<Diagnostic> = analyze(dcs, Some(schema)).errors().cloned().collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Analyze a DC program against a concrete table: everything [`analyze`]
/// does, plus type inference over the table's contents (`TREX-W104`,
/// sharper `TREX-E002` hints) and the per-DC scan-cost plan report.
pub fn analyze_with_table(dcs: &[DenialConstraint], table: &Table) -> Analysis {
    let enc = table.encoded();
    let schema = table.schema();
    let numeric_text = (0..schema.arity())
        .map(|i| {
            let attr = trex_table::AttrId(i);
            if schema.attr(attr).dtype != DType::Str {
                return false;
            }
            let mut any = false;
            for v in table.column(attr) {
                match v {
                    Value::Str(s) => {
                        if s.trim().parse::<f64>().is_err() {
                            return false;
                        }
                        any = true;
                    }
                    v if !v.is_concrete() => {}
                    _ => return false,
                }
            }
            any
        })
        .collect();
    let facts = TableFacts {
        num_rows: table.num_rows(),
        distinct: enc.distinct_counts(),
        numeric_text,
    };
    analyze_impl(dcs, Some(schema), Some(facts))
}

fn analyze_impl(
    dcs: &[DenialConstraint],
    schema: Option<&Schema>,
    facts: Option<TableFacts>,
) -> Analysis {
    let mut out = Vec::new();
    let mut verdicts = Vec::with_capacity(dcs.len());

    for (i, dc) in dcs.iter().enumerate() {
        let mk = |code, severity, predicate: Option<usize>, message: String, hint| {
            let span = match predicate {
                Some(j) => Some(dc.predicates[j].span),
                None => Some(dc.span),
            }
            .filter(|s| !s.is_empty());
            Diagnostic {
                code,
                severity,
                constraint: dc.name.clone(),
                constraint_index: i,
                predicate,
                span,
                message,
                hint,
            }
        };

        // Pass 1: schema typecheck.
        if let Some(schema) = schema {
            for (j, p) in dc.predicates.iter().enumerate() {
                typecheck_predicate(p, schema, facts.as_ref(), |code, sev, msg, hint| {
                    out.push(mk(code, sev, Some(j), msg, hint));
                });
            }
        }

        // Pass 2: satisfiability, tautologies, degenerate forms.
        let unviolable = statically_unviolable(dc);
        if let Some(reason) = &unviolable {
            out.push(mk(
                codes::UNVIOLABLE,
                Severity::Warn,
                None,
                format!("constraint can never be violated: {reason}"),
                Some("its scan always returns no witnesses; remove or fix the constraint".into()),
            ));
        }
        for (j, p) in dc.predicates.iter().enumerate() {
            if let (Operand::Const(a), Operand::Const(b)) = (&p.left, &p.right) {
                if p.op.eval(a, b) {
                    out.push(mk(
                        codes::TAUTOLOGY,
                        Severity::Warn,
                        Some(j),
                        format!("constant predicate `{p}` always holds"),
                        Some("it adds nothing to the conjunction; remove it".into()),
                    ));
                }
            }
            if let (
                Operand::Attr {
                    var: v1, name: n1, ..
                },
                Operand::Attr {
                    var: v2, name: n2, ..
                },
            ) = (&p.left, &p.right)
            {
                if v1 == v2 && n1 == n2 && matches!(p.op, CmpOp::Eq | CmpOp::Leq | CmpOp::Geq) {
                    out.push(mk(
                        codes::REFLEXIVE,
                        Severity::Info,
                        Some(j),
                        format!("reflexive predicate `{p}` only acts as a not-null guard"),
                        Some(format!("it holds exactly when {v1}.{n1} is non-null")),
                    ));
                }
            }
        }
        if dc.is_binary() && !mentions_t1(dc) {
            out.push(mk(
                codes::DEGENERATE_VARS,
                Severity::Info,
                None,
                "row-pair constraint mentions only t2; it scans all ordered row pairs but reads \
                 a single row"
                    .into(),
                Some("rewrite with t1 if the rule is row-local".into()),
            ));
        }

        verdicts.push(DcVerdict {
            name: dc.name.clone(),
            unviolable,
            subsumed_by: None,
        });
    }

    // Pass 3: pairwise subsumption. A DC already proven unviolable is not
    // re-flagged (its scan is empty regardless), and never serves as the
    // reported subsumer.
    for j in 0..dcs.len() {
        if verdicts[j].unviolable.is_some() {
            continue;
        }
        for i in 0..dcs.len() {
            if i == j || verdicts[i].unviolable.is_some() {
                continue;
            }
            if !makes_redundant(&dcs[i], &dcs[j]) {
                continue;
            }
            let mutual = makes_redundant(&dcs[j], &dcs[i]);
            if mutual && i > j {
                continue; // duplicates: flag only the later one
            }
            let (verb, hint) = if mutual {
                ("duplicates", "remove one of the two")
            } else {
                (
                    "is subsumed by",
                    "every violation it finds is already found there; remove or strengthen it",
                )
            };
            out.push(Diagnostic {
                code: codes::SUBSUMED,
                severity: Severity::Warn,
                constraint: dcs[j].name.clone(),
                constraint_index: j,
                predicate: None,
                span: Some(dcs[j].span).filter(|s| !s.is_empty()),
                message: format!("constraint {verb} `{}`", dcs[i].name),
                hint: Some(hint.into()),
            });
            verdicts[j].subsumed_by = Some(dcs[i].name.clone());
            break;
        }
    }

    // Pass 4: plan report (table required).
    let plans = match (&facts, schema) {
        (Some(facts), Some(schema)) => plan_report(dcs, &verdicts, schema, facts),
        _ => Vec::new(),
    };

    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out.dedup();
    Analysis {
        diagnostics: out,
        verdicts,
        plans,
    }
}

/// Typecheck one predicate against the schema, emitting via `emit`.
fn typecheck_predicate(
    p: &Predicate,
    schema: &Schema,
    facts: Option<&TableFacts>,
    mut emit: impl FnMut(&'static str, Severity, String, Option<String>),
) {
    // Unknown attributes first; a predicate with an unresolved side gets no
    // further type reasoning.
    let mut classes: Vec<Option<(TypeClass, &str)>> = Vec::with_capacity(2);
    for o in [&p.left, &p.right] {
        match o {
            Operand::Attr { name, .. } => match schema.resolve(name) {
                None => {
                    let hint = schema
                        .names()
                        .find(|n| n.eq_ignore_ascii_case(name))
                        .map(|n| format!("did you mean {n:?}?"));
                    emit(
                        codes::UNKNOWN_ATTR,
                        Severity::Error,
                        format!("unknown attribute {name:?}"),
                        hint,
                    );
                    classes.push(None);
                }
                Some(id) => {
                    let attr = schema.attr(id);
                    classes.push(Some((TypeClass::of(attr.dtype), attr.name.as_str())));
                }
            },
            Operand::Const(_) => classes.push(None),
        }
    }

    match (&p.left, &p.right) {
        // Column vs constant.
        (Operand::Attr { .. }, Operand::Const(c)) | (Operand::Const(c), Operand::Attr { .. }) => {
            let attr_class = if matches!(p.left, Operand::Attr { .. }) {
                classes[0]
            } else {
                classes[1]
            };
            let (Some((col_class, col_name)), Some(cdt)) = (attr_class, c.dtype()) else {
                return;
            };
            let const_class = TypeClass::of(cdt);
            if col_class != const_class {
                let numeric_text = facts
                    .zip(schema.resolve(col_name))
                    .map(|(f, id)| f.numeric_text[id.index()])
                    .unwrap_or(false);
                let hint = if numeric_text && const_class == TypeClass::Num {
                    Some(format!(
                        "{col_name} is a text column whose values look numeric (a CSV column \
                         loads as text unless every value is a plain integer); quote the \
                         constant or retype the column"
                    ))
                } else {
                    Some(format!(
                        "compare {col_name} against a {} constant",
                        col_class.label()
                    ))
                };
                emit(
                    codes::TYPE_MISMATCH,
                    Severity::Error,
                    format!(
                        "{} column {col_name} compared with {} constant `{c}`: the predicate \
                         never holds",
                        col_class.label(),
                        const_class.label()
                    ),
                    hint,
                );
            }
        }
        // Column vs column.
        (Operand::Attr { .. }, Operand::Attr { .. }) => {
            if let (Some((c1, n1)), Some((c2, n2))) = (classes[0], classes[1]) {
                if c1 != c2 {
                    emit(
                        codes::INCOMPARABLE_COLUMNS,
                        Severity::Error,
                        format!(
                            "comparison between {} column {n1} and {} column {n2}: the \
                             predicate never holds",
                            c1.label(),
                            c2.label()
                        ),
                        Some("cast one side or compare different columns".into()),
                    );
                }
            }
        }
        _ => {}
    }

    // Ordering over numeric-looking text: lexicographic order disagrees
    // with numeric order ("10" < "9").
    if let Some(facts) = facts {
        if matches!(p.op, CmpOp::Lt | CmpOp::Leq | CmpOp::Gt | CmpOp::Geq) {
            for cls in classes.iter().flatten() {
                let (TypeClass::Text, name) = *cls else {
                    continue;
                };
                if let Some(id) = schema.resolve(name) {
                    if facts.numeric_text[id.index()] {
                        emit(
                            codes::TEXT_ORDER,
                            Severity::Warn,
                            format!(
                                "order comparison on text column {name} whose values all look \
                                 numeric: \"10\" sorts before \"9\""
                            ),
                            Some(format!("retype {name} as a numeric column")),
                        );
                    }
                }
            }
        }
    }
}

fn mentions_t1(dc: &DenialConstraint) -> bool {
    dc.predicates.iter().any(|p| {
        [&p.left, &p.right].into_iter().any(|o| {
            matches!(
                o,
                Operand::Attr {
                    var: TupleVar::T1,
                    ..
                }
            )
        })
    })
}

/// The cost model behind [`plan_report`] (and so `trex lint`'s scan plan):
/// one DC's expected scan shape and candidate-binding count against a table
/// of `n` rows with per-column `distinct` counts (schema order).
fn dc_scan_plan(dc: &DenialConstraint, schema: &Schema, n: u64, distinct: &[usize]) -> DcPlan {
    if !dc.is_binary() {
        return DcPlan {
            name: dc.name.clone(),
            strategy: PlanStrategy::UnaryScan,
            join_attrs: Vec::new(),
            estimated_pairs: n,
        };
    }
    let join_attrs: Vec<String> = dc
        .equality_join_attrs()
        .into_iter()
        .map(String::from)
        .collect();
    if join_attrs.is_empty() {
        return DcPlan {
            name: dc.name.clone(),
            strategy: PlanStrategy::NestedLoop,
            join_attrs,
            estimated_pairs: n.saturating_mul(n.saturating_sub(1)),
        };
    }
    // Partition fan-out bound: hashing on keys with Πdᵢ distinct
    // combinations leaves ≈ n²/min(Πdᵢ, n) candidate pairs (never fewer
    // partitions than rows can fill).
    let mut fanout: u64 = 1;
    for a in &join_attrs {
        if let Some(id) = schema.resolve(a) {
            fanout = fanout.saturating_mul(distinct[id.index()] as u64);
        }
    }
    let fanout = fanout.clamp(1, n.max(1));
    DcPlan {
        name: dc.name.clone(),
        strategy: PlanStrategy::EqualityJoin,
        join_attrs,
        estimated_pairs: n.saturating_mul(n) / fanout,
    }
}

/// Build the plan report: one entry per DC, most expensive first.
fn plan_report(
    dcs: &[DenialConstraint],
    verdicts: &[DcVerdict],
    schema: &Schema,
    facts: &TableFacts,
) -> Vec<DcPlan> {
    let n = facts.num_rows as u64;
    let mut plans: Vec<(usize, DcPlan)> = dcs
        .iter()
        .zip(verdicts)
        .enumerate()
        .map(|(i, (dc, v))| {
            let plan = if v.unviolable.is_some() {
                DcPlan {
                    name: dc.name.clone(),
                    strategy: PlanStrategy::Skipped,
                    join_attrs: Vec::new(),
                    estimated_pairs: 0,
                }
            } else {
                dc_scan_plan(dc, schema, n, &facts.distinct)
            };
            (i, plan)
        })
        .collect();
    plans.sort_by(|(ia, a), (ib, b)| {
        b.estimated_pairs
            .cmp(&a.estimated_pairs)
            .then_with(|| ia.cmp(ib))
    });
    plans.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Operand as O;
    use crate::parser::parse_dcs;
    use trex_table::{DType, Schema, Table, Value};

    fn schema() -> Schema {
        Schema::new([
            ("Team", DType::Str),
            ("City", DType::Str),
            ("Year", DType::Int),
            ("Rank", DType::Int),
        ])
    }

    fn codes_of(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    fn attr(var: TupleVar, name: &str) -> O {
        O::attr(var, name)
    }

    /// Reflexive predicate `t1.A op t1.A`.
    fn refl(name: &str, op: CmpOp) -> Predicate {
        Predicate::new(attr(TupleVar::T1, name), op, attr(TupleVar::T1, name))
    }

    #[test]
    fn e001_unknown_attribute_with_case_hint() {
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![Predicate::pair("team", CmpOp::Eq)],
        )];
        let a = analyze(&dcs, Some(&schema()));
        // Both sides of `t1.team = t2.team` are unknown, but the findings
        // are identical and dedup to one.
        assert_eq!(codes_of(&a), vec![codes::UNKNOWN_ATTR]);
        let d = &a.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.constraint, "C1");
        assert_eq!(d.predicate, Some(0));
        assert_eq!(d.message, "unknown attribute \"team\"");
        assert_eq!(d.hint.as_deref(), Some("did you mean \"Team\"?"));
        assert!(a.has_errors());
    }

    #[test]
    fn typecheck_returns_exactly_the_error_findings() {
        let dcs = parse_dcs(
            "Ok: !(t1.Team = t2.Team & t1.Year != t2.Year)\n\
             Dead: !(t1.Year < t2.Year & t1.Year > t2.Year)\n\
             Typo: !(t1.Team = t2.Team & t1.Year = \"abc\")\n\
             Gone: !(t1.Nope = t2.Nope)\n",
        )
        .unwrap();
        assert_eq!(typecheck(&dcs[..2], &schema()), Ok(()), "a warning passes");
        let errors = typecheck(&dcs, &schema()).unwrap_err();
        let found: Vec<(&str, &str)> = errors
            .iter()
            .map(|d| (d.constraint.as_str(), d.code))
            .collect();
        assert_eq!(
            found,
            [
                ("Typo", codes::TYPE_MISMATCH),
                ("Gone", codes::UNKNOWN_ATTR)
            ]
        );
    }

    #[test]
    fn e002_attr_const_class_mismatch() {
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![Predicate::new(
                attr(TupleVar::T1, "Team"),
                CmpOp::Eq,
                O::constant(7i64),
            )],
        )];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::TYPE_MISMATCH]);
        assert!(a.diagnostics[0].message.contains("never holds"));
        // Same-class comparisons are fine, including int consts on int cols.
        let ok = vec![DenialConstraint::new(
            "C2",
            vec![Predicate::new(
                attr(TupleVar::T1, "Year"),
                CmpOp::Lt,
                O::constant(1900i64),
            )],
        )];
        assert!(analyze(&ok, Some(&schema())).diagnostics.is_empty());
    }

    #[test]
    fn e002_float_const_on_int_column_is_comparable() {
        let dcs = vec![DenialConstraint::new(
            "C",
            vec![Predicate::new(
                attr(TupleVar::T1, "Year"),
                CmpOp::Gt,
                O::constant(1950.5f64),
            )],
        )];
        assert!(analyze(&dcs, Some(&schema())).diagnostics.is_empty());
    }

    #[test]
    fn e003_incomparable_columns() {
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![Predicate::new(
                attr(TupleVar::T1, "Team"),
                CmpOp::Eq,
                attr(TupleVar::T2, "Year"),
            )],
        )];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::INCOMPARABLE_COLUMNS]);
        assert_eq!(a.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn w101_contradictory_same_pair_predicates() {
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![
                Predicate::pair("Team", CmpOp::Eq),
                Predicate::pair("Team", CmpOp::Neq),
            ],
        )];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::UNVIOLABLE]);
        assert!(a.verdicts[0].unviolable.is_some());
        assert!(a.diagnostics[0].message.contains("contradictory"));
    }

    #[test]
    fn w101_contradiction_survives_operand_flip() {
        // t1.Year < t2.Year & t2.Year < t1.Year — same pair after
        // normalization, L ∩ G = ∅.
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![
                Predicate::new(
                    attr(TupleVar::T1, "Year"),
                    CmpOp::Lt,
                    attr(TupleVar::T2, "Year"),
                ),
                Predicate::new(
                    attr(TupleVar::T2, "Year"),
                    CmpOp::Lt,
                    attr(TupleVar::T1, "Year"),
                ),
            ],
        )];
        assert!(statically_unviolable(&dcs[0]).is_some());
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::UNVIOLABLE]);
    }

    #[test]
    fn w101_empty_constant_interval() {
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![
                Predicate::new(attr(TupleVar::T1, "Year"), CmpOp::Lt, O::constant(5i64)),
                Predicate::new(attr(TupleVar::T1, "Year"), CmpOp::Gt, O::constant(9i64)),
            ],
        )];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::UNVIOLABLE]);
        assert!(a.diagnostics[0].message.contains("no possible value"));
        // A satisfiable interval stays quiet.
        let ok = vec![DenialConstraint::new(
            "C2",
            vec![
                Predicate::new(attr(TupleVar::T1, "Year"), CmpOp::Gt, O::constant(5i64)),
                Predicate::new(attr(TupleVar::T1, "Year"), CmpOp::Lt, O::constant(9i64)),
            ],
        )];
        assert!(analyze(&ok, Some(&schema())).diagnostics.is_empty());
    }

    #[test]
    fn w101_reflexive_and_constant_false_predicates() {
        let r = DenialConstraint::new("R", vec![refl("Year", CmpOp::Lt)]);
        assert!(statically_unviolable(&r).unwrap().contains("reflexive"));
        let cf = DenialConstraint::new(
            "F",
            vec![Predicate::new(
                O::constant(1i64),
                CmpOp::Eq,
                O::constant(2i64),
            )],
        );
        assert!(statically_unviolable(&cf)
            .unwrap()
            .contains("constant predicate"));
    }

    #[test]
    fn w102_constant_tautology() {
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![
                Predicate::pair("Team", CmpOp::Eq),
                Predicate::new(O::constant(1i64), CmpOp::Lt, O::constant(2i64)),
            ],
        )];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::TAUTOLOGY]);
        assert_eq!(a.diagnostics[0].predicate, Some(1));
        assert_eq!(a.diagnostics[0].severity, Severity::Warn);
    }

    #[test]
    fn w103_subsumption_with_operator_weakening() {
        // D's predicate set implies C's (`=` implies `<=`), so D finds only
        // violations C already finds: D is redundant.
        let dcs = vec![
            DenialConstraint::new("C", vec![Predicate::pair("Year", CmpOp::Leq)]),
            DenialConstraint::new(
                "D",
                vec![
                    Predicate::pair("Year", CmpOp::Eq),
                    Predicate::pair("City", CmpOp::Neq),
                ],
            ),
        ];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::SUBSUMED]);
        assert_eq!(a.diagnostics[0].constraint, "D");
        assert!(a.diagnostics[0].message.contains("subsumed by `C`"));
        assert_eq!(a.verdicts[1].subsumed_by.as_deref(), Some("C"));
        assert_eq!(a.verdicts[0].subsumed_by, None);
    }

    #[test]
    fn w103_duplicate_flags_later_constraint_only() {
        let dcs = vec![
            DenialConstraint::new("A", vec![Predicate::pair("Team", CmpOp::Eq)]),
            DenialConstraint::new("B", vec![Predicate::pair("Team", CmpOp::Eq)]),
        ];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::SUBSUMED]);
        assert_eq!(a.diagnostics[0].constraint, "B");
        assert!(a.diagnostics[0].message.contains("duplicates `A`"));
    }

    #[test]
    fn w103_subsumption_up_to_variable_swap() {
        // t2.Year < t1.Year is t1.Year < t2.Year under t1↔t2; over ordered
        // pairs their violation sets mirror, and every (r1,r2) violating D
        // violates C as (r2,r1)... but pointwise implication is what we
        // claim: swapping C's variables makes its predicate implied by D's.
        let dcs = vec![
            DenialConstraint::new(
                "C",
                vec![Predicate::new(
                    attr(TupleVar::T1, "Year"),
                    CmpOp::Lt,
                    attr(TupleVar::T2, "Year"),
                )],
            ),
            DenialConstraint::new(
                "D",
                vec![
                    Predicate::new(
                        attr(TupleVar::T2, "Year"),
                        CmpOp::Lt,
                        attr(TupleVar::T1, "Year"),
                    ),
                    Predicate::pair("Team", CmpOp::Eq),
                ],
            ),
        ];
        let a = analyze(&dcs, None);
        assert_eq!(codes_of(&a), vec![codes::SUBSUMED]);
        assert_eq!(a.diagnostics[0].constraint, "D");
    }

    #[test]
    fn w103_not_across_arity() {
        // A unary DC never subsumes a binary one (different binding
        // semantics), even with a syntactic predicate match.
        let dcs = vec![
            DenialConstraint::new(
                "U",
                vec![Predicate::new(
                    attr(TupleVar::T1, "Year"),
                    CmpOp::Lt,
                    O::constant(0i64),
                )],
            ),
            DenialConstraint::new(
                "B",
                vec![
                    Predicate::new(attr(TupleVar::T1, "Year"), CmpOp::Lt, O::constant(0i64)),
                    Predicate::pair("Team", CmpOp::Eq),
                ],
            ),
        ];
        assert!(analyze(&dcs, None).diagnostics.is_empty());
    }

    #[test]
    fn w104_order_on_numeric_text_column() {
        let table = Table::from_rows(
            Schema::new([("Code", DType::Str), ("Name", DType::Str)]),
            vec![
                vec![Value::str("10"), Value::str("x")],
                vec![Value::str("9"), Value::str("y")],
            ],
        );
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![Predicate::new(
                attr(TupleVar::T1, "Code"),
                CmpOp::Lt,
                attr(TupleVar::T2, "Code"),
            )],
        )];
        let a = analyze_with_table(&dcs, &table);
        assert_eq!(codes_of(&a), vec![codes::TEXT_ORDER]);
        assert_eq!(a.diagnostics[0].severity, Severity::Warn);
        // Equality on the same column is fine, and ordering on a
        // non-numeric text column is fine.
        let eq = vec![DenialConstraint::new(
            "C2",
            vec![Predicate::pair("Code", CmpOp::Eq)],
        )];
        assert!(analyze_with_table(&eq, &table).diagnostics.is_empty());
        let name_ord = vec![DenialConstraint::new(
            "C3",
            vec![Predicate::pair("Name", CmpOp::Lt)],
        )];
        assert!(analyze_with_table(&name_ord, &table).diagnostics.is_empty());
    }

    #[test]
    fn e002_hint_mentions_csv_typing_for_numeric_text() {
        let table = Table::from_rows(
            Schema::new([("Code", DType::Str)]),
            vec![vec![Value::str("10")], vec![Value::str("9")]],
        );
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![Predicate::new(
                attr(TupleVar::T1, "Code"),
                CmpOp::Eq,
                O::constant(10i64),
            )],
        )];
        let a = analyze_with_table(&dcs, &table);
        assert_eq!(codes_of(&a), vec![codes::TYPE_MISMATCH]);
        assert!(a.diagnostics[0]
            .hint
            .as_deref()
            .unwrap()
            .contains("loads as text unless every value is a plain integer"));
    }

    #[test]
    fn i301_degenerate_t2_only_constraint() {
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![Predicate::new(
                attr(TupleVar::T2, "Year"),
                CmpOp::Lt,
                O::constant(1900i64),
            )],
        )];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::DEGENERATE_VARS]);
        assert_eq!(a.diagnostics[0].severity, Severity::Info);
        assert_eq!(a.diagnostics[0].predicate, None);
    }

    #[test]
    fn i302_reflexive_null_guard() {
        let dcs = vec![DenialConstraint::new(
            "C1",
            vec![
                Predicate::new(
                    attr(TupleVar::T1, "Year"),
                    CmpOp::Eq,
                    attr(TupleVar::T1, "Year"),
                ),
                Predicate::pair("Team", CmpOp::Eq),
            ],
        )];
        let a = analyze(&dcs, Some(&schema()));
        assert_eq!(codes_of(&a), vec![codes::REFLEXIVE]);
        assert_eq!(a.diagnostics[0].severity, Severity::Info);
        assert_eq!(a.diagnostics[0].predicate, Some(0));
    }

    #[test]
    fn diagnostics_carry_source_spans_from_parsed_programs() {
        let src = "C1: !(t1.Nope = t2.Nope)\n";
        let dcs = parse_dcs(src).unwrap();
        let a = analyze(&dcs, Some(&schema()));
        let span = a.diagnostics[0].span.unwrap();
        assert_eq!(&src[span.start..span.end], "t1.Nope = t2.Nope");
    }

    #[test]
    fn diagnostics_are_deterministically_ordered() {
        let dcs = vec![
            DenialConstraint::new(
                "C1",
                vec![
                    Predicate::pair("Nope", CmpOp::Eq),
                    Predicate::new(O::constant(1i64), CmpOp::Eq, O::constant(1i64)),
                ],
            ),
            DenialConstraint::new(
                "C2",
                vec![
                    Predicate::pair("Team", CmpOp::Eq),
                    Predicate::pair("Team", CmpOp::Neq),
                ],
            ),
        ];
        let a = analyze(&dcs, Some(&schema()));
        let keys: Vec<_> = a.diagnostics.iter().map(|d| d.sort_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        for _ in 0..5 {
            assert_eq!(analyze(&dcs, Some(&schema())), a);
        }
        // C1's findings precede C2's; within C1, predicate 0 precedes 1.
        assert_eq!(a.diagnostics[0].constraint, "C1");
        assert!(a.diagnostics.last().unwrap().constraint == "C2");
    }

    #[test]
    fn plan_report_ranks_by_estimated_cost() {
        let table = Table::from_rows(
            Schema::new([("Team", DType::Str), ("Year", DType::Int)]),
            (0..20)
                .map(|i| vec![Value::str(format!("T{}", i % 4)), Value::int(i)])
                .collect(),
        );
        let dcs = vec![
            DenialConstraint::new(
                "Join",
                vec![
                    Predicate::pair("Team", CmpOp::Eq),
                    Predicate::pair("Year", CmpOp::Neq),
                ],
            ),
            DenialConstraint::new("Loop", vec![Predicate::pair("Year", CmpOp::Lt)]),
            DenialConstraint::new(
                "Unary",
                vec![Predicate::new(
                    attr(TupleVar::T1, "Year"),
                    CmpOp::Lt,
                    O::constant(0i64),
                )],
            ),
            DenialConstraint::new(
                "Dead",
                vec![
                    Predicate::pair("Year", CmpOp::Lt),
                    Predicate::pair("Year", CmpOp::Gt),
                ],
            ),
        ];
        let a = analyze_with_table(&dcs, &table);
        let by_name: Vec<(&str, PlanStrategy, u64)> = a
            .plans
            .iter()
            .map(|p| (p.name.as_str(), p.strategy, p.estimated_pairs))
            .collect();
        // Nested loop (20·19=380) > equality join (400/4=100) > unary (20)
        // > skipped (0); report is sorted most expensive first.
        assert_eq!(
            by_name,
            vec![
                ("Loop", PlanStrategy::NestedLoop, 380),
                ("Join", PlanStrategy::EqualityJoin, 100),
                ("Unary", PlanStrategy::UnaryScan, 20),
                ("Dead", PlanStrategy::Skipped, 0),
            ]
        );
        assert_eq!(a.plans[1].join_attrs, vec!["Team".to_string()]);
        let json = a.plans[0].to_json();
        assert!(json.contains("\"strategy\": \"nested-loop\""), "{json}");
    }

    #[test]
    fn const_pair_feasibility_matrix() {
        use CmpOp::*;
        let v5 = Value::int(5);
        let v9 = Value::int(9);
        let s = Value::str("x");
        // Feasible combinations.
        assert!(const_pair_feasible(Gt, &v5, Lt, &v9)); // 5 < x < 9
        assert!(const_pair_feasible(Lt, &v9, Gt, &v5));
        assert!(const_pair_feasible(Leq, &v5, Geq, &v5)); // x = 5
        assert!(const_pair_feasible(Eq, &v5, Leq, &v9));
        assert!(const_pair_feasible(Neq, &v5, Neq, &v5));
        assert!(const_pair_feasible(Lt, &v5, Lt, &v9)); // both upper
        assert!(const_pair_feasible(Neq, &v5, Lt, &v9));
        // Infeasible combinations.
        assert!(!const_pair_feasible(Lt, &v5, Gt, &v9)); // x<5 ∧ x>9
        assert!(!const_pair_feasible(Lt, &v5, Geq, &v5)); // x<5 ∧ x≥5
        assert!(!const_pair_feasible(Eq, &v5, Eq, &v9));
        assert!(!const_pair_feasible(Eq, &v5, Neq, &v5));
        assert!(!const_pair_feasible(Eq, &v5, Gt, &v9));
        // Cross-class: no value compares to both an int and a string.
        assert!(!const_pair_feasible(Lt, &v5, Lt, &s));
        assert!(!const_pair_feasible(Gt, &v5, Neq, &s));
        assert!(!const_pair_feasible(Eq, &v5, Eq, &s));
    }

    #[test]
    fn unviolable_dcs_have_no_witnesses_on_a_real_table() {
        use crate::eval::find_violations;
        let table = Table::from_rows(
            Schema::new([("Year", DType::Int)]),
            (0..8).map(|i| vec![Value::int(i % 3)]).collect(),
        );
        let dead = [
            DenialConstraint::new(
                "D1",
                vec![
                    Predicate::pair("Year", CmpOp::Eq),
                    Predicate::pair("Year", CmpOp::Neq),
                ],
            ),
            DenialConstraint::new("D2", vec![refl("Year", CmpOp::Neq)]),
            DenialConstraint::new(
                "D3",
                vec![
                    Predicate::new(attr(TupleVar::T1, "Year"), CmpOp::Lt, O::constant(1i64)),
                    Predicate::new(attr(TupleVar::T1, "Year"), CmpOp::Gt, O::constant(2i64)),
                ],
            ),
        ];
        for dc in &dead {
            assert!(statically_unviolable(dc).is_some(), "{}", dc.name);
            let resolved = dc.resolved(table.schema()).unwrap();
            assert!(
                find_violations(&resolved, &table).is_empty(),
                "{} produced witnesses",
                dc.name
            );
        }
    }
}
