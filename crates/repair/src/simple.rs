//! The paper's Algorithm 1: a simple rule-based repairer.
//!
//! Algorithm 1 associates each denial constraint with a *fix action*: "if
//! tuple `t` has a contradiction according to `Cᵢ` then attribute `A` will
//! be modified to the most common value" (or the most probable value
//! conditioned on another attribute of `t`). [`RuleRepair`] generalizes this
//! scheme to arbitrary constraint/action lists.
//!
//! # Semantics (pinned down where the paper is informal)
//!
//! * Rules are applied **in constraint order**; each rule sees the table as
//!   left by earlier rules. This is what makes the paper's Example 1.1 work:
//!   "C1 caused the change of *Capital* to *Madrid* first and then C2 caused
//!   the change of the value in the Country cell".
//! * Within one rule application, the violating rows and every new value
//!   are computed from the table as the rule found it, and only then
//!   written (simultaneous application): fixes of one row never feed into
//!   another row's statistics in the same step, keeping the result
//!   independent of row order.
//! * Modes are computed over **all rows** (the row under repair votes too,
//!   matching `argmax_c P[...]` literally), but ties break **away from the
//!   row's current value**: the rule fired because that value is suspicious,
//!   and switching is the only resolution that can remove the violation.
//!   This is what makes single-witness coalitions in the cell game behave
//!   as Example 2.4 expects — the partner's value beats the dirty value
//!   instead of tying with it. Remaining ties break toward the smaller
//!   **dictionary code** of the column (`trex_table::dict`): the smaller
//!   value, with an `Int` before the `Float` it equals numerically (`Int(2)`
//!   before `Float(2.0)`, `Int(2^53 + 1)` before `Float(2^53)`), which keeps
//!   the algorithm a deterministic function of its input.
//! * Nulls never vote and are never used as a repair value; a rule with no
//!   non-null evidence is skipped for that row. A conditional mode counts
//!   the rows whose `given` value SQL-equals the repaired row's.
//! * By default the rule list is applied in **one sequential pass**, exactly
//!   as Algorithm 1 is written; an optional round bound re-applies the pass
//!   until a fixpoint. (Degenerate 50/50 conflicts swap values every round
//!   under the tie-break, so fixpoint mode bounds rounds and stays
//!   deterministic.)
//!
//! # Execution
//!
//! The engine runs on dictionary codes. It keeps one working copy of the
//! table and one of its codes (borrowed from the input's own encoding until
//! the first write) and updates both on every write. Each rule scans the
//! working copy through `trex_constraints::find_violations_par_with`, a
//! mode is a count array over the column's codes, and the change list
//! comes from the cells the engine wrote. A `const` rule that writes a
//! value its column never held leaves the codes stale; they are rebuilt
//! before the next rule.

use crate::traits::{RepairAlgorithm, RepairResult};
use std::collections::HashMap;
use std::sync::Arc;
use trex_constraints::{find_violations_par_with, DenialConstraint};
use trex_table::{CellChange, CellRef, CodeClass, Dictionary, EncodedTable, Schema, Table, Value};

#[cfg(test)]
mod reference;

/// What to do to a violating tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum FixAction {
    /// Set `attr` to the most common value of that column
    /// (`argmax_c P[attr = c]`), with ties breaking away from the repaired
    /// row's current value.
    MostCommon {
        /// Attribute to overwrite.
        attr: String,
    },
    /// Set `attr` to the most probable value given the row's value of
    /// `given` (`argmax_c P[attr = c | given = t[given]]`), with the same
    /// tie-break.
    MostCommonGiven {
        /// Attribute to overwrite.
        attr: String,
        /// Conditioning attribute (read from the violating row).
        given: String,
    },
    /// Set `attr` to a fixed constant.
    SetConstant {
        /// Attribute to overwrite.
        attr: String,
        /// The value to write.
        value: Value,
    },
}

impl FixAction {
    fn target_attr(&self) -> &str {
        match self {
            FixAction::MostCommon { attr }
            | FixAction::MostCommonGiven { attr, .. }
            | FixAction::SetConstant { attr, .. } => attr,
        }
    }
}

/// One rule: when `constraint` (by name) is violated, apply `action` to each
/// violating tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Name of the constraint this rule reacts to.
    pub constraint: String,
    /// The fix applied to violating tuples.
    pub action: FixAction,
}

impl Rule {
    /// Construct a rule.
    pub fn new(constraint: impl Into<String>, action: FixAction) -> Self {
        Rule {
            constraint: constraint.into(),
            action,
        }
    }
}

/// The [`RuleRepair::parse_rules`] syntax of one rule, e.g.
/// `C2: Country <- most_common_given(City)`.
impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.action {
            FixAction::MostCommon { attr } => {
                write!(f, "{}: {attr} <- most_common", self.constraint)
            }
            FixAction::MostCommonGiven { attr, given } => write!(
                f,
                "{}: {attr} <- most_common_given({given})",
                self.constraint
            ),
            FixAction::SetConstant { attr, value } => {
                let rendered = match value {
                    Value::Int(n) => n.to_string(),
                    Value::Float(x) => x.to_string(),
                    other => format!("\"{other}\""),
                };
                write!(f, "{}: {attr} <- const({rendered})", self.constraint)
            }
        }
    }
}

/// The generalized Algorithm 1.
#[derive(Debug, Clone)]
pub struct RuleRepair {
    rules: Vec<Rule>,
    max_rounds: usize,
    name: String,
    threads: usize,
}

impl RuleRepair {
    /// Default number of rounds: **one**, matching the paper's Algorithm 1,
    /// which is a single sequential pass over the constraint list (rule `i`
    /// sees the fixes of rules `1..i−1`; that sequencing is all Example 1.1
    /// needs). More rounds can be requested via
    /// [`RuleRepair::with_max_rounds`]; note that simultaneous 1-vs-1 tie
    /// repairs *swap* the two values, so even round counts can undo them.
    pub const DEFAULT_MAX_ROUNDS: usize = 1;

    /// Build a repairer from rules (applied in the order of the constraint
    /// list passed to [`RepairAlgorithm::repair`], not rule order).
    pub fn new(rules: Vec<Rule>) -> Self {
        RuleRepair {
            rules,
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
            name: "algorithm1".to_string(),
            threads: 1,
        }
    }

    /// Override the fixpoint round bound.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds.max(1);
        self
    }

    /// Override the reported name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The rule attached to a constraint name, if any.
    pub fn rule_for(&self, constraint: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.constraint == constraint)
    }

    /// Render the rule list in the [`RuleRepair::parse_rules`] syntax, one
    /// rule per line — `parse_rules(x.rules_text())` reconstructs the same
    /// rules. This is how `trex datagen` exports a scenario's Algorithm 1
    /// for the `--engine rules` pipeline.
    pub fn rules_text(&self) -> String {
        self.rules.iter().map(|rule| format!("{rule}\n")).collect()
    }

    /// Check every rule against the program it will repair with: its
    /// constraint must be one of `dcs`, and its target column and `given`
    /// column must exist in `schema`. The error names the first offending
    /// rule and the unknown name.
    ///
    /// [`RepairAlgorithm::repair`] deliberately does not check: the
    /// coalition games pass it subsets of the program, and a rule whose
    /// constraint is absent from a subset correctly does nothing. Check
    /// once, where the rule list and the program are loaded together.
    pub fn check_against(&self, schema: &Schema, dcs: &[DenialConstraint]) -> Result<(), String> {
        for rule in &self.rules {
            if !dcs.iter().any(|dc| dc.name == rule.constraint) {
                return Err(format!(
                    "rule `{rule}`: unknown constraint {:?}",
                    rule.constraint
                ));
            }
            let given = match &rule.action {
                FixAction::MostCommonGiven { given, .. } => Some(given.as_str()),
                _ => None,
            };
            for column in std::iter::once(rule.action.target_attr()).chain(given) {
                if schema.resolve(column).is_none() {
                    return Err(format!("rule `{rule}`: unknown column {column:?}"));
                }
            }
        }
        Ok(())
    }

    /// Apply one rule to the violations of one constraint on the working
    /// copy. Every new value is computed from the working state as it
    /// stood before the rule, then all of them are written. Returns the
    /// number of cells changed.
    fn apply_rule(&self, dc: &DenialConstraint, action: &FixAction, work: &mut Work) -> usize {
        let Some(attr) = work.table.schema().resolve(action.target_attr()) else {
            return 0;
        };
        work.refresh();
        let mut rows: Vec<usize> =
            find_violations_par_with(dc, &work.table, &work.enc, self.threads)
                .iter()
                .flat_map(|v| [Some(v.row1), v.row2])
                .flatten()
                .collect();
        rows.sort_unstable();
        rows.dedup();

        let enc = &*work.enc;
        let (codes, dict) = (enc.codes(attr), enc.dict(attr));
        let mut writes: Vec<(usize, Value)> = Vec::new();
        match action {
            FixAction::MostCommon { .. } => {
                let mut votes = vec![0u32; dict.len()];
                for &c in codes {
                    votes[c as usize] += 1;
                }
                if let Some(mode) = Mode::of(&votes, dict) {
                    for &r in &rows {
                        let to = mode.pick(codes[r]);
                        if to != codes[r] {
                            writes.push((r, dict.decode(to).clone()));
                        }
                    }
                }
            }
            FixAction::MostCommonGiven { given, .. } => {
                let Some(given) = work.table.schema().resolve(given) else {
                    return 0;
                };
                let (given_codes, given_dict) = (enc.codes(given), enc.dict(given));
                let mut votes = vec![0u32; dict.len()];
                let mut modes: HashMap<u32, Option<Mode>> = HashMap::new();
                for &r in &rows {
                    let g = given_codes[r];
                    if !votes_in_modes(given_dict.class(g)) {
                        continue;
                    }
                    let mode = *modes.entry(g).or_insert_with(|| {
                        votes.fill(0);
                        for (&gc, &c) in given_codes.iter().zip(codes) {
                            if given_dict.sql_eq_codes(g, gc) {
                                votes[c as usize] += 1;
                            }
                        }
                        Mode::of(&votes, dict)
                    });
                    if let Some(to) = mode.map(|m| m.pick(codes[r])) {
                        if to != codes[r] {
                            writes.push((r, dict.decode(to).clone()));
                        }
                    }
                }
            }
            FixAction::SetConstant { value, .. } => {
                for &r in &rows {
                    if dict.decode(codes[r]) != value {
                        writes.push((r, value.clone()));
                    }
                }
            }
        }
        let changed = writes.len();
        for (r, v) in writes {
            work.write(CellRef::new(r, attr), v);
        }
        changed
    }
}

/// Whether values of this class vote in a mode and may be chosen by one:
/// nulls and labeled nulls never do.
fn votes_in_modes(class: CodeClass) -> bool {
    !matches!(class, CodeClass::Null | CodeClass::Labeled)
}

/// The outcome of one mode count: the smallest code with the most votes,
/// and the next code with as many votes, if any.
#[derive(Debug, Clone, Copy)]
struct Mode {
    best: u32,
    runner_up: Option<u32>,
}

impl Mode {
    /// The mode of `votes` (indexed by code of `dict`) over the codes that
    /// vote, `None` when none got a vote. Codes are scanned in ascending
    /// order, so ties keep the smaller code.
    fn of(votes: &[u32], dict: &Dictionary) -> Option<Mode> {
        let mut top = 0u32;
        let mut mode: Option<Mode> = None;
        for (code, &n) in votes.iter().enumerate() {
            let code = code as u32;
            if n == 0 || n < top || !votes_in_modes(dict.class(code)) {
                continue;
            }
            match &mut mode {
                Some(m) if n == top => {
                    m.runner_up.get_or_insert(code);
                }
                _ => {
                    top = n;
                    mode = Some(Mode {
                        best: code,
                        runner_up: None,
                    });
                }
            }
        }
        mode
    }

    /// The repair value for a row holding `current`: the mode, unless the
    /// row already holds it and another code ties with it.
    fn pick(self, current: u32) -> u32 {
        match self.runner_up {
            Some(other) if self.best == current => other,
            _ => self.best,
        }
    }
}

/// Algorithm 1's working state: one copy of the table and one of its
/// codes, updated together on every write.
struct Work {
    table: Table,
    /// Codes of `table`, shared with the input's own encoding until the
    /// first write copies them. Dictionaries may hold entries no cell uses
    /// any more (see [`EncodedTable::try_set`]).
    enc: Arc<EncodedTable>,
    /// A write stored a value new to its column: `enc` is out of date
    /// until [`Work::refresh`].
    stale: bool,
    /// Every cell written, in write order (repeats allowed).
    touched: Vec<CellRef>,
}

impl Work {
    fn new(dirty: &Table) -> Work {
        Work {
            table: dirty.clone(),
            enc: Arc::clone(dirty.encoded()),
            stale: false,
            touched: Vec::new(),
        }
    }

    /// Write `v` to `cell` in the table and in the codes.
    fn write(&mut self, cell: CellRef, v: Value) {
        // `set` drops the table's own reference to its encoding first, so
        // `make_mut` copies the codes only while the input still shares them.
        self.table.set(cell, v);
        let v = self.table.get(cell);
        if !Arc::make_mut(&mut self.enc).try_set(cell.row, cell.attr, v) {
            self.stale = true;
        }
        self.touched.push(cell);
    }

    /// Re-encode after a write of a value new to its column (a `const`
    /// rule; rare).
    fn refresh(&mut self) {
        if std::mem::take(&mut self.stale) {
            self.enc = Arc::clone(self.table.encoded());
        }
    }

    /// The repair result: the working table, and the touched cells whose
    /// value differs from `dirty`'s, in cell order.
    fn finish(mut self, dirty: &Table) -> RepairResult {
        self.touched.sort_unstable();
        self.touched.dedup();
        let changes = self
            .touched
            .iter()
            .filter_map(|&cell| {
                let (from, to) = (dirty.get(cell), self.table.get(cell));
                (from != to).then(|| CellChange {
                    cell,
                    from: from.clone(),
                    to: to.clone(),
                })
            })
            .collect();
        RepairResult {
            clean: self.table,
            changes,
        }
    }
}

/// Error from [`RuleRepair::parse_rules`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rule parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for RuleParseError {}

impl RuleRepair {
    /// Parse a rule list from text, one rule per line:
    ///
    /// ```text
    /// # constraint: Attr <- action
    /// C1: City <- most_common
    /// C2: Country <- most_common_given(City)
    /// U:  City <- const("Madrid")
    /// ```
    ///
    /// Blank lines and `#` comments are skipped.
    pub fn parse_rules(input: &str) -> Result<RuleRepair, RuleParseError> {
        let mut rules = Vec::new();
        for (i, raw) in input.lines().enumerate() {
            let line = i + 1;
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let err = |message: &str| RuleParseError {
                line,
                message: message.to_string(),
            };
            let (constraint, rest) = text.split_once(':').ok_or_else(|| err("missing ':'"))?;
            let (attr, action) = rest.split_once("<-").ok_or_else(|| err("missing '<-'"))?;
            let constraint = constraint.trim().to_string();
            let attr = attr.trim().to_string();
            let action = action.trim();
            let fix = if action == "most_common" {
                FixAction::MostCommon { attr }
            } else if let Some(arg) = action
                .strip_prefix("most_common_given(")
                .and_then(|s| s.strip_suffix(')'))
            {
                FixAction::MostCommonGiven {
                    attr,
                    given: arg.trim().to_string(),
                }
            } else if let Some(arg) = action
                .strip_prefix("const(")
                .and_then(|s| s.strip_suffix(')'))
            {
                let arg = arg.trim();
                let value = if let Some(s) = arg.strip_prefix('"').and_then(|s| s.strip_suffix('"'))
                {
                    Value::str(s)
                } else if let Ok(n) = arg.parse::<i64>() {
                    Value::Int(n)
                } else if let Ok(x) = arg.parse::<f64>() {
                    Value::Float(x)
                } else {
                    return Err(err("const() takes a quoted string or a number"));
                };
                FixAction::SetConstant { attr, value }
            } else {
                return Err(err(
                    "unknown action (expected most_common, most_common_given(Attr), or const(v))",
                ));
            };
            rules.push(Rule::new(constraint, fix));
        }
        Ok(RuleRepair::new(rules))
    }
}

impl RepairAlgorithm for RuleRepair {
    fn name(&self) -> &str {
        &self.name
    }

    fn with_exec(mut self, cfg: &trex_shapley::ExecConfig) -> Self {
        self.threads = cfg.threads();
        self
    }

    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        let resolved: Vec<DenialConstraint> = dcs
            .iter()
            .map(|dc| {
                dc.resolved(dirty.schema())
                    .unwrap_or_else(|e| panic!("cannot resolve constraint: {e}"))
            })
            .collect();
        let mut work = Work::new(dirty);
        for _ in 0..self.max_rounds {
            let mut changed = 0;
            for dc in &resolved {
                if let Some(rule) = self.rule_for(&dc.name) {
                    changed += self.apply_rule(dc, &rule.action, &mut work);
                }
            }
            if changed == 0 {
                break;
            }
        }
        work.finish(dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_constraints::parse_dcs;
    use trex_table::{AttrId, TableBuilder};

    /// The paper's running example, reduced: Team→City (C1), City→Country
    /// (C2), League→Country (C3).
    fn dcs() -> Vec<DenialConstraint> {
        parse_dcs(
            "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n\
             C2: !(t1.City = t2.City & t1.Country != t2.Country)\n\
             C3: !(t1.League = t2.League & t1.Country != t2.Country)\n",
        )
        .unwrap()
    }

    fn rules() -> RuleRepair {
        RuleRepair::new(vec![
            Rule::new(
                "C1",
                FixAction::MostCommon {
                    attr: "City".into(),
                },
            ),
            Rule::new(
                "C2",
                FixAction::MostCommonGiven {
                    attr: "Country".into(),
                    given: "City".into(),
                },
            ),
            Rule::new(
                "C3",
                FixAction::MostCommon {
                    attr: "Country".into(),
                },
            ),
        ])
    }

    fn dirty() -> Table {
        TableBuilder::new()
            .str_columns(["Team", "City", "Country", "League"])
            .str_row(["Barcelona", "Barcelona", "Spain", "La Liga"])
            .str_row(["Atletico Madrid", "Madrid", "Spain", "La Liga"])
            .str_row(["Real Madrid", "Madrid", "Spain", "La Liga"])
            .str_row(["Real Madrid", "Capital", "España", "La Liga"])
            .build()
    }

    #[test]
    fn repairs_the_running_example() {
        let r = rules().repair(&dcs(), &dirty());
        let t = &r.clean;
        let city = t.schema().id("City");
        let country = t.schema().id("Country");
        assert_eq!(t.value(3, city), &Value::str("Madrid"));
        assert_eq!(t.value(3, country), &Value::str("Spain"));
        assert_eq!(r.changes.len(), 2);
    }

    #[test]
    fn c1_fires_before_c2_sequentially() {
        // Drop C3: the Country repair then depends on C1 having fixed City.
        let two = &dcs()[..2];
        let r = rules().repair(two, &dirty());
        let t = &r.clean;
        assert_eq!(t.value(3, t.schema().id("City")), &Value::str("Madrid"));
        assert_eq!(t.value(3, t.schema().id("Country")), &Value::str("Spain"));
    }

    #[test]
    fn c2_alone_cannot_repair() {
        // "Capital" matches no other city, so City→Country never fires.
        let only_c2 = &dcs()[1..2];
        let r = rules().repair(only_c2, &dirty());
        assert!(r.changes.is_empty());
    }

    #[test]
    fn c3_alone_repairs_country_but_not_city() {
        let only_c3 = &dcs()[2..3];
        let r = rules().repair(only_c3, &dirty());
        let t = &r.clean;
        assert_eq!(t.value(3, t.schema().id("City")), &Value::str("Capital"));
        assert_eq!(t.value(3, t.schema().id("Country")), &Value::str("Spain"));
    }

    #[test]
    fn clean_table_is_a_fixpoint() {
        let r = rules().repair(&dcs(), &dirty());
        let again = rules().repair(&dcs(), &r.clean);
        assert!(again.changes.is_empty());
        assert_eq!(again.clean, r.clean);
    }

    #[test]
    fn empty_constraint_set_changes_nothing() {
        let r = rules().repair(&[], &dirty());
        assert!(r.changes.is_empty());
    }

    #[test]
    fn ties_break_away_from_the_current_value() {
        // Two rows conflict 1-vs-1: each row's repair prefers the *other*
        // value (the current one is suspicious), so a single round swaps
        // them. This is the behaviour Example 2.4's single-witness
        // coalitions rely on: the witness's value beats the dirty value.
        let t = TableBuilder::new()
            .str_columns(["League", "Country"])
            .str_row(["L", "Spain"])
            .str_row(["L", "España"])
            .build();
        let dcs = parse_dcs("C3: !(t1.League = t2.League & t1.Country != t2.Country)").unwrap();
        let alg = RuleRepair::new(vec![Rule::new(
            "C3",
            FixAction::MostCommon {
                attr: "Country".into(),
            },
        )])
        .with_max_rounds(1);
        let r = alg.repair(&dcs, &t);
        let country = t.schema().id("Country");
        assert_eq!(r.clean.value(0, country), &Value::str("España"));
        assert_eq!(r.clean.value(1, country), &Value::str("Spain"));
        // And the unbounded version is still deterministic.
        let full = RuleRepair::new(alg.rules.clone());
        assert_eq!(full.repair(&dcs, &t).clean, full.repair(&dcs, &t).clean);
    }

    #[test]
    fn ties_between_numeric_aliases_break_by_code_order() {
        // Int(2^53 + 1) and Float(2^53) are distinct values that
        // `Value::cmp` calls equal and that hash differently, so only an
        // order that tells them apart breaks their tie the same way every
        // time. Code order puts the Int first.
        let big = (1i64 << 53) + 1;
        let t = Table::from_rows(
            trex_table::Schema::of_strings(["K", "W", "V"].map(String::from)),
            vec![
                vec![Value::str("k"), Value::str("w1"), Value::int(1)],
                vec![Value::str("k"), Value::str("w2"), Value::int(big)],
                vec![
                    Value::str("k"),
                    Value::str("w3"),
                    Value::Float(9007199254740992.0),
                ],
            ],
        );
        let dcs = parse_dcs("C1: !(t1.K = t2.K & t1.W != t2.W)").unwrap();
        let alg = RuleRepair::parse_rules("C1: V <- most_common").unwrap();
        for _ in 0..2000 {
            let r = alg.repair(&dcs, &t);
            assert_eq!(r.clean.value(0, AttrId(2)), &Value::int(big));
        }
    }

    #[test]
    fn majority_beats_tie_break() {
        let t = TableBuilder::new()
            .str_columns(["League", "Country"])
            .str_row(["L", "Spain"])
            .str_row(["L", "Spain"])
            .str_row(["L", "España"])
            .build();
        let dcs = parse_dcs("C3: !(t1.League = t2.League & t1.Country != t2.Country)").unwrap();
        let alg = RuleRepair::new(vec![Rule::new(
            "C3",
            FixAction::MostCommon {
                attr: "Country".into(),
            },
        )]);
        let r = alg.repair(&dcs, &t);
        assert_eq!(r.changes.len(), 1);
        assert_eq!(
            r.clean.value(2, t.schema().id("Country")),
            &Value::str("Spain")
        );
    }

    #[test]
    fn null_evidence_is_skipped() {
        let t = TableBuilder::new()
            .str_columns(["League", "Country"])
            .str_row(["L", "Spain"])
            .str_row(["L", ""])
            .build();
        // Make row1's Country null, row0 vs row1 do not even violate.
        let mut t = t;
        t.set(CellRef::new(1, t.schema().id("Country")), Value::Null);
        let dcs = parse_dcs("C3: !(t1.League = t2.League & t1.Country != t2.Country)").unwrap();
        let alg = RuleRepair::new(vec![Rule::new(
            "C3",
            FixAction::MostCommon {
                attr: "Country".into(),
            },
        )]);
        let r = alg.repair(&dcs, &t);
        assert!(r.changes.is_empty());
    }

    #[test]
    fn set_constant_action() {
        let t = TableBuilder::new()
            .str_columns(["City"])
            .str_row(["Capital"])
            .str_row(["Madrid"])
            .build();
        let dcs = parse_dcs("U: !(t1.City = \"Capital\")").unwrap();
        let alg = RuleRepair::new(vec![Rule::new(
            "U",
            FixAction::SetConstant {
                attr: "City".into(),
                value: Value::str("Madrid"),
            },
        )]);
        let r = alg.repair(&dcs, &t);
        assert_eq!(r.changes.len(), 1);
        assert_eq!(r.clean.value(0, AttrId(0)), &Value::str("Madrid"));
    }

    #[test]
    fn constraints_without_rules_are_ignored() {
        let r = RuleRepair::new(vec![]).repair(&dcs(), &dirty());
        assert!(r.changes.is_empty());
    }

    #[test]
    fn conditional_with_null_given_is_skipped() {
        let mut t = dirty();
        let city = t.schema().id("City");
        t.set(CellRef::new(3, city), Value::Null);
        // C2 can't condition on a null City; C1's violation also vanishes
        // (null city). Only C3 fires.
        let r = rules().repair(&dcs(), &t);
        let country = t.schema().id("Country");
        assert_eq!(r.clean.value(3, country), &Value::str("Spain"));
        // City stays null: C1 has no violation to react to.
        assert_eq!(r.clean.value(3, city), &Value::Null);
    }

    #[test]
    fn max_rounds_bounds_oscillation() {
        let alg = rules().with_max_rounds(1);
        // One round is enough for the running example anyway.
        let r = alg.repair(&dcs(), &dirty());
        assert_eq!(r.changes.len(), 2);
    }

    #[test]
    fn name_is_reported() {
        assert_eq!(rules().name(), "algorithm1");
        assert_eq!(rules().with_name("alg1-variant").name(), "alg1-variant");
    }

    #[test]
    fn parse_rules_round_trip() {
        let alg = RuleRepair::parse_rules(
            "# Algorithm 1\n\
             C1: City <- most_common\n\
             C2: Country <- most_common_given(City)\n\
             U: City <- const(\"Madrid\")\n\
             N: Place <- const(1)\n",
        )
        .unwrap();
        assert_eq!(
            alg.rule_for("C1").unwrap().action,
            FixAction::MostCommon {
                attr: "City".into()
            }
        );
        assert_eq!(
            alg.rule_for("C2").unwrap().action,
            FixAction::MostCommonGiven {
                attr: "Country".into(),
                given: "City".into()
            }
        );
        assert_eq!(
            alg.rule_for("U").unwrap().action,
            FixAction::SetConstant {
                attr: "City".into(),
                value: Value::str("Madrid")
            }
        );
        assert_eq!(
            alg.rule_for("N").unwrap().action,
            FixAction::SetConstant {
                attr: "Place".into(),
                value: Value::int(1)
            }
        );
    }

    #[test]
    fn rules_text_round_trips_through_parse_rules() {
        let text = "C1: City <- most_common\n\
                    C2: Country <- most_common_given(City)\n\
                    U: City <- const(\"Madrid\")\n\
                    N: Place <- const(1)\n";
        let alg = RuleRepair::parse_rules(text).unwrap();
        assert_eq!(alg.rules_text(), text);
        let reparsed = RuleRepair::parse_rules(&alg.rules_text()).unwrap();
        for name in ["C1", "C2", "U", "N"] {
            assert_eq!(reparsed.rule_for(name), alg.rule_for(name), "{name}");
        }
    }

    #[test]
    fn parse_rules_reports_errors_with_lines() {
        let err = RuleRepair::parse_rules("C1: City <- teleport").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown action"));
        let err = RuleRepair::parse_rules("\nCity most_common").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("':'"), "{err}");
        let err = RuleRepair::parse_rules("C1: City <- const(nope)").unwrap_err();
        assert!(err.message.contains("const()"));
    }

    #[test]
    fn threaded_detection_gives_identical_repairs() {
        let serial = rules().repair(&dcs(), &dirty());
        let cfg = trex_shapley::ExecConfig::new().with_threads(4);
        let par = rules().with_exec(&cfg).repair(&dcs(), &dirty());
        assert_eq!(serial.clean, par.clean);
        assert_eq!(serial.changes, par.changes);
    }
}
