//! Dictionary-encoded columnar view of a [`Table`].
//!
//! `Value` is a heavy enum, and the layers above this crate — predicate
//! evaluation in the violation scan, equality partitioning, coalition
//! fingerprints, the repair engine's mode counts — all churn through it.
//! [`EncodedTable`] interns every column into a per-column [`Dictionary`]
//! (value → dense `u32` code) and stores the columns as contiguous `u32`
//! code arrays (one flat buffer), so those hot loops become integer
//! compares over cache-friendly memory. The row-oriented [`Table`] API is
//! untouched: a table builds its encoding *beside* its rows on first use
//! ([`Table::encoded`]) and keeps it until its contents change, so every
//! reader of one table contents shares a single encode.
//!
//! Codes are assigned in sorted value order (`Null` first, then labeled
//! nulls by label, then concrete values), so `<`/`>` predicates compare
//! codes directly. The comparison helpers ([`Dictionary::sql_eq_codes`],
//! [`Dictionary::sql_ne_codes`], [`Dictionary::sql_cmp_codes`]) reproduce
//! the SQL semantics of [`Value::sql_eq`]/[`Value::sql_ne`]/
//! [`Value::sql_cmp`] **exactly**, including the cross-type `Int`/`Float`
//! aliasing (`Int(2)` sql-equals `Float(2.0)` yet the two are distinct
//! dictionary entries) and the vacuity of nulls. The one case integer
//! codes cannot represent — a column mixing floats with integers beyond
//! `f64` precision, where SQL equality stops being transitive — is
//! detected at build time and falls back to comparing the decoded values,
//! so the helpers are exact for *every* column, not just well-behaved
//! ones.

use crate::schema::AttrId;
use crate::table::Table;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// The comparison class of a dictionary code: which values it can be
/// SQL-compared against. Cross-class comparisons of concrete values are
/// incomparable (`sql_cmp` is `None`), nulls compare with nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeClass {
    /// The plain SQL `NULL`: satisfies no predicate, not even `!=`.
    Null,
    /// A labeled null ([`Value::LabeledNull`]): equal only to itself,
    /// unequal to everything else, position-less in every order.
    Labeled,
    /// A boolean.
    Bool,
    /// An `Int` or `Float` — the two compare numerically with each other.
    Num,
    /// A string.
    Str,
}

impl CodeClass {
    fn of(v: &Value) -> CodeClass {
        match v {
            Value::Null => CodeClass::Null,
            Value::LabeledNull(_) => CodeClass::Labeled,
            Value::Bool(_) => CodeClass::Bool,
            Value::Int(_) | Value::Float(_) => CodeClass::Num,
            Value::Str(_) => CodeClass::Str,
        }
    }
}

/// A total, transitive order over values used to assign codes.
///
/// [`Value`]'s `Ord` is *not* usable here: for integers beyond `f64`
/// precision it can order `Int(a) < Int(b)` while ranking both `Equal` to
/// the same float — an inconsistent comparator that `sort` may reject.
/// This order breaks numeric ties by `(f64 value, variant, exact i64)`
/// lexicographically, which is transitive, keeps SQL-equal numeric pairs
/// adjacent, and agrees with `sql_cmp` wherever the two are both defined
/// and the column is not flagged for fallback (see
/// [`Dictionary::sql_cmp_codes`]).
fn code_order(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::LabeledNull(_) => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }
    match (a, b) {
        (Value::LabeledNull(x), Value::LabeledNull(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let key = |v: &Value| match v {
                Value::Int(i) => (*i as f64, 0u8, *i),
                Value::Float(f) => (*f, 1u8, 0i64),
                _ => unreachable!("numeric arm"),
            };
            let (fa, va, ia) = key(a);
            let (fb, vb, ib) = key(b);
            fa.total_cmp(&fb).then(va.cmp(&vb)).then(ia.cmp(&ib))
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

/// A per-column value dictionary: every distinct value of the column,
/// sorted, addressed by a dense `u32` code.
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// Distinct values in code order.
    entries: Vec<Value>,
    /// Comparison class per code.
    class: Vec<CodeClass>,
    /// Canonical code of each code's SQL-equality group: `Int(2)` and
    /// `Float(2.0)` are distinct entries but share an `eq_class`.
    eq_class: Vec<u32>,
    /// The code of `Value::Null`, if the column contains one (always 0 —
    /// `Null` sorts first).
    null_code: Option<u32>,
    /// `true` when the column mixes floats with integers beyond `f64`
    /// precision, making SQL numeric equality non-transitive; numeric
    /// comparisons then decode and compare values instead of codes.
    num_fallback: bool,
}

impl Dictionary {
    /// Number of distinct values (codes) in the column.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the column had no rows at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value a code stands for.
    #[inline]
    pub fn decode(&self, code: u32) -> &Value {
        &self.entries[code as usize]
    }

    /// The code of a value present in the column, `None` otherwise.
    ///
    /// Entries are sorted by the strict total [`code_order`] (distinct
    /// values never compare `Equal` under it), so this is a binary search —
    /// no reverse map is materialized at encode time.
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        self.entries
            .binary_search_by(|e| code_order(e, v))
            .ok()
            .map(|i| i as u32)
    }

    /// The code of `Value::Null`, if the column contains a plain null.
    #[inline]
    pub fn null_code(&self) -> Option<u32> {
        self.null_code
    }

    /// The comparison class of a code.
    #[inline]
    pub fn class(&self, code: u32) -> CodeClass {
        self.class[code as usize]
    }

    /// The distinct values, in code (sorted) order.
    pub fn values(&self) -> &[Value] {
        &self.entries
    }

    /// The canonical code of `code`'s SQL-equality class: `Int(2)` and
    /// `Float(2.0)` are distinct codes with one class. Two codes other than
    /// [`Dictionary::null_code`] are [`Dictionary::sql_eq_codes`] iff their
    /// classes match, unless [`Dictionary::num_fallback`] is set.
    #[inline]
    pub fn eq_class(&self, code: u32) -> u32 {
        self.eq_class[code as usize]
    }

    /// `true` when the column mixes floats with integers beyond `f64`
    /// precision: SQL numeric equality is then not transitive, and
    /// [`Dictionary::eq_class`] does not partition the column exactly.
    #[inline]
    pub fn num_fallback(&self) -> bool {
        self.num_fallback
    }

    /// Exactly [`Value::sql_eq`] on the decoded values, via codes.
    #[inline]
    pub fn sql_eq_codes(&self, a: u32, b: u32) -> bool {
        let (ca, cb) = (self.class[a as usize], self.class[b as usize]);
        match (ca, cb) {
            (CodeClass::Null, _) | (_, CodeClass::Null) => false,
            (CodeClass::Labeled, CodeClass::Labeled) => a == b,
            (CodeClass::Labeled, _) | (_, CodeClass::Labeled) => false,
            (CodeClass::Num, CodeClass::Num) if self.num_fallback => {
                self.decode(a).sql_eq(self.decode(b))
            }
            _ => self.eq_class[a as usize] == self.eq_class[b as usize],
        }
    }

    /// Exactly [`Value::sql_ne`] on the decoded values, via codes. Not the
    /// negation of [`Dictionary::sql_eq_codes`]: nulls and cross-class
    /// pairs are neither equal nor unequal.
    #[inline]
    pub fn sql_ne_codes(&self, a: u32, b: u32) -> bool {
        let (ca, cb) = (self.class[a as usize], self.class[b as usize]);
        match (ca, cb) {
            (CodeClass::Null, _) | (_, CodeClass::Null) => false,
            (CodeClass::Labeled, CodeClass::Labeled) => a != b,
            (CodeClass::Labeled, _) | (_, CodeClass::Labeled) => true,
            (CodeClass::Num, CodeClass::Num) if self.num_fallback => {
                self.decode(a).sql_ne(self.decode(b))
            }
            _ => ca == cb && self.eq_class[a as usize] != self.eq_class[b as usize],
        }
    }

    /// Exactly [`Value::sql_cmp`] on the decoded values, via codes: `None`
    /// for nulls, labeled nulls, and cross-class pairs; the code order
    /// otherwise (codes were assigned in value order).
    #[inline]
    pub fn sql_cmp_codes(&self, a: u32, b: u32) -> Option<Ordering> {
        let (ca, cb) = (self.class[a as usize], self.class[b as usize]);
        match (ca, cb) {
            (CodeClass::Null, _) | (_, CodeClass::Null) => None,
            (CodeClass::Labeled, _) | (_, CodeClass::Labeled) => None,
            (CodeClass::Num, CodeClass::Num) if self.num_fallback => {
                self.decode(a).sql_cmp(self.decode(b))
            }
            _ if ca != cb => None,
            _ => {
                if self.eq_class[a as usize] == self.eq_class[b as usize] {
                    Some(Ordering::Equal)
                } else {
                    Some(a.cmp(&b))
                }
            }
        }
    }

    /// Build a dictionary from the distinct values of one column, plus the
    /// remap `provisional id → code` (provisional ids are first-seen
    /// order, as produced by the encoder's interning pass).
    fn from_distinct(mut distinct: Vec<Value>) -> (Dictionary, Vec<u32>) {
        assert!(
            distinct.len() < u32::MAX as usize,
            "column has too many distinct values for u32 codes"
        );
        // Sort the *provisional ids* so the remap falls out of the permutation.
        let mut order: Vec<usize> = (0..distinct.len()).collect();
        order.sort_by(|&x, &y| code_order(&distinct[x], &distinct[y]));
        let mut remap = vec![0u32; distinct.len()];
        for (code, &prov) in order.iter().enumerate() {
            remap[prov] = code as u32;
        }
        let mut entries: Vec<Value> = Vec::with_capacity(distinct.len());
        for &prov in &order {
            entries.push(std::mem::replace(&mut distinct[prov], Value::Null));
        }

        let class: Vec<CodeClass> = entries.iter().map(CodeClass::of).collect();
        let null_code = entries
            .iter()
            .position(|v| matches!(v, Value::Null))
            .map(|p| p as u32);

        // SQL-equality groups: adjacent runs of sql-equal entries (the sort
        // keeps Int/Float aliases adjacent). While scanning, detect the
        // non-transitive case: two distinct integers sharing one f64 image
        // *and* a float at that image.
        let mut eq_class = vec![0u32; entries.len()];
        let mut num_fallback = false;
        let mut group_start = 0usize;
        let mut ints_in_run = 0usize;
        let mut floats_in_run = 0usize;
        let mut run_key: Option<f64> = None;
        for code in 0..entries.len() {
            if code > 0 && !entries[code - 1].sql_eq(&entries[code]) {
                group_start = code;
            }
            eq_class[code] = group_start as u32;
            // Track f64-image runs among numeric entries for the fallback flag.
            let img = match &entries[code] {
                Value::Int(i) => Some((*i as f64, true)),
                Value::Float(f) => Some((*f, false)),
                _ => None,
            };
            match img {
                Some((f, is_int)) => {
                    if run_key.is_some_and(|k| k.total_cmp(&f) == Ordering::Equal) {
                        if is_int {
                            ints_in_run += 1;
                        } else {
                            floats_in_run += 1;
                        }
                    } else {
                        run_key = Some(f);
                        ints_in_run = usize::from(is_int);
                        floats_in_run = usize::from(!is_int);
                    }
                    if ints_in_run >= 2 && floats_in_run >= 1 {
                        num_fallback = true;
                    }
                }
                None => run_key = None,
            }
        }

        (
            Dictionary {
                entries,
                class,
                eq_class,
                null_code,
                num_fallback,
            },
            remap,
        )
    }
}

/// A columnar, dictionary-encoded view of a [`Table`]: one [`Dictionary`]
/// plus one contiguous `Vec<u32>` code array per column.
///
/// The view is a snapshot — it does not track later `Table` mutations.
/// Read a table's own encoding with [`Table::encoded`], which encodes once
/// per table contents; [`EncodedTable::encode`] always builds a new one.
/// Clones share the dictionaries and copy only the codes, so a writer
/// (the rule engine's working codes, see [`EncodedTable::try_set`]) pays
/// one code-array copy for its own version.
#[derive(Debug, Clone)]
pub struct EncodedTable {
    dicts: Arc<[Dictionary]>,
    /// All columns' codes in one flat buffer, column-major: column `a`
    /// occupies `cols[a*rows .. (a+1)*rows]`. One allocation per encode
    /// instead of one per column — masked coalition tables are encoded
    /// once each on the oracle's miss path, so its constant cost is hot.
    cols: Vec<u32>,
    rows: usize,
}

impl EncodedTable {
    /// Encode every column of `table`: intern the distinct values into a
    /// sorted dictionary and store the rows as dense codes.
    pub fn encode(table: &Table) -> EncodedTable {
        EncodedTable::encode_with(table, None)
    }

    /// [`EncodedTable::encode`] of `table`, with every column dictionary
    /// also holding the values of the same column of `extra`, if any (see
    /// [`Table::encode_spanning`]).
    pub(crate) fn encode_with(table: &Table, extra: Option<&Table>) -> EncodedTable {
        let arity = table.arity();
        let rows = table.num_rows();
        let mut dicts = Vec::with_capacity(arity);
        let mut cols: Vec<u32> = Vec::with_capacity(arity * rows);
        // Small tables are the oracle's bread and butter (every masked
        // coalition table is encoded once on a cache miss), and there a
        // linear probe of the distinct list beats paying a hash per row.
        const LINEAR_ROWS: usize = 64;
        let linear = rows + extra.map_or(0, Table::num_rows) <= LINEAR_ROWS;
        for a in 0..arity {
            let attr = AttrId(a);
            let start = cols.len();
            let mut distinct: Vec<Value> = Vec::new();
            let extra_values = extra.into_iter().flat_map(|t| t.column(attr));
            if linear {
                let mut intern = |v: &Value| match distinct.iter().position(|d| d == v) {
                    Some(i) => i as u32,
                    None => {
                        distinct.push(v.clone());
                        (distinct.len() - 1) as u32
                    }
                };
                cols.extend(table.column(attr).map(&mut intern));
                for v in extra_values {
                    intern(v);
                }
            } else {
                let mut interner: HashMap<&Value, u32> = HashMap::new();
                let mut intern = |v| {
                    let next = distinct.len() as u32;
                    *interner.entry(v).or_insert_with(|| {
                        distinct.push(v.clone());
                        next
                    })
                };
                cols.extend(table.column(attr).map(&mut intern));
                for v in extra_values {
                    intern(v);
                }
            }
            let (dict, remap) = Dictionary::from_distinct(distinct);
            for c in &mut cols[start..] {
                *c = remap[*c as usize];
            }
            dicts.push(dict);
        }
        EncodedTable {
            dicts: dicts.into(),
            cols,
            rows,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.dicts.len()
    }

    /// The dictionary of one column.
    #[inline]
    pub fn dict(&self, attr: AttrId) -> &Dictionary {
        &self.dicts[attr.0]
    }

    /// The contiguous code array of one column (one code per row).
    #[inline]
    pub fn codes(&self, attr: AttrId) -> &[u32] {
        &self.cols[attr.0 * self.rows..(attr.0 + 1) * self.rows]
    }

    /// The code of one cell.
    #[inline]
    pub fn code(&self, row: usize, attr: AttrId) -> u32 {
        self.cols[attr.0 * self.rows + row]
    }

    /// Decode one cell back to its value.
    pub fn decode(&self, row: usize, attr: AttrId) -> &Value {
        self.dicts[attr.0].decode(self.code(row, attr))
    }

    /// Point one cell at the code of `v`, if the column's dictionary
    /// already holds `v`; returns `false` and changes nothing otherwise
    /// (the caller re-encodes). Dictionaries never shrink here, so an
    /// entry may outlive its last cell: the result decodes cell-for-cell
    /// like a fresh encode of the edited table and every scan reads it
    /// identically, but its dictionaries can hold extra entries — which is
    /// why only [`Table::set_keep_codes`], never [`Table::set`], patches a
    /// table's own cached encoding this way.
    pub fn try_set(&mut self, row: usize, attr: AttrId, v: &Value) -> bool {
        assert!(row < self.rows, "row {row} out of range");
        let Some(code) = self.dicts[attr.0].code_of(v) else {
            return false;
        };
        self.cols[attr.0 * self.rows + row] = code;
        true
    }

    /// Point one cell at `code` of its column's dictionary.
    pub(crate) fn set_code(&mut self, row: usize, attr: AttrId, code: u32) {
        assert!(row < self.rows, "row {row} out of range");
        self.cols[attr.0 * self.rows + row] = code;
    }

    /// Distinct-value count per column, in schema order — the dictionary
    /// statistic the stress harness reports.
    pub fn distinct_counts(&self) -> Vec<usize> {
        self.dicts.iter().map(Dictionary::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;
    use crate::table::CellRef;

    fn sample_table() -> Table {
        TableBuilder::new()
            .str_columns(["Team", "City"])
            .str_row(["Real", "Madrid"])
            .str_row(["Barca", "Barcelona"])
            .str_row(["Real", "Madrid"])
            .str_row(["Atletico", "Madrid"])
            .build()
    }

    #[test]
    fn encode_decode_identity() {
        let mut t = sample_table();
        t.set(CellRef::new(1, AttrId(1)), Value::Null);
        let enc = EncodedTable::encode(&t);
        assert_eq!(enc.num_rows(), 4);
        assert_eq!(enc.arity(), 2);
        for row in 0..t.num_rows() {
            for a in 0..t.arity() {
                let attr = AttrId(a);
                assert_eq!(enc.decode(row, attr), t.value(row, attr));
            }
        }
    }

    #[test]
    fn codes_are_sorted_and_deduplicated() {
        let t = sample_table();
        let enc = EncodedTable::encode(&t);
        let team = enc.dict(AttrId(0));
        assert_eq!(team.len(), 3);
        assert_eq!(
            team.values(),
            &[
                Value::str("Atletico"),
                Value::str("Barca"),
                Value::str("Real")
            ]
        );
        // Equal values share a code.
        assert_eq!(enc.code(0, AttrId(0)), enc.code(2, AttrId(0)));
        assert_eq!(enc.distinct_counts(), vec![3, 2]);
    }

    #[test]
    fn null_sorts_first_and_gets_the_null_code() {
        let mut t = sample_table();
        t.set(CellRef::new(3, AttrId(0)), Value::Null);
        let enc = EncodedTable::encode(&t);
        let d = enc.dict(AttrId(0));
        assert_eq!(d.null_code(), Some(0));
        assert_eq!(d.class(0), CodeClass::Null);
        assert_eq!(enc.code(3, AttrId(0)), 0);
        // The city column has no null.
        assert_eq!(enc.dict(AttrId(1)).null_code(), None);
    }

    #[test]
    fn code_of_round_trips() {
        let t = sample_table();
        let enc = EncodedTable::encode(&t);
        let d = enc.dict(AttrId(1));
        for (code, v) in d.values().iter().enumerate() {
            assert_eq!(d.code_of(v), Some(code as u32));
        }
        assert_eq!(d.code_of(&Value::str("Nowhere")), None);
    }

    #[test]
    fn int_float_aliases_share_an_eq_class_but_not_a_code() {
        let t = Table::from_rows(
            crate::schema::Schema::of_strings(["N".to_string()]),
            vec![
                vec![Value::int(2)],
                vec![Value::Float(2.0)],
                vec![Value::int(3)],
            ],
        );
        let enc = EncodedTable::encode(&t);
        let d = enc.dict(AttrId(0));
        assert_eq!(d.len(), 3, "Int(2) and Float(2.0) are distinct entries");
        let c_i2 = d.code_of(&Value::int(2)).unwrap();
        let c_f2 = d.code_of(&Value::Float(2.0)).unwrap();
        let c_i3 = d.code_of(&Value::int(3)).unwrap();
        assert_ne!(c_i2, c_f2);
        assert_eq!(d.eq_class(c_i2), d.eq_class(c_f2));
        assert_ne!(d.eq_class(c_i2), d.eq_class(c_i3));
        assert!(!d.num_fallback());
        assert!(d.sql_eq_codes(c_i2, c_f2), "2 sql-equals 2.0");
        assert!(!d.sql_ne_codes(c_i2, c_f2));
        assert_eq!(d.sql_cmp_codes(c_i2, c_f2), Some(Ordering::Equal));
        assert_eq!(d.sql_cmp_codes(c_i2, c_i3), Some(Ordering::Less));
        assert_eq!(d.sql_cmp_codes(c_i3, c_f2), Some(Ordering::Greater));
    }

    #[test]
    fn labeled_nulls_are_distinct_and_never_equal_concretes() {
        let t = Table::from_rows(
            crate::schema::Schema::of_strings(["A".to_string()]),
            vec![
                vec![Value::LabeledNull(7)],
                vec![Value::LabeledNull(3)],
                vec![Value::str("x")],
                vec![Value::Null],
            ],
        );
        let enc = EncodedTable::encode(&t);
        let d = enc.dict(AttrId(0));
        let l3 = d.code_of(&Value::LabeledNull(3)).unwrap();
        let l7 = d.code_of(&Value::LabeledNull(7)).unwrap();
        let s = d.code_of(&Value::str("x")).unwrap();
        let n = d.null_code().unwrap();
        assert!(l3 < l7, "labels sort numerically after Null");
        assert!(d.sql_eq_codes(l3, l3));
        assert!(!d.sql_eq_codes(l3, l7));
        assert!(d.sql_ne_codes(l3, l7));
        assert!(d.sql_ne_codes(l3, s), "labeled != concrete");
        assert!(!d.sql_eq_codes(l3, s));
        assert!(!d.sql_ne_codes(l3, n), "plain null voids !=");
        assert_eq!(d.sql_cmp_codes(l3, s), None);
    }

    #[test]
    fn cross_class_pairs_are_neither_equal_nor_unequal_nor_ordered() {
        let t = Table::from_rows(
            crate::schema::Schema::of_strings(["A".to_string()]),
            vec![
                vec![Value::int(1)],
                vec![Value::str("1")],
                vec![Value::Bool(true)],
            ],
        );
        let d = EncodedTable::encode(&t);
        let d = d.dict(AttrId(0));
        let i = d.code_of(&Value::int(1)).unwrap();
        let s = d.code_of(&Value::str("1")).unwrap();
        let b = d.code_of(&Value::Bool(true)).unwrap();
        for (x, y) in [(i, s), (i, b), (s, b)] {
            assert!(!d.sql_eq_codes(x, y));
            assert!(!d.sql_ne_codes(x, y));
            assert_eq!(d.sql_cmp_codes(x, y), None);
        }
    }

    #[test]
    fn big_int_float_mix_falls_back_and_stays_exact() {
        // Two distinct i64s with the same f64 image plus that float: SQL
        // equality is non-transitive here, codes cannot carry it — the
        // dictionary must detect the case and still answer exactly.
        let a = 1i64 << 53;
        let b = (1i64 << 53) + 1; // rounds to 2^53 as f64 (ties-to-even)
        let f = (1i64 << 53) as f64; // == (a as f64) == (b as f64)
        assert_eq!(a as f64, f);
        assert_eq!(b as f64, f);
        let t = Table::from_rows(
            crate::schema::Schema::of_strings(["A".to_string()]),
            vec![
                vec![Value::int(a)],
                vec![Value::int(b)],
                vec![Value::Float(f)],
            ],
        );
        let enc = EncodedTable::encode(&t);
        let d = enc.dict(AttrId(0));
        let ca = d.code_of(&Value::int(a)).unwrap();
        let cb = d.code_of(&Value::int(b)).unwrap();
        let cf = d.code_of(&Value::Float(f)).unwrap();
        assert!(d.num_fallback(), "2^53 and 2^53 + 1 both equal 2^53 as f64");
        for (x, y) in [(ca, cb), (ca, cf), (cb, cf), (cf, ca), (cb, ca)] {
            let (vx, vy) = (d.decode(x).clone(), d.decode(y).clone());
            assert_eq!(d.sql_eq_codes(x, y), vx.sql_eq(&vy), "{vx:?} vs {vy:?}");
            assert_eq!(d.sql_ne_codes(x, y), vx.sql_ne(&vy), "{vx:?} vs {vy:?}");
            assert_eq!(d.sql_cmp_codes(x, y), vx.sql_cmp(&vy), "{vx:?} vs {vy:?}");
        }
    }

    #[test]
    fn order_predicates_follow_code_order() {
        let t = Table::from_rows(
            crate::schema::Schema::of_strings(["A".to_string()]),
            vec![
                vec![Value::int(10)],
                vec![Value::int(-3)],
                vec![Value::Float(2.5)],
                vec![Value::int(7)],
            ],
        );
        let enc = EncodedTable::encode(&t);
        let d = enc.dict(AttrId(0));
        // Codes ascend with numeric value.
        let vals = [-3.0, 2.5, 7.0, 10.0];
        for w in vals.windows(2) {
            let lo = d
                .values()
                .iter()
                .position(|v| v.sql_cmp(&Value::Float(w[0])) == Some(Ordering::Equal))
                .unwrap() as u32;
            let hi = d
                .values()
                .iter()
                .position(|v| v.sql_cmp(&Value::Float(w[1])) == Some(Ordering::Equal))
                .unwrap() as u32;
            assert!(lo < hi);
            assert_eq!(d.sql_cmp_codes(lo, hi), Some(Ordering::Less));
        }
    }

    #[test]
    fn try_set_writes_known_values_and_refuses_new_ones() {
        let t = sample_table();
        let mut enc = EncodedTable::encode(&t);
        let city = AttrId(1);
        assert!(enc.try_set(1, city, &Value::str("Madrid")));
        assert_eq!(enc.decode(1, city), &Value::str("Madrid"));
        assert_eq!(enc.code(1, city), enc.code(0, city));
        let before = enc.codes(city).to_vec();
        assert!(!enc.try_set(1, city, &Value::str("Sevilla")));
        assert_eq!(
            enc.codes(city),
            &before[..],
            "a refused write changes nothing"
        );
        // "Barcelona" lost its last cell but keeps its dictionary entry.
        assert_eq!(enc.dict(city).len(), 2);
        assert!(enc.try_set(3, city, &Value::str("Barcelona")));
    }

    #[test]
    fn empty_table_encodes() {
        let t = Table::from_rows(crate::schema::Schema::of_strings(["A".to_string()]), vec![]);
        let enc = EncodedTable::encode(&t);
        assert_eq!(enc.num_rows(), 0);
        assert!(enc.dict(AttrId(0)).is_empty());
        assert_eq!(enc.codes(AttrId(0)), &[] as &[u32]);
    }
}
