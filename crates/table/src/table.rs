//! The in-memory table.
//!
//! [`Table`] is a row-major, dynamically-typed relation. It is the `T^d` /
//! `T^c` of the paper: the repair algorithms consume one and produce another,
//! and the cell-level Shapley game produces *masked* variants of the dirty
//! table in which every cell outside a coalition is replaced by null
//! (definition of §2.2) or by a random draw from the column distribution
//! (sampling algorithm of §2.3).
//!
//! Cells are addressed by [`CellRef`] — a `(row, attribute)` pair. The
//! *vectorization* of a table (Example 2.5: `x_T = (t1[Team], t1[City], …)`)
//! corresponds to enumerating cells in row-major order, which is exactly the
//! order of [`Table::cells`].
//!
//! A table owns its dictionary encoding ([`Table::encoded`]) and its
//! fingerprint ([`Table::fingerprint`]), each built on first use. The
//! encoding is shared by clones and dropped by every mutation, so each
//! distinct table contents is encoded at most once however many scans,
//! games and repairs read it. The fingerprint is an XOR of one hash per
//! cell, so a cell write patches it with two cell hashes instead of
//! dropping it: a session that edits its table keeps its oracle key
//! current for free. A clone starts without one, because clones are the
//! working copies of repairs and games, whose writes should not pay for
//! patching a key nobody reads.
//!
//! **Fresh and spanning encodings.** [`Table::set`] and [`Table::push_row`]
//! drop the encoding, so a table only they have mutated always holds
//! exactly [`EncodedTable::encode`] of its contents. Two items trade that
//! for a cheaper write: [`Table::encode_spanning`] caches an encoding whose
//! dictionaries also hold another table's values, and
//! [`Table::set_keep_codes`] patches the cached codes in place instead of
//! dropping them. Such an encoding decodes cell for cell like the table,
//! but its dictionaries may hold entries no cell uses, so its code numbers
//! are its own. Every scan finds the same witnesses on it as on a fresh
//! encode, in the same order, with one exception: an unused numeric entry
//! can keep a column flagged [`crate::Dictionary::num_fallback`] (floats
//! mixed with integers beyond `f64` precision) where a fresh encode would
//! not be, and a scan joining on that column then runs its nested loop and
//! lists the same witnesses in another order. The masked cell game's
//! working tables are the only tables that carry such an encoding (the
//! game falls back to [`Table::set`] when the flag could differ), and
//! coalition keys never hash them: the games key on the dirty table's own
//! fresh encoding, because two encodings of one table must never meet in
//! a key.

use crate::dict::EncodedTable;
use crate::schema::{AttrId, Schema};
use crate::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Address of a single cell: row index + attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellRef {
    /// Zero-based row index.
    pub row: usize,
    /// Attribute (column) id.
    pub attr: AttrId,
}

impl CellRef {
    /// Construct a cell reference.
    pub fn new(row: usize, attr: AttrId) -> Self {
        CellRef { row, attr }
    }

    /// Flat row-major index of this cell in a table of arity `arity`.
    ///
    /// This is the position of the cell in the paper's vectorized table
    /// `x_T`, and the canonical player index of the cell in the cell game.
    pub fn flat_index(&self, arity: usize) -> usize {
        self.row * arity + self.attr.0
    }

    /// Inverse of [`CellRef::flat_index`].
    pub fn from_flat(index: usize, arity: usize) -> Self {
        CellRef {
            row: index / arity,
            attr: AttrId(index % arity),
        }
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}[{}]", self.row + 1, self.attr.0)
    }
}

/// The hash one cell contributes to [`Table::fingerprint`]: its row-major
/// index and its value.
fn cell_hash(flat: usize, v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    flat.hash(&mut h);
    v.hash(&mut h);
    h.finish()
}

/// A row-major, dynamically-typed relation with a fixed [`Schema`].
///
/// Equality compares schema and cells only; the cached encoding and
/// fingerprint are not part of a table's value.
pub struct Table {
    schema: Schema,
    rows: Vec<Vec<Value>>,
    /// `EncodedTable::encode` of the current contents, built on first use
    /// by [`Table::encoded`]. Clones share it; [`Table::set`] and
    /// [`Table::push_row`] drop it rather than patch it, so it stays a
    /// fresh encode unless [`Table::encode_spanning`] or
    /// [`Table::set_keep_codes`] made it (see the module docs).
    encoded: OnceLock<Arc<EncodedTable>>,
    /// [`Table::fingerprint`] of the current contents, built on first use,
    /// patched by cell writes and dropped by [`Table::push_row`]; clones
    /// start without it.
    fingerprint: OnceLock<u64>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            encoded: self.encoded.clone(),
            fingerprint: OnceLock::new(),
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Eq for Table {}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("schema", &self.schema)
            .field("rows", &self.rows)
            .finish()
    }
}

impl Table {
    fn with_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        Table {
            schema,
            rows,
            encoded: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// An empty table over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Table::with_rows(schema, Vec::new())
    }

    /// Build a table from rows.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the schema's.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        for (i, r) in rows.iter().enumerate() {
            assert!(
                r.len() == schema.arity(),
                "row {i} has arity {} but schema has {}",
                r.len(),
                schema.arity()
            );
        }
        Table::with_rows(schema, rows)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of cells (`rows × arity`), the size of the vectorized table.
    pub fn num_cells(&self) -> usize {
        self.num_rows() * self.arity()
    }

    /// `true` iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert!(
            row.len() == self.schema.arity(),
            "row arity {} != schema arity {}",
            row.len(),
            self.schema.arity()
        );
        self.encoded.take();
        self.fingerprint.take();
        self.rows.push(row);
    }

    /// Borrow a row's cells.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.rows[i]
    }

    /// Borrow a cell value.
    pub fn get(&self, cell: CellRef) -> &Value {
        &self.rows[cell.row][cell.attr.0]
    }

    /// Convenience: borrow by `(row, attr)`.
    pub fn value(&self, row: usize, attr: AttrId) -> &Value {
        &self.rows[row][attr.0]
    }

    /// Overwrite a cell value, returning the previous value. Drops the
    /// cached encoding (the next [`Table::encoded`] rebuilds it) and
    /// patches a cached fingerprint.
    pub fn set(&mut self, cell: CellRef, v: Value) -> Value {
        self.encoded.take();
        self.replace(cell, v)
    }

    /// Write `v` into `cell`, patching a cached fingerprint: the old
    /// value's cell hash leaves the XOR and the new one's enters it.
    fn replace(&mut self, cell: CellRef, v: Value) -> Value {
        let flat = cell.flat_index(self.schema.arity());
        let slot = &mut self.rows[cell.row][cell.attr.0];
        if let Some(fp) = self.fingerprint.get_mut() {
            *fp ^= cell_hash(flat, slot) ^ cell_hash(flat, &v);
        }
        std::mem::replace(slot, v)
    }

    /// Overwrite a cell value like [`Table::set`], but keep the cached
    /// encoding when the column's dictionary already holds `v`: the cell's
    /// code is patched in place (copying the codes first if a clone still
    /// shares them). A value new to its column drops the encoding, as
    /// [`Table::set`] does. A cached fingerprint is patched.
    ///
    /// Weaker contract than [`Table::set`]: the kept encoding decodes cell
    /// for cell like the table, but its dictionaries may hold entries no
    /// cell uses any more (see [`EncodedTable::try_set`]), so it is no
    /// longer [`EncodedTable::encode`]`(self)`; the module docs say what a
    /// scan sees then.
    pub fn set_keep_codes(&mut self, cell: CellRef, v: Value) -> Value {
        if let Some(enc) = self.encoded.get_mut() {
            match enc.dict(cell.attr).code_of(&v) {
                Some(code) => Arc::make_mut(enc).set_code(cell.row, cell.attr, code),
                None => drop(self.encoded.take()),
            }
        }
        self.replace(cell, v)
    }

    /// Cache an encoding of the current contents whose column dictionaries
    /// also hold every value of the same column of `other`, so that
    /// [`Table::set_keep_codes`] can later write any of `other`'s values
    /// without a re-encode. Replaces any cached encoding.
    ///
    /// Weaker contract than [`Table::encoded`]'s fresh encode: the result
    /// decodes cell for cell like the table, but its dictionaries may hold
    /// entries no cell uses; the module docs say what a scan sees then.
    ///
    /// # Panics
    /// Panics if `other`'s arity differs from this table's.
    pub fn encode_spanning(&mut self, other: &Table) {
        assert_eq!(
            other.arity(),
            self.arity(),
            "a spanning encoding needs tables of one arity"
        );
        let enc = EncodedTable::encode_with(self, Some(other));
        self.encoded = OnceLock::from(Arc::new(enc));
    }

    /// The dictionary encoding of the current contents: built on the first
    /// call (thread-safe), then shared by every later call and every clone
    /// until the next mutation. Equal to [`EncodedTable::encode`]`(self)`
    /// unless [`Table::encode_spanning`] or [`Table::set_keep_codes`] made
    /// it; even then it decodes cell for cell like the table.
    pub fn encoded(&self) -> &Arc<EncodedTable> {
        self.encoded
            .get_or_init(|| Arc::new(EncodedTable::encode(self)))
    }

    /// Iterate all cell references in row-major (vectorization) order.
    pub fn cells(&self) -> impl Iterator<Item = CellRef> + '_ {
        let arity = self.arity();
        (0..self.num_rows()).flat_map(move |r| (0..arity).map(move |a| CellRef::new(r, AttrId(a))))
    }

    /// Iterate `(CellRef, &Value)` in row-major order.
    pub fn cells_with_values(&self) -> impl Iterator<Item = (CellRef, &Value)> {
        self.rows.iter().enumerate().flat_map(|(r, row)| {
            row.iter()
                .enumerate()
                .map(move |(a, v)| (CellRef::new(r, AttrId(a)), v))
        })
    }

    /// The vectorized table `x_T` of Example 2.5: all cell values in
    /// row-major order.
    pub fn vectorize(&self) -> Vec<Value> {
        self.rows.iter().flatten().cloned().collect()
    }

    /// Rebuild a table from a vectorization over the same schema.
    ///
    /// # Panics
    /// Panics if `values.len()` is not a multiple of the schema arity.
    pub fn from_vector(schema: Schema, values: Vec<Value>) -> Self {
        let arity = schema.arity();
        assert!(arity > 0, "cannot devectorize into a zero-arity schema");
        assert!(
            values.len().is_multiple_of(arity),
            "vector length {} is not a multiple of arity {arity}",
            values.len()
        );
        let mut rows = Vec::with_capacity(values.len() / arity);
        let mut it = values.into_iter();
        while let Some(first) = it.next() {
            let mut row = Vec::with_capacity(arity);
            row.push(first);
            for _ in 1..arity {
                row.push(it.next().expect("length checked above"));
            }
            rows.push(row);
        }
        Table::with_rows(schema, rows)
    }

    /// A copy of this table in which every cell in `mask` (given as flat
    /// row-major indices with `true` = *keep*) retains its value and every
    /// other cell is replaced by `Value::Null`.
    ///
    /// This is the coalition table `S ⊆ T^d` of the paper's cell game, where
    /// `∀ t_j[C] ∈ T^d \ S. t_j[C] = null`.
    ///
    /// # Panics
    /// Panics if `mask.len() != self.num_cells()`.
    pub fn masked_keep(&self, mask: &[bool]) -> Table {
        assert_eq!(mask.len(), self.num_cells(), "mask length mismatch");
        let arity = self.arity();
        let rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                row.iter()
                    .enumerate()
                    .map(|(a, v)| {
                        if mask[r * arity + a] {
                            v.clone()
                        } else {
                            Value::Null
                        }
                    })
                    .collect()
            })
            .collect();
        Table::with_rows(self.schema.clone(), rows)
    }

    /// Column `attr` as a slice-like iterator.
    pub fn column(&self, attr: AttrId) -> impl Iterator<Item = &Value> {
        self.rows.iter().map(move |r| &r[attr.0])
    }

    /// A deterministic 64-bit fingerprint of the table contents: a hash of
    /// the schema shape and row count, XORed with one hash per cell of its
    /// row-major index and value. The memoizing repair oracle keys tables
    /// by it. Hashed on the first call, then kept and patched by every cell
    /// write (see the module docs), so repeated game builds, repairs and
    /// oracle lookups over one table hash it once.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = DefaultHasher::new();
            self.schema.arity().hash(&mut h);
            for name in self.schema.names() {
                name.hash(&mut h);
            }
            self.rows.len().hash(&mut h);
            self.cells_with_values().fold(h.finish(), |fp, (cell, v)| {
                fp ^ cell_hash(cell.flat_index(self.schema.arity()), v)
            })
        })
    }

    /// Pretty-print with column headers; nulls render as `∅`.
    pub fn render(&self) -> String {
        let headers: Vec<String> = self.schema.names().map(str::to_string).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(widths) {
                out.push(' ');
                out.push_str(c);
                for _ in c.chars().count()..*w {
                    out.push(' ');
                }
                out.push_str(" |");
            }
            out.push('\n');
        };
        fmt_row(&headers, &widths, &mut out);
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &rendered {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DType;

    fn small() -> Table {
        let schema = Schema::new([("A", DType::Str), ("N", DType::Int)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("x"), Value::int(1)],
                vec![Value::str("y"), Value::int(2)],
            ],
        )
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = small();
        let c = CellRef::new(1, AttrId(0));
        assert_eq!(t.get(c), &Value::str("y"));
        let old = t.set(c, Value::str("z"));
        assert_eq!(old, Value::str("y"));
        assert_eq!(t.get(c), &Value::str("z"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = small();
        t.push_row(vec![Value::int(1)]);
    }

    #[test]
    fn vectorize_order_is_row_major() {
        let t = small();
        let v = t.vectorize();
        assert_eq!(
            v,
            vec![
                Value::str("x"),
                Value::int(1),
                Value::str("y"),
                Value::int(2)
            ]
        );
        let t2 = Table::from_vector(t.schema().clone(), v);
        assert_eq!(t, t2);
    }

    #[test]
    fn flat_index_roundtrip() {
        let t = small();
        for (i, c) in t.cells().enumerate() {
            assert_eq!(c.flat_index(t.arity()), i);
            assert_eq!(CellRef::from_flat(i, t.arity()), c);
        }
    }

    #[test]
    fn masked_keep_nulls_out_cells() {
        let t = small();
        let m = t.masked_keep(&[true, false, false, true]);
        assert_eq!(m.get(CellRef::new(0, AttrId(0))), &Value::str("x"));
        assert_eq!(m.get(CellRef::new(0, AttrId(1))), &Value::Null);
        assert_eq!(m.get(CellRef::new(1, AttrId(0))), &Value::Null);
        assert_eq!(m.get(CellRef::new(1, AttrId(1))), &Value::int(2));
        // original untouched
        assert_eq!(t.get(CellRef::new(0, AttrId(1))), &Value::int(1));
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let t = small();
        let mut t2 = t.clone();
        assert_eq!(t.fingerprint(), t2.fingerprint());
        t2.set(CellRef::new(0, AttrId(1)), Value::int(99));
        assert_ne!(t.fingerprint(), t2.fingerprint());
    }

    #[test]
    fn render_contains_headers_and_null_marker() {
        let mut t = small();
        t.set(CellRef::new(0, AttrId(0)), Value::Null);
        let s = t.render();
        assert!(s.contains("A"));
        assert!(s.contains("N"));
        assert!(s.contains("∅"));
    }

    #[test]
    fn cells_with_values_matches_get() {
        let t = small();
        for (c, v) in t.cells_with_values() {
            assert_eq!(t.get(c), v);
        }
        assert_eq!(t.cells_with_values().count(), 4);
    }

    #[test]
    fn column_iterates_one_attr() {
        let t = small();
        let col: Vec<&Value> = t.column(AttrId(1)).collect();
        assert_eq!(col, vec![&Value::int(1), &Value::int(2)]);
    }

    #[test]
    fn encoding_is_shared_by_clones_and_dropped_by_mutation() {
        let mut t = small();
        let first = Arc::clone(t.encoded());
        assert!(Arc::ptr_eq(&first, t.encoded()), "built once, then reused");
        let copy = t.clone();
        assert!(Arc::ptr_eq(&first, copy.encoded()), "clones share it");
        t.set(CellRef::new(0, AttrId(0)), Value::str("z"));
        assert!(!Arc::ptr_eq(&first, t.encoded()), "set drops it");
        assert_eq!(t.encoded().decode(0, AttrId(0)), &Value::str("z"));
        assert!(
            Arc::ptr_eq(&first, copy.encoded()),
            "the clone keeps its own"
        );
        let before_push = Arc::clone(t.encoded());
        t.push_row(vec![Value::str("w"), Value::int(3)]);
        assert!(!Arc::ptr_eq(&before_push, t.encoded()), "push_row drops it");
        assert_eq!(t.encoded().num_rows(), 3);
    }

    /// The fingerprint of `t`'s contents, hashed from scratch.
    fn fresh_fingerprint(t: &Table) -> u64 {
        let rows = (0..t.num_rows()).map(|r| t.row(r).to_vec()).collect();
        Table::from_rows(t.schema().clone(), rows).fingerprint()
    }

    #[test]
    fn cached_fingerprint_tracks_every_mutation_and_every_clone() {
        let mut t = small();
        assert_eq!(t.fingerprint(), fresh_fingerprint(&t));
        let copy = t.clone();
        assert_eq!(copy.fingerprint(), t.fingerprint(), "a clone hashes alike");
        t.set(CellRef::new(0, AttrId(0)), Value::str("z"));
        assert_eq!(t.fingerprint(), fresh_fingerprint(&t));
        assert_ne!(t.fingerprint(), copy.fingerprint());
        t.push_row(vec![Value::str("w"), Value::int(3)]);
        assert_eq!(t.fingerprint(), fresh_fingerprint(&t));
        let _ = t.encoded();
        t.set_keep_codes(CellRef::new(2, AttrId(1)), Value::int(1));
        assert_eq!(t.fingerprint(), fresh_fingerprint(&t));
        t.set_keep_codes(CellRef::new(2, AttrId(1)), Value::int(99));
        assert_eq!(t.fingerprint(), fresh_fingerprint(&t));
        assert_eq!(copy.fingerprint(), fresh_fingerprint(&copy));
    }

    #[test]
    fn set_keep_codes_patches_known_values_and_drops_on_new_ones() {
        let mut t = small();
        let first = Arc::clone(t.encoded());
        let shared = t.clone();
        let cell = CellRef::new(1, AttrId(0));
        assert_eq!(t.set_keep_codes(cell, Value::str("x")), Value::str("y"));
        assert_eq!(t.encoded().decode(1, AttrId(0)), &Value::str("x"));
        assert_eq!(
            t.encoded().dict(AttrId(0)).len(),
            2,
            "\"y\" keeps its entry"
        );
        assert!(
            Arc::ptr_eq(&first, shared.encoded()),
            "the clone keeps its own codes"
        );
        assert_eq!(shared.encoded().decode(1, AttrId(0)), &Value::str("y"));
        let patched = Arc::clone(t.encoded());
        t.set_keep_codes(cell, Value::str("new"));
        assert!(!Arc::ptr_eq(&patched, t.encoded()), "a new value drops it");
        let fresh = EncodedTable::encode(&t);
        for a in 0..t.arity() {
            let attr = AttrId(a);
            assert_eq!(t.encoded().dict(attr).values(), fresh.dict(attr).values());
            assert_eq!(t.encoded().codes(attr), fresh.codes(attr));
        }
    }

    #[test]
    fn a_spanning_encoding_holds_both_tables_values() {
        let dirty = small();
        let mut masked = dirty.clone();
        masked.set(CellRef::new(0, AttrId(0)), Value::Null);
        masked.set(CellRef::new(1, AttrId(1)), Value::LabeledNull(3));
        masked.encode_spanning(&dirty);
        let enc = Arc::clone(masked.encoded());
        assert_eq!(
            enc.dict(AttrId(0)).values(),
            &[Value::Null, Value::str("x"), Value::str("y")]
        );
        for (c, v) in masked.cells_with_values() {
            assert_eq!(enc.decode(c.row, c.attr), v);
        }
        // Writing the dirty values back patches codes, never re-encodes.
        for (c, v) in dirty.cells_with_values() {
            masked.set_keep_codes(c, v.clone());
            assert_eq!(masked.encoded().dict(c.attr).len(), enc.dict(c.attr).len());
        }
        assert_eq!(masked, dirty);
        for (c, v) in masked.cells_with_values() {
            assert_eq!(masked.encoded().decode(c.row, c.attr), v);
        }
    }

    #[test]
    fn equality_ignores_the_cached_encoding() {
        let t = small();
        let cold = small();
        let _ = t.encoded();
        assert_eq!(t, cold);
        assert_eq!(format!("{t:?}"), format!("{cold:?}"));
    }

    #[test]
    fn cellref_display_is_one_based() {
        assert_eq!(CellRef::new(4, AttrId(2)).to_string(), "t5[2]");
    }
}
