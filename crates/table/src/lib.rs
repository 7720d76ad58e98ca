//! # trex-table
//!
//! The storage substrate of the T-REx reproduction: an in-memory,
//! dynamically-typed relational table with the operations the repair and
//! explanation layers need —
//!
//! * [`Value`] cells with SQL-style null comparison semantics,
//! * [`Schema`]/[`Table`]/[`CellRef`] addressing, row-major *vectorization*
//!   (Example 2.5 of the paper) and coalition *masking* (§2.2),
//! * column statistics and empirical samplers ([`stats`]) used both by the
//!   paper's Algorithm 1 and by the sampling Shapley estimator,
//! * CSV I/O ([`csv`]) and cell-level diffs ([`diff`]).
//!
//! The paper stores tables in PostgreSQL behind HoloClean; per the design
//! document (DESIGN.md §2) this crate is the in-memory substitute — the
//! explanation machinery needs only random cell access, null masking, and
//! column distributions, all provided here.

#![warn(missing_docs)]

pub mod builder;
pub mod csv;
pub mod dict;
pub mod diff;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use builder::TableBuilder;
pub use csv::{read_csv, read_csv_inferred, read_csv_strings, write_csv, CsvError};
pub use dict::{CodeClass, Dictionary, EncodedTable};
pub use diff::{apply, diff, CellChange};
pub use schema::{AttrId, Attribute, Schema};
pub use stats::{ColumnSampler, ColumnStats, ConditionalStats, TableSamplers};
pub use table::{CellRef, Table};
pub use value::{DType, Value, ValueParseError};

// Property tests, gated behind the `proptest` feature to keep plain
// `cargo test` fast. They compile against the offline shim in
// `vendor/proptest` (or crates.io proptest — CI's weekly cron runs both):
// `cargo test --workspace --features proptest`.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            // Finite floats only: CSV text round-trips are exact for these.
            (-1e9f64..1e9f64).prop_map(Value::Float),
            "[a-zA-Z0-9 ,\"']{0,12}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn arb_str_table() -> impl Strategy<Value = Table> {
        (1usize..5, 0usize..8).prop_flat_map(|(arity, rows)| {
            let names: Vec<String> = (0..arity).map(|i| format!("C{i}")).collect();
            proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![
                        Just(Value::Null),
                        "[a-zA-Z0-9 ,]{0,10}".prop_map(Value::Str)
                    ],
                    arity,
                ),
                rows,
            )
            .prop_map(move |rows| Table::from_rows(Schema::of_strings(names.clone()), rows))
        })
    }

    proptest! {
        #[test]
        fn value_eq_implies_hash_eq(a in arb_value(), b in arb_value()) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let h = |v: &Value| {
                let mut s = DefaultHasher::new();
                v.hash(&mut s);
                s.finish()
            };
            if a == b {
                prop_assert_eq!(h(&a), h(&b));
            }
        }

        #[test]
        fn value_total_order_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
            use std::cmp::Ordering;
            // antisymmetry
            if a.cmp(&b) == Ordering::Less {
                prop_assert_eq!(b.cmp(&a), Ordering::Greater);
            }
            // transitivity (spot check)
            if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
                prop_assert_ne!(a.cmp(&c), Ordering::Greater);
            }
        }

        #[test]
        fn csv_roundtrip_str_tables(t in arb_str_table()) {
            let text = write_csv(&t);
            let dtypes = vec![DType::Str; t.arity()];
            let t2 = read_csv(&text, &dtypes).unwrap();
            prop_assert_eq!(t, t2);
        }

        #[test]
        fn vectorize_roundtrip(t in arb_str_table()) {
            let v = t.vectorize();
            prop_assert_eq!(v.len(), t.num_cells());
            let t2 = Table::from_vector(t.schema().clone(), v);
            prop_assert_eq!(t, t2);
        }

        #[test]
        fn full_mask_is_identity_empty_mask_is_all_null(t in arb_str_table()) {
            let all = vec![true; t.num_cells()];
            prop_assert_eq!(t.masked_keep(&all), t.clone());
            let none = vec![false; t.num_cells()];
            let m = t.masked_keep(&none);
            prop_assert!(m.cells_with_values().all(|(_, v)| v.is_null()));
        }

        #[test]
        fn diff_apply_roundtrip(a in arb_str_table()) {
            // mutate a few cells deterministically
            let mut b = a.clone();
            for (i, cell) in a.cells().enumerate() {
                if i % 3 == 0 {
                    b.set(cell, Value::str("MUT"));
                }
            }
            let d = diff(&a, &b);
            prop_assert_eq!(apply(&a, &d), b);
        }

        #[test]
        fn sql_eq_is_symmetric(a in arb_value(), b in arb_value()) {
            prop_assert_eq!(a.sql_eq(&b), b.sql_eq(&a));
            prop_assert_eq!(a.sql_ne(&b), b.sql_ne(&a));
            // eq and ne are mutually exclusive
            prop_assert!(!(a.sql_eq(&b) && a.sql_ne(&b)));
        }

        #[test]
        fn dict_encode_decode_identity(t in arb_mixed_table()) {
            let enc = EncodedTable::encode(&t);
            prop_assert_eq!(enc.num_rows(), t.num_rows());
            prop_assert_eq!(enc.arity(), t.arity());
            for row in 0..t.num_rows() {
                for a in 0..t.arity() {
                    let attr = AttrId(a);
                    prop_assert_eq!(enc.decode(row, attr), t.value(row, attr));
                }
            }
        }

        #[test]
        fn dict_codes_agree_with_value_sql_semantics(t in arb_mixed_table()) {
            // Every same-column pair of codes must answer sql_eq/sql_ne/sql_cmp
            // exactly as the decoded values do — including Int/Float aliasing,
            // labeled nulls, and the beyond-2^53 fallback columns.
            let enc = EncodedTable::encode(&t);
            for a in 0..t.arity() {
                let d = enc.dict(AttrId(a));
                for ca in 0..d.len() as u32 {
                    for cb in 0..d.len() as u32 {
                        let (va, vb) = (d.decode(ca), d.decode(cb));
                        prop_assert_eq!(d.sql_eq_codes(ca, cb), va.sql_eq(vb));
                        prop_assert_eq!(d.sql_ne_codes(ca, cb), va.sql_ne(vb));
                        prop_assert_eq!(d.sql_cmp_codes(ca, cb), va.sql_cmp(vb));
                    }
                }
            }
        }

        #[test]
        fn dict_order_preservation_and_dedup(t in arb_mixed_table()) {
            // Code order refines the SQL order (where defined), and equal
            // values share exactly one code.
            use std::cmp::Ordering;
            let enc = EncodedTable::encode(&t);
            for a in 0..t.arity() {
                let d = enc.dict(AttrId(a));
                for w in 0..d.len().saturating_sub(1) {
                    let (lo, hi) = (d.decode(w as u32), d.decode(w as u32 + 1));
                    prop_assert_ne!(lo, hi, "entries are deduplicated");
                    prop_assert_ne!(lo.sql_cmp(hi), Some(Ordering::Greater));
                }
                for v in t.column(AttrId(a)) {
                    let code = d.code_of(v).expect("every column value has a code");
                    prop_assert_eq!(d.decode(code), v);
                }
            }
        }

        #[test]
        fn table_encoding_tracks_every_mutation(
            t in arb_mixed_table(),
            ops in proptest::collection::vec((any::<bool>(), any::<u64>(), arb_mixed_cell()), 0..12),
        ) {
            // The cached encoding is always exactly a fresh encode, and a
            // clone shares it until either side is mutated.
            use std::sync::Arc;
            let same_as_fresh = |t: &Table| -> Result<(), TestCaseError> {
                let fresh = EncodedTable::encode(t);
                let cached = t.encoded();
                prop_assert_eq!(cached.num_rows(), fresh.num_rows());
                for a in 0..t.arity() {
                    let attr = AttrId(a);
                    prop_assert_eq!(cached.dict(attr).values(), fresh.dict(attr).values());
                    prop_assert_eq!(cached.codes(attr), fresh.codes(attr));
                }
                Ok(())
            };
            let mut t = t;
            same_as_fresh(&t)?;
            for (push, pick, v) in ops {
                let mut copy = t.clone();
                prop_assert!(Arc::ptr_eq(t.encoded(), copy.encoded()));
                let mutate_copy = pick % 2 == 0;
                let target = if mutate_copy { &mut copy } else { &mut t };
                if push || target.num_rows() == 0 {
                    let row = (0..target.arity()).map(|_| v.clone()).collect();
                    target.push_row(row);
                } else {
                    let cell = CellRef::from_flat(pick as usize % target.num_cells(), target.arity());
                    target.set(cell, v);
                }
                prop_assert!(!Arc::ptr_eq(t.encoded(), copy.encoded()));
                same_as_fresh(&t)?;
                same_as_fresh(&copy)?;
                if mutate_copy {
                    t = copy;
                }
            }
        }

        #[test]
        fn table_fingerprint_and_kept_codes_track_every_mutation(
            t in arb_mixed_table(),
            ops in proptest::collection::vec((0u8..4, any::<u64>(), arb_mixed_cell()), 0..12),
        ) {
            // After every mutation the cached fingerprint is the one hashed
            // from scratch, and a kept (patched or spanning) encoding still
            // decodes cell for cell like the table.
            let check = |t: &Table| -> Result<(), TestCaseError> {
                let rows = (0..t.num_rows()).map(|r| t.row(r).to_vec()).collect();
                let fresh = Table::from_rows(t.schema().clone(), rows);
                prop_assert_eq!(t.fingerprint(), fresh.fingerprint());
                let enc = t.encoded();
                for (c, v) in t.cells_with_values() {
                    prop_assert_eq!(enc.decode(c.row, c.attr), v);
                }
                Ok(())
            };
            let mut t = t;
            check(&t)?;
            for (op, pick, v) in ops {
                let copy = t.clone();
                if op == 0 || t.num_rows() == 0 {
                    let row = (0..t.arity()).map(|_| v.clone()).collect();
                    t.push_row(row);
                } else {
                    let cell = CellRef::from_flat(pick as usize % t.num_cells(), t.arity());
                    match op {
                        1 => {
                            t.set(cell, v);
                        }
                        2 => {
                            t.set_keep_codes(cell, v);
                        }
                        _ => {
                            let mut other = t.clone();
                            other.set(cell, v.clone());
                            t.encode_spanning(&other);
                            check(&t)?;
                            t.set_keep_codes(cell, v);
                        }
                    }
                }
                check(&t)?;
                check(&copy)?;
            }
        }

        #[test]
        fn dict_labeled_nulls_stay_distinct(labels in proptest::collection::vec(any::<u64>(), 1..6)) {
            let rows: Vec<Vec<Value>> = labels
                .iter()
                .map(|&l| vec![Value::LabeledNull(l)])
                .collect();
            let t = Table::from_rows(Schema::of_strings(["A".to_string()]), rows);
            let enc = EncodedTable::encode(&t);
            let d = enc.dict(AttrId(0));
            for &x in &labels {
                for &y in &labels {
                    let cx = d.code_of(&Value::LabeledNull(x)).unwrap();
                    let cy = d.code_of(&Value::LabeledNull(y)).unwrap();
                    prop_assert_eq!(d.sql_eq_codes(cx, cy), x == y);
                    prop_assert_eq!(d.sql_ne_codes(cx, cy), x != y);
                    prop_assert_eq!(d.sql_cmp_codes(cx, cy), None);
                }
            }
        }
    }

    fn arb_mixed_cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<u64>().prop_map(Value::LabeledNull),
            any::<i64>().prop_map(Value::Int),
            // Includes integral floats so Int/Float code aliasing is exercised.
            (-64i64..64).prop_map(|i| Value::Float(i as f64)),
            (-1e9f64..1e9f64).prop_map(Value::Float),
            "[a-z]{0,4}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn arb_mixed_table() -> impl Strategy<Value = Table> {
        (1usize..4, 0usize..10).prop_flat_map(|(arity, rows)| {
            let names: Vec<String> = (0..arity).map(|i| format!("C{i}")).collect();
            proptest::collection::vec(proptest::collection::vec(arb_mixed_cell(), arity), rows)
                .prop_map(move |rows| Table::from_rows(Schema::of_strings(names.clone()), rows))
        })
    }
}
