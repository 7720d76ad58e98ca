//! Minimal CSV reader/writer.
//!
//! The paper's demo loads tables scraped from Wikipedia; our workloads are
//! shipped as CSV-shaped text. This module implements RFC-4180-style parsing
//! (quoted fields, embedded commas/quotes/newlines) without external
//! dependencies, plus a writer that round-trips with the reader.
//!
//! Empty unquoted fields parse as [`Value::Null`]; quoted empty fields (`""`)
//! parse as the empty string for `Str` columns, preserving the
//! null-vs-empty-string distinction the cell game depends on.

use crate::schema::Schema;
use crate::table::Table;
use crate::value::{DType, Value};
use std::fmt;

/// Error from CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// Record had a different number of fields than the header.
    ArityMismatch {
        /// 1-based line number of the record.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A field failed to parse at its column type.
    BadField {
        /// 1-based line number of the record.
        line: usize,
        /// Column name.
        column: String,
        /// Error message.
        message: String,
    },
    /// A quote was opened but never closed.
    UnterminatedQuote,
    /// Input had no header line.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::ArityMismatch {
                line,
                got,
                expected,
            } => {
                write!(f, "line {line}: expected {expected} fields, got {got}")
            }
            CsvError::BadField {
                line,
                column,
                message,
            } => {
                write!(f, "line {line}, column {column}: {message}")
            }
            CsvError::UnterminatedQuote => write!(f, "unterminated quoted field"),
            CsvError::Empty => write!(f, "empty CSV input"),
        }
    }
}

impl std::error::Error for CsvError {}

/// One parsed field: the text plus whether it was quoted (to distinguish
/// `""` from an absent value).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Field {
    text: String,
    quoted: bool,
}

/// Split raw CSV text into records of fields.
fn parse_records(input: &str) -> Result<Vec<Vec<Field>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<Field> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = input.chars().peekable();

    macro_rules! end_field {
        () => {{
            record.push(Field {
                text: std::mem::take(&mut field),
                quoted,
            });
            #[allow(unused_assignments)]
            {
                quoted = false;
            }
        }};
    }

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' if field.is_empty() && !quoted => {
                    in_quotes = true;
                    quoted = true;
                }
                ',' => end_field!(),
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    end_field!();
                    records.push(std::mem::take(&mut record));
                }
                '\n' => {
                    end_field!();
                    records.push(std::mem::take(&mut record));
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote);
    }
    if !field.is_empty() || quoted || !record.is_empty() {
        end_field!();
        records.push(record);
    }
    Ok(records)
}

/// Parse CSV text into a table.
///
/// The first record is the header. Column types are given by `dtypes`
/// (matched positionally); pass all-`Str` via [`read_csv_strings`] when types
/// are unknown, or let [`read_csv_inferred`] type the integer columns.
pub fn read_csv(input: &str, dtypes: &[DType]) -> Result<Table, CsvError> {
    table_from_records(parse_records(input)?, dtypes)
}

/// Build a table from parsed records (header first) under `dtypes`.
fn table_from_records(records: Vec<Vec<Field>>, dtypes: &[DType]) -> Result<Table, CsvError> {
    let mut iter = records.into_iter();
    let header = iter.next().ok_or(CsvError::Empty)?;
    if header.len() != dtypes.len() {
        return Err(CsvError::ArityMismatch {
            line: 1,
            got: header.len(),
            expected: dtypes.len(),
        });
    }
    let schema = Schema::new(header.iter().zip(dtypes).map(|(f, d)| (f.text.clone(), *d)));
    let mut table = Table::empty(schema);
    for (i, rec) in iter.enumerate() {
        let line = i + 2;
        if rec.len() != dtypes.len() {
            return Err(CsvError::ArityMismatch {
                line,
                got: rec.len(),
                expected: dtypes.len(),
            });
        }
        let mut row = Vec::with_capacity(rec.len());
        for (j, f) in rec.iter().enumerate() {
            let v = if f.text.is_empty() && f.quoted && dtypes[j] == DType::Str {
                Value::Str(String::new())
            } else {
                Value::parse_as(&f.text, dtypes[j]).map_err(|e| CsvError::BadField {
                    line,
                    column: table.schema().attr(crate::schema::AttrId(j)).name.clone(),
                    message: e.to_string(),
                })?
            };
            row.push(v);
        }
        table.push_row(row);
    }
    Ok(table)
}

/// Parse CSV with every column typed as `Str`.
pub fn read_csv_strings(input: &str) -> Result<Table, CsvError> {
    let first_line = input.lines().next().ok_or(CsvError::Empty)?;
    let arity = parse_records(first_line)?
        .first()
        .map(|r| r.len())
        .ok_or(CsvError::Empty)?;
    read_csv(input, &vec![DType::Str; arity])
}

/// Parse CSV, typing integer columns as [`DType::Int`]: a column loads as
/// `Int` when it has a non-empty field and every non-empty field is an
/// unquoted `i64` in canonical decimal form, exactly what [`write_csv`]
/// writes for an `Int`, so such a table round-trips byte for byte. Every
/// other column loads as `Str` — floats, and integers written as `007`,
/// `+5` or `1e3`, included. Empty unquoted fields are nulls either way.
pub fn read_csv_inferred(input: &str) -> Result<Table, CsvError> {
    let records = parse_records(input)?;
    let arity = records.first().ok_or(CsvError::Empty)?.len();
    let dtypes: Vec<DType> = (0..arity)
        .map(|j| {
            let mut fields = records[1..]
                .iter()
                .filter_map(|record| record.get(j))
                .filter(|f| f.quoted || !f.text.is_empty())
                .peekable();
            let canonical_int = |f: &Field| {
                !f.quoted && f.text.parse::<i64>().is_ok_and(|n| n.to_string() == f.text)
            };
            if fields.peek().is_some() && fields.all(canonical_int) {
                DType::Int
            } else {
                DType::Str
            }
        })
        .collect();
    table_from_records(records, &dtypes)
}

fn escape_field(s: &str, force_quote: bool) -> String {
    if force_quote || s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// Serialize a table to CSV text (header + records, `\n` separators).
///
/// Nulls serialize to empty unquoted fields; empty strings to `""`, so
/// [`read_csv`] with the same dtypes round-trips.
pub fn write_csv(table: &Table) -> String {
    let mut out = String::new();
    let names: Vec<&str> = table.schema().names().collect();
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape_field(n, false));
    }
    out.push('\n');
    for r in 0..table.num_rows() {
        for (j, v) in table.row(r).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                Value::Null => {}
                Value::Str(s) => out.push_str(&escape_field(s, s.is_empty())),
                other => out.push_str(&other.render()),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::table::CellRef;

    #[test]
    fn basic_parse() {
        let t = read_csv("A,B\nx,1\ny,2\n", &[DType::Str, DType::Int]).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, AttrId(0)), &Value::str("x"));
        assert_eq!(t.value(1, AttrId(1)), &Value::int(2));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let t = read_csv_strings("A,B\n\"a,b\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.value(0, AttrId(0)), &Value::str("a,b"));
        assert_eq!(t.value(0, AttrId(1)), &Value::str("say \"hi\""));
    }

    #[test]
    fn embedded_newline_in_quoted_field() {
        let t = read_csv_strings("A\n\"line1\nline2\"\n").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, AttrId(0)), &Value::str("line1\nline2"));
    }

    #[test]
    fn crlf_line_endings() {
        let t = read_csv("A,B\r\nx,1\r\n", &[DType::Str, DType::Int]).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, AttrId(1)), &Value::int(1));
    }

    #[test]
    fn empty_field_is_null_but_quoted_empty_is_empty_string() {
        let t = read_csv_strings("A,B\n,\"\"\n").unwrap();
        assert_eq!(t.value(0, AttrId(0)), &Value::Null);
        assert_eq!(t.value(0, AttrId(1)), &Value::Str(String::new()));
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let err = read_csv("A,B\nx\n", &[DType::Str, DType::Str]).unwrap_err();
        assert_eq!(
            err,
            CsvError::ArityMismatch {
                line: 2,
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn bad_int_reports_column() {
        let err = read_csv("A,N\nx,notanint\n", &[DType::Str, DType::Int]).unwrap_err();
        match err {
            CsvError::BadField { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, "N");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert_eq!(
            read_csv_strings("A\n\"oops\n").unwrap_err(),
            CsvError::UnterminatedQuote
        );
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(read_csv_strings("").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn missing_trailing_newline_still_parses_last_record() {
        let t = read_csv("A\nx", &[DType::Str]).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn write_read_roundtrip_with_tricky_values() {
        let schema = Schema::new([("A", DType::Str), ("N", DType::Int), ("F", DType::Float)]);
        let mut t = Table::from_rows(
            schema,
            vec![
                vec![Value::str("plain"), Value::int(1), Value::float(2.5)],
                vec![Value::str("com,ma"), Value::Null, Value::float(-0.125)],
                vec![Value::Str(String::new()), Value::int(-7), Value::Null],
                vec![Value::str("qu\"ote"), Value::int(0), Value::float(1e10)],
            ],
        );
        t.set(CellRef::new(0, AttrId(0)), Value::str("multi\nline"));
        let text = write_csv(&t);
        let t2 = read_csv(&text, &[DType::Str, DType::Int, DType::Float]).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn inferred_integer_columns_need_canonical_decimals() {
        let t = read_csv_inferred(
            "Id,Zip,Sign,Sci,Mixed,Quoted,Float,Blank\n\
             -9000300,007,+5,1e3,1,\"2\",2.5,\n\
             ,10,6,4,x,3,1.0,\n\
             42,11,7,5,2,4,3,\n",
        )
        .unwrap();
        let ints: Vec<bool> = (0..t.arity())
            .map(|j| t.schema().attr(AttrId(j)).dtype == DType::Int)
            .collect();
        assert_eq!(
            ints,
            [true, false, false, false, false, false, false, false]
        );
        // Empty fields are nulls, in integer columns as anywhere else.
        assert_eq!(t.value(0, AttrId(0)), &Value::int(-9_000_300));
        assert_eq!(t.value(1, AttrId(0)), &Value::Null);
        assert_eq!(t.value(0, AttrId(1)), &Value::str("007"));
        assert_eq!(t.value(1, AttrId(4)), &Value::str("x"));
        assert_eq!(t.value(0, AttrId(7)), &Value::Null);
    }

    #[test]
    fn inferred_tables_round_trip_byte_for_byte() {
        let text = "Team,Year,Place,Note\nA,2019,1,\"\"\nB,-3,,\"a,b\"\n";
        let t = read_csv_inferred(text).unwrap();
        assert_eq!(t.schema().attr(AttrId(1)).dtype, DType::Int);
        assert_eq!(t.schema().attr(AttrId(2)).dtype, DType::Int);
        assert_eq!(write_csv(&t), text);
        assert_eq!(read_csv_inferred("").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn header_only_gives_empty_table() {
        let t = read_csv("A,B\n", &[DType::Str, DType::Str]).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.arity(), 2);
    }
}
