//! The paper's running example: the La Liga standings table of Figure 2,
//! the four denial constraints of Figure 1, and the paper's Algorithm 1.
//!
//! The table is 6 rows × 6 attributes `(Team, City, Country, League, Year,
//! Place)` — Example 2.4's coalition counting pins these dimensions down
//! exactly (8 "pair" cells + `t5[League]` + 27 remaining = 36 cells). The
//! dirty cells (red in Figure 2a) are `t5[City] = "Capital"` and
//! `t5[Country] = "España"`; the clean table (Figure 2b) has `"Madrid"` and
//! `"Spain"` there.
//!
//! Row contents are reconstructed from every constraint the paper states:
//!
//! * `t5[Team] = t3[Team] = "Real Madrid"` and `t3[City] = "Madrid"`,
//!   `t3[Country] = "Spain"` (the C1&C2 repair route of Example 2.4);
//! * rows `t1, t2, t3, t6` carry the pair `(League, Country) = ("La Liga",
//!   "Spain")` (the C3 route, `i ∈ {1,2,3,6}`);
//! * `t6[Team] = "Real Madrid"` (Example 1.1: a changed `t6[City]` would
//!   contradict `t3` under C1);
//! * `t4` must *not* carry the La Liga/Spain pair (it is not in Example
//!   2.4's index set), so it is a Premier League row;
//! * no two same-league/same-year rows share a `Place` (C4 is violation-free
//!   — its Shapley value is 0 in Figure 1).

use trex_constraints::{parse_dcs, DenialConstraint};
use trex_repair::{FixAction, Rule, RuleRepair};
use trex_table::{CellRef, DType, Table, TableBuilder, Value};

/// Attribute names of the standings schema, in order.
pub const ATTRS: [&str; 6] = ["Team", "City", "Country", "League", "Year", "Place"];

fn base_rows() -> Vec<[&'static str; 4]> {
    // (Team, City, Country, League) per row; Year/Place added below.
    vec![
        ["FC Barcelona", "Barcelona", "Spain", "La Liga"],
        ["Atletico Madrid", "Madrid", "Spain", "La Liga"],
        ["Real Madrid", "Madrid", "Spain", "La Liga"],
        ["Manchester City", "Manchester", "England", "Premier League"],
        ["Real Madrid", "Capital", "España", "La Liga"],
        ["Real Madrid", "Madrid", "Spain", "La Liga"],
    ]
}

const YEARS: [i64; 6] = [2019, 2019, 2019, 2019, 2018, 2017];
const PLACES: [i64; 6] = [1, 2, 3, 1, 1, 1];

fn build(rows: Vec<[&'static str; 4]>) -> Table {
    let mut b = TableBuilder::new()
        .column("Team", DType::Str)
        .column("City", DType::Str)
        .column("Country", DType::Str)
        .column("League", DType::Str)
        .column("Year", DType::Int)
        .column("Place", DType::Int);
    for (i, r) in rows.into_iter().enumerate() {
        b = b.row([
            Value::str(r[0]),
            Value::str(r[1]),
            Value::str(r[2]),
            Value::str(r[3]),
            Value::int(YEARS[i]),
            Value::int(PLACES[i]),
        ]);
    }
    b.build()
}

/// The dirty table `T^d` of Figure 2a.
pub fn dirty_table() -> Table {
    build(base_rows())
}

/// The clean table `T^c` of Figure 2b: `t5[City] → "Madrid"`,
/// `t5[Country] → "Spain"`.
pub fn clean_table() -> Table {
    let mut rows = base_rows();
    rows[4][1] = "Madrid";
    rows[4][2] = "Spain";
    build(rows)
}

/// The four denial constraints of Figure 1.
///
/// * C1: same `Team` ⇒ same `City`
/// * C2: same `City` ⇒ same `Country`
/// * C3: same `League` ⇒ same `Country`
/// * C4: two different teams of the same league cannot finish in the same
///   place in the same year
pub fn constraints() -> Vec<DenialConstraint> {
    parse_dcs(
        "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n\
         C2: !(t1.City = t2.City & t1.Country != t2.Country)\n\
         C3: !(t1.League = t2.League & t1.Country != t2.Country)\n\
         C4: !(t1.Team != t2.Team & t1.Year = t2.Year & t1.League = t2.League & t1.Place = t2.Place)\n",
    )
    .expect("the paper's constraints parse")
}

/// The paper's Algorithm 1, as a [`RuleRepair`]:
///
/// 1. C1 violation ⇒ `City ← argmax_c P[City = c]`
/// 2. C2 violation ⇒ `Country ← argmax_c P[Country = c | City = t[City]]`
/// 3. C3 violation ⇒ `Country ← argmax_c P[Country = c]`
/// 4. C4 violation ⇒ `Place ← argmax_p P[Place = p | Team = t[Team]]`
pub fn algorithm1() -> RuleRepair {
    RuleRepair::new(vec![
        Rule::new(
            "C1",
            FixAction::MostCommon {
                attr: "City".to_string(),
            },
        ),
        Rule::new(
            "C2",
            FixAction::MostCommonGiven {
                attr: "Country".to_string(),
                given: "City".to_string(),
            },
        ),
        Rule::new(
            "C3",
            FixAction::MostCommon {
                attr: "Country".to_string(),
            },
        ),
        Rule::new(
            "C4",
            FixAction::MostCommonGiven {
                attr: "Place".to_string(),
                given: "Team".to_string(),
            },
        ),
    ])
}

/// Scale the paper's single-league world to ≈ `rows` standings rows: one
/// country (Spain / La Liga), 20 teams in 10 cities, one season per 20
/// rows (`rows` is rounded up to a whole season). Clean by construction
/// for all four [`constraints`].
///
/// Note the scan-cost caveat: with a single league, C3's equality bucket
/// is the *entire table*, so violation detection is quadratic in `rows` —
/// useful as a worst-case stress shape (that is what the giant-bucket
/// splitter spreads across workers), but keep row counts modest. The
/// multi-league [`crate::soccer`] generator is the linear-scaling
/// counterpart.
pub fn generate_standings(rows: usize, seed: u64) -> Table {
    let config = crate::soccer::SoccerConfig {
        countries: 1,
        cities_per_country: 10,
        teams_per_city: 2,
        years: rows.div_ceil(20).max(1),
        seed,
    };
    crate::soccer::generate_clean(&config)
}

/// The paper's cell of interest: `t5[Country]` (0-based row 4).
pub fn cell_of_interest(table: &Table) -> CellRef {
    CellRef::new(4, table.schema().id("Country"))
}

/// The other repaired cell: `t5[City]` (Example 2.2's cell).
pub fn city_cell(table: &Table) -> CellRef {
    CellRef::new(4, table.schema().id("City"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_constraints::{find_all_violations_par, find_violations};
    use trex_repair::RepairAlgorithm;

    #[test]
    fn dimensions_match_example_2_4() {
        let t = dirty_table();
        assert_eq!(t.num_rows(), 6);
        assert_eq!(t.arity(), 6);
        assert_eq!(t.num_cells(), 36);
    }

    #[test]
    fn dirty_cells_are_as_in_figure_2a() {
        let t = dirty_table();
        assert_eq!(t.get(city_cell(&t)), &Value::str("Capital"));
        assert_eq!(t.get(cell_of_interest(&t)), &Value::str("España"));
    }

    #[test]
    fn clean_table_is_figure_2b() {
        let d = dirty_table();
        let c = clean_table();
        let diff = trex_table::diff(&d, &c);
        assert_eq!(diff.len(), 2);
        assert_eq!(c.get(city_cell(&c)), &Value::str("Madrid"));
        assert_eq!(c.get(cell_of_interest(&c)), &Value::str("Spain"));
    }

    #[test]
    fn clean_table_satisfies_all_constraints() {
        let c = clean_table();
        let resolved: Vec<DenialConstraint> = constraints()
            .iter()
            .map(|d| d.resolved(c.schema()).unwrap())
            .collect();
        assert!(find_all_violations_par(&resolved, &c, 1).is_empty());
    }

    #[test]
    fn the_c3_pairs_are_rows_1_2_3_6() {
        // Example 2.4: the (League, Country) = (La Liga, Spain) pairs sit in
        // rows t1, t2, t3, t6 (1-based).
        let t = dirty_table();
        let league = t.schema().id("League");
        let country = t.schema().id("Country");
        let pair_rows: Vec<usize> = (0..6)
            .filter(|&r| {
                t.value(r, league) == &Value::str("La Liga")
                    && t.value(r, country) == &Value::str("Spain")
            })
            .collect();
        assert_eq!(pair_rows, vec![0, 1, 2, 5]);
    }

    #[test]
    fn c4_has_no_violations_in_the_dirty_table() {
        // Figure 1 assigns C4 Shapley value 0; it must not even fire.
        let t = dirty_table();
        let c4 = constraints()[3].resolved(t.schema()).unwrap();
        assert!(find_violations(&c4, &t).is_empty());
    }

    #[test]
    fn algorithm1_repairs_figure_2a_to_figure_2b() {
        let r = algorithm1().repair(&constraints(), &dirty_table());
        assert_eq!(r.clean, clean_table());
        assert_eq!(r.changes.len(), 2);
    }

    #[test]
    fn example_2_2_with_and_without_c1() {
        // Alg|t5[City]({C1,C2,C3}, T^d) = 1 but ({C2,C3}, T^d) = 0.
        let t = dirty_table();
        let alg = algorithm1();
        let cs = constraints();
        let cell = city_cell(&t);
        let madrid = Value::str("Madrid");
        assert!(trex_repair::repairs_cell_to(
            &alg,
            &cs[..3],
            &t,
            cell,
            &madrid
        ));
        assert!(!trex_repair::repairs_cell_to(
            &alg,
            &cs[1..3],
            &t,
            cell,
            &madrid
        ));
    }

    #[test]
    fn repair_happens_iff_c3_or_c1c2_present() {
        // The characteristic function of Example 2.3, enumerated over all
        // 16 constraint subsets.
        let t = dirty_table();
        let alg = algorithm1();
        let cs = constraints();
        let cell = cell_of_interest(&t);
        let spain = Value::str("Spain");
        for mask in 0u32..16 {
            let subset: Vec<DenialConstraint> = (0..4)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| cs[i].clone())
                .collect();
            let expected = (mask >> 2 & 1 == 1) || (mask & 0b11 == 0b11);
            let got = trex_repair::repairs_cell_to(&alg, &subset, &t, cell, &spain);
            assert_eq!(got, expected, "mask {mask:#06b}");
        }
    }
}
