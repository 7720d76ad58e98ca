//! Extension experiment X1: Shapley interaction indices and Banzhaf values
//! for the paper's constraint game.
//!
//! Example 2.3 explains *in prose* that C1 and C2 matter only "as a pair"
//! while C3 acts alone; the interaction index makes that machine-checkable:
//! `I(C1,C2) > 0` (complements), `I(C1,C3) < 0` (substitutes), and every
//! interaction with the dummy C4 is zero. Banzhaf values confirm the
//! ranking is not an artifact of Shapley's coalition-size weighting.
//!
//! Both solvers run on the game behind the Shapley explanation: a
//! `ConstraintGame` over the explanation's repair target.
//!
//! Run: `cargo run --release -p trex-bench --bin exp_interaction`

use trex::{ConstraintGame, Explainer};
use trex_datagen::laliga;
use trex_shapley::{banzhaf_exact, shapley_interaction_exact, Game};

fn main() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let ex = Explainer::new(&alg);
    let cell = laliga::cell_of_interest(&dirty);

    let shapley = ex.explain_constraints(&dcs, &dirty, cell).unwrap();
    let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, shapley.target.clone());
    let banzhaf = banzhaf_exact(&game).unwrap();
    let m = shapley_interaction_exact(&game).unwrap();
    let labels: Vec<String> = (0..dcs.len()).map(|i| game.player_label(i)).collect();

    println!("constraint attribution for the repair of t5[Country] → Spain\n");
    println!("{:<5} {:>10} {:>10}", "DC", "Shapley", "Banzhaf");
    for (l, b) in labels.iter().zip(&banzhaf) {
        println!(
            "{:<5} {:>10.4} {:>10.4}",
            l,
            shapley.ranking.get(l).unwrap().value,
            b,
        );
    }

    println!("\npairwise Shapley interaction indices (+ complements, − substitutes):\n");
    print!("{:<5}", "");
    for l in &labels {
        print!("{l:>9}");
    }
    println!();
    for (i, l) in labels.iter().enumerate() {
        print!("{l:<5}");
        for (j, value) in m[i].iter().enumerate() {
            if i == j {
                print!("{:>9}", "·");
            } else {
                print!("{value:>9.4}");
            }
        }
        println!();
    }
    println!(
        "\nreading: I(C1,C2) = {:+.4} > 0 — the pair carries the C1∧C2 repair\n\
         route together (the paper: \"the contribution of C1 and C2, as a\n\
         pair, is half that of C3\"); I(C1,C3) = {:+.4} < 0 — C3 makes C1\n\
         redundant; C4 is a dummy with all-zero interactions.",
        m[0][1], m[0][2]
    );
    assert!(m[0][1] > 0.0 && m[0][2] < 0.0 && m[0][3] == 0.0);
}
