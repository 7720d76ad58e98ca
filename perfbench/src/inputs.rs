//! Workload inputs as text, and the set-up that turns them into a session.
//!
//! Inputs are generated from the workload seed before set-up, rendered to
//! the CSV, `.dcs` and `.rules` text formats, and parsed back through the
//! same calls the CLI uses (`read_csv_strings`, `parse_dcs`,
//! `RuleRepair::parse_rules`). The program only ever sees the text.

use trex::Session;
use trex_constraints::DenialConstraint;
use trex_datagen::{
    generate_scenario, laliga, ErrorRates, InjectionResult, Scenario, ScenarioConfig, SchemaKind,
};
use trex_repair::RuleRepair;

use crate::trace::{SpanId, Tracer};

/// Rows of the soccer scenario behind `loop-soccer2k` and `serve-soccer2k`.
const SOCCER_ROWS: usize = 2000;
/// Total error rate of that scenario (exact accounting): about 24 dirty
/// cells, of which the repair changes about 18–20.
const SOCCER_ERROR_RATE: f64 = 0.002;

/// One workload's inputs as the text files a user would hand the CLI.
pub struct Inputs {
    /// The dirty table as CSV.
    pub csv: String,
    /// The denial constraints, one `name: !(…)` per line.
    pub dcs: String,
    /// Algorithm 1 as a rule list.
    pub rules: String,
    /// `Scenario::fingerprint` of the generated corpus member.
    pub fingerprint: u64,
}

fn render(scenario: &Scenario) -> Inputs {
    let dcs: Vec<String> = scenario
        .constraints
        .iter()
        .map(DenialConstraint::to_string)
        .collect();
    Inputs {
        csv: trex_table::write_csv(scenario.dirty()),
        dcs: dcs.join("\n") + "\n",
        rules: scenario.repairer.rules_text(),
        fingerprint: scenario.fingerprint(),
    }
}

/// The `soccer` scenario: about 2,000 standings rows of 166 leagues.
pub fn soccer2k(seed: u64) -> Inputs {
    let mut config = ScenarioConfig::new(SchemaKind::Soccer, SOCCER_ROWS, seed);
    config.error.rates = Some(ErrorRates::split(SOCCER_ERROR_RATE));
    render(&generate_scenario(&config))
}

/// The paper's Figure 2 inputs: the La Liga table, the four constraints of
/// Figure 1 and Algorithm 1 (what `data/laliga_dirty.csv`, `data/laliga.dcs`
/// and `data/algorithm1.rules` hold).
pub fn figure2() -> Inputs {
    let clean = laliga::clean_table();
    let dirty = laliga::dirty_table();
    let truth = trex_table::diff(&dirty, &clean);
    render(&Scenario {
        clean,
        injection: InjectionResult { dirty, truth },
        constraints: laliga::constraints(),
        repairer: laliga::algorithm1(),
    })
}

/// From input text to a session ready for its first request (library and
/// server default: one thread), with one span per parser and one around
/// `Session::new` under `parent`.
pub fn session(inputs: &Inputs, tr: &Tracer, parent: SpanId, req: u64) -> Session {
    let (table, _) = tr.span("table.load", parent, req, |_| {
        trex_table::read_csv_strings(&inputs.csv).expect("generated CSV parses")
    });
    let (dcs, _) = tr.span("constraints.parse", parent, req, |_| {
        trex_constraints::parse_dcs(&inputs.dcs).expect("generated constraints parse")
    });
    let (alg, _) = tr.span("repair.parse_rules", parent, req, |_| {
        RuleRepair::parse_rules(&inputs.rules).expect("generated rules parse")
    });
    tr.span("session.new", parent, req, |_| {
        Session::new(Box::new(alg), table, dcs)
    })
    .0
}
