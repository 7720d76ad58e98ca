//! `trex` — the T-REx system as a command-line tool.
//!
//! Mirrors the demo's three screens (paper §3/§4) over files instead of a
//! web GUI:
//!
//! ```text
//! trex violations --table dirty.csv --dcs constraints.txt
//! trex repair     --table dirty.csv --dcs constraints.txt --engine holoclean
//! trex explain    --table dirty.csv --dcs constraints.txt --cell t5.Country \
//!                 --engine rules --rules algorithm1.rules --cells --samples 500
//! trex demo
//! ```
//!
//! Engines: `holoclean` (default; add `--train` for perceptron calibration),
//! `rules` (requires `--rules FILE` in the `C1: Attr <- action` syntax),
//! `chase`, `holistic`.

mod args;

use args::{ArgError, Args};
use std::process::ExitCode;
use trex::{
    render_explanation_screen, render_input_screen, render_repair_screen, AdaptiveConfig,
    Explainer, MaskMode, Session,
};
use trex_constraints::{find_all_violations_par, parse_dcs, DenialConstraint};
use trex_repair::{FdChaseRepair, HolisticRepair, HoloCleanStyle, RepairAlgorithm, RuleRepair};
use trex_shapley::{ExecConfig, SamplingConfig};
use trex_table::{read_csv_inferred, CellRef, Table};

const USAGE: &str = "\
trex — table repair explanations via Shapley values

USAGE:
  trex violations --table FILE.csv --dcs FILE.txt [exec flags]
  trex repair     --table FILE.csv --dcs FILE.txt [exec flags] [engine flags]
  trex explain    --table FILE.csv --dcs FILE.txt --cell tROW.Attr
                  [--cells] [--samples N] [--mask null|distinct|replace]
                  [--adaptive] [--tolerance F] [--batch N] [--max-samples N]
                  [exec flags] [engine flags]
  trex serve      --table FILE.csv --dcs FILE.txt [--addr HOST:PORT]
                  [--http-threads N] [exec flags] [engine flags]
  trex lint       --table FILE.csv --dcs FILE.txt [--rules FILE] [--json]
                  [exec flags]
  trex mine       --table FILE.csv [--max-predicates N] [--order]
  trex datagen    --schema laliga|soccer|adult|sensor [--rows N] [--seed N]
                  [--rate F] [--skew F] [--out DIR]
  trex demo

ENGINE FLAGS:
  --engine holoclean   probabilistic cleaner (default); add --train to calibrate
  --engine rules       the paper's Algorithm 1 scheme; requires --rules FILE
  --engine chase       FD-chase baseline
  --engine holistic    conflict-hypergraph baseline

EXEC FLAGS:
  --threads N, --oracle-cap N, and --seed N form one execution-
  configuration surface, parsed identically by violations, repair, and
  explain (each command consumes the knobs that apply to it).
  --threads N (default: all hardware threads; 0 also means that) runs
  explain's cell sampling and the row-pair violation scan of violations
  and repair on N workers. Output is identical at ANY thread count: the
  cell rankings are the serial estimator's, bit for bit, so --threads is
  a wall-time knob only. --seed N (default 0) seeds explain's sampling;
  --adaptive samples each cell in --batch-sized rounds, each from its own
  seed laddered off --seed.
  Every violation scan skips the constraints the static analyzer proves
  can never be violated (run trex lint to see which); they have no
  witnesses to report.

LINT:
  trex lint runs the static analyzer over a constraint program: schema
  typecheck (unknown attributes, type mismatches), per-constraint
  satisfiability (contradictions, empty intervals, tautologies), pairwise
  subsumption, and a per-constraint scan-cost plan. Exit code 1 if any
  error-severity diagnostic is found, 0 otherwise (warnings don't fail).
  violations, repair, explain and serve refuse a program with an
  error-severity finding the same way (exit 1, the diagnostic on stderr).
  --json emits one machine-readable document instead of text.
  --rules FILE also checks a rule list (the --engine rules syntax) the
  way repair, explain and serve load it: every rule must name a
  constraint of --dcs and columns of --table, else lint fails with that
  error (exit 1).

ORACLE CAPACITY:
  --oracle-cap N bounds the repair-oracle memo cache to N entries
  (second-chance eviction once full; 0 disables caching). explain keeps
  one cache for the constraint explanation and the cell ranking, and
  serve one for its session, shared by every request. An entry is one
  repair, shared by the repair target and every constraint coalition over
  the same program and table, or one answer of the masked cell game.
  Results are identical at any capacity — a smaller cache only recomputes
  more. Default: 1048576 entries.

SERVE:
  trex serve loads one (table, constraints, engine) triple and answers
  HTTP/JSON requests on --addr (default 127.0.0.1:7878) with
  --http-threads workers (default 4) over one shared session: GET
  /health, GET /violations, POST /repair, GET /explain (add
  budget_ms=N or stream=1 for the anytime chunked NDJSON stream of
  running Shapley estimates), POST /cell, POST and DELETE /constraint.
  Every endpoint takes threads and seed as query parameters (threads=4&
  seed=7), validated exactly like the command-line flags; exec flags
  given to serve itself set the session defaults. A parameter a request
  leaves unset takes serve's value, and a request's threads is capped at
  serve's --threads. serve's --oracle-cap sizes the one session cache
  every request shares; a request cannot change it (oracle-cap is an
  unknown parameter).

DATAGEN:
  trex datagen generates a scenario-corpus member and writes the files the
  other subcommands consume: SCHEMA_clean.csv, SCHEMA_dirty.csv (with
  injected errors), SCHEMA.dcs (constraints in the paper syntax),
  SCHEMA.rules (the schema's Algorithm 1 for --engine rules), and
  SCHEMA_truth.tsv (the injected-error ground truth, cell/from/to). --rate
  is the total error rate, split across typo/swap/null/out-of-domain/
  duplicate kinds with exact integer accounting; --skew is the Zipf
  exponent for sensor keys and duplicate donors; the same --seed always
  reproduces byte-identical files.

ADAPTIVE BUDGET (explain --cells --adaptive):
  instead of a fixed --samples per cell, each cell is sampled under
  replacement semantics until its 95%-confidence half-width drops below
  --tolerance (default 0.05) or its --max-samples budget (default 10000)
  runs out, in --batch-sized rounds (default 100); cells with tight
  estimates stop early and the budget concentrates on contested ones.
  Not combinable with --mask (adaptive implies replacement semantics).

FILES:
  tables are CSV with a header row; a column whose every non-empty field
  is a plain integer (2019, -3; not 007, +5 or 1e3) reads as integers,
  every other column as strings (floats included);
  constraints use the paper syntax, one per line:
      C1: !(t1.Team = t2.Team & t1.City != t2.City)
  rule files (for --engine rules), one per line:
      C1: City <- most_common
      C2: Country <- most_common_given(City)
";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("violations") => cmd_violations(&args).map(|()| ExitCode::SUCCESS),
        Some("repair") => cmd_repair(&args).map(|()| ExitCode::SUCCESS),
        Some("explain") => cmd_explain(&args).map(|()| ExitCode::SUCCESS),
        Some("serve") => cmd_serve(&args).map(|()| ExitCode::SUCCESS),
        Some("lint") => cmd_lint(&args),
        Some("mine") => cmd_mine(&args).map(|_| ExitCode::SUCCESS),
        Some("datagen") => cmd_datagen(&args).map(|()| ExitCode::SUCCESS),
        Some("demo") => cmd_demo(&args).map(|()| ExitCode::SUCCESS),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(ArgError(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load a CSV table the one way every subcommand does: integer columns
/// typed as integers, every other column as strings (see
/// [`read_csv_inferred`]).
fn load_table(path: &str) -> Result<Table, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    read_csv_inferred(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

/// Read `--table` and `--dcs` as written: the program `trex lint` reports
/// on.
fn read_inputs(args: &Args) -> Result<(Table, Vec<DenialConstraint>), ArgError> {
    let table = load_table(args.require("table")?)?;
    let dcs_path = args.require("dcs")?;
    let dcs_text = std::fs::read_to_string(dcs_path)
        .map_err(|e| ArgError(format!("cannot read {dcs_path}: {e}")))?;
    let dcs = parse_dcs(&dcs_text).map_err(|e| ArgError(format!("{dcs_path}: {e}")))?;
    Ok((table, dcs))
}

/// Load `--table` and `--dcs` for violations, repair, explain and serve,
/// failing closed: every constraint must resolve against the table, and
/// the program must have none of the error-severity findings `trex lint`
/// exits 1 on (`TREX-E001`–`E003`, see `trex_constraints::typecheck`). A
/// predicate that can never hold would make its constraint silently
/// unviolable.
fn load_inputs(args: &Args) -> Result<(Table, Vec<DenialConstraint>), ArgError> {
    let (table, dcs) = read_inputs(args)?;
    resolve_all(&table, &dcs)?;
    if let Err(errors) = trex_constraints::typecheck(&dcs, table.schema()) {
        let rendered: Vec<String> = errors.iter().map(|d| d.render()).collect();
        let dcs_path = args.require("dcs")?;
        return Err(ArgError(format!("{dcs_path}: {}", rendered.join("\n"))));
    }
    Ok((table, dcs))
}

/// Build the selected engine under the shared execution configuration
/// (engines consume its thread count for their violation scans; `chase`
/// does no violation scanning, so the config is a no-op for it). A rule
/// list must name only columns of `table` and constraints of `dcs`.
fn load_engine(
    args: &Args,
    cfg: &ExecConfig,
    table: &Table,
    dcs: &[DenialConstraint],
) -> Result<Box<dyn RepairAlgorithm>, ArgError> {
    match args.get("engine").unwrap_or("holoclean") {
        "holoclean" => {
            let engine = if args.has("train") {
                HoloCleanStyle::new().with_training()
            } else {
                HoloCleanStyle::new()
            };
            Ok(Box::new(engine.with_exec(cfg)))
        }
        "rules" => {
            let path = args
                .require("rules")
                .map_err(|_| ArgError("--engine rules requires --rules FILE".to_string()))?;
            Ok(Box::new(load_rules(path, table, dcs)?.with_exec(cfg)))
        }
        "chase" => Ok(Box::new(FdChaseRepair::new())),
        "holistic" => Ok(Box::new(HolisticRepair::new().with_exec(cfg))),
        other => Err(ArgError(format!(
            "unknown engine {other:?} (holoclean | rules | chase | holistic)"
        ))),
    }
}

/// Read and parse the rule list at `path`, and check that it names only
/// columns of `table` and constraints of `dcs`.
fn load_rules(path: &str, table: &Table, dcs: &[DenialConstraint]) -> Result<RuleRepair, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let rules = RuleRepair::parse_rules(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    rules
        .check_against(table.schema(), dcs)
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    Ok(rules)
}

/// Parse a cell reference like `t5.Country` or `5.Country` (1-based row).
fn parse_cell(table: &Table, spec: &str) -> Result<CellRef, ArgError> {
    let (row_part, attr_part) = spec
        .split_once('.')
        .ok_or_else(|| ArgError(format!("--cell {spec:?}: expected tROW.Attr")))?;
    let row_text = row_part.strip_prefix('t').unwrap_or(row_part);
    let row: usize = row_text
        .parse()
        .map_err(|_| ArgError(format!("--cell {spec:?}: bad row {row_text:?}")))?;
    if row == 0 || row > table.num_rows() {
        return Err(ArgError(format!(
            "--cell {spec:?}: row {row} out of range 1..={}",
            table.num_rows()
        )));
    }
    let attr = table
        .schema()
        .resolve(attr_part)
        .ok_or_else(|| ArgError(format!("--cell {spec:?}: no attribute {attr_part:?}")))?;
    Ok(CellRef::new(row - 1, attr))
}

/// Resolve every constraint against the table's schema; the first
/// attribute that does not resolve is the command's error.
fn resolve_all(table: &Table, dcs: &[DenialConstraint]) -> Result<Vec<DenialConstraint>, ArgError> {
    dcs.iter()
        .map(|d| d.resolved(table.schema()))
        .collect::<Result<_, _>>()
        .map_err(|e| ArgError(e.to_string()))
}

fn cmd_violations(args: &Args) -> Result<(), ArgError> {
    let (table, dcs) = load_inputs(args)?;
    let cfg = args.exec_config()?;
    args.reject_unknown()?;
    let resolved = resolve_all(&table, &dcs)?;
    println!("{}", render_input_screen(&table, &dcs));
    let violations = find_all_violations_par(&resolved, &table, cfg.threads());
    if violations.is_empty() {
        println!("table is clean: no violations.");
        return Ok(());
    }
    println!("{} violation(s):", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    Ok(())
}

fn cmd_repair(args: &Args) -> Result<(), ArgError> {
    let (table, dcs) = load_inputs(args)?;
    let cfg = args.exec_config()?;
    let engine = load_engine(args, &cfg, &table, &dcs)?;
    args.reject_unknown()?;
    let result = engine.repair(&dcs, &table);
    println!("engine: {}\n", engine.name());
    println!("{}", render_repair_screen(&table, &result.changes));
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), ArgError> {
    let (table, dcs) = load_inputs(args)?;
    let cfg = args.exec_config()?;
    let engine = load_engine(args, &cfg, &table, &dcs)?;
    let cell_spec = args.require("cell")?.to_string();
    let cell = parse_cell(&table, &cell_spec)?;
    let want_cells = args.has("cells");
    let samples_given = args.get("samples").is_some();
    let samples: usize = args.get_parsed("samples", 500)?;
    let seed: u64 = cfg.seed().unwrap_or(0);
    let adaptive = args.has("adaptive");
    let adaptive_flags_given = ["tolerance", "batch", "max-samples"]
        .iter()
        .find(|f| args.get(f).is_some());
    let tolerance: f64 = args.get_parsed("tolerance", 0.05)?;
    let batch: usize = args.get_parsed("batch", 100)?;
    let max_samples: usize = args.get_parsed("max-samples", 10_000)?;
    let mask = args.get("mask").map(str::to_string);
    args.reject_unknown()?;
    if adaptive && mask.is_some() {
        return Err(ArgError(
            "--adaptive implies replacement semantics; drop --mask".to_string(),
        ));
    }
    if adaptive && !want_cells {
        return Err(ArgError(
            "--adaptive only affects cell explanations; add --cells".to_string(),
        ));
    }
    if adaptive && samples_given {
        return Err(ArgError(
            "--adaptive budgets with --tolerance/--batch/--max-samples, not --samples".to_string(),
        ));
    }
    if let (false, Some(flag)) = (adaptive, adaptive_flags_given) {
        return Err(ArgError(format!("--{flag} requires --adaptive")));
    }
    if tolerance <= 0.0 || tolerance.is_nan() {
        return Err(ArgError(format!(
            "--tolerance must be positive (got {tolerance})"
        )));
    }
    if batch == 0 {
        return Err(ArgError("--batch must be at least 1".to_string()));
    }

    let explainer = Explainer::new(engine.as_ref()).with_config(cfg);
    let constraints = explainer
        .explain_constraints(&dcs, &table, cell)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut adaptive_note = None;
    let cells = if want_cells && adaptive {
        let config = AdaptiveConfig {
            tolerance,
            batch,
            max_samples,
            seed,
        };
        let (out, converged) = explainer
            .explain_cells_adaptive(&dcs, &table, cell, config)
            .map_err(|e| ArgError(e.to_string()))?;
        let done = converged.iter().filter(|c| **c).count();
        adaptive_note = Some(format!(
            "adaptive budget: {done}/{} cells converged to ±{tolerance} \
             (95% CI; batch {batch}, cap {max_samples} samples/cell)",
            converged.len()
        ));
        Some(out)
    } else if want_cells {
        let config = SamplingConfig { samples, seed };
        let out = match mask.as_deref().unwrap_or("null") {
            "replace" => explainer.explain_cells_sampled(&dcs, &table, cell, config),
            "null" => explainer.explain_cells_masked(&dcs, &table, cell, MaskMode::Null, config),
            "distinct" => {
                explainer.explain_cells_masked(&dcs, &table, cell, MaskMode::Distinct, config)
            }
            other => {
                return Err(ArgError(format!(
                    "unknown mask {other:?} (null | distinct | replace)"
                )))
            }
        };
        Some(out.map_err(|e| ArgError(e.to_string()))?)
    } else {
        None
    };
    println!("engine: {}\n", engine.name());
    println!(
        "{}",
        render_explanation_screen(&cell_spec, Some(&constraints), cells.as_ref())
    );
    if let Some(note) = adaptive_note {
        println!("{note}");
    }
    Ok(())
}

/// `trex serve`: load one (table, constraints, engine) triple and answer
/// HTTP/JSON requests over a shared long-lived session until interrupted.
fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    let (table, dcs) = load_inputs(args)?;
    let cfg = args.exec_config()?;
    let engine = load_engine(args, &cfg, &table, &dcs)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let http_threads: usize = args.get_parsed("http-threads", 4)?;
    args.reject_unknown()?;
    if http_threads == 0 {
        return Err(ArgError("--http-threads must be at least 1".to_string()));
    }
    let session = Session::new(engine, table, dcs).with_config(cfg);
    let config = trex_server::ServerConfig { addr, http_threads };
    let handle = trex_server::serve(session, &config)
        .map_err(|e| ArgError(format!("cannot bind {}: {e}", config.addr)))?;
    println!("trex-server listening on {}", handle.url());
    println!("  try: curl '{}/violations'", handle.url());
    println!(
        "       curl '{}/explain?cell=tROW.Attr&budget_ms=2000'",
        handle.url()
    );
    handle.join();
    Ok(())
}

/// `trex lint`: run the static analyzer over a constraint program and
/// report diagnostics plus the scan-cost plan. Exit code 1 iff any
/// error-severity diagnostic was found (warnings and infos exit 0), or
/// iff the `--rules` list fails the check `load_engine` runs.
fn cmd_lint(args: &Args) -> Result<ExitCode, ArgError> {
    let (table, dcs) = read_inputs(args)?;
    // Lint shares the exec-flag group with the scan commands so pipelines
    // can pass one flag set everywhere; none of the flags changes its
    // report.
    let _cfg = args.exec_config()?;
    let json = args.has("json");
    let rules = args.get("rules").map(str::to_string);
    args.reject_unknown()?;
    if let Some(path) = rules {
        load_rules(&path, &table, &dcs)?;
    }
    let analysis = trex_constraints::analyze_with_table(&dcs, &table);
    let (errors, warnings, infos) = analysis.counts();
    if json {
        let diags = analysis
            .diagnostics
            .iter()
            .map(|d| format!("    {}", d.to_json()))
            .collect::<Vec<_>>()
            .join(",\n");
        let plans = analysis
            .plans
            .iter()
            .map(|p| format!("    {}", p.to_json()))
            .collect::<Vec<_>>()
            .join(",\n");
        println!("{{");
        println!("  \"diagnostics\": [\n{diags}\n  ],");
        println!("  \"plans\": [\n{plans}\n  ],");
        println!(
            "  \"summary\": {{ \"constraints\": {}, \"errors\": {errors}, \
             \"warnings\": {warnings}, \"infos\": {infos} }}",
            dcs.len()
        );
        println!("}}");
    } else {
        for d in &analysis.diagnostics {
            println!("{d}");
        }
        if !analysis.plans.is_empty() {
            println!("\nscan plan ({} rows):", table.num_rows());
            for p in &analysis.plans {
                let joins = if p.join_attrs.is_empty() {
                    String::new()
                } else {
                    format!(" on {}", p.join_attrs.join(", "))
                };
                println!(
                    "  {:<12} {}{joins}: ~{} candidate pair(s)",
                    p.name,
                    p.strategy.label(),
                    p.estimated_pairs
                );
            }
        }
        println!(
            "\n{} constraint(s): {errors} error(s), {warnings} warning(s), {infos} info(s)",
            dcs.len()
        );
    }
    Ok(if analysis.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Print the table's minimal denial constraints, and return them.
fn cmd_mine(args: &Args) -> Result<Vec<DenialConstraint>, ArgError> {
    let table_path = args.require("table")?.to_string();
    let max_predicates: usize = args.get_parsed("max-predicates", 3)?;
    let order = args.has("order");
    args.reject_unknown()?;
    let table = load_table(&table_path)?;
    let dcs = trex_constraints::mine_dcs(
        &table,
        &trex_constraints::MineConfig {
            max_predicates,
            order_predicates: order,
        },
    );
    println!(
        "# {} minimal denial constraint(s) mined from {} ({} rows)",
        dcs.len(),
        table_path,
        table.num_rows()
    );
    for dc in &dcs {
        println!("{dc}");
    }
    Ok(dcs)
}

fn cmd_datagen(args: &Args) -> Result<(), ArgError> {
    use trex_datagen::{generate_scenario, ErrorRates, ScenarioConfig, SchemaKind};
    let schema: SchemaKind = args
        .require("schema")?
        .parse()
        .map_err(|e: String| ArgError(e))?;
    let rows: usize = args.get_parsed("rows", 1000)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let rate: f64 = args.get_parsed("rate", 0.005)?;
    let skew: f64 = args.get_parsed("skew", 1.0)?;
    let out_dir = args.get("out").unwrap_or(".").to_string();
    args.reject_unknown()?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(ArgError(format!("--rate must be in 0..=1 (got {rate})")));
    }
    if !skew.is_finite() || skew < 0.0 {
        return Err(ArgError(format!(
            "--skew must be finite and >= 0 (got {skew})"
        )));
    }

    let mut config = ScenarioConfig::new(schema, rows, seed);
    config.error.rates = Some(ErrorRates::split(rate));
    config.error.duplicate_skew = skew;
    config.sensor.skew = skew;
    let scenario = generate_scenario(&config);

    let dir = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(dir).map_err(|e| ArgError(format!("cannot create {out_dir}: {e}")))?;
    let write = |name: String, contents: String| -> Result<String, ArgError> {
        let path = dir.join(&name);
        std::fs::write(&path, contents)
            .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
        Ok(path.display().to_string())
    };
    let mut truth = String::new();
    for ch in &scenario.injection.truth {
        truth.push_str(&format!("{}\t{}\t{}\n", ch.cell, ch.from, ch.to));
    }
    let mut dcs_text = String::new();
    for dc in &scenario.constraints {
        dcs_text.push_str(&format!("{dc}\n"));
    }
    let files = [
        write(
            format!("{schema}_clean.csv"),
            trex_table::write_csv(&scenario.clean),
        )?,
        write(
            format!("{schema}_dirty.csv"),
            trex_table::write_csv(scenario.dirty()),
        )?,
        write(format!("{schema}.dcs"), dcs_text)?,
        write(format!("{schema}.rules"), scenario.repairer.rules_text())?,
        write(format!("{schema}_truth.tsv"), truth)?,
    ];
    println!(
        "{schema}: {} rows, {} cells, {} injected error(s), fingerprint {:016x}",
        scenario.clean.num_rows(),
        scenario.clean.num_cells(),
        scenario.injection.truth.len(),
        scenario.fingerprint(),
    );
    for f in &files {
        println!("  wrote {f}");
    }
    println!(
        "\nnext: trex violations --table {} --dcs {}",
        files[1], files[2]
    );
    println!(
        "      trex repair --table {} --dcs {} --engine rules --rules {}",
        files[1], files[2], files[3]
    );
    Ok(())
}

fn cmd_demo(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown()?;
    use trex_datagen::laliga;
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    println!("{}", render_input_screen(&dirty, &dcs));
    let result = alg.repair(&dcs, &dirty);
    println!("{}", render_repair_screen(&dirty, &result.changes));
    let cell = laliga::cell_of_interest(&dirty);
    let explainer = Explainer::new(&alg);
    let constraints = explainer
        .explain_constraints(&dcs, &dirty, cell)
        .expect("the demo cell is repaired");
    let cells = explainer
        .explain_cells_masked(
            &dcs,
            &dirty,
            cell,
            MaskMode::Null,
            SamplingConfig {
                samples: 800,
                seed: 0,
            },
        )
        .expect("the demo cell is repaired");
    println!(
        "{}",
        render_explanation_screen("t5[Country]", Some(&constraints), Some(&cells))
    );
    // The interactive budget: instead of a fixed sample count, let each
    // cell run until its estimate is tight — dummies stop after two
    // batches, so the budget concentrates on the contested cells the
    // audience actually asks about.
    let config = AdaptiveConfig {
        tolerance: 0.05,
        batch: 100,
        max_samples: 4000,
        ..AdaptiveConfig::default()
    };
    let (adaptive, converged) = explainer
        .explain_cells_adaptive(&dcs, &dirty, cell, config)
        .expect("the demo cell is repaired");
    let done = converged.iter().filter(|c| **c).count();
    println!(
        "adaptive budget (replacement semantics): {done}/{} cells converged to \
         ±{} (95% CI, cap {} samples/cell); top cell: {}",
        converged.len(),
        config.tolerance,
        config.max_samples,
        adaptive
            .ranking
            .top()
            .map(|e| e.label.clone())
            .unwrap_or_default()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_table::TableBuilder;

    fn table() -> Table {
        TableBuilder::new()
            .str_columns(["Team", "City"])
            .str_row(["A", "X"])
            .str_row(["B", "Y"])
            .build()
    }

    #[test]
    fn parse_cell_accepts_both_forms() {
        let t = table();
        let c = parse_cell(&t, "t2.City").unwrap();
        assert_eq!(c, CellRef::new(1, t.schema().id("City")));
        assert_eq!(
            parse_cell(&t, "1.Team").unwrap(),
            CellRef::new(0, t.schema().id("Team"))
        );
    }

    #[test]
    fn parse_cell_rejects_bad_specs() {
        let t = table();
        assert!(parse_cell(&t, "City").is_err());
        assert!(parse_cell(&t, "t0.City").is_err());
        assert!(parse_cell(&t, "t3.City").is_err());
        assert!(parse_cell(&t, "t1.Nope").is_err());
        assert!(parse_cell(&t, "tx.City").is_err());
    }

    #[test]
    fn exec_flags_share_one_validation_path_across_subcommands() {
        // The detailed knob coverage lives in args.rs next to exec_config;
        // here: every subcommand that takes execution flags goes through it
        // and reports the same errors.
        for command in ["explain", "repair", "violations"] {
            let a = Args::parse([command, "--threads", "4"]).unwrap();
            assert_eq!(a.exec_config().unwrap().threads(), 4, "{command}");
            let d = Args::parse([command, "--threads", "999999"]).unwrap();
            let err = d.exec_config().unwrap_err().to_string();
            assert!(err.contains("999999"), "{command}: {err}");
            assert!(err.contains("1024"), "{command}: {err}");
        }
    }

    #[test]
    fn datagen_flag_validation() {
        // --schema is required and validated.
        let a = Args::parse(["datagen"]).unwrap();
        assert!(cmd_datagen(&a).is_err());
        let b = Args::parse(["datagen", "--schema", "nope"]).unwrap();
        assert!(cmd_datagen(&b).unwrap_err().to_string().contains("nope"));
        // Rates outside 0..=1 and bad skews are proper errors.
        let c = Args::parse(["datagen", "--schema", "soccer", "--rate", "2"]).unwrap();
        assert!(cmd_datagen(&c).unwrap_err().to_string().contains("--rate"));
        let d = Args::parse(["datagen", "--schema", "soccer", "--skew", "-1"]).unwrap();
        assert!(cmd_datagen(&d).unwrap_err().to_string().contains("--skew"));
    }

    #[test]
    fn datagen_writes_a_round_trippable_corpus_member() {
        let dir = std::env::temp_dir().join(format!("trex-datagen-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap().to_string();
        for schema in ["soccer", "sensor", "adult"] {
            let a = Args::parse([
                "datagen", "--schema", schema, "--rows", "240", "--rate", "0.02", "--seed", "3",
                "--out", &out,
            ])
            .unwrap();
            cmd_datagen(&a).unwrap();

            // Every emitted file parses back through the consuming
            // subcommands' own readers, and the exported Algorithm 1
            // repairs cells of the exported dirty table.
            let file = |suffix: &str| dir.join(format!("{schema}{suffix}"));
            let path = |suffix: &str| file(suffix).to_str().unwrap().to_string();
            let (table, dcs) = (path("_dirty.csv"), path(".dcs"));
            let inputs = Args::parse(["lint", "--table", &table, "--dcs", &dcs]).unwrap();
            let (dirty, dcs) = load_inputs(&inputs).unwrap();
            let clean = load_table(&path("_clean.csv")).unwrap();
            let rules =
                RuleRepair::parse_rules(&std::fs::read_to_string(file(".rules")).unwrap()).unwrap();
            let truth = std::fs::read_to_string(file("_truth.tsv")).unwrap();
            assert_eq!(clean.num_rows(), dirty.num_rows());
            assert!(!dcs.is_empty());
            // Exact accounting: the truth file has one line per injected
            // cell, floor(cells × rate) of them.
            let expected = (clean.num_cells() as f64 * 0.02).floor() as usize;
            assert_eq!(truth.trim_end().lines().count(), expected, "{schema}");
            // Integer columns load as integers, so every constraint can
            // hold, sensor's `Reading < 0` and adult's `EducationYears < 1`
            // included (on text columns they are TREX-E002 and lint fails).
            assert_eq!(cmd_lint(&inputs).unwrap(), ExitCode::SUCCESS, "{schema}");
            // The dirty table violates the exported constraints (on sensor,
            // the range constraint S3 too), and the exported Algorithm 1
            // repairs cells (not every injected error violates a
            // constraint, so full clean-table recovery is not guaranteed
            // for an all-kinds error mix).
            let witnesses = find_all_violations_par(&resolve_all(&dirty, &dcs).unwrap(), &dirty, 2);
            assert!(!witnesses.is_empty(), "{schema}");
            if schema == "sensor" {
                assert!(witnesses.iter().any(|v| &*v.constraint == "S3"));
            }
            assert!(!rules.repair(&dcs, &dirty).changes.is_empty(), "{schema}");
        }
        // `mine --order` orders integer columns: on the clean adult table,
        // Education determines EducationYears in both directions.
        let table = dir.join("adult_clean.csv").to_str().unwrap().to_string();
        let mined =
            cmd_mine(&Args::parse(["mine", "--table", &table, "--order"]).unwrap()).unwrap();
        let shown: Vec<String> = mined.iter().map(|dc| dc.to_string()).collect();
        assert!(
            shown
                .iter()
                .any(|dc| dc.contains("t1.EducationYears < t2.EducationYears")),
            "{shown:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lint_exit_codes_follow_diagnostic_severity() {
        let dir = std::env::temp_dir().join(format!("trex-lint-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("t.csv");
        std::fs::write(&csv, "Team,Year\nA,2001\nB,2002\n").unwrap();
        let write_dcs = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_str().unwrap().to_string()
        };
        let table = csv.to_str().unwrap().to_string();

        // Clean program: no errors → SUCCESS, even with a warning present.
        let clean = write_dcs(
            "clean.dcs",
            "Same: !(t1.Team = t2.Team & t1.Year != t2.Year)\n\
             Dead: !(t1.Year < t2.Year & t1.Year > t2.Year)\n",
        );
        let a = Args::parse(["lint", "--table", &table, "--dcs", &clean]).unwrap();
        assert_eq!(cmd_lint(&a).unwrap(), ExitCode::SUCCESS);

        // Unknown attribute → error severity → FAILURE, in --json mode too.
        let broken = write_dcs("broken.dcs", "Bad: !(t1.Teem = t2.Teem)\n");
        let b = Args::parse(["lint", "--table", &table, "--dcs", &broken, "--json"]).unwrap();
        assert_eq!(cmd_lint(&b).unwrap(), ExitCode::FAILURE);

        // Lint shares the exec-flag validation path.
        let c = Args::parse([
            "lint",
            "--table",
            &table,
            "--dcs",
            &clean,
            "--threads",
            "999999",
        ])
        .unwrap();
        assert!(cmd_lint(&c).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lint_checks_a_rule_list_against_the_program() {
        let (table, dcs) = (shipped("laliga_dirty.csv"), shipped("laliga.dcs"));
        let lint = |rules: &str| {
            let a =
                Args::parse(["lint", "--table", &table, "--dcs", &dcs, "--rules", rules]).unwrap();
            cmd_lint(&a)
        };
        assert_eq!(
            lint(&shipped("algorithm1.rules")).unwrap(),
            ExitCode::SUCCESS
        );
        let dir = std::env::temp_dir().join(format!("trex-lint-rules-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.rules");
        std::fs::write(&bad, "C1: Nope <- most_common\n").unwrap();
        let bad = bad.to_str().unwrap();
        assert_eq!(
            lint(bad).unwrap_err().to_string(),
            format!("{bad}: rule `C1: Nope <- most_common`: unknown column \"Nope\"")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shipped `data/` file, by path.
    fn shipped(name: &str) -> String {
        format!("{}/../../data/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn repair_and_explain_reject_a_dc_on_an_unknown_column() {
        // Regression: `rules`, `holoclean` and `holistic` panicked inside
        // the repair on a DC naming an unknown column, and `chase`
        // repaired nothing and exited 0.
        let dir = std::env::temp_dir().join(format!("trex-bad-dc-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dcs = dir.join("bad.dcs");
        std::fs::write(&dcs, "C1: !(t1.Team = t2.Team & t1.Nope != t2.Nope)\n").unwrap();
        let rules = dir.join("c1.rules");
        std::fs::write(&rules, "C1: City <- most_common\n").unwrap();
        let (table, dcs, rules) = (
            shipped("laliga_dirty.csv"),
            dcs.to_str().unwrap().to_string(),
            rules.to_str().unwrap().to_string(),
        );
        for engine in ["rules", "holoclean", "holistic", "chase"] {
            for command in ["repair", "explain"] {
                let mut raw = vec![command, "--table", &table, "--dcs", &dcs];
                raw.extend(["--engine", engine, "--threads", "1"]);
                if engine == "rules" {
                    raw.extend(["--rules", &rules]);
                }
                if command == "explain" {
                    raw.extend(["--cell", "t5.Country"]);
                }
                let a = Args::parse(raw).unwrap();
                let run = if command == "repair" {
                    cmd_repair
                } else {
                    cmd_explain
                };
                let err = run(&a).unwrap_err().to_string();
                assert_eq!(
                    err, "constraint C1: unknown attribute \"Nope\"",
                    "{command} --engine {engine}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commands_reject_a_dc_that_fails_the_typecheck() {
        // Regression: `Year` is an integer column, so `t1.Year = "abc"`
        // never holds and `violations` printed "table is clean", while
        // `trex lint` failed the same program with TREX-E002.
        let dir = std::env::temp_dir().join(format!("trex-typecheck-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dcs = dir.join("typo.dcs");
        std::fs::write(&dcs, "C1: !(t1.League = t2.League & t1.Year = \"abc\")\n").unwrap();
        let (table, dcs) = (
            shipped("laliga_dirty.csv"),
            dcs.to_str().unwrap().to_string(),
        );
        let rules = shipped("algorithm1.rules");
        let base = [
            "--table", &table, "--dcs", &dcs, "--engine", "rules", "--rules", &rules,
        ];
        let args = |command: &str, extra: &[&str]| {
            let raw = [command]
                .into_iter()
                .chain(base)
                .chain(extra.iter().copied());
            Args::parse(raw).unwrap()
        };
        let errors = [
            cmd_violations(&args("violations", &[])).unwrap_err(),
            cmd_repair(&args("repair", &[])).unwrap_err(),
            cmd_explain(&args("explain", &["--cell", "t5.Country"])).unwrap_err(),
            load_inputs(&args("serve", &[])).unwrap_err(),
        ];
        for err in errors {
            let err = err.to_string();
            assert!(
                err.starts_with(&format!("{dcs}: error[TREX-E002] C1")),
                "{err}"
            );
            assert!(err.contains("never holds"), "{err}");
        }
        // Lint reports the same finding and exits 1.
        let lint = Args::parse(["lint", "--table", &table, "--dcs", &dcs]).unwrap();
        assert_eq!(cmd_lint(&lint).unwrap(), ExitCode::FAILURE);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rule_lists_naming_unknown_columns_or_constraints_fail_to_load() {
        // Regression: these lists loaded and silently repaired nothing.
        let dir = std::env::temp_dir().join(format!("trex-bad-rules-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let table = load_table(&shipped("laliga_dirty.csv")).unwrap();
        let dcs = parse_dcs(&std::fs::read_to_string(shipped("laliga.dcs")).unwrap()).unwrap();
        let load = |rules: &str| {
            let a = Args::parse(["repair", "--engine", "rules", "--rules", rules]).unwrap();
            load_engine(&a, &ExecConfig::new(), &table, &dcs).map(|e| e.name().to_string())
        };
        assert_eq!(load(&shipped("algorithm1.rules")).unwrap(), "algorithm1");
        for (text, offender) in [
            (
                "C1: Nope <- most_common\nC2: Country <- most_common_given(Missing)\n",
                "rule `C1: Nope <- most_common`: unknown column \"Nope\"",
            ),
            (
                "C2: Country <- most_common_given(Missing)\n",
                "rule `C2: Country <- most_common_given(Missing)`: unknown column \"Missing\"",
            ),
            (
                "C9: City <- most_common\n",
                "rule `C9: City <- most_common`: unknown constraint \"C9\"",
            ),
        ] {
            let path = dir.join("bad.rules");
            std::fs::write(&path, text).unwrap();
            let path = path.to_str().unwrap();
            let err = load(path).unwrap_err().to_string();
            assert_eq!(err, format!("{path}: {offender}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_selection() {
        let cfg = ExecConfig::new();
        let t = table();
        let load = |a: &Args| load_engine(a, &cfg, &t, &[]);
        let a = Args::parse(["repair", "--engine", "chase"]).unwrap();
        assert_eq!(load(&a).unwrap().name(), "fd-chase");
        let b = Args::parse(["repair"]).unwrap();
        assert_eq!(load(&b).unwrap().name(), "holoclean-style");
        let c = Args::parse(["repair", "--engine", "nope"]).unwrap();
        assert!(load(&c).is_err());
        let d = Args::parse(["repair", "--engine", "rules"]).unwrap();
        assert!(load(&d).is_err()); // missing --rules
    }
}
