//! The explainer — T-REx's front door.
//!
//! Given the black-box repair algorithm, the constraint set, the dirty
//! table, and a repaired cell of interest, [`Explainer`] produces the two
//! rankings of §1: constraints by Shapley value (computed exactly, §2.3)
//! and cells by Shapley value (estimated by permutation sampling, §2.3).
//!
//! Every other solver composes from the same parts:
//! [`Explainer::repair_target`], a game of [`crate::games`], and a
//! `trex_shapley` solver. Exact cell values are `shapley_exact` on a
//! [`CellGameMasked`]; interaction indices and Banzhaf values are
//! `shapley_interaction_exact` and `banzhaf_exact` on a [`ConstraintGame`].

use crate::games::{cell_label, CellGameMasked, CellGameSampled, ConstraintGame, MaskMode};
use crate::ranking::Ranking;
use std::fmt;
use std::sync::{Arc, OnceLock};
use trex_constraints::{DenialConstraint, ResolveError};
use trex_repair::{repaired_value, OracleCache, Reach, RepairAlgorithm, ShardedOracle};
use trex_shapley::{
    parallel, shapley_exact, shapley_exact_rational, AnytimeCheckpoint, AnytimeControl, Estimate,
    ExactError, ExecConfig, Game, ParallelConfig, Rational, SamplingConfig,
};
use trex_table::{CellRef, Table, Value};

/// Errors an explanation request can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainError {
    /// The chosen cell is not repaired by the full run — the paper only
    /// explains cells "whose value was changed" (§3).
    CellNotRepaired {
        /// The cell the user selected.
        cell: CellRef,
    },
    /// The cell row/attr is outside the table.
    CellOutOfRange {
        /// The offending reference.
        cell: CellRef,
    },
    /// An exact constraint explanation was requested over more
    /// constraints than the exact solvers enumerate.
    TooManyConstraints {
        /// Number of constraints (players of the constraint game).
        constraints: usize,
        /// The exact-solver cap.
        limit: usize,
    },
    /// A constraint names a column the table does not have, so no repair
    /// of it can run.
    UnresolvedConstraint(ResolveError),
    /// An adaptive cell explanation asked for rounds of zero samples
    /// ([`AdaptiveConfig::batch`]), which could never meet a tolerance.
    ZeroAdaptiveBatch,
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::CellNotRepaired { cell } => {
                write!(
                    f,
                    "cell {cell} is not repaired by the full constraint set; only repaired cells can be explained"
                )
            }
            ExplainError::CellOutOfRange { cell } => write!(f, "cell {cell} is out of range"),
            ExplainError::TooManyConstraints { constraints, limit } => write!(
                f,
                "exact constraint explanation over {constraints} constraints exceeds the \
                 {limit}-constraint limit; remove constraints or explain cells instead"
            ),
            ExplainError::UnresolvedConstraint(e) => write!(f, "{e}"),
            ExplainError::ZeroAdaptiveBatch => {
                write!(f, "an adaptive batch must be at least 1 sample")
            }
        }
    }
}

impl std::error::Error for ExplainError {}

/// The exact solvers' player cap, as an explanation error: the players of
/// a constraint game are the constraints.
fn too_many_constraints(e: ExactError) -> ExplainError {
    match e {
        ExactError::TooManyPlayers { n, limit } => ExplainError::TooManyConstraints {
            constraints: n,
            limit,
        },
    }
}

/// A constraint explanation: the ranking plus the exact rational values.
#[derive(Debug, Clone)]
pub struct ConstraintExplanation {
    /// Constraints ranked by Shapley value.
    pub ranking: Ranking,
    /// Exact values as reduced rationals, in constraint order — only
    /// present when the repair oracle is 0/1 (it always is here).
    pub exact: Vec<(String, Rational)>,
    /// The repaired (target) value of the cell of interest.
    pub target: Value,
}

/// The confidence multiplier of the adaptive stopping rule: a 95%
/// confidence interval.
const ADAPTIVE_Z: f64 = 1.96;

/// Configuration of the adaptive (precision-targeted) cell explanation:
/// instead of a fixed per-player sample count, each cell is sampled in
/// batches until its 95% confidence half-width meets `tolerance` or its
/// `max_samples` budget runs out.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Target half-width of the per-cell 95% confidence interval.
    pub tolerance: f64,
    /// Samples per adaptive round, between convergence checks. Every
    /// round is exactly `batch` samples from its own laddered seed at any
    /// thread count (see `trex_shapley::round_seed`).
    pub batch: usize,
    /// Per-cell cap on total samples.
    pub max_samples: usize,
    /// Base RNG seed (laddered per player exactly like fixed-budget
    /// sampling).
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            tolerance: 0.05,
            batch: 100,
            max_samples: 10_000,
            seed: 0,
        }
    }
}

/// A cell explanation: the ranking over influencing cells.
#[derive(Debug, Clone)]
pub struct CellExplanation {
    /// Cells ranked by (estimated) Shapley value.
    pub ranking: Ranking,
    /// The player cells, index-aligned with `values`.
    pub players: Vec<CellRef>,
    /// Raw values in player order (useful for programmatic consumers).
    pub values: Vec<f64>,
    /// The repaired (target) value of the cell of interest.
    pub target: Value,
}

/// Rank the player cells by their estimates, labelled exactly as the cell
/// games label their players ([`cell_label`]).
fn cell_explanation(
    dirty: &Table,
    players: &[CellRef],
    target: Value,
    estimates: &[Estimate],
) -> CellExplanation {
    let ranking = Ranking::with_errors(
        players
            .iter()
            .zip(estimates)
            .map(|(&p, e)| (cell_label(dirty, p), e.value, Some(e.std_error())))
            .collect(),
    );
    CellExplanation {
        ranking,
        values: estimates.iter().map(|e| e.value).collect(),
        players: players.to_vec(),
        target,
    }
}

/// A cache at `cfg`'s oracle capacity, the default one when it sets none.
pub(crate) fn oracle_cache_for(cfg: &ExecConfig) -> Arc<OracleCache> {
    Arc::new(OracleCache::with_capacity(
        cfg.oracle_cap().unwrap_or(ShardedOracle::DEFAULT_CAPACITY),
    ))
}

/// The T-REx explainer.
///
/// Wraps a black-box [`RepairAlgorithm`]; every method treats it purely
/// through repeated repair queries, per the paper's design.
///
/// Cell explanations run on the parallel sampling engine
/// (`trex_shapley::parallel`). The default is one worker;
/// [`Explainer::with_config`] with [`ExecConfig::with_threads`] opts into
/// multi-core sampling. Every thread count returns the serial estimate bit
/// for bit — threads change wall time only.
///
/// Every repair an explanation asks for goes through one memoizing oracle,
/// whose misses the wrapped algorithm answers: the repair target and the
/// game's coalitions, so a constraint game's grand coalition reads the
/// target's repair. An explainer keeps exactly one [`OracleCache`] for all
/// of its calls: the one lent by [`Explainer::with_oracle_cache`], else its
/// own, built on the first call at [`ExecConfig::with_oracle_cap`]'s
/// capacity ([`ShardedOracle::DEFAULT_CAPACITY`] when unset). So a constraint
/// explanation and a cell ranking of the same cell repair their target
/// once. The cache stays bounded by its capacity (entries, second-chance
/// eviction), which never changes a result; for a cold cache, build a new
/// explainer.
pub struct Explainer<'a> {
    alg: &'a dyn RepairAlgorithm,
    cfg: ExecConfig,
    cache: OnceLock<Arc<OracleCache>>,
}

impl<'a> Explainer<'a> {
    /// Wrap a repair algorithm (single sampling worker, default oracle
    /// capacity).
    pub fn new(alg: &'a dyn RepairAlgorithm) -> Self {
        Explainer {
            alg,
            cfg: ExecConfig::default(),
            cache: OnceLock::new(),
        }
    }

    /// Memoize repairs in `cache` instead of a cache of the explainer's
    /// own. Several explainers (or several requests against one
    /// long-lived `Session`) sharing one [`OracleCache`] pool their
    /// repairs: oracle keys embed the table fingerprint and the program
    /// hash, so entries computed under one `(table, constraints)` pair can
    /// never answer a query for another. The cache's
    /// [`OracleCache::stats`] then count every explanation run through it.
    ///
    /// A lent cache carries its own capacity, so it overrides
    /// [`ExecConfig::with_oracle_cap`] for this explainer.
    pub fn with_oracle_cache(mut self, cache: Arc<OracleCache>) -> Self {
        self.cache = OnceLock::from(cache);
        self
    }

    /// Apply an execution configuration wholesale: thread count and oracle
    /// capacity in one value shared with `Session` and the
    /// repair engines. The capacity sizes the cache the explainer builds
    /// on its first call, unless one was lent. The config's `seed`, if
    /// set, is not consumed here — sampling methods take their seed from
    /// the explicit [`SamplingConfig`] argument.
    pub fn with_config(mut self, cfg: ExecConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// An oracle on the explainer's one cache.
    fn oracle(&self) -> ShardedOracle<'a> {
        let cache = self.cache.get_or_init(|| oracle_cache_for(&self.cfg));
        ShardedOracle::with_shared_cache(self.alg, Arc::clone(cache))
    }

    /// Determine the repair target of `cell`: the clean value the full run
    /// assigns it. Errors if the cell is out of range, if a constraint
    /// names a column `dirty` lacks, or if the cell is not repaired.
    ///
    /// Every explanation starts here. The repair runs only the slice of
    /// the program the engine declares can reach `cell`'s column
    /// ([`Reach`]), which by the declaration's promise assigns `cell` the
    /// value the whole program would. It is memoized like any other
    /// repair: a later call over the same sliced program and table, on
    /// this explainer or any other sharing its cache, runs no engine.
    pub fn repair_target(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
    ) -> Result<Value, ExplainError> {
        if cell.row >= dirty.num_rows() || cell.attr.0 >= dirty.arity() {
            return Err(ExplainError::CellOutOfRange { cell });
        }
        for dc in dcs {
            dc.resolved(dirty.schema())
                .map_err(ExplainError::UnresolvedConstraint)?;
        }
        let program = Reach::of(self.alg, dcs, dirty.schema(), cell.attr).program(dcs);
        repaired_value(&self.oracle().repair(&program, dirty), cell)
            .cloned()
            .ok_or(ExplainError::CellNotRepaired { cell })
    }

    /// Explain the influence of each **constraint** on the repair of
    /// `cell`, exactly (subset enumeration over `2^|C|` coalitions, with
    /// oracle memoization). This is the left half of the demo's
    /// explanation screen.
    pub fn explain_constraints(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
    ) -> Result<ConstraintExplanation, ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = ConstraintGame::with_oracle(self.oracle(), dcs, dirty, cell, target.clone());
        // The rational solver has the lower player cap, so it runs first:
        // an oversized program fails before any coalition is repaired.
        let rationals = shapley_exact_rational(&game).map_err(too_many_constraints)?;
        let values = shapley_exact(&game).map_err(too_many_constraints)?;
        let label = |i| Game::player_label(&game, i);
        Ok(ConstraintExplanation {
            ranking: Ranking::new(
                values
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (label(i), v))
                    .collect(),
            ),
            exact: rationals
                .into_iter()
                .enumerate()
                .map(|(i, r)| (label(i), r))
                .collect(),
            target,
        })
    }

    /// Explain the influence of each **cell** via the sampling algorithm of
    /// §2.3 / Example 2.5 (random-replacement semantics, common random
    /// numbers, per-player permutation sampling).
    pub fn explain_cells_sampled(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
        config: SamplingConfig,
    ) -> Result<CellExplanation, ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = CellGameSampled::new(self.alg, dcs, dirty, cell, target.clone());
        let estimates = parallel::estimate_all(
            &game,
            ParallelConfig::from_sampling(config, self.cfg.threads()),
        );
        Ok(cell_explanation(dirty, game.players(), target, &estimates))
    }

    /// Adaptive cell explanation (extension): each cell is sampled under
    /// replacement semantics until its 95%-confidence half-width drops
    /// below `config.tolerance` or its `config.max_samples` budget is
    /// spent, on the parallel engine with this explainer's worker count.
    /// Cells with tight estimates (dummies most of all) stop early; the
    /// budget concentrates on the contested ones.
    ///
    /// Returns the explanation plus one flag per player cell: did that
    /// cell's estimate converge within budget? Each cell runs the serial
    /// round-laddered estimator (`trex_shapley::estimate_player_adaptive_rounds`)
    /// with per-player seeds laddered exactly like
    /// [`Explainer::explain_cells_sampled`]'s, so the result depends on
    /// `config.seed` alone — never on the thread count. A zero
    /// `config.batch` is an error, returned before any repair runs.
    pub fn explain_cells_adaptive(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
        config: AdaptiveConfig,
    ) -> Result<(CellExplanation, Vec<bool>), ExplainError> {
        if config.batch == 0 {
            return Err(ExplainError::ZeroAdaptiveBatch);
        }
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = CellGameSampled::new(self.alg, dcs, dirty, cell, target.clone());
        let (estimates, converged): (Vec<_>, Vec<_>) = parallel::estimate_all_adaptive(
            &game,
            config.tolerance,
            ADAPTIVE_Z,
            config.batch,
            config.max_samples,
            config.seed,
            self.cfg.threads(),
        )
        .into_iter()
        .unzip();
        let explanation = cell_explanation(dirty, game.players(), target, &estimates);
        Ok((explanation, converged))
    }

    /// Explain cells with the **masked** (null / labeled-null) semantics of
    /// the Shapley definition in §2.2, estimated by shared permutation
    /// walks (`config.samples` permutations, each contributing one marginal
    /// sample to every cell). Deterministic per seed, at any thread count.
    pub fn explain_cells_masked(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
        mode: MaskMode,
        config: SamplingConfig,
    ) -> Result<CellExplanation, ExplainError> {
        self.explain_cells_masked_anytime(dcs, dirty, cell, mode, config, 0, |_| {
            AnytimeControl::Continue
        })
        .map(|(explanation, _)| explanation)
    }

    /// Anytime variant of [`Explainer::explain_cells_masked`]: the same
    /// shared-permutation-walk estimator, but `on_checkpoint` observes the
    /// in-progress estimates every `checkpoint_every` walks (`0`: once, at
    /// the end) and can stop the run early ([`AnytimeControl::Stop`]) —
    /// e.g. when a latency budget expires or the requesting client
    /// disconnects.
    ///
    /// Determinism contract: a run that completes (`finished == true`)
    /// returns exactly what [`Explainer::explain_cells_masked`] returns for
    /// the same seed — checkpointing never perturbs the sample stream. A
    /// stopped run returns the estimates accumulated so far (at least one
    /// checkpoint's worth), which equal a completed run of that many walks.
    ///
    /// The checkpoint's `estimates` are in player order, index-aligned with
    /// the returned explanation's `players`.
    #[allow(clippy::too_many_arguments)] // mirrors explain_cells_masked + the anytime pair
    pub fn explain_cells_masked_anytime(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
        mode: MaskMode,
        config: SamplingConfig,
        checkpoint_every: usize,
        on_checkpoint: impl FnMut(&AnytimeCheckpoint<'_>) -> AnytimeControl,
    ) -> Result<(CellExplanation, bool), ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game =
            CellGameMasked::with_oracle(self.oracle(), dcs, dirty, cell, target.clone(), mode);
        let (estimates, finished) = parallel::estimate_all_walk_anytime(
            &game,
            ParallelConfig::from_sampling(config, self.cfg.threads()),
            checkpoint_every,
            on_checkpoint,
        );
        let explanation = cell_explanation(dirty, game.players(), target, &estimates);
        Ok((explanation, finished))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_datagen::laliga;
    use trex_repair::NoOpRepair;
    use trex_table::{AttrId, TableBuilder};

    #[test]
    fn constraint_explanation_matches_figure_1() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let out = ex
            .explain_constraints(&dcs, &dirty, laliga::cell_of_interest(&dirty))
            .unwrap();
        assert_eq!(out.target, Value::str("Spain"));
        // Ranking: C3 first, C4 last with value 0.
        assert_eq!(out.ranking.top().unwrap().label, "C3");
        assert_eq!(out.ranking.rank_of("C4"), Some(3));
        // Exact rationals: 1/6, 1/6, 2/3, 0.
        let by_name: Vec<(&str, String)> = out
            .exact
            .iter()
            .map(|(n, r)| (n.as_str(), r.to_string()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("C1", "1/6".to_string()),
                ("C2", "1/6".to_string()),
                ("C3", "2/3".to_string()),
                ("C4", "0".to_string()),
            ]
        );
    }

    #[test]
    fn unrepaired_cell_is_rejected() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        // t1[Team] is never repaired.
        let cell = CellRef::new(0, AttrId(0));
        let err = ex.explain_constraints(&dcs, &dirty, cell).unwrap_err();
        assert!(matches!(err, ExplainError::CellNotRepaired { .. }));
    }

    #[test]
    fn out_of_range_cell_is_rejected() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let err = ex
            .explain_constraints(&dcs, &dirty, CellRef::new(99, AttrId(0)))
            .unwrap_err();
        assert!(matches!(err, ExplainError::CellOutOfRange { .. }));
    }

    #[test]
    fn noop_algorithm_repairs_nothing_so_nothing_to_explain() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let ex = Explainer::new(&NoOpRepair);
        let err = ex
            .explain_constraints(&dcs, &dirty, laliga::cell_of_interest(&dirty))
            .unwrap_err();
        assert!(matches!(err, ExplainError::CellNotRepaired { .. }));
    }

    #[test]
    fn sampled_cell_explanation_properties() {
        // The replacement-semantics estimator (Example 2.5 verbatim)
        // measures a *different* game than the §2.2 null-mask definition:
        // an out-of-coalition League cell is redrawn as "La Liga" 5 times
        // out of 6, so C3 usually fires anyway and the influence mass
        // shifts to the Country witness cells that make "Spain" win the
        // vote. (EXPERIMENTS.md E4 records this side-by-side; the paper's
        // Example-2.4 ranking is asserted on the masked game below.)
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let out = ex
            .explain_cells_sampled(
                &dcs,
                &dirty,
                laliga::cell_of_interest(&dirty),
                SamplingConfig {
                    samples: 800,
                    seed: 7,
                },
            )
            .unwrap();
        // Example 1.1: t1[Place] has no influence — exactly zero (no
        // constraint path from Place to Country under any replacement).
        let place = out.ranking.get("t1[Place]").unwrap();
        assert_eq!(place.value, 0.0);
        assert_eq!(place.std_error, Some(0.0));
        // The top of the ranking is a Country witness cell: one of the
        // (League, Country) = (La Liga, Spain) rows t1, t2, t3, t6.
        let top = out.ranking.top().unwrap();
        assert!(
            ["t1[Country]", "t2[Country]", "t3[Country]", "t6[Country]"]
                .contains(&top.label.as_str()),
            "unexpected top cell {}",
            top.label
        );
        // Every Country witness strictly beats every Place cell.
        for w in ["t1[Country]", "t2[Country]", "t3[Country]", "t6[Country]"] {
            for p in ["t1[Place]", "t2[Place]", "t3[Place]"] {
                assert!(
                    out.ranking.get(w).unwrap().value > out.ranking.get(p).unwrap().value,
                    "{w} vs {p}"
                );
            }
        }
    }

    #[test]
    fn masked_cell_explanation_reproduces_example_2_4_ranking() {
        // Example 2.4's headline claims, under the definition (null-mask)
        // semantics the example's counting argument uses:
        //   1. t5[League] has the highest Shapley value of all cells;
        //   2. t1[Place] has none (dummy player);
        //   3. t5[League] is more influential than t6[City] (Example 1.1).
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let out = ex
            .explain_cells_masked(
                &dcs,
                &dirty,
                laliga::cell_of_interest(&dirty),
                MaskMode::Null,
                SamplingConfig {
                    samples: 600,
                    seed: 3,
                },
            )
            .unwrap();
        assert_eq!(out.ranking.top().unwrap().label, "t5[League]");
        assert_eq!(out.ranking.get("t1[Place]").unwrap().value, 0.0);
        let league = out.ranking.get("t5[League]").unwrap().value;
        let t6city = out.ranking.get("t6[City]").unwrap().value;
        assert!(league > t6city, "{league} vs {t6city}");
    }

    #[test]
    fn masked_cell_explanation_agrees_on_the_top_cell() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let out = ex
            .explain_cells_masked(
                &dcs,
                &dirty,
                laliga::cell_of_interest(&dirty),
                MaskMode::Null,
                SamplingConfig {
                    samples: 300,
                    seed: 11,
                },
            )
            .unwrap();
        assert_eq!(out.ranking.top().unwrap().label, "t5[League]");
        assert_eq!(out.players.len(), 35);
        assert_eq!(out.values.len(), 35);
    }

    #[test]
    fn exact_cell_explanation_on_a_tiny_table() {
        // 2x3 table: 5 player cells — exact enumeration feasible. Exact
        // cell values compose from the parts: the repair target, the
        // masked cell game, and the exact solver.
        let t = TableBuilder::new()
            .str_columns(["League", "Country", "Pad"])
            .str_row(["L", "Spain", "p"])
            .str_row(["L", "España", "q"])
            .build();
        let dcs =
            trex_constraints::parse_dcs("C3: !(t1.League = t2.League & t1.Country != t2.Country)")
                .unwrap();
        let alg = trex_repair::RuleRepair::new(vec![trex_repair::Rule::new(
            "C3",
            trex_repair::FixAction::MostCommon {
                attr: "Country".into(),
            },
        )]);
        let cell = CellRef::new(1, t.schema().id("Country"));
        let target = Explainer::new(&alg).repair_target(&dcs, &t, cell).unwrap();
        assert_eq!(target, Value::str("Spain"));
        let game = CellGameMasked::new(&alg, &dcs, &t, cell, target, MaskMode::Null);
        let values = shapley_exact(&game).unwrap();
        let value = |label: &str| {
            let i = game
                .players()
                .iter()
                .position(|&p| cell_label(&t, p) == label)
                .unwrap();
            values[i]
        };
        // The three cells that matter: t1[League], t1[Country], t2[League].
        assert!(value("t1[League]") > 0.0);
        assert!(value("t1[Country]") > 0.0);
        assert!(value("t2[League]") > 0.0);
        // Pad cells are dummies.
        assert_eq!(value("t1[Pad]"), 0.0);
        assert_eq!(value("t2[Pad]"), 0.0);
        // Efficiency: the grand coalition repairs the cell.
        assert!((values.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constraint_interactions_show_c1_c2_complementarity() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let target = Explainer::new(&alg)
            .repair_target(&dcs, &dirty, cell)
            .unwrap();
        let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, target);
        let m = trex_shapley::shapley_interaction_exact(&game).unwrap();
        let labels: Vec<String> = (0..dcs.len()).map(|i| game.player_label(i)).collect();
        assert_eq!(labels, vec!["C1", "C2", "C3", "C4"]);
        assert!(m[0][1] > 0.0, "C1×C2 complementary: {}", m[0][1]);
        assert!(m[0][2] < 0.0, "C1×C3 substitutes: {}", m[0][2]);
        assert_eq!(m[0][3], 0.0, "C4 is a dummy");
        assert_eq!(m[0][1], m[1][0], "matrix symmetric");
    }

    #[test]
    fn constraint_banzhaf_agrees_on_the_ordering() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let target = Explainer::new(&alg)
            .repair_target(&dcs, &dirty, cell)
            .unwrap();
        let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, target);
        // Same ordering as Shapley: C3 ≻ C1 = C2 ≻ C4, with the known
        // exact Banzhaf values (3/4, 1/4, 1/4, 0) in constraint order.
        let bz = trex_shapley::banzhaf_exact(&game).unwrap();
        for (got, want) in bz.iter().zip([0.25, 0.25, 0.75, 0.0]) {
            assert!((got - want).abs() < 1e-12, "{bz:?}");
        }
    }

    #[test]
    fn multithreaded_explainer_is_deterministic_and_keeps_the_headline() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let cfg = SamplingConfig {
            samples: 600,
            seed: 3,
        };
        let run = |threads: usize| {
            Explainer::new(&alg)
                .with_config(ExecConfig::new().with_threads(threads))
                .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, cfg)
                .unwrap()
        };
        // Every thread count reproduces the default (serial) explainer.
        let serial = Explainer::new(&alg)
            .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, cfg)
            .unwrap();
        for threads in [1usize, 4] {
            let multi = run(threads);
            assert_eq!(serial.values, multi.values, "threads {threads}");
        }
        assert_eq!(serial.ranking.top().unwrap().label, "t5[League]");
        assert_eq!(serial.ranking.get("t1[Place]").unwrap().value, 0.0);
    }

    #[test]
    fn adaptive_explanation_converges_dummies_early_and_is_deterministic() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let config = AdaptiveConfig {
            tolerance: 0.08,
            batch: 40,
            max_samples: 400,
            ..AdaptiveConfig::default()
        };
        let ex = Explainer::new(&alg).with_config(ExecConfig::new().with_threads(2));
        let (a, conv_a) = ex
            .explain_cells_adaptive(&dcs, &dirty, cell, config)
            .unwrap();
        let (b, conv_b) = ex
            .explain_cells_adaptive(&dcs, &dirty, cell, config)
            .unwrap();
        assert_eq!(a.values, b.values, "deterministic per seed");
        assert_eq!(conv_a, conv_b);
        // t1[Place] is a dummy: zero variance, so it converges in the
        // minimum number of rounds with a zero estimate.
        let place = a.ranking.get("t1[Place]").unwrap();
        assert_eq!(place.value, 0.0);
        let place_idx = a
            .players
            .iter()
            .position(|c| *c == CellRef::new(0, dirty.schema().id("Place")))
            .unwrap();
        assert!(conv_a[place_idx], "dummy cells stop early");
    }

    /// An engine that panics if it is ever run.
    struct NeverRuns;

    impl RepairAlgorithm for NeverRuns {
        fn name(&self) -> &str {
            "never-runs"
        }

        fn repair(&self, _: &[DenialConstraint], _: &Table) -> trex_repair::RepairResult {
            panic!("no repair may run")
        }
    }

    #[test]
    fn a_zero_adaptive_batch_is_an_error_before_any_repair() {
        // Regression: a zero batch used to panic inside the sampling
        // engine; now the explainer refuses it before the engine runs.
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let cell = laliga::cell_of_interest(&dirty);
        let config = AdaptiveConfig {
            batch: 0,
            ..AdaptiveConfig::default()
        };
        let err = Explainer::new(&NeverRuns)
            .explain_cells_adaptive(&dcs, &dirty, cell, config)
            .unwrap_err();
        assert_eq!(err, ExplainError::ZeroAdaptiveBatch);
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn bounded_oracle_capacity_does_not_change_any_explanation() {
        // The bounded-memory acceptance criterion end to end: a tiny
        // eviction-thrashing capacity (and a disabled cache) must reproduce
        // the default explainer's output exactly, constraints and cells.
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let cfg = SamplingConfig {
            samples: 300,
            seed: 3,
        };
        let reference_cons = Explainer::new(&alg)
            .explain_constraints(&dcs, &dirty, cell)
            .unwrap();
        let reference_cells = Explainer::new(&alg)
            .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, cfg)
            .unwrap();
        for capacity in [0usize, 3, 17, 1 << 20] {
            let ex = Explainer::new(&alg).with_config(ExecConfig::new().with_oracle_cap(capacity));
            let cons = ex.explain_constraints(&dcs, &dirty, cell).unwrap();
            assert_eq!(cons.exact, reference_cons.exact, "capacity {capacity}");
            let cells = ex
                .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, cfg)
                .unwrap();
            assert_eq!(cells.values, reference_cells.values, "capacity {capacity}");
        }
    }

    #[test]
    fn oversized_constraint_programs_are_an_error_not_a_panic() {
        // Regression: 25 constraints used to panic inside the explainer
        // ("constraint sets are small") instead of returning an error.
        let dirty = laliga::dirty_table();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let mut dcs = laliga::constraints();
        for i in dcs.len()..25 {
            let text = format!("X{i}: !(t1.Place = t2.Place & t1.Year != t2.Year)");
            dcs.push(trex_constraints::parse_dc_named(&text, &format!("X{i}")).unwrap());
        }
        let ex = Explainer::new(&alg);
        match ex.explain_constraints(&dcs, &dirty, cell).unwrap_err() {
            ExplainError::TooManyConstraints { constraints, limit } => {
                assert_eq!(constraints, 25);
                assert!(limit < 25, "limit {limit}");
            }
            other => panic!("expected TooManyConstraints, got {other:?}"),
        }
        // The other exact solvers on the same game refuse it the same way.
        let target = ex.repair_target(&dcs, &dirty, cell).unwrap();
        let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, target);
        let too_many = |e: ExactError| {
            let ExactError::TooManyPlayers { n, limit } = e;
            assert_eq!(n, 25);
            assert!(limit < 25, "limit {limit}");
        };
        too_many(trex_shapley::shapley_interaction_exact(&game).unwrap_err());
        too_many(trex_shapley::banzhaf_exact(&game).unwrap_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let cell = CellRef::new(4, AttrId(2));
        let e1 = ExplainError::CellNotRepaired { cell };
        assert!(e1.to_string().contains("not repaired"));
        let e2 = ExplainError::TooManyConstraints {
            constraints: 25,
            limit: 20,
        };
        assert!(e2.to_string().contains("25 constraints"), "{e2}");
    }

    #[test]
    fn anytime_completed_run_matches_batch_explain_bit_for_bit() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let config = SamplingConfig {
            samples: 150,
            seed: 9,
        };
        for threads in [1usize, 2] {
            let ex = Explainer::new(&alg).with_config(ExecConfig::new().with_threads(threads));
            let batch = ex
                .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, config)
                .unwrap();
            let mut checkpoints = 0usize;
            let (anytime, finished) = ex
                .explain_cells_masked_anytime(
                    &dcs,
                    &dirty,
                    cell,
                    MaskMode::Null,
                    config,
                    40,
                    |cp| {
                        checkpoints += 1;
                        assert_eq!(cp.estimates.len(), batch.players.len());
                        assert!(cp.estimates.iter().all(|e| e.value.is_finite()));
                        trex_shapley::AnytimeControl::Continue
                    },
                )
                .unwrap();
            assert!(finished, "threads {threads}");
            assert!(checkpoints >= 3, "threads {threads}: {checkpoints}");
            assert_eq!(anytime.values, batch.values, "threads {threads}");
            assert_eq!(anytime.players, batch.players, "threads {threads}");
        }
    }
}
