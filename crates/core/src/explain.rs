//! The explainer — T-REx's front door.
//!
//! Given the black-box repair algorithm, the constraint set, the dirty
//! table, and a repaired cell of interest, [`Explainer`] produces the two
//! rankings of §1: constraints by Shapley value (computed exactly, §2.3)
//! and cells by Shapley value (approximated by permutation sampling, §2.3,
//! or computed exactly on small tables).

use crate::games::{CellGameMasked, CellGameSampled, ConstraintGame, MaskMode};
use crate::ranking::Ranking;
use std::fmt;
use std::sync::Arc;
use trex_constraints::{DenialConstraint, ResolveError};
use trex_repair::{OracleCache, Reach, RepairAlgorithm, RepairResult, ShardedOracle};
use trex_shapley::{
    parallel, shapley_exact, shapley_exact_rational, AnytimeCheckpoint, AnytimeControl, ExactError,
    ExecConfig, Game, ParallelConfig, Rational, SamplingConfig, StochasticGame,
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
    /// Exact cell explanation was requested for a table with too many cells.
    TooManyCells {
        /// Number of player cells.
        players: usize,
        /// The exact-solver cap.
        limit: usize,
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
            ExplainError::TooManyCells { players, limit } => write!(
                f,
                "exact cell explanation over {players} cells exceeds the {limit}-player limit; use sampling"
            ),
            ExplainError::TooManyConstraints { constraints, limit } => write!(
                f,
                "exact constraint explanation over {constraints} constraints exceeds the \
                 {limit}-constraint limit; remove constraints or explain cells instead"
            ),
            ExplainError::UnresolvedConstraint(e) => write!(f, "{e}"),
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
    /// Exact values as rationals (denominator `|C|!`), in constraint order —
    /// only present when the repair oracle is 0/1 (it always is here).
    pub exact: Vec<(String, Rational)>,
    /// The repaired (target) value of the cell of interest.
    pub target: Value,
}

/// Configuration of the adaptive (precision-targeted) cell explanation:
/// instead of a fixed per-player sample count, each cell is sampled in
/// batches until its confidence half-width meets `tolerance` or its
/// `max_samples` budget runs out.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Target half-width of the per-cell confidence interval.
    pub tolerance: f64,
    /// Confidence multiplier (`1.96` ≈ 95%).
    pub z: f64,
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
            z: 1.96,
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
/// The memoizing repair oracle behind the coalition games grows with the
/// number of distinct coalition tables visited;
/// [`ExecConfig::with_oracle_cap`] bounds it (entries, second-chance
/// eviction) without changing any result. Every coalition query goes
/// through that one oracle, whose misses the wrapped algorithm answers.
pub struct Explainer<'a> {
    alg: &'a dyn RepairAlgorithm,
    cfg: ExecConfig,
    cache: Option<Arc<OracleCache>>,
}

impl<'a> Explainer<'a> {
    /// Wrap a repair algorithm (single sampling worker, default oracle
    /// capacity).
    pub fn new(alg: &'a dyn RepairAlgorithm) -> Self {
        Explainer {
            alg,
            cfg: ExecConfig::default(),
            cache: None,
        }
    }

    /// Memoize coalition repairs in `cache` instead of a fresh private
    /// cache per oracle. Several explainers (or several requests against
    /// one long-lived `Session`) sharing one [`OracleCache`] pool their
    /// coalition answers: oracle keys embed the table fingerprint and the
    /// DC-set hash, so entries computed under one `(table, constraints)`
    /// pair can never answer a query for another.
    ///
    /// A shared cache carries its own capacity, so it overrides
    /// [`ExecConfig::with_oracle_cap`] for this explainer.
    pub fn with_oracle_cache(mut self, cache: Arc<OracleCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The shared oracle cache, if one is attached.
    pub fn oracle_cache(&self) -> Option<&Arc<OracleCache>> {
        self.cache.as_ref()
    }

    /// Apply an execution configuration wholesale: thread count and oracle
    /// capacity in one value shared with `Session` and the
    /// repair engines. The config's `seed`, if set, is not consumed here —
    /// sampling methods take their seed from the explicit
    /// [`SamplingConfig`] argument.
    pub fn with_config(mut self, cfg: ExecConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The explainer's execution configuration.
    pub fn config(&self) -> ExecConfig {
        self.cfg
    }

    /// The configured sampling worker count.
    pub fn threads(&self) -> usize {
        self.cfg.threads()
    }

    /// The pinned oracle capacity, if any (`None` = the oracle default).
    pub fn oracle_capacity(&self) -> Option<usize> {
        self.cfg.oracle_cap()
    }

    /// Pre-flight static analysis of a constraint program against the table
    /// it is about to explain repairs over (see
    /// [`trex_constraints::analyze_with_table`]). Explanations of a
    /// mistyped or dead constraint are confusingly all-zero; run this first
    /// and surface the diagnostics.
    pub fn analyze(&self, dcs: &[DenialConstraint], table: &Table) -> trex_constraints::Analysis {
        trex_constraints::analyze_with_table(dcs, table)
    }

    /// Build a coalition oracle: the shared cache when one is attached,
    /// else a private cache under the configured capacity bound.
    fn build_oracle<'b>(&self) -> ShardedOracle<'b>
    where
        'a: 'b,
    {
        match &self.cache {
            Some(cache) => ShardedOracle::with_shared_cache(self.alg, Arc::clone(cache)),
            None => match self.cfg.oracle_cap() {
                Some(cap) => ShardedOracle::with_capacity(self.alg, cap),
                None => ShardedOracle::new(self.alg),
            },
        }
    }

    /// Build the constraint game with this explainer's oracle
    /// configuration.
    fn constraint_game<'b>(
        &self,
        dcs: &'b [DenialConstraint],
        dirty: &'b Table,
        cell: CellRef,
        target: Value,
    ) -> ConstraintGame<'b>
    where
        'a: 'b,
    {
        ConstraintGame::with_oracle(self.build_oracle(), dcs, dirty, cell, target)
    }

    /// Build the masked cell game with this explainer's oracle
    /// configuration.
    fn masked_game<'b>(
        &self,
        dcs: &'b [DenialConstraint],
        dirty: &'b Table,
        cell: CellRef,
        target: Value,
        mode: MaskMode,
    ) -> CellGameMasked<'b>
    where
        'a: 'b,
    {
        CellGameMasked::with_oracle(self.build_oracle(), dcs, dirty, cell, target, mode)
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &dyn RepairAlgorithm {
        self.alg
    }

    /// Run the full repair (`Alg(C, T^d)`), the step behind the demo's
    /// "Repair" button.
    pub fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        self.alg.repair(dcs, dirty)
    }

    /// Determine the repair target of `cell`: the clean value the full run
    /// assigns it. Errors if the cell is out of range, if a constraint
    /// names a column `dirty` lacks, or if the cell is not repaired.
    ///
    /// Every explanation starts here. The repair runs only the slice of
    /// the program the engine declares can reach `cell`'s column
    /// ([`Reach`]), which by the declaration's promise assigns `cell` the
    /// value the whole program would.
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
        let result = self.alg.repair(&program, dirty);
        let target = result.clean.get(cell);
        if target == dirty.get(cell) {
            return Err(ExplainError::CellNotRepaired { cell });
        }
        Ok(target.clone())
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
        self.explain_constraints_with_stats(dcs, dirty, cell)
            .map(|(explanation, _)| explanation)
    }

    /// [`Explainer::explain_constraints`], also returning the repair-oracle
    /// cache counters the explanation accumulated (hits, misses,
    /// evictions). The stress harness records these as cache-pressure
    /// telemetry; the explanation itself is identical at any oracle
    /// capacity.
    pub fn explain_constraints_with_stats(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
    ) -> Result<(ConstraintExplanation, trex_repair::OracleStats), ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = self.constraint_game(dcs, dirty, cell, target.clone());
        // The rational solver has the lower player cap, so it runs first:
        // an oversized program fails before any coalition is repaired.
        let rationals = shapley_exact_rational(&game).map_err(too_many_constraints)?;
        let values = shapley_exact(&game).map_err(too_many_constraints)?;
        let ranking = Ranking::new(
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (Game::player_label(&game, i), *v))
                .collect(),
        );
        let explanation = ConstraintExplanation {
            ranking,
            exact: rationals
                .into_iter()
                .enumerate()
                .map(|(i, r)| (Game::player_label(&game, i), r))
                .collect(),
            target,
        };
        Ok((explanation, game.oracle_stats()))
    }

    /// Pairwise **Shapley interaction indices** of the constraints for the
    /// repair of `cell` (extension; Grabisch–Roubens). Positive entries are
    /// complements — the paper's C1/C2, which "contributed as a pair" —
    /// negative entries substitutes (C3 against either of them). Returns
    /// the labeled symmetric matrix in constraint order.
    pub fn constraint_interactions(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
    ) -> Result<(Vec<String>, Vec<Vec<f64>>), ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = self.constraint_game(dcs, dirty, cell, target);
        let matrix =
            trex_shapley::shapley_interaction_exact(&game).map_err(too_many_constraints)?;
        let labels = (0..dcs.len())
            .map(|i| Game::player_label(&game, i))
            .collect();
        Ok((labels, matrix))
    }

    /// **Banzhaf** power indices of the constraints (extension): the
    /// unweighted-average-marginal alternative to Shapley. Useful as a
    /// cross-check that the ranking is not an artifact of Shapley's
    /// size weighting.
    pub fn constraint_banzhaf(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
    ) -> Result<Ranking, ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = self.constraint_game(dcs, dirty, cell, target);
        let values = trex_shapley::banzhaf_exact(&game).map_err(too_many_constraints)?;
        Ok(Ranking::new(
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (Game::player_label(&game, i), *v))
                .collect(),
        ))
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
        let estimates =
            parallel::estimate_all(&game, ParallelConfig::from_sampling(config, self.threads()));
        let players = game.players().to_vec();
        let ranking = Ranking::with_errors(
            estimates
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    (
                        StochasticGame::player_label(&game, i),
                        e.value,
                        Some(e.std_error()),
                    )
                })
                .collect(),
        );
        Ok(CellExplanation {
            ranking,
            values: estimates.iter().map(|e| e.value).collect(),
            players,
            target,
        })
    }

    /// Adaptive cell explanation (extension): each cell is sampled under
    /// replacement semantics until its `z`-confidence half-width drops
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
    /// `config.seed` alone — never on the thread count.
    pub fn explain_cells_adaptive(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
        config: AdaptiveConfig,
    ) -> Result<(CellExplanation, Vec<bool>), ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = CellGameSampled::new(self.alg, dcs, dirty, cell, target.clone());
        let players = game.players().to_vec();
        let (estimates, converged): (Vec<_>, Vec<_>) = parallel::estimate_all_adaptive(
            &game,
            config.tolerance,
            config.z,
            config.batch,
            config.max_samples,
            config.seed,
            self.threads(),
        )
        .into_iter()
        .unzip();
        let ranking = Ranking::with_errors(
            estimates
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    (
                        StochasticGame::player_label(&game, i),
                        e.value,
                        Some(e.std_error()),
                    )
                })
                .collect(),
        );
        Ok((
            CellExplanation {
                ranking,
                values: estimates.iter().map(|e| e.value).collect(),
                players,
                target,
            },
            converged,
        ))
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
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = self.masked_game(dcs, dirty, cell, target.clone(), mode);
        let estimates = parallel::estimate_all_walk(
            &game,
            ParallelConfig::from_sampling(config, self.threads()),
        );
        let players = game.players().to_vec();
        let ranking = Ranking::with_errors(
            estimates
                .iter()
                .enumerate()
                .map(|(i, e)| (Game::player_label(&game, i), e.value, Some(e.std_error())))
                .collect(),
        );
        Ok(CellExplanation {
            ranking,
            values: estimates.iter().map(|e| e.value).collect(),
            players,
            target,
        })
    }

    /// Anytime variant of [`Explainer::explain_cells_masked`]: the same
    /// shared-permutation-walk estimator, but `on_checkpoint` observes the
    /// in-progress estimates every `checkpoint_every` walks and can stop
    /// the run early ([`AnytimeControl::Stop`]) — e.g. when a latency
    /// budget expires or the requesting client disconnects.
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
        let game = self.masked_game(dcs, dirty, cell, target.clone(), mode);
        let (estimates, finished) = parallel::estimate_all_walk_anytime(
            &game,
            ParallelConfig::from_sampling(config, self.threads()),
            checkpoint_every,
            on_checkpoint,
        );
        let players = game.players().to_vec();
        let ranking = Ranking::with_errors(
            estimates
                .iter()
                .enumerate()
                .map(|(i, e)| (Game::player_label(&game, i), e.value, Some(e.std_error())))
                .collect(),
        );
        Ok((
            CellExplanation {
                ranking,
                values: estimates.iter().map(|e| e.value).collect(),
                players,
                target,
            },
            finished,
        ))
    }

    /// Two-phase cell explanation (extension): a cheap permutation-walk
    /// *screening* pass over all cells, then a *refinement* pass that
    /// re-estimates only the `k` screened leaders with `refine_samples`
    /// per-player samples each. The interactive demo only ever shows the
    /// top of the ranking, so spending the budget there cuts latency
    /// without touching what the user sees.
    ///
    /// Refined entries replace their screened estimates; everything else
    /// keeps the screening value.
    #[allow(clippy::too_many_arguments)]
    pub fn explain_cells_topk(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
        mode: MaskMode,
        k: usize,
        screen: SamplingConfig,
        refine_samples: usize,
    ) -> Result<CellExplanation, ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = self.masked_game(dcs, dirty, cell, target.clone(), mode);
        let players = game.players().to_vec();
        let screened = parallel::estimate_all_walk(
            &game,
            ParallelConfig::from_sampling(screen, self.threads()),
        );

        // Leaders by screened value.
        let mut order: Vec<usize> = (0..players.len()).collect();
        order.sort_by(|a, b| screened[*b].value.total_cmp(&screened[*a].value));
        let leaders: Vec<usize> = order.into_iter().take(k).collect();

        let mut values: Vec<f64> = screened.iter().map(|e| e.value).collect();
        let mut errors: Vec<f64> = screened.iter().map(|e| e.std_error()).collect();
        for (slot, &p) in leaders.iter().enumerate() {
            let refined = trex_shapley::estimate_player(
                &game,
                p,
                SamplingConfig {
                    samples: refine_samples,
                    seed: screen.seed.wrapping_add(1000 + slot as u64),
                },
            );
            values[p] = refined.value;
            errors[p] = refined.std_error();
        }
        let ranking = Ranking::with_errors(
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (Game::player_label(&game, i), *v, Some(errors[i])))
                .collect(),
        );
        Ok(CellExplanation {
            ranking,
            values,
            players,
            target,
        })
    }

    /// Exact cell explanation (subset enumeration) under masked semantics —
    /// only for tiny tables (≤ [`trex_shapley::MAX_EXACT_PLAYERS`] player
    /// cells), used by tests and the convergence experiment as ground
    /// truth.
    pub fn explain_cells_exact(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
        mode: MaskMode,
    ) -> Result<CellExplanation, ExplainError> {
        let target = self.repair_target(dcs, dirty, cell)?;
        let game = self.masked_game(dcs, dirty, cell, target.clone(), mode);
        let players = game.players().to_vec();
        if players.len() > trex_shapley::MAX_EXACT_PLAYERS {
            return Err(ExplainError::TooManyCells {
                players: players.len(),
                limit: trex_shapley::MAX_EXACT_PLAYERS,
            });
        }
        let values = shapley_exact(&game).expect("player count checked");
        let ranking = Ranking::new(
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (Game::player_label(&game, i), *v))
                .collect(),
        );
        Ok(CellExplanation {
            ranking,
            values,
            players,
            target,
        })
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
        // 2x3 table: 5 player cells — exact enumeration feasible.
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
        let ex = Explainer::new(&alg);
        let cell = CellRef::new(1, t.schema().id("Country"));
        let out = ex
            .explain_cells_exact(&dcs, &t, cell, MaskMode::Null)
            .unwrap();
        assert_eq!(out.target, Value::str("Spain"));
        // The three cells that matter: t1[League], t1[Country], t2[League].
        assert!(out.ranking.get("t1[League]").unwrap().value > 0.0);
        assert!(out.ranking.get("t1[Country]").unwrap().value > 0.0);
        assert!(out.ranking.get("t2[League]").unwrap().value > 0.0);
        // Pad cells are dummies.
        assert_eq!(out.ranking.get("t1[Pad]").unwrap().value, 0.0);
        assert_eq!(out.ranking.get("t2[Pad]").unwrap().value, 0.0);
        // Efficiency: the grand coalition repairs the cell.
        assert!((out.values.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_cell_explanation_rejects_large_tables() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let err = ex
            .explain_cells_exact(
                &dcs,
                &dirty,
                laliga::cell_of_interest(&dirty),
                MaskMode::Null,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ExplainError::TooManyCells { players: 35, .. }
        ));
    }

    #[test]
    fn topk_refinement_keeps_the_headline_and_tightens_errors() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let cell = laliga::cell_of_interest(&dirty);
        let screen = SamplingConfig {
            samples: 150,
            seed: 9,
        };
        let cheap = ex
            .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, screen)
            .unwrap();
        let refined = ex
            .explain_cells_topk(&dcs, &dirty, cell, MaskMode::Null, 3, screen, 1200)
            .unwrap();
        // The headline survives refinement.
        assert_eq!(refined.ranking.top().unwrap().label, "t5[League]");
        // The refined leader has a tighter standard error than screening.
        let cheap_se = cheap.ranking.get("t5[League]").unwrap().std_error.unwrap();
        let refined_se = refined
            .ranking
            .get("t5[League]")
            .unwrap()
            .std_error
            .unwrap();
        assert!(refined_se < cheap_se, "{refined_se} vs {cheap_se}");
        // Non-leaders keep their screened values.
        assert_eq!(
            refined.ranking.get("t1[Place]").unwrap().value,
            cheap.ranking.get("t1[Place]").unwrap().value
        );
    }

    #[test]
    fn constraint_interactions_show_c1_c2_complementarity() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let (labels, m) = ex
            .constraint_interactions(&dcs, &dirty, laliga::cell_of_interest(&dirty))
            .unwrap();
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
        let ex = Explainer::new(&alg);
        let bz = ex
            .constraint_banzhaf(&dcs, &dirty, laliga::cell_of_interest(&dirty))
            .unwrap();
        // Same ordering as Shapley: C3 ≻ C1 = C2 ≻ C4, with the known
        // exact Banzhaf values (3/4, 1/4, 1/4, 0).
        assert_eq!(bz.top().unwrap().label, "C3");
        assert!((bz.get("C3").unwrap().value - 0.75).abs() < 1e-12);
        assert!((bz.get("C1").unwrap().value - 0.25).abs() < 1e-12);
        assert!((bz.get("C2").unwrap().value - 0.25).abs() < 1e-12);
        assert_eq!(bz.get("C4").unwrap().value, 0.0);
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

    #[test]
    fn explainer_config_accessors_and_defaults() {
        let alg = laliga::algorithm1();
        assert_eq!(Explainer::new(&alg).threads(), 1);
        assert_eq!(Explainer::new(&alg).oracle_capacity(), None);
        assert_eq!(Explainer::new(&alg).config(), ExecConfig::default());
        let cfg = ExecConfig::new().with_threads(8).with_oracle_cap(64);
        let ex = Explainer::new(&alg).with_config(cfg);
        assert_eq!(ex.threads(), 8);
        assert_eq!(ex.oracle_capacity(), Some(64));
        assert_eq!(ex.config(), cfg);
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
        let too_many = |e: ExplainError| match e {
            ExplainError::TooManyConstraints { constraints, limit } => {
                assert_eq!(constraints, 25);
                assert!(limit < 25, "limit {limit}");
            }
            other => panic!("expected TooManyConstraints, got {other:?}"),
        };
        too_many(ex.explain_constraints(&dcs, &dirty, cell).unwrap_err());
        too_many(ex.constraint_interactions(&dcs, &dirty, cell).unwrap_err());
        too_many(ex.constraint_banzhaf(&dcs, &dirty, cell).unwrap_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let cell = CellRef::new(4, AttrId(2));
        let e1 = ExplainError::CellNotRepaired { cell };
        assert!(e1.to_string().contains("not repaired"));
        let e2 = ExplainError::TooManyCells {
            players: 100,
            limit: 24,
        };
        assert!(e2.to_string().contains("100"));
        let e3 = ExplainError::TooManyConstraints {
            constraints: 25,
            limit: 20,
        };
        assert!(e3.to_string().contains("25 constraints"), "{e3}");
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
