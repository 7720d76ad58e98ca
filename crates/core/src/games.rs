//! The two cooperative games of the paper (§2.2).
//!
//! Both games share the same characteristic function skeleton: query the
//! black-box repair algorithm and report whether the user's cell of interest
//! gets repaired to its clean value.
//!
//! * [`ConstraintGame`] — players are the denial constraints; a coalition
//!   `S ⊆ C` evaluates `Alg|t[A](S, T^d)` with the table fixed. Solved
//!   exactly (few players).
//! * [`CellGameMasked`] — players are the table cells (except the cell of
//!   interest, which always keeps its dirty value — it is the subject of
//!   the game, not a participant); a coalition `S ⊆ T^d` evaluates
//!   `Alg|t[A](C, S)` where every cell outside `S` is masked. Two masking
//!   semantics are provided (see [`MaskMode`]).
//! * [`CellGameSampled`] — the sampling variant of Example 2.5: cells
//!   outside the coalition are replaced by *random draws from their column
//!   distribution* rather than masked, with common random numbers between
//!   the `v(S ∪ {i})` / `v(S)` pair.
//!
//! All three games are `Sync` (the `Game`/`StochasticGame` traits demand
//! it), so the parallel sampling engine's workers can evaluate one shared
//! game. [`ConstraintGame`] and [`CellGameMasked`] memoize through
//! `trex_repair::ShardedOracle` and share cache hits across workers;
//! [`CellGameSampled`] is stateless — replacement tables are fresh draws,
//! so there is nothing to cache and every sample pays a full repair.
//!
//! [`ConstraintGame`] and [`CellGameMasked`] ask the engine once per build
//! which slice of the program can reach the cell of interest's column
//! (`trex_repair::Reach`). Coalitions repair with, and are keyed on, only
//! their in-slice members, so players outside the slice keep their index
//! and their place in every permutation but add exactly 0. An engine that
//! declares no slice keeps everything in it.

use rand::RngCore;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use trex_constraints::DenialConstraint;
use trex_repair::{hash_value, OracleStats, Reach, RepairAlgorithm, ShardedOracle};
use trex_shapley::{Coalition, Game, StochasticGame};
use trex_table::{CellRef, EncodedTable, Table, TableSamplers, Value};

/// Sentinel fingerprint for a Null-masked cell whose column dictionary has
/// no null code (codes are `u32`, so this cannot collide with one).
const MASK_NULL_SENTINEL: u64 = 1 << 32;
/// Base fingerprint for a Distinct-masked cell: `BASE | flat_index`. Flat
/// indices are far below 2^32, so these collide with neither codes nor the
/// null sentinel.
const MASK_DISTINCT_BASE: u64 = 1 << 33;

/// How a cell outside the coalition is represented in the masked table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskMode {
    /// Out-of-coalition cells become `NULL`, and a null satisfies *no*
    /// predicate (including `≠`). This is the principled reading of the
    /// paper's `∀ t_j[C] ∈ T^d \ S. t_j[C] = null`: an absent cell cannot
    /// witness a violation. Default.
    #[default]
    Null,
    /// Out-of-coalition cells become *labeled nulls*
    /// ([`Value::LabeledNull`]): unknown values that are distinct from every
    /// concrete value and from each other, never match an `=` predicate,
    /// and never vote in repair statistics. This reproduces the reading
    /// under which the paper counts `2^32` coalitions for the C1∧C2 route
    /// in Example 2.4 (a masked `t5[City]` still *differs* from
    /// `t3[City]`, so C1 fires) — see EXPERIMENTS.md E4 for the
    /// side-by-side.
    Distinct,
}

/// The constraint game: `Shap(C, Alg|t[A], Cᵢ)` of §2.2.
pub struct ConstraintGame<'a> {
    oracle: ShardedOracle<'a>,
    dcs: &'a [DenialConstraint],
    dirty: &'a Table,
    cell: CellRef,
    target: Value,
    /// The slice of `dcs` that can reach `cell`'s column: a coalition
    /// keys and repairs on its in-slice members only.
    reach: Reach,
    /// Precomputed oracle-key components: the table fingerprint and target
    /// hash are coalition-invariant, and the per-DC display hashes let
    /// [`Game::value`] fingerprint a subset without cloning it — the DC
    /// clones happen only inside a cache miss.
    dirty_fp: u64,
    target_hash: u64,
    dc_hashes: Vec<u64>,
}

impl<'a> ConstraintGame<'a> {
    fn build(
        oracle: ShardedOracle<'a>,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
    ) -> Self {
        let dc_hashes = dcs
            .iter()
            .map(|dc| {
                let mut h = DefaultHasher::new();
                dc.to_string().hash(&mut h);
                h.finish()
            })
            .collect();
        let reach = Reach::of(oracle.algorithm(), dcs, dirty.schema(), cell.attr);
        ConstraintGame {
            oracle,
            dcs,
            dirty,
            cell,
            reach,
            dirty_fp: dirty.fingerprint(),
            target_hash: hash_value(&target),
            target,
            dc_hashes,
        }
    }

    /// Build the game around a caller-configured oracle — capacity bound,
    /// shard count, or a cache shared across requests; see
    /// [`ShardedOracle`]'s builders. Answers are identical to
    /// [`ConstraintGame::new`].
    pub fn with_oracle(
        oracle: ShardedOracle<'a>,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
    ) -> Self {
        Self::build(oracle, dcs, dirty, cell, target)
    }

    /// Build the game. `target` is the clean value `t^c[A]` the repair is
    /// expected to produce (obtain it from a full repair run).
    pub fn new(
        alg: &'a dyn RepairAlgorithm,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
    ) -> Self {
        Self::build(ShardedOracle::new(alg), dcs, dirty, cell, target)
    }

    /// Build the game with an explicit oracle cache capacity (entries):
    /// the memo cache evicts (second-chance, per shard) once it holds
    /// `capacity` coalition answers, so long explanations run in bounded
    /// memory. Results are identical to [`ConstraintGame::new`] — eviction
    /// only ever costs recomputation time.
    pub fn with_oracle_capacity(
        alg: &'a dyn RepairAlgorithm,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
        capacity: usize,
    ) -> Self {
        Self::build(
            ShardedOracle::with_capacity(alg, capacity),
            dcs,
            dirty,
            cell,
            target,
        )
    }

    /// Disable oracle caching (ablation A1).
    pub fn without_cache(
        alg: &'a dyn RepairAlgorithm,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
    ) -> Self {
        Self::with_oracle_capacity(alg, dcs, dirty, cell, target, 0)
    }

    /// Oracle cache statistics (hits/misses) accumulated so far.
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.stats()
    }

    /// The coalition's in-slice members, in program order: the
    /// sub-program its repair runs.
    fn members<'c>(&'c self, coalition: &'c Coalition) -> impl Iterator<Item = usize> + 'c {
        coalition.iter().filter(|&i| self.reach.keeps(i))
    }

    /// Fingerprint the in-slice subset from the precomputed per-DC hashes:
    /// two coalitions share a key exactly when their in-slice members form
    /// the same DC display sequence, the same sharing `hash_dcs` over the
    /// cloned subset produced. DC clones are deferred into cache misses.
    fn coalition_key(&self, coalition: &Coalition) -> trex_repair::OracleKey {
        let mut h = DefaultHasher::new();
        let mut len = 0usize;
        for i in self.members(coalition) {
            self.dc_hashes[i].hash(&mut h);
            len += 1;
        }
        len.hash(&mut h);
        (h.finish(), self.dirty_fp, self.cell, self.target_hash)
    }
}

impl Game for ConstraintGame<'_> {
    fn num_players(&self) -> usize {
        self.dcs.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let key = self.coalition_key(coalition);
        let repaired = self.oracle.query_keyed(key, || {
            let subset: Vec<DenialConstraint> = self
                .members(coalition)
                .map(|i| self.dcs[i].clone())
                .collect();
            trex_repair::repairs_cell_to(
                self.oracle.algorithm(),
                &subset,
                self.dirty,
                self.cell,
                &self.target,
            )
        });
        if repaired {
            1.0
        } else {
            0.0
        }
    }

    fn player_label(&self, i: usize) -> String {
        self.dcs[i].name.clone()
    }
}

/// Enumerate the players of the cell game: every cell of `table` except
/// `exclude` (the cell of interest), in row-major order.
pub fn cell_players(table: &Table, exclude: CellRef) -> Vec<CellRef> {
    table.cells().filter(|c| *c != exclude).collect()
}

/// The display label of a table cell, in the paper's `t5[League]` notation
/// (1-based row, attribute name). This is the exact label the cell games
/// give their players, so out-of-band consumers (the server's anytime
/// stream most notably) can label raw per-player estimates identically.
pub fn cell_label(table: &Table, cell: CellRef) -> String {
    format!("t{}[{}]", cell.row + 1, table.schema().attr(cell.attr).name)
}

fn label_of(table: &Table, cell: CellRef) -> String {
    cell_label(table, cell)
}

/// The masked cell game: `Shap(T^d, Alg|t[A], tᵢ[B])` of §2.2, with
/// out-of-coalition cells masked per [`MaskMode`].
pub struct CellGameMasked<'a> {
    oracle: ShardedOracle<'a>,
    /// The slice of the program that can reach `cell`'s column
    /// ([`Reach::program`]): what every coalition repairs with.
    program: Vec<DenialConstraint>,
    dirty: &'a Table,
    cell: CellRef,
    target: Value,
    players: Vec<CellRef>,
    /// Indices of the players whose column the slice reads: the only
    /// cells a coalition's key and answer depend on.
    keyed: Vec<usize>,
    mode: MaskMode,
    /// `dirty`'s own dictionary encoding ([`Table::encoded`]): coalition
    /// fingerprints are packed per-cell code vectors hashed straight from
    /// here — a cache hit never clones or masks a table (see
    /// [`CellGameMasked::coalition_key`]).
    enc: &'a EncodedTable,
    dirty_fp: u64,
    dcs_hash: u64,
    target_hash: u64,
}

impl<'a> CellGameMasked<'a> {
    fn build(
        oracle: ShardedOracle<'a>,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
        mode: MaskMode,
    ) -> Self {
        let reach = Reach::of(oracle.algorithm(), dcs, dirty.schema(), cell.attr);
        let program = reach.program(dcs);
        let players = cell_players(dirty, cell);
        let keyed = (0..players.len())
            .filter(|&i| reach.reads(players[i].attr))
            .collect();
        CellGameMasked {
            oracle,
            dcs_hash: trex_repair::hash_dcs(&program),
            program,
            dirty,
            cell,
            players,
            keyed,
            mode,
            enc: dirty.encoded(),
            dirty_fp: dirty.fingerprint(),
            target_hash: hash_value(&target),
            target,
        }
    }

    /// Build the game over all cells except the cell of interest.
    pub fn new(
        alg: &'a dyn RepairAlgorithm,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
        mode: MaskMode,
    ) -> Self {
        Self::build(ShardedOracle::new(alg), dcs, dirty, cell, target, mode)
    }

    /// Build the game with an explicit oracle cache capacity (entries):
    /// the memo cache evicts (second-chance, per shard) once it holds
    /// `capacity` coalition answers — the knob that keeps week-long
    /// sampling runs over large tables from growing the cache without
    /// bound. Results are identical to [`CellGameMasked::new`]; eviction
    /// only ever costs recomputation time.
    #[allow(clippy::too_many_arguments)]
    pub fn with_oracle_capacity(
        alg: &'a dyn RepairAlgorithm,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
        mode: MaskMode,
        capacity: usize,
    ) -> Self {
        Self::build(
            ShardedOracle::with_capacity(alg, capacity),
            dcs,
            dirty,
            cell,
            target,
            mode,
        )
    }

    /// Build the game around a caller-configured oracle — capacity bound,
    /// shard count, or a cache shared across requests; see
    /// [`ShardedOracle`]'s builders. Answers are identical to
    /// [`CellGameMasked::new`].
    pub fn with_oracle(
        oracle: ShardedOracle<'a>,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
        mode: MaskMode,
    ) -> Self {
        Self::build(oracle, dcs, dirty, cell, target, mode)
    }

    /// The player list (cell references), index-aligned with Shapley output.
    pub fn players(&self) -> &[CellRef] {
        &self.players
    }

    /// Oracle cache statistics.
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.stats()
    }

    /// Build the coalition table: players in `coalition` keep their dirty
    /// values, the rest are masked; the cell of interest always keeps its
    /// dirty value.
    pub fn coalition_table(&self, coalition: &Coalition) -> Table {
        let arity = self.dirty.arity();
        let mut out = self.dirty.clone();
        for (idx, player) in self.players.iter().enumerate() {
            if !coalition.contains(idx) {
                let masked = match self.mode {
                    MaskMode::Null => Value::Null,
                    MaskMode::Distinct => Value::LabeledNull(player.flat_index(arity) as u64),
                };
                out.set(*player, masked);
            }
        }
        out
    }

    /// The oracle key of a coalition, computed without materializing the
    /// masked table: hash the dirty fingerprint, the mask mode, and one
    /// `u64` per in-slice player cell — its dictionary code when in the
    /// coalition, a mask fingerprint otherwise. A Null-masked cell maps to
    /// the column's null code (so masking an already-null cell shares its
    /// key with including it, exactly as the materialized tables coincide)
    /// or to [`MASK_NULL_SENTINEL`] when the column has no null; a
    /// Distinct-masked cell maps to [`MASK_DISTINCT_BASE`]`| flat_index`,
    /// mirroring the pairwise-distinct labeled nulls it would become. Two
    /// coalitions share a key exactly when their masked tables agree on
    /// every column the slice reads, which is all the sliced repair sees.
    fn coalition_key(&self, coalition: &Coalition) -> trex_repair::OracleKey {
        let arity = self.dirty.arity();
        let mut h = DefaultHasher::new();
        self.dirty_fp.hash(&mut h);
        (self.mode == MaskMode::Distinct).hash(&mut h);
        for &idx in &self.keyed {
            let player = &self.players[idx];
            let fp = if coalition.contains(idx) {
                u64::from(self.enc.code(player.row, player.attr))
            } else {
                match self.mode {
                    MaskMode::Null => self
                        .enc
                        .dict(player.attr)
                        .null_code()
                        .map_or(MASK_NULL_SENTINEL, u64::from),
                    MaskMode::Distinct => MASK_DISTINCT_BASE | player.flat_index(arity) as u64,
                }
            };
            fp.hash(&mut h);
        }
        (self.dcs_hash, h.finish(), self.cell, self.target_hash)
    }
}

impl Game for CellGameMasked<'_> {
    fn num_players(&self) -> usize {
        self.players.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let key = self.coalition_key(coalition);
        let repaired = self.oracle.query_keyed(key, || {
            let table = self.coalition_table(coalition);
            trex_repair::repairs_cell_to(
                self.oracle.algorithm(),
                &self.program,
                &table,
                self.cell,
                &self.target,
            )
        });
        if repaired {
            1.0
        } else {
            0.0
        }
    }

    fn player_label(&self, i: usize) -> String {
        label_of(self.dirty, self.players[i])
    }
}

/// The sampled cell game of Example 2.5: out-of-coalition cells take random
/// draws from their column's empirical distribution.
pub struct CellGameSampled<'a> {
    alg: &'a dyn RepairAlgorithm,
    dcs: &'a [DenialConstraint],
    dirty: &'a Table,
    cell: CellRef,
    target: Value,
    players: Vec<CellRef>,
    samplers: TableSamplers,
}

impl<'a> CellGameSampled<'a> {
    /// Build the game; column samplers are derived from the dirty table.
    pub fn new(
        alg: &'a dyn RepairAlgorithm,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
    ) -> Self {
        CellGameSampled {
            alg,
            dcs,
            dirty,
            cell,
            target,
            players: cell_players(dirty, cell),
            samplers: TableSamplers::new(dirty),
        }
    }

    /// The player list (cell references), index-aligned with Shapley output.
    pub fn players(&self) -> &[CellRef] {
        &self.players
    }

    fn eval(&self, table: &Table) -> f64 {
        if trex_repair::repairs_cell_to(self.alg, self.dcs, table, self.cell, &self.target) {
            1.0
        } else {
            0.0
        }
    }
}

impl StochasticGame for CellGameSampled<'_> {
    fn num_players(&self) -> usize {
        self.players.len()
    }

    /// Example 2.5, verbatim: build *one* replacement table in which
    /// coalition cells keep their original values and all other cells get
    /// random draws; evaluate it once with the player's original value and
    /// once with the player's value also replaced by a draw.
    fn eval_pair(&self, coalition: &Coalition, player: usize, rng: &mut dyn RngCore) -> (f64, f64) {
        debug_assert!(!coalition.contains(player));
        let mut table = self.dirty.clone();
        for (idx, cellref) in self.players.iter().enumerate() {
            if idx != player && !coalition.contains(idx) {
                let draw = self.samplers.sample(cellref.attr, rng);
                table.set(*cellref, draw);
            }
        }
        // Instance 1: player keeps its original value (already in place).
        let with = self.eval(&table);
        // Instance 2: player's value replaced by a random draw too.
        let player_cell = self.players[player];
        let draw = self.samplers.sample(player_cell.attr, rng);
        table.set(player_cell, draw);
        let without = self.eval(&table);
        (with, without)
    }

    fn player_label(&self, i: usize) -> String {
        label_of(self.dirty, self.players[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_datagen::laliga;
    use trex_shapley::{shapley_exact_rational, Rational};

    #[test]
    fn constraint_game_reproduces_example_2_3() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, Value::str("Spain"));
        let phi = shapley_exact_rational(&game).unwrap();
        assert_eq!(phi[0], Rational { num: 1, den: 6 }); // C1
        assert_eq!(phi[1], Rational { num: 1, den: 6 }); // C2
        assert_eq!(phi[2], Rational { num: 2, den: 3 }); // C3
        assert_eq!(phi[3], Rational { num: 0, den: 1 }); // C4
    }

    #[test]
    fn constraint_game_labels_are_dc_names() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, Value::str("Spain"));
        assert_eq!(Game::player_label(&game, 0), "C1");
        assert_eq!(Game::player_label(&game, 3), "C4");
    }

    #[test]
    fn oracle_cache_pays_off_across_solver_runs() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, Value::str("Spain"));
        // The subset-enumeration solver evaluates each of the 16 coalitions
        // once. C4 cannot reach Country, so each coalition is keyed on its
        // members among C1–C3: 8 distinct repairs, and the 8 coalitions
        // with C4 are hits...
        let _ = trex_shapley::shapley_exact(&game).unwrap();
        assert_eq!(
            game.oracle_stats(),
            trex_repair::OracleStats {
                hits: 8,
                misses: 8,
                evictions: 0
            }
        );
        // ...and a second solve (e.g. the rational cross-check an explainer
        // also runs) is answered entirely from cache.
        let _ = trex_shapley::shapley_exact_rational(&game).unwrap();
        let stats = game.oracle_stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.hits, 24);
    }

    #[test]
    fn players_outside_the_slice_add_exactly_zero() {
        // Only C4 reads Year and Place, and C4 writes only Place, so none
        // of their 12 cells can change t5[Country]: they keep their player
        // index and come out exactly 0 under either mask.
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let outside = [dirty.schema().id("Year"), dirty.schema().id("Place")];
        for mode in [MaskMode::Null, MaskMode::Distinct] {
            let game = CellGameMasked::new(&alg, &dcs, &dirty, cell, Value::str("Spain"), mode);
            assert_eq!(Game::num_players(&game), 35);
            let config = trex_shapley::SamplingConfig {
                samples: 60,
                seed: 5,
            };
            let estimates = trex_shapley::sampling::estimate_all_walk(&game, config);
            let zeros: Vec<u64> = game
                .players()
                .iter()
                .zip(&estimates)
                .filter(|(p, _)| outside.contains(&p.attr))
                .map(|(_, e)| e.value.to_bits())
                .collect();
            assert_eq!(zeros, vec![0.0f64.to_bits(); 12], "{mode:?}");
        }
    }

    #[test]
    fn cell_game_has_35_players_for_the_paper_table() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let game = CellGameMasked::new(
            &alg,
            &dcs,
            &dirty,
            cell,
            Value::str("Spain"),
            MaskMode::Null,
        );
        assert_eq!(Game::num_players(&game), 35);
        assert!(!game.players().contains(&cell));
    }

    #[test]
    fn empty_coalition_value_is_zero() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        for mode in [MaskMode::Null, MaskMode::Distinct] {
            let game = CellGameMasked::new(&alg, &dcs, &dirty, cell, Value::str("Spain"), mode);
            let empty = Coalition::empty(Game::num_players(&game));
            assert_eq!(game.value(&empty), 0.0, "{mode:?}");
        }
    }

    #[test]
    fn full_coalition_repairs_the_cell() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        for mode in [MaskMode::Null, MaskMode::Distinct] {
            let game = CellGameMasked::new(&alg, &dcs, &dirty, cell, Value::str("Spain"), mode);
            let full = Coalition::full(Game::num_players(&game));
            assert_eq!(game.value(&full), 1.0, "{mode:?}");
        }
    }

    #[test]
    fn example_2_4_c3_route_single_pair_suffices() {
        // {t5[League]} ∪ {t1[Country], t1[League]} repairs t5[Country].
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let game = CellGameMasked::new(
            &alg,
            &dcs,
            &dirty,
            cell,
            Value::str("Spain"),
            MaskMode::Null,
        );
        let league = dirty.schema().id("League");
        let country = dirty.schema().id("Country");
        let wanted = [
            CellRef::new(4, league),
            CellRef::new(0, league),
            CellRef::new(0, country),
        ];
        let players = game.players();
        let coalition = Coalition::from_players(
            players.len(),
            wanted
                .iter()
                .map(|c| players.iter().position(|p| p == c).unwrap()),
        );
        assert_eq!(game.value(&coalition), 1.0);
        // Without t5[League], the same witness pair does nothing.
        let coalition2 = Coalition::from_players(
            players.len(),
            wanted[1..]
                .iter()
                .map(|c| players.iter().position(|p| p == c).unwrap()),
        );
        assert_eq!(game.value(&coalition2), 0.0);
    }

    #[test]
    fn example_2_4_c1c2_route_under_both_mask_modes() {
        // The paper's minimal C1∧C2-route coalition is {t3[Team], t3[City],
        // t3[Country], t5[Team]}. Under Distinct masking (the paper's
        // counting semantics) this suffices: the masked t5[City] still
        // *differs* from t3[City], so C1 fires and repairs it. Under Null
        // masking the route needs more: t5[City] itself (a null cannot
        // witness the C1 violation) plus one more Madrid vote (t6[City]),
        // without which the 1-vs-1 City tie swaps t3's value away and
        // breaks the C2 join.
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let team = dirty.schema().id("Team");
        let city = dirty.schema().id("City");
        let country = dirty.schema().id("Country");
        let base = [
            CellRef::new(2, team),
            CellRef::new(2, city),
            CellRef::new(2, country),
            CellRef::new(4, team),
        ];

        let by_mode = |mode: MaskMode, cells: &[CellRef]| {
            let game = CellGameMasked::new(&alg, &dcs, &dirty, cell, Value::str("Spain"), mode);
            let players = game.players().to_vec();
            let coalition = Coalition::from_players(
                players.len(),
                cells
                    .iter()
                    .map(|c| players.iter().position(|p| p == c).unwrap()),
            );
            game.value(&coalition)
        };

        assert_eq!(by_mode(MaskMode::Distinct, &base), 1.0);
        assert_eq!(by_mode(MaskMode::Null, &base), 0.0);
        let mut bigger = base.to_vec();
        bigger.push(CellRef::new(4, city));
        assert_eq!(by_mode(MaskMode::Null, &bigger), 0.0);
        bigger.push(CellRef::new(5, city));
        assert_eq!(by_mode(MaskMode::Null, &bigger), 1.0);
    }

    #[test]
    fn sampled_game_eval_pair_uses_common_randomness() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let game = CellGameSampled::new(&alg, &dcs, &dirty, cell, Value::str("Spain"));
        let n = StochasticGame::num_players(&game);
        assert_eq!(n, 35);
        let mut rng = StdRng::seed_from_u64(0);
        // Full coalition minus one player: v(S∪{i}) must be 1 regardless of
        // the single draw for `without`.
        let mut everyone = Coalition::full(n);
        everyone.remove(0);
        let (with, _without) = game.eval_pair(&everyone, 0, &mut rng);
        assert_eq!(with, 1.0);
    }

    #[test]
    fn cell_game_labels_use_one_based_rows_and_attr_names() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let game = CellGameMasked::new(
            &alg,
            &dcs,
            &dirty,
            cell,
            Value::str("Spain"),
            MaskMode::Null,
        );
        assert_eq!(Game::player_label(&game, 0), "t1[Team]");
        // Player index of t5[League]: players skip t5[Country].
        let league = dirty.schema().id("League");
        let idx = game
            .players()
            .iter()
            .position(|c| *c == CellRef::new(4, league))
            .unwrap();
        assert_eq!(Game::player_label(&game, idx), "t5[League]");
    }

    #[test]
    fn distinct_mask_uses_labeled_nulls() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let game = CellGameMasked::new(
            &alg,
            &dcs,
            &dirty,
            cell,
            Value::str("Spain"),
            MaskMode::Distinct,
        );
        let table = game.coalition_table(&Coalition::empty(Game::num_players(&game)));
        // Every player cell is a labeled null; labels are pairwise distinct;
        // the cell of interest keeps its dirty value.
        let mut labels = Vec::new();
        for (c, v) in table.cells_with_values() {
            if c == cell {
                assert_eq!(v, &Value::str("España"));
            } else {
                match v {
                    Value::LabeledNull(id) => labels.push(*id),
                    other => panic!("expected labeled null, got {other:?}"),
                }
            }
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 35);
    }
}
