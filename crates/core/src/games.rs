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
//! `trex_repair::ShardedOracle` and share cache hits across workers:
//! * a constraint coalition is a repair of the dirty table under the
//!   coalition's program, so it reads the oracle's repair entry for that
//!   (program, table) pair, which the explainer's repair target, other
//!   cells' explanations and a session's Repair button share;
//! * a masked cell coalition repairs its own masked table and asks about
//!   one cell, so it keeps a one-bit cell-game entry.
//!
//! [`CellGameSampled`] is stateless — replacement tables are fresh draws,
//! so there is nothing to cache and every in-slice sample pair pays two
//! sliced repairs.
//!
//! Every game asks the engine once per build which slice of the program
//! can reach the cell of interest's column (`trex_repair::Reach`).
//! Coalitions repair with only their in-slice members, and the two cached
//! games key on them only, so players outside the slice keep their index
//! and their place in every permutation but add exactly 0. An engine that
//! declares no slice keeps everything in it.
//!
//! **Walking the masked cell game.** Consecutive prefixes of a permutation
//! walk differ by one cell, so [`CellGameMasked`] evaluates walks through
//! its own [`Game::walk_values`] on one working table per walk:
//! * The all-masked table is built once per game. It masks only the cells
//!   whose column the slice reads; the other columns keep their dirty
//!   values, which the slice's promise makes answer-identical.
//! * Its encoding is built once per game too, with dictionaries spanning
//!   the dirty values as well as the mask values. A walk clones the table,
//!   and each step writes one dirty cell back as a code patch
//!   ([`Table::set_keep_codes`]), so a cache miss hands the engine a table
//!   whose codes are ready and pays only for its repair.
//! * The coalition key is a Zobrist hash: an XOR of one 64-bit hash per
//!   keyed cell, so a step updates it with one XOR. [`Game::value`] builds
//!   the same key over the coalition's members, so walks and single
//!   coalitions share cache entries.

use rand::RngCore;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use trex_constraints::DenialConstraint;
use trex_repair::{
    hash_dc, hash_dcs, hash_program, hash_value, repaired_value, OracleStats, Reach,
    RepairAlgorithm, ShardedOracle,
};
use trex_shapley::{Coalition, Game, StochasticGame};
use trex_table::{AttrId, CellRef, EncodedTable, Table, TableSamplers, Value};

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
///
/// A coalition's value is read off the oracle's repair of the dirty table
/// under the coalition's in-slice members: one entry per distinct
/// sub-program, shared with every other reader of the same (program,
/// table) pair.
pub struct ConstraintGame<'a> {
    oracle: ShardedOracle<'a>,
    dcs: &'a [DenialConstraint],
    dirty: &'a Table,
    cell: CellRef,
    target: Value,
    /// The slice of `dcs` that can reach `cell`'s column: a coalition
    /// keys and repairs on its in-slice members only.
    reach: Reach,
    /// Per-DC hashes ([`hash_dc`]): [`Game::value`] hashes a coalition's
    /// program from them without cloning it — the DC clones happen only
    /// inside a cache miss.
    dc_hashes: Vec<u64>,
}

impl<'a> ConstraintGame<'a> {
    /// Build the game around a caller-built oracle, typically on a cache
    /// shared with other queries ([`ShardedOracle::with_shared_cache`]) or
    /// sized to a capacity ([`trex_repair::OracleCache::with_config`]).
    /// Answers are identical to [`ConstraintGame::new`].
    pub fn with_oracle(
        oracle: ShardedOracle<'a>,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
    ) -> Self {
        let reach = Reach::of(oracle.algorithm(), dcs, dirty.schema(), cell.attr);
        ConstraintGame {
            oracle,
            dcs,
            dirty,
            cell,
            reach,
            target,
            dc_hashes: dcs.iter().map(hash_dc).collect(),
        }
    }

    /// Build the game on a private cache of the default capacity
    /// ([`ShardedOracle::new`]). `target` is the clean value `t^c[A]` the
    /// repair is expected to produce (obtain it from a full repair run).
    pub fn new(
        alg: &'a dyn RepairAlgorithm,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
    ) -> Self {
        Self::with_oracle(ShardedOracle::new(alg), dcs, dirty, cell, target)
    }

    /// Statistics of the oracle's cache (hits/misses) accumulated so far.
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.cache().stats()
    }

    /// The coalition's in-slice members, in program order: the
    /// sub-program its repair runs.
    fn members<'c>(&'c self, coalition: &'c Coalition) -> impl Iterator<Item = usize> + 'c {
        coalition.iter().filter(|&i| self.reach.keeps(i))
    }
}

impl Game for ConstraintGame<'_> {
    fn num_players(&self) -> usize {
        self.dcs.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let program = hash_program(self.members(coalition).map(|i| self.dc_hashes[i]));
        let changes = self.oracle.repair_keyed(program, self.dirty, || {
            let subset: Vec<DenialConstraint> = self
                .members(coalition)
                .map(|i| self.dcs[i].clone())
                .collect();
            self.oracle.algorithm().repair(&subset, self.dirty).changes
        });
        f64::from(u8::from(
            repaired_value(&changes, self.cell) == Some(&self.target),
        ))
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

/// The masked cell game: `Shap(T^d, Alg|t[A], tᵢ[B])` of §2.2, with
/// out-of-coalition cells masked per [`MaskMode`].
///
/// Only the *keyed* players, those whose column the slice reads, can
/// change an answer. The game builds two things for them once:
/// * the all-masked working table, in which every keyed player is masked
///   and every other cell keeps its dirty value, with an encoding whose
///   dictionaries span the dirty values too (see the module docs);
/// * one Zobrist hash per keyed player and per state (included or
///   masked), from the player's cell fingerprint in the dirty table's own
///   encoding. A coalition's key is the XOR of its keyed players' states.
///
/// A walk ([`Game::walk_values`]) clones the working table once and writes
/// one dirty cell back per keyed step; an unkeyed step writes nothing and
/// keeps the key. [`Game::value`] builds a coalition's table the same way
/// on a miss. [`CellGameMasked::coalition_table`] stays the reference:
/// the fully masked table the key stands for.
pub struct CellGameMasked<'a> {
    oracle: ShardedOracle<'a>,
    /// The slice of the program that can reach `cell`'s column
    /// ([`Reach::program`]): what every coalition repairs with.
    program: Vec<DenialConstraint>,
    dirty: &'a Table,
    cell: CellRef,
    target: Value,
    players: Vec<CellRef>,
    mode: MaskMode,
    /// Per player: the XOR of its included and masked Zobrist hashes when
    /// the slice reads its column, `None` otherwise (its cell never
    /// reaches a key or a write).
    flips: Vec<Option<u64>>,
    /// The key of the empty coalition: every keyed player masked.
    empty_key: u64,
    /// The all-masked working table every coalition's table starts from.
    masked: Table,
    /// `masked`'s encoding spans the dirty values, so writes patch codes
    /// ([`Table::set_keep_codes`]). `false` when a column of the dirty
    /// table has no exact equality partition
    /// ([`trex_table::Dictionary::num_fallback`]): a spanning dictionary
    /// could then keep that flag where a fresh encode of a coalition's
    /// table drops it and reorder a scan's witnesses, so writes drop the
    /// codes and every miss encodes afresh.
    spanning: bool,
    /// What every coalition asks ([`ShardedOracle::cell_answer`]): the
    /// hash of the sliced program, the cell of interest and the target.
    question: u64,
}

/// The Zobrist hash of `player` holding the cell fingerprint `fp`.
fn zobrist(player: usize, fp: u64) -> u64 {
    let mut h = DefaultHasher::new();
    (player, fp).hash(&mut h);
    h.finish()
}

impl<'a> CellGameMasked<'a> {
    /// Build the game around a caller-built oracle, typically on a cache
    /// shared with other queries ([`ShardedOracle::with_shared_cache`]) or
    /// sized to a capacity ([`trex_repair::OracleCache::with_config`]).
    /// Answers are identical to [`CellGameMasked::new`].
    pub fn with_oracle(
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
        let enc = dirty.encoded();
        let mut base = DefaultHasher::new();
        dirty.fingerprint().hash(&mut base);
        (mode == MaskMode::Distinct).hash(&mut base);
        let mut empty_key = base.finish();
        let mut masked = dirty.clone();
        let flips = players
            .iter()
            .enumerate()
            .map(|(idx, player)| {
                if !reach.reads(player.attr) {
                    return None;
                }
                let included = zobrist(idx, u64::from(enc.code(player.row, player.attr)));
                let excluded = zobrist(idx, mask_fingerprint(enc, *player, dirty.arity(), mode));
                empty_key ^= excluded;
                masked.set(*player, mask_value(*player, dirty.arity(), mode));
                Some(included ^ excluded)
            })
            .collect();
        let spanning = (0..dirty.arity()).all(|a| !enc.dict(AttrId(a)).num_fallback());
        if spanning {
            masked.encode_spanning(dirty);
        }
        let mut question = DefaultHasher::new();
        (hash_dcs(&program), cell, hash_value(&target)).hash(&mut question);
        CellGameMasked {
            oracle,
            question: question.finish(),
            program,
            dirty,
            cell,
            players,
            mode,
            flips,
            empty_key,
            masked,
            spanning,
            target,
        }
    }

    /// Build the game over all cells except the cell of interest, on a
    /// private cache of the default capacity ([`ShardedOracle::new`]).
    pub fn new(
        alg: &'a dyn RepairAlgorithm,
        dcs: &'a [DenialConstraint],
        dirty: &'a Table,
        cell: CellRef,
        target: Value,
        mode: MaskMode,
    ) -> Self {
        Self::with_oracle(ShardedOracle::new(alg), dcs, dirty, cell, target, mode)
    }

    /// The player list (cell references), index-aligned with Shapley output.
    pub fn players(&self) -> &[CellRef] {
        &self.players
    }

    /// Statistics of the oracle's cache.
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.cache().stats()
    }

    /// The reference coalition table: players in `coalition` keep their
    /// dirty values, every other player is masked, whatever its column;
    /// the cell of interest always keeps its dirty value. Its encoding is
    /// a fresh one, built on first use.
    ///
    /// The game's own repairs run on working tables that differ from this
    /// one only in the columns the slice does not read, which the slice's
    /// promise makes answer-identical (see [`CellGameMasked`]).
    pub fn coalition_table(&self, coalition: &Coalition) -> Table {
        let arity = self.dirty.arity();
        let mut out = self.dirty.clone();
        for (idx, player) in self.players.iter().enumerate() {
            if !coalition.contains(idx) {
                out.set(*player, mask_value(*player, arity, self.mode));
            }
        }
        out
    }

    /// Write player `idx`'s dirty value back into a working table.
    fn unmask(&self, table: &mut Table, idx: usize) {
        let player = self.players[idx];
        let value = self.dirty.get(player).clone();
        if self.spanning {
            table.set_keep_codes(player, value);
        } else {
            table.set(player, value);
        }
    }

    /// The oracle's answer for the coalition keyed `key`, as a game value;
    /// `repair` runs only on a miss.
    fn query(&self, key: u64, repair: impl FnOnce() -> bool) -> f64 {
        f64::from(u8::from(self.oracle.cell_answer(
            self.question,
            key,
            repair,
        )))
    }

    /// Does the sliced program repair the cell of interest to the target
    /// on `table`?
    fn repairs(&self, table: &Table) -> bool {
        trex_repair::repairs_cell_to(
            self.oracle.algorithm(),
            &self.program,
            table,
            self.cell,
            &self.target,
        )
    }
}

/// The value a masked cell takes under `mode`.
fn mask_value(cell: CellRef, arity: usize, mode: MaskMode) -> Value {
    match mode {
        MaskMode::Null => Value::Null,
        MaskMode::Distinct => Value::LabeledNull(cell.flat_index(arity) as u64),
    }
}

/// The fingerprint of a masked cell, in the space of the dictionary codes
/// of `enc` (the dirty table's own encoding) that fingerprint included
/// cells. A Null-masked cell maps to the
/// column's null code, so masking an already-null cell keeps its
/// fingerprint (and its Zobrist hash) exactly as the masked tables
/// coincide, or to [`MASK_NULL_SENTINEL`] when the column has no null. A
/// Distinct-masked cell maps to [`MASK_DISTINCT_BASE`]` | flat_index`,
/// mirroring the pairwise-distinct labeled nulls it becomes. Two
/// coalitions therefore share a key exactly when their masked tables
/// agree on every column the slice reads, which is all the sliced repair
/// sees.
fn mask_fingerprint(enc: &EncodedTable, cell: CellRef, arity: usize, mode: MaskMode) -> u64 {
    match mode {
        MaskMode::Null => enc
            .dict(cell.attr)
            .null_code()
            .map_or(MASK_NULL_SENTINEL, u64::from),
        MaskMode::Distinct => MASK_DISTINCT_BASE | cell.flat_index(arity) as u64,
    }
}

impl Game for CellGameMasked<'_> {
    fn num_players(&self) -> usize {
        self.players.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let key = coalition
            .iter()
            .filter_map(|idx| self.flips[idx])
            .fold(self.empty_key, |key, flip| key ^ flip);
        self.query(key, || {
            let mut table = self.masked.clone();
            for idx in coalition.iter().filter(|&idx| self.flips[idx].is_some()) {
                self.unmask(&mut table, idx);
            }
            self.repairs(&table)
        })
    }

    /// One working table for the whole walk: start from the all-masked
    /// table and the empty coalition's key, then per step write the
    /// player's dirty cell back and flip its key bits, or do nothing for
    /// an unkeyed player. Same values, oracle keys and query order as the
    /// per-prefix default.
    fn walk_values(&self, perm: &[usize], prefix: &mut Coalition, values: &mut Vec<f64>) {
        prefix.clear();
        values.clear();
        let mut table = self.masked.clone();
        let mut key = self.empty_key;
        values.push(self.query(key, || self.repairs(&table)));
        for &p in perm {
            prefix.insert(p);
            if let Some(flip) = self.flips[p] {
                key ^= flip;
                self.unmask(&mut table, p);
            }
            values.push(self.query(key, || self.repairs(&table)));
        }
    }

    fn player_label(&self, i: usize) -> String {
        cell_label(self.dirty, self.players[i])
    }
}

/// The sampled cell game of Example 2.5: out-of-coalition cells take random
/// draws from their column's empirical distribution.
///
/// Sliced like the masked game: a pair repairs with the sliced program and
/// writes draws only into the columns the slice reads. Every pair still
/// consumes exactly the draws of the unsliced game, in the same order, so
/// the random stream and the estimates do not depend on the slice.
pub struct CellGameSampled<'a> {
    alg: &'a dyn RepairAlgorithm,
    /// The slice of the program that can reach `cell`'s column.
    program: Vec<DenialConstraint>,
    reach: Reach,
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
        let reach = Reach::of(alg, dcs, dirty.schema(), cell.attr);
        CellGameSampled {
            alg,
            program: reach.program(dcs),
            reach,
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
        if trex_repair::repairs_cell_to(self.alg, &self.program, table, self.cell, &self.target) {
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
    ///
    /// A player whose column the slice does not read takes its draws and
    /// returns `(0.0, 0.0)` without building a table or repairing: the
    /// slice's promise makes its two instances the same repair, so its
    /// marginal is exactly 0.
    fn eval_pair(&self, coalition: &Coalition, player: usize, rng: &mut dyn RngCore) -> (f64, f64) {
        debug_assert!(!coalition.contains(player));
        let player_cell = self.players[player];
        let mut table = self
            .reach
            .reads(player_cell.attr)
            .then(|| self.dirty.clone());
        for (idx, cellref) in self.players.iter().enumerate() {
            if idx != player && !coalition.contains(idx) {
                let draw = self.samplers.sample(cellref.attr, rng);
                if let Some(table) = table.as_mut().filter(|_| self.reach.reads(cellref.attr)) {
                    table.set(*cellref, draw);
                }
            }
        }
        // The player's own draw comes last, after the instance that keeps
        // its original value (repairs draw nothing).
        let draw = self.samplers.sample(player_cell.attr, rng);
        let Some(mut table) = table else {
            return (0.0, 0.0);
        };
        let with = self.eval(&table);
        table.set(player_cell, draw);
        let without = self.eval(&table);
        (with, without)
    }

    fn player_label(&self, i: usize) -> String {
        cell_label(self.dirty, self.players[i])
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
