//! The black-box repair interface.
//!
//! T-REx "treats the repair algorithm as a black box and only queries it"
//! (§1): the entire explanation machinery sees a repair algorithm only
//! through two operations —
//!
//! * `Alg(C, T^d) = T^c` — run a full repair ([`RepairAlgorithm::repair`]);
//! * `Alg|t[A](C, T^d) ∈ {0, 1}` — did the repair set cell `t[A]` to a given
//!   target value? ([`repairs_cell_to`], §2.1's binary view).
//!
//! An engine may also declare which slice of the program can reach a
//! column ([`RepairAlgorithm::reach`], [`Reach`]); the explanation layers
//! then ask only about that slice. The default declares nothing.
//!
//! **The oracle memoizes repairs, not answers.** The binary view of a cell
//! is read off the full run, and the full run does not depend on the cell.
//! So a [`ShardedOracle`] entry is one repair: keyed by the hash of the
//! program actually run ([`hash_program`]) and the table's fingerprint,
//! and holding that run's change list. Every reader of one (program,
//! table) pair shares the entry: [`ShardedOracle::repairs_cell_to`] for any
//! cell and target, the explainer's repair target, a session's Repair
//! button, and the constraint game's coalitions. The masked cell game
//! repairs a different table per coalition and asks about one cell only,
//! so it keeps one-bit entries ([`ShardedOracle::cell_answer`]) under keys
//! of their own kind: a repair key and a cell-game key can never be
//! equal, whatever their hashes.
//!
//! The memo is split over mutex-guarded shards so concurrent permutation
//! workers share hits without serializing on one lock, is hard-bounded by
//! second-chance eviction, and dedups concurrent cold keys by single-flight
//! (one engine run, all waiters share its result).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use trex_constraints::DenialConstraint;
use trex_table::{AttrId, CellChange, CellRef, Schema, Table, Value};

/// The output of one repair run: the clean table and the cell-level diff.
#[derive(Debug, Clone)]
pub struct RepairResult {
    /// The repaired table `T^c`.
    pub clean: Table,
    /// The repaired cells, in cell order: exactly
    /// `trex_table::diff(dirty, &clean)`. The memoizing oracle stores only
    /// this list, reads the binary view off it ([`repaired_value`]) and
    /// rebuilds `clean` from it (`trex_table::apply`).
    pub changes: Vec<CellChange>,
}

impl RepairResult {
    /// Build a result from the dirty table and its repaired copy, computing
    /// the diff.
    pub fn from_tables(dirty: &Table, clean: Table) -> Self {
        let changes = trex_table::diff(dirty, &clean);
        RepairResult { clean, changes }
    }

    /// The change applied to `cell`, if any.
    pub fn change_at(&self, cell: CellRef) -> Option<&CellChange> {
        self.changes.iter().find(|c| c.cell == cell)
    }
}

/// A table-repair algorithm, as the paper's `Alg : (C, T^d) → T^c`.
///
/// Implementations must be deterministic functions of their inputs
/// (randomized repairers should fix their seed per instance): Shapley values
/// of a non-deterministic characteristic function are not well defined, and
/// the memoizing oracle assumes query stability.
///
/// Implementations never mutate the input and never add/remove rows — the
/// paper's repair model is cell updates only — and report every changed
/// cell in [`RepairResult::changes`] ([`RepairResult::from_tables`] does).
///
/// `Send + Sync` are supertraits: the parallel Shapley engine evaluates
/// coalition games from several worker threads that share one
/// `&dyn RepairAlgorithm`, and a long-lived `trex` session (the server's
/// in particular) owns its boxed engine while request threads borrow it.
/// Repairers are pure functions of their inputs, so this costs nothing for
/// honest implementations; per-query interior mutability (counters, caches)
/// must use atomics or locks (see [`PanicGuard`], [`ShardedOracle`]).
pub trait RepairAlgorithm: Send + Sync {
    /// A short identifier for reports and experiment output.
    fn name(&self) -> &str;

    /// Run a full repair of `dirty` under the constraint set `dcs`.
    ///
    /// `dcs` may be unresolved; implementations resolve names against
    /// `dirty.schema()` themselves. Constraints mentioning attributes that
    /// do not exist in the schema are a caller bug and may panic.
    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult;

    /// Apply the shared execution configuration
    /// ([`trex_shapley::ExecConfig`]) to this engine at construction time.
    ///
    /// The default ignores the config — most engines have no execution
    /// knobs. Engines that parallelize their violation scans
    /// ([`crate::RuleRepair`], [`crate::HoloCleanStyle`],
    /// [`crate::HolisticRepair`]) override it to take the thread count;
    /// every engine ignores the config's oracle capacity and seed, which
    /// configure the explanation layers instead. Builder-style
    /// (consumes and returns `self`), so it is only callable on concrete
    /// engines, not `dyn RepairAlgorithm`.
    fn with_exec(self, _cfg: &trex_shapley::ExecConfig) -> Self
    where
        Self: Sized,
    {
        self
    }

    /// Declare which part of the program `dcs` can change column `target`
    /// of tables over `schema` (see [`Reach`] for what a declaration
    /// promises). The coalition games and `Explainer::repair_target` then
    /// repair with, and key coalitions on, only that slice.
    ///
    /// The default declares nothing (`None`): a black box where every
    /// constraint and every cell may matter. [`crate::RuleRepair`] derives
    /// its declaration from its rule list.
    fn reach(&self, _dcs: &[DenialConstraint], _schema: &Schema, _target: AttrId) -> Option<Reach> {
        None
    }
}

/// Boxed algorithms are algorithms: forwards `name`/`repair`/`reach` to
/// the boxed engine so `Box<dyn RepairAlgorithm>` satisfies generic
/// `RepairAlgorithm` bounds (e.g. [`PanicGuard`] around a boxed engine)
/// and a `&Box<dyn RepairAlgorithm>` coerced to `&dyn RepairAlgorithm`
/// keeps the engine's slice. `with_exec` keeps its identity default —
/// configure the engine *before* boxing it.
impl<A: RepairAlgorithm + ?Sized> RepairAlgorithm for Box<A> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        (**self).repair(dcs, dirty)
    }

    fn reach(&self, dcs: &[DenialConstraint], schema: &Schema, target: AttrId) -> Option<Reach> {
        (**self).reach(dcs, schema, target)
    }
}

/// The slice of a constraint program that can change one target column,
/// as a repair engine declares it ([`RepairAlgorithm::reach`]): the
/// in-slice constraints, as indices into the program, and the columns
/// whose cells can affect the target column. The target column is always
/// one of them.
///
/// A declaration promises: for every sub-program `S` of the program (kept
/// in program order) and every table `T` over the schema, the repair of
/// `T` under `S` writes the target column exactly as the repair under
/// `S`'s in-slice members does, on `T` or on any copy of `T` whose cells
/// differ only outside the declared columns. Constraints outside the
/// slice therefore have Shapley value exactly 0 in the constraint game,
/// and so do cells outside the declared columns in the masked cell game.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reach {
    /// In-slice program indices, ascending.
    dcs: Vec<usize>,
    /// Columns that can affect the target, ascending.
    columns: Vec<AttrId>,
}

impl Reach {
    /// A slice over the in-slice constraints `dcs` (program indices) and
    /// the columns `columns`, plus `target` itself.
    pub fn new(
        target: AttrId,
        dcs: impl IntoIterator<Item = usize>,
        columns: impl IntoIterator<Item = AttrId>,
    ) -> Reach {
        let mut dcs: Vec<usize> = dcs.into_iter().collect();
        dcs.sort_unstable();
        dcs.dedup();
        let mut columns: Vec<AttrId> = columns.into_iter().chain([target]).collect();
        columns.sort_unstable();
        columns.dedup();
        Reach { dcs, columns }
    }

    /// The slice `alg` declares for `target`, or — when it declares none —
    /// every constraint of `dcs` and every column of `schema`. The one
    /// place the games and the explainer get their slice from.
    pub fn of(
        alg: &dyn RepairAlgorithm,
        dcs: &[DenialConstraint],
        schema: &Schema,
        target: AttrId,
    ) -> Reach {
        alg.reach(dcs, schema, target)
            .unwrap_or_else(|| Reach::new(target, 0..dcs.len(), schema.iter().map(|(id, _)| id)))
    }

    /// Is constraint `i` of the program in the slice?
    pub fn keeps(&self, i: usize) -> bool {
        self.dcs.binary_search(&i).is_ok()
    }

    /// Can cells of column `attr` affect the target column?
    pub fn reads(&self, attr: AttrId) -> bool {
        self.columns.binary_search(&attr).is_ok()
    }

    /// The sliced program: the in-slice constraints of `dcs`, in program
    /// order.
    pub fn program(&self, dcs: &[DenialConstraint]) -> Vec<DenialConstraint> {
        self.dcs.iter().map(|&i| dcs[i].clone()).collect()
    }
}

/// The binary view `Alg|t[A](C, T^d)` of §2.1: `true` iff running the repair
/// changes `cell` from its (different) dirty value to exactly `target`.
///
/// When the dirty value already equals `target`, the answer is `false` — the
/// paper's `1` signals "the value *is repaired* to `t^c[A]`", which requires
/// a change.
pub fn repairs_cell_to(
    alg: &dyn RepairAlgorithm,
    dcs: &[DenialConstraint],
    dirty: &Table,
    cell: CellRef,
    target: &Value,
) -> bool {
    if dirty.get(cell) == target {
        return false;
    }
    let result = alg.repair(dcs, dirty);
    result.clean.get(cell) == target
}

/// The value a repair's change list writes into `cell`, or `None` when the
/// repair leaves it alone: the binary view, read off a memoized repair.
pub fn repaired_value(changes: &[CellChange], cell: CellRef) -> Option<&Value> {
    changes.iter().find(|c| c.cell == cell).map(|c| &c.to)
}

/// The hash of one constraint, by display form (name included): the
/// per-constraint input of [`hash_program`].
pub fn hash_dc(dc: &DenialConstraint) -> u64 {
    let mut h = DefaultHasher::new();
    dc.to_string().hash(&mut h);
    h.finish()
}

/// The program hash every reader of the oracle keys repairs on: an
/// order-sensitive hash of the program's per-constraint hashes
/// ([`hash_dc`]). The constraint game assembles a coalition's hash from
/// hashes it computed once per game, without cloning the coalition's
/// constraints; [`hash_dcs`] hashes a program it is handed. Both come out
/// equal for the same constraint sequence, so a coalition and a repair
/// target over the same sliced program share one entry.
pub fn hash_program(dc_hashes: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = DefaultHasher::new();
    let mut len = 0usize;
    for dc in dc_hashes {
        dc.hash(&mut h);
        len += 1;
    }
    len.hash(&mut h);
    h.finish()
}

/// [`hash_program`] of the constraint sequence `dcs`.
pub fn hash_dcs(dcs: &[DenialConstraint]) -> u64 {
    hash_program(dcs.iter().map(hash_dc))
}

/// Hash of a single value, as the cell game keys its target.
pub fn hash_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Cache statistics of an [`OracleCache`].
///
/// The unit is one lookup: a repair (a program on a table) or a cell-game
/// answer bit. Below capacity a miss is exactly one engine run, and every
/// other lookup of that key is a hit, so the counts are a function of the
/// workload alone (see [`OracleCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that ran the engine.
    pub misses: usize,
    /// Entries evicted to stay under the capacity bound (always 0 for an
    /// oracle that never exceeded its capacity).
    pub evictions: usize,
}

impl OracleStats {
    /// Total lookups.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// The memoization key. The two kinds of entry differ by construction —
/// they live in different maps of a shard — so a repair can never answer
/// a cell-game lookup or the other way round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OracleKey {
    /// The repair of one table under one program: the program's
    /// [`hash_program`] and the table's [`Table::fingerprint`].
    Repair { program: u64, table: u64 },
    /// One answer bit of the masked cell game: `question` hashes the sliced
    /// program, the explained cell and its target, and `coalition` hashes
    /// the coalition's masked table (see
    /// [`ShardedOracle::cell_answer`]).
    Cell { question: u64, coalition: u64 },
}

/// What a lookup returns: a repair's change list, shared by every reader
/// of it, or one cell-game answer bit.
#[derive(Clone)]
enum Answer {
    Repair(Arc<Vec<CellChange>>),
    Bit(bool),
}

/// Hashes oracle keys. Their fields are already 64-bit hashes (program
/// hashes, table fingerprints, Zobrist coalition keys), so folding them
/// with one multiply each spreads them as well as SipHash would, for a
/// fraction of the cost: every lookup hashes its key for the shard and
/// for one or two maps.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(29) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A shard map keyed by oracle keys.
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// One cached value plus its second-chance reference bit.
struct Slot<V> {
    value: V,
    referenced: bool,
}

impl<V> Slot<V> {
    fn new(value: V) -> Self {
        Slot {
            value,
            referenced: false,
        }
    }
}

/// Wait/notify cell of one in-flight oracle computation — the single-flight
/// rendezvous. The leader computes and [`Flight::resolve`]s; every other
/// thread wanting the same key [`Flight::wait`]s and shares the answer.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader installed this answer.
    Done(Answer),
    /// The leader unwound without answering; a waiter must take over.
    Poisoned,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        })
    }

    /// Publish the leader's answer and wake every waiter. A waiter holds a
    /// handle to the flight from before the leader deregistered it, so a
    /// flight only its leader holds has no one to tell: it skips the lock
    /// and the wake-up call, a system call that costs a cold miss
    /// microseconds.
    fn resolve(self: &Arc<Self>, answer: &Answer) {
        if Arc::strong_count(self) == 1 {
            return;
        }
        let mut state = self.state.lock().expect("flight lock poisoned");
        *state = FlightState::Done(answer.clone());
        self.cv.notify_all();
    }

    /// Mark the flight failed (leader unwound) and wake every waiter —
    /// unless it already resolved.
    fn poison(&self) {
        let mut state = self.state.lock().expect("flight lock poisoned");
        if matches!(*state, FlightState::Pending) {
            *state = FlightState::Poisoned;
            self.cv.notify_all();
        }
    }

    /// Block until the flight resolves. `None` means the leader failed and
    /// the caller must retake the key.
    fn wait(&self) -> Option<Answer> {
        let mut state = self.state.lock().expect("flight lock poisoned");
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.cv.wait(state).expect("flight lock poisoned");
                }
                FlightState::Done(answer) => return Some(answer.clone()),
                FlightState::Poisoned => return None,
            }
        }
    }
}

/// The memo of the oracle: the sharded memo maps, the single-flight
/// registries, and the hit/miss/eviction counters. A [`ShardedOracle`] is
/// an engine plus a handle to one of these; callers size a cache and read
/// its counters here.
///
/// An entry is either a repair — the change list of one engine run, keyed
/// by (program hash, table fingerprint) — or one answer bit of the masked
/// cell game (see the module docs). Both kinds share the shards, the one
/// insertion path, the capacity bound and the counters.
///
/// Each owner keeps one cache for everything it asks: a `trex` `Session`
/// for its repairs and every explanation (the server's requests included),
/// an `Explainer` for all of its calls. Every oracle it builds clones the
/// handle ([`ShardedOracle::with_shared_cache`]), so all queries against
/// the same (table, constraints) pair warm one bounded cache. Sharing is
/// safe because keys fingerprint the full input (program, table, and for a
/// cell-game bit the explained cell and target): two queries can only
/// collide on a key when they ask the same question, and the answer is
/// then identical by the oracle's determinism contract.
///
/// The key space is split across mutex-guarded shards
/// ([`ShardedOracle::DEFAULT_SHARDS`] by default) selected by the key's
/// hash, so workers evaluating different coalitions almost never contend,
/// yet every worker sees every other worker's cached answers.
///
/// **Bounded memory.** The capacity is a hard bound on live entries: the
/// per-shard quotas sum to exactly `capacity` (see
/// [`OracleCache::with_config`]), and a shard at quota **evicts** by a
/// per-shard second-chance (clock) policy before inserting — recently
/// re-queried entries survive the sweep, cold entries go first. Long
/// sampling runs over tables with millions of coalition variants therefore
/// stop growing the cache instead of eating the heap, at the price of
/// recomputing an evicted key if it is queried again (the recompute is
/// counted as a fresh miss, and every eviction increments
/// [`OracleStats::evictions`]). Results are *always* identical to an
/// unbounded cache — eviction only ever costs time, never changes an
/// answer — and a capacity at least the live-key count of the workload
/// evicts nothing at all. Capacity 0 caches nothing: every lookup, repairs
/// included, runs the engine.
pub struct OracleCache {
    /// Per-shard capacity quotas; index-aligned with `shards` and summing
    /// to the constructor's total capacity.
    shard_caps: Vec<usize>,
    shards: Vec<Mutex<OracleShard>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl OracleCache {
    /// A cache with the default capacity and shard count
    /// ([`ShardedOracle::DEFAULT_CAPACITY`], [`ShardedOracle::DEFAULT_SHARDS`]).
    pub fn new() -> Self {
        Self::with_config(
            ShardedOracle::DEFAULT_CAPACITY,
            ShardedOracle::DEFAULT_SHARDS,
        )
    }

    /// A cache with an explicit total capacity (0 disables caching) and the
    /// default shard count.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(capacity, ShardedOracle::DEFAULT_SHARDS)
    }

    /// A cache with an explicit total capacity and shard count. Shard `i`
    /// gets a quota of `capacity / shards`, plus one of the remainder
    /// entries for the first `capacity % shards` shards, so the quotas sum
    /// to exactly `capacity`; a non-zero capacity below the shard count
    /// clamps the shard count so every shard can hold at least one entry.
    ///
    /// More shards cut lock contention on many-core machines; `shards = 1`
    /// degenerates to a single-lock cache (useful as a contention baseline
    /// and in tests). Any shard count ≥ 1 is valid. Non-power-of-two counts
    /// are deliberately *not* rounded up: shard selection reduces the key
    /// hash with a modulo, not a bitmask, so an odd count distributes keys
    /// just as uniformly, and silently rounding would change the per-shard
    /// quotas behind the caller's back.
    ///
    /// The default of [`ShardedOracle::DEFAULT_SHARDS`] (16) comes from the
    /// `oracle_cache` bench's contention sweep (1/4/16/64 shards hammered
    /// by up to 8 workers): 1 shard serializes every worker on one lock,
    /// 4 still collide measurably at 8 workers, while 16 is within noise
    /// of 64 on every machine profiled — so 16 takes the smallest
    /// per-entry bookkeeping that already removes the contention.
    ///
    /// # Panics
    /// If `shards` is 0 (there would be no shard to hold an entry).
    pub fn with_config(capacity: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        // A tiny capacity takes fewer shards than requested: every shard
        // must hold at least one entry, or the keys hashing to a quota-0
        // shard would recompute on every query forever — far worse than a
        // true N-entry cache. (Capacity 0 means caching is off; the shard
        // count is then irrelevant.)
        let shards = if capacity > 0 {
            shards.min(capacity)
        } else {
            shards
        };
        // Distribute the capacity exactly: quotas sum to `capacity`, so the
        // bound on total live entries is the number the caller asked for.
        let base = capacity / shards;
        let extra = capacity % shards;
        let shard_caps = (0..shards).map(|i| base + usize::from(i < extra)).collect();
        OracleCache {
            shard_caps,
            shards: (0..shards)
                .map(|_| Mutex::new(OracleShard::default()))
                .collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// The number of shards this cache was built with.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity (the sum of the per-shard quotas): the hard bound on
    /// [`OracleCache::len`].
    pub fn capacity(&self) -> usize {
        self.shard_caps.iter().sum()
    }

    /// Number of live cached entries, repairs and cell-game bits, across
    /// all shards (always ≤ [`OracleCache::capacity`]).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("oracle shard poisoned").len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated cache statistics so far, over every oracle sharing this
    /// cache.
    ///
    /// `hits + misses` always equals the number of lookups answered.
    /// Scheduling-independent below capacity: each distinct key accounts
    /// for exactly one miss (the lookup that installed it — see
    /// [`ShardedOracle::repair_keyed`]), every other lookup of that key is
    /// a hit, so repeated runs of the same workload report identical
    /// hit/miss totals at any thread count and `evictions` stays 0. Once
    /// capacity pressure triggers evictions, a re-queried evicted key
    /// recomputes (a fresh miss) and which key was evicted can depend on
    /// query interleaving, so only the invariants — not the exact split —
    /// are schedule-independent under pressure.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached entries and reset statistics. In-flight computations
    /// (single-flight registrations) are untouched — they resolve normally.
    ///
    /// This is the session-invalidation hook: owners that mutate the table
    /// or the constraint set between explanations call this so the next
    /// request starts from a cold (but definitely fresh) cache. Stale
    /// entries were already unreachable — keys embed the table fingerprint
    /// and the program hash, so an edit changes every key — but flushing
    /// also frees the dead pre-edit entries and removes even the
    /// 64-bit-collision corner from the contract.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("oracle shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

impl Default for OracleCache {
    fn default() -> Self {
        Self::new()
    }
}

/// One mutex-guarded shard: the memo maps, the clock queue ordering their
/// eviction candidates (the queue always holds exactly the maps' keys),
/// and the single-flight registry of keys currently being computed.
#[derive(Default)]
struct OracleShard {
    /// Repair entries, keyed by (program hash, table fingerprint).
    repairs: KeyMap<(u64, u64), Slot<Arc<Vec<CellChange>>>>,
    /// Cell-game entries, keyed by (question, coalition). A bit needs no
    /// drop, so a flush resets this map without visiting its entries — a
    /// cell ranking leaves thousands of them.
    bits: KeyMap<(u64, u64), Slot<bool>>,
    clock: VecDeque<OracleKey>,
    /// Keys some thread is computing right now: later arrivals wait on the
    /// registered flight instead of recomputing. Disjoint from the maps —
    /// a key moves from here into its map when its leader installs it.
    inflight: KeyMap<OracleKey, Arc<Flight>>,
}

impl OracleShard {
    fn len(&self) -> usize {
        self.repairs.len() + self.bits.len()
    }

    /// The cached answer of `key`, if any; a hit earns its second chance.
    fn hit(&mut self, key: OracleKey) -> Option<Answer> {
        match key {
            OracleKey::Repair { program, table } => {
                self.repairs.get_mut(&(program, table)).map(|slot| {
                    slot.referenced = true;
                    Answer::Repair(Arc::clone(&slot.value))
                })
            }
            OracleKey::Cell {
                question,
                coalition,
            } => self.bits.get_mut(&(question, coalition)).map(|slot| {
                slot.referenced = true;
                Answer::Bit(slot.value)
            }),
        }
    }

    /// Install `answer` under `key` as the newest eviction candidate.
    fn insert(&mut self, key: OracleKey, answer: &Answer) {
        match (key, answer) {
            (OracleKey::Repair { program, table }, Answer::Repair(changes)) => {
                self.repairs
                    .insert((program, table), Slot::new(Arc::clone(changes)));
            }
            (
                OracleKey::Cell {
                    question,
                    coalition,
                },
                Answer::Bit(bit),
            ) => {
                self.bits.insert((question, coalition), Slot::new(*bit));
            }
            _ => unreachable!("a key holds an answer of its own kind"),
        }
        self.clock.push_back(key);
    }

    /// The reference bit of the cached `key`.
    fn referenced(&mut self, key: OracleKey) -> &mut bool {
        let slot = match key {
            OracleKey::Repair { program, table } => self
                .repairs
                .get_mut(&(program, table))
                .map(|slot| &mut slot.referenced),
            OracleKey::Cell {
                question,
                coalition,
            } => self
                .bits
                .get_mut(&(question, coalition))
                .map(|slot| &mut slot.referenced),
        };
        slot.expect("clock tracks map keys")
    }

    fn remove(&mut self, key: OracleKey) {
        match key {
            OracleKey::Repair { program, table } => {
                self.repairs.remove(&(program, table));
            }
            OracleKey::Cell {
                question,
                coalition,
            } => {
                self.bits.remove(&(question, coalition));
            }
        }
    }

    /// Evict one entry by the second-chance (clock) policy: sweep from the
    /// oldest entry, giving each recently-hit entry one reprieve (clear its
    /// bit, rotate it to the back) and evicting the first entry found
    /// unreferenced. Ends within one lap and one step: a lap clears every
    /// bit.
    fn evict_one(&mut self) {
        loop {
            let key = self.clock.pop_front().expect("clock tracks map keys");
            if !std::mem::take(self.referenced(key)) {
                return self.remove(key);
            }
            self.clock.push_back(key);
        }
    }

    fn clear(&mut self) {
        self.repairs.clear();
        self.bits.clear();
        self.clock.clear();
    }
}

/// Thread-safe memoizing oracle: the one path from the explanation layers
/// to the black box. It is an engine plus a handle to an [`OracleCache`],
/// which holds the memo, its capacity bound and its counters; the parallel
/// sampling workers query it concurrently.
///
/// It memoizes repairs ([`ShardedOracle::repair`]), which every binary
/// view of the same (program, table) pair reads, and the masked cell
/// game's answer bits ([`ShardedOracle::cell_answer`]); see the module
/// docs.
///
/// **Single-flight.** Concurrent lookups of the same cold key dedup via
/// single-flight: the first arrival computes, everyone else blocks on its
/// flight and shares the result — one engine run per key no matter how
/// many workers race.
pub struct ShardedOracle<'a> {
    alg: &'a dyn RepairAlgorithm,
    /// The memo maps and counters, shared with every other oracle holding
    /// the same handle.
    cache: Arc<OracleCache>,
}

/// Unwind guard over one registered single-flight lead: if the guard drops
/// before [`FlightLease::resolve`] (the compute panicked), the key is
/// deregistered and its flight poisoned, so waiters on other threads wake
/// and retake the key instead of deadlocking behind a dead leader.
struct FlightLease<'o, 'a> {
    oracle: &'o ShardedOracle<'a>,
    key: OracleKey,
    shard: usize,
    flight: Arc<Flight>,
    resolved: bool,
}

impl FlightLease<'_, '_> {
    /// Install the leader's freshly computed answer (the installer's miss),
    /// deregister its flight, and wake the waiters. This is the cache's
    /// single insertion point — the quota/eviction logic lives only here.
    fn resolve(mut self, answer: &Answer) {
        self.resolved = true;
        let cache = &self.oracle.cache;
        {
            let mut shard = cache.shards[self.shard]
                .lock()
                .expect("oracle shard poisoned");
            shard.inflight.remove(&self.key);
            let quota = cache.shard_caps[self.shard];
            if quota > 0 {
                if shard.len() >= quota {
                    shard.evict_one();
                    cache.evictions.fetch_add(1, Ordering::Relaxed);
                }
                shard.insert(self.key, answer);
            }
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
        self.flight.resolve(answer);
    }
}

impl Drop for FlightLease<'_, '_> {
    fn drop(&mut self) {
        if self.resolved {
            return;
        }
        // `if let Ok`: a poisoned shard mutex while already unwinding
        // must not escalate into a double-panic abort.
        if let Ok(mut shard) = self.oracle.cache.shards[self.shard].lock() {
            shard.inflight.remove(&self.key);
        }
        self.flight.poison();
    }
}

impl<'a> ShardedOracle<'a> {
    /// Default total cache capacity (entries).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Default number of independent shards.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Wrap `alg` around a private cache of the default capacity and shard
    /// count ([`OracleCache::new`]).
    pub fn new(alg: &'a dyn RepairAlgorithm) -> Self {
        Self::with_shared_cache(alg, Arc::new(OracleCache::new()))
    }

    /// Wrap `alg` around an existing (typically shared) [`OracleCache`]:
    /// build the cache at the capacity and shard count you want, and hand
    /// every oracle that should pool its repairs a clone of the handle.
    /// Answers, eviction behavior, and the statistics contract are those
    /// of the cache; its counters aggregate across every oracle sharing
    /// the handle.
    pub fn with_shared_cache(alg: &'a dyn RepairAlgorithm, cache: Arc<OracleCache>) -> Self {
        ShardedOracle { alg, cache }
    }

    /// The cache handle this oracle queries: its sizing and counters
    /// ([`OracleCache::stats`]), and a clone shares it with another oracle.
    pub fn cache(&self) -> &Arc<OracleCache> {
        &self.cache
    }

    /// The underlying algorithm.
    pub fn algorithm(&self) -> &dyn RepairAlgorithm {
        self.alg
    }

    /// The shard of `key`, from the high half of its hash: the maps use
    /// the low bits and the top seven. A modulo, not a bitmask, so any
    /// shard count spreads keys uniformly.
    fn shard_of(&self, key: &OracleKey) -> usize {
        let mut h = KeyHasher::default();
        key.hash(&mut h);
        ((h.finish() >> 32) as usize) % self.cache.shards.len()
    }

    /// The memoized repair of `table` under `dcs`: the change list of
    /// `Alg(dcs, table)`, run at most once per (program, table) pair while
    /// the entry lives. Safe to call from many threads at once.
    pub fn repair(&self, dcs: &[DenialConstraint], table: &Table) -> Arc<Vec<CellChange>> {
        self.repair_keyed(hash_dcs(dcs), table, || self.alg.repair(dcs, table).changes)
    }

    /// [`ShardedOracle::repair`] for a program the caller has already
    /// hashed with [`hash_program`]: `run` repairs `table` under that
    /// program and runs only on a miss.
    ///
    /// The shard lock is *not* held while `run` runs. Concurrent lookups of
    /// the same brand-new key dedup via *single-flight*: the first arrival
    /// (the leader) registers a flight and runs; every later arrival blocks
    /// on that flight and shares the leader's result. Statistics classify
    /// per *key*: the leader that installs a key records the miss; every
    /// waiter records a hit, exactly as if it had arrived after the
    /// insertion. If a leader panics before answering, its flight is
    /// poisoned and one waiter takes over as the new leader — a result is
    /// never fabricated.
    pub fn repair_keyed(
        &self,
        program: u64,
        table: &Table,
        run: impl FnOnce() -> Vec<CellChange>,
    ) -> Arc<Vec<CellChange>> {
        let key = OracleKey::Repair {
            program,
            table: table.fingerprint(),
        };
        match self.lookup(key, || Answer::Repair(Arc::new(run()))) {
            Answer::Repair(changes) => changes,
            Answer::Bit(_) => unreachable!("a repair key holds a repair"),
        }
    }

    /// Memoized `Alg|cell(dcs, table) == target`, read off the memoized
    /// repair ([`ShardedOracle::repair`]): every cell and target of one
    /// (program, table) pair shares one entry and one engine run. A cell
    /// whose dirty value already is `target` answers `false` without a
    /// lookup, as [`repairs_cell_to`] answers it without a run.
    pub fn repairs_cell_to(
        &self,
        dcs: &[DenialConstraint],
        table: &Table,
        cell: CellRef,
        target: &Value,
    ) -> bool {
        table.get(cell) != target && repaired_value(&self.repair(dcs, table), cell) == Some(target)
    }

    /// One memoized answer bit of the masked cell game: `question` hashes
    /// what is asked (the sliced program, the explained cell and its
    /// target) and `coalition` the coalition's masked table; `compute`
    /// runs only on a miss. Equal keys must mean equal questions on equal
    /// tables, and `compute` must be deterministic. A bit is stored inline:
    /// an entry allocates nothing beyond its map slot. Locking,
    /// single-flight and statistics are [`ShardedOracle::repair_keyed`]'s.
    pub fn cell_answer(
        &self,
        question: u64,
        coalition: u64,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let key = OracleKey::Cell {
            question,
            coalition,
        };
        match self.lookup(key, || Answer::Bit(compute())) {
            Answer::Bit(answer) => answer,
            Answer::Repair(_) => unreachable!("a cell-game key holds a bit"),
        }
    }

    /// The one lookup path: the cache is consulted first and `compute` runs
    /// only on a genuine miss, by the key's single-flight leader.
    fn lookup(&self, key: OracleKey, compute: impl FnOnce() -> Answer) -> Answer {
        // `compute` must survive wait-retry laps (a poisoned flight sends a
        // waiter back around the loop); it is taken exactly once, on the
        // lead path, which always returns.
        let mut compute = Some(compute);
        let shard_idx = self.shard_of(&key);
        enum Turn {
            Wait(Arc<Flight>),
            Lead(Arc<Flight>),
        }
        loop {
            let turn = {
                let mut shard = self.cache.shards[shard_idx]
                    .lock()
                    .expect("oracle shard poisoned");
                if let Some(answer) = shard.hit(key) {
                    drop(shard);
                    self.cache.hits.fetch_add(1, Ordering::Relaxed);
                    return answer;
                }
                if let Some(flight) = shard.inflight.get(&key) {
                    Turn::Wait(Arc::clone(flight))
                } else {
                    let flight = Flight::new();
                    shard.inflight.insert(key, Arc::clone(&flight));
                    Turn::Lead(flight)
                }
            };
            match turn {
                Turn::Wait(flight) => {
                    if let Some(answer) = flight.wait() {
                        self.cache.hits.fetch_add(1, Ordering::Relaxed);
                        return answer;
                    }
                    // The leader unwound before answering; go around and
                    // retake the key.
                }
                Turn::Lead(flight) => {
                    let lease = FlightLease {
                        oracle: self,
                        key,
                        shard: shard_idx,
                        flight,
                        resolved: false,
                    };
                    let answer = (compute.take().expect("the lead path runs at most once"))();
                    lease.resolve(&answer);
                    return answer;
                }
            }
        }
    }
}

/// Failure-isolation wrapper: catches panics in the wrapped algorithm and
/// degrades to "no repair" (identity) for that query.
///
/// The Shapley engines feed black boxes thousands of *weird* coalition
/// tables (mostly-null, mixed-type after random replacement); a brittle
/// third-party repairer must not take the whole explanation down. A panic
/// maps to the clean answer "this coalition repairs nothing", which is the
/// conservative reading — and the number of caught panics is reported so
/// callers can decide whether the explanation is trustworthy.
pub struct PanicGuard<A> {
    inner: A,
    panics: AtomicUsize,
}

impl<A: RepairAlgorithm> PanicGuard<A> {
    /// Wrap an algorithm.
    pub fn new(inner: A) -> Self {
        PanicGuard {
            inner,
            panics: AtomicUsize::new(0),
        }
    }

    /// How many repair invocations panicked so far.
    pub fn panic_count(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: RepairAlgorithm> RepairAlgorithm for PanicGuard<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        // The panic counter (an atomic) is only touched after the unwind is
        // caught, so asserting unwind safety over the closure is sound.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.inner.repair(dcs, dirty)
        }));
        match result {
            Ok(r) => r,
            Err(_) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                RepairResult {
                    clean: dirty.clone(),
                    changes: Vec::new(),
                }
            }
        }
    }
}

/// A trivial repair algorithm that changes nothing — the identity black box.
/// Useful as a degenerate case in tests: every Shapley value it induces is 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOpRepair;

impl RepairAlgorithm for NoOpRepair {
    fn name(&self) -> &str {
        "noop"
    }

    fn repair(&self, _dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        RepairResult {
            clean: dirty.clone(),
            changes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_table::{AttrId, TableBuilder};

    /// Test double: repairs cell (0,0) to "FIXED" iff at least `need` DCs
    /// are passed; counts invocations (atomically — `RepairAlgorithm` is
    /// `Sync`).
    struct CountingRepair {
        need: usize,
        calls: AtomicUsize,
    }

    impl CountingRepair {
        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl RepairAlgorithm for CountingRepair {
        fn name(&self) -> &str {
            "counting"
        }
        fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let mut clean = dirty.clone();
            if dcs.len() >= self.need {
                clean.set(CellRef::new(0, AttrId(0)), Value::str("FIXED"));
            }
            RepairResult::from_tables(dirty, clean)
        }
    }

    fn table() -> Table {
        TableBuilder::new()
            .str_columns(["A"])
            .str_row(["dirty"])
            .build()
    }

    fn dc() -> DenialConstraint {
        trex_constraints::parse_dc("!(t1.A != t2.A)").unwrap()
    }

    /// An oracle on a cache of its own with `capacity` entries on `shards`
    /// shards.
    fn bounded(alg: &dyn RepairAlgorithm, capacity: usize, shards: usize) -> ShardedOracle<'_> {
        ShardedOracle::with_shared_cache(alg, Arc::new(OracleCache::with_config(capacity, shards)))
    }

    #[test]
    fn boxed_engines_forward_their_reach_and_black_boxes_keep_everything() {
        let t = TableBuilder::new()
            .str_columns(["A", "B"])
            .str_row(["x", "y"])
            .build();
        let dcs = trex_constraints::parse_dcs("C: !(t1.A = t2.A & t1.B != t2.B)").unwrap();
        let (a, b) = (t.schema().id("A"), t.schema().id("B"));
        let rules = crate::RuleRepair::parse_rules("C: B <- most_common").unwrap();
        let declared = rules.reach(&dcs, t.schema(), a);
        // A has no writer: an empty slice that reads only A.
        assert_eq!(declared, Some(Reach::new(a, [], [])));
        let boxed: Box<dyn RepairAlgorithm> = Box::new(rules);
        let coerced: &dyn RepairAlgorithm = &boxed;
        assert_eq!(coerced.reach(&dcs, t.schema(), a), declared);
        assert_eq!(Reach::of(coerced, &dcs, t.schema(), a), declared.unwrap());
        // An engine that declares nothing keeps every DC and every column.
        let everything = Reach::of(&NoOpRepair, &dcs, t.schema(), a);
        assert!(everything.keeps(0) && everything.reads(a) && everything.reads(b));
        assert_eq!(everything.program(&dcs), dcs);
    }

    #[test]
    fn repairs_cell_to_checks_target() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        assert!(repairs_cell_to(
            &alg,
            &[dc()],
            &t,
            cell,
            &Value::str("FIXED")
        ));
        assert!(!repairs_cell_to(
            &alg,
            &[dc()],
            &t,
            cell,
            &Value::str("OTHER")
        ));
        assert!(!repairs_cell_to(&alg, &[], &t, cell, &Value::str("FIXED")));
    }

    #[test]
    fn already_target_counts_as_not_repaired() {
        let alg = NoOpRepair;
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        assert!(!repairs_cell_to(&alg, &[], &t, cell, &Value::str("dirty")));
    }

    #[test]
    fn cache_keys_distinguish_inputs() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::new(&alg);
        let t = table();
        let mut t2 = t.clone();
        t2.set(CellRef::new(0, AttrId(0)), Value::str("other"));
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        let _ = oracle.repairs_cell_to(&dcs, &t2, cell, &Value::str("FIXED"));
        let _ = oracle.repairs_cell_to(&[], &t, cell, &Value::str("FIXED"));
        let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("OTHER"));
        // A changed table or DC set changes the key: three distinct
        // repairs → three misses, three underlying runs. A changed target
        // reads the same repair: a hit.
        assert_eq!(alg.calls(), 3);
        assert_eq!(oracle.cache().stats().misses, 3);
        assert_eq!(oracle.cache().stats().hits, 1);
        assert_eq!(oracle.cache().len(), 3);
    }

    #[test]
    fn one_repair_entry_serves_every_reader_and_cell_bits_are_their_own_kind() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::new(&alg);
        let t = TableBuilder::new()
            .str_columns(["A", "B"])
            .str_row(["dirty", "b"])
            .build();
        let dcs = [dc()];
        let (a, b) = (CellRef::new(0, AttrId(0)), CellRef::new(0, AttrId(1)));
        let changes = oracle.repair(&dcs, &t);
        assert_eq!(*changes, alg.repair(&dcs, &t).changes);
        assert_eq!(repaired_value(&changes, a), Some(&Value::str("FIXED")));
        assert_eq!(repaired_value(&changes, b), None);
        // Every cell and target of the pair reads that one entry, and a
        // caller-hashed program is the same key.
        assert!(oracle.repairs_cell_to(&dcs, &t, a, &Value::str("FIXED")));
        assert!(!oracle.repairs_cell_to(&dcs, &t, a, &Value::str("OTHER")));
        assert!(!oracle.repairs_cell_to(&dcs, &t, b, &Value::str("FIXED")));
        let program = hash_program(dcs.iter().map(hash_dc));
        assert_eq!(program, hash_dcs(&dcs));
        let same = oracle.repair_keyed(program, &t, || unreachable!("a hit"));
        assert!(Arc::ptr_eq(&same, &changes));
        // An unchanged cell already at its target needs no lookup.
        assert!(!oracle.repairs_cell_to(&dcs, &t, b, &Value::str("b")));
        assert_eq!(
            oracle.cache().stats(),
            OracleStats {
                hits: 4,
                misses: 1,
                evictions: 0
            }
        );
        // A cell-game bit never meets a repair entry, even under equal
        // hashes: its own miss, its own entry.
        let table = t.fingerprint();
        assert!(!oracle.cell_answer(program, table, || false));
        assert!(!oracle.cell_answer(program, table, || unreachable!("a hit")));
        assert_eq!(oracle.cache().stats().misses, 2);
        assert_eq!(oracle.cache().len(), 2);
        assert_eq!(alg.calls(), 2, "one repair run, one reference run above");
    }

    #[test]
    fn sharded_oracle_deduplicates_and_counts() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::new(&alg);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for _ in 0..5 {
            assert!(oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED")));
        }
        assert_eq!(alg.calls(), 1);
        let stats = oracle.cache().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        oracle.cache().clear();
        assert_eq!(oracle.cache().stats(), OracleStats::default());
        let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        assert_eq!(alg.calls(), 2);
    }

    #[test]
    fn sharded_oracle_capacity_zero_disables_caching() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = bounded(&alg, 0, ShardedOracle::DEFAULT_SHARDS);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for _ in 0..3 {
            let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        }
        assert_eq!(alg.calls(), 3);
        assert_eq!(oracle.cache().stats().hits, 0);
        assert_eq!(oracle.algorithm().name(), "counting");
    }

    #[test]
    fn sharded_oracle_agrees_with_uncached_queries() {
        // Same answers as the uncached binary view, one miss per distinct
        // query and a hit for the repeat.
        let alg = CountingRepair {
            need: 2,
            calls: AtomicUsize::new(0),
        };
        let sharded = ShardedOracle::new(&alg);
        let t = table();
        let mut t2 = t.clone();
        t2.set(CellRef::new(0, AttrId(0)), Value::str("other"));
        let cell = CellRef::new(0, AttrId(0));
        let queries: Vec<(Vec<DenialConstraint>, &Table)> = vec![
            (vec![dc()], &t),
            (vec![], &t),
            (vec![dc(), dc()], &t),
            (vec![dc()], &t2),
            (vec![dc()], &t),
        ];
        for (dcs, table) in &queries {
            let want = repairs_cell_to(&alg, dcs, table, cell, &Value::str("FIXED"));
            let got = sharded.repairs_cell_to(dcs, table, cell, &Value::str("FIXED"));
            assert_eq!(got, want);
        }
        assert_eq!(
            sharded.cache().stats(),
            OracleStats {
                hits: 1,
                misses: 4,
                evictions: 0
            }
        );
    }

    #[test]
    fn sharded_oracle_shares_hits_across_threads() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::new(&alg);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        // Warm the key once, then hammer it from several threads: every
        // concurrent query must be a hit.
        let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        assert!(oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED")));
                    }
                });
            }
        });
        assert_eq!(alg.calls(), 1);
        let stats = oracle.cache().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 200);
    }

    #[test]
    fn sharded_oracle_stats_are_scheduling_independent() {
        // Several workers hammer the same *cold* keys simultaneously; racing
        // computations must not inflate the miss count. Per distinct key the
        // stats record exactly one miss — whichever query installed it — so
        // repeated runs of this workload always report the same totals.
        let distinct_tables: Vec<Table> = (0..6)
            .map(|i| {
                let mut t = table();
                t.set(CellRef::new(0, AttrId(0)), Value::str(format!("v{i}")));
                t
            })
            .collect();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let run = || {
            let alg = CountingRepair {
                need: 1,
                calls: AtomicUsize::new(0),
            };
            let oracle = ShardedOracle::new(&alg);
            let barrier = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        barrier.wait(); // maximize cold-key racing
                        for _ in 0..5 {
                            for t in &distinct_tables {
                                let _ = oracle.repairs_cell_to(&dcs, t, cell, &Value::str("FIXED"));
                            }
                        }
                    });
                }
            });
            oracle.cache().stats()
        };
        for _ in 0..3 {
            let stats = run();
            assert_eq!(stats.misses, 6, "one miss per distinct key");
            assert_eq!(stats.hits, 4 * 5 * 6 - 6);
        }
    }

    #[test]
    fn single_shard_oracle_aggregates_stats_correctly() {
        // shards = 1 degenerates to one lock but keeps the per-key stats
        // contract: one miss per distinct query, a hit for every repeat.
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = bounded(&alg, ShardedOracle::DEFAULT_CAPACITY, 1);
        assert_eq!(oracle.cache().num_shards(), 1);
        let t = table();
        let mut t2 = t.clone();
        t2.set(CellRef::new(0, AttrId(0)), Value::str("other"));
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for (tbl, target) in [
            (&t, "FIXED"),
            (&t, "FIXED"),
            (&t2, "FIXED"),
            (&t, "OTHER"),
            (&t2, "FIXED"),
        ] {
            let want = repairs_cell_to(&alg, &dcs, tbl, cell, &Value::str(target));
            let got = oracle.repairs_cell_to(&dcs, tbl, cell, &Value::str(target));
            assert_eq!(got, want);
        }
        // Two distinct (program, table) repairs; the other target of `t`
        // reads `t`'s repair.
        assert_eq!(oracle.cache().stats().misses, 2);
        assert_eq!(oracle.cache().stats().hits, 3);
        assert_eq!(oracle.cache().stats().evictions, 0);
    }

    #[test]
    fn sharded_oracle_capacity_is_a_hard_bound() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        // One shard so the whole capacity is one clock; 64 distinct keys
        // through a capacity of 5.
        let oracle = bounded(&alg, 5, 1);
        assert_eq!(oracle.cache().capacity(), 5);
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for i in 0..64 {
            let mut t = table();
            t.set(cell, Value::str(format!("v{i}")));
            let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
            assert!(
                oracle.cache().len() <= 5,
                "len {} after key {i}",
                oracle.cache().len()
            );
        }
        let stats = oracle.cache().stats();
        assert_eq!(stats.misses, 64);
        assert_eq!(stats.evictions, 64 - 5);
        assert_eq!(oracle.cache().len(), 5);
        assert!(!oracle.cache().is_empty());
    }

    #[test]
    fn second_chance_keeps_the_hot_key() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = bounded(&alg, 2, 1);
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let keyed = |i: usize| {
            let mut t = table();
            t.set(cell, Value::str(format!("v{i}")));
            t
        };
        let hot = keyed(0);
        let _ = oracle.repairs_cell_to(&dcs, &hot, cell, &Value::str("FIXED"));
        // Cycle cold keys through the second slot, re-touching the hot key
        // between installs: its reference bit must survive every sweep.
        for i in 1..12 {
            let _ = oracle.repairs_cell_to(&dcs, &keyed(i), cell, &Value::str("FIXED"));
            let calls_before = alg.calls();
            let _ = oracle.repairs_cell_to(&dcs, &hot, cell, &Value::str("FIXED"));
            assert_eq!(alg.calls(), calls_before, "hot key was evicted at {i}");
        }
    }

    #[test]
    fn evicted_key_recomputes_the_same_answer() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = bounded(&alg, 1, 1);
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let t = table();
        let mut t2 = table();
        t2.set(cell, Value::str("other"));
        let first = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        let _ = oracle.repairs_cell_to(&dcs, &t2, cell, &Value::str("FIXED")); // evicts t's key
        let again = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        assert_eq!(first, again);
        let stats = oracle.cache().stats();
        assert_eq!(stats.misses, 3, "the re-query recomputes");
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.hits + stats.misses, 3, "every query is counted");
    }

    #[test]
    fn capacity_below_shard_count_clamps_shards_and_bounds_exactly() {
        // 3 entries through a requested 16 shards: the shard count clamps
        // to 3 so every shard can hold an entry (a quota-0 shard would
        // recompute its keys on every query forever), and the cache always
        // fills to — never past — its full capacity under key pressure.
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = bounded(&alg, 3, 16);
        assert_eq!(oracle.cache().capacity(), 3);
        assert_eq!(oracle.cache().num_shards(), 3, "shards clamp to capacity");
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for i in 0..40 {
            let mut t = table();
            t.set(cell, Value::str(format!("v{i}")));
            let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
            assert!(
                oracle.cache().len() <= 3,
                "len {} after key {i}",
                oracle.cache().len()
            );
        }
        assert_eq!(oracle.cache().len(), 3, "every shard holds its one entry");
        // Capacity 0 still disables caching without touching shard count.
        let off = bounded(&alg, 0, 16);
        assert_eq!(off.cache().num_shards(), 16);
        assert_eq!(off.cache().capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let alg = NoOpRepair;
        let _ = bounded(&alg, 16, 0);
    }

    #[test]
    fn non_power_of_two_shard_counts_are_exact() {
        // Shard selection is a modulo, not a bitmask: an odd shard count
        // must keep count, answers, and stats identical to any other —
        // which is why with_config does not round to a power of two.
        let t = table();
        let mut t2 = t.clone();
        t2.set(CellRef::new(0, AttrId(0)), Value::str("other"));
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let queries = [(&t, "FIXED"), (&t, "FIXED"), (&t2, "FIXED"), (&t2, "OTHER")];
        let run = |shards: usize| {
            let alg = CountingRepair {
                need: 1,
                calls: AtomicUsize::new(0),
            };
            let oracle = bounded(&alg, ShardedOracle::DEFAULT_CAPACITY, shards);
            assert_eq!(oracle.cache().num_shards(), shards);
            let answers: Vec<bool> = queries
                .iter()
                .map(|(tbl, target)| oracle.repairs_cell_to(&dcs, tbl, cell, &Value::str(*target)))
                .collect();
            (answers, oracle.cache().stats())
        };
        let (base_answers, base_stats) = run(16);
        for shards in [1usize, 3, 7, 13] {
            let (answers, stats) = run(shards);
            assert_eq!(answers, base_answers, "{shards} shards");
            assert_eq!(stats, base_stats, "{shards} shards");
        }
        assert_eq!(base_stats.misses, 2);
        assert_eq!(base_stats.hits, 2);
    }

    /// A repairer that panics whenever the table contains a null — the kind
    /// of brittleness coalition tables provoke.
    struct Brittle;

    impl RepairAlgorithm for Brittle {
        fn name(&self) -> &str {
            "brittle"
        }
        fn repair(&self, _dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
            assert!(
                dirty.cells_with_values().all(|(_, v)| !v.is_null()),
                "brittle repairer cannot handle nulls"
            );
            let mut clean = dirty.clone();
            clean.set(CellRef::new(0, AttrId(0)), Value::str("FIXED"));
            RepairResult::from_tables(dirty, clean)
        }
    }

    #[test]
    fn panic_guard_degrades_to_identity() {
        let guard = PanicGuard::new(Brittle);
        let ok = table();
        let r = guard.repair(&[], &ok);
        assert_eq!(r.changes.len(), 1);
        assert_eq!(guard.panic_count(), 0);

        let mut with_null = table();
        with_null.set(CellRef::new(0, AttrId(0)), Value::Null);
        // Silence the default panic hook for this expected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = guard.repair(&[], &with_null);
        std::panic::set_hook(prev);
        assert!(r.changes.is_empty());
        assert_eq!(r.clean, with_null);
        assert_eq!(guard.panic_count(), 1);
        assert_eq!(guard.name(), "brittle");
        assert_eq!(guard.inner().name(), "brittle");
    }

    #[test]
    fn noop_repair_is_identity() {
        let t = table();
        let r = NoOpRepair.repair(&[dc()], &t);
        assert_eq!(r.clean, t);
        assert!(r.changes.is_empty());
        assert_eq!(NoOpRepair.name(), "noop");
    }

    #[test]
    fn repair_result_change_at() {
        let t = table();
        let mut clean = t.clone();
        let cell = CellRef::new(0, AttrId(0));
        clean.set(cell, Value::str("x"));
        let r = RepairResult::from_tables(&t, clean);
        assert_eq!(r.changes.len(), 1);
        assert!(r.change_at(cell).is_some());
        assert_eq!(r.change_at(cell).unwrap().to, Value::str("x"));
    }

    #[test]
    fn boxed_algorithm_forwards() {
        let boxed: Box<dyn RepairAlgorithm> = Box::new(NoOpRepair);
        assert_eq!(RepairAlgorithm::name(&boxed), "noop");
        let t = table();
        let r = RepairAlgorithm::repair(&boxed, &[dc()], &t);
        assert!(r.changes.is_empty());
        // And a Box satisfies generic bounds, e.g. as an oracle's engine.
        let oracle = ShardedOracle::new(&boxed);
        let cell = CellRef::new(0, AttrId(0));
        assert!(!oracle.repairs_cell_to(&[dc()], &t, cell, &Value::str("FIXED")));
    }

    /// Test double with an artificially slow repair: makes cold-key races
    /// all but certain once a barrier lines the workers up.
    struct SlowRepair {
        delay: std::time::Duration,
        calls: AtomicUsize,
    }

    impl RepairAlgorithm for SlowRepair {
        fn name(&self) -> &str {
            "slow"
        }
        fn repair(&self, _dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
            self.calls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.delay);
            let mut clean = dirty.clone();
            clean.set(CellRef::new(0, AttrId(0)), Value::str("FIXED"));
            RepairResult::from_tables(dirty, clean)
        }
    }

    #[test]
    fn single_flight_computes_concurrent_identical_coalitions_once() {
        // Barrier-hammered identical cold key: without single-flight every
        // worker would run the (slow) repair; with it exactly one does and
        // the waiters share the answer.
        let alg = SlowRepair {
            delay: std::time::Duration::from_millis(40),
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::new(&alg);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    assert!(oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED")));
                });
            }
        });
        assert_eq!(alg.calls.load(Ordering::Relaxed), 1, "one computation");
        let stats = oracle.cache().stats();
        assert_eq!(stats.misses, 1, "the leader's install");
        assert_eq!(stats.hits, 7, "every waiter shares the flight's answer");
    }

    /// Panics on the first repair call, succeeds afterwards.
    struct FailsOnce {
        calls: AtomicUsize,
    }

    impl RepairAlgorithm for FailsOnce {
        fn name(&self) -> &str {
            "fails-once"
        }
        fn repair(&self, _dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
            if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient failure");
            }
            let mut clean = dirty.clone();
            clean.set(CellRef::new(0, AttrId(0)), Value::str("FIXED"));
            RepairResult::from_tables(dirty, clean)
        }
    }

    #[test]
    fn poisoned_flight_hands_leadership_to_a_waiter() {
        let alg = FailsOnce {
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::new(&alg);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let barrier = std::sync::Barrier::new(2);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcomes: Vec<Result<bool, ()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"))
                        }))
                        .map_err(|_| ())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("catch_unwind already caught the panic"))
                .collect()
        });
        std::panic::set_hook(prev);
        // Exactly one thread was the first leader and saw the transient
        // panic; the flight was poisoned and the other thread retook the
        // key and computed the real answer — no deadlock, no fabricated
        // answer.
        assert_eq!(outcomes.iter().filter(|r| r.is_err()).count(), 1);
        assert!(outcomes.contains(&Ok(true)));
        // The key ends installed with the correct answer and stays hot.
        assert!(oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED")));
        assert_eq!(
            oracle.cache().stats().misses,
            1,
            "only the successful install counts"
        );
    }
}
