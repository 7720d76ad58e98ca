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
//! Shapley computation evaluates the binary view on thousands of coalition
//! variants of `(C, T^d)`; [`CachedOracle`] memoizes those queries keyed by
//! `(constraints, table, cell, target)` fingerprints so that coalitions
//! revisited by different permutation samples are computed once (ablation
//! A1 of DESIGN.md measures the effect). [`ShardedOracle`] is the
//! thread-safe variant behind the parallel sampling engine: the same
//! memoization split over mutex-guarded shards so concurrent permutation
//! workers share hits without serializing on one lock, with single-flight
//! dedup of concurrent cold keys (one computation, all waiters share the
//! answer) and a batching layer ([`ShardedOracle::query_keyed_batch`]) that
//! forms bounded, cost-ordered batches for an optional
//! [`crate::backend::OracleBackend`].

use crate::backend::{CoalitionQuery, OracleBackend};
use std::cell::RefCell;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use trex_constraints::DenialConstraint;
use trex_table::{CellChange, CellRef, Table, Value};

/// The output of one repair run: the clean table and the cell-level diff.
#[derive(Debug, Clone)]
pub struct RepairResult {
    /// The repaired table `T^c`.
    pub clean: Table,
    /// The repaired cells (`dirty → clean` diff), in cell order.
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
/// paper's repair model is cell updates only.
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
    /// every engine ignores the config's oracle capacity, oracle batch, and
    /// seed, which configure the explanation layers instead. Builder-style
    /// (consumes and returns `self`), so it is only callable on concrete
    /// engines, not `dyn RepairAlgorithm`.
    fn with_exec(self, _cfg: &trex_shapley::ExecConfig) -> Self
    where
        Self: Sized,
    {
        self
    }
}

/// Boxed algorithms are algorithms: forwards `name`/`repair` to the boxed
/// engine so `Box<dyn RepairAlgorithm>` satisfies generic `RepairAlgorithm`
/// bounds (e.g. [`crate::MockRemoteRepair`] wraps a boxed engine).
/// `with_exec` keeps its identity default — configure the engine *before*
/// boxing it.
impl<A: RepairAlgorithm + ?Sized> RepairAlgorithm for Box<A> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        (**self).repair(dcs, dirty)
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

/// Order-sensitive hash of a DC list (by display form). Part of the oracle
/// cache key; public so games can pre-hash per-DC components and assemble
/// subset keys without cloning the subset (see [`ShardedOracle::query_keyed`]).
pub fn hash_dcs(dcs: &[DenialConstraint]) -> u64 {
    let mut h = DefaultHasher::new();
    dcs.len().hash(&mut h);
    for dc in dcs {
        dc.to_string().hash(&mut h);
    }
    h.finish()
}

/// Hash of a single value, as used in the oracle cache key.
pub fn hash_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Cache statistics of a [`CachedOracle`] / [`ShardedOracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Queries answered from the cache.
    pub hits: usize,
    /// Queries that ran the underlying repair.
    pub misses: usize,
    /// Entries evicted to stay under the capacity bound (always 0 for
    /// [`CachedOracle`], which stops inserting instead of evicting, and for
    /// a [`ShardedOracle`] that never exceeded its capacity).
    pub evictions: usize,
}

impl OracleStats {
    /// Total queries.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }

    /// Fraction of queries served from cache (0 when no queries).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// A memoizing wrapper around the binary repair oracle.
///
/// Keys are `(dcs, table, cell, target)` fingerprints. The cache is bounded:
/// once `capacity` entries are stored, further distinct queries are computed
/// but not inserted (coalition spaces are enormous; an unbounded cache could
/// eat the heap during long sampling runs).
pub struct CachedOracle<'a> {
    alg: &'a dyn RepairAlgorithm,
    capacity: usize,
    cache: RefCell<HashMap<(u64, u64, CellRef, u64), bool>>,
    stats: RefCell<OracleStats>,
}

impl<'a> CachedOracle<'a> {
    /// Default cache capacity (entries).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Wrap `alg` with the default capacity.
    pub fn new(alg: &'a dyn RepairAlgorithm) -> Self {
        Self::with_capacity(alg, Self::DEFAULT_CAPACITY)
    }

    /// Wrap `alg` with an explicit cache capacity.
    pub fn with_capacity(alg: &'a dyn RepairAlgorithm, capacity: usize) -> Self {
        CachedOracle {
            alg,
            capacity,
            cache: RefCell::new(HashMap::new()),
            stats: RefCell::new(OracleStats::default()),
        }
    }

    /// The underlying algorithm.
    pub fn algorithm(&self) -> &dyn RepairAlgorithm {
        self.alg
    }

    /// Memoized `Alg|cell(dcs, table) == target` query.
    pub fn repairs_cell_to(
        &self,
        dcs: &[DenialConstraint],
        table: &Table,
        cell: CellRef,
        target: &Value,
    ) -> bool {
        let key = (hash_dcs(dcs), table.fingerprint(), cell, hash_value(target));
        if let Some(hit) = self.cache.borrow().get(&key) {
            self.stats.borrow_mut().hits += 1;
            return *hit;
        }
        let answer = repairs_cell_to(self.alg, dcs, table, cell, target);
        self.stats.borrow_mut().misses += 1;
        let mut cache = self.cache.borrow_mut();
        if cache.len() < self.capacity {
            if let Entry::Vacant(e) = cache.entry(key) {
                e.insert(answer);
            }
        }
        answer
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> OracleStats {
        *self.stats.borrow()
    }

    /// Drop all cached entries and reset statistics.
    pub fn clear(&self) {
        self.cache.borrow_mut().clear();
        *self.stats.borrow_mut() = OracleStats::default();
    }
}

/// The memoization key: `(dcs, table, cell, target)` fingerprints.
///
/// Callers with a cheaper way to fingerprint a query than hashing a
/// materialized table — the Shapley games fingerprint coalitions as packed
/// dictionary-code vectors — build one of these directly and go through
/// [`ShardedOracle::query_keyed`]; the key layout is theirs to define as
/// long as equal keys mean equal queries.
pub type OracleKey = (u64, u64, CellRef, u64);

/// One cached answer plus its second-chance reference bit.
struct CacheSlot {
    answer: bool,
    referenced: bool,
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
    Done(bool),
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

    /// Publish the leader's answer and wake every waiter.
    fn resolve(&self, answer: bool) {
        let mut state = self.state.lock().expect("flight lock poisoned");
        *state = FlightState::Done(answer);
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
    fn wait(&self) -> Option<bool> {
        let mut state = self.state.lock().expect("flight lock poisoned");
        loop {
            match *state {
                FlightState::Pending => {
                    state = self.cv.wait(state).expect("flight lock poisoned");
                }
                FlightState::Done(answer) => return Some(answer),
                FlightState::Poisoned => return None,
            }
        }
    }
}

/// The shareable state of a [`ShardedOracle`]: the sharded memo maps, the
/// single-flight registries, and the hit/miss/eviction/dispatch counters —
/// everything except the algorithm and backend borrows.
///
/// A `ShardedOracle` built through [`ShardedOracle::new`] (or the other
/// capacity constructors) owns a private cache, exactly as before. Long-lived
/// owners — a `trex` `Session` serving many explanation requests, or the
/// `trex-server` multiplexing concurrent clients — instead build one
/// `Arc<OracleCache>` up front and hand clones to
/// every per-request oracle via [`ShardedOracle::with_shared_cache`], so all
/// requests against the same (table, constraints) pair warm one bounded
/// cache. Sharing is safe because the games' [`OracleKey`]s fingerprint the
/// full query (constraint set, coalition table, cell, target): two requests
/// can only collide on a key when they ask the same question, and the answer
/// is then identical by the oracle's determinism contract.
///
/// Capacity distribution, eviction policy, and the statistics contract are
/// documented on [`ShardedOracle`]; they are properties of this struct and
/// hold for every oracle sharing it.
pub struct OracleCache {
    /// Per-shard capacity quotas; index-aligned with `shards` and summing
    /// to the constructor's total capacity.
    shard_caps: Vec<usize>,
    shards: Vec<Mutex<OracleShard>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    batches: AtomicUsize,
    batched_queries: AtomicUsize,
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

    /// A cache with an explicit total capacity and shard count; see
    /// [`ShardedOracle::with_config`] for the quota distribution and the
    /// shard-count guidance.
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
            batches: AtomicUsize::new(0),
            batched_queries: AtomicUsize::new(0),
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

    /// Number of live cached entries across all shards (always ≤
    /// [`OracleCache::capacity`]).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("oracle shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated cache statistics so far; see [`ShardedOracle::stats`] for
    /// the scheduling-independence contract.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Batched-dispatch telemetry so far (see [`BatchStats`]).
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats {
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.batched_queries.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached entries and reset statistics. In-flight computations
    /// (single-flight registrations) are untouched — they resolve normally.
    ///
    /// This is the session-invalidation hook: owners that mutate the table
    /// or the constraint set between explanations call this so the next
    /// request starts from a cold (but definitely fresh) cache. Stale
    /// answers were already unreachable — keys embed the table fingerprint
    /// and the constraint-set hash, so an edit changes every key — but
    /// flushing also frees the dead pre-edit entries and removes even the
    /// 64-bit-collision corner from the contract.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("oracle shard poisoned");
            shard.map.clear();
            shard.clock.clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batched_queries.store(0, Ordering::Relaxed);
    }
}

impl Default for OracleCache {
    fn default() -> Self {
        Self::new()
    }
}

/// One mutex-guarded shard: the memo map, the clock queue ordering its
/// eviction candidates (the queue always holds exactly the map's keys), and
/// the single-flight registry of keys currently being computed.
#[derive(Default)]
struct OracleShard {
    map: HashMap<OracleKey, CacheSlot>,
    clock: VecDeque<OracleKey>,
    /// Keys some thread is computing right now: later arrivals wait on the
    /// registered flight instead of recomputing. Disjoint from `map` — a
    /// key moves from here into the map when its leader installs it.
    inflight: HashMap<OracleKey, Arc<Flight>>,
}

impl OracleShard {
    /// Evict one entry by the second-chance (clock) policy: sweep from the
    /// oldest entry, giving each recently-hit entry one reprieve (clear its
    /// bit, rotate it to the back) and evicting the first entry found
    /// unreferenced. Bounded by one full lap — a lap clears every bit, so
    /// the lap's survivor at the front is evictable.
    fn evict_one(&mut self) {
        for _ in 0..self.clock.len() {
            let key = self.clock.pop_front().expect("clock tracks map keys");
            let slot = self.map.get_mut(&key).expect("clock tracks map keys");
            if slot.referenced {
                slot.referenced = false;
                self.clock.push_back(key);
            } else {
                self.map.remove(&key);
                return;
            }
        }
        let key = self.clock.pop_front().expect("clock tracks map keys");
        self.map.remove(&key);
    }
}

/// Thread-safe memoizing oracle: the [`CachedOracle`] contract behind a
/// sharded lock so the parallel sampling workers can query it concurrently.
///
/// The key space is split across a configurable number of mutex-guarded
/// shards ([`ShardedOracle::DEFAULT_SHARDS`] by default) selected by the
/// coalition-table fingerprint, so workers evaluating different coalitions
/// almost never contend, yet every worker sees every other worker's cached
/// answers. Hit/miss statistics are aggregated with relaxed atomics and are
/// **scheduling-independent**: a query counts as a miss only when it is the
/// one that installs the key (see [`ShardedOracle::repairs_cell_to`]), so
/// the same workload yields the same [`OracleStats`] at any thread count.
///
/// **Bounded memory.** The capacity is a hard bound on live entries: the
/// per-shard quotas sum to exactly `capacity` (shard `i` gets
/// `capacity / shards`, plus one of the remainder entries for the first
/// `capacity % shards` shards; a non-zero capacity below the shard count
/// clamps the shard count so every shard can hold at least one entry), and
/// a shard at quota **evicts** by a
/// per-shard second-chance (clock) policy before inserting — recently
/// re-queried entries survive the sweep, cold entries go first. Long
/// sampling runs over tables with millions of coalition variants therefore
/// stop growing the cache instead of eating the heap, at the price of
/// recomputing an evicted key if it is queried again (the recompute is
/// counted as a fresh miss, and every eviction increments
/// [`OracleStats::evictions`]). Results are *always* identical to an
/// unbounded oracle — eviction only ever costs time, never changes an
/// answer — and a capacity at least the live-key count of the workload
/// evicts nothing at all.
///
/// **Single-flight & batching.** Concurrent queries of the same cold key
/// dedup via single-flight: the first arrival computes, everyone else
/// blocks on its flight and shares the answer — one repair run per key no
/// matter how many workers race. [`ShardedOracle::query_keyed_batch`]
/// additionally forms bounded batches of cold keys (size capped by
/// [`ShardedOracle::with_batch`]), orders them most-expensive-scan-first
/// when the caller supplies static cost estimates, and dispatches them to
/// an optional [`OracleBackend`] ([`ShardedOracle::with_backend`]) so
/// per-call-latency backends amortize their round trip across the batch.
pub struct ShardedOracle<'a> {
    alg: &'a dyn RepairAlgorithm,
    /// Batch transport; `None` answers batches with `alg` locally.
    backend: Option<&'a dyn OracleBackend>,
    /// Max queries per backend dispatch in `query_keyed_batch`.
    batch: usize,
    /// The memo maps and counters — private to this oracle through the
    /// capacity constructors, or shared across oracles through
    /// [`ShardedOracle::with_shared_cache`].
    cache: Arc<OracleCache>,
}

/// Batched-dispatch statistics of a [`ShardedOracle`]: how many backend
/// dispatches the batcher issued and how many (deduplicated) queries they
/// carried. Kept separate from [`OracleStats`], whose hit/miss/eviction
/// totals are a pinned scheduling-independent contract — dispatch counts
/// legitimately depend on batch size and arrival order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Dispatches issued by [`ShardedOracle::query_keyed_batch`] (one
    /// `answer_batch` round trip each when a backend is attached).
    pub batches: usize,
    /// Total queries those dispatches carried. Only genuine misses reach a
    /// dispatch — cache hits and single-flight joins never do.
    pub queries: usize,
}

/// One registered single-flight lead of a batched call: the query's
/// position in the caller's key slice plus the flight to resolve.
struct Lead {
    slot: usize,
    key: OracleKey,
    shard: usize,
    flight: Arc<Flight>,
    resolved: bool,
}

/// Unwind guard over a call's registered leads: any lead still unresolved
/// when the guard drops (the compute or backend panicked) is deregistered
/// and poisoned, so waiters on other threads wake and retake the key
/// instead of deadlocking behind a dead leader.
struct FlightLease<'o, 'a> {
    oracle: &'o ShardedOracle<'a>,
    leads: Vec<Lead>,
}

impl FlightLease<'_, '_> {
    /// Install lead `j`'s answer in the cache and wake its waiters.
    fn resolve(&mut self, j: usize, answer: bool) {
        let lead = &mut self.leads[j];
        lead.resolved = true;
        self.oracle
            .install_and_resolve(lead.shard, lead.key, &lead.flight, answer);
    }
}

impl Drop for FlightLease<'_, '_> {
    fn drop(&mut self) {
        for lead in &self.leads {
            if lead.resolved {
                continue;
            }
            // `if let Ok`: a poisoned shard mutex while already unwinding
            // must not escalate into a double-panic abort.
            if let Ok(mut shard) = self.oracle.cache.shards[lead.shard].lock() {
                shard.inflight.remove(&lead.key);
            }
            lead.flight.poison();
        }
    }
}

impl<'a> ShardedOracle<'a> {
    /// Default total cache capacity (entries), matching [`CachedOracle`].
    pub const DEFAULT_CAPACITY: usize = CachedOracle::DEFAULT_CAPACITY;

    /// Default number of independent shards.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Wrap `alg` with the default capacity and shard count.
    pub fn new(alg: &'a dyn RepairAlgorithm) -> Self {
        Self::with_config(alg, Self::DEFAULT_CAPACITY, Self::DEFAULT_SHARDS)
    }

    /// Wrap `alg` with an explicit total cache capacity (0 disables caching)
    /// and the default shard count.
    pub fn with_capacity(alg: &'a dyn RepairAlgorithm, capacity: usize) -> Self {
        Self::with_config(alg, capacity, Self::DEFAULT_SHARDS)
    }

    /// Wrap `alg` with an explicit total capacity and shard count. More
    /// shards cut lock contention on many-core machines; `shards = 1`
    /// degenerates to a single-lock cache (useful as a contention baseline
    /// and in tests).
    ///
    /// Any shard count ≥ 1 is valid — zero is rejected (there would be no
    /// shard to hold an entry). Non-power-of-two counts are deliberately
    /// *not* rounded up: shard selection reduces the key hash with a
    /// modulo (see [`Self::shard_of`]), not a bitmask, so an odd count
    /// distributes keys just as uniformly, and silently rounding would
    /// change the per-shard capacity quotas behind the caller's back.
    ///
    /// The default of [`ShardedOracle::DEFAULT_SHARDS`] (16) comes from the
    /// `oracle_cache` bench's contention sweep (1/4/16/64 shards hammered
    /// by up to 8 workers): 1 shard serializes every worker on one lock,
    /// 4 still collide measurably at 8 workers, while 16 is within noise
    /// of 64 on every machine profiled — so 16 takes the smallest
    /// per-entry bookkeeping that already removes the contention.
    pub fn with_config(alg: &'a dyn RepairAlgorithm, capacity: usize, shards: usize) -> Self {
        Self::with_shared_cache(alg, Arc::new(OracleCache::with_config(capacity, shards)))
    }

    /// Wrap `alg` around an existing (typically shared) [`OracleCache`].
    ///
    /// This is the long-lived-session constructor: a `Session` or server
    /// builds one `Arc<OracleCache>` and every per-request oracle clones the
    /// handle, so concurrent explanations of the same (table, constraints)
    /// pair warm and hit one bounded cache. Answers, eviction behavior, and
    /// the statistics contract are identical to a private cache — the
    /// counters simply aggregate across every oracle sharing the handle.
    pub fn with_shared_cache(alg: &'a dyn RepairAlgorithm, cache: Arc<OracleCache>) -> Self {
        ShardedOracle {
            alg,
            backend: None,
            batch: usize::MAX,
            cache,
        }
    }

    /// The cache handle this oracle queries; clone it to share the cache
    /// with another oracle (see [`ShardedOracle::with_shared_cache`]).
    pub fn cache(&self) -> &Arc<OracleCache> {
        &self.cache
    }

    /// Route batched dispatches ([`ShardedOracle::query_keyed_batch`])
    /// through `backend` instead of the local algorithm.
    ///
    /// The backend must honor the [`OracleBackend`] transport contract —
    /// answer exactly what the local algorithm would — so attaching one
    /// never changes an answer, only where (and how many at a time) the
    /// misses are computed. Per-query paths
    /// ([`ShardedOracle::repairs_cell_to`], [`ShardedOracle::query_keyed`])
    /// stay on their caller-supplied compute.
    pub fn with_backend(mut self, backend: &'a dyn OracleBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Bound the number of queries per batched dispatch (default:
    /// unbounded — one dispatch carries every miss of a
    /// [`ShardedOracle::query_keyed_batch`] call).
    ///
    /// # Panics
    /// If `batch` is 0 (a dispatch must be able to carry a query).
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be at least 1");
        self.batch = batch;
        self
    }

    /// The attached backend's name, if one is attached.
    pub fn backend_name(&self) -> Option<&str> {
        self.backend.map(|b| b.name())
    }

    /// The underlying algorithm.
    pub fn algorithm(&self) -> &dyn RepairAlgorithm {
        self.alg
    }

    /// The number of shards this oracle's cache was built with.
    pub fn num_shards(&self) -> usize {
        self.cache.num_shards()
    }

    /// Total capacity (the sum of the per-shard quotas): the hard bound on
    /// [`ShardedOracle::len`].
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Number of live cached entries across all shards (always ≤
    /// [`ShardedOracle::capacity`]).
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    fn shard_of(&self, key: &OracleKey) -> usize {
        // The table fingerprint is the high-entropy component: coalition
        // variants of one explanation differ almost exclusively there.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.cache.shards.len()
    }

    /// Memoized `Alg|cell(dcs, table) == target` query; safe to call from
    /// many threads at once.
    ///
    /// The shard lock is *not* held while the underlying repair runs.
    /// Concurrent queries of the same brand-new key dedup via
    /// *single-flight*: the first arrival (the leader) registers a flight
    /// and computes; every later arrival blocks on that flight and shares
    /// the leader's answer — one repair run per key, no matter how many
    /// workers race. Statistics classify per *key*: the leader that
    /// installs a key records the miss; every waiter records a hit,
    /// exactly as if it had arrived after the insertion. Hit/miss totals
    /// are therefore a function of the workload alone (as long as the
    /// cache is not capacity-saturated), identical across runs and thread
    /// counts. If a leader panics before answering, its flight is poisoned
    /// and one waiter takes over as the new leader — an answer is never
    /// fabricated.
    pub fn repairs_cell_to(
        &self,
        dcs: &[DenialConstraint],
        table: &Table,
        cell: CellRef,
        target: &Value,
    ) -> bool {
        let key = (hash_dcs(dcs), table.fingerprint(), cell, hash_value(target));
        self.query_keyed(key, || repairs_cell_to(self.alg, dcs, table, cell, target))
    }

    /// [`ShardedOracle::repairs_cell_to`] with a caller-built [`OracleKey`]:
    /// the cache is consulted first and `compute` runs only on a genuine
    /// miss. This is the hot path of the Shapley games — a hit costs one
    /// key hash and one shard lock, never a coalition-table clone or a
    /// repair run. Lock/eviction/statistics behavior is identical to
    /// [`ShardedOracle::repairs_cell_to`] (the stats contract documented
    /// there is this method's contract; `compute` must be deterministic and
    /// equal keys must mean equal queries).
    pub fn query_keyed(&self, key: OracleKey, compute: impl FnOnce() -> bool) -> bool {
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
                if let Some(slot) = shard.map.get_mut(&key) {
                    slot.referenced = true; // a hit earns its second chance
                    let answer = slot.answer;
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
                    let mut lease = FlightLease {
                        oracle: self,
                        leads: vec![Lead {
                            slot: 0,
                            key,
                            shard: shard_idx,
                            flight,
                            resolved: false,
                        }],
                    };
                    let answer = (compute.take().expect("the lead path runs at most once"))();
                    lease.resolve(0, answer);
                    return answer;
                }
            }
        }
    }

    /// Answer a whole batch of caller-keyed queries, index-aligned with
    /// `keys` — the batching/coalescing layer in front of an
    /// [`OracleBackend`].
    ///
    /// Per key this resolves exactly like [`ShardedOracle::query_keyed`]
    /// (cache hit, single-flight join, or lead), but all of the call's
    /// *leads* — the genuine misses, including the first occurrence of any
    /// intra-batch duplicate — are dispatched together in bounded chunks
    /// ([`ShardedOracle::with_batch`]) instead of one at a time:
    /// to the attached backend's `answer_batch` when one is attached
    /// ([`ShardedOracle::with_backend`]), else to the local algorithm.
    /// `materialize(i)` builds the full [`CoalitionQuery`] for `keys[i]`
    /// and is called only for queries that actually need computing.
    ///
    /// `costs` (optional, index-aligned with `keys`) are static
    /// scan-cost estimates — the analyzer's `DcPlan` pair counts summed
    /// over the coalition — and order dispatch most-expensive-first
    /// (stable on ties) so the slowest scans start earliest; they never
    /// affect *what* is computed, only the order, and answers always come
    /// back in key order.
    ///
    /// Answers and [`ShardedOracle::stats`] are byte-identical to issuing
    /// the same keys through `query_keyed` one at a time, at any batch
    /// size and thread count: one miss per installed key, a hit for every
    /// other query of it. Dispatch telemetry is reported separately via
    /// [`ShardedOracle::batch_stats`].
    ///
    /// # Panics
    /// If `costs` is present but not index-aligned with `keys`, or if the
    /// backend answers a different number of queries than it was sent.
    pub fn query_keyed_batch<'q>(
        &self,
        keys: &[OracleKey],
        costs: Option<&[u64]>,
        materialize: impl Fn(usize) -> CoalitionQuery<'q>,
    ) -> Vec<bool> {
        if let Some(costs) = costs {
            assert_eq!(costs.len(), keys.len(), "need one cost per key");
        }
        let mut answers = vec![false; keys.len()];
        // Single-flight joins: queries some other call (or an earlier
        // duplicate in this one) is already computing.
        let mut joins: Vec<(usize, Arc<Flight>)> = Vec::new();
        let mut lease = FlightLease {
            oracle: self,
            leads: Vec::new(),
        };
        for (slot, key) in keys.iter().enumerate() {
            let shard_idx = self.shard_of(key);
            let mut shard = self.cache.shards[shard_idx]
                .lock()
                .expect("oracle shard poisoned");
            if let Some(cached) = shard.map.get_mut(key) {
                cached.referenced = true;
                let answer = cached.answer;
                drop(shard);
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                answers[slot] = answer;
            } else if let Some(flight) = shard.inflight.get(key) {
                joins.push((slot, Arc::clone(flight)));
            } else {
                let flight = Flight::new();
                shard.inflight.insert(*key, Arc::clone(&flight));
                lease.leads.push(Lead {
                    slot,
                    key: *key,
                    shard: shard_idx,
                    flight,
                    resolved: false,
                });
            }
        }
        // Dispatch order: most expensive scans first when the caller gave
        // cost estimates, arrival order otherwise (stable on ties, so the
        // order — and with it every downstream number — is deterministic).
        let mut order: Vec<usize> = (0..lease.leads.len()).collect();
        if let Some(costs) = costs {
            order.sort_by(|&a, &b| {
                costs[lease.leads[b].slot]
                    .cmp(&costs[lease.leads[a].slot])
                    .then(lease.leads[a].slot.cmp(&lease.leads[b].slot))
            });
        }
        for group in order.chunks(self.batch) {
            let queries: Vec<CoalitionQuery<'q>> = group
                .iter()
                .map(|&j| materialize(lease.leads[j].slot))
                .collect();
            let got: Vec<bool> = match self.backend {
                Some(backend) => backend.answer_batch(&queries),
                None => queries
                    .iter()
                    .map(|q| repairs_cell_to(self.alg, &q.dcs, &q.table, q.cell, &q.target))
                    .collect(),
            };
            assert_eq!(
                got.len(),
                queries.len(),
                "backend must answer every query in the batch"
            );
            self.cache.batches.fetch_add(1, Ordering::Relaxed);
            self.cache
                .batched_queries
                .fetch_add(queries.len(), Ordering::Relaxed);
            for (&j, answer) in group.iter().zip(got) {
                answers[lease.leads[j].slot] = answer;
                lease.resolve(j, answer);
            }
        }
        // Every lead of this call resolved above, so joins can only block
        // on *other* calls' leaders — never on ourselves.
        for (slot, flight) in joins {
            answers[slot] = match flight.wait() {
                Some(answer) => {
                    self.cache.hits.fetch_add(1, Ordering::Relaxed);
                    answer
                }
                // The foreign leader unwound: retake this key per-query.
                None => self.query_keyed(keys[slot], || self.compute_one(&materialize(slot))),
            };
        }
        answers
    }

    /// Answer one materialized query outside the batch loop (the fallback
    /// when a foreign leader failed): through the backend as a batch of
    /// one when attached, else the local algorithm.
    fn compute_one(&self, q: &CoalitionQuery<'_>) -> bool {
        match self.backend {
            Some(backend) => {
                let got = backend.answer_batch(std::slice::from_ref(q));
                assert_eq!(got.len(), 1, "backend must answer every query in the batch");
                self.cache.batches.fetch_add(1, Ordering::Relaxed);
                self.cache.batched_queries.fetch_add(1, Ordering::Relaxed);
                got[0]
            }
            None => repairs_cell_to(self.alg, &q.dcs, &q.table, q.cell, &q.target),
        }
    }

    /// Install a freshly computed answer (the installer's miss), deregister
    /// its flight, and wake the waiters. This is the cache's single
    /// insertion point, shared by the per-query and batched paths — the
    /// quota/eviction logic lives only here.
    fn install_and_resolve(&self, shard_idx: usize, key: OracleKey, flight: &Flight, answer: bool) {
        {
            let mut shard = self.cache.shards[shard_idx]
                .lock()
                .expect("oracle shard poisoned");
            shard.inflight.remove(&key);
            let quota = self.cache.shard_caps[shard_idx];
            if quota > 0 {
                if shard.map.len() >= quota {
                    shard.evict_one();
                    self.cache.evictions.fetch_add(1, Ordering::Relaxed);
                }
                shard.map.insert(
                    key,
                    CacheSlot {
                        answer,
                        referenced: false,
                    },
                );
                shard.clock.push_back(key);
            }
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        flight.resolve(answer);
    }

    /// Aggregated cache statistics so far.
    ///
    /// `hits + misses` always equals the number of queries answered.
    /// Scheduling-independent below capacity: each distinct key accounts
    /// for exactly one miss (the query that installed it — see
    /// [`ShardedOracle::repairs_cell_to`]), every other query of that key
    /// is a hit, so repeated runs of the same workload report identical
    /// hit/miss totals at any thread count and `evictions` stays 0. Once
    /// capacity pressure triggers evictions, a re-queried evicted key
    /// recomputes (a fresh miss) and which key was evicted can depend on
    /// query interleaving, so only the invariants — not the exact split —
    /// are schedule-independent under pressure. An oracle on a shared
    /// cache reports the cache's aggregate counters, i.e. the combined
    /// pressure of every oracle sharing the handle.
    pub fn stats(&self) -> OracleStats {
        self.cache.stats()
    }

    /// Batched-dispatch telemetry so far (see [`BatchStats`]).
    pub fn batch_stats(&self) -> BatchStats {
        self.cache.batch_stats()
    }

    /// Drop all cached entries and reset statistics. In-flight computations
    /// (single-flight registrations) are untouched — they resolve normally.
    pub fn clear(&self) {
        self.cache.clear()
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
    fn cached_oracle_deduplicates() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = CachedOracle::new(&alg);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for _ in 0..5 {
            assert!(oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED")));
        }
        assert_eq!(alg.calls(), 1);
        let stats = oracle.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cache_keys_distinguish_inputs() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = CachedOracle::new(&alg);
        let t = table();
        let mut t2 = t.clone();
        t2.set(CellRef::new(0, AttrId(0)), Value::str("other"));
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        let _ = oracle.repairs_cell_to(&dcs, &t2, cell, &Value::str("FIXED"));
        let _ = oracle.repairs_cell_to(&[], &t, cell, &Value::str("FIXED"));
        // Three distinct inputs → three misses, three underlying runs.
        assert_eq!(alg.calls(), 3);
        assert_eq!(oracle.stats().misses, 3);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = CachedOracle::with_capacity(&alg, 0);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for _ in 0..3 {
            let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        }
        assert_eq!(alg.calls(), 3);
        assert_eq!(oracle.stats().hits, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = CachedOracle::new(&alg);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let _ = oracle.repairs_cell_to(&[dc()], &t, cell, &Value::str("FIXED"));
        oracle.clear();
        assert_eq!(oracle.stats(), OracleStats::default());
        let _ = oracle.repairs_cell_to(&[dc()], &t, cell, &Value::str("FIXED"));
        assert_eq!(alg.calls(), 2);
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
        let stats = oracle.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        oracle.clear();
        assert_eq!(oracle.stats(), OracleStats::default());
        let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        assert_eq!(alg.calls(), 2);
    }

    #[test]
    fn sharded_oracle_capacity_zero_disables_caching() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::with_capacity(&alg, 0);
        let t = table();
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for _ in 0..3 {
            let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        }
        assert_eq!(alg.calls(), 3);
        assert_eq!(oracle.stats().hits, 0);
        assert_eq!(oracle.algorithm().name(), "counting");
    }

    #[test]
    fn sharded_oracle_agrees_with_cached_oracle() {
        // Same queries, same answers, same hit/miss totals: the sharded
        // oracle is a drop-in for the serial one.
        let alg = CountingRepair {
            need: 2,
            calls: AtomicUsize::new(0),
        };
        let serial = CachedOracle::new(&alg);
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
            let a = serial.repairs_cell_to(dcs, table, cell, &Value::str("FIXED"));
            let b = sharded.repairs_cell_to(dcs, table, cell, &Value::str("FIXED"));
            assert_eq!(a, b);
        }
        assert_eq!(serial.stats(), sharded.stats());
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
        let stats = oracle.stats();
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
            oracle.stats()
        };
        for _ in 0..3 {
            let stats = run();
            assert_eq!(stats.misses, 6, "one miss per distinct key");
            assert_eq!(stats.hits, 4 * 5 * 6 - 6);
        }
    }

    #[test]
    fn single_shard_oracle_aggregates_stats_correctly() {
        // shards = 1 degenerates to one lock but must keep the exact
        // CachedOracle stats contract.
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::with_config(&alg, ShardedOracle::DEFAULT_CAPACITY, 1);
        assert_eq!(oracle.num_shards(), 1);
        let serial_alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let serial = CachedOracle::new(&serial_alg);
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
            let a = oracle.repairs_cell_to(&dcs, tbl, cell, &Value::str(target));
            let b = serial.repairs_cell_to(&dcs, tbl, cell, &Value::str(target));
            assert_eq!(a, b);
        }
        assert_eq!(oracle.stats(), serial.stats());
        assert_eq!(oracle.stats().misses, 3);
        assert_eq!(oracle.stats().hits, 2);
    }

    #[test]
    fn sharded_oracle_capacity_is_a_hard_bound() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        // One shard so the whole capacity is one clock; 64 distinct keys
        // through a capacity of 5.
        let oracle = ShardedOracle::with_config(&alg, 5, 1);
        assert_eq!(oracle.capacity(), 5);
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for i in 0..64 {
            let mut t = table();
            t.set(cell, Value::str(format!("v{i}")));
            let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
            assert!(oracle.len() <= 5, "len {} after key {i}", oracle.len());
        }
        let stats = oracle.stats();
        assert_eq!(stats.misses, 64);
        assert_eq!(stats.evictions, 64 - 5);
        assert_eq!(oracle.len(), 5);
        assert!(!oracle.is_empty());
    }

    #[test]
    fn second_chance_keeps_the_hot_key() {
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let oracle = ShardedOracle::with_config(&alg, 2, 1);
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
        let oracle = ShardedOracle::with_config(&alg, 1, 1);
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let t = table();
        let mut t2 = table();
        t2.set(cell, Value::str("other"));
        let first = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        let _ = oracle.repairs_cell_to(&dcs, &t2, cell, &Value::str("FIXED")); // evicts t's key
        let again = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
        assert_eq!(first, again);
        let stats = oracle.stats();
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
        let oracle = ShardedOracle::with_config(&alg, 3, 16);
        assert_eq!(oracle.capacity(), 3);
        assert_eq!(oracle.num_shards(), 3, "shards clamp to capacity");
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        for i in 0..40 {
            let mut t = table();
            t.set(cell, Value::str(format!("v{i}")));
            let _ = oracle.repairs_cell_to(&dcs, &t, cell, &Value::str("FIXED"));
            assert!(oracle.len() <= 3, "len {} after key {i}", oracle.len());
        }
        assert_eq!(oracle.len(), 3, "every shard holds its one entry");
        // Capacity 0 still disables caching without touching shard count.
        let off = ShardedOracle::with_config(&alg, 0, 16);
        assert_eq!(off.num_shards(), 16);
        assert_eq!(off.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let alg = NoOpRepair;
        let _ = ShardedOracle::with_config(&alg, 16, 0);
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
            let oracle = ShardedOracle::with_config(&alg, ShardedOracle::DEFAULT_CAPACITY, shards);
            assert_eq!(oracle.num_shards(), shards);
            let answers: Vec<bool> = queries
                .iter()
                .map(|(tbl, target)| oracle.repairs_cell_to(&dcs, tbl, cell, &Value::str(*target)))
                .collect();
            (answers, oracle.stats())
        };
        let (base_answers, base_stats) = run(16);
        for shards in [1usize, 3, 7, 13] {
            let (answers, stats) = run(shards);
            assert_eq!(answers, base_answers, "{shards} shards");
            assert_eq!(stats, base_stats, "{shards} shards");
        }
        assert_eq!(base_stats.misses, 3);
        assert_eq!(base_stats.hits, 1);
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
        let stats = oracle.stats();
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
            oracle.stats().misses,
            1,
            "only the successful install counts"
        );
    }

    fn keyed_query<'q>(
        dcs: &'q [DenialConstraint],
        t: &'q Table,
        cell: CellRef,
        target: &'q Value,
    ) -> (OracleKey, crate::backend::CoalitionQuery<'q>) {
        use std::borrow::Cow;
        let key = (hash_dcs(dcs), t.fingerprint(), cell, hash_value(target));
        let query = crate::backend::CoalitionQuery {
            dcs: Cow::Borrowed(dcs),
            table: Cow::Borrowed(t),
            cell,
            target: Cow::Borrowed(target),
        };
        (key, query)
    }

    #[test]
    fn batched_queries_match_per_query_answers_and_stats() {
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let target = Value::str("FIXED");
        let tables: Vec<Table> = (0..5)
            .map(|i| {
                let mut t = table();
                t.set(cell, Value::str(format!("v{i}")));
                t
            })
            .collect();
        // Workload with an intra-batch duplicate: tables[0] twice.
        let picks = [0usize, 1, 0, 2, 3, 4];
        let run_batched = |batch: usize| {
            let alg = CountingRepair {
                need: 1,
                calls: AtomicUsize::new(0),
            };
            let oracle = ShardedOracle::new(&alg).with_batch(batch);
            let keyed: Vec<(OracleKey, crate::backend::CoalitionQuery<'_>)> = picks
                .iter()
                .map(|&i| keyed_query(&dcs, &tables[i], cell, &target))
                .collect();
            let keys: Vec<OracleKey> = keyed.iter().map(|(k, _)| *k).collect();
            let answers = oracle.query_keyed_batch(&keys, None, |i| {
                let q = &keyed[i].1;
                crate::backend::CoalitionQuery {
                    dcs: q.dcs.clone(),
                    table: q.table.clone(),
                    cell: q.cell,
                    target: q.target.clone(),
                }
            });
            (answers, oracle.stats(), oracle.batch_stats(), alg.calls())
        };
        // Per-query reference.
        let alg = CountingRepair {
            need: 1,
            calls: AtomicUsize::new(0),
        };
        let reference = ShardedOracle::new(&alg);
        let expect: Vec<bool> = picks
            .iter()
            .map(|&i| reference.repairs_cell_to(&dcs, &tables[i], cell, &target))
            .collect();
        for batch in [1usize, 2, 3, usize::MAX] {
            let (answers, stats, batch_stats, calls) = run_batched(batch);
            assert_eq!(answers, expect, "batch size {batch}");
            assert_eq!(stats, reference.stats(), "batch size {batch}");
            assert_eq!(calls, 5, "one computation per distinct key");
            assert_eq!(batch_stats.queries, 5, "only misses reach dispatch");
            let expected_batches = if batch == usize::MAX {
                1
            } else {
                5usize.div_ceil(batch)
            };
            assert_eq!(batch_stats.batches, expected_batches, "batch size {batch}");
        }
        // The intra-batch duplicate joined its own flight: one hit.
        assert_eq!(reference.stats().misses, 5);
        assert_eq!(reference.stats().hits, 1);
    }

    /// Backend double recording the order queries arrive in (by the dirty
    /// value of cell (0,0)), to observe cost-ordered dispatch.
    struct RecordingBackend {
        inner: NoOpRepair,
        seen: Mutex<Vec<String>>,
    }

    impl crate::backend::OracleBackend for RecordingBackend {
        fn name(&self) -> &str {
            "recording"
        }
        fn answer_batch(&self, batch: &[crate::backend::CoalitionQuery<'_>]) -> Vec<bool> {
            let mut seen = self.seen.lock().unwrap();
            for q in batch {
                seen.push(q.table.get(CellRef::new(0, AttrId(0))).to_string());
            }
            batch
                .iter()
                .map(|q| repairs_cell_to(&self.inner, &q.dcs, &q.table, q.cell, &q.target))
                .collect()
        }
    }

    #[test]
    fn batched_dispatch_orders_by_descending_cost() {
        let cell = CellRef::new(0, AttrId(0));
        let dcs = [dc()];
        let target = Value::str("FIXED");
        let tables: Vec<Table> = (0..4)
            .map(|i| {
                let mut t = table();
                t.set(cell, Value::str(format!("v{i}")));
                t
            })
            .collect();
        let backend = RecordingBackend {
            inner: NoOpRepair,
            seen: Mutex::new(Vec::new()),
        };
        let alg = NoOpRepair;
        let oracle = ShardedOracle::new(&alg).with_backend(&backend);
        assert_eq!(oracle.backend_name(), Some("recording"));
        let keyed: Vec<(OracleKey, crate::backend::CoalitionQuery<'_>)> = tables
            .iter()
            .map(|t| keyed_query(&dcs, t, cell, &target))
            .collect();
        let keys: Vec<OracleKey> = keyed.iter().map(|(k, _)| *k).collect();
        // v2 is the most expensive scan, then v0; v1 and v3 tie at 1 and
        // keep arrival order.
        let costs = [7u64, 1, 90, 1];
        let answers = oracle.query_keyed_batch(&keys, Some(&costs), |i| {
            let q = &keyed[i].1;
            crate::backend::CoalitionQuery {
                dcs: q.dcs.clone(),
                table: q.table.clone(),
                cell: q.cell,
                target: q.target.clone(),
            }
        });
        assert_eq!(answers, vec![false; 4], "noop repairs nothing");
        assert_eq!(
            *backend.seen.lock().unwrap(),
            vec!["v2", "v0", "v1", "v3"],
            "most expensive first, stable on ties"
        );
        assert_eq!(oracle.batch_stats().batches, 1);
        // Answers land back in key order regardless of dispatch order, and
        // the cache is warm: a second pass is all hits, no new dispatch.
        let again = oracle.query_keyed_batch(&keys, Some(&costs), |_| unreachable!("all hits"));
        assert_eq!(again, answers);
        assert_eq!(oracle.batch_stats().batches, 1);
        assert_eq!(oracle.stats().hits, 4);
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_rejected() {
        let alg = NoOpRepair;
        let _ = ShardedOracle::new(&alg).with_batch(0);
    }
}
