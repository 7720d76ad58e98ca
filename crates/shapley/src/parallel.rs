//! Deterministic multi-threaded Shapley sampling.
//!
//! The paper's bottleneck is the Monte-Carlo cell game of §2.3: every
//! permutation sample queries the black-box repair oracle, and tables have
//! *many* cells. Each driver here spreads one serial estimator of
//! [`crate::sampling`] over [`std::thread::scope`] workers under one
//! **determinism contract**: the output is the serial estimator's, bit for
//! bit, at every thread count. `threads` changes wall time only, and
//! `threads = 1` runs the serial function inline without spawning.
//!
//! | driver | serial reference | unit of work |
//! |---|---|---|
//! | [`estimate_all`] | [`crate::sampling::estimate_all`] | one player |
//! | [`estimate_all_walk`] | [`crate::sampling::estimate_all_walk`] | a block of walks |
//! | [`estimate_all_walk_anytime`] | the same, checkpointed between rounds | a block of walks |
//! | [`estimate_all_adaptive`] | [`crate::sampling::estimate_player_adaptive_rounds`] per player | one player, then stolen rounds |
//!
//! Each unit is a pure function of the serial stream (a player's laddered
//! seed, a contiguous slice of the walk stream, or a round's laddered
//! seed), and results fold back in serial order, so scheduling never
//! reaches the output.
//!
//! Games must be [`Sync`]: workers share one `&G`. The coalition games of
//! the T-REx core hold their oracle cache in a sharded mutex map
//! (`trex_repair::ShardedOracle`), so concurrent workers also share cache
//! hits — and, since every driver issues exactly the serial estimator's
//! coalition queries, the oracle's hit/miss counters match a serial run on
//! a fresh cache too.

use crate::convergence::RunningStats;
use crate::game::{Game, StochasticGame};
use crate::sampling::{
    adaptive_round, adaptive_stop, fold_walk, player_seed, random_permutation_into, walk_once,
    Estimate, SamplingConfig, WalkScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on an explicit thread count. Far above any machine this
/// workload meaningfully scales to; requests beyond it are almost certainly
/// typos (`--threads 100000`) and are rejected instead of spawning workers
/// until the OS gives up.
pub const MAX_THREADS: usize = 1024;

/// Error for nonsensical thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsError {
    /// The rejected request.
    pub requested: usize,
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--threads {} exceeds the supported maximum of {MAX_THREADS} \
             (use 0 for available parallelism)",
            self.requested
        )
    }
}

impl std::error::Error for ThreadsError {}

/// Number of hardware threads, with a serial fallback when the platform
/// cannot say.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a user-requested thread count: `0` means "use available
/// parallelism", `1..=MAX_THREADS` is taken literally, anything larger is a
/// [`ThreadsError`].
pub fn resolve_threads(requested: usize) -> Result<usize, ThreadsError> {
    match requested {
        0 => Ok(available_threads()),
        n if n <= MAX_THREADS => Ok(n),
        n => Err(ThreadsError { requested: n }),
    }
}

/// Configuration of the parallel estimators: a [`SamplingConfig`] plus a
/// resolved worker count.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Monte-Carlo samples, exactly as in [`SamplingConfig::samples`]
    /// (per player, or permutation walks for [`estimate_all_walk`]).
    pub samples: usize,
    /// Base RNG seed, exactly as in [`SamplingConfig::seed`].
    pub seed: u64,
    /// Worker count (must be ≥ 1; see [`resolve_threads`]).
    pub threads: usize,
}

impl ParallelConfig {
    /// Build from explicit values.
    pub fn new(samples: usize, seed: u64, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be >= 1 (resolve 0 first)");
        ParallelConfig {
            samples,
            seed,
            threads,
        }
    }

    /// Lift a serial [`SamplingConfig`] onto `threads` workers.
    pub fn from_sampling(config: SamplingConfig, threads: usize) -> Self {
        Self::new(config.samples, config.seed, threads)
    }

    /// The serial view of this configuration (same samples and seed).
    pub fn sampling(&self) -> SamplingConfig {
        SamplingConfig {
            samples: self.samples,
            seed: self.seed,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            samples: 1000,
            seed: 0,
            threads: 1,
        }
    }
}

/// Run `work(p)` for every player `0..n` on `threads` workers claiming
/// players from an atomic queue, and return the results in player order.
///
/// The claim order is scheduling-dependent, but each player's result is a
/// pure function of its index, so the returned vector is not.
/// `threads = 1` (or a single player) runs inline without spawning.
fn run_player_sharded<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let claimed = std::thread::scope(|scope| {
        let next = &next;
        let work = &work;
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let p = next.fetch_add(1, Ordering::Relaxed);
                        if p >= n {
                            break;
                        }
                        out.push((p, work(p)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sampling worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (p, result) in claimed.into_iter().flatten() {
        debug_assert!(slots[p].is_none(), "player {p} claimed twice");
        slots[p] = Some(result);
    }
    slots
        .into_iter()
        .map(|s| s.expect("the atomic queue claims every player exactly once"))
        .collect()
}

/// Parallel [`crate::sampling::estimate_all`]: workers claim whole players
/// and run the serial per-player loop with that player's
/// [`player_seed`], so each player's statistics are one worker's
/// sequential pushes from the serial stream.
pub fn estimate_all<G: StochasticGame + ?Sized>(game: &G, config: ParallelConfig) -> Vec<Estimate> {
    assert!(config.threads >= 1, "threads must be >= 1");
    if config.threads == 1 {
        return crate::sampling::estimate_all(game, config.sampling());
    }
    run_player_sharded(game.num_players(), config.threads, |p| {
        crate::sampling::estimate_player(
            game,
            p,
            SamplingConfig {
                samples: config.samples,
                seed: player_seed(config.seed, p),
            },
        )
    })
}

/// Permutation walks per claim of the walk driver: a worker draws this
/// many consecutive permutations of the serial stream under one lock, then
/// evaluates them lock-free. Small enough that a few hundred walks still
/// split across many workers, large enough that claims stay rare next to
/// the `n + 1` oracle queries of every walk.
const WALK_BLOCK: usize = 8;

/// One claimed block of the walk stream: its permutations, in stream
/// order, and each walk's `n + 1` prefix values once evaluated.
type WalkBlock = Vec<(Vec<usize>, Vec<f64>)>;

/// Advance the serial walk stream `rng` by `walks` permutation walks,
/// folding every marginal into `stats` exactly as
/// [`crate::sampling::estimate_all_walk`] does.
///
/// The walks are cut into [`WALK_BLOCK`]-sized blocks that workers claim
/// in stream order. A claim draws the block's permutations from the shared
/// `rng` — the only serial step — and the worker then evaluates each
/// walk's `n + 1` prefix coalitions once, without holding any lock.
/// Finished blocks fold into `stats` in block order (a block that finishes
/// early waits in `pending` for its predecessors), so every player sees
/// the serial pushes in the serial order. With one worker (or one block)
/// this is the serial loop, run inline.
fn run_walks<G: Game + ?Sized>(
    game: &G,
    rng: &mut StdRng,
    stats: &mut [RunningStats],
    walks: usize,
    threads: usize,
) {
    let n = game.num_players();
    let blocks = walks.div_ceil(WALK_BLOCK);
    let workers = threads.min(blocks);
    if workers <= 1 {
        let mut perm = Vec::with_capacity(n);
        let mut scratch = WalkScratch::new(n);
        for _ in 0..walks {
            walk_once(game, rng, stats, &mut perm, &mut scratch);
        }
        return;
    }
    struct Fold<'s> {
        stats: &'s mut [RunningStats],
        next: usize,
        pending: BTreeMap<usize, WalkBlock>,
    }
    let claims = Mutex::new((rng, 0usize));
    let fold = Mutex::new(Fold {
        stats,
        next: 0,
        pending: BTreeMap::new(),
    });
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = WalkScratch::new(n);
                loop {
                    let (b, perms) = {
                        let mut claim = claims.lock().expect("walk claim lock poisoned");
                        let (rng, next) = &mut *claim;
                        let b = *next;
                        if b >= blocks {
                            break;
                        }
                        *next += 1;
                        let len = WALK_BLOCK.min(walks - b * WALK_BLOCK);
                        let perms: Vec<Vec<usize>> = (0..len)
                            .map(|_| {
                                let mut perm = Vec::with_capacity(n);
                                random_permutation_into(&mut perm, n, &mut **rng);
                                perm
                            })
                            .collect();
                        (b, perms)
                    };
                    let block: WalkBlock = perms
                        .into_iter()
                        .map(|perm| {
                            let values = scratch.prefix_values(game, &perm).to_vec();
                            (perm, values)
                        })
                        .collect();
                    let mut fold = fold.lock().expect("walk fold lock poisoned");
                    let fold = &mut *fold;
                    fold.pending.insert(b, block);
                    while let Some(block) = fold.pending.remove(&fold.next) {
                        for (perm, values) in &block {
                            fold_walk(fold.stats, perm, values);
                        }
                        fold.next += 1;
                    }
                }
            });
        }
    });
}

/// Parallel [`crate::sampling::estimate_all_walk`] (the Castro-style
/// all-players estimator): `config.samples` permutation walks, each giving
/// every player one marginal at `n + 1` evaluations, spread over workers
/// in blocks of the one serial permutation stream (see [`run_walks`]).
/// Per walk the marginals telescope to `v(N) − v(∅)`, so the efficiency
/// axiom holds exactly, as in the serial estimator.
pub fn estimate_all_walk<G: Game + ?Sized>(game: &G, config: ParallelConfig) -> Vec<Estimate> {
    assert!(config.threads >= 1, "threads must be >= 1");
    if config.threads == 1 {
        return crate::sampling::estimate_all_walk(game, config.sampling());
    }
    estimate_all_walk_anytime(game, config, 0, |_| AnytimeControl::Continue).0
}

/// One snapshot of a running [`estimate_all_walk_anytime`] estimate,
/// handed to the checkpoint callback between sampling rounds.
///
/// `estimates` is index-aligned with the game's players and carries the
/// exact values a completed run of `completed` walks would report —
/// including finite (possibly 0.0) standard deviations at degenerate
/// counts, so a checkpoint can always be serialized.
pub struct AnytimeCheckpoint<'s> {
    /// Permutation walks folded so far.
    pub completed: usize,
    /// The full walk budget of the run (`config.samples`).
    pub total: usize,
    /// Current per-player estimates, in player order.
    pub estimates: &'s [Estimate],
}

/// What the checkpoint callback tells the anytime driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnytimeControl {
    /// Keep sampling toward the full budget.
    Continue,
    /// Stop after this checkpoint and return the current estimates —
    /// deadline exhausted, client gone, or the caller is satisfied.
    Stop,
}

/// Anytime version of [`estimate_all_walk`]: the same walk stream, run in
/// rounds of `checkpoint_every` walks with an [`AnytimeCheckpoint`]
/// snapshot of all current per-player estimates after each round. The
/// callback returns [`AnytimeControl::Stop`] to cut the run short
/// (deadline, disconnect); the driver then returns whatever it has. The
/// second return value is `true` iff the full budget ran.
///
/// **Determinism contract.** Rounds continue one serial stream, so the
/// snapshot after `k` walks is bit for bit a completed
/// [`estimate_all_walk`] run with budget `k` — the final one included — at
/// any thread count.
///
/// `checkpoint_every = 0` means a single checkpoint at the end.
/// Cancellation granularity is the checkpoint: the callback runs between
/// rounds, on the calling thread (it needs no `Send`/`Sync`).
pub fn estimate_all_walk_anytime<G: Game + ?Sized>(
    game: &G,
    config: ParallelConfig,
    checkpoint_every: usize,
    mut on_checkpoint: impl FnMut(&AnytimeCheckpoint<'_>) -> AnytimeControl,
) -> (Vec<Estimate>, bool) {
    assert!(config.threads >= 1, "threads must be >= 1");
    let every = if checkpoint_every == 0 {
        config.samples.max(1)
    } else {
        checkpoint_every
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stats = vec![RunningStats::new(); game.num_players()];
    let mut done = 0;
    loop {
        let len = every.min(config.samples - done);
        run_walks(game, &mut rng, &mut stats, len, config.threads);
        done += len;
        let estimates: Vec<Estimate> = stats.iter().map(RunningStats::estimate).collect();
        let finished = done >= config.samples;
        let control = on_checkpoint(&AnytimeCheckpoint {
            completed: done,
            total: config.samples,
            estimates: &estimates,
        });
        if finished || control == AnytimeControl::Stop {
            return (estimates, finished);
        }
    }
}

/// Fold state of one player of [`estimate_all_adaptive`]. Rounds complete
/// in arbitrary order (any worker may have computed any round); `pending`
/// buffers out-of-order rounds and `folded` is always the merge of rounds
/// `0..next_fold` *in round order* — the stopping rule only ever sees these
/// contiguous prefixes, which is what makes the decision, and therefore the
/// result, independent of scheduling.
struct StealProgress {
    pending: BTreeMap<usize, RunningStats>,
    folded: RunningStats,
    next_fold: usize,
    done: Option<(Estimate, bool)>,
}

/// Shared per-player coordination of [`estimate_all_adaptive`].
struct StealSlot {
    /// Next unclaimed round index (claimed with `fetch_add`; claims past
    /// the round cap or after `finished` do no work).
    next_round: AtomicUsize,
    /// Fast-path flag mirroring `progress.done.is_some()`.
    finished: AtomicBool,
    progress: Mutex<StealProgress>,
}

impl StealSlot {
    fn new() -> Self {
        StealSlot {
            next_round: AtomicUsize::new(0),
            finished: AtomicBool::new(false),
            progress: Mutex::new(StealProgress {
                pending: BTreeMap::new(),
                folded: RunningStats::new(),
                next_fold: 0,
                done: None,
            }),
        }
    }
}

/// All-player adaptive driver: every player runs
/// [`crate::sampling::estimate_player_adaptive_rounds`] with its
/// [`player_seed`] (the ladder of [`crate::sampling::estimate_all`]).
/// Returns one `(estimate, converged)` pair per player.
///
/// Workers claim whole players from an atomic queue, and a worker that
/// drains the queue *steals unclaimed rounds* of still-unfinished players,
/// so one expensive player's budget spreads across every idle core.
/// Adaptive budgets are uneven — dummies stop after two batches, contested
/// cells run to the cap — and stealing keeps one hot player from pinning
/// wall time to a single core.
///
/// Rounds are pure functions of `(player_seed, round)`, they fold in round
/// order, and the stopping rule runs on each folded prefix exactly as the
/// serial loop runs it, so the output is bit-identical to the serial loop
/// at any thread count. Rounds computed past the deterministic stopping
/// round are discarded — bounded speculation (at most one in-flight round
/// per worker plus the claims issued before the finished flag was
/// observed), the price of letting workers run ahead without a barrier.
pub fn estimate_all_adaptive<G: StochasticGame + ?Sized>(
    game: &G,
    tolerance: f64,
    z: f64,
    batch: usize,
    max_samples: usize,
    seed: u64,
    threads: usize,
) -> Vec<(Estimate, bool)> {
    let n = game.num_players();
    assert!(threads >= 1, "threads must be >= 1");
    assert!(batch > 0, "batch must be positive");
    if threads == 1 || n <= 1 {
        return (0..n)
            .map(|p| {
                crate::sampling::estimate_player_adaptive_rounds(
                    game,
                    p,
                    tolerance,
                    z,
                    batch,
                    max_samples,
                    player_seed(seed, p),
                )
            })
            .collect();
    }
    // The serial loop stops, converged or not, by the time the sample count
    // reaches `max_samples` — i.e. within ceil(max_samples / batch) rounds
    // (and it always runs at least one round). Claims past this cap can
    // never be folded, so they are refused instead of computed.
    let max_rounds = max_samples.div_ceil(batch).max(1);
    let slots: Vec<StealSlot> = (0..n).map(|_| StealSlot::new()).collect();
    let next_player = AtomicUsize::new(0);
    let finished_players = AtomicUsize::new(0);

    // Claim and compute one round of player `p`; fold it and evaluate the
    // stopping rule on every newly contiguous prefix. Returns false when
    // the player needs no further work from this worker (finished, or all
    // claimable rounds already handed out).
    let try_round = |p: usize| -> bool {
        let slot = &slots[p];
        if slot.finished.load(Ordering::Acquire) {
            return false;
        }
        let round = slot.next_round.fetch_add(1, Ordering::Relaxed);
        if round >= max_rounds {
            return false;
        }
        let stats = adaptive_round(game, p, batch, player_seed(seed, p), round);
        let mut prog = slot.progress.lock().expect("steal slot poisoned");
        if prog.done.is_some() {
            return false; // speculative overshoot — discard
        }
        prog.pending.insert(round, stats);
        while let Some(stats) = {
            let next = prog.next_fold;
            prog.pending.remove(&next)
        } {
            prog.folded.merge(&stats);
            prog.next_fold += 1;
            if let Some(done) = adaptive_stop(&prog.folded, tolerance, z, batch, max_samples) {
                prog.done = Some(done);
                prog.pending.clear();
                slot.finished.store(true, Ordering::Release);
                finished_players.fetch_add(1, Ordering::AcqRel);
                return false;
            }
        }
        true
    };

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                // Phase 1: own whole players from the queue.
                loop {
                    let p = next_player.fetch_add(1, Ordering::Relaxed);
                    if p >= n {
                        break;
                    }
                    while try_round(p) {}
                }
                // Phase 2: the queue is drained — steal rounds from
                // whichever players are still running.
                while finished_players.load(Ordering::Acquire) < n {
                    let mut worked = false;
                    for p in 0..n {
                        if try_round(p) {
                            worked = true;
                        }
                    }
                    if !worked {
                        // Every remaining round is in flight on some other
                        // worker; don't spin the lock.
                        std::thread::yield_now();
                    }
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.progress
                .into_inner()
                .expect("steal slot poisoned")
                .done
                .expect("every player reaches a stopping decision")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::shapley_exact;
    use crate::game::fixtures;
    use crate::sampling;

    /// The thread counts every contract test sweeps.
    const THREADS: [usize; 6] = [1, 2, 3, 4, 8, 16];

    #[test]
    fn estimate_all_is_serial_at_any_thread_count() {
        let g = fixtures::majority(9);
        let cfg = SamplingConfig {
            samples: 150,
            seed: 13,
        };
        let serial = sampling::estimate_all(&g, cfg);
        for threads in THREADS {
            let par = estimate_all(&g, ParallelConfig::from_sampling(cfg, threads));
            assert_eq!(serial, par, "threads {threads}");
        }
    }

    #[test]
    fn walk_is_serial_at_any_thread_count() {
        // Every budget shape: none, below one block, exactly one block, one
        // walk past it, and a ragged tail after several whole blocks.
        let g = fixtures::paper_example_2_3();
        for samples in [0usize, 5, WALK_BLOCK, WALK_BLOCK + 1, 100] {
            let cfg = SamplingConfig { samples, seed: 17 };
            let serial = sampling::estimate_all_walk(&g, cfg);
            for threads in THREADS {
                let par = estimate_all_walk(&g, ParallelConfig::from_sampling(cfg, threads));
                assert_eq!(serial, par, "samples {samples}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_walk_is_exactly_efficient() {
        // Walk marginals telescope to v(N), so the means sum to it (up to
        // fp noise) and every walk touches every player.
        let g = fixtures::gloves(3, 4);
        for threads in THREADS {
            let ests = estimate_all_walk(&g, ParallelConfig::new(400, 21, threads));
            let total: f64 = ests.iter().map(|e| e.value).sum();
            assert!(
                (total - 3.0).abs() < 1e-9,
                "threads {threads}: total {total}"
            );
            assert!(ests.iter().all(|e| e.samples == 400));
        }
    }

    #[test]
    fn multi_thread_estimates_converge_to_exact() {
        let g = fixtures::gloves(2, 3);
        let exact = shapley_exact(&g).unwrap();
        let ests = estimate_all(&g, ParallelConfig::new(20_000, 11, 4));
        for (p, want) in exact.iter().enumerate() {
            assert!(
                (ests[p].value - want).abs() < 0.02,
                "player {p}: {} vs {want}",
                ests[p].value
            );
        }
    }

    #[test]
    fn resolve_threads_contract() {
        assert!(resolve_threads(0).unwrap() >= 1);
        assert_eq!(resolve_threads(1), Ok(1));
        assert_eq!(resolve_threads(MAX_THREADS), Ok(MAX_THREADS));
        let err = resolve_threads(MAX_THREADS + 1).unwrap_err();
        assert_eq!(err.requested, MAX_THREADS + 1);
        assert!(err.to_string().contains("1024"));
    }

    #[test]
    fn config_conversions_roundtrip() {
        let s = SamplingConfig {
            samples: 250,
            seed: 9,
        };
        let p = ParallelConfig::from_sampling(s, 4);
        assert_eq!(p.threads, 4);
        let back = p.sampling();
        assert_eq!(back.samples, 250);
        assert_eq!(back.seed, 9);
        assert_eq!(ParallelConfig::default().threads, 1);
    }

    #[test]
    #[should_panic(expected = "threads must be >= 1")]
    fn zero_threads_panics() {
        let _ = ParallelConfig::new(10, 0, 0);
    }

    /// The serial reference of [`estimate_all_adaptive`]: the round-laddered
    /// estimator per player under the [`player_seed`] ladder.
    fn serial_adaptive<G: StochasticGame + ?Sized>(
        g: &G,
        (tol, z, batch, cap, seed): (f64, f64, usize, usize, u64),
    ) -> Vec<(Estimate, bool)> {
        (0..g.num_players())
            .map(|p| {
                sampling::estimate_player_adaptive_rounds(
                    g,
                    p,
                    tol,
                    z,
                    batch,
                    cap,
                    player_seed(seed, p),
                )
            })
            .collect()
    }

    #[test]
    fn adaptive_matches_the_serial_round_ladder_on_the_skewed_fixture() {
        // One-hot: player 0's ±1 marginals (unit variance) need ~4300
        // samples for a 0.03 half-width, so it runs to the 2000-sample cap
        // while every dummy stops at two batches — the shape round
        // stealing exists for.
        let g = fixtures::one_hot(9, 0);
        let knobs = (0.03, 1.96, 25, 2000, 7);
        let serial = serial_adaptive(&g, knobs);
        assert!(!serial[0].1);
        assert_eq!(serial[0].0.samples, 2000);
        assert!(serial[1].1);
        assert_eq!(serial[1].0.samples, 50);
        let (tol, z, batch, cap, seed) = knobs;
        for threads in THREADS {
            let par = estimate_all_adaptive(&g, tol, z, batch, cap, seed, threads);
            assert_eq!(serial, par, "threads {threads}");
        }
    }

    #[test]
    fn adaptive_matches_the_serial_round_ladder_on_gloves() {
        let g = fixtures::gloves(3, 4);
        let knobs = (0.08, 1.96, 30, 1500, 3);
        let serial = serial_adaptive(&g, knobs);
        let (tol, z, batch, cap, seed) = knobs;
        for threads in THREADS {
            let par = estimate_all_adaptive(&g, tol, z, batch, cap, seed, threads);
            assert_eq!(serial, par, "threads {threads}");
        }
    }

    #[test]
    fn adaptive_caps_in_whole_rounds() {
        let g = fixtures::one_hot(3, 0);
        for threads in THREADS {
            let out = estimate_all_adaptive(&g, 1e-12, 1.96, 10, 95, 5, threads);
            // ceil(95 / 10) = 10 rounds → exactly 100 samples at the cap.
            assert_eq!(out[0].0.samples, 100, "threads {threads}");
            assert!(!out[0].1);
        }
    }

    #[test]
    fn adaptive_converges_to_exact_values() {
        let g = fixtures::gloves(2, 3);
        let exact = shapley_exact(&g).unwrap();
        let out = estimate_all_adaptive(&g, 0.02, 1.96, 200, 100_000, 11, 4);
        for (p, want) in exact.iter().enumerate() {
            assert!(
                (out[p].0.value - want).abs() < 0.05,
                "player {p}: {} vs {want}",
                out[p].0.value
            );
        }
    }

    #[test]
    fn run_player_sharded_covers_every_player_once() {
        for (n, threads) in [(0usize, 4usize), (1, 4), (5, 2), (9, 16), (100, 7)] {
            let got = run_player_sharded(n, threads, |p| p * p);
            let want: Vec<usize> = (0..n).map(|p| p * p).collect();
            assert_eq!(got, want, "n {n}, threads {threads}");
        }
    }

    #[test]
    fn every_anytime_checkpoint_is_a_completed_run_of_its_budget() {
        let g = fixtures::gloves(3, 4);
        for threads in THREADS {
            let cfg = ParallelConfig::new(70, 99, threads);
            let mut checkpoints = Vec::new();
            let (last, finished) = estimate_all_walk_anytime(&g, cfg, 17, |cp| {
                assert_eq!(cp.total, 70);
                checkpoints.push((cp.completed, cp.estimates.to_vec()));
                AnytimeControl::Continue
            });
            assert!(finished, "t{threads}: full budget must run");
            let completed: Vec<usize> = checkpoints.iter().map(|(c, _)| *c).collect();
            assert_eq!(completed, [17, 34, 51, 68, 70], "t{threads}");
            for (budget, estimates) in &checkpoints {
                let run = estimate_all_walk(&g, ParallelConfig::new(*budget, 99, threads));
                assert_eq!(*estimates, run, "t{threads}: checkpoint at {budget}");
            }
            assert_eq!(last, checkpoints.last().unwrap().1);
        }
    }

    #[test]
    fn anytime_stop_returns_the_partial_estimate() {
        let g = fixtures::gloves(3, 4);
        let mut seen = 0;
        let (partial, finished) =
            estimate_all_walk_anytime(&g, ParallelConfig::new(500, 5, 2), 20, |cp| {
                seen = cp.completed;
                AnytimeControl::Stop
            });
        assert!(!finished, "stopping early must report an unfinished run");
        assert_eq!(seen, 20, "stopped at the first checkpoint");
        let small = estimate_all_walk(&g, ParallelConfig::new(20, 5, 1));
        assert_eq!(partial, small);
    }

    #[test]
    fn anytime_zero_budget_checkpoints_once_and_finishes() {
        let g = fixtures::gloves(2, 2);
        let mut checkpoints = 0;
        let (out, finished) =
            estimate_all_walk_anytime(&g, ParallelConfig::new(0, 1, 2), 10, |cp| {
                checkpoints += 1;
                assert_eq!(cp.completed, 0);
                for e in cp.estimates {
                    assert_eq!(e.samples, 0);
                    assert!(e.value.is_finite() && e.std_dev.is_finite());
                }
                AnytimeControl::Continue
            });
        assert!(finished);
        assert_eq!(checkpoints, 1);
        assert!(out.iter().all(|e| e.samples == 0));
    }
}
