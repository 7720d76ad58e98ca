//! Cooperative games.
//!
//! A cooperative game is a pair `(N, v)` of a finite player set and a
//! characteristic function `v : 2^N → ℝ` with `v(∅) = 0` (§2.2 of the
//! paper). T-REx instantiates two such games — players = denial constraints
//! and players = table cells — but the solvers in this crate are generic
//! over the [`Game`] trait (and the [`StochasticGame`] extension used by the
//! random-replacement sampling estimator of Example 2.5).

use rand::RngCore;

/// A set of players, represented as a dynamic bitset. Player counts in the
/// cell game reach thousands, so a fixed `u64` would not do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Coalition {
    n: usize,
    bits: Vec<u64>,
}

impl Coalition {
    /// The empty coalition over `n` players.
    pub fn empty(n: usize) -> Self {
        Coalition {
            n,
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// The grand coalition (all `n` players).
    pub fn full(n: usize) -> Self {
        let mut c = Coalition::empty(n);
        for i in 0..n {
            c.insert(i);
        }
        c
    }

    /// Build from an iterator of player indices.
    pub fn from_players(n: usize, players: impl IntoIterator<Item = usize>) -> Self {
        let mut c = Coalition::empty(n);
        for p in players {
            c.insert(p);
        }
        c
    }

    /// Build from the low bits of a `u64` mask (for enumeration, `n ≤ 64`).
    pub fn from_mask(n: usize, mask: u64) -> Self {
        assert!(n <= 64, "from_mask supports at most 64 players");
        let mut c = Coalition::empty(n);
        c.bits[0] = mask & if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        c
    }

    /// Number of players in the game (not the coalition size).
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Is player `i` in the coalition?
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.n);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// The membership as raw bitmask words — player `i` is bit `i % 64` of
    /// word `i / 64`. Lets hot characteristic functions test membership in
    /// bulk instead of per player.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Remove every player, keeping the allocation (samplers reuse one
    /// coalition across millions of walks).
    #[inline]
    pub fn clear(&mut self) {
        for w in &mut self.bits {
            *w = 0;
        }
    }

    /// Add player `i`. Returns whether it was newly added.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.n);
        let w = &mut self.bits[i / 64];
        let m = 1u64 << (i % 64);
        let added = *w & m == 0;
        *w |= m;
        added
    }

    /// Remove player `i`. Returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.n);
        let w = &mut self.bits[i / 64];
        let m = 1u64 << (i % 64);
        let present = *w & m != 0;
        *w &= !m;
        present
    }

    /// Coalition size `|S|`.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Iterate the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|i| self.contains(*i))
    }

    /// The membership as a `Vec<bool>` (index = player).
    pub fn to_mask_vec(&self) -> Vec<bool> {
        (0..self.n).map(|i| self.contains(i)).collect()
    }
}

/// A deterministic cooperative game.
///
/// `Sync` is a supertrait: the parallel sampling engine ([`crate::parallel`])
/// evaluates one shared game from several permutation workers. Characteristic
/// functions are pure, so this is free for honest implementations; games that
/// memoize internally (e.g. oracle caches) must use thread-safe interior
/// mutability.
pub trait Game: Sync {
    /// Number of players `|N|`.
    fn num_players(&self) -> usize;

    /// The characteristic function `v(S)`. Implementations must satisfy
    /// `v(∅) = 0` for Shapley efficiency to mean what the paper says.
    /// The exact solvers and the stochastic estimators evaluate coalitions
    /// one at a time through this method; permutation walks go through
    /// [`Game::walk_values`], whose default calls it once per prefix.
    fn value(&self, coalition: &Coalition) -> f64;

    /// Evaluate the `n + 1` prefix coalitions of the permutation `perm` (∅,
    /// then one more player at a time) in walk order, into `values`
    /// (cleared first). `prefix` is caller-owned scratch: on return it
    /// holds every player of `perm`.
    ///
    /// Every walk driver of [`crate::sampling`] and [`crate::parallel`]
    /// evaluates its walks through this hook. The default is one
    /// [`Game::value`] call per prefix. A game may override it to carry
    /// state from one prefix to the next, since consecutive prefixes
    /// differ by one player; the override must return exactly the values
    /// the default would, and keep its walk state local to the call so the
    /// game stays `Sync` and every worker walks on its own copy.
    fn walk_values(&self, perm: &[usize], prefix: &mut Coalition, values: &mut Vec<f64>) {
        prefix.clear();
        values.clear();
        values.push(self.value(prefix));
        for &p in perm {
            prefix.insert(p);
            values.push(self.value(prefix));
        }
    }

    /// Optional label for player `i` (used in rankings and reports).
    fn player_label(&self, i: usize) -> String {
        format!("p{i}")
    }
}

/// A game whose evaluation may involve randomness — the random-replacement
/// cell game of Example 2.5, where out-of-coalition cells take draws from
/// their column distributions.
///
/// `eval_pair` evaluates `(v(S ∪ {i}), v(S))` with *common random numbers*:
/// the paper generates one replacement table and toggles only cell `i`
/// between the two instances, which slashes the variance of the marginal
/// estimate. Deterministic games get this for free via the blanket impl.
///
/// `Sync` is a supertrait for the same reason as on [`Game`]: parallel
/// workers share one game and draw from worker-local RNG streams.
pub trait StochasticGame: Sync {
    /// Number of players.
    fn num_players(&self) -> usize;

    /// Evaluate the marginal pair `(v(S ∪ {i}), v(S))` for player `i ∉ S`,
    /// sharing randomness between the two evaluations.
    fn eval_pair(&self, coalition: &Coalition, player: usize, rng: &mut dyn RngCore) -> (f64, f64);

    /// Optional label for player `i`.
    fn player_label(&self, i: usize) -> String {
        format!("p{i}")
    }
}

/// Every deterministic game is trivially a stochastic game (the randomness
/// is unused).
impl<G: Game> StochasticGame for G {
    fn num_players(&self) -> usize {
        Game::num_players(self)
    }

    fn eval_pair(
        &self,
        coalition: &Coalition,
        player: usize,
        _rng: &mut dyn RngCore,
    ) -> (f64, f64) {
        debug_assert!(!coalition.contains(player));
        let without = self.value(coalition);
        let mut with = coalition.clone();
        with.insert(player);
        (self.value(&with), without)
    }

    fn player_label(&self, i: usize) -> String {
        Game::player_label(self, i)
    }
}

/// A game defined by a closure — handy for tests and benchmarks.
pub struct FnGame<F: Fn(&Coalition) -> f64 + Sync> {
    n: usize,
    f: F,
}

impl<F: Fn(&Coalition) -> f64 + Sync> FnGame<F> {
    /// Wrap a closure as a game over `n` players.
    pub fn new(n: usize, f: F) -> Self {
        FnGame { n, f }
    }
}

impl<F: Fn(&Coalition) -> f64 + Sync> Game for FnGame<F> {
    fn num_players(&self) -> usize {
        self.n
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        (self.f)(coalition)
    }
}

/// Textbook games with closed-form Shapley values, used as solver oracles in
/// tests and benches.
pub mod fixtures {
    use super::{Coalition, FnGame};

    /// The unanimity game on carrier `T`: `v(S) = 1` iff `T ⊆ S`.
    /// Shapley: `1/|T|` for members of `T`, `0` otherwise.
    pub fn unanimity(n: usize, carrier: Vec<usize>) -> FnGame<impl Fn(&Coalition) -> f64> {
        FnGame::new(n, move |s| {
            if carrier.iter().all(|p| s.contains(*p)) {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Additive game with weights `w`: `v(S) = Σ_{i∈S} w_i`.
    /// Shapley: exactly `w_i`.
    pub fn additive(weights: Vec<f64>) -> FnGame<impl Fn(&Coalition) -> f64> {
        let n = weights.len();
        FnGame::new(n, move |s| s.iter().map(|i| weights[i]).sum())
    }

    /// Symmetric majority game: `v(S) = 1` iff `|S| > n/2`.
    /// Shapley: `1/n` each, by symmetry + efficiency.
    pub fn majority(n: usize) -> FnGame<impl Fn(&Coalition) -> f64> {
        FnGame::new(n, move |s| if 2 * s.len() > n { 1.0 } else { 0.0 })
    }

    /// The gloves market: players `0..l` hold left gloves, `l..n` right
    /// gloves; `v(S) = min(#left, #right)`.
    pub fn gloves(left: usize, right: usize) -> FnGame<impl Fn(&Coalition) -> f64> {
        let n = left + right;
        FnGame::new(n, move |s| {
            let l = s.iter().filter(|i| *i < left).count();
            let r = s.len() - l;
            l.min(r) as f64
        })
    }

    /// The T-REx constraint game of the paper's Example 2.3, abstractly:
    /// 4 players; `v(S) = 1` iff `{0,1} ⊆ S` or `2 ∈ S`. Player 3 is a
    /// dummy. Shapley: `(1/6, 1/6, 2/3, 0)`.
    pub fn paper_example_2_3() -> FnGame<impl Fn(&Coalition) -> f64> {
        FnGame::new(4, |s| {
            if s.contains(2) || (s.contains(0) && s.contains(1)) {
                1.0
            } else {
                0.0
            }
        })
    }

    /// The one-hot skewed *stochastic* game: player 0's marginal is a fair
    /// ±1 coin flip (unit variance — its adaptive budget runs to the
    /// sample cap, Shapley value 0), every other player is a dummy (zero
    /// variance — stops at the minimum two batches). The canonical
    /// workload for the round stealing of
    /// [`crate::parallel::estimate_all_adaptive`]: one player owning nearly
    /// the whole adaptive budget, which whole-player claiming cannot
    /// balance.
    ///
    /// `work` iterations of integer mixing are burned per evaluation to
    /// emulate the cost of a repair-oracle call (`0` for pure logic
    /// tests; the scaling experiment uses tens of thousands so wall-time
    /// differences are measurable).
    pub fn one_hot(n: usize, work: u64) -> OneHotGame {
        assert!(n >= 1, "need at least the hot player");
        OneHotGame { n, work }
    }

    /// See [`one_hot`].
    pub struct OneHotGame {
        n: usize,
        work: u64,
    }

    impl super::StochasticGame for OneHotGame {
        fn num_players(&self) -> usize {
            self.n
        }

        fn eval_pair(
            &self,
            _coalition: &Coalition,
            player: usize,
            rng: &mut dyn rand::RngCore,
        ) -> (f64, f64) {
            use rand::Rng;
            if self.work > 0 {
                // Deterministic busywork standing in for the black-box
                // repair; the result feeds black_box so the spin cannot
                // be elided.
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ player as u64;
                for i in 0..self.work {
                    x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
                }
                std::hint::black_box(x);
            }
            if player == 0 {
                (if rng.gen_bool(0.5) { 1.0 } else { -1.0 }, 0.0)
            } else {
                (0.0, 0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalition_insert_remove_contains() {
        let mut c = Coalition::empty(130);
        assert!(c.is_empty());
        assert!(c.insert(0));
        assert!(c.insert(64));
        assert!(c.insert(129));
        assert!(!c.insert(64));
        assert_eq!(c.len(), 3);
        assert!(c.contains(129));
        assert!(!c.contains(1));
        assert!(c.remove(64));
        assert!(!c.remove(64));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn coalition_iter_ascending() {
        let c = Coalition::from_players(70, [65, 3, 12]);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![3, 12, 65]);
    }

    #[test]
    fn full_and_mask_roundtrip() {
        let c = Coalition::full(7);
        assert_eq!(c.len(), 7);
        let m = Coalition::from_mask(7, 0b1010101);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 2, 4, 6]);
        assert_eq!(
            m.to_mask_vec(),
            vec![true, false, true, false, true, false, true]
        );
    }

    #[test]
    fn from_mask_truncates_to_n() {
        let c = Coalition::from_mask(3, u64::MAX);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn fn_game_evaluates() {
        let g = FnGame::new(3, |s: &Coalition| s.len() as f64);
        assert_eq!(Game::num_players(&g), 3);
        assert_eq!(g.value(&Coalition::from_players(3, [0, 2])), 2.0);
        assert_eq!(g.value(&Coalition::empty(3)), 0.0);
    }

    #[test]
    fn blanket_stochastic_impl_computes_marginals() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = fixtures::unanimity(3, vec![0, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let s = Coalition::from_players(3, [1]);
        let (with, without) = StochasticGame::eval_pair(&g, &s, 0, &mut rng);
        assert_eq!((with, without), (1.0, 0.0));
    }

    #[test]
    fn fixture_values() {
        let u = fixtures::unanimity(4, vec![1, 2]);
        assert_eq!(u.value(&Coalition::from_players(4, [1, 2, 3])), 1.0);
        assert_eq!(u.value(&Coalition::from_players(4, [1, 3])), 0.0);

        let a = fixtures::additive(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.value(&Coalition::from_players(3, [0, 2])), 4.0);

        let m = fixtures::majority(5);
        assert_eq!(m.value(&Coalition::from_players(5, [0, 1])), 0.0);
        assert_eq!(m.value(&Coalition::from_players(5, [0, 1, 2])), 1.0);

        let g = fixtures::gloves(1, 2);
        assert_eq!(g.value(&Coalition::from_players(3, [1, 2])), 0.0);
        assert_eq!(g.value(&Coalition::from_players(3, [0, 1])), 1.0);

        let p = fixtures::paper_example_2_3();
        assert_eq!(p.value(&Coalition::from_players(4, [2])), 1.0);
        assert_eq!(p.value(&Coalition::from_players(4, [0, 1])), 1.0);
        assert_eq!(p.value(&Coalition::from_players(4, [0, 3])), 0.0);
        assert_eq!(p.value(&Coalition::empty(4)), 0.0);
    }
}
