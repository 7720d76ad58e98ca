//! One execution-configuration surface for every layer.
//!
//! Threads, oracle capacity, and seed used to be scattered across
//! `Session` setters, `Explainer` builders, per-engine `with_threads`
//! methods, and three copies of CLI flag parsing. [`ExecConfig`] is the one
//! value they all accept now: build it once, hand it to
//! `Session::with_config` / `Explainer::with_config` / an engine's
//! `with_exec`, and every layer reads the same knobs.

/// Execution knobs shared by sessions, explainers, repair engines, and the
/// CLI: worker count, oracle cache bound, and sampling seed.
///
/// A plain-old-data builder: all `with_*` methods consume and return the
/// config, unset options mean "use the layer's default".
///
/// ```
/// use trex_shapley::ExecConfig;
/// let cfg = ExecConfig::new()
///     .with_threads(4)
///     .with_oracle_cap(1 << 16)
///     .with_seed(42);
/// assert_eq!(cfg.threads(), 4);
/// assert_eq!(cfg.oracle_cap(), Some(1 << 16));
/// assert_eq!(cfg.seed(), Some(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
    oracle_cap: Option<usize>,
    seed: Option<u64>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            oracle_cap: None,
            seed: None,
        }
    }
}

impl ExecConfig {
    /// The default configuration: 1 thread, the default oracle capacity,
    /// layer-default seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker thread count. Sampling output is the serial
    /// estimate at every count; threads change wall time only.
    ///
    /// # Panics
    /// Panics if `threads == 0`; resolve "all cores" to a concrete count
    /// first (the CLI maps `--threads 0` to the hardware thread count).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be >= 1 (resolve 0 first)");
        self.threads = threads;
        self
    }

    /// Bound the repair-oracle cache to `cap` entries (default:
    /// `trex_repair::ShardedOracle::DEFAULT_CAPACITY`, 2^20 entries). `0`
    /// disables caching. The capacity sizes the cache its owner builds —
    /// a session's, or an explainer's own — and never changes an answer.
    pub fn with_oracle_cap(mut self, cap: usize) -> Self {
        self.oracle_cap = Some(cap);
        self
    }

    /// Set the sampling seed (default: each layer's documented default).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Worker thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Oracle cache bound in entries, or `None` for the default capacity
    /// (2^20 entries).
    pub fn oracle_cap(&self) -> Option<usize> {
        self.oracle_cap
    }

    /// Sampling seed, or `None` for the layer default.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }
}

/// Build an [`ExecConfig`] from string-valued execution knobs — the single
/// validation path shared by the CLI flags and the server's per-request
/// query parameters.
///
/// `get(name)` looks up the raw value of knob `name` (`None` when absent);
/// recognized names are `threads`, `oracle-cap`, and `seed`. A server
/// request may set only `threads` and `seed`: the served session's cache is
/// sized once, so the server rejects `oracle-cap` as an unknown parameter
/// before it calls this. Validation and error wording are the contract
/// here: `threads` absent or `0` resolves to the available parallelism via
/// [`crate::parallel::resolve_threads`] (absurd counts keep the offending
/// value and the cap in the message). Callers surface the returned message
/// verbatim, so a bad `?threads=999999` on the server reads exactly like a
/// bad `--threads 999999` on the CLI.
pub fn exec_config_from_knobs<'v>(
    get: impl Fn(&str) -> Option<&'v str>,
) -> Result<ExecConfig, String> {
    let requested: usize = match get("threads") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--threads: cannot parse {v:?}"))?,
    };
    let threads = crate::parallel::resolve_threads(requested).map_err(|e| e.to_string())?;
    let mut cfg = ExecConfig::new().with_threads(threads);
    if let Some(v) = get("oracle-cap") {
        let cap = v
            .parse::<usize>()
            .map_err(|_| format!("--oracle-cap: cannot parse {v:?}"))?;
        cfg = cfg.with_oracle_cap(cap);
    }
    if let Some(v) = get("seed") {
        let seed = v
            .parse::<u64>()
            .map_err(|_| format!("--seed: cannot parse {v:?}"))?;
        cfg = cfg.with_seed(seed);
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_serial_and_unset() {
        let cfg = ExecConfig::new();
        assert_eq!(cfg.threads(), 1);
        assert_eq!(cfg.oracle_cap(), None);
        assert_eq!(cfg.seed(), None);
        assert_eq!(cfg, ExecConfig::default());
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = ExecConfig::new()
            .with_threads(8)
            .with_oracle_cap(0)
            .with_seed(7);
        assert_eq!(cfg.threads(), 8);
        assert_eq!(cfg.oracle_cap(), Some(0));
        assert_eq!(cfg.seed(), Some(7));
    }

    #[test]
    #[should_panic(expected = "threads must be >= 1")]
    fn zero_threads_panics() {
        let _ = ExecConfig::new().with_threads(0);
    }
}
