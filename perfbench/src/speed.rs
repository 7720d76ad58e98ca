//! The machine-speed reference every gated time is scaled by.
//!
//! On a virtual machine whose host is shared, the speed of a core moves by
//! a fifth between runs of a few tens of seconds, on the process CPU clock
//! too, and a slow or fast stretch slows or speeds up every operation of a
//! run together. So every run also times a fixed kernel of the benchmark's
//! own between its operations, and reports each gated time scaled to the
//! speed at which that kernel takes [`REFERENCE_MS`]: measured ×
//! `REFERENCE_MS` / (the kernel's median time in this run). In ten
//! 35-second `loop-soccer2k` runs on a 2-vCPU box during such a stretch,
//! the quartiles of the per-run CPU medians of `edit` lay 38% of their
//! median apart, and those of the scaled medians 4.1%; `serve-soccer2k`'s
//! in-process operations follow the kernel less closely. The kernel does
//! what the program mostly does (it allocates strings and rows, hashes,
//! copies and sorts), because a pure arithmetic loop did not follow the
//! drift. It uses only the standard library and a fixed hash seed, so no
//! change to the program can change its work. Unscaled CPU and wall-clock
//! times are printed beside the scaled ones.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;

use crate::clock::Stopwatch;
use crate::steps::Run;

/// What the kernel takes at the reference speed: about its median on that
/// 2-vCPU box in a slow stretch, so scaled times read close to measured ones.
pub const REFERENCE_MS: f64 = 8.0;
/// Rows the kernel builds.
const ROWS: u64 = 6000;
/// Operation kind the kernel's times are recorded under.
pub const KERNEL: &str = "speed_kernel";

/// The kernel: build a keyed table of strings, index it in a hash map,
/// copy it, and sort and look up its keys. Returns how many lookups hit
/// (all of them).
fn kernel() -> usize {
    let mut index: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for i in 0..ROWS {
        let key = format!("team-{}-{}", i % 977, i * 7919 % 10007);
        *index.entry(key.clone()).or_default() += i;
        rows.push(vec![key, format!("{}", i * 31), format!("x{}", i % 13)]);
    }
    let copy = rows.clone();
    let mut keys: Vec<&String> = copy.iter().map(|r| &r[0]).collect();
    keys.sort();
    keys.iter()
        .filter(|k| index.contains_key(k.as_str()))
        .count()
}

/// Time the kernel `reps` times (process CPU clock) into `run`; returns
/// the CPU seconds spent, which a throughput leaves out.
pub fn sample(run: &Run, reps: usize) -> f64 {
    let mut cpu_ms = 0.0;
    for _ in 0..reps {
        let watch = Stopwatch::start();
        let hits = black_box(kernel());
        let lap = watch.lap();
        run.record(KERNEL, lap, hits == ROWS as usize);
        cpu_ms += lap.cpu_ms;
    }
    cpu_ms / 1e3
}

/// `REFERENCE_MS` / the kernel's median time: what a time measured in this
/// run is multiplied by (a rate is divided by it). `None` when the kernel
/// never ran.
pub fn scale(run: &Run) -> Option<f64> {
    let kernel_ms = crate::stats::summarize(&run.samples(KERNEL))?.p50;
    Some(REFERENCE_MS / kernel_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(), ROWS as usize);
        assert_eq!(kernel(), kernel());
    }
}
