//! End-to-end contracts of the batched oracle layer, exercised through the
//! public `Session`/`Explainer` surface rather than the `ShardedOracle`
//! unit tests:
//!
//! * batched answers are byte-identical to the unbatched path at 1/2/4/8
//!   threads, for both the exact constraint solver and the sampled masked
//!   cell game;
//! * `OracleStats` is scheduling-independent — the same counters at every
//!   batch size and thread count;
//! * a zero-latency `MockRemoteRepair` backend reproduces the inline path
//!   exactly, and single-flight dedup holds through the full game path
//!   (the remote answers each distinct coalition exactly once);
//! * the parallel walk driver stays bit-identical to serial while its
//!   coalition values flow through batches.

use std::time::Duration;
use trex::{ExecConfig, Explainer, MaskMode, Session};
use trex_datagen::laliga;
use trex_repair::MockRemoteRepair;
use trex_shapley::SamplingConfig;

fn session(cfg: ExecConfig) -> Session {
    Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    )
    .with_config(cfg)
}

#[test]
fn batched_answers_are_byte_identical_to_unbatched_at_any_thread_count() {
    let sampling = SamplingConfig {
        samples: 300,
        seed: 9,
    };
    let reference = session(ExecConfig::new());
    let cell = laliga::cell_of_interest(reference.table());
    let (want_cons, want_stats) = reference.explain_constraints_with_stats(cell).unwrap();
    for threads in [1usize, 2, 4, 8] {
        for batch in [1usize, 3, 64] {
            let plain = session(ExecConfig::new().with_threads(threads));
            let batched = session(
                ExecConfig::new()
                    .with_threads(threads)
                    .with_oracle_batch(batch),
            );
            // Exact constraint solver: identical to the global serial
            // reference, and the cache counters don't budge either —
            // batching only regroups misses, it never creates or hides one.
            let (cons, stats) = batched.explain_constraints_with_stats(cell).unwrap();
            assert_eq!(
                cons.exact, want_cons.exact,
                "threads {threads}, batch {batch}"
            );
            assert_eq!(stats, want_stats, "threads {threads}, batch {batch}");
            // Sampled masked cells: batched equals unbatched at the same
            // (seed, threads) pair, bit for bit.
            let want = plain
                .explain_cells_masked(cell, MaskMode::Null, sampling)
                .unwrap();
            let got = batched
                .explain_cells_masked(cell, MaskMode::Null, sampling)
                .unwrap();
            assert_eq!(got.values, want.values, "threads {threads}, batch {batch}");
            assert_eq!(got.target, want.target);
        }
    }
}

#[test]
fn zero_latency_remote_backend_reproduces_the_inline_path() {
    let alg = laliga::algorithm1();
    let table = laliga::dirty_table();
    let dcs = laliga::constraints();
    let cell = laliga::cell_of_interest(&table);
    let want = Explainer::new(&alg)
        .explain_constraints(&dcs, &table, cell)
        .unwrap();
    let remote = MockRemoteRepair::mock(laliga::algorithm1(), Duration::ZERO);
    let explainer = Explainer::new(&alg)
        .with_config(ExecConfig::new().with_oracle_batch(4))
        .with_oracle_backend(&remote);
    let (cons, stats, batches) = explainer
        .explain_constraints_with_batch_stats(&dcs, &table, cell)
        .unwrap();
    assert_eq!(cons.exact, want.exact);
    // Every cache miss went over the wire, nothing else did: single-flight
    // and the memo dedup upstream of the transport, so the remote answered
    // each distinct coalition exactly once.
    assert_eq!(remote.queries(), stats.misses);
    assert_eq!(batches.queries, stats.misses);
    assert_eq!(batches.batches, stats.misses.div_ceil(4));
    assert_eq!(remote.calls(), batches.batches);
}

#[test]
fn remote_backed_session_matches_the_plain_session_on_cells() {
    let sampling = SamplingConfig {
        samples: 200,
        seed: 5,
    };
    let plain = session(ExecConfig::new().with_threads(2));
    let remote =
        session(ExecConfig::new().with_threads(2).with_oracle_batch(8)).with_oracle_backend(
            Box::new(MockRemoteRepair::mock(laliga::algorithm1(), Duration::ZERO)),
        );
    let cell = laliga::cell_of_interest(plain.table());
    let want = plain
        .explain_cells_masked(cell, MaskMode::Null, sampling)
        .unwrap();
    let got = remote
        .explain_cells_masked(cell, MaskMode::Null, sampling)
        .unwrap();
    assert_eq!(got.values, want.values);
    assert_eq!(
        remote.oracle_backend().unwrap().name(),
        "remote(algorithm1)"
    );
}

#[test]
fn parallel_walk_over_batches_stays_bit_identical_to_serial() {
    let sampling = SamplingConfig {
        samples: 128,
        seed: 11,
    };
    let serial = session(ExecConfig::new());
    let cell = laliga::cell_of_interest(serial.table());
    let want = serial
        .explain_cells_masked(cell, MaskMode::Null, sampling)
        .unwrap();
    for threads in [1usize, 2, 4, 8] {
        let batched = session(
            ExecConfig::new()
                .with_threads(threads)
                .with_oracle_batch(16),
        );
        let got = batched
            .explain_cells_masked(cell, MaskMode::Null, sampling)
            .unwrap();
        assert_eq!(got.values, want.values, "threads {threads}");
    }
}
