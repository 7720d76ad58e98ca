//! The three workloads. Each generates its inputs from the seed, resets
//! the memory peak, sets up, computes its reference answers, and then runs
//! its timed phases for `--seconds`, with fresh set-ups timed among them.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use trex::Session;
use trex_constraints::Violation;
use trex_server::{json, serve, ServerConfig, ServerHandle};
use trex_table::{CellChange, CellRef, Value};

use crate::client;
use crate::clock::{cpu_secs, Stopwatch};
use crate::inputs::{self, Inputs};
use crate::speed;
use crate::steps::{rationals, xorshift, Lib, Rationals, Run};
use crate::trace::Tracer;

/// Repaired cells whose constraints one loop iteration explains.
const LOOP_CELLS: usize = 4;
/// Repaired cells the serve read mix explains.
const SERVE_CELLS: usize = 8;
/// HTTP workers and client connections on `serve-soccer2k`.
const SERVE_THREADS: usize = 2;
/// Sampling seeds of the Figure 2 cell ranking cycle over this many values
/// derived from the workload seed, so each has a reference computed once.
const SAMPLING_SEEDS: u64 = 4;
/// Share of a traced library run spent on the HTTP probe.
const PROBE_SHARE: f64 = 0.1;
/// Fresh set-ups timed per iteration or round; `setup_s` is their median.
/// A single set-up takes about 3 ms at 2k rows, 4 ms with a server, and
/// 20 µs on Figure 2, so it is repeated, and spread over the whole run
/// like every other operation. The session a workload works on is set up
/// before, untimed.
const LOOP_SETUPS: usize = 4;
const CELLS_SETUPS: usize = 20;
const SERVE_SETUPS: usize = 4;
/// Speed-kernel runs per iteration or round (about 8 ms each, a few per
/// cent of the run), so the kernel samples the whole run too.
const LOOP_KERNELS: usize = 4;
const CELLS_KERNELS: usize = 2;
const SERVE_KERNELS: usize = 4;
/// Edits and repairs per `loop-soccer2k` iteration: cheap next to its four
/// explanations, so they are repeated for more samples.
const LOOP_EDITS: usize = 4;
const LOOP_REPAIRS: usize = 2;
/// Figure 2 cell rankings per `loop-soccer2k` iteration: one ranking's
/// time swings by a tenth, so the median needs dozens per run.
const LOOP_RANKINGS: usize = 2;
/// One `serve-soccer2k` round: a read-mix slice of this length, one
/// sequential request per target, then in-process edits and repairs,
/// Figure 2 cell rankings and fresh set-ups.
const READ_SLICE_SECS: f64 = 1.2;
const SERVE_EDITS: usize = 4;
const SERVE_REPAIRS: usize = 3;
const SERVE_RANKINGS: usize = 2;

/// What a workload hands back beside the samples in its [`Run`].
pub struct Outcome {
    /// `Scenario::fingerprint` of the workload's main inputs.
    pub fingerprint: u64,
    /// Operations completed in the phase the throughput is taken over.
    pub completed: usize,
    /// Process CPU seconds that phase used, the speed kernel's left out.
    pub cpu_secs: f64,
    /// That phase's wall-clock length.
    pub wall_secs: f64,
}

/// Run `step` once, then again until `secs` have passed; returns the step
/// count and the elapsed seconds.
fn repeat_for(secs: f64, mut step: impl FnMut(usize)) -> (usize, f64) {
    let t = Instant::now();
    let mut i = 0;
    loop {
        step(i);
        i += 1;
        if t.elapsed().as_secs_f64() >= secs {
            return (i, t.elapsed().as_secs_f64());
        }
    }
}

/// Start the memory peak over after input generation, so `peak_rss_mb`
/// covers set-up and the run only.
fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One timed fresh set-up of a library session.
fn setup_session(inputs: &Inputs, run: &Run) -> Session {
    let tr = run.tr;
    let req = tr.request();
    let watch = Stopwatch::start();
    let (session, _) = tr.span("op.setup", None, req, |root| {
        inputs::session(inputs, tr, root, req)
    });
    run.record("setup", watch.lap(), true);
    session
}

/// One timed fresh set-up of the server: parse, `Session::new`, bind, and
/// the first `/health` 200.
fn setup_server(inputs: &Inputs, run: &Run) -> ServerHandle {
    let tr = run.tr;
    let req = tr.request();
    let watch = Stopwatch::start();
    let ((handle, up), _) = tr.span("op.setup", None, req, |root| {
        let session = inputs::session(inputs, tr, root, req);
        let h = tr
            .span("http.serve", root, req, |_| {
                serve(session, &server_config())
            })
            .0
            .expect("bind the in-process server");
        let health = tr.span("http.health", root, req, |_| {
            client::get(h.addr(), "/health")
        });
        (h, matches!(health.0, Ok((200, _))))
    });
    run.record("setup", watch.lap(), up);
    handle
}

/// A `tROW.Attr` spec (1-based row), the server's cell grammar.
fn cell_spec(session: &Session, cell: CellRef) -> String {
    let attr = &session.table().schema().attr(cell.attr).name;
    format!("t{}.{attr}", cell.row + 1)
}

/// References of a soccer session: the witness list, the repair's change
/// set, and the `Place` cells that can take a fresh value without changing
/// either (their row's `Team` is in no violation).
struct SoccerReference {
    violations: Vec<Violation>,
    changes: Vec<CellChange>,
    edit_cells: Vec<CellRef>,
}

impl SoccerReference {
    fn new(session: &mut Session) -> Self {
        let violations = session.violations().expect("generated constraints resolve");
        let changes = session.repair().changes;
        let table = session.table();
        let team = table.schema().id("Team");
        let touched: BTreeSet<&Value> = violations
            .iter()
            .flat_map(|v| std::iter::once(v.row1).chain(v.row2))
            .map(|r| table.value(r, team))
            .collect();
        let place = table.schema().id("Place");
        let edit_cells = (0..table.num_rows())
            .filter(|&r| !touched.contains(table.value(r, team)))
            .map(|r| CellRef::new(r, place))
            .collect::<Vec<_>>();
        assert!(!edit_cells.is_empty(), "some team must be clean");
        SoccerReference {
            violations,
            changes,
            edit_cells,
        }
    }

    /// The `i`-th edit: a `Place` cell of a clean team's row, spread over
    /// the table, and a value never used before.
    fn edit(&self, i: usize) -> (CellRef, Value) {
        let cell = self.edit_cells[(i * 7919) % self.edit_cells.len()];
        (cell, Value::str(format!("{}", 1_000_000 + i)))
    }
}

/// The paper's Figure 2 session with its reference answers: t5[Country]
/// under the Null mask, [`crate::steps::CELL_WALKS`] walks, one reference
/// estimate vector per sampling seed.
struct Figure2 {
    lib: Lib,
    cell: CellRef,
    seeds: Vec<u64>,
    estimates: Vec<Vec<f64>>,
    constraints: Rationals,
    violations: Vec<Violation>,
    changes: Vec<CellChange>,
    /// t1[Place], edited to a fresh value and back each iteration.
    edit_cell: CellRef,
    edit_violations: Vec<Violation>,
}

impl Figure2 {
    fn new(inputs: &Inputs, session: Session, seed: u64) -> Self {
        let mut lib = Lib::new(session, inputs);
        let s = &mut lib.session;
        let cell = trex_datagen::laliga::cell_of_interest(s.table());
        let seeds: Vec<u64> = (0..SAMPLING_SEEDS)
            .map(|k| seed.wrapping_mul(SAMPLING_SEEDS).wrapping_add(k))
            .collect();
        let estimates = seeds
            .iter()
            .map(|&seed| {
                let config = trex_shapley::SamplingConfig {
                    samples: crate::steps::CELL_WALKS,
                    seed,
                };
                s.explain_cells_masked(cell, trex::MaskMode::Null, config)
                    .expect("t5[Country] is repaired")
                    .values
            })
            .collect();
        let constraints = rationals(
            &s.explain_constraints(cell)
                .expect("t5[Country] is repaired")
                .exact,
        );
        let violations = s.violations().expect("Figure 1 constraints resolve");
        let changes = s.repair().changes;
        let edit_cell = CellRef::new(0, s.table().schema().id("Place"));
        let original = s.set_cell(edit_cell, Value::str("1000000"));
        let edit_violations = s.violations().expect("Figure 1 constraints resolve");
        s.set_cell(edit_cell, original);
        Figure2 {
            lib,
            cell,
            seeds,
            estimates,
            constraints,
            violations,
            changes,
            edit_cell,
            edit_violations,
        }
    }

    /// One cell ranking from a cold oracle cache.
    fn explain_cells_cold(&self, run: &Run, i: usize) {
        self.lib.session.flush_oracle_cache();
        self.explain_cells(run, i);
    }

    fn explain_cells(&self, run: &Run, i: usize) {
        let k = i % self.seeds.len();
        self.lib
            .explain_cells(run, self.cell, self.seeds[k], &self.estimates[k]);
    }

    /// The paper's §4 loop on the Figure 2 table: edit a cell and put it
    /// back (each edit flushes the cache), repair, explain the constraints
    /// and then the cells of t5[Country]. Only the first edit is an
    /// `edit_p50_ms` sample: it flushes the previous ranking's cache
    /// entries, the revert flushes an empty cache, and a median over a
    /// half-and-half mix of the two would flip between them.
    fn iteration(&mut self, run: &Run, i: usize) {
        let original = self.lib.session.table().get(self.edit_cell).clone();
        let fresh = Value::str(format!("{}", 1_000_000 + i));
        self.lib
            .edit(run, "edit", self.edit_cell, fresh, &self.edit_violations);
        self.lib
            .edit(run, "revert", self.edit_cell, original, &self.violations);
        self.lib.repair(run, &self.changes);
        self.lib
            .explain_constraints(run, self.cell, &self.constraints);
        self.explain_cells(run, i);
    }
}

/// `loop-soccer2k`: per iteration [`LOOP_EDITS`] edits, [`LOOP_REPAIRS`]
/// repairs, [`LOOP_CELLS`] cold constraint explanations,
/// [`LOOP_RANKINGS`] Figure 2 cell rankings for `explain_cells_p50_ms`,
/// fresh set-ups and speed-kernel runs, so every metric samples the whole
/// run.
pub fn loop_soccer(seed: u64, secs: f64, run: &Run) -> Outcome {
    let inputs = inputs::soccer2k(seed);
    let figure2_inputs = inputs::figure2();
    reset_peak();
    let off = Tracer::new(false);
    let mut lib = Lib::new(inputs::session(&inputs, &off, None, 0), &inputs);
    let reference = SoccerReference::new(&mut lib.session);
    let cells: Vec<CellRef> = reference
        .changes
        .iter()
        .take(LOOP_CELLS)
        .map(|c| c.cell)
        .collect();
    let explained: Vec<Rationals> = cells
        .iter()
        .map(|&c| rationals(&lib.session.explain_constraints(c).expect("repaired").exact))
        .collect();
    let figure2 = Figure2::new(
        &figure2_inputs,
        inputs::session(&figure2_inputs, &off, None, 0),
        seed,
    );
    let probe = run.tr.on().then(|| {
        let session = inputs::session(&inputs, &off, None, 0);
        Served::start(session, &inputs, &cells, reference.violations.len())
    });

    let (cpu, mut kernel_cpu) = (cpu_secs(), 0.0);
    let (iterations, wall_secs) = repeat_for(secs, |i| {
        for k in 0..LOOP_EDITS {
            let (cell, value) = reference.edit(i * LOOP_EDITS + k);
            lib.edit(run, "edit", cell, value, &reference.violations);
        }
        for _ in 0..LOOP_REPAIRS {
            lib.repair(run, &reference.changes);
        }
        for (&cell, expect) in cells.iter().zip(&explained) {
            lib.explain_constraints(run, cell, expect);
        }
        for k in 0..LOOP_RANKINGS {
            figure2.explain_cells_cold(run, i * LOOP_RANKINGS + k);
        }
        for _ in 0..LOOP_SETUPS {
            setup_session(&inputs, run);
        }
        kernel_cpu += speed::sample(run, LOOP_KERNELS);
    });
    let cpu = cpu_secs() - cpu - kernel_cpu;
    if let Some(served) = probe {
        served.probe(secs, run, seed);
    }
    Outcome {
        fingerprint: inputs.fingerprint,
        completed: iterations * (LOOP_EDITS + LOOP_REPAIRS + cells.len() + LOOP_RANKINGS),
        cpu_secs: cpu,
        wall_secs,
    }
}

/// `cells-laliga`: the paper's §4 loop on the Figure 2 table, dominated by
/// one cold 200-walk cell ranking per iteration.
pub fn cells_laliga(seed: u64, secs: f64, run: &Run) -> Outcome {
    let inputs = inputs::figure2();
    reset_peak();
    let off = Tracer::new(false);
    let session = inputs::session(&inputs, &off, None, 0);
    let mut figure2 = Figure2::new(&inputs, session, seed);
    let probe = run.tr.on().then(|| {
        let session = inputs::session(&inputs, &off, None, 0);
        let violations = figure2.violations.len();
        Served::start(session, &inputs, &[figure2.cell], violations)
    });
    let (cpu, mut kernel_cpu) = (cpu_secs(), 0.0);
    let (iterations, wall_secs) = repeat_for(secs, |i| {
        figure2.iteration(run, i);
        for _ in 0..CELLS_SETUPS {
            setup_session(&inputs, run);
        }
        kernel_cpu += speed::sample(run, CELLS_KERNELS);
    });
    let cpu = cpu_secs() - cpu - kernel_cpu;
    if let Some(served) = probe {
        served.probe(secs, run, seed);
    }
    Outcome {
        fingerprint: inputs.fingerprint,
        completed: iterations * 5,
        cpu_secs: cpu,
        wall_secs,
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        http_threads: SERVE_THREADS,
    }
}

/// One request the read mix sends, with the body every answer must equal.
struct Target {
    path: String,
    body: String,
    cell: Option<CellRef>,
}

/// An in-process server over one session, warmed up, with an in-process
/// reference session (same inputs, equally warm cache) for the checks and
/// the replays.
struct Served {
    handle: ServerHandle,
    reference: Lib,
    explains: Vec<Target>,
    violations: Target,
    /// Also replay the sampled explanations through the library step, so
    /// the traced run gets oracle and repair metrics of the served path.
    layer_replays: bool,
    /// Responses outside 2xx so far.
    non_2xx: AtomicU64,
}

impl Served {
    /// Serve `session` for the HTTP probe of a traced library run.
    fn start(session: Session, inputs: &Inputs, cells: &[CellRef], violations: usize) -> Self {
        let handle = serve(session, &server_config()).expect("bind the in-process server");
        Self::warm(handle, inputs, cells, violations, false)
    }

    /// Touch every target once, checking each body against the reference
    /// session's answer; the bodies become the expected answers.
    fn warm(
        handle: ServerHandle,
        inputs: &Inputs,
        cells: &[CellRef],
        violations: usize,
        layer_replays: bool,
    ) -> Self {
        let off = Tracer::new(false);
        let lib = Lib::new(inputs::session(inputs, &off, None, 0), inputs);
        let addr = handle.addr();
        let fetch = |path: &str| match client::get(addr, path) {
            Ok((200, body)) => body,
            other => panic!("warm-up {path}: {other:?}"),
        };
        let explains = cells
            .iter()
            .map(|&cell| {
                let path = format!(
                    "/explain?kind=constraints&cell={}",
                    cell_spec(&lib.session, cell)
                );
                let body = fetch(&path);
                let want = lib.session.explain_constraints(cell).expect("repaired");
                let exact: Vec<String> = want
                    .exact
                    .iter()
                    .map(|(label, r)| {
                        format!(
                            "{{\"label\":{},\"value\":{}}}",
                            json::string(label),
                            json::string(&r.to_string())
                        )
                    })
                    .collect();
                let exact = format!("\"exact\":[{}]", exact.join(","));
                assert!(body.contains(&exact), "{path}: {body} lacks {exact}");
                Target {
                    path,
                    body,
                    cell: Some(cell),
                }
            })
            .collect();
        let body = fetch("/violations");
        let count = format!("{{\"count\":{violations},");
        assert!(body.starts_with(&count), "/violations: {body}");
        Served {
            handle,
            reference: lib,
            explains,
            violations: Target {
                path: "/violations".to_string(),
                body,
                cell: None,
            },
            layer_replays,
            non_2xx: AtomicU64::new(0),
        }
    }

    /// The HTTP probe of a traced library run; its latencies stay out of
    /// the run's samples.
    fn probe(&self, secs: f64, run: &Run, seed: u64) {
        self.read_mix(secs * PROBE_SHARE, run, seed);
        self.one_at_a_time(&Run::new(run.tr));
        let non_2xx = self.non_2xx.load(Ordering::Relaxed) as f64;
        run.tr.count("http", "http.non_2xx", non_2xx);
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Send `target` and check the answer; returns whether it was right.
    fn send(&self, target: &Target) -> bool {
        match client::get(self.addr(), &target.path) {
            Ok((status, body)) => {
                if !(200..300).contains(&status) {
                    self.non_2xx.fetch_add(1, Ordering::Relaxed);
                }
                status == 200 && body == target.body
            }
            Err(_) => false,
        }
    }

    /// Every target once, one request at a time, each timed on both clocks:
    /// with nothing else in flight, the process CPU time of a request is
    /// the client's and the server's work for that request alone. Traced,
    /// each explanation is replayed in-process for `http.overhead_ms`.
    fn one_at_a_time(&self, run: &Run) {
        let tr = run.tr;
        let explains = self.explains.iter();
        let all = explains.map(|t| (t, "explain_constraints", "http.explain_alone"));
        let violations = (&self.violations, "violations", "http.violations_alone");
        for (target, op, span) in all.chain([violations]) {
            let req = tr.request();
            let watch = Stopwatch::start();
            let (ok, id) = tr.span(span, None, req, |_| self.send(target));
            run.record(op, watch.lap(), ok);
            if let (true, Some(cell)) = (tr.on(), target.cell) {
                let _ = tr.replay("session.explain_constraints", id, req, || {
                    self.reference.session.explain_constraints(cell)
                });
            }
        }
    }

    /// The closed-loop read mix: [`SERVE_THREADS`] clients, each sending
    /// its next request when the previous answer arrived; 80% constraint
    /// explanations over the warmed cells, 20% violation lists. Requests
    /// are timed on the wall clock only. Returns the completed request
    /// count, the process CPU seconds and the phase length.
    fn read_mix(&self, secs: f64, run: &Run, seed: u64) -> (usize, f64, f64) {
        let tr = run.tr;
        let replay_lock = Mutex::new(());
        let scratch = Run::new(tr);
        let cpu = cpu_secs();
        let t = Instant::now();
        let completed: usize = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..SERVE_THREADS as u64)
                .map(|c| {
                    let (replay_lock, scratch) = (&replay_lock, &scratch);
                    scope.spawn(move || {
                        let mut state = (seed ^ (c + 1)).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                        let mut next = move || xorshift(&mut state);
                        let mut done = 0;
                        while t.elapsed().as_secs_f64() < secs || done == 0 {
                            let (target, op, span) = if next() % 5 == 4 {
                                (&self.violations, "mix_violations", "http.violations")
                            } else {
                                let i = (next() % self.explains.len() as u64) as usize;
                                (&self.explains[i], "mix_explain", "http.explain")
                            };
                            let req = tr.request();
                            let started = Instant::now();
                            let (ok, id) = tr.span(span, None, req, |_| self.send(target));
                            let ms = started.elapsed().as_secs_f64() * 1e3;
                            run.record_wall(op, ms, ok);
                            done += 1;
                            // Replaying every request would double the
                            // served CPU load; one in four is plenty.
                            let replay = tr.on() && req.is_multiple_of(4);
                            if let (true, Some(cell)) = (replay, target.cell) {
                                let _serial = replay_lock.lock().expect("replay lock poisoned");
                                let answer =
                                    tr.replay("session.explain_constraints", id, req, || {
                                        self.reference.session.explain_constraints(cell)
                                    });
                                if let (true, Ok(e)) = (self.layer_replays, answer) {
                                    let want = rationals(&e.exact);
                                    self.reference.explain_constraints(scratch, cell, &want);
                                }
                            }
                        }
                        done
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .sum()
        });
        (completed, cpu_secs() - cpu, t.elapsed().as_secs_f64())
    }
}

/// `serve-soccer2k`: the soccer session behind `trex_server::serve` with
/// [`SERVE_THREADS`] workers, driven in rounds: a closed-loop read-mix
/// slice from [`SERVE_THREADS`] clients (the throughput), every target
/// once more one request at a time (the HTTP latencies, on the CPU clock),
/// then edits and repairs on a second, in-process session over the same
/// inputs, [`SERVE_RANKINGS`] Figure 2 cell rankings, fresh server set-ups
/// and speed-kernel runs, each one at a time. Writes stay out of the
/// served session: an edit flushes its
/// cache, and a read mix that turns cold after every edit varied too much
/// from run to run.
pub fn serve_soccer(seed: u64, secs: f64, run: &Run) -> Outcome {
    let inputs = inputs::soccer2k(seed);
    let figure2_inputs = inputs::figure2();
    reset_peak();
    let off = Tracer::new(false);
    let handle = serve(inputs::session(&inputs, &off, None, 0), &server_config())
        .expect("bind the in-process server");
    let mut writer = inputs::session(&inputs, &off, None, 0);
    let reference = SoccerReference::new(&mut writer);
    let mut writer = Lib::new(writer, &inputs);
    let cells: Vec<CellRef> = reference
        .changes
        .iter()
        .take(SERVE_CELLS)
        .map(|c| c.cell)
        .collect();
    let served = Served::warm(handle, &inputs, &cells, reference.violations.len(), true);
    let figure2 = Figure2::new(
        &figure2_inputs,
        inputs::session(&figure2_inputs, &off, None, 0),
        seed,
    );

    let (mut completed, mut cpu, mut wall, mut edits) = (0, 0.0, 0.0, 0);
    repeat_for(secs, |round| {
        let round_seed = seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (n, c, w) = served.read_mix(READ_SLICE_SECS, run, round_seed);
        completed += n;
        cpu += c;
        wall += w;
        served.one_at_a_time(run);
        for _ in 0..SERVE_EDITS {
            let (cell, value) = reference.edit(edits);
            edits += 1;
            writer.edit(run, "edit", cell, value, &reference.violations);
        }
        for _ in 0..SERVE_REPAIRS {
            writer.repair(run, &reference.changes);
        }
        for k in 0..SERVE_RANKINGS {
            figure2.explain_cells_cold(run, round * SERVE_RANKINGS + k);
        }
        for _ in 0..SERVE_SETUPS {
            // Shut each server down outside the timed region.
            drop(setup_server(&inputs, run));
        }
        speed::sample(run, SERVE_KERNELS);
    });
    let non_2xx = served.non_2xx.load(Ordering::Relaxed) as f64;
    run.tr.count("http", "http.non_2xx", non_2xx);
    Outcome {
        fingerprint: inputs.fingerprint,
        completed,
        cpu_secs: cpu,
        wall_secs: wall,
    }
}
