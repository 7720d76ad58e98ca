//! Request routing and JSON rendering for every endpoint.
//!
//! One shared [`trex::Session`] lives behind an `RwLock`: explanation and
//! violation reads take the read lock (they run concurrently, pooling
//! repairs through the session's shared `OracleCache`), repair and input
//! mutations take the write lock (a repeated repair reads the same cache,
//! and the session flushes it on every mutation). A new constraint must
//! pass the analyzer's typecheck (`trex_constraints::typecheck`).
//! Per-request execution knobs (`?threads=…&seed=…`) are validated by
//! `trex_shapley::exec_config_from_knobs` — the exact validation path and
//! error wording of the CLI flags — and resolved against the session's own
//! configuration (see [`request_exec`]).

use crate::http::{
    chunk_begin, chunk_finish, chunk_line, write_error, write_json, BadRequest, Conn, Request,
};
use crate::json;
use std::io;
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::RwLock;
use std::time::{Duration, Instant};
use trex::{cell_label, cell_players, CellExplanation, ExplainError, MaskMode, Session};
use trex_shapley::{AnytimeCheckpoint, AnytimeControl, ExecConfig, SamplingConfig};
use trex_table::{CellRef, Table, Value};

/// Default per-player walk budget of a cell explanation when the request
/// does not pin `samples`.
pub const DEFAULT_SAMPLES: usize = 2000;

/// The largest per-player walk budget a request may ask for. A cell
/// explanation holds the session's read lock for its whole walk, so an
/// unbounded budget would stall every edit and repair behind it.
pub const MAX_SAMPLES: usize = 100 * DEFAULT_SAMPLES;

/// Default number of checkpoints an anytime stream aims for when the
/// request does not pin `checkpoint` (the walks-per-checkpoint stride).
const DEFAULT_CHECKPOINTS: usize = 20;

/// The shared state behind every worker thread.
pub(crate) struct ServerState {
    pub(crate) session: RwLock<Session>,
}

impl ServerState {
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Session> {
        // A panic in one request must not wedge the server: poisoned locks
        // still guard consistent data here (handlers never leave the
        // session half-mutated across an unwind point).
        self.session.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Session> {
        self.session.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Serve one connection: read the request, dispatch, answer errors.
///
/// A panicking handler — a black-box repair engine is the usual suspect —
/// costs this request, not the worker thread: the panic is caught here,
/// the client gets a 500 if no response has started yet, and the worker
/// goes back to the queue. Session locks recover from the poisoning (see
/// [`ServerState::read`]).
pub(crate) fn handle_connection(state: &ServerState, stream: TcpStream) {
    // Reads share one deadline for the whole request (see `Conn`). Writes
    // get a timeout of their own: a client that stops reading mid-stream
    // must not pin a worker (and the session read lock) forever, so a
    // stalled write errors out and the anytime driver stops.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut stream = Conn::new(stream);
    let req = match crate::http::read_request(&mut stream) {
        Err(_) => return, // dead socket; nothing to answer
        Ok(Err(bad)) => {
            let _ = write_error(&mut stream, bad.status, &bad.message);
            return;
        }
        Ok(Ok(req)) => req,
    };
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(state, &req, &mut stream)));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(bad)) => {
            let _ = write_error(&mut stream, bad.status, &bad.message);
        }
        Err(_) if !stream.wrote() => {
            let _ = write_error(
                &mut stream,
                500,
                "internal error: the request handler panicked",
            );
        }
        Err(_) => {} // mid-response: the truncated stream is the signal
    }
}

fn dispatch(state: &ServerState, req: &Request, stream: &mut Conn) -> Result<(), BadRequest> {
    let io = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => health(req, stream),
        ("GET", "/violations") => violations(state, req, stream),
        ("POST", "/repair") => repair(state, req, stream),
        ("GET", "/explain") => explain(state, req, stream),
        ("POST", "/cell") => set_cell(state, req, stream),
        ("POST", "/constraint") => upsert_constraint(state, req, stream),
        ("DELETE", "/constraint") => remove_constraint(state, req, stream),
        (_, "/health" | "/violations" | "/repair" | "/explain" | "/cell" | "/constraint") => {
            return Err(BadRequest::status(
                405,
                format!("method {} not allowed for {}", req.method, req.path),
            ))
        }
        _ => {
            return Err(BadRequest::status(
                404,
                format!(
                "no such endpoint {} (have /health /violations /repair /explain /cell /constraint)",
                req.path
            ),
            ))
        }
    };
    // An I/O failure answering the request means the client disappeared;
    // there is no one left to tell.
    let _ = io;
    Ok(())
}

// --- parameter plumbing -------------------------------------------------

/// Names [`request_exec`] consumes, shared by every endpoint allowlist. The
/// oracle capacity is not one of them: the session's cache serves every
/// request, sized once by `trex serve --oracle-cap`.
const EXEC_PARAMS: [&str; 2] = ["threads", "seed"];

/// Reject query parameters no handler reads — a typoed `?shedule=` must
/// error, not silently fall back to defaults (mirrors the CLI's
/// unknown-flag rejection).
fn check_params(req: &Request, extra: &[&str]) -> Result<(), BadRequest> {
    for (name, _) in &req.query {
        if !EXEC_PARAMS.contains(&name.as_str()) && !extra.contains(&name.as_str()) {
            return Err(BadRequest::new(format!("unknown parameter {name:?}")));
        }
    }
    Ok(())
}

/// Parse the request's execution knobs through the shared CLI/server
/// validation path, then resolve them against `session`, the session's
/// configuration (the `trex serve` exec flags): an unset knob takes the
/// session's value, and a set `threads` is capped at the session's count.
/// Answers are identical at any thread count, so the cap never shows in
/// output. Callers reject unknown parameters first ([`check_params`]).
fn request_exec(req: &Request, session: &ExecConfig) -> Result<ExecConfig, BadRequest> {
    let asked =
        trex_shapley::exec_config_from_knobs(|name| req.param(name)).map_err(BadRequest::new)?;
    let threads = match req.param("threads") {
        Some(_) => asked.threads().min(session.threads()),
        None => session.threads(),
    };
    let exec = session.with_threads(threads);
    Ok(match asked.seed() {
        Some(seed) => exec.with_seed(seed),
        None => exec,
    })
}

/// Parse a `tROW.Attr` cell spec against the session table (1-based row,
/// the CLI's `--cell` grammar).
fn parse_cell(table: &Table, spec: &str) -> Result<CellRef, BadRequest> {
    let (row_part, attr_part) = spec
        .split_once('.')
        .ok_or_else(|| BadRequest::new(format!("cell {spec:?}: expected tROW.Attr")))?;
    let row_text = row_part.strip_prefix('t').unwrap_or(row_part);
    let row: usize = row_text
        .parse()
        .map_err(|_| BadRequest::new(format!("cell {spec:?}: bad row {row_text:?}")))?;
    if row == 0 || row > table.num_rows() {
        return Err(BadRequest::new(format!(
            "cell {spec:?}: row {row} out of range 1..={}",
            table.num_rows()
        )));
    }
    let attr = table
        .schema()
        .resolve(attr_part)
        .ok_or_else(|| BadRequest::new(format!("cell {spec:?}: no attribute {attr_part:?}")))?;
    Ok(CellRef::new(row - 1, attr))
}

fn parse_usize(req: &Request, name: &str, default: usize) -> Result<usize, BadRequest> {
    match req.param(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| BadRequest::new(format!("{name}: cannot parse {v:?}"))),
    }
}

fn explain_error(e: ExplainError) -> BadRequest {
    // Every ExplainError is a property of the request (bad cell, cell not
    // repaired, too many constraints for exact) — a client error, not a 500.
    BadRequest::new(e.to_string())
}

// --- endpoints ----------------------------------------------------------

fn health(req: &Request, stream: &mut Conn) -> io::Result<()> {
    if let Err(bad) = check_params(req, &[]) {
        return write_error(stream, bad.status, &bad.message);
    }
    write_json(stream, 200, "{\"status\":\"ok\"}")
}

fn violations(state: &ServerState, req: &Request, stream: &mut Conn) -> io::Result<()> {
    let session = state.read();
    let exec = match check_params(req, &[]).and_then(|()| request_exec(req, &session.config())) {
        Ok(exec) => exec,
        Err(bad) => return write_error(stream, bad.status, &bad.message),
    };
    let violations = match session.violations_for(&exec) {
        Ok(v) => v,
        Err(e) => return write_error(stream, 400, &e.to_string()),
    };
    let table = session.table();
    let items: Vec<String> = violations
        .iter()
        .map(|v| {
            let cells: Vec<String> = v
                .cells
                .iter()
                .map(|c| json::string(&cell_label(table, *c)))
                .collect();
            format!(
                "{{\"constraint\":{},\"row1\":{},\"row2\":{},\"cells\":[{}]}}",
                json::string(&v.constraint),
                v.row1 + 1,
                v.row2.map_or("null".to_string(), |r| (r + 1).to_string()),
                cells.join(",")
            )
        })
        .collect();
    let body = format!(
        "{{\"count\":{},\"violations\":[{}]}}",
        items.len(),
        items.join(",")
    );
    write_json(stream, 200, &body)
}

fn repair(state: &ServerState, req: &Request, stream: &mut Conn) -> io::Result<()> {
    if let Err(bad) = check_params(req, &[]) {
        return write_error(stream, bad.status, &bad.message);
    }
    let mut session = state.write();
    let result = session.repair();
    let table = session.table();
    let changes: Vec<String> = result
        .changes
        .iter()
        .map(|c| {
            format!(
                "{{\"cell\":{},\"from\":{},\"to\":{}}}",
                json::string(&cell_label(table, c.cell)),
                json::string(&c.from.render()),
                json::string(&c.to.render())
            )
        })
        .collect();
    let body = format!(
        "{{\"count\":{},\"changes\":[{}]}}",
        changes.len(),
        changes.join(",")
    );
    write_json(stream, 200, &body)
}

fn set_cell(state: &ServerState, req: &Request, stream: &mut Conn) -> io::Result<()> {
    let mut session = state.write();
    let outcome = (|| -> Result<String, BadRequest> {
        check_params(req, &["cell", "value"])?;
        let spec = req
            .param("cell")
            .ok_or_else(|| BadRequest::new("missing required parameter \"cell\""))?;
        let cell = parse_cell(session.table(), spec)?;
        let raw = req
            .param("value")
            .ok_or_else(|| BadRequest::new("missing required parameter \"value\""))?;
        let dtype = session.table().schema().attr(cell.attr).dtype;
        let value = Value::parse_as(raw, dtype).map_err(|e| BadRequest::new(e.to_string()))?;
        let label = cell_label(session.table(), cell);
        let previous = session.set_cell(cell, value.clone());
        Ok(format!(
            "{{\"cell\":{},\"previous\":{},\"value\":{}}}",
            json::string(&label),
            json::string(&previous.render()),
            json::string(&value.render())
        ))
    })();
    match outcome {
        Ok(body) => write_json(stream, 200, &body),
        Err(bad) => write_error(stream, bad.status, &bad.message),
    }
}

fn upsert_constraint(state: &ServerState, req: &Request, stream: &mut Conn) -> io::Result<()> {
    let mut session = state.write();
    let outcome = (|| -> Result<String, BadRequest> {
        check_params(req, &["dc", "name"])?;
        let text = req
            .param("dc")
            .ok_or_else(|| BadRequest::new("missing required parameter \"dc\""))?;
        let default_name = format!("DC{}", session.constraints().len() + 1);
        let name = req.param("name").unwrap_or(&default_name);
        let dc = trex_constraints::parse_dc_named(text, name)
            .map_err(|e| BadRequest::new(e.to_string()))?;
        // Fail closed, as the CLI loads a program: a predicate that can
        // never hold would make the constraint silently unviolable.
        trex_constraints::typecheck(std::slice::from_ref(&dc), session.table().schema()).map_err(
            |errors| {
                let rendered: Vec<String> = errors.iter().map(|d| d.render()).collect();
                BadRequest::new(rendered.join("\n"))
            },
        )?;
        let name = dc.name.clone();
        session
            .upsert_constraint(dc)
            .map_err(|e| BadRequest::new(e.to_string()))?;
        Ok(format!(
            "{{\"name\":{},\"constraints\":{}}}",
            json::string(&name),
            session.constraints().len()
        ))
    })();
    match outcome {
        Ok(body) => write_json(stream, 200, &body),
        Err(bad) => write_error(stream, bad.status, &bad.message),
    }
}

fn remove_constraint(state: &ServerState, req: &Request, stream: &mut Conn) -> io::Result<()> {
    let mut session = state.write();
    let outcome = (|| -> Result<String, BadRequest> {
        check_params(req, &["name"])?;
        let name = req
            .param("name")
            .ok_or_else(|| BadRequest::new("missing required parameter \"name\""))?;
        match session.remove_constraint(name) {
            Some(dc) => Ok(format!(
                "{{\"removed\":{},\"constraints\":{}}}",
                json::string(&dc.name),
                session.constraints().len()
            )),
            None => Err(BadRequest::status(
                404,
                format!("no constraint named {name:?}"),
            )),
        }
    })();
    match outcome {
        Ok(body) => write_json(stream, 200, &body),
        Err(bad) => write_error(stream, bad.status, &bad.message),
    }
}

fn explain(state: &ServerState, req: &Request, stream: &mut Conn) -> io::Result<()> {
    let session = state.read();
    let setup = (|| -> Result<(ExecConfig, CellRef), BadRequest> {
        check_params(
            req,
            &[
                "cell",
                "kind",
                "mode",
                "samples",
                "budget_ms",
                "checkpoint",
                "stream",
            ],
        )?;
        let exec = request_exec(req, &session.config())?;
        let spec = req
            .param("cell")
            .ok_or_else(|| BadRequest::new("missing required parameter \"cell\""))?;
        let cell = parse_cell(session.table(), spec)?;
        Ok((exec, cell))
    })();
    let (exec, cell) = match setup {
        Ok(v) => v,
        Err(bad) => return write_error(stream, bad.status, &bad.message),
    };
    match req.param("kind").unwrap_or("cells") {
        "constraints" => explain_constraints(&session, req, stream, cell, &exec),
        "cells" => explain_cells(&session, req, stream, cell, &exec),
        other => write_error(
            stream,
            400,
            &format!("unknown kind {other:?} (constraints | cells)"),
        ),
    }
}

fn explain_constraints(
    session: &Session,
    req: &Request,
    stream: &mut Conn,
    cell: CellRef,
    exec: &ExecConfig,
) -> io::Result<()> {
    for p in ["mode", "samples", "budget_ms", "checkpoint", "stream"] {
        if req.param(p).is_some() {
            return write_error(
                stream,
                400,
                &format!("parameter {p:?} only applies to kind=cells"),
            );
        }
    }
    let explanation = match session.explainer(exec).explain_constraints(
        session.constraints(),
        session.table(),
        cell,
    ) {
        Ok(e) => e,
        Err(e) => {
            let bad = explain_error(e);
            return write_error(stream, bad.status, &bad.message);
        }
    };
    let ranking: Vec<String> = explanation
        .ranking
        .entries()
        .iter()
        .map(|e| {
            format!(
                "{{\"label\":{},\"value\":{}}}",
                json::string(&e.label),
                json::num(e.value)
            )
        })
        .collect();
    let exact: Vec<String> = explanation
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
    let body = format!(
        "{{\"target\":{},\"ranking\":[{}],\"exact\":[{}]}}",
        json::string(&explanation.target.render()),
        ranking.join(","),
        exact.join(",")
    );
    write_json(stream, 200, &body)
}

/// The `"target":…,"cells":…,"values":…,"ranking":…` core of a cell
/// explanation, shared verbatim by the batch response and the stream's
/// final line — the determinism contract ("final stream line equals batch
/// explain bit for bit") is checked by comparing these strings.
fn cells_payload(table: &Table, e: &CellExplanation) -> String {
    let cells: Vec<String> = e
        .players
        .iter()
        .map(|c| json::string(&cell_label(table, *c)))
        .collect();
    let values: Vec<String> = e.values.iter().map(|v| json::num(*v)).collect();
    let ranking: Vec<String> = e
        .ranking
        .entries()
        .iter()
        .map(|entry| {
            format!(
                "{{\"label\":{},\"value\":{},\"std_error\":{}}}",
                json::string(&entry.label),
                json::num(entry.value),
                json::num(entry.std_error.unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "\"target\":{},\"cells\":[{}],\"values\":[{}],\"ranking\":[{}]",
        json::string(&e.target.render()),
        cells.join(","),
        values.join(","),
        ranking.join(",")
    )
}

fn mask_mode(req: &Request) -> Result<MaskMode, BadRequest> {
    match req.param("mode").unwrap_or("null") {
        "null" => Ok(MaskMode::Null),
        "distinct" => Ok(MaskMode::Distinct),
        other => Err(BadRequest::new(format!(
            "unknown mode {other:?} (null | distinct)"
        ))),
    }
}

fn explain_cells(
    session: &Session,
    req: &Request,
    stream: &mut Conn,
    cell: CellRef,
    exec: &ExecConfig,
) -> io::Result<()> {
    let setup = (|| -> Result<(MaskMode, SamplingConfig), BadRequest> {
        let mode = mask_mode(req)?;
        let samples = parse_usize(req, "samples", DEFAULT_SAMPLES)?;
        if samples == 0 {
            return Err(BadRequest::new("samples must be >= 1"));
        }
        if samples > MAX_SAMPLES {
            return Err(BadRequest::new(format!("samples must be <= {MAX_SAMPLES}")));
        }
        Ok((
            mode,
            SamplingConfig {
                samples,
                seed: exec.seed().unwrap_or(0),
            },
        ))
    })();
    let (mode, config) = match setup {
        Ok(v) => v,
        Err(bad) => return write_error(stream, bad.status, &bad.message),
    };
    let streaming = req.param("budget_ms").is_some() || req.param("stream").is_some();
    if !streaming {
        return match session.explainer(exec).explain_cells_masked(
            session.constraints(),
            session.table(),
            cell,
            mode,
            config,
        ) {
            Ok(e) => write_json(
                stream,
                200,
                &format!("{{{}}}", cells_payload(session.table(), &e)),
            ),
            Err(e) => {
                let bad = explain_error(e);
                write_error(stream, bad.status, &bad.message)
            }
        };
    }

    // --- the anytime stream ---
    let params = (|| -> Result<(Option<Duration>, usize), BadRequest> {
        let budget = match req.param("budget_ms") {
            None => None,
            Some(v) => Some(Duration::from_millis(v.parse().map_err(|_| {
                BadRequest::new(format!("budget_ms: cannot parse {v:?}"))
            })?)),
        };
        let default_every = (config.samples / DEFAULT_CHECKPOINTS).max(1);
        let every = parse_usize(req, "checkpoint", default_every)?;
        if every == 0 {
            return Err(BadRequest::new("checkpoint must be >= 1"));
        }
        Ok((budget, every))
    })();
    let (budget, every) = match params {
        Ok(v) => v,
        Err(bad) => return write_error(stream, bad.status, &bad.message),
    };

    // Player labels are known up front (every cell but the explained one,
    // row-major) so checkpoint lines can be labeled without waiting for
    // the run to finish.
    let labels: Vec<String> = cell_players(session.table(), cell)
        .into_iter()
        .map(|c| cell_label(session.table(), c))
        .collect();
    let started = Instant::now();
    let deadline = budget.map(|b| started + b);
    let mut begun = false;
    let mut client_gone = false;
    let mut last_completed = 0usize;
    let mut total = 0usize;
    let on_checkpoint = |cp: &AnytimeCheckpoint<'_>| {
        last_completed = cp.completed;
        total = cp.total;
        if !begun {
            if chunk_begin(stream).is_err() {
                client_gone = true;
                return AnytimeControl::Stop;
            }
            begun = true;
        }
        let estimates: Vec<String> = cp
            .estimates
            .iter()
            .zip(&labels)
            .map(|(e, label)| {
                format!(
                    "{{\"cell\":{},\"value\":{},\"std_error\":{},\"ci95\":{},\"samples\":{}}}",
                    json::string(label),
                    json::num(e.value),
                    json::num(e.std_error()),
                    json::num(e.ci_half_width(1.96)),
                    e.samples
                )
            })
            .collect();
        let line = format!(
            "{{\"final\":false,\"completed\":{},\"total\":{},\"elapsed_ms\":{},\"estimates\":[{}]}}",
            cp.completed,
            cp.total,
            started.elapsed().as_millis(),
            estimates.join(",")
        );
        if chunk_line(stream, &line).is_err() {
            client_gone = true;
            return AnytimeControl::Stop;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return AnytimeControl::Stop;
        }
        AnytimeControl::Continue
    };
    let outcome = session.explainer(exec).explain_cells_masked_anytime(
        session.constraints(),
        session.table(),
        cell,
        mode,
        config,
        every,
        on_checkpoint,
    );
    match outcome {
        Err(e) => {
            // Explanation errors surface before the first checkpoint (the
            // repair-target pre-flight), so the plain HTTP error still fits
            // on the wire.
            debug_assert!(!begun);
            let bad = explain_error(e);
            write_error(stream, bad.status, &bad.message)
        }
        Ok((explanation, finished)) => {
            if client_gone {
                return Ok(()); // nobody is listening
            }
            if !begun {
                // Degenerate stream that stopped before its first line
                // could be written — still answer something well-formed.
                chunk_begin(stream)?;
            }
            let line = format!(
                "{{\"final\":true,\"finished\":{},\"completed\":{},\"total\":{},\"elapsed_ms\":{},{}}}",
                finished,
                last_completed,
                total,
                started.elapsed().as_millis(),
                cells_payload(session.table(), &explanation)
            );
            chunk_line(stream, &line)?;
            chunk_finish(stream)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: "/explain".to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn request_knobs_inherit_the_session_and_threads_are_capped_at_it() {
        let session = ExecConfig::new().with_seed(7);
        // Unset knobs take the session's values.
        let exec = request_exec(&request(&[]), &session).unwrap();
        assert_eq!(exec, session);
        // Set knobs win, except that threads never exceed the session's;
        // resolving a config starts no threads.
        let exec = request_exec(&request(&[("threads", "1024"), ("seed", "3")]), &session).unwrap();
        assert_eq!(exec, ExecConfig::new().with_seed(3));
        let four = ExecConfig::new().with_threads(4);
        assert_eq!(
            request_exec(&request(&[("threads", "2")]), &four)
                .unwrap()
                .threads(),
            2
        );
        assert_eq!(request_exec(&request(&[]), &four).unwrap().threads(), 4);
        // Validation is unchanged: an absurd count is still a 400.
        let err = request_exec(&request(&[("threads", "2000")]), &session).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("2000"), "{}", err.message);
    }
}
