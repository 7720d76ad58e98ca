//! T-REx as a service: a long-lived HTTP/JSON explanation server.
//!
//! [`serve`] binds a `std::net::TcpListener`, wraps one [`trex::Session`]
//! in an `RwLock`, and answers requests on a bounded thread pool — no
//! external dependencies. Endpoints (all inputs via query string):
//!
//! | method | path           | effect                                           |
//! |--------|----------------|--------------------------------------------------|
//! | GET    | `/health`      | liveness probe                                   |
//! | GET    | `/violations`  | current denial-constraint violations             |
//! | POST   | `/repair`      | run the repair algorithm, return the change set  |
//! | GET    | `/explain`     | constraint or cell Shapley explanation           |
//! | POST   | `/cell`        | mutate a table cell (flushes the oracle cache)   |
//! | POST   | `/constraint`  | add or replace a denial constraint               |
//! | DELETE | `/constraint`  | remove a denial constraint by name               |
//!
//! Every endpoint accepts the CLI's execution knobs (`threads`,
//! `oracle-cap`, `seed`) as query parameters, validated
//! through the same `trex_shapley::exec_config_from_knobs` path as the CLI
//! flags. A knob a request leaves unset takes the served session's value
//! (`Session::config`), and `threads` is capped at the session's count.
//! `threads` never changes an answer, only how fast it arrives. A
//! cell explanation's `samples` is capped at [`MAX_SAMPLES`]; a larger
//! budget answers 400 before any work starts.
//!
//! The headline is the **anytime** mode of `GET /explain?kind=cells`:
//! adding `budget_ms=N` (or `stream=1`) switches the response to
//! `Transfer-Encoding: chunked` NDJSON — one JSON line per sampling
//! checkpoint carrying the running Shapley estimates with standard errors
//! and 95% confidence intervals, then one `"final":true` line whose
//! payload is byte-identical to what the batch endpoint would return for
//! the same seed when the run completes within budget. The deadline cuts sampling off at the next checkpoint, and a
//! disconnected client cancels the walk instead of burning the budget.
//!
//! Concurrent explanation requests share the session's bounded
//! `OracleCache`, so coalition repairs computed for one client are hits
//! for the next. A handler that panics (say, inside a black-box repair
//! engine) answers 500 and leaves its worker serving.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use trex::Session;

pub mod http;
pub mod json;
mod routes;

use routes::ServerState;
pub use routes::{DEFAULT_SAMPLES, MAX_SAMPLES};

/// How the server binds and how many requests it works on at once.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads answering requests. Each in-flight explanation may
    /// additionally use its request's `threads` knob internally, up to
    /// the session's own thread count.
    pub http_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            http_threads: 4,
        }
    }
}

/// Connections queued beyond the workers before the server starts
/// shedding load with 503s.
const MAX_PENDING: usize = 1024;

struct WorkQueue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// A running server: its bound address plus shutdown/join control.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    queue: Arc<WorkQueue>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// `http://host:port` for this server.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stop accepting, finish queued work, and join every thread.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() && self.workers.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.queue.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Block until the server stops (it never does on its own) — the CLI's
    /// foreground mode.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start serving `session` per `config`. Returns once the listener is
/// bound; requests are handled on background threads until the handle is
/// shut down or dropped.
pub fn serve(session: Session, config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        session: RwLock::new(session),
    });
    let queue = Arc::new(WorkQueue {
        pending: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    });
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<JoinHandle<()>> = (0..config.http_threads.max(1))
        .map(|i| {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("trex-http-{i}"))
                .spawn(move || worker_loop(&state, &queue, &stop))
                .expect("spawn http worker")
        })
        .collect();

    let accept = {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("trex-accept".to_string())
            .spawn(move || accept_loop(&listener, &queue, &stop))
            .expect("spawn accept loop")
    };

    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
        workers,
        queue,
    })
}

fn accept_loop(listener: &TcpListener, queue: &WorkQueue, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let mut pending = queue.pending.lock().unwrap_or_else(|e| e.into_inner());
        if pending.len() >= MAX_PENDING {
            drop(pending);
            // Shed load without involving a worker: the client gets a
            // clear 503 instead of a timeout.
            let _ = stream.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\ncontent-length: 26\r\nconnection: close\r\n\r\n{\"error\":\"server is busy\"}",
            );
            continue;
        }
        pending.push_back(stream);
        drop(pending);
        queue.ready.notify_one();
    }
}

fn worker_loop(state: &ServerState, queue: &WorkQueue, stop: &AtomicBool) {
    loop {
        let stream = {
            let mut pending = queue.pending.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = pending.pop_front() {
                    break s;
                }
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                pending = queue.ready.wait(pending).unwrap_or_else(|e| e.into_inner());
            }
        };
        routes::handle_connection(state, stream);
    }
}
