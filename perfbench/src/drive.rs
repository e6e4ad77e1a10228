//! The HTTP side of a run: set-up (spawn, load, warm) and the measured
//! phase, closed-loop or lockstep, from one process with at most two
//! threads and two connections.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use serde::Value;
use tsexplain::ExplainRequest;
use tsexplain_server::Client;

use crate::server::{Scrape, ServerProcess};
use crate::workload::Workload;

/// How long after a lockstep round's explain its append is sent: long
/// enough that the explain reliably holds the tenant lock first.
const APPEND_DELAY: Duration = Duration::from_millis(5);

/// One explain answer, kept for the correctness check.
#[derive(Clone)]
pub struct Answer {
    /// Stream batches applied before the request was sent (0 outside
    /// covid_stream's measured rounds).
    pub state: usize,
    pub request: ExplainRequest,
    /// The response document, or the error that replaced it.
    pub response: Result<Value, String>,
}

/// One timed request of the measured phase.
pub struct Timed {
    pub ms: f64,
    pub ok: bool,
}

/// A finished set-up: the live server with its dataset loaded and warm.
pub struct Setup {
    pub server: ServerProcess,
    pub dataset: u64,
    pub seconds: f64,
    /// Client-observed latency of each set-up append.
    pub append_ms: Vec<f64>,
    pub answers: Vec<Answer>,
    pub attempted: usize,
}

/// Spawns a server and loads and warms the workload's dataset through
/// the HTTP API, timed from the spawn.
pub fn set_up(binary: &Path, w: &Workload) -> Result<Setup, String> {
    let started = Instant::now();
    let server = ServerProcess::spawn(binary, w.budget_mb)?;
    let mut client = Client::new(server.addr);
    let dataset = client
        .register(&w.schema, &w.query, &w.register)
        .map_err(|e| format!("register: {e}"))?
        .dataset_id;
    let mut append_ms = Vec::with_capacity(w.load_appends.len());
    for (i, batch) in w.load_appends.iter().enumerate() {
        let t = Instant::now();
        client
            .append_rows(dataset, batch)
            .map_err(|e| format!("set-up append {i}: {e}"))?;
        append_ms.push(ms(t.elapsed()));
    }
    let answers: Vec<Answer> = w
        .warm
        .iter()
        .map(|request| Answer {
            state: 0,
            request: request.clone(),
            response: client
                .explain_value(dataset, request)
                .map_err(|e| e.to_string()),
        })
        .collect();
    Ok(Setup {
        server,
        dataset,
        seconds: started.elapsed().as_secs_f64(),
        append_ms,
        attempted: 1 + w.load_appends.len() + answers.len(),
        answers,
    })
}

/// What the measured phase produced.
#[derive(Default)]
pub struct Measured {
    pub seconds: f64,
    pub explains: Vec<Timed>,
    pub appends: Vec<Timed>,
    pub answers: Vec<Answer>,
    /// `n_points` of the last append acknowledgement.
    pub final_points: Option<usize>,
    pub before: Scrape,
    pub after: Scrape,
}

/// Runs the measured phase against a set-up server: covid_stream's
/// lockstep rounds, or two closed-loop clients for `seconds`.
pub fn measure(setup: &Setup, w: &Workload, seconds: u64) -> Result<Measured, String> {
    let mut probe = Client::new(setup.server.addr);
    let before = Scrape::take(&mut probe)?;
    let started = Instant::now();
    let mut measured = if w.stream.is_empty() {
        closed_loop(setup, w, Duration::from_secs(seconds))
    } else {
        lockstep(setup, w)
    };
    measured.seconds = started.elapsed().as_secs_f64();
    measured.before = before;
    measured.after = Scrape::take(&mut probe)?;
    Ok(measured)
}

/// Two clients, one connection each, each sending its next explain as
/// soon as the previous one is answered, until the deadline.
fn closed_loop(setup: &Setup, w: &Workload, length: Duration) -> Measured {
    let deadline = Instant::now() + length;
    let per_client: Vec<(Vec<Timed>, Vec<Answer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(setup.server.addr);
                    let (mut timed, mut answers) = (Vec::new(), Vec::new());
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let request = w.request(c, i);
                        let t = Instant::now();
                        let response = client.explain_value(setup.dataset, request);
                        timed.push(Timed {
                            ms: ms(t.elapsed()),
                            ok: response.is_ok(),
                        });
                        answers.push(Answer {
                            state: 0,
                            request: request.clone(),
                            response: response.map_err(|e| e.to_string()),
                        });
                        i += 1;
                    }
                    (timed, answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut measured = Measured::default();
    for (explains, answers) in per_client {
        measured.explains.extend(explains);
        measured.answers.extend(answers);
    }
    measured
}

/// covid_stream's rounds: each round sends one explain, then — a fixed
/// delay later, on the second connection — the round's append, so the
/// append arrives while the explain holds the tenant lock.
fn lockstep(setup: &Setup, w: &Workload) -> Measured {
    let rounds = w.stream.len();
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let barrier = &barrier;
        let reader = scope.spawn(move || {
            let mut client = Client::new(setup.server.addr);
            let (mut timed, mut answers) = (Vec::new(), Vec::new());
            for round in 0..rounds {
                let request = w.request(0, round);
                barrier.wait();
                let t = Instant::now();
                let response = client.explain_value(setup.dataset, request);
                timed.push(Timed {
                    ms: ms(t.elapsed()),
                    ok: response.is_ok(),
                });
                answers.push(Answer {
                    state: round,
                    request: request.clone(),
                    response: response.map_err(|e| e.to_string()),
                });
            }
            (timed, answers)
        });
        let writer = scope.spawn(move || {
            let mut client = Client::new(setup.server.addr);
            let mut timed = Vec::new();
            let mut last_points = None;
            for batch in &w.stream {
                barrier.wait();
                std::thread::sleep(APPEND_DELAY);
                let t = Instant::now();
                let ack = client.append_rows(setup.dataset, batch);
                timed.push(Timed {
                    ms: ms(t.elapsed()),
                    ok: ack.is_ok(),
                });
                last_points = ack.ok().map(|a| a.n_points);
            }
            (timed, last_points)
        });
        let (explains, answers) = reader.join().expect("explain thread panicked");
        let (appends, final_points) = writer.join().expect("append thread panicked");
        Measured {
            explains,
            appends,
            answers,
            final_points,
            ..Measured::default()
        }
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
