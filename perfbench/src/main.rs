//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --server PATH --workload covid_warm|liquor_cold|covid_stream
//!           [--seed N] [--seconds S] [--trace 0|1] [--data-seed N] [--out DIR]
//! ```
//!
//! Starts `tsx-server` (`--workers 2 --threads 2`) as a child process,
//! loads the workload's dataset through the HTTP API, drives the
//! measured phase from at most two client threads, checks every answer
//! against the library's in-process result and the registry counters,
//! and prints one JSON object as its last line of output.
//!
//! With `--trace 0` it reports the end-to-end metrics, set-up timed over
//! several set-ups. With `--trace 1` it sets up once and reports the
//! per-layer metrics: the server's own request timings, scraped around
//! the measured phase, and a traced in-process replay of the workload's
//! requests (see `traced.rs`), whose spans are written to `--out`.
//!
//! `--seed` picks where each client starts in the explain mix;
//! `--data-seed` (default 0) seeds the covid and liquor generators. The
//! server receives only the generated rows.

mod drive;
mod oracle;
mod server;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use crate::drive::{Answer, Measured, Setup};
use crate::oracle::Oracle;
use crate::stats::{mean, median, quantile};
use crate::workload::{Name, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    server: PathBuf,
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
    data_seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut data_seed) = (0, 12, false, 0);
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(Name::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--data-seed" => data_seed = number()?,
            "--out" => out = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        data_seed,
        out,
    })
}

/// The metrics object of the result line, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_value(&self) -> Value {
        Value::object(self.0.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Value::object([
                    ("value", Value::Number(*value)),
                    ("unit", Value::String(unit.to_string())),
                ]),
            )
        }))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = Workload::new(args.workload, args.data_seed, args.seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut load_append_ms = Vec::new();
    let mut attempted = 0;
    let mut answers: Vec<Answer> = Vec::new();
    let mut live: Option<Setup> = None;
    for _ in 0..reps {
        // The previous set-up's server is stopped before the next spawns.
        drop(live.take());
        let setup = drive::set_up(&args.server, &w)?;
        setup_s.push(setup.seconds);
        load_append_ms.extend_from_slice(&setup.append_ms);
        attempted += setup.attempted;
        live = Some(setup);
    }
    let mut setup = live.expect("at least one set-up");
    answers.append(&mut setup.answers);

    let mut measured = drive::measure(&setup, &w, args.seconds)?;
    let peak_rss_mb = setup.server.peak_rss_mb()?;
    drop(setup.server);
    attempted += measured.explains.len() + measured.appends.len();

    // Failed explains (errors or wrong answers) are counted by the
    // oracle; failed appends here.
    answers.append(&mut measured.answers);
    let failed = Oracle::new(&w)?.count_failures(&answers)?
        + measured.appends.iter().filter(|t| !t.ok).count();
    let checks = self_checks(&w, &measured);
    for problem in &checks {
        eprintln!("perfbench: self-check failed: {problem}");
    }

    let explain_ms: Vec<f64> = measured.explains.iter().map(|t| t.ms).collect();
    let mut metrics = Metrics::default();
    if args.trace {
        let server = traced::server_layer(&mut metrics, &measured, &load_append_ms, &explain_ms);
        traced::replay(&mut metrics, &w, &answers, &server, &args.out, args.seed)?;
    } else {
        let append_ms: Vec<f64> = if measured.appends.is_empty() {
            load_append_ms.clone()
        } else {
            measured.appends.iter().map(|t| t.ms).collect()
        };
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("explain_p50_ms", quantile(&explain_ms, 0.5), "ms");
        metrics.put("explain_p90_ms", quantile(&explain_ms, 0.9), "ms");
        metrics.put(
            "explain_rps",
            explain_ms.len() as f64 / measured.seconds,
            "1/s",
        );
        metrics.put("append_p50_ms", quantile(&append_ms, 0.5), "ms");
        metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
        println!(
            "{}: {} explains in {:.2} s (mean {:.2} ms), {} appends, set-ups {:?} s",
            w.name.as_str(),
            explain_ms.len(),
            measured.seconds,
            mean(&explain_ms),
            append_ms.len(),
            setup_s,
        );
    }

    let result = Value::object([
        ("correct", Value::Bool(failed == 0 && checks.is_empty())),
        ("attempted", Value::Number(attempted as f64)),
        ("failed", Value::Number(failed as f64)),
        ("metrics", metrics.to_value()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// The registry counters each workload must show, or it has stopped
/// exercising the layer it was chosen for.
fn self_checks(w: &Workload, m: &Measured) -> Vec<String> {
    let mut problems = Vec::new();
    let explains = m.explains.len() as f64;
    let built = m.after.totals.get("cubes_built").copied().unwrap_or(0.0);
    let hits = m.after.total_since(&m.before, "cube_cache_hits");
    match w.name {
        Name::CovidWarm => {
            if built != 1.0 {
                problems.push(format!("covid_warm built {built} cubes, not 1"));
            }
            if hits != explains {
                problems.push(format!(
                    "covid_warm: {hits} cache hits for {explains} explains"
                ));
            }
        }
        Name::LiquorCold => {
            let measured_builds = m.after.total_since(&m.before, "cubes_built");
            if measured_builds != explains || hits != 0.0 {
                problems.push(format!(
                    "liquor_cold: {measured_builds} builds and {hits} hits for {explains} explains"
                ));
            }
        }
        Name::CovidStream => {
            let planned: usize = w.stream.iter().map(Vec::len).sum();
            let appended = m.after.total_since(&m.before, "rows_appended");
            if appended != planned as f64 {
                problems.push(format!(
                    "covid_stream appended {appended} of {planned} rows"
                ));
            }
            let want = tsexplain_datagen::covid::N_DAYS;
            if m.final_points != Some(want) {
                problems.push(format!(
                    "covid_stream ended at {:?} points, not {want}",
                    m.final_points
                ));
            }
        }
    }
    problems
}
