//! The per-layer metrics of a `--trace 1` run.
//!
//! Two sources. The server's own request timings come from the
//! per-route `tsx_request_duration_seconds` sums and counts, scraped
//! around the measured phase ([`server_layer`]). Everything below the
//! server comes from an in-process replay of the workload's request
//! sequence on one thread ([`replay`]): the benchmark calls each layer's
//! public entry point itself and records a span around every call — name,
//! start, end, parent and the request it belongs to. Spans stay in
//! memory and are written out as JSON lines when the replay ends. A
//! layer's self time is its spans' time minus the part their children
//! cover; the span name's prefix up to the first `.` names the layer.
//!
//! An explain is replayed twice: once untraced through
//! `SessionRegistry::explain` (which leaves its cube cached), then traced
//! from its parts — `prepare` on that cube, the cube build the untraced
//! call had to do, sketching, the cost matrix and the DP (or the
//! request's other segmenter), one Cascading Analysts call per segment of
//! the answer, and the response's encode and decode. The difference
//! between the parts and the untraced call is reported as `trace.gap_ms`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize, Value};
use tsexplain::{
    AggQuery, CubeConfig, DatasetId, Datum, ExplainRequest, ExplanationCube, IncrementalCube,
    KSelection, ParallelCtx, Relation, Schema, SegmenterSpec, SessionRegistry,
    DEFAULT_REGISTRY_BUDGET,
};
use tsexplain_cube::AppendRow;
use tsexplain_diff::{CascadingAnalysts, TopExplStrategy};
use tsexplain_segment::{k_segmentation_with, select_sketch, SegmentationContext};
use tsexplain_server::wire::{decode_rows, encode_rows, AppendRowsBody, RegisterDataset};

use crate::drive::{Answer, Measured};
use crate::stats::{mean, median};
use crate::workload::{build_relation, Rows, Workload};
use crate::Metrics;

/// Explains replayed with spans per run; covid_stream spreads them
/// evenly over its rounds.
const TRACED_EXPLAINS: usize = 24;
/// At most this many append bodies go through the JSON parser (each
/// liquor day costs ~0.1 s to parse); the rest are applied directly.
const PARSED_APPENDS: usize = 8;
/// At most this many append batches are fed to the cube probe.
const CUBE_APPEND_PROBES: usize = 32;

/// The server's mean handling time per request, by route.
pub struct ServerLayer {
    handle_explain_ms: f64,
    handle_append_ms: f64,
}

/// Reports the server layer: mean handling time per route and what the
/// client saw beyond it (queue wait, socket I/O, client codec). Explains
/// are taken over the measured phase; appends over the measured phase
/// when it has any, else over set-up.
pub fn server_layer(
    m: &mut Metrics,
    measured: &Measured,
    load_append_ms: &[f64],
    explain_ms: &[f64],
) -> ServerLayer {
    let mean_ms = |(seconds, count): (f64, f64)| seconds * 1e3 / count;
    let handle_explain_ms = mean_ms(measured.after.route_since(&measured.before, "explain"));
    let (append_route, client_append_ms) = if measured.appends.is_empty() {
        (
            measured.before.route_since(&Default::default(), "append"),
            mean(load_append_ms),
        )
    } else {
        let ms: Vec<f64> = measured.appends.iter().map(|t| t.ms).collect();
        (
            measured.after.route_since(&measured.before, "append"),
            mean(&ms),
        )
    };
    let handle_append_ms = mean_ms(append_route);
    m.put("server.handle_ms.explain", handle_explain_ms, "ms");
    m.put("server.handle_ms.append", handle_append_ms, "ms");
    m.put(
        "server.outside_ms.explain",
        mean(explain_ms) - handle_explain_ms,
        "ms",
    );
    m.put(
        "server.outside_ms.append",
        client_append_ms - handle_append_ms,
        "ms",
    );
    let count = |key| measured.after.total_since(&measured.before, key);
    m.put("core.cube_builds", count("cubes_built"), "count");
    m.put("core.cache_hits", count("cube_cache_hits"), "count");
    m.put("core.evictions", count("cube_evictions"), "count");
    ServerLayer {
        handle_explain_ms,
        handle_append_ms,
    }
}

/// One recorded span.
struct Span {
    name: &'static str,
    request: Option<usize>,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, request: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
        self.open.retain(|&open| open != id);
    }

    /// Runs `f` inside a span.
    fn time<T>(&mut self, name: &'static str, request: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let value = f();
        self.end(id);
        value
    }

    /// Durations of every span called `name`.
    fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer of the children of root span `root`.
    fn layer_self_ms(&self, root: usize, layer: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer() == layer && self.is_under(s, root))
            .map(|(id, s)| s.ms() - self.children_ms(id))
            .fold(0.0, |sum, ms| sum + ms)
    }

    fn is_under(&self, span: &Span, root: usize) -> bool {
        let mut parent = span.parent;
        while let Some(p) = parent {
            if p == root {
                return true;
            }
            parent = self.spans[p].parent;
        }
        false
    }

    fn children_ms(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum()
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                opt(s.request),
                opt(s.parent),
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One replayed explain's untraced time and traced root span.
struct ExplainTrace {
    root: usize,
    untraced_ms: f64,
}

/// The replay's state: one registry holding the workload's tenant.
struct Replay<'w> {
    w: &'w Workload,
    tracer: Tracer,
    registry: SessionRegistry,
    id: DatasetId,
    next_request: usize,
    explains: Vec<ExplainTrace>,
    /// The tenant's rows so far, for the cube builds the replay times.
    rows: Rows,
    relation: Option<Relation>,
    /// The first traced explain's cube and request, for the probes.
    first_cube: Option<(ExplanationCube, ExplainRequest)>,
}

/// Replays the workload in process with spans and reports the per-layer
/// metrics below the server.
pub fn replay(
    m: &mut Metrics,
    w: &Workload,
    answers: &[Answer],
    server: &ServerLayer,
    out: &Path,
    seed: u64,
) -> Result<(), String> {
    let budget = w.budget_mb.map_or(DEFAULT_REGISTRY_BUDGET, |mb| mb << 20);
    let mut r = Replay::register(w, SessionRegistry::with_memory_budget(budget))?;
    let parse_every = w.all_appends().count().div_ceil(PARSED_APPENDS).max(1);
    let mut appended = 0;
    for batch in &w.load_appends {
        r.append(batch, appended % parse_every == 0)?;
        appended += 1;
    }
    for request in &w.warm {
        r.explain(request, false)?;
    }
    if w.stream.is_empty() {
        // The two clients' requests in the order they alternate at the
        // tenant lock.
        for i in 0..TRACED_EXPLAINS {
            let request = w.request(i % 2, i / 2);
            r.explain(request, true)?;
        }
    } else {
        let stride = w.stream.len().div_ceil(TRACED_EXPLAINS).max(1);
        for (round, batch) in w.stream.iter().enumerate() {
            if round % stride == 0 {
                let request = w.request(0, round);
                r.explain(request, true)?;
            }
            r.append(batch, appended % parse_every == 0)?;
            appended += 1;
        }
    }

    let relation_build_ms = r.relation_build_ms()?;
    let cube_append_ms = r.cube_append_ms()?;
    let t = &r.tracer;
    let json_parse_append = mean(&t.ms_of("json.parse_append"));
    let core_append = mean(&t.ms_of("core.append"));
    m.put(
        "json.parse_ms.register",
        mean(&t.ms_of("json.parse_register")),
        "ms",
    );
    m.put("json.parse_ms.append", json_parse_append, "ms");
    m.put(
        "json.parse_ms.response",
        mean(&t.ms_of("json.parse_response")),
        "ms",
    );
    m.put(
        "json.encode_ms.response",
        mean(&t.ms_of("json.encode_response")),
        "ms",
    );
    let bytes = body_bytes(w, answers);
    m.put("json.bytes.register", bytes.0, "bytes");
    m.put("json.bytes.append", bytes.1, "bytes");
    m.put("json.bytes.response", bytes.2, "bytes");
    m.put("relation.build_ms", relation_build_ms, "ms");
    m.put("core.append_ms", core_append, "ms");
    m.put(
        "core.prepare_hit_us",
        mean(&t.ms_of("core.prepare")) * 1e3,
        "us",
    );
    m.put(
        "core.lock_wait_ms.append",
        server.handle_append_ms - json_parse_append - core_append,
        "ms",
    );
    m.put("cube.build_ms", mean(&t.ms_of("cube.build")), "ms");
    m.put("cube.append_us", cube_append_ms * 1e3, "us");
    let (cube, request) = r.first_cube.take().ok_or("no explain was traced")?;
    m.put("cube.bytes", cube.approx_bytes() as f64, "bytes");
    m.put(
        "diff.top_m_us",
        mean(&r.tracer.ms_of("diff.top_m")) * 1e3,
        "us",
    );
    m.put("diff.derivations", derivations(answers), "count");
    let (cost_ms, dp_ms, speedup) = dp_probe(&cube, &request);
    let traced_cost = r.tracer.ms_of("segment.cost_matrix");
    let (cost_ms, dp_ms) = if traced_cost.is_empty() {
        // No DP request in the mix: one DP pass on the workload's cube.
        (cost_ms, dp_ms)
    } else {
        (mean(&traced_cost), mean(&r.tracer.ms_of("segment.dp")))
    };
    m.put("segment.cost_matrix_ms", cost_ms, "ms");
    m.put("segment.dp_ms", dp_ms, "ms");
    m.put(
        "segment.candidate_positions",
        stat_mean(answers, |v| {
            v.get("stats")?.get("candidate_positions")?.as_f64()
        }),
        "count",
    );
    m.put("parallel.cost_matrix_speedup", speedup, "x");

    // Self time per explain, by layer, and what the parts miss.
    let (t, traced) = (&r.tracer, &r.explains);
    let by_layer: Vec<(&str, f64)> = ["json", "core", "cube", "segment", "diff"]
        .into_iter()
        .map(|layer| {
            let ms: Vec<f64> = traced
                .iter()
                .map(|e| t.layer_self_ms(e.root, layer))
                .collect();
            (layer, mean(&ms))
        })
        .collect();
    // The cube layer's share is left to the printed table and the span
    // file: on the covid workloads no explain builds a cube, so it would
    // read exactly 0 on every run.
    for (layer, value) in &by_layer {
        let name = match *layer {
            "json" => "trace.explain_self_ms.json",
            "core" => "trace.explain_self_ms.core",
            "segment" => "trace.explain_self_ms.segment",
            "diff" => "trace.explain_self_ms.diff",
            _ => continue,
        };
        m.put(name, *value, "ms");
    }
    let untraced: Vec<f64> = traced.iter().map(|e| e.untraced_ms).collect();
    let gap: Vec<f64> = traced
        .iter()
        .map(|e| {
            ["core", "cube", "segment", "diff"]
                .iter()
                .map(|layer| t.layer_self_ms(e.root, layer))
                .sum::<f64>()
                - e.untraced_ms
        })
        .collect();
    m.put("trace.untraced_explain_ms", mean(&untraced), "ms");
    m.put(
        "core.lock_wait_ms.explain",
        server.handle_explain_ms - mean(&untraced) - mean(&t.ms_of("json.encode_response")),
        "ms",
    );
    m.put("trace.gap_ms", mean(&gap), "ms");

    let dominant = by_layer
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(layer, _)| layer);
    let layers: Vec<String> = by_layer
        .iter()
        .map(|(layer, ms)| format!("{layer} {ms:.2}"))
        .collect();
    println!(
        "{}: explain self time by layer (ms): {}; dominant: {dominant}",
        w.name.as_str(),
        layers.join(", ")
    );
    println!(
        "{}: append handled in {:.3} ms, of which json {:.3} ms and core {:.3} ms uncontended",
        w.name.as_str(),
        server.handle_append_ms,
        json_parse_append,
        core_append
    );
    println!(
        "{}: explain handled in {:.3} ms on the server, {:.3} ms untraced in process",
        w.name.as_str(),
        server.handle_explain_ms,
        mean(&untraced),
    );
    let path = out.join(format!("trace-{}-seed{seed}.jsonl", w.name.as_str()));
    r.tracer.write_jsonl(&path)
}

impl<'w> Replay<'w> {
    /// Replays the registering POST: its body through the JSON parser,
    /// the relation build, and the registry's register.
    fn register(w: &'w Workload, registry: SessionRegistry) -> Result<Replay<'w>, String> {
        let body = RegisterDataset {
            schema: w.schema.clone(),
            query: w.query.clone(),
            rows: encode_rows(&w.register),
        };
        let text = to_json(&body.serialize())?;
        let mut tracer = Tracer::new();
        let root = tracer.begin("request.register", Some(0));
        let spec = tracer.time("json.parse_register", Some(0), || {
            serde_json::from_str::<Value>(&text).and_then(|v| RegisterDataset::deserialize(&v))
        });
        let spec = spec.map_err(|e| e.to_string())?;
        let relation = tracer.time("relation.build", Some(0), || {
            decode_relation(&spec.schema, &spec.rows)
        })?;
        let id = tracer
            .time("core.register", Some(0), || {
                registry.register(relation, spec.query)
            })
            .map_err(|e| e.to_string())?;
        tracer.end(root);
        Ok(Replay {
            w,
            tracer,
            registry,
            id,
            next_request: 1,
            explains: Vec::new(),
            rows: w.register.clone(),
            relation: None,
            first_cube: None,
        })
    }

    /// Replays one append; `parse` sends its body through the JSON parser
    /// and the row decoder first.
    fn append(&mut self, batch: &Rows, parse: bool) -> Result<(), String> {
        let rid = Some(self.next_request);
        self.next_request += 1;
        let root = self.tracer.begin("request.append", rid);
        let rows = if parse {
            let text = to_json(
                &AppendRowsBody {
                    rows: encode_rows(batch),
                }
                .serialize(),
            )?;
            let spec = self.tracer.time("json.parse_append", rid, || {
                serde_json::from_str::<Value>(&text).and_then(|v| AppendRowsBody::deserialize(&v))
            });
            let spec = spec.map_err(|e| e.to_string())?;
            let schema = &self.w.schema;
            self.tracer
                .time("relation.decode", rid, || decode_rows(schema, &spec.rows))
                .map_err(|e| e.message)?
        } else {
            batch.clone()
        };
        let (registry, id) = (&self.registry, self.id);
        self.tracer
            .time("core.append", rid, || registry.append_rows(id, rows))
            .map_err(|e| e.to_string())?;
        self.tracer.end(root);
        self.rows.extend(batch.iter().cloned());
        self.relation = None;
        Ok(())
    }

    /// Replays one explain: untraced through the registry, then — when
    /// `traced` — once more from its parts with spans.
    fn explain(&mut self, request: &ExplainRequest, traced: bool) -> Result<(), String> {
        let builds_before = self.registry.stats().totals.cubes_built;
        let started = Instant::now();
        let result = self
            .registry
            .explain(self.id, request)
            .map_err(|e| e.to_string())?;
        let untraced_ms = started.elapsed().as_secs_f64() * 1e3;
        let built = self.registry.stats().totals.cubes_built > builds_before;
        let rid = Some(self.next_request);
        self.next_request += 1;
        let text = to_json(&request.serialize())?;
        let tr = &mut self.tracer;
        let root = traced.then(|| tr.begin("request.explain", rid));
        let parsed = tr.time("json.parse_request", rid, || {
            serde_json::from_str::<Value>(&text).and_then(|v| ExplainRequest::deserialize(&v))
        });
        let request = parsed.map_err(|e| e.to_string())?;
        if built {
            // The build the untraced call did, timed on its own.
            let relation = match self.relation.take() {
                Some(relation) => relation,
                None => build_relation(&self.w.schema, &self.rows)?,
            };
            let config = cube_config(&request);
            let par = request.parallel_ctx();
            let query = &self.w.query;
            tr.time("cube.build", rid, || {
                ExplanationCube::build_with(&relation, query, &config, &par)
            })
            .map_err(|e| e.to_string())?;
            self.relation = Some(relation);
        }
        let Some(root) = root else {
            return Ok(());
        };
        let (registry, id) = (&self.registry, self.id);
        let prepared = tr
            .time("core.prepare", rid, || registry.prepare(id, &request))
            .map_err(|e| e.to_string())?;
        let cube = prepared.cube();
        let par = request.parallel_ctx();
        let optimizations = request.optimizations();
        let strategy = match optimizations.guess_and_verify {
            Some(initial_guess) => TopExplStrategy::GuessVerify { initial_guess },
            None => TopExplStrategy::Exact,
        };
        let mut ctx = SegmentationContext::new(
            cube,
            request.diff_metric(),
            request.top_m(),
            strategy,
            request.variance_metric(),
        )
        .with_parallel(par.clone());
        let spec = request.segmenter();
        let positions: Vec<usize> = match optimizations
            .sketching
            .filter(|_| spec.uses_candidate_positions())
        {
            Some(sketch) => tr.time("segment.sketch", rid, || select_sketch(&mut ctx, &sketch)),
            None => (0..cube.n_points()).collect(),
        };
        if matches!(spec, SegmenterSpec::Dp) {
            let costs = tr.time("segment.cost_matrix", rid, || {
                ctx.compute_costs(&positions, None)
            });
            let k_cap = match request.k_selection() {
                KSelection::Auto { max_k } => max_k.min(positions.len() - 1).max(1),
                KSelection::Fixed(k) => k,
            };
            tr.time("segment.dp", rid, || {
                k_segmentation_with(&costs, k_cap, &par)
            });
        } else {
            tr.time("segment.segmenter", rid, || {
                spec.build()
                    .segment(&mut ctx, &positions, request.k_selection())
            })
            .map_err(|e| e.to_string())?;
        }
        for seg in result.segmentation.segments() {
            let mut analysts = CascadingAnalysts::new(cube, request.diff_metric(), request.top_m());
            tr.time("diff.top_m", rid, || analysts.top_m(seg));
        }
        let encoded = tr.time("json.encode_response", rid, || {
            serde_json::to_string(&result.serialize())
        });
        let encoded = encoded.map_err(|e| e.to_string())?;
        tr.time("json.parse_response", rid, || {
            serde_json::from_str::<Value>(&encoded)
        })
        .map_err(|e| e.to_string())?;
        tr.end(root);
        self.explains.push(ExplainTrace { root, untraced_ms });
        if self.first_cube.is_none() {
            self.first_cube = Some((cube.clone(), request));
        }
        Ok(())
    }

    /// The relation layer's build of the tenant's whole row set from its
    /// wire rows, as a registration of everything loaded would do it.
    fn relation_build_ms(&mut self) -> Result<f64, String> {
        let wire = encode_rows(&self.w.loaded_rows());
        let schema = &self.w.schema;
        self.tracer.time("relation.build_loaded", None, || {
            decode_relation(schema, &wire)
        })?;
        Ok(mean(&self.tracer.ms_of("relation.build_loaded")))
    }

    /// `IncrementalCube::append_batch` over the workload's append batches
    /// (up to [`CUBE_APPEND_PROBES`], evenly spaced), on the cube of the
    /// first mix request seeded from the registered rows: the median ms.
    fn cube_append_ms(&mut self) -> Result<f64, String> {
        let w = self.w;
        let request = &w.mix[0];
        let config = cube_config(request);
        let par = request.parallel_ctx();
        let mut cube = if w.register.is_empty() {
            IncrementalCube::empty(&w.query, &config)
        } else {
            IncrementalCube::from_relation_with(
                &build_relation(&w.schema, &w.register)?,
                &w.query,
                &config,
                &par,
            )
        }
        .map_err(|e| e.to_string())?;
        let batches: Vec<&Rows> = w.all_appends().collect();
        let every = batches.len().div_ceil(CUBE_APPEND_PROBES).max(1);
        for batch in batches.iter().step_by(every) {
            let encoded = encode_append(&w.schema, &w.query, &config.explain_by, batch)?;
            self.tracer
                .time("cube.append", None, || cube.append_batch(&encoded))
                .map_err(|e| e.to_string())?;
        }
        Ok(median(&self.tracer.ms_of("cube.append")))
    }
}

/// One DP pass (cost matrix, then the DP) on `cube` for `request`'s
/// metrics, at two threads, plus the cost matrix's one-thread time over
/// its two-thread time.
fn dp_probe(cube: &ExplanationCube, request: &ExplainRequest) -> (f64, f64, f64) {
    let positions: Vec<usize> = (0..cube.n_points()).collect();
    let cost_ms = |threads: usize| {
        let mut ctx = SegmentationContext::new(
            cube,
            request.diff_metric(),
            request.top_m(),
            TopExplStrategy::Exact,
            request.variance_metric(),
        )
        .with_parallel(ParallelCtx::new(threads));
        let t = Instant::now();
        let costs = ctx.compute_costs(&positions, None);
        (t.elapsed().as_secs_f64() * 1e3, costs)
    };
    let (one, _) = cost_ms(1);
    let (two, costs) = cost_ms(2);
    let t = Instant::now();
    k_segmentation_with(&costs, 20.min(positions.len() - 1), &ParallelCtx::new(2));
    let dp_ms = t.elapsed().as_secs_f64() * 1e3;
    (two, dp_ms, one / two)
}

/// The cube configuration the session derives from a request.
fn cube_config(request: &ExplainRequest) -> CubeConfig {
    let mut config =
        CubeConfig::new(request.explain_by().iter().cloned()).with_max_order(request.max_order());
    config.filter_ratio = request.optimizations().filter_ratio;
    config
}

/// The relation a registration's wire rows decode into.
fn decode_relation(schema: &Schema, wire: &[Value]) -> Result<Relation, String> {
    let rows = decode_rows(schema, wire).map_err(|e| e.message)?;
    build_relation(schema, &rows)
}

/// Rows as the cube's append input: timestamp, explain-by values, measure.
fn encode_append(
    schema: &Schema,
    query: &AggQuery,
    explain_by: &[String],
    rows: &Rows,
) -> Result<Vec<AppendRow>, String> {
    let index = |name: &str| schema.index_of(name).map_err(|e| e.to_string());
    let time = index(query.time_attr())?;
    let attrs: Vec<usize> = explain_by
        .iter()
        .map(|a| index(a))
        .collect::<Result<_, _>>()?;
    let attr = |row: &[Datum], i: usize| match &row[i] {
        Datum::Attr(v) => Ok(v.clone()),
        Datum::Num(_) => Err("a dimension holds a number".to_string()),
    };
    rows.iter()
        .map(|row| {
            let values = attrs
                .iter()
                .map(|&i| attr(row, i))
                .collect::<Result<Vec<_>, _>>()?;
            let measure = query
                .measure()
                .eval_row(schema, row)
                .map_err(|e| e.to_string())?;
            Ok((attr(row, time)?, values, measure))
        })
        .collect()
}

fn to_json(value: &Value) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

/// Mean request body sizes: the register, the appends, the explain
/// responses.
fn body_bytes(w: &Workload, answers: &[Answer]) -> (f64, f64, f64) {
    let size = |v: &Value| to_json(v).map_or(0.0, |s| s.len() as f64);
    let register = RegisterDataset {
        schema: w.schema.clone(),
        query: w.query.clone(),
        rows: encode_rows(&w.register),
    };
    let appends: Vec<f64> = w
        .all_appends()
        .map(|batch| {
            size(
                &AppendRowsBody {
                    rows: encode_rows(batch),
                }
                .serialize(),
            )
        })
        .collect();
    let responses: Vec<f64> = answers
        .iter()
        .filter_map(|a| a.response.as_ref().ok())
        .map(size)
        .collect();
    (
        size(&register.serialize()),
        mean(&appends),
        mean(&responses),
    )
}

/// Top-m derivations actually computed per answer: Cascading Analysts
/// calls minus the memo hits that answered without one.
fn derivations(answers: &[Answer]) -> f64 {
    stat_mean(answers, |v| {
        let calls = v.get("stats")?.get("ca_calls")?.as_f64()?;
        let hits = v.get("latency")?.get("memo")?.get("hits")?.as_f64()?;
        Some(calls - hits)
    })
}

fn stat_mean(answers: &[Answer], f: impl Fn(&Value) -> Option<f64>) -> f64 {
    let values: Vec<f64> = answers
        .iter()
        .filter_map(|a| a.response.as_ref().ok())
        .filter_map(&f)
        .collect();
    mean(&values)
}
