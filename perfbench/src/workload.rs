//! The three workloads: which rows each loads, in which batches, and the
//! explain mix it measures. The HTTP run, the in-process oracle and the
//! traced replay all read the same [`Workload`], so they send the same
//! rows in the same order.

use tsexplain::{DiffMetric, ExplainRequest, SegmenterSpec};
use tsexplain_datagen::{covid, liquor};
use tsexplain_relation::{AggQuery, Column, Datum, Relation, Schema};

/// Raw rows in schema order.
pub type Rows = Vec<Vec<Datum>>;

/// Days of covid registered in covid_warm's one POST; the rest arrive in
/// appends of [`COVID_WARM_APPEND_DAYS`] days each.
const COVID_WARM_REGISTER_DAYS: usize = 300;
const COVID_WARM_APPEND_DAYS: usize = 5;
/// Days of covid registered before covid_stream's measured rounds.
const COVID_STREAM_REGISTER_DAYS: usize = 172;
/// liquor_cold's cube budget: below the smallest 3-attribute liquor cube,
/// so no cube survives the next request for another key.
const LIQUOR_BUDGET_MB: usize = 16;

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    CovidWarm,
    LiquorCold,
    CovidStream,
}

impl Name {
    pub fn parse(name: &str) -> Option<Name> {
        match name {
            "covid_warm" => Some(Name::CovidWarm),
            "liquor_cold" => Some(Name::LiquorCold),
            "covid_stream" => Some(Name::CovidStream),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::CovidWarm => "covid_warm",
            Name::LiquorCold => "liquor_cold",
            Name::CovidStream => "covid_stream",
        }
    }
}

/// One workload's inputs, generated from the data seed and the run seed.
pub struct Workload {
    pub name: Name,
    pub schema: Schema,
    pub query: AggQuery,
    /// Rows of the registering `POST /datasets`.
    pub register: Rows,
    /// Batches appended during set-up, in order, before any explain.
    pub load_appends: Vec<Rows>,
    /// Explains sent at the end of set-up to warm the cube cache.
    pub warm: Vec<ExplainRequest>,
    /// The measured explain mix.
    pub mix: Vec<ExplainRequest>,
    /// Each client's cycle of positions in `mix`, starting where the run
    /// seed says.
    pub cycles: [Vec<usize>; 2],
    /// covid_stream only: the batch appended in each lockstep round.
    pub stream: Vec<Rows>,
    /// `--budget-mb` for the server, when the workload needs one.
    pub budget_mb: Option<usize>,
}

impl Workload {
    pub fn new(name: Name, data_seed: u64, seed: u64) -> Workload {
        match name {
            Name::CovidWarm => covid_warm(data_seed, seed),
            Name::LiquorCold => liquor_cold(data_seed, seed),
            Name::CovidStream => covid_stream(data_seed, seed),
        }
    }

    /// The tenant's rows after set-up, in ingestion order.
    pub fn loaded_rows(&self) -> Rows {
        let mut rows = self.register.clone();
        rows.extend(self.load_appends.iter().flatten().cloned());
        rows
    }

    /// Every append of the workload, set-up and measured, in order.
    pub fn all_appends(&self) -> impl Iterator<Item = &Rows> {
        self.load_appends.iter().chain(&self.stream)
    }

    /// The `i`-th request client `c` sends in the measured phase.
    pub fn request(&self, client: usize, i: usize) -> &ExplainRequest {
        let cycle = &self.cycles[client];
        &self.mix[cycle[i % cycle.len()]]
    }
}

/// covid total confirmed cases, explained by state, DP segmentation in
/// every shape: auto-K, fixed K 3 and 5, top-m 2, top-m 1 with relative
/// change, smoothing 7.
fn covid_dp_mix() -> Vec<ExplainRequest> {
    let base = ExplainRequest::new(["state"]);
    vec![
        base.clone(),
        base.clone().with_fixed_k(3),
        base.clone().with_fixed_k(5),
        base.clone().with_top_m(2),
        base.clone()
            .with_top_m(1)
            .with_diff_metric(DiffMetric::RelativeChange),
        base.with_smoothing(7),
    ]
}

/// One warm-up explain per distinct smoothing window of `mix`, so every
/// finalized cube snapshot the mix reads exists before measuring.
fn warm_for(mix: &[ExplainRequest]) -> Vec<ExplainRequest> {
    let mut warm: Vec<ExplainRequest> = Vec::new();
    for request in mix {
        if warm
            .iter()
            .all(|w| w.smoothing_window() != request.smoothing_window())
        {
            warm.push(request.clone());
        }
    }
    warm
}

fn covid_warm(data_seed: u64, seed: u64) -> Workload {
    let data = covid::generate(data_seed).total_workload();
    let mut days = rows_by_day(&data.relation);
    let appends = days
        .split_off(COVID_WARM_REGISTER_DAYS)
        .chunks(COVID_WARM_APPEND_DAYS)
        .map(|chunk| chunk.concat())
        .collect();
    let mix = covid_dp_mix();
    let first = (seed % 12) as usize;
    Workload {
        name: Name::CovidWarm,
        schema: data.relation.schema().clone(),
        query: data.query,
        register: days.into_iter().flatten().collect(),
        load_appends: appends,
        warm: warm_for(&mix),
        cycles: [
            rotation(mix.len(), first),
            rotation(mix.len(), first + mix.len() / 2),
        ],
        mix,
        stream: Vec::new(),
        budget_mb: None,
    }
}

fn liquor_cold(data_seed: u64, seed: u64) -> Workload {
    let data = liquor::generate(data_seed).workload();
    // The four 3-attribute explain-by sets, each its own cube key.
    let attrs = &data.explain_by;
    assert_eq!(attrs.len(), 4, "liquor has four explain-by attributes");
    let mix: Vec<ExplainRequest> = (0..attrs.len())
        .map(|skip| {
            let by: Vec<&str> = attrs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, a)| a.as_str())
                .collect();
            ExplainRequest::new(by).with_segmenter(SegmenterSpec::BottomUp)
        })
        .collect();
    // Each client alternates between two keys of its own (client 0 the
    // two largest cubes, client 1 the two smallest), so however the two
    // interleave at the tenant lock no request follows one for the same
    // key, and every lock wait pairs a large build with a small one. The
    // seed picks only the key each client starts on; the warm-up's key is
    // neither client's first.
    let a = (seed % 2) as usize;
    let b = 2 + (seed / 2 % 2) as usize;
    Workload {
        name: Name::LiquorCold,
        schema: data.relation.schema().clone(),
        query: data.query,
        // A streaming cold start: the schema alone, then one append per
        // business day. The warm-up explain materializes the appended
        // rows into a columnar base, so every later cold build reads it.
        register: Vec::new(),
        load_appends: rows_by_day(&data.relation),
        warm: vec![mix[1 - a].clone()],
        cycles: [vec![a, 1 - a], vec![b, 5 - b]],
        mix,
        stream: Vec::new(),
        budget_mb: Some(LIQUOR_BUDGET_MB),
    }
}

fn covid_stream(data_seed: u64, seed: u64) -> Workload {
    let data = covid::generate(data_seed).total_workload();
    let mut days = rows_by_day(&data.relation);
    // Each later day arrives as two half-day batches.
    let stream = days
        .split_off(COVID_STREAM_REGISTER_DAYS)
        .into_iter()
        .flat_map(|mut day| {
            let second = day.split_off(day.len() / 2);
            [day, second]
        })
        .collect();
    let mix = covid_dp_mix();
    let cycle = rotation(mix.len(), (seed % 12) as usize);
    Workload {
        name: Name::CovidStream,
        schema: data.relation.schema().clone(),
        query: data.query,
        register: days.into_iter().flatten().collect(),
        load_appends: Vec::new(),
        warm: mix[..1].to_vec(),
        cycles: [cycle.clone(), cycle],
        mix,
        stream,
        budget_mb: None,
    }
}

/// A relation holding `rows` in order.
pub fn build_relation(schema: &Schema, rows: &[Vec<Datum>]) -> Result<Relation, String> {
    let mut builder = Relation::builder(schema.clone());
    for row in rows {
        builder.push_row(row.clone()).map_err(|e| e.to_string())?;
    }
    Ok(builder.finish())
}

/// `0..n`, starting at `first % n`.
fn rotation(n: usize, first: usize) -> Vec<usize> {
    (0..n).map(|i| (first + i) % n).collect()
}

/// The relation's rows grouped by day — the generators put the date
/// first — days in time order and rows within a day in relation order.
fn rows_by_day(relation: &Relation) -> Vec<Rows> {
    let schema = relation.schema();
    let mut rows: Rows = vec![Vec::with_capacity(schema.len()); relation.n_rows()];
    for idx in 0..schema.len() {
        match relation.column(idx) {
            Column::Dimension(col) => {
                for (row, &code) in col.codes().iter().enumerate() {
                    rows[row].push(Datum::Attr(col.dict().value(code).clone()));
                }
            }
            Column::Measure(values) => {
                for (row, &v) in values.iter().enumerate() {
                    rows[row].push(Datum::Num(v));
                }
            }
        }
    }
    let time = |row: &Vec<Datum>| match &row[0] {
        Datum::Attr(v) => v.clone(),
        Datum::Num(_) => unreachable!("the date column is a dimension"),
    };
    rows.sort_by_key(time);
    let mut days: Vec<Rows> = Vec::new();
    for row in rows {
        match days.last_mut() {
            Some(day) if time(&day[0]) == time(&row) => day.push(row),
            _ => days.push(vec![row]),
        }
    }
    days
}
