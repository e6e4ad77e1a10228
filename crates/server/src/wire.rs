//! The JSON wire protocol: request/response bodies of every endpoint.
//!
//! Explain requests and results reuse the engine's own serde layer
//! ([`tsexplain::ExplainRequest`] / [`tsexplain::ExplainResult`]), so a
//! response read off the wire deserializes into exactly the struct an
//! in-process session returns. This module adds the envelope types around
//! them: dataset registration, row appends, stats and metrics.
//!
//! Rows travel as heterogeneous JSON arrays in schema order
//! (`["2020-03-01", "NY", 17.0]`) and are decoded *schema-aware*: strings
//! and integers in dimension slots become attribute values, numbers in
//! measure slots become `f64`s. A fractional number in a dimension slot —
//! or any value in the wrong slot — is rejected row-by-row with the
//! offending row index in the message.

use serde::{Serialize, Value};
use tsexplain::{AggQuery, DatasetSnapshot, Datum, ExplainRequest, ExplainResult, Schema};
use tsexplain_relation::{decode_wire_row, encode_wire_row};

use crate::error::ApiError;

/// `POST /datasets` request body.
#[derive(Debug)]
pub struct RegisterDataset {
    /// The relation's schema.
    pub schema: Schema,
    /// The "what happened" aggregation query.
    pub query: AggQuery,
    /// Initial rows in schema order. Absent, `null` or empty registers
    /// no rows (a streaming cold start).
    pub rows: Vec<Value>,
}

serde::record! { RegisterDataset { schema, query, rows = Vec::new() } }

/// `POST /datasets` response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetCreated {
    /// The tenant id all further calls address.
    pub dataset_id: u64,
    /// Rows ingested at registration.
    pub n_rows: usize,
    /// Distinct timestamps at registration.
    pub n_points: usize,
}

serde::record! { DatasetCreated { dataset_id, n_rows, n_points } }

/// `POST /datasets/{id}/rows` request body.
#[derive(Debug)]
pub struct AppendRowsBody {
    /// Rows in schema order.
    pub rows: Vec<Value>,
}

serde::record! { AppendRowsBody { rows } }

/// `POST /datasets/{id}/rows` response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendAck {
    /// Rows ingested by this call.
    pub appended: usize,
    /// Distinct timestamps after the append.
    pub n_points: usize,
}

serde::record! { AppendAck { appended, n_points } }

/// `POST /datasets/{id}/compare` request body: the base request to fan
/// out across every segmentation strategy, plus an optional shared window
/// for the window-parameterized strategies. When absent, the window is
/// auto-sized from the length the request actually explains — the
/// time-sliced horizon, not the full dataset — which keeps windowed
/// compares feasible whenever that horizon has at least 6 points (below
/// that, FLUSS/NNSegment cannot run and the compare is a 400). Any
/// `segmenter` member inside the base request is ignored — the fan-out
/// overrides it per strategy.
#[derive(Debug)]
pub struct CompareBody {
    /// The base explain request (strategy member ignored).
    pub request: ExplainRequest,
    /// Shared FLUSS/NNSegment window override.
    pub window: Option<usize>,
}

serde::record! { CompareBody { request, window = None } }

/// One strategy's row in a `/compare` response: the full result plus the
/// cross-strategy evaluation metrics.
#[derive(Debug)]
pub struct StrategyComparison {
    /// The strategy's wire name.
    pub strategy: String,
    /// The paper's `distance percent (%)` between this strategy's cuts and
    /// the DP reference's (0 for the DP itself; §7.3's metric).
    pub distance_percent_vs_dp: f64,
    /// 1-based ascending rank of this strategy's explanation-aware
    /// objective among all compared strategies (min-rank ties; rank 1 =
    /// lowest `total_variance`).
    pub objective_rank: f64,
    /// The strategy's full explain result.
    pub result: ExplainResult,
}

serde::record! { StrategyComparison { strategy, distance_percent_vs_dp, objective_rank, result } }

/// `POST /datasets/{id}/compare` response body.
#[derive(Debug)]
pub struct CompareResponse {
    /// The strategy the distance metric is measured against (`"dp"`).
    pub reference: String,
    /// The window the window-parameterized strategies ran with.
    pub window: usize,
    /// Per-strategy results, in [`tsexplain::STRATEGIES`] order.
    pub strategies: Vec<StrategyComparison>,
}

serde::record! { CompareResponse { reference, window, strategies } }

/// Serializes one tenant's stats snapshot (`GET /datasets/{id}/stats`).
pub fn stats_body(snapshot: &DatasetSnapshot) -> Value {
    Value::object([
        ("n_points", snapshot.n_points.serialize()),
        ("cached_cubes", snapshot.cached_cubes.serialize()),
        ("cache_bytes", snapshot.cache_bytes.serialize()),
        ("session", snapshot.stats.serialize()),
    ])
}

/// Decodes wire rows into raw [`Datum`] rows, schema-aware (module docs).
/// Delegates to the relation crate's codec — the same one the durable WAL
/// uses — and adds the offending row index to the error message.
pub fn decode_rows(schema: &Schema, rows: &[Value]) -> Result<Vec<Vec<Datum>>, ApiError> {
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            decode_wire_row(schema, row).map_err(|e| ApiError::bad_request(format!("row {i}: {e}")))
        })
        .collect()
}

/// Encodes raw [`Datum`] rows as wire rows (the client half).
pub fn encode_rows(rows: &[Vec<Datum>]) -> Vec<Value> {
    rows.iter().map(|row| encode_wire_row(row)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use tsexplain::{Field, SessionStats};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap()
    }

    #[test]
    fn rows_decode_schema_aware_and_roundtrip() {
        let rows = vec![
            vec![
                Datum::Attr(3.into()),
                Datum::Attr("NY".into()),
                Datum::Num(1.5),
            ],
            vec![
                Datum::Attr("d1".into()),
                Datum::Attr(12.into()),
                Datum::Num(-2.0),
            ],
        ];
        let wire = encode_rows(&rows);
        let back = decode_rows(&schema(), &wire).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn bad_rows_name_the_offender() {
        let s = schema();
        // Wrong arity.
        let e = decode_rows(&s, &[Value::Array(vec![Value::Number(1.0)])]).unwrap_err();
        assert!(e.message.contains("row 0"), "{}", e.message);
        // Fractional number in a dimension slot.
        let e = decode_rows(
            &s,
            &[
                Value::Array(vec![
                    Value::Number(1.0),
                    Value::String("NY".into()),
                    Value::Number(1.0),
                ]),
                Value::Array(vec![
                    Value::Number(1.5),
                    Value::String("NY".into()),
                    Value::Number(1.0),
                ]),
            ],
        )
        .unwrap_err();
        assert!(e.message.contains("row 1"), "{}", e.message);
        assert!(e.message.contains("\"t\""), "{}", e.message);
        // Non-numeric measure.
        let e = decode_rows(
            &s,
            &[Value::Array(vec![
                Value::Number(1.0),
                Value::String("NY".into()),
                Value::String("x".into()),
            ])],
        )
        .unwrap_err();
        assert!(e.message.contains("\"v\""), "{}", e.message);
    }

    #[test]
    fn register_bodies_roundtrip_and_rows_default_empty() {
        let body = RegisterDataset {
            schema: schema(),
            query: AggQuery::sum("t", "v"),
            rows: encode_rows(&[vec![
                Datum::Attr(0.into()),
                Datum::Attr("NY".into()),
                Datum::Num(1.0),
            ]]),
        };
        let text = serde_json::to_string(&body).unwrap();
        let back: RegisterDataset = serde_json::from_str(&text).unwrap();
        assert_eq!(back.rows, body.rows);
        assert_eq!(back.query.time_attr(), "t");
        // `rows` may be omitted entirely (streaming cold start).
        let minimal = Value::object([
            ("schema", body.schema.serialize()),
            ("query", body.query.serialize()),
        ]);
        let back = RegisterDataset::deserialize(&minimal).unwrap();
        assert!(back.rows.is_empty());
        // So may an explicit `null`: one tolerance rule for every
        // optional member.
        let null_rows = Value::object([
            ("schema", body.schema.serialize()),
            ("query", body.query.serialize()),
            ("rows", Value::Null),
        ]);
        let back = RegisterDataset::deserialize(&null_rows).unwrap();
        assert!(back.rows.is_empty());
        // A present `rows` must still be an array.
        let bad_rows = Value::object([
            ("schema", body.schema.serialize()),
            ("query", body.query.serialize()),
            ("rows", Value::Bool(true)),
        ]);
        assert_eq!(
            RegisterDataset::deserialize(&bad_rows)
                .unwrap_err()
                .to_string(),
            "in field `rows`: expected array, got boolean"
        );
    }

    /// One explain result as it travels inside a `/compare` response.
    const RESULT: &str = r#"{"aggregate":[0,5],"chosen_k":1,"k_variance_curve":[[1,2.5]],"latency":{"cascading":{"nanos":2,"secs":0},"memo":{"hits":3,"misses":4},"parallel":{"cascading":{"nanos":5,"secs":0},"segmentation":{"nanos":6,"secs":0},"threads":2},"precompute":{"nanos":1,"secs":1},"segmentation":{"nanos":7,"secs":0}},"segmentation":{"cuts":[],"n_points":2},"segments":[{"end":1,"end_time":"d1","explanations":[{"effect":"-","gamma":0.5,"label":"state=CA","series":[0,5]}],"start":0,"start_time":"d0","variance":0}],"stats":{"ca_calls":1,"candidate_positions":2,"cube_from_cache":false,"epsilon":2,"filtered_epsilon":1,"n_points":2},"strategy":"bottom_up","timestamps":["d0","d1"],"total_variance":2.5}"#;

    fn json<T: Serialize>(value: &T) -> String {
        serde_json::to_string(value).unwrap()
    }

    fn decode_err<T: Deserialize>(text: &str) -> String {
        match T::deserialize(&serde_json::parse(text).unwrap()) {
            Ok(_) => "decoded".into(),
            Err(e) => e.to_string(),
        }
    }

    /// Pins the exact wire bytes of every envelope, fully populated, and
    /// the error an empty object gets: the first required member in
    /// declaration order.
    #[test]
    fn envelope_wire_bytes_are_pinned() {
        let result: ExplainResult = serde_json::from_str(RESULT).unwrap();
        assert_eq!(json(&result), RESULT);
        let comparison = StrategyComparison {
            strategy: "bottom_up".into(),
            distance_percent_vs_dp: 12.5,
            objective_rank: 1.5,
            result,
        };
        let stats = SessionStats {
            requests: 1,
            cubes_built: 2,
            cube_cache_hits: 3,
            cube_refreshes: 4,
            rows_appended: 5,
            rebuilds: 6,
            cube_evictions: 7,
            cube_demotions: 8,
            cube_rehydrations: 9,
        };
        let snapshot = DatasetSnapshot {
            stats,
            n_points: 10,
            cached_cubes: 11,
            cache_bytes: 12,
        };
        let encoded = [
            (
                json(&RegisterDataset {
                    schema: schema(),
                    query: AggQuery::sum("t", "v"),
                    rows: encode_rows(&[vec![
                        Datum::Attr(0.into()),
                        Datum::Attr("NY".into()),
                        Datum::Num(1.5),
                    ]]),
                }),
                r#"{"query":{"agg":"sum","measure":{"column":"v","op":"column"},"time_attr":"t"},"rows":[[0,"NY",1.5]],"schema":[{"kind":"dimension","name":"t"},{"kind":"dimension","name":"state"},{"kind":"measure","name":"v"}]}"#,
            ),
            (
                json(&DatasetCreated {
                    dataset_id: 7,
                    n_rows: 100,
                    n_points: 50,
                }),
                r#"{"dataset_id":7,"n_points":50,"n_rows":100}"#,
            ),
            (
                json(&AppendRowsBody {
                    rows: encode_rows(&[vec![
                        Datum::Attr("d1".into()),
                        Datum::Attr("CA".into()),
                        Datum::Num(-2.0),
                    ]]),
                }),
                r#"{"rows":[["d1","CA",-2]]}"#,
            ),
            (
                json(&AppendAck {
                    appended: 42,
                    n_points: 9,
                }),
                r#"{"appended":42,"n_points":9}"#,
            ),
            (
                json(&CompareBody {
                    request: ExplainRequest::new(["state"]).with_fixed_k(3),
                    window: Some(6),
                }),
                r#"{"request":{"diff_metric":"absolute-change","explain_by":["state"],"k":{"k":3,"mode":"fixed"},"max_order":3,"optimizations":{"filter_ratio":0.001,"guess_and_verify":30,"sketching":{"max_len_cap":20,"max_len_fraction":0.05,"size_factor":3}},"segmenter":{"strategy":"dp"},"smoothing_window":1,"threads":null,"time_range":null,"timeout_ms":null,"top_m":3,"variance_metric":"tse"},"window":6}"#,
            ),
            (
                json(&CompareResponse {
                    reference: "dp".into(),
                    window: 6,
                    strategies: vec![comparison],
                }),
                r#"{"reference":"dp","strategies":[{"distance_percent_vs_dp":12.5,"objective_rank":1.5,"result":{"aggregate":[0,5],"chosen_k":1,"k_variance_curve":[[1,2.5]],"latency":{"cascading":{"nanos":2,"secs":0},"memo":{"hits":3,"misses":4},"parallel":{"cascading":{"nanos":5,"secs":0},"segmentation":{"nanos":6,"secs":0},"threads":2},"precompute":{"nanos":1,"secs":1},"segmentation":{"nanos":7,"secs":0}},"segmentation":{"cuts":[],"n_points":2},"segments":[{"end":1,"end_time":"d1","explanations":[{"effect":"-","gamma":0.5,"label":"state=CA","series":[0,5]}],"start":0,"start_time":"d0","variance":0}],"stats":{"ca_calls":1,"candidate_positions":2,"cube_from_cache":false,"epsilon":2,"filtered_epsilon":1,"n_points":2},"strategy":"bottom_up","timestamps":["d0","d1"],"total_variance":2.5},"strategy":"bottom_up"}],"window":6}"#,
            ),
            (
                json(&stats_body(&snapshot)),
                r#"{"cache_bytes":12,"cached_cubes":11,"n_points":10,"session":{"cube_cache_hits":3,"cube_demotions":8,"cube_evictions":7,"cube_refreshes":4,"cube_rehydrations":9,"cubes_built":2,"rebuilds":6,"requests":1,"rows_appended":5}}"#,
            ),
        ];
        for (actual, expected) in encoded {
            assert_eq!(actual, expected);
        }

        let missing = [
            (
                decode_err::<RegisterDataset>("{}"),
                "missing field `schema`",
            ),
            (
                decode_err::<DatasetCreated>("{}"),
                "missing field `dataset_id`",
            ),
            (decode_err::<AppendRowsBody>("{}"), "missing field `rows`"),
            (decode_err::<AppendAck>("{}"), "missing field `appended`"),
            (decode_err::<CompareBody>("{}"), "missing field `request`"),
            (
                decode_err::<StrategyComparison>("{}"),
                "missing field `strategy`",
            ),
            (
                decode_err::<CompareResponse>("{}"),
                "missing field `reference`",
            ),
        ];
        for (actual, expected) in missing {
            assert_eq!(actual, expected);
        }
    }

    /// An absent or `null` compare window means "auto-size".
    #[test]
    fn compare_window_defaults_on_absent_and_null() {
        for text in [
            r#"{"request":{"explain_by":["state"]}}"#,
            r#"{"request":{"explain_by":["state"]},"window":null}"#,
        ] {
            let body: CompareBody = serde_json::from_str(text).unwrap();
            assert_eq!(body.window, None);
            assert_eq!(body.request, ExplainRequest::new(["state"]));
        }
        let body: CompareBody =
            serde_json::from_str(r#"{"request":{"explain_by":["state"]},"window":8}"#).unwrap();
        assert_eq!(body.window, Some(8));
        assert_eq!(
            decode_err::<CompareBody>(r#"{"request":{"explain_by":["state"]},"window":-1}"#),
            "in field `window`: integer -1 out of range for usize"
        );
    }

    #[test]
    fn acks_roundtrip() {
        for ack in [
            AppendAck {
                appended: 0,
                n_points: 0,
            },
            AppendAck {
                appended: 42,
                n_points: 9,
            },
        ] {
            let back: AppendAck =
                serde_json::from_str(&serde_json::to_string(&ack).unwrap()).unwrap();
            assert_eq!(back, ack);
        }
        let created = DatasetCreated {
            dataset_id: 7,
            n_rows: 100,
            n_points: 50,
        };
        let back: DatasetCreated =
            serde_json::from_str(&serde_json::to_string(&created).unwrap()).unwrap();
        assert_eq!(back, created);
    }
}
