//! The correctness oracle: the library's own answer, computed in process
//! by an `ExplainSession` fed the same rows in the same order, compared
//! with every HTTP response outside the timed region.

use std::collections::HashMap;

use serde::{Serialize, Value};
use tsexplain::{ExplainRequest, ExplainSession};

use crate::drive::Answer;
use crate::workload::{build_relation, Workload};

/// References by (stream batches applied, request) for one workload.
pub struct Oracle<'w> {
    w: &'w Workload,
    session: ExplainSession,
    applied: usize,
    refs: HashMap<(usize, String), Value>,
}

impl<'w> Oracle<'w> {
    pub fn new(w: &'w Workload) -> Result<Oracle<'w>, String> {
        let relation = build_relation(&w.schema, &w.register)?;
        let mut session =
            ExplainSession::new(relation, w.query.clone()).map_err(|e| e.to_string())?;
        for batch in &w.load_appends {
            session
                .append_rows(batch.clone())
                .map_err(|e| e.to_string())?;
        }
        Ok(Oracle {
            w,
            session,
            applied: 0,
            refs: HashMap::new(),
        })
    }

    /// Counts the answers that are errors or differ from the reference.
    /// Answers must come in non-decreasing `state` order. A covid_stream
    /// answer that matches the state one batch later also passes: its
    /// append overtook it to the tenant lock, and `n_points` in the
    /// response names the state it saw.
    pub fn count_failures(&mut self, answers: &[Answer]) -> Result<usize, String> {
        let mut failed = 0;
        for answer in answers {
            let Ok(response) = &answer.response else {
                failed += 1;
                continue;
            };
            let got = canonical(response);
            let matches = self.reference(answer.state, &answer.request)? == got
                || (answer.state < self.w.stream.len()
                    && self.reference(answer.state + 1, &answer.request)? == got);
            if !matches {
                failed += 1;
            }
        }
        Ok(failed)
    }

    fn reference(&mut self, state: usize, request: &ExplainRequest) -> Result<Value, String> {
        let key = (
            state,
            serde_json::to_string(&request.serialize()).map_err(|e| e.to_string())?,
        );
        if let Some(v) = self.refs.get(&key) {
            return Ok(v.clone());
        }
        if state < self.applied {
            return Err(format!(
                "state {state} requested after state {}",
                self.applied
            ));
        }
        while self.applied < state {
            self.session
                .append_rows(self.w.stream[self.applied].clone())
                .map_err(|e| e.to_string())?;
            self.applied += 1;
        }
        let result = self.session.explain(request).map_err(|e| e.to_string())?;
        // Through the wire encoding and back, as the client saw it.
        let text = serde_json::to_string(&result.serialize()).map_err(|e| e.to_string())?;
        let value = canonical(&serde_json::from_str(&text).map_err(|e| e.to_string())?);
        self.refs.insert(key, value.clone());
        Ok(value)
    }
}

/// A response without its wall-clock `latency` member and without
/// `stats.cube_from_cache`: cache provenance is checked separately from
/// the registry totals.
fn canonical(value: &Value) -> Value {
    let mut value = value.clone();
    if let Value::Object(map) = &mut value {
        map.remove("latency");
        if let Some(Value::Object(stats)) = map.get_mut("stats") {
            stats.remove("cube_from_cache");
        }
    }
    value
}
