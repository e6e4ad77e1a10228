use std::collections::HashMap;

use tsexplain_parallel::ParallelCtx;
use tsexplain_relation::AggState;

use crate::explanation::{ExplId, Explanation};

/// The raw result of candidate enumeration: every witnessed explanation of
/// order `1..=max_order`, with its per-timestamp aggregate-state series.
pub(crate) struct Enumeration {
    pub explanations: Vec<Explanation>,
    pub series: Vec<Vec<AggState>>,
}

/// One attribute subset's share of an enumeration: the explanations it
/// witnessed (in first-witness row order) and their series. Subsets are
/// independent of one another, which is what the parallel builder exploits.
struct SubsetEnumeration {
    /// Value-combination → subset-local explanation id.
    group: HashMap<Vec<u32>, ExplId>,
    explanations: Vec<Explanation>,
    series: Vec<Vec<AggState>>,
}

impl SubsetEnumeration {
    /// The placeholder a cancelled worker emits; the builder discards the
    /// whole (truncated) enumeration once it re-checks the token.
    fn empty() -> Self {
        SubsetEnumeration {
            group: HashMap::new(),
            explanations: Vec::new(),
            series: Vec::new(),
        }
    }
}

/// All non-empty attribute subsets with `|S| ≤ max_order`, in ascending
/// bitmask order — the canonical enumeration order every cube builder
/// (batch and incremental) shares.
pub(crate) fn enumerate_subsets(n_attrs: usize, max_order: usize) -> Vec<Vec<u16>> {
    let max_order = max_order.min(n_attrs);
    let mut subsets = Vec::new();
    for mask in 1u32..(1u32 << n_attrs) {
        let attrs: Vec<u16> = (0..n_attrs as u16)
            .filter(|&a| mask & (1 << a) != 0)
            .collect();
        if attrs.len() <= max_order {
            subsets.push(attrs);
        }
    }
    subsets
}

/// Enumerates the candidates of one attribute subset: rows grouped by
/// their value combination over `attrs`, ids assigned in first-witness row
/// order — exactly the order a subset-major sequential scan would assign
/// within this subset's contiguous id block.
fn enumerate_subset<C: AsRef<[u32]>>(
    attrs: &[u16],
    time_codes: &[u32],
    n_times: usize,
    attr_codes: &[C],
    measures: &[f64],
) -> SubsetEnumeration {
    let mut local: HashMap<Vec<u32>, ExplId> = HashMap::new();
    let mut explanations: Vec<Explanation> = Vec::new();
    let mut series: Vec<Vec<AggState>> = Vec::new();
    let mut key = vec![0u32; attrs.len()];
    for row in 0..time_codes.len() {
        for (i, &a) in attrs.iter().enumerate() {
            key[i] = attr_codes[a as usize].as_ref()[row];
        }
        let id = match local.get(&key) {
            Some(&id) => id,
            None => {
                let id = explanations.len() as ExplId;
                local.insert(key.clone(), id);
                let preds = attrs.iter().copied().zip(key.iter().copied()).collect();
                explanations.push(Explanation::new(preds));
                series.push(vec![AggState::ZERO; n_times]);
                id
            }
        };
        series[id as usize][time_codes[row] as usize].observe(measures[row]);
    }
    SubsetEnumeration {
        group: local,
        explanations,
        series,
    }
}

/// Enumerates all candidate explanations witnessed by the data.
///
/// For every non-empty subset `S` of explain-by attributes with
/// `|S| ≤ max_order`, rows are grouped by their value combination over `S`;
/// each observed combination is one candidate explanation and its aggregate
/// state is accumulated per timestamp. This is the `ε` of the paper's
/// complexity analysis (§5.2) and the `ε` column of Table 6.
///
/// Subsets are mutually independent, so `par` fans them out across worker
/// threads; concatenating the per-subset blocks in subset order reproduces
/// the sequential scan's explanation ids byte-for-byte (a sequential
/// subset-major scan assigns each subset a contiguous id block anyway).
///
/// `attr_codes[a][row]` is the dictionary code of explain-by attribute `a`
/// in `row`; `time_codes[row] < n_times` is the row's timestamp index;
/// `measures[row]` the evaluated measure expression.
pub(crate) fn enumerate<C: AsRef<[u32]> + Sync>(
    time_codes: &[u32],
    n_times: usize,
    attr_codes: &[C],
    measures: &[f64],
    max_order: usize,
    par: &ParallelCtx,
) -> Enumeration {
    let subsets = enumerate_subsets(attr_codes.len(), max_order);
    let cancel = par.cancel_token().cloned();
    let parts = par.run_chunks(subsets.len(), 1, |range| {
        range
            .map(|si| {
                // Subset-boundary poll: the builder re-checks after the
                // fan-out and discards any truncated enumeration.
                if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                    return SubsetEnumeration::empty();
                }
                enumerate_subset(&subsets[si], time_codes, n_times, attr_codes, measures)
            })
            .collect()
    });
    let mut explanations = Vec::new();
    let mut series = Vec::new();
    for part in parts {
        explanations.extend(part.explanations);
        series.extend(part.series);
    }
    Enumeration {
        explanations,
        series,
    }
}

/// Per-subset group maps (value combination → global explanation id), the
/// seed state an incremental cube keeps alive between appends.
pub(crate) type SubsetGroups = Vec<HashMap<Vec<u32>, ExplId>>;

/// Like [`enumerate`], but also returning each subset's group map with ids
/// rebased onto the global (concatenated) id space — the seed state an
/// incremental cube keeps alive between appends.
pub(crate) fn enumerate_with_groups<C: AsRef<[u32]> + Sync>(
    subsets: &[Vec<u16>],
    time_codes: &[u32],
    n_times: usize,
    attr_codes: &[C],
    measures: &[f64],
    par: &ParallelCtx,
) -> (SubsetGroups, Vec<Explanation>, Vec<Vec<AggState>>) {
    let cancel = par.cancel_token().cloned();
    let parts = par.run_chunks(subsets.len(), 1, |range| {
        range
            .map(|si| {
                if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                    return SubsetEnumeration::empty();
                }
                enumerate_subset(&subsets[si], time_codes, n_times, attr_codes, measures)
            })
            .collect()
    });
    let mut groups = Vec::with_capacity(subsets.len());
    let mut explanations = Vec::new();
    let mut series = Vec::new();
    for mut part in parts {
        let offset = explanations.len() as ExplId;
        // tsx-lint: allow(map-iter, uniform += rebase of every value; order-insensitive mutation, no emission)
        for id in part.group.values_mut() {
            *id += offset;
        }
        groups.push(part.group);
        explanations.extend(part.explanations);
        series.extend(part.series);
    }
    (groups, explanations, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_relation::AggFn;

    /// Rows: (time, a0, a1, measure).
    fn run(rows: &[(u32, u32, u32, f64)], n_times: usize, max_order: usize) -> Enumeration {
        run_with(rows, n_times, max_order, &ParallelCtx::sequential())
    }

    fn run_with(
        rows: &[(u32, u32, u32, f64)],
        n_times: usize,
        max_order: usize,
        par: &ParallelCtx,
    ) -> Enumeration {
        let time_codes: Vec<u32> = rows.iter().map(|r| r.0).collect();
        let a0: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let a1: Vec<u32> = rows.iter().map(|r| r.2).collect();
        let measures: Vec<f64> = rows.iter().map(|r| r.3).collect();
        enumerate(&time_codes, n_times, &[a0, a1], &measures, max_order, par)
    }

    #[test]
    fn enumerates_only_witnessed_combinations() {
        // a0 ∈ {0,1}, a1 ∈ {0,1}, but (a0=1, a1=1) never occurs together.
        let rows = [(0, 0, 0, 1.0), (0, 1, 0, 2.0), (1, 0, 1, 3.0)];
        let e = run(&rows, 2, 2);
        // Order 1: a0=0, a0=1, a1=0, a1=1 → 4. Order 2: (0,0), (1,0), (0,1) → 3.
        assert_eq!(e.explanations.len(), 7);
        assert!(!e
            .explanations
            .iter()
            .any(|x| x.order() == 2 && x.code_for(0) == Some(1) && x.code_for(1) == Some(1)));
    }

    #[test]
    fn max_order_limits_subsets() {
        let rows = [(0, 0, 0, 1.0), (1, 1, 1, 2.0)];
        let e = run(&rows, 2, 1);
        assert!(e.explanations.iter().all(|x| x.order() == 1));
        assert_eq!(e.explanations.len(), 4);
    }

    #[test]
    fn series_accumulates_per_time() {
        let rows = [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 5.0)];
        let e = run(&rows, 2, 2);
        let idx = e
            .explanations
            .iter()
            .position(|x| x.order() == 1 && x.code_for(0) == Some(0))
            .unwrap();
        let s = &e.series[idx];
        assert_eq!(s[0].value(AggFn::Sum), 3.0);
        assert_eq!(s[1].value(AggFn::Sum), 5.0);
        assert_eq!(s[0].value(AggFn::Count), 2.0);
    }

    #[test]
    fn deterministic_order() {
        let rows = [(0, 0, 0, 1.0), (1, 1, 1, 2.0), (0, 1, 0, 3.0)];
        let a = run(&rows, 2, 2);
        let b = run(&rows, 2, 2);
        assert_eq!(a.explanations, b.explanations);
    }

    #[test]
    fn parallel_enumeration_is_byte_identical_to_sequential() {
        // A denser fixture: 40 rows over 2 attributes of 3 values each, so
        // every subset witnesses several combinations.
        let rows: Vec<(u32, u32, u32, f64)> = (0..40u32)
            .map(|i| (i % 5, i % 3, (i / 2) % 3, 0.25 * i as f64 - 3.0))
            .collect();
        let reference = run(&rows, 5, 2);
        for threads in [2, 3, 8] {
            let par = run_with(&rows, 5, 2, &ParallelCtx::new(threads));
            assert_eq!(par.explanations, reference.explanations, "t={threads}");
            assert_eq!(par.series, reference.series, "t={threads}");
        }
    }

    #[test]
    fn empty_input_yields_no_candidates() {
        let e = run(&[], 0, 3);
        assert!(e.explanations.is_empty());
    }
}
