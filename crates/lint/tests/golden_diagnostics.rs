//! Pins the exact diagnostics every fixture produces. The corpus under
//! `tests/fixtures/` demonstrates at least one caught violation per rule
//! family plus the allow-directive and clean variants; this golden keeps
//! the lint's behaviour reviewable — any rule change shows up as a JSON
//! diff, regenerated with `TSX_REGEN_GOLDEN=1`.

use std::path::Path;

use serde::{Serialize, Value};
use tsexplain_lint::lint_source;

/// (fixture file, pseudo workspace path that scopes its rule families).
const FIXTURES: &[(&str, &str)] = &[
    ("determinism.rs", "crates/cube/src/fixture.rs"),
    ("panics.rs", "crates/server/src/router.rs"),
    ("locks.rs", "crates/store/src/fixture.rs"),
    ("directives.rs", "crates/cube/src/fixture.rs"),
];

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixture_diagnostics_match_golden() {
    let mut report = Vec::new();
    for (file, pseudo_path) in FIXTURES {
        let source = std::fs::read_to_string(fixture_dir().join(file)).unwrap();
        let findings = lint_source(pseudo_path, &source);
        assert!(
            !findings.is_empty(),
            "{file}: a violation fixture must catch at least one finding"
        );
        report.push((
            file.to_string(),
            Value::Array(findings.iter().map(Serialize::serialize).collect()),
        ));
    }
    let rendered = serde_json::to_string_pretty(&Value::object(report)).unwrap();

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/diagnostics.json");
    if std::env::var("TSX_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, rendered.as_bytes()).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden missing — run with TSX_REGEN_GOLDEN=1 to create it");
    assert_eq!(
        rendered.trim(),
        golden.trim(),
        "fixture diagnostics drifted from tests/golden/diagnostics.json \
         (regen with TSX_REGEN_GOLDEN=1 if the change is intended)"
    );
}

#[test]
fn every_rule_family_catches_at_least_one_violation() {
    let mut caught: Vec<String> = Vec::new();
    for (file, pseudo_path) in FIXTURES {
        let source = std::fs::read_to_string(fixture_dir().join(file)).unwrap();
        caught.extend(
            lint_source(pseudo_path, &source)
                .into_iter()
                .map(|d| d.rule),
        );
    }
    for family_rule in [
        "map-iter",
        "wall-clock",
        "env-read", // determinism
        "no-unwrap",
        "no-panic", // panic-freedom
        "lock-order",
        "fsync-under-lock",
        "compute-under-lock", // lock/IO discipline
        "bad-directive",
        "unused-allow", // directive hygiene
    ] {
        assert!(
            caught.iter().any(|r| r == family_rule),
            "no fixture triggers `{family_rule}` (caught: {caught:?})"
        );
    }
}

#[test]
fn clean_fixture_is_clean_under_every_scope() {
    let source = std::fs::read_to_string(fixture_dir().join("clean.rs")).unwrap();
    for pseudo_path in [
        "crates/cube/src/fixture.rs",  // determinism
        "crates/server/src/router.rs", // panic-freedom
        "crates/store/src/fixture.rs", // lock discipline
        "crates/core/src/registry.rs", // panic + locks combined
    ] {
        let findings = lint_source(pseudo_path, &source);
        assert!(findings.is_empty(), "{pseudo_path}: {findings:?}");
    }
}

#[test]
fn allow_variants_suppress_only_their_own_rule() {
    let source = std::fs::read_to_string(fixture_dir().join("determinism.rs")).unwrap();
    let findings = lint_source("crates/cube/src/fixture.rs", &source);
    // The allowed sites (byte_total, timed) must not appear…
    assert!(
        findings.iter().all(|d| !source
            .lines()
            .nth(d.line - 1)
            .unwrap_or("")
            .contains("tsx-lint: allow")),
        "an allow-directive site still produced a finding: {findings:?}"
    );
    // …while the violations on other lines still do.
    assert!(findings.iter().any(|d| d.rule == "map-iter"));
    assert!(findings.iter().any(|d| d.rule == "wall-clock"));
    assert!(findings.iter().any(|d| d.rule == "env-read"));
}
