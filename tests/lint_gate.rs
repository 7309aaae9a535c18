//! The static-analysis gate: the live workspace must lint clean, and the
//! committed fixtures must keep every rule alive. If a rule stops firing
//! on its fixture, the rule is broken — a clean tree proves nothing.

use dial_lint::{lock_graph_summary, run, Config, Report};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> PathBuf {
    workspace_root().join("tests/lint_fixtures").join(name)
}

fn lint_fixture(name: &str) -> Report {
    let path = fixture(name);
    assert!(path.is_file(), "fixture {} missing", path.display());
    run(&Config::single_file(path)).expect("fixture lint runs")
}

fn active_rules(report: &Report) -> Vec<&str> {
    report.active().map(|f| f.rule).collect()
}

/// The tree this PR ships must be clean: every real finding was either
/// fixed or carries a reasoned `lint:allow`.
#[test]
fn live_workspace_is_clean() {
    let report = run(&Config::workspace(workspace_root())).expect("workspace lint runs");
    let active: Vec<String> = report
        .active()
        .map(|f| format!("{}:{}:{} [{}] {}", f.path, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(active.is_empty(), "unsuppressed findings:\n{}", active.join("\n"));
    // Sanity: the walk actually covered the workspace, not an empty dir.
    assert!(report.files_scanned > 100, "only {} files scanned", report.files_scanned);
}

/// Suppressions on the live tree are all reasoned: the engine records the
/// reason on every suppressed finding.
#[test]
fn live_suppressions_carry_reasons() {
    let report = run(&Config::workspace(workspace_root())).expect("workspace lint runs");
    assert!(report.suppressed_count() > 0, "triage should have left reasoned allows");
    for f in report.findings.iter().filter(|f| f.suppressed) {
        assert!(
            f.reason.as_deref().is_some_and(|r| !r.is_empty()),
            "suppressed finding without a reason at {}:{}",
            f.path,
            f.line
        );
    }
}

#[test]
fn r1_fires_on_fixture() {
    let report = lint_fixture("nondeterministic_iteration.rs");
    let rules = active_rules(&report);
    let r1 = rules.iter().filter(|r| **r == "nondeterministic-iteration").count();
    // Four violating shapes: values-sum, for-loop over set, unsorted
    // keys().collect(), drain(). Exactly four — a fifth would mean the
    // sorted idiom at the bottom of the fixture got flagged too.
    assert_eq!(r1, 4, "expected 4 R1 findings, got {rules:?}");
}

/// The exact `extrapolated_total_usd` unsorted-sum bug that shipped in an
/// earlier PR is seeded in the fixture; R1 must catch it so it can never
/// ship quietly again.
#[test]
fn r1_catches_the_extrapolated_total_regression() {
    let report = lint_fixture("nondeterministic_iteration.rs");
    assert!(
        report
            .active()
            .any(|f| f.rule == "nondeterministic-iteration"
                && f.snippet.contains("by_type.values()")),
        "the extrapolated_total_usd pattern must trip R1: {:?}",
        active_rules(&report)
    );
}

#[test]
fn r2_fires_on_fixture() {
    let report = lint_fixture("unwrap_in_serve.rs");
    let snippets: Vec<(&str, &str)> =
        report.active().map(|f| (f.rule, f.snippet.as_str())).collect();
    for needle in ["unwrap()", "expect(", "panic!"] {
        assert!(
            snippets.iter().any(|(r, s)| *r == "unwrap-in-serve" && s.contains(needle)),
            "R2 must flag `{needle}`: {snippets:?}"
        );
    }
    // The #[cfg(test)] unwrap is exempt.
    assert!(
        !snippets.iter().any(|(_, s)| s.contains("v.first()")),
        "test-module unwraps must be exempt: {snippets:?}"
    );
}

#[test]
fn r3_fires_on_fixture() {
    let report = lint_fixture("wall_clock.rs");
    let snippets: Vec<&str> = report
        .active()
        .filter(|f| f.rule == "wall-clock-in-deterministic")
        .map(|f| f.snippet.as_str())
        .collect();
    assert!(
        snippets.iter().any(|s| s.contains("SystemTime::now")),
        "R3 must flag SystemTime::now: {snippets:?}"
    );
    assert!(
        snippets.iter().any(|s| s.contains("Instant::now")),
        "R3 must flag Instant::now: {snippets:?}"
    );
}

/// `dial-store` is in DETERMINISTIC_CRATES: replaying the same log twice
/// must produce identical bytes, so wall-clock reads on the store path
/// are R3 violations. The store-flavoured fixture keeps that coverage
/// alive independently of the generic one.
#[test]
fn r3_fires_on_store_fixture() {
    let report = lint_fixture("store_wall_clock.rs");
    let snippets: Vec<&str> = report
        .active()
        .filter(|f| f.rule == "wall-clock-in-deterministic")
        .map(|f| f.snippet.as_str())
        .collect();
    assert!(
        snippets.iter().any(|s| s.contains("SystemTime::now")),
        "R3 must flag the seal-stamp shape: {snippets:?}"
    );
    assert!(
        snippets.iter().any(|s| s.contains("Instant::now")),
        "R3 must flag the timed-recovery shape: {snippets:?}"
    );
}

/// `dial-replicate/promote.rs` is a single-*file* DETERMINISTIC_CRATES
/// entry: the failover decision must elect the same leader on every
/// replay of a chaos seed, while the rest of its crate (sockets,
/// timeouts, probing) legitimately uses the clock. This fixture keeps
/// R3 coverage alive for the promotion-flavoured shapes — freshness
/// windows and recency tie-breaks — that would make elections
/// unreplayable.
#[test]
fn r3_fires_on_promote_fixture() {
    let report = lint_fixture("promote_wall_clock.rs");
    let snippets: Vec<&str> = report
        .active()
        .filter(|f| f.rule == "wall-clock-in-deterministic")
        .map(|f| f.snippet.as_str())
        .collect();
    assert!(
        snippets.iter().any(|s| s.contains("SystemTime::now")),
        "R3 must flag the freshness-window shape: {snippets:?}"
    );
    assert!(
        snippets.iter().any(|s| s.contains("Instant")),
        "R3 must flag the recency-tiebreak shape: {snippets:?}"
    );
}

/// `dial-scenario` is in DETERMINISTIC_CRATES: a comparison document is
/// cached under the scenario fingerprint by dial-serve, so the same
/// scenario file must render the same bytes on every run. This fixture
/// keeps R3 coverage alive for the scenario-flavoured shapes — a
/// computed-at stamp in the document and in-engine timing — that would
/// make the fingerprint-keyed cache observably stale.
#[test]
fn r3_fires_on_scenario_fixture() {
    let report = lint_fixture("scenario_wall_clock.rs");
    let snippets: Vec<&str> = report
        .active()
        .filter(|f| f.rule == "wall-clock-in-deterministic")
        .map(|f| f.snippet.as_str())
        .collect();
    assert!(
        snippets.iter().any(|s| s.contains("SystemTime::now")),
        "R3 must flag the computed-at stamp shape: {snippets:?}"
    );
    assert!(
        snippets.iter().any(|s| s.contains("Instant::now")),
        "R3 must flag the timed-compare shape: {snippets:?}"
    );
}

#[test]
fn r4_fires_on_fixture() {
    let report = lint_fixture("missing_checkpoint.rs");
    let findings: Vec<(&str, u32)> = report.active().map(|f| (f.rule, f.line)).collect();
    let hits = findings.iter().filter(|(r, _)| *r == "missing-checkpoint").count();
    assert_eq!(hits, 1, "only the checkpoint-free loop may fire: {findings:?}");
}

#[test]
fn bare_and_unknown_allows_are_diagnostics() {
    let report = lint_fixture("bare_allow.rs");
    let bare: Vec<&str> =
        report.active().filter(|f| f.rule == "bare-allow").map(|f| f.message.as_str()).collect();
    assert_eq!(bare.len(), 2, "one reasonless + one unknown-rule allow: {bare:?}");
    assert!(bare.iter().any(|m| m.contains("without a reason")), "{bare:?}");
    assert!(bare.iter().any(|m| m.contains("unknown rule")), "{bare:?}");
    // The bare allow does not suppress: its finding stays active.
    let active_r1 = report.active().filter(|f| f.rule == "nondeterministic-iteration").count();
    assert_eq!(active_r1, 2, "bare/unknown allows must not suppress");
    // The reasoned allow does suppress, and keeps its reason.
    let suppressed: Vec<_> = report.findings.iter().filter(|f| f.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "exactly the reasoned site is suppressed");
    assert_eq!(suppressed[0].reason.as_deref(), Some("max of exact integers; order-free"));
}

#[test]
fn r5_fires_on_lock_cycle_fixture() {
    let report =
        run(&Config::fixture_dir(fixture("lock_cycle"))).expect("lock_cycle fixture lints");
    let r5: Vec<&str> = report
        .active()
        .filter(|f| f.rule == "lock-order-inversion")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(r5.len(), 1, "exactly one canonical cycle: {r5:?}");
    let msg = r5[0];
    // Both witness paths, as file:line chains, and the call-edge hop.
    assert!(msg.contains("forward path"), "{msg}");
    assert!(msg.contains("return path"), "{msg}");
    assert!(msg.contains("a.rs:15"), "forward witness must anchor in a.rs: {msg}");
    assert!(msg.contains("b.rs:10"), "return witness must anchor in b.rs: {msg}");
    assert!(msg.contains("via push_alpha()"), "return path is a call edge: {msg}");
}

#[test]
fn r6_fires_on_fixture_and_drop_silences_it() {
    let report = lint_fixture("guard_across_fsync.rs");
    let r6: Vec<(u32, &str)> = report
        .active()
        .filter(|f| f.rule == "guard-across-blocking")
        .map(|f| (f.line, f.snippet.as_str()))
        .collect();
    assert!(r6.iter().any(|(_, s)| s.contains("sync_all")), "fsync must fire: {r6:?}");
    assert!(r6.iter().any(|(_, s)| s.contains("write_all")), "socket write must fire: {r6:?}");
    // `seal_fixed` (the drop-before-I/O variant, lines 24+) stays silent:
    // the explicit drop truncates the guard's live range.
    assert!(
        r6.iter().all(|(line, _)| *line < 24),
        "drop(guard) before the I/O must silence R6: {r6:?}"
    );
}

/// R7 messages from linting a fixture directory (its `metrics.rs` against
/// the `DESIGN.md` beside it).
fn r7_on_fixture_dir(name: &str) -> Vec<String> {
    let report = run(&Config::fixture_dir(fixture(name))).expect("R7 fixture lints");
    report.active().filter(|f| f.rule == "counter-drift").map(|f| f.message.clone()).collect()
}

#[test]
fn r7_fires_one_finding_per_drift_direction() {
    let r7 = r7_on_fixture_dir("counter_drift");
    assert_eq!(r7.len(), 3, "three seeded drift directions: {r7:?}");
    assert!(r7.iter().any(|m| m.contains("`dropped` is declared but never incremented")), "{r7:?}");
    assert!(r7.iter().any(|m| m.contains("`sealed` is missing from the DESIGN")), "{r7:?}");
    assert!(r7.iter().any(|m| m.contains("documents `ghost`")), "{r7:?}");
    // The fully-wired counter stays silent.
    assert!(!r7.iter().any(|m| m.contains("`served`")), "{r7:?}");
}

/// A DESIGN table beside a `Metrics` with no `Counter` field reports
/// every row: a counter scan that matches nothing must not pass silently.
#[test]
fn r7_reports_every_row_when_no_counter_is_found() {
    let r7 = r7_on_fixture_dir("counter_drift_untyped");
    assert_eq!(r7.len(), 2, "one finding per DESIGN row: {r7:?}");
    assert!(r7.iter().all(|m| m.contains("which is not a declared counter")), "{r7:?}");
}

#[test]
fn r8_fires_on_fixture_outside_tests_only() {
    let report = lint_fixture("raw_error_response.rs");
    let r8: Vec<&str> = report
        .active()
        .filter(|f| f.rule == "raw-error-response")
        .map(|f| f.snippet.as_str())
        .collect();
    assert_eq!(r8.len(), 2, "json 503 + raw status line, test module exempt: {r8:?}");
    assert!(r8.iter().any(|s| s.contains("Response::json(503")), "{r8:?}");
    assert!(r8.iter().any(|s| s.contains("HTTP/1.1 503")), "{r8:?}");
}

/// The acceptance-criteria claim, machine-checked: the lock-acquisition
/// graph over the live workspace (dial-serve, dial-replicate, dial-par,
/// and everything else scanned) has no cycle, and is non-trivial — a
/// cycle-free empty graph would prove only that the index is broken.
#[test]
fn live_lock_graph_is_cycle_free() {
    let (nodes, edges, cycles) =
        lock_graph_summary(&Config::workspace(workspace_root())).expect("lock graph builds");
    assert!(nodes >= 10, "lock index looks broken: only {nodes} locks acquired");
    assert!(edges >= 3, "lock graph looks broken: only {edges} ordering edges");
    assert!(cycles.is_empty(), "lock-order cycles in the live tree:\n{}", cycles.join("\n"));
}

/// `--rule` equivalents at the engine level: codes and ids select the
/// same rules, and unknown names are rejected with the valid list.
#[test]
fn rule_filters_accept_codes_ids_and_lists() {
    let mut config = Config::single_file(fixture("raw_error_response.rs"));
    config.rules = vec!["R8".into()];
    let by_code = run(&config).expect("code filter runs");
    config.rules = vec!["raw-error-response".into()];
    let by_id = run(&config).expect("id filter runs");
    assert_eq!(by_code.active_count(), by_id.active_count());
    assert!(by_code.active().all(|f| f.rule == "raw-error-response" || f.rule == "bare-allow"));

    let multi = run(&Config {
        root: fixture("guard_across_fsync.rs"),
        rules: vec!["R6".into(), "R2".into()],
        force_all: true,
    })
    .expect("list filter runs");
    assert!(multi.active().any(|f| f.rule == "guard-across-blocking"));
    assert!(multi.active().any(|f| f.rule == "unwrap-in-serve"));
    assert!(!multi.active().any(|f| f.rule == "counter-drift"));

    config.rules = vec!["R99".into()];
    let err = run(&config).expect_err("unknown rule must be rejected");
    assert!(err.contains("unknown rule"), "{err}");
    assert!(err.contains("lock-order-inversion"), "error must list valid rules: {err}");
}

/// The suppression-debt ledger: a reasoned allow that suppresses nothing
/// is stale; used allows are not.
#[test]
fn stale_allows_are_detected() {
    let report = lint_fixture("stale_allow.rs");
    let stale: Vec<(&str, u32)> =
        report.stale_allows().map(|a| (a.rule.as_str(), a.line)).collect();
    assert_eq!(stale.len(), 1, "exactly the non-firing allow is stale: {stale:?}");
    assert_eq!(stale[0].0, "missing-checkpoint");
    // The working allow in the same file is used, not stale.
    assert!(
        report.allows.iter().any(|a| a.rule == "unwrap-in-serve" && a.used == 1 && !a.stale()),
        "{:?}",
        report.allows
    );
}

/// Allows may name rules by short code; the suppression still applies
/// and the ledger still tracks usage.
#[test]
fn allows_accept_rule_codes() {
    let report = lint_fixture("stale_allow.rs");
    assert!(
        report.findings.iter().any(|f| f.rule == "raw-error-response" && f.suppressed),
        "lint:allow(R8) must suppress a raw-error-response finding: {:?}",
        report.findings
    );
}

/// The engine never walks into `target/`, `vendor/`, or the fixtures dir:
/// fixtures would otherwise fail the clean gate they exist to test.
#[test]
fn workspace_walk_skips_fixtures_and_vendor() {
    let report = run(&Config::workspace(workspace_root())).expect("workspace lint runs");
    for f in &report.findings {
        let p = Path::new(&f.path);
        assert!(
            !p.components().any(|c| {
                matches!(c.as_os_str().to_str(), Some("lint_fixtures" | "vendor" | "target"))
            }),
            "walk entered a skipped dir: {}",
            f.path
        );
    }
}
