//! Integration tests for the `dial` command-line interface.

use std::process::Command;

fn dial() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dial"))
}

#[test]
fn generate_summary_analyze_round_trip() {
    let dir = std::env::temp_dir().join(format!("dial-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("market.json");

    let out = dial()
        .args(["generate", "--scale", "0.01", "--seed", "5", "--out"])
        .arg(&snapshot)
        .output()
        .expect("run dial generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(snapshot.exists());

    let out = dial().arg("summary").arg(&snapshot).output().expect("run dial summary");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "summary output: {stdout}");
    assert!(stdout.contains("public:"));

    let out = dial()
        .arg("analyze")
        .arg(&snapshot)
        .args(["--experiment", "table1", "--experiment", "fig1", "--experiment", "ext-stimulus"])
        .output()
        .expect("run dial analyze");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[table1]"));
    assert!(stdout.contains("[fig1]"));
    assert!(stdout.contains("mandate jump"));
    assert!(stdout.contains("[ext-stimulus]"));

    // CSV export produces the four flat tables with headers.
    let csv_dir = dir.join("csv");
    let out = dial()
        .arg("export")
        .arg(&snapshot)
        .arg("--dir")
        .arg(&csv_dir)
        .output()
        .expect("run dial export");
    assert!(out.status.success(), "export failed: {}", String::from_utf8_lossy(&out.stderr));
    for table in ["contracts.csv", "users.csv", "threads.csv", "posts.csv"] {
        let content = std::fs::read_to_string(csv_dir.join(table)).expect(table);
        assert!(content.lines().count() >= 1, "{table} empty");
        assert!(content.lines().next().unwrap().contains("id,"), "{table} header");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_threads_flag_is_reported_and_does_not_change_output() {
    let dir = std::env::temp_dir().join(format!("dial-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("market.json");
    let out = dial()
        .args(["generate", "--scale", "0.01", "--seed", "9", "--out"])
        .arg(&snapshot)
        .output()
        .expect("run dial generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));

    let analyze = |threads: &str| {
        let out = dial()
            .arg("analyze")
            .arg(&snapshot)
            .args(["--experiment", "table1,table2,fig1,fig5", "--threads", threads])
            .output()
            .expect("run dial analyze");
        assert!(out.status.success(), "analyze failed: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("compute pool: {threads} thread(s)")),
            "pool size not reported: {stderr}"
        );
        out.stdout
    };
    // `--threads 1` is the documented serial path; wider pools must
    // produce byte-identical output.
    let serial = analyze("1");
    let parallel = analyze("4");
    assert_eq!(serial, parallel, "--threads changed the analyze output");

    // Invalid thread counts abort with a clear message.
    let out =
        dial().arg("analyze").arg(&snapshot).args(["--all", "--threads", "0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads must be"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_names_every_registered_experiment() {
    let out = dial().arg("list").output().expect("run dial list");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["table1", "table10", "fig1", "fig13"] {
        assert!(stdout.contains(id), "missing {id} in list output");
    }
}

#[test]
fn scale_is_validated_not_silently_defaulted() {
    // Zero, negative, non-finite, and non-numeric scales must abort with
    // a clear message instead of falling back to the 0.1 default.
    for (bad, msg) in [
        ("0", "must be > 0"),
        ("-0.5", "must be > 0"),
        ("nan", "must be finite"),
        ("inf", "must be finite"),
        ("lots", "expected a number"),
    ] {
        let out = dial().args(["generate", "--scale", bad, "--out", "/dev/null"]).output().unwrap();
        assert!(!out.status.success(), "generate --scale {bad} unexpectedly succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(msg), "generate --scale {bad}: {stderr}");
    }
    // `replay` shares the validation (checked before any connection).
    let out = dial().args(["replay", "--target", "127.0.0.1:1", "--scale", "0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("must be > 0"));
}

#[test]
fn live_serve_and_replay_round_trip() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut server = dial()
        .args(["serve", "--live", "--seed", "9", "--port", "0", "--threads", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dial serve --live");

    // The server reports its bound address on stderr once it is up.
    let stderr = server.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read server stderr") == 0 {
            panic!("server exited before reporting its address");
        }
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });

    let out = dial()
        .args(["replay", "--seed", "9", "--scale", "0.01", "--target", &addr])
        .output()
        .expect("run dial replay");
    let replay_err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "replay failed: {replay_err}");
    assert!(replay_err.contains("replay complete"), "{replay_err}");

    // The grown snapshot now answers queries like any static one.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    write!(stream, "GET /v1/summary HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "summary after replay: {raw}");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let v: serde_json::Value = serde_json::from_str(body).expect("summary is JSON");
    let contracts = v.get("counts").get("contracts").as_u64().unwrap_or(0);
    assert!(contracts > 0, "snapshot stayed empty: {body}");

    server.kill().ok();
    server.wait().ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = dial().output().expect("run dial with no args");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = dial().args(["analyze", "/nonexistent.json", "--all"]).output().unwrap();
    assert!(!out.status.success());

    let out = dial().args(["summary"]).output().unwrap();
    assert!(!out.status.success());
}

/// `dial lint` over the shipped tree exits 0 — the same gate ci.sh runs.
#[test]
fn lint_clean_tree_exits_zero() {
    let out = dial().args(["lint", env!("CARGO_MANIFEST_DIR")]).output().expect("run dial lint");
    assert!(
        out.status.success(),
        "lint found violations:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("file(s) scanned"), "summary line missing: {stdout}");
}

/// The machine-readable report defaults to schema 2: per-finding
/// `code`/`severity`, and a `summary` block with per-rule counts for the
/// whole catalogue. Violating fixture input also pins the nonzero exit.
#[test]
fn lint_json_schema_and_nonzero_exit() {
    let fixture =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/lint_fixtures/nondeterministic_iteration.rs");
    let out = dial().args(["lint", "--json", fixture]).output().expect("run dial lint --json");
    assert!(!out.status.success(), "a violating fixture must exit nonzero");

    let body = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(body.trim()).expect("lint --json is JSON");
    assert_eq!(v.get("schema").as_u64(), Some(2), "schema version");
    assert_eq!(v.get("files_scanned").as_u64(), Some(1));

    let summary = v.get("summary").as_object().expect("summary block");
    let active = summary.get("active").and_then(|n| n.as_u64()).expect("active count");
    let suppressed = summary.get("suppressed").and_then(|n| n.as_u64()).expect("suppressed count");
    assert!(active >= 4, "fixture has 4 violations, got {active}");
    assert_eq!(suppressed, 0);
    assert_eq!(summary.get("stale_allows").and_then(|n| n.as_u64()), Some(0));

    // by_rule covers the whole catalogue, zero counts included.
    let by_rule = summary.get("by_rule").and_then(|b| b.as_object()).expect("by_rule block");
    for rule in [
        "nondeterministic-iteration",
        "unwrap-in-serve",
        "lock-order-inversion",
        "counter-drift",
        "raw-error-response",
    ] {
        let entry = by_rule.get(rule).and_then(|e| e.as_object());
        let entry = entry.unwrap_or_else(|| panic!("by_rule missing {rule}"));
        assert!(entry.get("code").and_then(|c| c.as_str()).is_some_and(|c| c.starts_with('R')));
        assert!(entry.get("severity").and_then(|s| s.as_str()).is_some());
        assert!(entry.get("active").and_then(|n| n.as_u64()).is_some());
    }
    let r1 = &by_rule["nondeterministic-iteration"];
    assert_eq!(r1.get("active").as_u64(), Some(active));
    assert_eq!(by_rule["lock-order-inversion"].get("severity").as_str(), Some("critical"));

    let findings = v.get("findings").as_array().expect("findings array");
    assert_eq!(findings.len() as u64, active + suppressed);
    for f in findings {
        assert_eq!(f.get("rule").as_str(), Some("nondeterministic-iteration"));
        assert_eq!(f.get("code").as_str(), Some("R1"));
        assert_eq!(f.get("severity").as_str(), Some("error"));
        assert!(f.get("path").as_str().is_some_and(|p| p.ends_with(".rs")), "{f:?}");
        assert!(f.get("line").as_u64().is_some_and(|l| l >= 1), "{f:?}");
        assert!(f.get("col").as_u64().is_some_and(|c| c >= 1), "{f:?}");
        assert_eq!(f.get("suppressed").as_bool(), Some(false));
        assert!(f.get("snippet").as_str().is_some(), "{f:?}");
        assert!(f.get("message").as_str().is_some_and(|m| !m.is_empty()), "{f:?}");
    }
}

/// `--json-schema 1` keeps the PR 5 report shape for existing consumers;
/// unknown schema numbers are rejected with the valid list.
#[test]
fn lint_json_schema_1_back_compat() {
    let fixture =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/lint_fixtures/nondeterministic_iteration.rs");
    let out = dial()
        .args(["lint", "--json", "--json-schema", "1", fixture])
        .output()
        .expect("run dial lint --json-schema 1");
    assert!(!out.status.success(), "a violating fixture must exit nonzero");

    let body = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(body.trim()).expect("lint --json is JSON");
    assert_eq!(v.get("version").as_u64(), Some(1), "schema-1 version key");
    assert!(v.get("schema").as_u64().is_none(), "schema-1 output must not carry the v2 key");
    assert!(v.get("summary").as_object().is_none(), "schema-1 output has no summary block");
    let active = v.get("active").as_u64().expect("flat active count");
    assert!(active >= 4, "fixture has 4 violations, got {active}");
    for f in v.get("findings").as_array().expect("findings array") {
        assert!(f.get("code").as_str().is_none(), "schema-1 findings carry no code: {f:?}");
        assert!(f.get("severity").as_str().is_none(), "schema-1 findings carry no severity: {f:?}");
    }

    let out = dial()
        .args(["lint", "--json", "--json-schema", "7", fixture])
        .output()
        .expect("run dial lint with bad schema");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown JSON schema"), "stderr: {stderr}");
}

/// `--rule` narrows the run to a comma-separated list of rule ids or
/// codes, and rejects unknown names with the valid list.
#[test]
fn lint_rule_filter() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/lint_fixtures/unwrap_in_serve.rs");
    let out = dial()
        .args(["lint", "--json", "--rule", "wall-clock-in-deterministic", fixture])
        .output()
        .expect("run dial lint --rule");
    // The unwrap fixture has no wall-clock reads, so the filtered run is
    // clean and exits zero.
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));

    // Comma lists and short codes select the same rules: R2 alone fires
    // on this fixture, with or without R3 riding along.
    let out = dial()
        .args(["lint", "--json", "--rule", "R2,R3", fixture])
        .output()
        .expect("run dial lint --rule R2,R3");
    assert!(!out.status.success(), "R2 must fire on the unwrap fixture");
    let v: serde_json::Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    for f in v.get("findings").as_array().expect("findings array") {
        assert_eq!(f.get("rule").as_str(), Some("unwrap-in-serve"), "{f:?}");
    }

    let out = dial()
        .args(["lint", "--rule", "no-such-rule", fixture])
        .output()
        .expect("run dial lint with bad rule");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule"), "stderr: {stderr}");
    assert!(stderr.contains("lock-order-inversion"), "valid list missing: {stderr}");
}

/// `--allows` prints the suppression ledger and fails on stale allows:
/// the committed fixture carries exactly one.
#[test]
fn lint_allows_ledger_flags_stale_suppressions() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/lint_fixtures/stale_allow.rs");
    let out = dial().args(["lint", "--allows", fixture]).output().expect("run dial lint --allows");
    assert!(!out.status.success(), "a stale allow must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("STALE"), "ledger: {stdout}");
    assert!(stdout.contains("missing-checkpoint"), "ledger: {stdout}");
    assert!(stdout.contains("used=1"), "the unwrap allow suppresses one finding: {stdout}");
    assert!(stdout.contains("1 stale"), "footer: {stdout}");

    // The live tree's ledger is clean — the same gate ci.sh enforces.
    let out = dial()
        .args(["lint", "--allows", env!("CARGO_MANIFEST_DIR")])
        .output()
        .expect("run dial lint --allows on the tree");
    assert!(
        out.status.success(),
        "stale allows in the live tree:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `dial replay` against a target that accepts and never answers fails
/// with a timeout instead of hanging: each POST has a 10 s IO timeout.
#[test]
fn replay_times_out_against_a_silent_target() {
    use std::io::Read;
    use std::time::{Duration, Instant};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut child = dial()
        .args(["replay", "--seed", "9", "--scale", "0.01", "--target", &addr])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dial replay");

    // Accept and hold every connection without answering. The test keeps
    // its own deadlines, so a replay that never gives up fails here
    // instead of hanging the suite.
    let spawned = Instant::now();
    let mut held = Vec::new();
    let mut connected: Option<Instant> = None;
    let status = loop {
        if let Ok((sock, _)) = listener.accept() {
            held.push(sock);
            connected.get_or_insert_with(Instant::now);
        }
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        let stuck = match connected {
            Some(at) => at.elapsed() > Duration::from_secs(15),
            None => spawned.elapsed() > Duration::from_secs(120),
        };
        if stuck {
            child.kill().ok();
            child.wait().ok();
            let (since, what) = match connected {
                Some(at) => (at, "connecting"),
                None => (spawned, "spawning"),
            };
            panic!("dial replay still blocked {:?} after {what}", since.elapsed());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(connected.is_some(), "replay never connected: {stderr}");
    assert!(!status.success(), "a silent target must fail the replay: {stderr}");
    assert!(stderr.contains("timed out"), "expected a timeout error: {stderr}");
}

/// `dial replay --speed` rejects garbage instead of silently replaying
/// at full speed — the exact diagnostics are part of the CLI contract.
#[test]
fn replay_speed_is_validated_not_silently_defaulted() {
    let cases = [
        ("fast", "invalid --speed \"fast\": expected simulated days per second, e.g. 30 (0 = full speed)"),
        ("-3", "invalid --speed \"-3\": must be >= 0"),
        ("NaN", "invalid --speed \"NaN\": must be finite"),
    ];
    for (speed, message) in cases {
        let out = dial()
            .args(["replay", "--target", "localhost:1", "--speed", speed])
            .output()
            .expect("run dial replay");
        assert!(!out.status.success(), "--speed {speed} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "--speed {speed}: {stderr}");
        // Validation happens before any simulation or network traffic.
        assert!(!stderr.contains("simulating"), "--speed {speed}: {stderr}");
    }
}

/// `dial sim --sybil ERA:TARGETS:FAKES` arms the attack (announced on
/// stderr) and rejects malformed triples with the pinned messages.
#[test]
fn sim_sybil_flag_arms_and_validates() {
    let dir = std::env::temp_dir().join(format!("dial-cli-sybil-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sybil.json");
    let out = dial()
        .args(["sim", "--scale", "0.01", "--sybil", "stable:5:3", "--out"])
        .arg(&path)
        .output()
        .expect("run dial sim --sybil");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sybil attack armed"), "stderr: {stderr}");
    assert!(path.exists());
    std::fs::remove_dir_all(&dir).ok();

    let cases = [
        ("bogus", "invalid --sybil \"bogus\": expected ERA:TARGETS:FAKES, e.g. setup:40:20"),
        ("covid:10:0", "invalid --sybil fakes \"0\": expected an integer >= 1"),
        ("late:10:2", "invalid --sybil era \"late\": expected setup, stable or covid"),
    ];
    for (arg, message) in cases {
        let out = dial().args(["sim", "--sybil", arg]).output().expect("run dial sim");
        assert!(!out.status.success(), "--sybil {arg} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "--sybil {arg}: {stderr}");
    }
}

/// `dial scenario check` reports parse errors as `file:line: message`
/// on stderr with a nonzero exit, and accepts the shipped examples.
#[test]
fn scenario_check_reports_file_line_errors() {
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/scenario_fixtures/bad_month.scn");
    let out = dial().args(["scenario", "check", bad]).output().expect("run scenario check");
    assert!(!out.status.success(), "a malformed scenario must fail the check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad_month.scn:4: "), "stderr: {stderr}");
    assert!(stderr.contains("invalid month"), "stderr: {stderr}");

    let good = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/mandate_flip.scn");
    let out = dial().args(["scenario", "check", good]).output().expect("run scenario check");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "stdout: {stdout}");
    assert!(stdout.contains("mandate-flip"), "stdout: {stdout}");
}
