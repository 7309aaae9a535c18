#!/usr/bin/env sh
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root; exits non-zero on the first failure.
#
# Gate order is cheapest-first so failures surface early: formatting and
# clippy, then the release build, then `dial lint` (the in-tree static
# analyser — seconds, and its determinism rules guard exactly what the
# multi-minute equivalence suites diff), then the whole test suite, then
# the scenario determinism gate and the bench smokes. The root package is
# a workspace member, so `cargo test --workspace` already runs its slow
# suites (parallel/stream equivalence, chaos, store recovery,
# replication, failover, scenario); they get no steps of their own.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo fmt --check (vendored crates: outside the workspace, so checked one by one)"
for manifest in vendor/*/Cargo.toml; do
    cargo fmt --check --manifest-path "$manifest"
done

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (vendored crates: outside the workspace, so linted one by one)"
for manifest in vendor/*/Cargo.toml; do
    cargo clippy --offline --manifest-path "$manifest" --all-targets --target-dir target/vendor -- -D warnings
done

echo "==> cargo build --release"
cargo build --release

echo "==> dial lint (static analysis: per-file rules + workspace lock/metrics/contract graphs)"
./target/release/dial lint

echo "==> dial lint --json (schema-2 report archived as LINT.json)"
./target/release/dial lint --json > LINT.json
test -s LINT.json

echo "==> dial lint --allows (suppression ledger; stale allows fail the gate)"
./target/release/dial lint --allows

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> scenario determinism gate (two CLI runs of the shipped example are byte-identical)"
./target/release/dial scenario check examples/mandate_flip.scn
./target/release/dial scenario run examples/mandate_flip.scn \
    --experiment table1,fig2 --classes 4 --json >/tmp/dial_scn_a.json
./target/release/dial scenario run examples/mandate_flip.scn \
    --experiment table1,fig2 --classes 4 --json >/tmp/dial_scn_b.json
cmp /tmp/dial_scn_a.json /tmp/dial_scn_b.json
grep -q '"diff_fingerprint"' /tmp/dial_scn_a.json
rm -f /tmp/dial_scn_a.json /tmp/dial_scn_b.json

echo "==> failover bench smoke (time-to-recover headline -> BENCH_failover.json)"
cargo bench -p dial-bench --bench failover
test -s BENCH_failover.json

echo "==> lint bench smoke (full-workspace analysis wall time -> BENCH_lint.json)"
cargo bench -p dial-bench --bench lint
test -s BENCH_lint.json

echo "==> ci.sh: all green"
