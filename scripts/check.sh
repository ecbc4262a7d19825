#!/usr/bin/env sh
# One-command local gate: build, tests (including the pab-lint domain
# linter via crates/lint/tests/enforce.rs), and clippy when available.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q  (includes pab-lint enforcement)"
cargo test -q

# Standalone linter pass: same findings the enforce test gates on, but
# emitted as JSON so CI (and editors) can consume them. Written to
# target/pab-lint.json; a non-empty findings set fails the gate here
# with the human-readable report.
echo "==> pab-lint --json  (domain linter, machine-readable findings)"
mkdir -p target
if cargo run --release -q -p pab-lint --bin pab-lint -- --json > target/pab-lint.json; then
    echo "    0 violations (target/pab-lint.json)"
else
    status=$?
    cat target/pab-lint.json
    cargo run --release -q -p pab-lint --bin pab-lint || true
    exit "$status"
fi

echo "==> fault-resilience integration tests (tests/fault_resilience.rs)"
cargo test -q -p pab-core --test fault_resilience

echo "==> ext_fault_resilience --quick --trace  (fault injection smoke + telemetry trace)"
cargo run --release -q -p pab-experiments --bin ext_fault_resilience -- --quick --trace
for f in results/fault_trace.csv results/fault_trace_summary.csv results/fault_trace.bin; do
    [ -s "$f" ] || { echo "missing telemetry export: $f"; exit 1; }
done

echo "==> ext_collision_faultnet --quick  (collision-slot smoke: pairing, training, conditioning fallback)"
cargo run --release -q -p pab-experiments --bin ext_collision_faultnet -- --quick
[ -s results/ext_collision_faultnet.csv ] || { echo "missing results/ext_collision_faultnet.csv"; exit 1; }

echo "==> fig10_concurrent + ext_three_channels  (collision engine: committed CSVs must regenerate byte-identical)"
cargo run --release -q -p pab-experiments --bin fig10_concurrent > /dev/null
cargo run --release -q -p pab-experiments --bin ext_three_channels > /dev/null
git diff --exit-code -- results/fig10_concurrent.csv results/ext_three_channels.csv

echo "==> perfbench tests  (the benchmark still builds against the library API and passes its correctness gate)"
cargo test --release --manifest-path perfbench/Cargo.toml

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets"
    cargo clippy --workspace --all-targets
else
    echo "==> clippy not installed; skipping (build + tests still gate)"
fi

echo "==> all checks passed"
