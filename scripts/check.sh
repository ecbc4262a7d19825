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

echo "==> quick smokes  (committed fault-resilience and collision CSVs and fault trace exports must regenerate byte-identical)"
git diff --exit-code -- results/ext_fault_resilience.csv results/ext_collision_faultnet.csv results/fault_trace.csv results/fault_trace_summary.csv results/fault_trace.bin

echo "==> fig10_concurrent + ext_three_channels  (collision engine: committed CSVs must regenerate byte-identical)"
cargo run --release -q -p pab-experiments --bin fig10_concurrent > /dev/null
cargo run --release -q -p pab-experiments --bin ext_three_channels > /dev/null
git diff --exit-code -- results/fig10_concurrent.csv results/ext_three_channels.csv

echo "==> dump_identity + fig2_waveform  (faultnet/collision identity snapshot and the Fig. 2 artifacts must regenerate byte-identical)"
cargo run --release -q -p pab-experiments --bin dump_identity -- results/identity > /dev/null
cargo run --release -q -p pab-experiments --bin fig2_waveform > /dev/null
git diff --exit-code -- results/identity results/fig2_waveform.csv results/fig2_envelope.wav

echo "==> figure and extension binaries  (every other committed results/ CSV must regenerate byte-identical)"
for bin in fig3_rectopiezo fig7_ber_snr fig8_snr_bitrate fig9_range fig11_power \
    ext_mobility ext_future_work app_sensing baseline_active; do
    cargo run --release -q -p pab-experiments --bin "$bin" > /dev/null
done
git diff --exit-code -- results/fig3_rectopiezo.csv results/fig7_ber_snr.csv \
    results/fig8_snr_bitrate.csv results/fig9_range.csv results/fig11_power.csv \
    results/ext_mobility.csv results/ext_battery_assist.csv results/ext_open_water.csv \
    results/app_sensing.csv results/baseline_active.csv

echo "==> perfbench tests  (the benchmark still builds against the library API and passes its correctness gate)"
cargo test --release --manifest-path perfbench/Cargo.toml

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets"
    cargo clippy --workspace --all-targets
else
    echo "==> clippy not installed; skipping (build + tests still gate)"
fi

echo "==> all checks passed"
