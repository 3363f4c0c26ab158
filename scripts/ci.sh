#!/usr/bin/env bash
# CI gate. Tier 1 (must stay green): release build + root test suite.
# Then the single-build guard, workspace tests, formatting, clippy and
# rustdoc with warnings denied, the static effect verifier + workspace
# linter, and the dynamic hazard checker over every shipped backend.
# There is one build configuration: every observability layer is
# compiled in and gated at run time.
. "$(dirname "$0")/lib.sh"

step "tier 1: cargo build --release"
cargo build --release

step "tier 1: cargo test -q"
cargo test -q

# One build: no source may switch code on a cargo feature, and no
# manifest may declare features. nulpa-core keeps an empty `hostprof`
# entry only because the benchmark manifest still names it.
step "single build (no cargo-feature switches)"
if grep -rnE 'cfg(_attr)?\((not\()?feature' crates/ src/ tests/ examples/; then
    fail "cfg(feature) switch found (every layer is compiled in)"
fi
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    if [ "$manifest" != crates/core/Cargo.toml ] && grep -q '^\[features\]' "$manifest"; then
        fail "$manifest declares [features] (there is one build)"
    fi
done

step "workspace tests"
cargo test -q --workspace

# The benchmark is a workspace of its own. Its unit tests pin the input
# contract (`read_edge_list` returns the generated graph), so a loader
# change that breaks the benchmark fails here, not only in a bench run.
step "perfbench tests"
cargo test -q --manifest-path perfbench/Cargo.toml

# The sharded wave scheduler and the native fast path both promise
# bit-identical results at any host thread count; run the suite at both
# extremes plus an in-between count to catch order leaks (2 exercises
# the speculative-pick/sequential-repair commit with exactly one
# non-lead worker — the smallest configuration that can race).
step "workspace tests (NULPA_THREADS=1)"
NULPA_THREADS=1 cargo test -q --workspace

step "workspace tests (NULPA_THREADS=2)"
NULPA_THREADS=2 cargo test -q --workspace

step "workspace tests (NULPA_THREADS=4)"
NULPA_THREADS=4 cargo test -q --workspace

step "rustfmt"
cargo fmt --all --check

step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Static verification: the kernel effect solver (lane disjointness,
# staging discipline, barrier uniformity, probe budgets) plus the
# workspace invariant linter. This subsumes the old inline unsafe-code
# grep: the allowlist now lives in check/unsafe_allowlist.toml and stale
# entries fail the gate too.
step "nulpa check (static effect verifier + workspace linter)"
cargo run --release --bin nulpa -- check

step "sancheck (dynamic hazard checker)"
cargo run --release --bin nulpa -- sancheck

# Host-parallel observatory smoke: the profiled fast path must run the
# trio ladder and emit a parseable JSON report (the regression gate
# itself runs inside perf_gate.sh below).
step "hostprof smoke (nulpa profile --host --json)"
cargo run --release --bin nulpa -- profile --host --json > /dev/null

step "perf gate (cycle-attribution baseline)"
bash scripts/perf_gate.sh

step "quality gate (convergence-telemetry baseline)"
bash scripts/quality_gate.sh

echo "CI OK"
