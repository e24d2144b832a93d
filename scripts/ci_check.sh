#!/usr/bin/env bash
# The full pre-merge check: formatting, tier-1 (release build + every test
# suite), the differential fuzz suites — including the retraction oracle
# (assert/retract interleavings vs fresh batch evaluation of the surviving
# base facts) and the crash-injection recovery suite (durable sessions
# killed at fuzzed WAL offsets, recovered, and compared bit-for-bit
# against a fresh replay), the sharded-commit threads matrix
# (every generated case forced through the sharded dedupe + task-order
# merge at threads 1/2/4/8 plus the commit-phase mutation tests), the
# demand-driven query oracle (query_bound ≡ filter of the batch fixpoint
# across every adornment of arity ≤ 3, with the transformation's own
# mutants — dropped magic guard, bypassed fallback — being caught), the
# transducer-algebra property suite (trim/determinize/compose/minimize
# vs the extensional oracle on random machines, with the skip-trim and
# swapped-composition mutants being caught) and the fusion differential
# (fusion on ≡ off bit-for-bit at threads 1/2/4/8) — the
# SL001..SL009 lint analyzer over the
# program corpus with machine-level lints, and a zero-warning clippy
# pass over every
# target. The fuzz
# generators are seeded from test names (see crates/shims/proptest), so a
# failure here reproduces locally by running the same test — no seed to
# copy around.
# Usage: scripts/ci_check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q — every crate's suites (the root Cargo.toml's"
echo "    default-members cover the whole workspace), including:"
echo "  * tests/fuzz_differential.rs with its pinned seeds: batch/incremental"
echo "    properties AND the retraction oracle — retract ≡ fresh batch"
echo "    evaluation of the surviving base facts, 600 generated cases"
echo "  * tests/fuzz_recovery.rs (crash-injection recovery suite: durable"
echo "    sessions killed at fuzzed WAL byte offsets and record boundaries,"
echo "    recovered across threads 1/2/4/8, and compared bit-for-bit against"
echo "    a fresh replay of the surviving log; plus bit-flip corruption"
echo "    sweeps and the harness's own mutants — skip-truncation,"
echo "    skip-checksum, stale-watermarks — being caught)"
echo "  * the sharded-commit threads matrix (fuzz_differential and"
echo "    fuzz_recovery sharded_commit*, mutant_*): every generated case"
echo "    forced through the parallel sharded commit at threads 1/2/4/8 and"
echo "    compared bit-for-bit against the sequential reference — assert-only"
echo "    batches, retraction interleavings, and crash-recovery replays —"
echo "    plus the commit-phase mutation tests (reversed shard-merge order,"
echo "    skipped epoch freeze) being caught"
echo "  * tests/fuzz_demand.rs (demand-driven query oracle: query_bound ≡"
echo "    sorted filter of the batch fixpoint for every populated predicate"
echo "    and every bound/free adornment of arity ≤ 3, on settled and"
echo "    unsettled sessions, bit-for-bit across threads 1/2/4/8; plus the"
echo "    transformation mutants — dropped magic guard, bypassed"
echo "    domain-sensitive fallback — being caught)"
echo "  * crates/transducer/tests/algebra.rs (transducer-algebra property"
echo "    suite: trim/determinize/compose/minimize preserve the machine's"
echo "    relation against the brute-force extensional oracle on random"
echo "    machines; equivalence agrees with extensional comparison; plus the"
echo "    harness's own mutants — skip-trim, swapped composition order —"
echo "    being caught)"
echo "  * tests/fuzz_fusion.rs (fusion differential: every generated case"
echo "    extended with transducer-chain clauses, plus the paper's transducer"
echo "    programs, evaluated with the compile-time fusion pass on and off —"
echo "    extents bit-for-bit identical at threads 1/2/4/8, and the fused"
echo "    route provably doing less transducer work)"
cargo test -q

echo "==> lint analyzer over the program corpus (examples/programs/*.sdl):"
echo "    SL001..SL009 diagnostics must match each file's % expect: directive"
echo "    exactly — clean programs fail on any new warning, lint fixtures"
echo "    fail if their diagnostic stops reproducing (--machines prints the"
echo "    registered machines' algebra report: size, functionality, minimized"
echo "    size)"
cargo run --release -q --example analyze -- --check --machines examples/programs/*.sdl

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "ci_check: all green"
