#!/usr/bin/env bash
# Tier-1 gate. The workspace has no external dependencies, so everything
# runs with --offline: a build that reaches for the network is a bug.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The workspace run covers every named suite: the store round-trip and
# warm start, verifier-pruned search, the tree-vs-register-VM engine
# differential, the mini-C parse/print fuzz, legality vs dependences,
# the Fourier-Motzkin properties, corpus conformance, the report
# goldens, parallel determinism, search-module conformance and the
# tuning service and its wire protocol.
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# The end-to-end benchmark package is not a workspace member, so the
# lines above never compile it. Build and unit-test it here, so a
# library API change that breaks it fails CI rather than the benchmark
# run; --locked also refuses a dependency change that would rewrite its
# Cargo.lock.
cargo build --release --offline --locked --manifest-path crates/bench/src/bin/locus-benchmark/Cargo.toml
cargo test -q --offline --locked --manifest-path crates/bench/src/bin/locus-benchmark/Cargo.toml

# Run each benchmark workload for one second with a fixed seed. A run
# exits nonzero when an operation fails or an output check does not
# hold, so a driver change that breaks what the workloads produce fails
# here, not only in a full benchmark run. Runs write under the ignored
# .bench_run/ directory.
for workload in fig7-dgemm corpus-sweep warm-replay service; do
    ./crates/bench/src/bin/locus-benchmark/target/release/locus-benchmark \
        --workload "$workload" --seed 1 --seconds 1 > /dev/null
done

# Engine bench smoke in check mode: refuses to pass unless every kernel
# is bit-identical across the tree interpreter, the register VM *and*
# the batched register path, the register VM clears its speedup floors
# (7x geomean batched, 6x sequential), and the disabled-tracer
# run_traced path stays under 1% overhead.
./target/release/bench_interp /tmp/locus_bench_interp.json --check

# Cross-machine corpus sweep smoke: two entries over two profiles;
# every non-donor row must transfer its recipe from the store.
./target/release/bench_corpus --check

# Legality-memo and verdict-precision smoke: a second sweep of the Fig. 7
# space's builds must be answered from the legality memo alone (zero
# misses) and build every point as the first sweep did, and at least one
# triangular registry entry must admit a legal restructuring the
# conservative engine refused.
./target/release/bench_verify --check

# Search shoot-out in check mode: MCTS or the trace sampler must beat
# both the bandit and the annealer on evaluations-to-best-known for at
# least one corpus family, and the extended portfolio must not regress
# against its pre-extension composition on any family.
./target/release/bench_search --check

# The committed search and corpus reports hold no wall-clock field, so
# a full regeneration must reproduce them byte for byte: this pins
# every count, proposals included, against the code that made them.
./target/release/bench_search /tmp/locus_bench_search.json
cmp /tmp/locus_bench_search.json BENCH_search.json
./target/release/bench_corpus /tmp/locus_bench_corpus.json
cmp /tmp/locus_bench_corpus.json BENCH_corpus.json

# Parallel-driver bench in check mode: on every row tune_parallel must
# return the sequential tune's best point and objective bit for bit.
./target/release/bench_parallel /tmp/locus_bench_parallel.json --check

# Store bench in check mode: the warm session must return the cold
# session's best bit for bit, simulate nothing and answer one store hit
# per unit of budget, and reopening the log must index every appended
# record and skip no line.
./target/release/bench_store /tmp/locus_bench_store.json --check

# Daemon bench smoke in check mode: zero error replies, the warm phase
# re-measures nothing and beats the cold wall-clock, and a poisoned
# request is refused as a structured panic while the daemon lives on.
./target/release/bench_daemon /tmp/locus_bench_daemon.json --check

# locus-report smoke: the committed fixture traces validate, and a
# malformed input is refused with a nonzero exit.
./target/release/locus-report --check tests/fixtures/session_trace.jsonl
./target/release/locus-report --check tests/fixtures/synthetic_trace.jsonl
if ./target/release/locus-report --check /dev/null; then
    echo "locus-report accepted an empty trace — it must refuse it" >&2
    exit 1
fi

# locus-lint smoke: the clean example lints clean, the racy one is
# refused with a nonzero exit.
./target/release/locus-lint examples/lint_clean.c
if ./target/release/locus-lint examples/lint_racy.c; then
    echo "locus-lint accepted examples/lint_racy.c — it must refuse it" >&2
    exit 1
fi
