#!/usr/bin/env bash
# Tier-1 verification, fully offline. Usage: scripts/ci.sh [--bench]
#
#   --bench   additionally run every bench target and emit the
#             BENCH_<target>.json trajectory files at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# --locked fails the run on a Cargo.lock that no longer matches the
# manifests, instead of rewriting it.
echo "== cargo build --release --offline --locked =="
cargo build --release --offline --locked

# The workspace run includes tests/parallel_determinism.rs (byte-identical
# results at any worker count): it is a test target of the root package.
echo "== cargo test -q --offline --locked --workspace (every crate's suite, not just the root package) =="
cargo test -q --offline --locked --workspace

# perfbench is its own workspace, so the run above skips it. Its
# self-tests check that the benchmark's replicas still match the
# program (chaos per-tick counts, serve OUTAGE replies, repro incident
# curves), plus its digest pins and metric schema. --locked fails
# instead of rewriting perfbench/Cargo.lock.
echo "== perfbench self-tests (replicas, digest pins, metric schema) =="
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

# The smoke runs at one and at eight workers, and the two stdouts must
# be byte-identical, as for the examples below. (webdeps-serve --smoke is
# not compared: its ok=/err= split depends on how the torture clients'
# threads interleave.)
echo "== webdeps-chaos --smoke (incident replays + invariant campaign, WEBDEPS_JOBS=1 vs 8) =="
mkdir -p target/chaos-stdout
for jobs in 1 8; do
    WEBDEPS_JOBS=$jobs cargo run -q --release --offline -p webdeps-chaos -- --smoke \
        >"target/chaos-stdout/smoke.jobs$jobs.txt"
done
if ! cmp -s target/chaos-stdout/smoke.jobs1.txt target/chaos-stdout/smoke.jobs8.txt; then
    echo "error: webdeps-chaos --smoke prints different output at WEBDEPS_JOBS=1 and 8" >&2
    diff target/chaos-stdout/smoke.jobs1.txt target/chaos-stdout/smoke.jobs8.txt >&2 || true
    exit 1
fi

echo "== webdeps-serve --smoke (daemon torture: shed/deadline/poison invariants) =="
cargo run -q --release --offline -p webdeps-serve -- --smoke

# The workspace test run compiles the examples but does not run them.
# Run each one at one and at eight workers, so an engine change behind
# an example cannot break it unseen (`set -e` fails CI on a non-zero
# exit) and a nondeterministic one cannot pass: the two stdouts must be
# byte-identical.
echo "== examples (every examples/*.rs, release, WEBDEPS_JOBS=1 vs 8) =="
mkdir -p target/examples-stdout
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "-- $name"
    for jobs in 1 8; do
        WEBDEPS_JOBS=$jobs cargo run -q --release --offline --example "$name" \
            >"target/examples-stdout/$name.jobs$jobs.txt"
    done
    if ! cmp -s "target/examples-stdout/$name.jobs1.txt" "target/examples-stdout/$name.jobs8.txt"; then
        echo "error: example $name prints different output at WEBDEPS_JOBS=1 and 8" >&2
        diff "target/examples-stdout/$name.jobs1.txt" "target/examples-stdout/$name.jobs8.txt" >&2 || true
        exit 1
    fi
done

echo "== webdeps-lint v4 (static-analysis pass, warnings denied) =="
cargo run -q --release --offline -p webdeps-lint -- --root . --deny-warnings --json-out LINT_REPORT.json
ls -l LINT_REPORT.json
if ! grep -q '"schema": "webdeps-lint/4"' LINT_REPORT.json; then
    echo "error: LINT_REPORT.json does not carry schema webdeps-lint/4;" >&2
    echo "       the concurrency layer (lock-order graph + guard regions) is missing" >&2
    exit 1
fi
if ! git diff --exit-code -- LINT_REPORT.json LINT_BASELINE.json; then
    echo "error: LINT_REPORT.json or LINT_BASELINE.json drifted from the committed copy;" >&2
    echo "       commit the regenerated report (or re-justify the baseline) with your change" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

# Informational: the counts a change reports its net LOC in. Only a
# broken script fails the run.
echo "== scripts/loc.sh (non-blank Rust lines) =="
scripts/loc.sh

# The soundness arguments in the docs (outage footprints, soft consults)
# rest on intra-doc links; a broken or ambiguous link fails CI.
echo "== cargo doc (rustdoc warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== bench smoke (2 samples, scratch output; compiles + runs every target) =="
# WEBDEPS_BENCH_OUT is resolved from the bench package's cwd, so it
# must be absolute to land in the repo-root target/ scratch dir.
WEBDEPS_BENCH_OUT="$PWD/target" WEBDEPS_BENCH_SAMPLES=2 WEBDEPS_BENCH_SAMPLE_MS=5 \
    WEBDEPS_BENCH_WARMUP_MS=5 cargo bench -q --offline -p webdeps-bench \
    --bench analysis --bench pipeline --bench measure_world --bench lint \
    --bench serve --bench chaos --bench experiments --bench substrate >/dev/null
ls -l target/BENCH_analysis.json target/BENCH_pipeline.json \
    target/BENCH_measure_world.json target/BENCH_lint.json target/BENCH_serve.json \
    target/BENCH_chaos.json target/BENCH_experiments.json target/BENCH_substrate.json

echo "== per-phase, resolver-work, DNS-store, web-plane and measurement-peak metrics present in BENCH_measure_world.json =="
# The measure_world target must report where generate+measure time goes
# (timing::scope instrumentation drained through record_metric), how
# much resolver work each measurement pass does (with the worker count
# it depends on) and how many registrable-domain questions it asks of
# the public-suffix list, how many bytes per site the world's DNS store and web
# plane hold, and measurement's transient heap peak; a missing metric
# means the observability layer regressed. The B/site arena, core, DNS,
# web and measurement-peak budget asserts run inside the bench binary
# itself.
for phase in gen/plan gen/sites measure/observe measure/classify measure/assemble measure/interservice \
    measure/workers measure/observe/queries_per_site measure/observe/cache_hit_ratio \
    measure/classify/queries_per_site measure/classify/cache_hit_ratio \
    measure/observe/registrable_lookups_per_site measure/classify/registrable_lookups_per_site \
    dns_bytes_per_site web_bytes_per_site measure_peak_bytes_per_site; do
    if ! grep -q "\"name\":\"$phase\"" target/BENCH_measure_world.json; then
        echo "error: metric '$phase' missing from BENCH_measure_world.json" >&2
        exit 1
    fi
done

if [[ "${1:-}" == "--bench" ]]; then
    echo "== cargo bench (std harness, JSON trajectory; 1M columnar scale opt-in) =="
    WEBDEPS_BENCH_1M=1 cargo bench --offline --workspace
    ls -l BENCH_*.json
fi

echo "CI OK"
