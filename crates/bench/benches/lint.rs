//! webdeps-lint benchmark: one full lint pass over the repository's
//! own workspace, tracked in the performance trajectory.

use std::hint::black_box;
use std::path::PathBuf;
use webdeps_bench::harness::Harness;
use webdeps_lint::{lint_workspace, Config};

fn lint_benches(h: &mut Harness) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = Config::default();

    let mut group = h.benchmark_group("lint/driver");
    group.sample_size(10);

    // Every file read, parsed and linted in one serial pass; the name
    // matches the earlier `BENCH_lint.json` entries.
    group.bench_function("cold_serial", |b| {
        b.iter(|| black_box(lint_workspace(&root, &cfg, None).expect("lint pass")));
    });

    group.finish();
}

fn main() {
    let mut h = Harness::new("lint");
    lint_benches(&mut h);
    h.finish();
}
