//! Output pin for the whole reporting stack: the FNV-1a 64 digest of
//! exactly what `repro` prints for the test workspace (seed 42, 2 000
//! sites, every experiment in paper order, each `render()` followed by
//! a newline), plus both `repro --csv` files.
//!
//! Any change to measurement, analysis or rendering that moves a single
//! printed byte fails here. A refactor that claims "same numbers" must
//! keep these constants as they are.

use webdeps::reports::{all_experiment_ids, providers_csv, run_experiment, sites_csv, Workspace};

/// FNV-1a 64 — the same digest the benchmark pins its outputs with.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const REPRO_STDOUT: u64 = 0xadb9_898d_192d_5947;
const SITES_CSV: u64 = 0x4eab_83d1_67dd_41b5;
const PROVIDERS_CSV: u64 = 0x6905_0556_90bc_65f4;

#[test]
fn repro_output_and_csv_exports_are_pinned() {
    let ws = Workspace::for_tests();
    let mut out = String::new();
    for id in all_experiment_ids() {
        let report = run_experiment(&ws, id).expect("listed experiment runs");
        out.push_str(&report.render());
        out.push('\n');
    }
    let got = [
        ("repro stdout", fnv1a(out.as_bytes()), REPRO_STDOUT),
        (
            "sites.csv",
            fnv1a(sites_csv(&ws.ds20).as_bytes()),
            SITES_CSV,
        ),
        (
            "providers.csv",
            fnv1a(providers_csv(&ws.ds20).as_bytes()),
            PROVIDERS_CSV,
        ),
    ];
    let drifted: Vec<String> = got
        .iter()
        .filter(|(_, actual, want)| actual != want)
        .map(|(what, actual, want)| format!("{what}: digest {actual:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "output drifted:\n{}",
        drifted.join("\n")
    );
}
