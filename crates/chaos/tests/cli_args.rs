//! The `webdeps-chaos` command line treats its arguments as untrusted
//! input: a value that cannot describe a world is a usage error with
//! exit status 1, never an availability curve of an empty world.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_webdeps-chaos"))
        .args(args)
        .output()
        .expect("the binary runs")
}

#[test]
fn sites_zero_is_rejected_in_every_mode() {
    for args in [
        &["--replay", "dyn", "--sites", "0"][..],
        &["--replay", "globalsign", "--sites", "0"][..],
        &["--campaign", "--sites", "0"][..],
        &["--replay-schedule", "--seed", "5", "--sites", "0"][..],
        &["--smoke", "--sites", "0"][..],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {stderr}");
        assert!(
            stderr.contains("usage: webdeps-chaos"),
            "{args:?}: usage line missing: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: printed {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn one_site_world_replays() {
    let out = run(&["--replay", "dyn", "--sites", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("min availability:"), "{stdout}");
}
