//! End-to-end daemon tests: real sockets, real workers, real chaos.

use std::sync::Arc;

use webdeps_model::ServiceKind;
use webdeps_serve::engine::Engine;
use webdeps_serve::proto::{classify_reply, ReplyKind};
use webdeps_serve::server::{connect, roundtrip, spawn, ServerConfig};
use webdeps_serve::stats::ServerStats;
use webdeps_serve::torture::{run_torture, TortureConfig};
use webdeps_worldgen::{SnapshotYear, World, WorldConfig};

fn tiny_engine(verify: bool, poison: bool) -> Arc<Engine> {
    let world = World::generate(WorldConfig {
        seed: 71,
        n_sites: 150,
        year: SnapshotYear::Y2020,
    });
    Arc::new(Engine::from_world(world, verify, poison))
}

fn ask(stream: &mut std::net::TcpStream, req: &str) -> String {
    let reply = roundtrip(stream, req, 64 * 1024).expect("roundtrip");
    String::from_utf8(reply).expect("utf8 reply")
}

#[test]
fn answers_queries_with_stable_epochs_then_drains_on_shutdown() {
    let engine = tiny_engine(true, false);
    let handle = spawn(Arc::clone(&engine), ServerConfig::default()).expect("bind");
    let mut stream = connect(handle.addr(), 5_000).expect("connect");

    let pong = ask(&mut stream, "PING");
    let (kind, epoch) = classify_reply(pong.as_bytes()).expect("classify PING");
    assert_eq!(kind, ReplyKind::Ok);
    assert_eq!(epoch, Some(0));

    let rank = ask(&mut stream, "RANK dns 3");
    assert!(rank.contains("RANK dns"), "rank reply: {rank}");

    let keys = engine.provider_keys(ServiceKind::Dns, 1);
    let key = keys.first().expect("world has a DNS provider");
    let sites = ask(&mut stream, &format!("SITES dns {key}"));
    assert!(sites.contains("SITES"), "sites reply: {sites}");

    // Churn bumps the epoch; later replies must carry the new one.
    let churn = ask(&mut stream, &format!("CHURN ADD-SITE 0 dns {key} critical"));
    let (kind, epoch) = classify_reply(churn.as_bytes()).expect("classify CHURN");
    assert_eq!(kind, ReplyKind::Ok, "churn reply: {churn}");
    assert_eq!(epoch, Some(1));
    let pong = ask(&mut stream, "PING");
    let (_, epoch) = classify_reply(pong.as_bytes()).expect("classify PING 2");
    assert_eq!(epoch, Some(1));

    let stats_line = ask(&mut stream, "STATS");
    assert!(stats_line.contains("churn_patched="), "stats: {stats_line}");

    let bye = ask(&mut stream, "SHUTDOWN");
    assert!(bye.contains("draining"), "shutdown reply: {bye}");
    handle.shutdown();
}

#[test]
fn full_queues_get_explicit_busy_and_recover() {
    let engine = tiny_engine(false, false);
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 1,
        retry_after_ms: 7,
        ..ServerConfig::default()
    };
    let handle = spawn(engine, cfg).expect("bind");

    // A occupies the single worker (its handler parks in read_frame).
    let mut a = connect(handle.addr(), 5_000).expect("connect a");
    let pong = ask(&mut a, "PING");
    assert!(pong.starts_with("OK"), "a: {pong}");

    // B fills the single queue slot; C must be shed with BUSY.
    let _b = connect(handle.addr(), 5_000).expect("connect b");
    // Give the accept loop a moment to enqueue B before C arrives.
    let mut shed = None;
    for _ in 0..50 {
        let mut c = match connect(handle.addr(), 5_000) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let reply = webdeps_serve::frame::read_frame(&mut c, 64 * 1024);
        match reply {
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes).to_string();
                if text.starts_with("BUSY") {
                    shed = Some(text);
                    break;
                }
            }
            Err(_) => continue,
        }
    }
    let busy = shed.expect("one connection should be shed with BUSY");
    assert!(
        busy.contains("retry-after-ms=7"),
        "busy reply carries retry hint: {busy}"
    );
    assert!(ServerStats::read(&handle.stats().sheds) >= 1);

    // Freeing A lets queued work proceed: the server recovers.
    drop(a);
    handle.shutdown();
}

#[test]
fn poison_is_contained_and_the_connection_survives() {
    let engine = tiny_engine(false, true);
    let handle = spawn(engine, ServerConfig::default()).expect("bind");
    let mut stream = connect(handle.addr(), 5_000).expect("connect");

    let reply = ask(&mut stream, "POISON");
    assert!(
        reply.starts_with("ERR") && reply.contains("contained"),
        "poison reply: {reply}"
    );
    // Same connection still works — the panic never crossed the query.
    let pong = ask(&mut stream, "PING");
    assert!(pong.starts_with("OK"), "after poison: {pong}");
    assert_eq!(ServerStats::read(&handle.stats().contained_panics), 1);
    handle.shutdown();
}

#[test]
fn torture_campaign_passes_on_a_small_world() {
    let engine = tiny_engine(true, true);
    let cfg = ServerConfig {
        workers: 3,
        queue_cap: 4,
        deadline_ms: 60,
        read_timeout_ms: 120,
        verify_patches: true,
        allow_poison: true,
        ..ServerConfig::default()
    };
    let handle = spawn(Arc::clone(&engine), cfg).expect("bind");
    let mut keys = engine.provider_keys(ServiceKind::Dns, 4);
    keys.extend(engine.provider_keys(ServiceKind::Cdn, 4));
    let torture = TortureConfig {
        seed: 9,
        connections: 72,
        clients: 3,
        churn_keys: keys,
        site_count: u32::try_from(engine.site_count()).unwrap_or(u32::MAX),
        loris_stall_ms: 200,
        ..TortureConfig::default()
    };
    let report = run_torture(handle.addr(), &torture);
    assert!(
        report.passed(),
        "torture violations: {:?}",
        report.violations
    );
    assert!(report.queries > 0 && report.hostile > 0);
    if report.poisons > 0 {
        assert!(ServerStats::read(&handle.stats().contained_panics) > 0);
    }
    handle.shutdown();
}

/// Runs the binary and asserts it refused `args` while parsing: usage
/// on stderr, nothing on stdout, exit 1.
fn assert_rejected(args: &[&str]) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_webdeps-serve"))
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} stderr: {stderr}");
    assert!(
        stderr.contains("usage: webdeps-serve"),
        "{args:?}: usage line missing: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn torture_rejects_a_zero_site_world() {
    assert_rejected(&["--torture", "--sites", "0", "--seeds", "1"]);
}

#[test]
fn torture_rejects_zero_connections() {
    assert_rejected(&["--torture", "--connections", "0", "--seeds", "1"]);
}

#[test]
fn torture_rejects_zero_seeds() {
    assert_rejected(&["--torture", "--seeds", "0"]);
}

#[test]
fn torture_rejects_zero_clients() {
    assert_rejected(&["--torture", "--clients", "0", "--seeds", "1"]);
}

#[test]
fn zero_workers_is_rejected_in_every_mode() {
    assert_rejected(&["--torture", "--workers", "0", "--seeds", "1"]);
    assert_rejected(&["--serve", "--workers", "0"]);
    assert_rejected(&["--smoke", "--workers", "0"]);
}

/// The control for the zero cases: one connection runs and passes.
#[test]
fn torture_runs_a_single_connection() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_webdeps-serve"))
        .args([
            "--torture",
            "--connections",
            "1",
            "--seeds",
            "1",
            "--sites",
            "200",
        ])
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(": PASS queries="), "{stdout}");
    assert!(!stdout.contains("queries=0 "), "{stdout}");
    assert!(stdout.contains("all 1 seed(s) passed"), "{stdout}");
}
