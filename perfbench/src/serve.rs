//! `serve-mix-100k`: `webdeps-serve --serve --sites 100000 --workers 2
//! --deadline-ms 10000 --seed S`, through the library calls the CLI
//! makes — `World::generate`, `Engine::from_world` and `server::spawn` —
//! driven over TCP by a closed loop of two connections, each walking
//! its own seeded request sequence (see `mix`). A run cold-starts the
//! server [`STARTS`] times and reports the median start; the first
//! server carries the load.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use webdeps_model::ServiceKind;
use webdeps_serve::server::{connect, roundtrip, spawn, ServerConfig, ServerHandle};
use webdeps_serve::{
    classify_reply, parse_request, Engine, FrameError, Outcome, ReplyKind, Request, ServerStats,
    DEFAULT_MAX_FRAME,
};
use webdeps_worldgen::{World, WorldConfig};

use crate::mix::{Class, MixStream, KINDS};
use crate::report::RunReport;
use crate::stats::{median, Summary};
use crate::sys;
use crate::trace::Tracer;

pub const NAME: &str = "serve-mix-100k";

/// Closed-loop connections, all from this one process.
const CONNS: usize = 2;
/// `--workers 2`: one worker per connection.
const WORKERS: usize = 2;
/// `--deadline-ms 10000`, so 100k-site OUTAGE sweeps finish.
const DEADLINE_MS: u64 = 10_000;
/// Client-side socket timeout; well past the server deadline.
const CLIENT_TIMEOUT_MS: u64 = 60_000;
/// Providers per kind the mix reads, churns and fails.
const TOP: usize = 8;
/// Cold starts per end-to-end run; `setup_s` is their median.
const STARTS: usize = 3;

/// One request as the load generator saw it.
struct Rec {
    class: Class,
    start: Instant,
    end: Instant,
    id: u64,
}

impl Rec {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Default)]
struct ConnOut {
    recs: Vec<Rec>,
    /// `(provider, affected)` of every OUTAGE reply.
    outages: Vec<(String, u64)>,
    failures: Vec<String>,
    cpu_ms: f64,
}

/// Checks one reply: `OK`, the epoch never decreases on a connection,
/// the verb answers the request, and OUTAGE carries `affected=`.
fn check_reply(
    text: &str,
    reply: Result<Vec<u8>, FrameError>,
    verb: &str,
    epoch: &mut u64,
) -> Result<Option<u64>, String> {
    let payload = reply.map_err(|e| format!("{text}: transport error {e:?}"))?;
    let shown = String::from_utf8_lossy(&payload);
    match classify_reply(&payload) {
        Some((ReplyKind::Ok, Some(e))) if e >= *epoch => *epoch = e,
        Some((ReplyKind::Ok, Some(e))) => {
            return Err(format!("{text}: epoch {e} after epoch {}", *epoch))
        }
        _ => return Err(format!("{text}: {shown}")),
    }
    if shown.split_ascii_whitespace().nth(2) != Some(verb) {
        return Err(format!("{text}: answered {shown}"));
    }
    if verb != "OUTAGE" {
        return Ok(None);
    }
    affected(&shown)
        .map(Some)
        .ok_or_else(|| format!("{text}: no affected= in {shown}"))
}

fn affected(reply: &str) -> Option<u64> {
    reply
        .split_ascii_whitespace()
        .find_map(|t| t.strip_prefix("affected="))
        .and_then(|v| v.parse().ok())
}

/// One closed-loop connection until `until`, then the request closing
/// any open churn pair.
fn drive(addr: SocketAddr, mut mix: MixStream, conn: usize, until: Instant) -> ConnOut {
    let cpu0 = sys::thread_cpu_ms();
    let mut out = ConnOut::default();
    let mut stream = match connect(addr, CLIENT_TIMEOUT_MS) {
        Ok(s) => s,
        Err(e) => {
            out.failures.push(format!("connection {conn}: {e}"));
            return out;
        }
    };
    let mut epoch = 0;
    for seq in 0u64.. {
        let req = if Instant::now() < until {
            mix.next_request()
        } else {
            match mix.close() {
                Some(r) => r,
                None => break,
            }
        };
        let start = Instant::now();
        let reply = roundtrip(&mut stream, &req.text, DEFAULT_MAX_FRAME);
        let end = Instant::now();
        let transport_broke = reply.is_err();
        match check_reply(&req.text, reply, req.class.verb(), &mut epoch) {
            Ok(aff) => {
                if let Some(a) = aff {
                    let key = req.text.trim_start_matches("OUTAGE ").to_string();
                    out.outages.push((key, a));
                }
                let id = ((conn as u64) << 32) | seq;
                out.recs.push(Rec {
                    class: req.class,
                    start,
                    end,
                    id,
                });
            }
            Err(why) => out.failures.push(why),
        }
        if transport_broke {
            break;
        }
    }
    out.cpu_ms = sys::thread_cpu_ms() - cpu0;
    out
}

/// A closed-loop load phase over `CONNS` connections.
struct Phase {
    recs: Vec<Rec>,
    outages: Vec<(String, u64)>,
    elapsed_s: f64,
    server_cpu_ms: f64,
}

fn load(
    addr: SocketAddr,
    seed: u64,
    keys: &[Vec<String>; 3],
    sites: usize,
    secs: f64,
    report: &mut RunReport,
) -> Phase {
    let cpu0 = sys::process_cpu_ms();
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let mix = MixStream::new(seed, c, CONNS, keys.clone(), sites);
                s.spawn(move || drive(addr, mix, c, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let process_ms = sys::process_cpu_ms() - cpu0;
    let mut phase = Phase {
        recs: Vec::new(),
        outages: Vec::new(),
        elapsed_s,
        server_cpu_ms: process_ms - outs.iter().map(|o| o.cpu_ms).sum::<f64>(),
    };
    for out in outs {
        for _ in &out.recs {
            report.ok();
        }
        for why in out.failures {
            report.fail(why);
        }
        phase.recs.extend(out.recs);
        phase.outages.extend(out.outages);
    }
    phase
}

/// p50 roundtrip of one class in a phase, in ms.
fn class_p50(recs: &[Rec], class: Class) -> f64 {
    Summary::new(
        recs.iter()
            .filter(|r| r.class == class)
            .map(Rec::ms)
            .collect(),
    )
    .p50()
    .unwrap_or(f64::NAN)
}

/// The read figure serve reports as `latency_ms`: the mean of the `RANK`
/// and `SITES` p50s. The mix gives the two classes equal shares and
/// their costs differ, so a p50 over the pooled reads would fall on the
/// boundary between the classes and jump from one to the other.
fn read_ms(recs: &[Rec]) -> f64 {
    (class_p50(recs, Class::Rank) + class_p50(recs, Class::Sites)) / 2.0
}

/// The three `RANK <kind> 10` replies with their epoch removed.
fn snapshot(stream: &mut TcpStream, report: &mut RunReport) -> Option<Vec<String>> {
    let mut out = Vec::new();
    for kind in KINDS {
        let text = format!("RANK {kind} 10");
        let mut epoch = 0;
        let reply = roundtrip(stream, &text, DEFAULT_MAX_FRAME);
        let payload = reply
            .as_ref()
            .ok()
            .map(|p| String::from_utf8_lossy(p).into_owned());
        match check_reply(&text, reply, "RANK", &mut epoch) {
            Ok(_) => report.ok(),
            Err(why) => {
                report.fail(why);
                return None;
            }
        }
        let body = payload.unwrap_or_default();
        out.push(
            body.split_ascii_whitespace()
                .skip(2)
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    Some(out)
}

/// Top-`TOP` provider keys per kind from a RANK snapshot.
fn top_keys(snapshot: &[String]) -> [Vec<String>; 3] {
    let keys = |s: &String| -> Vec<String> {
        s.split_ascii_whitespace()
            .skip(3)
            .filter_map(|t| t.split_once('=').map(|(k, _)| k.to_string()))
            .take(TOP)
            .collect()
    };
    [keys(&snapshot[0]), keys(&snapshot[1]), keys(&snapshot[2])]
}

/// Counter `name=` from a STATS reply.
fn stat(reply: &str, name: &str) -> f64 {
    let prefix = format!("{name}=");
    reply
        .split_ascii_whitespace()
        .find_map(|t| t.strip_prefix(prefix.as_str()))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(f64::NAN)
}

/// Every OUTAGE of one provider reported the same `affected=`.
fn check_outages(outages: &[(String, u64)], report: &mut RunReport) {
    let mut first: Vec<(&str, u64)> = Vec::new();
    for (key, n) in outages {
        match first.iter().find(|(k, _)| k == key) {
            Some(&(_, want)) if want != *n => {
                report.flag(format!("OUTAGE {key}: affected={n}, earlier {want}"));
            }
            Some(_) => {}
            None => first.push((key, *n)),
        }
    }
}

struct Started {
    engine: Arc<Engine>,
    handle: ServerHandle,
    before: Vec<String>,
    setup_s: f64,
}

/// Cold start to first answer: generate, build the engine, bind, and
/// read the first `OK` (the RANK snapshot).
fn start(
    seed: u64,
    sites: usize,
    report: &mut RunReport,
    mut tracer: Option<&mut Tracer>,
) -> Option<Started> {
    let t0 = Instant::now();
    let build = || {
        let world = World::generate(WorldConfig {
            n_sites: sites,
            ..WorldConfig::small(seed)
        });
        Arc::new(Engine::from_world(world, false, false))
    };
    let engine = match tracer.as_mut() {
        Some(t) => t.span("serve.engine_build", build),
        None => build(),
    };
    let answer = tracer.as_mut().map(|t| t.begin("serve.first_answer"));
    let cfg = ServerConfig {
        workers: WORKERS,
        deadline_ms: DEADLINE_MS,
        ..ServerConfig::default()
    };
    let handle = match spawn(Arc::clone(&engine), cfg) {
        Ok(h) => h,
        Err(e) => {
            report.fail(format!("bind failed: {e}"));
            return None;
        }
    };
    let mut stream = match connect(handle.addr(), CLIENT_TIMEOUT_MS) {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("connect failed: {e}"));
            return None;
        }
    };
    let first = "RANK dns 10";
    let reply = roundtrip(&mut stream, first, DEFAULT_MAX_FRAME);
    let setup_s = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, answer) {
        t.end(id);
    }
    if let Err(why) = check_reply(first, reply, "RANK", &mut 0) {
        report.fail(why);
        return None;
    }
    report.ok();
    let before = snapshot(&mut stream, report)?;
    Some(Started {
        engine,
        handle,
        before,
        setup_s,
    })
}

/// Checks the index is back where it started and reads STATS.
fn finish(s: &Started, report: &mut RunReport) -> Option<String> {
    let mut stream = match connect(s.handle.addr(), CLIENT_TIMEOUT_MS) {
        Ok(st) => st,
        Err(e) => {
            report.fail(format!("connect failed: {e}"));
            return None;
        }
    };
    let after = snapshot(&mut stream, report)?;
    if after != s.before {
        report.flag(format!(
            "RANK after the run {after:?} != before {:?}",
            s.before
        ));
    }
    let reply = roundtrip(&mut stream, "STATS", DEFAULT_MAX_FRAME);
    let text = reply
        .as_ref()
        .ok()
        .map(|p| String::from_utf8_lossy(p).into_owned());
    match check_reply("STATS", reply, "STATS", &mut 0) {
        Ok(_) => {
            report.ok();
            text
        }
        Err(why) => {
            report.fail(why);
            None
        }
    }
}

fn log_phase(label: &str, phase: &Phase) {
    let all = Summary::new(phase.recs.iter().map(Rec::ms).collect());
    let count = |c: Class| phase.recs.iter().filter(|r| r.class == c).count();
    let tail = all.tail().map_or("n/a".to_string(), |(bp, v)| {
        let past = crate::stats::beyond(all.count(), bp);
        format!("p{} {v:.3} ms ({past} beyond)", bp as f64 / 100.0)
    });
    let p50 = |c: Class| class_p50(&phase.recs, c);
    eprintln!(
        "{NAME} {label}: {} requests in {:.1} s (rank {}, sites {}, churn {}, outage {}); \
         p50 rank {:.4} ms, sites {:.4} ms, churn {:.4} ms; tail {tail}, server cpu {:.0} ms",
        all.count(),
        phase.elapsed_s,
        count(Class::Rank),
        count(Class::Sites),
        count(Class::Churn),
        count(Class::Outage),
        p50(Class::Rank),
        p50(Class::Sites),
        p50(Class::Churn),
        phase.server_cpu_ms,
    );
}

/// End-to-end run within about `seconds`: a cold start, closed-loop
/// load on that server, then the remaining cold starts, each shut down
/// as soon as it answers. The load gets what the starts leave over,
/// counting each start as long as the first.
pub fn run(seed: u64, sites: usize, seconds: f64, report: &mut RunReport) {
    let Some(s) = start(seed, sites, report, None) else {
        return;
    };
    let load_s = (seconds - STARTS as f64 * s.setup_s).max(seconds / 4.0);
    let keys = top_keys(&s.before);
    let phase = load(s.handle.addr(), seed, &keys, sites, load_s, report);
    log_phase("load", &phase);
    check_outages(&phase.outages, report);
    let stats = finish(&s, report);
    let Started {
        engine,
        handle,
        before,
        setup_s,
    } = s;
    handle.shutdown();
    drop(engine);
    // Peak RSS of one server's life, as a user running the daemon sees it.
    let peak_rss_mb = sys::peak_rss_mb();
    let mut setups = vec![setup_s];
    for _ in 1..STARTS {
        let Some(again) = start(seed, sites, report, None) else {
            return;
        };
        if again.before != before {
            report.flag(format!(
                "cold start ranks {:?}, first start {before:?}",
                again.before
            ));
        }
        setups.push(again.setup_s);
        again.handle.shutdown();
    }
    eprintln!("{NAME}: cold starts {setups:?} s");
    if !report.correct() || stats.is_none() {
        return;
    }
    let requests = phase.recs.len() as f64;
    report.set("setup_s", median(&setups).unwrap_or(f64::NAN));
    report.set("latency_ms", read_ms(&phase.recs));
    report.set("throughput_per_s", requests / phase.elapsed_s);
    report.set("cpu_ms_per_op", phase.server_cpu_ms / requests);
    report.set("peak_rss_mb", peak_rss_mb);
}

/// Median wall time of `f` over `reps` calls, in µs.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us).unwrap_or(f64::NAN)
}

fn parsed(text: &str) -> Request {
    parse_request(text.as_bytes()).expect("mix requests parse")
}

/// Engine-direct timings (no socket) for the core index metrics, and
/// the engine's read figure (as [`read_ms`] takes it) and parse cost for
/// the transport split. Returns `(engine read µs, parse µs, outage keys
/// with affected)`.
fn engine_direct(
    engine: &Engine,
    seed: u64,
    keys: &[Vec<String>; 3],
    sites: usize,
    report: &mut RunReport,
) -> (f64, f64, Vec<(String, u64)>) {
    let stats = ServerStats::new();
    let far = || Instant::now() + Duration::from_secs(3_600);
    let kinds = [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca];
    let mut rank = Vec::new();
    for kind in kinds {
        let req = Request::Rank { kind, top: 10 };
        rank.push(median_us(100, || drop(engine.execute(&req, far(), &stats))));
    }
    report.set("serve.engine_rank_us", median(&rank).unwrap_or(f64::NAN));
    let mut sites_us = Vec::new();
    for (kind, ks) in kinds.iter().zip(keys) {
        for key in ks {
            let req = Request::Sites {
                kind: *kind,
                key: key.clone(),
            };
            sites_us.push(median_us(20, || drop(engine.execute(&req, far(), &stats))));
        }
    }
    report.set(
        "serve.engine_sites_us",
        median(&sites_us).unwrap_or(f64::NAN),
    );

    // The mix's own requests: reads for the engine p50, churn pairs for
    // the write path, and every text for the parser.
    let mut mix = MixStream::new(seed, 0, CONNS, keys.clone(), sites);
    let texts: Vec<_> = (0..5_000).map(|_| mix.next_request()).collect();
    let t = Instant::now();
    for r in &texts {
        std::hint::black_box(parse_request(std::hint::black_box(r.text.as_bytes())).is_ok());
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / texts.len() as f64;
    report.set("serve.parse_us", parse_us);
    let (mut rank, mut sites_us, mut churn) = (Vec::new(), Vec::new(), Vec::new());
    for r in &texts {
        let req = parsed(&r.text);
        let t = Instant::now();
        let outcome = match r.class {
            Class::Rank | Class::Sites | Class::Churn => engine.execute(&req, far(), &stats),
            Class::Outage => continue,
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        if !matches!(outcome, Outcome::Ok(_)) {
            report.fail(format!("direct {}: {outcome:?}", r.text));
            continue;
        }
        match r.class {
            Class::Rank => rank.push(us),
            Class::Sites => sites_us.push(us),
            _ => churn.push(us),
        }
    }
    report.set("serve.engine_churn_us", median(&churn).unwrap_or(f64::NAN));

    // One OUTAGE sweep per kind, on that kind's top provider.
    let mut outage_ms = Vec::new();
    let mut affected_by_key = Vec::new();
    for key in keys.iter().filter_map(|ks| ks.first()) {
        let req = Request::Outage { key: key.clone() };
        let t = Instant::now();
        let outcome = engine.execute(&req, far(), &stats);
        outage_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match &outcome {
            Outcome::Ok(reply) if affected(reply).is_some() => {
                affected_by_key.push((key.clone(), affected(reply).unwrap_or_default()));
            }
            _ => report.fail(format!("direct OUTAGE {key}: {outcome:?}")),
        }
    }
    report.set(
        "serve.engine_outage_ms",
        median(&outage_ms).unwrap_or(f64::NAN),
    );
    let (patches, rebuilds) = engine.recompute_counters();
    let total = (patches + rebuilds).max(1);
    report.set("core.patched_share", patches as f64 / total as f64);
    let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    (
        (p50(&rank) + p50(&sites_us)) / 2.0,
        parse_us,
        affected_by_key,
    )
}

/// Replicates OUTAGE with a benchmark-owned client (the provider's
/// entity failed, cache disabled) over a regenerated copy of the world,
/// and reads the resolver's counters. Returns whether every affected
/// count matched the program's replies.
fn outage_replica(
    seed: u64,
    sites: usize,
    expected: &[(String, u64)],
    report: &mut RunReport,
) -> bool {
    let world = World::generate(WorldConfig {
        n_sites: sites,
        ..WorldConfig::small(seed)
    });
    let listings = world.listings();
    let mut stats = webdeps_dns::ResolverStats::default();
    let mut probes = 0u64;
    let mut secs = 0.0;
    for (key, want) in expected {
        let Some(entity) = webdeps_core::outage::provider_entity(&world, key) else {
            eprintln!("{NAME}: replica cannot resolve provider {key}");
            return false;
        };
        let mut client = world.client();
        client.set_faults(webdeps_dns::FaultPlan::healthy().fail_entity(entity));
        client.resolver_mut().disable_cache();
        let t = Instant::now();
        let down = listings
            .iter()
            .filter(|l| !webdeps_core::probe_site(&mut client, &l.document_hosts, l.https))
            .count() as u64;
        secs += t.elapsed().as_secs_f64();
        if down != *want {
            eprintln!("{NAME}: replica OUTAGE {key} affected {down}, program {want}");
            return false;
        }
        crate::chaos::add_stats(&mut stats, &client.resolver().stats());
        probes += listings.len() as u64;
    }
    crate::chaos::set_probe_metrics(report, &stats, probes, secs);
    true
}

/// Traced run: cold start in spans, the load with a span per request,
/// then engine-direct timings and the OUTAGE replica.
pub fn run_traced(
    seed: u64,
    sites: usize,
    seconds: f64,
    report: &mut RunReport,
    tracer: &mut Tracer,
) {
    let Some(s) = start(seed, sites, report, Some(&mut *tracer)) else {
        return;
    };
    let keys = top_keys(&s.before);
    let load_span = tracer.begin("serve.load");
    let traced = load(s.handle.addr(), seed, &keys, sites, seconds, report);
    tracer.end(load_span);
    for r in &traced.recs {
        let name = format!("serve.request.{}", r.class.verb().to_ascii_lowercase());
        tracer.add(&name, r.start, r.end, Some(load_span), Some(r.id));
    }
    log_phase("traced load", &traced);
    let stats = finish(&s, report);
    let Started { engine, handle, .. } = s;
    handle.shutdown();
    let Some(stats) = stats else { return };
    if !report.correct() {
        return;
    }
    for (metric, label) in crate::WORLDGEN_PHASES {
        report.set(metric, tracer.phase_ms(label));
    }
    report.set(
        "serve.engine_build_ms",
        tracer.self_ms_named("serve.engine_build"),
    );
    report.set(
        "serve.first_answer_ms",
        tracer.self_ms_named("serve.first_answer"),
    );
    let p50 = |c: Class| class_p50(&traced.recs, c);
    report.set("serve.rank_ms", p50(Class::Rank));
    report.set("serve.sites_ms", p50(Class::Sites));
    report.set("serve.churn_ms", p50(Class::Churn));
    report.set("serve.outage_ms", p50(Class::Outage));
    let all = Summary::new(traced.recs.iter().map(Rec::ms).collect());
    report.set("serve.tail_ms", all.tail().map_or(f64::NAN, |(_, v)| v));
    report.set("serve.sheds", stat(&stats, "sheds"));
    report.set("serve.deadlines", stat(&stats, "deadlines"));
    report.set(
        "serve.errors",
        stat(&stats, "parse_errors") + stat(&stats, "contained_panics"),
    );
    // The request spans are built after the load from the records every
    // run keeps for its percentiles, so tracing adds nothing to the
    // request path.
    report.set("trace.overhead_ms", 0.0);

    let (engine_read_us, parse_us, direct_outages) =
        engine_direct(&engine, seed, &keys, sites, report);
    report.set(
        "serve.transport_us",
        read_ms(&traced.recs) * 1e3 - engine_read_us - parse_us,
    );
    let observed = [traced.outages, direct_outages.clone()].concat();
    check_outages(&observed, report);
    if !report.correct() {
        return;
    }
    drop(engine);
    if !outage_replica(seed, sites, &direct_outages, report) {
        eprintln!("{NAME}: dns.* and web.probe_us withheld (replica differs from OUTAGE replies)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_churn_pairs_leave_the_engine_as_they_found_it() {
        let world = World::generate(WorldConfig {
            n_sites: 300,
            ..WorldConfig::small(5)
        });
        let engine = Engine::from_world(world, true, false);
        let stats = ServerStats::new();
        let far = Instant::now() + Duration::from_secs(600);
        let rank = |e: &Engine| -> Vec<String> {
            [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca]
                .into_iter()
                .map(
                    |kind| match e.execute(&Request::Rank { kind, top: 10 }, far, &stats) {
                        Outcome::Ok(r) => r
                            .split_ascii_whitespace()
                            .skip(2)
                            .collect::<Vec<_>>()
                            .join(" "),
                        other => panic!("rank: {other:?}"),
                    },
                )
                .collect()
        };
        let before = rank(&engine);
        let keys = top_keys(&before);
        assert!(keys.iter().all(|k| !k.is_empty()));
        let mut mix = MixStream::new(9, 1, CONNS, keys, 300);
        let mut churns = 0;
        for _ in 0..crate::mix::BLOCK * 4 {
            let r = mix.next_request();
            if r.class == Class::Churn {
                let outcome = engine.execute(&parsed(&r.text), far, &stats);
                assert!(matches!(outcome, Outcome::Ok(_)), "{}: {outcome:?}", r.text);
                churns += 1;
            }
        }
        assert_eq!(churns, crate::mix::WRITES * 4);
        assert_eq!(engine.current_epoch(), churns as u64);
        assert_eq!(rank(&engine), before);
    }

    #[test]
    fn reply_checks_catch_every_failure_kind() {
        let ok = |s: &str| Ok(s.as_bytes().to_vec());
        let mut epoch = 3;
        assert_eq!(
            check_reply("RANK dns 10", ok("OK 3 RANK dns 0"), "RANK", &mut epoch),
            Ok(None)
        );
        assert!(check_reply("RANK dns 10", ok("OK 2 RANK dns 0"), "RANK", &mut epoch).is_err());
        assert!(check_reply(
            "RANK dns 10",
            ok("BUSY retry-after-ms=25"),
            "RANK",
            &mut epoch
        )
        .is_err());
        assert!(check_reply("OUTAGE x", ok("DEADLINE 3"), "OUTAGE", &mut epoch).is_err());
        assert!(check_reply("SITES dns x", ok("ERR unknown"), "SITES", &mut epoch).is_err());
        assert!(check_reply("SITES dns x", ok("garbage"), "SITES", &mut epoch).is_err());
        assert!(check_reply("SITES dns x", ok("OK 3 RANK dns 0"), "SITES", &mut epoch).is_err());
        assert!(check_reply(
            "OUTAGE x",
            ok("OK 3 OUTAGE x total=9"),
            "OUTAGE",
            &mut epoch
        )
        .is_err());
        assert_eq!(
            check_reply(
                "OUTAGE x",
                ok("OK 4 OUTAGE x affected=7 total=9"),
                "OUTAGE",
                &mut epoch
            ),
            Ok(Some(7))
        );
        assert_eq!(epoch, 4);
    }
}
