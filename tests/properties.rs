//! Property-based tests over the core data structures and invariants,
//! driven by the in-repo `webdeps-testkit` (the hermetic replacement
//! for `proptest`): every case is a pure function of the base seed, and
//! failures report a reproducing `TESTKIT_SEED` plus a shrunk input.

use std::collections::HashSet;
use webdeps::core::{
    DepGraph, EdgeKind, GraphBuilder, Metric, MetricOptions, NodeId, NodeKind, NodeRef, ReachIndex,
};
use webdeps::dns::{SimTime, Ttl};
use webdeps::measure::ProviderKey;
use webdeps::model::name::dn;
use webdeps::model::{DetRng, DomainName, PublicSuffixList, ServiceKind, SiteId};
use webdeps_testkit::{check, check_with, gen, tk_assert, tk_assert_eq, tk_assert_ne, Config};

/// Generator for 2–4-label domain names (the testkit's `label()`
/// matches the same `[a-z][a-z0-9-]{0,14}[a-z0-9]` grammar the old
/// proptest strategy used).
fn domain() -> gen::Gen<String> {
    gen::domain(2, 4)
}

/// Parsing normalizes and round-trips.
#[test]
fn domain_parse_roundtrip() {
    check("domain_parse_roundtrip", &domain(), |name| {
        let parsed = DomainName::parse(name).expect("generated names are valid");
        tk_assert_eq!(parsed.as_str(), name.as_str());
        let upper = name.to_uppercase();
        let reparsed = DomainName::parse(&upper).expect("case-insensitive");
        tk_assert_eq!(parsed.clone(), reparsed);
        let dotted = format!("{name}.");
        tk_assert_eq!(DomainName::parse(&dotted).unwrap(), parsed);
        Ok(())
    });
}

/// parent() shortens by exactly one label until exhaustion.
#[test]
fn domain_parent_walk_terminates() {
    check("domain_parent_walk_terminates", &domain(), |name| {
        let mut cur = Some(DomainName::parse(name).unwrap());
        let mut steps = 0;
        while let Some(n) = cur {
            steps += 1;
            tk_assert!(steps <= 8, "walk must terminate");
            cur = n.parent();
        }
        tk_assert_eq!(steps, name.split('.').count());
        Ok(())
    });
}

/// A child is always a strict subdomain of its parent.
#[test]
fn child_is_subdomain() {
    check(
        "child_is_subdomain",
        &gen::tuple2(domain(), gen::label()),
        |(name, l)| {
            let base = DomainName::parse(name).unwrap();
            let child = base.child(l).unwrap();
            tk_assert!(child.is_subdomain_of(&base));
            tk_assert!(!base.is_subdomain_of(&child));
            tk_assert!(child.is_equal_or_subdomain_of(&base));
            Ok(())
        },
    );
}

/// Registrable domains are invariant under subdomain extension.
#[test]
fn registrable_domain_stable_under_children() {
    let psl = PublicSuffixList::builtin();
    check(
        "registrable_domain_stable_under_children",
        &gen::tuple2(domain(), gen::label()),
        |(name, l)| {
            let base = DomainName::parse(name).unwrap();
            if let Some(reg) = psl.registrable_domain(&base) {
                let child = base.child(l).unwrap();
                tk_assert_eq!(psl.registrable_domain(&child).unwrap(), reg);
            }
            Ok(())
        },
    );
}

/// TTL freshness is a half-open interval.
#[test]
fn ttl_window() {
    let inputs = gen::tuple3(
        gen::u64_range(0, 1_000_000),
        gen::u32_range(1, 100_000),
        gen::u64_range(0, 2_000_000),
    );
    check("ttl_window", &inputs, |&(fetched, ttl, probe)| {
        let fresh = SimTime(probe).within_ttl(SimTime(fetched), Ttl(ttl));
        tk_assert_eq!(fresh, probe < fetched + ttl as u64);
        Ok(())
    });
}

/// Deterministic RNG: identical seeds and labels → identical draws.
#[test]
fn det_rng_determinism() {
    let inputs = gen::tuple2(gen::u64_any(), gen::label());
    check("det_rng_determinism", &inputs, |(seed, label)| {
        let a: Vec<u64> = {
            let mut r = DetRng::new(*seed).fork(label);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::new(*seed).fork(label);
            (0..16).map(|_| r.next_u64()).collect()
        };
        tk_assert_eq!(a, b);
        Ok(())
    });
}

/// weighted_index stays in range and never samples a zero weight.
#[test]
fn weighted_index_in_range() {
    let inputs = gen::tuple2(
        gen::u64_any(),
        gen::vec_of(gen::f64_range(0.0, 10.0), 1, 19),
    );
    check("weighted_index_in_range", &inputs, |(seed, weights)| {
        let mut rng = DetRng::new(*seed);
        match rng.weighted_index(weights) {
            Some(i) => {
                tk_assert!(i < weights.len());
                tk_assert!(weights[i] > 0.0, "zero-weight item sampled");
            }
            None => tk_assert!(weights.iter().all(|&w| w <= 0.0)),
        }
        Ok(())
    });
}

/// The paper's `f_c` / `f_i` recursive set unions, transcribed
/// literally: the oracle for [`ReachIndex`]. The `\ {p}`
/// exclusion is generalized to the whole recursion path (the formula as
/// written excludes only the root, which would loop on longer provider
/// cycles).
fn recursive_dependents(
    graph: &DepGraph,
    provider: NodeId,
    critical_only: bool,
    opts: &MetricOptions,
) -> HashSet<SiteId> {
    fn recurse(
        graph: &DepGraph,
        provider: NodeId,
        critical_only: bool,
        opts: &MetricOptions,
        excluded: &mut HashSet<NodeId>,
    ) -> HashSet<SiteId> {
        excluded.insert(provider);
        let NodeKind::Provider(_, node_kind) = graph.node(provider) else {
            return HashSet::new();
        };
        // D_w^p (direct site consumers) …
        let mut result: HashSet<SiteId> = HashSet::new();
        let mut provider_consumers: Vec<NodeId> = Vec::new();
        for (consumer, kind) in graph.consumers_of(provider) {
            if critical_only && !kind.critical {
                continue;
            }
            match graph.node(consumer) {
                NodeKind::Site(site) => {
                    result.insert(site);
                }
                NodeKind::Provider(_, consumer_kind) => {
                    if opts.interservice.contains(&(consumer_kind, node_kind))
                        && !excluded.contains(&consumer)
                    {
                        provider_consumers.push(consumer);
                    }
                }
            }
        }
        // … ∪ ⋃_{k ∈ D_s^p} f(D_w^k, D_s^k \ path).
        for k in provider_consumers {
            if excluded.contains(&k) {
                continue;
            }
            result.extend(recurse(graph, k, critical_only, opts, excluded));
        }
        result
    }
    recurse(graph, provider, critical_only, opts, &mut HashSet::new())
}

/// Reach-index invariants on random graphs with provider cycles:
/// impact ⊆ concentration, and every provider's set under either metric
/// equals the literal recursion — including under hop sets that let
/// those cycles be traversed.
#[test]
fn reach_index_equals_recursion() {
    let inputs = gen::tuple4(
        gen::u64_any(),
        gen::usize_range(1, 30),
        gen::usize_range(1, 10),
        gen::usize_range(0, 80),
    );
    let kinds = [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca];
    let every_hop = MetricOptions {
        interservice: kinds
            .iter()
            .flat_map(|&a| kinds.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
            .collect(),
    };
    check(
        "reach_index_equals_recursion",
        &inputs,
        |&(seed, n_sites, n_providers, n_edges)| {
            let mut g = GraphBuilder::new();
            let sites: Vec<_> = (0..n_sites)
                .map(|i| g.intern(NodeRef::Site(SiteId(i as u32))))
                .collect();
            let providers: Vec<_> = (0..n_providers)
                .map(|i| {
                    g.intern(NodeRef::Provider(
                        ProviderKey::new(format!("p{i}.net")),
                        kinds[i % 3],
                    ))
                })
                .collect();
            let kind_of: std::collections::HashMap<_, _> = providers
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, kinds[i % 3]))
                .collect();
            let mut rng = DetRng::new(seed);
            for _ in 0..n_edges {
                let to = providers[rng.below(providers.len())];
                let to_kind = kind_of[&to];
                let critical = rng.chance(0.5);
                if rng.chance(0.7) {
                    let from = sites[rng.below(sites.len())];
                    g.add_edge(
                        from,
                        to,
                        EdgeKind {
                            service: to_kind,
                            critical,
                        },
                    );
                } else {
                    let from = providers[rng.below(providers.len())];
                    if from != to {
                        g.add_edge(
                            from,
                            to,
                            EdgeKind {
                                service: to_kind,
                                critical,
                            },
                        );
                    }
                }
            }
            let g = g.build();
            for opts in [
                MetricOptions::direct_only(),
                MetricOptions::full(),
                every_hop.clone(),
            ] {
                let index = ReachIndex::build(&g, &opts);
                for &p in &providers {
                    let key = g.provider_key_of(p).unwrap_or_default();
                    let sites = |metric| -> HashSet<SiteId> {
                        index
                            .dependent_set(metric, key, kind_of[&p])
                            .map(|set| set.iter().collect())
                            .unwrap_or_default()
                    };
                    let (conc, imp) = (sites(Metric::Concentration), sites(Metric::Impact));
                    tk_assert!(imp.is_subset(&conc), "impact must be within concentration");
                    tk_assert_eq!(&conc, &recursive_dependents(&g, p, false, &opts));
                    tk_assert_eq!(&imp, &recursive_dependents(&g, p, true, &opts));
                }
            }
            Ok(())
        },
    );
}

/// World generation is deterministic and structurally sound at
/// arbitrary small scales. (Expensive: capped at 16 cases, matching the
/// old `ProptestConfig::with_cases(16)`.)
#[test]
fn world_generation_sound() {
    use webdeps::worldgen::{SnapshotYear, World, WorldConfig};
    let cfg = Config {
        cases: 16,
        ..Config::default()
    };
    let inputs = gen::tuple2(gen::u64_range(0, 1_000), gen::usize_range(50, 300));
    check_with(&cfg, "world_generation_sound", &inputs, |&(seed, n)| {
        let cfg = WorldConfig {
            seed,
            n_sites: n,
            year: SnapshotYear::Y2020,
        };
        let world = World::generate(cfg);
        tk_assert_eq!(world.truth.len(), n);
        // Every site's document host resolves and fetches.
        let mut client = world.client();
        for listing in world.listings().iter().take(25) {
            let scheme = if listing.https {
                webdeps::web::Scheme::Https
            } else {
                webdeps::web::Scheme::Http
            };
            let url = webdeps::web::Url {
                scheme,
                host: listing.document_hosts[0].clone(),
                path: "/".into(),
            };
            tk_assert!(client.fetch(&url).is_ok(), "fetch of {} failed", url);
        }
        Ok(())
    });
}

/// A zone under `zone-under-test.com` with `n_hosts` random A, CNAME
/// and TXT hosts drawn from `seed`.
fn random_zone(seed: u64, n_hosts: usize, serial: u32) -> webdeps::dns::Zone {
    use webdeps::dns::record::RecordData;
    use webdeps::dns::{Soa, Zone};
    let mut rng = DetRng::new(seed);
    let origin = dn("zone-under-test.com");
    let soa = Soa::standard(
        dn("ns1.zone-under-test.com"),
        dn("hostmaster.zone-under-test.com"),
        serial,
    );
    let mut zone = Zone::new(origin.clone(), soa);
    zone.add(
        origin.clone(),
        RecordData::Ns(dn("ns1.zone-under-test.com")),
    );
    for i in 0..n_hosts {
        let host = origin.child(&format!("h{i}")).unwrap();
        match rng.below(3) {
            0 => zone.add(
                host,
                RecordData::A(std::net::Ipv4Addr::from(rng.next_u64() as u32)),
            ),
            1 => zone.add(host, RecordData::Cname(dn(&format!("t{i}.elsewhere.net")))),
            _ => zone.add(host, RecordData::Txt(format!("payload {i}"))),
        }
    }
    zone
}

/// Randomly assembled zones survive a text round-trip intact.
/// (Matches the old `ProptestConfig::with_cases(64)`.)
#[test]
fn zonefile_roundtrip() {
    use webdeps::dns::Zone;
    let cfg = Config {
        cases: 64,
        ..Config::default()
    };
    let inputs = gen::tuple3(
        gen::u64_any(),
        gen::usize_range(0, 12),
        gen::u32_range(1, 1_000_000),
    );
    check_with(
        &cfg,
        "zonefile_roundtrip",
        &inputs,
        |&(seed, n_hosts, serial)| {
            let zone = random_zone(seed, n_hosts, serial);
            let text = zone.to_zonefile();
            let reparsed = Zone::from_zonefile(&text).expect("serialized zones parse");
            tk_assert_eq!(reparsed.origin(), zone.origin());
            tk_assert_eq!(reparsed.soa(), zone.soa());
            tk_assert_eq!(reparsed.records().count(), zone.records().count());
            for rr in zone.records() {
                let qtype = rr.data.record_type();
                tk_assert_eq!(
                    reparsed.lookup(&rr.name, qtype),
                    zone.lookup(&rr.name, qtype),
                    // tk_assert_eq takes no message; encode context via assert.
                );
            }
            Ok(())
        },
    );
}

/// Tokens the zone-file mutator splices into lines: directives, record
/// types, names inside and outside the zone, malformed numbers and
/// addresses, and comment/quote marks.
const ZONE_TOKENS: &[&str] = &[
    "$ORIGIN",
    "$TTL",
    "@",
    "IN",
    "SOA",
    "NS",
    "A",
    "CNAME",
    "TXT",
    "MX",
    "h0",
    "other.net.",
    "zone-under-test.com.",
    "999.1.1.1",
    "4294967296",
    "-1",
    "\"",
    ";",
    "..",
    "*",
    "",
];

/// Whole lines the mutator inserts: records outside the zone, records
/// whose owner collides with a generated host (`h0`, `h1`) or the apex,
/// and broken directives.
const ZONE_LINES: &[&str] = &[
    "other.net. IN A 192.0.2.1",
    "h0 IN CNAME other.net.",
    "h0 IN A 192.0.2.1",
    "h1 IN TXT \"collide\"",
    "h1 300 IN CNAME h0",
    "@ IN CNAME other.net.",
    "   IN CNAME other.net.",
    "$ORIGIN other.net.",
    "$TTL nope",
    "@ IN SOA ns1 hostmaster 1 2 3 4 5",
];

/// Applies `(position, op, fragment)` edits to zone-file text: replace
/// or insert a token, duplicate or delete a line, or insert one of
/// [`ZONE_LINES`].
fn mutate_zone_text(text: &str, edits: &[(usize, usize, usize)]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for &(at, op, frag) in edits {
        let i = at % (lines.len() + 1);
        if op >= 4 || i == lines.len() {
            lines.insert(i, ZONE_LINES[frag % ZONE_LINES.len()].to_string());
            continue;
        }
        match op {
            0 | 1 => {
                let token = ZONE_TOKENS[frag % ZONE_TOKENS.len()];
                let mut toks: Vec<&str> = lines[i].split(' ').collect();
                let j = frag % toks.len();
                if op == 0 {
                    toks[j] = token;
                } else {
                    toks.insert(j, token);
                }
                lines[i] = toks.join(" ");
            }
            2 => {
                let dup = lines[i].clone();
                lines.insert(i, dup);
            }
            _ => {
                lines.remove(i);
            }
        }
    }
    lines.join("\n")
}

/// The zone-file parser treats its input as untrusted: any mutation of
/// a valid file parses or fails with a `ZonefileError`, never a panic,
/// and a zone it accepts serializes without panicking too.
#[test]
fn zonefile_parser_never_panics_on_mutated_files() {
    use webdeps::dns::Zone;
    let edit = gen::tuple3(
        gen::usize_range(0, 63),
        gen::usize_range(0, 5),
        gen::usize_range(0, 63),
    );
    let inputs = gen::tuple2(
        gen::tuple2(gen::u64_any(), gen::usize_range(0, 8)),
        gen::vec_of(edit, 1, 6),
    );
    check(
        "zonefile_parser_never_panics",
        &inputs,
        |((seed, n_hosts), edits)| {
            let text = mutate_zone_text(&random_zone(*seed, *n_hosts, 1).to_zonefile(), edits);
            let outcome = std::panic::catch_unwind(|| {
                Zone::from_zonefile(&text).map(|zone| zone.to_zonefile())
            });
            tk_assert!(outcome.is_ok(), "parser panicked on:\n{text}");
            Ok(())
        },
    );
}

/// The DNS answer cache never serves an expired entry and always
/// serves a fresh one.
#[test]
fn dns_cache_ttl_discipline() {
    use webdeps::dns::cache::DnsCache;
    use webdeps::dns::record::{RecordData, ResourceRecord};
    use webdeps::dns::resolver::Resolution;
    use webdeps::dns::RecordType;
    let inputs = gen::tuple3(
        gen::u32_range(1, 5_000),
        gen::u64_range(0, 10_000),
        gen::u64_range(0, 10_000),
    );
    check(
        "dns_cache_ttl_discipline",
        &inputs,
        |&(ttl, stored_at, probe_offset)| {
            let mut cache = DnsCache::new();
            let name = dn("cached.example.com");
            let res = Resolution {
                qname: name.clone(),
                qtype: RecordType::A,
                answers: vec![ResourceRecord::with_ttl(
                    name.clone(),
                    Ttl(ttl),
                    RecordData::A(std::net::Ipv4Addr::LOCALHOST),
                )],
                chain: vec![],
                authority_zone: dn("example.com"),
            };
            cache.put_positive(name.clone(), RecordType::A, res, SimTime(stored_at));
            let probe = SimTime(stored_at + probe_offset);
            let hit = cache.get(&name, RecordType::A, probe).is_some();
            tk_assert_eq!(hit, probe_offset < ttl as u64);
            Ok(())
        },
    );
}

/// The testkit's determinism contract holds through the public API:
/// different base seeds produce different case streams.
#[test]
fn distinct_labels_give_distinct_streams() {
    check(
        "distinct_labels_give_distinct_streams",
        &gen::u64_any(),
        |&seed| {
            let mut a = DetRng::new(seed).fork("alpha");
            let mut b = DetRng::new(seed).fork("beta");
            let sa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
            let sb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
            tk_assert_ne!(sa, sb);
            Ok(())
        },
    );
}

/// The PSL handles the exception/wildcard corner deterministically (not
/// random, but grouped here with the other invariants).
#[test]
fn psl_wildcard_exception_sanity() {
    let psl = PublicSuffixList::builtin();
    assert_eq!(
        psl.registrable_domain(&dn("a.b.foo.ck")).unwrap(),
        dn("b.foo.ck")
    );
    assert_eq!(
        psl.registrable_domain(&dn("a.www.ck")).unwrap(),
        dn("www.ck")
    );
}
