//! Property-based tests over the core data structures and invariants,
//! driven by the in-repo `webdeps-testkit` (the hermetic replacement
//! for `proptest`): every case is a pure function of the base seed, and
//! failures report a reproducing `TESTKIT_SEED` plus a shrunk input.

use std::collections::{BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use webdeps::core::{
    DepGraph, EdgeKind, GraphBuilder, Hop, Metric, MetricOptions, NodeId, NodeKind, NodeRef,
    ReachIndex,
};
use webdeps::dns::Soa;
use webdeps::dns::{SimTime, Ttl};
use webdeps::measure::classify::{
    classify, provider_key, Classification, ClassifierKind, Evidence,
};
use webdeps::measure::ProviderKey;
use webdeps::model::name::dn;
use webdeps::model::psl::{BUILTIN_EXCEPTIONS, BUILTIN_RULES, BUILTIN_WILDCARDS};
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
                    if opts.allows(consumer_kind, node_kind) && !excluded.contains(&consumer) {
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

/// Reach-index invariants on random graphs whose provider edges join
/// every ordered pair of kinds, upward, same-kind and cyclic ones
/// included: impact ⊆ concentration, and under each of the eight hop
/// subsets every provider's set under either metric equals the literal
/// recursion, so the edges no allowed hop names stay untraversed.
#[test]
fn reach_index_equals_recursion() {
    let inputs = gen::tuple4(
        gen::u64_any(),
        gen::usize_range(1, 30),
        gen::usize_range(1, 12),
        gen::usize_range(0, 80),
    );
    let kinds = [
        ServiceKind::Dns,
        ServiceKind::Cdn,
        ServiceKind::Ca,
        ServiceKind::Cloud,
    ];
    let subsets: Vec<MetricOptions> = (0..8u8)
        .map(|mask| {
            let hops: Vec<Hop> = Hop::ALL
                .into_iter()
                .filter(|&hop| mask & (1 << hop as u8) != 0)
                .collect();
            MetricOptions::of(&hops)
        })
        .collect();
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
                        kinds[i % kinds.len()],
                    ))
                })
                .collect();
            let kind_of: std::collections::HashMap<_, _> = providers
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, kinds[i % kinds.len()]))
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
            for opts in &subsets {
                let index = ReachIndex::build(&g, opts);
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
                    tk_assert_eq!(&conc, &recursive_dependents(&g, p, false, opts));
                    tk_assert_eq!(&imp, &recursive_dependents(&g, p, true, opts));
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

/// The rule-set walk the compiled suffix table replaced: three
/// `BTreeSet`s and a left-to-right scan over every suffix of the name,
/// the oracle the table is held to.
struct PslOracle {
    rules: BTreeSet<&'static str>,
    wildcards: BTreeSet<&'static str>,
    exceptions: BTreeSet<&'static str>,
}

impl PslOracle {
    fn builtin() -> PslOracle {
        PslOracle {
            rules: BUILTIN_RULES.iter().copied().collect(),
            wildcards: BUILTIN_WILDCARDS.iter().copied().collect(),
            exceptions: BUILTIN_EXCEPTIONS.iter().copied().collect(),
        }
    }

    /// Labels in the public suffix of `s`.
    fn suffix_label_count(&self, s: &str) -> usize {
        let total = s.bytes().filter(|&b| b == b'.').count() + 1;
        let mut best = 0usize;
        let mut start = 0usize;
        for idx in 0..total {
            let candidate = &s[start..];
            let len = total - idx;
            if self.exceptions.contains(candidate) {
                return len - 1;
            }
            if len > best && self.rules.contains(candidate) {
                best = len;
            }
            let Some(dot) = candidate.find('.') else {
                break;
            };
            start += dot + 1;
            if len > best && self.wildcards.contains(&s[start..]) {
                best = len;
            }
        }
        if best == 0 {
            1
        } else {
            best
        }
    }

    fn registrable(&self, name: &DomainName) -> Option<String> {
        let suffix_len = self.suffix_label_count(name.as_str());
        (name.label_count() > suffix_len).then(|| name.suffix_str(suffix_len + 1).to_string())
    }
}

/// Right-hand ends of generated hostnames: every built-in rule (gTLDs
/// and `co.uk`-style two-label rules), the wildcard bases (`ck`, `bd`)
/// and names one label under them, the `www.ck` exception, and TLDs no
/// rule names.
fn psl_tails() -> Vec<&'static str> {
    let mut tails: Vec<&'static str> = BUILTIN_RULES.to_vec();
    tails.extend(BUILTIN_WILDCARDS);
    tails.extend(BUILTIN_EXCEPTIONS);
    tails.extend(["foo.ck", "www.bd", "zz", "example", "co.zz", "uk.zz"]);
    tails
}

/// A hostname as (index into [`psl_tails`], labels in front of it):
/// none gives a bare suffix or a single label, four go deeper than any
/// rule. Shrinks toward the first tail and fewer, shorter labels.
fn psl_host() -> gen::Gen<(usize, Vec<String>)> {
    gen::tuple2(
        gen::usize_range(0, psl_tails().len()),
        gen::vec_of(gen::label(), 0, 4),
    )
}

fn host_name(tails: &[&str], (tail, labels): &(usize, Vec<String>)) -> DomainName {
    let mut parts: Vec<&str> = labels.iter().map(String::as_str).collect();
    parts.push(tails[*tail]);
    DomainName::parse(&parts.join(".")).expect("generated hostnames are valid")
}

/// The compiled suffix table answers every registrable-domain question
/// as the `BTreeSet` walk did, and never panics (a panic is caught and
/// reported as a failure, so the runner shrinks it).
#[test]
fn compiled_psl_matches_rule_set_walk() {
    let psl = PublicSuffixList::builtin();
    let oracle = PslOracle::builtin();
    let tails = psl_tails();
    check("compiled_psl_matches_rule_set_walk", &psl_host(), |host| {
        let name = host_name(&tails, host);
        let got = catch_unwind(AssertUnwindSafe(|| {
            (
                psl.registrable_str(&name).map(str::to_string),
                psl.registrable_domain(&name),
            )
        }));
        let Ok((borrowed, owned)) = got else {
            return Err(format!("the PSL panicked on {name}"));
        };
        let want = oracle.registrable(&name);
        tk_assert_eq!(borrowed, want);
        tk_assert_eq!(owned.map(|d| d.as_str().to_string()), want);
        Ok(())
    });
}

/// `classify` never panics on generated hostnames, SAN lists (wildcard
/// entries included) and SOAs, and its TLD-only answer and provider
/// keys follow the PSL.
#[test]
fn classify_never_panics_on_generated_evidence() {
    let psl = PublicSuffixList::builtin();
    let tails = psl_tails();
    let san_entry = gen::tuple2(gen::usize_range(0, 2), psl_host());
    let inputs = gen::tuple4(
        psl_host(),
        psl_host(),
        gen::vec_of(san_entry, 0, 4),
        gen::tuple3(psl_host(), psl_host(), gen::usize_range(0, 100)),
    );
    check(
        "classify_never_panics_on_generated_evidence",
        &inputs,
        |(site, candidate, san, (mname, rname, concentration))| {
            let site = host_name(&tails, site);
            let candidate = host_name(&tails, candidate);
            let san: Vec<DomainName> = san
                .iter()
                .map(|(wild, host)| {
                    let name = host_name(&tails, host);
                    match wild {
                        0 => name,
                        _ => name.child("*").expect("wildcard SAN entries are valid"),
                    }
                })
                .collect();
            let site_soa = Soa::standard(host_name(&tails, mname), host_name(&tails, rname), 1);
            let candidate_soa = Soa::standard(candidate.clone(), site.clone(), 1);
            let ev = Evidence {
                site: &site,
                candidate: &candidate,
                san: (!san.is_empty()).then_some(san.as_slice()),
                site_soa: Some(&site_soa),
                candidate_soa: Some(&candidate_soa),
                concentration: Some(*concentration),
                threshold: 50,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for kind in ClassifierKind::ALL {
                    classify(kind, &ev, &psl);
                }
                provider_key(&candidate, &psl)
            }));
            let Ok(key) = outcome else {
                return Err(format!("classify panicked on {ev:?}"));
            };
            let tld_only = classify(ClassifierKind::TldOnly, &ev, &psl);
            tk_assert_eq!(
                tld_only == Classification::Private,
                psl.same_registrable_domain(&site, &candidate)
            );
            tk_assert_eq!(
                key.as_str(),
                psl.registrable_str(&candidate)
                    .unwrap_or(candidate.as_str())
            );
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
