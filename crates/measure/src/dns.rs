//! Website → DNS measurement (§3.1).
//!
//! Two passes. Pass one runs `dig NS` for every site and counts how many
//! sites each nameserver registrable-domain serves — the input to the
//! combined heuristic's concentration rule. Pass two gathers SOA and SAN
//! evidence per (site, nameserver) pair, classifies with the combined
//! heuristic, and merges nameservers into operator entities (same
//! registrable domain ∨ same SOA MNAME ∨ same SOA RNAME) to measure
//! redundancy.

use crate::classify::{
    classify, provider_key, soa_same_authority, Classification, ClassifierKind, Evidence,
};
use crate::dataset::{NsGroup, NsPair, ProviderKey, SiteDnsMeasurement};
use std::collections::HashMap;
use webdeps_dns::{Dig, Resolver, Soa};
use webdeps_model::{DomainName, PublicSuffixList, ServiceKind};
use webdeps_worldgen::profiles::DepState;

/// Per-site raw inputs collected before classification.
#[derive(Debug, Clone)]
pub struct DnsObservation {
    /// The site's registrable domain.
    pub site: DomainName,
    /// Advertised nameserver hosts (`dig NS`).
    pub ns_hosts: Vec<DomainName>,
    /// SOA of the site's zone.
    pub site_soa: Option<Soa>,
    /// SOA per nameserver host.
    pub ns_soas: Vec<Option<Soa>>,
}

/// Pass one: collect NS sets and SOAs for a site.
pub fn observe_site(resolver: &mut Resolver<'_>, site: &DomainName) -> Option<DnsObservation> {
    let mut dig = Dig::new(resolver);
    let ns_hosts = dig.ns(site).ok()?;
    if ns_hosts.is_empty() {
        return None;
    }
    let site_soa = dig.soa_of(site).ok();
    let ns_soas = ns_hosts.iter().map(|h| dig.soa_of(h).ok()).collect();
    Some(DnsObservation {
        site: site.clone(),
        ns_hosts,
        site_soa,
        ns_soas,
    })
}

/// Dataset-wide nameserver concentration: how many sites each
/// nameserver registrable-domain serves. Counting only allocates a key
/// the first time a registrable domain is seen.
pub fn ns_concentration(
    observations: &[Option<DnsObservation>],
    psl: &PublicSuffixList,
) -> HashMap<DomainName, usize> {
    let mut counts: HashMap<DomainName, usize> = HashMap::new();
    let mut seen: Vec<(&str, &DomainName)> = Vec::new();
    for obs in observations.iter().flatten() {
        seen.clear();
        for host in &obs.ns_hosts {
            if let Some(reg) = psl.registrable_str(host) {
                if !seen.iter().any(|&(r, _)| r == reg) {
                    seen.push((reg, host));
                }
            }
        }
        for &(reg, host) in &seen {
            // Borrowed probe (`DomainName: Borrow<str>`); the owned key
            // is only built on first sight of a registrable domain, as
            // the matching label suffix of the host it came from.
            match counts.get_mut(reg) {
                Some(n) => *n += 1,
                None => {
                    let labels = reg.bytes().filter(|&b| b == b'.').count() + 1;
                    counts.insert(host.suffix(labels), 1);
                }
            }
        }
    }
    counts
}

/// Pass two: classify one site's (site, nameserver) pairs with the
/// combined heuristic, merge the nameservers into operator entities
/// with the paper's rule (same registrable domain ∨ same SOA MNAME ∨
/// same SOA RNAME, §3.1 "Measuring Redundancy"), and derive the site's
/// dependency state. `concentration` maps a nameserver's registrable
/// domain to the number of sites it serves (0 when unseen). Each
/// pair's evidence goes to `on_pair` and is classified by [`classify`].
pub fn classify_site(
    obs: &DnsObservation,
    san: Option<&[DomainName]>,
    concentration: &dyn Fn(&str) -> usize,
    threshold: usize,
    psl: &PublicSuffixList,
    on_pair: &mut dyn FnMut(ServiceKind, &Evidence<'_>),
) -> SiteDnsMeasurement {
    // Classify each (site, ns) pair with the combined heuristic.
    let classes: Vec<Classification> = obs
        .ns_hosts
        .iter()
        .zip(&obs.ns_soas)
        .map(|(host, ns_soa)| {
            let conc = psl.registrable_str(host).map_or(0, concentration);
            let ev = Evidence {
                site: &obs.site,
                candidate: host,
                san,
                site_soa: obs.site_soa.as_ref(),
                candidate_soa: ns_soa.as_ref(),
                concentration: Some(conc),
                threshold,
            };
            on_pair(ServiceKind::Dns, &ev);
            classify(ClassifierKind::Combined, &ev, psl)
        })
        .collect();

    // Entity grouping (union-find over TLD / SOA-MNAME / SOA-RNAME).
    let n = obs.ns_hosts.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let same_reg = psl.same_registrable_domain(&obs.ns_hosts[i], &obs.ns_hosts[j]);
            let same_soa = match (&obs.ns_soas[i], &obs.ns_soas[j]) {
                (Some(a), Some(b)) => soa_same_authority(a, b, psl),
                _ => false,
            };
            if same_reg || same_soa {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[rj] = ri;
                }
            }
        }
    }

    // Build groups with merged classifications.
    let mut group_index: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<NsGroup> = Vec::new();
    let mut pairs: Vec<NsPair> = Vec::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        let gi = *group_index.entry(root).or_insert_with(|| {
            groups.push(NsGroup {
                key: ProviderKey::new(String::new()),
                class: Classification::Unknown,
            });
            groups.len() - 1
        });
        // Group key: lexicographically smallest registrable domain.
        let key = provider_key(&obs.ns_hosts[i], psl);
        if groups[gi].key.as_str().is_empty() || key.as_str() < groups[gi].key.as_str() {
            groups[gi].key = key;
        }
        // Merged class: Private dominates (any in-group private evidence
        // identifies the operator), then ThirdParty, then Unknown.
        groups[gi].class = match (groups[gi].class, classes[i]) {
            (Classification::Private, _) | (_, Classification::Private) => Classification::Private,
            (Classification::ThirdParty, _) | (_, Classification::ThirdParty) => {
                Classification::ThirdParty
            }
            _ => Classification::Unknown,
        };
        pairs.push(NsPair {
            host: obs.ns_hosts[i].clone(),
            class: classes[i],
            group: gi,
        });
    }

    // Derive the state. Any unknown group leaves the site
    // uncharacterized (the paper conservatively excludes them).
    let state = if groups.iter().any(|g| g.class == Classification::Unknown) {
        None
    } else {
        let third = groups
            .iter()
            .filter(|g| g.class == Classification::ThirdParty)
            .count();
        let private = groups.iter().any(|g| g.class == Classification::Private);
        Some(match (third, private) {
            (0, _) => DepState::Private,
            (1, false) => DepState::SingleThird,
            (1, true) => DepState::PrivatePlusThird,
            (_, _) => DepState::MultiThird,
        })
    };

    SiteDnsMeasurement {
        pairs,
        groups,
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    fn soa(admin: &str) -> Soa {
        Soa::standard(
            dn(&format!("ns1.{admin}")),
            dn(&format!("hostmaster.{admin}")),
            1,
        )
    }

    fn obs(site: &str, ns: &[(&str, &str)], site_admin: &str) -> DnsObservation {
        DnsObservation {
            site: dn(site),
            ns_hosts: ns.iter().map(|(h, _)| dn(h)).collect(),
            site_soa: Some(soa(site_admin)),
            ns_soas: ns.iter().map(|(_, a)| Some(soa(a))).collect(),
        }
    }

    /// No nameserver domain is concentrated.
    fn no_conc(_: &str) -> usize {
        0
    }

    /// Classifies at threshold 50 with no pair hook.
    fn classify(
        o: &DnsObservation,
        san: Option<&[DomainName]>,
        conc: &dyn Fn(&str) -> usize,
    ) -> SiteDnsMeasurement {
        let psl = PublicSuffixList::builtin();
        classify_site(o, san, conc, 50, &psl, &mut |_, _| {})
    }

    #[test]
    fn private_site_classified_private() {
        let o = obs(
            "example.com",
            &[
                ("ns1.example.com", "example.com"),
                ("ns2.example.com", "example.com"),
            ],
            "example.com",
        );
        let m = classify(&o, None, &no_conc);
        assert_eq!(m.state, Some(DepState::Private));
        assert_eq!(m.groups.len(), 1);
    }

    #[test]
    fn single_third_party_detected_by_soa_mismatch() {
        let o = obs(
            "example.com",
            &[
                ("ns1.dynect.net", "dynect.net"),
                ("ns2.dynect.net", "dynect.net"),
            ],
            "example.com",
        );
        let m = classify(&o, None, &no_conc);
        assert_eq!(m.state, Some(DepState::SingleThird));
        assert_eq!(m.groups[0].key.as_str(), "dynect.net");
    }

    #[test]
    fn provider_managed_soa_needs_concentration() {
        // Site SOA is provider-managed → SOA rule can't fire.
        let o = obs(
            "example.com",
            &[("ns1.bigdns.net", "bigdns.net")],
            "bigdns.net",
        );
        let m = classify(&o, None, &no_conc);
        assert_eq!(m.state, None, "small provider-managed → uncharacterized");
        let m = classify(&o, None, &|reg| if reg == "bigdns.net" { 500 } else { 0 });
        assert_eq!(m.state, Some(DepState::SingleThird));
    }

    #[test]
    fn multi_provider_redundancy_detected() {
        let o = obs(
            "example.com",
            &[
                ("ns1.dynect.net", "dynect.net"),
                ("ns1.ultradns.net", "ultradns.net"),
            ],
            "example.com",
        );
        let m = classify(&o, None, &no_conc);
        assert_eq!(m.state, Some(DepState::MultiThird));
        assert_eq!(m.groups.len(), 2);
    }

    #[test]
    fn alibaba_alias_domains_are_one_entity() {
        let psl = PublicSuffixList::builtin();
        // Two TLDs, same SOA MNAME → one group → *not* redundant.
        let o = DnsObservation {
            site: dn("example.com"),
            ns_hosts: vec![dn("ns1.alibabadns.com"), dn("ns1.alicdn-dns.com")],
            site_soa: Some(soa("example.com")),
            ns_soas: vec![
                Some(Soa::standard(
                    dn("ns1.alibabadns.com"),
                    dn("hostmaster.alibabadns.com"),
                    1,
                )),
                Some(Soa::standard(
                    dn("ns1.alibabadns.com"),
                    dn("hostmaster.alibabadns.com"),
                    2,
                )),
            ],
        };
        // The two hosts sit under different registrable domains, so a
        // TLD-only grouping would split the one operator into two and
        // count the site as redundant.
        assert_ne!(
            psl.registrable_domain(&o.ns_hosts[0]),
            psl.registrable_domain(&o.ns_hosts[1])
        );
        let m = classify(&o, None, &no_conc);
        assert_eq!(m.groups.len(), 1, "same MNAME must merge");
        assert_eq!(m.state, Some(DepState::SingleThird));
        assert_eq!(m.groups[0].key.as_str(), "alibabadns.com");
    }

    #[test]
    fn private_plus_third_is_redundant() {
        let o = obs(
            "example.com",
            &[
                ("ns1.example.com", "example.com"),
                ("ns1.dynect.net", "dynect.net"),
            ],
            "example.com",
        );
        let m = classify(&o, None, &no_conc);
        assert_eq!(m.state, Some(DepState::PrivatePlusThird));
    }

    #[test]
    fn san_rescues_alias_ns() {
        let o = obs(
            "ytube.com",
            &[
                ("ns1.googol.com", "googol.com"),
                ("ns2.googol.com", "googol.com"),
            ],
            "googol.com",
        );
        let san = vec![dn("ytube.com"), dn("*.googol.com")];
        let m = classify(&o, Some(&san), &no_conc);
        assert_eq!(
            m.state,
            Some(DepState::Private),
            "SAN evidence identifies the alias"
        );
    }

    #[test]
    fn concentration_counts_sites_not_pairs() {
        let psl = PublicSuffixList::builtin();
        let o1 = obs(
            "a.com",
            &[("ns1.big.net", "big.net"), ("ns2.big.net", "big.net")],
            "a.com",
        );
        let o2 = obs("b.com", &[("ns1.big.net", "big.net")], "b.com");
        let counts = ns_concentration(&[Some(o1), Some(o2), None], &psl);
        assert_eq!(counts[&dn("big.net")], 2, "two sites, not three pairs");
    }

    #[test]
    fn unknown_classifications_exist_but_are_excluded() {
        use webdeps_web::Crawler;
        use webdeps_worldgen::{World, WorldConfig};
        let world = World::generate(WorldConfig::small(77));
        let listings = world.listings();
        let mut client = world.client();
        let observations: Vec<Option<DnsObservation>> = listings
            .iter()
            .map(|l| observe_site(client.resolver_mut(), &l.domain))
            .collect();
        let concentration = ns_concentration(&observations, &world.psl);
        let threshold = world.config.concentration_threshold();
        let mut unknown_pairs = 0usize;
        for (l, obs) in listings.iter().zip(&observations) {
            let Some(obs) = obs else {
                continue;
            };
            let report = Crawler::crawl(&mut client, &l.domain, &l.document_hosts, l.https);
            let san = report.certificate.as_ref().map(|c| &*c.san);
            let conc = |reg: &str| concentration.get(reg).copied().unwrap_or(0);
            let m = classify_site(obs, san, &conc, threshold, &world.psl, &mut |_, _| {});
            let unknown = |c: Classification| c == Classification::Unknown;
            if m.pairs.iter().any(|p| unknown(p.class)) {
                unknown_pairs += 1;
                assert!(
                    m.groups.iter().any(|g| unknown(g.class))
                        || m.state.is_none()
                        || m.groups.iter().all(|g| !unknown(g.class)),
                    "unknown pairs either merge into known groups or exclude the site"
                );
            }
        }
        assert!(unknown_pairs > 0, "micro-tail providers must stay unknown");
    }
}
