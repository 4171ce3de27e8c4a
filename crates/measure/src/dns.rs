//! Website → DNS measurement (§3.1).
//!
//! Two passes. Pass one runs `dig NS` for every site and fetches the
//! SOA of the site's zone and of each nameserver's, reducing each
//! nameserver to its registrable domain and each SOA to its
//! [`Authority`] through the shard's [`DomainTable`]; counting how many
//! sites each nameserver registrable domain serves gives the combined
//! heuristic's concentration rule its input. Pass two classifies each
//! (site, nameserver) pair with the combined heuristic and merges
//! nameservers into operator entities (same registrable domain ∨ same
//! SOA MNAME ∨ same SOA RNAME) to measure redundancy.

use crate::classify::{
    classify, same_domain, Authority, Classification, ClassifierKind, DomainTable, Evidence, RegId,
    SiteDomains,
};
use crate::columnar::checked_offset;
use crate::dataset::{NsGroup, NsPair, ProviderKey, SiteDnsMeasurement};
use webdeps_dns::{Dig, Resolver};
use webdeps_model::{DomainName, ServiceKind};
use webdeps_worldgen::profiles::DepState;

/// One advertised nameserver of an observed site.
#[derive(Debug, Clone)]
pub struct NsHost {
    /// The nameserver host (`dig NS`).
    pub host: DomainName,
    /// Its registrable domain.
    pub domain: Option<RegId>,
    /// Authority of its zone's SOA, when resolvable.
    pub soa: Option<Authority>,
}

/// One site's pass-one observation, borrowed from [`DnsObservations`].
#[derive(Debug, Clone, Copy)]
pub struct DnsObservation<'a> {
    /// Authority of the site's zone SOA, when resolvable.
    pub site_soa: Option<Authority>,
    /// The advertised nameservers (never empty).
    pub ns: &'a [NsHost],
}

/// Pass one's record of consecutive sites, in site order: every site's
/// nameservers in one flat column with CSR offsets (like the dataset's
/// columns), and each site's SOA authority. Its ids belong to the
/// [`DomainTable`] the sites were observed through.
#[derive(Debug, Clone)]
pub struct DnsObservations {
    /// CSR offsets into `ns` (`len + 1` entries).
    start: Vec<u32>,
    /// Each site's SOA authority.
    site_soa: Vec<Option<Authority>>,
    /// Every site's nameservers.
    ns: Vec<NsHost>,
}

impl DnsObservations {
    /// An empty record with room for `sites` sites.
    pub fn with_capacity(sites: usize) -> Self {
        let mut start = Vec::with_capacity(sites + 1);
        start.push(0);
        DnsObservations {
            start,
            site_soa: Vec::with_capacity(sites),
            ns: Vec::new(),
        }
    }

    /// Pass one for the next site: its NS set, then the SOA of its zone
    /// and of each nameserver, reduced through `table` (a new site of
    /// the table's). A site without a nameserver answer is recorded as
    /// unobserved, and nothing more is asked about it.
    pub fn observe(
        &mut self,
        resolver: &mut Resolver<'_>,
        site: &DomainName,
        table: &mut DomainTable<'_>,
    ) {
        table.begin_site();
        let mut dig = Dig::new(resolver);
        let hosts = dig.ns(site).unwrap_or_default();
        let site_soa = if hosts.is_empty() {
            None
        } else {
            dig.soa_of(site).ok().map(|soa| table.authority(&soa))
        };
        let ns = hosts.into_iter().map(|host| NsHost {
            soa: dig.soa_of(&host).ok().map(|soa| table.authority(&soa)),
            domain: table.registrable(&host),
            host,
        });
        self.push(site_soa, ns);
    }

    /// Appends one site's observation; no nameservers records it as
    /// unobserved.
    pub fn push(&mut self, site_soa: Option<Authority>, ns: impl IntoIterator<Item = NsHost>) {
        self.ns.extend(ns);
        self.site_soa.push(site_soa);
        self.start.push(checked_offset(self.ns.len()));
    }

    /// Number of sites recorded.
    pub fn len(&self) -> usize {
        self.site_soa.len()
    }

    /// The observation of site `i`, or `None` when it had no
    /// nameserver answer.
    pub fn get(&self, i: usize) -> Option<DnsObservation<'_>> {
        let ns = self.ns_of(i);
        (!ns.is_empty()).then_some(DnsObservation {
            site_soa: self.site_soa[i],
            ns,
        })
    }

    /// Site `i`'s nameservers.
    fn ns_of(&self, i: usize) -> &[NsHost] {
        &self.ns[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Nameserver concentration over these sites: how many of them each
    /// nameserver registrable domain serves, counted by id and named
    /// through `table`, in first-seen order.
    pub fn ns_concentration<'t>(&self, table: &'t DomainTable<'_>) -> Vec<(&'t str, usize)> {
        let mut counts = vec![0usize; table.len()];
        let mut seen: Vec<RegId> = Vec::new();
        for i in 0..self.len() {
            let ns = self.ns_of(i);
            for (j, host) in ns.iter().enumerate() {
                // Once per site: skip a domain an earlier host had.
                let Some(id) = host.domain else {
                    continue;
                };
                if ns[..j].iter().any(|h| h.domain == host.domain) {
                    continue;
                }
                if counts[id.index()] == 0 {
                    seen.push(id);
                }
                counts[id.index()] += 1;
            }
        }
        seen.into_iter()
            .map(|id| (table.text(id), counts[id.index()]))
            .collect()
    }
}

/// Pass two: classify one site's (site, nameserver) pairs with the
/// combined heuristic against the site's `domains`, merge the
/// nameservers into operator entities with the paper's rule (same
/// registrable domain ∨ same SOA MNAME ∨ same SOA RNAME, §3.1
/// "Measuring Redundancy"), and derive the site's dependency state.
/// `concentration` maps a nameserver's registrable domain to the number
/// of sites it serves (0 when unseen); `table` holds the observation's
/// ids. Each pair's evidence goes to `on_pair` and is classified by
/// [`classify`].
pub fn classify_site(
    site: &DomainName,
    obs: DnsObservation<'_>,
    domains: &SiteDomains,
    concentration: &dyn Fn(&str) -> usize,
    threshold: usize,
    table: &DomainTable<'_>,
    on_pair: &mut dyn FnMut(ServiceKind, &Evidence<'_>),
) -> SiteDnsMeasurement {
    // Classify each (site, ns) pair with the combined heuristic.
    let classes: Vec<Classification> = obs
        .ns
        .iter()
        .map(|ns| {
            let ev = Evidence {
                site,
                candidate: &ns.host,
                domains,
                candidate_domain: ns.domain,
                site_soa: obs.site_soa,
                candidate_soa: ns.soa,
                concentration: Some(ns.domain.map_or(0, |id| concentration(table.text(id)))),
                threshold,
            };
            on_pair(ServiceKind::Dns, &ev);
            classify(ClassifierKind::Combined, &ev)
        })
        .collect();

    // Entity grouping (union-find over TLD / SOA-MNAME / SOA-RNAME).
    let n = obs.ns.len();
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
            let (a, b) = (&obs.ns[i], &obs.ns[j]);
            let same_soa = a.soa.zip(b.soa).is_some_and(|(x, y)| x.same_as(y));
            if same_domain(a.domain, b.domain) || same_soa {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[rj] = ri;
                }
            }
        }
    }

    // Build groups with merged classifications: (root, key, class).
    let mut groups: Vec<(usize, &str, Classification)> = Vec::new();
    let mut pairs: Vec<NsPair> = Vec::with_capacity(n);
    for (i, (ns, &class)) in obs.ns.iter().zip(&classes).enumerate() {
        let root = find(&mut parent, i);
        // Group key: lexicographically smallest registrable domain.
        let key = table.key_text(ns.domain, &ns.host);
        let gi = match groups.iter().position(|g| g.0 == root) {
            Some(gi) => gi,
            None => {
                groups.push((root, key, Classification::Unknown));
                groups.len() - 1
            }
        };
        let group = &mut groups[gi];
        group.1 = group.1.min(key);
        // Merged class: Private dominates (any in-group private evidence
        // identifies the operator), then ThirdParty, then Unknown.
        group.2 = match (group.2, class) {
            (Classification::Private, _) | (_, Classification::Private) => Classification::Private,
            (Classification::ThirdParty, _) | (_, Classification::ThirdParty) => {
                Classification::ThirdParty
            }
            _ => Classification::Unknown,
        };
        pairs.push(NsPair {
            host: ns.host.clone(),
            class,
            group: gi,
        });
    }
    let groups: Vec<NsGroup> = groups
        .into_iter()
        .map(|(_, key, class)| NsGroup {
            key: ProviderKey::new(key),
            class,
        })
        .collect();

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
    use webdeps_dns::Soa;
    use webdeps_model::name::dn;
    use webdeps_model::PublicSuffixList;

    /// Authority of a zone run by `admin` (`ns1.` / `hostmaster.` under it).
    fn soa(table: &mut DomainTable<'_>, admin: &str) -> Option<Authority> {
        Some(table.authority(&Soa::standard(
            dn(&format!("ns1.{admin}")),
            dn(&format!("hostmaster.{admin}")),
            1,
        )))
    }

    /// Nameservers as (host, admin domain of the host's zone SOA).
    fn hosts(table: &mut DomainTable<'_>, ns: &[(&str, &str)]) -> Vec<NsHost> {
        ns.iter()
            .map(|&(h, admin)| NsHost {
                host: dn(h),
                domain: table.registrable(&dn(h)),
                soa: soa(table, admin),
            })
            .collect()
    }

    /// Classifies `site` served by `ns`, its own SOA run by
    /// `site_admin`, at threshold 50 with no pair hook.
    fn classify(
        site: &str,
        ns: &[(&str, &str)],
        site_admin: &str,
        san: Option<&[DomainName]>,
        conc: &dyn Fn(&str) -> usize,
    ) -> SiteDnsMeasurement {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let ns = hosts(&mut table, ns);
        let obs = DnsObservation {
            site_soa: soa(&mut table, site_admin),
            ns: &ns,
        };
        let site = dn(site);
        let domains = SiteDomains::new(&site, san, &mut table);
        classify_site(&site, obs, &domains, conc, 50, &table, &mut |_, _| {})
    }

    /// No nameserver domain is concentrated.
    fn no_conc(_: &str) -> usize {
        0
    }

    #[test]
    fn private_site_classified_private() {
        let ns = [
            ("ns1.example.com", "example.com"),
            ("ns2.example.com", "example.com"),
        ];
        let m = classify("example.com", &ns, "example.com", None, &no_conc);
        assert_eq!(m.state, Some(DepState::Private));
        assert_eq!(m.groups.len(), 1);
    }

    #[test]
    fn single_third_party_detected_by_soa_mismatch() {
        let ns = [
            ("ns1.dynect.net", "dynect.net"),
            ("ns2.dynect.net", "dynect.net"),
        ];
        let m = classify("example.com", &ns, "example.com", None, &no_conc);
        assert_eq!(m.state, Some(DepState::SingleThird));
        assert_eq!(m.groups[0].key.as_str(), "dynect.net");
    }

    #[test]
    fn provider_managed_soa_needs_concentration() {
        // Site SOA is provider-managed → SOA rule can't fire.
        let ns = [("ns1.bigdns.net", "bigdns.net")];
        let m = classify("example.com", &ns, "bigdns.net", None, &no_conc);
        assert_eq!(m.state, None, "small provider-managed → uncharacterized");
        let big = |reg: &str| if reg == "bigdns.net" { 500 } else { 0 };
        let m = classify("example.com", &ns, "bigdns.net", None, &big);
        assert_eq!(m.state, Some(DepState::SingleThird));
    }

    #[test]
    fn multi_provider_redundancy_detected() {
        let ns = [
            ("ns1.dynect.net", "dynect.net"),
            ("ns1.ultradns.net", "ultradns.net"),
        ];
        let m = classify("example.com", &ns, "example.com", None, &no_conc);
        assert_eq!(m.state, Some(DepState::MultiThird));
        assert_eq!(m.groups.len(), 2);
    }

    #[test]
    fn alibaba_alias_domains_are_one_entity() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        // Two TLDs, same SOA MNAME → one group → *not* redundant.
        let mut ns = hosts(
            &mut table,
            &[("ns1.alibabadns.com", ""), ("ns1.alicdn-dns.com", "")],
        );
        for (host, serial) in ns.iter_mut().zip(1..) {
            host.soa = Some(table.authority(&Soa::standard(
                dn("ns1.alibabadns.com"),
                dn("hostmaster.alibabadns.com"),
                serial,
            )));
        }
        // The two hosts sit under different registrable domains, so a
        // TLD-only grouping would split the one operator into two and
        // count the site as redundant.
        assert_ne!(ns[0].domain, ns[1].domain);
        let site = dn("example.com");
        let obs = DnsObservation {
            site_soa: soa(&mut table, "example.com"),
            ns: &ns,
        };
        let domains = SiteDomains::new(&site, None, &mut table);
        let m = classify_site(&site, obs, &domains, &no_conc, 50, &table, &mut |_, _| {});
        assert_eq!(m.groups.len(), 1, "same MNAME must merge");
        assert_eq!(m.state, Some(DepState::SingleThird));
        assert_eq!(m.groups[0].key.as_str(), "alibabadns.com");
    }

    #[test]
    fn private_plus_third_is_redundant() {
        let ns = [
            ("ns1.example.com", "example.com"),
            ("ns1.dynect.net", "dynect.net"),
        ];
        let m = classify("example.com", &ns, "example.com", None, &no_conc);
        assert_eq!(m.state, Some(DepState::PrivatePlusThird));
    }

    #[test]
    fn san_rescues_alias_ns() {
        let ns = [
            ("ns1.googol.com", "googol.com"),
            ("ns2.googol.com", "googol.com"),
        ];
        let san = vec![dn("ytube.com"), dn("*.googol.com")];
        let m = classify("ytube.com", &ns, "googol.com", Some(&san), &no_conc);
        assert_eq!(
            m.state,
            Some(DepState::Private),
            "SAN evidence identifies the alias"
        );
    }

    #[test]
    fn concentration_counts_sites_not_pairs() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let mut observations = DnsObservations::with_capacity(3);
        let a = hosts(
            &mut table,
            &[("ns1.big.net", "big.net"), ("ns2.big.net", "big.net")],
        );
        let a_soa = soa(&mut table, "a.com");
        observations.push(a_soa, a);
        let b = hosts(&mut table, &[("ns1.big.net", "big.net")]);
        let b_soa = soa(&mut table, "b.com");
        observations.push(b_soa, b);
        observations.push(None, []);
        assert!(observations.get(2).is_none(), "no nameservers, unobserved");
        let counts = observations.ns_concentration(&table);
        assert_eq!(counts, vec![("big.net", 2)], "two sites, not three pairs");
    }

    #[test]
    fn unknown_classifications_exist_but_are_excluded() {
        use webdeps_web::Crawler;
        use webdeps_worldgen::{World, WorldConfig};
        let world = World::generate(WorldConfig::small(77));
        let listings = world.listings();
        let mut client = world.client();
        let mut table = DomainTable::new(&world.psl);
        let mut observations = DnsObservations::with_capacity(listings.len());
        for l in &listings {
            observations.observe(client.resolver_mut(), &l.domain, &mut table);
        }
        let concentration: Vec<(String, usize)> = observations
            .ns_concentration(&table)
            .into_iter()
            .map(|(reg, n)| (reg.to_string(), n))
            .collect();
        let conc = |reg: &str| {
            concentration
                .iter()
                .find(|(r, _)| r == reg)
                .map_or(0, |&(_, n)| n)
        };
        let threshold = world.config.concentration_threshold();
        let mut unknown_pairs = 0usize;
        for (i, l) in listings.iter().enumerate() {
            let Some(obs) = observations.get(i) else {
                continue;
            };
            let report = Crawler::crawl(&mut client, &l.domain, &l.document_hosts, l.https);
            let san = report.certificate.as_ref().map(|c| &*c.san);
            table.begin_site();
            let domains = SiteDomains::new(&l.domain, san, &mut table);
            let m = classify_site(
                &l.domain,
                obs,
                &domains,
                &conc,
                threshold,
                &table,
                &mut |_, _| {},
            );
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
