//! Inter-service dependency measurement (§3.4).
//!
//! Applies the §3.1 machinery to the *providers themselves*: the
//! nameservers of a CDN's CNAME domain (CDN→DNS), the nameservers of a
//! CA's responder zone (CA→DNS), and the CNAME chains of a CA's
//! responder hosts (CA→CDN). The inputs are provider identities
//! *observed in the site measurements* — the pipeline probes exactly
//! the providers the crawl surfaced, like the paper did.

use crate::classify::{classify, provider_key, Classification, ClassifierKind, Evidence};
use crate::dataset::ProviderKey;
use crate::dns;
use std::collections::HashMap;
use webdeps_dns::{Dig, Resolver};
use webdeps_model::{DomainName, PublicSuffixList, ServiceKind};
use webdeps_web::CnameToCdnMap;
use webdeps_worldgen::profiles::DepState;

/// A provider's measured dependency on another service type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterServiceDep {
    /// Whether any third party is involved.
    pub uses_third: bool,
    /// Whether the dependency is critical (exactly one third party, no
    /// in-house redundancy).
    pub critical: bool,
    /// Whether the provider is redundantly provisioned.
    pub redundant: bool,
    /// Third-party provider identities.
    pub providers: Vec<ProviderKey>,
}

impl InterServiceDep {
    fn from_dns_state(state: Option<DepState>, providers: Vec<ProviderKey>) -> Option<Self> {
        state.map(|s| InterServiceDep {
            uses_third: s.uses_third_party(),
            critical: s.is_critical(),
            redundant: s.is_redundant(),
            providers,
        })
    }
}

/// Measured inter-service profile of one observed provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderMeasurement {
    /// Wire-inferred identity.
    pub key: ProviderKey,
    /// The service this provider offers.
    pub kind: ServiceKind,
    /// The infrastructure host that was probed.
    pub rep_host: DomainName,
    /// Number of sites observed using this provider directly.
    pub direct_sites: usize,
    /// DNS dependency (CDNs and CAs).
    pub dns_dep: Option<InterServiceDep>,
    /// CDN dependency (CAs only).
    pub cdn_dep: Option<InterServiceDep>,
}

/// Finds the apex of the zone enclosing `host` by walking up the name
/// hierarchy to the first name advertising NS records (what `dig NS` +
/// retries does in practice).
pub fn zone_apex_of(resolver: &mut Resolver<'_>, host: &DomainName) -> Option<DomainName> {
    let mut cur = Some(host.clone());
    while let Some(name) = cur {
        if Dig::new(resolver)
            .ns(&name)
            .is_ok_and(|hosts| !hosts.is_empty())
        {
            return Some(name);
        }
        cur = name.parent();
    }
    None
}

/// Measures one provider's DNS dependency: its zone apex observed like
/// a site ([`dns::observe_site`]), then the standard combined
/// classification and entity grouping.
pub fn measure_dns_dep(
    resolver: &mut Resolver<'_>,
    rep_host: &DomainName,
    concentration: &HashMap<DomainName, usize>,
    threshold: usize,
    psl: &PublicSuffixList,
) -> Option<InterServiceDep> {
    let apex = zone_apex_of(resolver, rep_host)?;
    let obs = dns::observe_site(resolver, &apex)?;
    let conc = |reg: &str| concentration.get(reg).copied().unwrap_or(0);
    let m = dns::classify_site(&obs, None, &conc, threshold, psl, &mut |_, _| {});
    let providers = m.third_parties().cloned().collect();
    InterServiceDep::from_dns_state(m.state, providers)
}

/// Measures a CA's CDN dependency: CNAME chains of its responder hosts
/// through the CNAME-to-CDN map.
pub fn measure_cdn_dep(
    resolver: &mut Resolver<'_>,
    ca_domain: &DomainName,
    responder_hosts: &[DomainName],
    cname_map: &CnameToCdnMap,
    psl: &PublicSuffixList,
) -> Option<InterServiceDep> {
    let site_soa = Dig::new(resolver).soa_of(ca_domain).ok();
    let mut third: Vec<ProviderKey> = Vec::new();
    let mut private = 0usize;
    let mut any = false;
    for host in responder_hosts {
        let Ok(chain) = Dig::new(resolver).cname_chain(host) else {
            continue;
        };
        let Some((suffix, _, witness)) = cname_map.classify_chain_detailed(chain.iter()) else {
            continue;
        };
        any = true;
        let witness_soa = Dig::new(resolver).soa_of(witness).ok();
        let ev = Evidence {
            site: ca_domain,
            candidate: witness,
            san: None,
            site_soa: site_soa.as_ref(),
            candidate_soa: witness_soa.as_ref(),
            concentration: None,
            threshold: usize::MAX,
        };
        let key = provider_key(suffix, psl);
        match classify(ClassifierKind::Combined, &ev, psl) {
            Classification::ThirdParty => {
                if !third.contains(&key) {
                    third.push(key);
                }
            }
            Classification::Private => private += 1,
            Classification::Unknown => {}
        }
    }
    if !any {
        // The CA serves responders directly: no CDN dependency at all.
        return None;
    }
    Some(InterServiceDep {
        uses_third: !third.is_empty(),
        critical: third.len() == 1 && private == 0,
        redundant: third.len() > 1 || (!third.is_empty() && private > 0),
        providers: third,
    })
}

/// Probes every observed provider. `cdn_reps` maps CDN keys to a
/// witness edge host; `ca_reps` maps CA keys to (responder hosts).
pub fn measure_providers(
    resolver: &mut Resolver<'_>,
    cdn_reps: &HashMap<ProviderKey, (DomainName, usize)>,
    ca_reps: &HashMap<ProviderKey, (Vec<DomainName>, usize)>,
    dns_direct: &HashMap<ProviderKey, usize>,
    concentration: &HashMap<DomainName, usize>,
    threshold: usize,
    cname_map: &CnameToCdnMap,
    psl: &PublicSuffixList,
) -> Vec<ProviderMeasurement> {
    let mut out = Vec::new();
    let mut cdns: Vec<_> = cdn_reps.iter().collect();
    cdns.sort_by(|a, b| a.0.cmp(b.0));
    for (key, (witness, count)) in cdns {
        let dns_dep = measure_dns_dep(resolver, witness, concentration, threshold, psl);
        out.push(ProviderMeasurement {
            key: key.clone(),
            kind: ServiceKind::Cdn,
            rep_host: witness.clone(),
            direct_sites: *count,
            dns_dep,
            cdn_dep: None,
        });
    }
    let mut cas: Vec<_> = ca_reps.iter().collect();
    cas.sort_by(|a, b| a.0.cmp(b.0));
    for (key, (responders, count)) in cas {
        // A CA with no observed responder is probed at its key domain;
        // a key that is not a domain names infrastructure we cannot
        // probe at all, so it is skipped rather than guessed at.
        let Some(rep) = responders
            .first()
            .cloned()
            .or_else(|| DomainName::parse(key.as_str()).ok())
        else {
            continue;
        };
        let ca_domain = zone_apex_of(resolver, &rep)
            .unwrap_or_else(|| psl.registrable_domain(&rep).unwrap_or_else(|| rep.clone()));
        let dns_dep = measure_dns_dep(resolver, &rep, concentration, threshold, psl);
        let cdn_dep = measure_cdn_dep(resolver, &ca_domain, responders, cname_map, psl);
        out.push(ProviderMeasurement {
            key: key.clone(),
            kind: ServiceKind::Ca,
            rep_host: rep,
            direct_sites: *count,
            dns_dep,
            cdn_dep,
        });
    }
    let mut dns: Vec<_> = dns_direct.iter().collect();
    dns.sort_by(|a, b| a.0.cmp(b.0));
    for (key, count) in dns {
        let rep = match DomainName::parse(key.as_str()) {
            Ok(d) => d,
            Err(_) => continue,
        };
        out.push(ProviderMeasurement {
            key: key.clone(),
            kind: ServiceKind::Dns,
            rep_host: rep,
            direct_sites: *count,
            dns_dep: None,
            cdn_dep: None,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_worldgen::{World, WorldConfig};

    #[test]
    fn zone_walk_finds_enclosing_apex() {
        let world = World::generate(WorldConfig::small(61));
        let mut resolver = world.resolver();
        // Any site works; its apex advertises NS records.
        let listing = &world.listings()[0];
        let deep = listing.domain.child("a").unwrap().child("b").unwrap();
        let apex = zone_apex_of(&mut resolver, &deep).expect("walk finds the zone");
        assert_eq!(apex, listing.domain);
    }

    #[test]
    fn digicert_dnsmadeeasy_dependency_is_measured() {
        let world = World::generate(WorldConfig::small(61));
        let mut resolver = world.resolver();
        // DigiCert's zone SOA is DNSMadeEasy-managed, so the combined
        // heuristic needs the concentration rule — as it does for any
        // provider-managed zone.
        let mut conc = HashMap::new();
        conc.insert(webdeps_model::name::dn("dnsmadeeasy.com"), 100);
        let rep = webdeps_model::name::dn("ocsp.digicert.com");
        let dep = measure_dns_dep(&mut resolver, &rep, &conc, 5, &world.psl)
            .expect("DigiCert zone is characterizable");
        assert!(dep.uses_third && dep.critical, "dep: {dep:?}");
        assert_eq!(dep.providers[0].as_str(), "dnsmadeeasy.com");
    }

    #[test]
    fn digicert_incapsula_cdn_dependency_is_measured() {
        let world = World::generate(WorldConfig::small(61));
        let mut resolver = world.resolver();
        let ca_domain = webdeps_model::name::dn("digicert.com");
        let responders = vec![webdeps_model::name::dn("ocsp.digicert.com")];
        let dep = measure_cdn_dep(
            &mut resolver,
            &ca_domain,
            &responders,
            &world.cname_map,
            &world.psl,
        )
        .expect("DigiCert responders ride a CDN");
        assert!(dep.uses_third && dep.critical);
        assert_eq!(dep.providers[0].as_str(), "incapdns.net");
    }

    #[test]
    fn private_dns_cdn_measured_as_private() {
        let world = World::generate(WorldConfig::small(61));
        let mut resolver = world.resolver();
        let conc = HashMap::new();
        // Akamai runs its own DNS.
        let rep = webdeps_model::name::dn("e1.akamaiedge.net");
        let dep = measure_dns_dep(&mut resolver, &rep, &conc, 5, &world.psl)
            .expect("Akamai zone is characterizable");
        assert!(!dep.uses_third, "dep: {dep:?}");
        // Akamai's responderless zone has no CDN dependency.
        let ca_domain = webdeps_model::name::dn("amazontrust.com");
        let responders = vec![webdeps_model::name::dn("ocsp.amazontrust.com")];
        let dep = measure_cdn_dep(
            &mut resolver,
            &ca_domain,
            &responders,
            &world.cname_map,
            &world.psl,
        );
        assert!(dep.is_none(), "Amazon Trust serves responders directly");
    }

    #[test]
    fn fastly_redundant_dyn_dependency() {
        let world = World::generate(WorldConfig::small(61));
        let mut resolver = world.resolver();
        let conc = HashMap::new();
        let rep = webdeps_model::name::dn("cust-x.fastly.net");
        let dep = measure_dns_dep(&mut resolver, &rep, &conc, 5, &world.psl)
            .expect("Fastly zone is characterizable");
        assert!(dep.uses_third, "Fastly uses Dyn");
        assert!(
            dep.redundant && !dep.critical,
            "2020: Fastly is redundant, dep: {dep:?}"
        );
        assert!(dep.providers.iter().any(|p| p.as_str() == "dynect.net"));
    }
}
