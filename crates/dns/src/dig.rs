//! `dig`-style measurement queries.
//!
//! The paper's scripts drive `dig` three ways: `dig NS <site>` to list a
//! site's advertised nameservers, `dig SOA <host>` to find the authority
//! of a name (falling back to the SOA in the authority section of a
//! negative answer), and repeated `dig CNAME` to uncover the alias chain
//! a CDN on-ramp creates. [`Dig`] packages those flows over a
//! [`Resolver`].

use crate::record::{RecordType, Soa};
use crate::resolver::{ResolveError, Resolver};
use webdeps_model::DomainName;

/// Upper bound on manually chased CNAME chains.
const MAX_CHAIN: usize = 8;

/// Measurement-oriented query facade.
pub struct Dig<'a, 'n> {
    resolver: &'a mut Resolver<'n>,
}

impl<'a, 'n> Dig<'a, 'n> {
    /// Wraps a resolver.
    pub fn new(resolver: &'a mut Resolver<'n>) -> Self {
        Dig { resolver }
    }

    /// `dig NS <name>`: the advertised nameserver set of `name`'s zone.
    /// Returns an empty vector when the name exists without NS records.
    #[must_use]
    pub fn ns(&mut self, name: &DomainName) -> Result<Vec<DomainName>, ResolveError> {
        match self.resolver.resolve_with(name, RecordType::Ns, |res| {
            res.answers
                .iter()
                .filter_map(|rr| rr.data.as_ns().cloned())
                .collect()
        }) {
            Ok(hosts) => Ok(hosts),
            Err(ResolveError::NoData { .. }) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// `dig SOA <name>` with the standard fallback: when the name is not
    /// a zone apex (NODATA) or does not exist (NXDOMAIN), the SOA of the
    /// enclosing zone arrives in the authority section — which is what
    /// the paper's heuristics compare.
    #[must_use]
    pub fn soa_of(&mut self, name: &DomainName) -> Result<Soa, ResolveError> {
        match self.resolver.resolve_with(name, RecordType::Soa, |res| {
            res.answers.iter().find_map(|rr| rr.data.as_soa().cloned())
        }) {
            Ok(Some(soa)) => Ok(soa),
            Ok(None) => Err(ResolveError::NoData {
                name: name.clone(),
                soa: Soa::standard(name.clone(), name.clone(), 0),
            }),
            Err(ResolveError::NoData { soa, .. }) | Err(ResolveError::NxDomain { soa, .. }) => {
                Ok(soa)
            }
            Err(e) => Err(e),
        }
    }

    /// Repeated `dig CNAME`: the full alias chain starting at `host`
    /// (empty when the host is not an alias). Chains longer than the
    /// chase limit error out like a looping resolver would.
    #[must_use]
    pub fn cname_chain(&mut self, host: &DomainName) -> Result<Vec<DomainName>, ResolveError> {
        let mut chain = Vec::new();
        let mut current = host.clone();
        for _ in 0..MAX_CHAIN {
            match self
                .resolver
                .resolve_with(&current, RecordType::Cname, |res| {
                    res.answers
                        .iter()
                        .find_map(|rr| rr.data.as_cname().cloned())
                }) {
                Ok(target) => {
                    let Some(target) = target else {
                        return Ok(chain);
                    };
                    if chain.contains(&target) || target == *host {
                        return Err(ResolveError::ChainTooLong { name: target });
                    }
                    chain.push(target.clone());
                    current = target;
                }
                // End of chain: the final name has no CNAME.
                Err(ResolveError::NoData { .. }) | Err(ResolveError::NxDomain { .. }) => {
                    return Ok(chain)
                }
                Err(e) => return Err(e),
            }
        }
        Err(ResolveError::ChainTooLong { name: current })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DnsNetwork;
    use crate::record::RecordData;
    use crate::zone::Zone;
    use std::net::Ipv4Addr;
    use webdeps_model::name::dn;
    use webdeps_model::EntityId;

    fn network() -> DnsNetwork {
        let mut b = DnsNetwork::builder();
        let s0 = b.add_server(
            dn("ns1.provider.net"),
            Ipv4Addr::new(192, 0, 2, 1),
            EntityId(0),
        );

        let mut site = Zone::new(
            dn("shop.com"),
            Soa::standard(dn("ns1.provider.net"), dn("hostmaster.provider.net"), 3),
        );
        site.add(dn("shop.com"), RecordData::Ns(dn("ns1.provider.net")));
        site.add(dn("shop.com"), RecordData::Ns(dn("ns2.provider.net")));
        site.add(
            dn("static.shop.com"),
            RecordData::Cname(dn("cust-9.edge.cdnco.net")),
        );
        b.add_zone(site, vec![s0]);

        let mut provider = Zone::new(
            dn("provider.net"),
            Soa::standard(dn("ns1.provider.net"), dn("hostmaster.provider.net"), 9),
        );
        provider.add(dn("provider.net"), RecordData::Ns(dn("ns1.provider.net")));
        provider.add(
            dn("ns1.provider.net"),
            RecordData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        b.add_zone(provider, vec![s0]);

        let mut cdn = Zone::new(
            dn("cdnco.net"),
            Soa::standard(dn("ns1.cdnco.net"), dn("ops.cdnco.net"), 7),
        );
        cdn.add(
            dn("cust-9.edge.cdnco.net"),
            RecordData::Cname(dn("pop-3.cdnco.net")),
        );
        cdn.add(
            dn("pop-3.cdnco.net"),
            RecordData::A(Ipv4Addr::new(203, 0, 113, 9)),
        );
        b.add_zone(cdn, vec![s0]);

        b.build()
    }

    #[test]
    fn dig_ns_lists_advertised_servers() {
        let net = network();
        let mut r = Resolver::new(&net);
        let ns = Dig::new(&mut r).ns(&dn("shop.com")).unwrap();
        assert_eq!(ns, vec![dn("ns1.provider.net"), dn("ns2.provider.net")]);
    }

    #[test]
    fn dig_ns_on_plain_host_is_empty() {
        let net = network();
        let mut r = Resolver::new(&net);
        assert_eq!(
            Dig::new(&mut r).ns(&dn("static.shop.com")).unwrap(),
            Vec::<DomainName>::new()
        );
    }

    #[test]
    fn soa_of_apex_and_of_inner_host_match() {
        let net = network();
        let mut r = Resolver::new(&net);
        let mut dig = Dig::new(&mut r);
        let apex = dig.soa_of(&dn("provider.net")).unwrap();
        let inner = dig.soa_of(&dn("ns1.provider.net")).unwrap();
        let missing = dig.soa_of(&dn("nope.provider.net")).unwrap();
        assert_eq!(
            apex, inner,
            "authority-section fallback must find the same SOA"
        );
        assert_eq!(apex, missing);
        assert_eq!(apex.rname, dn("hostmaster.provider.net"));
    }

    #[test]
    fn soa_differs_across_authorities() {
        let net = network();
        let mut r = Resolver::new(&net);
        let mut dig = Dig::new(&mut r);
        let site = dig.soa_of(&dn("shop.com")).unwrap();
        let cdn = dig.soa_of(&dn("pop-3.cdnco.net")).unwrap();
        assert_ne!(site, cdn);
    }

    #[test]
    fn cname_chain_is_chased_to_the_end() {
        let net = network();
        let mut r = Resolver::new(&net);
        let chain = Dig::new(&mut r)
            .cname_chain(&dn("static.shop.com"))
            .unwrap();
        assert_eq!(
            chain,
            vec![dn("cust-9.edge.cdnco.net"), dn("pop-3.cdnco.net")]
        );
        // A terminal host has an empty chain.
        let chain = Dig::new(&mut r)
            .cname_chain(&dn("pop-3.cdnco.net"))
            .unwrap();
        assert!(chain.is_empty());
    }

    #[test]
    fn cname_chain_surfaces_outages() {
        let net = network();
        let mut r = Resolver::new(&net);
        r.disable_cache();
        r.set_schedule(
            crate::fault::FaultPlan::healthy()
                .fail_entity(EntityId(0))
                .into(),
        );
        assert!(Dig::new(&mut r)
            .cname_chain(&dn("static.shop.com"))
            .is_err());
    }
}
