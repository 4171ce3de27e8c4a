//! The assembled DNS universe.
//!
//! A [`DnsNetwork`] is the immutable wiring of the simulated Internet's
//! name system: every authoritative server, every deployed zone, and the
//! mapping between them. The TLD/root tier is implicit — registries are
//! assumed reachable (the paper does not study TLD failures) — so
//! authority for a query is discovered by walking the query name's
//! ancestor chain through the deployed zones, shallowest first, exactly
//! like a referral walk that starts at the root.

use crate::server::{AuthoritativeServer, ServerId};
use crate::zone::Zone;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use webdeps_model::NameTable;
use webdeps_model::{DomainName, EntityId};

/// A zone plus the servers that answer authoritatively for it.
#[derive(Debug, Clone)]
pub struct ZoneDeployment {
    /// The zone data.
    pub zone: Zone,
    /// Servers announcing this zone. Order is preference order.
    pub servers: Box<[ServerId]>,
}

/// Immutable, fully wired name system.
#[derive(Debug, Clone, Default)]
pub struct DnsNetwork {
    servers: Vec<AuthoritativeServer>,
    deployments: Vec<ZoneDeployment>,
    /// Deployment index by zone origin.
    by_origin: NameTable,
}

impl DnsNetwork {
    /// Starts a builder.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Looks up a server.
    pub fn server(&self, id: ServerId) -> &AuthoritativeServer {
        &self.servers[id.index()]
    }

    /// All servers.
    pub fn servers(&self) -> &[AuthoritativeServer] {
        &self.servers
    }

    /// The index of the deployment whose zone origin is `origin`.
    fn deployment_index(&self, origin: &str) -> Option<usize> {
        self.by_origin
            .get(origin, |i| {
                self.deployments[i as usize].zone.origin().as_str()
            })
            .map(|i| i as usize)
    }

    /// Every deployed zone on the authority path of `name`, ordered
    /// shallowest → deepest. Resolution must traverse all of them: if an
    /// ancestor zone's servers are all down, the referral to the child
    /// can never be obtained.
    pub fn authority_chain(&self, name: &DomainName) -> Vec<&ZoneDeployment> {
        // Walk the label suffixes shallowest → deepest with borrowed
        // probes: this runs once per uncached resolution hop, so it must
        // not clone the qname or its ancestors.
        let mut chain = Vec::new();
        let s = name.as_str();
        let mut end = s.len();
        loop {
            let start = match s[..end].rfind('.') {
                Some(dot) => dot + 1,
                None => 0,
            };
            if let Some(i) = self.deployment_index(&s[start..]) {
                chain.push(&self.deployments[i]);
            }
            if start == 0 {
                break;
            }
            end = start - 1;
        }
        chain
    }

    /// Number of deployed zones.
    pub fn zone_count(&self) -> usize {
        self.deployments.len()
    }

    /// Bytes of heap the name system owns: the server and deployment
    /// arrays, the origin index, and every zone's record array, SOA,
    /// cuts and name index (see [`Zone::heap_bytes`]). Name text is
    /// shared with the rest of the world and is not counted. The arrays
    /// are exact-size once built, so this counts content.
    pub fn heap_bytes(&self) -> usize {
        let deployments: usize = self
            .deployments
            .iter()
            .map(|d| d.zone.heap_bytes() + std::mem::size_of_val(&*d.servers))
            .sum();
        self.servers.capacity() * std::mem::size_of::<AuthoritativeServer>()
            + self.deployments.capacity() * std::mem::size_of::<ZoneDeployment>()
            + self.by_origin.heap_bytes()
            + deployments
    }
}

/// Mutable assembly of a [`DnsNetwork`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    network: DnsNetwork,
    /// Server ids by hostname, for [`Self::add_server`]'s idempotency.
    server_by_hostname: HashMap<DomainName, ServerId>,
}

impl NetworkBuilder {
    /// Registers an authoritative server host. Idempotent per hostname:
    /// re-registering the same hostname returns the existing id (and
    /// asserts that operator/ip agree).
    pub fn add_server(
        &mut self,
        hostname: DomainName,
        ip: Ipv4Addr,
        operator: EntityId,
    ) -> ServerId {
        if let Some(&existing) = self.server_by_hostname.get(&hostname) {
            let s = &self.network.servers[existing.index()];
            assert_eq!(
                s.operator, operator,
                "server {hostname} re-registered to new operator"
            );
            return existing;
        }
        let id = ServerId::from_index(self.network.servers.len());
        self.network.servers.push(AuthoritativeServer {
            id,
            hostname: hostname.clone(),
            ip,
            operator,
        });
        self.server_by_hostname.insert(hostname, id);
        id
    }

    /// Deploys a zone onto a set of servers.
    pub fn add_zone(&mut self, zone: Zone, servers: Vec<ServerId>) {
        assert!(
            !servers.is_empty(),
            "zone {} deployed with no servers",
            zone.origin()
        );
        for &s in &servers {
            assert!(s.index() < self.network.servers.len(), "unknown {s}");
        }
        let origin = zone.origin().as_str();
        assert!(
            self.network.deployment_index(origin).is_none(),
            "zone {origin} deployed twice"
        );
        let idx = self.network.deployments.len();
        self.network.by_origin.insert(origin, idx as u32);
        self.network.deployments.push(ZoneDeployment {
            zone,
            servers: servers.into_boxed_slice(),
        });
    }

    /// Number of registered servers — the next [`ServerId`] index.
    /// Sharded world generation predicts server ids from this base.
    pub fn server_count(&self) -> usize {
        self.network.servers.len()
    }

    /// Mutable access to an already-deployed zone (worldgen wires
    /// cross-references in several passes; a fill of many records goes
    /// through [`Zone::insert_all`], one sort per batch).
    pub fn zone_mut(&mut self, origin: &DomainName) -> Option<&mut Zone> {
        let idx = self.network.deployment_index(origin.as_str())?;
        Some(&mut self.network.deployments[idx].zone)
    }

    /// Finalizes the network, trimming its arrays to their contents.
    pub fn build(self) -> DnsNetwork {
        let mut network = self.network;
        network.servers.shrink_to_fit();
        network.deployments.shrink_to_fit();
        network
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Soa;
    use webdeps_model::name::dn;

    fn soa(origin: &str) -> Soa {
        Soa::standard(
            dn(&format!("ns1.{origin}")),
            dn(&format!("hostmaster.{origin}")),
            1,
        )
    }

    #[test]
    fn builder_wires_zones_and_servers() {
        let mut b = DnsNetwork::builder();
        let s1 = b.add_server(
            dn("ns1.example.com"),
            Ipv4Addr::new(192, 0, 2, 1),
            EntityId(0),
        );
        let s1_again = b.add_server(
            dn("ns1.example.com"),
            Ipv4Addr::new(192, 0, 2, 1),
            EntityId(0),
        );
        assert_eq!(s1, s1_again, "server registration is idempotent");
        b.add_zone(Zone::new(dn("example.com"), soa("example.com")), vec![s1]);
        assert!(b.zone_mut(&dn("example.com")).is_some());
        assert!(b.zone_mut(&dn("other.com")).is_none());
        let net = b.build();
        assert_eq!(net.zone_count(), 1);
        assert_eq!(net.server(s1).hostname, dn("ns1.example.com"));
        assert_eq!(net.authority_chain(&dn("www.example.com")).len(), 1);
        assert!(net.authority_chain(&dn("www.other.com")).is_empty());
        assert!(net.heap_bytes() > 0);
    }

    #[test]
    fn authority_chain_orders_shallow_to_deep() {
        let mut b = DnsNetwork::builder();
        let s = b.add_server(
            dn("ns1.example.com"),
            Ipv4Addr::new(192, 0, 2, 1),
            EntityId(0),
        );
        b.add_zone(Zone::new(dn("example.com"), soa("example.com")), vec![s]);
        b.add_zone(
            Zone::new(dn("sub.example.com"), soa("sub.example.com")),
            vec![s],
        );
        let net = b.build();
        let chain = net.authority_chain(&dn("x.sub.example.com"));
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].zone.origin(), &dn("example.com"));
        assert_eq!(chain[1].zone.origin(), &dn("sub.example.com"));
    }

    #[test]
    #[should_panic(expected = "deployed twice")]
    fn duplicate_zone_panics() {
        let mut b = DnsNetwork::builder();
        let s = b.add_server(
            dn("ns1.example.com"),
            Ipv4Addr::new(192, 0, 2, 1),
            EntityId(0),
        );
        b.add_zone(Zone::new(dn("example.com"), soa("example.com")), vec![s]);
        b.add_zone(Zone::new(dn("example.com"), soa("example.com")), vec![s]);
    }

    #[test]
    #[should_panic(expected = "no servers")]
    fn zone_without_servers_panics() {
        let mut b = DnsNetwork::builder();
        b.add_zone(Zone::new(dn("example.com"), soa("example.com")), vec![]);
    }
}
