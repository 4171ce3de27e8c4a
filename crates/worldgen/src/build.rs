//! World materialization.
//!
//! Turns a [`SnapshotPlan`] into a fully wired [`World`]: every DNS
//! provider gets servers and zones, every CDN an edge and a CNAME
//! domain, every CA a responder reachable through its own (possibly
//! third-party) DNS and CDN, and every site a zone, webserver,
//! certificate, and landing page — such that the measurement pipeline
//! can discover everything the paper's scripts discovered, purely over
//! the wire.

// lint:allow-file(panic) — world construction runs on static catalogs and
// seeded RNG only; every expect here encodes a generator invariant, and a
// violation means the generator itself is wrong, which must abort loudly.

use crate::config::WorldConfig;
use crate::profiles::{CaProfile, CdnProfile, DepState};
use crate::providers::{self, CaProviderSpec, ConglomerateSpec, DnsProvider, ProviderDep};
use crate::snapshots::{plan_snapshot, SnapshotPlan};
use crate::truth::{GroundTruth, SiteListing, SiteTruth};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use webdeps_dns::record::{RecordData, Soa};
use webdeps_dns::zone::Zone;
use webdeps_dns::{DnsNetwork, Resolver, ServerId};
use webdeps_model::name::dn;
use webdeps_model::{
    timing, CaId, DetRng, DomainName, EntityId, EntityKind, EntityRegistry, PublicSuffixList,
    SiteId,
};
use webdeps_tls::{Pki, PkiBuilder};
use webdeps_web::server::{TlsConfig, VirtualHost};
use webdeps_web::{
    CdnDirectory, CnameToCdnMap, Page, Resource, ResourceKind, Scheme, Url, WebClient, WebNetwork,
};

/// Shared third-party *content* hosts (fonts, ads, widgets) that appear
/// as external resources on landing pages. `Some(cdn)` fronts the host
/// with that CDN — external CNAME chains the pipeline must *not* count
/// as site-CDN pairs.
const CONTENT_PROVIDERS: &[(&str, Option<&str>)] = &[
    ("fontserve.com", Some("Akamai")),
    ("adnet.com", Some("CloudFront")),
    ("jslib-cdn.com", Some("Cloudflare CDN")),
    ("trackify.com", None),
    ("socialwidgets.com", Some("Fastly")),
];

/// A fully materialized snapshot of the synthetic Internet.
#[derive(Debug)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// Ground-truth ownership registry (validation only).
    pub entities: EntityRegistry,
    /// Public-suffix list shared with the measurement pipeline.
    pub psl: PublicSuffixList,
    /// The name system.
    pub dns: DnsNetwork,
    /// The web-serving plane.
    pub web: WebNetwork,
    /// The PKI.
    pub pki: Pki,
    /// CDN ground-truth directory (the CNAME map is derived from it).
    pub cdn_dir: CdnDirectory,
    /// The measurement pipeline's CNAME-to-CDN map.
    pub cname_map: CnameToCdnMap,
    /// Per-site ground truth (validation only).
    pub truth: GroundTruth,
    /// Provider display name → owning entity.
    provider_entities: BTreeMap<String, EntityId>,
}

impl World {
    /// Generates a world from scratch. Site synthesis is sharded across
    /// `WEBDEPS_JOBS` workers (auto-detected when unset); output is
    /// byte-identical at any worker count.
    pub fn generate(config: WorldConfig) -> World {
        World::from_plan(plan_snapshot(&config))
    }

    /// Materializes a prepared plan, sharded as [`Self::generate`] is.
    pub fn from_plan(plan: SnapshotPlan) -> World {
        Builder::new(plan).build()
    }

    /// A fresh resolver bound to this world.
    pub fn resolver(&self) -> Resolver<'_> {
        Resolver::new(&self.dns)
    }

    /// A fresh browser-like client bound to this world.
    pub fn client(&self) -> WebClient<'_> {
        WebClient::new(self.resolver(), &self.web, &self.pki)
    }

    /// The public site list handed to the measurement pipeline.
    pub fn listings(&self) -> Vec<SiteListing> {
        self.truth.listings()
    }

    /// Ground truth for a site.
    pub fn site(&self, id: SiteId) -> &SiteTruth {
        self.truth.site(id)
    }

    /// The owning entity of a named provider (for outage injection),
    /// e.g. `"Dyn"`, `"Akamai"`, `"DigiCert"`, `"Googol CDN"`.
    pub fn provider_entity(&self, name: &str) -> Option<EntityId> {
        self.provider_entities.get(name).copied()
    }

    /// All provider names with their entities.
    pub fn provider_entities(&self) -> impl Iterator<Item = (&str, EntityId)> {
        self.provider_entities.iter().map(|(n, e)| (n.as_str(), *e))
    }
}

/// Incremental world assembly state (use [`World::generate`] or
/// [`World::from_plan`]; the builder is not directly constructible).
pub struct Builder {
    plan: SnapshotPlan,
    entities: EntityRegistry,
    dns_b: webdeps_dns::NetworkBuilder,
    web_b: webdeps_web::WebNetworkBuilder,
    cdn_dir: CdnDirectory,
    pki_b: Option<PkiBuilder>,
    rng: DetRng,
    next_web_ip: u32,
    next_dns_ip: u32,
    /// DNS provider name → its nameserver ServerIds.
    dns_servers: BTreeMap<String, Vec<ServerId>>,
    /// DNS provider name → catalog entry.
    dns_catalog: BTreeMap<String, DnsProvider>,
    /// CDN name → (cname domain, edge ip).
    cdn_info: BTreeMap<String, (DomainName, Ipv4Addr)>,
    /// CA name → id.
    ca_ids: BTreeMap<String, CaId>,
    provider_entities: BTreeMap<String, EntityId>,
    serial: u32,
}

impl Builder {
    fn new(plan: SnapshotPlan) -> Builder {
        let seed = plan.config.seed;
        Builder {
            plan,
            entities: EntityRegistry::new(),
            dns_b: DnsNetwork::builder(),
            web_b: WebNetwork::builder(),
            cdn_dir: CdnDirectory::new(),
            pki_b: Some(Pki::builder()),
            rng: DetRng::new(seed ^ 0xB11D),
            next_web_ip: 0x0A00_0001, // 10.0.0.1
            next_dns_ip: 0x0C00_0001, // 12.0.0.1
            dns_servers: BTreeMap::new(),
            dns_catalog: BTreeMap::new(),
            cdn_info: BTreeMap::new(),
            ca_ids: BTreeMap::new(),
            provider_entities: BTreeMap::new(),
            serial: 1,
        }
    }

    fn web_ip(&mut self) -> Ipv4Addr {
        let ip = Ipv4Addr::from(self.next_web_ip);
        self.next_web_ip += 1;
        ip
    }

    fn dns_ip(&mut self) -> Ipv4Addr {
        let ip = Ipv4Addr::from(self.next_dns_ip);
        self.next_dns_ip += 1;
        ip
    }

    fn serial(&mut self) -> u32 {
        self.serial += 1;
        self.serial
    }

    /// Builds a SOA whose MNAME/RNAME belong to `admin_domain`.
    fn soa_of(&mut self, admin_domain: &DomainName) -> Soa {
        let serial = self.serial();
        Soa::standard(
            admin_domain.child("ns1").expect("valid"),
            admin_domain.child("hostmaster").expect("valid"),
            serial,
        )
    }

    /// Creates two nameserver hosts under `ns_domain` for `operator` and
    /// returns their ids. Idempotent per domain.
    fn make_ns_servers(&mut self, ns_domain: &DomainName, operator: EntityId) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(2);
        for label in ["ns1", "ns2"] {
            let host = ns_domain.child(label).expect("valid label");
            let ip = self.dns_ip();
            out.push(self.dns_b.add_server(host, ip, operator));
        }
        out
    }

    /// Deploys a zone that carries A records for its own `ns1`/`ns2`.
    fn deploy_infra_zone(
        &mut self,
        origin: DomainName,
        soa: Soa,
        ns_hosts: Vec<DomainName>,
        servers: Vec<ServerId>,
        a_records: Vec<(DomainName, Ipv4Addr)>,
    ) {
        let mut zone = Zone::new(origin.clone(), soa);
        for h in &ns_hosts {
            zone.add(origin.clone(), RecordData::Ns(h.clone()));
        }
        for (name, ip) in a_records {
            zone.add(name, RecordData::A(ip));
        }
        self.dns_b.add_zone(zone, servers);
    }

    /// Resolves a provider-level DNS dependency into the (ns hosts,
    /// servers, soa-admin domain) of the dependent's zone.
    fn dep_dns_setup(
        &mut self,
        own_domain: &DomainName,
        own_entity: EntityId,
        dep: &ProviderDep,
    ) -> (Vec<DomainName>, Vec<ServerId>, DomainName) {
        match dep {
            ProviderDep::Private | ProviderDep::None => {
                let servers = self.make_ns_servers(own_domain, own_entity);
                (
                    vec![
                        own_domain.child("ns1").expect("valid"),
                        own_domain.child("ns2").expect("valid"),
                    ],
                    servers,
                    own_domain.clone(),
                )
            }
            ProviderDep::SingleThird(p) => {
                let prov = self
                    .dns_catalog
                    .get(*p)
                    .unwrap_or_else(|| panic!("unknown DNS provider {p}"))
                    .clone();
                let servers = self.dns_servers[*p].clone();
                (
                    vec![
                        prov.ns_domain.child("ns1").expect("valid"),
                        prov.ns_domain.child("ns2").expect("valid"),
                    ],
                    servers,
                    prov.ns_domain.clone(),
                )
            }
            ProviderDep::Redundant(p) => {
                let prov = self
                    .dns_catalog
                    .get(*p)
                    .unwrap_or_else(|| panic!("unknown DNS provider {p}"))
                    .clone();
                let mut servers = self.make_ns_servers(own_domain, own_entity);
                servers.extend(self.dns_servers[*p].iter().copied());
                (
                    vec![
                        own_domain.child("ns1").expect("valid"),
                        prov.ns_domain.child("ns1").expect("valid"),
                    ],
                    servers,
                    own_domain.clone(),
                )
            }
        }
    }

    /// Phase 1: DNS providers — entities, servers, and provider zones.
    fn build_dns_providers(&mut self) {
        let psl = PublicSuffixList::builtin();
        let catalog = providers::dns_catalog(&self.plan.config);
        for p in catalog {
            // Entities own *registrable* domains (cloudflare.com, not
            // ns.cloudflare.com) so wire identities resolve to owners.
            let reg = |d: &DomainName| psl.registrable_domain(d).unwrap_or_else(|| d.clone());
            let mut domains = vec![reg(&p.ns_domain)];
            for extra in &p.extra_ns_domains {
                let r = reg(extra);
                if !domains.contains(&r) {
                    domains.push(r);
                }
            }
            let entity = self
                .entities
                .register(p.name.clone(), EntityKind::DnsProvider, domains);
            self.provider_entities.insert(p.name.clone(), entity);

            let mut servers = self.make_ns_servers(&p.ns_domain.clone(), entity);
            let mut a_records: Vec<(DomainName, Ipv4Addr)> = Vec::new();
            for (i, &sid) in servers.iter().enumerate() {
                let host = p
                    .ns_domain
                    .child(if i == 0 { "ns1" } else { "ns2" })
                    .expect("valid");
                // Use the actual registered server IP for glue realism.
                let _ = sid;
                a_records.push((host, Ipv4Addr::from(self.next_dns_ip - 2 + i as u32)));
            }
            let soa = self.soa_of(&p.ns_domain.clone());
            self.deploy_infra_zone(
                p.ns_domain.clone(),
                soa,
                vec![
                    p.ns_domain.child("ns1").expect("valid"),
                    p.ns_domain.child("ns2").expect("valid"),
                ],
                servers.clone(),
                a_records,
            );
            // Extra alias domains (Alibaba style): separate zones whose
            // SOA MNAME points at the primary domain's master.
            for extra in &p.extra_ns_domains {
                let extra_server = {
                    let host = extra.child("ns1").expect("valid");
                    let ip = self.dns_ip();
                    self.dns_b.add_server(host, ip, entity)
                };
                servers.push(extra_server);
                let serial = self.serial();
                let soa = Soa::standard(
                    p.ns_domain.child("ns1").expect("valid"),
                    p.ns_domain.child("hostmaster").expect("valid"),
                    serial,
                );
                let a = vec![(
                    extra.child("ns1").expect("valid"),
                    Ipv4Addr::from(self.next_dns_ip - 1),
                )];
                self.deploy_infra_zone(
                    extra.clone(),
                    soa,
                    vec![extra.child("ns1").expect("valid")],
                    vec![extra_server],
                    a,
                );
            }
            self.dns_servers.insert(p.name.clone(), servers);
            self.dns_catalog.insert(p.name.clone(), p);
        }
    }

    /// Phase 2: third-party CDNs — entities, edges, CNAME-domain zones.
    fn build_cdns(&mut self) {
        let catalog = providers::cdn_catalog(&self.plan.config);
        for c in catalog {
            self.build_one_cdn(&c.name, c.cname_domain.clone(), None, &c.dns_dep, true);
            let _ = c;
        }
    }

    /// Creates one CDN (third-party or conglomerate-private).
    fn build_one_cdn(
        &mut self,
        name: &str,
        cname_domain: DomainName,
        owner: Option<EntityId>,
        dns_dep: &ProviderDep,
        advertises: bool,
    ) {
        let entity = owner.unwrap_or_else(|| {
            let reg = PublicSuffixList::builtin()
                .registrable_domain(&cname_domain)
                .unwrap_or_else(|| cname_domain.clone());
            self.entities
                .register(name.to_string(), EntityKind::CdnProvider, vec![reg])
        });
        self.provider_entities.insert(name.to_string(), entity);
        self.cdn_dir.register(
            name.to_string(),
            entity,
            vec![cname_domain.clone()],
            advertises,
        );

        let edge_ip = self.web_ip();
        self.web_b.add_server(edge_ip, entity);

        let (ns_hosts, servers, mut admin) = self.dep_dns_setup(&cname_domain, entity, dns_dep);
        if name == "Cloudflare CDN" {
            // One real-world confusion source, faithfully modeled: the
            // CDN zone shares its SOA administration with the company's
            // DNS product, so the SOA rule cannot separate a
            // Cloudflare-DNS site from the Cloudflare CDN (those pairs
            // end up unclassified, like the paper's 771/38,030).
            admin = dn("ns.cloudflare.com");
        }
        let soa = self.soa_of(&admin);
        // In-zone A records for any private nameservers.
        let mut a_records = Vec::new();
        for h in &ns_hosts {
            if h.is_subdomain_of(&cname_domain) {
                a_records.push((h.clone(), self.dns_ip()));
            }
        }
        self.deploy_infra_zone(cname_domain.clone(), soa, ns_hosts, servers, a_records);
        self.cdn_info
            .insert(name.to_string(), (cname_domain, edge_ip));
    }

    /// Registers a CDN customer host (`cust-…`) pointing at the edge.
    fn add_cdn_customer(&mut self, cdn_name: &str, label: &str) -> DomainName {
        let (domain, edge_ip) = self
            .cdn_info
            .get(cdn_name)
            .unwrap_or_else(|| panic!("unknown CDN {cdn_name}"))
            .clone();
        let host = domain.child(label).expect("valid label");
        let zone = self.dns_b.zone_mut(&domain).expect("CDN zone deployed");
        zone.add(host.clone(), RecordData::A(edge_ip));
        host
    }

    /// Phase 3: third-party CAs — PKI registration, responder infra.
    fn build_cas(&mut self) {
        let catalog = providers::ca_catalog(&self.plan.config);
        for ca in catalog {
            let entity = self.entities.register(
                ca.name.clone(),
                EntityKind::CertificateAuthority,
                vec![ca.domain.clone()],
            );
            self.build_one_ca(&ca.name, ca.domain.clone(), entity, &ca, None);
        }
    }

    /// Creates one CA's PKI entry and serving infrastructure.
    /// `zone_override` nests the CA's zone under a conglomerate domain.
    fn build_one_ca(
        &mut self,
        name: &str,
        ca_domain: DomainName,
        entity: EntityId,
        spec: &CaProviderSpec,
        lifetime_override: Option<u64>,
    ) {
        self.provider_entities.insert(name.to_string(), entity);
        let ocsp_host = ca_domain.child("ocsp").expect("valid");
        let crl_host = ca_domain.child("crl").expect("valid");
        let ca_id = self.pki_b.as_mut().expect("pki open").add_ca(
            name.to_string(),
            entity,
            vec![ocsp_host.clone()],
            vec![crl_host.clone()],
            lifetime_override.unwrap_or(spec.cert_lifetime),
        );
        self.ca_ids.insert(name.to_string(), ca_id);

        // Responder origin.
        let responder_ip = self.web_ip();
        self.web_b.add_server(responder_ip, entity);
        self.web_b
            .set_vhost(ocsp_host.clone(), VirtualHost::default());
        self.web_b
            .set_vhost(crl_host.clone(), VirtualHost::default());

        // The CA's zone, wired per its DNS dependency. CAs administer
        // their own zone *content* (SOA MNAME/RNAME stay in-house) even
        // when the serving nameservers are a third party's — which is
        // why the paper's SOA rule classifies CA→DNS and CA→CDN pairs
        // decently (94% strawman accuracy) while failing on websites.
        let (ns_hosts, servers, _admin) = self.dep_dns_setup(&ca_domain, entity, &spec.dns_dep);
        let soa = self.soa_of(&ca_domain.clone());
        let mut a_records = Vec::new();
        for h in &ns_hosts {
            if h.is_subdomain_of(&ca_domain) {
                a_records.push((h.clone(), self.dns_ip()));
            }
        }
        self.deploy_infra_zone(ca_domain.clone(), soa, ns_hosts, servers, a_records);

        // Responder hosts: direct A records, or CNAME onto a CDN.
        let zone_origin = ca_domain.clone();
        match &spec.cdn_dep {
            ProviderDep::SingleThird(cdn) | ProviderDep::Redundant(cdn) => {
                let label = format!("ca-{}", name.to_ascii_lowercase().replace([' ', '\''], "-"));
                let cust = self.add_cdn_customer(cdn, &label);
                let zone = self.dns_b.zone_mut(&zone_origin).expect("CA zone deployed");
                zone.add(ocsp_host, RecordData::Cname(cust.clone()));
                zone.add(crl_host, RecordData::Cname(cust));
            }
            _ => {
                let zone = self.dns_b.zone_mut(&zone_origin).expect("CA zone deployed");
                zone.add(ocsp_host, RecordData::A(responder_ip));
                zone.add(crl_host, RecordData::A(responder_ip));
            }
        }
    }

    /// Phase 4: conglomerates — corporate zones, private CAs and CDNs.
    fn build_conglomerates(&mut self) {
        for spec in providers::CONGLOMERATES {
            self.build_one_conglomerate(spec);
        }
    }

    fn conglomerate_entity_name(spec: &ConglomerateSpec) -> String {
        spec.name.to_string()
    }

    fn build_one_conglomerate(&mut self, spec: &ConglomerateSpec) {
        let primary = dn(spec.domain);
        let mut domains = vec![primary.clone()];
        domains.extend(spec.alias_domains.iter().map(|d| dn(d)));
        let entity = self.entities.register(
            Self::conglomerate_entity_name(spec),
            EntityKind::WebsiteOperator,
            domains.clone(),
        );
        self.provider_entities.insert(spec.name.to_string(), entity);

        // Corporate zones: private DNS on the primary domain.
        let servers = self.make_ns_servers(&primary, entity);
        let ns_hosts = vec![
            primary.child("ns1").expect("valid"),
            primary.child("ns2").expect("valid"),
        ];
        let soa = self.soa_of(&primary);
        let mut a_records = Vec::new();
        for h in &ns_hosts {
            a_records.push((h.clone(), self.dns_ip()));
        }
        self.deploy_infra_zone(
            primary.clone(),
            soa,
            ns_hosts.clone(),
            servers.clone(),
            a_records,
        );
        for alias in spec.alias_domains {
            let alias = dn(alias);
            if spec.private_cdn && Some(alias.as_str()) == spec.alias_domains.first().copied() {
                continue; // the first alias becomes the private CDN domain below
            }
            let serial = self.serial();
            let soa = Soa::standard(
                primary.child("ns1").expect("valid"),
                primary.child("hostmaster").expect("valid"),
                serial,
            );
            self.deploy_infra_zone(alias, soa, ns_hosts.clone(), servers.clone(), Vec::new());
        }

        // Private CDN (Yahoo/yimg style): first alias domain, wired per
        // the conglomerate's CDN-DNS dependency (the twitter case).
        if spec.private_cdn {
            let cdn_domain = dn(spec
                .alias_domains
                .first()
                .expect("private CDN needs an alias"));
            let cdn_name = format!("{} CDN", spec.name);
            self.build_one_cdn(&cdn_name, cdn_domain, Some(entity), &spec.cdn_dns_dep, true);
        }

        // Private CA: nested zone `pki.<primary>`, wired per the
        // conglomerate's CA dependencies (the godaddy / microsoft cases).
        if spec.private_ca {
            let ca_domain = primary.child("pki").expect("valid");
            let ca_name = format!("{} CA", spec.name);
            let fake_spec = CaProviderSpec {
                name: ca_name.clone(),
                domain: ca_domain.clone(),
                weights: [0.0; 4],
                dns_dep: spec.ca_dns_dep.clone(),
                cdn_dep: spec.ca_cdn_dep.clone(),
                cert_lifetime: 397 * 86_400,
            };
            self.build_one_ca(&ca_name, ca_domain, entity, &fake_spec, None);
        }

        // The corporate site itself (not part of the ranked list; member
        // sites from the plan point here via SAN evidence).
        let www_ip = self.web_ip();
        self.web_b.add_server(www_ip, entity);
        let zone = self.dns_b.zone_mut(&primary).expect("deployed");
        zone.add(primary.clone(), RecordData::A(www_ip));
    }

    /// Phase 5: shared content providers (external page resources).
    fn build_content_providers(&mut self) {
        for (domain, cdn) in CONTENT_PROVIDERS {
            let domain = dn(domain);
            let entity = self.entities.register(
                format!("Content {domain}"),
                EntityKind::WebsiteOperator,
                vec![domain.clone()],
            );
            let servers = self.make_ns_servers(&domain, entity);
            let ns_hosts = vec![
                domain.child("ns1").expect("valid"),
                domain.child("ns2").expect("valid"),
            ];
            let soa = self.soa_of(&domain);
            let mut a_records = Vec::new();
            for h in &ns_hosts {
                a_records.push((h.clone(), self.dns_ip()));
            }
            let origin_ip = self.web_ip();
            self.web_b.add_server(origin_ip, entity);
            let static_host = domain.child("static").expect("valid");
            self.web_b
                .set_vhost(static_host.clone(), VirtualHost::default());
            self.deploy_infra_zone(domain.clone(), soa, ns_hosts, servers, a_records);
            let cname = match cdn {
                Some(cdn_name) if self.cdn_info.contains_key(*cdn_name) => {
                    Some(self.add_cdn_customer(
                        cdn_name,
                        &format!("cust-{}", domain.labels().next().expect("label")),
                    ))
                }
                _ => None,
            };
            let zone = self.dns_b.zone_mut(&domain).expect("deployed");
            match cname {
                Some(cust) => zone.add(static_host, RecordData::Cname(cust)),
                None => zone.add(static_host, RecordData::A(origin_ip)),
            }
        }
    }

    /// External content hosts available for page generation.
    fn content_hosts() -> Vec<DomainName> {
        CONTENT_PROVIDERS
            .iter()
            .map(|(d, _)| dn(d).child("static").expect("valid"))
            .collect()
    }

    /// Phase 6: the ranked site population.
    ///
    /// Site synthesis is sharded across [`par::fan_out`] workers: each
    /// shard *plans* its contiguous run of sites — zones, certificates,
    /// pages, vhosts — against predicted ids/IPs/serials derived from
    /// per-site counter prefix sums ([`SiteCursor::advance`]), and the
    /// planned mutations ([`ShardOps`]) are applied serially in shard
    /// order, asserting every prediction. The serial path is the
    /// one-shard path, so output is byte-identical at any
    /// `WEBDEPS_JOBS` value (see `tests/parallel_determinism.rs`).
    fn build_sites(&mut self, pki: &mut Pki) {
        let content_hosts = Self::content_hosts();
        let sites = std::mem::take(&mut self.plan.truth.sites);

        let start = SiteCursor {
            web_ip: self.next_web_ip,
            dns_ip: self.next_dns_ip,
            serial: self.serial,
            server: self.dns_b.server_count(),
            entity: self.entities.len(),
            cert_serial: pki.next_serial(),
        };
        let jobs = webdeps_model::par::effective_jobs(sites.len());
        let chunk = sites.len().div_ceil(jobs).max(1);
        let mut cursor = start;
        let mut shards: Vec<(SiteCursor, &[SiteTruth])> = Vec::with_capacity(jobs);
        for part in sites.chunks(chunk) {
            shards.push((cursor, part));
            for site in part {
                cursor.advance(site);
            }
        }
        let final_cursor = cursor;
        let boundary: Vec<SiteCursor> = shards
            .iter()
            .skip(1)
            .map(|&(c, _)| c)
            .chain(std::iter::once(final_cursor))
            .collect();

        let shard_ops: Vec<ShardOps> = {
            let planner = SitePlanner {
                rng: &self.rng,
                dns_catalog: &self.dns_catalog,
                dns_servers: &self.dns_servers,
                cdn_info: &self.cdn_info,
                ca_ids: &self.ca_ids,
                provider_entities: &self.provider_entities,
                content_hosts: &content_hosts,
                pki,
            };
            webdeps_model::par::fan_out(&shards, |&(shard_start, part)| {
                planner.plan_shard(shard_start, part)
            })
        };

        for (ops, expected_end) in shard_ops.into_iter().zip(boundary) {
            assert_eq!(
                ops.end, expected_end,
                "shard counter prediction diverged from planned consumption"
            );
            self.apply_shard(ops, pki);
        }
        self.next_web_ip = final_cursor.web_ip;
        self.next_dns_ip = final_cursor.dns_ip;
        self.serial = final_cursor.serial;
        self.plan.truth.sites = sites;
    }

    /// Applies one shard's planned mutations to the shared builders, in
    /// the order the serial generator would have produced them.
    fn apply_shard(&mut self, ops: ShardOps, pki: &mut Pki) {
        for op in ops.entities {
            match op {
                EntityOp::Register {
                    name,
                    domains,
                    predicted,
                } => {
                    let got = self
                        .entities
                        .register(name, EntityKind::WebsiteOperator, domains);
                    assert_eq!(got, predicted, "entity id prediction diverged");
                }
                EntityOp::AddDomain { id, domain } => self.entities.add_domain(id, domain),
            }
        }
        for (ip, operator) in ops.web_servers {
            self.web_b.add_server(ip, operator);
        }
        for (host, ip, operator, predicted) in ops.dns_servers {
            let got = self.dns_b.add_server(host, ip, operator);
            assert_eq!(got, predicted, "dns server id prediction diverged");
        }
        for (zone, servers) in ops.zones {
            self.dns_b.add_zone(zone, servers);
        }
        for (origin, host, ip) in ops.cdn_records {
            let zone = self.dns_b.zone_mut(&origin).expect("CDN zone deployed");
            zone.add(host, RecordData::A(ip));
        }
        for (host, vhost) in ops.vhosts {
            self.web_b.set_vhost(host, vhost);
        }
        for (origin, img, ip) in ops.guarded_img {
            // First writer wins: sites are applied in order, so the
            // earliest conglomerate member publishes the sibling-brand
            // A record — exactly as the serial generator did.
            if let Some(zone) = self.dns_b.zone_mut(&origin) {
                if matches!(
                    zone.lookup(&img, webdeps_dns::RecordType::A),
                    webdeps_dns::zone::ZoneAnswer::NxDomain { .. }
                ) {
                    zone.add(img, RecordData::A(ip));
                }
            }
        }
        for (ca, serial) in ops.certs {
            pki.register_issued(ca, serial);
        }
    }

    fn build(mut self) -> World {
        timing::time("gen/providers", || {
            self.build_dns_providers();
            self.build_cdns();
            self.build_cas();
            self.build_conglomerates();
            self.build_content_providers();
        });
        let mut pki = self.pki_b.take().expect("pki open").build();
        timing::time("gen/sites", || self.build_sites(&mut pki));
        let _finalize = timing::scope("gen/finalize");
        let cname_map = CnameToCdnMap::from_directory(&self.cdn_dir);
        World {
            config: self.plan.config,
            entities: self.entities,
            psl: PublicSuffixList::builtin(),
            dns: self.dns_b.build(),
            web: self.web_b.build(),
            pki,
            cdn_dir: self.cdn_dir,
            cname_map,
            truth: self.plan.truth,
            provider_entities: self.provider_entities,
        }
    }
}

/// Counter snapshot for sharded site construction. Site synthesis
/// consumes six monotone counters (origin IPs, nameserver IPs, zone
/// serials, DNS server ids, entity ids, certificate serials); each
/// site's consumption is a pure function of its [`SiteTruth`], so shard
/// starting points are computed by prefix sums and every worker assigns
/// exactly the values the serial generator would have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SiteCursor {
    web_ip: u32,
    dns_ip: u32,
    serial: u32,
    server: usize,
    entity: usize,
    cert_serial: u64,
}

impl SiteCursor {
    /// Advances past one site's consumption — must stay in lockstep
    /// with [`SitePlanner::plan_site`] (the merge asserts it does).
    fn advance(&mut self, site: &SiteTruth) {
        self.web_ip += 1;
        if site.conglomerate.is_none() {
            self.entity += 1;
        }
        match site.dns.state {
            DepState::Private => {
                self.server += 2;
                self.dns_ip += 4;
                self.serial += if site.dns.alias_ns { 2 } else { 1 };
            }
            DepState::PrivatePlusThird => {
                self.server += 2;
                self.dns_ip += 3;
                self.serial += 1;
            }
            DepState::SingleThird | DepState::MultiThird => {
                self.serial += 1;
            }
        }
        if site.https() {
            self.cert_serial += 1;
        }
    }

    fn take_web_ip(&mut self) -> Ipv4Addr {
        let ip = Ipv4Addr::from(self.web_ip);
        self.web_ip += 1;
        ip
    }

    fn take_dns_ip(&mut self) -> Ipv4Addr {
        let ip = Ipv4Addr::from(self.dns_ip);
        self.dns_ip += 1;
        ip
    }

    fn take_serial(&mut self) -> u32 {
        self.serial += 1;
        self.serial
    }
}

/// An entity-registry mutation planned by a shard worker.
enum EntityOp {
    Register {
        name: String,
        domains: Vec<DomainName>,
        predicted: EntityId,
    },
    AddDomain {
        id: EntityId,
        domain: DomainName,
    },
}

/// One shard's planned mutations of the shared builders, recorded in
/// the order the serial generator would perform them. Everything
/// allocation-heavy (names, zones, certificates, pages) is built on the
/// worker; applying ops is pure map/vec insertion.
#[derive(Default)]
struct ShardOps {
    entities: Vec<EntityOp>,
    web_servers: Vec<(Ipv4Addr, EntityId)>,
    dns_servers: Vec<(DomainName, Ipv4Addr, EntityId, ServerId)>,
    /// Zone deployments in serial deployment order (a site's alias-NS
    /// zone precedes its own zone).
    zones: Vec<(Zone, Vec<ServerId>)>,
    /// `cust-…` A records destined for already-deployed CDN zones:
    /// (zone origin, host, edge IP).
    cdn_records: Vec<(DomainName, DomainName, Ipv4Addr)>,
    vhosts: Vec<(DomainName, VirtualHost)>,
    /// Sibling-brand `img` records guarded by first-writer-wins:
    /// (zone origin, host, origin IP).
    guarded_img: Vec<(DomainName, DomainName, Ipv4Addr)>,
    /// Certificates prepared off-thread, to register in serial order.
    certs: Vec<(CaId, u64)>,
    /// Counter state after the shard's last site (continuity check).
    end: SiteCursor,
}

/// Read-only context a shard worker plans sites against.
struct SitePlanner<'a> {
    rng: &'a DetRng,
    dns_catalog: &'a BTreeMap<String, DnsProvider>,
    dns_servers: &'a BTreeMap<String, Vec<ServerId>>,
    cdn_info: &'a BTreeMap<String, (DomainName, Ipv4Addr)>,
    ca_ids: &'a BTreeMap<String, CaId>,
    provider_entities: &'a BTreeMap<String, EntityId>,
    content_hosts: &'a [DomainName],
    pki: &'a Pki,
}

impl SitePlanner<'_> {
    fn plan_shard(&self, start: SiteCursor, sites: &[SiteTruth]) -> ShardOps {
        let mut ops = ShardOps::default();
        let mut cur = start;
        for site in sites {
            self.plan_site(site, &mut cur, &mut ops);
        }
        ops.end = cur;
        ops
    }

    /// Plans two nameserver hosts under `ns_domain` with predicted ids.
    fn plan_ns_servers(
        &self,
        ns_domain: &DomainName,
        operator: EntityId,
        cur: &mut SiteCursor,
        ops: &mut ShardOps,
    ) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(2);
        for label in ["ns1", "ns2"] {
            let host = ns_domain.child(label).expect("valid label");
            let ip = cur.take_dns_ip();
            let sid = ServerId::from_index(cur.server);
            cur.server += 1;
            ops.dns_servers.push((host, ip, operator, sid));
            out.push(sid);
        }
        out
    }

    /// Plans a CDN customer host (`cust-…`) pointing at the edge.
    fn plan_cdn_customer(&self, cdn_name: &str, label: &str, ops: &mut ShardOps) -> DomainName {
        let (domain, edge_ip) = self
            .cdn_info
            .get(cdn_name)
            .unwrap_or_else(|| panic!("unknown CDN {cdn_name}"));
        let host = domain.child(label).expect("valid label");
        ops.cdn_records
            .push((domain.clone(), host.clone(), *edge_ip));
        host
    }

    fn plan_site(&self, site: &SiteTruth, cur: &mut SiteCursor, ops: &mut ShardOps) {
        let rng = self.rng.fork_indexed("site-build", site.universe);
        let domain = site.domain.clone();

        // Entity: conglomerate member sites belong to the conglomerate.
        let entity = match site.conglomerate {
            Some(ci) => {
                let e = self.provider_entities[providers::CONGLOMERATES[ci].name];
                ops.entities.push(EntityOp::AddDomain {
                    id: e,
                    domain: domain.clone(),
                });
                e
            }
            None => {
                let mut domains = vec![domain.clone()];
                if site.dns.alias_ns {
                    domains.push(dn(&format!("site-{}-dns.net", site.universe)));
                }
                let id = EntityId::from_index(cur.entity);
                cur.entity += 1;
                ops.entities.push(EntityOp::Register {
                    name: format!("Operator of {domain}"),
                    domains,
                    predicted: id,
                });
                id
            }
        };

        // Origin webserver.
        let origin_ip = cur.take_web_ip();
        ops.web_servers.push((origin_ip, entity));

        // --- DNS ---------------------------------------------------
        let mut ns_hosts: Vec<DomainName> = Vec::new();
        let mut servers: Vec<ServerId> = Vec::new();
        let mut extra_zone: Option<(DomainName, Vec<ServerId>)> = None;
        match site.dns.state {
            DepState::Private => {
                let ns_base = if site.dns.alias_ns {
                    dn(&format!("site-{}-dns.net", site.universe))
                } else {
                    domain.clone()
                };
                let own = self.plan_ns_servers(&ns_base, entity, cur, ops);
                ns_hosts.push(ns_base.child("ns1").expect("valid"));
                ns_hosts.push(ns_base.child("ns2").expect("valid"));
                servers.extend(own.iter().copied());
                if site.dns.alias_ns {
                    extra_zone = Some((ns_base, own));
                }
            }
            DepState::SingleThird => {
                let p = &self.dns_catalog[&site.dns.providers[0]];
                if let Some(extra) = p.extra_ns_domains.first() {
                    // Alibaba-style: two nameserver domains, one entity.
                    ns_hosts.push(p.ns_domain.child("ns1").expect("valid"));
                    ns_hosts.push(extra.child("ns1").expect("valid"));
                } else {
                    ns_hosts.push(p.ns_domain.child("ns1").expect("valid"));
                    ns_hosts.push(p.ns_domain.child("ns2").expect("valid"));
                }
                servers.extend(self.dns_servers[&site.dns.providers[0]].iter().copied());
            }
            DepState::MultiThird => {
                for name in &site.dns.providers {
                    let p = &self.dns_catalog[name];
                    ns_hosts.push(p.ns_domain.child("ns1").expect("valid"));
                    servers.extend(self.dns_servers[name].iter().copied());
                }
            }
            DepState::PrivatePlusThird => {
                let own = self.plan_ns_servers(&domain, entity, cur, ops);
                ns_hosts.push(domain.child("ns1").expect("valid"));
                servers.extend(own);
                let p = &self.dns_catalog[&site.dns.providers[0]];
                ns_hosts.push(p.ns_domain.child("ns1").expect("valid"));
                servers.extend(self.dns_servers[&site.dns.providers[0]].iter().copied());
            }
        }

        let soa = if site.dns.provider_soa {
            let ns_domain = &self.dns_catalog[&site.dns.providers[0]].ns_domain;
            let serial = cur.take_serial();
            Soa::standard(
                ns_domain.child("ns1").expect("valid"),
                ns_domain.child("hostmaster").expect("valid"),
                serial,
            )
        } else {
            // Self-managed SOA: MNAME points at a hidden master under
            // the site's own domain (a common production setup), so the
            // SOA strawman correctly detects third-party nameservers.
            let serial = cur.take_serial();
            Soa::standard(
                domain.child("ns0").expect("valid"),
                domain.child("hostmaster").expect("valid"),
                serial,
            )
        };

        let mut zone = Zone::new(domain.clone(), soa);
        for h in &ns_hosts {
            zone.add(domain.clone(), RecordData::Ns(h.clone()));
        }
        zone.add(domain.clone(), RecordData::A(origin_ip));
        for h in &ns_hosts {
            if h.is_subdomain_of(&domain) {
                zone.add(h.clone(), RecordData::A(cur.take_dns_ip()));
            }
        }
        if let Some((alias_domain, alias_servers)) = extra_zone {
            // Alias-NS zone: same administrator as the site zone.
            let serial = cur.take_serial();
            let soa = Soa::standard(
                alias_domain.child("ns1").expect("valid"),
                domain.child("hostmaster").expect("valid"),
                serial,
            );
            let mut alias_zone = Zone::new(alias_domain.clone(), soa);
            alias_zone.add(
                alias_domain.clone(),
                RecordData::Ns(alias_domain.child("ns1").expect("valid")),
            );
            for label in ["ns1", "ns2"] {
                alias_zone.add(
                    alias_domain.child(label).expect("valid"),
                    RecordData::A(cur.take_dns_ip()),
                );
            }
            ops.zones.push((alias_zone, alias_servers));
        }

        // --- CDN on-ramps + hosts ------------------------------------
        let www = domain.child("www").expect("valid");
        let www2 = domain.child("www2").expect("valid");
        let static_host = domain.child("static").expect("valid");
        let sid = site.id.index();
        match site.cdn.state {
            CdnProfile::None => {
                zone.add(static_host.clone(), RecordData::A(origin_ip));
            }
            CdnProfile::Private | CdnProfile::SingleThird => {
                let cdn = &site.cdn.cdns[0];
                let cust_www = self.plan_cdn_customer(cdn, &format!("cust-{sid}-www"), ops);
                let cust_static = self.plan_cdn_customer(cdn, &format!("cust-{sid}-st"), ops);
                zone.add(www.clone(), RecordData::Cname(cust_www));
                zone.add(static_host.clone(), RecordData::Cname(cust_static));
            }
            CdnProfile::Multi => {
                // Both CDNs are visible on the landing page: static
                // assets ride CDN A, image assets CDN B (multi-CDN sites
                // split object classes), and the document itself fails
                // over www → www2.
                let cust_a =
                    self.plan_cdn_customer(&site.cdn.cdns[0], &format!("cust-{sid}-www"), ops);
                let cust_b =
                    self.plan_cdn_customer(&site.cdn.cdns[1], &format!("cust-{sid}-www2"), ops);
                let cust_static =
                    self.plan_cdn_customer(&site.cdn.cdns[0], &format!("cust-{sid}-st"), ops);
                let cust_img =
                    self.plan_cdn_customer(&site.cdn.cdns[1], &format!("cust-{sid}-img"), ops);
                zone.add(www.clone(), RecordData::Cname(cust_a));
                zone.add(www2.clone(), RecordData::Cname(cust_b));
                zone.add(static_host.clone(), RecordData::Cname(cust_static));
                zone.add(
                    domain.child("img").expect("valid"),
                    RecordData::Cname(cust_img),
                );
            }
        }
        ops.zones.push((zone, servers));

        // --- Certificate ------------------------------------------
        let tls = if site.https() {
            let ca_name = site.ca.ca.as_ref().expect("HTTPS site has a CA");
            let ca_id = *self
                .ca_ids
                .get(ca_name)
                .unwrap_or_else(|| panic!("unknown CA {ca_name}"));
            let mut san = vec![domain.clone(), dn(&format!("*.{domain}"))];
            if let Some(ci) = site.conglomerate {
                let spec = &providers::CONGLOMERATES[ci];
                san.push(dn(spec.domain));
                for alias in spec.alias_domains {
                    san.push(dn(alias));
                    san.push(dn(&format!("*.{alias}")));
                }
            }
            if site.dns.alias_ns {
                san.push(dn(&format!("site-{}-dns.net", site.universe)));
            }
            let must_staple = rng.fork("must-staple").chance(0.002);
            let serial = cur.cert_serial;
            cur.cert_serial += 1;
            let cert = self.pki.ca(ca_id).make_certificate(
                serial,
                domain.clone(),
                san,
                webdeps_dns::SimTime::ZERO,
                must_staple,
            );
            ops.certs.push((ca_id, serial));
            let staple = site.ca.state == CaProfile::ThirdStapled || must_staple;
            Some(TlsConfig {
                certificate: std::sync::Arc::new(cert),
                staple,
            })
        } else {
            None
        };

        // --- Page + vhosts ------------------------------------------
        let scheme = if site.https() {
            Scheme::Https
        } else {
            Scheme::Http
        };
        let doc_hosts = site.document_hosts();
        let mut page = Page::new();
        page.push(Resource::new(
            Url {
                scheme,
                host: doc_hosts[0].clone(),
                path: "/app.js".into(),
            },
            ResourceKind::Script,
        ));
        page.push(Resource::new(
            Url {
                scheme,
                host: static_host.clone(),
                path: "/style.css".into(),
            },
            ResourceKind::Stylesheet,
        ));
        if site.cdn.state == CdnProfile::Multi {
            // The second CDN's objects (see the on-ramp wiring above).
            page.push(Resource::new(
                Url {
                    scheme,
                    host: domain.child("img").expect("valid"),
                    path: "/hero.png".into(),
                },
                ResourceKind::Image,
            ));
        }
        if let Some(ci) = site.conglomerate {
            let spec = &providers::CONGLOMERATES[ci];
            if let Some(alias) = spec.alias_domains.first() {
                // Internal resource on a sibling brand domain (the
                // yimg/yahoo heuristic case).
                page.push(Resource::new(
                    Url {
                        scheme,
                        host: dn(alias).child("img").expect("valid"),
                        path: "/logo.png".into(),
                    },
                    ResourceKind::Image,
                ));
            }
        }
        let mut crng = rng.fork("content");
        let n_ext = 1 + crng.below(3);
        for k in 0..n_ext {
            let host = &self.content_hosts
                [(crng.below(self.content_hosts.len()) + k) % self.content_hosts.len()];
            // External objects load over HTTP in this model so content
            // hosts need no certificates; the paper's pipeline only
            // needs their hostnames and CNAME chains.
            page.push(Resource::new(
                Url {
                    scheme: Scheme::Http,
                    host: host.clone(),
                    path: format!("/w{k}.js").into(),
                },
                ResourceKind::Script,
            ));
        }

        let page = std::sync::Arc::new(page);
        for host in &doc_hosts {
            ops.vhosts.push((
                host.clone(),
                VirtualHost {
                    tls: tls.clone(),
                    page: Some(page.clone()),
                    redirect: None,
                },
            ));
        }
        if site.cdn.state.uses_cdn() {
            // The apex answers from the origin with a redirect onto the
            // CDN-fronted www host, like real CDN onboarding does.
            ops.vhosts.push((
                domain.clone(),
                VirtualHost {
                    tls: tls.clone(),
                    page: None,
                    redirect: Some(www.clone()),
                },
            ));
        }
        ops.vhosts.push((
            static_host,
            VirtualHost {
                tls: tls.clone(),
                page: None,
                redirect: None,
            },
        ));
        if site.cdn.state == CdnProfile::Multi {
            ops.vhosts.push((
                domain.child("img").expect("valid"),
                VirtualHost {
                    tls: tls.clone(),
                    page: None,
                    redirect: None,
                },
            ));
        }
        if let Some(ci) = site.conglomerate {
            let spec = &providers::CONGLOMERATES[ci];
            if let Some(alias) = spec.alias_domains.first() {
                let img = dn(alias).child("img").expect("valid");
                ops.vhosts.push((
                    img.clone(),
                    VirtualHost {
                        tls: tls.clone(),
                        page: None,
                        redirect: None,
                    },
                ));
                // Resolvable target for the sibling-brand host — the
                // merge adds it first-writer-wins, like the serial
                // generator's NXDOMAIN-guarded insert did.
                ops.guarded_img.push((dn(alias), img, origin_ip));
            }
        }
    }
}

/// Convenience: the display name of a conglomerate's private CDN/CA used
/// in ground truth.
pub fn conglomerate_cdn_name(spec: &ConglomerateSpec) -> String {
    format!("{} CDN", spec.name)
}

/// Re-exported for examples: the conglomerate private-CA name.
pub fn conglomerate_ca_name(spec: &ConglomerateSpec) -> String {
    format!("{} CA", spec.name)
}

/// Builder type alias used by the public API docs.
pub type WorldBuilder = Builder;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use webdeps_dns::RecordType;

    fn small_world() -> World {
        World::generate(WorldConfig::small(41))
    }

    #[test]
    fn world_builds_and_sites_resolve() {
        let w = small_world();
        assert_eq!(w.truth.len(), 2_000);
        let mut resolver = w.resolver();
        let mut resolved = 0;
        for listing in w.listings().iter().take(200) {
            if resolver.resolve(&listing.domain, RecordType::A).is_ok() {
                resolved += 1;
            }
        }
        assert_eq!(resolved, 200, "every site apex must resolve");
    }

    #[test]
    fn document_hosts_fetch_end_to_end() {
        let w = small_world();
        let mut client = w.client();
        let mut ok = 0;
        let mut total = 0;
        for listing in w.listings().iter().take(300) {
            total += 1;
            let scheme = if listing.https {
                Scheme::Https
            } else {
                Scheme::Http
            };
            let url = Url {
                scheme,
                host: listing.document_hosts[0].clone(),
                path: "/".into(),
            };
            match client.fetch(&url) {
                Ok(out) => {
                    assert!(out.page.is_some(), "document host must serve a page");
                    ok += 1;
                }
                Err(e) => panic!("fetch of {url} failed: {e}"),
            }
        }
        assert_eq!(ok, total);
    }

    #[test]
    fn https_sites_present_covering_fresh_certs() {
        let w = small_world();
        let mut client = w.client();
        for listing in w.listings().iter().filter(|l| l.https).take(100) {
            let url = Url::https(listing.document_hosts[0].clone());
            let out = client.fetch(&url).expect("https fetch");
            let tls = out.tls.expect("tls session");
            assert!(tls.certificate.covers(&url.host));
        }
    }

    #[test]
    fn stapling_matches_ground_truth() {
        let w = small_world();
        let mut client = w.client();
        let mut stapled_sites = 0;
        for listing in w.listings().iter().filter(|l| l.https).take(400) {
            let truth = w.site(listing.id);
            let url = Url::https(listing.document_hosts[0].clone());
            let out = client.fetch(&url).expect("https fetch");
            if truth.ca.state == CaProfile::ThirdStapled {
                assert!(out.was_stapled(), "{} should staple", listing.domain);
                stapled_sites += 1;
            }
        }
        assert!(stapled_sites > 0, "sample must include stapling sites");
    }

    #[test]
    fn cdn_sites_route_through_edge_with_visible_chain() {
        let w = small_world();
        let mut client = w.client();
        let mut checked = 0;
        for listing in w.listings() {
            let truth = w.site(listing.id);
            if truth.cdn.state != CdnProfile::SingleThird {
                continue;
            }
            let scheme = if listing.https {
                Scheme::Https
            } else {
                Scheme::Http
            };
            let url = Url {
                scheme,
                host: listing.document_hosts[0].clone(),
                path: "/".into(),
            };
            let out = client.fetch(&url).expect("cdn fetch");
            assert!(!out.cname_chain.is_empty(), "CDN on-ramp must be a CNAME");
            let cdn_id = w.cname_map.classify_chain(out.cname_chain.iter());
            let cdn = w.cdn_dir.get(cdn_id.expect("chain maps to a CDN"));
            assert_eq!(&cdn.name, &truth.cdn.cdns[0]);
            checked += 1;
            if checked >= 50 {
                break;
            }
        }
        assert!(checked > 10, "world must contain CDN sites");
    }

    #[test]
    fn apex_redirects_lead_browsers_to_the_cdn_host() {
        use webdeps_web::Crawler;
        let w = small_world();
        let site = w
            .truth
            .sites
            .iter()
            .find(|s| s.cdn.state == CdnProfile::SingleThird)
            .expect("CDN site exists");
        let mut client = w.client();
        // Start from the bare apex, as a user typing the domain would.
        let report = Crawler::crawl(
            &mut client,
            &site.domain,
            std::slice::from_ref(&site.domain),
            site.https(),
        );
        assert!(report.reachable());
        assert_eq!(
            report.document_host,
            Some(site.domain.child("www").unwrap()),
            "apex redirect must land on the CDN-fronted host"
        );
        assert!(
            !report.document_chain.is_empty(),
            "…which rides the CDN CNAME"
        );
    }

    #[test]
    fn dyn_style_outage_kills_critical_sites_spares_redundant() {
        let w = small_world();
        // Find a provider with critically dependent sites in this world.
        let mut by_provider: HashMap<&str, (usize, usize)> = HashMap::new();
        for s in &w.truth.sites {
            for p in &s.dns.providers {
                let e = by_provider.entry(p.as_str()).or_default();
                if s.dns.state == DepState::SingleThird {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
        }
        let (victim, _) = by_provider
            .iter()
            .filter(|(_, (crit, red))| *crit > 5 && *red > 0)
            .max_by_key(|(_, (crit, _))| *crit)
            .expect("some provider has critical + redundant customers");
        let entity = w.provider_entity(victim).expect("provider entity");

        let mut client = w.client();
        client.set_faults(webdeps_dns::FaultPlan::healthy().fail_entity(entity));
        client.resolver_mut().disable_cache();

        let mut critical_dead = 0;
        let mut critical_total = 0;
        let mut redundant_alive = 0;
        let mut redundant_total = 0;
        for s in &w.truth.sites {
            if !s.dns.providers.iter().any(|p| p == victim) {
                continue;
            }
            let scheme = if s.https() {
                Scheme::Https
            } else {
                Scheme::Http
            };
            let url = Url {
                scheme,
                host: s.document_hosts()[0].clone(),
                path: "/".into(),
            };
            let up = client.fetch(&url).is_ok();
            match s.dns.state {
                DepState::SingleThird => {
                    critical_total += 1;
                    if !up {
                        critical_dead += 1;
                    }
                }
                DepState::MultiThird | DepState::PrivatePlusThird => {
                    redundant_total += 1;
                    if up {
                        redundant_alive += 1;
                    }
                }
                DepState::Private => unreachable!("private sites have no providers"),
            }
        }
        assert!(critical_total > 0 && redundant_total > 0);
        assert_eq!(
            critical_dead, critical_total,
            "all critical customers must go dark"
        );
        assert_eq!(
            redundant_alive, redundant_total,
            "all redundant customers must survive"
        );
    }

    #[test]
    fn worlds_are_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.dns.zone_count(), b.dns.zone_count());
        assert_eq!(a.web.vhost_count(), b.web.vhost_count());
        for (x, y) in a.truth.sites.iter().zip(b.truth.sites.iter()).take(100) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.dns.providers, y.dns.providers);
        }
    }

    #[test]
    fn provider_entities_are_exposed() {
        let w = small_world();
        assert!(w.provider_entity("Cloudflare").is_some());
        assert!(w.provider_entity("DigiCert").is_some());
        assert!(w.provider_entity("Akamai").is_some());
        assert!(w.provider_entity("NoSuchProvider").is_none());
    }
}
