//! Webservers and virtual hosts.
//!
//! Serving is split the way HTTP actually splits it: an IP address
//! belongs to a [`WebServerId`] run by some operator (a website's own
//! origin, or a CDN edge), while *content and TLS configuration* hang off
//! the requested hostname — the [`VirtualHost`] — exactly like SNI-based
//! virtual hosting. A CDN edge therefore presents the customer's
//! certificate and serves the customer's page when asked for the
//! customer's hostname.

use crate::resource::Page;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use webdeps_model::{DomainName, EntityId, NameTable};
use webdeps_tls::Certificate;

/// Dense identifier of a webserver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WebServerId(pub u32);

impl WebServerId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One webserver (origin or CDN edge).
#[derive(Debug, Clone)]
pub struct WebServer {
    /// Identifier.
    pub id: WebServerId,
    /// Serving address.
    pub ip: Ipv4Addr,
    /// Operating organization — the outage-attribution pivot.
    pub operator: EntityId,
}

/// TLS configuration of a virtual host.
///
/// The certificate is shared (`Arc`): every TLS fetch hands a copy to
/// the session, and deep-cloning SAN lists per handshake dominated the
/// crawl profile at the million-site scale.
#[derive(Debug, Clone)]
pub struct TlsConfig {
    /// Certificate presented for this hostname.
    pub certificate: Arc<Certificate>,
    /// Whether the server staples OCSP responses.
    pub staple: bool,
}

/// Per-hostname serving configuration.
#[derive(Debug, Clone, Default)]
pub struct VirtualHost {
    /// TLS configuration; `None` means HTTP only.
    pub tls: Option<TlsConfig>,
    /// The landing page, when this hostname serves a document (shared:
    /// fetches hand out references, not deep copies).
    pub page: Option<Arc<Page>>,
    /// HTTP redirect target: requests for this host are answered with a
    /// redirect to the same path on `redirect` (the ubiquitous
    /// `example.com` → `www.example.com` hop).
    pub redirect: Option<webdeps_model::DomainName>,
}

/// The immutable web-serving universe.
///
/// Every virtual host lives in one exact-size array in the order its
/// hostname was first configured, indexed by hostname through an FNV-1a
/// [`NameTable`]; the hostname text is shared with the DNS plane.
#[derive(Debug, Clone, Default)]
pub struct WebNetwork {
    servers: Box<[WebServer]>,
    by_ip: HashMap<Ipv4Addr, WebServerId>,
    vhosts: Box<[(DomainName, VirtualHost)]>,
    /// Index into `vhosts` by hostname.
    by_host: NameTable,
}

impl WebNetwork {
    /// Starts a builder.
    pub fn builder() -> WebNetworkBuilder {
        WebNetworkBuilder::default()
    }

    /// Server by id.
    pub fn server(&self, id: WebServerId) -> &WebServer {
        &self.servers[id.index()]
    }

    /// Server owning an IP address.
    pub fn server_at(&self, ip: Ipv4Addr) -> Option<&WebServer> {
        self.by_ip.get(&ip).map(|&id| self.server(id))
    }

    /// Virtual-host configuration for a hostname.
    pub fn vhost(&self, host: &DomainName) -> Option<&VirtualHost> {
        let i = vhost_index(&self.by_host, &self.vhosts, host)?;
        Some(&self.vhosts[i].1)
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of configured virtual hosts (distinct hostnames).
    pub fn vhost_count(&self) -> usize {
        self.vhosts.len()
    }

    /// Bytes of heap the web plane owns: the server array and the IP
    /// map's entries, the vhost array and its hostname index, and each
    /// page and certificate once however many vhosts share it (its `Arc`
    /// block, resource array and SAN array). Name text, resource paths
    /// and the CA endpoint lists are shared with the rest of the world
    /// and not counted.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        /// The bytes of each distinct `Arc` block (its two counts and
        /// the value) plus what `extra` says the value owns.
        fn once<'a, T: 'a>(
            arcs: impl Iterator<Item = &'a Arc<T>>,
            extra: impl Fn(&T) -> usize,
        ) -> usize {
            let mut arcs: Vec<&Arc<T>> = arcs.collect();
            arcs.sort_unstable_by_key(|a| Arc::as_ptr(a));
            arcs.dedup_by_key(|a| Arc::as_ptr(a));
            arcs.iter()
                .map(|a| 2 * size_of::<usize>() + size_of::<T>() + extra(a))
                .sum()
        }
        let vhosts = self.vhosts.iter().map(|(_, v)| v);
        let pages = once(vhosts.clone().filter_map(|v| v.page.as_ref()), |p| {
            size_of_val(&*p.resources)
        });
        let certs = once(
            vhosts.filter_map(|v| Some(&v.tls.as_ref()?.certificate)),
            |c| size_of_val(&*c.san),
        );
        size_of_val(&*self.servers)
            + self.by_ip.capacity() * size_of::<(Ipv4Addr, WebServerId)>()
            + size_of_val(&*self.vhosts)
            + self.by_host.heap_bytes()
            + pages
            + certs
    }
}

/// The position of `host` in a vhost array indexed by `by_host`.
fn vhost_index(
    by_host: &NameTable,
    vhosts: &[(DomainName, VirtualHost)],
    host: &DomainName,
) -> Option<usize> {
    by_host
        .get(host.as_str(), |i| vhosts[i as usize].0.as_str())
        .map(|i| i as usize)
}

/// Assembles a [`WebNetwork`].
#[derive(Debug, Default)]
pub struct WebNetworkBuilder {
    servers: Vec<WebServer>,
    by_ip: HashMap<Ipv4Addr, WebServerId>,
    vhosts: Vec<(DomainName, VirtualHost)>,
    by_host: NameTable,
}

impl WebNetworkBuilder {
    /// Registers a server at an address. Idempotent per IP (same
    /// operator required).
    pub fn add_server(&mut self, ip: Ipv4Addr, operator: EntityId) -> WebServerId {
        if let Some(&id) = self.by_ip.get(&ip) {
            assert_eq!(
                self.servers[id.index()].operator,
                operator,
                "IP {ip} re-registered to a different operator"
            );
            return id;
        }
        let id = WebServerId(self.servers.len() as u32);
        self.servers.push(WebServer { id, ip, operator });
        self.by_ip.insert(ip, id);
        id
    }

    /// Makes room for `additional` more virtual hosts at once, so that
    /// configuring them does not grow the vhost array or its index step
    /// by step.
    pub fn reserve_vhosts(&mut self, additional: usize) {
        self.vhosts.reserve_exact(additional);
        self.by_host.reserve(additional);
    }

    /// Configures the virtual host for a hostname; configuring a known
    /// hostname again replaces its value (the last writer wins).
    pub fn set_vhost(&mut self, host: DomainName, vhost: VirtualHost) {
        match vhost_index(&self.by_host, &self.vhosts, &host) {
            Some(i) => self.vhosts[i].1 = vhost,
            None => {
                let id = self.vhosts.len();
                assert!(id < u32::MAX as usize, "vhost overflow: {id} hosts");
                self.by_host.insert(host.as_str(), id as u32);
                self.vhosts.push((host, vhost));
            }
        }
    }

    /// Finalizes the network, trimming every array to its length.
    pub fn build(self) -> WebNetwork {
        WebNetwork {
            servers: self.servers.into_boxed_slice(),
            by_ip: self.by_ip,
            vhosts: self.vhosts.into_boxed_slice(),
            by_host: self.by_host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    #[test]
    fn server_registration_is_idempotent_per_ip() {
        let mut b = WebNetwork::builder();
        let a = b.add_server(Ipv4Addr::new(192, 0, 2, 1), EntityId(0));
        let again = b.add_server(Ipv4Addr::new(192, 0, 2, 1), EntityId(0));
        assert_eq!(a, again);
        let other = b.add_server(Ipv4Addr::new(192, 0, 2, 2), EntityId(1));
        assert_ne!(a, other);
        let net = b.build();
        assert_eq!(net.server_count(), 2);
        assert_eq!(
            net.server_at(Ipv4Addr::new(192, 0, 2, 1)).unwrap().operator,
            EntityId(0)
        );
        assert!(net.server_at(Ipv4Addr::new(203, 0, 113, 1)).is_none());
    }

    #[test]
    #[should_panic(expected = "different operator")]
    fn ip_conflict_panics() {
        let mut b = WebNetwork::builder();
        b.add_server(Ipv4Addr::new(192, 0, 2, 1), EntityId(0));
        b.add_server(Ipv4Addr::new(192, 0, 2, 1), EntityId(1));
    }

    #[test]
    fn vhost_configuration() {
        let mut b = WebNetwork::builder();
        b.set_vhost(
            dn("example.com"),
            VirtualHost {
                page: Some(Arc::new(Page::default())),
                ..VirtualHost::default()
            },
        );
        let net = b.build();
        assert!(net.vhost(&dn("example.com")).unwrap().page.is_some());
        assert!(net.vhost(&dn("example.com")).unwrap().tls.is_none());
        assert!(net.vhost(&dn("other.com")).is_none());
        assert_eq!(net.vhost_count(), 1);
    }

    fn redirect_to(target: &str) -> VirtualHost {
        VirtualHost {
            redirect: Some(dn(target)),
            ..VirtualHost::default()
        }
    }

    #[test]
    fn set_vhost_on_a_known_host_replaces_it() {
        let mut b = WebNetwork::builder();
        b.set_vhost(dn("a.com"), redirect_to("first.com"));
        b.set_vhost(dn("b.com"), redirect_to("b-target.com"));
        b.set_vhost(dn("a.com"), redirect_to("last.com"));
        let net = b.build();
        assert_eq!(net.vhost_count(), 2, "distinct hostnames");
        let target = |host| net.vhost(&dn(host)).and_then(|v| v.redirect.clone());
        assert_eq!(target("a.com"), Some(dn("last.com")), "last writer wins");
        assert_eq!(target("b.com"), Some(dn("b-target.com")));
        assert_eq!(target("com"), None);
    }

    #[test]
    fn heap_bytes_counts_each_shared_page_and_certificate_once() {
        use webdeps_tls::Pki;
        let mut pki_b = Pki::builder();
        let ca = pki_b.add_ca("CA", EntityId(0), vec![dn("ocsp.ca.com")], vec![], 1);
        let mut pki = pki_b.build();
        let cert = pki.issue(
            ca,
            dn("a.com"),
            vec![dn("*.a.com")],
            Default::default(),
            false,
        );
        let tls = TlsConfig {
            certificate: Arc::new(cert),
            staple: false,
        };
        let shared = VirtualHost {
            tls: Some(tls),
            page: Some(Arc::new(Page::default())),
            redirect: None,
        };
        let build = |hosts: &[&str]| {
            let mut b = WebNetwork::builder();
            b.reserve_vhosts(hosts.len());
            for host in hosts {
                b.set_vhost(dn(host), shared.clone());
            }
            b.build()
        };
        let one = build(&["a.com"]);
        let three = build(&["a.com", "www.a.com", "static.a.com"]);
        let entry = std::mem::size_of::<(DomainName, VirtualHost)>();
        assert_eq!(three.heap_bytes() - one.heap_bytes(), 2 * entry);
        let cert_and_sans =
            std::mem::size_of::<Certificate>() + 2 * std::mem::size_of::<DomainName>();
        assert!(one.heap_bytes() > entry + cert_and_sans);
    }

    /// Random `set_vhost` sequences over a small host pool (so hosts
    /// repeat), with reservations in between, answer exactly as an
    /// ordered map does: hits, misses and the distinct-host count.
    #[test]
    fn vhost_table_matches_a_map_model() {
        use std::collections::BTreeMap;
        use webdeps_testkit::{check, gen, tk_assert_eq};
        const POOL: usize = 48;
        let host = |i: usize| dn(&format!("h{i}.example.com"));
        let ops = gen::vec_of(
            gen::tuple2(gen::usize_range(0, POOL), gen::u64_below(1_000)),
            0,
            300,
        );
        check("vhost_table_matches_a_map_model", &ops, |ops| {
            let mut b = WebNetwork::builder();
            let mut model = BTreeMap::new();
            for &(i, value) in ops {
                if value % 10 == 0 {
                    b.reserve_vhosts((value / 10) as usize);
                }
                b.set_vhost(host(i), redirect_to(&format!("v{value}.example.com")));
                model.insert(i, value);
            }
            let net = b.build();
            tk_assert_eq!(net.vhost_count(), model.len());
            for i in 0..POOL + 2 {
                let got = net.vhost(&host(i)).and_then(|v| v.redirect.clone());
                let want = model.get(&i).map(|v| dn(&format!("v{v}.example.com")));
                tk_assert_eq!(got, want);
            }
            tk_assert_eq!(net.vhost(&dn("example.com")).is_some(), false);
            Ok(())
        });
    }
}
