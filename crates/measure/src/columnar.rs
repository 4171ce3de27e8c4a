//! The measurement dataset: one columnar layout for every consumer.
//!
//! [`MeasurementDataset`] is what the pipeline produces and what every
//! table, figure, export, audit and graph reads. Provider identities are
//! interned once into a [`NameId`] arena; per-site service states are
//! packed into one byte per service; per-site provider lists are
//! flattened into CSR-style `u32` columns; domains share one UTF-8
//! arena. Every per-site field is a flat column, so an analysis pass
//! streams contiguous arrays, and the same measurement always yields
//! the same arenas.
//!
//! Beside the per-site columns the dataset keeps pass 1's nameserver
//! concentration tallies (sites per NS registrable domain, the combined
//! heuristic's concentration input) as a sorted table of their own, so
//! validation reads them instead of re-observing the population.
//!
//! Sites are read through [`SiteView`], a copyable cursor over one row.
//! Two fields are derived rather than stored: HTTPS is every CA state
//! but `NoHttps`, and CDN use is every CDN state but `None` — the CA
//! and CDN classifiers report those states exactly when no certificate
//! and no CDN was observed.

use crate::classify::Classification;
use crate::dataset::{ProviderKey, SiteCaMeasurement, SiteCdnMeasurement, SiteDnsMeasurement};
use crate::interservice::ProviderMeasurement;
use std::cmp::Ordering;
use std::collections::HashMap;
use webdeps_model::{DomainName, Interner, NameId, Rank, ServiceKind, SiteId};
use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};
use webdeps_worldgen::SiteListing;

/// Sentinel for "no CA observed" in the `ca` column.
const NO_NAME: u32 = u32::MAX;

/// `flags` bit: the landing page was reachable at crawl time.
const REACHABLE: u8 = 1;
/// `flags` bit: the TLS handshake presented a stapled OCSP response.
const STAPLED: u8 = 2;

/// Packed `Option<DepState>` (0 = uncharacterized).
fn enc_dns(state: Option<DepState>) -> u8 {
    match state {
        None => 0,
        Some(DepState::Private) => 1,
        Some(DepState::SingleThird) => 2,
        Some(DepState::MultiThird) => 3,
        Some(DepState::PrivatePlusThird) => 4,
    }
}

fn dec_dns(byte: u8) -> Option<DepState> {
    match byte {
        0 => None,
        1 => Some(DepState::Private),
        2 => Some(DepState::SingleThird),
        3 => Some(DepState::MultiThird),
        4 => Some(DepState::PrivatePlusThird),
        // lint:allow(panic) — infallible: the column holds only bytes `enc_dns` writes
        other => unreachable!("invalid packed DepState {other}"),
    }
}

/// Packed `Option<CdnProfile>` (0 = unclassified).
fn enc_cdn(state: Option<CdnProfile>) -> u8 {
    match state {
        None => 0,
        Some(CdnProfile::None) => 1,
        Some(CdnProfile::Private) => 2,
        Some(CdnProfile::SingleThird) => 3,
        Some(CdnProfile::Multi) => 4,
    }
}

fn dec_cdn(byte: u8) -> Option<CdnProfile> {
    match byte {
        0 => None,
        1 => Some(CdnProfile::None),
        2 => Some(CdnProfile::Private),
        3 => Some(CdnProfile::SingleThird),
        4 => Some(CdnProfile::Multi),
        // lint:allow(panic) — infallible: the column holds only bytes `enc_cdn` writes
        other => unreachable!("invalid packed CdnProfile {other}"),
    }
}

/// Packed `Option<CaProfile>` (0 = unclassified).
fn enc_ca(state: Option<CaProfile>) -> u8 {
    match state {
        None => 0,
        Some(CaProfile::NoHttps) => 1,
        Some(CaProfile::PrivateCa) => 2,
        Some(CaProfile::ThirdStapled) => 3,
        Some(CaProfile::ThirdNoStaple) => 4,
    }
}

fn dec_ca(byte: u8) -> Option<CaProfile> {
    match byte {
        0 => None,
        1 => Some(CaProfile::NoHttps),
        2 => Some(CaProfile::PrivateCa),
        3 => Some(CaProfile::ThirdStapled),
        4 => Some(CaProfile::ThirdNoStaple),
        // lint:allow(panic) — infallible: the column holds only bytes `enc_ca` writes
        other => unreachable!("invalid packed CaProfile {other}"),
    }
}

/// Packed [`Classification`] of one CDN or CA entry.
fn enc_class(class: Classification) -> u8 {
    match class {
        Classification::Private => 0,
        Classification::ThirdParty => 1,
        Classification::Unknown => 2,
    }
}

fn dec_class(byte: u8) -> Classification {
    match byte {
        0 => Classification::Private,
        1 => Classification::ThirdParty,
        2 => Classification::Unknown,
        // lint:allow(panic) — infallible: the columns hold only bytes `enc_class` writes
        // and the 0 a site without a CA name stores
        other => unreachable!("invalid packed Classification {other}"),
    }
}

/// The complete output of a pipeline run over one snapshot.
///
/// Per-site storage is a handful of flat columns: the listing's id and
/// rank, the domain as a range of one UTF-8 arena, a flags byte, one
/// `u8` per service state, CSR ranges into the flat DNS and CDN
/// provider columns, and one CA slot. Provider-key strings live once in
/// the interner, shared by every column. Site order (and therefore
/// every column's order) is the listing's rank order, in which site ids
/// ascend, so the same measurement always yields the same arenas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeasurementDataset {
    /// Interned provider identities (registrable domains).
    names: Interner,
    /// Site ids, in dataset (rank) order.
    site_ids: Vec<SiteId>,
    /// Popularity rank from the input list.
    ranks: Vec<u32>,
    /// CSR offsets into `domains` (`len + 1` entries).
    domain_start: Vec<u32>,
    /// Every site's registrable domain, concatenated.
    domains: String,
    /// [`REACHABLE`] | [`STAPLED`] per site.
    flags: Vec<u8>,
    /// Packed `Option<DepState>` per site.
    dns_state: Vec<u8>,
    /// Packed `Option<CdnProfile>` per site.
    cdn_state: Vec<u8>,
    /// Packed `Option<CaProfile>` per site.
    ca_state: Vec<u8>,
    /// CSR offsets into `dns_providers` (`len + 1` entries).
    dns_start: Vec<u32>,
    /// Flattened third-party DNS providers of every site.
    dns_providers: Vec<NameId>,
    /// CSR offsets into `cdns` / `cdn_class` (`len + 1` entries).
    cdn_start: Vec<u32>,
    /// Flattened detected CDNs of every site, in detection order.
    cdns: Vec<NameId>,
    /// Packed [`Classification`] of each `cdns` entry.
    cdn_class: Vec<u8>,
    /// Detected CA per site (`NameId(NO_NAME)` = none).
    ca: Vec<NameId>,
    /// Packed [`Classification`] of the `ca` slot (0 when empty).
    ca_class: Vec<u8>,
    /// Provider-level inter-service measurements (§3.4).
    providers: Vec<ProviderMeasurement>,
    /// CSR offsets into `ns_names` (`ns_sites.len() + 1` entries, or
    /// none before the tallies are set).
    ns_start: Vec<u32>,
    /// Every tallied NS registrable domain, concatenated in ascending
    /// byte order. Kept apart from the provider interner, so tallying
    /// moves no [`NameId`].
    ns_names: String,
    /// Sites served by each `ns_names` entry.
    ns_sites: Vec<u32>,
}

impl MeasurementDataset {
    /// An empty dataset pre-sized for `n` sites.
    pub(crate) fn with_capacity(n: usize) -> MeasurementDataset {
        let offsets = || {
            let mut v = Vec::with_capacity(n + 1);
            v.push(0);
            v
        };
        MeasurementDataset {
            names: Interner::with_capacity(64),
            site_ids: Vec::with_capacity(n),
            ranks: Vec::with_capacity(n),
            domain_start: offsets(),
            domains: String::new(),
            flags: Vec::with_capacity(n),
            dns_state: Vec::with_capacity(n),
            cdn_state: Vec::with_capacity(n),
            ca_state: Vec::with_capacity(n),
            dns_start: offsets(),
            dns_providers: Vec::new(),
            cdn_start: offsets(),
            cdns: Vec::new(),
            cdn_class: Vec::new(),
            ca: Vec::with_capacity(n),
            ca_class: Vec::with_capacity(n),
            providers: Vec::new(),
            ns_start: Vec::new(),
            ns_names: String::new(),
            ns_sites: Vec::new(),
        }
    }

    /// Appends one site's classifier results, interning its provider
    /// keys in DNS → CDN → CA order (rank order is the caller's
    /// responsibility).
    pub(crate) fn push_classified(
        &mut self,
        listing: &SiteListing,
        reachable: bool,
        dns: &SiteDnsMeasurement,
        cdn: &SiteCdnMeasurement,
        ca: &SiteCaMeasurement,
    ) {
        self.site_ids.push(listing.id);
        self.ranks.push(listing.rank.get());
        self.domains.push_str(listing.domain.as_str());
        self.domain_start.push(checked_offset(self.domains.len()));
        let mut flags = 0;
        if reachable {
            flags |= REACHABLE;
        }
        if ca.stapled {
            flags |= STAPLED;
        }
        self.flags.push(flags);
        self.dns_state.push(enc_dns(dns.state));
        self.cdn_state.push(enc_cdn(cdn.state));
        self.ca_state.push(enc_ca(ca.state));
        for key in dns.third_parties() {
            self.dns_providers.push(self.names.intern(key.as_str()));
        }
        self.dns_start
            .push(checked_offset(self.dns_providers.len()));
        for (key, class) in &cdn.cdns {
            self.cdns.push(self.names.intern(key.as_str()));
            self.cdn_class.push(enc_class(*class));
        }
        self.cdn_start.push(checked_offset(self.cdns.len()));
        match &ca.ca {
            Some((key, class)) => {
                self.ca.push(self.names.intern(key.as_str()));
                self.ca_class.push(enc_class(*class));
            }
            None => {
                self.ca.push(NameId(NO_NAME));
                self.ca_class.push(0);
            }
        }
    }

    /// Concatenates shard datasets in shard (= site) order into one
    /// exactly-sized dataset. Each shard's interner assigned ids in
    /// first-seen site order, so re-interning every shard's name table
    /// *in id order* reproduces exactly the interning order a serial
    /// site walk would — one hash probe per distinct shard name, not
    /// one per site key. Provider tables are not carried over.
    pub(crate) fn concat(parts: &[&MeasurementDataset]) -> MeasurementDataset {
        let total = |f: fn(&MeasurementDataset) -> usize| parts.iter().map(|p| f(p)).sum::<usize>();
        let n = total(|p| p.len());
        let mut out = MeasurementDataset::with_capacity(n);
        out.domains.reserve_exact(total(|p| p.domains.len()));
        out.dns_providers
            .reserve_exact(total(|p| p.dns_providers.len()));
        out.cdns.reserve_exact(total(|p| p.cdns.len()));
        out.cdn_class.reserve_exact(total(|p| p.cdns.len()));
        let mut remap: Vec<NameId> = Vec::new();
        for part in parts {
            remap.clear();
            for name in part.names.names() {
                remap.push(out.names.intern(name));
            }
            extend_offsets(&mut out.domain_start, &part.domain_start, out.domains.len());
            out.domains.push_str(&part.domains);
            out.site_ids.extend_from_slice(&part.site_ids);
            out.ranks.extend_from_slice(&part.ranks);
            out.flags.extend_from_slice(&part.flags);
            out.dns_state.extend_from_slice(&part.dns_state);
            out.cdn_state.extend_from_slice(&part.cdn_state);
            out.ca_state.extend_from_slice(&part.ca_state);
            extend_offsets(&mut out.dns_start, &part.dns_start, out.dns_providers.len());
            out.dns_providers
                .extend(part.dns_providers.iter().map(|n| remap[n.index()]));
            extend_offsets(&mut out.cdn_start, &part.cdn_start, out.cdns.len());
            out.cdns.extend(part.cdns.iter().map(|n| remap[n.index()]));
            out.cdn_class.extend_from_slice(&part.cdn_class);
            out.ca.extend(part.ca.iter().map(
                |&n| {
                    if n.0 == NO_NAME {
                        n
                    } else {
                        remap[n.index()]
                    }
                },
            ));
            out.ca_class.extend_from_slice(&part.ca_class);
        }
        out
    }

    /// Installs the §3.4 provider table.
    pub(crate) fn set_providers(&mut self, providers: Vec<ProviderMeasurement>) {
        self.providers = providers;
    }

    /// Installs pass 1's nameserver concentration tallies as a table
    /// sorted by domain.
    pub(crate) fn set_ns_concentration(&mut self, tallies: &HashMap<DomainName, usize>) {
        let mut entries: Vec<(&str, usize)> =
            tallies.iter().map(|(d, &n)| (d.as_str(), n)).collect();
        entries.sort_unstable();
        self.ns_names = String::with_capacity(entries.iter().map(|(d, _)| d.len()).sum());
        self.ns_start = Vec::with_capacity(entries.len() + 1);
        self.ns_start.push(0);
        self.ns_sites = Vec::with_capacity(entries.len());
        for (domain, n) in entries {
            self.ns_names.push_str(domain);
            self.ns_start.push(checked_offset(self.ns_names.len()));
            self.ns_sites.push(checked_offset(n));
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.site_ids.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.site_ids.is_empty()
    }

    /// The site of row `i`.
    pub fn site(&self, i: usize) -> SiteView<'_> {
        SiteView { ds: self, row: i }
    }

    /// Every site, in dataset (rank) order.
    pub fn sites(&self) -> impl ExactSizeIterator<Item = SiteView<'_>> + '_ {
        (0..self.len()).map(move |row| SiteView { ds: self, row })
    }

    /// The row holding `site`, if it was measured (a binary search:
    /// site ids ascend with the rows).
    pub fn row_of(&self, site: SiteId) -> Option<usize> {
        self.site_ids.binary_search(&site).ok()
    }

    /// How many measured sites list a nameserver under the registrable
    /// domain `reg`: pass 1's tally, the combined heuristic's
    /// concentration input (0 for a domain no site's nameservers use).
    pub fn ns_concentration(&self, reg: &str) -> usize {
        let (mut lo, mut hi) = (0, self.ns_sites.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let name = &self.ns_names[self.ns_start[mid] as usize..self.ns_start[mid + 1] as usize];
            match name.cmp(reg) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return self.ns_sites[mid] as usize,
            }
        }
        0
    }

    /// The string behind an interned provider identity.
    pub fn name(&self, id: NameId) -> &str {
        self.names.resolve(id)
    }

    /// Number of distinct interned provider identities.
    pub fn names_len(&self) -> usize {
        self.names.len()
    }

    /// The provider table (§3.4 measurements), in observation order.
    pub fn providers(&self) -> &[ProviderMeasurement] {
        &self.providers
    }

    /// Provider-level measurement lookup.
    pub fn provider(&self, key: &ProviderKey, kind: ServiceKind) -> Option<&ProviderMeasurement> {
        self.providers
            .iter()
            .find(|p| &p.key == key && p.kind == kind)
    }

    /// Joins this dataset with a `later` snapshot on site domain: the
    /// `(row here, row in later)` pairs of every site present in both,
    /// in this dataset's order (site identity survives across
    /// snapshots; Table 2 and the trend tables join this way).
    pub fn join_by_domain(&self, later: &MeasurementDataset) -> Vec<(usize, usize)> {
        let by_domain: HashMap<&str, usize> = later
            .sites()
            .enumerate()
            .map(|(j, s)| (s.domain(), j))
            .collect();
        self.sites()
            .enumerate()
            .filter_map(|(i, s)| by_domain.get(s.domain()).map(|&j| (i, j)))
            .collect()
    }

    /// Bytes of heap owned by the arenas — the number the bytes-per-site
    /// budget in README.md is asserted against.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        // The table's own blocks; provider-key strings are shared
        // `Arc`s and not charged here.
        let provider_table: usize = self.providers.capacity() * size_of::<ProviderMeasurement>()
            + self
                .providers
                .iter()
                .flat_map(|p| [&p.dns_dep, &p.cdn_dep])
                .flatten()
                .map(|d| d.providers.capacity() * size_of::<ProviderKey>())
                .sum::<usize>();
        self.names.heap_bytes()
            + self.site_ids.capacity() * size_of::<SiteId>()
            + self.ranks.capacity() * size_of::<u32>()
            + self.domain_start.capacity() * size_of::<u32>()
            + self.domains.capacity()
            + self.flags.capacity()
            + self.dns_state.capacity()
            + self.cdn_state.capacity()
            + self.ca_state.capacity()
            + self.dns_start.capacity() * size_of::<u32>()
            + self.dns_providers.capacity() * size_of::<NameId>()
            + self.cdn_start.capacity() * size_of::<u32>()
            + self.cdns.capacity() * size_of::<NameId>()
            + self.cdn_class.capacity()
            + self.ca.capacity() * size_of::<NameId>()
            + self.ca_class.capacity()
            + provider_table
            + self.ns_start.capacity() * size_of::<u32>()
            + self.ns_names.capacity()
            + self.ns_sites.capacity() * size_of::<u32>()
    }
}

/// One site's row of a [`MeasurementDataset`]: a copyable cursor that
/// reads each field out of its column.
#[derive(Clone, Copy)]
pub struct SiteView<'a> {
    ds: &'a MeasurementDataset,
    row: usize,
}

impl<'a> SiteView<'a> {
    /// Site identifier (position in the input list).
    pub fn id(self) -> SiteId {
        self.ds.site_ids[self.row]
    }

    /// Popularity rank from the input list.
    pub fn rank(self) -> Rank {
        Rank(self.ds.ranks[self.row])
    }

    /// Registrable domain.
    pub fn domain(self) -> &'a str {
        let ds = self.ds;
        &ds.domains[ds.domain_start[self.row] as usize..ds.domain_start[self.row + 1] as usize]
    }

    /// Whether the landing page was reachable at crawl time.
    pub fn reachable(self) -> bool {
        self.ds.flags[self.row] & REACHABLE != 0
    }

    /// Whether a stapled OCSP response was presented (private CAs
    /// included).
    pub fn stapled(self) -> bool {
        self.ds.flags[self.row] & STAPLED != 0
    }

    /// Whether the site answered on HTTPS — every CA state but
    /// `NoHttps`, which the CA classifier reports exactly when no
    /// certificate was presented.
    pub fn https(self) -> bool {
        self.ca_state() != Some(CaProfile::NoHttps)
    }

    /// Whether any CDN was detected — every CDN state but `None`, which
    /// the CDN classifier reports exactly when none was.
    pub fn uses_cdn(self) -> bool {
        self.cdn_state() != Some(CdnProfile::None)
    }

    /// Inferred DNS dependency state (`None` = uncharacterized).
    pub fn dns_state(self) -> Option<DepState> {
        dec_dns(self.ds.dns_state[self.row])
    }

    /// Inferred CDN dependency state.
    pub fn cdn_state(self) -> Option<CdnProfile> {
        dec_cdn(self.ds.cdn_state[self.row])
    }

    /// Inferred CA dependency state.
    pub fn ca_state(self) -> Option<CaProfile> {
        dec_ca(self.ds.ca_state[self.row])
    }

    /// Every detected CDN with its classification, in detection order.
    pub fn cdns(self) -> impl Iterator<Item = (NameId, Classification)> + 'a {
        let ds = self.ds;
        self.cdn_range()
            .map(move |k| (ds.cdns[k], dec_class(ds.cdn_class[k])))
    }

    /// The detected CA with its classification, if any.
    pub fn ca(self) -> Option<(NameId, Classification)> {
        let name = self.ds.ca[self.row];
        (name.0 != NO_NAME).then(|| (name, dec_class(self.ds.ca_class[self.row])))
    }

    /// Third-party providers of one service kind: the DNS entity groups,
    /// CDNs and CA classified third-party. Not gated on the service's
    /// state being characterized.
    pub fn third_parties(self, kind: ServiceKind) -> impl Iterator<Item = NameId> + 'a {
        let ds = self.ds;
        let (dns, cdn) = match kind {
            ServiceKind::Dns => (self.dns_range(), 0..0),
            ServiceKind::Cdn => (0..0, self.cdn_range()),
            ServiceKind::Ca | ServiceKind::Cloud => (0..0, 0..0),
        };
        let ca = self
            .ca()
            .filter(|&(_, class)| kind == ServiceKind::Ca && class == Classification::ThirdParty);
        ds.dns_providers[dns]
            .iter()
            .copied()
            .chain(
                cdn.filter(move |&k| dec_class(ds.cdn_class[k]) == Classification::ThirdParty)
                    .map(move |k| ds.cdns[k]),
            )
            .chain(ca.map(|(name, _)| name))
    }

    fn dns_range(self) -> std::ops::Range<usize> {
        self.ds.dns_start[self.row] as usize..self.ds.dns_start[self.row + 1] as usize
    }

    fn cdn_range(self) -> std::ops::Range<usize> {
        self.ds.cdn_start[self.row] as usize..self.ds.cdn_start[self.row + 1] as usize
    }
}

/// Appends a shard's CSR offsets, past its leading 0, shifted by the
/// length `base` the flat column had before the shard's entries.
fn extend_offsets(out: &mut Vec<u32>, part: &[u32], base: usize) {
    out.extend(part[1..].iter().map(|&o| checked_offset(base + o as usize)));
}

/// Checked CSR offset (or tally): a flat column longer than `u32::MAX`
/// would silently wrap the ranges.
fn checked_offset(len: usize) -> u32 {
    assert!(
        u32::try_from(len).is_ok(),
        "columnar overflow: {len} flattened entries exceed the u32 offset space"
    );
    len as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_world;
    use webdeps_worldgen::{World, WorldConfig};

    #[test]
    fn heap_bytes_is_small_per_site() {
        let ds = measure_world(&World::generate(WorldConfig::small(21)));
        let per_site = ds.heap_bytes() / ds.len().max(1);
        // Small worlds amortize the interner poorly; the real budget is
        // asserted at bench scale. This is a smoke ceiling.
        assert!(per_site < 2_000, "{per_site} B/site");
    }

    #[test]
    fn join_by_domain_pairs_rows_present_in_both() {
        let ds = measure_world(&World::generate(WorldConfig::small(21)));
        let pairs = ds.join_by_domain(&ds);
        assert_eq!(pairs, (0..ds.len()).map(|i| (i, i)).collect::<Vec<_>>());
        assert!(ds.join_by_domain(&MeasurementDataset::default()).is_empty());
    }
}
