//! A miniature public-suffix list.
//!
//! The paper's CDN-internal-resource heuristic consults the Mozilla
//! public-suffix list to decide where the "registrable" part of a hostname
//! begins (e.g. the registrable domain of `shop.example.co.uk` is
//! `example.co.uk`, not `co.uk`). We implement the same rule semantics —
//! normal rules, wildcard rules (`*.ck`), and exception rules
//! (`!www.ck`) — over a built-in snapshot of common suffixes that covers
//! everything the synthetic world generates.

use crate::name::DomainName;
use crate::name_table::NameTable;

/// An exact suffix rule, e.g. `co.uk`.
const RULE: u8 = 1;
/// The base of a wildcard rule, e.g. `ck` for `*.ck`.
const WILDCARD: u8 = 2;
/// An exception rule, e.g. `www.ck` for `!www.ck`.
const EXCEPTION: u8 = 4;

/// Rule set with public-suffix semantics, compiled into one suffix
/// table.
///
/// Every rule, wildcard base and exception is an entry carrying its
/// kinds as flags, and so is every suffix of one (with no flag when it
/// is not a rule itself), so a lookup walks a name's suffixes from the
/// right and stops at the first the table lacks: at most three
/// lookups for the built-in snapshot, whose deepest entries have two
/// labels. The table is indexed by the shared FNV-1a [`NameTable`] and
/// nothing is allocated per lookup.
///
/// ```
/// use webdeps_model::{DomainName, PublicSuffixList};
/// let psl = PublicSuffixList::builtin();
/// let host: DomainName = "shop.example.co.uk".parse().unwrap();
/// assert_eq!(psl.registrable_domain(&host).unwrap().as_str(), "example.co.uk");
/// ```
#[derive(Debug, Clone)]
pub struct PublicSuffixList {
    /// Each suffix once, with its `RULE`/`WILDCARD`/`EXCEPTION` flags.
    entries: Box<[(Box<str>, u8)]>,
    /// `entries` by suffix text.
    index: NameTable,
}

/// The built-in suffix snapshot. A subset of the Mozilla list: all
/// generic TLDs the synthetic world uses plus representative
/// country-code second-level suffixes.
pub const BUILTIN_RULES: &[&str] = &[
    "com", "net", "org", "edu", "gov", "mil", "int", "io", "co", "ai", "app", "dev", "cloud",
    "info", "biz", "us", "uk", "co.uk", "org.uk", "ac.uk", "gov.uk", "de", "fr", "nl", "ru", "cn",
    "com.cn", "net.cn", "org.cn", "jp", "co.jp", "ne.jp", "or.jp", "kr", "co.kr", "in", "co.in",
    "br", "com.br", "au", "com.au", "net.au", "org.au", "ca", "it", "es", "se", "no", "fi", "pl",
    "cz", "ch", "at", "be", "dk", "ie", "tv", "me", "cc", "ws", "goog", "health", "hospital",
    "tech", "online", "site", "store", "xyz", "club", "top", "live", "news",
];

/// Built-in wildcard rules (`*.<base>`): every label directly under the
/// base is a public suffix.
pub const BUILTIN_WILDCARDS: &[&str] = &["ck", "bd"];

/// Built-in exception rules (`!<name>`): these names are registrable even
/// though a wildcard rule would otherwise make them suffixes.
pub const BUILTIN_EXCEPTIONS: &[&str] = &["www.ck"];

/// Byte offsets at which `s`'s suffixes start, shortest first: for
/// `a.co.uk`, those of `uk`, `co.uk` and `a.co.uk`.
fn suffix_starts(s: &str) -> impl Iterator<Item = usize> + '_ {
    let mut start = s.len();
    std::iter::from_fn(move || {
        (start > 0).then(|| {
            start = s[..start - 1].rfind('.').map_or(0, |dot| dot + 1);
            start
        })
    })
}

impl PublicSuffixList {
    /// Builds the built-in snapshot.
    pub fn builtin() -> Self {
        Self::from_rules(BUILTIN_RULES, BUILTIN_WILDCARDS, BUILTIN_EXCEPTIONS)
    }

    /// Compiles explicit rules into the suffix table.
    fn from_rules(rules: &[&str], wildcards: &[&str], exceptions: &[&str]) -> Self {
        let mut entries: Vec<(Box<str>, u8)> = Vec::new();
        let mut index = NameTable::default();
        for (names, flag) in [
            (rules, RULE),
            (wildcards, WILDCARD),
            (exceptions, EXCEPTION),
        ] {
            for name in names {
                for start in suffix_starts(name) {
                    let suffix = &name[start..];
                    let id = match index.get(suffix, |id| &entries[id as usize].0) {
                        Some(id) => id as usize,
                        None => {
                            index.insert(suffix, entries.len() as u32);
                            entries.push((suffix.into(), 0));
                            entries.len() - 1
                        }
                    };
                    if start == 0 {
                        entries[id].1 |= flag;
                    }
                }
            }
        }
        PublicSuffixList {
            entries: entries.into_boxed_slice(),
            index,
        }
    }

    /// Length in labels of the public suffix of `name`: an exception
    /// wins (its name is registrable, so the suffix is one label
    /// shorter), then the longest rule, where a wildcard matches one
    /// label deeper than its base; with no match the prevailing rule is
    /// `*`, the last label.
    fn suffix_label_count(&self, name: &DomainName) -> usize {
        let s = name.as_str();
        let (mut best, mut exception) = (0, 0);
        for (depth, start) in suffix_starts(s).enumerate() {
            let labels = depth + 1;
            let Some(id) = self
                .index
                .get(&s[start..], |id| &self.entries[id as usize].0)
            else {
                break;
            };
            let flags = self.entries[id as usize].1;
            if flags & EXCEPTION != 0 {
                exception = labels;
            }
            if flags & RULE != 0 {
                best = best.max(labels);
            }
            if flags & WILDCARD != 0 && start > 0 {
                best = best.max(labels + 1);
            }
        }
        match (exception, best) {
            (0, 0) => 1,
            (0, best) => best,
            (exception, _) => exception - 1,
        }
    }

    /// The registrable domain (public suffix plus one label), or `None`
    /// when the name *is* a public suffix. This is the paper's notion of
    /// "TLD" in its TLD-matching heuristic: two hostnames belong to the
    /// same registrant when their registrable domains are equal.
    pub fn registrable_domain(&self, name: &DomainName) -> Option<DomainName> {
        let labels = self.registrable_str(name)?.split('.').count();
        Some(name.suffix(labels))
    }

    /// Borrowed variant of [`Self::registrable_domain`] for hot paths
    /// that only compare or hash the result: the registrable domain is
    /// always a suffix slice of the (normalized) input name.
    pub fn registrable_str<'a>(&self, name: &'a DomainName) -> Option<&'a str> {
        let s = name.as_str();
        let start = suffix_starts(s).nth(self.suffix_label_count(name))?;
        Some(&s[start..])
    }

    /// Whether two hostnames share a registrable domain. Names that are
    /// themselves bare public suffixes never match anything.
    pub fn same_registrable_domain(&self, a: &DomainName, b: &DomainName) -> bool {
        match (self.registrable_str(a), self.registrable_str(b)) {
            (Some(ra), Some(rb)) => ra == rb,
            _ => false,
        }
    }
}

impl Default for PublicSuffixList {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::dn;

    /// The registrable domain, owned and borrowed, as text.
    fn reg(psl: &PublicSuffixList, name: &str) -> Option<String> {
        let n = dn(name);
        let owned = psl.registrable_domain(&n).map(|d| d.as_str().to_string());
        assert_eq!(psl.registrable_str(&n), owned.as_deref(), "{name}");
        owned
    }

    #[test]
    fn simple_gtld() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(reg(&psl, "www.example.com").as_deref(), Some("example.com"));
        assert_eq!(reg(&psl, "example.com").as_deref(), Some("example.com"));
    }

    #[test]
    fn multi_label_suffix() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(
            reg(&psl, "a.b.example.co.uk").as_deref(),
            Some("example.co.uk")
        );
        assert_eq!(reg(&psl, "example.uk").as_deref(), Some("example.uk"));
    }

    #[test]
    fn bare_suffix_has_no_registrable_domain() {
        let psl = PublicSuffixList::builtin();
        for bare in ["co.uk", "com", "uk", "foo.ck"] {
            assert_eq!(reg(&psl, bare), None, "{bare}");
        }
    }

    #[test]
    fn unknown_tld_falls_back_to_last_label() {
        let psl = PublicSuffixList::builtin();
        assert_eq!(reg(&psl, "zz"), None);
        assert_eq!(reg(&psl, "example.zz").as_deref(), Some("example.zz"));
        assert_eq!(reg(&psl, "www.example.zz").as_deref(), Some("example.zz"));
    }

    #[test]
    fn wildcard_and_exception_rules() {
        let psl = PublicSuffixList::builtin();
        // `*.ck` makes `anything.ck` a suffix…
        assert_eq!(reg(&psl, "shop.foo.ck").as_deref(), Some("shop.foo.ck"));
        assert_eq!(reg(&psl, "a.shop.foo.ck").as_deref(), Some("shop.foo.ck"));
        // …except `www.ck`, which is registrable.
        assert_eq!(reg(&psl, "www.ck").as_deref(), Some("www.ck"));
        assert_eq!(reg(&psl, "a.www.ck").as_deref(), Some("www.ck"));
        assert_eq!(reg(&psl, "ck"), None);
    }

    #[test]
    fn same_registrable_domain_comparisons() {
        let psl = PublicSuffixList::builtin();
        assert!(psl.same_registrable_domain(&dn("a.example.com"), &dn("b.c.example.com")));
        assert!(!psl.same_registrable_domain(&dn("a.example.com"), &dn("a.example.net")));
        assert!(!psl.same_registrable_domain(&dn("com"), &dn("com")));
    }

    #[test]
    fn extra_rules_extend_the_snapshot() {
        let mut rules = BUILTIN_RULES.to_vec();
        rules.push("fancy.zz");
        let psl = PublicSuffixList::from_rules(&rules, BUILTIN_WILDCARDS, BUILTIN_EXCEPTIONS);
        assert_eq!(reg(&psl, "x.fancy.zz").as_deref(), Some("x.fancy.zz"));
        assert_eq!(reg(&psl, "fancy.zz"), None);
        assert_eq!(
            reg(&PublicSuffixList::builtin(), "x.fancy.zz").as_deref(),
            Some("fancy.zz")
        );
    }

    #[test]
    fn compiled_table_is_suffix_closed_and_two_labels_deep() {
        let psl = PublicSuffixList::builtin();
        for (suffix, _) in psl.entries.iter() {
            assert!(suffix.split('.').count() <= 2, "{suffix}");
            for start in suffix_starts(suffix) {
                let part = &suffix[start..];
                assert!(
                    psl.index
                        .get(part, |id| &psl.entries[id as usize].0)
                        .is_some(),
                    "{part} of {suffix} missing"
                );
            }
        }
        let flagged = |flag: u8| psl.entries.iter().filter(|e| e.1 & flag != 0).count();
        assert_eq!(flagged(RULE), BUILTIN_RULES.len());
        assert_eq!(flagged(WILDCARD), BUILTIN_WILDCARDS.len());
        assert_eq!(flagged(EXCEPTION), BUILTIN_EXCEPTIONS.len());
    }
}
