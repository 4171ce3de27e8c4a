//! Name interning.
//!
//! The analysis layer keys everything on strings — registrable domains
//! for provider identities, domain names for sites — and at 100K-site
//! scale the string hashing and lexicographic `BTreeMap` comparisons on
//! those keys dominate graph construction and grouping. [`Interner`]
//! replaces them with a symbol table: each distinct string is stored
//! once in an arena and handed out as a dense [`NameId`], so every
//! downstream map keys on (and compares) a `u32`.
//!
//! Determinism: ids are assigned in first-intern order, so the same
//! intern sequence always yields the same ids, independent of the hash
//! table's internal layout. The table uses FNV-1a with open addressing
//! (no `RandomState`, no ambient randomness) and is never iterated —
//! deterministic enumeration goes through the insertion-ordered arena
//! ([`Interner::names`]).

use std::fmt;

/// Dense identifier of an interned name (assigned in first-intern
/// order, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

impl NameId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. Panics if `index` does not fit
    /// the 32-bit id space rather than silently truncating.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        assert!(
            u32::try_from(index).is_ok(),
            "NameId overflow: index {index} exceeds the u32 id space"
        );
        NameId(index as u32)
    }
}

impl fmt::Display for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name#{}", self.0)
    }
}

/// FNV-1a 64-bit over a byte string: stable across platforms and
/// releases by construction.
#[inline]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An insertion-ordered string symbol table.
///
/// ```
/// use webdeps_model::intern::Interner;
/// let mut names = Interner::new();
/// let a = names.intern("dynect.net");
/// let b = names.intern("cloudflare.com");
/// assert_eq!(names.intern("dynect.net"), a);
/// assert_ne!(a, b);
/// assert_eq!(names.resolve(a), "dynect.net");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Arena of interned strings, indexed by [`NameId`].
    names: Vec<Box<str>>,
    /// Open-addressing table of `arena index + 1` (0 = empty slot).
    /// Capacity is always a power of two.
    table: Vec<u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Creates an interner sized for roughly `n` distinct names.
    pub fn with_capacity(n: usize) -> Self {
        let mut i = Interner {
            names: Vec::with_capacity(n),
            table: Vec::new(),
        };
        i.grow_table((n * 2).next_power_of_two().max(16));
        i
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> NameId {
        if self.table.is_empty() || self.names.len() * 3 >= self.table.len() * 2 {
            let want = (self.table.len() * 2).max(16);
            self.grow_table(want);
        }
        let mask = self.table.len() - 1;
        let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
        loop {
            match self.table[slot] {
                0 => {
                    // The probe table stores `id + 1` (0 marks empty),
                    // so the last representable id is `u32::MAX - 1`;
                    // a plain `as u32` here would silently wrap and
                    // alias earlier names.
                    assert!(
                        self.names.len() < u32::MAX as usize,
                        "interner overflow: {} names exhaust the 32-bit NameId space",
                        self.names.len()
                    );
                    let id = NameId(self.names.len() as u32);
                    self.names.push(s.into());
                    self.table[slot] = id.0 + 1;
                    return id;
                }
                occupied => {
                    let idx = (occupied - 1) as usize;
                    if self.names[idx].as_ref() == s {
                        return NameId(occupied - 1);
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// Looks up `s` without interning it.
    pub fn get(&self, s: &str) -> Option<NameId> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
        loop {
            match self.table[slot] {
                0 => return None,
                occupied => {
                    let idx = (occupied - 1) as usize;
                    if self.names[idx].as_ref() == s {
                        return Some(NameId(occupied - 1));
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// The string behind an id. Ids come from this interner by
    /// construction; an out-of-range id is a programmer error.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// All interned names in insertion (id) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| n.as_ref())
    }

    /// Bytes of heap owned by this interner: the string arena (pointers
    /// plus payloads) and the probe table. Used by the columnar core's
    /// bytes-per-site budget accounting.
    pub fn heap_bytes(&self) -> usize {
        let arena_ptrs = self.names.capacity() * std::mem::size_of::<Box<str>>();
        let arena_payload: usize = self.names.iter().map(|n| n.len()).sum();
        let table = self.table.capacity() * std::mem::size_of::<u32>();
        arena_ptrs + arena_payload + table
    }

    /// Rebuilds the probe table at `capacity` slots (power of two).
    fn grow_table(&mut self, capacity: usize) {
        let capacity = capacity.next_power_of_two().max(16);
        self.table = vec![0u32; capacity];
        let mask = capacity - 1;
        for (idx, name) in self.names.iter().enumerate() {
            let mut slot = (fnv1a(name.as_bytes()) as usize) & mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            // Same `id + 1` encoding as `intern`; the checked add keeps
            // a rebuild from wrapping an id that `intern` would reject.
            let encoded = u32::try_from(idx).ok().and_then(|idx| idx.checked_add(1));
            match encoded {
                Some(v) => self.table[slot] = v,
                // lint:allow(panic) — id-space exhaustion is a hard
                // programmer error; wrapping here would silently alias
                // interned names.
                None => {
                    panic!("interner overflow: arena index {idx} exceeds the u32 slot encoding")
                }
            }
        }
    }
}

/// Two interners are equal when they intern the same names in the same
/// order — the probe table is an implementation detail (its layout
/// depends on growth history, not content).
impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for Interner {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("a.com");
        let b = i.intern("b.com");
        assert_eq!(a, NameId(0));
        assert_eq!(b, NameId(1));
        assert_eq!(i.intern("a.com"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "a.com");
        assert_eq!(i.resolve(b), "b.com");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.get("a.com"), None);
        let a = i.intern("a.com");
        assert_eq!(i.get("a.com"), Some(a));
        assert_eq!(i.get("b.com"), None);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn survives_growth_and_stays_ordered() {
        let mut i = Interner::new();
        let ids: Vec<NameId> = (0..500)
            .map(|n| i.intern(&format!("provider-{n}.net")))
            .collect();
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), n);
            assert_eq!(i.resolve(*id), format!("provider-{n}.net"));
            assert_eq!(i.get(&format!("provider-{n}.net")), Some(*id));
        }
        let names: Vec<&str> = i.names().collect();
        assert_eq!(names.len(), 500);
        assert_eq!(names[7], "provider-7.net");
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut i = Interner::with_capacity(64);
        for n in 0..64 {
            i.intern(&format!("x{n}"));
        }
        assert_eq!(i.len(), 64);
    }
}
