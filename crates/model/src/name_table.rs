//! FNV-1a name tables: the hash index behind a large zone's owner
//! lookups, the DNS network's zone-origin map and the web plane's
//! virtual hosts.
//!
//! A [`NameTable`] stores `u32` ids, not names: the names live in the
//! caller's arrays (a zone's records, the network's deployments, the
//! web plane's vhosts), so a name is stored once however it is indexed.
//! Open addressing with linear probing over a power-of-two table kept
//! at most half full. Each slot keeps a 32-bit tag of the name's FNV-1a
//! hash beside the id, so a probe reads a stored name only when the
//! tags agree, and the table grows without reading any name. FNV-1a has
//! no seed, so a table's layout depends only on the names inserted.

use crate::intern::fnv1a;

/// Smallest non-empty table.
const MIN_SLOTS: usize = 16;

/// FNV-1a 64-bit over a name's text, folded to 32 bits.
fn tag(name: &str) -> u32 {
    let h = fnv1a(name.as_bytes());
    // The high half mixes every byte; folding it over the low half
    // keeps that mixing in the bits that pick a slot.
    ((h >> 32) ^ h) as u32
}

/// Slots for `n` names at most half full.
fn slots_for(n: usize) -> usize {
    (n * 2).next_power_of_two().max(MIN_SLOTS)
}

/// A hash index from names to `u32` ids whose names the caller stores.
///
/// ```
/// use webdeps_model::NameTable;
/// let names = ["a.example", "b.example"];
/// let mut table = NameTable::with_capacity(names.len());
/// for (id, name) in names.iter().enumerate() {
///     table.insert(name, id as u32);
/// }
/// assert_eq!(table.get("b.example", |id| names[id as usize]), Some(1));
/// assert_eq!(table.get("c.example", |id| names[id as usize]), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// `tag << 32 | (id + 1)` per occupied slot; 0 marks an empty one.
    slots: Box<[u64]>,
    /// Occupied slots.
    len: usize,
}

impl NameTable {
    /// A table sized for `n` names without growing.
    pub fn with_capacity(n: usize) -> NameTable {
        NameTable {
            slots: vec![0; slots_for(n)].into_boxed_slice(),
            len: 0,
        }
    }

    /// The id stored under `name`. `name_of` returns the stored name of
    /// an id; it is called only for ids whose tag matches.
    pub fn get<'a>(&self, name: &str, name_of: impl Fn(u32) -> &'a str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = tag(name);
        let mask = self.slots.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let entry = self.slots[slot];
            if entry == 0 {
                return None;
            }
            if (entry >> 32) as u32 == tag {
                let id = (entry as u32).wrapping_sub(1);
                if name_of(id) == name {
                    return Some(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Stores `id` under `name`, which the table must not hold yet.
    pub fn insert(&mut self, name: &str, id: u32) {
        assert!(id < u32::MAX, "name table overflow: id {id}");
        if (self.len + 1) * 2 > self.slots.len() {
            self.resize(self.slots.len() * 2);
        }
        let tag = tag(name);
        self.place(u64::from(tag) << 32 | u64::from(id + 1));
        self.len += 1;
    }

    /// Sizes the table for `additional` more names, so that many
    /// inserts do not grow it again: one re-placement now instead of a
    /// doubling step per power of two.
    pub fn reserve(&mut self, additional: usize) {
        let want = slots_for(self.len + additional);
        if want > self.slots.len() {
            self.resize(want);
        }
    }

    /// Bytes of heap the table owns.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }

    /// Moves every entry into a table of `size` slots, re-placing each
    /// by its stored tag.
    fn resize(&mut self, size: usize) {
        let size = size.max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; size].into_boxed_slice());
        for entry in old.iter().copied().filter(|&e| e != 0) {
            self.place(entry);
        }
    }

    /// Puts `entry` in the first free slot of its probe sequence.
    fn place(&mut self, entry: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = (entry >> 32) as usize & mask;
        while self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_every_name_through_growth() {
        let names: Vec<String> = (0..1_000).map(|i| format!("cust-{i}.cdn.net")).collect();
        let mut table = NameTable::default();
        for (id, name) in names.iter().enumerate() {
            assert_eq!(table.get(name, |i| &names[i as usize]), None);
            table.insert(name, id as u32);
        }
        for (id, name) in names.iter().enumerate() {
            assert_eq!(table.get(name, |i| &names[i as usize]), Some(id as u32));
        }
        assert_eq!(table.get("cust-1000.cdn.net", |i| &names[i as usize]), None);
        assert!(table.heap_bytes() >= 2 * names.len() * 8);
    }

    #[test]
    fn presized_table_does_not_grow() {
        let mut table = NameTable::with_capacity(100);
        let bytes = table.heap_bytes();
        for id in 0..100 {
            table.insert(&format!("h{id}.example.com"), id);
        }
        assert_eq!(table.heap_bytes(), bytes);
    }

    #[test]
    fn reserve_sizes_once_and_keeps_entries() {
        let names: Vec<String> = (0..300).map(|i| format!("h{i}.example.com")).collect();
        let mut table = NameTable::default();
        for (id, name) in names.iter().take(10).enumerate() {
            table.insert(name, id as u32);
        }
        table.reserve(names.len() - 10);
        let bytes = table.heap_bytes();
        assert_eq!(bytes, slots_for(names.len()) * 8);
        for (id, name) in names.iter().enumerate().skip(10) {
            table.insert(name, id as u32);
        }
        assert_eq!(table.heap_bytes(), bytes, "a reserved table does not grow");
        for (id, name) in names.iter().enumerate() {
            assert_eq!(table.get(name, |i| &names[i as usize]), Some(id as u32));
        }
        table.reserve(0);
        assert_eq!(table.heap_bytes(), bytes, "reserving less never shrinks");
    }
}
