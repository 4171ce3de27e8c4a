//! FNV-1a name tables: the hash index behind a large zone's owner
//! lookups and the network's zone-origin map.
//!
//! A [`NameTable`] stores `u32` ids, not names: the names live in the
//! caller's arrays (a zone's records, the network's deployments), so a
//! name is stored once however it is indexed. Open addressing with
//! linear probing over a power-of-two table kept at most half full.
//! Each slot keeps a 32-bit tag of the name's FNV-1a hash beside the
//! id, so a probe reads a stored name only when the tags agree, and the
//! table grows without reading any name. FNV-1a has no seed, so a
//! table's layout depends only on the names inserted.

/// Smallest non-empty table.
const MIN_SLOTS: usize = 16;

/// FNV-1a 64-bit over a name's text, folded to 32 bits.
fn tag(name: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // The high half mixes every byte; folding it over the low half
    // keeps that mixing in the bits that pick a slot.
    ((h >> 32) ^ h) as u32
}

/// A hash index from names to `u32` ids whose names the caller stores.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    /// `tag << 32 | (id + 1)` per occupied slot; 0 marks an empty one.
    slots: Box<[u64]>,
    /// Occupied slots.
    len: usize,
}

impl NameTable {
    /// A table sized for `n` names without growing.
    pub(crate) fn with_capacity(n: usize) -> NameTable {
        NameTable {
            slots: vec![0; (n * 2).next_power_of_two().max(MIN_SLOTS)].into_boxed_slice(),
            len: 0,
        }
    }

    /// The id stored under `name`. `name_of` returns the stored name of
    /// an id; it is called only for ids whose tag matches.
    pub(crate) fn get<'a>(&self, name: &str, name_of: impl Fn(u32) -> &'a str) -> Option<u32> {
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
    pub(crate) fn insert(&mut self, name: &str, id: u32) {
        assert!(id < u32::MAX, "name table overflow: id {id}");
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let tag = tag(name);
        self.place(u64::from(tag) << 32 | u64::from(id + 1));
        self.len += 1;
    }

    /// Bytes of heap the table owns.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }

    /// Doubles the table, re-placing every entry by its stored tag.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(MIN_SLOTS);
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
}
