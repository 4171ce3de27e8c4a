//! Output digests, pinned per workload, seed and scale.
//!
//! A pinned digest is the FNV-1a 64 hash of the bytes the CLI prints to
//! stdout for the same arguments (`repro --scale N --seed S`, and
//! `webdeps-chaos --replay dyn --sites N --seed S`), so the benchmark's
//! op is checked against the command users run. Seeds without a pin are
//! checked by the workload's structural checks alone.

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(workload, seed, sites, digest)`. Seed 42 is the CLIs' default; 7
/// is the held-out seed, never used while the benchmark was tuned.
const PINNED: &[(&str, u64, usize, u64)] = &[
    ("repro-100k", 42, 100_000, 0x558a_8ffc_ff17_a19a),
    ("repro-100k", 7, 100_000, 0x2093_3404_362d_c56c),
    ("chaos-dyn-100k", 42, 100_000, 0x3326_2373_691a_a75f),
    ("chaos-dyn-100k", 7, 100_000, 0x2fd4_4552_97e6_589c),
];

fn pinned(workload: &str, seed: u64, sites: usize) -> Option<u64> {
    PINNED
        .iter()
        .find(|(w, s, n, _)| *w == workload && *s == seed && *n == sites)
        .map(|&(_, _, _, d)| d)
}

/// Checks `actual` against the pin for these arguments, if there is one.
pub fn check(workload: &str, seed: u64, sites: usize, actual: u64) -> Result<(), String> {
    match pinned(workload, seed, sites) {
        Some(want) if want != actual => Err(format!(
            "{workload} seed {seed} sites {sites}: output digest {actual:016x}, pinned {want:016x}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_one_byte_change_to_a_pinned_digest_fails_the_check() {
        for &(w, s, n, d) in PINNED {
            assert!(check(w, s, n, d).is_ok());
            for byte in 0..8 {
                let tampered = d ^ (0xff << (8 * byte));
                assert!(check(w, s, n, tampered).is_err(), "{w}/{s}: byte {byte}");
            }
        }
    }

    #[test]
    fn a_one_byte_change_to_the_output_changes_its_digest() {
        let text = b"incident: dyn\nmin availability: 0.9689\n".to_vec();
        for i in 0..text.len() {
            let mut t = text.clone();
            t[i] ^= 0x01;
            assert_ne!(fnv1a(&t), fnv1a(&text), "byte {i}");
        }
    }

    #[test]
    fn unpinned_arguments_pass_the_digest_check() {
        assert!(check("repro-100k", 12_345, 100_000, 1).is_ok());
        assert!(check("repro-100k", 42, 2_000, 1).is_ok());
    }
}
