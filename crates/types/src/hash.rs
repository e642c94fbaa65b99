//! A pure-Rust SHA-256 and the [`Digest`] type used for configuration
//! measurements, attestation quotes, and block identifiers.
//!
//! The paper assumes "the security of the used cryptographic primitives and
//! protocols, but not their implementations" (§II-B). We therefore only need
//! a correct, dependency-free collision-resistant hash; FIPS 180-4 SHA-256 is
//! implemented here directly and validated against the standard test vectors
//! in this module's tests.

use core::fmt;

use crate::hex;

/// A 256-bit digest (the output of [`sha256`]).
///
/// # Example
///
/// ```
/// use fi_types::hash::sha256;
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. genesis parent).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the digest bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Interprets the first 8 bytes as a big-endian `u64`, convenient for
    /// deriving deterministic sub-seeds from digests.
    #[must_use]
    pub fn as_seed(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::encode(&self.0))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &hex::encode(&self.0)[..16])
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

/// An order-independent, incrementally updatable aggregate over a *set* of
/// digests: the Bellare–Micciancio "AdHash" construction, summing digests
/// as 256-bit integers modulo 2²⁵⁶.
///
/// [`insert`](Self::insert) and [`remove`](Self::remove) are exact
/// inverses, so a consumer can maintain the aggregate of a churning row set
/// in O(changed rows) instead of re-hashing everything — the primitive
/// behind `fi-fleet`'s differential epoch sealing. Collision resistance of
/// the additive construction reduces to a modular subset-sum problem; in
/// this workspace it serves as a determinism invariant over canonical row
/// sets (each row appears at most once), not as an adversarial commitment.
///
/// # Example
///
/// ```
/// use fi_types::hash::{sha256, SetDigest};
/// let (a, b, c) = (sha256(b"row-a"), sha256(b"row-b"), sha256(b"row-c"));
/// let mut agg = SetDigest::EMPTY;
/// agg.insert(&a);
/// agg.insert(&b);
/// agg.insert(&c);
/// agg.remove(&b);
/// let mut expected = SetDigest::EMPTY;
/// expected.insert(&c);
/// expected.insert(&a); // order never matters
/// assert_eq!(agg, expected);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetDigest {
    /// Little-endian 64-bit limbs of the running sum modulo 2²⁵⁶.
    limbs: [u64; 4],
}

impl SetDigest {
    /// The aggregate of the empty set.
    pub const EMPTY: SetDigest = SetDigest { limbs: [0; 4] };

    /// Folds `digest` into the aggregate (mod-2²⁵⁶ addition).
    pub fn insert(&mut self, digest: &Digest) {
        self.add_limbs(Self::limbs_of(digest));
    }

    /// Adds another aggregate into this one — the group operation itself.
    /// The aggregate of a disjoint union is the sum of the parts'
    /// aggregates, and a *net change* (rows in − rows out, built with
    /// [`insert`](Self::insert)/[`remove`](Self::remove) from
    /// [`EMPTY`](Self::EMPTY)) adds onto the aggregate it was recorded
    /// against; both are how `fi-fleet` seals without re-hashing rows.
    pub fn add(&mut self, other: SetDigest) {
        self.add_limbs(other.limbs);
    }

    fn add_limbs(&mut self, addend: [u64; 4]) {
        let mut carry = 0u64;
        for (limb, add) in self.limbs.iter_mut().zip(addend) {
            let (sum, c1) = limb.overflowing_add(add);
            let (sum, c2) = sum.overflowing_add(carry);
            *limb = sum;
            carry = u64::from(c1) + u64::from(c2);
        }
    }

    /// Removes `digest` from the aggregate (mod-2²⁵⁶ subtraction) — the
    /// exact inverse of [`insert`](Self::insert).
    pub fn remove(&mut self, digest: &Digest) {
        let mut borrow = 0u64;
        for (limb, sub) in self.limbs.iter_mut().zip(Self::limbs_of(digest)) {
            let (diff, b1) = limb.overflowing_sub(sub);
            let (diff, b2) = diff.overflowing_sub(borrow);
            *limb = diff;
            borrow = u64::from(b1) + u64::from(b2);
        }
    }

    /// The aggregate as canonical bytes (little-endian limb order), for
    /// folding into an enclosing hash.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.limbs.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Reconstructs an aggregate from its canonical
    /// [`to_bytes`](Self::to_bytes) form — the codec/recovery path. Every
    /// 32-byte string is a valid aggregate (the sum is modular), so this
    /// cannot fail; whether the bytes are *correct* is the caller's
    /// content-hash check.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> SetDigest {
        let limbs = core::array::from_fn(|i| {
            u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8-byte limb"))
        });
        SetDigest { limbs }
    }

    fn limbs_of(digest: &Digest) -> [u64; 4] {
        let b = digest.as_bytes();
        core::array::from_fn(|i| {
            u64::from_le_bytes(b[i * 8..(i + 1) * 8].try_into().expect("8-byte limb"))
        })
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// An incremental SHA-256 hasher.
///
/// Prefer [`sha256`] for one-shot hashing; use the hasher to fold multiple
/// fields into one measurement without intermediate allocation:
///
/// ```
/// use fi_types::hash::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut data = data.as_ref();
        self.length_bytes = self
            .length_bytes
            .checked_add(data.len() as u64)
            .expect("hashed more than 2^64 bytes");
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= 64 {
            let block: [u8; 64] = data[..64].try_into().expect("sliced exactly 64 bytes");
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        // `update` compresses a block the moment it fills, so
        // `buffered < 64` and the 0x80 byte always fits.
        let mut block = self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room left for the length: it goes in a block of its own.
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// use fi_types::hash::sha256;
/// // FIPS 180-4 test vector for the empty string.
/// assert_eq!(
///     sha256(b"").to_string(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
#[must_use]
pub fn sha256(data: impl AsRef<[u8]>) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes a sequence of length-prefixed fields, giving an unambiguous
/// encoding for composite measurements (no field-boundary collisions).
///
/// # Example
///
/// ```
/// use fi_types::hash::hash_fields;
/// let a = hash_fields(&[b"ab".as_slice(), b"c".as_slice()]);
/// let b = hash_fields(&[b"a".as_slice(), b"bc".as_slice()]);
/// assert_ne!(a, b, "field boundaries must be part of the encoding");
/// ```
#[must_use]
pub fn hash_fields(fields: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    h.update((fields.len() as u64).to_be_bytes());
    for field in fields {
        h.update((field.len() as u64).to_be_bytes());
        h.update(field);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_digest_is_order_independent_and_invertible() {
        let rows: Vec<Digest> = (0..6).map(|i| sha256(format!("r{i}").as_bytes())).collect();
        let mut forward = SetDigest::EMPTY;
        for r in &rows {
            forward.insert(r);
        }
        let mut backward = SetDigest::EMPTY;
        for r in rows.iter().rev() {
            backward.insert(r);
        }
        assert_eq!(forward, backward);
        // Removing everything returns to the empty aggregate.
        for r in &rows {
            forward.remove(r);
        }
        assert_eq!(forward, SetDigest::EMPTY);
        // Insert/remove round-trips through arbitrary interleavings.
        backward.remove(&rows[3]);
        backward.insert(&rows[3]);
        let mut expected = SetDigest::EMPTY;
        for r in &rows {
            expected.insert(r);
        }
        assert_eq!(backward, expected);
    }

    #[test]
    fn set_digest_add_sums_disjoint_parts_and_net_changes() {
        let rows: Vec<Digest> = (0..5).map(|i| sha256(format!("r{i}").as_bytes())).collect();
        let fold = |rows: &[Digest]| {
            let mut agg = SetDigest::EMPTY;
            for r in rows {
                agg.insert(r);
            }
            agg
        };
        // Disjoint union: parts add up in either order.
        let (left, right) = rows.split_at(2);
        let mut sum = fold(left);
        sum.add(fold(right));
        assert_eq!(sum, fold(&rows));
        let mut flipped = fold(right);
        flipped.add(fold(left));
        assert_eq!(flipped, sum);
        // A net change recorded from EMPTY (one row out, one in) wraps
        // below zero and still lands exactly when added onto its base.
        let mut change = SetDigest::EMPTY;
        change.remove(&rows[1]);
        change.insert(&rows[4]);
        let mut patched = fold(&rows[..4]);
        patched.add(change);
        assert_eq!(patched, fold(&[rows[0], rows[2], rows[3], rows[4]]));
        // Carries cross every limb.
        let mut ones = SetDigest::EMPTY;
        ones.insert(&Digest([0xFF; 32]));
        let mut twice = ones;
        twice.add(ones);
        twice.remove(&Digest([0xFF; 32]));
        assert_eq!(twice, ones);
    }

    #[test]
    fn set_digest_carry_propagates_across_limbs() {
        // An all-ones digest added twice forces carries through every limb;
        // the subtraction must undo it exactly.
        let ones = Digest([0xFF; 32]);
        let mut agg = SetDigest::EMPTY;
        agg.insert(&ones);
        agg.insert(&ones);
        assert_ne!(agg, SetDigest::EMPTY);
        agg.remove(&ones);
        let mut single = SetDigest::EMPTY;
        single.insert(&ones);
        assert_eq!(agg, single);
        agg.remove(&ones);
        assert_eq!(agg, SetDigest::EMPTY);
    }

    #[test]
    fn set_digest_bytes_are_stable() {
        let mut agg = SetDigest::EMPTY;
        assert_eq!(agg.to_bytes(), [0u8; 32]);
        let d = sha256(b"row");
        agg.insert(&d);
        assert_eq!(agg.to_bytes(), *d.as_bytes());
    }

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn empty_string_vector() {
        assert_eq!(
            sha256(b"").to_string(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            sha256(b"abc").to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_string(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_string(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn padding_boundary_vectors() {
        // Message lengths around the padding edges: 55 is the longest
        // message whose pad and length share its block, 56..=63 spill the
        // length into a second block, 64 pads an empty buffer, and 119 is
        // the 55 case one block later.
        for (len, expect) in [
            (
                55usize,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
        ] {
            assert_eq!(sha256(vec![b'a'; len]).to_string(), expect, "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expect = sha256(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn hash_fields_is_injective_on_boundaries() {
        assert_ne!(hash_fields(&[b"ab", b"c"]), hash_fields(&[b"a", b"bc"]));
        assert_ne!(hash_fields(&[b"ab"]), hash_fields(&[b"ab", b""]));
        assert_ne!(hash_fields(&[]), hash_fields(&[b""]));
    }

    #[test]
    fn as_seed_is_prefix_of_digest() {
        let d = Digest([
            0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0,
        ]);
        assert_eq!(d.as_seed(), 0x0102);
    }

    #[test]
    fn debug_is_truncated_but_nonempty() {
        let dbg = format!("{:?}", sha256(b"x"));
        assert!(dbg.starts_with("Digest("));
        assert!(dbg.len() < 40);
    }
}
