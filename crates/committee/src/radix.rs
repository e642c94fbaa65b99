//! The differential seal's one ordering routine: a stable LSD radix sort
//! on a `u128` key.
//!
//! A seal orders two kinds of staged churn, each a few thousand to a few
//! tens of thousands of rows: the selection index's rows, by power and
//! descending replica id inside each list (the pruned index's radix
//! constructor, which files the sorted rows by list after), and the
//! churned replica ids. Their keys agree in most
//! bits: ids below 2¹⁸ vary in their low 18 bits, powers below 2¹⁰ in their
//! low 10. [`sort_by_key`] finds the bits that vary with one OR over the
//! rows and sorts on those alone, one counting pass and one stable scatter
//! per digit of up to 11 bits, least significant first; a run of bits
//! that is the same in every row costs nothing. A digit is no wider than
//! ⌈log₂ R⌉ bits for R rows, so a pass's counters never outnumber its rows
//! by more than 2×: a few dozen rows pay a few dozen counters, not 2¹¹.
//! Its cost is O(R · D) for R rows and D digits: 3 at the seal's shape
//! above, 12 when all 128 bits vary from 2 049 rows on, where it measures
//! about 2× a comparison sort. On `mixed`, which
//! stages about 12 600 rows a side, it took the ordering of a seal's index
//! rows, both sides, from 1.24 to 0.95 ms against a comparison sort per
//! list (the median seal of one run on a 2-vCPU Xeon).
//!
//! A full build does not use it. [`PrunedRoster::from_dense`] files a
//! fleet's rows by list and sorts each list in place with a comparison
//! sort, which is the faster of the two at fleet size: with 13 slots,
//! dense ids and powers below 1 000 (p50 of 15 builds, two runs), 7.6–10.6
//! ms against 14.5–18.8 ms for the radix at 200 000 rows, and 50–55 ms
//! against 101–109 ms at 1 000 000. Nor does a warm start's handful of
//! challenger rows: when every pass had 2¹¹ counters, a warm selection on
//! the `fleet_seal` bench's 10 000-device, 1 ‰ cell (10 churned rows) read
//! 12 % slower over 12 rotated runs with its challengers radix-ordered,
//! and it has not been re-measured since the width follows the row count.
//!
//! [`PrunedRoster::from_dense`]: crate::PrunedRoster::from_dense

/// The widest digit a pass sorts on, in bits: a pass keeps a counter per
/// digit value, 2¹¹ of them. At the seal's shape (R ≈ 12 600 rows a side,
/// 28 varying key bits) 11-bit digits sort in 3 passes where 8-bit ones
/// take 5, and measured faster than both 8 and 13.
const DIGIT_BITS: u32 = 11;

/// The digit width for `len` rows: ⌈log₂ len⌉ bits, at least 1 and at most
/// [`DIGIT_BITS`]. A pass zero-fills and prefix-walks a counter per digit
/// value, so a digit no wider than the row count keeps that O(2^width)
/// part of a pass within O(R); from 2 049 rows on it is the 11-bit cap.
fn digit_bits(len: usize) -> u32 {
    (usize::BITS - len.saturating_sub(1).leading_zeros()).clamp(1, DIGIT_BITS)
}

/// Sorts `rows` by `key`, stably. One OR of `key ^ first key` over the rows
/// finds the bits that are not the same in every row; then, in each
/// 64-bit half of the key, low half first, a digit of up to ⌈log₂ R⌉ bits
/// for R rows, and never over 11, starts at the lowest varying bit not yet
/// sorted on, and one counting pass and one scatter order the rows by it.
/// `scratch` is the second buffer the passes ping-pong through; it is
/// overwritten, and the two may trade allocations. Rows with equal keys
/// keep their order, and rows whose keys are all equal are not moved.
pub fn sort_by_key<T: Copy>(rows: &mut Vec<T>, scratch: &mut Vec<T>, key: impl Fn(&T) -> u128) {
    let Some(&first) = rows.first() else {
        return;
    };
    let first_key = key(&first);
    let varying = rows.iter().fold(0, |acc, r| acc | (key(r) ^ first_key));
    if varying == 0 {
        return;
    }
    scratch.clear();
    scratch.resize(rows.len(), first);
    let digit_bits = digit_bits(rows.len());
    let mut next = vec![0usize; 1 << digit_bits];
    for high in [false, true] {
        // A digit never straddles the halves, so a pass reads its digit
        // with one `u64` shift.
        let varying = if high {
            (varying >> 64) as u64
        } else {
            varying as u64
        };
        let mut shift = 0;
        while shift < 64 && varying >> shift != 0 {
            shift += (varying >> shift).trailing_zeros();
            let width = digit_bits.min(64 - shift);
            let mask = (1u64 << width) - 1;
            let digit = |r: &T| {
                let key = key(r);
                let half = if high { (key >> 64) as u64 } else { key as u64 };
                ((half >> shift) & mask) as usize
            };
            let next = &mut next[..1 << width];
            next.fill(0);
            for r in rows.iter() {
                next[digit(r)] += 1;
            }
            let mut start = 0;
            for slot in next.iter_mut() {
                (*slot, start) = (start, start + *slot);
            }
            for r in rows.iter() {
                let at = &mut next[digit(r)];
                scratch[*at] = *r;
                *at += 1;
            }
            std::mem::swap(rows, scratch);
            shift += width;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows `(key, position)` whose keys vary in all 128 bits: the first
    /// two are complements, and from the fourth on each repeats an earlier
    /// key every fifth row, so equal keys must keep their order.
    fn rows(len: usize) -> Vec<(u128, usize)> {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let first = (u128::from(next()) << 64) | u128::from(next());
        let mut keys = vec![first, !first];
        while keys.len() < len {
            let key = if keys.len() > 3 && keys.len() % 5 == 0 {
                keys[keys.len() / 2]
            } else {
                (u128::from(next()) << 64) | u128::from(next())
            };
            keys.push(key);
        }
        keys.truncate(len);
        keys.into_iter().zip(0..).collect()
    }

    #[test]
    fn capped_digits_sort_like_a_stable_comparison_sort() {
        for (len, bits) in [(2, 1), (3, 2), (10, 4), (2049, DIGIT_BITS)] {
            assert_eq!(digit_bits(len), bits, "{len} rows");
            let mut sorted = rows(len);
            let varying = sorted.iter().fold(0, |acc, r| acc | (r.0 ^ sorted[0].0));
            assert_eq!(varying, u128::MAX, "{len} rows");
            let mut expected = sorted.clone();
            expected.sort_by_key(|r| r.0);
            sort_by_key(&mut sorted, &mut Vec::new(), |r| r.0);
            assert_eq!(sorted, expected, "{len} rows");
        }
        assert_eq!(digit_bits(2048), DIGIT_BITS);
        assert_eq!(digit_bits(1025), DIGIT_BITS);
        assert_eq!(digit_bits(1024), 10);
    }
}
