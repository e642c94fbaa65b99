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
//! that is the same in every row costs nothing. Its cost is O(R · D) for R
//! rows and D digits: 3 at the seal's shape above, 12 when all 128 bits
//! vary, where it measures about 2× a comparison sort. On `mixed`, which
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
//! challenger rows: a pass's 2¹¹ counters cost more than sorting them, and
//! on the `fleet_seal` bench's 10 000-device, 1 ‰ cell (10 churned rows) a
//! warm selection read 12 % slower over 12 rotated runs with its
//! challengers radix-ordered, and at par with `from_dense`.
//!
//! [`PrunedRoster::from_dense`]: crate::PrunedRoster::from_dense

/// The widest digit a pass sorts on, in bits: a pass keeps a counter per
/// digit value, 2¹¹ of them. At the seal's shape (R ≈ 12 600 rows a side,
/// 28 varying key bits) 11-bit digits sort in 3 passes where 8-bit ones
/// take 5, and measured faster than both 8 and 13.
const DIGIT_BITS: u32 = 11;

/// Sorts `rows` by `key`, stably. One OR of `key ^ first key` over the rows
/// finds the bits that are not the same in every row; then, in each
/// 64-bit half of the key, low half first, a digit of up to 11 bits starts
/// at the lowest varying bit not yet sorted on, and one counting pass and
/// one scatter order the rows by it. `scratch` is the second buffer the
/// passes ping-pong through; it is overwritten, and the two may trade
/// allocations. Rows with equal keys keep their order, and rows whose keys
/// are all equal are not moved.
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
    let mut next = vec![0usize; 1 << DIGIT_BITS];
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
            let width = DIGIT_BITS.min(64 - shift);
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
