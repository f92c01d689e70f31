//! The branchless compaction kernel behind multi-selection's equal-key bands.
//!
//! When a selected key equals a bound its piece inherited, `split_ranks`
//! settles the whole band of keys equal to it with one compaction pass:
//! move every key equal to the pivot (or every key below it) to one end.
//! The kernel is BlockQuicksort-style (Edelkamp & Weiß, ESA 2016):
//! comparisons fill a fixed-size offset buffer with unconditional stores and
//! conditional *increments*, then the matching elements are swapped in bulk,
//! so no branch in the scan depends on a key comparison.  The same kernel
//! groups a heavy bucket's keys by their stored bucket ids.

/// Block size of the branchless kernel: 128 offsets fit comfortably in L1
/// alongside the data block itself, and one `u32` offset buffer costs 512
/// bytes of stack.
const BLOCK: usize = 128;

/// Branchless stable-order-free compaction: move every element of `data`
/// satisfying `pred` to the front, returning how many there are.
///
/// The scan fills a fixed-size offset buffer with *unconditional* stores and
/// conditional increments (`offsets[num] = i; num += pred as usize`), so the
/// only data-dependent operation is an add — no unpredictable branch.  The
/// subsequent swap loop has fully predictable control flow.
#[inline]
pub(crate) fn block_partition_by<T, F: Fn(&T) -> bool>(data: &mut [T], pred: F) -> usize {
    block_partition_mirrored(data, pred, |_, _| {})
}

/// [`block_partition_by`] that also calls `mirror(a, b)` after each swap of
/// `data[a]` and `data[b]`, so a second slice beside `data` can make the
/// same moves.
#[inline]
pub(crate) fn block_partition_mirrored<T, F, M>(data: &mut [T], pred: F, mut mirror: M) -> usize
where
    F: Fn(&T) -> bool,
    M: FnMut(usize, usize),
{
    let mut offsets = [0u32; BLOCK];
    let mut lt = 0usize; // data[..lt] satisfy pred
    let mut base = 0usize;
    while base < data.len() {
        let block_len = BLOCK.min(data.len() - base);
        let mut num = 0usize;
        for i in 0..block_len {
            // `num <= i < BLOCK` holds, so the store is always in bounds and
            // the bounds check is branch-predictable.
            offsets[num] = i as u32;
            num += usize::from(pred(&data[base + i]));
        }
        for &off in &offsets[..num] {
            // `lt` counts pred-satisfying elements among the scanned prefix,
            // so `lt <= base + off` always; the swap moves a failing element
            // into the scanned region where it stays put.
            data.swap(lt, base + off as usize);
            mirror(lt, base + off as usize);
            lt += 1;
        }
        base += block_len;
    }
    lt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_moves_exactly_the_matching_keys_to_the_front() {
        // Short, exactly one block, several blocks, plus a ragged tail;
        // duplicate-heavy throughout, and predicates true for none, some
        // and every key.
        for len in [0usize, 1, 2, 9, BLOCK, BLOCK + 1, 3 * BLOCK + 57, 5000] {
            let data: Vec<u32> = (0..len as u32).map(|i| (i * 48271) % 97).collect();
            for cut in [0, 1, 48, 96, 97] {
                let mut work = data.clone();
                let front = block_partition_by(&mut work, |x| *x < cut);
                let expected = data.iter().filter(|x| **x < cut).count();
                assert_eq!(front, expected, "len {len} cut {cut}");
                assert!(
                    work[..front].iter().all(|x| *x < cut),
                    "len {len} cut {cut}"
                );
                assert!(
                    work[front..].iter().all(|x| *x >= cut),
                    "len {len} cut {cut}"
                );
                let (mut got, mut want) = (work, data.clone());
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "the compaction must only move keys");
            }
        }
    }
}
