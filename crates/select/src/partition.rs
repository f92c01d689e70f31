//! Partitioning primitives shared by the selection algorithms.
//!
//! All selection routines in this crate reduce to repeatedly partitioning a
//! slice around a pivot value.  To stay robust in the presence of heavy
//! duplication (the OPAQ experiments deliberately inject `n/10` duplicate
//! keys) we use a *three-way* partition: elements strictly less than the
//! pivot, elements equal to the pivot, and elements strictly greater.
//!
//! Two kernels produce that layout:
//!
//! * [`partition_three_way`] — the scalar Dutch-national-flag scan: one
//!   data-dependent branch per element.  Simple, and kept as the oracle the
//!   property tests compare against.
//! * [`partition_three_way_block`] — a BlockQuicksort-style kernel
//!   (Edelkamp & Weiß, ESA 2016): comparisons fill fixed-size offset
//!   buffers with unconditional stores and conditional *increments*, then
//!   the matching elements are swapped in bulk.  No branch in the scan
//!   depends on a key comparison, so random data no longer pays a ~50%
//!   misprediction rate per element.  Both kernels return the identical
//!   [`Partition`] (the equal band is a function of the multiset, not of
//!   the algorithm), which is what keeps OPAQ sketches bit-identical across
//!   kernels.

/// Result of a three-way partition of a slice around a pivot value.
///
/// After partitioning, the slice is laid out as `[< pivot | == pivot | > pivot]`
/// and the two indices delimit the "equal" band: `lt` is the index of the
/// first element equal to the pivot and `gt` is the index one past the last
/// element equal to the pivot.  The band is never empty because the pivot
/// itself is part of the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Index of the first element equal to the pivot.
    pub lt: usize,
    /// Index one past the last element equal to the pivot.
    pub gt: usize,
}

impl Partition {
    /// Whether a 0-based `rank` falls inside the equal band, i.e. the pivot
    /// value *is* the order statistic of that rank.
    #[inline]
    pub fn contains(&self, rank: usize) -> bool {
        rank >= self.lt && rank < self.gt
    }
}

/// Three-way partition of `data` around the value currently stored at
/// `pivot_index`.
///
/// Returns the [`Partition`] describing the equal band.  Runs in `O(len)`
/// with a single forward scan (Dutch national flag).
///
/// # Panics
/// Panics if `pivot_index >= data.len()`.
pub fn partition_three_way<T: Ord>(data: &mut [T], pivot_index: usize) -> Partition {
    assert!(pivot_index < data.len(), "pivot index out of bounds");
    let len = data.len();
    // Move pivot to the end so we can compare against it by index without
    // aliasing issues.
    data.swap(pivot_index, len - 1);

    let mut lt = 0; // next slot for an element < pivot
    let mut i = 0; // scan cursor
    let mut gt = len - 1; // first slot of the region > pivot (pivot parked at end)

    while i < gt {
        match data[i].cmp(&data[len - 1]) {
            core::cmp::Ordering::Less => {
                data.swap(i, lt);
                lt += 1;
                i += 1;
            }
            core::cmp::Ordering::Equal => {
                i += 1;
            }
            core::cmp::Ordering::Greater => {
                gt -= 1;
                data.swap(i, gt);
            }
        }
    }
    // Move the pivot into the start of the "greater" region; it joins the
    // equal band.
    data.swap(gt, len - 1);
    gt += 1;

    debug_assert!(lt < gt);
    Partition { lt, gt }
}

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
            lt += 1;
        }
        base += block_len;
    }
    lt
}

/// Three-way partition of `data` around the value at `pivot_index`, using the
/// branchless block kernel.  Returns exactly the same [`Partition`] (and the
/// same three regions, as multisets) as [`partition_three_way`].
///
/// Two block passes produce the `[< | == | >]` layout: the first compacts
/// `< pivot` to the front, the second compacts `== pivot` to the front of the
/// remainder.  The second pass only scans the `>=` region, so the extra cost
/// is bounded by half the slice on balanced pivots — far cheaper than the
/// mispredictions it replaces.
///
/// # Panics
/// Panics if `pivot_index >= data.len()`.
pub fn partition_three_way_block<T: Ord>(data: &mut [T], pivot_index: usize) -> Partition {
    assert!(pivot_index < data.len(), "pivot index out of bounds");
    let len = data.len();
    // Park the pivot at the end so the body can be scanned against it
    // without aliasing the comparison target.
    data.swap(pivot_index, len - 1);
    let (body, pivot_slot) = data.split_at_mut(len - 1);
    let pivot = &pivot_slot[0];

    let lt = block_partition_by(body, |x| x < pivot);
    let eq = block_partition_by(&mut body[lt..], |x| x == pivot);

    // Un-park the pivot into the first `>` slot; it joins the equal band.
    let gt = lt + eq;
    data.swap(gt, len - 1);
    debug_assert!(lt <= gt && gt < len);
    Partition { lt, gt: gt + 1 }
}

/// Deterministic ninther (median of three medians of three) pivot sampling.
///
/// Returns the index of a pivot that is the median of nine elements spread
/// across `data` — the classic defence against sorted, reverse-sorted and
/// organ-pipe inputs without any RNG state, which keeps the block selection
/// kernels fully deterministic.  For slices shorter than nine elements the
/// middle index is returned.
pub fn ninther_index<T: Ord>(data: &[T]) -> usize {
    let len = data.len();
    if len < 9 {
        return len / 2;
    }
    let step = len / 8;
    let mid = len / 2;
    let a = median3_index(data, 0, step, 2 * step);
    let b = median3_index(data, mid - step, mid, mid + step);
    let c = median3_index(data, len - 1 - 2 * step, len - 1 - step, len - 1);
    median3_index(data, a, b, c)
}

/// Index (among `a`, `b`, `c`) holding the median of the three values.
#[inline]
fn median3_index<T: Ord>(data: &[T], a: usize, b: usize, c: usize) -> usize {
    let (va, vb, vc) = (&data[a], &data[b], &data[c]);
    if (va <= vb && vb <= vc) || (vc <= vb && vb <= va) {
        b
    } else if (vb <= va && va <= vc) || (vc <= va && va <= vb) {
        a
    } else {
        c
    }
}

/// Classic two-way Hoare-style partition used by the Floyd–Rivest algorithm,
/// which manages duplicate-heavy inputs through its sampling step instead.
///
/// Partitions `data` around the value at `pivot_index` and returns the final
/// index of the pivot; elements before that index are `<=` the pivot and
/// elements after it are `>=` the pivot.
pub fn partition_two_way<T: Ord>(data: &mut [T], pivot_index: usize) -> usize {
    let p = partition_three_way(data, pivot_index);
    // Any index inside the equal band is a valid two-way split point; the
    // middle keeps both sides balanced when duplicates abound.
    (p.lt + p.gt - 1) / 2
}

/// Insertion sort for tiny slices; used as the base case of the recursive
/// algorithms.  `O(len^2)` but with excellent constants for `len <= 32`.
pub fn insertion_sort<T: Ord>(data: &mut [T]) {
    for i in 1..data.len() {
        let mut j = i;
        while j > 0 && data[j - 1] > data[j] {
            data.swap(j - 1, j);
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_partitioned<T: Ord>(data: &[T], p: Partition) -> bool {
        let pivot = &data[p.lt];
        data[..p.lt].iter().all(|x| x < pivot)
            && data[p.lt..p.gt].iter().all(|x| x == pivot)
            && data[p.gt..].iter().all(|x| x > pivot)
    }

    #[test]
    fn three_way_basic() {
        let mut data = vec![5, 1, 7, 5, 3, 5, 9, 0, 5];
        let p = partition_three_way(&mut data, 0);
        assert!(is_partitioned(&data, p));
        assert_eq!(p.gt - p.lt, 4, "all four fives in the equal band");
    }

    #[test]
    fn three_way_all_equal() {
        let mut data = vec![2_u32; 17];
        let p = partition_three_way(&mut data, 8);
        assert_eq!(p.lt, 0);
        assert_eq!(p.gt, 17);
    }

    #[test]
    fn three_way_single_element() {
        let mut data = vec![42];
        let p = partition_three_way(&mut data, 0);
        assert_eq!((p.lt, p.gt), (0, 1));
    }

    #[test]
    fn three_way_sorted_and_reverse() {
        let mut asc: Vec<i32> = (0..50).collect();
        let p = partition_three_way(&mut asc, 25);
        assert!(is_partitioned(&asc, p));

        let mut desc: Vec<i32> = (0..50).rev().collect();
        let p = partition_three_way(&mut desc, 25);
        assert!(is_partitioned(&desc, p));
    }

    #[test]
    fn block_three_way_matches_scalar_layout() {
        // Exercise: short, exactly one block, several blocks, plus a ragged
        // tail; duplicate-heavy throughout.
        for len in [1usize, 2, 9, BLOCK, BLOCK + 1, 3 * BLOCK + 57, 5000] {
            let data: Vec<u32> = (0..len as u32).map(|i| (i * 48271) % 97).collect();
            for pivot in [0, len / 2, len - 1] {
                let mut scalar = data.clone();
                let ps = partition_three_way(&mut scalar, pivot);
                let mut block = data.clone();
                let pb = partition_three_way_block(&mut block, pivot);
                assert_eq!(ps, pb, "len {len} pivot {pivot}");
                assert!(is_partitioned(&block, pb), "len {len} pivot {pivot}");
            }
        }
    }

    #[test]
    fn block_three_way_all_equal_and_extremes() {
        let mut data = vec![2_u32; 1000];
        let p = partition_three_way_block(&mut data, 500);
        assert_eq!((p.lt, p.gt), (0, 1000));

        let mut asc: Vec<i32> = (0..1000).collect();
        let p = partition_three_way_block(&mut asc, 0);
        assert_eq!((p.lt, p.gt), (0, 1));
        let mut desc: Vec<i32> = (0..1000).rev().collect();
        let p = partition_three_way_block(&mut desc, 0);
        assert_eq!((p.lt, p.gt), (999, 1000));
    }

    #[test]
    fn ninther_picks_a_reasonable_pivot() {
        // On sorted data the ninther is the exact median region, never an end.
        let data: Vec<u32> = (0..10_000).collect();
        let idx = ninther_index(&data);
        assert!(data[idx] > 2_000 && data[idx] < 8_000, "got {}", data[idx]);
        // Tiny slices fall back to the middle.
        assert_eq!(ninther_index(&[5, 1, 4]), 1);
        assert_eq!(ninther_index(&[1]), 0);
    }

    #[test]
    fn contains_band() {
        let p = Partition { lt: 3, gt: 6 };
        assert!(!p.contains(2));
        assert!(p.contains(3));
        assert!(p.contains(5));
        assert!(!p.contains(6));
    }

    #[test]
    fn two_way_split_point_holds_invariant() {
        let mut data = vec![9, 3, 9, 9, 1, 9, 2, 9];
        let idx = partition_two_way(&mut data, 0);
        let pivot = data[idx];
        assert!(data[..idx].iter().all(|x| *x <= pivot));
        assert!(data[idx + 1..].iter().all(|x| *x >= pivot));
    }

    #[test]
    fn insertion_sort_sorts() {
        let mut data = vec![5, 4, 3, 2, 1, 0, 9, 8, 7, 6];
        insertion_sort(&mut data);
        assert_eq!(data, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn insertion_sort_empty_and_single() {
        let mut empty: Vec<u8> = vec![];
        insertion_sort(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![7_u8];
        insertion_sort(&mut one);
        assert_eq!(one, vec![7]);
    }
}
