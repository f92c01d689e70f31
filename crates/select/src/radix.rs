//! The order-preserving `u64` image that multi-selection buckets keys by.

/// A key with an order-preserving image in `u64`: for any two keys,
/// `a.radix().cmp(&b.radix()) == a.cmp(&b)`.
///
/// [`multiselect`](crate::multiselect()) places each key of a long slice in
/// its bucket with one subtract, shift and clamp of this image, so the
/// bucketing pass makes no key comparison.  Equal images must mean equal
/// keys: a bucket whose images are all one value is taken as already
/// settled.
///
/// Implemented for `u8`–`u64` and `usize` (the value itself) and for
/// `i8`–`i64` (the value widened to `i64` with its sign bit flipped, so
/// `i64::MIN` maps to 0 and `-1` sits just below `0`).
pub trait RadixKey: Copy {
    /// The key's order-preserving image.
    fn radix(self) -> u64;
}

macro_rules! unsigned_radix {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            #[inline(always)]
            fn radix(self) -> u64 {
                self as u64
            }
        }
    )*};
}

macro_rules! signed_radix {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            #[inline(always)]
            fn radix(self) -> u64 {
                (i64::from(self) as u64) ^ (1 << 63)
            }
        }
    )*};
}

unsigned_radix!(u8, u16, u32, u64, usize);
signed_radix!(i8, i16, i32, i64);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `radix` orders every pair of `keys` as `Ord` does.
    fn assert_order_preserved<T: RadixKey + Ord + std::fmt::Debug>(keys: &[T]) {
        for a in keys {
            for b in keys {
                assert_eq!(a.radix().cmp(&b.radix()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn the_extremes_keep_their_order() {
        assert_order_preserved(&[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX]);
        assert_order_preserved(&[0, 1, u64::MAX - 1, u64::MAX]);
        assert_order_preserved(&[i8::MIN, -1, 0, i8::MAX]);
        assert_order_preserved(&[0, usize::MAX]);
        assert_eq!(i64::MIN.radix(), 0);
        assert_eq!(i64::MAX.radix(), u64::MAX);
        assert_eq!(u64::MAX.radix(), u64::MAX);
    }

    proptest! {
        #[test]
        fn every_impl_preserves_order(a in any::<u64>(), b in any::<u64>()) {
            // Each pair is checked at every width: truncation keeps the low
            // bits, so narrow types see their full range too.
            assert_order_preserved(&[a, b, 0, u64::MAX]);
            assert_order_preserved(&[a as usize, b as usize]);
            assert_order_preserved(&[a as u32, b as u32]);
            assert_order_preserved(&[a as u16, b as u16]);
            assert_order_preserved(&[a as u8, b as u8]);
            assert_order_preserved(&[a as i64, b as i64, i64::MIN, -1, 0, i64::MAX]);
            assert_order_preserved(&[a as i32, b as i32, i32::MIN, -1, 0, i32::MAX]);
            assert_order_preserved(&[a as i16, b as i16]);
            assert_order_preserved(&[a as i8, b as i8]);
        }
    }
}
