//! Fixed-width binary encoding of record keys.
//!
//! The paper's experiments use 4-byte integer keys; this codec generalises to
//! any fixed-width key so the library can store `u32`, `u64`, `i32`, `i64`
//! and order-preserving `f64` keys on disk without a serialization framework.
//!
//! Decoding is the per-run hot path of the sample phase, so every primitive
//! key overrides [`FixedWidthCodec::decode_extend`] with a bulk path:
//! `chunks_exact(WIDTH)` + `from_le_bytes`, which the compiler lowers to a
//! straight native-endian copy on little-endian targets (and to byte-swapped
//! vector loads elsewhere) — no per-key cursor bookkeeping.  The file store
//! decodes each read window straight into the caller's recycled run buffer,
//! so the run→keys step is allocation-free once that buffer has warmed up.

use bytes::{Buf, BufMut};

/// A key type that can be written to and read from a fixed number of bytes.
///
/// Implementations must round-trip exactly: `decode(encode(x)) == x`.
pub trait FixedWidthCodec: Copy + Send + Sync + 'static {
    /// Encoded width in bytes.
    const WIDTH: usize;

    /// Append the little-endian encoding of `self` to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// Decode a value from the front of `buf`, advancing it by [`Self::WIDTH`].
    fn decode<B: Buf>(buf: &mut B) -> Self;

    /// Append `count` keys decoded from the front of `bytes` to `out`.
    ///
    /// The default walks the buffer key by key through [`Self::decode`];
    /// primitive keys override it with a chunked native decode that the
    /// compiler vectorises.  Callers are responsible for having checked that
    /// `bytes` holds at least `count * WIDTH` bytes.
    fn decode_extend(mut bytes: &[u8], count: usize, out: &mut Vec<Self>) {
        debug_assert!(bytes.len() >= count * Self::WIDTH);
        out.reserve(count);
        for _ in 0..count {
            out.push(Self::decode(&mut bytes));
        }
    }
}

macro_rules! impl_codec_int {
    ($ty:ty, $put:ident, $get:ident, $width:expr) => {
        impl FixedWidthCodec for $ty {
            const WIDTH: usize = $width;

            #[inline]
            fn encode<B: BufMut>(&self, buf: &mut B) {
                buf.$put(*self);
            }

            #[inline]
            fn decode<B: Buf>(buf: &mut B) -> Self {
                buf.$get()
            }

            #[inline]
            fn decode_extend(bytes: &[u8], count: usize, out: &mut Vec<Self>) {
                debug_assert!(bytes.len() >= count * Self::WIDTH);
                out.extend(bytes[..count * $width].chunks_exact($width).map(|chunk| {
                    <$ty>::from_le_bytes(chunk.try_into().expect("chunk width is exact"))
                }));
            }
        }
    };
}

impl_codec_int!(u32, put_u32_le, get_u32_le, 4);
impl_codec_int!(u64, put_u64_le, get_u64_le, 8);
impl_codec_int!(i32, put_i32_le, get_i32_le, 4);
impl_codec_int!(i64, put_i64_le, get_i64_le, 8);

impl FixedWidthCodec for f64 {
    const WIDTH: usize = 8;

    #[inline]
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64_le(*self);
    }

    #[inline]
    fn decode<B: Buf>(buf: &mut B) -> Self {
        buf.get_f64_le()
    }

    #[inline]
    fn decode_extend(bytes: &[u8], count: usize, out: &mut Vec<Self>) {
        debug_assert!(bytes.len() >= count * Self::WIDTH);
        out.extend(
            bytes[..count * 8]
                .chunks_exact(8)
                .map(|chunk| f64::from_le_bytes(chunk.try_into().expect("chunk width is exact"))),
        );
    }
}

/// Encode a whole slice of keys into a byte vector.
pub fn encode_slice<K: FixedWidthCodec>(keys: &[K]) -> Vec<u8> {
    let mut out = Vec::with_capacity(keys.len() * K::WIDTH);
    for k in keys {
        k.encode(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode_keys<K: FixedWidthCodec>(bytes: &[u8], count: usize) -> Vec<K> {
        let mut out = Vec::new();
        K::decode_extend(bytes, count, &mut out);
        out
    }

    #[test]
    fn u64_round_trip() {
        let keys: Vec<u64> = vec![0, 1, u64::MAX, 42, 1 << 63];
        let bytes = encode_slice(&keys);
        assert_eq!(bytes.len(), keys.len() * 8);
        assert_eq!(decode_keys::<u64>(&bytes, keys.len()), keys);
    }

    #[test]
    fn u32_round_trip() {
        let keys: Vec<u32> = (0..100).map(|i| i * 40503).collect();
        let bytes = encode_slice(&keys);
        assert_eq!(decode_keys::<u32>(&bytes, keys.len()), keys);
    }

    #[test]
    fn i64_round_trip_negative() {
        let keys: Vec<i64> = vec![i64::MIN, -1, 0, 1, i64::MAX];
        let bytes = encode_slice(&keys);
        assert_eq!(decode_keys::<i64>(&bytes, keys.len()), keys);
    }

    #[test]
    fn f64_round_trip() {
        let keys: Vec<f64> = vec![0.0, -1.5, 3.25, f64::MAX, f64::MIN_POSITIVE];
        let bytes = encode_slice(&keys);
        assert_eq!(decode_keys::<f64>(&bytes, keys.len()), keys);
    }

    #[test]
    fn bulk_decode_matches_cursor_decode() {
        // The macro overrides decode_extend; pin it against the generic
        // cursor path for every key type.
        fn cursor_decode<K: FixedWidthCodec>(mut bytes: &[u8], count: usize) -> Vec<K> {
            (0..count).map(|_| K::decode(&mut bytes)).collect()
        }
        let u64s: Vec<u64> = (0..513u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let bytes = encode_slice(&u64s);
        assert_eq!(
            cursor_decode::<u64>(&bytes, u64s.len()),
            decode_keys::<u64>(&bytes, u64s.len())
        );
        let i32s: Vec<i32> = (0..257).map(|i| (i * 48271) - 6_000_000).collect();
        let bytes = encode_slice(&i32s);
        assert_eq!(
            cursor_decode::<i32>(&bytes, i32s.len()),
            decode_keys::<i32>(&bytes, i32s.len())
        );
    }

    #[test]
    fn widths_are_correct() {
        assert_eq!(<u32 as FixedWidthCodec>::WIDTH, 4);
        assert_eq!(<u64 as FixedWidthCodec>::WIDTH, 8);
        assert_eq!(<i32 as FixedWidthCodec>::WIDTH, 4);
        assert_eq!(<i64 as FixedWidthCodec>::WIDTH, 8);
        assert_eq!(<f64 as FixedWidthCodec>::WIDTH, 8);
    }

    proptest! {
        #[test]
        fn arbitrary_u64_round_trip(keys in proptest::collection::vec(any::<u64>(), 0..200)) {
            let bytes = encode_slice(&keys);
            prop_assert_eq!(decode_keys::<u64>(&bytes, keys.len()), keys);
        }

        #[test]
        fn arbitrary_i32_round_trip(keys in proptest::collection::vec(any::<i32>(), 0..200)) {
            let bytes = encode_slice(&keys);
            prop_assert_eq!(decode_keys::<i32>(&bytes, keys.len()), keys);
        }
    }
}
