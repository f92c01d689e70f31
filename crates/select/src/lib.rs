//! Multi-selection for the OPAQ sampling phase.
//!
//! The OPAQ paper (Alsabti, Ranka, Singh — VLDB 1997) derives `s` *regular
//! samples* from every in-memory run of `m` elements: the elements of exact
//! rank `m/s, 2m/s, …, m` within the run.  Finding a single rank is the
//! classical *selection problem*; finding all `s` ranks at once is a
//! *multi-selection* problem which the paper solves in `O(m log s)` by
//! recursive median splitting (§2.1).
//!
//! This crate has one selector.  [`multiselect`](mod@multiselect) is the
//! paper's recursive partitioning: each piece takes one exact selection of
//! its middle rank with the standard library's `select_nth_unstable`
//! (introselect, Musser 1997, whose median-of-medians fallback keeps it
//! worst-case linear) and recurses on the ranks to either side, so depth is
//! `⌈log₂(s+1)⌉`.  A selected key that equals a bound the piece inherited
//! ends that piece's whole band of equal keys in one pass, which ends
//! constant and few-valued runs.  Slices of at least
//! [`DISTRIBUTION_MIN_LEN`] keys with at least 32 ranks first *count, then
//! gather* (after GPU bucketSelect): each key's order-preserving `u64`
//! image ([`RadixKey`]) is mapped to one of 65,536 value-ordered buckets by
//! a subtract, shift and clamp, under a linear or a log-linear map chosen
//! per call from a sorted oversample (after IPS²Ra's radix classifier).  One
//! pass counts every bucket and stores each key's bucket id; a second,
//! reading the ids instead of the images, copies the keys of the few
//! buckets that hold a rank into a small buffer, and the recursion runs
//! there, on the ranks that fall in each.  Heavy buckets are counted again on their own keys.
//! Slices whose oversample is few-valued (constant or few distinct keys)
//! skip the buckets.
//!
//! Selection works on `&mut [T]` where `T: Ord + RadixKey`, leaves the
//! slice a permutation of its input, and is exact: the selected values are
//! the order statistics, so OPAQ sketches do not depend on which path of the
//! selector ran.  Its scratch (a 256 KB count table, two bytes per key and
//! the gathered keys) lives in a [`Multiselector`], which a loop over many
//! runs keeps.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod multiselect;
mod partition;
mod radix;

pub use multiselect::{
    multiselect, multiselect_into, regular_sample_ranks, Multiselector, DISTRIBUTION_MIN_LEN,
};
pub use radix::RadixKey;

/// The single-rank selector of the sample phase.  It has one variant, and
/// no code path depends on it; it stays only because the benchmark harness
/// still passes it to [`multiselect_into`] and to the core crate's
/// `RunSampler::new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionStrategy {
    /// The standard library's `select_nth_unstable`: introselect (Musser,
    /// 1997) with a median-of-medians fallback, so deterministic and
    /// worst-case linear.
    #[default]
    Introselect,
}
