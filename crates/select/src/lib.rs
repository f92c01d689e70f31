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
//! [`DISTRIBUTION_MIN_LEN`] keys with at least 32 ranks are first
//! *distributed* into 1024 value-ordered buckets by a radix classifier
//! (after IPS²Ra): each key's order-preserving `u64` image ([`RadixKey`]) is
//! mapped to its bucket by a subtract, shift and clamp, under a linear or a
//! log-linear map chosen per call from a sorted oversample.  One pass
//! appends every key to a per-bucket buffer that is flushed block by block
//! into the slice, the blocks are swapped in place into their buckets, and
//! the recursion then runs only inside each bucket on the ranks that fall in
//! it.  Slices whose oversample is few-valued (constant or few distinct
//! keys) skip the buckets.
//!
//! Selection works in place on `&mut [T]` where `T: Ord + RadixKey`, never
//! allocates proportionally to the input (the distribution's bucket buffers
//! have a fixed size), and is exact: every requested rank holds its order
//! statistic, so OPAQ sketches do not depend on which path of the selector
//! ran.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod multiselect;
mod partition;
mod radix;

pub use multiselect::{multiselect, multiselect_into, regular_sample_ranks, DISTRIBUTION_MIN_LEN};
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
