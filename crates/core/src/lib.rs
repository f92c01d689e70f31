//! # OPAQ — One-Pass Algorithm for Quantiles
//!
//! A faithful implementation of the algorithm from
//! *"A One-Pass Algorithm for Accurately Estimating Quantiles for
//! Disk-Resident Data"* (Alsabti, Ranka, Singh — VLDB 1997).
//!
//! OPAQ estimates any set of φ-quantiles of a disk-resident dataset in a
//! single pass with **deterministic, distribution-free error bounds**:
//!
//! 1. **Sample phase** ([`sample_phase`]): the data is read as `r` runs of
//!    `m` elements; from each run the `s` *regular samples* (the elements of
//!    rank `m/s, 2m/s, …, m`) are extracted by multi-selection in
//!    `O(m log s)`, and the `r` sorted sample lists are merged into one
//!    sorted list of `r·s` samples — the [`QuantileSketch`].
//! 2. **Quantile phase** ([`quantile_phase`]): for a target rank `ψ = ⌈φ·n⌉`
//!    two positions in the sample list give a lower bound `e_l` and an upper
//!    bound `e_u` with `e_l ≤ Q_φ ≤ e_u`, and at most `n/s` data elements lie
//!    between the true quantile and either bound (Lemmas 1–3).
//!
//! The crate also implements the paper's §4 extensions: an exact-quantile
//! second pass ([`exact`]), incremental maintenance when new data arrives
//! ([`incremental`]), and rank estimation for arbitrary values ([`rank`]).
//!
//! ## Quick example
//!
//! ```
//! use opaq_core::{OpaqConfig, OpaqEstimator};
//! use opaq_storage::MemRunStore;
//!
//! // 100k keys, "disk-resident" as runs of 10k elements.
//! let data: Vec<u64> = (0..100_000u64).rev().collect();
//! let store = MemRunStore::new(data, 10_000);
//!
//! let config = OpaqConfig::builder()
//!     .run_length(10_000)
//!     .sample_size(500)
//!     .build()
//!     .unwrap();
//! let sketch = OpaqEstimator::new(config).build_sketch(&store).unwrap();
//!
//! let est = sketch.estimate(0.5).unwrap();
//! assert!(est.lower <= 49_999 && 49_999 <= est.upper);
//! // Lemma 3: at most 2n/s elements may sit between the bounds.
//! assert!(sketch.max_elements_between_bounds() <= 2 * 100_000 / 500 + 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bounds;
pub mod config;
pub mod error;
pub mod estimator;
pub mod exact;
pub mod incremental;
pub mod quantile_phase;
pub mod rank;
pub mod sample_phase;
pub mod sketch;

pub use bounds::TheoreticalBounds;
pub use config::{OpaqConfig, OpaqConfigBuilder};
pub use error::{OpaqError, OpaqResult};
pub use estimator::OpaqEstimator;
pub use exact::{exact_quantile, ExactQuantile};
pub use incremental::IncrementalOpaq;
pub use opaq_select::RadixKey;
pub use quantile_phase::QuantileEstimate;
pub use rank::RankBounds;
pub use sample_phase::{sample_run, RunSample, RunSampler};
pub use sketch::{merge_tree, QuantileSketch};

/// The key bound required by the OPAQ core: totally ordered, cheap to copy,
/// shareable across the parallel machine, and with an order-preserving `u64`
/// image ([`RadixKey`]) that the sample phase buckets long runs by.
///
/// Every type with these bounds is a `Key`.  `RadixKey` is implemented for
/// `u8`–`u64`, `usize` and `i8`–`i64`; another key type implements it with
/// an image that orders keys exactly as `Ord` does.
pub trait Key: Ord + Copy + RadixKey + Send + Sync + 'static {}
impl<T: Ord + Copy + RadixKey + Send + Sync + 'static> Key for T {}
