//! Parallel OPAQ on a simulated distributed-memory machine.
//!
//! Section 3 of the paper parallelises OPAQ for coarse-grained machines
//! (their testbed is a 16-node IBM SP-2): every processor holds `n/p`
//! elements, runs the sample phase locally, and the `p` local sorted sample
//! lists are merged globally by either a **bitonic merge** or a **sample
//! merge** (the merge-only variants of bitonic sort and sample sort / PSRS).
//! The quantile phase is unchanged except that the total number of runs is
//! `r·p`.  All the sequential error lemmas carry over.
//!
//! The original hardware is simulated ([`machine`]): each "processor" is an
//! OS thread with private data, communicating exclusively through explicit
//! messages; a two-level cost model
//! ([`cost_model::CostModel`], the paper's `τ`/`μ` parameters) prices each
//! phase so the analytical complexities of Table 8 can be reported next to
//! the measured wall-clock times.
//!
//! Entry points: [`ParallelOpaq`] (simulated distributed-memory machine) and
//! [`ShardedOpaq`] ([`sharded`]: real multi-threaded ingestion over a
//! [`opaq_storage::RunStore`], bit-identical to the sequential fold).  A
//! sharded build starts one scoped thread per shard, at most one per run;
//! each shard reads its own contiguous runs into one recycled buffer, so
//! the build holds `S·m` keys of runs for `S` shards of run length `m`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bitonic;
pub mod cost_model;
pub mod machine;
pub mod parallel_opaq;
pub mod partitioner;
pub mod sample_merge;
pub mod sharded;
pub mod speedup;

pub use bitonic::bitonic_merge;
pub use cost_model::CostModel;
pub use machine::{CommStats, Machine, ProcessorCtx};
pub use parallel_opaq::{MergeAlgorithm, ParallelOpaq, ParallelRunReport, PhaseTimes};
pub use partitioner::{block_partition, quantile_partition, scatter_by_splitters};
pub use sample_merge::sample_merge;
pub use sharded::{ShardedIngestReport, ShardedOpaq};
pub use speedup::{ScalingPoint, ScalingReport};
