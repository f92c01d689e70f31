//! # opaq — One-Pass Algorithm for Quantiles (VLDB 1997), reproduced in Rust
//!
//! This facade crate re-exports the whole OPAQ workspace behind a single
//! dependency, so downstream users can write `opaq::...` without caring
//! which internal crate a type lives in:
//!
//! * [`core`] ([`opaq_core`]) — the OPAQ algorithm itself: sample phase,
//!   quantile phase, deterministic error bounds, exact second pass,
//!   incremental maintenance, rank estimation.
//! * [`select`] ([`opaq_select`]) — the sample phase's one multi-selector:
//!   exact introselect splits behind a radix-bucket distribution.
//! * [`storage`] ([`opaq_storage`]) — disk-resident run storage, I/O
//!   accounting and the disk cost model.
//! * [`datagen`] ([`opaq_datagen`]) — the paper's workload generators.
//! * [`metrics`] ([`opaq_metrics`]) — RER_A / RER_L / RER_N and timing.
//! * [`baselines`] ([`opaq_baselines`]) — Table 7's two comparators:
//!   `[AS95]` adaptive intervals and reservoir sampling.
//! * [`parallel`] ([`opaq_parallel`]) — parallel OPAQ on a simulated
//!   distributed-memory machine, plus [`ShardedOpaq`]: real multi-threaded
//!   sharded ingestion over any run store.
//! * [`serve`] ([`opaq_serve`]) — concurrent multi-tenant sketch serving:
//!   the versioned [`SketchCatalog`], typed [`QueryRequest`]s and their one
//!   evaluation function, the server's catalog handle ([`QueryEngine`])
//!   and background refresh.
//! * [`query`] ([`opaq_query`]) — the composable query pipeline:
//!   `fetch tenant-*/events | coalesce | quantile 0.5,0.99` expressions
//!   compiled to typed [`QueryPlan`]s and executed by a [`PlanExecutor`]
//!   against catalog snapshots, with full per-source provenance.  Every
//!   served answer, a single-target one included, comes from it, and it
//!   accounts each one: per-tenant latency and SLO breaches.
//! * [`net`] ([`opaq_net`]) — the HTTP/1.1 front-end over the serving
//!   layer: dependency-free server/client, versioned + freshness-tagged
//!   responses, `POST /v1/query` plans, `/metrics` exposition and the load
//!   harness, whose in-process topology runs the same router without the
//!   socket.
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use opaq::{OpaqConfig, OpaqEstimator, MemRunStore};
//!
//! let data: Vec<u64> = (0..50_000u64).rev().collect();
//! let store = MemRunStore::new(data, 5_000);
//! let config = OpaqConfig::builder().run_length(5_000).sample_size(500).build()?;
//! let sketch = OpaqEstimator::new(config).build_sketch(&store)?;
//! let median = sketch.estimate(0.5)?;
//! assert!(median.lower <= 24_999 && 24_999 <= median.upper);
//! # Ok::<(), opaq::OpaqError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use opaq_baselines as baselines;
pub use opaq_core as core;
pub use opaq_datagen as datagen;
pub use opaq_metrics as metrics;
pub use opaq_net as net;
pub use opaq_parallel as parallel;
pub use opaq_query as query;
pub use opaq_select as select;
pub use opaq_serve as serve;
pub use opaq_storage as storage;

pub use opaq_baselines::StreamingEstimator;
pub use opaq_core::{
    exact_quantile, IncrementalOpaq, OpaqConfig, OpaqError, OpaqEstimator, OpaqResult,
    QuantileEstimate, QuantileSketch, TheoreticalBounds,
};
pub use opaq_datagen::DatasetSpec;
pub use opaq_metrics::{compute_error_rates, GroundTruth, QuantileBoundsView};
pub use opaq_parallel::{MergeAlgorithm, ParallelOpaq, ShardedIngestReport, ShardedOpaq};
pub use opaq_query::{PlanExecutor, QueryPlan};
pub use opaq_serve::{QueryEngine, QueryRequest, SketchCatalog};
pub use opaq_storage::{DiskModel, FileRunStore, FileRunStoreBuilder, MemRunStore, RunStore};
