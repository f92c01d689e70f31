//! # opaq-query — a composable query pipeline over the sketch catalog
//!
//! The serving layer answers point queries against one `(tenant, dataset)`
//! entry.  This crate layers a small operator algebra on top: a plan
//! *fetches* a set of catalog entries by glob, optionally *coalesces* them
//! with the deterministic sketch merge tree, and *extracts* quantiles,
//! ranks or equi-depth profiles from the fused sketch — all against
//! immutable published snapshots, so a plan over N entries reads N complete
//! versions and reports exactly which ones answered.
//!
//! ## Grammar reference
//!
//! A plan is one to three `|`-separated stages:
//!
//! ```text
//! plan     := fetch [ "|" coalesce ] "|" extract
//! fetch    := "fetch" SELECTOR
//! coalesce := "coalesce" | "merge"            (no arguments)
//! extract  := "quantile" PHI ("," PHI)*       (one φ → scalar estimate,
//!           | "rank" KEY                       several → consistent batch)
//!           | "profile" COUNT
//! SELECTOR := TENANT-PATTERN [ "/" DATASET-PATTERN ]
//! ```
//!
//! * Patterns support `*` (any run of characters, including empty) and `?`
//!   (exactly one character), matched per Unicode scalar and anchored at
//!   both ends — see [`glob_match`].  A selector without `/` means "every
//!   dataset of the matched tenants" (`fetch acme` ≡ `fetch acme/*`).
//! * A selector with no wildcard characters compiles to an exact catalog
//!   lookup ([`Selector::Exact`]); unknown entries surface the same typed
//!   `UnknownEntry` error as the point-query API.
//! * A plan whose selector resolves **more than one** entry must contain a
//!   `coalesce` stage, or execution fails with
//!   [`QueryError::NeedsCoalesce`] — fusing sketches changes the answer's
//!   meaning, so it never happens implicitly.
//! * `PHI` is any finite float (range checking happens at estimation, so
//!   `quantile 1.5` parses and then fails exactly like `?phi=1.5` on the
//!   HTTP API); `KEY` and `COUNT` are unsigned integers.
//!
//! ### Examples
//!
//! ```text
//! fetch acme/events | quantile 0.5
//! fetch tenant-*/events | coalesce | quantile 0.25,0.5,0.99
//! fetch acme | merge | profile 10
//! fetch */clickstream-? | coalesce | rank 100000
//! ```
//!
//! ## Execution and provenance
//!
//! [`QueryPlan::parse`] compiles the text to a typed [`QueryPlan`];
//! [`PlanExecutor::execute`] resolves the selector against a
//! [`opaq_serve::SketchCatalog`] (sorted key order, so merge input order is
//! deterministic), fuses with [`merge_tree`] — `opaq-core`'s balanced
//! pairwise tree, which `opaq-parallel` also uses for shard results — and runs the extract via
//! the single shared evaluation path [`opaq_serve::execute_on`].  The
//! [`PlanResponse`] carries a [`PlanSource`] per contributing snapshot
//! (`tenant`, `dataset`, `version`, `freshness`), which is what lets the
//! HTTP workload verifier replay a plan answer byte-for-byte against an
//! offline merge of the very same sketch versions.
//!
//! Per-stage latency is timed once, by the spans
//! [`PlanExecutor::execute_traced`] records (fetch, snapshot, scatter,
//! merge, extract): the span recorder feeds each into its stage's histogram
//! ([`opaq_metrics::SpanRecorder::histogram`]), which the server's
//! `/metrics` endpoint exports.  Untraced [`PlanExecutor::execute`] records
//! nothing.
//!
//! The legacy single-target requests are degenerate plans
//! ([`QueryPlan::single`]): one exact fetch, no coalesce, one extract —
//! which is how the HTTP GET routes and the CLI share this executor while
//! keeping their response bytes unchanged.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod exec;
pub mod glob;
pub mod parser;
pub mod plan;

pub use exec::{PlanExecutor, PlanResponse, PlanSource, RemotePartial, ScatterFn};
pub use glob::glob_match;
/// Re-exported from `opaq-core` for the plan replay verifiers.
pub use opaq_core::merge_tree;
pub use plan::{QueryPlan, Selector};

use opaq_core::OpaqError;
use opaq_serve::ServeError;
use std::fmt;

/// Errors surfaced by plan parsing and execution.
#[derive(Debug)]
pub enum QueryError {
    /// The pipeline expression does not follow the grammar.
    Parse {
        /// What was wrong.
        message: String,
        /// The 1-based stage the error was detected in.
        stage: usize,
    },
    /// A glob selector matched no published catalog entry.
    NoMatch {
        /// The tenant pattern that failed to match.
        tenant: String,
        /// The dataset pattern that failed to match.
        dataset: String,
    },
    /// The selector resolved several entries but the plan does not coalesce.
    NeedsCoalesce {
        /// How many entries matched.
        matched: usize,
    },
    /// The serving layer failed (unknown entry, reload, merge, estimation).
    Serve(ServeError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { message, stage } => {
                write!(f, "plan stage {stage}: {message}")
            }
            QueryError::NoMatch { tenant, dataset } => {
                write!(f, "no catalog entry matches '{tenant}/{dataset}'")
            }
            QueryError::NeedsCoalesce { matched } => {
                write!(
                    f,
                    "selector matched {matched} entries; add '| coalesce' to fuse them"
                )
            }
            QueryError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for QueryError {
    fn from(e: ServeError) -> Self {
        QueryError::Serve(e)
    }
}

impl From<OpaqError> for QueryError {
    fn from(e: OpaqError) -> Self {
        QueryError::Serve(ServeError::Opaq(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_actionable() {
        let parse = QueryPlan::parse("nope").unwrap_err();
        assert!(parse.to_string().starts_with("plan stage 1:"), "{parse}");
        let no_match = QueryError::NoMatch {
            tenant: "ghost-*".into(),
            dataset: "events".into(),
        };
        assert!(no_match.to_string().contains("ghost-*/events"));
        let needs = QueryError::NeedsCoalesce { matched: 3 };
        assert!(needs.to_string().contains("coalesce"));
    }
}
