//! Typed query plans: what a pipeline expression compiles to.

use crate::glob::{glob_match, is_literal};
use crate::parser;
use crate::QueryError;
use opaq_serve::{DatasetId, QueryRequest, TenantId};

/// Which catalog entries a plan's `fetch` stage resolves.
#[derive(Debug, Clone, PartialEq)]
pub enum Selector {
    /// Exactly one `(tenant, dataset)` entry, by literal equality.  This is
    /// also the only way to address an id whose *name* contains `*` or `?`:
    /// exact selectors never interpret wildcards.
    Exact {
        /// The tenant addressed.
        tenant: TenantId,
        /// The dataset addressed.
        dataset: DatasetId,
    },
    /// Every entry whose tenant and dataset both match the glob patterns
    /// (`*` = any run, `?` = one character; see [`crate::glob_match`]).
    Glob {
        /// Pattern matched against tenant ids.
        tenant: String,
        /// Pattern matched against dataset ids.
        dataset: String,
    },
}

impl Selector {
    /// Compile a `tenant-pattern/dataset-pattern` pair, lowering patterns
    /// with no wildcard characters to an [`Selector::Exact`] lookup.
    pub fn compile(tenant: &str, dataset: &str) -> Self {
        if is_literal(tenant) && is_literal(dataset) {
            Selector::Exact {
                tenant: TenantId::from(tenant),
                dataset: DatasetId::from(dataset),
            }
        } else {
            Selector::Glob {
                tenant: tenant.to_string(),
                dataset: dataset.to_string(),
            }
        }
    }

    /// Whether this selector covers `(tenant, dataset)`.
    pub fn matches(&self, tenant: &TenantId, dataset: &DatasetId) -> bool {
        match self {
            Selector::Exact {
                tenant: t,
                dataset: d,
            } => t == tenant && d == dataset,
            Selector::Glob {
                tenant: tp,
                dataset: dp,
            } => glob_match(tp, tenant.as_str()) && glob_match(dp, dataset.as_str()),
        }
    }
}

/// A compiled pipeline: `fetch <selector> [| coalesce] | <extract>`.
///
/// Every HTTP and CLI query in the system is one of these — the legacy
/// single-target GET routes compile to degenerate plans via
/// [`QueryPlan::single`] and run through the exact same executor as a
/// cross-tenant rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Which entries the `fetch` stage resolves.
    pub selector: Selector,
    /// Whether fetched sketches are fused with the deterministic merge tree.
    /// Plans whose selector resolves more than one entry must coalesce;
    /// the executor rejects multi-source plans without it.
    pub coalesce: bool,
    /// The terminal extraction applied to the (possibly fused) sketch.
    pub extract: QueryRequest,
}

impl QueryPlan {
    /// Parse a pipeline expression — see the crate-level grammar reference.
    ///
    /// # Errors
    /// [`QueryError::Parse`] describing the offending stage.
    pub fn parse(text: &str) -> Result<Self, QueryError> {
        parser::parse(text)
    }

    /// The degenerate one-target plan the legacy single-`(tenant, dataset)`
    /// API surfaces compile to.  Always an exact selector, so ids containing
    /// wildcard characters stay addressable through the typed API.
    pub fn single(tenant: TenantId, dataset: DatasetId, request: QueryRequest) -> Self {
        QueryPlan {
            selector: Selector::Exact { tenant, dataset },
            coalesce: false,
            extract: request,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_selectors_lower_to_exact() {
        let s = Selector::compile("acme", "events");
        assert_eq!(
            s,
            Selector::Exact {
                tenant: TenantId::from("acme"),
                dataset: DatasetId::from("events"),
            }
        );
        assert!(s.matches(&TenantId::from("acme"), &DatasetId::from("events")));
        assert!(!s.matches(&TenantId::from("acme2"), &DatasetId::from("events")));
    }

    #[test]
    fn wildcard_selectors_stay_globs() {
        let s = Selector::compile("tenant-*", "events");
        assert!(matches!(s, Selector::Glob { .. }));
        assert!(s.matches(&TenantId::from("tenant-7"), &DatasetId::from("events")));
        assert!(!s.matches(&TenantId::from("ttl-probe"), &DatasetId::from("events")));
    }

    #[test]
    fn exact_selectors_treat_wildcard_names_literally() {
        let s = Selector::Exact {
            tenant: TenantId::from("t*"),
            dataset: DatasetId::from("d"),
        };
        assert!(s.matches(&TenantId::from("t*"), &DatasetId::from("d")));
        assert!(!s.matches(&TenantId::from("tx"), &DatasetId::from("d")));
    }

    #[test]
    fn single_builds_a_degenerate_exact_plan() {
        let plan = QueryPlan::single(
            TenantId::from("a"),
            DatasetId::from("d"),
            QueryRequest::Quantile { phi: 0.5 },
        );
        assert!(!plan.coalesce);
        assert!(matches!(plan.selector, Selector::Exact { .. }));
    }
}
