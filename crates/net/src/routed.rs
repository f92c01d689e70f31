//! Ring-routed fleet: N replica groups behind one consistent-hash routing
//! layer, with failover *inside* each group and `wrong_owner` re-routing
//! *between* them.
//!
//! A [`RoutedFleet`] is the client half of the partitioned serving story:
//! it keys a [`crate::ReplicaSet`] per replica group off the shared
//! [`HashRing`], routes every single-tenant request to the group the ring
//! says owns that tenant, and keeps all the per-group machinery — sticky
//! failover, circuit breakers, degraded replay — exactly as it was for a
//! flat fleet.  When a request lands on the wrong group anyway (a stale
//! client ring, a deliberate misroute in the harness), the server answers
//! the typed `wrong_owner` error naming the owning group; the fleet
//! re-routes **once** to that group — same trace id, counted in
//! [`ReplicationStats::reroutes`] — and never loops.
//!
//! [`crate::load::run_load`] drives one `RoutedFleet` per client thread on
//! every fleet topology; a one-group ring is the flat server or replica
//! fleet, so this is the only HTTP client path the harness has.

use crate::client::{ClientResponse, ClientStats};
use crate::json::Json;
use crate::replica::{FailoverResponse, ReplicaConfig, ReplicaSet, ReplicationStats};
use crate::ring::HashRing;
use crate::{NetError, NetResult};
use opaq_metrics::TraceId;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// If `response` is a well-formed typed `wrong_owner` answer, the name of
/// the owning group it claims.
fn wrong_owner_group(response: &ClientResponse) -> Option<String> {
    if response.status != 421 {
        return None;
    }
    let body = std::str::from_utf8(&response.body).ok()?;
    let parsed = Json::parse(body).ok()?;
    let error = parsed.get("error")?;
    if error.get("code")?.as_str()? != "wrong_owner" {
        return None;
    }
    Some(error.get("owner")?.get("group")?.as_str()?.to_owned())
}

/// A ring-keyed fleet of per-group [`ReplicaSet`]s.
///
/// Single-tenant requests route to the owning group ([`RoutedFleet::get`],
/// [`RoutedFleet::send`]);
/// glob plans POST to a rotating coordinator group
/// ([`RoutedFleet::post_plan`]) whose server-side scatter hook reaches the
/// peers.  Failover, breakers and degraded replay stay entirely inside each
/// group's `ReplicaSet`; the fleet only decides *which* group a request
/// belongs to — and re-routes once on a typed `wrong_owner` answer.
pub struct RoutedFleet {
    ring: Arc<HashRing>,
    /// Index-aligned with `ring.groups()`.
    groups: Vec<ReplicaSet>,
    stats: Option<Arc<ReplicationStats>>,
    /// Round-robin cursor for plan coordinators.
    plan_cursor: usize,
}

impl std::fmt::Debug for RoutedFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedFleet")
            .field("groups", &self.groups.len())
            .finish_non_exhaustive()
    }
}

impl RoutedFleet {
    /// A fleet over `ring`, dialing `group_addrs[i]` for ring group `i` —
    /// the indirection lets a harness dial through chaos proxies while the
    /// ring itself carries the servers' real addresses.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] when `group_addrs` does not line up with
    /// the ring's groups or any group has no address.
    pub fn new(
        ring: Arc<HashRing>,
        group_addrs: &[Vec<String>],
        config: &ReplicaConfig,
    ) -> NetResult<Self> {
        if group_addrs.len() != ring.groups().len() {
            return Err(NetError::InvalidConfig(format!(
                "fleet has {} address groups but the ring has {} groups",
                group_addrs.len(),
                ring.groups().len()
            )));
        }
        let groups = group_addrs
            .iter()
            .map(|addrs| ReplicaSet::new(addrs, config.clone()))
            .collect::<NetResult<Vec<_>>>()?;
        Ok(Self {
            ring,
            groups,
            stats: None,
            plan_cursor: 0,
        })
    }

    /// Attach a shared stats block (failovers, breaker gauges, re-routes).
    #[must_use]
    pub fn with_stats(mut self, stats: Arc<ReplicationStats>) -> Self {
        self.groups = self
            .groups
            .drain(..)
            .map(|set| set.with_stats(Arc::clone(&stats)))
            .collect();
        self.stats = Some(stats);
        self
    }

    /// The ring this fleet routes by.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Ring index of the group owning `tenant`.
    pub fn owner_index(&self, tenant: &str) -> usize {
        self.ring.owner_index(tenant)
    }

    /// Stamp (or clear) the trace id on every group's clients — a re-routed
    /// hop carries the same trace as the misdirected one.
    pub fn set_trace_id(&mut self, trace: Option<TraceId>) {
        for set in &mut self.groups {
            set.set_trace_id(trace);
        }
    }

    /// Probe whichever groups are due for a health sweep; returns whether
    /// any group actually probed.
    pub fn maybe_probe(&mut self) -> bool {
        let mut probed = false;
        for set in &mut self.groups {
            probed |= set.maybe_probe();
        }
        probed
    }

    /// Aggregate client-level transport tallies across every group.
    pub fn client_stats(&self) -> ClientStats {
        self.groups.iter().fold(ClientStats::default(), |acc, set| {
            let s = set.client_stats();
            ClientStats {
                retries: acc.retries + s.retries,
                connect_errors: acc.connect_errors + s.connect_errors,
                timeouts: acc.timeouts + s.timeouts,
            }
        })
    }

    /// `GET target` for `tenant`, routed to the ring's owning group, with
    /// that group's full failover behaviour.
    ///
    /// # Errors
    /// The owning group's transport error when every one of its replicas
    /// failed and nothing is cached for `target`.
    pub fn get(&mut self, tenant: &str, target: &str) -> NetResult<FailoverResponse> {
        self.send(tenant, target, None, false)
    }

    /// `GET target` deliberately sent to a **non-owning** group — the
    /// harness hook that exercises the organic misdirection path: the wrong
    /// group answers the typed `wrong_owner` error, and the fleet re-routes
    /// once to the group that error names.  Falls back to the plain routed
    /// path when the ring has a single group.
    ///
    /// # Errors
    /// Same as [`RoutedFleet::get`].
    pub fn get_misrouted(&mut self, tenant: &str, target: &str) -> NetResult<FailoverResponse> {
        self.send(tenant, target, None, true)
    }

    /// One single-tenant request: a GET when `body` is `None`, else a JSON
    /// POST (e.g. `quantile_batch`: one attempt, never failed over — same
    /// discipline as [`ReplicaSet::post_json`]).  It goes to the owning
    /// group, or to the next group round the ring when `misroute` is set.
    /// A group that disclaims the tenant with `wrong_owner` gets exactly one
    /// re-route to the owner it names: a second `wrong_owner` (a ring the
    /// servers disagree on) is returned as-is rather than chased.
    ///
    /// # Errors
    /// The addressed group's transport error.
    pub fn send(
        &mut self,
        tenant: &str,
        target: &str,
        body: Option<&str>,
        misroute: bool,
    ) -> NetResult<FailoverResponse> {
        let owner = self.ring.owner_index(tenant);
        let group = if misroute {
            (owner + 1) % self.groups.len()
        } else {
            owner
        };
        let first = self.send_to(group, target, body)?;
        let Some(owner_name) = wrong_owner_group(&first.response) else {
            return Ok(first);
        };
        let Some(owner_idx) = self.ring.group_index(&owner_name) else {
            return Ok(first); // the server names a group this ring lacks
        };
        if owner_idx == group {
            return Ok(first); // self-contradictory answer; don't loop
        }
        if let Some(stats) = &self.stats {
            stats.reroutes.fetch_add(1, Ordering::Relaxed);
        }
        self.send_to(owner_idx, target, body)
    }

    fn send_to(
        &mut self,
        group: usize,
        target: &str,
        body: Option<&str>,
    ) -> NetResult<FailoverResponse> {
        match body {
            None => self.groups[group].get(target),
            Some(body) => self.groups[group].post_json(target, body),
        }
    }

    /// `POST /v1/query` to the next coordinator group in round-robin order.
    /// Glob plans are ownership-free: any group coordinates, scattering to
    /// its ring peers server-side for the tenants it does not hold.
    ///
    /// # Errors
    /// The coordinator group's transport error (plan POSTs are never
    /// retried or failed over across groups — same discipline as
    /// [`ReplicaSet::post_json`]).
    pub fn post_plan(&mut self, body: &str) -> NetResult<FailoverResponse> {
        let coordinator = self.plan_cursor % self.groups.len();
        self.plan_cursor = self.plan_cursor.wrapping_add(1);
        self.groups[coordinator].post_json("/v1/query", body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{GroupConfig, RingConfig};

    fn make_ring(names: &[&str]) -> Arc<HashRing> {
        Arc::new(
            HashRing::new(RingConfig::new(
                names
                    .iter()
                    .map(|n| GroupConfig {
                        name: (*n).to_string(),
                        addrs: vec!["127.0.0.1:1".into()],
                    })
                    .collect(),
            ))
            .unwrap(),
        )
    }

    #[test]
    fn wrong_owner_bodies_parse() {
        let body = br#"{"error":{"code":"wrong_owner","message":"nope","owner":{"group":"group-1","addrs":["127.0.0.1:9"]}}}"#;
        let response = ClientResponse {
            status: 421,
            headers: Vec::new(),
            body: body.to_vec(),
        };
        assert_eq!(wrong_owner_group(&response).as_deref(), Some("group-1"));
        let ok = ClientResponse {
            status: 200,
            headers: Vec::new(),
            body: body.to_vec(),
        };
        assert_eq!(wrong_owner_group(&ok), None, "status gates the parse");
        let other = ClientResponse {
            status: 421,
            headers: Vec::new(),
            body: br#"{"error":{"code":"not_found","message":"x"}}"#.to_vec(),
        };
        assert_eq!(wrong_owner_group(&other), None, "code gates the parse");
    }

    #[test]
    fn fleet_rejects_mismatched_address_groups() {
        let ring = make_ring(&["a", "b"]);
        let err = RoutedFleet::new(
            ring,
            &[vec!["127.0.0.1:1".into()]],
            &ReplicaConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn fleet_routes_by_ring_owner() {
        let ring = make_ring(&["a", "b", "c"]);
        let addrs: Vec<Vec<String>> = ring.groups().iter().map(|g| g.addrs.clone()).collect();
        let fleet = RoutedFleet::new(Arc::clone(&ring), &addrs, &ReplicaConfig::default()).unwrap();
        for i in 0..100 {
            let tenant = format!("tenant-{i}");
            assert_eq!(fleet.owner_index(&tenant), ring.owner_index(&tenant));
        }
    }
}
