//! Replica-side catalog synchronisation: bootstrap from a peer, then poll
//! for deltas.
//!
//! The protocol is two GETs.  `/v1/_sync/manifest` returns the peer's
//! **version vector** — every published `(tenant, dataset)` with its
//! current version.  `/v1/_sync/sketch?tenant=&dataset=` returns one
//! entry's sketch bytes in the checksummed `opaq_storage::sketch_codec`
//! frame, with the served version in `x-opaq-version` — the version and the
//! bytes travel as one atomic pair.
//!
//! Reconciliation is a per-entry version-vector merge: an entry is fetched
//! and applied iff the peer's version is **strictly greater** than the
//! local one, and it is applied at the peer's exact version number
//! ([`SketchCatalog::publish_at`]) so a replica serves the same
//! `(version, bytes)` truth as its source — the invariant the cross-replica
//! byte-for-byte verifier keys on.  Stale offers (a concurrent sync already
//! applied a newer version) are skipped, never errors: version vectors only
//! move forward.  The same [`sync_once`] pass serves both cold bootstrap
//! (empty local vector: everything is a delta) and steady-state catch-up, so
//! a replica that was down for ten versions and one that missed a single
//! publish converge through the identical code path.

use crate::backoff::Backoff;
use crate::client::HttpClient;
use crate::json::Json;
use crate::replica::ReplicationStats;
use crate::server::VERSION_HEADER;
use crate::{NetError, NetResult};
use opaq_core::QuantileSketch;
use opaq_metrics::trace::{SpanRecorder, SpanTag, Stage, TraceSink};
use opaq_serve::{DatasetId, ServeError, SketchCatalog, TenantId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One row of a peer's version vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// Tenant identifier.
    pub tenant: String,
    /// Dataset identifier.
    pub dataset: String,
    /// The peer's current version for the entry.
    pub version: u64,
}

/// Percent-encode a string for use inside a query-parameter value.
fn encode_query_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Fetch the peer's version vector from `GET /v1/_sync/manifest`.
///
/// # Errors
/// Transport failures, non-200 statuses, or a malformed manifest body.
pub fn fetch_manifest(client: &mut HttpClient) -> NetResult<Vec<PeerEntry>> {
    let response = client.get("/v1/_sync/manifest")?;
    if response.status != 200 {
        return Err(NetError::Protocol(format!(
            "sync manifest returned status {}",
            response.status
        )));
    }
    let parsed = Json::parse(response.body_str()?)
        .map_err(|e| NetError::Protocol(format!("sync manifest body: {e}")))?;
    let Some(entries) = parsed.get("entries").and_then(|v| v.as_array()) else {
        return Err(NetError::Protocol(
            "sync manifest body has no entries array".into(),
        ));
    };
    entries
        .iter()
        .map(|item| {
            let field = |key: &str| {
                item.get(key)
                    .ok_or_else(|| NetError::Protocol(format!("sync manifest entry missing {key}")))
            };
            Ok(PeerEntry {
                tenant: field("tenant")?
                    .as_str()
                    .ok_or_else(|| NetError::Protocol("tenant is not a string".into()))?
                    .to_owned(),
                dataset: field("dataset")?
                    .as_str()
                    .ok_or_else(|| NetError::Protocol("dataset is not a string".into()))?
                    .to_owned(),
                version: field("version")?
                    .as_u64()
                    .ok_or_else(|| NetError::Protocol("version is not an integer".into()))?,
            })
        })
        .collect()
}

/// Fetch one entry's sketch from the peer: the `(version, sketch)` pair the
/// sync endpoint snapshotted atomically.
///
/// # Errors
/// Transport failures, non-200 statuses, a missing version header, or
/// sketch bytes that fail the codec's checksum/structure validation.
pub fn fetch_sketch(
    client: &mut HttpClient,
    tenant: &str,
    dataset: &str,
) -> NetResult<(u64, QuantileSketch<u64>)> {
    let target = format!(
        "/v1/_sync/sketch?tenant={}&dataset={}",
        encode_query_value(tenant),
        encode_query_value(dataset)
    );
    let response = client.get(&target)?;
    if response.status != 200 {
        return Err(NetError::Protocol(format!(
            "sync sketch for {tenant}/{dataset} returned status {}",
            response.status
        )));
    }
    let version: u64 = response
        .header(VERSION_HEADER)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| NetError::Protocol("sync sketch response without version header".into()))?;
    let wire = opaq_storage::sketch_codec::from_bytes::<u64>(&response.body)
        .map_err(|e| NetError::Protocol(format!("sync sketch bytes: {e}")))?;
    let sketch = QuantileSketch::from_wire(wire)?;
    Ok((version, sketch))
}

/// One reconciliation pass: diff the peer's version vector against the
/// local catalog and apply every strictly-newer entry at the peer's exact
/// version.  Returns how many entries were applied.  Serves both cold
/// bootstrap and steady-state delta catch-up.
///
/// Each pass runs under one fresh trace sink: its minted id is stamped on
/// every request to the peer (so the peer's `Request` spans land on the
/// same trace), and its `Sync` root span covers the whole pass, tagged
/// `Error` on failure — recorded into `recorder`, or nowhere without one.
///
/// # Errors
/// Transport/protocol failures; a concurrently-advanced local entry
/// ([`ServeError::StaleVersion`]) is skipped, not an error.
pub fn sync_once(
    catalog: &SketchCatalog,
    client: &mut HttpClient,
    stats: Option<&Arc<ReplicationStats>>,
    recorder: Option<&Arc<SpanRecorder>>,
) -> NetResult<u64> {
    let sink = TraceSink::fresh(recorder.cloned());
    client.set_trace_id(Some(sink.trace()));
    let outcome = sync_pass(catalog, client, stats);
    let tag = if outcome.is_ok() {
        SpanTag::Untagged
    } else {
        SpanTag::Error
    };
    sink.finish_root(Stage::Sync, tag);
    outcome
}

/// The body of one reconciliation pass, factored out so [`sync_once`] can
/// wrap it in a `Sync` span regardless of how it exits.
fn sync_pass(
    catalog: &SketchCatalog,
    client: &mut HttpClient,
    stats: Option<&Arc<ReplicationStats>>,
) -> NetResult<u64> {
    let peer_vector = fetch_manifest(client)?;
    let local: std::collections::BTreeMap<(String, String), u64> = catalog
        .inventory()
        .into_iter()
        .map(|e| ((e.tenant, e.dataset), e.version))
        .collect();
    let mut applied = 0u64;
    for entry in peer_vector {
        let known = local
            .get(&(entry.tenant.clone(), entry.dataset.clone()))
            .copied()
            .unwrap_or(0);
        if entry.version <= known {
            continue;
        }
        let (version, sketch) = fetch_sketch(client, &entry.tenant, &entry.dataset)?;
        if version <= known {
            continue;
        }
        let tenant = TenantId::new(entry.tenant.as_str());
        let dataset = DatasetId::new(entry.dataset.as_str());
        match catalog.publish_at(&tenant, &dataset, sketch, version) {
            Ok(_) => applied += 1,
            // A concurrent sync (or local publish) got there first with an
            // equal-or-newer version: the vector already moved forward.
            Err(ServeError::StaleVersion { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    if applied > 0 {
        if let Some(stats) = stats {
            stats
                .sync_deltas_applied
                .fetch_add(applied, Ordering::Relaxed);
        }
    }
    Ok(applied)
}

/// Cold-start bootstrap: one blocking [`sync_once`] against `peer`.
/// Returns how many entries were applied.  Callers bootstrap *before*
/// exposing the replica so it never serves an empty catalog it is about to
/// overwrite.
///
/// # Errors
/// As for [`sync_once`].
pub fn bootstrap(
    catalog: &SketchCatalog,
    peer: &str,
    stats: Option<&Arc<ReplicationStats>>,
    recorder: Option<&Arc<SpanRecorder>>,
) -> NetResult<u64> {
    let mut client = HttpClient::new(peer).with_read_timeout(Duration::from_secs(10));
    sync_once(catalog, &mut client, stats, recorder)
}

/// Background delta-polling thread: a [`sync_once`] against the peer every
/// `poll` interval, with capped jittered backoff replacing the interval
/// while the peer is unreachable.
pub struct Replicator {
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator").finish_non_exhaustive()
    }
}

impl Replicator {
    /// Start polling `peer` for catalog deltas every `poll`.  When
    /// `recorder` is given, every pass records a `Sync` root span under a
    /// freshly-minted trace that is also stamped on the requests to the
    /// peer.
    pub fn start(
        catalog: Arc<SketchCatalog>,
        peer: impl Into<String>,
        poll: Duration,
        stats: Option<Arc<ReplicationStats>>,
        recorder: Option<Arc<SpanRecorder>>,
    ) -> Self {
        let peer = peer.into();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("opaq-replicator".to_string())
                .spawn(move || {
                    let mut client = HttpClient::new(peer.clone())
                        .with_read_timeout(Duration::from_secs(5))
                        .with_connect_timeout(Duration::from_millis(500));
                    let seed = peer.bytes().fold(0x5265_706cu64, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                    let mut backoff =
                        Backoff::new(Duration::from_millis(50), Duration::from_secs(5), seed);
                    while !shutdown.load(Ordering::Acquire) {
                        let wait = match sync_once(
                            &catalog,
                            &mut client,
                            stats.as_ref(),
                            recorder.as_ref(),
                        ) {
                            Ok(_) => {
                                backoff.reset();
                                poll
                            }
                            Err(_) => backoff.next_delay(),
                        };
                        // Sleep in small slices so shutdown stays prompt.
                        let mut remaining = wait;
                        while !remaining.is_zero() && !shutdown.load(Ordering::Acquire) {
                            let slice = remaining.min(Duration::from_millis(20));
                            std::thread::sleep(slice);
                            remaining = remaining.saturating_sub(slice);
                        }
                    }
                })
                .expect("spawning the replicator thread cannot fail")
        };
        Self {
            shutdown,
            handle: Some(handle),
        }
    }

    /// Stop polling and join the thread.  Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.shutdown();
    }
}
