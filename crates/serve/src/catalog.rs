//! The versioned, multi-tenant sketch catalog.
//!
//! A [`SketchCatalog`] maps `(tenant, dataset)` to an immutable
//! `Arc<QuantileSketch<u64>>` snapshot tagged with a monotonically increasing
//! **version** (the entry's epoch).  The concurrency discipline:
//!
//! * **Writers build outside, swap inside.**  A refresh builds its sketch
//!   with no catalog locks held; [`SketchCatalog::publish`] then takes the
//!   entry's write lock only to swap one `Arc` and bump the version.  The
//!   critical section is a pointer assignment, so even a publish storm
//!   cannot stall readers for longer than that.
//! * **Readers snapshot, then compute.**  [`SketchCatalog::snapshot`] clones
//!   the `Arc` under the entry's read lock and releases it; all quantile
//!   work happens on the reader's own snapshot.  A snapshot is therefore
//!   always a *complete* published version — there is no observable state in
//!   which part of a new sketch has replaced part of an old one — and it
//!   stays valid (and allocated) for as long as the reader holds it, no
//!   matter how many newer versions land meanwhile.
//! * **Cold tenants spill, hot tenants stay.**  With a configured budget
//!   (in sample points, the paper's `r·s` memory unit) the catalog drops
//!   least-recently-touched entries from memory.  A budget requires a
//!   durable [`CatalogConfig::data_dir`], whose synced per-version sketch
//!   file already holds the evicted bytes; the next query reloads that file
//!   through [`opaq_storage::sketch_codec`], re-validating checksum and
//!   sketch invariants on the way in.
//! * **TTL is stale-while-refresh, never stale-and-block.**  An entry may
//!   carry a `max_age` (per entry via [`SketchCatalog::set_ttl`], or a
//!   catalog-wide [`CatalogConfig::default_max_age`]).  An expired entry
//!   keeps serving its last complete version; the snapshot is merely tagged
//!   ([`Freshness::Stale`], or [`Freshness::Refreshing`] once the first
//!   expired access has routed the entry to the installed refresh hook —
//!   at most one in-flight refresh per entry).  The next publish resets the
//!   clock and the tag in the same step.

use crate::{ServeError, ServeResult};
use opaq_core::QuantileSketch;
use opaq_storage::manifest::{self, AppendFault, ManifestRecord, ManifestWriter};
use opaq_storage::sketch_codec;
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one tenant of the serving layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

/// Identifies one dataset within a tenant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(String);

macro_rules! impl_id {
    ($ty:ident) => {
        impl $ty {
            /// Create an id from any string-like value.
            pub fn new(id: impl Into<String>) -> Self {
                Self(id.into())
            }

            /// The id as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $ty {
            fn from(id: &str) -> Self {
                Self(id.to_string())
            }
        }

        impl From<String> for $ty {
            fn from(id: String) -> Self {
                Self(id)
            }
        }

        // Lets the nested catalog maps be probed with `&str`, so the
        // per-query lookup path allocates nothing.  Consistent with the
        // derived `Hash`/`Eq`: a newtype over `String` hashes exactly like
        // the `str` it borrows as.
        impl std::borrow::Borrow<str> for $ty {
            fn borrow(&self) -> &str {
                &self.0
            }
        }
    };
}

impl_id!(TenantId);
impl_id!(DatasetId);

type CatalogKey = (TenantId, DatasetId);

/// Age-based staleness of a served snapshot relative to its entry's TTL.
///
/// Staleness is *stale-while-refresh*: an expired entry keeps serving its
/// last complete version (readers are never blocked and never see an error
/// just because data aged out) — the tag tells the caller how old the answer
/// is, and whether a replacement is already being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// The snapshot is within its entry's `max_age` (or the entry has no
    /// TTL configured).
    Fresh,
    /// The snapshot outlived its `max_age` and no background refresh is in
    /// flight (no refresh hook installed, or the previous refresh aborted).
    Stale,
    /// The snapshot outlived its `max_age` and a background refresh is in
    /// flight; the entry keeps serving this version until the new one is
    /// published with the usual epoch swap.
    Refreshing,
}

impl Freshness {
    /// Stable lower-case wire form (`fresh` / `stale` / `refreshing`),
    /// carried verbatim in the HTTP `X-Opaq-Freshness` response header.
    pub fn as_str(self) -> &'static str {
        match self {
            Freshness::Fresh => "fresh",
            Freshness::Stale => "stale",
            Freshness::Refreshing => "refreshing",
        }
    }

    /// Parse the wire form produced by [`Freshness::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fresh" => Some(Freshness::Fresh),
            "stale" => Some(Freshness::Stale),
            "refreshing" => Some(Freshness::Refreshing),
            _ => None,
        }
    }
}

impl fmt::Display for Freshness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Called (at most once per expiry) when a snapshot finds its entry past
/// `max_age`; typically submits a re-ingest to a `RefreshPool`.  Returns
/// whether a refresh really is in flight now: `false` (pool gone, submit
/// rejected) clears the in-flight flag again, so the entry reports
/// [`Freshness::Stale`] and a later snapshot may re-try the hook.
pub type RefreshHook = Box<dyn Fn(&TenantId, &DatasetId) -> bool + Send + Sync>;

/// How a [`SketchSnapshot`] was served — the provenance a request trace
/// records for each catalog access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotOrigin {
    /// Served from the resident in-memory slot.
    #[default]
    Hit,
    /// The entry had been evicted; this access reloaded it from its
    /// durable version file (checksum-validated) on the query path.
    ReloadFromSpill,
}

impl SnapshotOrigin {
    /// Stable lower-case wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            SnapshotOrigin::Hit => "hit",
            SnapshotOrigin::ReloadFromSpill => "reload-from-spill",
        }
    }
}

/// One complete published version of an entry's sketch.  Cheap to clone
/// (an `Arc` bump); queries run against the snapshot with no catalog locks.
#[derive(Debug, Clone)]
pub struct SketchSnapshot {
    /// The entry's epoch this snapshot belongs to (1 for the first publish).
    pub version: u64,
    /// The immutable sketch of that version.
    pub sketch: Arc<QuantileSketch<u64>>,
    /// Whether the version is within its TTL at the time of the snapshot.
    pub freshness: Freshness,
    /// Whether the snapshot hit the resident slot or reloaded an evicted
    /// entry from disk.
    pub origin: SnapshotOrigin,
    /// Whether *this* access was the one that fired the TTL refresh hook
    /// (at most one access per expiry wins that race).
    pub refresh_triggered: bool,
}

/// One row of [`SketchCatalog::inventory`]: a published entry and its
/// current version — the unit of the catalog's version vector.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct InventoryEntry {
    /// Tenant identifier, as raw string for wire encoding.
    pub tenant: String,
    /// Dataset identifier, as raw string for wire encoding.
    pub dataset: String,
    /// The entry's current version epoch.
    pub version: u64,
}

/// Where an entry's current version lives.
#[derive(Debug)]
enum Slot {
    /// In memory, servable with an `Arc` clone.
    Resident {
        version: u64,
        sketch: Arc<QuantileSketch<u64>>,
        /// In durable mode, the synced on-disk copy of this exact version
        /// (written before the manifest record that announced it).  Eviction
        /// drops residency without rewriting anything.  `None` in
        /// memory-only catalogs, which never evict.
        disk: Option<PathBuf>,
    },
    /// Evicted: only the version's durable file holds it; reloaded (and
    /// re-validated) on next access.
    Spilled { version: u64, path: PathBuf },
}

/// Sentinel for "no TTL configured" in [`Entry::ttl_nanos`].
const NO_TTL: u64 = u64::MAX;

#[derive(Debug)]
struct Entry {
    slot: RwLock<Slot>,
    /// Logical LRU timestamp (catalog clock tick of the last access).
    last_touch: AtomicU64,
    /// Wall-clock nanos (relative to the catalog's epoch instant) of the
    /// last publish; drives TTL expiry.
    published_at_nanos: AtomicU64,
    /// The entry's `max_age` in nanos ([`NO_TTL`] = never expires).
    ttl_nanos: AtomicU64,
    /// Whether a background refresh triggered by TTL expiry is in flight.
    /// Set by the snapshot that fires the refresh hook, cleared by the next
    /// publish (or by [`SketchCatalog::refresh_aborted`] on failure).
    refreshing: AtomicBool,
}

/// Configuration of a [`SketchCatalog`].
///
/// Marked `#[non_exhaustive]`: construct it with [`CatalogConfig::builder`]
/// (or start from [`CatalogConfig::default`]), so future knobs can land
/// without breaking downstream construction sites.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct CatalogConfig {
    /// Maximum resident sample points across all entries; `None` = unbounded.
    /// The most-recently-used entry is never evicted, so a budget smaller
    /// than a single sketch degenerates to "keep exactly the hot entry".
    /// Requires [`Self::data_dir`]: an evicted entry lives on in its durable
    /// version file.
    pub budget_sample_points: Option<u64>,
    /// Default `max_age` applied to every new entry (overridable per entry
    /// with [`SketchCatalog::set_ttl`]); `None` = entries never expire.
    pub default_max_age: Option<Duration>,
    /// Durable mode: directory holding the write-ahead manifest
    /// ([`MANIFEST_FILE`]) plus one synced sketch file per published
    /// version.  Every publish/evict/TTL change appends a manifest record
    /// *before* the in-memory epoch swap, and a catalog constructed over an
    /// existing data dir replays the log to rebuild the exact entries,
    /// versions and TTLs.  It is also the catalog's only disk tier:
    /// evicting an entry logs an `Evict` record and drops residency, and
    /// the next access reloads the version file.
    pub data_dir: Option<PathBuf>,
}

/// File name of the write-ahead publication log inside
/// [`CatalogConfig::data_dir`].
pub const MANIFEST_FILE: &str = "catalog.manifest";

impl CatalogConfig {
    /// Start building a validated configuration.
    pub fn builder() -> CatalogConfigBuilder {
        CatalogConfigBuilder::default()
    }
}

/// Builder for [`CatalogConfig`] — see [`CatalogConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct CatalogConfigBuilder {
    config: CatalogConfig,
}

impl CatalogConfigBuilder {
    /// Cap resident sample points across all entries (must be positive;
    /// requires [`Self::data_dir`]).
    pub fn budget_sample_points(mut self, budget: u64) -> Self {
        self.config.budget_sample_points = Some(budget);
        self
    }

    /// Default `max_age` for every new entry.
    pub fn default_max_age(mut self, max_age: Duration) -> Self {
        self.config.default_max_age = Some(max_age);
        self
    }

    /// Durable mode: write-ahead manifest plus per-version sketch files in
    /// `dir`, replayed on construction — see [`CatalogConfig::data_dir`].
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.data_dir = Some(dir.into());
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] for a zero eviction budget or a budget
    /// without a data directory (the same checks [`SketchCatalog::new`]
    /// enforces, surfaced before a catalog is ever constructed).
    pub fn build(self) -> ServeResult<CatalogConfig> {
        validate_config(&self.config)?;
        Ok(self.config)
    }
}

fn validate_config(config: &CatalogConfig) -> ServeResult<()> {
    if config.budget_sample_points == Some(0) {
        return Err(ServeError::InvalidConfig(
            "eviction budget must be positive (omit it for an unbounded catalog)".into(),
        ));
    }
    if config.budget_sample_points.is_some() && config.data_dir.is_none() {
        return Err(ServeError::InvalidConfig(
            "an eviction budget requires a durable data directory to evict into".into(),
        ));
    }
    Ok(())
}

/// Monotonic counters describing what a catalog has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CatalogStats {
    /// Number of versions published (across all entries).
    pub publishes: u64,
    /// Number of snapshots handed out.
    pub snapshots: u64,
    /// Number of entries evicted (dropped from memory; their version file
    /// stays on disk).
    pub evictions: u64,
    /// Number of entries reloaded from disk.
    pub reloads: u64,
    /// Number of evictions whose manifest record failed to append (the
    /// victim stayed resident; the triggering publish/read still succeeded).
    pub spill_failures: u64,
    /// Number of snapshots served past their TTL (tagged `stale` or
    /// `refreshing`).
    pub stale_snapshots: u64,
    /// Number of background refreshes triggered by TTL expiry (refresh-hook
    /// invocations).
    pub ttl_refreshes: u64,
    /// Number of entries currently in the catalog (resident or spilled).
    pub entries: u64,
    /// Sample points currently held in memory.
    pub resident_sample_points: u64,
    /// Number of times this catalog rebuilt itself from an existing
    /// manifest (0 for a fresh data dir or a memory-only catalog; 1 after a
    /// restart recovery — the counter is per catalog instance).
    pub recoveries: u64,
    /// Manifest records backing the catalog: records replayed at recovery
    /// plus records appended since (0 in memory-only catalogs).
    pub manifest_records: u64,
    /// Orphaned sketch files found at recovery (present in the data dir but
    /// absent from the manifest — the residue of a crash between sketch
    /// write and manifest append) and deleted rather than silently leaked.
    pub orphan_spills_removed: u64,
}

/// What a durable catalog rebuilt from its data directory at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Entries restored from the manifest.
    pub entries: u64,
    /// Complete manifest records replayed.
    pub records_replayed: u64,
    /// Bytes of incomplete record truncated from the manifest tail (the
    /// residue of a crash mid-append; 0 for a clean shutdown).
    pub torn_tail_bytes: u64,
    /// Orphaned sketch files deleted — see
    /// [`CatalogStats::orphan_spills_removed`].
    pub orphan_spills_removed: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    publishes: AtomicU64,
    snapshots: AtomicU64,
    evictions: AtomicU64,
    reloads: AtomicU64,
    spill_failures: AtomicU64,
    stale_snapshots: AtomicU64,
    ttl_refreshes: AtomicU64,
    manifest_records: AtomicU64,
}

/// The versioned multi-tenant sketch catalog.  See the module docs for the
/// locking discipline; all methods take `&self` and are safe to call from
/// any number of threads.
pub struct SketchCatalog {
    /// Nested rather than tuple-keyed so lookups borrow `&str` and the
    /// per-query path performs no allocation.
    entries: RwLock<HashMap<TenantId, HashMap<DatasetId, Arc<Entry>>>>,
    clock: AtomicU64,
    resident_points: AtomicU64,
    config: CatalogConfig,
    stats: StatsInner,
    /// Monotonic origin for `published_at_nanos` timestamps.
    epoch: Instant,
    /// Invoked when a snapshot finds its entry past `max_age`.
    refresh_hook: RwLock<Option<RefreshHook>>,
    /// Durable mode: the write-ahead log every publish/evict/TTL change
    /// appends to (synced) before the in-memory swap.
    manifest: Option<Mutex<ManifestWriter>>,
    /// What construction rebuilt from an existing data dir, if anything.
    recovery: Option<RecoveryReport>,
    /// 1 when construction replayed a pre-existing manifest.
    recoveries: u64,
}

impl fmt::Debug for SketchCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SketchCatalog")
            .field("entries", &self.len())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SketchCatalog {
    /// Create a catalog.  With [`CatalogConfig::data_dir`] set, an existing
    /// manifest is replayed (truncating any torn tail a crash left) and the
    /// catalog rebuilds its exact entries, versions and TTLs; every restored
    /// entry starts memory-cold (spilled to disk) and reloads on first
    /// access.  Restored TTLs are measured from recovery time — the
    /// original publish instant does not survive a restart, so an entry is
    /// never *born* stale.  Orphaned sketch files (on disk but absent from
    /// the manifest) are deleted and counted, never silently leaked.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] for the invalid shapes
    /// [`CatalogConfigBuilder::build`] rejects; typed
    /// [`opaq_storage::StorageError::Corrupt`] /
    /// [`opaq_storage::StorageError::VersionMismatch`] for a damaged
    /// manifest record; I/O errors from the directories or the log.
    pub fn new(config: CatalogConfig) -> ServeResult<Self> {
        validate_config(&config)?;

        let mut entries = HashMap::<TenantId, HashMap<DatasetId, Arc<Entry>>>::new();
        let mut manifest_writer = None;
        let mut recovery = None;
        let mut recoveries = 0;
        let mut replayed_records = 0;
        if let Some(dir) = &config.data_dir {
            std::fs::create_dir_all(dir).map_err(opaq_storage::StorageError::Io)?;
            let manifest_path = dir.join(MANIFEST_FILE);
            let had_history = manifest_path.exists();
            let replayed = manifest::replay_and_truncate(&manifest_path)?;

            // Fold the log into per-entry truth: the last Publish wins the
            // version and file, later TtlSet records override the TTL, and
            // Evict records change nothing recovery cares about (the entry
            // is restored memory-cold either way).
            let mut state = BTreeMap::<(String, String), (u64, u64, String)>::new();
            for record in &replayed.records {
                match record {
                    ManifestRecord::Publish {
                        tenant,
                        dataset,
                        version,
                        ttl_nanos,
                        sketch_file,
                    } => {
                        state.insert(
                            (tenant.clone(), dataset.clone()),
                            (*version, *ttl_nanos, sketch_file.clone()),
                        );
                    }
                    ManifestRecord::Evict { .. } => {}
                    ManifestRecord::TtlSet {
                        tenant,
                        dataset,
                        ttl_nanos,
                    } => {
                        if let Some((_, ttl, _)) = state.get_mut(&(tenant.clone(), dataset.clone()))
                        {
                            *ttl = *ttl_nanos;
                        }
                    }
                }
            }

            let mut live_files = HashSet::new();
            for ((tenant, dataset), (version, ttl_nanos, sketch_file)) in state {
                live_files.insert(sketch_file.clone());
                entries.entry(TenantId::from(tenant)).or_default().insert(
                    DatasetId::from(dataset),
                    Arc::new(Entry {
                        slot: RwLock::new(Slot::Spilled {
                            version,
                            path: dir.join(&sketch_file),
                        }),
                        last_touch: AtomicU64::new(0),
                        published_at_nanos: AtomicU64::new(0),
                        ttl_nanos: AtomicU64::new(ttl_nanos),
                        refreshing: AtomicBool::new(false),
                    }),
                );
            }

            // Orphan scan: a crash between "sketch file synced" and
            // "manifest record appended" leaves a file no record points at.
            // Reap it (and count it) instead of leaking it forever.
            let mut orphans_removed = 0;
            let listing = std::fs::read_dir(dir).map_err(opaq_storage::StorageError::Io)?;
            for dir_entry in listing.flatten() {
                let path = dir_entry.path();
                let is_sketch = path.extension().is_some_and(|ext| ext == "sketch");
                let name = dir_entry.file_name();
                let adopted = name.to_str().is_some_and(|n| live_files.contains(n));
                if is_sketch && !adopted && std::fs::remove_file(&path).is_ok() {
                    orphans_removed += 1;
                }
            }

            let restored = entries.values().map(HashMap::len).sum::<usize>() as u64;
            replayed_records = replayed.records.len() as u64;
            recoveries = u64::from(had_history);
            recovery = Some(RecoveryReport {
                entries: restored,
                records_replayed: replayed_records,
                torn_tail_bytes: replayed.torn_tail_bytes,
                orphan_spills_removed: orphans_removed,
            });
            manifest_writer = Some(Mutex::new(ManifestWriter::open(manifest_path)?));
        }

        let stats = StatsInner::default();
        stats
            .manifest_records
            .store(replayed_records, Ordering::Relaxed);
        Ok(Self {
            entries: RwLock::new(entries),
            clock: AtomicU64::new(0),
            resident_points: AtomicU64::new(0),
            config,
            stats,
            epoch: Instant::now(),
            refresh_hook: RwLock::new(None),
            manifest: manifest_writer,
            recovery,
            recoveries,
        })
    }

    /// What construction rebuilt from an existing data directory; `None`
    /// for memory-only catalogs.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Arm a one-shot fault on the next manifest append — test
    /// instrumentation for crash-recovery coverage (no-op in memory-only
    /// catalogs).
    pub fn inject_manifest_fault(&self, fault: AppendFault) {
        if let Some(manifest) = &self.manifest {
            manifest.lock().inject_fault(fault);
        }
    }

    /// Append one record to the write-ahead log (durable mode only),
    /// syncing before return — the fsync point publication correctness
    /// hangs on.
    fn manifest_append(&self, record: &ManifestRecord) -> ServeResult<()> {
        if let Some(manifest) = &self.manifest {
            manifest.lock().append(record)?;
            self.stats.manifest_records.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Create an unbounded in-memory catalog (no eviction).
    pub fn unbounded() -> Self {
        Self::new(CatalogConfig::default()).expect("default config is valid")
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn touch(&self, entry: &Entry) {
        entry.last_touch.store(self.tick(), Ordering::Relaxed);
    }

    /// Nanoseconds since the catalog's epoch instant (saturating at u64).
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Install the hook fired (once per expiry) when a snapshot finds an
    /// entry past its `max_age`.  The hook runs on the snapshotting thread
    /// and must be cheap — typically a `RefreshPool::submit_ingest` — and
    /// must not call back into a catalog method that takes the same entry's
    /// write lock synchronously.
    pub fn set_refresh_hook(&self, hook: RefreshHook) {
        *self.refresh_hook.write() = Some(hook);
    }

    /// Set (or clear, with `None`) the `max_age` of one entry.  Takes effect
    /// on the next snapshot; the age is measured from the entry's last
    /// publish.
    ///
    /// # Errors
    /// [`ServeError::UnknownEntry`] if nothing was ever published for the key.
    pub fn set_ttl(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        max_age: Option<Duration>,
    ) -> ServeResult<()> {
        let entry = self
            .entry(tenant, dataset)
            .ok_or_else(|| ServeError::UnknownEntry {
                tenant: tenant.clone(),
                dataset: dataset.clone(),
            })?;
        let nanos = max_age.map_or(NO_TTL, |age| {
            (age.as_nanos().min(u64::MAX as u128) as u64).min(NO_TTL - 1)
        });
        // Durable mode: announce the change before applying it, so a
        // restart rebuilds the same TTL.
        self.manifest_append(&ManifestRecord::TtlSet {
            tenant: tenant.as_str().to_owned(),
            dataset: dataset.as_str().to_owned(),
            ttl_nanos: nanos,
        })?;
        entry.ttl_nanos.store(nanos, Ordering::Relaxed);
        Ok(())
    }

    /// Tell the catalog that a TTL-triggered background refresh gave up
    /// (build or publish failed), so the next expired snapshot may trigger
    /// another one instead of reporting `refreshing` forever.
    pub fn refresh_aborted(&self, tenant: &TenantId, dataset: &DatasetId) {
        if let Some(entry) = self.entry(tenant, dataset) {
            entry.refreshing.store(false, Ordering::Release);
        }
    }

    /// Classify `entry`'s age and fire the refresh hook on the first expired
    /// snapshot.  Runs with no slot lock held: the fields involved are all
    /// atomics, and serving a (possibly just-superseded) tag is harmless.
    /// The second return is whether *this* call fired the refresh hook —
    /// provenance the snapshot carries so a request trace can show which
    /// access paid for the refresh submission.
    fn classify_freshness(
        &self,
        entry: &Entry,
        tenant: &TenantId,
        dataset: &DatasetId,
    ) -> (Freshness, bool) {
        let ttl = entry.ttl_nanos.load(Ordering::Relaxed);
        if ttl == NO_TTL {
            return (Freshness::Fresh, false);
        }
        let age = self
            .now_nanos()
            .saturating_sub(entry.published_at_nanos.load(Ordering::Relaxed));
        if age <= ttl {
            return (Freshness::Fresh, false);
        }
        self.stats.stale_snapshots.fetch_add(1, Ordering::Relaxed);
        if entry.refreshing.load(Ordering::Acquire) {
            return (Freshness::Refreshing, false);
        }
        let hook = self.refresh_hook.read();
        let Some(hook) = hook.as_ref() else {
            return (Freshness::Stale, false);
        };
        // Exactly one expired snapshot wins the CAS and routes the entry to
        // the refresh pipeline; the publish it eventually produces clears
        // the flag (and resets the publish timestamp) in one step.  A hook
        // that could not actually start a refresh (pool shut down or gone)
        // hands the flag back, so the entry degrades to `stale` instead of
        // claiming `refreshing` forever.
        if entry
            .refreshing
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if !hook(tenant, dataset) {
                entry.refreshing.store(false, Ordering::Release);
                return (Freshness::Stale, false);
            }
            self.stats.ttl_refreshes.fetch_add(1, Ordering::Relaxed);
            return (Freshness::Refreshing, true);
        }
        (Freshness::Refreshing, false)
    }

    fn entry(&self, tenant: &TenantId, dataset: &DatasetId) -> Option<Arc<Entry>> {
        self.entries
            .read()
            .get(tenant.as_str())?
            .get(dataset.as_str())
            .cloned()
    }

    fn entry_or_create(&self, tenant: &TenantId, dataset: &DatasetId) -> Arc<Entry> {
        if let Some(entry) = self.entry(tenant, dataset) {
            return entry;
        }
        let mut entries = self.entries.write();
        Arc::clone(
            entries
                .entry(tenant.clone())
                .or_default()
                .entry(dataset.clone())
                .or_insert_with(|| {
                    Arc::new(Entry {
                        // Placeholder until the caller's publish overwrites
                        // it; version 0 is never observable because entries
                        // are only created on the publish path below.
                        slot: RwLock::new(Slot::Resident {
                            version: 0,
                            sketch: Arc::new(placeholder_sketch()),
                            disk: None,
                        }),
                        last_touch: AtomicU64::new(0),
                        published_at_nanos: AtomicU64::new(0),
                        ttl_nanos: AtomicU64::new(
                            self.config.default_max_age.map_or(NO_TTL, |age| {
                                (age.as_nanos().min(u64::MAX as u128) as u64).min(NO_TTL - 1)
                            }),
                        ),
                        refreshing: AtomicBool::new(false),
                    })
                }),
        )
    }

    /// Publish `sketch` as the next version of `(tenant, dataset)` and
    /// return that version.  The swap is an epoch bump: concurrent readers
    /// keep whatever complete version they already snapshotted.
    pub fn publish(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        sketch: QuantileSketch<u64>,
    ) -> ServeResult<u64> {
        self.publish_arc(tenant, dataset, Arc::new(sketch))
    }

    /// [`Self::publish`] for an already-shared sketch.
    ///
    /// In durable mode the swap is write-ahead: the new version's sketch
    /// file is written and synced, then the manifest record is appended and
    /// synced, and only then does the in-memory slot change.  A failure at
    /// either disk step fails the publish with the old version fully intact
    /// — recovery can never observe a version the log does not announce.
    pub fn publish_arc(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        sketch: Arc<QuantileSketch<u64>>,
    ) -> ServeResult<u64> {
        self.publish_inner(tenant, dataset, sketch, None)
    }

    /// Publish `sketch` at an *explicit* version instead of the next local
    /// one — the replication path: a replica applying a peer's entry must
    /// end up serving the peer's exact version number, or the cross-replica
    /// byte-for-byte verifier would flag every failover answer as
    /// mis-versioned.  The offered version must move the entry forward.
    ///
    /// # Errors
    /// [`ServeError::StaleVersion`] if `version` is not strictly greater
    /// than the entry's current version (version vectors never move
    /// backwards); otherwise as for [`Self::publish`].
    pub fn publish_at(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        sketch: QuantileSketch<u64>,
        version: u64,
    ) -> ServeResult<u64> {
        self.publish_inner(tenant, dataset, Arc::new(sketch), Some(version))
    }

    fn publish_inner(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        sketch: Arc<QuantileSketch<u64>>,
        forced_version: Option<u64>,
    ) -> ServeResult<u64> {
        let (entry, version) = loop {
            let entry = self.entry_or_create(tenant, dataset);
            let mut slot = entry.slot.write();
            // version 0 is the placeholder of a just-created entry.
            let first = matches!(&*slot, Slot::Resident { version: 0, .. });
            let retired = |live: Arc<Entry>| !Arc::ptr_eq(&live, &entry);
            if first && self.entry(tenant, dataset).is_none_or(retired) {
                // A failed first publish retired this placeholder while we
                // waited for its lock: start over on the live entry.
                continue;
            }
            match self.swap_in(&entry, &mut slot, tenant, dataset, &sketch, forced_version) {
                Ok(version) => {
                    drop(slot);
                    break (entry, version);
                }
                Err(err) => {
                    if first {
                        // Still holding the slot lock, so no other publisher
                        // can have swapped a version in: drop the placeholder
                        // rather than leave an entry that never held one.
                        self.retire(tenant, dataset, &entry);
                    }
                    return Err(err);
                }
            }
        };
        // Publication resets the TTL clock and completes any in-flight
        // background refresh: the very next snapshot is fresh again.
        entry
            .published_at_nanos
            .store(self.now_nanos(), Ordering::Relaxed);
        entry.refreshing.store(false, Ordering::Release);
        self.touch(&entry);
        self.stats.publishes.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget(tenant, dataset);
        Ok(version)
    }

    /// Remove `entry` from the map if it is still the key's entry.
    fn retire(&self, tenant: &TenantId, dataset: &DatasetId, entry: &Arc<Entry>) {
        let mut entries = self.entries.write();
        let Some(datasets) = entries.get_mut(tenant.as_str()) else {
            return;
        };
        if datasets
            .get(dataset.as_str())
            .is_some_and(|live| Arc::ptr_eq(live, entry))
        {
            datasets.remove(dataset.as_str());
            if datasets.is_empty() {
                entries.remove(tenant.as_str());
            }
        }
    }

    /// Swap `sketch` into `slot` as the entry's next version.
    ///
    /// Everything touching the entry — slot state, version files, its share
    /// of `resident_points` — mutates under its slot lock, which the caller
    /// holds.  Moving the counter updates outside would let an eviction
    /// sweep interleave between swap and subtract and transiently wrap the
    /// u64 counter, which `enforce_budget` would read as "evict the whole
    /// catalog".
    fn swap_in(
        &self,
        entry: &Entry,
        slot: &mut Slot,
        tenant: &TenantId,
        dataset: &DatasetId,
        sketch: &Arc<QuantileSketch<u64>>,
        forced_version: Option<u64>,
    ) -> ServeResult<u64> {
        let (old_version, freed_points, old_disk) = match &*slot {
            Slot::Resident {
                version,
                sketch,
                disk,
            } => {
                let freed = if *version == 0 {
                    0
                } else {
                    sketch.len() as u64
                };
                (*version, freed, disk.clone())
            }
            Slot::Spilled { version, path } => (*version, 0, Some(path.clone())),
        };
        let version = match forced_version {
            None => old_version + 1,
            Some(v) if v > old_version => v,
            Some(v) => {
                return Err(ServeError::StaleVersion {
                    tenant: tenant.clone(),
                    dataset: dataset.clone(),
                    current: old_version,
                    offered: v,
                })
            }
        };
        let disk = if let Some(dir) = &self.config.data_dir {
            // Write-ahead: sketch bytes first, announcement second,
            // both synced before the swap below makes them servable.
            let file_name = durable_file_name(tenant, dataset, version);
            let path = dir.join(&file_name);
            sketch_codec::save_synced(&path, &sketch.to_wire())?;
            let record = ManifestRecord::Publish {
                tenant: tenant.as_str().to_owned(),
                dataset: dataset.as_str().to_owned(),
                version,
                ttl_nanos: entry.ttl_nanos.load(Ordering::Relaxed),
                sketch_file: file_name,
            };
            // On append failure the sketch file is deliberately left in
            // place for recovery to adjudicate: an append error does not
            // prove the record missed the disk (the write may have landed
            // and only the ack was lost, like a DB commit whose response
            // never arrived).  Replay serves the file if the record
            // committed and reaps it as an orphan if it did not; deleting
            // it here would lose a committed version.
            self.manifest_append(&record)?;
            Some(path)
        } else {
            None
        };
        *slot = Slot::Resident {
            version,
            sketch: Arc::clone(sketch),
            disk,
        };
        if let Some(stale) = old_disk {
            // The previous version's file is superseded: the manifest now
            // announces the new one.
            let _ = std::fs::remove_file(stale);
        }
        // Net counter change, add before sub so the transient value is
        // high rather than wrapped-negative.
        self.resident_points
            .fetch_add(sketch.len() as u64, Ordering::Relaxed);
        if freed_points > 0 {
            self.resident_points
                .fetch_sub(freed_points, Ordering::Relaxed);
        }
        Ok(version)
    }

    /// Hand out the current complete version of `(tenant, dataset)`,
    /// transparently reloading it from disk if it was evicted.
    ///
    /// # Errors
    /// [`ServeError::UnknownEntry`] if nothing was ever published for the
    /// key; [`ServeError::Storage`] (typed `Corrupt` / `VersionMismatch` for
    /// damaged bytes) or core errors if an evicted entry's version file
    /// fails to reload.  A failed reload leaves the entry evicted.
    pub fn snapshot(&self, tenant: &TenantId, dataset: &DatasetId) -> ServeResult<SketchSnapshot> {
        let entry = self
            .entry(tenant, dataset)
            .ok_or_else(|| ServeError::UnknownEntry {
                tenant: tenant.clone(),
                dataset: dataset.clone(),
            })?;
        self.touch(&entry);
        let (freshness, refresh_triggered) = self.classify_freshness(&entry, tenant, dataset);

        {
            let slot = entry.slot.read();
            if let Slot::Resident {
                version, sketch, ..
            } = &*slot
            {
                if *version == 0 {
                    // Entry created by a concurrent publish that has not
                    // swapped its real sketch in yet: not observable data.
                    return Err(ServeError::UnknownEntry {
                        tenant: tenant.clone(),
                        dataset: dataset.clone(),
                    });
                }
                self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
                return Ok(SketchSnapshot {
                    version: *version,
                    sketch: Arc::clone(sketch),
                    freshness,
                    origin: SnapshotOrigin::Hit,
                    refresh_triggered,
                });
            }
        }

        // Spilled: take the write lock, re-check (another reader may have
        // won the reload race), then reload and re-validate.
        let snapshot = {
            let mut slot = entry.slot.write();
            match &*slot {
                Slot::Resident {
                    version, sketch, ..
                } => SketchSnapshot {
                    version: *version,
                    sketch: Arc::clone(sketch),
                    freshness,
                    origin: SnapshotOrigin::Hit,
                    refresh_triggered,
                },
                Slot::Spilled { version, path } => {
                    // The version file stays: it is the entry's persistence,
                    // and a re-eviction just drops residency again.
                    let sketch = Arc::new(QuantileSketch::from_wire(sketch_codec::load(path)?)?);
                    let reloaded = SketchSnapshot {
                        version: *version,
                        sketch: Arc::clone(&sketch),
                        freshness,
                        origin: SnapshotOrigin::ReloadFromSpill,
                        refresh_triggered,
                    };
                    self.resident_points
                        .fetch_add(sketch.len() as u64, Ordering::Relaxed);
                    self.stats.reloads.fetch_add(1, Ordering::Relaxed);
                    *slot = Slot::Resident {
                        version: *version,
                        disk: Some(path.clone()),
                        sketch,
                    };
                    reloaded
                }
            }
        };
        self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget(tenant, dataset);
        Ok(snapshot)
    }

    /// Evict least-recently-touched resident entries (never `keep`) until
    /// the resident total fits the budget.  A victim's version file already
    /// holds its exact bytes (written and synced at publish), so eviction
    /// rewrites nothing: it appends an `Evict` record and drops residency.
    /// Best-effort in every sense: a concurrent toucher may revive an entry
    /// between selection and eviction (costing an extra reload later, never
    /// correctness), and a failed append only stops the sweep and bumps
    /// [`CatalogStats::spill_failures`] — the victim stays resident and
    /// servable, and the publish or read that triggered the sweep still
    /// succeeds, because its own work already landed.
    fn enforce_budget(&self, keep_tenant: &TenantId, keep_dataset: &DatasetId) {
        let Some(budget) = self.config.budget_sample_points else {
            return;
        };
        while self.resident_points.load(Ordering::Relaxed) > budget {
            // Pick the coldest resident entry other than the kept one.
            let victim = {
                let entries = self.entries.read();
                let mut coldest: Option<(CatalogKey, Arc<Entry>, u64)> = None;
                for (tenant, datasets) in entries.iter() {
                    for (dataset, entry) in datasets.iter() {
                        if tenant == keep_tenant && dataset == keep_dataset {
                            continue;
                        }
                        // try_read: skip entries mid-publish/mid-reload
                        // rather than block the eviction sweep on them.
                        let Some(slot) = entry.slot.try_read() else {
                            continue;
                        };
                        // Only published versions have a file to fall back on.
                        if !matches!(&*slot, Slot::Resident { disk: Some(_), .. }) {
                            continue;
                        }
                        drop(slot);
                        let touch = entry.last_touch.load(Ordering::Relaxed);
                        if coldest.as_ref().is_none_or(|(_, _, t)| touch < *t) {
                            coldest =
                                Some(((tenant.clone(), dataset.clone()), Arc::clone(entry), touch));
                        }
                    }
                }
                coldest
            };
            let Some((key, entry, _)) = victim else {
                // Nothing evictable (only `keep` is resident): budgets are
                // best-effort, the hot entry always stays servable.
                return;
            };
            let mut slot = entry.slot.write();
            if let Slot::Resident {
                version,
                sketch,
                disk: Some(path),
            } = &*slot
            {
                let (version, points, path) = (*version, sketch.len() as u64, path.clone());
                let record = ManifestRecord::Evict {
                    tenant: key.0.as_str().to_owned(),
                    dataset: key.1.as_str().to_owned(),
                    version,
                };
                if self.manifest_append(&record).is_err() {
                    self.stats.spill_failures.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                *slot = Slot::Spilled { version, path };
                self.resident_points.fetch_sub(points, Ordering::Relaxed);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Raced to Spilled by another sweep: loop re-checks the total.
        }
    }

    /// Whether `(tenant, dataset)` has a published sketch (resident or
    /// spilled).
    pub fn contains(&self, tenant: &TenantId, dataset: &DatasetId) -> bool {
        self.entry(tenant, dataset).is_some()
    }

    /// Number of entries (resident or spilled).
    pub fn len(&self) -> usize {
        self.entries.read().values().map(HashMap::len).sum()
    }

    /// Whether the catalog holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All published `(tenant, dataset)` keys, sorted for deterministic
    /// reporting: the keys of [`Self::inventory`], so an entry still on its
    /// version-0 placeholder is omitted and every key named here snapshots.
    pub fn keys(&self) -> Vec<(TenantId, DatasetId)> {
        self.inventory()
            .into_iter()
            .map(|row| (TenantId::from(row.tenant), DatasetId::from(row.dataset)))
            .collect()
    }

    /// The catalog's version vector: every published `(tenant, dataset)`
    /// with its current version, sorted for deterministic wire encoding.
    /// This is what the `/v1/_sync/manifest` endpoint serves and what a
    /// bootstrapping replica diffs against its own catalog — an entry is
    /// fetched iff the peer's version is strictly newer.  Entries still on
    /// their never-observable version-0 placeholder are omitted.
    pub fn inventory(&self) -> Vec<InventoryEntry> {
        let snapshot: Vec<(TenantId, DatasetId, Arc<Entry>)> = self
            .entries
            .read()
            .iter()
            .flat_map(|(tenant, datasets)| {
                datasets
                    .iter()
                    .map(|(dataset, entry)| (tenant.clone(), dataset.clone(), Arc::clone(entry)))
            })
            .collect();
        let mut rows: Vec<InventoryEntry> = snapshot
            .into_iter()
            .filter_map(|(tenant, dataset, entry)| {
                let version = match &*entry.slot.read() {
                    Slot::Resident { version, .. } | Slot::Spilled { version, .. } => *version,
                };
                (version > 0).then(|| InventoryEntry {
                    tenant: tenant.as_str().to_owned(),
                    dataset: dataset.as_str().to_owned(),
                    version,
                })
            })
            .collect();
        rows.sort();
        rows
    }

    /// Sample points currently resident in memory.
    pub fn resident_sample_points(&self) -> u64 {
        self.resident_points.load(Ordering::Relaxed)
    }

    /// Counter snapshot for reporting.
    pub fn stats(&self) -> CatalogStats {
        CatalogStats {
            publishes: self.stats.publishes.load(Ordering::Relaxed),
            snapshots: self.stats.snapshots.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            reloads: self.stats.reloads.load(Ordering::Relaxed),
            spill_failures: self.stats.spill_failures.load(Ordering::Relaxed),
            stale_snapshots: self.stats.stale_snapshots.load(Ordering::Relaxed),
            ttl_refreshes: self.stats.ttl_refreshes.load(Ordering::Relaxed),
            entries: self.len() as u64,
            resident_sample_points: self.resident_sample_points(),
            recoveries: self.recoveries,
            manifest_records: self.stats.manifest_records.load(Ordering::Relaxed),
            orphan_spills_removed: self.recovery.map_or(0, |r| r.orphan_spills_removed),
        }
    }
}

/// A structurally valid 1-element sketch used as the never-observable
/// placeholder of a just-created entry (version 0).
fn placeholder_sketch() -> QuantileSketch<u64> {
    QuantileSketch::assemble(vec![(0, 1)], 1, 1, 1, 0, 0).expect("placeholder sketch is valid")
}

/// Deterministic, filesystem-safe name for the durable copy of one
/// published version: the sanitized tenant and dataset, a hash of the key
/// that tells sanitized collisions apart, and the version.  The version is
/// part of the name because the write-ahead publish writes version `v+1`
/// *next to* version `v`'s file, which stays authoritative until the
/// manifest announces the new one.
fn durable_file_name(tenant: &TenantId, dataset: &DatasetId, version: u64) -> String {
    let sanitize = |s: &str| {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .take(32)
            .collect::<String>()
    };
    let mut hasher = DefaultHasher::new();
    (tenant, dataset).hash(&mut hasher);
    format!(
        "{}--{}--{:016x}--v{version}.sketch",
        sanitize(tenant.as_str()),
        sanitize(dataset.as_str()),
        hasher.finish()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_core::{IncrementalOpaq, OpaqConfig};
    use std::path::Path;

    fn sketch_of(range: std::ops::Range<u64>) -> QuantileSketch<u64> {
        let config = OpaqConfig::builder()
            .run_length(100)
            .sample_size(10)
            .build()
            .unwrap();
        let mut inc = IncrementalOpaq::new(config).unwrap();
        inc.add_run(range.collect()).unwrap();
        inc.into_sketch().unwrap()
    }

    fn key(t: &str, d: &str) -> (TenantId, DatasetId) {
        (TenantId::from(t), DatasetId::from(d))
    }

    #[test]
    fn publish_bumps_versions_and_snapshots_see_them() {
        let catalog = SketchCatalog::unbounded();
        let (t, d) = key("acme", "clicks");
        assert!(!catalog.contains(&t, &d));
        assert_eq!(catalog.publish(&t, &d, sketch_of(0..1000)).unwrap(), 1);
        let v1 = catalog.snapshot(&t, &d).unwrap();
        assert_eq!(v1.version, 1);
        assert_eq!(v1.sketch.total_elements(), 1000);

        assert_eq!(catalog.publish(&t, &d, sketch_of(0..2000)).unwrap(), 2);
        let v2 = catalog.snapshot(&t, &d).unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(v2.sketch.total_elements(), 2000);
        // The old snapshot stays alive and untouched.
        assert_eq!(v1.sketch.total_elements(), 1000);
        assert_eq!(catalog.stats().publishes, 2);
    }

    #[test]
    fn unknown_entries_are_typed_errors() {
        let catalog = SketchCatalog::unbounded();
        let (t, d) = key("ghost", "none");
        let err = catalog.snapshot(&t, &d).unwrap_err();
        assert!(matches!(err, ServeError::UnknownEntry { .. }), "{err}");
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn tenants_and_datasets_are_isolated() {
        let catalog = SketchCatalog::unbounded();
        let (a, d1) = key("a", "x");
        let (b, d2) = key("b", "x");
        catalog.publish(&a, &d1, sketch_of(0..500)).unwrap();
        catalog.publish(&b, &d2, sketch_of(0..900)).unwrap();
        catalog
            .publish(&a, &DatasetId::from("y"), sketch_of(0..100))
            .unwrap();
        assert_eq!(catalog.len(), 3);
        assert_eq!(
            catalog.snapshot(&a, &d1).unwrap().sketch.total_elements(),
            500
        );
        assert_eq!(
            catalog.snapshot(&b, &d2).unwrap().sketch.total_elements(),
            900
        );
        let keys = catalog.keys();
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A fresh directory for one test's durable catalog.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("opaq-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A durable catalog over `dir` holding at most `budget` sample points.
    fn budgeted(dir: &Path, budget: u64) -> SketchCatalog {
        SketchCatalog::new(
            CatalogConfig::builder()
                .budget_sample_points(budget)
                .data_dir(dir)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    /// The `.sketch` files in `dir`, sorted.
    fn version_files(dir: &Path) -> Vec<String> {
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".sketch"))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn eviction_spills_cold_entries_and_reload_restores_them() {
        let dir = temp_dir("evict");
        // Each sketch_of(0..1000) has 100 sample points; allow two.
        let catalog = budgeted(&dir, 200);

        let tenants: Vec<_> = (0..4).map(|i| key(&format!("t{i}"), "data")).collect();
        for (t, d) in &tenants {
            catalog.publish(t, d, sketch_of(0..1000)).unwrap();
        }
        assert!(
            catalog.resident_sample_points() <= 200,
            "resident {} over budget",
            catalog.resident_sample_points()
        );
        let stats = catalog.stats();
        assert!(stats.evictions >= 2, "{stats:?}");

        // Every entry still serves identical estimates, reloading as needed.
        let reference = sketch_of(0..1000);
        for (t, d) in &tenants {
            let snap = catalog.snapshot(t, d).unwrap();
            assert_eq!(snap.version, 1);
            assert_eq!(*snap.sketch, reference);
        }
        assert!(catalog.stats().reloads >= 2);
        // And the budget still holds after the reload churn.
        assert!(catalog.resident_sample_points() <= 200);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reload_then_republish_leaves_only_live_version_files() {
        let dir = temp_dir("orphan");
        let catalog = budgeted(&dir, 100); // exactly one 100-point sketch
        let (a, da) = key("a", "data");
        let (b, db) = key("b", "data");
        catalog.publish(&a, &da, sketch_of(0..1000)).unwrap();
        catalog.publish(&b, &db, sketch_of(0..1000)).unwrap(); // evicts a
        catalog.snapshot(&a, &da).unwrap(); // reloads a, evicts b
                                            // The reload kept a's v1 file; publishing v2 over the resident
                                            // entry supersedes and deletes it, leaving one file per live version.
        catalog.publish(&a, &da, sketch_of(0..2000)).unwrap();
        assert_eq!(
            version_files(&dir),
            vec![durable_file_name(&a, &da, 2), durable_file_name(&b, &db, 1)]
        );
        assert_eq!(catalog.snapshot(&b, &db).unwrap().version, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn eviction_append_failure_degrades_gracefully_instead_of_failing_the_read() {
        let dir = temp_dir("evictfail");
        let catalog = budgeted(&dir, 100);
        let (a, da) = key("a", "data");
        let (b, db) = key("b", "data");
        let (sa, sb) = (sketch_of(0..1000), sketch_of(500..1500));
        catalog.publish(&a, &da, sa.clone()).unwrap();
        catalog.publish(&b, &db, sb.clone()).unwrap(); // evicts a
        assert_eq!(catalog.stats().evictions, 1);
        // Reloading a evicts b; that Evict append fails (and persists
        // nothing), so b must stay resident and the read still succeed.
        catalog.inject_manifest_fault(AppendFault::TornWrite { keep_bytes: 0 });
        let snap = catalog.snapshot(&a, &da).unwrap();
        assert_eq!(*snap.sketch, sa);
        assert_eq!(snap.origin, SnapshotOrigin::ReloadFromSpill);
        let stats = catalog.stats();
        assert_eq!(stats.spill_failures, 1, "{stats:?}");
        assert_eq!(stats.evictions, 1, "{stats:?}");
        // Both entries stay resident and servable (budget is best-effort).
        assert_eq!(catalog.resident_sample_points(), 200);
        let snap = catalog.snapshot(&b, &db).unwrap();
        assert_eq!((snap.origin, &*snap.sketch), (SnapshotOrigin::Hit, &sb));
        assert_eq!(*catalog.snapshot(&a, &da).unwrap().sketch, sa);

        // A restart recovers both byte for byte.
        drop(catalog);
        let recovered = budgeted(&dir, 100);
        assert_eq!(recovered.recovery().unwrap().entries, 2);
        let bytes = |s: &QuantileSketch<u64>| sketch_codec::to_bytes(&s.to_wire());
        for ((t, d), original) in [((&a, &da), &sa), ((&b, &db), &sb)] {
            let snap = recovered.snapshot(t, d).unwrap();
            assert_eq!(snap.version, 1);
            assert_eq!(bytes(&snap.sketch), bytes(original));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn budget_without_data_dir_is_rejected() {
        let err = SketchCatalog::new(CatalogConfig {
            budget_sample_points: Some(100),
            default_max_age: None,
            data_dir: None,
        })
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn builder_validates_and_round_trips() {
        let config = CatalogConfig::builder()
            .budget_sample_points(200)
            .data_dir("/tmp/opaq-data")
            .default_max_age(Duration::from_secs(60))
            .build()
            .unwrap();
        assert_eq!(config.budget_sample_points, Some(200));
        assert_eq!(
            config.data_dir.as_deref(),
            Some(Path::new("/tmp/opaq-data"))
        );
        assert_eq!(config.default_max_age, Some(Duration::from_secs(60)));

        // A zero budget is rejected up front, not at first eviction.
        let err = CatalogConfig::builder()
            .budget_sample_points(0)
            .data_dir("/tmp/opaq-data")
            .build()
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        // As is a budget without a data directory to evict into.
        let err = CatalogConfig::builder()
            .budget_sample_points(100)
            .build()
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        // The empty builder is the unbounded, memory-only default.
        let unbounded = CatalogConfig::builder().build().unwrap();
        assert!(unbounded.budget_sample_points.is_none());
        assert!(unbounded.data_dir.is_none());
    }

    #[test]
    fn publish_over_spilled_entry_supersedes_it() {
        let dir = temp_dir("supersede");
        let catalog = budgeted(&dir, 100);
        let (a, d) = key("a", "data");
        let (b, d2) = key("b", "data");
        catalog.publish(&a, &d, sketch_of(0..1000)).unwrap();
        // Publishing b evicts a (only non-keep entry).
        catalog.publish(&b, &d2, sketch_of(0..1000)).unwrap();
        assert_eq!(catalog.stats().evictions, 1);
        // Publishing a again supersedes the evicted version: version 2, no
        // reload of the stale file.
        assert_eq!(catalog.publish(&a, &d, sketch_of(0..3000)).unwrap(), 2);
        let snap = catalog.snapshot(&a, &d).unwrap();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.sketch.total_elements(), 3000);
        assert_eq!(catalog.stats().reloads, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ttl_expiry_tags_stale_then_refreshing_then_fresh_again() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let (t, d) = key("acme", "clicks");
        catalog.publish(&t, &d, sketch_of(0..1000)).unwrap();
        // No TTL: always fresh.
        assert_eq!(
            catalog.snapshot(&t, &d).unwrap().freshness,
            Freshness::Fresh
        );

        catalog
            .set_ttl(&t, &d, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(
            catalog.snapshot(&t, &d).unwrap().freshness,
            Freshness::Fresh
        );
        std::thread::sleep(Duration::from_millis(10));
        // Expired with no refresh hook installed: stale, and it keeps
        // serving the old complete version (stale-while-refresh).
        let snap = catalog.snapshot(&t, &d).unwrap();
        assert_eq!(snap.freshness, Freshness::Stale);
        assert_eq!(snap.version, 1);
        assert_eq!(snap.sketch.total_elements(), 1000);
        assert!(catalog.stats().stale_snapshots >= 1);
        assert_eq!(catalog.stats().ttl_refreshes, 0);

        // With a hook, the first expired snapshot routes the entry to the
        // refresh pipeline exactly once and tags `refreshing` from then on.
        let fired = Arc::new(AtomicU64::new(0));
        let fired_in_hook = Arc::clone(&fired);
        catalog.set_refresh_hook(Box::new(move |tenant, dataset| {
            assert_eq!(tenant.as_str(), "acme");
            assert_eq!(dataset.as_str(), "clicks");
            fired_in_hook.fetch_add(1, Ordering::Relaxed);
            true
        }));
        for _ in 0..5 {
            assert_eq!(
                catalog.snapshot(&t, &d).unwrap().freshness,
                Freshness::Refreshing
            );
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1, "hook fires once");
        assert_eq!(catalog.stats().ttl_refreshes, 1);

        // The publish the refresh produces resets clock and tag together.
        assert_eq!(catalog.publish(&t, &d, sketch_of(0..2000)).unwrap(), 2);
        let snap = catalog.snapshot(&t, &d).unwrap();
        assert_eq!(snap.freshness, Freshness::Fresh);
        assert_eq!(snap.version, 2);

        // And once it expires again the cycle restarts (a second hook fire).
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(
            catalog.snapshot(&t, &d).unwrap().freshness,
            Freshness::Refreshing
        );
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn aborted_refresh_reopens_the_trigger() {
        let catalog = SketchCatalog::unbounded();
        let (t, d) = key("a", "d");
        catalog.publish(&t, &d, sketch_of(0..100)).unwrap();
        catalog.set_ttl(&t, &d, Some(Duration::ZERO)).unwrap();
        let fired = Arc::new(AtomicU64::new(0));
        let fired_in_hook = Arc::clone(&fired);
        catalog.set_refresh_hook(Box::new(move |_, _| {
            fired_in_hook.fetch_add(1, Ordering::Relaxed);
            true
        }));
        assert_eq!(
            catalog.snapshot(&t, &d).unwrap().freshness,
            Freshness::Refreshing
        );
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        // A failed build reports back; the next snapshot may re-trigger.
        catalog.refresh_aborted(&t, &d);
        assert_eq!(
            catalog.snapshot(&t, &d).unwrap().freshness,
            Freshness::Refreshing
        );
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn hook_that_cannot_submit_degrades_to_stale_and_retries() {
        // A hook whose refresh pool is gone (or whose submit was rejected)
        // returns false: the entry must report Stale — not Refreshing
        // forever — and the next expired snapshot must re-try the hook.
        let catalog = SketchCatalog::unbounded();
        let (t, d) = key("a", "d");
        catalog.publish(&t, &d, sketch_of(0..100)).unwrap();
        catalog.set_ttl(&t, &d, Some(Duration::ZERO)).unwrap();
        let fired = Arc::new(AtomicU64::new(0));
        let fired_in_hook = Arc::clone(&fired);
        catalog.set_refresh_hook(Box::new(move |_, _| {
            fired_in_hook.fetch_add(1, Ordering::Relaxed);
            false // e.g. Weak<RefreshPool> failed to upgrade
        }));
        for round in 1..=3u64 {
            assert_eq!(
                catalog.snapshot(&t, &d).unwrap().freshness,
                Freshness::Stale
            );
            assert_eq!(fired.load(Ordering::Relaxed), round, "hook re-tries");
        }
        // Failed routings are not counted as refreshes.
        assert_eq!(catalog.stats().ttl_refreshes, 0);
    }

    #[test]
    fn default_max_age_applies_to_new_entries() {
        let catalog = SketchCatalog::new(CatalogConfig {
            default_max_age: Some(Duration::ZERO),
            ..CatalogConfig::default()
        })
        .unwrap();
        let (t, d) = key("a", "d");
        catalog.publish(&t, &d, sketch_of(0..100)).unwrap();
        assert_eq!(
            catalog.snapshot(&t, &d).unwrap().freshness,
            Freshness::Stale
        );
        // Per-entry override clears it.
        catalog.set_ttl(&t, &d, None).unwrap();
        assert_eq!(
            catalog.snapshot(&t, &d).unwrap().freshness,
            Freshness::Fresh
        );
        // Setting a TTL on an unknown entry is a typed error.
        assert!(matches!(
            catalog.set_ttl(&TenantId::from("nope"), &d, None),
            Err(ServeError::UnknownEntry { .. })
        ));
    }

    #[test]
    fn freshness_wire_form_round_trips() {
        for f in [Freshness::Fresh, Freshness::Stale, Freshness::Refreshing] {
            assert_eq!(Freshness::parse(f.as_str()), Some(f));
            assert_eq!(format!("{f}"), f.as_str());
        }
        assert_eq!(Freshness::parse("bogus"), None);
    }

    #[test]
    fn durable_file_names_are_safe_and_distinct() {
        let name = |t: &str, d: &str, v| {
            let (t, d) = key(t, d);
            durable_file_name(&t, &d, v)
        };
        let a = name("a/b", "x", 1);
        assert_ne!(
            a,
            name("a_b", "x", 1),
            "hash disambiguates sanitized collisions"
        );
        assert_ne!(a, name("a/b", "x", 2), "versions never share a file");
        assert!(!a.contains('/'));
        assert!(a.ends_with("--v1.sketch"), "{a}");
        assert!(name(&"t".repeat(200), "d", u64::MAX).len() < 140);
    }
}
