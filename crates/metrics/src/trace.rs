//! Request-scoped tracing: span taxonomy, a lock-free ring-buffer span
//! recorder, per-request sinks, and a top-N slow-query log.
//!
//! The serving stack answers a query through many layers — accept queue,
//! HTTP parse, plan compile, catalog snapshot (which may reload a spilled
//! sketch from disk or trigger a TTL refresh), merge-tree fusion,
//! extraction, render, socket write — and when a request is slow an
//! end-to-end number says nothing about
//! *which* layer ate the time.  Tracing answers that: every request gets a
//! [`TraceId`] (minted at the HTTP front door or propagated in via the
//! `x-opaq-trace-id` header), each stage records a [`Span`] into a shared
//! [`SpanRecorder`], and `GET /v1/_debug/trace?id=` reads the tree back.
//! The span is the serving stack's only timing point: the recorder also
//! feeds every span's duration into its stage's [`LatencyHistogram`], the
//! per-stage histograms `/metrics` exports.
//!
//! The recorder is a fixed-capacity ring of seqlock slots: recording a span
//! is a handful of atomic operations with **zero allocation** — no locks,
//! no boxing, no strings — so it is safe to leave enabled at full
//! production traffic.  When the ring wraps, the oldest spans are
//! overwritten; a trace read back later may therefore be partial, which the
//! renderer tolerates (orphan spans are parented to the root).
//!
//! Write protocol per slot (`seq` even = stable, odd = write in progress):
//! the writer claims a slot by CAS-ing `seq` from even to odd (`Acquire`),
//! stores the span words `Relaxed`, then publishes with a `Release` store
//! of `seq + 2`.  The reader loads `seq` (`Acquire`), reads the words
//! `Relaxed`, issues an `Acquire` fence, and re-checks `seq`: any
//! concurrent overwrite changes `seq` and the torn read is discarded.  The
//! recipe is the classic seqlock (cf. `crossbeam`'s `SeqLock`) built purely
//! from `AtomicU64`, keeping the crate's `#![deny(unsafe_code)]`.

use crate::latency::LatencyHistogram;
use std::fmt;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Span id of the per-request root span (`parent == 0` means "no parent").
pub const ROOT_SPAN_ID: u32 = 1;

/// A request-scoped trace identifier: 64 bits, never zero.
///
/// Rendered and parsed as 16 lower-case hex digits — the wire form of the
/// `x-opaq-trace-id` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

/// `splitmix64` — a tiny, well-mixed permutation of `u64`; zero maps away
/// from zero, so minted ids are never the reserved "no trace" value.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TraceId {
    /// Wrap a raw non-zero value; `None` when `raw == 0`.
    pub fn from_raw(raw: u64) -> Option<Self> {
        (raw != 0).then_some(Self(raw))
    }

    /// The raw 64-bit value (never zero).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Mint a fresh process-unique trace id.
    ///
    /// Seeded once per process from the wall clock and pid, then advanced
    /// through `splitmix64` — unique within a process, collision-unlikely
    /// across replicas, and never zero.
    pub fn mint() -> Self {
        static STATE: OnceLock<AtomicU64> = OnceLock::new();
        let state = STATE.get_or_init(|| {
            let clock = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x4f50_4151); // "OPAQ"
            AtomicU64::new(clock ^ (u64::from(std::process::id()) << 32))
        });
        let mut raw = 0u64;
        while raw == 0 {
            raw = splitmix64(state.fetch_add(1, Ordering::Relaxed));
        }
        Self(raw)
    }

    /// Parse the header wire form: 1–16 hex digits, non-zero.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().and_then(Self::from_raw)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The stage a span measures — the trace taxonomy of the serving stack.
///
/// Request path: `Request` is the per-request root; `Queue` covers the
/// accept-queue wait of a connection's first request, `Parse` HTTP request
/// parsing, `Compile` plan compilation, `Fetch` catalog snapshot
/// resolution (with one `Snapshot` child per `(tenant, dataset)` source,
/// tagged [`SpanTag::Hit`] / [`SpanTag::ReloadFromSpill`] /
/// [`SpanTag::RefreshTriggered`]), `Merge` the sketch merge tree, `Extract`
/// quantile/rank estimation, `Render` response serialisation, and `Write`
/// the socket write (recorded after the root closes).  Ingest
/// path: `Refresh` is a refresh-pool job root with `Ingest` children (one
/// per build).  `Sync` is one replication reconciliation pass.  Ring-aware
/// serving adds `Route` (tenant-ownership resolution against the hash
/// ring, tagged [`SpanTag::Error`] when the request was misdirected) and
/// `Scatter` (cross-group partial-sketch gather for glob plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Per-request root span (accept, or parse start on a kept-alive
    /// connection, to response rendered).
    Request,
    /// Accept-queue wait: connection accepted to worker pickup (first
    /// request on a connection only).
    Queue,
    /// HTTP request parsing.
    Parse,
    /// Query-plan compilation.
    Compile,
    /// Catalog snapshot resolution across all plan sources.
    Fetch,
    /// One catalog snapshot (child of `Fetch`), tagged with how it was
    /// served.
    Snapshot,
    /// Merge-tree fusion of multiple sketches.
    Merge,
    /// Quantile/rank/profile extraction from the fused sketch.
    Extract,
    /// Response rendering/serialisation.
    Render,
    /// Writing the response to the socket.
    Write,
    /// A refresh-pool job (rebuild + publish) root span.
    Refresh,
    /// One sketch ingest/build (sharded one-pass construction).
    Ingest,
    /// One replication sync pass against a peer.
    Sync,
    /// Tenant-ownership resolution against the hash ring.
    Route,
    /// Cross-group partial gather for a glob plan.
    Scatter,
}

impl Stage {
    /// Every stage, in taxonomy order.
    pub const ALL: [Stage; 15] = [
        Stage::Request,
        Stage::Queue,
        Stage::Parse,
        Stage::Compile,
        Stage::Fetch,
        Stage::Snapshot,
        Stage::Merge,
        Stage::Extract,
        Stage::Render,
        Stage::Write,
        Stage::Refresh,
        Stage::Ingest,
        Stage::Sync,
        Stage::Route,
        Stage::Scatter,
    ];

    /// Stable lower-case wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Queue => "queue",
            Stage::Parse => "parse",
            Stage::Compile => "compile",
            Stage::Fetch => "fetch",
            Stage::Snapshot => "snapshot",
            Stage::Merge => "merge",
            Stage::Extract => "extract",
            Stage::Render => "render",
            Stage::Write => "write",
            Stage::Refresh => "refresh",
            Stage::Ingest => "ingest",
            Stage::Sync => "sync",
            Stage::Route => "route",
            Stage::Scatter => "scatter",
        }
    }

    /// Parse the wire label back into a stage.
    pub fn from_str_label(s: &str) -> Option<Self> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// Stable wire code (1-based; the ring's slot encoding and, minus one,
    /// the recorder's histogram index).
    fn code(self) -> u64 {
        match self {
            Stage::Request => 1,
            Stage::Parse => 2,
            Stage::Compile => 3,
            Stage::Fetch => 4,
            Stage::Snapshot => 5,
            Stage::Merge => 6,
            Stage::Extract => 7,
            Stage::Render => 8,
            Stage::Refresh => 9,
            Stage::Ingest => 10,
            Stage::Sync => 11,
            Stage::Route => 12,
            Stage::Scatter => 13,
            Stage::Queue => 14,
            Stage::Write => 15,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Stage::ALL.into_iter().find(|st| st.code() == code)
    }

    fn index(self) -> usize {
        self.code() as usize - 1
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How the spanned work was served — the provenance bit that turns a
/// latency number into a diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpanTag {
    /// Nothing notable.
    #[default]
    Untagged,
    /// Catalog snapshot served from the resident slot.
    Hit,
    /// Catalog snapshot reloaded from a disk spill on the query path.
    ReloadFromSpill,
    /// Snapshot was past TTL and this request triggered the refresh hook.
    RefreshTriggered,
    /// Response replayed from the last-good cache (total replica outage).
    Degraded,
    /// Request shed by the bounded accept queue (503).
    Shed,
    /// The spanned work failed.
    Error,
}

impl SpanTag {
    /// Stable lower-case wire label (empty for [`SpanTag::Untagged`]).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanTag::Untagged => "",
            SpanTag::Hit => "hit",
            SpanTag::ReloadFromSpill => "reload-from-spill",
            SpanTag::RefreshTriggered => "refresh-triggered",
            SpanTag::Degraded => "degraded",
            SpanTag::Shed => "shed",
            SpanTag::Error => "error",
        }
    }

    fn code(self) -> u64 {
        match self {
            SpanTag::Untagged => 0,
            SpanTag::Hit => 1,
            SpanTag::ReloadFromSpill => 2,
            SpanTag::RefreshTriggered => 3,
            SpanTag::Degraded => 4,
            SpanTag::Shed => 5,
            SpanTag::Error => 6,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        [
            SpanTag::Untagged,
            SpanTag::Hit,
            SpanTag::ReloadFromSpill,
            SpanTag::RefreshTriggered,
            SpanTag::Degraded,
            SpanTag::Shed,
            SpanTag::Error,
        ]
        .into_iter()
        .find(|t| t.code() == code)
    }
}

/// One completed, timed unit of work inside a trace.
///
/// `start_nanos` is relative to the trace root (the sink's creation), so a
/// span tree is self-contained without wall-clock coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id within the trace (root is [`ROOT_SPAN_ID`]).
    pub span_id: u32,
    /// Parent span id; `0` for the root.
    pub parent: u32,
    /// What the span measured.
    pub stage: Stage,
    /// Provenance tag.
    pub tag: SpanTag,
    /// Offset from the trace root's start, in nanoseconds.
    pub start_nanos: u64,
    /// Duration, in nanoseconds.
    pub duration_nanos: u64,
}

/// One seqlock slot: `seq` even = stable (0 = never written), odd = write
/// in progress.  The five payload words hold one encoded [`Span`].
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    /// `span_id << 32 | parent`.
    ids: AtomicU64,
    /// `stage_code << 8 | tag_code`.
    meta: AtomicU64,
    start_nanos: AtomicU64,
    duration_nanos: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            start_nanos: AtomicU64::new(0),
            duration_nanos: AtomicU64::new(0),
        }
    }
}

/// How many consecutive slots a writer probes before dropping the span
/// (only reachable when every probed slot is mid-write by another thread).
const WRITE_PROBES: usize = 4;

/// Fixed-capacity, overwrite-oldest, lock-free span ring, plus one latency
/// histogram per [`Stage`].
///
/// [`SpanRecorder::record`] never blocks and never allocates; see the
/// module docs for the seqlock protocol.  Readers get weakly consistent
/// snapshots: spans recorded entirely before the read are visible unless
/// the ring has wrapped past them.  The histograms count every recorded
/// span, including those the ring later overwrites or drops.
pub struct SpanRecorder {
    slots: Vec<Slot>,
    /// Monotone write cursor; `head % slots.len()` is the next slot.
    head: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    /// Span durations per stage, indexed by `Stage::index`.
    histograms: [Arc<LatencyHistogram>; Stage::ALL.len()],
}

impl fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanRecorder {
    /// A ring holding the most recent `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            histograms: std::array::from_fn(|_| Arc::new(LatencyHistogram::new())),
        }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans successfully written (including those since overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans dropped because every probed slot was mid-write.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The duration histogram of one stage's spans, shared so a metric
    /// registry renders from the same instance.
    pub fn histogram(&self, stage: Stage) -> Arc<LatencyHistogram> {
        Arc::clone(&self.histograms[stage.index()])
    }

    /// Record one span and feed its duration to its stage's histogram.
    /// Lock-free, allocation-free; overwrites the oldest slot when the ring
    /// is full.
    pub fn record(&self, span: &Span) {
        self.histograms[span.stage.index()].record_nanos(span.duration_nanos);
        let n = self.slots.len();
        let claim = self.head.fetch_add(1, Ordering::Relaxed) as usize;
        for probe in 0..WRITE_PROBES.min(n) {
            let slot = &self.slots[(claim + probe) % n];
            let seq = slot.seq.load(Ordering::Relaxed);
            if seq & 1 == 1 {
                continue; // another writer mid-flight; probe onward
            }
            if slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            slot.trace.store(span.trace.as_u64(), Ordering::Relaxed);
            slot.ids.store(
                (u64::from(span.span_id) << 32) | u64::from(span.parent),
                Ordering::Relaxed,
            );
            slot.meta.store(
                (span.stage.code() << 8) | span.tag.code(),
                Ordering::Relaxed,
            );
            slot.start_nanos.store(span.start_nanos, Ordering::Relaxed);
            slot.duration_nanos
                .store(span.duration_nanos, Ordering::Relaxed);
            slot.seq.store(seq + 2, Ordering::Release);
            self.recorded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Seqlock read of one slot; `None` for never-written, mid-write, or
    /// torn (concurrently overwritten) slots.
    fn read_slot(slot: &Slot) -> Option<Span> {
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == 0 || seq & 1 == 1 {
            return None;
        }
        let trace = slot.trace.load(Ordering::Relaxed);
        let ids = slot.ids.load(Ordering::Relaxed);
        let meta = slot.meta.load(Ordering::Relaxed);
        let start_nanos = slot.start_nanos.load(Ordering::Relaxed);
        let duration_nanos = slot.duration_nanos.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != seq {
            return None; // torn: a writer got in between
        }
        Some(Span {
            trace: TraceId::from_raw(trace)?,
            span_id: (ids >> 32) as u32,
            parent: (ids & 0xffff_ffff) as u32,
            stage: Stage::from_code(meta >> 8)?,
            tag: SpanTag::from_code(meta & 0xff)?,
            start_nanos,
            duration_nanos,
        })
    }

    /// Every currently-readable span, in unspecified order.
    pub fn spans(&self) -> Vec<Span> {
        self.slots.iter().filter_map(Self::read_slot).collect()
    }

    /// All readable spans of one trace, sorted by `(start_nanos, span_id)`.
    pub fn trace(&self, id: TraceId) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .slots
            .iter()
            .filter_map(Self::read_slot)
            .filter(|s| s.trace == id)
            .collect();
        spans.sort_by_key(|s| (s.start_nanos, s.span_id));
        spans.dedup_by_key(|s| s.span_id);
        spans
    }
}

/// Per-request span factory: owns the trace id, the time base, a span-id
/// allocator, and an optional provenance annotation for the slow log.
///
/// Usage: allocate an id when a stage starts, complete it when the stage
/// ends — children therefore finish (and are recorded) before their
/// parents, which the tree renderer handles.
#[derive(Debug)]
pub struct TraceSink {
    recorder: Arc<SpanRecorder>,
    trace: TraceId,
    epoch: Instant,
    next: AtomicU32,
    annotation: Mutex<Option<String>>,
}

impl TraceSink {
    /// A sink for `trace`, with its time base starting now.
    pub fn new(recorder: Arc<SpanRecorder>, trace: TraceId) -> Self {
        Self::starting_at(recorder, trace, Instant::now())
    }

    /// A sink for `trace` whose time base (the root span's start) is
    /// `epoch` — for a request whose timing began before its trace id was
    /// known, such as a connection waiting in the accept queue.
    pub fn starting_at(recorder: Arc<SpanRecorder>, trace: TraceId, epoch: Instant) -> Self {
        Self {
            recorder,
            trace,
            epoch,
            next: AtomicU32::new(ROOT_SPAN_ID + 1),
            annotation: Mutex::new(None),
        }
    }

    /// The trace id this sink records under.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Nanoseconds since the trace root started (saturating).
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Claim the next span id (call when a stage starts).
    pub fn allocate(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record span `span_id` under `parent` as started at `start_nanos`
    /// (from [`Self::now_nanos`]) and finished now.
    pub fn complete(
        &self,
        span_id: u32,
        parent: u32,
        stage: Stage,
        tag: SpanTag,
        start_nanos: u64,
    ) {
        self.recorder.record(&Span {
            trace: self.trace,
            span_id,
            parent,
            stage,
            tag,
            start_nanos,
            duration_nanos: self.now_nanos().saturating_sub(start_nanos),
        });
    }

    /// Record span `span_id` with an explicit duration — for work timed
    /// before the sink existed (e.g. HTTP parsing, which produces the very
    /// header the trace id comes from).
    pub fn complete_with(
        &self,
        span_id: u32,
        parent: u32,
        stage: Stage,
        tag: SpanTag,
        start_nanos: u64,
        duration_nanos: u64,
    ) {
        self.recorder.record(&Span {
            trace: self.trace,
            span_id,
            parent,
            stage,
            tag,
            start_nanos,
            duration_nanos,
        });
    }

    /// Allocate-and-complete in one call, for work that already finished:
    /// the span covers `[start_nanos, now]` under `parent`.
    pub fn child(&self, parent: u32, stage: Stage, tag: SpanTag, start_nanos: u64) -> u32 {
        let id = self.allocate();
        self.complete(id, parent, stage, tag, start_nanos);
        id
    }

    /// Record the per-request root span ([`ROOT_SPAN_ID`]) covering the
    /// sink's whole lifetime so far; returns its duration in nanoseconds.
    pub fn finish_root(&self, stage: Stage, tag: SpanTag) -> u64 {
        let duration_nanos = self.now_nanos();
        self.complete_with(ROOT_SPAN_ID, 0, stage, tag, 0, duration_nanos);
        duration_nanos
    }

    /// Attach a human-readable provenance note (e.g. the compiled plan),
    /// carried to the slow log if this request qualifies.
    pub fn annotate(&self, note: impl Into<String>) {
        *self.annotation.lock().expect("annotation lock") = Some(note.into());
    }

    /// Take the annotation, leaving `None`.
    pub fn take_annotation(&self) -> Option<String> {
        self.annotation.lock().expect("annotation lock").take()
    }
}

/// One slow-log entry: a trace id, how long the request took, and its
/// provenance note (the compiled plan / target).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// The slow request's trace id (look it up in `/v1/_debug/trace`).
    pub trace: TraceId,
    /// End-to-end request duration in nanoseconds.
    pub duration_nanos: u64,
    /// Plan provenance / request target.
    pub detail: String,
}

/// Top-N slow-query log over a latency threshold.
///
/// The hot path is one relaxed atomic load when the request is below the
/// admission floor (threshold, or the current N-th slowest once full);
/// only genuinely slow requests take the mutex and render their detail
/// string.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    threshold_nanos: AtomicU64,
    /// Lock-free admission floor: requests at or below this can't place.
    floor_nanos: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    /// A log keeping the `capacity` slowest requests over `threshold`.
    pub fn new(capacity: usize, threshold: Duration) -> Self {
        let threshold_nanos = threshold.as_nanos().min(u64::MAX as u128) as u64;
        Self {
            capacity: capacity.max(1),
            threshold_nanos: AtomicU64::new(threshold_nanos),
            floor_nanos: AtomicU64::new(threshold_nanos.saturating_sub(1)),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The current admission threshold.
    pub fn threshold(&self) -> Duration {
        Duration::from_nanos(self.threshold_nanos.load(Ordering::Relaxed))
    }

    /// Offer a finished request; `detail` is rendered only if it places.
    /// Returns whether the request entered the log.
    pub fn offer(
        &self,
        trace: TraceId,
        duration: Duration,
        detail: impl FnOnce() -> String,
    ) -> bool {
        let nanos = duration.as_nanos().min(u64::MAX as u128) as u64;
        if nanos <= self.floor_nanos.load(Ordering::Relaxed) {
            return false;
        }
        let mut entries = self.entries.lock().expect("slow log lock");
        if entries.len() >= self.capacity
            && entries
                .last()
                .is_some_and(|last| nanos <= last.duration_nanos)
        {
            // Raced past the relaxed floor; still too fast to place.
            return false;
        }
        entries.push(SlowEntry {
            trace,
            duration_nanos: nanos,
            detail: detail(),
        });
        entries.sort_by_key(|e| std::cmp::Reverse(e.duration_nanos));
        entries.truncate(self.capacity);
        if entries.len() == self.capacity {
            let floor = entries.last().map_or(0, |e| e.duration_nanos);
            self.floor_nanos.fetch_max(floor, Ordering::Relaxed);
        }
        true
    }

    /// The `n` slowest entries, slowest first.
    pub fn top(&self, n: usize) -> Vec<SlowEntry> {
        let entries = self.entries.lock().expect("slow log lock");
        entries.iter().take(n).cloned().collect()
    }

    /// The single slowest entry, if any request ever placed.
    pub fn slowest(&self) -> Option<SlowEntry> {
        self.entries.lock().expect("slow log lock").first().cloned()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("slow log lock").len()
    }

    /// Whether no request has placed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Format a nanosecond duration compactly (`873ns`, `14.2µs`, `3.1ms`,
/// `1.27s`).
pub fn format_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Render a span tree as indented text, one span per line with start
/// offset and duration.  Orphan spans (parent overwritten by ring wrap)
/// are promoted to the top level, so partial traces still render.
pub fn render_span_tree(spans: &[Span]) -> String {
    if spans.is_empty() {
        return "  (no spans recorded for this trace)\n".to_string();
    }
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_nanos, s.span_id));
    let known: std::collections::HashSet<u32> = ordered.iter().map(|s| s.span_id).collect();
    let mut out = String::new();
    // Roots: parent 0, or parent missing from the readable set.
    let roots: Vec<&Span> = ordered
        .iter()
        .filter(|s| s.parent == 0 || !known.contains(&s.parent))
        .copied()
        .collect();
    fn walk(out: &mut String, ordered: &[&Span], span: &Span, depth: usize) {
        let tag = if span.tag == SpanTag::Untagged {
            String::new()
        } else {
            format!(" [{}]", span.tag.as_str())
        };
        let label = format!("{:indent$}{}{}", "", span.stage, tag, indent = depth * 2);
        out.push_str(&format!(
            "  {label:<32} +{:<10} {}\n",
            format_nanos(span.start_nanos),
            format_nanos(span.duration_nanos),
        ));
        for child in ordered
            .iter()
            .filter(|c| c.parent == span.span_id && c.span_id != span.span_id)
        {
            walk(out, ordered, child, depth + 1);
        }
    }
    for root in roots {
        walk(&mut out, &ordered, root, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_round_trips_through_wire_form() {
        let id = TraceId::mint();
        let wire = id.to_string();
        assert_eq!(wire.len(), 16);
        assert_eq!(TraceId::parse(&wire), Some(id));
        assert_eq!(TraceId::parse("0"), None);
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("zz"), None);
        assert_eq!(TraceId::parse("deadbeef"), TraceId::from_raw(0xdead_beef));
        assert_eq!(TraceId::parse("00000000000000000"), None, "17 digits");
    }

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = TraceId::mint();
            assert_ne!(id.as_u64(), 0);
            assert!(seen.insert(id), "duplicate minted id {id}");
        }
    }

    #[test]
    fn stage_and_tag_codes_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_code(stage.code()), Some(stage));
            assert_eq!(Stage::from_str_label(stage.as_str()), Some(stage));
        }
        for code in 0..=6 {
            let tag = SpanTag::from_code(code).expect("tag code");
            assert_eq!(tag.code(), code);
        }
        assert_eq!(Stage::from_code(0), None);
        assert_eq!(SpanTag::from_code(99), None);
    }

    #[test]
    fn recorder_round_trips_spans() {
        let rec = SpanRecorder::new(16);
        let trace = TraceId::mint();
        let span = Span {
            trace,
            span_id: 2,
            parent: 1,
            stage: Stage::Fetch,
            tag: SpanTag::ReloadFromSpill,
            start_nanos: 123,
            duration_nanos: 456,
        };
        rec.record(&span);
        assert_eq!(rec.recorded(), 1);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.trace(trace), vec![span]);
        assert!(rec.trace(TraceId::mint()).is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_but_keeps_well_formed_spans() {
        let rec = SpanRecorder::new(8);
        let trace = TraceId::mint();
        for i in 0..100u32 {
            rec.record(&Span {
                trace,
                span_id: i + 1,
                parent: 0,
                stage: Stage::Request,
                tag: SpanTag::Untagged,
                start_nanos: u64::from(i),
                duration_nanos: 1,
            });
        }
        let spans = rec.trace(trace);
        assert_eq!(spans.len(), 8, "ring holds exactly its capacity");
        for s in &spans {
            // Only the newest 8 survive the wrap.
            assert!(s.span_id > 92, "stale span {} survived", s.span_id);
        }
        assert_eq!(rec.recorded(), 100);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_spans() {
        let rec = Arc::new(SpanRecorder::new(64));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let trace = TraceId::from_raw(t + 1).unwrap();
                    for i in 0..5_000u32 {
                        // Every field of a thread's span encodes the thread,
                        // so any cross-thread tearing is detectable.
                        rec.record(&Span {
                            trace,
                            span_id: i + 1,
                            parent: i,
                            stage: Stage::ALL[(t as usize) % Stage::ALL.len()],
                            tag: SpanTag::Untagged,
                            start_nanos: t * 1_000_000 + u64::from(i),
                            duration_nanos: t,
                        });
                    }
                });
            }
        });
        assert_eq!(rec.recorded() + rec.dropped(), 40_000);
        for span in rec.spans() {
            let t = span.duration_nanos;
            assert_eq!(span.trace, TraceId::from_raw(t + 1).unwrap(), "torn trace");
            assert_eq!(
                span.stage,
                Stage::ALL[(t as usize) % Stage::ALL.len()],
                "torn stage"
            );
            assert_eq!(
                span.start_nanos,
                t * 1_000_000 + u64::from(span.span_id - 1),
                "torn start"
            );
            assert_eq!(span.parent, span.span_id - 1, "torn ids");
        }
    }

    #[test]
    fn sink_builds_a_parented_tree() {
        let rec = Arc::new(SpanRecorder::new(32));
        let sink = TraceSink::new(Arc::clone(&rec), TraceId::mint());
        let parse_start = sink.now_nanos();
        let parse = sink.child(ROOT_SPAN_ID, Stage::Parse, SpanTag::Untagged, parse_start);
        let fetch = sink.allocate();
        let fetch_start = sink.now_nanos();
        let snap = sink.child(fetch, Stage::Snapshot, SpanTag::Hit, sink.now_nanos());
        sink.complete(
            fetch,
            ROOT_SPAN_ID,
            Stage::Fetch,
            SpanTag::Untagged,
            fetch_start,
        );
        sink.finish_root(Stage::Request, SpanTag::Untagged);
        let spans = rec.trace(sink.trace());
        assert_eq!(spans.len(), 4);
        let by_id = |id: u32| spans.iter().find(|s| s.span_id == id).copied().unwrap();
        assert_eq!(by_id(ROOT_SPAN_ID).parent, 0);
        assert_eq!(by_id(parse).parent, ROOT_SPAN_ID);
        assert_eq!(by_id(fetch).parent, ROOT_SPAN_ID);
        assert_eq!(by_id(snap).parent, fetch);
        assert_eq!(by_id(snap).tag, SpanTag::Hit);
        let root = by_id(ROOT_SPAN_ID);
        assert!(root.duration_nanos >= by_id(fetch).duration_nanos);
        let tree = render_span_tree(&spans);
        assert!(tree.contains("request"), "{tree}");
        assert!(tree.contains("snapshot [hit]"), "{tree}");
        assert!(
            tree.contains("    snapshot"),
            "snapshot nests two deep: {tree}"
        );
    }

    #[test]
    fn sink_annotation_is_take_once() {
        let sink = TraceSink::new(Arc::new(SpanRecorder::new(4)), TraceId::mint());
        assert_eq!(sink.take_annotation(), None);
        sink.annotate("plan: quantiles tenant-0/*");
        assert_eq!(
            sink.take_annotation(),
            Some("plan: quantiles tenant-0/*".to_string())
        );
        assert_eq!(sink.take_annotation(), None);
    }

    #[test]
    fn slow_log_keeps_top_n_over_threshold() {
        let log = SlowLog::new(3, Duration::from_millis(1));
        let fast = TraceId::mint();
        assert!(!log.offer(fast, Duration::from_micros(10), || unreachable!()));
        assert!(log.is_empty());
        let mut ids = Vec::new();
        for ms in [5u64, 2, 9, 3, 7] {
            let id = TraceId::mint();
            ids.push((ms, id));
            log.offer(id, Duration::from_millis(ms), || format!("req-{ms}"));
        }
        let top = log.top(10);
        assert_eq!(top.len(), 3);
        let durations: Vec<u64> = top.iter().map(|e| e.duration_nanos / 1_000_000).collect();
        assert_eq!(durations, vec![9, 7, 5]);
        assert_eq!(top[0].detail, "req-9");
        assert_eq!(log.slowest().unwrap().trace, ids[2].1);
        // Once full, entries at or below the floor are rejected lock-free.
        assert!(!log.offer(TraceId::mint(), Duration::from_millis(4), || {
            unreachable!("below floor must not render detail")
        }));
    }

    #[test]
    fn format_nanos_covers_ranges() {
        assert_eq!(format_nanos(873), "873ns");
        assert_eq!(format_nanos(14_200), "14.2µs");
        assert_eq!(format_nanos(3_100_000), "3.1ms");
        assert_eq!(format_nanos(1_270_000_000), "1.27s");
    }

    #[test]
    fn render_tolerates_orphans_and_empty() {
        assert!(render_span_tree(&[]).contains("no spans"));
        let trace = TraceId::mint();
        // A child whose parent was overwritten by ring wrap.
        let orphan = Span {
            trace,
            span_id: 7,
            parent: 3,
            stage: Stage::Merge,
            tag: SpanTag::Untagged,
            start_nanos: 10,
            duration_nanos: 20,
        };
        let tree = render_span_tree(&[orphan]);
        assert!(tree.contains("merge"), "{tree}");
    }
}
