//! Interleaving tests for the seqlock span ring.
//!
//! The property under test: **a reader never observes a torn span**.  Every
//! writer encodes all of a span's fields as a pure function of
//! `(trace, span_id)`, so any mixture of two writes — fields from different
//! spans surfacing in one `Span` — breaks the encoding and is caught by a
//! field-by-field check.  Readers hammer `spans()` while writers wrap the
//! ring thousands of times; the proptest case additionally randomises ring
//! capacity, writer count, and spans-per-writer so the interleaving space is
//! explored across seeds rather than at one hand-picked schedule.

use opaq_metrics::{Span, SpanRecorder, SpanTag, Stage, TraceId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const STAGES: [Stage; 15] = Stage::ALL;

const TAGS: [SpanTag; 7] = [
    SpanTag::Untagged,
    SpanTag::Hit,
    SpanTag::ReloadFromSpill,
    SpanTag::RefreshTriggered,
    SpanTag::Degraded,
    SpanTag::Shed,
    SpanTag::Error,
];

/// Writer `w`'s trace id: distinct, nonzero, and invertible from the span.
fn trace_of(w: u64) -> TraceId {
    TraceId::from_raw(0x1000 + w).unwrap()
}

/// The one legal span writer `w` may record under sequence number `i`.
/// Every field is derived from `(w, i)`, so a torn read cannot reproduce it.
fn span_of(w: u64, i: u64) -> Span {
    let start = (w << 32) | i;
    Span {
        trace: trace_of(w),
        span_id: i as u32,
        parent: (i / 2) as u32,
        stage: STAGES[((w + i) % STAGES.len() as u64) as usize],
        tag: TAGS[((w * 7 + i) % TAGS.len() as u64) as usize],
        start_nanos: start,
        duration_nanos: start ^ 0x00de_ad00_beef_0000,
    }
}

/// Assert `span` is exactly some `span_of(w, i)` for a writer in `0..writers`.
fn assert_untorn(span: &Span, writers: u64) {
    let w = span.trace.as_u64().checked_sub(0x1000).unwrap_or(u64::MAX);
    assert!(
        w < writers,
        "span carries a trace id no writer ever used: {span:?}"
    );
    let expected = span_of(w, u64::from(span.span_id));
    assert_eq!(*span, expected, "torn span: fields mix more than one write");
}

/// `writers` threads each record `per_writer` spans into a `capacity`-slot
/// ring while `readers` threads snapshot continuously; every observed span —
/// mid-flight and at the end — must be exactly one that some writer wrote.
fn hammer(capacity: usize, writers: u64, per_writer: u64, readers: usize) {
    let recorder = Arc::new(SpanRecorder::new(capacity));
    let done = Arc::new(AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let recorder = Arc::clone(&recorder);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut observed = 0u64;
                while !done.load(Ordering::Relaxed) {
                    for span in recorder.spans() {
                        assert_untorn(&span, writers);
                        observed += 1;
                    }
                }
                observed
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let recorder = Arc::clone(&recorder);
            std::thread::spawn(move || {
                for i in 0..per_writer {
                    recorder.record(&span_of(w, i));
                }
            })
        })
        .collect();

    for handle in writer_handles {
        handle.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for handle in reader_handles {
        handle.join().unwrap();
    }

    // Quiescent state: every slot readable, every span legal, and the
    // write accounting closes exactly.
    let survivors = recorder.spans();
    assert!(survivors.len() <= capacity);
    for span in &survivors {
        assert_untorn(span, writers);
    }
    assert_eq!(
        recorder.recorded() + recorder.dropped(),
        writers * per_writer,
        "recorded + dropped must account for every record() call"
    );
    assert!(
        recorder.recorded() > 0,
        "probing never succeeded — the ring made no progress"
    );
}

#[test]
fn a_full_ring_overwrites_oldest_and_stays_well_formed() {
    let recorder = SpanRecorder::new(8);
    for i in 0..100 {
        recorder.record(&span_of(0, i));
    }
    // Single-threaded, nothing is ever mid-write: no drops, full accounting.
    assert_eq!(recorder.recorded(), 100);
    assert_eq!(recorder.dropped(), 0);
    let spans = recorder.spans();
    assert_eq!(spans.len(), 8, "every slot of a wrapped ring is readable");
    for span in &spans {
        assert_untorn(span, 1);
        // Overwrite-oldest: only the last `capacity` writes survive.
        assert!(
            u64::from(span.span_id) >= 92,
            "stale span survived: {span:?}"
        );
    }
}

#[test]
fn per_trace_lookup_filters_and_orders_by_start() {
    let recorder = SpanRecorder::new(64);
    for w in 0..4 {
        for i in 0..10 {
            recorder.record(&span_of(w, i));
        }
    }
    let spans = recorder.trace(trace_of(2));
    assert_eq!(spans.len(), 10);
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(*span, span_of(2, i as u64), "wrong order or foreign span");
    }
    assert!(recorder.trace(trace_of(99)).is_empty());
}

#[test]
fn every_recorded_span_feeds_its_stage_histogram_even_after_the_ring_wraps() {
    let recorder = SpanRecorder::new(4);
    let writers = 3u64;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let recorder = &recorder;
            scope.spawn(move || {
                for i in 0..500 {
                    recorder.record(&span_of(w, i));
                }
            });
        }
    });
    // The ring keeps 4 spans, but the histograms saw every record call,
    // including any the ring dropped under contention.
    let mut expected = [(0u64, 0u64); STAGES.len()];
    for w in 0..writers {
        for i in 0..500 {
            let span = span_of(w, i);
            let slot = &mut expected[STAGES.iter().position(|&s| s == span.stage).unwrap()];
            slot.0 += 1;
            slot.1 = slot.1.wrapping_add(span.duration_nanos);
        }
    }
    for (stage, (count, total)) in STAGES.into_iter().zip(expected) {
        let histogram = recorder.histogram(stage);
        assert_eq!(histogram.count(), count, "{stage}");
        assert_eq!(histogram.total_nanos(), total, "{stage}: durations fed");
    }
}

#[test]
fn concurrent_writers_and_readers_never_observe_a_torn_span() {
    // Tiny ring, heavy wrap pressure: every write contends for 8 slots.
    hammer(8, 4, 5_000, 2);
    // Ring larger than the working set: drops should be impossible and the
    // survivors are exactly the union of all writes.
    let recorder = Arc::new(SpanRecorder::new(1024));
    let handles: Vec<_> = (0..4)
        .map(|w| {
            let recorder = Arc::clone(&recorder);
            std::thread::spawn(move || {
                for i in 0..100 {
                    recorder.record(&span_of(w, i));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(recorder.recorded(), 400);
    assert_eq!(
        recorder.dropped(),
        0,
        "an uncontended-capacity ring dropped"
    );
    let mut seen: Vec<(u64, u32)> = recorder
        .spans()
        .iter()
        .map(|s| {
            assert_untorn(s, 4);
            (s.trace.as_u64(), s.span_id)
        })
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        400,
        "a write vanished without being overwritten"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised schedules: capacity, writer count, and volume all vary, so
    /// wrap pressure ranges from none to ~hundredfold across seeds.
    #[test]
    fn random_interleavings_stay_well_formed(
        capacity in 1usize..48,
        writers in 1u64..5,
        per_writer in 1u64..800,
    ) {
        hammer(capacity, writers, per_writer, 1);
    }
}
