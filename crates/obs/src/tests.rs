//! Unit tests for the obs registry. The registry is process-global, so
//! every test takes `GATE` to serialize against the others in this binary.

use super::*;
use std::sync::MutexGuard;

static GATE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    enable();
    gate
}

#[test]
fn counters_accumulate_monotonically() {
    let _g = exclusive();
    counter_add("mtr.swaps", 3);
    counter_add("mtr.swaps", 4);
    counter_add("vqe.evals", 1);
    let snap = snapshot();
    assert_eq!(snap.counter("mtr.swaps"), 7);
    assert_eq!(snap.counter("vqe.evals"), 1);
    assert_eq!(snap.counter("never.bumped"), 0);
    disable();
}

#[test]
fn histogram_stats_match_samples() {
    let _g = exclusive();
    for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
        histogram_record("probe", x);
    }
    let st = snapshot().histogram_stats("probe").unwrap();
    // count/min/max are exact; mean and percentiles carry the streaming
    // estimator's documented ≤ stream::ALPHA relative-error bound.
    assert_eq!(st.count, 5);
    assert_eq!(st.min, 1.0);
    assert_eq!(st.max, 5.0);
    assert!(
        (st.mean - 3.0).abs() <= stream::ALPHA * 3.0,
        "mean {}",
        st.mean
    );
    assert!(
        (st.p50 - 3.0).abs() <= stream::ALPHA * 3.0,
        "p50 {}",
        st.p50
    );
    // p99's nearest-rank sample is the max, which is clamped exactly.
    assert_eq!(st.p99, 5.0);
    assert!(snapshot().histogram_stats("missing").is_none());
    disable();
}

#[test]
fn spans_record_duration_fields_and_parent() {
    let _g = exclusive();
    {
        let mut outer = span("pipeline.compile");
        outer.record("method", "mtr");
        {
            let mut inner = span("compiler.mtr");
            inner.record("swaps", 2u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let snap = snapshot();
    let outer = snap.span("pipeline.compile").unwrap();
    let inner = snap.span("compiler.mtr").unwrap();
    assert_eq!(outer.parent, None);
    assert_eq!(inner.parent.as_deref(), Some("pipeline.compile"));
    assert_eq!(outer.field("method"), Some(&Value::Str("mtr".to_string())));
    assert_eq!(inner.field("swaps").and_then(Value::as_u64), Some(2));
    assert!(
        inner.duration_us >= 1000.0,
        "slept 2ms but span saw {}",
        inner.duration_us
    );
    assert!(outer.duration_us >= inner.duration_us);
    assert!(inner.start_us >= outer.start_us);
    disable();
}

#[test]
fn events_capture_fields_in_order() {
    let _g = exclusive();
    event!("scf.iter", iter = 1u64, energy = -1.5, converged = false);
    event!("scf.iter", iter = 2u64, energy = -1.8, converged = true);
    let snap = snapshot();
    assert_eq!(snap.events.len(), 2);
    assert_eq!(
        snap.events[0].field("iter").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(
        snap.events[1].field("energy").and_then(Value::as_f64),
        Some(-1.8)
    );
    assert_eq!(snap.events[1].field("converged"), Some(&Value::Bool(true)));
    assert!(snap.events[1].at_us >= snap.events[0].at_us);
    disable();
}

#[test]
fn disabled_mode_records_nothing() {
    let _g = exclusive();
    disable();
    {
        let mut s = span("ghost");
        s.record("k", 1u64);
    }
    event!("ghost.event", x = 1.0);
    counter_add("ghost.counter", 5);
    histogram_record("ghost.hist", 1.0);
    let snap = snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.events.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

#[test]
fn span_started_while_enabled_still_records_after_disable() {
    let _g = exclusive();
    let s = span("straddler");
    disable();
    drop(s);
    // The guard captured its enablement at creation; recording on drop keeps
    // the trace consistent (no half-open spans).
    assert_eq!(snapshot().spans_named("straddler").len(), 1);
}

#[test]
fn concurrent_recording_loses_nothing() {
    let _g = exclusive();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 250;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    counter_add("shared.counter", 1);
                    histogram_record("shared.hist", i as f64);
                    let mut s = span(&format!("thread.{t}"));
                    s.record("i", i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = snapshot();
    assert_eq!(snap.counter("shared.counter"), THREADS as u64 * PER_THREAD);
    assert_eq!(
        snap.histograms["shared.hist"].count(),
        THREADS as u64 * PER_THREAD
    );
    for t in 0..THREADS {
        assert_eq!(
            snap.spans_named(&format!("thread.{t}")).len(),
            PER_THREAD as usize
        );
    }
    // Spans on different threads never see a cross-thread parent.
    assert!(snap.spans.iter().all(|s| s.parent.is_none()));
    disable();
}

#[test]
fn jsonl_round_trip_preserves_records() {
    let _g = exclusive();
    {
        let mut s = span("compiler.mtr");
        s.record("swaps", 3u64);
        s.record("label", "x-tree");
        s.record("ratio", 0.75);
    }
    event!("vqe.iter", iter = 1u64, energy = -1.1372);
    counter_add("vqe.evals", 42);
    histogram_record("mtr.pass_us", 10.0);
    histogram_record("mtr.pass_us", 30.0);

    let before = snapshot();
    let text = export_jsonl();
    let records = parse_jsonl(&text).unwrap();
    assert_eq!(records.len(), 4);

    let span_rec = records
        .iter()
        .find_map(|r| match r {
            Record::Span(s) => Some(s),
            _ => None,
        })
        .unwrap();
    assert_eq!(span_rec.name, "compiler.mtr");
    assert_eq!(span_rec.field("swaps").and_then(Value::as_u64), Some(3));
    assert_eq!(
        span_rec.field("label"),
        Some(&Value::Str("x-tree".to_string()))
    );
    assert_eq!(span_rec.field("ratio").and_then(Value::as_f64), Some(0.75));
    assert!((span_rec.duration_us - before.spans[0].duration_us).abs() < 0.5);

    let event_rec = records
        .iter()
        .find_map(|r| match r {
            Record::Event(e) => Some(e),
            _ => None,
        })
        .unwrap();
    assert_eq!(
        event_rec.field("energy").and_then(Value::as_f64),
        Some(-1.1372)
    );

    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Counter { name, value: 42 } if name == "vqe.evals")));
    let hist = records
        .iter()
        .find_map(|r| match r {
            Record::Histogram { name, stats } if name == "mtr.pass_us" => Some(stats),
            _ => None,
        })
        .unwrap();
    assert_eq!(hist.count, 2);
    assert!(
        (hist.mean - 20.0).abs() <= stream::ALPHA * 20.0,
        "{}",
        hist.mean
    );
    disable();
}

#[test]
fn parse_jsonl_rejects_malformed_lines() {
    assert!(parse_jsonl("not json\n").is_err());
    assert!(parse_jsonl("{\"name\":\"x\"}\n")
        .unwrap_err()
        .contains("type"));
    assert!(parse_jsonl("{\"type\":\"span\"}\n")
        .unwrap_err()
        .contains("name"));
    assert_eq!(parse_jsonl("\n\n").unwrap().len(), 0);
}

#[test]
fn parse_jsonl_skips_unknown_types_forward_compatibly() {
    // A future binary may interleave new record types; this build must
    // still read the ones it knows, and report how many it skipped.
    let text = "{\"type\":\"widget\",\"name\":\"x\"}\n\
                {\"type\":\"counter\",\"name\":\"c\",\"value\":3}\n\
                {\"type\":\"progress\",\"done\":5}\n";
    let parsed = parse_jsonl_stats(text).unwrap();
    assert_eq!(parsed.records.len(), 1);
    assert_eq!(parsed.skipped_unknown, 2);
    assert!(matches!(
        &parsed.records[0],
        Record::Counter { name, value: 3 } if name == "c"
    ));
    // The unknown line must still be valid JSON with a string "type".
    assert!(parse_jsonl("{\"type\":7}\n").is_err());
}

#[test]
fn streaming_quantiles_stay_within_alpha() {
    let samples: Vec<f64> = (1..=1000).map(|i| (i as f64) * 1.7 - 400.0).collect();
    let mut h = stream::StreamingHistogram::new();
    for &s in &samples {
        h.record(s);
    }
    let exact = exact_stats_of(&samples).unwrap();
    let est = h.stats().unwrap();
    assert_eq!(est.count, exact.count);
    assert_eq!(est.min, exact.min);
    assert_eq!(est.max, exact.max);
    for (e, x) in [
        (est.p50, exact.p50),
        (est.p90, exact.p90),
        (est.p99, exact.p99),
        (est.mean, exact.mean),
    ] {
        assert!(
            (e - x).abs() <= stream::ALPHA * x.abs() + 1e-12,
            "estimate {e} vs exact {x}"
        );
    }
    assert_eq!(h.last(), Some(*samples.last().unwrap()));
}

#[test]
fn streaming_histogram_memory_is_bounded() {
    // 100k samples over three magnitudes must not grow with sample count.
    let mut h = stream::StreamingHistogram::new();
    for i in 0..100_000u64 {
        h.record([0.5, 120.0, 9e6][(i % 3) as usize]);
    }
    assert_eq!(h.count(), 100_000);
    assert!(h.bucket_count() <= 3, "buckets: {}", h.bucket_count());
}

#[test]
fn streaming_histogram_merge_matches_single() {
    let mut a = stream::StreamingHistogram::new();
    let mut b = stream::StreamingHistogram::new();
    let mut whole = stream::StreamingHistogram::new();
    for i in 0..200 {
        let v = (i as f64 - 100.0) * 3.25;
        whole.record(v);
        if i % 2 == 0 {
            a.record(v)
        } else {
            b.record(v)
        }
    }
    a.merge(&b);
    assert_eq!(a.count(), whole.count());
    assert_eq!(a.min(), whole.min());
    assert_eq!(a.max(), whole.max());
    assert_eq!(a.quantile_pct(50.0), whole.quantile_pct(50.0));
}

#[test]
fn crc32_matches_ieee_check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn flight_ring_records_when_tracing_is_disabled() {
    let _g = exclusive();
    disable();
    flight::set_job("flight-test-job");
    {
        let _s = span("flight.span");
    }
    event!("flight.event", ignored = 1.0);
    counter_add("flight.counter", 4);
    counter_add("par.tasks", 9); // excluded by the par.* carve-out
    let entries = flight::ring_snapshot();
    let kinds: Vec<_> = entries
        .iter()
        .map(|e| (e.kind(), e.name().to_string(), e.value()))
        .collect();
    assert_eq!(
        kinds,
        vec![
            (
                flight::FlightKind::Span,
                "flight.span".to_string(),
                kinds[0].2
            ),
            (flight::FlightKind::Event, "flight.event".to_string(), 0.0),
            (
                flight::FlightKind::Counter,
                "flight.counter".to_string(),
                4.0
            ),
        ]
    );
    assert!(entries[0].value() >= 0.0);
    // The registry saw none of it.
    let snap = snapshot();
    assert!(snap.spans.is_empty() && snap.events.is_empty() && snap.counters.is_empty());
    flight::clear_job();
}

#[test]
fn flight_ring_wraps_at_capacity() {
    let _g = exclusive();
    disable();
    flight::set_job("wrap-test");
    for i in 0..(flight::FLIGHT_CAPACITY + 10) {
        counter_add("wrap.counter", i as u64);
    }
    let entries = flight::ring_snapshot();
    assert_eq!(entries.len(), flight::FLIGHT_CAPACITY);
    assert_eq!(flight::ring_dropped(), 10);
    // Oldest surviving entry is #10; newest is the last pushed.
    assert_eq!(entries[0].seq(), 10);
    assert_eq!(
        entries.last().unwrap().value(),
        (flight::FLIGHT_CAPACITY + 9) as f64
    );
    flight::clear_job();
}

#[test]
fn flight_dump_round_trips_and_detects_tampering() {
    let _g = exclusive();
    disable();
    flight::set_job("h2-7");
    counter_add("dump.counter", 2);
    event!("dump.event");
    let dir = std::env::temp_dir().join("obs_flight_dump_test");
    let path = flight::dump(&dir, "h2-7", "panic").unwrap();
    assert_eq!(
        path.file_name().unwrap().to_str().unwrap(),
        "flight-h2-7.jsonl"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let dump = flight::parse_dump(&text).unwrap();
    assert_eq!(dump.job, "h2-7");
    assert_eq!(dump.reason, "panic");
    assert_eq!(dump.entries.len(), 2);
    assert_eq!(dump.entries[0].name, "dump.counter");
    assert_eq!(dump.entries[1].kind, "event");

    // Any body edit breaks the CRC seal.
    let tampered = text.replace("dump.counter", "dump.c0unter");
    assert!(flight::parse_dump(&tampered).unwrap_err().contains("CRC"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    flight::clear_job();
}

#[test]
fn flight_set_job_clears_the_ring() {
    let _g = exclusive();
    disable();
    flight::set_job("first");
    counter_add("ring.a", 1);
    flight::set_job("second");
    assert_eq!(flight::current_job().as_deref(), Some("second"));
    assert!(flight::ring_snapshot().is_empty());
    flight::clear_job();
    assert_eq!(flight::current_job(), None);
}

#[test]
fn summary_lists_all_sections() {
    let _g = exclusive();
    {
        let _s = span("chem.scf");
    }
    counter_add("scf.iterations", 9);
    histogram_record("scf.diis_error", 0.25);
    let text = summary();
    assert!(text.contains("spans"), "{text}");
    assert!(text.contains("chem.scf"), "{text}");
    assert!(text.contains("counters"), "{text}");
    assert!(text.contains("scf.iterations"), "{text}");
    assert!(text.contains("histograms"), "{text}");
    assert!(text.contains("scf.diis_error"), "{text}");

    reset();
    assert!(summary().contains("no observability data"));
    disable();
}

#[test]
fn reset_clears_registry_and_restarts_epoch() {
    let _g = exclusive();
    counter_add("a", 1);
    {
        let _s = span("b");
    }
    reset();
    let snap = snapshot();
    assert!(snap.spans.is_empty() && snap.counters.is_empty());
    {
        let _s = span("after");
    }
    let snap = snapshot();
    // Fresh epoch: the new span starts near zero.
    assert!(snap.span("after").unwrap().start_us < 1e6);
    disable();
}

#[test]
fn write_jsonl_produces_parseable_file() {
    let _g = exclusive();
    counter_add("file.counter", 7);
    let path = std::env::temp_dir().join("obs_write_jsonl_test.jsonl");
    write_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let records = parse_jsonl(&text).unwrap();
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Counter { name, value: 7 } if name == "file.counter")));
    disable();
}
