//! Integration test: the instrumented `CoDesignPipeline::run()` must emit
//! spans for every stage with sane timings, and the compiler metrics
//! recorded in the trace must agree with the `CompiledProgram` bookkeeping.
//! A `pcd run` trace must put its stages under one `pipeline.run` root
//! whose direct children account for nearly all of its time.
//!
//! This lives in its own test binary so enabling the process-global obs
//! registry cannot interfere with other tests.

use std::process::{Command, Stdio};
use std::sync::Mutex;

use pauli_codesign::chem::Benchmark;
use pauli_codesign::CoDesignPipeline;

/// The obs registry is process-global; serialize the tests in this binary.
static GATE: Mutex<()> = Mutex::new(());

#[test]
fn pipeline_run_emits_spans_for_every_stage() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let report = CoDesignPipeline::new(Benchmark::H2)
        .compression_ratio(1.0)
        .run()
        .expect("H2 pipeline");
    obs::disable();
    let snap = obs::snapshot();

    // Every stage of the chem → ansatz → compiler → VQE stack shows up.
    for stage in [
        "pipeline.run",
        "pipeline.chemistry",
        "pipeline.ansatz",
        "pipeline.vqe",
        "pipeline.measure",
        "pipeline.compile",
        "chem.scf",
        "chem.encode",
        "ansatz.importance",
        "ansatz.compress",
        "compiler.layout.hierarchical",
        "compiler.mtr",
        "compiler.mtr.merge",
        "vqe.run",
    ] {
        let spans = snap.spans_named(stage);
        assert!(!spans.is_empty(), "no span recorded for stage `{stage}`");
        for s in &spans {
            assert!(
                s.duration_us >= 0.0 && s.duration_us.is_finite(),
                "span `{stage}` has bad duration {}",
                s.duration_us
            );
            assert!(s.start_us >= 0.0, "span `{stage}` starts before the epoch");
        }
    }

    // Stage spans are parented under the pipeline root.
    for stage in [
        "pipeline.chemistry",
        "pipeline.ansatz",
        "pipeline.vqe",
        "pipeline.compile",
    ] {
        assert_eq!(
            snap.span(stage).unwrap().parent.as_deref(),
            Some("pipeline.run"),
            "`{stage}` not parented under pipeline.run"
        );
    }

    // The MtR trace metrics agree with the CompiledProgram bookkeeping.
    let mtr = snap.span("compiler.mtr").expect("compiler.mtr span");
    let field = |key: &str| {
        mtr.field(key)
            .and_then(obs::Value::as_u64)
            .unwrap_or_else(|| panic!("compiler.mtr missing field `{key}`"))
    };
    assert_eq!(field("added_cnots"), report.compiled.added_cnots() as u64);
    assert_eq!(field("swaps"), report.compiled.swap_count() as u64);
    assert_eq!(field("total_cnots"), report.compiled.total_cnots() as u64);
    assert_eq!(
        field("original_cnots"),
        report.compiled.original_cnots() as u64
    );
    assert_eq!(
        snap.counter("compiler.mtr.swaps"),
        report.compiled.swap_count() as u64
    );
    assert_eq!(
        snap.counter("compiler.mtr.added_cnots"),
        report.compiled.added_cnots() as u64
    );

    // The VQE span reflects the optimizer run, and per-iteration events
    // carry the energy trace.
    let vqe = snap.span("vqe.run").expect("vqe.run span");
    assert_eq!(
        vqe.field("iterations").and_then(obs::Value::as_u64),
        Some(report.vqe.iterations as u64)
    );
    assert_eq!(
        vqe.field("evaluations").and_then(obs::Value::as_u64),
        Some(report.vqe.evaluations as u64)
    );
    let iters: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "vqe.iter")
        .collect();
    assert_eq!(iters.len(), report.vqe.trace.len());
    let last_energy = iters
        .last()
        .unwrap()
        .field("energy")
        .and_then(obs::Value::as_f64)
        .unwrap();
    assert!((last_energy - report.vqe.trace.last().unwrap()).abs() < 1e-12);

    // SCF produced per-iteration convergence events.
    let scf_iters = snap
        .events
        .iter()
        .filter(|e| e.name == "chem.scf.iter")
        .count();
    assert!(
        scf_iters >= 2,
        "expected multiple SCF iteration events, got {scf_iters}"
    );
    assert!(snap.counter("chem.scf.iterations") >= scf_iters as u64);

    // The whole trace survives a JSONL round trip.
    let jsonl = obs::export_snapshot_jsonl(&snap);
    let records = obs::parse_jsonl(&jsonl).expect("trace parses back");
    assert_eq!(
        records.len(),
        snap.spans.len() + snap.events.len() + snap.counters.len() + snap.histograms.len()
    );
}

#[test]
fn disabled_pipeline_records_nothing() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable();
    obs::reset();
    CoDesignPipeline::new(Benchmark::H2)
        .compression_ratio(1.0)
        .run()
        .expect("H2 pipeline");
    let snap = obs::snapshot();
    assert!(
        snap.spans.is_empty(),
        "disabled run recorded spans: {:?}",
        snap.spans.len()
    );
    assert!(snap.events.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

/// The spans of one default `pcd run <molecule> --trace`, read back from
/// the trace file.
fn pcd_run_spans(molecule: &str) -> Vec<obs::SpanRecord> {
    let trace = std::env::temp_dir().join(format!(
        "pcd-observability-{molecule}-{}.jsonl",
        std::process::id()
    ));
    let status = Command::new(env!("CARGO_BIN_EXE_pcd"))
        .args(["run", molecule, "--trace"])
        .arg(&trace)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("pcd starts");
    assert!(status.success(), "pcd run {molecule}: {status}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    obs::parse_jsonl(&text)
        .expect("trace parses")
        .into_iter()
        .filter_map(|record| match record {
            obs::Record::Span(span) => Some(span),
            _ => None,
        })
        .collect()
}

#[test]
fn pcd_run_stage_spans_cover_the_root() {
    for molecule in ["H2", "LiH"] {
        let spans = pcd_run_spans(molecule);
        let roots: Vec<_> = spans.iter().filter(|s| s.name == "pipeline.run").collect();
        assert_eq!(roots.len(), 1, "{molecule}: one pipeline.run root");
        let root = roots[0];
        assert_eq!(root.parent, None, "{molecule}: the root has no parent");

        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.parent.as_deref() == Some("pipeline.run"))
            .collect();
        for stage in [
            "pipeline.chemistry",
            "pipeline.ansatz",
            "pipeline.vqe",
            "pipeline.yield",
            "pipeline.reference",
            "pipeline.crosscheck",
        ] {
            assert!(
                children.iter().any(|s| s.name == stage),
                "{molecule}: no `{stage}` under pipeline.run"
            );
        }
        let covered: f64 = children.iter().map(|s| s.duration_us).sum();
        assert!(
            covered >= 0.95 * root.duration_us,
            "{molecule}: stages cover {covered:.0} of {:.0} µs",
            root.duration_us
        );
    }
}

/// A default `pcd run H2O` evaluates its VQE on the 225-state electron
/// sector, and its `vqe.run` span says so.
#[test]
fn h2o_chain_records_a_sector_vqe() {
    let spans = pcd_run_spans("H2O");
    let vqe = spans
        .iter()
        .find(|s| s.name == "vqe.run")
        .expect("a vqe.run span");
    assert_eq!(
        vqe.field("space"),
        Some(&obs::Value::Str("sector".to_string()))
    );
    assert_eq!(
        vqe.field("sector_dim").and_then(obs::Value::as_u64),
        Some(225)
    );
    assert_eq!(vqe.field("fallback"), None);
}

/// The driver toy's α → β hop leaves the electron sector, so its VQE runs
/// full-space and the span names the reason.
#[test]
fn driver_toy_records_a_full_space_vqe() {
    use pauli_codesign::ansatz::{IrEntry, PauliIr};
    use pauli_codesign::pauli::WeightedPauliSum;
    use pauli_codesign::vqe::driver::{run_vqe, VqeOptions};

    let mut h = WeightedPauliSum::new(2);
    h.push(-1.0, "IZ".parse().unwrap());
    h.push(-0.5, "ZI".parse().unwrap());
    h.push(0.4, "XX".parse().unwrap());
    let mut ir = PauliIr::new(2, 0b01);
    for (s, c) in [("XY", 0.5), ("YX", -0.5)] {
        ir.push(IrEntry {
            string: s.parse().unwrap(),
            param: 0,
            coefficient: c,
        });
    }
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    run_vqe(&h, &ir, VqeOptions::default()).expect("toy VQE");
    obs::disable();
    let snap = obs::snapshot();
    let vqe = snap.span("vqe.run").expect("vqe.run span");
    assert_eq!(
        vqe.field("space"),
        Some(&obs::Value::Str("full".to_string()))
    );
    assert_eq!(vqe.field("sector_dim"), None);
    assert_eq!(
        vqe.field("fallback"),
        Some(&obs::Value::Str("leaks".to_string()))
    );
}
