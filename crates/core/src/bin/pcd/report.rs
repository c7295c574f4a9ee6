//! `pcd report`: one post-mortem over any mix of observability artifacts.

use std::path::{Path, PathBuf};

use pauli_codesign::report::parse_bench_medians;

use crate::{CliError, Flags};

/// Files worth scanning when a `pcd report` input is a directory.
pub(crate) fn report_dir_entries(dir: &Path) -> Vec<PathBuf> {
    let Ok(read) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<_> = read
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            if !p.is_file() {
                return false;
            }
            if matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("jsonl" | "json" | "manifest")
            ) {
                return true;
            }
            // Transport forensics: artifacts set aside as corrupt.
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".quarantined"))
        })
        .collect();
    paths.sort();
    paths
}

pub(crate) fn cmd_report(flags: &Flags) -> Result<(), CliError> {
    use pauli_codesign::report::{classify_named, ReportBuilder};

    if flags.positional.is_empty() {
        return Err(CliError::Usage(
            "report needs at least one trace/flight/manifest/bench file or directory".to_string(),
        ));
    }
    let drift_tolerance = flags.positive::<f64>("drift-tolerance")? / 100.0;

    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in &flags.positional {
        let path = PathBuf::from(arg);
        if path.is_dir() {
            paths.extend(report_dir_entries(&path));
        } else {
            paths.push(path);
        }
    }

    // Post-mortem tooling must not die on the evidence: unreadable or
    // corrupt inputs become warnings in the report, and the exit stays 0.
    let mut builder = ReportBuilder::new();
    for path in &paths {
        let display = path.display().to_string();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        // Bytes, not a string: quarantined artifacts are often exactly
        // the files that stopped being valid UTF-8.
        match std::fs::read(path) {
            Ok(bytes) => match classify_named(name, &bytes) {
                Ok(artifact) => builder.add(&display, artifact),
                Err(e) => builder.add_warning(&display, e),
            },
            Err(e) => builder.add_warning(&display, e.to_string()),
        }
    }

    let baseline_path = flags.get("baseline").unwrap_or_default();
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => {
            parse_bench_medians(&text).map_err(|e| format!("baseline {baseline_path}: {e}"))?
        }
        // No baseline on disk simply skips the drift section (the
        // default path is a convenience, not a requirement).
        Err(_) => std::collections::BTreeMap::new(),
    };

    let report = builder.finish(&baseline, drift_tolerance);
    out!("{}", report.render());
    if let Some(out) = flags.get("out") {
        let json = format!("{}\n", report.to_json());
        obs::atomic_write(out, json.as_bytes()).map_err(|e| format!("writing {out}: {e}"))?;
        errln!("report JSON written to {out}");
    }
    // --strict turns degraded evidence into a failure: CI gates on it so
    // corrupt or missing artifacts cannot pass silently.
    if flags.is_set("strict") && !report.warnings.is_empty() {
        return Err(CliError::ReportStrict {
            warnings: report.warnings.len(),
        });
    }
    Ok(())
}
