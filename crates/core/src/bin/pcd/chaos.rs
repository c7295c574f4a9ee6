//! `pcd chaos --campaign <kind>`: one seeded fault campaign per run.

use std::path::PathBuf;

use pauli_codesign::chem::Benchmark;
use pauli_codesign::resilience::{run_chaos, run_kill_resume, ChaosOptions, KillResumeOptions};
use pauli_codesign::serve::{run_serve_chaos, ServeChaosOptions};
use pauli_codesign::supervisor::{run_supervised_chaos, SupervisedChaosOptions};

use crate::{CliError, Flags};

/// A fault campaign `pcd chaos --campaign <kind>` can run.
pub(crate) struct Campaign {
    pub(crate) kind: &'static str,
    /// The campaign's flags, beyond those every `chaos` run reads, with
    /// their defaults (see [`crate::Command::synopsis`]).
    pub(crate) synopsis: &'static str,
    /// The invariants the campaign checks, for `pcd help`.
    pub(crate) about: &'static str,
    /// obs counters (space-separated) printed after the report.
    counters: &'static str,
}

pub(crate) static CAMPAIGNS: [Campaign; 4] = [
    Campaign {
        kind: "pipeline",
        synopsis: "[molecule] [--seed N=42] [--trials N=40] [--fault-rate R=0.1] \
                   [--restarts K=3] [--bond Å]",
        about: "the default campaign: every injected pipeline fault recovered",
        counters: "resilience.faults_injected resilience.retries resilience.fallbacks",
    },
    Campaign {
        kind: "kill-resume",
        synopsis: "[molecule] [--bond Å] [--ratio R=0.5] [--kill-every K=2] \
                   [--samples N=2000] [--checkpoint DIR]",
        about: "VQE and yield resumed from checkpoint files bit-for-bit",
        counters: "",
    },
    Campaign {
        kind: "supervised",
        synopsis: "[--seed N=42] [--trials N=20] [--fault-rate R=0.25] [--jobs N=6] \
                   [--workers N=2] [--flight-dir DIR]",
        about: "no job lost, worker-count invariant, drain/resume exact",
        counters: "supervisor.panics_caught supervisor.timeouts",
    },
    Campaign {
        kind: "serve",
        synopsis: "[--seed N=7] [--trials N=2] [--fault-rate R=0.05] [--requests N=10] \
                   [--workers N=2] [--scratch-dir DIR] [--flight-dir DIR]",
        about: "daemon storms and a SIGTERM restart replay exactly",
        counters: "",
    },
];

/// The campaign `--campaign` selects.
pub(crate) fn campaign(flags: &Flags) -> Result<&'static Campaign, String> {
    let kind = flags.get("campaign").unwrap_or_default();
    if kind == "net" {
        return Err(format!("--campaign net is gone: {}", crate::TCP_RETIRED));
    }
    CAMPAIGNS.iter().find(|c| c.kind == kind).ok_or_else(|| {
        let kinds: Vec<&str> = CAMPAIGNS.iter().map(|c| c.kind).collect();
        format!(
            "unknown campaign `{kind}`; --campaign takes one of: {}",
            kinds.join(", ")
        )
    })
}

/// Runs one fault campaign, prints its report, and exits 20 when any
/// trial broke an invariant.
pub(crate) fn cmd_chaos(flags: &Flags) -> Result<(), CliError> {
    let campaign = campaign(flags)?;
    let kind = campaign.kind;
    let molecule = match (kind, flags.positional.is_empty()) {
        (_, true) => Benchmark::H2,
        ("pipeline" | "kill-resume", false) => flags.molecule()?,
        _ => {
            return Err(CliError::Usage(format!(
                "--campaign {kind} takes no molecule"
            )))
        }
    };
    let flight_dir = flags.get("flight-dir").map(PathBuf::from);
    // Created once the campaign's other flags have parsed.
    let created = |dir: &Option<PathBuf>| match dir {
        Some(d) => std::fs::create_dir_all(d)
            .map(|()| dir.clone())
            .map_err(|e| format!("creating flight dir {}: {e}", d.display())),
        None => Ok(None),
    };

    // Campaigns always record, so the obs counters below can be read
    // back even without --trace/--metrics.
    obs::enable();
    let report = match kind {
        "pipeline" => run_chaos(&ChaosOptions {
            seed: flags.number("seed")?,
            fault_rate: flags.rate("fault-rate")?,
            trials: flags.positive("trials")?,
            benchmark: molecule,
            bond_length: flags.opt("bond")?,
            max_restarts: flags.number("restarts")?,
        }),
        "kill-resume" => run_kill_resume(&KillResumeOptions {
            benchmark: molecule,
            bond_length: flags.opt("bond")?,
            ratio: flags.ratio()?,
            kill_every: flags.positive("kill-every")?,
            samples: flags.positive("samples")?,
            checkpoint_dir: flags.get("checkpoint").map(PathBuf::from),
        })?,
        "supervised" => run_supervised_chaos(&SupervisedChaosOptions {
            seed: flags.number("seed")?,
            trials: flags.positive("trials")?,
            jobs: flags.positive("jobs")?,
            workers: flags.positive("workers")?,
            fault_rate: flags.rate("fault-rate")?,
            check_drain: true,
            flight_dir: created(&flight_dir)?,
        }),
        _ => run_serve_chaos(&ServeChaosOptions {
            seed: flags.number("seed")?,
            trials: flags.positive("trials")?,
            requests: flags.positive("requests")?,
            workers: flags.positive("workers")?,
            fault_rate: flags.rate("fault-rate")?,
            scratch_dir: flags.get("scratch-dir").map_or_else(
                || std::env::temp_dir().join("pcd-serve-chaos"),
                PathBuf::from,
            ),
            flight_dir: created(&flight_dir)?,
            pcd_exe: Some(
                std::env::current_exe().map_err(|e| format!("locating the pcd binary: {e}"))?,
            ),
        }),
    };

    out!("{report}");
    let snapshot = obs::snapshot();
    for counter in campaign.counters.split_whitespace() {
        outln!(
            "  obs {:<28}: {}",
            counter,
            snapshot.counters.get(counter).copied().unwrap_or(0)
        );
    }
    if let Some(dir) = &flight_dir {
        let dumps = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
                    .count()
            })
            .unwrap_or(0);
        outln!("  flight dumps     : {dumps} in {}", dir.display());
    }
    if !report.survived() {
        return Err(CliError::ChaosUnsurvived {
            failed: report.failures(),
            trials: report.trials.len(),
        });
    }
    Ok(())
}
