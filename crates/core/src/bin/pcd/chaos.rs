//! `pcd chaos --campaign <kind>`: one seeded fault campaign per run.

use std::path::PathBuf;

use pauli_codesign::chem::Benchmark;
use pauli_codesign::resilience::{run_chaos, run_kill_resume, ChaosOptions, KillResumeOptions};
use pauli_codesign::serve::{run_serve_chaos, ServeChaosOptions};
use pauli_codesign::supervisor::{
    run_net_chaos, run_supervised_chaos, NetChaosOptions, SupervisedChaosOptions,
};

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

pub(crate) static CAMPAIGNS: [Campaign; 5] = [
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
        counters: "supervisor.panics_caught supervisor.timeouts supervisor.breaker_opened",
    },
    Campaign {
        kind: "serve",
        synopsis: "[--seed N=7] [--trials N=2] [--fault-rate R=0.05] [--requests N=10] \
                   [--workers N=2] [--scratch-dir DIR] [--flight-dir DIR]",
        about: "daemon storms and a SIGTERM restart replay exactly",
        counters: "",
    },
    Campaign {
        kind: "net",
        synopsis: "[--seed N=42] [--trials N=2] [--fault-rate R=0.25] [--jobs N=6] \
                   [--workers N=3] [--threads N=2] [--net-fault-rate R=0.05] \
                   [--scratch-dir DIR]",
        about: "a faulty proxy and a killed worker leave batch.manifest exact (--workers \
                at least 2)",
        counters: "net.coord.takeovers net.coord.results_deduped net.proxy.dropped \
                   net.proxy.corrupted net.proxy.duplicated net.proxy.severed net.proxy.refused",
    },
];

/// The campaign `--campaign` selects.
pub(crate) fn campaign(flags: &Flags) -> Result<&'static Campaign, String> {
    let kind = flags.get("campaign").unwrap_or_default();
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
    let scratch_dir = flags.get("scratch-dir").map(PathBuf::from);
    let pcd_exe = std::env::current_exe().map_err(|e| format!("locating the pcd binary: {e}"))?;

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
        "serve" => run_serve_chaos(&ServeChaosOptions {
            seed: flags.number("seed")?,
            trials: flags.positive("trials")?,
            requests: flags.positive("requests")?,
            workers: flags.positive("workers")?,
            fault_rate: flags.rate("fault-rate")?,
            scratch_dir: scratch_dir
                .unwrap_or_else(|| std::env::temp_dir().join("pcd-serve-chaos")),
            flight_dir: created(&flight_dir)?,
            pcd_exe: Some(pcd_exe),
        }),
        _ => {
            let workers = flags.positive("workers")?;
            if workers < 2 {
                return Err(CliError::Usage(
                    "--campaign net needs --workers of at least 2 (someone must survive the kill)"
                        .to_string(),
                ));
            }
            run_net_chaos(&NetChaosOptions {
                seed: flags.number("seed")?,
                trials: flags.positive("trials")?,
                jobs: flags.positive("jobs")?,
                workers,
                threads: flags.positive("threads")?,
                fault_rate: flags.rate("fault-rate")?,
                net_fault_rate: flags.rate("net-fault-rate")?,
                pcd_exe,
                scratch_dir,
            })
        }
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
