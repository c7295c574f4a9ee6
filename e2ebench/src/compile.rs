//! Table II compiles, probed in `pipeline_large`'s traced run: full-UCCSD
//! circuits of HF through CH4 compiled with Merge-to-Root and SABRE.

use ansatz::uccsd::UccsdAnsatz;
use compiler::pipeline::{compile_mtr, compile_sabre};

use crate::inputs::{self, compile_topology, COMPILE_MOLECULES, COMPILE_TARGETS};
use crate::measure::{timed, OUTSIDE};
use crate::{Layers, PassReport};

/// Compiles every molecule for every target once, checks each added-CNOT
/// count against its recorded value, and sets the `compiler.*` layers:
/// summed compile times and summed added CNOTs per compiler.
pub fn probe(layers: &mut Layers, report: &mut PassReport) {
    let (mut mtr_secs, mut sabre_secs) = (0.0, 0.0);
    let (mut mtr_added, mut sabre_added) = (0usize, 0usize);
    for molecule in COMPILE_MOLECULES {
        let ir = match molecule.build_equilibrium() {
            Ok(system) => UccsdAnsatz::for_system(&system).into_ir(),
            Err(e) => {
                report.check(format_args!("compile {molecule}"), Err(e.to_string()));
                continue;
            }
        };
        for target in COMPILE_TARGETS {
            let topology = compile_topology(target);
            let added = if target.starts_with("mtr") {
                let (p, secs) = timed("bench.compiler.mtr", OUTSIDE, || {
                    compile_mtr(&ir, &topology)
                });
                mtr_secs += secs;
                mtr_added += p.added_cnots();
                p.added_cnots()
            } else {
                let (p, secs) = timed("bench.compiler.sabre", OUTSIDE, || {
                    compile_sabre(&ir, &topology, 1)
                });
                sabre_secs += secs;
                sabre_added += p.added_cnots();
                p.added_cnots()
            };
            report.check(
                format_args!("{molecule} {target}"),
                inputs::check_added(molecule, target, added),
            );
        }
    }
    layers.insert("compiler.mtr_ms", mtr_secs * 1e3);
    layers.insert("compiler.sabre_ms", sabre_secs * 1e3);
    layers.insert("compiler.mtr_added_cnots", mtr_added as f64);
    layers.insert("compiler.sabre_added_cnots", sabre_added as f64);
}
