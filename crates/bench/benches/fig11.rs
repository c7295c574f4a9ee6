//! Figure 11 regeneration: fabrication yield of XTree17Q vs Grid17Q under
//! the frequency-collision Monte Carlo.
//!
//! Two σ regimes are reported: the paper's figure axis (0.2–0.6 GHz) and
//! the tight-dispersion regime where our threshold set produces the same
//! "about 8×" separation the paper quotes (see EXPERIMENTS.md for the
//! discussion of the non-monotonic window effect).

use pauli_codesign::arch::{simulate_yield, CollisionModel, Topology};
use pauli_codesign_bench::{full_sweep, section};

fn main() {
    let model = CollisionModel::default();
    let xtree = Topology::xtree(17);
    let grid = Topology::grid17q();
    let samples = if full_sweep() { 200_000 } else { 40_000 };

    println!("architectures: {xtree} | {grid}");

    section("Figure 11 — paper axis (σ = 0.2–0.6 GHz)");
    print_rows(&xtree, &grid, &model, &[0.2, 0.3, 0.4, 0.5, 0.6], samples);

    section("tight-dispersion regime (σ = 0.02–0.06 GHz)");
    print_rows(
        &xtree,
        &grid,
        &model,
        &[0.02, 0.03, 0.04, 0.05, 0.06],
        samples,
    );

    section("structural comparison");
    println!(
        "edges            : XTree {} vs Grid {}",
        xtree.num_edges(),
        grid.num_edges()
    );
    println!(
        "crosstalk pairs  : XTree {} vs Grid {}",
        xtree.adjacent_edge_pairs(),
        grid.adjacent_edge_pairs()
    );
    println!("paper claim      : XTree yield ≈ 8× Grid yield");
}

fn print_rows(
    xtree: &Topology,
    grid: &Topology,
    model: &CollisionModel,
    sigmas: &[f64],
    samples: usize,
) {
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "sigma (GHz)", "XTree yield", "Grid yield", "ratio"
    );
    for &sigma in sigmas {
        let x = simulate_yield(xtree, model, sigma, samples, 17);
        let g = simulate_yield(grid, model, sigma, samples, 17);
        println!(
            "{sigma:<12.2} {:>14.4} {:>14.4} {:>7.1}x",
            x.yield_rate,
            g.yield_rate,
            x.yield_rate / g.yield_rate.max(1e-9),
        );
    }
}
