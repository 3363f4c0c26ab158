//! Figure 1: community-swap prevention techniques.
//!
//! Sweeps Cross-Check every 1–4 iterations (CC1–CC4), Pick-Less every
//! 1–4 iterations (PL1–PL4), and all 16 Hybrid combinations on the
//! figure datasets, running the GPU-simulator backend. Reports, per
//! method, the geometric-mean *relative runtime* (simulated cycles,
//! normalized per graph to the fastest method) and geometric-mean
//! *relative modularity* (normalized to the best method per graph) —
//! the two panels of the paper's Fig. 1.
//!
//! Paper result to compare against: PL4 attains the highest modularity
//! while being only ~8 % slower than the fastest method (CC2).

use nulpa_bench::{geomean, print_header, BenchArgs, Report, Table};
use nulpa_core::{lpa_gpu, LpaConfig, SwapMode};
use nulpa_graph::datasets::figure_specs;
use nulpa_metrics::modularity;

fn main() {
    let args = BenchArgs::parse();

    let mut modes = vec![SwapMode::Off];
    for every in 1..=4 {
        modes.push(SwapMode::CrossCheck { every });
    }
    for every in 1..=4 {
        modes.push(SwapMode::PickLess { every });
    }
    for cc in 1..=4 {
        for pl in 1..=4 {
            modes.push(SwapMode::Hybrid {
                cc_every: cc,
                pl_every: pl,
            });
        }
    }

    // per graph: (cycles, modularity) per mode
    let specs = figure_specs();
    let mut cycles = vec![Vec::new(); modes.len()];
    let mut quality = vec![Vec::new(); modes.len()];

    for spec in &specs {
        let d = spec.generate(args.scale);
        let g = &d.graph;
        eprintln!(
            "running {} (|V|={}, |E|={})",
            spec.name,
            g.num_vertices(),
            g.num_edges()
        );
        let mut graph_cycles = Vec::new();
        let mut graph_q = Vec::new();
        for mode in &modes {
            let cfg = LpaConfig::default().with_swap_mode(*mode);
            let r = lpa_gpu(g, &cfg);
            graph_cycles.push(r.stats.sim_cycles.max(1) as f64);
            graph_q.push(modularity(g, &r.labels).max(1e-6));
        }
        let min_c = graph_cycles.iter().cloned().fold(f64::MAX, f64::min);
        let max_q = graph_q.iter().cloned().fold(f64::MIN, f64::max);
        for (i, (c, q)) in graph_cycles.iter().zip(&graph_q).enumerate() {
            cycles[i].push(c / min_c);
            quality[i].push(q / max_q);
        }
    }

    print_header("Fig. 1: mean relative runtime & modularity by swap-prevention method");
    println!(
        "{:<8} {:>16} {:>20}",
        "method", "rel. runtime", "rel. modularity"
    );
    let mut best = (String::new(), 0.0f64);
    let mut table = Table::new(
        "Fig. 1: mean relative runtime & modularity by swap-prevention method",
        &["rel_runtime", "rel_modularity"],
    );
    for (i, mode) in modes.iter().enumerate() {
        let rc = geomean(&cycles[i]).unwrap_or(f64::NAN);
        let rq = geomean(&quality[i]).unwrap_or(f64::NAN);
        println!("{:<8} {:>16.3} {:>20.4}", mode.label(), rc, rq);
        table.row(&mode.label(), &[rc, rq]);
        if rq > best.1 {
            best = (mode.label(), rq);
        }
    }
    println!(
        "\nhighest mean relative modularity: {} (paper: PL4)",
        best.0
    );

    let mut report = Report::new("fig_swap_prevention", &args);
    report.push(table);
    match report.write(&args.json) {
        Ok(path) => eprintln!("json report written to {path}"),
        Err(e) => eprintln!("warning: could not write json report: {e}"),
    }
}
