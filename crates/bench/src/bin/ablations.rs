//! Ablation studies for the design choices the paper adopts from GVE-LPA
//! without re-measuring on the GPU (DESIGN.md §4):
//!
//! 1. **Vertex pruning** (paper §4, feature 4) — reprocess only vertices
//!    whose neighbourhood changed vs. full sweeps every iteration.
//! 2. **Convergence tolerance** (paper §2's critique of NetworKit:
//!    "a tolerance of 10⁻² generally obtains communities of nearly the
//!    same quality [as 10⁻⁵], but converges much faster") — τ sweep.
//! 3. **Maximum iterations** — the value 20 vs. unconstrained.
//!
//! Metrics: simulated cycles on the GPU backend, iterations, and
//! modularity, geometric-mean-normalized across the figure datasets.

use nulpa_bench::{geomean, print_header, BenchArgs, Report, Table};
use nulpa_core::{lpa_gpu, LpaConfig};
use nulpa_graph::datasets::figure_specs;
use nulpa_metrics::modularity;

fn sweep(args: &BenchArgs, configs: &[(String, LpaConfig)]) -> Vec<(String, f64, f64, f64)> {
    let mut cycles = vec![Vec::new(); configs.len()];
    let mut quality = vec![Vec::new(); configs.len()];
    let mut iters = vec![Vec::new(); configs.len()];
    for spec in figure_specs() {
        let d = spec.generate(args.scale);
        let g = &d.graph;
        let mut graph_cycles = Vec::new();
        for (i, (_, cfg)) in configs.iter().enumerate() {
            let r = lpa_gpu(g, cfg);
            graph_cycles.push(r.stats.sim_cycles.max(1) as f64);
            quality[i].push(modularity(g, &r.labels).max(1e-6));
            iters[i].push(r.iterations as f64);
        }
        let min_c = graph_cycles.iter().cloned().fold(f64::MAX, f64::min);
        for (i, c) in graph_cycles.iter().enumerate() {
            cycles[i].push(c / min_c);
        }
    }
    configs
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            (
                name.clone(),
                geomean(&cycles[i]).unwrap_or(f64::NAN),
                quality[i].iter().sum::<f64>() / quality[i].len() as f64,
                iters[i].iter().sum::<f64>() / iters[i].len() as f64,
            )
        })
        .collect()
}

fn print_rows(rows: &[(String, f64, f64, f64)]) {
    println!(
        "{:<22} {:>14} {:>10} {:>10}",
        "config", "rel. runtime", "mean Q", "iters"
    );
    for (name, rc, q, it) in rows {
        println!("{name:<22} {rc:>14.3} {q:>10.4} {it:>10.1}");
    }
}

fn to_table(title: &str, rows: &[(String, f64, f64, f64)]) -> Table {
    let mut t = Table::new(title, &["rel_runtime", "mean_Q", "iters"]);
    for (name, rc, q, it) in rows {
        t.row(name, &[*rc, *q, *it]);
    }
    t
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = Report::new("ablations", &args);

    print_header("Ablation 1: vertex pruning");
    let rows = sweep(
        &args,
        &[
            ("pruning on (paper)".into(), LpaConfig::default()),
            (
                "pruning off".into(),
                LpaConfig::default().with_pruning(false),
            ),
        ],
    );
    print_rows(&rows);
    report.push(to_table("Ablation 1: vertex pruning", &rows));

    print_header("Ablation 2: convergence tolerance τ");
    let configs: Vec<(String, LpaConfig)> = [0.1, 0.05, 0.01, 1e-5]
        .into_iter()
        .map(|t| {
            (
                format!("tau = {t}"),
                LpaConfig::default()
                    .with_tolerance(t)
                    .with_max_iterations(100),
            )
        })
        .collect();
    let rows = sweep(&args, &configs);
    print_rows(&rows);
    println!("(paper: tau = 1e-2 gives nearly the quality of 1e-5, much faster)");
    report.push(to_table("Ablation 2: convergence tolerance tau", &rows));

    print_header("Ablation 3: shared-memory hashtables for low-degree vertices");
    let rows = sweep(
        &args,
        &[
            ("global tables (paper)".into(), LpaConfig::default()),
            (
                "shared-mem tables".into(),
                LpaConfig::default().with_shared_tables(true),
            ),
        ],
    );
    print_rows(&rows);
    println!("(paper: shared-memory tables gave little to no performance gain)");
    report.push(to_table(
        "Ablation 3: shared-memory hashtables for low-degree vertices",
        &rows,
    ));

    print_header("Ablation 4: iteration cap");
    let configs: Vec<(String, LpaConfig)> = [5u32, 10, 20, 100]
        .into_iter()
        .map(|m| {
            (
                format!("max_iter = {m}"),
                LpaConfig::default().with_max_iterations(m),
            )
        })
        .collect();
    let rows = sweep(&args, &configs);
    print_rows(&rows);
    report.push(to_table("Ablation 4: iteration cap", &rows));

    match report.write(&args.json) {
        Ok(path) => eprintln!("json report written to {path}"),
        Err(e) => eprintln!("warning: could not write json report: {e}"),
    }
}
