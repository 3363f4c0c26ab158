//! Figure 6: the headline comparison — FLPA (sequential), NetworKit PLP
//! (parallel), Gunrock-style synchronous LP, Louvain (cuGraph stand-in),
//! and ν-LPA (native port) on every dataset.
//!
//! Three panels, exactly as the paper reports them:
//!   (a) wall-clock runtime in seconds per graph,
//!   (b) speedup of ν-LPA over each baseline (geometric mean at the end),
//!   (c) modularity of the detected communities per graph.
//!
//! Paper results (A100 vs dual-Xeon server): ν-LPA 364× vs FLPA, 62× vs
//! NetworKit, 2.6× vs Gunrock, 37× vs cuGraph Louvain; modularity +4.7 %
//! vs FLPA, −6.1 % vs NetworKit, −9.6 % vs Louvain, Gunrock very low.
//! Absolute factors here are CPU-vs-CPU and therefore smaller — the
//! orderings are the reproduction target (see EXPERIMENTS.md).

use nulpa_baselines::{flpa, gunrock_lp, louvain, networkit_plp};
use nulpa_baselines::{GunrockConfig, LouvainConfig, PlpConfig};
use nulpa_bench::{geomean, median_time, print_header, BenchArgs, Report, Table};
use nulpa_core::{lpa_native, LpaConfig};
use nulpa_graph::datasets::all_specs;
use nulpa_graph::Csr;
use nulpa_metrics::modularity;

const IMPLS: [&str; 5] = ["FLPA", "NetworKit", "Gunrock", "Louvain", "nu-LPA"];

fn run_impl(idx: usize, g: &Csr) -> Vec<u32> {
    match idx {
        0 => flpa(g, 1).labels,
        1 => networkit_plp(g, &PlpConfig::default()).labels,
        2 => gunrock_lp(g, &GunrockConfig::default()).labels,
        3 => louvain(g, &LouvainConfig::default()).labels,
        4 => lpa_native(g, &LpaConfig::default()).labels,
        _ => unreachable!(),
    }
}

fn main() {
    let args = BenchArgs::parse();

    let mut speedups = vec![Vec::new(); IMPLS.len()];
    let mut all_q = vec![Vec::new(); IMPLS.len()];
    let mut per_graph: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    let mut best_rate = (String::new(), 0.0f64);

    for spec in all_specs() {
        let d = spec.generate(args.scale);
        let g = &d.graph;
        eprintln!(
            "running {} (|V|={}, |E|={})",
            spec.name,
            g.num_vertices(),
            g.num_edges()
        );

        let mut times = Vec::new();
        let mut quals = Vec::new();
        for i in 0..IMPLS.len() {
            let (t, labels) = median_time(args.repeats, || run_impl(i, g));
            times.push(t.as_secs_f64().max(1e-9));
            quals.push(modularity(g, &labels));
        }
        let nu = times[4];
        for i in 0..IMPLS.len() {
            speedups[i].push(times[i] / nu);
            all_q[i].push(quals[i]);
        }
        let rate = g.num_edges() as f64 / nu / 1e6;
        if rate > best_rate.1 {
            best_rate = (spec.name.to_string(), rate);
        }
        per_graph.push((spec.name.to_string(), times, quals));
    }

    let fmt_row = |name: &str, v: &[f64]| {
        format!(
            "{:<17} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            name, v[0], v[1], v[2], v[3], v[4]
        )
    };

    print_header("Fig. 6a: runtime in seconds");
    println!(
        "{:<17} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "graph", IMPLS[0], IMPLS[1], IMPLS[2], IMPLS[3], IMPLS[4]
    );
    for (name, times, _) in &per_graph {
        println!("{}", fmt_row(name, times));
    }

    print_header("Fig. 6b: speedup of nu-LPA (geometric mean over graphs)");
    for i in 0..4 {
        println!(
            "nu-LPA vs {:<10}: {:>8.2}x",
            IMPLS[i],
            geomean(&speedups[i]).unwrap_or(f64::NAN)
        );
    }
    println!("(paper, GPU vs CPUs: 364x FLPA, 62x NetworKit, 2.6x Gunrock, 37x Louvain)");
    println!(
        "peak processing rate: {:.1} M edges/s on {} (paper: 3.0 B edges/s on it-2004)",
        best_rate.1, best_rate.0
    );

    print_header("Fig. 6c: modularity of detected communities");
    println!(
        "{:<17} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "graph", IMPLS[0], IMPLS[1], IMPLS[2], IMPLS[3], IMPLS[4]
    );
    for (name, _, quals) in &per_graph {
        println!("{}", fmt_row(name, quals));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let nu_q = mean(&all_q[4]);
    println!("\nmean modularity: FLPA {:.4}, NetworKit {:.4}, Gunrock {:.4}, Louvain {:.4}, nu-LPA {:.4}",
        mean(&all_q[0]), mean(&all_q[1]), mean(&all_q[2]), mean(&all_q[3]), nu_q);
    println!(
        "nu-LPA vs FLPA: {:+.1}% | vs NetworKit: {:+.1}% | vs Louvain: {:+.1}%  (paper: +4.7%, -6.1%, -9.6%)",
        100.0 * (nu_q - mean(&all_q[0])) / mean(&all_q[0]).abs().max(1e-9),
        100.0 * (nu_q - mean(&all_q[1])) / mean(&all_q[1]).abs().max(1e-9),
        100.0 * (nu_q - mean(&all_q[3])) / mean(&all_q[3]).abs().max(1e-9),
    );

    // machine-readable mirror of the three panels
    let mut report = Report::new("fig_compare", &args);
    let mut t_run = Table::new("Fig. 6a: runtime in seconds", &IMPLS);
    let mut t_qual = Table::new("Fig. 6c: modularity of detected communities", &IMPLS);
    for (name, times, quals) in &per_graph {
        t_run.row(name, times);
        t_qual.row(name, quals);
    }
    let mut t_speed = Table::new(
        "Fig. 6b: speedup of nu-LPA (geometric mean over graphs)",
        &["speedup"],
    );
    for i in 0..4 {
        t_speed.row(IMPLS[i], &[geomean(&speedups[i]).unwrap_or(f64::NAN)]);
    }
    report.push(t_run).push(t_speed).push(t_qual);
    match report.write(&args.json) {
        Ok(path) => eprintln!("json report written to {path}"),
        Err(e) => eprintln!("warning: could not write json report: {e}"),
    }
}
