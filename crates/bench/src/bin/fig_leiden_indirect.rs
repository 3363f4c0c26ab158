//! Appendix: indirect comparison with Leiden.
//!
//! The paper's appendix positions ν-LPA against state-of-the-art Leiden
//! implementations indirectly (via their published speedups over
//! Louvain). This harness makes the comparison direct on the stand-ins:
//! ν-LPA vs Louvain vs Leiden — wall-clock, modularity, and Leiden's
//! connectivity guarantee (fraction of graphs where every community is
//! internally connected).

use nulpa_baselines::{communities_connected, leiden, louvain, LeidenConfig, LouvainConfig};
use nulpa_bench::{geomean, median_time, print_header, BenchArgs};
use nulpa_core::{lpa_native, LpaConfig};
use nulpa_graph::datasets::all_specs;
use nulpa_metrics::modularity;

fn main() {
    let args = BenchArgs::parse();

    let mut speed_vs = [Vec::new(), Vec::new()]; // louvain, leiden
    let mut q = [Vec::new(), Vec::new(), Vec::new()]; // nu, louvain, leiden
    let mut connected = [0usize; 3];
    let mut total = 0usize;

    print_header("Appendix: nu-LPA vs Louvain vs Leiden");
    println!(
        "{:<17} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "graph", "t(nu)", "t(louv)", "t(leid)", "Q(nu)", "Q(louv)", "Q(leid)"
    );

    for spec in all_specs() {
        let d = spec.generate(args.scale);
        let g = &d.graph;
        total += 1;

        let (t_nu, nu) = median_time(args.repeats, || lpa_native(g, &LpaConfig::default()));
        let (t_lv, lv) = median_time(args.repeats, || louvain(g, &LouvainConfig::default()));
        let (t_ld, ld) = median_time(args.repeats, || leiden(g, &LeidenConfig::default()));

        let qs = [
            modularity(g, &nu.labels),
            modularity(g, &lv.labels),
            modularity(g, &ld.labels),
        ];
        for (i, labels) in [&nu.labels, &lv.labels, &ld.labels].iter().enumerate() {
            if communities_connected(g, labels) {
                connected[i] += 1;
            }
            q[i].push(qs[i]);
        }
        speed_vs[0].push(t_lv.as_secs_f64() / t_nu.as_secs_f64().max(1e-9));
        speed_vs[1].push(t_ld.as_secs_f64() / t_nu.as_secs_f64().max(1e-9));

        println!(
            "{:<17} {:>9.4} {:>9.4} {:>9.4} {:>8.4} {:>8.4} {:>8.4}",
            spec.name,
            t_nu.as_secs_f64(),
            t_lv.as_secs_f64(),
            t_ld.as_secs_f64(),
            qs[0],
            qs[1],
            qs[2]
        );
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nnu-LPA speedup: {:.2}x vs Louvain, {:.2}x vs Leiden",
        geomean(&speed_vs[0]).unwrap_or(f64::NAN),
        geomean(&speed_vs[1]).unwrap_or(f64::NAN)
    );
    println!(
        "mean modularity: nu-LPA {:.4}, Louvain {:.4}, Leiden {:.4}",
        mean(&q[0]),
        mean(&q[1]),
        mean(&q[2])
    );
    println!(
        "graphs with all communities internally connected: nu-LPA {}/{}, Louvain {}/{}, Leiden {}/{} (Leiden guarantees this)",
        connected[0], total, connected[1], total, connected[2], total
    );
}
