//! The label-propagation family comparison behind the paper's §1 claim:
//! "In our evaluation of other label-propagation-based methods such as
//! COPRA, SLPA, and LabelRank, LPA emerged as the most efficient,
//! delivering communities of comparable quality."
//!
//! Runs plain LPA (the native ν-LPA port), COPRA, SLPA, and LabelRank on
//! the dataset stand-ins, reporting wall-clock runtime and the modularity
//! of the (disjoint-projected) communities.

use nulpa_baselines::{copra, labelrank, slpa, CopraConfig, LabelRankConfig, SlpaConfig};
use nulpa_bench::{geomean, median_time, print_header, BenchArgs};
use nulpa_core::{lpa_native, LpaConfig};
use nulpa_graph::datasets::all_specs;
use nulpa_metrics::modularity;

const METHODS: [&str; 4] = ["LPA", "COPRA", "SLPA", "LabelRank"];

fn main() {
    let args = BenchArgs::parse();

    let mut rel_time = vec![Vec::new(); METHODS.len()];
    let mut qualities = vec![Vec::new(); METHODS.len()];

    print_header("LP family: runtime (s) and modularity per dataset");
    println!(
        "{:<17} {:>8} {:>8} {:>8} {:>10} | {:>7} {:>7} {:>7} {:>9}",
        "graph",
        "t(LPA)",
        "t(COPRA)",
        "t(SLPA)",
        "t(LblRank)",
        "Q(LPA)",
        "Q(COP)",
        "Q(SLP)",
        "Q(LR)"
    );

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
        let runs: [Box<dyn Fn() -> Vec<u32>>; 4] = [
            Box::new(|| lpa_native(g, &LpaConfig::default()).labels),
            Box::new(|| copra(g, &CopraConfig::default()).labels),
            Box::new(|| slpa(g, &SlpaConfig::default()).labels),
            Box::new(|| labelrank(g, &LabelRankConfig::default()).labels),
        ];
        for run in &runs {
            let (t, labels) = median_time(args.repeats.min(3), run);
            times.push(t.as_secs_f64().max(1e-9));
            quals.push(modularity(g, &labels));
        }
        for i in 0..METHODS.len() {
            rel_time[i].push(times[i] / times[0]);
            qualities[i].push(quals[i]);
        }
        println!(
            "{:<17} {:>8.4} {:>8.4} {:>8.4} {:>10.4} | {:>7.3} {:>7.3} {:>7.3} {:>9.3}",
            spec.name,
            times[0],
            times[1],
            times[2],
            times[3],
            quals[0],
            quals[1],
            quals[2],
            quals[3]
        );
    }

    println!("\nruntime relative to LPA (geometric mean):");
    for (i, m) in METHODS.iter().enumerate() {
        let mean_q: f64 = qualities[i].iter().sum::<f64>() / qualities[i].len() as f64;
        println!(
            "  {:<10} {:>8.2}x   mean Q {:.4}",
            m,
            geomean(&rel_time[i]).unwrap_or(f64::NAN),
            mean_q
        );
    }
    println!("(paper §1: LPA most efficient among COPRA/SLPA/LabelRank, comparable quality)");
}
