//! Figure 5: 32-bit vs 64-bit floating-point hashtable values.
//!
//! Runs the GPU-simulator backend with `f32` ("Float") and `f64`
//! ("Double") hashtable values on the figure datasets, reporting relative
//! simulated runtime, native wall-clock, and the modularity of the
//! detected communities.
//!
//! Paper result: Float gives a moderate speedup with no quality loss.

use nulpa_bench::{geomean, median_time, print_header, BenchArgs};
use nulpa_core::{lpa_gpu, lpa_native, LpaConfig, ValueType};
use nulpa_graph::datasets::figure_specs;
use nulpa_metrics::modularity;

fn main() {
    let args = BenchArgs::parse();
    let types = [ValueType::F32, ValueType::F64];

    let mut rel_cycles = vec![Vec::new(); 2];
    let mut rel_wall = vec![Vec::new(); 2];
    let mut qualities = vec![Vec::new(); 2];

    for spec in figure_specs() {
        let d = spec.generate(args.scale);
        let g = &d.graph;
        eprintln!(
            "running {} (|V|={}, |E|={})",
            spec.name,
            g.num_vertices(),
            g.num_edges()
        );
        let mut cycles = Vec::new();
        let mut walls = Vec::new();
        for (i, vt) in types.iter().enumerate() {
            let cfg = LpaConfig::default().with_value_type(*vt);
            let r = lpa_gpu(g, &cfg);
            cycles.push(r.stats.sim_cycles.max(1) as f64);
            qualities[i].push(modularity(g, &r.labels));
            let (t, _) = median_time(args.repeats, || lpa_native(g, &cfg));
            walls.push(t.as_secs_f64().max(1e-9));
        }
        for i in 0..2 {
            rel_cycles[i].push(cycles[i] / cycles[0]);
            rel_wall[i].push(walls[i] / walls[0]);
        }
    }

    print_header("Fig. 5: Float vs Double hashtable values");
    println!(
        "{:<8} {:>16} {:>14} {:>12}",
        "type", "rel. sim cycles", "rel. native", "mean Q"
    );
    for (i, label) in ["Float", "Double"].iter().enumerate() {
        let mean_q: f64 = qualities[i].iter().sum::<f64>() / qualities[i].len() as f64;
        println!(
            "{:<8} {:>16.3} {:>14.3} {:>12.4}",
            label,
            geomean(&rel_cycles[i]).unwrap_or(f64::NAN),
            geomean(&rel_wall[i]).unwrap_or(f64::NAN),
            mean_q
        );
    }
    println!(
        "\nDouble/Float simulated slowdown: {:.2}x; |ΔQ| = {:.4} (paper: moderate speedup, no quality loss)",
        geomean(&rel_cycles[1]).unwrap_or(f64::NAN),
        (qualities[0].iter().sum::<f64>() - qualities[1].iter().sum::<f64>()).abs()
            / qualities[0].len() as f64
    );
}
