//! Perf baseline for the cycle-attribution profiler.
//!
//! Default mode profiles the built-in graph trio across every profiling
//! backend and writes `results/prof_baseline.json` — the committed
//! reference the CI perf gate compares against. `--check` re-profiles
//! the same matrix, writes `results/prof_current.json`, and exits
//! non-zero if any attributed cycle component regressed beyond the
//! tolerance relative to the committed baseline. The simulator is
//! deterministic, so any drift is a real cost-model or algorithm
//! change, not noise.
//!
//! ```text
//! profile_baseline [--check] [--baseline PATH] [--out PATH]
//!                  [--tolerance PCT] [--help]
//! ```

use nulpa_core::{resolve_threads, LpaConfig};
use nulpa_graph::gen::{caveman_weighted, erdos_renyi, two_cliques_light_bridge};
use nulpa_graph::Csr;
use nulpa_obs::meta::run_meta;
use nulpa_prof::json::report_to_json;
use nulpa_prof::{backends, compare_profiles, profile_graph, GraphProfile};
use std::process::ExitCode;

const USAGE: &str = "profile_baseline: write or check the profiler perf baseline
options: --check (compare against the baseline instead of rewriting it),
--baseline <path> (default results/prof_baseline.json),
--out <path> (default results/prof_baseline.json, or results/prof_current.json with --check),
--tolerance <pct> (allowed regression, default 5), --help";

struct Args {
    check: bool,
    baseline: String,
    out: Option<String>,
    tolerance: u64,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut a = Args {
        check: false,
        baseline: "results/prof_baseline.json".into(),
        out: None,
        tolerance: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--check" => a.check = true,
            "--baseline" => a.baseline = it.next().ok_or("--baseline needs a path")?,
            "--out" => a.out = Some(it.next().ok_or("--out needs a path")?),
            "--tolerance" => {
                a.tolerance = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--tolerance needs an integer percent")?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(a))
}

/// The same built-in trio `nulpa sancheck` and `nulpa profile` use: two
/// planted-partition graphs and one noise graph, all small enough that
/// the full matrix profiles in seconds.
fn graph_trio() -> Vec<(String, Csr)> {
    vec![
        ("two-cliques-s6".into(), two_cliques_light_bridge(6)),
        ("caveman-4x8".into(), caveman_weighted(4, 8, 0.5)),
        ("erdos-renyi-256".into(), erdos_renyi(256, 768, 42)),
    ]
}

fn run_matrix() -> Result<Vec<GraphProfile>, String> {
    let mut profiles = Vec::new();
    for (gname, g) in &graph_trio() {
        for spec in &backends() {
            let gp = profile_graph(gname, g, spec)?;
            if let Err(e) = &gp.conservation {
                return Err(format!("{gname}/{}: conservation failed: {e}", spec.name));
            }
            profiles.push(gp);
        }
    }
    Ok(profiles)
}

/// The frontier acceptance lock: the compacted active-set mode must beat
/// its dense counterpart by at least this much on at least one
/// `(graph, device)` cell of the matrix. The simulator is deterministic,
/// so a miss means the frontier scheduling genuinely regressed.
const FRONTIER_MIN_REDUCTION_PCT: f64 = 25.0;

fn check_frontier_win(profiles: &[GraphProfile]) -> Result<(), String> {
    let mut best: Option<(String, f64)> = None;
    for gp in profiles {
        let Some(dense_name) = gp.profile.backend.strip_suffix("-frontier") else {
            continue;
        };
        let dense = profiles
            .iter()
            .find(|d| d.profile.backend == dense_name && d.profile.graph == gp.profile.graph)
            .ok_or_else(|| {
                format!(
                    "frontier gate: no dense counterpart `{dense_name}` for {}/{}",
                    gp.profile.graph, gp.profile.backend
                )
            })?;
        let red = 100.0
            * (1.0 - gp.profile.totals.sim_cycles as f64 / dense.profile.totals.sim_cycles as f64);
        println!(
            "frontier vs dense {:<18} {:<6} {:>+6.1}% sim cycles",
            gp.profile.graph, dense_name, -red
        );
        if best.as_ref().is_none_or(|(_, r)| red > *r) {
            best = Some((format!("{}/{dense_name}", gp.profile.graph), red));
        }
    }
    match best {
        Some((cell, red)) if red >= FRONTIER_MIN_REDUCTION_PCT => {
            println!(
                "frontier gate: {cell} cut {red:.1}% of simulated cycles \
                 (threshold {FRONTIER_MIN_REDUCTION_PCT}%)"
            );
            Ok(())
        }
        Some((cell, red)) => Err(format!(
            "frontier gate failed: best reduction {red:.1}% ({cell}) is below \
             the locked {FRONTIER_MIN_REDUCTION_PCT}% threshold"
        )),
        None => Err("frontier gate: no frontier backends in the matrix".into()),
    }
}

fn write_report(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let profiles = run_matrix()?;
    let cfg = LpaConfig::default();
    let meta = run_meta(&[
        ("threads", resolve_threads(cfg.threads).to_string()),
        ("device", cfg.device.preset_name()),
        ("probe", cfg.probe.label().to_string()),
    ]);
    let text = report_to_json(&meta, &profiles);
    for gp in &profiles {
        println!(
            "profiled {:<18} {:<12} {:>10} cycles, {} iterations, {} communities",
            gp.profile.graph,
            gp.profile.backend,
            gp.profile.totals.sim_cycles,
            gp.profile.iterations,
            gp.communities,
        );
    }
    check_frontier_win(&profiles)?;

    if !args.check {
        let out = args.out.clone().unwrap_or_else(|| args.baseline.clone());
        write_report(&out, &text)?;
        println!("baseline written to {out} ({} profiles)", profiles.len());
        return Ok(());
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "results/prof_current.json".into());
    write_report(&out, &text)?;
    println!("current profile written to {out}");
    let baseline = std::fs::read_to_string(&args.baseline).map_err(|e| {
        format!(
            "{}: {e} (generate it with `profile_baseline`)",
            args.baseline
        )
    })?;
    let report = compare_profiles(&baseline, &text, args.tolerance)?;
    for line in &report.improvements {
        println!("note: {line}");
    }
    for line in &report.regressions {
        eprintln!("REGRESSION: {line}");
    }
    if report.passed() {
        println!(
            "perf gate passed: {} metrics within {}% of {}",
            report.checked, args.tolerance, args.baseline
        );
        Ok(())
    } else {
        Err(format!(
            "perf gate failed: {} regression(s) beyond {}%",
            report.regressions.len(),
            args.tolerance
        ))
    }
}
