//! In-process half of the end-to-end `nulpa detect` benchmark.
//!
//! `run.py` drives the benchmark and times the real CLI as a child
//! process; this binary does the parts that need the library:
//!
//! * `setup` — generate a workload's inputs from seeds and write each as
//!   an edge list, timing both (the `setup_s` metric); then keep a binary
//!   copy of each graph and its 1-thread `lpa_native` reference labels.
//! * `check` — judge each labels file the CLI wrote against the input's
//!   reference.
//! * `check --trace` — additionally run the traced per-layer pipeline
//!   and write a Perfetto-readable trace (see `traced.rs`).
//!
//! Every subcommand prints one JSON object on stdout.

mod labels;
mod traced;

use nulpa_core::LpaConfig;
use nulpa_graph::datasets::spec_by_name;
use nulpa_graph::io::{read_binary, write_binary, write_edge_list};
use nulpa_graph::{gen, Csr};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

nulpa_telemetry::install_counting_alloc!();

/// The benchmark's workloads. Each uses the generator and parameters of
/// `DatasetSpec::generate` for its dataset, but takes the seed from the
/// command line instead of from the dataset name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// sk-2005 stand-in at scale 0.002: loading dominates the run.
    Web,
    /// kmer_V1r stand-in at scale 0.0025: iterating dominates the run.
    Kmer,
    /// The `Kmer` graph run with `--frontier` (worklist scheduling).
    KmerFrontier,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "web" => Ok(Workload::Web),
            "kmer" => Ok(Workload::Kmer),
            "kmer-frontier" => Ok(Workload::KmerFrontier),
            other => Err(format!(
                "unknown workload `{other}` (web, kmer, kmer-frontier)"
            )),
        }
    }

    /// Whether the CLI runs this workload with `--frontier`.
    fn frontier(self) -> bool {
        self == Workload::KmerFrontier
    }

    fn scale(self) -> f64 {
        match self {
            Workload::Web => 0.002,
            Workload::Kmer | Workload::KmerFrontier => 0.0025,
        }
    }

    fn generate(self, seed: u64) -> Csr {
        generate_at(self, self.scale(), seed)
    }
}

/// `DatasetSpec::generate`'s graph for the workload's dataset at `scale`,
/// seeded with `seed`.
fn generate_at(w: Workload, scale: f64, seed: u64) -> Csr {
    match w {
        Workload::Web => {
            let spec = spec_by_name("sk-2005").expect("sk-2005 is a Table 1 dataset");
            let n = spec.scaled_vertices(scale);
            let m_attach = ((spec.paper_avg_degree / 2.0).round() as usize).max(1);
            gen::web_crawl(n, m_attach, 0.08, seed)
        }
        Workload::Kmer | Workload::KmerFrontier => {
            let spec = spec_by_name("kmer_V1r").expect("kmer_V1r is a Table 1 dataset");
            let chains = (spec.scaled_vertices(scale) / 60).max(1);
            gen::kmer_chain(chains, 30, 90, 0.04, seed)
        }
    }
}

/// The files one input is kept in: the edge list the CLI reads, the same
/// graph in the library's binary format, and its reference labels.
struct InputFiles {
    edges: PathBuf,
    csr: PathBuf,
    reference: PathBuf,
}

impl InputFiles {
    fn new(edges: &str) -> Self {
        let edges = PathBuf::from(edges);
        InputFiles {
            csr: edges.with_extension("csr"),
            reference: edges.with_extension("ref"),
            edges,
        }
    }
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// The reference labels every CLI run must reproduce bit for bit: the
/// dense sweep at one thread (the fast path equals it at any thread
/// count, and frontier mode equals the dense sweep).
fn reference_labels(g: &Csr) -> Vec<u32> {
    nulpa_core::lpa_native(g, &LpaConfig::default().with_threads(1)).labels
}

fn write_labels(path: &Path, labels: &[u32]) -> Result<(), String> {
    let mut out = BufWriter::new(File::create(path).map_err(io_err(path))?);
    for l in labels {
        writeln!(out, "{l}").map_err(io_err(path))?;
    }
    out.flush().map_err(io_err(path))
}

fn json_list(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

fn cmd_setup(args: &[String]) -> Result<(), String> {
    let usage = "usage: perfbench setup <workload> <runs> <seed>:<edge-list>...";
    let [w, runs, inputs @ ..] = args else {
        return Err(usage.into());
    };
    let w = Workload::parse(w)?;
    let runs: usize = runs
        .parse()
        .ok()
        .filter(|&r| r > 0)
        .ok_or("runs must be a positive integer")?;
    let inputs: Vec<(u64, InputFiles)> = inputs
        .iter()
        .map(|a| {
            let (seed, out) = a.split_once(':').ok_or(usage)?;
            let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
            Ok((seed, InputFiles::new(out)))
        })
        .collect::<Result<_, String>>()?;
    if inputs.is_empty() {
        return Err(usage.into());
    }
    // Each input is set up once, then the first again until `runs` set-ups
    // have been timed. Only generating and writing the edge list is timed;
    // the binary copy and the reference are the benchmark's own work.
    let mut samples = Vec::new();
    let mut shapes = Vec::new();
    for i in 0..runs.max(inputs.len()) {
        let (seed, files) = &inputs[if i < inputs.len() { i } else { 0 }];
        let t = Instant::now();
        let g = w.generate(*seed);
        let mut wr = BufWriter::new(File::create(&files.edges).map_err(io_err(&files.edges))?);
        write_edge_list(&g, &mut wr)
            .and_then(|_| wr.flush())
            .map_err(io_err(&files.edges))?;
        samples.push(t.elapsed().as_secs_f64());
        if i >= inputs.len() {
            continue;
        }
        let mut wr = BufWriter::new(File::create(&files.csr).map_err(io_err(&files.csr))?);
        write_binary(&g, &mut wr)
            .and_then(|_| wr.flush())
            .map_err(io_err(&files.csr))?;
        write_labels(&files.reference, &reference_labels(&g))?;
        let bytes = std::fs::metadata(&files.edges)
            .map_err(io_err(&files.edges))?
            .len();
        shapes.push(format!(
            "{{\"seed\":{seed},\"vertices\":{},\"edges\":{},\"input_bytes\":{bytes}}}",
            g.num_vertices(),
            g.num_edges()
        ));
    }
    println!(
        "{{\"setup_s\":{},\"inputs\":[{}]}}",
        json_list(&samples),
        shapes.join(",")
    );
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let w = Workload::parse(it.next().ok_or("check: missing workload")?)?;
    let files = InputFiles::new(it.next().ok_or("check: missing edge-list path")?);
    let mut label_files = Vec::new();
    let mut trace: Option<(String, f64)> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => {
                let out = it.next().ok_or("--trace needs <out> <seconds>")?;
                let secs: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--trace needs <out> <seconds>")?;
                trace = Some((out.clone(), secs));
            }
            f => label_files.push(f.to_string()),
        }
    }
    let g = read_binary(BufReader::new(
        File::open(&files.csr).map_err(io_err(&files.csr))?,
    ))
    .map_err(|e| format!("{}: {e}", files.csr.display()))?;
    let text = std::fs::read_to_string(&files.reference).map_err(io_err(&files.reference))?;
    let reference = labels::parse_labels(&text)?;
    let verdicts: Vec<String> = label_files
        .iter()
        .map(|f| labels::judge_file(&g, &reference, Path::new(f)).to_json(f))
        .collect();
    let traced = match trace {
        Some((out, secs)) => traced::run(w, &files.edges, &g, &reference, Path::new(&out), secs)?,
        None => "null".into(),
    };
    println!("{{\"runs\":[{}],\"traced\":{traced}}}", verdicts.join(","));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("setup") => cmd_setup(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        _ => Err("usage: perfbench setup|check ...".into()),
    };
    if let Err(e) = res {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::datasets::spec_by_name;

    /// `DatasetSpec::generate` seeds each dataset with the FNV-1a hash of
    /// its name; with that seed, the workload generator must give the
    /// same graph.
    fn fnv1a(name: &str) -> u64 {
        name.bytes().fold(0xcbf29ce484222325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }

    #[test]
    fn workloads_match_dataset_generators() {
        for (w, name) in [(Workload::Web, "sk-2005"), (Workload::Kmer, "kmer_V1r")] {
            let scale = 1e-4;
            let want = spec_by_name(name).unwrap().generate(scale).graph;
            assert_eq!(generate_at(w, scale, fnv1a(name)), want, "{name}");
        }
    }

    /// The reference is computed on the generated graph; the CLI must
    /// load the very same graph from the edge list.
    #[test]
    fn edge_list_round_trips_through_the_cli_loader() {
        for w in [Workload::Web, Workload::Kmer] {
            let g = generate_at(w, 1e-4, 7);
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let loaded =
                nulpa_graph::io::read_edge_list(std::io::Cursor::new(buf), None, true).unwrap();
            assert_eq!(loaded, g, "{w:?}");
        }
    }

    #[test]
    fn seed_changes_the_input() {
        let a = generate_at(Workload::Kmer, 1e-4, 1);
        let b = generate_at(Workload::Kmer, 1e-4, 2);
        assert_ne!(a, b);
    }
}
