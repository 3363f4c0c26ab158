//! The traced run: each layer's public functions called in this process,
//! one span per call, plus the fast path's own host profile.
//!
//! One repetition runs the CLI's path (read, parse and build, iterate,
//! modularity, write) under a `detect` span, then probes the layers the
//! CLI path hides: the CSR builder alone, the block cut, the degree
//! buckets, the profiled fast path at 2 and 1 threads, and
//! `check_labels`. Repetitions continue until the time budget is spent;
//! each metric is reported as its median over repetitions, and the last
//! repetition is written as a Chrome/Perfetto trace.

use crate::Workload;
use nulpa_core::{bucket_partition, BucketThresholds, HostProfData, LpaConfig, SpanKind};
use nulpa_graph::blocks::{candidate_blocks, DEFAULT_BLOCK_EDGES};
use nulpa_graph::io::read_edge_list;
use nulpa_graph::{Csr, GraphBuilder, VertexId};
use nulpa_metrics::{check_labels, modularity_par};
use nulpa_obs::{ChromeTraceSink, RecordingSink, TraceEvent, TraceSink, Value};
use std::fs::File;
use std::io::{BufWriter, Cursor, Write};
use std::path::Path;
use std::time::Instant;

/// Threads the CLI is run with (the host has two hardware threads).
const THREADS: usize = 2;

/// One timed call, with the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; spans are written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.secs(id)
    }

    /// Time `f` as a leaf span; returns its result and duration in seconds.
    fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = std::hint::black_box(f());
        (out, self.end(id))
    }

    fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Duration minus the part covered by child spans (children of one
    /// span run one after another on this thread, so they never overlap).
    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns) - children
    }
}

/// What one repetition measured, and what it needs for the trace file.
struct Rep {
    metrics: Vec<(&'static str, f64)>,
    failure: Option<String>,
    tracer: Tracer,
    iter_spans: Vec<(u64, u64)>,
    /// Host profiles, with the name of the span that ran each.
    profiles: [(&'static str, HostProfData); 2],
}

fn compare(what: &str, got: &[VertexId], reference: &[VertexId]) -> Option<String> {
    (got != reference).then(|| format!("{what}: labels differ from the 1-thread reference"))
}

/// `(begin, end)` microsecond pairs of `lpa_native_traced`'s iteration spans.
fn iteration_spans(rec: &RecordingSink) -> Vec<(u64, u64)> {
    let mut begins = Vec::new();
    let mut out = Vec::new();
    for e in &rec.events {
        match e {
            TraceEvent::Begin { name, ts, .. } if name == "iteration" => begins.push(*ts),
            TraceEvent::End { name, ts, .. } if name == "iteration" => {
                out.push((begins.pop().expect("iteration end without begin"), *ts))
            }
            _ => {}
        }
    }
    out
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn repetition(
    w: Workload,
    path: &Path,
    expected: &Csr,
    reference: &[VertexId],
    labels_out: &Path,
) -> Result<Rep, String> {
    let cfg = LpaConfig::default().with_frontier(w.frontier());
    let mut tr = Tracer::new();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut failures = Vec::new();

    // --- the CLI's path, in the CLI's order ---
    let detect = tr.begin("detect");
    let (bytes, read_s) = tr.leaf("graph.io.read", || std::fs::read(path));
    let bytes = bytes.map_err(|e| format!("{}: {e}", path.display()))?;
    let before = nulpa_telemetry::alloc_snapshot();
    let (g, parse_build_s) = tr.leaf("graph.io.parse_build", || {
        read_edge_list(Cursor::new(&bytes), None, true)
    });
    let after = nulpa_telemetry::alloc_snapshot();
    let g: Csr = g.map_err(|e| format!("{}: {e}", path.display()))?;
    if g != *expected {
        failures.push("read_edge_list gave a different graph than the generator".into());
    }
    let mut rec = RecordingSink::new();
    let (result, native_s) = tr.leaf("core.native.iterate", || {
        nulpa_core::lpa_native_traced(&g, &cfg.with_threads(THREADS), &mut rec)
    });
    let (_, modularity_s) = tr.leaf("metrics.modularity", || modularity_par(&g, &result.labels));
    let (written, _) = tr.leaf("cli.write_labels", || -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(labels_out)?);
        for l in &result.labels {
            writeln!(out, "{l}")?;
        }
        out.flush()
    });
    written.map_err(|e| format!("{}: {e}", labels_out.display()))?;
    let detect_s = tr.end(detect);
    failures.extend(compare("lpa_native_traced", &result.labels, reference));

    // --- layers the CLI path hides ---
    let edges: Vec<(VertexId, VertexId, f32)> = g
        .vertices()
        .flat_map(|u| g.neighbors(u).map(move |(v, w)| (u, v, w)))
        .collect();
    let m_edges = edges.len();
    let (rebuilt, build_s) = tr.leaf("graph.builder.build", || {
        GraphBuilder::new(g.num_vertices())
            .reserve(m_edges * 2)
            .add_edges(edges)
            .symmetrize()
            .build()
    });
    if rebuilt != g {
        failures.push("GraphBuilder over the loaded edges gave a different CSR".into());
    }
    drop(rebuilt);

    // The first dense iteration's candidates (every non-isolated vertex),
    // cut with the fast path's budget rule.
    let cands: Vec<VertexId> = g.vertices().filter(|&v| g.degree(v) > 0).collect();
    let total: usize = cands.iter().map(|&v| g.degree(v)).sum();
    let budget = (total / 64).clamp(64, DEFAULT_BLOCK_EDGES);
    let (blocks, cut_s) = tr.leaf("graph.blocks.cut", || candidate_blocks(&g, &cands, budget));
    let (_, partition_s) = tr.leaf("core.fastpath.bucket_partition", || {
        bucket_partition(&g, &cands, BucketThresholds::default())
    });

    let mut prof = |tr: &mut Tracer, name, threads| -> Result<(HostProfData, f64), String> {
        let ((r, p), s) = tr.leaf(name, || {
            nulpa_core::lpa_native_hostprof(&g, &cfg.with_threads(threads))
        });
        failures.extend(compare(name, &r.labels, reference));
        Ok((p.ok_or("the fast path recorded no host profile")?, s))
    };
    let (p2, iter2_s) = prof(&mut tr, "core.fastpath.hostprof_2t", THREADS)?;
    let (p1, iter1_s) = prof(&mut tr, "core.fastpath.hostprof_1t", 1)?;
    let (checked, check_s) = tr.leaf("metrics.check_labels", || check_labels(&g, &result.labels));
    if let Err(e) = checked {
        failures.push(format!("check_labels: {e}"));
    }

    // --- derived metrics ---
    let ms = |ns: u64| ns as f64 / 1e6;
    let lead_ns = p2.per_thread.first().map_or(0, |t| t.busy_ns);
    let busy_ns: u64 = p2.per_thread.iter().map(|t| t.busy_ns).sum();
    let iters = &p2.iters;
    let candidates: u64 = iters.iter().map(|i| i.candidates).sum();
    let repaired: u64 = iters.iter().map(|i| i.repaired).sum();
    let buckets = p2.bucket_totals();
    let iter_spans = iteration_spans(&rec);
    let mut iter_ms: Vec<f64> = iter_spans
        .iter()
        .map(|&(b, e)| (e - b) as f64 / 1e3)
        .collect();
    let iter_max = iter_ms.iter().copied().fold(0.0, f64::max);
    let parse_allocs = after.alloc_count - before.alloc_count;
    let parse_bytes = after.total_allocated_bytes - before.total_allocated_bytes;

    m.extend([
        ("graph.io.read_s", read_s),
        ("graph.io.parse_build_s", parse_build_s),
        ("graph.io.parse_s", parse_build_s - build_s),
        ("graph.io.allocs", parse_allocs as f64),
        ("graph.io.alloc_mb", parse_bytes as f64 / 1e6),
        ("graph.builder.build_s", build_s),
        ("graph.vertices", g.num_vertices() as f64),
        ("graph.edges", g.num_edges() as f64),
        ("graph.input_bytes", bytes.len() as f64),
        ("graph.blocks.cut_s", cut_s),
        ("graph.blocks.count", blocks.len() as f64),
        ("core.fastpath.iterate_s", iter2_s),
        ("core.fastpath.iterate_1t_s", iter1_s),
        ("core.fastpath.speedup_2t", iter1_s / iter2_s),
        ("core.fastpath.lead_busy_ms", ms(lead_ns)),
        ("core.fastpath.worker_busy_ms", ms(busy_ns - lead_ns)),
        (
            "core.fastpath.commit_busy_ms",
            ms(iters.iter().map(|i| i.commit_ns).sum()),
        ),
        ("core.fastpath.imbalance", p2.imbalance()),
        (
            "core.fastpath.idle_ms",
            ms(p2.threads as u64 * p2.wall_ns) - ms(busy_ns),
        ),
        ("core.fastpath.candidates", candidates as f64),
        (
            "core.fastpath.edges_scanned",
            buckets.iter().map(|b| b.edges).sum::<u64>() as f64,
        ),
        ("core.fastpath.repaired", repaired as f64),
        ("core.fastpath.repair_rate", p2.repair_rate()),
        ("core.fastpath.cas_retries", p2.cas_retries() as f64),
        ("core.fastpath.bucket_partition_s", partition_s),
        (
            "core.fastpath.bucket.low.vertices",
            buckets[0].vertices as f64,
        ),
        (
            "core.fastpath.bucket.mid.vertices",
            buckets[1].vertices as f64,
        ),
        (
            "core.fastpath.bucket.high.vertices",
            buckets[2].vertices as f64,
        ),
        ("core.native.iterate_s", native_s),
        ("core.native.iterations", result.iterations as f64),
        ("core.native.changed_total", result.total_changes() as f64),
        (
            "core.native.scanned_total",
            result.scanned_per_iter.iter().sum::<usize>() as f64,
        ),
        ("core.native.iter_ms.p50", median(&mut iter_ms)),
        ("core.native.iter_ms.max", iter_max),
        ("core.native.other_ms", ms(p2.wall_ns) - ms(lead_ns)),
        ("metrics.modularity_s", modularity_s),
        ("metrics.check_labels_s", check_s),
        ("trace.detect_s", detect_s),
    ]);
    Ok(Rep {
        metrics: m,
        failure: (!failures.is_empty()).then(|| failures.join("; ")),
        tracer: tr,
        iter_spans,
        profiles: [
            ("core.fastpath.hostprof_2t", p2),
            ("core.fastpath.hostprof_1t", p1),
        ],
    })
}

/// Write the last repetition as a Chrome trace: one track of layer spans
/// (with `id`/`parent` links and self time), one of native iterations,
/// and per-thread compute and commit tracks for each profiled run.
fn write_trace(rep: &Rep, out: &Path) -> Result<(), String> {
    let tr = &rep.tracer;
    let start_of = |name: &str| {
        tr.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.start_ns)
    };
    let mut tracks: Vec<(u32, String)> = vec![
        (0, "layers".into()),
        (1, format!("lpa_native iterations ({THREADS} threads)")),
    ];
    // One compute and one commit track per thread of each profiled run,
    // for the threads that recorded spans of that kind.
    let mut timelines = Vec::new();
    for (span, prof) in &rep.profiles {
        let offset = start_of(span);
        for (tid, t) in prof.per_thread.iter().enumerate() {
            for (kind, label) in [(SpanKind::Compute, "compute"), (SpanKind::Commit, "commit")] {
                if !t.spans.iter().any(|s| s.kind == kind) {
                    continue;
                }
                let track = tracks.len() as u32;
                let role = if tid == 0 { " (lead)" } else { "" };
                let threads = prof.threads;
                tracks.push((
                    track,
                    format!("fast path {threads}t: thread {tid}{role} {label}"),
                ));
                timelines.push((track, offset, t, kind, label));
            }
        }
    }
    let names: Vec<(u32, &str)> = tracks.iter().map(|(t, n)| (*t, n.as_str())).collect();
    let file = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut sink = ChromeTraceSink::with_tracks(
        BufWriter::new(file),
        "nulpa detect benchmark (traced run)",
        &names,
    );
    let us = |ns: u64| ns / 1_000;
    // Layer spans are recorded in begin order with parents before
    // children; closing every open span that does not contain the next
    // one keeps B/E events properly nested.
    let mut open: Vec<usize> = Vec::new();
    let close = |sink: &mut ChromeTraceSink<_>, id: usize| {
        let s = &tr.spans[id];
        sink.span_end(
            0,
            s.name,
            us(s.end_ns),
            &[("self_us", Value::from(us(tr.self_ns(id))))],
        );
    };
    for (id, s) in tr.spans.iter().enumerate() {
        while let Some(&top) = open.last() {
            if Some(top) == s.parent {
                break;
            }
            close(&mut sink, top);
            open.pop();
        }
        let mut args = vec![("id", Value::from(id))];
        if let Some(p) = s.parent {
            args.push(("parent", Value::from(p)));
        }
        sink.span_begin(0, s.name, us(s.start_ns), &args);
        open.push(id);
    }
    while let Some(top) = open.pop() {
        close(&mut sink, top);
    }
    let native_start = start_of("core.native.iterate");
    for (i, &(b, e)) in rep.iter_spans.iter().enumerate() {
        let args = [("iter", Value::from(i))];
        sink.span_begin(1, "iteration", us(native_start) + b, &args);
        sink.span_end(1, "iteration", us(native_start) + e, &[]);
    }
    for &(track, offset, t, kind, label) in &timelines {
        for sp in t.spans.iter().filter(|sp| sp.kind == kind) {
            let args = [
                ("iter", Value::from(sp.iter)),
                ("block", Value::from(sp.block)),
            ];
            sink.span_begin(track, label, us(offset + sp.start_ns), &args);
            sink.span_end(track, label, us(offset + sp.start_ns + sp.dur_ns), &[]);
        }
    }
    sink.into_inner()
        .and_then(|mut w| w.flush())
        .map_err(|e| format!("{}: {e}", out.display()))
}

/// Run traced repetitions for at least `seconds` (at least one) and
/// return a JSON object: median metrics, repetition and failure counts,
/// and the last repetition's layer table.
pub fn run(
    w: Workload,
    path: &Path,
    expected: &Csr,
    reference: &[VertexId],
    out: &Path,
    seconds: f64,
) -> Result<String, String> {
    let labels_out = out.with_extension("labels");
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        reps.push(repetition(w, path, expected, reference, &labels_out)?);
    }
    let last = reps.last().expect("at least one repetition");
    write_trace(last, out)?;

    let metrics: Vec<String> = last
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let mut xs: Vec<f64> = reps.iter().map(|r| r.metrics[i].1).collect();
            format!("\"{name}\":{}", median(&mut xs))
        })
        .collect();
    let failures: Vec<String> = reps
        .iter()
        .filter_map(|r| r.failure.as_deref())
        .map(nulpa_obs::json::escape)
        .collect();
    let tr = &last.tracer;
    let layers: Vec<String> = tr
        .spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"name\":\"{}\",\"parent\":{},\"total_ms\":{},\"self_ms\":{}}}",
                s.name,
                s.parent
                    .map_or("null".into(), |p| format!("\"{}\"", tr.spans[p].name)),
                tr.secs(id) * 1e3,
                tr.self_ns(id) as f64 / 1e6
            )
        })
        .collect();
    Ok(format!(
        "{{\"repetitions\":{},\"failures\":[{}],\"metrics\":{{{}}},\"layers\":[{}],\"trace\":{}}}",
        reps.len(),
        failures.join(","),
        metrics.join(","),
        layers.join(","),
        nulpa_obs::json::escape(&out.display().to_string())
    ))
}
