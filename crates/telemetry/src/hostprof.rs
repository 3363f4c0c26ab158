//! Host-parallel execution observatory: aggregation, rendering, and the
//! regression gate over [`nulpa_core::HostProfData`].
//!
//! `nulpa-core`'s `hostprof` module collects the raw per-thread
//! timelines, per-bucket work counters, and per-iteration repair
//! statistics of a fast-path run; this module is the reporting side:
//!
//! * [`summarize`] folds one run's raw data into a [`HostRunReport`] —
//!   per-thread busy time/utilization/span percentiles, per-bucket
//!   totals, imbalance (max/mean busy), and the repair rate;
//! * [`render_report`] formats reports as the text tables behind
//!   `nulpa profile --host`, [`report_json`] as the `--json` document;
//! * [`write_chrome_trace`] exports the raw span timelines as a
//!   Chrome/Perfetto trace with one track per worker thread;
//! * [`baseline_json`] / [`check_against_baseline`] implement the
//!   `results/hostprof_baseline.json` regression gate: repair rate and
//!   iteration count are deterministic and thread-count-invariant (the
//!   commit schedule is a pure function of the candidate order), so
//!   they gate tightly; imbalance is wall-clock and only gates above a
//!   busy-time noise floor;
//! * [`record_registry`] mirrors the headline numbers into the global
//!   metrics [`Registry`] so Prometheus/JSONL snapshots carry them.
//!
//! Everything here consumes plain data; the *recorder* lives in
//! `nulpa-core` and records only runs started through
//! `lpa_native_hostprof`.

use crate::registry::{global, Registry};
use nulpa_core::{BucketCounters, HostProfData, IterRepairStats, SpanKind, BUCKET_NAMES};
use nulpa_obs::export::ChromeTraceSink;
use nulpa_obs::json::{escape, fmt_f64, parse};
use nulpa_obs::sink::{TraceSink, Value};
use nulpa_obs::{Hist, Percentiles};
use std::io::Write;

/// Repair-rate gate: absolute slack added to the baseline.
pub const REPAIR_RATE_ABS: f64 = 0.01;
/// Repair-rate gate: relative slack added to the baseline.
pub const REPAIR_RATE_FRAC: f64 = 0.10;
/// Imbalance gate: runs whose mean per-thread busy time is below this
/// floor (milliseconds) are too short to gate — scheduler noise swamps
/// the signal on small graphs and single-core hosts.
pub const IMBALANCE_BUSY_FLOOR_MS: f64 = 50.0;
/// Imbalance gate: relative slack on the baseline.
pub const IMBALANCE_FRAC: f64 = 0.25;
/// Imbalance gate: absolute slack on the baseline.
pub const IMBALANCE_ABS: f64 = 0.5;

/// One thread's row in the utilization table.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadReport {
    /// Thread index (0 is the lead/commit thread).
    pub tid: usize,
    /// Total time inside spans, milliseconds.
    pub busy_ms: f64,
    /// `busy / wall` — fraction of the run this thread spent working.
    pub utilization: f64,
    /// Spans recorded.
    pub spans: usize,
    /// Span-duration percentiles, nanoseconds.
    pub span_ns: Percentiles,
}

/// Aggregated view of one profiled `lpa_native` run.
#[derive(Clone, Debug, PartialEq)]
pub struct HostRunReport {
    /// Graph label the run was profiled on.
    pub graph: String,
    /// Resolved thread count.
    pub threads: usize,
    /// Wall time, milliseconds.
    pub wall_ms: f64,
    /// Iterations committed.
    pub iterations: usize,
    /// Max/mean per-thread busy time (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Fraction of speculative picks the sequential commit recomputed.
    pub repair_rate: f64,
    /// Mean per-thread busy time, milliseconds.
    pub busy_ms_mean: f64,
    /// Total cursor-CAS retries (contention proxy; wall-clock noisy).
    pub cas_retries: u64,
    /// Per-thread utilization rows.
    pub per_thread: Vec<ThreadReport>,
    /// Per-bucket work totals, indexed like [`BUCKET_NAMES`].
    pub buckets: [BucketCounters; 3],
    /// Per-iteration repair statistics (deterministic schedule fields).
    pub iters: Vec<IterRepairStats>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Fold one run's raw profile into a report.
pub fn summarize(graph: &str, data: &HostProfData) -> HostRunReport {
    let wall_ns = data.wall_ns.max(1);
    let per_thread = data
        .per_thread
        .iter()
        .enumerate()
        .map(|(tid, t)| {
            let mut h = Hist::new();
            for s in &t.spans {
                h.record(s.dur_ns);
            }
            ThreadReport {
                tid,
                busy_ms: ms(t.busy_ns),
                utilization: t.busy_ns as f64 / wall_ns as f64,
                spans: t.spans.len(),
                span_ns: h.percentiles(),
            }
        })
        .collect();
    HostRunReport {
        graph: graph.to_string(),
        threads: data.threads,
        wall_ms: ms(data.wall_ns),
        iterations: data.iters.len(),
        imbalance: data.imbalance(),
        repair_rate: data.repair_rate(),
        busy_ms_mean: data.busy_ns_mean() / 1e6,
        cas_retries: data.cas_retries(),
        per_thread,
        buckets: data.bucket_totals(),
        iters: data.iters.clone(),
    }
}

/// Render reports as the `nulpa profile --host` text tables.
pub fn render_report(reports: &[HostRunReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let (repaired, cands): (u64, u64) = r
            .iters
            .iter()
            .fold((0, 0), |(a, b), i| (a + i.repaired, b + i.candidates));
        out.push_str(&format!(
            "host profile: {}  threads={}  wall {:.2} ms  iters {}\n",
            r.graph, r.threads, r.wall_ms, r.iterations
        ));
        out.push_str(&format!(
            "  imbalance {:.2}x   repair rate {:.2}% ({repaired}/{cands})   cursor CAS retries {}\n",
            r.imbalance,
            r.repair_rate * 100.0,
            r.cas_retries
        ));
        out.push_str("  thread      busy_ms   util%   spans   p50_us   p95_us   max_us\n");
        for t in &r.per_thread {
            let label = if t.tid == 0 {
                "0 (lead)".to_string()
            } else {
                t.tid.to_string()
            };
            out.push_str(&format!(
                "  {label:<10}{:>9.2}{:>8.1}{:>8}{:>9}{:>9}{:>9}\n",
                t.busy_ms,
                t.utilization * 100.0,
                t.spans,
                t.span_ns.p50 / 1_000,
                t.span_ns.p95 / 1_000,
                t.span_ns.max / 1_000,
            ));
        }
        out.push_str("  bucket   vertices      edges   chunks   cas_retries\n");
        for (name, b) in BUCKET_NAMES.iter().zip(r.buckets.iter()) {
            out.push_str(&format!(
                "  {name:<7}{:>11}{:>11}{:>9}{:>14}\n",
                b.vertices, b.edges, b.chunks, b.cas_retries
            ));
        }
        out.push_str("  repair trajectory (iter: repaired/candidates, blocks hit/total):\n");
        for chunk in r.iters.chunks(4) {
            out.push_str("   ");
            for i in chunk {
                out.push_str(&format!(
                    " {}: {}/{} {}/{}",
                    i.iter, i.repaired, i.candidates, i.repair_blocks, i.blocks
                ));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

fn report_obj(r: &HostRunReport) -> String {
    let threads: Vec<String> = r
        .per_thread
        .iter()
        .map(|t| {
            format!(
                "{{\"tid\":{},\"busy_ms\":{},\"utilization\":{},\"spans\":{},\
                 \"p50_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}",
                t.tid,
                fmt_f64(t.busy_ms),
                fmt_f64(t.utilization),
                t.spans,
                t.span_ns.p50,
                t.span_ns.p95,
                t.span_ns.max
            )
        })
        .collect();
    let buckets: Vec<String> = BUCKET_NAMES
        .iter()
        .zip(r.buckets.iter())
        .map(|(name, b)| {
            format!(
                "{{\"name\":{},\"vertices\":{},\"edges\":{},\"chunks\":{},\"cas_retries\":{}}}",
                escape(name),
                b.vertices,
                b.edges,
                b.chunks,
                b.cas_retries
            )
        })
        .collect();
    let iters: Vec<String> = r
        .iters
        .iter()
        .map(|i| {
            format!(
                "{{\"iter\":{},\"blocks\":{},\"candidates\":{},\"repaired\":{},\
                 \"repair_blocks\":{},\"committed\":{},\"commit_ms\":{}}}",
                i.iter,
                i.blocks,
                i.candidates,
                i.repaired,
                i.repair_blocks,
                i.committed,
                fmt_f64(i.commit_ns as f64 / 1e6)
            )
        })
        .collect();
    format!(
        "{{\"graph\":{},\"threads\":{},\"wall_ms\":{},\"iterations\":{},\
         \"imbalance\":{},\"repair_rate\":{},\"busy_ms_mean\":{},\"cas_retries\":{},\
         \"per_thread\":[{}],\"buckets\":[{}],\"iters\":[{}]}}",
        escape(&r.graph),
        r.threads,
        fmt_f64(r.wall_ms),
        r.iterations,
        fmt_f64(r.imbalance),
        fmt_f64(r.repair_rate),
        fmt_f64(r.busy_ms_mean),
        r.cas_retries,
        threads.join(","),
        buckets.join(","),
        iters.join(",")
    )
}

/// Full JSON document for `nulpa profile --host --json`; `meta` is the
/// caller's provenance object (pass `"{}"` for none).
pub fn report_json(meta_json: &str, reports: &[HostRunReport]) -> String {
    let runs: Vec<String> = reports.iter().map(report_obj).collect();
    format!(
        "{{\"schema\":\"hostprof-report-v1\",\"meta\":{meta_json},\"runs\":[{}]}}\n",
        runs.join(",")
    )
}

/// Compact baseline document for the regression gate: one entry per
/// (graph, threads) row carrying only the gated and context fields.
pub fn baseline_json(reports: &[HostRunReport]) -> String {
    let entries: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "  {{\"graph\":{},\"threads\":{},\"iterations\":{},\"repair_rate\":{},\
                 \"imbalance\":{},\"busy_ms_mean\":{},\"cas_retries\":{}}}",
                escape(&r.graph),
                r.threads,
                r.iterations,
                fmt_f64(r.repair_rate),
                fmt_f64(r.imbalance),
                fmt_f64(r.busy_ms_mean),
                r.cas_retries
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"hostprof-baseline-v1\",\"entries\":[\n{}\n]}}\n",
        entries.join(",\n")
    )
}

/// Gate current reports against a baseline document produced by
/// [`baseline_json`]. Returns the number of matched entries, or the list
/// of human-readable failures. Matching no entries at all is a failure —
/// a renamed graph must not silently disable the gate.
pub fn check_against_baseline(
    baseline: &str,
    reports: &[HostRunReport],
) -> Result<usize, Vec<String>> {
    let doc = match parse(baseline) {
        Ok(d) => d,
        Err(e) => return Err(vec![format!("baseline is not valid JSON: {e}")]),
    };
    let entries = match doc.get("entries").and_then(|e| e.as_arr()) {
        Some(e) => e,
        None => return Err(vec!["baseline has no \"entries\" array".to_string()]),
    };
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for r in reports {
        let entry = entries.iter().find(|e| {
            e.get("graph").and_then(|g| g.as_str()) == Some(r.graph.as_str())
                && e.get("threads").and_then(|t| t.as_u64()) == Some(r.threads as u64)
        });
        let Some(entry) = entry else { continue };
        matched += 1;
        let key = format!("{} threads={}", r.graph, r.threads);
        if let Some(base_iters) = entry.get("iterations").and_then(|v| v.as_u64()) {
            // Iteration count is deterministic at any thread count: a
            // mismatch means the commit schedule itself changed.
            if r.iterations as u64 != base_iters {
                failures.push(format!(
                    "{key}: iterations {} != baseline {} (schedule changed; \
                     regenerate the baseline if intentional)",
                    r.iterations, base_iters
                ));
            }
        }
        if let Some(base_rate) = entry.get("repair_rate").and_then(|v| v.as_f64()) {
            let limit = base_rate + REPAIR_RATE_ABS.max(REPAIR_RATE_FRAC * base_rate);
            if r.repair_rate > limit {
                failures.push(format!(
                    "{key}: repair rate {:.4} exceeds baseline {:.4} + slack (limit {:.4})",
                    r.repair_rate, base_rate, limit
                ));
            }
        }
        if let Some(base_imb) = entry.get("imbalance").and_then(|v| v.as_f64()) {
            // Imbalance is wall-clock: only gate when this run did enough
            // work for the max/mean ratio to mean anything.
            if r.busy_ms_mean > IMBALANCE_BUSY_FLOOR_MS {
                let limit = base_imb * (1.0 + IMBALANCE_FRAC) + IMBALANCE_ABS;
                if r.imbalance > limit {
                    failures.push(format!(
                        "{key}: imbalance {:.2} exceeds baseline {:.2} + slack (limit {:.2})",
                        r.imbalance, base_imb, limit
                    ));
                }
            }
        }
    }
    if matched == 0 {
        failures.push("no baseline entries matched any profiled run".to_string());
    }
    if failures.is_empty() {
        Ok(matched)
    } else {
        Err(failures)
    }
}

/// Export one run's raw span timelines as a Chrome/Perfetto trace with
/// one track per worker thread (timestamps in microseconds since the
/// run began). Span durations are also aggregated into `compute_ns` /
/// `commit_ns` histograms flushed at the end of the trace.
pub fn write_chrome_trace<W: Write>(
    out: W,
    graph: &str,
    data: &HostProfData,
) -> Result<W, std::io::Error> {
    let names: Vec<String> = (0..data.per_thread.len())
        .map(|t| {
            if t == 0 {
                "thread 0 (lead)".to_string()
            } else {
                format!("thread {t}")
            }
        })
        .collect();
    let tracks: Vec<(u32, &str)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (i as u32, n.as_str()))
        .collect();
    let mut sink =
        ChromeTraceSink::with_tracks(out, &format!("nu-lpa host profile: {graph}"), &tracks);
    for (tid, t) in data.per_thread.iter().enumerate() {
        for s in &t.spans {
            let (name, hist) = match s.kind {
                SpanKind::Compute => ("compute", "compute_ns"),
                SpanKind::Commit => ("commit", "commit_ns"),
            };
            sink.span_begin(
                tid as u32,
                name,
                s.start_ns / 1_000,
                &[
                    ("iter", Value::from(s.iter as u64)),
                    ("block", Value::from(s.block as u64)),
                ],
            );
            sink.span_end(tid as u32, name, (s.start_ns + s.dur_ns) / 1_000, &[]);
            sink.hist_sample(hist, s.dur_ns);
        }
    }
    sink.into_inner()
}

/// Mirror a report's headline numbers into `registry` (see
/// [`record_registry`] for the global variant).
pub fn record_into(registry: &Registry, r: &HostRunReport) {
    registry.counter("hostprof.runs").inc();
    registry.counter("hostprof.cas_retries").add(r.cas_retries);
    for (name, b) in BUCKET_NAMES.iter().zip(r.buckets.iter()) {
        registry
            .counter(&format!("hostprof.bucket.{name}.vertices"))
            .add(b.vertices);
        registry
            .counter(&format!("hostprof.bucket.{name}.edges"))
            .add(b.edges);
        registry
            .counter(&format!("hostprof.bucket.{name}.chunks"))
            .add(b.chunks);
    }
    registry
        .gauge("hostprof.last.imbalance_milli")
        .set((r.imbalance * 1e3) as i64);
    registry
        .gauge("hostprof.last.repair_rate_ppm")
        .set((r.repair_rate * 1e6) as i64);
    let busy = registry.histogram("hostprof.thread_busy_ms");
    for t in &r.per_thread {
        busy.record(t.busy_ms as u64);
    }
}

/// [`record_into`] the process-global registry.
pub fn record_registry(r: &HostRunReport) {
    record_into(global(), r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_core::{SpanRec, ThreadProfData};

    fn sample_data() -> HostProfData {
        let spans0 = vec![
            SpanRec {
                iter: 0,
                block: 0,
                kind: SpanKind::Compute,
                start_ns: 0,
                dur_ns: 2_000,
            },
            SpanRec {
                iter: 0,
                block: 0,
                kind: SpanKind::Commit,
                start_ns: 2_500,
                dur_ns: 1_000,
            },
        ];
        let spans1 = vec![SpanRec {
            iter: 0,
            block: 0,
            kind: SpanKind::Compute,
            start_ns: 100,
            dur_ns: 1_500,
        }];
        let mut t0 = ThreadProfData {
            spans: spans0,
            busy_ns: 3_000,
            ..Default::default()
        };
        t0.buckets[0] = BucketCounters {
            vertices: 60,
            edges: 120,
            chunks: 3,
            cas_retries: 2,
        };
        let mut t1 = ThreadProfData {
            spans: spans1,
            busy_ns: 1_500,
            ..Default::default()
        };
        t1.buckets[2] = BucketCounters {
            vertices: 40,
            edges: 400,
            chunks: 1,
            cas_retries: 0,
        };
        HostProfData {
            threads: 2,
            wall_ns: 4_000,
            per_thread: vec![t0, t1],
            iters: vec![IterRepairStats {
                iter: 0,
                blocks: 1,
                candidates: 100,
                repaired: 4,
                repair_blocks: 1,
                committed: 42,
                commit_ns: 1_000,
            }],
        }
    }

    #[test]
    fn summarize_computes_utilization_and_rates() {
        let r = summarize("g", &sample_data());
        assert_eq!(r.threads, 2);
        assert_eq!(r.iterations, 1);
        assert!((r.per_thread[0].utilization - 0.75).abs() < 1e-12);
        assert!((r.per_thread[1].utilization - 0.375).abs() < 1e-12);
        // imbalance = max 3000 / mean 2250
        assert!((r.imbalance - 3_000.0 / 2_250.0).abs() < 1e-12);
        assert!((r.repair_rate - 0.04).abs() < 1e-12);
        assert_eq!(r.cas_retries, 2);
        assert_eq!(r.buckets[0].vertices, 60);
        assert_eq!(r.buckets[2].edges, 400);
        assert_eq!(r.per_thread[0].spans, 2);
    }

    #[test]
    fn text_report_names_every_section() {
        let text = render_report(&[summarize("toy-graph", &sample_data())]);
        for needle in [
            "host profile: toy-graph",
            "threads=2",
            "imbalance",
            "repair rate",
            "0 (lead)",
            "bucket",
            "low",
            "high",
            "repair trajectory",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn report_json_parses_and_carries_runs() {
        let r = summarize("g", &sample_data());
        let doc = parse(&report_json("{}", &[r.clone(), r])).unwrap();
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("graph").unwrap().as_str(), Some("g"));
        assert_eq!(runs[0].get("threads").unwrap().as_u64(), Some(2));
        let threads = runs[0].get("per_thread").unwrap().as_arr().unwrap();
        assert_eq!(threads.len(), 2);
        let buckets = runs[0].get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].get("name").unwrap().as_str(), Some("low"));
    }

    #[test]
    fn baseline_roundtrip_passes_gate() {
        let reports = vec![summarize("g", &sample_data())];
        let baseline = baseline_json(&reports);
        assert_eq!(check_against_baseline(&baseline, &reports), Ok(1));
    }

    #[test]
    fn gate_fails_on_repair_rate_regression() {
        let mut reports = vec![summarize("g", &sample_data())];
        let baseline = baseline_json(&reports);
        // current run repairs far more than the recorded baseline
        reports[0].repair_rate = 0.5;
        let failures = check_against_baseline(&baseline, &reports).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("repair rate")),
            "{failures:?}"
        );
    }

    #[test]
    fn gate_fails_on_iteration_schedule_change() {
        let mut reports = vec![summarize("g", &sample_data())];
        let baseline = baseline_json(&reports);
        reports[0].iterations = 7;
        let failures = check_against_baseline(&baseline, &reports).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("iterations")),
            "{failures:?}"
        );
    }

    #[test]
    fn gate_ignores_imbalance_below_noise_floor_but_not_above() {
        let mut reports = vec![summarize("g", &sample_data())];
        let baseline = baseline_json(&reports);
        // tiny busy time: imbalance spike is ignored
        reports[0].imbalance = 100.0;
        assert!(check_against_baseline(&baseline, &reports).is_ok());
        // heavy run: the same spike fails
        reports[0].busy_ms_mean = IMBALANCE_BUSY_FLOOR_MS * 2.0;
        let failures = check_against_baseline(&baseline, &reports).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("imbalance")),
            "{failures:?}"
        );
    }

    #[test]
    fn gate_rejects_when_nothing_matches() {
        let reports = vec![summarize("g", &sample_data())];
        let baseline = baseline_json(&reports);
        let renamed = vec![HostRunReport {
            graph: "other".to_string(),
            ..reports[0].clone()
        }];
        let failures = check_against_baseline(&baseline, &renamed).unwrap_err();
        assert!(failures[0].contains("no baseline entries matched"));
        // malformed baselines fail loudly too
        assert!(check_against_baseline("not json", &reports).is_err());
        assert!(check_against_baseline("{}", &reports).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_track_per_thread() {
        let data = sample_data();
        let buf = write_chrome_trace(Vec::new(), "g", &data).unwrap();
        let doc = parse(&String::from_utf8(buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .filter_map(|e| e.get("args").unwrap().get("name").unwrap().as_str())
            .collect();
        assert!(names.contains(&"thread 0 (lead)"));
        assert!(names.contains(&"thread 1"));
        let begins = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("E"))
            .count();
        assert_eq!(begins, 3);
        assert_eq!(begins, ends);
    }

    #[test]
    fn registry_recording_accumulates() {
        let reg = Registry::new();
        let r = summarize("g", &sample_data());
        record_into(&reg, &r);
        record_into(&reg, &r);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["hostprof.runs"], 2);
        assert_eq!(snap.counters["hostprof.cas_retries"], 4);
        assert_eq!(snap.counters["hostprof.bucket.low.vertices"], 120);
        assert_eq!(snap.gauges["hostprof.last.repair_rate_ppm"], 40_000);
        assert_eq!(snap.hists["hostprof.thread_busy_ms"].count, 4);
    }
}
