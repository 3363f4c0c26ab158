//! Tracing is observation only: attaching any sink must not change what
//! the algorithms compute, and the exporters must emit exactly the
//! documented formats. The Chrome exporter is pinned by a golden file
//! (regenerate with `UPDATE_GOLDEN=1 cargo test --test tracing`).

use nu_lpa::core::{
    lpa_gpu, lpa_native, lpa_native_traced, lpa_run, lpa_seq, Backend, LpaConfig, RunCtx,
};
use nu_lpa::graph::gen::{caveman_weighted, erdos_renyi, two_cliques_light_bridge};
use nu_lpa::obs::{json, summarize, ChromeTraceSink, JsonlSink, RecordingSink, TraceSink};

const GOLDEN: &str = "tests/golden/trace_chrome.json";

#[test]
fn recording_sink_is_neutral_for_gpu_backend() {
    let graphs = [
        erdos_renyi(200, 600, 7),
        caveman_weighted(4, 8, 0.5),
        two_cliques_light_bridge(5),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let base = lpa_gpu(g, &LpaConfig::default());
        let mut sink = RecordingSink::new();
        let traced = lpa_run(
            Backend::Sim,
            g,
            &LpaConfig::default(),
            &mut RunCtx {
                sink: Some(&mut sink),
                ..RunCtx::default()
            },
        )
        .unwrap();
        assert_eq!(base.labels, traced.labels, "labels diverged on graph {i}");
        assert_eq!(base.stats, traced.stats, "stats diverged on graph {i}");
        assert_eq!(base.iterations, traced.iterations);
        assert_eq!(base.changed_per_iter, traced.changed_per_iter);
        let (begins, ends, counters) = sink.span_counts();
        assert!(begins > 0, "traced run on graph {i} recorded no spans");
        assert_eq!(begins, ends, "unbalanced spans on graph {i}");
        assert!(counters > 0);
    }
}

#[test]
fn recording_sink_is_neutral_for_native_and_seq() {
    let g = erdos_renyi(150, 450, 3);
    let cfg = LpaConfig::default();

    let base = lpa_native(&g, &cfg);
    let mut sink = RecordingSink::new();
    let traced = lpa_native_traced(&g, &cfg, &mut sink);
    assert_eq!(base.labels, traced.labels);
    assert_eq!(base.iterations, traced.iterations);
    assert!(sink.span_counts().0 > 0);

    let base = lpa_seq(&g, &cfg);
    let mut sink = RecordingSink::new();
    let traced = lpa_run(
        Backend::Seq,
        &g,
        &cfg,
        &mut RunCtx {
            sink: Some(&mut sink),
            ..RunCtx::default()
        },
    )
    .unwrap();
    assert_eq!(base.labels, traced.labels);
    assert_eq!(base.iterations, traced.iterations);
    assert!(sink.span_counts().0 > 0);
}

#[test]
fn gpu_trace_contains_expected_span_kinds() {
    let g = caveman_weighted(3, 6, 0.5);
    let mut sink = RecordingSink::new();
    lpa_run(
        Backend::Sim,
        &g,
        &LpaConfig::default(),
        &mut RunCtx {
            sink: Some(&mut sink),
            ..RunCtx::default()
        },
    )
    .unwrap();
    let names = sink.begin_names();
    for expected in ["lpa_gpu", "iteration", "wave"] {
        assert!(names.contains(&expected), "missing {expected} span");
    }
    assert!(
        names.iter().any(|n| n.starts_with("kernel:")),
        "missing kernel-launch span"
    );
}

fn chrome_trace_of_tiny_graph() -> String {
    let g = two_cliques_light_bridge(3);
    let mut sink = ChromeTraceSink::new(Vec::new());
    lpa_run(
        Backend::Sim,
        &g,
        &LpaConfig::default(),
        &mut RunCtx {
            sink: Some(&mut sink),
            ..RunCtx::default()
        },
    )
    .unwrap();
    sink.finish();
    assert!(sink.take_error().is_none());
    String::from_utf8(sink.into_inner().unwrap()).unwrap()
}

#[test]
fn chrome_exporter_matches_golden_file() {
    let got = chrome_trace_of_tiny_graph();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; run UPDATE_GOLDEN=1 cargo test --test tracing");
    assert_eq!(got, want, "Chrome trace output drifted from {GOLDEN}");
}

#[test]
fn chrome_trace_is_valid_json_with_expected_phases() {
    let text = chrome_trace_of_tiny_graph();
    let doc = json::parse(&text).expect("exporter must emit parseable JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
        .collect();
    phases.sort_unstable();
    phases.dedup();
    for ph in ["B", "E", "C", "M"] {
        assert!(phases.contains(&ph), "missing phase {ph}");
    }
    // B/E balance per (pid, tid)
    let balance: i64 = events
        .iter()
        .map(|e| match e.get("ph").and_then(|p| p.as_str()) {
            Some("B") => 1,
            Some("E") => -1,
            _ => 0,
        })
        .sum();
    assert_eq!(balance, 0, "unbalanced B/E events");
}

#[test]
fn jsonl_and_chrome_summaries_agree_on_real_run() {
    let g = two_cliques_light_bridge(3);
    let cfg = LpaConfig::default();

    let mut jsonl = JsonlSink::new(Vec::new());
    lpa_run(
        Backend::Sim,
        &g,
        &cfg,
        &mut RunCtx {
            sink: Some(&mut jsonl),
            ..RunCtx::default()
        },
    )
    .unwrap();
    jsonl.finish();
    let jsonl_text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();

    let chrome_text = chrome_trace_of_tiny_graph();

    let a = summarize(&jsonl_text).unwrap();
    let b = summarize(&chrome_text).unwrap();
    assert_eq!(a.spans, b.spans);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.end_ts, b.end_ts);
    assert!(a.spans.contains_key("lpa_gpu"));
}
