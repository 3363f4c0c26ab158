//! Telemetry neutrality and cross-backend convergence agreement.
//!
//! The telemetry layer must be a pure observer: attaching a
//! [`ConvergenceRecorder`] (or no observer at all, via `lpa_run` with a
//! [`NullObserver`]) must not change a single label,
//! iteration count, or ΔN of any backend. And the convergence telemetry
//! itself must agree across backends where the algorithm does: all three
//! land on the same final modularity on the community-structured
//! built-in graphs (exact trajectories legitimately differ — seq scans
//! scrambled vertex order, native scans hashtable slots, the simulator
//! buffers label visibility per wave).

use nu_lpa::core::{
    lpa_gpu, lpa_native, lpa_run, lpa_seq, Backend, LpaConfig, LpaResult, NullObserver, RunCtx,
};
use nu_lpa::graph::gen::{caveman_weighted, erdos_renyi, two_cliques_light_bridge};
use nu_lpa::graph::Csr;
use nu_lpa::metrics::{community_count, modularity};
use nu_lpa::telemetry::ConvergenceRecorder;

fn trio() -> Vec<(String, Csr)> {
    vec![
        ("two-cliques-s6".into(), two_cliques_light_bridge(6)),
        ("caveman-4x8".into(), caveman_weighted(4, 8, 0.5)),
        ("erdos-renyi-256".into(), erdos_renyi(256, 768, 42)),
    ]
}

fn run_observed(backend: &str, g: &Csr, obs: &mut dyn nu_lpa::core::IterObserver) -> LpaResult {
    let backend = match backend {
        "seq" => Backend::Seq,
        "native" => Backend::Native,
        "gpu" => Backend::Sim,
        _ => unreachable!(),
    };
    let mut ctx = RunCtx {
        observer: Some(obs),
        ..RunCtx::default()
    };
    lpa_run(backend, g, &LpaConfig::default(), &mut ctx).unwrap()
}

fn run_plain(backend: &str, g: &Csr) -> LpaResult {
    let cfg = LpaConfig::default();
    match backend {
        "seq" => lpa_seq(g, &cfg),
        "native" => lpa_native(g, &cfg),
        "gpu" => lpa_gpu(g, &cfg),
        _ => unreachable!(),
    }
}

/// Observers are strictly read-only: plain, null-observed and
/// recorder-observed runs produce identical results.
#[test]
fn observers_do_not_perturb_any_backend() {
    for (gname, g) in &trio() {
        for backend in ["seq", "native", "gpu"] {
            let plain = run_plain(backend, g);
            let nulled = run_observed(backend, g, &mut NullObserver);
            let mut rec = ConvergenceRecorder::new(g);
            let recorded = run_observed(backend, g, &mut rec);
            for (tag, r) in [("null", &nulled), ("recorder", &recorded)] {
                assert_eq!(r.labels, plain.labels, "{gname}/{backend}/{tag}: labels");
                assert_eq!(
                    r.iterations, plain.iterations,
                    "{gname}/{backend}/{tag}: iterations"
                );
                assert_eq!(
                    r.changed_per_iter, plain.changed_per_iter,
                    "{gname}/{backend}/{tag}: dN series"
                );
                assert_eq!(
                    r.converged, plain.converged,
                    "{gname}/{backend}/{tag}: converged"
                );
            }
        }
    }
}

/// Each backend's recorded trajectory is internally consistent: the
/// observer's ΔN series matches the backend's own record, one sample per
/// iteration, and the incrementally maintained modularity matches a
/// from-scratch recomputation on the final labels.
#[test]
fn trajectories_are_consistent_per_backend() {
    for (gname, g) in &trio() {
        for backend in ["seq", "native", "gpu"] {
            let mut rec = ConvergenceRecorder::new(g);
            let r = run_observed(backend, g, &mut rec);
            assert_eq!(
                rec.samples.len(),
                r.iterations as usize,
                "{gname}/{backend}: one sample per iteration"
            );
            let dn: Vec<usize> = rec.samples.iter().map(|s| s.delta_n).collect();
            assert_eq!(dn, r.changed_per_iter, "{gname}/{backend}: dN trajectory");
            let q = modularity(g, &r.labels);
            assert!(
                (rec.final_modularity() - q).abs() < 1e-9,
                "{gname}/{backend}: incremental Q {} vs recomputed {q}",
                rec.final_modularity()
            );
            assert_eq!(
                rec.samples.last().unwrap().communities,
                community_count(&r.labels),
                "{gname}/{backend}: final community count"
            );
            for s in &rec.samples {
                assert!(
                    s.active_fraction >= 0.0 && s.active_fraction <= 1.0,
                    "{gname}/{backend}: active fraction in [0,1]"
                );
            }
        }
    }
}

/// On the community-structured graphs all three backends converge to the
/// same partition quality: identical final modularity and community
/// count (the ER graph has no structure to agree on — backends find
/// different near-zero-Q partitions there, checked above for internal
/// consistency only).
#[test]
fn backends_agree_on_structured_graphs() {
    for (gname, g) in [
        ("two-cliques-s6", two_cliques_light_bridge(6)),
        ("caveman-4x8", caveman_weighted(4, 8, 0.5)),
    ] {
        let mut qs = Vec::new();
        let mut comms = Vec::new();
        for backend in ["seq", "native", "gpu"] {
            let mut rec = ConvergenceRecorder::new(&g);
            let r = run_observed(backend, &g, &mut rec);
            assert!(r.converged, "{gname}/{backend} should converge");
            qs.push(rec.final_modularity());
            comms.push(r.num_communities());
        }
        assert!(
            qs.iter().all(|q| (q - qs[0]).abs() < 1e-12),
            "{gname}: final modularity diverged across backends: {qs:?}"
        );
        assert!(
            comms.iter().all(|c| *c == comms[0]),
            "{gname}: community count diverged across backends: {comms:?}"
        );
    }
}

/// The `is_enabled` gate keeps the unobserved path cheap: a
/// null-observed run must not be wildly slower than a plain run. The
/// bound is deliberately loose (3× on the median of several runs) —
/// this is a tripwire for accidentally snapshotting labels every
/// iteration on the unobserved path, not a micro-benchmark.
#[test]
fn null_observer_overhead_is_bounded() {
    let g = erdos_renyi(512, 2048, 7);
    let cfg = LpaConfig::default();
    let median = |mut f: Box<dyn FnMut()>| {
        let mut times: Vec<std::time::Duration> = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed()
            })
            .collect();
        times.sort();
        times[2]
    };
    let plain = median(Box::new(|| {
        std::hint::black_box(lpa_seq(&g, &cfg));
    }));
    let nulled = median(Box::new(|| {
        let mut ctx = RunCtx {
            observer: Some(&mut NullObserver),
            ..RunCtx::default()
        };
        std::hint::black_box(lpa_run(Backend::Seq, &g, &cfg, &mut ctx).unwrap());
    }));
    assert!(
        nulled <= plain * 3 + std::time::Duration::from_millis(5),
        "null-observed run {nulled:?} vs plain {plain:?}: observer gate is not cheap"
    );
}
