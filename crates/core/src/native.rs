//! Native (CPU) port of ν-LPA — the wall-clock backend.
//!
//! The paper's headline speedups (Fig. 6) are wall-clock numbers on real
//! hardware; the SIMT simulator measures *modelled* cycles, not time. This
//! module is the iteration driver of that port: it owns the label and
//! pruning state, picks each iteration's candidates (a dense filtered
//! sweep, or the frontier worklist), shuffles them, hands them to the
//! degree-bucketed fast path ([`crate::fastpath`]) that computes and
//! commits the label moves on `--threads N` host threads, and then runs
//! the Cross-Check pass, the observers and the convergence test.
//!
//! Differences from the GPU backend, all documented in DESIGN.md:
//! * The committed trajectory is the fully sequential asynchronous sweep
//!   over the shuffled candidates (no wave buffering), at any thread
//!   count. CPUs have no lockstep, so swap cycles are *less* likely, but
//!   the paper's mitigation schedule is kept for parity.
//! * Label weights accumulate in dense per-thread counters instead of
//!   per-vertex hashtables; a weight tie replays the table's slot order,
//!   so the pick is the one the paper's thread-per-vertex kernel makes.

use crate::config::{LpaConfig, ValueType};
use crate::fastpath::{FastState, FrontierCtx};
use crate::hostprof::HostProfData;
use crate::observe::{IterObserver, NullObserver};
use crate::result::LpaResult;
use nulpa_graph::{Csr, VertexId};
use nulpa_hashtab::HashValue;
use nulpa_simt::{track, KernelStats, NullSink, TraceSink};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Instant;

/// Run the native parallel ν-LPA port.
pub fn lpa_native(g: &Csr, config: &LpaConfig) -> LpaResult {
    lpa_native_traced(g, config, &mut NullSink)
}

/// [`lpa_native`] with per-iteration tracing. There is no simulated clock
/// here — spans are timestamped in elapsed wall-clock **microseconds**
/// since the call started. The caller owns `sink.finish()`.
pub fn lpa_native_traced(g: &Csr, config: &LpaConfig, sink: &mut dyn TraceSink) -> LpaResult {
    lpa_native_observed(g, config, sink, &mut NullObserver)
}

/// [`lpa_native_traced`] plus an [`IterObserver`] called after every
/// committed iteration — the convergence-telemetry attachment point.
pub fn lpa_native_observed(
    g: &Csr,
    config: &LpaConfig,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
) -> LpaResult {
    config.validate().expect("invalid LPA config");
    let init = (0..g.num_vertices() as VertexId).collect();
    match config.value_type {
        ValueType::F32 => lpa_native_typed::<f32>(g, config, init, None, sink, obs, None),
        ValueType::F64 => lpa_native_typed::<f64>(g, config, init, None, sink, obs, None),
    }
}

/// [`lpa_native`] with the host-parallel execution profiler attached:
/// per-thread compute/commit span timelines, per-bucket work and
/// cursor-contention counters, and per-iteration repair statistics from
/// the degree-bucketed fast path (see [`crate::hostprof`]).
///
/// The profiled run is bit-identical to [`lpa_native`] — the recorder
/// only observes which thread did what, never what was computed. The
/// profile is always `Some`; the `Option` is kept for callers that
/// already unwrap it.
pub fn lpa_native_hostprof(g: &Csr, config: &LpaConfig) -> (LpaResult, Option<HostProfData>) {
    config.validate().expect("invalid LPA config");
    let init = (0..g.num_vertices() as VertexId).collect();
    let mut prof = None;
    let result = match config.value_type {
        ValueType::F32 => lpa_native_typed::<f32>(
            g,
            config,
            init,
            None,
            &mut NullSink,
            &mut NullObserver,
            Some(&mut prof),
        ),
        ValueType::F64 => lpa_native_typed::<f64>(
            g,
            config,
            init,
            None,
            &mut NullSink,
            &mut NullObserver,
            Some(&mut prof),
        ),
    };
    (result, prof)
}

/// Run the native port from existing state: `init_labels` seeds the
/// community memberships and only `unprocessed` starts in the work set
/// (everything else is considered converged until a neighbour changes).
/// This is the engine behind [`crate::dynamic::lpa_dynamic`].
pub fn lpa_native_from_state(
    g: &Csr,
    config: &LpaConfig,
    init_labels: Vec<VertexId>,
    unprocessed: &[VertexId],
) -> LpaResult {
    config.validate().expect("invalid LPA config");
    assert_eq!(init_labels.len(), g.num_vertices(), "label length mismatch");
    match config.value_type {
        ValueType::F32 => lpa_native_typed::<f32>(
            g,
            config,
            init_labels,
            Some(unprocessed),
            &mut NullSink,
            &mut NullObserver,
            None,
        ),
        ValueType::F64 => lpa_native_typed::<f64>(
            g,
            config,
            init_labels,
            Some(unprocessed),
            &mut NullSink,
            &mut NullObserver,
            None,
        ),
    }
}

fn lpa_native_typed<V: HashValue>(
    g: &Csr,
    config: &LpaConfig,
    init_labels: Vec<VertexId>,
    unprocessed: Option<&[VertexId]>,
    sink: &mut dyn TraceSink,
    obs: &mut dyn IterObserver,
    hostprof: Option<&mut Option<HostProfData>>,
) -> LpaResult {
    let n = g.num_vertices();
    let labels: Vec<AtomicU32> = init_labels.into_iter().map(AtomicU32::new).collect();
    let processed: Vec<AtomicU8> = match unprocessed {
        // static run: every vertex starts unprocessed
        None => (0..n).map(|_| AtomicU8::new(0)).collect(),
        // warm start: only the given frontier is unprocessed
        Some(seed) => {
            let flags: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(1)).collect();
            for &v in seed {
                flags[v as usize].store(0, Ordering::Relaxed);
            }
            flags
        }
    };
    let mut fast = FastState::<V>::new(
        n,
        crate::config::resolve_threads(config.threads),
        nulpa_graph::blocks::DEFAULT_BLOCK_EDGES,
        config.probe,
        hostprof.is_some(),
    );

    // Frontier (worklist) state. Activation is deduplicated with the
    // `queued` flags (the swap that flips 0 → 1 owns the push). Pushes
    // happen in the fast path's sequential commit, in candidate order,
    // and the worklist is sorted ascending at the next iteration start —
    // so `--threads N` frontier runs stay bit-identical (see DESIGN.md).
    let frontier = config.frontier;
    let queued: Vec<AtomicU8> = (0..if frontier { n } else { 0 })
        .map(|_| AtomicU8::new(0))
        .collect();
    let mut worklist: Vec<VertexId> = Vec::new();
    if frontier {
        match unprocessed {
            None => {
                for v in 0..n as VertexId {
                    if g.degree(v) > 0 {
                        queued[v as usize].store(1, Ordering::Relaxed);
                        worklist.push(v);
                    }
                }
            }
            Some(seed) => {
                for &v in seed {
                    if g.degree(v) > 0 && queued[v as usize].swap(1, Ordering::Relaxed) == 0 {
                        worklist.push(v);
                    }
                }
            }
        }
    }
    let mut movers: Vec<VertexId> = Vec::new();

    let mut changed_per_iter = Vec::new();
    let mut scanned_per_iter = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    let t0 = Instant::now();
    let now_us = |t0: &Instant| t0.elapsed().as_micros() as u64;

    for iter in 0..config.max_iterations {
        // Shuffled sweep order: emulates the interleaved schedule a real
        // thread pool produces and avoids the ascending-cascade pathology
        // (see `seq::shuffle_candidates`).
        let (mut candidates, scanned) = if frontier {
            worklist.sort_unstable();
            // In-queue invariant: the CAS on `queued` means a vertex can
            // be enqueued at most once per iteration, and every entry
            // still holds its flag at drain time.
            debug_assert!(
                worklist.windows(2).all(|w| w[0] != w[1]),
                "duplicate enqueue in native frontier worklist"
            );
            debug_assert!(
                worklist
                    .iter()
                    .all(|&v| queued[v as usize].load(Ordering::Relaxed) == 1),
                "worklist entry without its queued flag set"
            );
            let scanned = worklist.len();
            for &v in &worklist {
                queued[v as usize].store(0, Ordering::Relaxed);
            }
            let cands: Vec<VertexId> = worklist
                .drain(..)
                .filter(|&v| processed[v as usize].load(Ordering::Relaxed) == 0)
                .collect();
            (cands, scanned)
        } else {
            (
                (0..n as VertexId)
                    .filter(|&v| {
                        (!config.pruning || processed[v as usize].load(Ordering::Relaxed) == 0)
                            && g.degree(v) > 0
                    })
                    .collect(),
                n,
            )
        };
        if frontier && candidates.is_empty() {
            // Empty frontier: nothing can change, so the run is converged
            // without spending (or recording) a final sweep.
            converged = true;
            break;
        }
        iterations = iter + 1;
        let pick_less = config.swap_mode.pick_less_on(iter);
        let prev = config.swap_mode.cross_check_on(iter).then(|| {
            labels
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        });
        if sink.is_enabled() {
            sink.span_begin(
                track::HOST,
                "iteration",
                now_us(&t0),
                &[("iter", iter.into())],
            );
        }
        crate::seq::shuffle_candidates(&mut candidates, iter);

        let fr = frontier.then(|| FrontierCtx {
            queued: &queued,
            worklist: &mut worklist,
            movers: &mut movers,
        });
        let mut changed =
            fast.run_iteration(g, iter, &candidates, pick_less, &labels, &processed, fr);

        // Cross-Check pass (paper §4.1): sequential over changed vertices,
        // so a revert is visible to the partner's check — this is the
        // symmetry breaker. Only movers can satisfy `c != prev[v]` and a
        // revert never flips a non-mover's condition, so in frontier mode
        // the ascending scan over the movers is exactly the dense 0..n
        // scan.
        if let Some(prev) = prev {
            let mut reverted = 0usize;
            if frontier {
                movers.sort_unstable();
                for &m in &movers {
                    let v = m as usize;
                    let c = labels[v].load(Ordering::Relaxed);
                    if c != prev[v] && labels[c as usize].load(Ordering::Relaxed) != c {
                        labels[v].store(prev[v], Ordering::Relaxed);
                        processed[v].store(0, Ordering::Relaxed);
                        if queued[v].swap(1, Ordering::Relaxed) == 0 {
                            worklist.push(m);
                        }
                        reverted += 1;
                    }
                }
            } else {
                for v in 0..n {
                    let c = labels[v].load(Ordering::Relaxed);
                    if c != prev[v] && labels[c as usize].load(Ordering::Relaxed) != c {
                        labels[v].store(prev[v], Ordering::Relaxed);
                        processed[v].store(0, Ordering::Relaxed);
                        reverted += 1;
                    }
                }
            }
            changed = changed.saturating_sub(reverted);
        }
        movers.clear();

        changed_per_iter.push(changed);
        scanned_per_iter.push(scanned);
        if obs.is_enabled() {
            let snapshot: Vec<VertexId> =
                labels.iter().map(|l| l.load(Ordering::Relaxed)).collect();
            obs.on_iteration(iter, changed, candidates.len(), scanned, &snapshot);
        }
        if sink.is_enabled() {
            let ts = now_us(&t0);
            sink.counter("dN", ts, changed as f64);
            sink.counter("active_vertices", ts, candidates.len() as f64);
            if frontier {
                sink.counter("frontier_size", ts, scanned as f64);
            }
            sink.span_end(
                track::HOST,
                "iteration",
                ts,
                &[
                    ("iter", iter.into()),
                    ("active", candidates.len().into()),
                    ("dN", changed.into()),
                    ("pick_less", pick_less.into()),
                ],
            );
        }
        // ΔN = 0 converges even on Pick-Less-gated iterations (PL1 would
        // otherwise never pass the gated test); see the same check in
        // `gpu.rs`.
        if changed == 0 || (!pick_less && (changed as f64 / n.max(1) as f64) < config.tolerance) {
            converged = true;
            break;
        }
    }

    if let Some(out) = hostprof {
        *out = fast.take_profile();
    }
    LpaResult {
        labels: labels.into_iter().map(|l| l.into_inner()).collect(),
        iterations,
        converged,
        changed_per_iter,
        scanned_per_iter,
        stats: KernelStats::new(),
        staged_collisions: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LpaConfig, SwapMode};
    use crate::gpu::lpa_gpu;
    use crate::seq::lpa_seq;
    use nulpa_graph::gen::{
        caveman_ground_truth, caveman_weighted, complete, erdos_renyi, planted_partition,
        two_cliques_light_bridge,
    };
    use nulpa_graph::GraphBuilder;
    use nulpa_metrics::{check_labels, community_count, modularity, nmi, same_partition};
    use nulpa_simt::DeviceConfig;

    fn cfg() -> LpaConfig {
        LpaConfig::default()
    }

    #[test]
    fn two_cliques_recovered() {
        let g = two_cliques_light_bridge(6);
        let r = lpa_native(&g, &cfg());
        assert!(check_labels(&g, &r.labels).is_ok());
        assert!(same_partition(&r.labels, &caveman_ground_truth(2, 6)));
        assert!(r.converged);
    }

    #[test]
    fn pl1_converges_on_stable_labeling() {
        // The `!pick_less` gate alone would keep PL1 running to the cap;
        // ΔN = 0 must end the run (same fix as gpu.rs/seq.rs).
        let g = two_cliques_light_bridge(6);
        let pl1 = cfg().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_native(&g, &pl1);
        assert!(r.converged);
        assert!(r.iterations < pl1.max_iterations);
        assert_eq!(*r.changed_per_iter.last().unwrap(), 0);
    }

    #[test]
    fn caveman_recovered() {
        let g = caveman_weighted(6, 8, 0.5);
        let r = lpa_native(&g, &cfg());
        assert!(same_partition(&r.labels, &caveman_ground_truth(6, 8)));
    }

    #[test]
    fn complete_graph_single_community() {
        let g = complete(16);
        let r = lpa_native(&g, &cfg());
        assert_eq!(community_count(&r.labels), 1);
    }

    #[test]
    fn matches_gpu_and_seq_quality_on_planted_graph() {
        // seed 5 recovers the planted partition exactly under all backends
        let pp = planted_partition(&[60, 60, 60], 12.0, 0.5, 5);
        let q_native = modularity(&pp.graph, &lpa_native(&pp.graph, &cfg()).labels);
        let q_seq = modularity(&pp.graph, &lpa_seq(&pp.graph, &cfg()).labels);
        let q_gpu = modularity(
            &pp.graph,
            &lpa_gpu(&pp.graph, &cfg().with_device(DeviceConfig::tiny())).labels,
        );
        assert!(q_native > 0.9 * q_seq, "native {q_native} vs seq {q_seq}");
        assert!(q_native > 0.9 * q_gpu, "native {q_native} vs gpu {q_gpu}");
        let r = lpa_native(&pp.graph, &cfg());
        assert!(nmi(&r.labels, &pp.ground_truth) > 0.9);
    }

    #[test]
    fn labels_always_valid() {
        let g = erdos_renyi(300, 900, 7);
        let r = lpa_native(&g, &cfg());
        assert!(check_labels(&g, &r.labels).is_ok());
        assert_eq!(r.changed_per_iter.len(), r.iterations as usize);
    }

    #[test]
    fn empty_and_isolated() {
        let g = nulpa_graph::Csr::empty(4);
        let r = lpa_native(&g, &cfg());
        assert_eq!(r.labels, vec![0, 1, 2, 3]);

        let g = GraphBuilder::new(3).add_undirected_edge(0, 1, 1.0).build();
        let r = lpa_native(&g, &cfg());
        assert_eq!(r.labels[2], 2);
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn all_swap_modes_work() {
        let g = caveman_weighted(4, 6, 0.5);
        let truth = caveman_ground_truth(4, 6);
        for mode in [
            SwapMode::Off,
            SwapMode::PickLess { every: 4 },
            SwapMode::CrossCheck { every: 2 },
            SwapMode::Hybrid {
                cc_every: 2,
                pl_every: 4,
            },
        ] {
            let r = lpa_native(&g, &cfg().with_swap_mode(mode));
            assert!(
                same_partition(&r.labels, &truth),
                "{mode:?} failed to recover cliques"
            );
        }
    }

    #[test]
    fn f64_values_give_same_quality() {
        let pp = planted_partition(&[50, 50], 8.0, 1.0, 31);
        let q32 = modularity(&pp.graph, &lpa_native(&pp.graph, &cfg()).labels);
        let q64 = modularity(
            &pp.graph,
            &lpa_native(&pp.graph, &cfg().with_value_type(ValueType::F64)).labels,
        );
        assert!((q32 - q64).abs() < 0.05, "{q32} vs {q64}");
    }

    #[test]
    fn self_loops_ignored() {
        let g = GraphBuilder::new(2)
            .keep_self_loops(true)
            .add_edge(1, 1, 50.0)
            .add_undirected_edge(0, 1, 1.0)
            .build();
        let r = lpa_native(&g, &cfg());
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn pick_less_iterations_only_decrease_labels() {
        let g = caveman_weighted(3, 7, 0.5);
        let c = cfg().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_native(&g, &c);
        for (v, &l) in r.labels.iter().enumerate() {
            assert!((l as usize) <= v);
        }
    }

    #[test]
    fn respects_iteration_cap() {
        let g = erdos_renyi(200, 800, 11);
        let r = lpa_native(&g, &cfg().with_max_iterations(3));
        assert!(r.iterations <= 3);
    }

    #[test]
    fn frontier_matches_dense_exactly_across_swap_modes() {
        // The worklist mirrors the pruning flags, so the full trajectory
        // — labels, ΔN series, iteration count — must be bit-identical.
        let g = erdos_renyi(200, 600, 13);
        for mode in [
            SwapMode::Off,
            SwapMode::CrossCheck { every: 2 },
            SwapMode::PickLess { every: 4 },
            SwapMode::PickLess { every: 1 },
            SwapMode::Hybrid {
                cc_every: 2,
                pl_every: 3,
            },
        ] {
            let dense = lpa_native(&g, &cfg().with_swap_mode(mode));
            let front = lpa_native(&g, &cfg().with_swap_mode(mode).with_frontier(true));
            assert_eq!(dense.labels, front.labels, "{mode:?}");
            assert_eq!(dense.changed_per_iter, front.changed_per_iter, "{mode:?}");
            assert_eq!(dense.iterations, front.iterations, "{mode:?}");
        }
    }

    #[test]
    fn frontier_scans_fewer_vertices() {
        let g = caveman_weighted(8, 8, 0.5);
        let dense = lpa_native(&g, &cfg());
        let front = lpa_native(&g, &cfg().with_frontier(true));
        assert_eq!(dense.labels, front.labels);
        assert!(
            front.scanned_per_iter.iter().sum::<usize>()
                < dense.scanned_per_iter.iter().sum::<usize>()
        );
    }

    #[test]
    fn empty_frontier_warm_start_converges_without_a_sweep() {
        // Warm start with nothing to do: the frontier starts empty and the
        // run must report converged without recording a single iteration.
        let g = two_cliques_light_bridge(6);
        let settled = lpa_native(&g, &cfg());
        let r = lpa_native_from_state(&g, &cfg().with_frontier(true), settled.labels.clone(), &[]);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.changed_per_iter.is_empty());
        assert_eq!(r.labels, settled.labels);
    }

    #[test]
    fn frontier_bit_identical_across_thread_counts() {
        let g = erdos_renyi(250, 800, 17);
        let cfg = cfg().with_frontier(true);
        let base = lpa_native(&g, &cfg.with_threads(1));
        for threads in [2, 3, 4] {
            let r = lpa_native(&g, &cfg.with_threads(threads));
            assert_eq!(base.labels, r.labels, "threads={threads}");
            assert_eq!(
                base.changed_per_iter, r.changed_per_iter,
                "threads={threads}"
            );
        }
    }
}
