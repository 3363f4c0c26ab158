//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* graph, not just the fixtures.

use nu_lpa::core::{
    bucket_partition, lpa_gpu, lpa_native, lpa_seq, BucketThresholds, LpaConfig, SwapMode,
};
use nu_lpa::graph::components::connected_components;
use nu_lpa::graph::permute::{random_permutation, relabel};
use nu_lpa::graph::{GraphBuilder, VertexId};
use nu_lpa::metrics::{check_labels, community_count, modularity, same_partition};
use nu_lpa::simt::DeviceConfig;
use proptest::prelude::*;

/// Arbitrary small undirected graph: up to `n` vertices, random edges.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = nu_lpa::graph::Csr> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f32..4.0), 0..max_m).prop_map(
            move |edges| {
                GraphBuilder::new(n)
                    .add_undirected_edges(edges.into_iter().filter(|(u, v, _)| u != v))
                    .build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lpa_seq_labels_always_valid(g in arb_graph(60, 150)) {
        let r = lpa_seq(&g, &LpaConfig::default());
        prop_assert!(check_labels(&g, &r.labels).is_ok());
        prop_assert!(r.iterations >= 1);
        prop_assert_eq!(r.changed_per_iter.len(), r.iterations as usize);
    }

    #[test]
    fn lpa_native_labels_always_valid(g in arb_graph(60, 150)) {
        let r = lpa_native(&g, &LpaConfig::default());
        prop_assert!(check_labels(&g, &r.labels).is_ok());
    }

    #[test]
    fn lpa_gpu_labels_always_valid(g in arb_graph(50, 120)) {
        let cfg = LpaConfig::default().with_device(DeviceConfig::tiny());
        let r = lpa_gpu(&g, &cfg);
        prop_assert!(check_labels(&g, &r.labels).is_ok());
        prop_assert!(r.stats.sim_cycles <= r.stats.lane_cycles + r.stats.idle_cycles);
    }

    #[test]
    fn modularity_always_in_range(g in arb_graph(50, 150)) {
        let r = lpa_seq(&g, &LpaConfig::default());
        let q = modularity(&g, &r.labels);
        prop_assert!((-0.5..=1.0).contains(&q), "Q = {}", q);
    }

    #[test]
    fn pick_less_every_iteration_never_raises_labels(g in arb_graph(40, 100)) {
        let cfg = LpaConfig::default().with_swap_mode(SwapMode::PickLess { every: 1 });
        let r = lpa_seq(&g, &cfg);
        for (v, &l) in r.labels.iter().enumerate() {
            prop_assert!((l as usize) <= v);
        }
    }

    #[test]
    fn isolated_vertices_never_move(g in arb_graph(40, 60)) {
        let r = lpa_seq(&g, &LpaConfig::default());
        for v in g.vertices() {
            if g.degree(v) == 0 {
                prop_assert_eq!(r.labels[v as usize], v);
            }
        }
    }

    #[test]
    fn modularity_invariant_under_relabelling(
        g in arb_graph(40, 100),
        seed in 0u64..1000,
    ) {
        let r = lpa_seq(&g, &LpaConfig::default());
        let q = modularity(&g, &r.labels);
        let perm = random_permutation(g.num_vertices(), seed);
        let h = relabel(&g, &perm);
        // permute the labels the same way: vertex perm[v] gets label ...
        // community ids are arbitrary; map them through perm too
        let mut plabels: Vec<VertexId> = vec![0; g.num_vertices()];
        for v in g.vertices() {
            plabels[perm[v as usize] as usize] = perm[r.labels[v as usize] as usize];
        }
        let q2 = modularity(&h, &plabels);
        prop_assert!((q - q2).abs() < 1e-9, "{} vs {}", q, q2);
    }

    #[test]
    fn community_count_consistent_across_backends(g in arb_graph(40, 120)) {
        // backends may find different partitions, but each must produce at
        // least one community and at most |V|
        let n = g.num_vertices();
        for labels in [
            lpa_seq(&g, &LpaConfig::default()).labels,
            lpa_native(&g, &LpaConfig::default()).labels,
        ] {
            let k = community_count(&labels);
            prop_assert!(k >= 1 && k <= n);
        }
    }

    #[test]
    fn same_partition_is_reflexive(g in arb_graph(30, 80)) {
        let r = lpa_seq(&g, &LpaConfig::default());
        prop_assert!(same_partition(&r.labels, &r.labels));
    }

    #[test]
    fn communities_never_cross_components(g in arb_graph(50, 120)) {
        // labels only travel along edges, so two vertices sharing a
        // community must share a connected component — in every backend
        let comps = connected_components(&g);
        for labels in [
            lpa_seq(&g, &LpaConfig::default()).labels,
            lpa_native(&g, &LpaConfig::default()).labels,
            lpa_gpu(&g, &LpaConfig::default().with_device(DeviceConfig::tiny())).labels,
        ] {
            let mut rep: std::collections::HashMap<u32, u32> = Default::default();
            for v in g.vertices() {
                let entry = rep.entry(labels[v as usize]).or_insert(comps[v as usize]);
                prop_assert_eq!(*entry, comps[v as usize], "community spans components");
            }
        }
    }

    #[test]
    fn community_count_at_least_component_count_under_lpa(g in arb_graph(50, 120)) {
        let comps = connected_components(&g);
        let k_comp = community_count(&nu_lpa::metrics::compact_labels(&comps).0);
        let labels = lpa_native(&g, &LpaConfig::default()).labels;
        prop_assert!(community_count(&labels) >= k_comp);
    }

    #[test]
    fn frontier_agrees_with_dense_sweeps(g in arb_graph(50, 120)) {
        // Worklist scheduling is an execution-order optimisation, not an
        // algorithm change: under every swap-mitigation mode the frontier
        // run of each backend must land on the dense sweep's labels
        // (seq/native mirror the pruning flags exactly; the simulator's
        // narrowed rule is label-identical on single-wave launches, and
        // these graphs fit one A100 wave).
        for mode in [
            SwapMode::Off,
            SwapMode::CrossCheck { every: 2 },
            SwapMode::PickLess { every: 4 },
            SwapMode::Hybrid { cc_every: 2, pl_every: 3 },
        ] {
            let dense = LpaConfig::default().with_swap_mode(mode).with_threads(1);
            let front = dense.with_frontier(true);
            let ds = lpa_seq(&g, &dense);
            let fs = lpa_seq(&g, &front);
            prop_assert_eq!(&fs.labels, &ds.labels, "seq {:?}", mode);
            let dn = lpa_native(&g, &dense);
            let fnat = lpa_native(&g, &front);
            prop_assert_eq!(&fnat.labels, &dn.labels, "native {:?}", mode);
            let dg = lpa_gpu(&g, &dense);
            let fg = lpa_gpu(&g, &front);
            prop_assert_eq!(&fg.labels, &dg.labels, "gpu {:?}", mode);
            // The frontier may only skip the dense run's trailing ΔN = 0
            // confirmation sweep, nothing more.
            prop_assert!(
                fg.iterations == dg.iterations || fg.iterations + 1 == dg.iterations,
                "gpu {:?}: {} vs {}", mode, fg.iterations, dg.iterations
            );
            let q_dense = modularity(&g, &ds.labels);
            for labels in [&fs.labels, &fnat.labels] {
                prop_assert!((modularity(&g, labels) - q_dense).abs() < 1e-9);
            }
            prop_assert!(
                (modularity(&g, &fg.labels) - modularity(&g, &dg.labels)).abs() < 1e-9
            );
        }
    }

    #[test]
    fn bucket_partition_is_disjoint_cover_on_any_graph(
        g in arb_graph(60, 150),
        low in 1u32..8,
        span in 1u32..16,
    ) {
        // Every candidate lands in exactly one degree bucket, each bucket
        // respects its threshold band, and candidate order is preserved
        // within a bucket — the invariants the fast path's chunked claim
        // loops rely on.
        let t = BucketThresholds { low_max: low, mid_max: low + span };
        let cands: Vec<VertexId> = g.vertices().collect();
        let buckets = bucket_partition(&g, &cands, t);
        let mut seen = vec![false; cands.len()];
        for (k, b) in buckets.iter().enumerate() {
            prop_assert!(b.windows(2).all(|w| w[0] < w[1]), "bucket {} out of order", k);
            for &i in b {
                prop_assert!(!seen[i], "candidate index {} in two buckets", i);
                seen[i] = true;
                let d = g.degree(cands[i]) as u32;
                match k {
                    0 => prop_assert!(d <= t.low_max),
                    1 => prop_assert!(d > t.low_max && d <= t.mid_max),
                    _ => prop_assert!(d > t.mid_max),
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "bucket partition dropped a candidate");
    }
}

proptest! {
    // The thread identity sweep runs many detections per case; keep the
    // case count low so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn native_bit_identical_across_threads(g in arb_graph(50, 120)) {
        // The speculative-pick / sequential-repair commit promises the
        // committed trajectory of the fast path equals the sequential
        // asynchronous sweep — so labels must be bit-identical across any
        // thread count, in both scheduling modes, under every
        // swap-mitigation mode.
        for mode in [
            SwapMode::Off,
            SwapMode::CrossCheck { every: 2 },
            SwapMode::PickLess { every: 1 },
            SwapMode::Hybrid { cc_every: 2, pl_every: 3 },
        ] {
            for frontier in [false, true] {
                let cfg = LpaConfig::default()
                    .with_swap_mode(mode)
                    .with_frontier(frontier);
                let base = lpa_native(&g, &cfg.with_threads(1));
                for threads in [2usize, 4, 8] {
                    let r = lpa_native(&g, &cfg.with_threads(threads));
                    prop_assert_eq!(
                        &r.labels, &base.labels,
                        "threads={} frontier={} {:?}", threads, frontier, mode
                    );
                    prop_assert_eq!(
                        &r.changed_per_iter, &base.changed_per_iter,
                        "trajectory: threads={} frontier={} {:?}", threads, frontier, mode
                    );
                }
            }
        }
    }
}
