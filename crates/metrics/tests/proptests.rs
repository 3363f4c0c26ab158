//! Property-based tests for the metrics crate.

use nulpa_graph::GraphBuilder;
use nulpa_metrics::{
    community_count, community_sizes, compact_labels, cut_fraction, edge_cut, imbalance,
    modularity, nmi, same_partition,
};
use proptest::prelude::*;

fn arb_graph_and_labels() -> impl Strategy<Value = (nulpa_graph::Csr, Vec<u32>)> {
    (3..50usize).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f32..5.0), 0..150);
        let labels = proptest::collection::vec(0..n as u32, n);
        (edges, labels).prop_map(move |(edges, labels)| {
            let g = GraphBuilder::new(n)
                .add_undirected_edges(edges.into_iter().filter(|(u, v, _)| u != v))
                .build();
            (g, labels)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn modularity_bounded((g, labels) in arb_graph_and_labels()) {
        let q = modularity(&g, &labels);
        prop_assert!((-0.5 - 1e-9..=1.0 + 1e-9).contains(&q), "Q = {}", q);
    }

    #[test]
    fn single_community_modularity_zero((g, _) in arb_graph_and_labels()) {
        let labels = vec![0u32; g.num_vertices()];
        prop_assert!(modularity(&g, &labels).abs() < 1e-9);
    }

    #[test]
    fn compact_preserves_partition_structure((_, labels) in arb_graph_and_labels()) {
        let (c, k) = compact_labels(&labels);
        prop_assert_eq!(community_count(&labels), k);
        prop_assert!(same_partition(&labels, &c));
        // compacted ids are dense 0..k
        let max = c.iter().copied().max().unwrap_or(0);
        prop_assert!(k == 0 || max as usize == k - 1);
    }

    #[test]
    fn sizes_sum_to_n((_, labels) in arb_graph_and_labels()) {
        let total: usize = community_sizes(&labels).iter().sum();
        prop_assert_eq!(total, labels.len());
    }

    #[test]
    fn nmi_symmetric_and_bounded((_, a) in arb_graph_and_labels(), seed in 0u64..100) {
        // derive a second partition by rotating labels
        let b: Vec<u32> = a.iter().map(|&l| (l + seed as u32) % a.len() as u32).collect();
        let x = nmi(&a, &b);
        let y = nmi(&b, &a);
        prop_assert!((x - y).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&x));
        prop_assert!((nmi(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cut_fraction_bounded_and_zero_for_trivial((g, labels) in arb_graph_and_labels()) {
        let f = cut_fraction(&g, &labels);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
        prop_assert_eq!(cut_fraction(&g, &vec![0; g.num_vertices()]), 0.0);
        // edge_cut is consistent with the fraction
        let total = g.total_weight() / 2.0;
        if total > 0.0 {
            prop_assert!((edge_cut(&g, &labels) / total - f).abs() < 1e-9);
        }
    }

    #[test]
    fn imbalance_at_least_one((_, labels) in arb_graph_and_labels()) {
        let (c, k) = compact_labels(&labels);
        if k > 0 {
            prop_assert!(imbalance(&c, k) >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn same_partition_invariant_under_renaming((_, labels) in arb_graph_and_labels()) {
        // rename labels through an arbitrary injective map (here: *2+1 mod big)
        let renamed: Vec<u32> = labels.iter().map(|&l| l * 2 + 1).collect();
        prop_assert!(same_partition(&labels, &renamed));
    }
}
