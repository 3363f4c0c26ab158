//! FLPA — Fast Label Propagation Algorithm (Traag & Šubelj 2023).
//!
//! The paper's sequential baseline (`igraph_community_label_propagation`
//! with `IGRAPH_LPA_FAST`). Algorithm: a FIFO work queue seeded with all
//! vertices in a random order, as the reference adds them; pop a vertex,
//! adopt a random *dominant* label (maximum total neighbour weight); when
//! the label changes, push the neighbours that are not already in the
//! queue and not in the new community. Terminates when the queue drains.
//! Only the initial order is random; after that the queue is the
//! schedule. Seeding the queue in ascending id order instead lets one
//! label flood the graph on the first, all-ties pass.
//!
//! The initial order and the random dominant-label choice draw from one
//! RNG seeded with `seed`, so a run is deterministic per seed.

use nulpa_graph::{Csr, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};

/// Result of an FLPA run.
#[derive(Clone, Debug)]
pub struct FlpaResult {
    /// Final labels.
    pub labels: Vec<VertexId>,
    /// Vertices popped from the queue in total (FLPA's work measure).
    pub pops: usize,
    /// Label changes applied.
    pub changes: usize,
}

/// Run FLPA with the given tie-break seed.
pub fn flpa(g: &Csr, seed: u64) -> FlpaResult {
    let n = g.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let mut seeds: Vec<VertexId> = g.vertices().filter(|&v| g.degree(v) > 0).collect();
    seeds.shuffle(&mut rng);
    let mut queue = VecDeque::from(seeds);
    let mut in_queue = vec![false; n];
    for &v in &queue {
        in_queue[v as usize] = true;
    }

    let mut weights: HashMap<VertexId, f64> = HashMap::new();
    let mut dominant: Vec<VertexId> = Vec::new();
    let mut pops = 0usize;
    let mut changes = 0usize;

    while let Some(v) = queue.pop_front() {
        in_queue[v as usize] = false;
        pops += 1;

        weights.clear();
        for (j, w) in g.neighbors(v) {
            if j == v {
                continue;
            }
            *weights.entry(labels[j as usize]).or_insert(0.0) += w as f64;
        }
        if weights.is_empty() {
            continue;
        }
        let max_w = weights.values().cloned().fold(f64::MIN, f64::max);
        dominant.clear();
        dominant.extend(weights.iter().filter(|(_, &w)| w == max_w).map(|(&l, _)| l));
        // deterministic iteration order for reproducibility
        dominant.sort_unstable();

        let cur = labels[v as usize];
        if dominant.contains(&cur) {
            continue; // current label already dominant — no change
        }
        let new = dominant[rng.gen_range(0..dominant.len())];
        labels[v as usize] = new;
        changes += 1;
        // push neighbours not in the new community and not queued
        for &j in g.neighbor_ids(v) {
            if labels[j as usize] != new && !in_queue[j as usize] {
                in_queue[j as usize] = true;
                queue.push_back(j);
            }
        }
    }

    FlpaResult {
        labels,
        pops,
        changes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{
        caveman_ground_truth, caveman_weighted, complete, erdos_renyi, planted_partition,
        two_cliques_light_bridge,
    };
    use nulpa_graph::{Csr, GraphBuilder};
    use nulpa_metrics::{check_labels, community_count, modularity, nmi, same_partition};

    #[test]
    fn two_cliques_recovered() {
        let g = two_cliques_light_bridge(6);
        let r = flpa(&g, 1);
        assert!(same_partition(&r.labels, &caveman_ground_truth(2, 6)));
    }

    #[test]
    fn caveman_recovered() {
        let g = caveman_weighted(5, 8, 0.5);
        let r = flpa(&g, 3);
        assert!(same_partition(&r.labels, &caveman_ground_truth(5, 8)));
    }

    #[test]
    fn terminates_and_valid_on_random_graph() {
        let g = erdos_renyi(300, 900, 5);
        let r = flpa(&g, 7);
        assert!(check_labels(&g, &r.labels).is_ok());
        assert!(r.pops >= 300);
    }

    #[test]
    fn complete_graph_single_community() {
        let g = complete(10);
        let r = flpa(&g, 2);
        assert_eq!(community_count(&r.labels), 1);
    }

    #[test]
    fn planted_partition_good_nmi() {
        let pp = planted_partition(&[60, 60, 60], 12.0, 0.5, 5);
        let r = flpa(&pp.graph, 11);
        assert!(nmi(&r.labels, &pp.ground_truth) > 0.6);
        assert!(modularity(&pp.graph, &r.labels) > 0.3);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = erdos_renyi(100, 300, 9);
        assert_eq!(flpa(&g, 5).labels, flpa(&g, 5).labels);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4);
        let r = flpa(&g, 0);
        assert_eq!(r.labels, vec![0, 1, 2, 3]);
        assert_eq!(r.pops, 0);
    }

    #[test]
    fn isolated_vertices_untouched() {
        let g = GraphBuilder::new(3).add_undirected_edge(0, 1, 1.0).build();
        let r = flpa(&g, 0);
        assert_eq!(r.labels[2], 2);
        assert_eq!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn no_change_when_current_label_dominant() {
        // path 0-1-2: after convergence everything shares a label; pops
        // should stay modest (queue-based early termination)
        let g = nulpa_graph::gen::path(50);
        let r = flpa(&g, 4);
        assert!(check_labels(&g, &r.labels).is_ok());
        // queue-based processing should not blow up quadratically
        assert!(r.pops < 50 * 20, "pops = {}", r.pops);
    }
}
