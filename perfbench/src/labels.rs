//! Judging a labels file written by `nulpa detect --output`.
//!
//! A run passes when the file has one parseable label per vertex, the
//! labels pass `check_labels`, and they equal the reference bit for bit.
//! Quality figures are computed for every file whose labels can be
//! scored, passing or not, so a failed run still shows what it produced.

use nulpa_graph::components::UnionFind;
use nulpa_graph::Csr;
use nulpa_metrics::{check_labels, community_count, modularity_par};
use std::path::Path;

/// Outcome of judging one labels file.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    /// Why the run failed; `None` when it passed.
    pub failure: Option<String>,
    /// Modularity, distinct-label count and disconnected-community count
    /// of the labels, when they are structurally valid.
    pub quality: Option<(f64, usize, usize)>,
}

impl Verdict {
    /// One JSON object naming the file.
    pub fn to_json(&self, file: &str) -> String {
        let esc = |s: &str| nulpa_obs::json::escape(s);
        let failure = self.failure.as_deref().map_or("null".into(), esc);
        let quality = match self.quality {
            Some((q, c, d)) => {
                format!("\"modularity\":{q},\"communities\":{c},\"disconnected_communities\":{d}")
            }
            None => {
                "\"modularity\":null,\"communities\":null,\"disconnected_communities\":null".into()
            }
        };
        format!(
            "{{\"file\":{},\"ok\":{},\"failure\":{failure},{quality}}}",
            esc(file),
            self.failure.is_none()
        )
    }
}

/// Parse one label per line.
pub fn parse_labels(text: &str) -> Result<Vec<u32>, String> {
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            l.trim()
                .parse::<u32>()
                .map_err(|_| format!("line {}: `{l}` is not a label", i + 1))
        })
        .collect()
}

/// Judge the labels in `path` against the graph and the reference.
pub fn judge_file(g: &Csr, reference: &[u32], path: &Path) -> Verdict {
    match std::fs::read_to_string(path) {
        Ok(text) => match parse_labels(&text) {
            Ok(labels) => judge(g, reference, &labels),
            Err(e) => Verdict {
                failure: Some(e),
                quality: None,
            },
        },
        Err(e) => Verdict {
            failure: Some(format!("{}: {e}", path.display())),
            quality: None,
        },
    }
}

/// Judge parsed labels against the graph and the reference.
pub fn judge(g: &Csr, reference: &[u32], labels: &[u32]) -> Verdict {
    if let Err(e) = check_labels(g, labels) {
        return Verdict {
            failure: Some(format!("check_labels: {e}")),
            quality: None,
        };
    }
    let quality = Some((
        modularity_par(g, labels),
        community_count(labels),
        disconnected_communities(g, labels),
    ));
    let failure = labels
        .iter()
        .zip(reference)
        .position(|(a, b)| a != b)
        .map(|v| {
            format!(
                "vertex {v} has label {} but the 1-thread reference has {}",
                labels[v], reference[v]
            )
        });
    Verdict { failure, quality }
}

/// Number of communities whose vertices are not connected by
/// intra-community edges. Labels must already pass `check_labels`.
/// O(E α(V)): one union per intra-community edge, then one root per
/// vertex.
pub fn disconnected_communities(g: &Csr, labels: &[u32]) -> usize {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for u in g.vertices() {
        for &v in g.neighbor_ids(u) {
            if labels[u as usize] == labels[v as usize] {
                uf.union(u, v);
            }
        }
    }
    // first intra-community component seen per label
    let mut root_of = vec![u32::MAX; n];
    let mut split = vec![false; n];
    for v in g.vertices() {
        let (l, r) = (labels[v as usize] as usize, uf.find(v));
        if root_of[l] == u32::MAX {
            root_of[l] = r;
        } else if root_of[l] != r {
            split[l] = true;
        }
    }
    split.iter().filter(|&&s| s).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::caveman;
    use nulpa_graph::GraphBuilder;

    #[test]
    fn disconnected_counts_split_labels_once() {
        // path 0-1-2-3 and a separate edge 4-5
        let g = GraphBuilder::new(6)
            .add_undirected_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
            .build();
        assert_eq!(disconnected_communities(&g, &[0, 0, 2, 2, 4, 4]), 0);
        // label 0 on {0, 2, 4}: three pieces, one community
        assert_eq!(disconnected_communities(&g, &[0, 1, 0, 3, 0, 5]), 1);
        // label 0 on {0, 4}, label 1 on {1, 5}
        assert_eq!(disconnected_communities(&g, &[0, 1, 2, 3, 0, 1]), 2);
    }

    #[test]
    fn corrupted_labels_fail() {
        let g = caveman(3, 4);
        let reference = nulpa_core::lpa_native(&g, &Default::default()).labels;
        assert_eq!(judge(&g, &reference, &reference).failure, None);

        let mut wrong = reference.clone();
        wrong[0] = (wrong[0] + 1) % g.num_vertices() as u32;
        let v = judge(&g, &reference, &wrong);
        assert!(v.failure.unwrap().contains("vertex 0"));
        assert!(v.quality.is_some());

        let short = &reference[1..];
        assert!(judge(&g, &reference, short).failure.is_some());
        let mut out_of_range = reference.clone();
        out_of_range[3] = g.num_vertices() as u32;
        assert!(judge(&g, &reference, &out_of_range).failure.is_some());
    }

    #[test]
    fn unparseable_lines_fail() {
        assert!(parse_labels("1\nx\n").is_err());
        assert_eq!(parse_labels("3\n4\n").unwrap(), vec![3, 4]);
    }
}
