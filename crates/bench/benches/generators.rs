//! Generator and metric throughput: guards the harness's own costs (graph
//! generation and modularity evaluation dominate several figure binaries).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nulpa_graph::gen::{grid2d, kmer_chain, planted_partition, web_crawl};
use nulpa_metrics::modularity;

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators_10k_vertices");
    group.sample_size(10);
    group.bench_function("web_crawl", |b| {
        b.iter(|| black_box(web_crawl(10_000, 8, 0.08, 1).num_edges()))
    });
    group.bench_function("planted_partition", |b| {
        b.iter(|| {
            black_box(
                planted_partition(&[2500; 4], 12.0, 1.0, 1)
                    .graph
                    .num_edges(),
            )
        })
    });
    group.bench_function("grid2d", |b| {
        b.iter(|| black_box(grid2d(100, 100, 0.55, 1).num_edges()))
    });
    group.bench_function("kmer_chain", |b| {
        b.iter(|| black_box(kmer_chain(170, 30, 90, 0.04, 1).num_edges()))
    });
    group.finish();

    let g = web_crawl(10_000, 8, 0.08, 2);
    let labels: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v / 64).collect();
    let mut group = c.benchmark_group("modularity_10k");
    group.sample_size(20);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(modularity(&g, &labels)))
    });
    group.finish();
}

criterion_group!(generators, benches);
criterion_main!(generators);
