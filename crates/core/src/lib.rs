//! # nulpa-core
//!
//! ν-LPA: the paper's GPU label-propagation algorithm for community
//! detection, in three backends sharing one [`LpaConfig`] and one entry
//! point, [`lpa_run`] (a [`Backend`] plus a [`RunCtx`] of optional
//! attachments: trace sink, iteration observer, host profiler, warm
//! start). A bad config or context is an `Err`, never a panic.
//!
//! * [`Backend::Sim`] ([`gpu`]) — the reproduction of the CUDA
//!   implementation, executed on the SIMT simulator with full cost
//!   metering (Algorithm 1 + 2, Pick-Less / Cross-Check swap mitigation,
//!   thread- and block-per-vertex kernels, per-vertex hashtables).
//! * [`Backend::Native`] ([`native`]) — the same algorithm as a native
//!   multi-threaded port (the degree-bucketed fast path in [`fastpath`]),
//!   used for wall-clock benchmarking against the baselines (Fig. 6).
//! * [`Backend::Seq`] ([`seq`]) — a simple sequential reference for
//!   differential testing.
//!
//! [`lpa_gpu`], [`lpa_native`] and [`lpa_seq`] run a backend with no
//! attachments and panic on an invalid config; [`lpa_native_traced`] and
//! [`lpa_native_hostprof`] attach a sink or the host profiler.
//!
//! Plus [`pulp_partition`] — the paper's stated future-work application:
//! size-constrained k-way graph partitioning by label propagation.
//!
//! ```
//! use nulpa_core::{lpa_run, Backend, LpaConfig, RunCtx};
//! use nulpa_graph::gen::caveman_weighted;
//! use nulpa_metrics::modularity;
//! use nulpa_simt::RecordingSink;
//!
//! let g = caveman_weighted(4, 8, 0.5);
//! let mut sink = RecordingSink::new();
//! let mut ctx = RunCtx {
//!     sink: Some(&mut sink),
//!     ..RunCtx::default()
//! };
//! let result = lpa_run(Backend::Native, &g, &LpaConfig::default(), &mut ctx)?;
//! assert!(modularity(&g, &result.labels) > 0.5);
//!
//! let bad = LpaConfig::default().with_max_iterations(0);
//! assert!(lpa_run(Backend::Seq, &g, &bad, &mut RunCtx::default()).is_err());
//! # Ok::<(), String>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod coarsen;
pub mod config;
// The only unsafe code in this crate lives in these two modules
// (audited, allowlisted in check/unsafe_allowlist.toml and enforced by
// `nulpa check`): `disjoint` hands out non-overlapping mutable table
// regions from one buffer, and `gpu` takes such disjoint per-vertex
// regions from it (vertex-disjoint by CSR construction) for its
// parallel table writes.
#[allow(unsafe_code)]
pub mod disjoint;
pub mod dynamic;
pub mod effects;
pub mod fastpath;
#[allow(unsafe_code)]
pub mod gpu;
pub mod hostprof;
pub mod linkpred;
pub mod native;
pub mod observe;
pub mod partition;
pub mod pulp;
pub mod result;
pub mod run;
pub mod seq;

pub use addr::AddrMap;
pub use coarsen::{coarsen_lpa, CoarseLevel, CoarsenConfig, CoarsenResult};
pub use config::{resolve_threads, BucketThresholds, LpaConfig, SwapMode, ValueType, MAX_THREADS};
pub use dynamic::{apply_batch, frontier, lpa_dynamic, EdgeBatch};
pub use effects::shipped_effects;
pub use fastpath::bucket_partition;
pub use gpu::lpa_gpu;
pub use hostprof::{
    BucketCounters, HostProfData, IterRepairStats, SpanKind, SpanRec, ThreadProfData, BUCKET_NAMES,
};
pub use linkpred::{adamic_adar, community_adamic_adar, top_k_predictions};
pub use native::{lpa_native, lpa_native_hostprof, lpa_native_traced};
pub use observe::{IterObserver, NullObserver};
pub use partition::{partition_all, partition_candidates, KernelPartition};
pub use pulp::{pulp_partition, pulp_partition_weighted, PulpConfig, PulpResult};
pub use result::LpaResult;
pub use run::{lpa_run, Backend, RunCtx, WarmStart};
pub use seq::lpa_seq;
