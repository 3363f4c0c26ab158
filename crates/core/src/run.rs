//! The one run entry point: [`lpa_run`] drives any backend with the
//! attachments a [`RunCtx`] carries.
//!
//! Every field of a [`RunCtx`] is optional, and [`RunCtx::default`]
//! attaches nothing. [`lpa_run`] validates the configuration and the
//! context once, dispatches on the value type once, and returns a bad
//! config, an out-of-range warm start, or an attachment the backend
//! cannot honour as an `Err` that names it.

use crate::config::{LpaConfig, ValueType};
use crate::hostprof::HostProfData;
use crate::observe::IterObserver;
use crate::result::LpaResult;
use crate::{gpu, native, seq};
use nulpa_graph::{Csr, VertexId};
use nulpa_simt::TraceSink;

/// The three implementations of ν-LPA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The sequential reference ([`crate::seq`]).
    Seq,
    /// The native multi-threaded port ([`crate::native`]).
    Native,
    /// The reproduction of the CUDA kernels on the SIMT simulator
    /// ([`crate::gpu`]).
    Sim,
}

/// A run that starts from existing labels instead of singletons.
#[derive(Clone, Copy, Debug)]
pub struct WarmStart<'a> {
    /// The initial label of every vertex; each must be a vertex id.
    pub labels: &'a [VertexId],
    /// The vertices that start unprocessed. Every other vertex counts as
    /// converged until a neighbour changes.
    pub unprocessed: &'a [VertexId],
}

/// What one [`lpa_run`] call attaches to the algorithm. Attachments only
/// observe: labels and statistics are the same with and without them.
#[derive(Default)]
pub struct RunCtx<'a> {
    /// Per-iteration trace events. The simulator timestamps them in
    /// simulated cycles, the other backends in wall-clock microseconds
    /// since the run started. The caller owns `sink.finish()`.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Called after every committed iteration (post Cross-Check).
    pub observer: Option<&'a mut dyn IterObserver>,
    /// Native only: attach the fast path's host profiler (see
    /// [`crate::hostprof`]); the profile is written here on return.
    pub hostprof: Option<&'a mut Option<HostProfData>>,
    /// Native only: start from existing labels (see
    /// [`crate::dynamic::lpa_dynamic`]).
    pub warm_start: Option<WarmStart<'a>>,
}

impl RunCtx<'_> {
    /// Check the attachments against `backend` and a graph of `n`
    /// vertices.
    fn validate(&self, backend: Backend, n: usize) -> Result<(), String> {
        if backend != Backend::Native {
            if self.hostprof.is_some() {
                return Err(format!(
                    "host profile: the {backend:?} backend has none (Native only)"
                ));
            }
            if self.warm_start.is_some() {
                return Err(format!(
                    "warm start: the {backend:?} backend has none (Native only)"
                ));
            }
        }
        let Some(w) = self.warm_start else {
            return Ok(());
        };
        if w.labels.len() != n {
            return Err(format!(
                "warm start: {} labels for {n} vertices",
                w.labels.len()
            ));
        }
        if let Some(l) = w.labels.iter().find(|&&l| l as usize >= n) {
            return Err(format!(
                "warm start: label {l} is not a vertex id (|V| = {n})"
            ));
        }
        if let Some(v) = w.unprocessed.iter().find(|&&v| v as usize >= n) {
            return Err(format!(
                "warm start: unprocessed vertex {v} is not a vertex id (|V| = {n})"
            ));
        }
        Ok(())
    }
}

/// Run ν-LPA on `backend` with the attachments in `ctx`.
///
/// Returns `Err` naming the problem when `config` fails
/// [`LpaConfig::validate`], when a warm start does not fit the graph, or
/// when `ctx` asks `backend` for something it cannot do.
pub fn lpa_run(
    backend: Backend,
    g: &Csr,
    config: &LpaConfig,
    ctx: &mut RunCtx,
) -> Result<LpaResult, String> {
    config.validate()?;
    ctx.validate(backend, g.num_vertices())?;
    Ok(match (backend, config.value_type) {
        // The reference accumulates in f64 whatever the table type.
        (Backend::Seq, _) => seq::lpa_seq_run(g, config, ctx),
        (Backend::Native, ValueType::F32) => native::lpa_native_typed::<f32>(g, config, ctx),
        (Backend::Native, ValueType::F64) => native::lpa_native_typed::<f64>(g, config, ctx),
        (Backend::Sim, ValueType::F32) => gpu::lpa_gpu_typed::<f32>(g, config, ctx),
        (Backend::Sim, ValueType::F64) => gpu::lpa_gpu_typed::<f64>(g, config, ctx),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SwapMode, MAX_THREADS};
    use nulpa_graph::gen::two_cliques_light_bridge;
    use nulpa_simt::DeviceConfig;

    const BACKENDS: [Backend; 3] = [Backend::Seq, Backend::Native, Backend::Sim];

    /// Every invalid config and every unusable context is an `Err` on
    /// every backend, before any thread, table or scratch pad exists.
    #[test]
    fn bad_config_and_context_are_errors_not_panics() {
        let g = two_cliques_light_bridge(6);
        let n = g.num_vertices() as VertexId;
        let ok = LpaConfig::default();
        let bad_device = DeviceConfig {
            block_size: 48,
            ..DeviceConfig::a100()
        };
        let configs: &[(&str, LpaConfig)] = &[
            ("max_iterations 0", ok.with_max_iterations(0)),
            ("tolerance -0.1", ok.with_tolerance(-0.1)),
            ("tolerance 1.5", ok.with_tolerance(1.5)),
            ("tolerance NaN", ok.with_tolerance(f64::NAN)),
            (
                "pick-less period 0",
                ok.with_swap_mode(SwapMode::PickLess { every: 0 }),
            ),
            (
                "cross-check period 0",
                ok.with_swap_mode(SwapMode::CrossCheck { every: 0 }),
            ),
            (
                "hybrid period 0",
                ok.with_swap_mode(SwapMode::Hybrid {
                    cc_every: 2,
                    pl_every: 0,
                }),
            ),
            (
                "frontier without pruning",
                ok.with_pruning(false).with_frontier(true),
            ),
            ("invalid device", ok.with_device(bad_device)),
            (
                "shared tables that do not fit an SM",
                ok.with_shared_tables(true).with_switch_degree(4096),
            ),
            (
                "threads above the ceiling",
                ok.with_threads(MAX_THREADS + 1),
            ),
        ];
        for backend in BACKENDS {
            for (what, cfg) in configs {
                assert!(cfg.validate().is_err(), "{what}");
                let r = lpa_run(backend, &g, cfg, &mut RunCtx::default());
                assert!(r.is_err(), "{backend:?}: {what} was accepted");
            }
        }

        let labels: Vec<VertexId> = (0..n).collect();
        let short = &labels[1..];
        let mut big_label = labels.clone();
        big_label[3] = n;
        let warm: &[(&str, &[VertexId], &[VertexId])] = &[
            ("labels of the wrong length", short, &[0]),
            ("a label >= |V|", &big_label, &[0]),
            ("a seed id >= |V|", &labels, &[0, n]),
        ];
        for backend in BACKENDS {
            for &(what, labels, unprocessed) in warm {
                let mut ctx = RunCtx {
                    warm_start: Some(WarmStart {
                        labels,
                        unprocessed,
                    }),
                    ..RunCtx::default()
                };
                let r = lpa_run(backend, &g, &ok, &mut ctx);
                assert!(r.is_err(), "{backend:?}: {what} was accepted");
            }
        }

        for backend in [Backend::Seq, Backend::Sim] {
            let mut prof = None;
            let mut ctx = RunCtx {
                hostprof: Some(&mut prof),
                ..RunCtx::default()
            };
            let err = lpa_run(backend, &g, &ok, &mut ctx).unwrap_err();
            assert!(err.contains("host profile"), "{backend:?}: {err}");
            assert!(prof.is_none());
            let mut ctx = RunCtx {
                warm_start: Some(WarmStart {
                    labels: &labels,
                    unprocessed: &[],
                }),
                ..RunCtx::default()
            };
            let err = lpa_run(backend, &g, &ok, &mut ctx).unwrap_err();
            assert!(err.contains("warm start"), "{backend:?}: {err}");
        }
    }
}
