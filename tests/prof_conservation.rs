//! Conservation of attributed cycles (profiler integration).
//!
//! For every kernel launched across a matrix of probe strategy ×
//! swap-mitigation mode × device × host thread count, the sum of the
//! per-component attributed cycles must equal the untagged `KernelStats`
//! totals *exactly* — the profiler may never invent or leak a cycle.
//! This is the tentpole invariant of the attribution layer: every charge
//! site tags exactly one component for exactly the cycles it charges.

use nu_lpa::core::{lpa_run, Backend, LpaConfig, RunCtx, SwapMode};
use nu_lpa::graph::gen::{caveman_weighted, two_cliques_light_bridge};
use nu_lpa::hashtab::ProbeStrategy;
use nu_lpa::prof::{Profile, ProfileSink};
use nu_lpa::simt::DeviceConfig;

/// Run one configuration under the profiler and check conservation.
fn check(cfg: &LpaConfig, label: &str) {
    let g = caveman_weighted(3, 9, 0.4);
    let mut sink = ProfileSink::new();
    let result = lpa_run(
        Backend::Sim,
        &g,
        cfg,
        &mut RunCtx {
            sink: Some(&mut sink),
            ..RunCtx::default()
        },
    )
    .unwrap();
    let profile = Profile::build(
        "caveman-3x9",
        label,
        cfg.device.sm_count,
        sink,
        result.iterations as u64,
        result.converged,
    );
    profile
        .verify(&result.stats)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(profile.totals.sim_cycles > 0, "{label}: empty profile");
}

#[test]
fn conservation_across_probe_swap_device_thread_matrix() {
    let swaps = [
        SwapMode::Off,
        SwapMode::CrossCheck { every: 1 },
        SwapMode::PickLess { every: 2 },
        SwapMode::Hybrid {
            cc_every: 2,
            pl_every: 3,
        },
    ];
    for probe in ProbeStrategy::all() {
        for swap in swaps {
            for device in [DeviceConfig::tiny(), DeviceConfig::a100()] {
                for threads in [1usize, 4] {
                    let cfg = LpaConfig::default()
                        .with_probe(probe)
                        .with_swap_mode(swap)
                        .with_device(device)
                        .with_threads(threads);
                    let label = format!(
                        "{}/{:?}/{}/t{}",
                        probe.label(),
                        swap,
                        device.preset_name(),
                        threads
                    );
                    check(&cfg, &label);
                }
            }
        }
    }
}

#[test]
fn conservation_with_shared_tables_and_f64() {
    use nu_lpa::core::ValueType;
    for threads in [1usize, 4] {
        // shared tables need an SM with enough shared memory to keep a
        // whole block resident, so this ablation runs on the A100 preset
        let cfg = LpaConfig::default()
            .with_shared_tables(true)
            .with_threads(threads);
        check(&cfg, &format!("shared-tables/t{threads}"));
        let cfg = LpaConfig::default()
            .with_value_type(ValueType::F64)
            .with_threads(threads);
        check(&cfg, &format!("f64/t{threads}"));
    }
}

/// The attribution itself must be deterministic: the same run at 1 and 4
/// host threads produces bit-identical component totals, not just
/// bit-identical labels.
#[test]
fn attribution_is_thread_count_invariant() {
    let g = two_cliques_light_bridge(6);
    let profile_at = |threads: usize| {
        let cfg = LpaConfig::default()
            .with_device(DeviceConfig::tiny())
            .with_threads(threads);
        let mut sink = ProfileSink::new();
        let result = lpa_run(
            Backend::Sim,
            &g,
            &cfg,
            &mut RunCtx {
                sink: Some(&mut sink),
                ..RunCtx::default()
            },
        )
        .unwrap();
        let p = Profile::build(
            "two-cliques",
            "tiny",
            cfg.device.sm_count,
            sink,
            result.iterations as u64,
            result.converged,
        );
        p.verify(&result.stats).expect("conserved");
        p
    };
    let p1 = profile_at(1);
    let p4 = profile_at(4);
    assert_eq!(p1.totals.comp, p4.totals.comp);
    assert_eq!(p1.totals.sim_cycles, p4.totals.sim_cycles);
    assert_eq!(p1.totals.imbalance_cycles, p4.totals.imbalance_cycles);
    assert_eq!(p1.totals.stall_cycles, p4.totals.stall_cycles);
    assert_eq!(p1.kernels.len(), p4.kernels.len());
}
