//! Text renderer for [`Profile`]s: attribution table, component table,
//! roofline summary and per-SM occupancy timeline.

use crate::profile::{KernelAgg, Profile};
use nulpa_simt::Comp;
use std::fmt::Write as _;

/// Maximum timeline rows rendered before eliding the middle.
const TIMELINE_ROWS: usize = 32;

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn agg_row(out: &mut String, k: &KernelAgg, total_sim: u64) {
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>12} {:>6.1}% {:>12} {:>12} {:>12} {:>12}",
        k.name,
        k.launches,
        k.sim_cycles,
        pct(k.sim_cycles, total_sim),
        k.lane_cycles,
        k.idle_cycles,
        k.imbalance_cycles,
        k.stall_cycles,
    );
}

/// Render the full text report for one profile.
pub fn render(p: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== profile: graph={} backend={} ==",
        p.graph, p.backend
    );
    let _ = writeln!(
        out,
        "iterations {}{}  kernels {}  waves {}  sim_cycles {}",
        p.iterations,
        if p.converged { " (converged)" } else { "" },
        p.kernels.len(),
        p.totals.waves,
        p.totals.sim_cycles,
    );

    // -- cycle attribution ------------------------------------------------
    let _ = writeln!(out, "\ncycle attribution (cycles; sim% of run wall-clock)");
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>12} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "kernel", "launches", "sim_cycles", "sim%", "lane", "idle", "imbalance", "stall"
    );
    for k in &p.kernels {
        agg_row(&mut out, k, p.totals.sim_cycles);
    }
    agg_row(&mut out, &p.totals, p.totals.sim_cycles);

    // -- component breakdown ----------------------------------------------
    let _ = writeln!(out, "\ncomponents (% of the kernel's lane-busy cycles)");
    let mut header = format!("{:<20}", "kernel");
    for c in Comp::all() {
        let _ = write!(header, " {:>12}", c.label());
    }
    let _ = writeln!(out, "{header}");
    for k in p.kernels.iter().chain(std::iter::once(&p.totals)) {
        let _ = write!(out, "{:<20}", k.name);
        for c in Comp::all() {
            let _ = write!(
                out,
                " {:>7} {:>3.0}%",
                k.comp.get(c),
                pct(k.comp.get(c), k.lane_cycles)
            );
        }
        let _ = writeln!(out);
    }

    // -- roofline summary -------------------------------------------------
    let _ = writeln!(
        out,
        "\nroofline (useful = lane-busy / occupied lane-slots; intensity = compute/memory cycles)"
    );
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>12} {:>7} {:>10} {:>8} {:>7}",
        "kernel", "useful", "charged", "util", "intensity", "bound", "stall%"
    );
    for k in p.kernels.iter().chain(std::iter::once(&p.totals)) {
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>12} {:>6.1}% {:>10.3} {:>8} {:>6.1}%",
            k.name,
            k.lane_cycles,
            k.slot_cycles(),
            100.0 * k.utilization(),
            k.intensity(),
            k.bound(),
            pct(k.stall_cycles, k.sim_cycles),
        );
    }

    // -- per-iteration ----------------------------------------------------
    if p.iters.len() > 1 {
        let _ = writeln!(out, "\nper-iteration");
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>12} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "iteration", "launches", "sim_cycles", "sim%", "lane", "idle", "imbalance", "stall"
        );
        for it in &p.iters {
            agg_row(&mut out, &it.agg, p.totals.sim_cycles);
        }
    }

    // -- occupancy timeline -----------------------------------------------
    let _ = writeln!(
        out,
        "\noccupancy timeline (one row per wave; items resident / wave capacity, SMs active / {})",
        p.sm_count
    );
    let rows: Vec<String> = p
        .launches
        .iter()
        .flat_map(|l| {
            l.waves.iter().enumerate().map(move |(w, wave)| {
                let occ = if l.wave_capacity == 0 {
                    0.0
                } else {
                    wave.items as f64 / l.wave_capacity as f64
                };
                let per_sm = (l.wave_capacity / p.sm_count.max(1)).max(1);
                let sms = wave.items.div_ceil(per_sm).min(p.sm_count);
                let filled = (occ * 12.0).round() as usize;
                let bar: String = "#".repeat(filled.min(12)) + &"-".repeat(12 - filled.min(12));
                format!(
                    "[{:>10} +{:>8}] {:<20} w{:<3} |{bar}| {:>5.1}% {:>8}/{:<8} {:>3} SMs",
                    wave.t0,
                    wave.dur,
                    l.name,
                    w,
                    100.0 * occ,
                    wave.items,
                    l.wave_capacity,
                    sms,
                )
            })
        })
        .collect();
    if rows.len() <= TIMELINE_ROWS {
        for r in &rows {
            let _ = writeln!(out, "{r}");
        }
    } else {
        let head = TIMELINE_ROWS / 2;
        let tail = TIMELINE_ROWS - head;
        for r in &rows[..head] {
            let _ = writeln!(out, "{r}");
        }
        let _ = writeln!(
            out,
            "  ... ({} waves elided) ...",
            rows.len() - TIMELINE_ROWS
        );
        for r in &rows[rows.len() - tail..] {
            let _ = writeln!(out, "{r}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{backends, profile_graph};
    use nulpa_graph::gen::two_cliques_light_bridge;

    #[test]
    fn render_covers_all_sections() {
        let g = two_cliques_light_bridge(5);
        let spec = &backends()[1]; // tiny: multiple waves
        let gp = profile_graph("two-cliques", &g, spec).unwrap();
        let text = render(&gp.profile);
        for needle in [
            "cycle attribution",
            "components",
            "roofline",
            "occupancy timeline",
            "kernel:thread",
            "total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
