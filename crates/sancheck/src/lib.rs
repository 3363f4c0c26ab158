//! # nulpa-sancheck
//!
//! A dynamic hazard detector for the SIMT execution-model simulator — the
//! simulator-world analogue of CUDA `compute-sanitizer --tool racecheck`
//! and `--tool memcheck`.
//!
//! The paper's correctness argument (§4.1: community swaps, the
//! Cross-Check revert pass, "each vertex is written by exactly one thread
//! per iteration") rests on memory-visibility invariants the simulator
//! *models* but, on its own, never *checks*. This crate checks them at
//! runtime: instrumented code in `nulpa-simt` and `nulpa-hashtab` reports
//! every deferred-store access, barrier, atomic, and hashtable probe to a
//! process-global [`Checker`] once one is installed (the tool is attached
//! at run time, like `compute-sanitizer`). The checker keeps **shadow
//! state** per memory cell — the last writer's (wave, warp, lane), the
//! access kind (staged / write-through / atomic), and init status — and
//! records a [`Hazard`] whenever an invariant is violated.
//!
//! ## Hazard taxonomy
//!
//! | kind | invariant violated |
//! |------|--------------------|
//! | [`HazardKind::WaveWriteRace`] | two distinct lanes stage the same cell in one wave |
//! | [`HazardKind::WriteThroughRace`] | an immediate (`write_through`) write races a staged one within a wave |
//! | [`HazardKind::UninitRead`] | read of a cell never initialised |
//! | [`HazardKind::OutOfBounds`] | store index or table slot outside the allocation |
//! | [`HazardKind::BarrierDivergence`] | a warp reaches a barrier with unequal lane participation |
//! | [`HazardKind::MixedAtomicPlain`] | atomic and plain writes to one address in the same wave |
//! | [`HazardKind::ProbeOverrun`] | a probe sequence exceeds its termination bound |
//! | [`HazardKind::DuplicateKey`] | one key claimed at two distinct hashtable slots |
//!
//! ## Usage
//!
//! ```
//! use nulpa_sancheck::{install, uninstall, CheckerConfig};
//!
//! install(CheckerConfig::default());
//! // ... run instrumented kernels ...
//! let report = uninstall().expect("checker was installed");
//! assert!(report.is_clean(), "{}", report.render());
//! ```
//!
//! The checker is process-global (hooks fire from every host thread of
//! the simulator's sharded wave execution), guarded by an atomic enabled
//! flag plus a mutex. When not installed, every hook is a single
//! relaxed atomic load — the neutrality tests in the workspace root assert
//! that an installed checker changes no observable result and that a
//! disabled one costs nothing measurable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
pub mod hooks;
mod report;

pub use checker::{Checker, CheckerConfig, ExecCtx};
pub use hooks::{install, is_active, uninstall};
pub use report::{Hazard, HazardKind, PriorAccess, SancheckReport};
