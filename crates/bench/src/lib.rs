//! # lodcal-bench — experiment harness
//!
//! Shared plumbing for the binaries under `src/bin/`, each of which
//! regenerates one table or figure of the paper (see DESIGN.md for the
//! per-experiment index).

pub mod args;
pub mod case1;
pub mod case2;
pub mod workloads;

// The table renderer moved into the lodsel subsystem (sweep drivers and
// experiment binaries share it); the old path keeps working.
pub use lodsel::report;
