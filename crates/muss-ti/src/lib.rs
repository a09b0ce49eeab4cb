//! MUSS-TI: multi-level shuttle scheduling for entanglement-module-linked
//! trapped-ion (EML-QCCD) devices.
//!
//! This crate implements the paper's compiler — the primary contribution of
//! the reproduction:
//!
//! * **Multi-level scheduling** (Section 3.2): the storage / operation /
//!   optical zones of each QCCD module are treated like a memory hierarchy;
//!   gates are routed to the closest level that satisfies them, and capacity
//!   conflicts are resolved by evicting the least-recently-used ion one level
//!   down, like a page fault.
//! * **Cross-module SWAP insertion** (Section 3.3): after a fiber gate, a
//!   weight table over the next `k` DAG layers decides whether a logical
//!   qubit should be exchanged with an idle qubit on another module,
//!   replacing future remote traffic with local gates.
//! * **Initial mapping** (Section 3.4): trivial highest-level-first placement
//!   or the SABRE-style two-fold search.
//!
//! The compiler targets the [`eml_qccd`] hardware model and produces a
//! [`CompiledProgram`](eml_qccd::CompiledProgram) whose metrics (shuttle
//! count, execution time, fidelity) come from the shared
//! [`ScheduleExecutor`](eml_qccd::ScheduleExecutor), so results are directly
//! comparable with the baseline compilers.
//!
//! # Example
//!
//! ```
//! use eml_qccd::{Compiler, DeviceConfig};
//! use ion_circuit::generators;
//! use muss_ti::{MussTiCompiler, MussTiOptions};
//!
//! let circuit = generators::qft(32);
//! let device = DeviceConfig::for_qubits(32).build();
//! let program = MussTiCompiler::new(device, MussTiOptions::default())
//!     .compile(&circuit)
//!     .unwrap();
//! println!("{}", program.metrics());
//! assert!(program.metrics().total_two_qubit_interactions() >= circuit.two_qubit_gate_count());
//! ```
//!
//! # Sessions and batches
//!
//! `compile` is a facade over a staged pipeline with an explicit, reusable
//! compile context (see [`eml_qccd::pipeline`]). Serving paths hold a
//! [`CompileSession`](eml_qccd::CompileSession) so repeated compiles reuse
//! one [`MussTiContext`] arena, and compile whole workloads in parallel with
//! [`eml_qccd::compile_batch`]:
//!
//! ```
//! use eml_qccd::{compile_batch_with_threads, DeviceConfig};
//! use ion_circuit::generators;
//! use muss_ti::{MussTiCompiler, MussTiOptions};
//!
//! let device = DeviceConfig::for_qubits(32).build();
//! let compiler = MussTiCompiler::new(device, MussTiOptions::default());
//! let circuits = vec![generators::ghz(32), generators::qft(24), generators::bv(32)];
//! let programs = compile_batch_with_threads(&compiler, &circuits, 2);
//! assert_eq!(programs.len(), 3); // deterministic input order
//! assert!(programs.iter().all(|p| p.is_ok()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod alloc_check;
mod compiler;
mod context;
mod mapping;
mod naive_placement;
mod options;
mod placement;
mod scheduler;
mod swap_insertion;

pub use compiler::MussTiCompiler;
pub use context::MussTiContext;

/// Test-support hooks for the external parity suites (not part of the API;
/// hidden and semver-exempt). Exposes just enough of the internal scheduler
/// to let integration tests pin `ScheduleMode::CostOnly` dry passes against
/// full passes.
#[doc(hidden)]
pub mod test_support {
    use eml_qccd::{CompileError, EmlQccdDevice, ZoneId};
    use ion_circuit::{Circuit, DependencyDag, QubitId};

    use crate::mapping::trivial_mapping;
    use crate::scheduler::{schedule_with_mode, ScheduleMode as Mode, SchedulerScratch};
    use crate::MussTiOptions;

    /// Public mirror of the internal `ScheduleMode`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ScheduleMode {
        /// Materialise the op stream.
        Full,
        /// Count costs only.
        CostOnly,
    }

    /// Everything a scheduling pass decides, captured for parity checks.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PassProbe {
        /// Shuttle operations emitted (the SABRE selection criterion).
        pub shuttles: usize,
        /// Cross-module SWAPs inserted by the Section 3.3 pass.
        pub inserted_swaps: usize,
        /// Final logical clock (LRU timebase) of the pass.
        pub final_clock: u64,
        /// Final qubit → zone assignment (the chosen routes' outcome).
        pub final_mapping: Vec<(QubitId, ZoneId)>,
        /// Final per-qubit LRU timestamps, qubit-indexed.
        pub last_use: Vec<u64>,
    }

    /// Runs one scheduling pass over `circuit` from its trivial mapping in
    /// the requested mode and captures the decisions.
    ///
    /// # Errors
    ///
    /// Propagates capacity/placement errors from the scheduler.
    pub fn probe_pass(
        device: &EmlQccdDevice,
        options: &MussTiOptions,
        circuit: &Circuit,
        mode: ScheduleMode,
    ) -> Result<PassProbe, CompileError> {
        let mapping = trivial_mapping(device, circuit.num_qubits())?;
        let mut dag = DependencyDag::from_circuit(circuit);
        let mut cx = SchedulerScratch::new(device);
        let mode = match mode {
            ScheduleMode::Full => Mode::Full,
            ScheduleMode::CostOnly => Mode::CostOnly,
        };
        let stats = schedule_with_mode(device, options, mode, &mut dag, &mapping, &mut cx)?;
        Ok(PassProbe {
            shuttles: stats.shuttles,
            inserted_swaps: stats.inserted_swaps,
            final_clock: stats.final_clock,
            final_mapping: cx.state.mapping(),
            last_use: (0..circuit.num_qubits())
                .map(|q| cx.state.last_use(QubitId::new(q)))
                .collect(),
        })
    }
}
pub use naive_placement::NaivePlacement;
pub use options::{InitialMappingStrategy, MussTiOptions};
pub use placement::PlacementState;
pub use swap_insertion::WeightTable;

/// Wall-clock breakdown of one compilation run, phase by phase. This is the
/// pipeline-wide [`StageTimings`](eml_qccd::StageTimings) type, re-exported
/// under its historical MUSS-TI name.
pub type PhaseTimings = eml_qccd::StageTimings;
