//! OpenQASM 2.0 import and export (subset).
//!
//! The paper's benchmarks are distributed as QASMBench OpenQASM 2.0 files.
//! This module provides a small, dependency-free importer/exporter covering
//! the subset those files use: a single quantum register, the `qelib1.inc`
//! standard gates (`h x y z s sdg t tdg rx ry rz u1 u2 u3 cx cz cp cu1 swap
//! rzz ccx`), `measure` and `barrier`. Classical registers and `if`
//! statements are parsed but ignored for scheduling purposes.
//!
//! The front-end is built for untrusted input: [`parse`] never panics, the
//! parser recovers at statement boundaries and reports every problem it
//! finds with line/column spans and source excerpts, and [`ParseLimits`]
//! bounds register width, gate count and expression nesting so adversarial
//! input cannot exhaust memory or the stack.
//!
//! Parsing costs one pass over the source bytes into a buffer of `Copy`
//! tokens that borrow the text, then one pass over that buffer; a valid
//! statement allocates nothing beyond its gates' slots in the circuit
//! (a `barrier` also owns its qubit list).
//!
//! ```
//! use ion_circuit::qasm;
//!
//! let source = r#"
//! OPENQASM 2.0;
//! include "qelib1.inc";
//! qreg q[3];
//! creg c[3];
//! h q[0];
//! cx q[0], q[1];
//! cx q[1], q[2];
//! measure q -> c;
//! "#;
//! let circuit = match qasm::parse(source) {
//!     Ok(circuit) => circuit,
//!     Err(err) => {
//!         // Each diagnostic carries a line/column span and source excerpt.
//!         for diagnostic in err.diagnostics() {
//!             eprintln!("{diagnostic}");
//!         }
//!         return;
//!     }
//! };
//! assert_eq!(circuit.num_qubits(), 3);
//! assert_eq!(circuit.two_qubit_gate_count(), 2);
//!
//! let emitted = qasm::to_qasm(&circuit);
//! let reparsed = qasm::parse(&emitted).expect("emitted QASM always re-parses");
//! assert_eq!(reparsed.two_qubit_gate_count(), 2);
//! ```
//!
//! Malformed input produces a structured [`QasmError`] instead of a panic:
//!
//! ```
//! use ion_circuit::qasm::{self, DiagnosticKind};
//!
//! let err = qasm::parse("OPENQASM 2.0;\nqreg q[999999999];\n").unwrap_err();
//! assert!(matches!(
//!     err.first().kind,
//!     DiagnosticKind::RegisterTooWide { .. }
//! ));
//! ```

// lint: no-panic

mod lexer;
mod parser;
mod writer;

pub use parser::{parse, parse_with_limits, Diagnostic, DiagnosticKind, ParseLimits, QasmError};
pub use writer::to_qasm;
