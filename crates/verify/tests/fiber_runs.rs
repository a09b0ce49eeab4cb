//! Runs of identical consecutive fiber gates: an inserted cross-module swap
//! is emitted as three identical `FiberGate`s, but so is a chain of three
//! identical source gates on one remote pair (e.g. a Toffoli's trailing
//! `cx(a,b)` plus an uncompute `cx(a,b)` once lowering hoists the
//! single-qubit gates between them). The verifier must read each run the
//! way the rest of the stream does.

use eml_qccd::{CompiledProgram, DeviceConfig, EmlQccdDevice, ScheduledOp};
use ion_circuit::{generators, Circuit, QubitId};
use muss_ti::{MussTiCompiler, MussTiOptions};
use verify::{DeviceModel, ScheduleVerifier, ViolationKind};

/// Compiles `circuit` and asserts the verifier finds the program clean.
fn compile_verified(
    device: EmlQccdDevice,
    options: MussTiOptions,
    circuit: &Circuit,
) -> (CompiledProgram, usize) {
    let verifier = ScheduleVerifier::new(DeviceModel::from(&device));
    let (program, swaps) = MussTiCompiler::new(device, options)
        .compile_with_stats(circuit)
        .expect("compiles");
    let report = verifier.verify(circuit, &program);
    assert!(report.is_clean(), "{}: {report}", circuit.name());
    (program, swaps)
}

/// Index of the first run of three identical fiber gates in `ops`.
fn first_fiber_triple(ops: &[ScheduledOp]) -> Option<usize> {
    ops.windows(3).position(|w| {
        let fiber = matches!(w[0], ScheduledOp::FiberGate { .. });
        fiber && w[0] == w[1] && w[1] == w[2]
    })
}

#[test]
fn sqrt_117_verifies_in_trivial_and_default_modes() {
    let circuit = generators::sqrt(117);
    let device = DeviceConfig::for_qubits(117).build();
    let (program, swaps) = compile_verified(device.clone(), MussTiOptions::trivial(), &circuit);
    assert_eq!(swaps, 0, "trivial mode inserts no swaps");
    assert!(
        first_fiber_triple(program.ops()).is_some(),
        "the trivial SQRT_117 schedule holds a triple of identical source fiber gates"
    );
    compile_verified(device, MussTiOptions::default(), &circuit);
}

/// Two qubits on different modules (48 qubits fill two modules block-wise,
/// so qubits 0 and 24 both start in an optical zone) joined by three CX.
fn remote_cx_triple(measure: bool) -> Circuit {
    let mut circuit = Circuit::new(48);
    for _ in 0..3 {
        circuit.cx(0, 24);
    }
    if measure {
        circuit.measure_all();
    }
    circuit
}

#[test]
fn three_remote_source_gates_are_not_read_as_a_swap() {
    // With measurements the later ops decide; without them, coverage does.
    for measure in [true, false] {
        let device = DeviceConfig::for_qubits(48).build();
        assert_eq!(device.num_modules(), 2);
        let circuit = remote_cx_triple(measure);
        let (program, _) = compile_verified(device, MussTiOptions::trivial(), &circuit);
        assert_eq!(
            first_fiber_triple(program.ops()),
            Some(0),
            "three identical fiber gates open the stream"
        );
    }
}

#[test]
fn a_trailing_swap_after_a_source_gate_on_the_same_pair_is_read_as_one() {
    // Hand-built: cx(0, 24) as a fiber gate, then an inserted swap of the
    // same pair (three more identical fiber gates), then measurements that
    // see the pair exchanged.
    let circuit = remote_cx_triple(true);
    let device = DeviceConfig::for_qubits(48).build();
    let verifier = ScheduleVerifier::new(DeviceModel::from(&device));
    let (program, _) = compile_verified(device, MussTiOptions::trivial(), &circuit);
    let fiber = program.ops()[0].clone();
    let ScheduledOp::FiberGate { zone_a, zone_b, .. } = fiber else {
        panic!("stream opens with a fiber gate");
    };
    let (q0, q24) = (QubitId::new(0), QubitId::new(24));
    let mut one_cx = Circuit::new(48);
    one_cx.cx(0, 24);
    one_cx.measure_all();
    let mut ops = vec![fiber.clone(); 4];
    ops.extend(program.ops()[3..].iter().map(|op| match op {
        ScheduledOp::Measurement { qubit, .. } if *qubit == q0 => ScheduledOp::Measurement {
            qubit: q0,
            zone: zone_b,
        },
        ScheduledOp::Measurement { qubit, .. } if *qubit == q24 => ScheduledOp::Measurement {
            qubit: q24,
            zone: zone_a,
        },
        other => other.clone(),
    }));
    let report = verifier.verify_ops(&one_cx, program.initial_placement(), &ops);
    assert!(report.is_clean(), "{report}");

    // The same stream against the three-CX circuit leaves two source gates
    // unexecuted: the run is one gate plus a swap, not four gates.
    let report = verifier.verify_ops(&circuit, program.initial_placement(), &ops);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::MissingGates { remaining: 2 }),
        "{report}"
    );
}

#[test]
fn an_unobserved_triple_with_nothing_to_cover_is_a_swap() {
    // No later op places either qubit, so only coverage can decide: with no
    // source gate on the pair the triple must be an inserted swap.
    let device = DeviceConfig::for_qubits(48).build();
    let verifier = ScheduleVerifier::new(DeviceModel::from(&device));
    let (program, _) = compile_verified(device, MussTiOptions::trivial(), &remote_cx_triple(false));
    let report = verifier.verify_ops(
        &Circuit::new(48),
        program.initial_placement(),
        &program.ops()[..3],
    );
    assert!(report.is_clean(), "{report}");
}
