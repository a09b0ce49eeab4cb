//! Structured diagnostics reported by the analyzer.

// lint: no-panic

use std::fmt;

use eml_qccd::ResourceId;
use ion_circuit::QubitId;

/// What rule an op stream broke.
///
/// Each variant corresponds to one check of the abstract device machine or
/// the logical-coverage replay; mutation tests in `tests/` assert that each
/// seeded corruption class maps to its exact variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// An op names a qubit the source circuit does not have.
    UnknownQubit {
        /// The out-of-range qubit.
        qubit: QubitId,
    },
    /// An op names a zone/trap the device does not have.
    UnknownZone {
        /// The out-of-range zone id.
        zone: ResourceId,
    },
    /// A gate or measurement claims a qubit sits in a zone it does not.
    QubitZoneMismatch {
        /// The mislocated qubit.
        qubit: QubitId,
        /// The zone the op claims.
        stated: ResourceId,
        /// Where the machine tracks the qubit.
        tracked: ResourceId,
    },
    /// A gate's `ions_in_zone` disagrees with the tracked occupancy.
    IonsInZoneMismatch {
        /// The gate zone.
        zone: ResourceId,
        /// The op's claimed chain size.
        stated: usize,
        /// The tracked occupancy.
        tracked: usize,
    },
    /// A zone holds more ions than its capacity after a shuttle came to rest.
    ZoneOverCapacity {
        /// The overfull zone.
        zone: ResourceId,
        /// Tracked occupancy.
        occupancy: usize,
        /// The zone's capacity.
        capacity: usize,
    },
    /// A module holds more ions than its capacity after a shuttle came to
    /// rest.
    ModuleOverCapacity {
        /// The overfull module.
        module: usize,
        /// Tracked occupancy.
        occupancy: usize,
        /// The module's capacity.
        capacity: usize,
    },
    /// A two-qubit gate was scheduled in a zone that cannot execute gates
    /// (a storage zone).
    ZoneCannotGate {
        /// The offending zone.
        zone: ResourceId,
    },
    /// A fiber gate endpoint is not an optical zone.
    FiberZoneNotOptical {
        /// The offending zone.
        zone: ResourceId,
    },
    /// A fiber gate connects two zones of the same module.
    FiberSameModule {
        /// The shared module.
        module: usize,
    },
    /// A fiber gate connects modules with no fiber link between them.
    FiberNotLinked {
        /// First module.
        module_a: usize,
        /// Second module.
        module_b: usize,
    },
    /// A shuttle departs from a zone other than the ion's current one.
    ShuttleFromWrongZone {
        /// The shuttled qubit.
        qubit: QubitId,
        /// The op's claimed origin.
        stated: ResourceId,
        /// Where the machine tracks the qubit.
        tracked: ResourceId,
    },
    /// A shuttle move the topology does not permit (cross-module on EML
    /// devices, non-adjacent traps on grids, or from a zone to itself).
    ShuttleNotAllowed {
        /// Origin zone.
        from: ResourceId,
        /// Destination zone.
        to: ResourceId,
    },
    /// A shuttle's `distance_um` disagrees with the device topology.
    ShuttleDistanceMismatch {
        /// Origin zone.
        from: ResourceId,
        /// Destination zone.
        to: ResourceId,
        /// The op's claimed distance.
        stated_um: f64,
        /// The topology's distance.
        expected_um: f64,
    },
    /// A gate executed on a qubit after that qubit was measured.
    GateAfterMeasurement {
        /// The already-measured qubit.
        qubit: QubitId,
    },
    /// A two-qubit op has no ready source gate on its qubit pair: either
    /// the gate does not exist in the source circuit, or executing it here
    /// would violate the circuit's dependency order.
    GateNotReady {
        /// First operand.
        a: QubitId,
        /// Second operand.
        b: QubitId,
    },
    /// A ready source gate exists on the pair but with the opposite operand
    /// order (order matters for directional gates like CX).
    OperandOrderMismatch {
        /// First operand as scheduled.
        a: QubitId,
        /// Second operand as scheduled.
        b: QubitId,
    },
    /// The op kind does not match the ready source gate (a `SwapGate` op
    /// covering a non-SWAP gate, or a `TwoQubitGate` op covering a SWAP).
    WrongGateKind {
        /// First operand.
        a: QubitId,
        /// Second operand.
        b: QubitId,
    },
    /// A `FiberGate` read as a source gate (it is not the tail of a run of
    /// identical fiber gates that later ops show to be an inserted
    /// cross-module swap) has no ready source gate to cover.
    MalformedInsertedSwap {
        /// First operand.
        a: QubitId,
        /// Second operand.
        b: QubitId,
    },
    /// The stream ended with unexecuted source two-qubit gates.
    MissingGates {
        /// How many source gates never executed.
        remaining: usize,
    },
    /// A qubit's scheduled single-qubit gate count differs from the source
    /// circuit's.
    SingleQubitCountMismatch {
        /// The affected qubit.
        qubit: QubitId,
        /// Ops scheduled for it.
        scheduled: usize,
        /// Gates the source circuit has for it.
        expected: usize,
    },
    /// A qubit's scheduled measurement count differs from the source
    /// circuit's.
    MeasurementCountMismatch {
        /// The affected qubit.
        qubit: QubitId,
        /// Measurements scheduled for it.
        scheduled: usize,
        /// Measurements the source circuit has for it.
        expected: usize,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ViolationKind::*;
        match self {
            UnknownQubit { qubit } => write!(f, "op names unknown qubit {qubit}"),
            UnknownZone { zone } => write!(f, "op names unknown zone z{zone}"),
            QubitZoneMismatch {
                qubit,
                stated,
                tracked,
            } => write!(
                f,
                "op places {qubit} in z{stated} but it is tracked in z{tracked}"
            ),
            IonsInZoneMismatch {
                zone,
                stated,
                tracked,
            } => write!(
                f,
                "gate in z{zone} claims ions_in_zone={stated} but occupancy is {tracked}"
            ),
            ZoneOverCapacity {
                zone,
                occupancy,
                capacity,
            } => write!(f, "z{zone} holds {occupancy} ions, capacity {capacity}"),
            ModuleOverCapacity {
                module,
                occupancy,
                capacity,
            } => write!(f, "module m{module} holds {occupancy} ions, capacity {capacity}"),
            ZoneCannotGate { zone } => {
                write!(f, "two-qubit gate in z{zone}, which cannot execute gates")
            }
            FiberZoneNotOptical { zone } => {
                write!(f, "fiber gate endpoint z{zone} is not an optical zone")
            }
            FiberSameModule { module } => {
                write!(f, "fiber gate between two zones of module m{module}")
            }
            FiberNotLinked { module_a, module_b } => write!(
                f,
                "fiber gate between unlinked modules m{module_a} and m{module_b}"
            ),
            ShuttleFromWrongZone {
                qubit,
                stated,
                tracked,
            } => write!(
                f,
                "shuttle of {qubit} departs z{stated} but it is tracked in z{tracked}"
            ),
            ShuttleNotAllowed { from, to } => {
                write!(f, "topology does not allow a shuttle z{from} → z{to}")
            }
            ShuttleDistanceMismatch {
                from,
                to,
                stated_um,
                expected_um,
            } => write!(
                f,
                "shuttle z{from} → z{to} claims {stated_um} µm, topology says {expected_um} µm"
            ),
            GateAfterMeasurement { qubit } => {
                write!(f, "gate on {qubit} after it was measured")
            }
            GateNotReady { a, b } => write!(
                f,
                "no ready source gate on ({a}, {b}) — dependency order violated or gate not in circuit"
            ),
            OperandOrderMismatch { a, b } => write!(
                f,
                "ready source gate on ({a}, {b}) has the opposite operand order"
            ),
            WrongGateKind { a, b } => write!(
                f,
                "op kind does not match the ready source gate on ({a}, {b})"
            ),
            MalformedInsertedSwap { a, b } => write!(
                f,
                "fiber gate on ({a}, {b}) covers no source gate and is not a 3-op inserted swap"
            ),
            MissingGates { remaining } => {
                write!(f, "stream ended with {remaining} source gate(s) unexecuted")
            }
            SingleQubitCountMismatch {
                qubit,
                scheduled,
                expected,
            } => write!(
                f,
                "{qubit} got {scheduled} single-qubit op(s), source has {expected}"
            ),
            MeasurementCountMismatch {
                qubit,
                scheduled,
                expected,
            } => write!(
                f,
                "{qubit} got {scheduled} measurement(s), source has {expected}"
            ),
        }
    }
}

/// The machine state around a violation: where the involved qubits were
/// tracked and how full the involved zones were (occupancies are `None`
/// when the analyzer runs without an initial placement and cannot track
/// them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineSnapshot {
    /// Tracked zone of each involved qubit (`None` = not yet seen).
    pub qubits: Vec<(QubitId, Option<ResourceId>)>,
    /// Tracked occupancy of each involved zone.
    pub zones: Vec<(ResourceId, Option<usize>)>,
}

impl fmt::Display for MachineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        for (q, z) in &self.qubits {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            match z {
                Some(z) => write!(f, "{q}@z{z}")?,
                None => write!(f, "{q}@?")?,
            }
        }
        for (z, occ) in &self.zones {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            match occ {
                Some(occ) => write!(f, "z{z}:{occ} ions")?,
                None => write!(f, "z{z}:? ions")?,
            }
        }
        write!(f, "]")
    }
}

/// One finding: the op it anchors to (`None` for end-of-stream checks like
/// coverage counts), the broken rule, and a snapshot of the machine state.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index into the program's op stream, when the finding anchors to one.
    pub op_index: Option<usize>,
    /// The broken rule.
    pub kind: ViolationKind,
    /// Machine state around the violation.
    pub snapshot: MachineSnapshot,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "op #{i}: {} {}", self.kind, self.snapshot),
            None => write!(f, "end of stream: {} {}", self.kind, self.snapshot),
        }
    }
}

/// The outcome of one verification run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Every violation found, in op order (end-of-stream findings last).
    pub violations: Vec<Violation>,
    /// How many ops the analyzer replayed.
    pub ops_checked: usize,
}

impl VerifyReport {
    /// `true` if the schedule passed every check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line summary suitable for error messages: the first few
    /// violations plus a count of the rest.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} ops)", self.ops_checked);
        }
        const SHOWN: usize = 3;
        let mut out = format!("{} violation(s): ", self.violations.len());
        for (i, v) in self.violations.iter().take(SHOWN).enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            out.push_str(&v.to_string());
        }
        if self.violations.len() > SHOWN {
            out.push_str(&format!("; … {} more", self.violations.len() - SHOWN));
        }
        out
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "schedule clean ({} ops checked)", self.ops_checked);
        }
        writeln!(
            f,
            "{} violation(s) in {} ops:",
            self.violations.len(),
            self.ops_checked
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}
