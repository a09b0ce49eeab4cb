//! Allocation contract of the QASM front-end: parsing allocates per *input*
//! (the token buffer, the circuit's gate vector and their doubling growth,
//! a few reused scratch buffers), never per *statement*.
//!
//! A counting global allocator (per-thread counters, so parallel test
//! threads do not interfere) compares a 1,000-statement and a
//! 16,000-statement program built from the same line mix. A per-statement
//! allocation would add ~15,000 to the difference; doubling growth of the
//! two growable buffers adds at most two per doubling of the input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ion_circuit::qasm;

thread_local! {
    /// Heap allocations performed by the current thread (allocs + reallocs).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] with a thread-local allocation counter in front.
struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// plain thread-local `Cell` bump with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;

/// A program of `statements` gate lines cycling through single-qubit,
/// two-qubit, parameterised, Toffoli and measurement statements.
fn program(statements: usize) -> String {
    const LINES: [&str; 5] = [
        "h q[3];",
        "cx q[0],q[7];",
        "rz(pi/2) q[5];",
        "ccx q[1],q[2],q[6];",
        "measure q[4] -> c[4];",
    ];
    let mut source =
        String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[8];\ncreg c[8];\n");
    for i in 0..statements {
        source.push_str(LINES[i % LINES.len()]);
        source.push('\n');
    }
    source
}

/// Allocations performed on this thread while parsing `source` (the parsed
/// circuit is dropped outside the measured window).
fn parse_allocations(source: &str) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let circuit = qasm::parse(source).expect("the program is valid");
    let count = ALLOCATIONS.with(Cell::get) - before;
    assert!(circuit.num_qubits() == 8 && !circuit.is_empty());
    count
}

#[test]
fn parsing_allocates_per_input_not_per_statement() {
    let (small, large) = (1_000, 16_000);
    let small_source = program(small);
    let large_source = program(large);
    let small_count = parse_allocations(&small_source);
    let large_count = parse_allocations(&large_source);
    // Two growable buffers (tokens, gates), each doubling log2(16) = 4 more
    // times on the 16× input, plus slack for allocator size-class effects.
    let bound = 2 * 4 + 4;
    assert!(
        large_count <= small_count + bound,
        "{small} statements: {small_count} allocations, {large}: {large_count} \
         (at most {bound} more allowed)"
    );
    // And the base cost itself is a handful, not one per statement.
    assert!(
        small_count < 64,
        "{small_count} allocations for {small} statements"
    );
}
