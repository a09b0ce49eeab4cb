//! Compile-time micro-benchmark (Fig. 10 companion): times every compiler in
//! the workspace on a fixed workload set and emits `BENCH_compile_time.json`
//! so the compile-time trajectory is tracked from PR to PR.
//!
//! Unlike [`fig10`](crate::fig10) (which reproduces the paper's scaling
//! curve for MUSS-TI only), this benchmark compares *all* compilers on the
//! same circuits with explicit iteration counts, and serialises the raw
//! wall-clock numbers for CI artefact upload. JSON is emitted by hand — the
//! build environment has no serde_json.
//!
//! Every timed loop runs through the staged pipeline with a reused compile
//! context (the sequential-session serving path), and the report additionally
//! measures multi-threaded [`compile_batch_with_threads`] throughput over the
//! whole workload set (circuits/second) — both paths the ROADMAP's
//! heavy-traffic serving story cares about.

use std::time::Instant;

use baselines::{DaiCompiler, MqtStyleCompiler, MuraliCompiler};
use eml_qccd::{compile_batch_with_threads, Compiler, DeviceConfig, StagedCompiler};
use ion_circuit::{generators, Circuit};
use muss_ti::{MussTiCompiler, MussTiOptions, PhaseTimings};
use serde::{Deserialize, Serialize};

/// Sums `phases` into `acc`, field by field, rejecting negative phase values
/// (the compiler clamps the derived scheduling slice at zero, so a negative
/// value reaching the report would mean that guard regressed).
fn accumulate(acc: &mut PhaseTimings, phases: &PhaseTimings) {
    for (name, value) in [
        ("placement_ms", phases.placement_ms),
        ("scheduling_ms", phases.scheduling_ms),
        ("swap_insertion_ms", phases.swap_insertion_ms),
        ("lowering_ms", phases.lowering_ms),
    ] {
        assert!(value >= 0.0, "negative phase timing {name} = {value}");
    }
    acc.placement_ms += phases.placement_ms;
    acc.scheduling_ms += phases.scheduling_ms;
    acc.swap_insertion_ms += phases.swap_insertion_ms;
    acc.lowering_ms += phases.lowering_ms;
    acc.window_refreshes += phases.window_refreshes;
    acc.probe_skips += phases.probe_skips;
}

/// Divides every field by `iterations` to get per-compile means. The hot-path
/// counters are deterministic per circuit, so their mean is exact (integer).
fn averaged(mut sum: PhaseTimings, iterations: usize) -> PhaseTimings {
    let n = iterations as f64;
    sum.placement_ms /= n;
    sum.scheduling_ms /= n;
    sum.swap_insertion_ms /= n;
    sum.lowering_ms /= n;
    sum.window_refreshes /= iterations as u64;
    sum.probe_skips /= iterations as u64;
    sum
}

/// Wall-clock numbers for one (circuit, compiler) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRow {
    /// Circuit label, e.g. `"QFT_48"`.
    pub circuit: String,
    /// Number of logical qubits.
    pub qubits: usize,
    /// Number of two-qubit gates (the complexity driver).
    pub two_qubit_gates: usize,
    /// Compiler display name.
    pub compiler: String,
    /// Mean wall-clock compile time over the iterations, in milliseconds.
    pub wall_ms_mean: f64,
    /// Fastest iteration, in milliseconds.
    pub wall_ms_min: f64,
    /// Slowest iteration, in milliseconds.
    pub wall_ms_max: f64,
    /// Mean per-phase breakdown (MUSS-TI only; averaged over the iterations —
    /// baselines report `None` because they have no comparable phase
    /// structure).
    pub phases: Option<PhaseTimings>,
}

/// Multi-threaded batch-compilation throughput over the whole workload set.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchThroughput {
    /// Circuits per batch call.
    pub circuits: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Number of batch calls timed.
    pub runs: usize,
    /// Total wall-clock across all batch calls, in milliseconds.
    pub wall_ms: f64,
    /// Compiled circuits per second of wall-clock.
    pub circuits_per_sec: f64,
}

/// A full benchmark run: configuration plus every row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Timed iterations per (circuit, compiler) pair.
    pub iterations: usize,
    /// All measurements.
    pub rows: Vec<BenchRow>,
    /// MUSS-TI batch-compilation throughput over the workload set
    /// (multi-threaded `compile_batch` with per-worker session reuse on one
    /// device sized for the largest workload — the heavy-traffic serving
    /// scenario), measured once per entry of [`BATCH_THREAD_COUNTS`] so the
    /// report keys throughput by worker count.
    pub batch: Vec<BatchThroughput>,
}

/// Worker counts the batch-throughput section is measured at: the
/// long-standing 2-thread serving configuration plus the 8-thread scale-out
/// point the ROADMAP tracks. On machines with fewer cores the extra workers
/// timeshare — the report records what the hardware actually delivered.
pub const BATCH_THREAD_COUNTS: [usize; 2] = [2, 8];

/// The benchmark workload set: `qft(48)` (the acceptance target), a
/// supremacy-class circuit, three structurally distinct mid-size
/// applications, and two large stress circuits (`qft(96)` and a dense random
/// 128-qubit program) that track *scaling*, not just the qft(48) spot value.
pub fn workloads() -> Vec<Circuit> {
    vec![
        generators::qft(48),
        generators::supremacy(36),
        generators::adder(64),
        generators::qaoa(64),
        generators::bv(128),
        generators::qft(96),
        generators::random_circuit(128, 2000, 25),
    ]
}

/// Runs the benchmark over [`workloads`] with `iterations` timed runs per
/// (circuit, compiler) pair (pass 1 for CI smoke runs).
pub fn run(iterations: usize) -> BenchReport {
    run_with(&workloads(), iterations)
}

/// Runs the benchmark over explicit circuits.
///
/// # Panics
///
/// Panics if a compiler fails on a workload (the workloads are all sized to
/// fit their devices) or if `iterations` is zero.
pub fn run_with(circuits: &[Circuit], iterations: usize) -> BenchReport {
    assert!(iterations > 0, "at least one timed iteration is required");

    fn finish_row(
        circuit: &Circuit,
        compiler: &str,
        samples_ms: &[f64],
        phases: Option<PhaseTimings>,
    ) -> BenchRow {
        let min = samples_ms.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples_ms.iter().cloned().fold(f64::MIN, f64::max);
        let mean = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
        BenchRow {
            circuit: circuit.name().to_string(),
            qubits: circuit.num_qubits(),
            two_qubit_gates: circuit.two_qubit_gate_count(),
            compiler: compiler.to_string(),
            wall_ms_mean: mean,
            wall_ms_min: min,
            wall_ms_max: max,
            phases,
        }
    }

    let mut rows = Vec::new();
    for circuit in circuits {
        let n = circuit.num_qubits();

        // MUSS-TI runs through the instrumented pipeline path with a reused
        // compile context (warm-session timing, the serving configuration) so
        // the report shows where compile time goes (placement / scheduling /
        // swap-insertion / lowering) — that is what nominates the next
        // hot-path candidate.
        let muss_ti = MussTiCompiler::new(
            DeviceConfig::for_qubits(n).build(),
            MussTiOptions::default(),
        );
        let mut cx = muss_ti.context();
        let mut samples_ms = Vec::with_capacity(iterations);
        let mut phase_sum = PhaseTimings::default();
        for _ in 0..iterations {
            let start = Instant::now();
            let (program, _, phases) = muss_ti
                .compile_with_phases_in(&mut cx, circuit)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", muss_ti.name(), circuit.name()));
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            accumulate(&mut phase_sum, &phases);
            std::hint::black_box(program);
        }
        rows.push(finish_row(
            circuit,
            muss_ti.name(),
            &samples_ms,
            Some(averaged(phase_sum, iterations)),
        ));

        let murali = MuraliCompiler::for_qubits(n);
        let dai = DaiCompiler::for_qubits(n);
        let mqt = MqtStyleCompiler::for_qubits(n);
        let compilers: Vec<&dyn StagedCompiler> = vec![&murali, &dai, &mqt];
        for compiler in compilers {
            let mut ctx = compiler.new_context();
            let mut samples_ms = Vec::with_capacity(iterations);
            for _ in 0..iterations {
                let start = Instant::now();
                let program = compiler
                    .compile_in(&mut ctx, circuit)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", compiler.name(), circuit.name()));
                samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(program);
            }
            rows.push(finish_row(circuit, compiler.name(), &samples_ms, None));
        }
    }
    let batch = measure_batch_throughput(circuits, iterations);
    BenchReport {
        iterations,
        rows,
        batch,
    }
}

/// Times multi-threaded batch compilation of the whole workload set with
/// MUSS-TI on one device sized for the largest workload (many circuits, one
/// machine — the serving scenario), `runs` batch calls per entry of
/// [`BATCH_THREAD_COUNTS`]. Each batch worker owns one compile context and
/// reuses it across every circuit it pulls (per-worker session reuse).
fn measure_batch_throughput(circuits: &[Circuit], runs: usize) -> Vec<BatchThroughput> {
    let max_qubits = circuits.iter().map(Circuit::num_qubits).max().unwrap_or(1);
    let compiler = MussTiCompiler::new(
        DeviceConfig::for_qubits(max_qubits).build(),
        MussTiOptions::default(),
    );
    BATCH_THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let start = Instant::now();
            for _ in 0..runs {
                for program in compile_batch_with_threads(&compiler, circuits, threads) {
                    let program = program.unwrap_or_else(|e| panic!("batch compile failed: {e}"));
                    std::hint::black_box(program);
                }
            }
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            BatchThroughput {
                circuits: circuits.len(),
                threads,
                runs,
                wall_ms,
                circuits_per_sec: (runs * circuits.len()) as f64 / (wall_ms.max(1e-9) / 1e3),
            }
        })
        .collect()
}

impl BenchReport {
    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"benchmark\": \"compile_time\",\n  \"iterations\": {},\n  \"results\": [\n",
            self.iterations
        ));
        for (i, row) in self.rows.iter().enumerate() {
            let phases = row
                .phases
                .map(|p| {
                    format!(
                        ", \"phases\": {{\"placement_ms\": {:.3}, \"scheduling_ms\": {:.3}, \"swap_insertion_ms\": {:.3}, \"lowering_ms\": {:.3}, \"window_refreshes\": {}, \"probe_skips\": {}}}",
                        p.placement_ms, p.scheduling_ms, p.swap_insertion_ms, p.lowering_ms,
                        p.window_refreshes, p.probe_skips,
                    )
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"circuit\": {}, \"qubits\": {}, \"two_qubit_gates\": {}, \"compiler\": {}, \"wall_ms_mean\": {:.3}, \"wall_ms_min\": {:.3}, \"wall_ms_max\": {:.3}{}}}{}\n",
                json_string(&row.circuit),
                row.qubits,
                row.two_qubit_gates,
                json_string(&row.compiler),
                row.wall_ms_mean,
                row.wall_ms_min,
                row.wall_ms_max,
                phases,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"batch\": [\n");
        for (i, b) in self.batch.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"circuits\": {}, \"threads\": {}, \"runs\": {}, \"wall_ms\": {:.3}, \"circuits_per_sec\": {:.3}}}{}\n",
                b.circuits,
                b.threads,
                b.runs,
                b.wall_ms,
                b.circuits_per_sec,
                if i + 1 < self.batch.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Renders the measurements as a table.
    pub fn render(&self) -> String {
        let mut table = crate::report::Table::new(
            "Compile-time micro-benchmark (wall-clock per compiler)",
            &[
                "Circuit",
                "Qubits",
                "2Q gates",
                "Compiler",
                "Mean (ms)",
                "Min (ms)",
                "Max (ms)",
            ],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.circuit.clone(),
                row.qubits.to_string(),
                row.two_qubit_gates.to_string(),
                row.compiler.clone(),
                format!("{:.3}", row.wall_ms_mean),
                format!("{:.3}", row.wall_ms_min),
                format!("{:.3}", row.wall_ms_max),
            ]);
        }
        let mut out = table.render();

        let mut phase_table = crate::report::Table::new(
            "MUSS-TI per-phase breakdown (mean ms per compile; counters per compile)",
            &[
                "Circuit",
                "Placement",
                "Scheduling",
                "SWAP insertion",
                "Lowering",
                "Win refreshes",
                "Probe skips",
            ],
        );
        for row in self.rows.iter().filter(|r| r.phases.is_some()) {
            let p = row.phases.expect("filtered on is_some");
            phase_table.push_row(vec![
                row.circuit.clone(),
                format!("{:.3}", p.placement_ms),
                format!("{:.3}", p.scheduling_ms),
                format!("{:.3}", p.swap_insertion_ms),
                format!("{:.3}", p.lowering_ms),
                p.window_refreshes.to_string(),
                p.probe_skips.to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&phase_table.render());
        out.push('\n');
        for b in &self.batch {
            out.push_str(&format!(
                "Batch throughput: {} circuits x {} runs on {} threads in {:.1} ms => {:.1} circuits/sec\n",
                b.circuits, b.runs, b.threads, b.wall_ms, b.circuits_per_sec,
            ));
        }
        out
    }
}

/// The (circuit, compiler) pairs the CI bench-delta gate watches: the
/// long-standing qft(48) acceptance spot value, the qft(96) placement-heavy
/// scaling workload the PR 9 hot-path work targets, and the dense random
/// 128-qubit stress workload the incremental SWAP-insertion table optimises
/// (PR 5) — a regression in any of them fails CI.
const GATE_CIRCUITS: [&str; 3] = ["QFT_48", "QFT_96", "RAN_128"];
const GATE_COMPILER: &str = "MUSS-TI";

impl BenchReport {
    /// This run's MUSS-TI mean wall-clock for `circuit`, a bench-delta
    /// metric.
    pub fn gate_metric_for(&self, circuit: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.circuit == circuit && r.compiler == GATE_COMPILER)
            .map(|r| r.wall_ms_mean)
    }

    /// This run's MUSS-TI qft(48) mean wall-clock, the original bench-delta
    /// metric.
    pub fn gate_metric(&self) -> Option<f64> {
        self.gate_metric_for(GATE_CIRCUITS[0])
    }

    /// Bench-delta smoke gate: compares this run's MUSS-TI qft(48), qft(96)
    /// and ran(128) means against the committed baseline report and fails
    /// when any of them regressed by more than `max_ratio`× (the CI
    /// threshold is 2×, loose enough for shared-runner noise, tight enough
    /// to catch a real hot-path regression).
    ///
    /// # Errors
    ///
    /// An explanatory message when a metric regressed past the threshold or
    /// either report is missing a gated row.
    pub fn check_against_baseline(
        &self,
        baseline_json: &str,
        max_ratio: f64,
    ) -> Result<String, String> {
        let mut lines = Vec::new();
        for circuit in GATE_CIRCUITS {
            let baseline = parse_gate_metric_for(baseline_json, circuit).ok_or_else(|| {
                format!("baseline report has no {GATE_COMPILER} {circuit} wall_ms_mean row")
            })?;
            let current = self
                .gate_metric_for(circuit)
                .ok_or_else(|| format!("this run produced no {GATE_COMPILER} {circuit} row"))?;
            if current > baseline * max_ratio {
                return Err(format!(
                    "bench-delta gate failed: {GATE_COMPILER} {circuit} wall_ms_mean {current:.3} ms \
                     > {max_ratio:.1}x committed baseline {baseline:.3} ms"
                ));
            }
            lines.push(format!(
                "bench-delta gate passed: {GATE_COMPILER} {circuit} wall_ms_mean {current:.3} ms \
                 <= {max_ratio:.1}x committed baseline {baseline:.3} ms"
            ));
        }
        Ok(lines.join("\n"))
    }
}

/// Extracts a gated `wall_ms_mean` from a serialised report without a JSON
/// parser (the build environment has no serde_json): every result row is
/// emitted on one line by [`BenchReport::to_json`].
pub fn parse_gate_metric_for(json: &str, circuit: &str) -> Option<f64> {
    let circuit_key = format!("\"circuit\": \"{circuit}\"");
    let compiler_key = format!("\"compiler\": \"{GATE_COMPILER}\"");
    json.lines()
        .find(|line| line.contains(&circuit_key) && line.contains(&compiler_key))
        .and_then(|line| {
            let key = "\"wall_ms_mean\": ";
            let start = line.find(key)? + key.len();
            let rest = &line[start..];
            let end = rest.find([',', '}'])?;
            rest[..end].trim().parse().ok()
        })
}

/// [`parse_gate_metric_for`] on the original qft(48) gate row.
pub fn parse_gate_metric(json: &str) -> Option<f64> {
    parse_gate_metric_for(json, GATE_CIRCUITS[0])
}

/// Escapes a string for JSON embedding.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_one_row_per_compiler() {
        let circuits = vec![generators::ghz(16)];
        let report = run_with(&circuits, 1);
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().all(|r| r.circuit == "GHZ_16"));
        assert!(report.rows.iter().all(|r| r.wall_ms_mean >= r.wall_ms_min));
        assert!(report.rows.iter().all(|r| r.wall_ms_max >= r.wall_ms_mean));
    }

    #[test]
    fn batch_throughput_is_keyed_by_thread_count_and_serialised() {
        let circuits = vec![generators::ghz(12), generators::qft(12)];
        let report = run_with(&circuits, 1);
        assert_eq!(report.batch.len(), BATCH_THREAD_COUNTS.len());
        for (entry, &threads) in report.batch.iter().zip(BATCH_THREAD_COUNTS.iter()) {
            assert_eq!(entry.circuits, 2);
            assert_eq!(entry.runs, 1);
            assert_eq!(entry.threads, threads);
            assert!(entry.circuits_per_sec > 0.0);
            assert!(entry.circuits_per_sec.is_finite());
        }
        let json = report.to_json();
        assert!(json.contains("\"batch\": ["));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"threads\": 8"));
        assert_eq!(
            json.matches("\"circuits_per_sec\"").count(),
            BATCH_THREAD_COUNTS.len()
        );
        assert_eq!(
            report.render().matches("Batch throughput").count(),
            BATCH_THREAD_COUNTS.len()
        );
    }

    #[test]
    fn muss_ti_rows_carry_phase_breakdowns() {
        let circuits = vec![generators::qft(12)];
        let report = run_with(&circuits, 2);
        for row in &report.rows {
            if row.compiler == "MUSS-TI" {
                let phases = row.phases.expect("MUSS-TI rows report phases");
                let total = phases.placement_ms
                    + phases.scheduling_ms
                    + phases.swap_insertion_ms
                    + phases.lowering_ms;
                assert!(total > 0.0, "phase breakdown must account for some time");
                assert!(
                    total <= row.wall_ms_mean * 1.5 + 0.5,
                    "phases ({total} ms) cannot dwarf the wall clock ({} ms)",
                    row.wall_ms_mean
                );
            } else {
                assert!(
                    row.phases.is_none(),
                    "{} has no phase structure",
                    row.compiler
                );
            }
        }
        let json = report.to_json();
        assert_eq!(json.matches("\"phases\"").count(), 1);
        assert!(json.contains("\"placement_ms\""));
        assert!(json.contains("\"swap_insertion_ms\""));
        assert!(json.contains("\"window_refreshes\""));
        assert!(json.contains("\"probe_skips\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn hot_path_counters_survive_averaging() {
        // qft(48)'s two-fold search converges back onto the trivial mapping,
        // so the probe early-exit must fire on every iteration (mean exactly
        // 1), and its cross-module traffic makes the swap-inserting final
        // pass consult (and refresh) the look-ahead window; both counters are
        // deterministic across iterations, so the means are exact.
        let circuits = vec![generators::qft(48)];
        let report = run_with(&circuits, 3);
        let row = report
            .rows
            .iter()
            .find(|r| r.compiler == "MUSS-TI")
            .expect("MUSS-TI row");
        let phases = row.phases.expect("MUSS-TI rows report phases");
        assert_eq!(phases.probe_skips, 1, "probe early-exit fires on qft(12)");
        assert!(
            phases.window_refreshes > 0,
            "swap-inserting final pass refreshes the look-ahead window"
        );
    }

    #[test]
    fn window_refreshes_is_a_per_compile_delta_not_a_cumulative_counter() {
        // `DependencyDag::window_refreshes()` is cumulative per DAG, so the
        // phases block only stays meaningful if every compile reports its own
        // count (dry passes + final pass). If a cumulative count ever leaked
        // through a reused DAG, the warm-session mean over three iterations
        // would exceed the single-compile value.
        let circuits = vec![generators::qft(48)];
        let refreshes = |report: &BenchReport| {
            report
                .rows
                .iter()
                .find(|r| r.compiler == "MUSS-TI")
                .and_then(|r| r.phases)
                .expect("MUSS-TI row reports phases")
                .window_refreshes
        };
        let one = refreshes(&run_with(&circuits, 1));
        let three = refreshes(&run_with(&circuits, 3));
        assert!(one > 0, "qft(48) refreshes the look-ahead window");
        assert_eq!(
            one, three,
            "per-compile refresh count must not grow across warm iterations"
        );
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_keys() {
        let circuits = vec![generators::ghz(8)];
        let report = run_with(&circuits, 1);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"circuit\"").count(), report.rows.len());
        assert!(json.contains("\"benchmark\": \"compile_time\""));
        assert!(json.contains("\"iterations\": 1"));
        // Braces balance (no raw braces appear in compiler/circuit names).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    fn gated_row(circuit: &str, compiler: &str, wall_ms: f64) -> BenchRow {
        BenchRow {
            circuit: circuit.into(),
            qubits: 48,
            two_qubit_gates: 1152,
            compiler: compiler.into(),
            wall_ms_mean: wall_ms,
            wall_ms_min: wall_ms,
            wall_ms_max: wall_ms,
            phases: None,
        }
    }

    fn gated_report(qft_ms: f64, ran_ms: f64) -> BenchReport {
        BenchReport {
            iterations: 1,
            rows: vec![
                gated_row("QFT_48", "QCCD-Murali et al.", 0.4),
                gated_row("QFT_48", "MUSS-TI", qft_ms),
                gated_row("QFT_96", "MUSS-TI", qft_ms),
                gated_row("RAN_128", "MUSS-TI", ran_ms),
            ],
            batch: vec![BatchThroughput {
                circuits: 1,
                threads: 2,
                runs: 1,
                wall_ms: 1.0,
                circuits_per_sec: 1000.0,
            }],
        }
    }

    #[test]
    fn gate_metrics_round_trip_through_json() {
        let report = gated_report(1.234, 7.5);
        assert_eq!(report.gate_metric(), Some(1.234));
        assert_eq!(report.gate_metric_for("RAN_128"), Some(7.5));
        let json = report.to_json();
        let parsed = parse_gate_metric(&json).expect("qft row is serialised");
        assert!((parsed - 1.234).abs() < 1e-9);
        let parsed = parse_gate_metric_for(&json, "RAN_128").expect("ran row is serialised");
        assert!((parsed - 7.5).abs() < 1e-9);
    }

    #[test]
    fn baseline_check_passes_within_ratio_and_fails_past_it() {
        let mut report = gated_report(1.9, 1.9);
        let baseline = report.to_json().replace("1.900", "1.000");
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.rows[1].wall_ms_mean = 2.1;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("bench-delta gate failed"), "{err}");
        assert!(err.contains("QFT_48"), "{err}");
        assert!(report
            .check_against_baseline("{\"results\": []}", 2.0)
            .is_err());
    }

    #[test]
    fn baseline_check_gates_the_ran_128_stress_workload_too() {
        // The PR 5 workload is gated independently: a QFT_48 within budget
        // does not excuse a RAN_128 regression.
        let mut report = gated_report(1.0, 1.9);
        let baseline = report.to_json().replace("1.900", "1.000");
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.rows[3].wall_ms_mean = 2.1;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("RAN_128"), "{err}");
        // A baseline lacking the RAN_128 row is rejected, not skipped.
        let qft_only = gated_report(1.0, 1.0);
        let mut stripped: Vec<String> = qft_only
            .to_json()
            .lines()
            .filter(|l| !l.contains("RAN_128"))
            .map(str::to_string)
            .collect();
        stripped.push(String::new());
        let err = report
            .check_against_baseline(&stripped.join("\n"), 2.0)
            .unwrap_err();
        assert!(err.contains("baseline report has no"), "{err}");
    }

    #[test]
    fn baseline_check_gates_the_qft_96_scaling_workload_too() {
        // The PR 9 placement workload is gated independently alongside
        // QFT_48 and RAN_128.
        let mut report = gated_report(1.0, 1.0);
        let baseline = report.to_json();
        assert!(report.check_against_baseline(&baseline, 2.0).is_ok());
        report.rows[2].wall_ms_mean = 2.1;
        let err = report.check_against_baseline(&baseline, 2.0).unwrap_err();
        assert!(err.contains("QFT_96"), "{err}");
    }
}
