//! The `batch_generated` workload: one client sends a seeded batch of 56
//! generated circuits per request, compiled by `compile_batch_with_threads`
//! on two workers with the overlapped SABRE driver off. Each returned
//! program is verified after the request's clock stops.

use std::hint::black_box;
use std::time::Instant;

use eml_qccd::{compile_batch_with_threads, CompileError, CompiledProgram, DeviceConfig};
use ion_circuit::{qasm, Circuit};
use muss_ti::{MussTiCompiler, MussTiOptions};
use verify::{DeviceModel, ScheduleVerifier};

use crate::common::*;
use crate::inputs::{digest, generated_batch, Rng};
use crate::trace::Tracer;
use crate::Args;

/// Batch workers per request.
const THREADS: usize = 2;

/// The largest circuit the generator draws; one device of this size serves
/// the whole batch.
const MAX_QUBITS: usize = 128;

struct Server {
    compiler: MussTiCompiler,
    verifier: ScheduleVerifier,
}

fn set_up(circuits: &[Circuit], tr: &mut Tracer) -> Server {
    // The batch workers already use both cores, so the per-compile overlapped
    // driver is off, as in the repository's batch-throughput measurement.
    let compiler = MussTiCompiler::new(
        DeviceConfig::for_qubits(MAX_QUBITS).build(),
        MussTiOptions::default().with_parallel_sabre_threshold(usize::MAX),
    );
    let verifier = ScheduleVerifier::new(DeviceModel::from(compiler.device()));
    black_box(compile(&compiler, circuits, tr, 0));
    Server { compiler, verifier }
}

/// One request: the whole batch through the pipeline.
fn compile(
    compiler: &MussTiCompiler,
    circuits: &[Circuit],
    tr: &mut Tracer,
    req: u64,
) -> Vec<Result<CompiledProgram, CompileError>> {
    let root = tr.enter("bench.request", req);
    let span = tr.enter("pipeline.batch", req);
    let programs = compile_batch_with_threads(compiler, black_box(circuits), THREADS);
    tr.exit(span);
    tr.exit(root);
    programs
}

struct Run {
    circuits: Vec<Circuit>,
    labels: Vec<String>,
    server: Option<Server>,
    tallies: Vec<Tally<()>>,
    stats: LoopStats,
}

impl Run {
    fn new(args: &Args) -> Self {
        let circuits = generated_batch(&mut Rng::new(args.seed));
        let texts: Vec<String> = circuits.iter().map(qasm::to_qasm).collect();
        let gates: usize = circuits.iter().map(Circuit::two_qubit_gate_count).sum();
        println!(
            "inputs: {} circuits, {gates} two-qubit gates, digest {:016x}",
            circuits.len(),
            digest(texts.iter().map(String::as_bytes))
        );
        Run {
            stats: LoopStats::new(circuits.len() as u64, 1),
            labels: circuits.iter().map(|c| c.name().to_string()).collect(),
            tallies: circuits.iter().map(|_| Tally::default()).collect(),
            circuits,
            server: None,
        }
    }

    /// One timed request, then the untimed checks of its programs.
    fn request(&mut self, tr: &mut Tracer) {
        let server = self.server.as_ref().expect("set up before use");
        let req = self.stats.latencies_ms.len() as u64;
        let start = Instant::now();
        let programs = compile(&server.compiler, &self.circuits, tr, req);
        self.stats
            .latencies_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        for ((program, circuit), tally) in programs
            .into_iter()
            .zip(&self.circuits)
            .zip(&mut self.tallies)
        {
            self.stats.circuits += 1;
            match program {
                Ok(program) => tally.record(program, (), |p| server.verifier.verify(circuit, p)),
                Err(e) => {
                    self.stats.failed += 1;
                    eprintln!("perfbench: {}: compile failed: {e}", circuit.name());
                }
            }
        }
    }

    fn summarise(&mut self) {
        let labels: Vec<&str> = self.labels.iter().map(String::as_str).collect();
        self.stats.ok = summarise(&labels, &self.tallies);
    }

    /// The answer for every circuit that compiled.
    fn answers(&self) -> Vec<(usize, &Checked)> {
        self.tallies
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.modal().map(|(c, _)| (i, c)))
            .collect()
    }

    /// The Fig. 6 reduction over the batch (one column), printed.
    fn reduction(&self, tr: &mut Tracer) -> f64 {
        let inputs: Vec<Fig6Input<'_>> = self
            .answers()
            .into_iter()
            .map(|(i, checked)| Fig6Input {
                column: "Generated",
                // Sizes are unique per family, but index the name anyway so
                // apps never merge in the per-app reduction.
                app: format!("{i}:{}", self.labels[i]),
                circuit: &self.circuits[i],
                muss_ti: Some(&checked.program),
                grid_qubits: MAX_QUBITS,
            })
            .collect();
        report_reduction(&shuttle_reduction(&inputs, tr))
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> RunResult {
    let mut run = Run::new(args);
    let mut off = Tracer::new(false);

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        run.server = None;
        let start = Instant::now();
        run.server = Some(set_up(&run.circuits, &mut off));
        setups.push(start.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    while !run.stats.done(start, args.seconds) {
        run.request(&mut off);
    }
    let peak = peak_rss_mb();

    run.summarise();
    let mut quality = Quality::default();
    for (_, checked) in run.answers() {
        quality.add(checked.program.metrics());
    }
    let reduction = run.reduction(&mut off);
    println!(
        "requests: {} batches, {} circuits, ok {}, compile failures {}",
        run.stats.latencies_ms.len(),
        run.stats.circuits,
        run.stats.ok,
        run.stats.failed
    );

    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    EndToEnd {
        stats: &run.stats,
        setup_s: median(&setups),
        peak_rss_mb: peak,
        quality,
        reduction_pct: reduction,
    }
    .report(&mut result);
    result
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &Args) -> (RunResult, Tracer) {
    let mut run = Run::new(args);
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    run.server = Some(set_up(&run.circuits, &mut off));

    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut pass = 0u64;
    let start = Instant::now();
    while start.elapsed() < args.seconds || traced_ms.len() < MIN_TRACED_PASSES {
        for traced in [false, true] {
            let tr = if traced { &mut on } else { &mut off };
            tr.set_pass(pass);
            run.request(tr);
            let ms = *run.stats.latencies_ms.last().expect("a request ran");
            if traced {
                traced_ms.push(ms);
                pass += 1;
            } else {
                untraced_ms.push(ms);
            }
        }
    }
    let request_passes = pass;
    run.summarise();

    // Sequential compiles of the batch in one warm context: the one-worker
    // reference for the pipeline's speed-up, and the source of the counters.
    let server = run.server.as_ref().expect("set up before use");
    let mut cx = server.compiler.context();
    let mut counters = Counters::default();
    for rep in 0..REPLAY_PASSES {
        on.set_pass(pass);
        pass += 1;
        for (req, circuit) in run.circuits.iter().enumerate() {
            let span = on.enter("muss_ti.compile", req as u64);
            let compiled = server.compiler.compile_with_phases_in(&mut cx, circuit);
            on.exit(span);
            if let (0, Ok((_, swaps, phases))) = (rep, &compiled) {
                counters.add(&Counters::new(*swaps, phases));
            }
            drop(black_box(compiled));
        }
    }

    let replay_start = pass;
    let mut replay_identical = true;
    for _ in 0..REPLAY_PASSES {
        on.set_pass(pass);
        pass += 1;
        for (i, checked) in run.answers() {
            let circuit = &run.circuits[i];
            replay_identical &= staged_replay(
                &server.compiler,
                &mut cx,
                circuit,
                &checked.program,
                &mut on,
                i as u64,
            );
            let span = on.enter("verify.verify", i as u64);
            black_box(server.verifier.verify(circuit, &checked.program));
            on.exit(span);
        }
    }
    on.set_pass(pass);
    run.reduction(&mut on);

    let by_pass = on.self_ms_by_pass();
    let batch_ms = layer_median(&by_pass, "pipeline.batch");
    let compile_ms = layer_median(&by_pass, "muss_ti.compile");
    let accounting = Accounting::new(
        &by_pass,
        0..request_passes,
        &["pipeline.batch", "bench.request"],
        &untraced_ms,
        &traced_ms,
    );
    println!(
        "trace: {} spans; {accounting}; staged replay op-identical: {replay_identical}",
        on.len()
    );

    let mut result = RunResult {
        correct: replay_identical && accounting.within_tenth(),
        attempted: run.stats.circuits,
        failed: run.stats.failed,
        metrics: Vec::new(),
    };
    // The batch bypasses the QASM front-end.
    result.push("qasm.parse_ms", 0.0, "ms");
    result.push("qasm.parse_mb_per_s", 0.0, "MB/s");
    result.push("qasm.bytes", 0.0, "bytes");
    result.push("circuit.validate_ms", 0.0, "ms");
    push_compile_layers(
        &mut result,
        &by_pass,
        compile_ms,
        replay_start..replay_start + REPLAY_PASSES,
        &counters,
    );
    result.push("pipeline.batch_ms", batch_ms, "ms");
    result.push(
        "pipeline.worker_speedup",
        compile_ms / batch_ms.max(1e-9),
        "x",
    );
    let answers: Vec<&Checked> = run.answers().into_iter().map(|(_, c)| c).collect();
    push_verify_layers(&mut result, &by_pass, &answers);
    push_trailer(&mut result, &by_pass, &accounting);
    (result, on)
}
