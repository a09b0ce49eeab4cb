//! The two QASM workloads: Fig. 6 applications sent as OpenQASM text through
//! parse → validate → warm-session MUSS-TI compile → verify, one client in a
//! closed loop.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use eml_qccd::DeviceConfig;
use ion_circuit::generators::{BenchmarkApp, BenchmarkScale};
use ion_circuit::{qasm, Circuit};
use muss_ti::{MussTiCompiler, MussTiContext, MussTiOptions};
use verify::{DeviceModel, ScheduleVerifier};

use crate::common::*;
use crate::inputs::{digest, paper_apps, PaperApp, Rng};
use crate::trace::Tracer;
use crate::Args;

/// One device size the server compiles for: compiler, warm context, verifier.
struct Lane {
    compiler: MussTiCompiler,
    cx: MussTiContext,
    verifier: ScheduleVerifier,
}

/// The serving side: one lane per application width in the suite.
type Server = BTreeMap<usize, Lane>;

/// Builds the server and warms every lane with one untimed pass.
fn set_up(apps: &[PaperApp], tr: &mut Tracer) -> Server {
    let mut server = Server::new();
    for app in apps {
        let n = BenchmarkApp::from_label(app.label)
            .expect("suite labels are valid")
            .num_qubits();
        server.entry(n).or_insert_with(|| {
            let compiler = MussTiCompiler::new(
                DeviceConfig::for_qubits(n).build(),
                MussTiOptions::default(),
            );
            let cx = compiler.context();
            let verifier = ScheduleVerifier::new(DeviceModel::from(compiler.device()));
            Lane {
                compiler,
                cx,
                verifier,
            }
        });
    }
    for (i, app) in apps.iter().enumerate() {
        let _ = black_box(serve(&mut server, &app.qasm, Duration::ZERO, tr, i as u64));
    }
    server
}

/// Why a request produced no program.
enum Fault {
    /// The generated input was rejected before compiling: a harness bug.
    Input(String),
    /// The compiler returned an error.
    Compile(String),
}

/// Serves one request. `delay` is spun before the parse (the sensitivity
/// self-test's injection site).
fn serve(
    server: &mut Server,
    text: &str,
    delay: Duration,
    tr: &mut Tracer,
    req: u64,
) -> Result<(Checked, Counters), Fault> {
    let root = tr.enter("bench.request", req);
    let served = serve_inner(server, text, delay, tr, req);
    tr.exit(root);
    served
}

fn serve_inner(
    server: &mut Server,
    text: &str,
    delay: Duration,
    tr: &mut Tracer,
    req: u64,
) -> Result<(Checked, Counters), Fault> {
    spin(delay);
    let span = tr.enter("qasm.parse", req);
    let parsed = qasm::parse(black_box(text));
    tr.exit(span);
    let circuit = parsed.map_err(|e| Fault::Input(format!("parse: {}", e.first())))?;

    let span = tr.enter("circuit.validate", req);
    let valid = circuit.validate();
    tr.exit(span);
    valid.map_err(|e| Fault::Input(format!("validate: {e}")))?;

    let n = circuit.num_qubits();
    let lane = server
        .get_mut(&n)
        .ok_or_else(|| Fault::Input(format!("no device for {n} qubits")))?;
    let span = tr.enter("muss_ti.compile", req);
    let compiled = lane.compiler.compile_with_phases_in(&mut lane.cx, &circuit);
    tr.exit(span);
    let (program, swaps, phases) = compiled.map_err(|e| Fault::Compile(e.to_string()))?;

    let span = tr.enter("verify.verify", req);
    let report = lane.verifier.verify(&circuit, &program);
    tr.exit(span);
    Ok((Checked { program, report }, Counters::new(swaps, &phases)))
}

/// A workload's inputs and everything its requests returned.
struct Run {
    apps: Vec<PaperApp>,
    server: Server,
    tallies: Vec<Tally<Counters>>,
    /// Latencies per app, for the per-app rows of the run log.
    app_ms: Vec<Vec<f64>>,
    stats: LoopStats,
    /// `false` once a generated input was rejected before compiling.
    inputs_ok: bool,
    order: Rng,
}

impl Run {
    fn new(args: &Args) -> Self {
        let mut rng = Rng::new(args.seed);
        let scales = match args.workload.as_str() {
            "paper_large_qasm" => vec![BenchmarkScale::Large],
            _ => vec![BenchmarkScale::Small, BenchmarkScale::Medium],
        };
        let apps = paper_apps(&scales, &mut rng);
        let bytes: usize = apps.iter().map(|a| a.qasm.len()).sum();
        println!(
            "inputs: {} apps, {bytes} bytes of QASM, digest {:016x}",
            apps.len(),
            digest(apps.iter().map(|a| a.qasm.as_bytes()))
        );
        Run {
            stats: LoopStats::new(1, apps.len()),
            tallies: apps.iter().map(|_| Tally::default()).collect(),
            app_ms: apps.iter().map(|_| Vec::new()).collect(),
            server: Server::new(),
            apps,

            inputs_ok: true,
            order: rng,
        }
    }

    /// Sends every app once, in a seeded order, timing each request.
    fn pass(&mut self, delay: Duration, tr: &mut Tracer) {
        let mut indices: Vec<usize> = (0..self.apps.len()).collect();
        self.order.shuffle(&mut indices);
        for i in indices {
            let req = self.stats.circuits;
            let start = Instant::now();
            let served = serve(&mut self.server, &self.apps[i].qasm, delay, tr, req);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            self.stats.latencies_ms.push(ms);
            self.app_ms[i].push(ms);
            self.stats.circuits += 1;
            match served {
                Ok((Checked { program, report }, counters)) => {
                    self.tallies[i].record(program, counters, |_| report)
                }
                Err(Fault::Compile(e)) => {
                    self.stats.failed += 1;
                    eprintln!("perfbench: {}: compile failed: {e}", self.apps[i].label);
                }
                Err(Fault::Input(e)) => {
                    self.stats.failed += 1;
                    self.inputs_ok = false;
                    eprintln!("perfbench: {}: {e}", self.apps[i].label);
                }
            }
        }
    }

    /// Counts ok requests, prints each app's latency and the apps that were
    /// not ok.
    fn summarise(&mut self) {
        for (app, ms) in self.apps.iter().zip(&self.app_ms) {
            println!(
                "  {:<10} latency p50 {:8.3} ms  p90 {:8.3} ms  ({} requests)",
                app.label,
                percentile(ms, 0.5),
                percentile(ms, 0.9),
                ms.len()
            );
        }
        let labels: Vec<&str> = self.apps.iter().map(|a| a.label).collect();
        self.stats.ok = summarise(&labels, &self.tallies);
    }

    /// The Fig. 6 reduction per column, printed beside the paper's values;
    /// returns their mean.
    fn reduction(&self, tr: &mut Tracer) -> f64 {
        let answers = answers(&self.apps, &self.tallies);
        let inputs: Vec<Fig6Input<'_>> = answers
            .iter()
            .map(|(i, circuit, checked, _)| Fig6Input {
                column: column_name(self.apps[*i].scale),
                app: self.apps[*i].label.to_string(),
                circuit,
                muss_ti: Some(&checked.program),
                grid_qubits: circuit.num_qubits(),
            })
            .collect();
        report_reduction(&shuttle_reduction(&inputs, tr))
    }
}

/// The parsed circuit and answer of every app that compiled.
fn answers<'a>(
    apps: &[PaperApp],
    tallies: &'a [Tally<Counters>],
) -> Vec<(usize, Circuit, &'a Checked, Counters)> {
    apps.iter()
        .zip(tallies)
        .enumerate()
        .filter_map(|(i, (app, tally))| {
            let (checked, counters) = tally.modal()?;
            let circuit = qasm::parse(&app.qasm).ok()?;
            Some((i, circuit, checked, *counters))
        })
        .collect()
}

fn column_name(scale: BenchmarkScale) -> &'static str {
    match scale {
        BenchmarkScale::Small => "Small",
        BenchmarkScale::Medium => "Medium",
        BenchmarkScale::Large => "Large",
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> RunResult {
    let mut run = Run::new(args);
    let mut off = Tracer::new(false);

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        run.server.clear();
        let start = Instant::now();
        run.server = set_up(&run.apps, &mut off);
        setups.push(start.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    while !run.stats.done(start, args.seconds) {
        run.pass(args.delay, &mut off);
    }
    let peak = peak_rss_mb();

    run.summarise();
    let mut quality = Quality::default();
    for (_, _, checked, _) in answers(&run.apps, &run.tallies) {
        quality.add(checked.program.metrics());
    }
    let reduction = run.reduction(&mut off);
    println!(
        "requests: {}, ok {}, compile failures {}",
        run.stats.circuits, run.stats.ok, run.stats.failed
    );

    let mut result = RunResult {
        correct: run.inputs_ok,
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

/// Span names of one request's tree: their self times add up to the
/// request's traced time.
const REQUEST_SPANS: [&str; 5] = [
    "qasm.parse",
    "circuit.validate",
    "muss_ti.compile",
    "verify.verify",
    "bench.request",
];

/// The traced run: per-layer metrics.
pub fn run_traced(args: &Args) -> (RunResult, Tracer) {
    let mut run = Run::new(args);
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    run.server = set_up(&run.apps, &mut off);

    // Untraced and traced passes alternate, so drift on the host hits both
    // equally; their difference is the tracer's overhead.
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut pass = 0u64;
    let start = Instant::now();
    while start.elapsed() < args.seconds || traced_ms.len() < MIN_TRACED_PASSES {
        for traced in [false, true] {
            let before = run.stats.latencies_ms.len();
            let tr = if traced { &mut on } else { &mut off };
            tr.set_pass(pass);
            run.pass(args.delay, tr);
            let pass_ms: f64 = run.stats.latencies_ms[before..].iter().sum();
            if traced {
                traced_ms.push(pass_ms);
                pass += 1;
            } else {
                untraced_ms.push(pass_ms);
            }
        }
    }
    let request_passes = pass;
    run.summarise();

    // Staged replay of each app's answer: the compile span broken down by
    // layer, and a check that the stages reproduce the compile exactly.
    let answers = answers(&run.apps, &run.tallies);
    let mut replay_identical = true;
    for _ in 0..REPLAY_PASSES {
        on.set_pass(pass);
        pass += 1;
        for (i, circuit, checked, _) in &answers {
            let lane = run
                .server
                .get_mut(&circuit.num_qubits())
                .expect("every served app has a lane");
            replay_identical &= staged_replay(
                &lane.compiler,
                &mut lane.cx,
                circuit,
                &checked.program,
                &mut on,
                *i as u64,
            );
        }
    }
    on.set_pass(pass);
    run.reduction(&mut on);

    let mut counters = Counters::default();
    let mut outputs = Vec::new();
    for (_, _, checked, c) in &answers {
        counters.add(c);
        outputs.push(*checked);
    }

    let by_pass = on.self_ms_by_pass();
    let bytes: f64 = run.apps.iter().map(|a| a.qasm.len() as f64).sum();
    let parse_ms = layer_median(&by_pass, "qasm.parse");
    let accounting = Accounting::new(
        &by_pass,
        0..request_passes,
        &REQUEST_SPANS,
        &untraced_ms,
        &traced_ms,
    );
    println!(
        "trace: {} spans; {accounting}; staged replay op-identical: {replay_identical}",
        on.len()
    );

    let mut result = RunResult {
        correct: run.inputs_ok && replay_identical && accounting.within_tenth(),
        attempted: run.stats.circuits,
        failed: run.stats.failed,
        metrics: Vec::new(),
    };
    result.push("qasm.parse_ms", parse_ms, "ms");
    result.push(
        "qasm.parse_mb_per_s",
        bytes / 1e6 / (parse_ms / 1e3).max(1e-12),
        "MB/s",
    );
    result.push("qasm.bytes", bytes, "bytes");
    result.push(
        "circuit.validate_ms",
        layer_median(&by_pass, "circuit.validate"),
        "ms",
    );
    let compile_ms = layer_median(&by_pass, "muss_ti.compile");
    push_compile_layers(
        &mut result,
        &by_pass,
        compile_ms,
        request_passes..request_passes + REPLAY_PASSES,
        &counters,
    );
    result.push("pipeline.batch_ms", 0.0, "ms");
    result.push("pipeline.worker_speedup", 0.0, "x");
    push_verify_layers(&mut result, &by_pass, &outputs);
    push_trailer(&mut result, &by_pass, &accounting);
    (result, on)
}
