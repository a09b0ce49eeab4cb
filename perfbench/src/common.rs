//! Pieces shared by the workloads: statistics, output checks, the staged
//! replay, the Fig. 6 baselines and the result record.

use std::collections::BTreeMap;
use std::fmt;
use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

use baselines::{DaiCompiler, MuraliCompiler};
use eml_qccd::{CompiledProgram, Compiler, ExecutionMetrics};
use experiments::fig6::{Fig6Column, Fig6Result};
use experiments::AppResult;
use ion_circuit::{Circuit, DependencyDag};
use muss_ti::{MussTiCompiler, MussTiContext, PhaseTimings};
use verify::VerifyReport;

use crate::trace::Tracer;

/// Latency percentiles are taken over blocks of at least this many
/// requests, so that at least ten samples lie beyond each block's p90.
pub const MIN_REQUESTS: usize = 100;

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 7;

/// Passes of the staged replay in a traced run (medians over them).
pub const REPLAY_PASSES: u64 = 3;

/// A traced run alternates at least this many traced and untraced passes.
pub const MIN_TRACED_PASSES: usize = 5;

/// Shuttle reduction the paper reports per Fig. 6 column.
pub const PAPER_REDUCTION_PCT: [(&str, f64); 3] =
    [("Small", 41.74), ("Medium", 73.38), ("Large", 59.82)];

/// Linear-interpolation percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Busy-waits for `delay` (the sensitivity self-test's injected cost; a
/// sleep would round to the scheduler's tick).
pub fn spin(delay: Duration) {
    if delay.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < delay {
        std::hint::spin_loop();
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The output gate: a program is ok when the verifier finds nothing and the
/// shuttle ops in its stream match the shuttle count its metrics report.
pub fn program_ok(report: &VerifyReport, program: &CompiledProgram) -> bool {
    let shuttle_ops = program.ops().iter().filter(|op| op.is_shuttle()).count();
    report.is_clean() && shuttle_ops == program.metrics().shuttle_count
}

/// A compiled program together with the verifier's report on it.
#[derive(Debug)]
pub struct Checked {
    pub program: CompiledProgram,
    pub report: VerifyReport,
}

/// The distinct outputs one input produced over a run, with how often each
/// came back. The compiler should return one output per input; the modal one
/// is the input's answer, and a request is ok only if it returned that
/// answer and the answer passes [`program_ok`].
#[derive(Debug)]
pub struct Tally<X> {
    variants: Vec<(Checked, X, u64)>,
}

impl<X> Default for Tally<X> {
    fn default() -> Self {
        Tally {
            variants: Vec::new(),
        }
    }
}

impl<X> Tally<X> {
    /// Records one output. A program equal to one seen before counts
    /// towards it; a new one is verified by `verify` and kept, with `extra`.
    /// The verifier is a pure function of circuit and program, so an equal
    /// program needs no second verification.
    pub fn record(
        &mut self,
        program: CompiledProgram,
        extra: X,
        verify: impl FnOnce(&CompiledProgram) -> VerifyReport,
    ) {
        let same = |c: &Checked| {
            c.program.ops() == program.ops() && c.program.metrics() == program.metrics()
        };
        match self.variants.iter_mut().find(|(c, _, _)| same(c)) {
            Some(v) => v.2 += 1,
            None => {
                let report = verify(&program);
                self.variants.push((Checked { program, report }, extra, 1));
            }
        }
    }

    /// The most frequent output (first seen on ties).
    pub fn modal(&self) -> Option<(&Checked, &X)> {
        let mut best: Option<&(Checked, X, u64)> = None;
        for v in &self.variants {
            if best.is_none_or(|b| v.2 > b.2) {
                best = Some(v);
            }
        }
        best.map(|(c, x, _)| (c, x))
    }

    fn modal_count(&self) -> u64 {
        self.variants.iter().map(|v| v.2).max().unwrap_or(0)
    }

    /// Requests that returned the modal output and passed every check.
    pub fn ok(&self) -> u64 {
        match self.modal() {
            Some((c, _)) if program_ok(&c.report, &c.program) => self.modal_count(),
            _ => 0,
        }
    }

    /// Requests whose output differed from the modal one.
    pub fn divergent(&self) -> u64 {
        self.variants.iter().map(|v| v.2).sum::<u64>() - self.modal_count()
    }

    /// Shuttle counts of the distinct outputs, for the run log.
    pub fn shuttle_variants(&self) -> Vec<(usize, u64)> {
        self.variants
            .iter()
            .map(|(c, _, n)| (c.program.metrics().shuttle_count, *n))
            .collect()
    }
}

/// Prints inputs whose outputs were not ok or varied, and returns the number
/// of ok requests.
pub fn summarise<X>(labels: &[&str], tallies: &[Tally<X>]) -> u64 {
    let mut ok = 0;
    for (label, tally) in labels.iter().zip(tallies) {
        ok += tally.ok();
        if let Some((c, _)) = tally.modal() {
            if !program_ok(&c.report, &c.program) {
                println!("  {label:<10} NOT OK: {}", c.report.summary());
            }
        }
        if tally.divergent() > 0 {
            println!(
                "  {label:<10} NOT OK: output varies between identical requests; (shuttles, requests) per distinct output: {:?}",
                tally.shuttle_variants()
            );
        }
    }
    ok
}

/// Sums of MUSS-TI's execution metrics over one pass of the inputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    pub shuttles: usize,
    pub exec_time_us: f64,
    pub neg_log10_fidelity: f64,
}

impl Quality {
    pub fn add(&mut self, m: &ExecutionMetrics) {
        self.shuttles += m.shuttle_count;
        self.exec_time_us += m.execution_time_us;
        self.neg_log10_fidelity -= m.log10_fidelity();
    }
}

/// Counts and timings gathered by a timed closed loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub latencies_ms: Vec<f64>,
    /// Circuits each request carries.
    pub circuits_per_request: u64,
    /// Requests per block: the smallest number of whole passes over the
    /// inputs that reaches [`MIN_REQUESTS`].
    pub block_len: usize,
    pub circuits: u64,
    pub ok: u64,
    pub failed: u64,
}

impl LoopStats {
    pub fn new(circuits_per_request: u64, pass_len: usize) -> Self {
        LoopStats {
            circuits_per_request,
            block_len: MIN_REQUESTS.div_ceil(pass_len) * pass_len,
            ..LoopStats::default()
        }
    }

    /// `true` once the loop has run `seconds` and filled at least one block.
    pub fn done(&self, started: Instant, seconds: Duration) -> bool {
        started.elapsed() >= seconds && self.latencies_ms.len() >= self.block_len
    }

    /// Consecutive blocks of `block_len` requests; a trailing partial block
    /// joins the one before it.
    fn blocks(&self) -> Vec<&[f64]> {
        let mut blocks: Vec<&[f64]> = self.latencies_ms.chunks(self.block_len).collect();
        if blocks.len() > 1 && blocks[blocks.len() - 1].len() < self.block_len {
            blocks.pop();
            let start = (blocks.len() - 1) * self.block_len;
            blocks.pop();
            blocks.push(&self.latencies_ms[start..]);
        }
        blocks
    }

    /// Median over blocks of `f(block)`: each block is a run in itself, so a
    /// burst of interference from other tenants of the host spoils one block
    /// rather than the whole figure.
    fn block_median(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        let per_block: Vec<f64> = self.blocks().into_iter().map(f).collect();
        median(&per_block)
    }
}

/// One metric of the final result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the harness verdict, the request counts and metrics.
#[derive(Debug, Default)]
pub struct RunResult {
    /// `false` when a harness cross-check failed: a generated input was
    /// rejected, the staged replay differed from the compile, or the spans
    /// did not account for the request time.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd<'a> {
    pub stats: &'a LoopStats,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub quality: Quality,
    pub reduction_pct: f64,
}

impl EndToEnd<'_> {
    pub fn report(&self, result: &mut RunResult) {
        let s = self.stats;
        println!(
            "timing: {} requests in {} blocks of at least {} (each block has at least {} samples beyond its p90); medians over blocks",
            s.latencies_ms.len(),
            s.blocks().len(),
            s.block_len,
            s.block_len / 10
        );
        result.attempted = s.circuits;
        result.failed = s.failed;
        result.push(
            "latency_ms_p50",
            s.block_median(|b| percentile(b, 0.5)),
            "ms",
        );
        result.push(
            "latency_ms_p90",
            s.block_median(|b| percentile(b, 0.9)),
            "ms",
        );
        let per_request = s.circuits_per_request as f64;
        result.push(
            "circuits_per_s",
            s.block_median(|b| b.len() as f64 * per_request / (b.iter().sum::<f64>() / 1e3)),
            "1/s",
        );
        result.push("setup_s", self.setup_s, "s");
        result.push("peak_rss_mb", self.peak_rss_mb, "MB");
        result.push("ok_ratio", s.ok as f64 / s.circuits.max(1) as f64, "ratio");
        result.push("shuttles", self.quality.shuttles as f64, "count");
        result.push("exec_time_ms", self.quality.exec_time_us / 1e3, "ms");
        result.push(
            "neg_log10_fidelity",
            self.quality.neg_log10_fidelity,
            "log10",
        );
        result.push("shuttle_reduction_pct", self.reduction_pct, "%");
    }
}

/// Condenses a program into the Fig. 6 row the paper's reduction uses.
pub fn app_result(app: &str, program: &CompiledProgram) -> AppResult {
    let m = program.metrics();
    AppResult {
        app: app.to_string(),
        compiler: program.compiler_name().to_string(),
        shuttles: m.shuttle_count,
        execution_time_us: m.execution_time_us,
        log10_fidelity: m.log10_fidelity(),
        fiber_gates: m.fiber_gates,
        compile_time_s: program.compile_time().as_secs_f64(),
        phases: None,
    }
}

/// One input of the Fig. 6 comparison: its column, app name, circuit, the
/// MUSS-TI program the workload produced and the qubit count the baseline
/// grids are sized for.
pub struct Fig6Input<'a> {
    pub column: &'static str,
    pub app: String,
    pub circuit: &'a Circuit,
    pub muss_ti: Option<&'a CompiledProgram>,
    pub grid_qubits: usize,
}

/// Compiles every input with the Dai and Murali baselines (spans
/// `baselines.compile` when tracing) and returns the paper's mean shuttle
/// reduction per column, in input order of the columns.
pub fn shuttle_reduction(inputs: &[Fig6Input<'_>], tr: &mut Tracer) -> Vec<(String, f64)> {
    let mut columns: Vec<Fig6Column> = Vec::new();
    let mut baselines: BTreeMap<usize, (DaiCompiler, MuraliCompiler)> = BTreeMap::new();
    for (req, input) in inputs.iter().enumerate() {
        let col = match columns.iter().position(|c| c.scale == input.column) {
            Some(i) => i,
            None => {
                columns.push(Fig6Column {
                    scale: input.column.to_string(),
                    results: Vec::new(),
                });
                columns.len() - 1
            }
        };
        let results = &mut columns[col].results;
        if let Some(program) = input.muss_ti {
            results.push(app_result(&input.app, program));
        }
        let (dai, murali) = baselines.entry(input.grid_qubits).or_insert_with(|| {
            (
                DaiCompiler::for_qubits(input.grid_qubits),
                MuraliCompiler::for_qubits(input.grid_qubits),
            )
        });
        let compilers: [&dyn Compiler; 2] = [&*dai, &*murali];
        for compiler in compilers {
            let span = tr.enter("baselines.compile", req as u64);
            let compiled = compiler.compile(input.circuit);
            tr.exit(span);
            match compiled {
                Ok(program) => results.push(app_result(&input.app, &program)),
                Err(e) => eprintln!("perfbench: {} on {}: {e}", compiler.name(), input.app),
            }
        }
    }
    Fig6Result { columns }.shuttle_reduction_per_scale()
}

/// Prints each column's reduction beside the paper's value and returns their
/// mean (the workload's `shuttle_reduction_pct`).
pub fn report_reduction(per_column: &[(String, f64)]) -> f64 {
    for (column, pct) in per_column {
        let paper = PAPER_REDUCTION_PCT
            .iter()
            .find(|(name, _)| name == column)
            .map_or("n/a".to_string(), |(_, v)| format!("{v:.2} %"));
        println!("shuttle reduction vs best of Dai/Murali, {column}: {pct:.2} % (paper: {paper})");
    }
    per_column.iter().map(|(_, p)| p).sum::<f64>() / per_column.len().max(1) as f64
}

/// Re-runs one compile through the typed stages `place` → `schedule` →
/// `lower` → `evaluate`, each in its own span, and returns whether the
/// replay reproduced `reference` exactly. `dag.build` times a
/// `DependencyDag::from_circuit` of the same circuit.
pub fn staged_replay(
    compiler: &MussTiCompiler,
    cx: &mut MussTiContext,
    circuit: &Circuit,
    reference: &CompiledProgram,
    tr: &mut Tracer,
    req: u64,
) -> bool {
    let span = tr.enter("dag.build", req);
    let dag = black_box(DependencyDag::from_circuit(black_box(circuit)));
    tr.exit(span);
    drop(dag);

    let span = tr.enter("muss_ti.place", req);
    let placement = compiler.place(cx, circuit);
    tr.exit(span);
    let placement = match placement {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: staged place failed on {}: {e}", circuit.name());
            return false;
        }
    };

    let span = tr.enter("muss_ti.schedule", req);
    let scheduled = compiler.schedule(cx, circuit, &placement);
    tr.exit(span);
    let scheduled = match scheduled {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "perfbench: staged schedule failed on {}: {e}",
                circuit.name()
            );
            return false;
        }
    };
    // The swap-insertion pass runs inside `schedule`, where only the
    // program's own clock sees it; it is recorded as the schedule span's tail.
    tr.record_tail(
        "muss_ti.swap_insertion",
        span,
        scheduled.swap_insertion_time,
    );

    let span = tr.enter("muss_ti.lower", req);
    let lowered = compiler.lower(circuit, &placement, &scheduled);
    tr.exit(span);

    let span = tr.enter("eml_qccd.evaluate", req);
    let program = compiler.evaluate(cx, circuit, lowered, Duration::ZERO);
    tr.exit(span);

    program.ops() == reference.ops() && program.metrics() == reference.metrics()
}

/// Median over passes of one span name's per-pass self time (0 when the
/// run recorded no such span).
pub fn layer_median(by_pass: &BTreeMap<(u64, &'static str), f64>, name: &str) -> f64 {
    let values: Vec<f64> = by_pass
        .iter()
        .filter(|((_, n), _)| *n == name)
        .map(|(_, v)| *v)
        .collect();
    median(&values)
}

/// Sum of the self times of `names` in each pass of `passes`.
fn per_pass_sums(
    by_pass: &BTreeMap<(u64, &'static str), f64>,
    passes: Range<u64>,
    names: &[&str],
) -> Vec<f64> {
    passes
        .map(|p| {
            names
                .iter()
                .map(|name| by_pass.get(&(p, *name)).copied().unwrap_or(0.0))
                .sum()
        })
        .collect()
}

/// The compiler's hot-path counters for one compile. Only the counters are
/// read from its result, never its times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub swaps: u64,
    pub window_refreshes: u64,
    pub probe_skips: u64,
}

impl Counters {
    pub fn new(swaps: usize, phases: &PhaseTimings) -> Self {
        Counters {
            swaps: swaps as u64,
            window_refreshes: phases.window_refreshes,
            probe_skips: phases.probe_skips,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.swaps += other.swaps;
        self.window_refreshes += other.window_refreshes;
        self.probe_skips += other.probe_skips;
    }
}

/// The traced run's check that spans account for the request time. Traced
/// and untraced passes alternate; each traced pass is compared with the
/// untraced pass just before it, so drift on the host cancels out.
#[derive(Debug)]
pub struct Accounting {
    /// Median over pass pairs of (request spans' self times, with the
    /// root's own share as `bench.unattributed`) / untraced pass time.
    accounted_ratio: f64,
    /// Median over pass pairs of traced / untraced pass time.
    traced_ratio: f64,
    pairs: usize,
}

impl Accounting {
    pub fn new(
        by_pass: &BTreeMap<(u64, &'static str), f64>,
        passes: Range<u64>,
        request_spans: &[&str],
        untraced_ms: &[f64],
        traced_ms: &[f64],
    ) -> Self {
        let accounted = per_pass_sums(by_pass, passes, request_spans);
        let ratios = |num: &[f64]| -> Vec<f64> {
            num.iter()
                .zip(untraced_ms)
                .map(|(n, u)| n / u.max(1e-9))
                .collect()
        };
        Accounting {
            accounted_ratio: median(&ratios(&accounted)),
            traced_ratio: median(&ratios(traced_ms)),
            pairs: accounted.len().min(untraced_ms.len()),
        }
    }

    pub fn within_tenth(&self) -> bool {
        (self.accounted_ratio - 1.0).abs() <= 0.1
    }

    fn overhead_pct(&self) -> f64 {
        (self.traced_ratio - 1.0) * 100.0
    }
}

impl fmt::Display for Accounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spans + unattributed = {:.3} x the untraced pass (median of {} pairs; must be within 0.1 of 1)",
            self.accounted_ratio, self.pairs
        )
    }
}

/// The compile layers every traced workload reports: the compile span, the
/// staged replay's stages (over `replay` passes), the overlap saving and the
/// counters.
pub fn push_compile_layers(
    result: &mut RunResult,
    by_pass: &BTreeMap<(u64, &'static str), f64>,
    compile_ms: f64,
    replay: Range<u64>,
    counters: &Counters,
) {
    const STAGES: [&str; 5] = [
        "muss_ti.place",
        "muss_ti.schedule",
        "muss_ti.swap_insertion",
        "muss_ti.lower",
        "eml_qccd.evaluate",
    ];
    let staged_ms = median(&per_pass_sums(by_pass, replay, &STAGES));
    result.push("dag.build_ms", layer_median(by_pass, "dag.build"), "ms");
    result.push("muss_ti.compile_ms", compile_ms, "ms");
    result.push(
        "muss_ti.place_ms",
        layer_median(by_pass, "muss_ti.place"),
        "ms",
    );
    result.push(
        "muss_ti.schedule_ms",
        layer_median(by_pass, "muss_ti.schedule"),
        "ms",
    );
    result.push(
        "muss_ti.swap_insertion_ms",
        layer_median(by_pass, "muss_ti.swap_insertion"),
        "ms",
    );
    result.push(
        "muss_ti.lower_ms",
        layer_median(by_pass, "muss_ti.lower"),
        "ms",
    );
    result.push(
        "eml_qccd.evaluate_ms",
        layer_median(by_pass, "eml_qccd.evaluate"),
        "ms",
    );
    result.push("muss_ti.overlap_saving_ms", staged_ms - compile_ms, "ms");
    result.push("muss_ti.inserted_swaps", counters.swaps as f64, "count");
    result.push(
        "muss_ti.window_refreshes",
        counters.window_refreshes as f64,
        "count",
    );
    result.push("muss_ti.probe_skips", counters.probe_skips as f64, "count");
}

/// The verifier's layer: time per pass and the answers' verdicts.
pub fn push_verify_layers(
    result: &mut RunResult,
    by_pass: &BTreeMap<(u64, &'static str), f64>,
    answers: &[&Checked],
) {
    let violations: usize = answers.iter().map(|c| c.report.violations.len()).sum();
    let failed = answers.iter().filter(|c| !c.report.is_clean()).count();
    result.push(
        "verify.verify_ms",
        layer_median(by_pass, "verify.verify"),
        "ms",
    );
    result.push("verify.violations", violations as f64, "count");
    result.push("verify.failed", failed as f64, "count");
}

/// Baselines, the unattributed share of the request spans, and the
/// tracer's own overhead.
pub fn push_trailer(
    result: &mut RunResult,
    by_pass: &BTreeMap<(u64, &'static str), f64>,
    accounting: &Accounting,
) {
    result.push(
        "baselines.compile_ms",
        layer_median(by_pass, "baselines.compile"),
        "ms",
    );
    result.push(
        "bench.unattributed_ms",
        layer_median(by_pass, "bench.request"),
        "ms",
    );
    result.push("trace.overhead_pct", accounting.overhead_pct(), "%");
}
