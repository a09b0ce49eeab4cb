//! Benchmark of the MUSS-TI compiler stack, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--inject-delay-us <us>] [--trace-out <path>]
//! ```
//!
//! Workloads (each a closed loop with one client):
//!
//! * `paper_large_qasm` — the Fig. 6 256–299-qubit apps as QASM text:
//!   parse → validate → warm-session MUSS-TI compile → verify.
//! * `paper_small_medium_qasm` — the Fig. 6 30–128-qubit apps, same path.
//! * `batch_generated` — a seeded batch of 56 generated circuits per request
//!   through `compile_batch_with_threads` on two workers.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports per-layer self times from spans taken around the public calls
//! and writes the spans as JSON lines to `--trace-out` (default
//! `perfbench/out/trace-<workload>-<seed>.jsonl`). The last stdout line is
//! the JSON result. `--inject-delay-us` spins before every `qasm::parse`
//! call, for the sensitivity self-test.

mod batch;
mod common;
mod inputs;
mod paper;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 3] = [
    "paper_large_qasm",
    "paper_small_medium_qasm",
    "batch_generated",
];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub delay: Duration,
    pub trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut delay = Duration::ZERO;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--inject-delay-us" => {
                let us: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--inject-delay-us: {e}"))?;
                delay = Duration::from_micros(us);
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        delay,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} trace {} ({} cores available)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let result = if args.trace {
        let (result, tracer) = match args.workload.as_str() {
            "batch_generated" => batch::run_traced(&args),
            _ => paper::run_traced(&args),
        };
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench/out/trace-{}-{}.jsonl",
                args.workload, args.seed
            ))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
        result
    } else {
        match args.workload.as_str() {
            "batch_generated" => batch::run(&args),
            _ => paper::run(&args),
        }
    };
    for m in &result.metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
