//! `moist_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>]`: runs one workload and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when a
//! correctness check fails or the tier returns an error it should not.

use moist_perfbench::workload::Spec;
use moist_perfbench::{run, Args};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Spec::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: the tier failed: {e}", args.spec.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} ({} run)",
        args.spec.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    out.metrics.print();
    if !args.trace {
        println!("-- latencies and op types of this workload (no bound):");
        out.extra.print();
    }
    println!("-- open-loop latency:");
    for line in &out.detail {
        println!("{line}");
    }
    println!("-- checks:");
    for line in &out.checked {
        println!("{line}");
    }
    if let Some(path) = &out.span_file {
        println!("spans written to {}", path.display());
    }
    for f in &out.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
