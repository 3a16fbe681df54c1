//! Benchmark command line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostic lines, then the result as one JSON object on the last
//! line of standard output. Exits non-zero, printing no result, when the
//! arguments are invalid or a workload cannot be set up.

use std::process::ExitCode;

use perfbench::{run, Options};

fn parse() -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => o.workload = value,
            "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let summary = match parse().and_then(|o| run(&o)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &summary.log {
        println!("# {line}");
    }
    for m in &summary.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", summary.json());
    ExitCode::SUCCESS
}
