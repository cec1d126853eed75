//! NSPS regression gate.
//!
//! Compares two `BENCH_*.json` files produced by `reproduce
//! --emit-metrics` and exits nonzero when any configuration's
//! steady-state NSPS worsened beyond the threshold:
//!
//! ```text
//! cargo run --release -p pic-bench --bin regress -- \
//!     BENCH_baseline.json BENCH_candidate.json [--threshold 0.10]
//! ```
//!
//! NSPS is time per particle-step, so *lower is better*; the default
//! threshold fails a >10% slowdown. The candidate file is also gated on
//! its own: every SoA `float` `soa-fast` Analytical ÷ Precalculated NSPS
//! pair in it must stay within `ANALYTICAL_RATIO_BOUND` (2.0×; both rows
//! come from the one process that wrote the file). Exit codes: 0 = no
//! regression, 1 = regression or ratio over its bound, 2 = usage or I/O
//! error.

use pic_telemetry::{compare, read_records};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: regress <baseline.json> <candidate.json> [--threshold <fraction>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut threshold = 0.10f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = match it.next().map(|v| v.parse::<f64>()) {
                    Some(Ok(t)) if t >= 0.0 => t,
                    _ => {
                        eprintln!("--threshold requires a non-negative fraction\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => files.push(other.to_string()),
        }
    }
    let [baseline_path, candidate_path] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let load = |p: &str| match read_records(Path::new(p)) {
        Ok(r) if r.is_empty() => {
            eprintln!("{p}: no records");
            None
        }
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("{p}: {e}");
            None
        }
    };
    let (Some(baseline), Some(candidate)) = (load(baseline_path), load(candidate_path)) else {
        return ExitCode::from(2);
    };

    let report = compare(&baseline, &candidate, threshold);
    print!("{}", report.render());
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
