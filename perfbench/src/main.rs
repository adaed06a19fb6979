//! The repository's benchmark: one command runs one named workload
//! against the object service or the model checker, checks its
//! outputs, and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_pipelined --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics, and which
//! per-layer metric should move which end-to-end one.

mod cluster;
mod explore;
mod guard;
mod procfs;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;

use std::io::Write;
use std::process::ExitCode;

use report::Report;

/// The command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measuring time, in seconds.
    pub seconds: u64,
    /// Per-layer metrics (a traced run) instead of end-to-end ones.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["serve_pipelined", "cluster_migrate", "explore"];

const USAGE: &str = "usage: perfbench --workload serve_pipelined|cluster_migrate|explore \
--seed N --seconds 1..60 --trace 0|1";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => workload = Some(val),
            "--workload" => return Err(format!("unknown workload {val}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Ends the run without a result: set-up failed, so nothing was
/// measured. Exits non-zero at once, without joining any thread.
pub fn abort(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    std::process::exit(1);
}

/// Prints the result line (and, for a traced run, writes the spans)
/// and ends the process. Threads still blocked inside the program
/// after a stall are not joined: the process exit ends them.
pub fn finish(mut report: Report, args: &Args) -> ! {
    if args.trace {
        let (spans, dropped) = spans::take();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}.trace.json", args.workload);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::render(&spans, dropped)));
        match written {
            Ok(()) => eprintln!(
                "spans: {} written to {path}, {dropped} more counted",
                spans.len()
            ),
            Err(e) => eprintln!("spans: could not write {path}: {e}"),
        }
    }
    let line = report.render(args.trace);
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
    std::process::exit(0);
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} CPUs, loopback TCP",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = match args.workload.as_str() {
        "serve_pipelined" => serve::run(&args),
        "cluster_migrate" => cluster::run(&args),
        _ => explore::run(&args),
    };
    finish(report, &args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(argv("--workload explore --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("explore", 7, 10, true)
        );
        assert!(parse(argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse(argv("--workload explore --seconds 1")).is_err());
        assert!(parse(argv("--workload explore --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
