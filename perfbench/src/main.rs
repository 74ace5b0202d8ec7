//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload and prints its metrics; the last stdout
//! line is the JSON result. `perfbench --print-references A..=B` prints
//! reference-table entries for seeds A through B instead.

use std::process::ExitCode;

use perfbench::workload::Workload;
use perfbench::{layers, timed, verify};

/// Worker threads of the experiment pool: the benchmark's machine model
/// is a 2-core box, whatever the host has.
const POOL_THREADS: &str = "2";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1\n       perfbench --print-references A..=B",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn parse_seed_range(s: &str) -> Option<Vec<u64>> {
    let (a, b) = s.split_once("..=")?;
    let (a, b) = (a.parse::<u64>().ok()?, b.parse::<u64>().ok()?);
    (a <= b).then(|| (a..=b).collect())
}

fn main() -> ExitCode {
    // Set before any thread exists; the pool reads it when it sizes itself.
    std::env::set_var("REPRO_THREADS", POOL_THREADS);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-references") {
        let Some(seeds) = argv.get(1).and_then(|s| parse_seed_range(s)) else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        verify::print_references(&seeds);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let duration = args.workload.default_duration();
    let outcome = if args.trace {
        let spans = layers::spans_path(args.workload, args.seed);
        layers::run(args.workload, args.seed, args.seconds, duration, &spans)
    } else {
        timed::run(args.workload, args.seed, args.seconds, duration, None)
    };
    println!(
        "perfbench {} seed={} trace={} threads={POOL_THREADS}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "  verify_fail_ratio = {} ({} of {} checks failed)",
        outcome.verify_fail_ratio(),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}
