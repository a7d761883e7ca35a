//! `perfbench --workload <recommend|serve-open|ingest-window|all>
//!  --seed <n> --seconds <s> --trace <0|1> [--size m|tiny]`
//!
//! Prints one `<workload> <metric> <value> <unit>` line per metric, then
//! the result object of the workload as the last line. Exits non-zero
//! when a correctness gate fails or an operation fails.

use std::process::ExitCode;

use perfbench::inputs::Size;
use perfbench::report::{END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::M,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "m" => Size::M,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => perfbench::WORKLOADS.to_vec(),
        w if perfbench::WORKLOADS.contains(&w) => vec![w],
        w => {
            eprintln!("error: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    for w in workloads {
        let mut r =
            perfbench::run(w, args.size, args.seed, args.seconds, args.trace);
        let json = r.result_json(names);
        print!("{}", r.lines(w));
        println!("{json}");
        ok &= r.passed();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
