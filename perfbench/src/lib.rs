//! The repository benchmark: three workloads over the `ScaleTier::M`
//! graph, an untraced run for end-to-end metrics and a traced run that
//! times the program's layers from outside, through public functions.
//! See `README.md` in this directory.

pub mod ingest;
pub mod inputs;
pub mod recommend;
pub mod report;
pub mod serve_open;
pub mod stages;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["recommend", "serve-open", "ingest-window"];

/// Runs one workload and returns its report.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(
    workload: &str,
    size: inputs::Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> report::Report {
    let mut r = match workload {
        "recommend" => recommend::run(size, seed, seconds, trace),
        "serve-open" => serve_open::run(size, seed, seconds, trace),
        "ingest-window" => ingest::run(size, seed, seconds, trace),
        other => panic!("unknown workload {other}"),
    };
    r.put(
        "failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    r
}
