//! The dial-market benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|analyze|scenario|live_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; every output is checked. Human
//! readable lines go to stdout first, the last stdout line is the result
//! object. The exit code is 0 only when every check passed.

mod workload;

use dial_perfbench::report::{self, Report};
use dial_perfbench::stats::failure_ratio;
use std::path::PathBuf;

/// Everything a workload needs to know about this run.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the measured phase of a pass should last.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Pool width, engine threads and the cap on client threads.
    pub width: usize,
    /// Scratch directory for durable stores; removed at exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <ingest|analyze|scenario|live_mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", workload::NAMES.join(", ")));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let out_dir = PathBuf::from(target).join("perfbench");
    Ok(Ctx {
        work: out_dir.join(format!("work-{}", std::process::id())),
        out_dir,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        width: nproc.min(2),
    })
}

/// The commit being measured, when the checkout is a git repository.
/// The search for `.git` stops at the working directory.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.display().to_string()).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    dial_par::configure_global_threads(ctx.width);
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        std::process::exit(2);
    }

    let mut report = Report::default();
    let facts = workload::run(&ctx, &mut report);
    let _ = std::fs::remove_dir_all(&ctx.work);

    println!(
        "facts {{\"workload\": {:?}, \"git_rev\": {:?}, \"nproc\": {}, \"pool_width\": {}, \"engine_threads\": {}, \"client_threads\": {}, \"seed\": {}, \"scale\": {}, \"lca_classes\": {}, \"run_seconds\": {}, \"trace\": {}}}",
        ctx.workload,
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        facts.pool_width,
        facts.engine_threads,
        facts.client_threads,
        ctx.seed,
        facts.scale,
        facts.lca_classes,
        ctx.seconds,
        ctx.trace,
    );
    println!(
        "operations: {} attempted, {} failed (ratio {})",
        report.attempted,
        report.failed,
        failure_ratio(report.attempted, report.failed)
    );
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let metrics: Vec<(String, &'static str)> = if ctx.trace {
        report::per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        report::END_TO_END.iter().map(|(n, u, _)| (n.to_string(), *u)).collect()
    };
    let line = report.result_json(&metrics);
    println!("{line}");
    std::process::exit(if report.failed == 0 && report.attempted > 0 { 0 } else { 1 });
}
