//! Command line of the repository benchmark:
//!
//! ```text
//! pmbench --workload <serve_solve|serve_churn|paper_batch> [--seed N]
//!         [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints `#`-prefixed notes (the run fingerprint first), then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! ones.  A traced run also writes its spans as JSON lines under
//! `.bench_out/`.  Exits 1 if any answer was wrong, 2 on a usage or set-up
//! error.

use std::process::ExitCode;

use pmbench::fingerprint;
use pmbench::report::{json_number, result_line, END_TO_END, PER_LAYER};
use pmbench::run::RunOpts;
use pmbench::{paper_batch, serve_churn, serve_solve, trace, Workload};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 191_013_386;
/// Where traced runs write their spans, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pmbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let mut fp = fingerprint::collect();
    if pm_serve::faults::Spec::compiled_in() {
        return Err("refusing to run: the faults feature is compiled in".into());
    }
    fp.extend([
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]);
    let fp_json = fingerprint::to_json(&fp);
    println!("# fingerprint {fp_json}");

    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload {
        Workload::ServeSolve => serve_solve::run(&serve_solve::Params::FULL, &opts),
        Workload::ServeChurn => serve_churn::run(&serve_churn::Params::FULL, &opts),
        Workload::PaperBatch => paper_batch::run(&paper_batch::Params::FULL, &opts),
    }?;
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        eprintln!("pmbench: check failed: {problem}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in table {
        let v = outcome.metrics.get(name).unwrap_or(f64::NAN);
        println!("# {name} = {} {unit}", json_number(v));
    }
    let line = result_line(correct, &outcome, table)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    write_outputs(&stem, &fp_json, &line, &outcome.spans)
        .map_err(|e| format!("writing {stem}.*: {e}"))?;
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Keeps the result with its fingerprint, and a traced run's spans.
fn write_outputs(
    stem: &str,
    fp_json: &str,
    line: &str,
    spans: &[trace::Span],
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(
        format!("{stem}.json"),
        format!("{{\"fingerprint\": {fp_json}, \"result\": {line}}}\n"),
    )?;
    if !spans.is_empty() {
        let file = std::fs::File::create(format!("{stem}.spans.jsonl"))?;
        trace::write_jsonl(spans, std::io::BufWriter::new(file))?;
    }
    Ok(())
}
