//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints progress to standard error and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits with 1 when an answer check fails and 2 on bad usage.

use alvisp2p_bench::workloads::DEFAULT_SEED;
use alvisp2p_perfbench::e2e::{self, Budget};
use alvisp2p_perfbench::report::{Metric, Outcome};
use alvisp2p_perfbench::trace;
use alvisp2p_perfbench::workload::{Inputs, Shape, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <hdk_mixed|longlist_pairs|qdi_drift|hdk_lossy|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// Where the traced run writes its spans: beside the build outputs.
fn trace_path(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-trace")
        .join(format!("{}.tsv", workload.name()))
}

fn run_one(workload: Workload, args: &Args) -> Outcome {
    let started = Instant::now();
    let inputs = Inputs::generate(workload, Shape::of(workload), args.seed);
    let budget = Budget::Time(Duration::from_secs(args.seconds));
    let outcome = if args.traced {
        let run = trace::run(&inputs, budget);
        let path = trace_path(workload);
        match run.trace.write_tsv(&path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                run.trace.spans().len(),
                path.display()
            ),
            Err(err) => eprintln!("perfbench: could not write {}: {err}", path.display()),
        }
        run.outcome
    } else {
        e2e::run(&inputs, budget, SETUPS)
    };
    eprintln!(
        "perfbench: {} seed {} trace {}: {} queries, correct {}, {:.1} s",
        workload.name(),
        args.seed,
        u8::from(args.traced),
        outcome.attempted,
        outcome.correct,
        started.elapsed().as_secs_f64()
    );
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes: Vec<(Workload, Outcome)> = Vec::new();
    for &workload in &args.workloads {
        let outcome = run_one(workload, &args);
        if args.workloads.len() > 1 {
            println!("{}", outcome.to_json());
        }
        outcomes.push((workload, outcome));
    }
    let combined = if let [(_, only)] = outcomes.as_slice() {
        only.clone()
    } else {
        Outcome {
            correct: outcomes.iter().all(|(_, o)| o.correct),
            attempted: outcomes.iter().map(|(_, o)| o.attempted).sum(),
            failed: outcomes.iter().map(|(_, o)| o.failed).sum(),
            metrics: outcomes
                .iter()
                .flat_map(|(w, o)| {
                    o.metrics.iter().map(move |m| {
                        Metric::new(format!("{}.{}", w.name(), m.name), m.value, m.unit)
                    })
                })
                .collect(),
        }
    };
    println!("{}", combined.to_json());
    if combined.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
