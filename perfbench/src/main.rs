//! `rpq-perfbench`: the repository benchmark. See `README.md` next to this
//! package for the workloads, the metrics and what each should move.
//!
//! ```text
//! rpq-perfbench --workload <wire_batch|engine_solve|hosted_churn> \
//!               --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run prints one metadata line and then, as its last line, the result
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics.

#![forbid(unsafe_code)]

mod engine_solve;
mod harness;
mod hosted_churn;
mod inputs;
mod report;
mod stats;
mod wire_batch;

use harness::Plan;
use rpq_server::Json;
use std::process::ExitCode;

/// The fewest timed operations a run makes: 200 leaves 10 samples beyond
/// the nearest-rank p95.
const MIN_OPS: usize = 200;

/// Complete set-ups per run (`setup_s` is their median).
const SETUPS: usize = 7;

/// The largest share of `wire_batch` handler time the traced phases may
/// leave as `other`.
const MAX_OTHER_SHARE: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WireBatch,
    EngineSolve,
    HostedChurn,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::WireBatch, Workload::EngineSolve, Workload::HostedChurn];

    fn name(self) -> &'static str {
        match self {
            Workload::WireBatch => "wire_batch",
            Workload::EngineSolve => "engine_solve",
            Workload::HostedChurn => "hosted_churn",
        }
    }

    /// Timed operations per second of `--seconds`: a constant, so a run's
    /// operation count depends on `--seconds` alone and a faster program
    /// does the same work in less time. Each is about the rate the workload
    /// ran at when the benchmark was defined (2-core Xeon VM), so a run
    /// lasts about `--seconds`.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::WireBatch => 70,
            Workload::EngineSolve => 14,
            Workload::HostedChurn => 80,
        }
    }

    /// Warm-up operations after each set-up (counted in `setup_s`).
    fn warmup(self) -> usize {
        match self {
            Workload::WireBatch => 40,
            Workload::EngineSolve => 10,
            Workload::HostedChurn => 60,
        }
    }

    fn op_count(self, seconds: u64) -> usize {
        (self.ops_per_second() * seconds as usize).max(MIN_OPS)
    }

    fn run(self, plan: &Plan) -> Result<harness::Outcome, String> {
        match self {
            Workload::WireBatch => wire_batch::run(plan),
            Workload::EngineSolve => engine_solve::run(plan),
            Workload::HostedChurn => hosted_churn::run(plan),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: rpq-perfbench --workload <wire_batch|engine_solve|hosted_churn> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<String, String> {
    // Before pinning, which narrows `nproc` to one CPU.
    let host = report::host_metadata();
    let pinned_cpu = harness::pin_to_one_cpu();
    let plan = Plan {
        seed: args.seed,
        ops: args.workload.op_count(args.seconds),
        warmup: args.workload.warmup(),
        setups: SETUPS,
        traced: args.trace,
    };
    let mut outcome = args.workload.run(&plan)?;
    let mut tally = outcome.tally;
    // Unpinned figures are not comparable with pinned ones: a run that
    // could not pin counts a failure.
    tally.record(pinned_cpu.is_some());
    let metrics = if args.trace {
        let mut layers = std::mem::take(&mut outcome.layers);
        let p50 = |samples: &[harness::Sample]| {
            stats::nearest_rank(&harness::adjusted(samples), 50.0).unwrap_or(0.0)
        };
        let overhead = p50(&outcome.traced) - p50(&outcome.latencies);
        layers.fixed.insert("trace.overhead_ms", overhead);
        let metrics = layers.metrics();
        if args.workload == Workload::WireBatch {
            // Layer coverage: the untraced remainder stays within 10% of
            // the handler time.
            let other = metrics.iter().find(|m| m.0 == "trace.other_share").map_or(1.0, |m| m.2);
            tally.record(other <= MAX_OTHER_SHARE);
        }
        metrics
    } else {
        report::end_to_end(&outcome)
    };
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    let raw_latencies = harness::raw(&outcome.latencies);
    let floats = |values: &[f64]| Json::Array(values.iter().map(|&v| Json::Float(v)).collect());
    let mut meta = vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed.into())),
        ("seconds", Json::Int(args.seconds.into())),
        ("trace", Json::Bool(args.trace)),
        ("ops", Json::Int(plan.ops as i128)),
        ("warmup_ops", Json::Int(plan.warmup as i128)),
        ("setups", Json::Int(plan.setups as i128)),
        ("server_threads", Json::Int(harness::SERVER_THREADS as i128)),
        ("pinned_cpu", pinned_cpu.map_or(Json::Null, |cpu| Json::Int(cpu as i128))),
        (
            "samples_beyond_p95",
            Json::Int(stats::samples_beyond(outcome.latencies.len(), 95.0) as i128),
        ),
        ("raw_p50_ms", Json::Float(stats::nearest_rank(&raw_latencies, 50.0).unwrap_or(0.0))),
        ("raw_p95_ms", Json::Float(stats::nearest_rank(&raw_latencies, 95.0).unwrap_or(0.0))),
        ("raw_setups_s", floats(&harness::raw(&outcome.setups))),
        ("setup_factors", floats(&outcome.setups.iter().map(|s| s.factor).collect::<Vec<_>>())),
        ("probe_ms", Json::Float(outcome.probe_ms)),
        ("timed_s", Json::Float(outcome.timed_s)),
        ("error_rate", Json::Float(error_rate)),
    ];
    meta.extend(host);
    println!("{}", Json::object([("meta", Json::object(meta))]));
    for &(name, unit, value) in &metrics {
        eprintln!("{:<32} {value:>14.4} {unit}", format!("{}/{name}", args.workload.name()));
    }
    Ok(report::result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rpq-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rpq-perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_run_leaves_ten_samples_beyond_p95() {
        for workload in Workload::ALL {
            for seconds in 1..=60 {
                let ops = workload.op_count(seconds);
                assert!(
                    stats::samples_beyond(ops, 95.0) >= 10,
                    "{} at {seconds}s: {ops} ops",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parsed =
            parse_args(&args("--workload hosted_churn --seed 9 --seconds 4 --trace 1")).unwrap();
        assert_eq!(parsed.workload, Workload::HostedChurn);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (9, 4, true));
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload wire_batch",
            "--workload wire_batch --seed x",
            "--workload wire_batch --seed 1 --trace 2",
            "--workload wire_batch --seed 1 --bogus 1",
            "--workload wire_batch --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
