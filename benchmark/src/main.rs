//! `chainbench`: the command behind `benchmark/run.sh`.
//!
//! ```text
//! chainbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!            [--quick] [--selfcheck]
//! ```
//!
//! Without `--workload` the four workloads run in sequence. Every run
//! prints an `env` line, one `metric` line per metric, an `oracle` line
//! per workload and — last — one JSON object per workload in the format
//! `BENCHMARK.json`'s contract fixes.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use linkcast_benchmark::inputs::{self, Spec, WORKLOADS};
use linkcast_benchmark::report;
use linkcast_benchmark::rig::Env;
use linkcast_benchmark::run::{run_workload, Plan};
use linkcast_benchmark::{procfs, selfcheck};

/// `run_seconds` of `BENCHMARK.json`: what a plain `run.sh` measures for,
/// so its numbers are the driver's numbers.
const DEFAULT_SECONDS: u64 = 30;
/// Where trace files and self-check output go (and the `durable` WALs,
/// where there is no tmpfs), relative to the checkout root `run.sh`
/// changes into.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(inputs::spec(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes 0 or 1.
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "nogit".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chainbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if args.selfcheck {
        return match selfcheck::run(args.seconds, &out_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("chainbench: two sets of runs of the same binary disagree by more than the self-check allows");
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("chainbench: {e}");
                ExitCode::from(1)
            }
        };
    }

    let loadavg = procfs::loadavg_1m();
    let env = Env::detect(&out_dir);
    let code = run_workloads(&args, &env, loadavg);
    env.remove_wal_root();
    code
}

fn run_workloads(args: &Args, env: &Env, loadavg: f64) -> ExitCode {
    let shapes: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{}=W{}/R{}/B{}", w.name, w.window, w.rate, w.burst))
        .collect();
    println!(
        "env git={} nproc={} pinned={} sut_core={} gen_core={} wal_fs={} kernel={} loadavg1={loadavg} seed={} seconds={} trace={} quick={} {}",
        git_sha(),
        env.nproc,
        u8::from(env.pinned),
        env.sut_core,
        env.gen_core,
        env.wal_fs,
        procfs::kernel(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        u8::from(args.quick),
        shapes.join(" "),
    );
    if !env.pinned {
        println!("note pinned=0: no core split on this host; these numbers are not comparable");
    }
    if args.quick {
        println!("note quick=1: smoke test; these numbers are never compared");
    }

    let plan = Plan::new(args.seconds, args.trace, args.quick);
    let specs: Vec<Spec> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut results: Vec<String> = Vec::with_capacity(specs.len());
    let mut all_correct = true;
    for spec in specs {
        let outcome = match run_workload(spec, args.seed, &plan, env) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("chainbench: {}: {e}", spec.name);
                return ExitCode::from(1);
            }
        };
        report::print_metrics(spec.name, &outcome.end_to_end);
        report::print_metrics(spec.name, &outcome.per_layer);
        println!(
            "oracle {} {} attempted={} failed={} latency_samples={} spans_written={}",
            spec.name,
            if outcome.correct { "ok" } else { "FAILED" },
            outcome.attempted,
            outcome.failed,
            outcome.latency_samples,
            outcome.spans_written,
        );
        for v in &outcome.violations {
            println!("oracle {} violation: {v}", spec.name);
        }
        all_correct &= outcome.correct;
        results.push(report::result_line(&outcome, args.trace));
    }
    for line in results {
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
