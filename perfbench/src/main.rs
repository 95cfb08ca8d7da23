//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload for `--seconds` of wall time on inputs drawn
//! from `--seed`, checks every completed operation with the history
//! oracle, and prints a readable report followed by a one-line JSON
//! result: the end-to-end metrics with `--trace 0`, the per-layer ledger
//! of a traced run with `--trace 1`. The workloads and why each exists
//! are listed in `BENCHMARK.json`; their fixed parameters (rates, ladder,
//! p99 limit) are the constants below.

mod check;
mod layers;
mod ledger;
mod node;
mod plan;
mod report;
mod sim;
mod threads;

use std::process::ExitCode;

use wv_core::client::{ClientOptions, HealthOptions, WeakRepOptions};
use wv_sim::{LatencyModel, SimDuration};

use crate::plan::{Mix, Skew};
use crate::sim::SimSpec;
use crate::threads::ThreadSpec;

#[global_allocator]
static ALLOC: ledger::CountingAlloc = ledger::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: read_mostly write_contended crash_churn";

/// Links of the simulated workloads: 25 ms one way on average, with
/// seeded jitter so that latency percentiles depend on the seed.
fn link() -> LatencyModel {
    LatencyModel::Uniform {
        lo: SimDuration::from_millis(20),
        hi: SimDuration::from_millis(30),
    }
}

fn workload(name: &str) -> Option<SimSpec> {
    Some(match name {
        // Reads dominate and most are served by the validated weak-rep
        // cache after one inquiry round, so client planning, the plan and
        // cache tiers, and scheduler routing carry the cost; the write path
        // (locks, WAL) is nearly idle.
        "read_mostly" => SimSpec {
            servers: 5,
            clients: 2,
            quorum: 3,
            suites: 64,
            skew: Skew::Zipf,
            mix: Mix { reads: 15, txns: 0 },
            link: link(),
            loss: 0.0,
            options: ClientOptions {
                weak_rep: Some(WeakRepOptions::validated()),
                // Enough attempts that a write losing several prepares to
                // the hot suite still commits.
                max_attempts: 16,
                ..ClientOptions::default()
            },
            anti_entropy: None,
            group_commit: None,
            crashes: false,
            history: 16,
            window: 16,
            closed_ops: 12000,
            // Far above the ~50 ops/vs at which 1% of reads stall behind a
            // commit lock, so the p99 stays in the stall regime instead of
            // flipping with the seed; the ladder brackets that crossing.
            nominal_rate: 300.0,
            open_ops: 4000,
            ladder: &[20.0, 40.0, 60.0, 80.0],
            ladder_ops: 40000,
            p99_limit_ms: 1000.0,
            strict: true,
            // Real OS threads over ThreadNet with zero link delay: the
            // thread layer's figures (channels, router, runner polling,
            // OS scheduling, no simulator) join this workload's ledger.
            // Reads only, so the busy-refusal stall the sim run exposes
            // does not swamp the transport costs; timeouts sized to a
            // zero-delay network, where an answer takes well under the
            // runner's 2 ms poll.
            thread_probe: Some(ThreadSpec {
                servers: 3,
                quorum: 2,
                suites: 64,
                mix: Mix { reads: 16, txns: 0 },
                options: ClientOptions {
                    phase_timeout: SimDuration::from_millis(100),
                    backoff: SimDuration::from_millis(1),
                    backoff_cap: SimDuration::from_millis(20),
                    max_attempts: 32,
                    ..ClientOptions::default()
                },
                history: 2,
                window: 8,
                closed_ops: 8000,
                rate: 4000.0,
                open_ops: 4000,
                seconds: 4,
            }),
        },
        // The opposite mix on a hot keyspace: writes and two-suite
        // transactions queue on commit locks, lose prepares to newer
        // versions and retry, and share group-commit WAL syncs.
        "write_contended" => SimSpec {
            servers: 3,
            clients: 2,
            quorum: 2,
            suites: 8,
            skew: Skew::Zipf,
            mix: Mix { reads: 2, txns: 2 },
            link: link(),
            loss: 0.0,
            options: ClientOptions {
                pipeline_depth: Some(8),
                max_attempts: 512,
                backoff: SimDuration::from_millis(5),
                backoff_cap: SimDuration::from_millis(80),
                phase_timeout: SimDuration::from_millis(300),
                ..ClientOptions::default()
            },
            anti_entropy: None,
            group_commit: Some(SimDuration::from_millis(5)),
            crashes: false,
            history: 64,
            window: 8,
            closed_ops: 6000,
            // About half the closed-loop capacity (~21 ops/vs).
            nominal_rate: 10.0,
            open_ops: 20000,
            ladder: &[4.0, 8.0, 12.0, 16.0, 20.0],
            ladder_ops: 6000,
            p99_limit_ms: 1000.0,
            strict: true,
            thread_probe: None,
        },
        // One server at a time crashes and recovers under 1% link loss:
        // the only workload that runs recovery scans, timeouts, reroutes
        // and anti-entropy repair.
        "crash_churn" => SimSpec {
            servers: 5,
            clients: 2,
            quorum: 3,
            suites: 8,
            skew: Skew::Uniform,
            mix: Mix { reads: 8, txns: 0 },
            link: link(),
            loss: 0.01,
            options: ClientOptions {
                health: Some(HealthOptions::default()),
                max_attempts: 64,
                ..ClientOptions::default()
            },
            anti_entropy: Some(SimDuration::from_millis(500)),
            group_commit: None,
            crashes: true,
            history: 64,
            window: 8,
            closed_ops: 6000,
            // About half the closed-loop capacity (~48 ops/vs).
            nominal_rate: 25.0,
            open_ops: 8000,
            ladder: &[10.0, 20.0, 30.0, 40.0],
            ladder_ops: 6000,
            p99_limit_ms: 1500.0,
            strict: false,
            thread_probe: None,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(parse_u64(&value).ok_or_else(bad)?),
            "--seconds" => {
                seconds = Some(
                    parse_u64(&value)
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let report = sim::run(&args.workload, &spec, args.seed, args.seconds, args.trace);
    report.print(args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
