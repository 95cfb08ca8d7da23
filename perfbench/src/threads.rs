//! The thread-transport probe: the `thread` layer of the ledger.
//!
//! Three servers and one client, each a `NodeRunner` thread over a
//! `ThreadNet` with zero injected link delay, plus the router thread; the
//! driver is the benchmark's main thread. Latency is therefore processor
//! time, channel hand-offs, router heap work, runner polling and OS
//! scheduling, with no simulator in the path. Each round starts a fresh
//! cluster and loads a write history, then runs a closed loop (capacity)
//! and an open loop at a fixed rate (latency from each op's due time).
//!
//! The probe runs inside a traced run and reports per-layer figures only:
//! on a shared two-core host its wall-clock tails swing severalfold from
//! one minute to the next, too far for an end-to-end bound.

use std::collections::HashSet;
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use wv_core::client::{ClientNode, ClientOptions, CompletedOp};
use wv_core::msg::Msg;
use wv_core::quorum::QuorumSpec;
use wv_core::server::SuiteServer;
use wv_core::suite::SuiteConfig;
use wv_core::votes::VoteAssignment;
use wv_net::runner::NodeRunner;
use wv_net::thread_net::ThreadNet;
use wv_net::{NetConfig, SiteId};
use wv_sim::{DetRng, LatencyModel, SimDuration};
use wv_storage::ObjectId;
use wv_txn::lock::DeadlockPolicy;

use crate::check;
use crate::layers::ThreadShares;
use crate::ledger::{self, Layer};
use crate::node::{BenchNode, Finished, Op};
use crate::plan::{self, Mix, OpGen, Skew};

/// How long the driver waits for any single operation before declaring
/// the run stuck.
const OP_DEADLINE: Duration = Duration::from_secs(10);

/// The thread-transport probe's cluster and load.
pub struct ThreadSpec {
    /// Single-vote representatives (sites `0..servers`); the client is
    /// the next site.
    pub servers: usize,
    /// Read and write quorum, in votes.
    pub quorum: u32,
    /// Suites hosted by every representative.
    pub suites: usize,
    /// Reads, writes and transactions of the timed phases.
    pub mix: Mix,
    /// Client tunables.
    pub options: ClientOptions,
    /// Set-up writes per suite.
    pub history: usize,
    /// Closed-loop window.
    pub window: usize,
    /// Closed-loop operations.
    pub closed_ops: usize,
    /// Open-loop rate, operations per second.
    pub rate: f64,
    /// Open-loop operations.
    pub open_ops: usize,
    /// Wall time the probe measures for, after one warm-up round.
    pub seconds: u64,
}

struct Inputs {
    history: Vec<Op>,
    closed: Vec<Op>,
    open: Vec<(Duration, Op)>,
    sent: HashSet<Vec<u8>>,
    suites: Vec<ObjectId>,
}

fn inputs(spec: &ThreadSpec, seed: u64) -> Inputs {
    let root = DetRng::new(seed).fork_named("perfbench-threads");
    let mut gen = OpGen::new(seed, spec.suites, Skew::Uniform, spec.mix);
    let history = (0..spec.history * spec.suites)
        .map(|i| gen.write(i % spec.suites))
        .collect();
    let closed = gen.ops(&mut root.fork(1), spec.closed_ops);
    let open = gen
        .arrivals(&mut root.fork(2), spec.open_ops, spec.rate)
        .into_iter()
        .map(|(at, op)| (Duration::from_micros(at.as_micros()), op))
        .collect();
    Inputs {
        history,
        closed,
        open,
        suites: gen.suites().to_vec(),
        sent: std::mem::take(&mut gen.sent),
    }
}

/// A running cluster.
struct Running {
    net: ThreadNet<Msg>,
    servers: Vec<NodeRunner<BenchNode>>,
    client: NodeRunner<BenchNode>,
    done: Receiver<Finished>,
}

/// What a stopped cluster leaves behind.
struct Stopped {
    servers: Vec<BenchNode>,
    client: BenchNode,
}

impl Running {
    fn start(spec: &ThreadSpec, seed: u64, suites: &[ObjectId]) -> Running {
        let sites = spec.servers + 1;
        let assignment = VoteAssignment::new((0..spec.servers).map(|i| (SiteId::from(i), 1)));
        let configs: Vec<SuiteConfig> = suites
            .iter()
            .map(|&s| {
                SuiteConfig::new(
                    s,
                    assignment.clone(),
                    QuorumSpec::new(spec.quorum, spec.quorum),
                )
                .expect("workload quorums are legal")
            })
            .collect();
        let net_cfg = NetConfig::uniform(sites, LatencyModel::Constant(SimDuration::ZERO));
        let mut net = ThreadNet::<Msg>::start(net_cfg, seed, 1.0);
        let mut endpoints = std::mem::take(&mut net.endpoints);
        let client_ep = endpoints.pop().expect("client endpoint");
        let servers = endpoints
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                let mut node = BenchNode::server(SuiteServer::new(
                    SiteId::from(i),
                    configs.clone(),
                    DeadlockPolicy::WaitDie,
                ));
                node.time_calls();
                NodeRunner::spawn(node, ep, seed.wrapping_add(10 + i as u64), 1.0)
            })
            .collect();
        let (tx, done) = mpsc::channel();
        let mut client = BenchNode::client(ClientNode::new(
            SiteId::from(spec.servers),
            configs,
            vec![0.0; sites],
            spec.options.clone(),
        ));
        client.time_calls();
        client.report_to(tx);
        let client = NodeRunner::spawn(client, client_ep, seed.wrapping_add(99), 1.0);
        Running {
            net,
            servers,
            client,
            done,
        }
    }

    fn issue(&self, op: &Op, due: Instant) {
        let op = op.clone();
        self.client
            .invoke(move |node, ctx| node.start_op(&op, Some(due), ctx));
    }

    fn recv(&self) -> Result<Finished, String> {
        self.done
            .recv_timeout(OP_DEADLINE)
            .map_err(|_| format!("an operation did not finish within {OP_DEADLINE:?}"))
    }

    fn stop(self) -> Stopped {
        let client = self.client.stop();
        let servers = self.servers.into_iter().map(NodeRunner::stop).collect();
        drop(self.net);
        Stopped { servers, client }
    }
}

/// Runs `ops` closed-loop with `window` in flight.
fn closed_loop(
    c: &Running,
    ops: &[Op],
    window: usize,
    out: &mut Vec<Finished>,
) -> Result<(), String> {
    let mut next = ops.iter();
    for op in next.by_ref().take(window) {
        c.issue(op, Instant::now());
    }
    for _ in 0..ops.len() {
        out.push(c.recv()?);
        if let Some(op) = next.next() {
            c.issue(op, Instant::now());
        }
    }
    Ok(())
}

/// Issues `arrivals` at their due times, recording how late each went
/// out; returns when all have finished.
fn open_loop(
    c: &Running,
    arrivals: &[(Duration, Op)],
    out: &mut Vec<Finished>,
    late_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let target = out.len() + arrivals.len();
    let t0 = Instant::now() + Duration::from_millis(1);
    for (offset, op) in arrivals {
        let due = t0 + *offset;
        loop {
            out.extend(c.done.try_iter());
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep(due - now);
        }
        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        c.issue(op, due);
    }
    while out.len() < target {
        out.push(c.recv()?);
    }
    Ok(())
}

/// One round's wall-clock figures.
struct Round {
    closed_ops_per_s: f64,
    /// Open-loop latencies from due time, ms, ascending; failures infinite.
    due_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Share of the timed phases each node spent inside its handlers.
    client_busy: f64,
    server_busy: f64,
    handler_us_per_op: f64,
    attempted: u64,
    failed: u64,
}

fn due_ms(f: &Finished) -> f64 {
    if f.op.outcome.is_ok() {
        f.done.saturating_duration_since(f.due).as_secs_f64() * 1e3
    } else {
        f64::INFINITY
    }
}

/// Runs one round: set-up and closed loop, then the open loop unless
/// this is the warm-up.
fn run_round(
    spec: &ThreadSpec,
    seed: u64,
    inputs: &Inputs,
    warm_up: bool,
) -> Result<Round, String> {
    let c = Running::start(spec, seed, &inputs.suites);
    let mut log = Vec::new();
    closed_loop(&c, &inputs.history, spec.suites, &mut log)?;
    let timed_from = log.len();

    let t_timed = Instant::now();
    closed_loop(&c, &inputs.closed, spec.window, &mut log)?;
    let closed_wall = t_timed.elapsed();
    let closed_ok = log[timed_from..]
        .iter()
        .filter(|f| f.op.outcome.is_ok())
        .count();
    let mut late_ms = Vec::new();
    let open_from = log.len();
    if !warm_up {
        open_loop(&c, &inputs.open, &mut log, &mut late_ms)?;
    }
    let wall_us = t_timed.elapsed().as_secs_f64() * 1e6;
    let mut due: Vec<f64> = log[open_from..].iter().map(due_ms).collect();
    due.sort_by(f64::total_cmp);
    late_ms.sort_by(f64::total_cmp);
    let stopped = c.stop();

    let log: Vec<CompletedOp> = log.into_iter().map(|f| f.op).collect();
    let violations = check::oracle(&log, &inputs.sent, &inputs.suites, false, false);
    if let Some(first) = violations.first() {
        return Err(format!(
            "thread probe oracle: {} violation(s), first: {first}",
            violations.len()
        ));
    }
    let timed = &log[timed_from..];
    let busy_us = |n: &BenchNode| n.busy.as_secs_f64() * 1e6;
    let client_us = busy_us(&stopped.client);
    let server_us: f64 = stopped.servers.iter().map(busy_us).sum();
    Ok(Round {
        closed_ops_per_s: closed_ok as f64 / closed_wall.as_secs_f64(),
        due_ms: due,
        late_ms,
        client_busy: client_us / wall_us,
        server_busy: server_us / stopped.servers.len() as f64 / wall_us,
        handler_us_per_op: (client_us + server_us) / timed.len() as f64,
        attempted: timed.len() as u64,
        failed: timed.iter().filter(|o| o.outcome.is_err()).count() as u64,
    })
}

/// Runs the probe: one warm-up round, then rounds for `spec.seconds`;
/// every figure is the median over rounds. The ledger counts while it
/// runs, so the node wrappers time their handlers.
pub fn probe(spec: &ThreadSpec, seed: u64) -> Result<ThreadShares, String> {
    let inputs = inputs(spec, seed);
    ledger::start(Layer::Driver);
    let rounds = probe_rounds(spec, seed, &inputs);
    ledger::stop();
    let rounds = rounds?;
    let med = |f: &dyn Fn(&Round) -> f64| plan::median(&rounds.iter().map(f).collect::<Vec<_>>());
    Ok(ThreadShares {
        rounds: rounds.len(),
        ops: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        ops_per_s: med(&|r| r.closed_ops_per_s),
        lat_p50_ms: med(&|r| plan::percentile(&r.due_ms, 0.5)),
        lat_p99_ms: med(&|r| plan::percentile(&r.due_ms, 0.99)),
        client_busy_frac: med(&|r| r.client_busy),
        server_busy_frac: med(&|r| r.server_busy),
        handler_us_per_op: med(&|r| r.handler_us_per_op),
        gen_late_p99_ms: med(&|r| plan::percentile(&r.late_ms, 0.99)),
    })
}

fn probe_rounds(spec: &ThreadSpec, seed: u64, inputs: &Inputs) -> Result<Vec<Round>, String> {
    // Thread start-up, page faults and allocator growth make a first
    // round run slower; it stops after the closed loop and is dropped.
    run_round(spec, seed, inputs, true)?;
    let deadline = Instant::now() + Duration::from_secs(spec.seconds);
    let mut rounds = Vec::new();
    while Instant::now() < deadline || rounds.len() < 2 {
        rounds.push(run_round(spec, seed, inputs, false)?);
    }
    Ok(rounds)
}
