//! The simulated workloads: `read_mostly`, `write_contended`, `crash_churn`.
//!
//! Each run replays one seeded workload in rounds. A round builds a fresh
//! cluster the way `HarnessBuilder::build` does, loads every suite with a
//! write history (set-up), then runs three timed phases on one thread:
//!
//! 1. closed loop: each client keeps `window` operations in flight, which
//!    gives capacity in virtual time;
//! 2. open loop: Poisson arrivals at the nominal rate, each op timed from
//!    its due time, which gives latency;
//! 3. a ladder of open-loop rates, which gives the rate at the p99 limit.
//!
//! Every round of a run replays the same inputs, so its virtual results
//! are identical; the round repeats only to sample wall-clock time. A
//! traced round additionally runs the layer ledger and the program's span
//! recorder, and must leave the same log and counters as an untraced one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use wv_core::client::{ClientNode, ClientOptions, CompletedOp};
use wv_core::harness::{Harness, HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_core::server::SuiteServer;
use wv_core::suite::SuiteConfig;
use wv_core::votes::VoteAssignment;
use wv_net::sim_net::Cluster;
use wv_net::{NetConfig, SiteId};
use wv_sim::trace::SpanRecord;
use wv_sim::{derive_seed, DetRng, FailureSchedule, LatencyModel, Sim, SimDuration, SimTime};
use wv_storage::ObjectId;
use wv_txn::lock::DeadlockPolicy;

use crate::check;
use crate::layers::{self, per, Counters, Evidence};
use crate::ledger::{self, Layer, Tally};
use crate::node::{BenchNode, Op};
use crate::plan::{self, Mix, OpGen, Skew};
use crate::report::{Metric, Report};
use crate::threads::{self, ThreadSpec};

/// `HarnessBuilder::build` derives each server's disk-fault stream from
/// the master seed with this label salt; the benchmark-built cluster
/// repeats it so both clusters schedule the same events.
const DISK_FAULT_SEED_SALT: u64 = 0xD15C_FA17;

/// A run that takes more events than this is reported as stalled.
const STEP_CAP: u64 = 400_000_000;

/// Operations of the closed-loop prefix compared against a
/// `HarnessBuilder`-built cluster.
const PREFIX_OPS: usize = 300;

/// One simulated workload.
pub struct SimSpec {
    /// Single-vote representatives (sites `0..servers`).
    pub servers: usize,
    /// Client sites, after the servers.
    pub clients: usize,
    /// Read and write quorum, in votes.
    pub quorum: u32,
    /// Suites hosted by every representative.
    pub suites: usize,
    /// How operations pick their suite.
    pub skew: Skew,
    /// Reads, writes and transactions.
    pub mix: Mix,
    /// Every link's one-way latency.
    pub link: LatencyModel,
    /// Loss probability on every cross-site link.
    pub loss: f64,
    /// Client tunables.
    pub options: ClientOptions,
    /// Anti-entropy probe interval at every representative.
    pub anti_entropy: Option<SimDuration>,
    /// WAL group-commit latency at every representative.
    pub group_commit: Option<SimDuration>,
    /// Whether a seeded schedule crashes one server at a time.
    pub crashes: bool,
    /// Set-up writes per suite.
    pub history: usize,
    /// Closed-loop window per client.
    pub window: usize,
    /// Closed-loop operations.
    pub closed_ops: usize,
    /// Open-loop rate, operations per virtual second.
    pub nominal_rate: f64,
    /// Open-loop operations at the nominal rate.
    pub open_ops: usize,
    /// Ladder rates, ascending, operations per virtual second.
    pub ladder: &'static [f64],
    /// Operations per ladder rung.
    pub ladder_ops: usize,
    /// The p99 latency limit of the ladder, virtual milliseconds.
    pub p99_limit_ms: f64,
    /// Whether the oracle may assume no message is ever lost.
    pub strict: bool,
    /// The thread-transport probe a traced run of this workload adds to
    /// its ledger.
    pub thread_probe: Option<ThreadSpec>,
}

/// Everything one seed feeds a round.
struct Inputs {
    history: Vec<(SimDuration, Op)>,
    closed: Vec<Op>,
    open: Vec<(SimDuration, Op)>,
    ladder: Vec<Vec<(SimDuration, Op)>>,
    sent: HashSet<Vec<u8>>,
    suites: Vec<ObjectId>,
    crashes: Option<FailureSchedule>,
}

impl SimSpec {
    fn sites(&self) -> usize {
        self.servers + self.clients
    }

    fn client_sites(&self) -> Vec<SiteId> {
        (self.servers..self.sites()).map(SiteId::from).collect()
    }

    fn net(&self) -> NetConfig {
        let mut net = NetConfig::uniform(self.sites(), self.link.clone());
        net.set_drop_all(self.loss);
        net
    }

    fn inputs(&self, seed: u64) -> Inputs {
        let root = DetRng::new(seed).fork_named("perfbench-workload");
        let mut gen = OpGen::new(seed, self.suites, self.skew, self.mix);
        let history = gen.history(self.history, SimDuration::from_millis(250));
        let closed = gen.ops(&mut root.fork(1), self.closed_ops);
        let open = gen.arrivals(&mut root.fork(2), self.open_ops, self.nominal_rate);
        let ladder = self
            .ladder
            .iter()
            .enumerate()
            .map(|(k, &rate)| gen.arrivals(&mut root.fork(3 + k as u64), self.ladder_ops, rate))
            .collect();
        let crashes = self.crashes.then(|| self.crash_schedule(seed));
        Inputs {
            history,
            closed,
            open,
            ladder,
            suites: gen.suites().to_vec(),
            sent: std::mem::take(&mut gen.sent),
            crashes,
        }
    }

    /// One server down at a time: outages of 0.3–1.2 s separated by
    /// 1–3 s of full membership, over a horizon no round reaches.
    fn crash_schedule(&self, seed: u64) -> FailureSchedule {
        let mut rng = DetRng::new(seed).fork_named("perfbench-crashes");
        let mut schedule = FailureSchedule::none(self.sites());
        let horizon = SimTime::from_secs(3600);
        let mut t = SimTime::from_millis(1000);
        while t < horizon {
            let site = rng.below(self.servers as u64) as usize;
            let until = t + SimDuration::from_millis(300 + rng.below(900));
            schedule.add_outage(site, t, until);
            t = until + SimDuration::from_millis(1000 + rng.below(2000));
        }
        schedule
    }

    /// The cluster built by `HarnessBuilder` itself, for the
    /// wiring check.
    fn harness(&self, seed: u64, suites: &[ObjectId]) -> Harness {
        let mut b = HarnessBuilder::new()
            .seed(seed)
            .quorum(QuorumSpec::new(self.quorum, self.quorum))
            .suites(suites.to_vec())
            .net(self.net())
            .client_options(self.options.clone());
        for _ in 0..self.servers {
            b = b.site(SiteSpec::server(1));
        }
        for _ in 0..self.clients {
            b = b.client();
        }
        if let Some(interval) = self.anti_entropy {
            b = b.anti_entropy(interval);
        }
        if let Some(latency) = self.group_commit {
            b = b.group_commit(latency);
        }
        b.build().expect("workload quorums are legal")
    }

    /// The cluster built from the public constructors, step for step as
    /// `HarnessBuilder::build` builds it, with every node wrapped.
    fn build(&self, seed: u64, suites: &[ObjectId]) -> BenchSim {
        let sites = self.sites();
        let assignment = VoteAssignment::new((0..self.servers).map(|i| (SiteId::from(i), 1)));
        let configs: Vec<SuiteConfig> = suites
            .iter()
            .map(|&s| {
                SuiteConfig::new(
                    s,
                    assignment.clone(),
                    QuorumSpec::new(self.quorum, self.quorum),
                )
                .expect("workload quorums are legal")
            })
            .collect();
        let net = self.net();
        let cache_sites = if self.anti_entropy.is_some() && self.options.weak_rep.is_some() {
            self.client_sites()
        } else {
            Vec::new()
        };
        let nodes = (0..sites)
            .map(|i| {
                let site = SiteId::from(i);
                if i < self.servers {
                    let mut s = SuiteServer::new(site, configs.clone(), DeadlockPolicy::WaitDie);
                    if let Some(interval) = self.anti_entropy {
                        s.set_anti_entropy(interval);
                    }
                    if let Some(latency) = self.group_commit {
                        s.set_group_commit(latency);
                    }
                    if !cache_sites.is_empty() {
                        s.set_cache_refresh_targets(cache_sites.clone());
                    }
                    BenchNode::server(s)
                } else {
                    let costs = (0..sites)
                        .map(|j| net.mean_latency_ms(site, SiteId::from(j)))
                        .collect();
                    BenchNode::client(ClientNode::new(
                        site,
                        configs.clone(),
                        costs,
                        self.options.clone(),
                    ))
                }
            })
            .collect();
        let mut sim = Cluster::sim(nodes, net, seed);
        for i in 0..self.servers {
            let site = SiteId::from(i);
            let fault_seed = derive_seed(seed, DISK_FAULT_SEED_SALT + site.0 as u64);
            Cluster::invoke(sim.scheduler(), SimTime::ZERO, site, move |node, _ctx| {
                if let Some(s) = node.inner_mut().as_server_mut() {
                    s.set_disk_fault_seed(fault_seed);
                }
            });
        }
        if self.anti_entropy.is_some() {
            for i in 0..self.servers {
                Cluster::invoke(
                    sim.scheduler(),
                    SimTime::ZERO,
                    SiteId::from(i),
                    |node, ctx| {
                        if let Some(s) = node.inner_mut().as_server_mut() {
                            s.start_anti_entropy(ctx);
                        }
                    },
                );
            }
        }
        BenchSim { sim }
    }
}

/// What the driver needs from a simulated cluster.
trait Backend {
    fn step(&mut self) -> bool;
    fn now(&self) -> SimTime;
    fn issue(&mut self, client: SiteId, op: &Op, at: SimTime);
    fn drain(&mut self, client: SiteId, out: &mut Vec<CompletedOp>);
    fn crash_schedule(&mut self, schedule: &FailureSchedule);
}

/// The benchmark-built cluster.
struct BenchSim {
    sim: Sim<Cluster<BenchNode>>,
}

impl Backend for BenchSim {
    fn step(&mut self) -> bool {
        let _span = ledger::enter(Layer::Sim);
        self.sim.step()
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn issue(&mut self, client: SiteId, op: &Op, at: SimTime) {
        let op = op.clone();
        Cluster::invoke(self.sim.scheduler(), at, client, move |node, ctx| {
            node.start_op(&op, None, ctx);
        });
    }

    fn drain(&mut self, client: SiteId, out: &mut Vec<CompletedOp>) {
        if let Some(c) = self.sim.world.nodes[client.index()]
            .inner_mut()
            .as_client_mut()
        {
            if !c.completed.is_empty() {
                out.append(&mut c.completed);
            }
        }
    }

    fn crash_schedule(&mut self, schedule: &FailureSchedule) {
        Cluster::apply_failure_schedule(self.sim.scheduler(), schedule);
    }
}

impl Backend for Harness {
    fn step(&mut self) -> bool {
        self.run_until_quiet(1) == 1
    }

    fn now(&self) -> SimTime {
        Harness::now(self)
    }

    fn issue(&mut self, client: SiteId, op: &Op, at: SimTime) {
        match op {
            Op::Read(suite) => self.enqueue_read(client, *suite, at),
            Op::Write(suite, value) => self.enqueue_write(client, *suite, value.to_vec(), at),
            Op::Txn(writes) => self.enqueue_transaction(
                client,
                writes.iter().map(|(s, v)| (*s, v.to_vec())).collect(),
                at,
            ),
        }
    }

    fn drain(&mut self, client: SiteId, out: &mut Vec<CompletedOp>) {
        out.extend(self.drain_completed(client));
    }

    fn crash_schedule(&mut self, schedule: &FailureSchedule) {
        self.apply_failure_schedule(schedule);
    }
}

fn step<B: Backend>(b: &mut B, steps: &mut u64) -> Result<(), String> {
    *steps += 1;
    if *steps > STEP_CAP {
        return Err(format!("no progress after {STEP_CAP} events"));
    }
    if b.step() {
        Ok(())
    } else {
        Err("event queue drained with operations outstanding".into())
    }
}

/// Runs `ops` closed-loop: each client starts with `window` of them and
/// starts the next the instant one finishes.
fn closed_loop<B: Backend>(
    b: &mut B,
    clients: &[SiteId],
    ops: &[Op],
    window: usize,
    out: &mut Vec<CompletedOp>,
) -> Result<(), String> {
    let target = out.len() + ops.len();
    let mut next = ops.iter();
    let now = b.now();
    for &c in clients {
        for op in next.by_ref().take(window) {
            b.issue(c, op, now);
        }
    }
    let mut steps = 0;
    while out.len() < target {
        step(b, &mut steps)?;
        for &c in clients {
            let before = out.len();
            b.drain(c, out);
            if out.len() > before {
                let now = b.now();
                for op in next.by_ref().take(out.len() - before) {
                    b.issue(c, op, now);
                }
            }
        }
    }
    Ok(())
}

/// Runs `arrivals` open-loop, clients taking turns; returns the phase's
/// start time.
fn open_loop<B: Backend>(
    b: &mut B,
    clients: &[SiteId],
    arrivals: &[(SimDuration, Op)],
    out: &mut Vec<CompletedOp>,
) -> Result<SimTime, String> {
    let t0 = b.now();
    for (i, (offset, op)) in arrivals.iter().enumerate() {
        b.issue(clients[i % clients.len()], op, t0 + *offset);
    }
    let target = out.len() + arrivals.len();
    let mut steps = 0;
    while out.len() < target {
        step(b, &mut steps)?;
        for &c in clients {
            b.drain(c, out);
        }
    }
    Ok(t0)
}

impl BenchSim {
    fn counters(&mut self) -> Counters {
        let mut c = Counters {
            events: self.sim.scheduler().executed(),
            net: self.sim.world.stats,
            ..Counters::default()
        };
        for node in &self.sim.world.nodes {
            if let Some(cl) = node.inner().as_client() {
                c.clients.push(cl.stats);
            }
            if let Some(s) = node.inner().as_server() {
                c.servers.push(s.stats);
                c.wal_flushes += s.container().wal().flushes();
            }
        }
        c
    }

    fn enable_tracing(&mut self) {
        for node in &mut self.sim.world.nodes {
            if let Some(c) = node.inner_mut().as_client_mut() {
                c.enable_tracing();
            }
            if let Some(s) = node.inner_mut().as_server_mut() {
                s.enable_tracing();
            }
        }
    }

    /// Every node's spans, merged in site order as `Harness::take_trace`
    /// merges them.
    fn take_trace(&mut self) -> Vec<SpanRecord> {
        let mut merged = Vec::new();
        for node in &mut self.sim.world.nodes {
            if let Some(c) = node.inner_mut().as_client_mut() {
                wv_sim::trace::rebase_merge(&mut merged, c.take_trace());
            }
            if let Some(s) = node.inner_mut().as_server_mut() {
                wv_sim::trace::rebase_merge(&mut merged, s.take_trace());
            }
        }
        merged
    }

    fn recover_busy(&self) -> Duration {
        self.sim.world.nodes.iter().map(|n| n.recover_busy).sum()
    }
}

/// The instrumented half of a traced round.
struct Traced {
    tally: Tally,
    spans: Vec<SpanRecord>,
    recover_busy: Duration,
}

/// One rung of the rate ladder.
pub struct Rung {
    /// Offered rate, operations per second.
    pub rate: f64,
    /// Share of the rung's operations over the p99 limit.
    pub miss: f64,
    /// The rung's p99 latency, milliseconds.
    pub p99_ms: f64,
}

/// One round's results.
struct Round {
    setup: Duration,
    timed: Duration,
    /// Every completed operation, set-up included, in discovery order.
    log: Vec<CompletedOp>,
    /// Index into `log` where the timed phases begin.
    timed_from: usize,
    closed_ok: u64,
    closed_span: SimDuration,
    /// Nominal-rate latencies, virtual ms, ascending; failures infinite.
    open_ms: Vec<f64>,
    rungs: Vec<Rung>,
    before: Counters,
    after: Counters,
    digest: u64,
    traced: Option<Traced>,
}

impl Round {
    fn timed_ops(&self) -> &[CompletedOp] {
        &self.log[self.timed_from..]
    }

    fn committed(&self) -> u64 {
        self.timed_ops()
            .iter()
            .filter(|o| o.outcome.is_ok())
            .count() as u64
    }

    fn ops_per_s(&self) -> f64 {
        self.committed() as f64 / self.timed.as_secs_f64()
    }
}

/// Feeds formatted text straight into a hasher, so a round's digest
/// never materialises its whole log as one string.
struct HashWriter(DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn latency_ms(op: &CompletedOp) -> f64 {
    if op.outcome.is_ok() {
        op.latency().as_millis_f64()
    } else {
        f64::INFINITY
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Runs one round; `ladder` adds the rate ladder after the nominal phase.
fn run_round(
    spec: &SimSpec,
    seed: u64,
    inputs: &Inputs,
    traced: bool,
    ladder: bool,
) -> Result<Round, String> {
    let clients = spec.client_sites();
    let t_setup = Instant::now();
    let mut b = spec.build(seed, &inputs.suites);
    if let Some(schedule) = &inputs.crashes {
        b.crash_schedule(schedule);
    }
    let mut log = Vec::new();
    open_loop(&mut b, &clients, &inputs.history, &mut log)?;
    let setup = t_setup.elapsed();
    let timed_from = log.len();

    if traced {
        b.enable_tracing();
        ledger::start(Layer::Driver);
    }
    let before = b.counters();
    let t_timed = Instant::now();
    let t0 = b.now();
    closed_loop(&mut b, &clients, &inputs.closed, spec.window, &mut log)?;
    let closed = &log[timed_from..];
    let closed_ok = closed.iter().filter(|o| o.outcome.is_ok()).count() as u64;
    let closed_end = closed.iter().map(|o| o.finished).max().unwrap_or(t0);

    let open_from = log.len();
    open_loop(&mut b, &clients, &inputs.open, &mut log)?;
    let open_ms = sorted(log[open_from..].iter().map(latency_ms).collect());

    let mut rungs = Vec::new();
    let rungs_run = if ladder { &inputs.ladder[..] } else { &[] };
    for (rung, &rate) in rungs_run.iter().zip(spec.ladder) {
        let from = log.len();
        open_loop(&mut b, &clients, rung, &mut log)?;
        let lat = sorted(log[from..].iter().map(latency_ms).collect());
        rungs.push(Rung {
            rate,
            miss: plan::miss_frac(&lat, spec.p99_limit_ms),
            p99_ms: plan::percentile(&lat, 0.99),
        });
    }
    let timed = t_timed.elapsed();
    let traced = traced.then(|| Traced {
        tally: ledger::stop(),
        spans: b.take_trace(),
        recover_busy: b.recover_busy(),
    });
    let after = b.counters();

    let mut h = HashWriter(DefaultHasher::new());
    write!(h, "{log:?}{before:?}{after:?}").expect("hashing cannot fail");
    Ok(Round {
        setup,
        timed,
        log,
        timed_from,
        closed_ok,
        closed_span: closed_end.since(t0),
        open_ms,
        rungs,
        before,
        after,
        digest: h.0.finish(),
        traced,
    })
}

/// The closed-loop prefix of the workload on the benchmark-built cluster
/// and on a `HarnessBuilder`-built one: the logs and transport counters
/// must match, so the benchmark measures the wiring the experiments use.
fn wiring_check(spec: &SimSpec, seed: u64, inputs: &Inputs) -> Result<(), String> {
    fn prefix<B: Backend>(
        b: &mut B,
        clients: &[SiteId],
        inputs: &Inputs,
    ) -> Result<Vec<CompletedOp>, String> {
        if let Some(schedule) = &inputs.crashes {
            b.crash_schedule(schedule);
        }
        let mut log = Vec::new();
        open_loop(b, clients, &inputs.history, &mut log)?;
        let n = PREFIX_OPS.min(inputs.closed.len());
        closed_loop(b, clients, &inputs.closed[..n], 4, &mut log)?;
        Ok(log)
    }
    let clients = spec.client_sites();
    let mut ours = spec.build(seed, &inputs.suites);
    let mut theirs = spec.harness(seed, &inputs.suites);
    let a = prefix(&mut ours, &clients, inputs)?;
    let b = prefix(&mut theirs, &clients, inputs)?;
    if format!("{a:?}") != format!("{b:?}") {
        return Err("benchmark-built cluster diverges from HarnessBuilder's log".into());
    }
    if ours.sim.world.stats != theirs.net_stats() {
        return Err("benchmark-built cluster diverges from HarnessBuilder's NetStats".into());
    }
    Ok(())
}

/// Runs a simulated workload for `seconds` of wall time.
pub fn run(name: &str, spec: &SimSpec, seed: u64, seconds: u64, trace: bool) -> Report {
    let mut report = Report::new(name, seed);
    let inputs = spec.inputs(seed);
    if let Err(e) = wiring_check(spec, seed, &inputs) {
        report.fail(e);
        return report;
    }
    report.note("wiring: benchmark-built cluster matches HarnessBuilder on the prefix");

    // A traced run measures the ledger on set-up, closed loop and nominal
    // phase only: the ladder would multiply the recorded spans for no new
    // layer behaviour.
    let ladder = !trace;
    // The first round warms caches and the allocator; its results are
    // the reference every later round must reproduce exactly.
    let reference = match run_round(spec, seed, &inputs, false, ladder) {
        Ok(r) => r,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    let violations = check::oracle(
        &reference.log,
        &inputs.sent,
        &inputs.suites,
        spec.strict,
        spec.options.weak_rep.is_some(),
    );
    report.note(&format!(
        "oracle: {} violation(s) over {} completed ops ({} mode)",
        violations.len(),
        reference.log.len(),
        if spec.strict { "strict" } else { "non-strict" }
    ));
    for v in violations.iter().take(10) {
        report.fail(format!("oracle: {v}"));
    }

    let deadline = Instant::now() + Duration::from_secs(seconds);
    // Later rounds leave only their wall-clock samples; the first traced
    // round is kept whole for the ledger.
    let (mut setups, mut plain_rate, mut traced_rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut ledger_round: Option<Round> = None;
    while Instant::now() < deadline || plain_rate.len() < 3 || (trace && traced_rate.len() < 3) {
        let traced_turn = trace && plain_rate.len() > traced_rate.len();
        let round = match run_round(spec, seed, &inputs, traced_turn, ladder) {
            Ok(r) => r,
            Err(e) => {
                report.fail(e);
                return report;
            }
        };
        if round.digest != reference.digest {
            report.fail(format!(
                "{} round diverged from the reference round: logs or counters differ",
                if traced_turn { "traced" } else { "untraced" }
            ));
            return report;
        }
        setups.push(round.setup.as_secs_f64());
        if traced_turn {
            traced_rate.push(round.ops_per_s());
            ledger_round.get_or_insert(round);
        } else {
            plain_rate.push(round.ops_per_s());
        }
    }
    report.note(&format!(
        "rounds: {} untraced{} after 1 warm-up; every round reproduced the reference digest {:016x}",
        plain_rate.len(),
        if trace { format!(", {} traced", traced_rate.len()) } else { String::new() },
        reference.digest
    ));

    let r = &reference;
    let mut failures = std::collections::BTreeMap::new();
    for o in r.timed_ops().iter().filter(|o| o.outcome.is_err()) {
        *failures
            .entry(format!("{:?} {:?}", o.kind, o.outcome.as_ref().err()))
            .or_insert(0) += 1;
    }
    if !failures.is_empty() {
        report.note(&format!("failed ops by kind and error: {failures:?}"));
    }
    let attempted = r.timed_ops().len() as u64;
    let committed = r.committed();
    let rounds = setups.len() as u64;
    report.attempted = attempted * rounds;
    report.failed = (attempted - committed) * rounds;

    let ops_per_s = plan::median(&plain_rate);
    report.note(&format!(
        "wall: {ops_per_s:.0} committed ops per wall s over the timed phases, median of {} \
         untraced rounds (reported unbounded as wall.ops_per_s in the traced ledger)",
        plain_rate.len()
    ));
    report.e2e(
        Metric::new("setup_s", "s", plan::median(&setups), setups.len() as u64).base(format!(
            "median of {} set-ups: build + {} history writes",
            setups.len(),
            inputs.history.len()
        )),
    );
    let vops = per(r.closed_ok as f64, r.closed_span.as_secs_f64());
    report.e2e(
        Metric::new("vops_per_vs", "1/vs", vops, r.closed_ok).base(format!(
            "{} committed / {:.3} virtual s, window {} x {} clients",
            r.closed_ok,
            r.closed_span.as_secs_f64(),
            spec.window,
            spec.clients
        )),
    );
    let n_open = r.open_ms.len() as u64;
    let p50 = plan::percentile(&r.open_ms, 0.5);
    let p99 = plan::percentile(&r.open_ms, 0.99);
    let at_rate = format!("{n_open} ops at {} ops/vs, virtual", spec.nominal_rate);
    report.e2e(Metric::new("vlat_p50_ms", "ms", p50, n_open).base(at_rate.clone()));
    report.e2e(Metric::new("vlat_p99_ms", "ms", p99, n_open).base(at_rate.clone()));
    let ladder: Vec<(f64, f64)> = r.rungs.iter().map(|g| (g.rate, g.miss)).collect();
    let rung_text: Vec<String> = r
        .rungs
        .iter()
        .map(|g| {
            format!(
                "{}/s:{:.2}%>limit,p99={:.0}",
                g.rate,
                g.miss * 100.0,
                g.p99_ms
            )
        })
        .collect();
    report.e2e(
        Metric::new(
            "vrate_at_slo",
            "1/vs",
            plan::rate_at_limit(&ladder).unwrap_or(0.0),
            (spec.ladder.len() * spec.ladder_ops) as u64,
        )
        .base(format!(
            "p99 limit {} ms; {}",
            spec.p99_limit_ms,
            rung_text.join(" ")
        )),
    );
    report.e2e(
        Metric::new(
            "ok_frac",
            "ratio",
            per(committed as f64, attempted as f64),
            attempted,
        )
        .base(format!(
            "{committed} committed / {attempted} attempted; failed_frac {}",
            per((attempted - committed) as f64, attempted as f64)
        )),
    );
    report.e2e(Metric::peak_rss());

    if let Some(t) = &ledger_round {
        let probe = match spec.thread_probe.as_ref().map(|p| threads::probe(p, seed)) {
            Some(Err(e)) => {
                report.fail(e);
                return report;
            }
            probe => probe.and_then(Result::ok),
        };
        let tr = t.traced.as_ref().expect("a traced round");
        let wall = t.timed;
        layers::report(
            &mut report,
            &Evidence {
                ops: t.timed_ops(),
                before: &t.before,
                after: &t.after,
                spans: &tr.spans,
                tally: tr.tally,
                accounted_frac: tr.tally.total_us() / (wall.as_secs_f64() * 1e6),
                wall,
                recover_busy: tr.recover_busy,
                wal_sync_ms: spec.group_commit.map_or(0.0, SimDuration::as_millis_f64),
                threads: probe,
                rates: (ops_per_s, plan::median(&traced_rate), traced_rate.len()),
            },
        );
    }
    report
}
