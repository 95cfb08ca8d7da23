//! The per-layer ledger of a traced run: counts from the transport and
//! protocol counters, wall self time and allocations from the ledger,
//! and virtual time from the program's own span recorder, each divided by
//! the operations it served and printed with its base.

use std::time::Duration;

use wv_analysis::critpath;
use wv_core::client::{ClientStats, CompletedOp};
use wv_core::server::ServerStats;
use wv_net::sim_net::NetStats;
use wv_sim::trace::{SpanKind, SpanRecord, OPEN_END};

use crate::ledger::{Layer, Tally};
use crate::report::{Metric, Report};

/// Scheduler, transport and protocol counters at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Simulator events executed (0 on the thread transport).
    pub events: u64,
    /// Transport counters.
    pub net: NetStats,
    /// Every client's counters, in site order.
    pub clients: Vec<ClientStats>,
    /// Every server's counters, in site order.
    pub servers: Vec<ServerStats>,
    /// WAL flushes summed over servers.
    pub wal_flushes: u64,
}

/// The thread-transport probe's figures, each a median over its rounds.
pub struct ThreadShares {
    /// Rounds measured.
    pub rounds: usize,
    /// Operations attempted over those rounds, and how many failed.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Closed-loop committed operations per wall second.
    pub ops_per_s: f64,
    /// Open-loop latency from due time, p50 and p99, milliseconds.
    pub lat_p50_ms: f64,
    /// See `lat_p50_ms`.
    pub lat_p99_ms: f64,
    /// Client thread's time inside the client layer / phase wall time.
    pub client_busy_frac: f64,
    /// Mean over server threads of the same.
    pub server_busy_frac: f64,
    /// Time inside every node's handlers per operation, microseconds.
    pub handler_us_per_op: f64,
    /// How late the open-loop generator issued, p99, milliseconds.
    pub gen_late_p99_ms: f64,
}

/// Everything a traced run hands the ledger.
pub struct Evidence<'a> {
    /// The timed phases' completed operations.
    pub ops: &'a [CompletedOp],
    /// Counters at the start of the timed phases.
    pub before: &'a Counters,
    /// Counters at their end.
    pub after: &'a Counters,
    /// The program's spans over the timed phases, merged in site order.
    pub spans: &'a [SpanRecord],
    /// Layer self times and allocations.
    pub tally: Tally,
    /// Share of the traced wall time the driver thread's layer spans
    /// account for.
    pub accounted_frac: f64,
    /// Wall time of the timed phases.
    pub wall: Duration,
    /// Wall time inside server recoveries.
    pub recover_busy: Duration,
    /// Virtual duration of one group-commit WAL sync (0 when every
    /// prepare and commit flushes inline).
    pub wal_sync_ms: f64,
    /// The thread-transport probe, on the workload that runs it.
    pub threads: Option<ThreadShares>,
    /// Median untraced and traced committed ops per wall second over the
    /// timed phases, and the traced samples.
    pub rates: (f64, f64, usize),
}

/// `n / d`, or 0 when there is nothing to divide by.
pub fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Sum of time spent in closed spans of `kind`, milliseconds.
fn span_ms(spans: &[SpanRecord], kind: SpanKind) -> f64 {
    spans
        .iter()
        .filter(|s| s.kind == kind && s.end_us != OPEN_END)
        .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
        .sum()
}

/// Adds every per-layer metric to `report`.
pub fn report(report: &mut Report, e: &Evidence) {
    let (a, b) = (e.before, e.after);
    let clients = |f: fn(&ClientStats) -> u64| -> f64 {
        (b.clients.iter().map(f).sum::<u64>() - a.clients.iter().map(f).sum::<u64>()) as f64
    };
    let servers = |f: fn(&ServerStats) -> u64| -> f64 {
        (b.servers.iter().map(f).sum::<u64>() - a.servers.iter().map(f).sum::<u64>()) as f64
    };
    let ops = e.ops.len() as f64;
    let n = e.ops.len() as u64;
    let add = |report: &mut Report, name: &str, unit: &'static str, value: f64, base: String| {
        report.layer(Metric::new(name, unit, value, n).base(base));
    };
    let per_op = |what: &str, x: f64| (per(x, ops), format!("{x:.0} {what} / {ops} ops"));

    let (v, base) = per_op("events", (b.events - a.events) as f64);
    add(report, "sim.events_per_op", "count", v, base);
    for (layer, name) in [
        (Layer::Sim, "sim"),
        (Layer::Client, "client"),
        (Layer::Server, "server"),
        (Layer::Driver, "driver"),
    ] {
        let (v, base) = per_op("us of self time", e.tally.self_us(layer));
        add(report, &format!("{name}.self_us_per_op"), "us", v, base);
        if layer != Layer::Driver {
            let (v, base) = per_op("allocations", e.tally.allocs(layer) as f64);
            add(report, &format!("{name}.allocs_per_op"), "count", v, base);
        }
    }
    add(
        report,
        "ledger.accounted_frac",
        "ratio",
        e.accounted_frac,
        format!(
            "driver-thread layer self time / {:.0} us traced wall time",
            e.wall.as_secs_f64() * 1e6
        ),
    );

    let dropped = |s: &NetStats| s.dropped_link + s.dropped_partition + s.dropped_down;
    let (v, base) = per_op("messages sent", (b.net.sent - a.net.sent) as f64);
    add(report, "net.msgs_per_op", "count", v, base);
    let (v, base) = per_op(
        "timers fired",
        (b.net.timers_fired - a.net.timers_fired) as f64,
    );
    add(report, "net.timers_per_op", "count", v, base);
    let (v, base) = per_op(
        "messages dropped",
        (dropped(&b.net) - dropped(&a.net)) as f64,
    );
    add(report, "net.dropped_per_op", "count", v, base);

    let hits = clients(|s| s.plan_cache_hits);
    let lookups = hits + clients(|s| s.plan_cache_misses);
    add(
        report,
        "client.plan_cache_hit_rate",
        "ratio",
        per(hits, lookups),
        format!("{hits} hits / {lookups} plan lookups"),
    );
    let hits = clients(|s| s.cache_hits);
    let reads = hits + clients(|s| s.cache_misses);
    add(
        report,
        "client.cache_hit_rate",
        "ratio",
        per(hits, reads),
        format!("{hits} hits / {reads} weak-rep reads"),
    );

    // Virtual time on each op's critical path, by protocol phase.
    let profile = critpath::extract(e.spans);
    let phases = ["inquiry", "fetch", "prepare", "commit"];
    let mut phase_ms = [0.0f64; 4];
    for seg in profile.ops.iter().flat_map(|o| &o.segments) {
        for (i, name) in phases.iter().enumerate() {
            let hedge = i == 1 && seg.stack.contains(&"hedge");
            if hedge || seg.stack.contains(name) {
                phase_ms[i] += seg.dur_us as f64 / 1e3;
            }
        }
    }
    let paths = profile.ops.len() as f64;
    for (name, ms) in phases.iter().zip(phase_ms) {
        add(
            report,
            &format!("client.{name}_vms_per_op"),
            "ms",
            per(ms, paths),
            format!("{ms:.1} ms on critical paths / {paths} op paths"),
        );
    }

    let attempts: u64 = e.ops.iter().map(|o| u64::from(o.attempts)).sum();
    let (v, base) = per_op("attempts", attempts as f64);
    add(report, "client.attempts_per_op", "count", v, base);
    let prepares = servers(|s| s.prepares);
    let commits = servers(|s| s.commits);
    add(
        report,
        "txn.prepares_per_commit",
        "count",
        per(prepares, commits),
        format!("{prepares} prepares / {commits} server commits"),
    );
    let no = servers(|s| s.votes_no);
    let votes = no + servers(|s| s.votes_yes);
    add(
        report,
        "server.votes_no_frac",
        "ratio",
        per(no, votes),
        format!("{no} no votes / {votes} votes"),
    );
    let (v, base) = per_op(
        "ms in server lock queues",
        span_ms(e.spans, SpanKind::LockWait),
    );
    add(report, "txn.lock_wait_vms_per_op", "ms", v, base);
    let (v, base) = per_op("busy refusals", servers(|s| s.busy));
    add(report, "server.busy_per_op", "count", v, base);

    let flushes = (b.wal_flushes - a.wal_flushes) as f64;
    add(
        report,
        "storage.flushes_per_commit",
        "count",
        per(flushes, commits),
        format!("{flushes} WAL flushes / {commits} server commits"),
    );
    let batched = servers(|s| s.wal_batched_records);
    let batches = servers(|s| s.wal_batches);
    add(
        report,
        "storage.records_per_flush",
        "count",
        per(batched, batches),
        format!("{batched} deferred records / {batches} group-commit syncs"),
    );
    let syncs = e
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::WalBatch)
        .count() as f64;
    add(
        report,
        "storage.wal_vms_per_op",
        "ms",
        per(syncs * e.wal_sync_ms, ops),
        format!(
            "{syncs} group-commit syncs x {} ms / {ops} ops",
            e.wal_sync_ms
        ),
    );

    let recoveries = servers(|s| s.recoveries);
    let recover_us = e.recover_busy.as_secs_f64() * 1e6;
    add(
        report,
        "server.recover_us",
        "us",
        per(recover_us, recoveries),
        format!("{recover_us:.0} us in on_recover / {recoveries} recoveries"),
    );
    let replayed: u64 = e
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::DiskRecovery)
        .map(|s| s.detail)
        .sum();
    add(
        report,
        "storage.replayed_records_per_recovery",
        "count",
        per(replayed as f64, recoveries),
        format!("{replayed} records replayed / {recoveries} recoveries"),
    );
    let repairs = servers(|s| s.repairs_completed);
    add(
        report,
        "server.repairs_per_recovery",
        "count",
        per(repairs, recoveries),
        format!("{repairs} repairs installed / {recoveries} recoveries"),
    );
    let (v, base) = per_op("phase timeouts", clients(|s| s.timeouts));
    add(report, "client.timeouts_per_op", "count", v, base);
    let (v, base) = per_op("reroutes", clients(|s| s.reroutes));
    add(report, "client.reroutes_per_op", "count", v, base);

    let t = e.threads.as_ref();
    let probe = |f: fn(&ThreadShares) -> f64| t.map_or(0.0, f);
    let base = |what: &str| {
        t.map_or_else(
            || "no thread-transport probe on this workload".to_string(),
            |t| {
                format!(
                    "{what}; median over {} probe rounds, {} ops, {} failed",
                    t.rounds, t.ops, t.failed
                )
            },
        )
    };
    for (name, unit, f, what) in [
        (
            "thread.ops_per_s",
            "1/s",
            (|t: &ThreadShares| t.ops_per_s) as fn(&ThreadShares) -> f64,
            "closed-loop committed ops / wall s",
        ),
        (
            "thread.lat_p50_ms",
            "ms",
            |t| t.lat_p50_ms,
            "open-loop latency from due time, p50",
        ),
        (
            "thread.lat_p99_ms",
            "ms",
            |t| t.lat_p99_ms,
            "open-loop latency from due time, p99",
        ),
        (
            "thread.client_busy_frac",
            "ratio",
            |t| t.client_busy_frac,
            "client-layer time / timed wall time",
        ),
        (
            "thread.server_busy_frac",
            "ratio",
            |t| t.server_busy_frac,
            "server-layer time / timed wall time, mean of servers",
        ),
        (
            "thread.handler_us_per_op",
            "us",
            |t| t.handler_us_per_op,
            "time in every node's handlers / ops",
        ),
        (
            "driver.gen_late_p99_ms",
            "ms",
            |t| t.gen_late_p99_ms,
            "open-loop issue time - due time, p99",
        ),
    ] {
        let samples = t.map_or(0, |t| t.ops);
        report.layer(Metric::new(name, unit, probe(f), samples).base(base(what)));
    }

    let (plain, _, _) = e.rates;
    add(
        report,
        "wall.ops_per_s",
        "1/s",
        plain,
        "median over untraced rounds of committed ops / timed wall s; unbounded: \
         on a shared host it swings with other tenants' load"
            .into(),
    );
    let (v, base) = per_op("program spans", e.spans.len() as f64);
    add(report, "trace.spans_per_op", "count", v, base);
    let (plain, traced, samples) = e.rates;
    report.layer(
        Metric::new(
            "trace.overhead_ratio",
            "ratio",
            per(plain, traced),
            samples as u64,
        )
        .base(format!(
            "untraced {plain:.0} / traced {traced:.0} wall.ops_per_s, medians"
        )),
    );
    report.write_trace(e.spans);
}
