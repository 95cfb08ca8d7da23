//! Cross-crate integration: a write is acknowledged at its durable commit
//! decision, before any participant has applied it.
//!
//! The acknowledgement cannot expose the gap to a reader. Because
//! r + w > N, every read quorum holds a write-quorum participant, which
//! has either applied the Commit or still holds the prepared write; a
//! prepared participant parks version inquiries until its Commit lands,
//! and one that crashed re-takes the commit lock of its in-doubt write on
//! recovery. So a reader waits instead of reading the old version.

use weighted_voting::prelude::*;

const WRITER: SiteId = SiteId(3);
const READER: SiteId = SiteId(4);

fn cluster(net: NetConfig, group_commit: Option<SimDuration>) -> Harness {
    let mut b = HarnessBuilder::new()
        .seed(21)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .client()
        .quorum(QuorumSpec::majority(3))
        .net(net);
    if let Some(latency) = group_commit {
        b = b.group_commit(latency);
    }
    b.build().expect("legal")
}

/// Servers holding the prepared, not yet committed write.
fn prepared_at(h: &Harness) -> Vec<SiteId> {
    SiteId::all(3)
        .filter(|s| {
            h.cluster().nodes[s.index()]
                .as_server()
                .is_some_and(|srv| srv.pending_writes() == 1)
        })
        .collect()
}

/// Steps in 1 ms slices until the writer's operation completes.
fn await_ack(h: &mut Harness) -> Version {
    for _ in 0..10_000 {
        h.advance(SimDuration::from_millis(1));
        if let Some(done) = h.drain_completed(WRITER).pop() {
            return done.outcome.expect("the write commits").version;
        }
    }
    panic!("the write never completed");
}

#[test]
fn a_read_issued_at_the_acknowledgement_sees_the_write() {
    // Constant 50 ms links, except that the reader reaches site 2, which
    // is outside the write quorum, in 10 ms: it answers first and is the
    // cheapest fetch target, so a participant answering at the old
    // version would complete a quorum at v0 and the read would fetch v0.
    // Without group commit the Commits land at 250 ms, just ahead of the
    // read's inquiries. With a 5 ms sync they apply at 260 ms, so the
    // inquiries reaching the two participants at 255 ms are parked.
    for group_commit in [None, Some(SimDuration::from_millis(5))] {
        let mut net = NetConfig::uniform(5, LatencyModel::constant_millis(50));
        net.set_link_symmetric(READER, SiteId(2), LatencyModel::constant_millis(10));
        let mut h = cluster(net, group_commit);
        let suite = h.suite_id();
        h.enqueue_write(WRITER, suite, b"new".to_vec(), h.now());
        assert_eq!(await_ack(&mut h), Version(1));
        // Inquiry and prepare round trips (plus the sync that makes the
        // yes votes durable): the commit round is not on the path.
        let sync = group_commit.unwrap_or(SimDuration::ZERO);
        assert_eq!(
            h.now(),
            SimTime::ZERO + SimDuration::from_millis(200) + sync
        );
        assert_eq!(
            prepared_at(&h),
            vec![SiteId(0), SiteId(1)],
            "the Commits are still in flight"
        );
        h.enqueue_read(READER, suite, h.now());
        h.run_until_quiet(1_000_000);
        let read = h.drain_completed(READER).pop().expect("the read finished");
        let ok = read.outcome.expect("the read succeeds");
        assert_eq!(ok.version, Version(1), "group commit {group_commit:?}");
        assert_eq!(ok.value.as_deref(), Some(&b"new"[..]));
        assert_eq!(read.attempts, 1);
        assert_eq!(h.client_stats(READER).expect("client").timeouts, 0);
    }
}

#[test]
fn a_participant_crashing_before_its_commit_never_serves_the_old_version() {
    // The reader reaches site 0 only over a slow link, so while site 1 is
    // down its read quorum must include site 0, and after site 1 recovers
    // sites 1 and 2 answer first: had site 1 come back without the lock
    // on its in-doubt write, they would form a quorum at the old version.
    let mut net = NetConfig::uniform(5, LatencyModel::constant_millis(50));
    net.set_link_symmetric(READER, SiteId(0), LatencyModel::constant_millis(400));
    let mut h = cluster(net, None);
    let suite = h.suite_id();
    h.enqueue_write(WRITER, suite, b"new".to_vec(), h.now());
    assert_eq!(await_ack(&mut h), Version(1));
    // Both participants voted yes; the Commits land at 250 ms.
    assert_eq!(prepared_at(&h), vec![SiteId(0), SiteId(1)]);
    h.advance(SimDuration::from_millis(25));
    h.crash(SiteId(1));
    let down = [0, 500, 1_500];
    let up = [0, 50, 300, 3_000, 8_000];
    let base = h.now();
    for ms in down {
        h.enqueue_read(READER, suite, base + SimDuration::from_millis(ms));
    }
    h.advance(SimDuration::from_millis(2_500));
    h.recover(SiteId(1));
    let back = h.now();
    for ms in up {
        h.enqueue_read(READER, suite, back + SimDuration::from_millis(ms));
    }
    h.run_until_quiet(1_000_000);
    let reads = h.drain_completed(READER);
    assert_eq!(reads.len(), down.len() + up.len());
    for read in reads {
        let ok = read.outcome.expect("every read succeeds");
        assert_eq!(ok.version, Version(1), "read started at {}", read.started);
        assert_eq!(ok.value.as_deref(), Some(&b"new"[..]));
    }
    // The recovered participant learned the decision and applied it.
    assert_eq!(h.version_at(SiteId(1), suite), Some(Version(1)));
}
