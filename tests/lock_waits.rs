//! Cross-crate integration: a read that meets a commit lock waits for it.
//!
//! In the paper, obtaining a version number and setting the read lock are
//! one step, and a read lock waits behind a write lock. A representative
//! holding a prepared write therefore holds a version inquiry until the
//! write commits or aborts and then answers it. Because r + w > N, the
//! sites outside the write quorum cannot form a read quorum on their own,
//! so a refused inquiry would stall the read for the whole phase timeout.

use weighted_voting::prelude::*;

#[test]
fn a_read_overlapping_a_prepared_write_waits_for_the_commit_not_the_timeout() {
    let mut h = HarnessBuilder::new()
        .seed(12)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .client()
        .quorum(QuorumSpec::majority(3))
        .net(NetConfig::uniform(5, LatencyModel::constant_millis(50)))
        .build()
        .expect("legal");
    let suite = h.suite_id();
    let (writer, reader) = (h.clients()[0], h.clients()[1]);
    // The write's inquiry round trip ends at 100 ms and its prepares land
    // at 150 ms; stop just after, with the write prepared at a quorum.
    let start = h.now();
    h.enqueue_write(writer, suite, b"new".to_vec(), start);
    h.advance(SimDuration::from_millis(160));
    let prepared = SiteId::all(3)
        .filter(|s| {
            h.cluster().nodes[s.index()]
                .as_server()
                .is_some_and(|srv| srv.pending_writes() == 1)
        })
        .count();
    assert_eq!(prepared, 2, "the write holds a write quorum's commit locks");
    h.enqueue_read(reader, suite, h.now());
    h.run_until_quiet(1_000_000);
    let read = h.drain_completed(reader).pop().expect("the read finished");
    let ok = read.outcome.expect("the read succeeds");
    assert_eq!(
        ok.version,
        Version(1),
        "the read sees the write it waited for"
    );
    assert_eq!(ok.value.as_deref(), Some(&b"new"[..]));
    let latency = read.finished.since(read.started);
    let phase_timeout = ClientOptions::default().phase_timeout;
    assert!(
        latency < SimDuration::from_millis(500) && latency < phase_timeout,
        "read took {latency:?}"
    );
    let stats = h.client_stats(reader).expect("client");
    assert_eq!(stats.timeouts, 0);
    assert_eq!(read.attempts, 1);
}
