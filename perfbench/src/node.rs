//! The benchmark's node wrapper.
//!
//! [`BenchNode`] hosts the repository's [`SystemNode`] unchanged and
//! implements `wv_net::Node` by forwarding each call, bracketed by a
//! ledger span of the hosted layer. Because the wrapper sits outside the
//! program, the ledger measures the client and server layers without a
//! line added to them. On the thread transport it also reports finished
//! operations to the driver the moment they complete.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use bytes::Bytes;
use wv_core::client::{ClientNode, CompletedOp};
use wv_core::msg::{Msg, ReqId};
use wv_core::node::SystemNode;
use wv_core::server::SuiteServer;
use wv_net::{Node, NodeCtx, SiteId};
use wv_storage::ObjectId;

use crate::ledger::{self, Layer};

/// One operation the driver asks a client to start.
#[derive(Clone, Debug)]
pub enum Op {
    /// A quorum read.
    Read(ObjectId),
    /// A quorum write of a payload unique to this op.
    Write(ObjectId, Bytes),
    /// An atomic multi-suite write, one unique payload per suite.
    Txn(Vec<(ObjectId, Bytes)>),
}

impl Op {
    /// The suite a client files the operation under (a transaction's
    /// first).
    pub fn suite(&self) -> ObjectId {
        match self {
            Op::Read(suite) | Op::Write(suite, _) => *suite,
            Op::Txn(writes) => writes[0].0,
        }
    }

    /// Starts the operation at `client`.
    pub fn start(&self, client: &mut ClientNode, ctx: &mut NodeCtx<'_, Msg>) -> ReqId {
        match self {
            Op::Read(suite) => client.start_read(*suite, ctx),
            Op::Write(suite, value) => client.start_write(*suite, value.clone(), ctx),
            Op::Txn(writes) => client.start_transaction(writes.clone(), ctx),
        }
    }
}

/// A finished operation as the thread driver sees it.
pub struct Finished {
    /// The client's record of the operation.
    pub op: CompletedOp,
    /// When the driver wanted it started.
    pub due: Instant,
    /// When the client finished it.
    pub done: Instant,
}

/// Thread-transport bookkeeping of a client node.
struct ThreadSink {
    out: Sender<Finished>,
    /// Due times of started ops, keyed by (start instant on the protocol
    /// clock, suite): a retry moves an op to a new request id, but its
    /// start instant stays.
    due: HashMap<(u64, u64), VecDeque<Instant>>,
}

/// A repository node plus the benchmark's instrumentation.
pub struct BenchNode {
    inner: SystemNode,
    layer: Layer,
    sink: Option<ThreadSink>,
    time_calls: bool,
    /// Wall time spent inside calls into the hosted node, kept on the
    /// thread transport while the ledger counts (a traced stretch).
    pub busy: Duration,
    /// Wall time spent inside `on_recover`, under the same rule.
    pub recover_busy: Duration,
}

impl BenchNode {
    /// Wraps a representative server.
    pub fn server(server: SuiteServer) -> Self {
        BenchNode::wrap(SystemNode::Server(server), Layer::Server)
    }

    /// Wraps a client.
    pub fn client(client: ClientNode) -> Self {
        BenchNode::wrap(SystemNode::Client(client), Layer::Client)
    }

    fn wrap(inner: SystemNode, layer: Layer) -> Self {
        BenchNode {
            inner,
            layer,
            sink: None,
            time_calls: false,
            busy: Duration::ZERO,
            recover_busy: Duration::ZERO,
        }
    }

    /// Times every call into the hosted node (thread transport, where
    /// each node runs on a thread whose ledger clock is off).
    pub fn time_calls(&mut self) {
        self.time_calls = true;
    }

    /// Reports this client's finished operations to `out` (thread
    /// transport only).
    pub fn report_to(&mut self, out: Sender<Finished>) {
        self.sink = Some(ThreadSink {
            out,
            due: HashMap::new(),
        });
    }

    /// The hosted node.
    pub fn inner(&self) -> &SystemNode {
        &self.inner
    }

    /// The hosted node, mutably.
    pub fn inner_mut(&mut self) -> &mut SystemNode {
        &mut self.inner
    }

    /// Starts `op` at this client, due at `due` on the driver's clock
    /// (thread transport).
    pub fn start_op(&mut self, op: &Op, due: Option<Instant>, ctx: &mut NodeCtx<'_, Msg>) {
        let started = ctx.now().as_micros();
        self.call(|inner| {
            let client = inner.as_client_mut().expect("ops start at client sites");
            op.start(client, ctx)
        });
        if let (Some(sink), Some(due)) = (self.sink.as_mut(), due) {
            let key = (started, op.suite().0);
            sink.due.entry(key).or_default().push_back(due);
        }
        self.forward_finished();
    }

    /// Runs `f` on the hosted node inside a span of its layer.
    fn call<R>(&mut self, f: impl FnOnce(&mut SystemNode) -> R) -> R {
        let timed = (self.time_calls && ledger::counting()).then(Instant::now);
        let span = ledger::enter(self.layer);
        let r = f(&mut self.inner);
        drop(span);
        if let Some(t0) = timed {
            self.busy += t0.elapsed();
        }
        r
    }

    /// Sends the client's newly finished operations to the driver.
    fn forward_finished(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let Some(client) = self.inner.as_client_mut() else {
            return;
        };
        if client.completed.is_empty() {
            return;
        }
        let done = Instant::now();
        for op in client.completed.drain(..) {
            let key = (op.started.as_micros(), op.suite.0);
            let due = match sink.due.get_mut(&key) {
                Some(q) => {
                    let due = q.pop_front().unwrap_or(done);
                    if q.is_empty() {
                        sink.due.remove(&key);
                    }
                    due
                }
                None => done,
            };
            // The driver outlives every run; a closed channel means it
            // already gave up on this run.
            let _ = sink.out.send(Finished { op, due, done });
        }
    }
}

impl Node for BenchNode {
    type Msg = Msg;

    fn on_message(&mut self, from: SiteId, msg: Msg, ctx: &mut NodeCtx<'_, Msg>) {
        self.call(|inner| inner.on_message(from, msg, ctx));
        self.forward_finished();
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_, Msg>) {
        self.call(|inner| inner.on_timer(token, ctx));
        self.forward_finished();
    }

    fn on_crash(&mut self) {
        self.call(|inner| inner.on_crash());
    }

    fn on_recover(&mut self, ctx: &mut NodeCtx<'_, Msg>) {
        let timed = ledger::counting().then(Instant::now);
        self.call(|inner| inner.on_recover(ctx));
        if let Some(t0) = timed {
            self.recover_busy += t0.elapsed();
        }
    }
}
