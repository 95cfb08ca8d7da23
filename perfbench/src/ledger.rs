//! The per-layer ledger: wall self-time and heap allocations, charged to
//! the layer whose call is running.
//!
//! The benchmark brackets every call it makes into a layer with
//! [`enter`]: the driver around calls into the `Sim` run functions, the
//! node wrapper around every call into `ClientNode` and `SuiteServer`.
//! A thread keeps a stack of open layers. Time between two boundaries is
//! charged to the layer on top of the stack, so a layer's total is its
//! self time: its spans' durations minus the parts its child spans
//! cover. Allocations are charged the same way, by a counting global
//! allocator that reads the thread's current layer.
//!
//! Both are off unless a traced round turns them on, so untraced rounds
//! pay one thread-local read per boundary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A layer of the system under test, named after the repository's modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Threads the benchmark does not own (`wv-net::thread_net` router
    /// and `runner` loops): the default for every thread.
    Thread = 0,
    /// The benchmark's own load generator.
    Driver = 1,
    /// `wv-sim` scheduling plus `wv-net::sim_net` dispatch and routing.
    Sim = 2,
    /// `wv-core::client`.
    Client = 3,
    /// `wv-core::server`, with the `wv-txn` and `wv-storage` work it calls.
    Server = 4,
}

/// Number of layers.
pub const LAYERS: usize = 5;

const ALL: [Layer; LAYERS] = [
    Layer::Thread,
    Layer::Driver,
    Layer::Sim,
    Layer::Client,
    Layer::Server,
];

/// Deepest nesting of layer spans a thread can hold.
const MAX_DEPTH: usize = 16;

thread_local! {
    /// The layer whose call is running on this thread; read by the
    /// allocator, so it must stay a const-initialised `Cell`.
    static CURRENT: Cell<u8> = const { Cell::new(Layer::Thread as u8) };
    static CLOCK: RefCell<Clock> = const { RefCell::new(Clock::OFF) };
}

/// Whether the counting allocator records anything.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: [AtomicU64; LAYERS] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

struct Clock {
    running: bool,
    stack: [Layer; MAX_DEPTH],
    depth: usize,
    last: Option<Instant>,
    self_ns: [u64; LAYERS],
    spans: u64,
}

impl Clock {
    const OFF: Clock = Clock {
        running: false,
        stack: [Layer::Thread; MAX_DEPTH],
        depth: 0,
        last: None,
        self_ns: [0; LAYERS],
        spans: 0,
    };

    fn charge(&mut self, now: Instant) {
        if let Some(last) = self.last {
            let top = self.stack[self.depth - 1] as usize;
            self.self_ns[top] += now.saturating_duration_since(last).as_nanos() as u64;
        }
        self.last = Some(now);
    }
}

/// What one traced stretch of a thread's work cost, per layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Wall self time, nanoseconds, indexed by `Layer as usize`.
    pub self_ns: [u64; LAYERS],
    /// Heap allocations, indexed by `Layer as usize` (all threads).
    pub allocs: [u64; LAYERS],
    /// Layer spans opened.
    pub spans: u64,
}

impl Tally {
    /// Self time of `layer`, microseconds.
    pub fn self_us(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e3
    }

    /// Allocations charged to `layer`.
    pub fn allocs(&self, layer: Layer) -> u64 {
        self.allocs[layer as usize]
    }

    /// Sum of every layer's self time, microseconds.
    pub fn total_us(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e3
    }
}

/// Starts the ledger on this thread with `root` as the bottom span, and
/// turns on allocation counting for every thread.
pub fn start(root: Layer) {
    for a in &ALLOCS {
        a.store(0, Ordering::Relaxed);
    }
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        *c = Clock::OFF;
        c.running = true;
        c.stack[0] = root;
        c.depth = 1;
        c.last = Some(Instant::now());
    });
    CURRENT.with(|c| c.set(root as u8));
    COUNTING.store(true, Ordering::SeqCst);
}

/// Stops the ledger on this thread and returns what it recorded.
pub fn stop() -> Tally {
    COUNTING.store(false, Ordering::SeqCst);
    let mut tally = Tally::default();
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        c.charge(Instant::now());
        tally.self_ns = c.self_ns;
        tally.spans = c.spans;
        *c = Clock::OFF;
    });
    CURRENT.with(|c| c.set(Layer::Thread as u8));
    for l in ALL {
        tally.allocs[l as usize] = ALLOCS[l as usize].load(Ordering::Relaxed);
    }
    tally
}

/// Whether allocation counting is on (a traced stretch is running).
pub fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// An open layer span; closing it (on drop) returns the thread to the
/// enclosing layer.
#[must_use = "the span closes when dropped"]
pub struct Span {
    prev: Option<u8>,
}

/// Opens a span of `layer` on this thread. A no-op unless allocation
/// counting is on; self time is kept only on a thread that called
/// [`start`].
pub fn enter(layer: Layer) -> Span {
    if !counting() {
        return Span { prev: None };
    }
    let prev = CURRENT.with(|c| c.replace(layer as u8));
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        if c.running && c.depth < MAX_DEPTH {
            c.charge(Instant::now());
            let d = c.depth;
            c.stack[d] = layer;
            c.depth += 1;
            c.spans += 1;
        }
    });
    Span { prev: Some(prev) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(prev) = self.prev else { return };
        CLOCK.with(|c| {
            let mut c = c.borrow_mut();
            if c.running && c.depth > 1 {
                c.charge(Instant::now());
                c.depth -= 1;
            }
        });
        CURRENT.with(|c| c.set(prev));
    }
}

/// The benchmark binary's allocator: the system allocator, plus a count
/// of allocations per layer while a traced stretch runs.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and a const-initialised
// thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        let layer = CURRENT.try_with(Cell::get).unwrap_or(Layer::Thread as u8);
        ALLOCS[layer as usize].fetch_add(1, Ordering::Relaxed);
    }
}
