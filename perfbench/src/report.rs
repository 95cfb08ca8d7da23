//! The run report: a readable table with every metric's unit, sample
//! count and base, then the one-line JSON result the last line carries.

use std::fmt::Write as _;
use std::path::PathBuf;

use wv_sim::trace::SpanRecord;

/// One reported number.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: u64,
    base: String,
}

impl Metric {
    /// A metric measured over `samples` samples.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            // An empty float sum is -0.0; report it as 0.
            value: value + 0.0,
            samples,
            base: String::new(),
        }
    }

    /// What the value was computed from (every ratio gives its base).
    pub fn base(mut self, base: String) -> Self {
        self.base = base;
        self
    }

    /// Peak resident memory of this process so far.
    pub fn peak_rss() -> Self {
        let kb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .unwrap_or(f64::NAN);
        Metric::new("peak_rss_mb", "MB", kb / 1024.0, 1)
            .base("VmHWM of the benchmark process".into())
    }
}

/// Everything one run prints.
pub struct Report {
    workload: String,
    seed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
    /// Operations attempted over the measured rounds.
    pub attempted: u64,
    /// Operations that failed or gave up over the measured rounds.
    pub failed: u64,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &str, seed: u64) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            errors: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Records a failed output check; the run is then not correct.
    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    /// Adds a line of context to the readable report.
    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, m: Metric) {
        self.e2e.push(m);
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, m: Metric) {
        self.layers.push(m);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.attempted > 0
            && self
                .e2e
                .iter()
                .chain(&self.layers)
                .all(|m| m.value.is_finite())
    }

    /// Writes the traced round's program spans as JSONL, the input
    /// `wv-inspect critpath` reads, under `perfbench/out/`.
    pub fn write_trace(&mut self, spans: &[SpanRecord]) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.jsonl", self.workload));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, wv_sim::trace::to_jsonl(spans)));
        match written {
            Ok(()) => self.note(&format!(
                "trace: {} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => self.fail(format!("writing {}: {e}", path.display())),
        }
    }

    /// Prints the readable report and, as the last line, the JSON result
    /// carrying the end-to-end metrics (`trace == false`) or the
    /// per-layer ones.
    pub fn print(&self, trace: bool) {
        println!("workload {} seed {}", self.workload, self.seed);
        println!("host {}", host());
        for n in &self.notes {
            println!("  {n}");
        }
        for e in &self.errors {
            println!("  FAILED CHECK: {e}");
        }
        // A traced run skips the ladder, so only its ledger is printed.
        let (title, chosen) = if trace {
            ("per-layer", &self.layers)
        } else {
            ("end-to-end", &self.e2e)
        };
        println!("{title} metrics:");
        for m in chosen {
            println!(
                "  {:<38} {:>14.6} {:<6} n={:<8} {}",
                m.name, m.value, m.unit, m.samples, m.base
            );
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in chosen.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The machine a result was measured on.
pub fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={cpus} cpu=\"{model}\" rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}
