//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every op of a traced phase is one request: a root span (`op.*`) and a
//! child span per public layer call it was split into. Spans stay in
//! memory and are written to a file when the run ends; the per-layer
//! durations are also kept as samples, by span name, for the metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the span file (samples are kept for all).
const MAX_SPANS: usize = 1 << 19;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_req: u64,
    next_id: u32,
    pub spans: Vec<Span>,
    /// Duration samples in µs by span name, plus derived samples.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            next_req: 0,
            next_id: 0,
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since `epoch` (callable inside a closure that cannot
    /// borrow the tracer).
    pub fn since(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        Self::since(self.epoch)
    }

    /// A new request id.
    pub fn begin(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Records a span and its duration sample; returns the span id.
    pub fn record(
        &mut self,
        req: u64,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                req,
                id,
                parent: parent.unwrap_or(NO_PARENT),
                name,
                start_ns,
                end_ns,
            });
        }
        self.sample(name, end_ns.saturating_sub(start_ns) as f64 / 1e3);
        id
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Samples of one span name (empty when the layer was not reached).
    pub fn take(&mut self, name: &str) -> Vec<f64> {
        self.samples.remove(name).unwrap_or_default()
    }

    /// Writes the spans as tab-separated lines:
    /// `req id parent name start_ns end_ns` (parent `-` for a root).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{:x}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
