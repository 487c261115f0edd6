//! In-memory span recorder for the traced run.
//!
//! Every timed public call goes through [`Spans::call`], which always
//! measures the call's host latency and, while recording is on, also
//! keeps a span: name, start, end, parent span and the trace-record op
//! id. Spans stay in memory until the run ends; then [`Spans::layers`]
//! folds them into per-name busy and self time (a span's self time is
//! its duration minus the time its child spans cover) and
//! [`Spans::write_csv`] writes them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: Option<usize>,
}

/// Busy and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub spans: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub struct Spans {
    base: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            base: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Start a recorded section: until [`Spans::end_section`], calls are
    /// kept as children of one root span named `root`, whose self time
    /// is the benchmark's own loop time outside program calls.
    pub fn begin_section(&mut self, root: &'static str) {
        assert!(self.open.is_empty(), "sections do not nest");
        self.recording = true;
        self.open_span(root, None);
    }

    pub fn end_section(&mut self) {
        self.close_span();
        assert!(self.open.is_empty(), "unbalanced spans");
        self.recording = false;
    }

    fn open_span(&mut self, name: &'static str, op: Option<usize>) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close_span(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("a span is open");
        self.spans[id].end_ns = end_ns;
    }

    /// Time `f` as one call of `name`, returning its result and host
    /// latency in ns. `op` is the trace-record index the call serves.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        op: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        if !self.recording {
            let start = Instant::now();
            let result = f();
            let ns =
                u64::try_from(start.elapsed().as_nanos()).expect("call shorter than 584 years");
            return (result, ns);
        }
        self.open_span(name, op);
        let result = f();
        self.close_span();
        let span = self.spans.last().expect("just recorded");
        (result, span.end_ns - span.start_ns)
    }

    /// Busy and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = layers.entry(span.name).or_default();
            let busy = span.end_ns - span.start_ns;
            layer.spans += 1;
            layer.busy_ns += busy;
            layer.self_ns += busy - children;
        }
        layers
    }

    /// Host time covered by recorded sections.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Every span as CSV: `id,parent,name,op,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id,parent,name,op,start_ns,end_ns\n");
        let opt = |v: Option<usize>| v.map_or(String::new(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id},{},{},{},{},{}",
                opt(s.parent),
                s.name,
                opt(s.op),
                s.start_ns,
                s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
