//! Harness-side spans: the benchmark times the calls it makes into the
//! program from outside. Each thread records into its own [`Trace`] (no
//! shared lock on the hot path); the traces are merged and written out once
//! the run is over.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    /// Index of the enclosing span in the same thread's list, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to (0 = not part of a request).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Disabled, every method is a plain call
/// through: untraced runs pay one branch per span site.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Trace {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, thread: u32) -> Self {
        Self::new(self.enabled, self.epoch, thread)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between phases (the traced run measures
    /// one untraced and one traced half to report the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before the matching [`Trace::end`] become
    /// its children. Returns `None` when recording is off.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            thread: self.thread,
            parent: self.stack.last().copied(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Some(index)
    }

    /// Closes the span [`Trace::begin`] opened.
    pub fn end(&mut self, span: Option<u32>) {
        if let Some(index) = span {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Trace) -> R,
    ) -> R {
        let span = self.begin(name, request);
        let out = f(self);
        self.end(span);
        out
    }

    /// Records a span whose interval was measured elsewhere — by the program
    /// itself (`QueryStats` stage times) or across threads (submit → answer).
    /// It nests under the span currently open on this thread.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            thread: self.thread,
            parent: self.stack.last().copied(),
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Absorbs the spans of a joined worker thread.
    pub fn merge(&mut self, other: Trace) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span covered by its direct children.
    pub self_ns: u64,
}

/// Self time per span name: a span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let duration = span.end_ns - span.start_ns;
        let totals = out.entry(span.name).or_default();
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(child_ns[i]);
    }
    out
}

/// Share of `wall_ns` covered by the main thread's top-level spans.
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.thread == 0 && s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    covered as f64 / wall_ns.max(1) as f64
}

/// Serializes the spans as one JSON document (see `README.md`, "Reading the
/// trace file").
pub fn to_json(workload: &str, seed: u64, wall_ns: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    out.push_str(&format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"wall_ns\":{wall_ns},\"unit\":\"ns\",\"spans\":[\n"
    ));
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"parent\":{parent},\"thread\":{},\"request\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}{}\n",
            s.thread,
            s.request,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}
