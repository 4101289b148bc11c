//! In-memory span recorder for the traced run.
//!
//! Each span carries its name, start, end and the id of the span that
//! caused it (0 for a root). Threads record into a private
//! [`LocalTrace`] buffer and hand it to the shared [`Tracer`] when they
//! finish, so recording costs one `Instant::now` per boundary and no
//! lock. The spans are written out once, after the measurement.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The shared sink every thread's buffer drains into.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording buffer for the calling thread.
    pub fn local(&self) -> LocalTrace<'_> {
        LocalTrace {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// Total duration per span name, in seconds.
    pub fn busy_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.lock().expect("no recorder panicked").iter() {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Every span with `name`, in recording order per thread.
    #[cfg(test)]
    pub fn spans_named(&self, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("no recorder panicked");
        spans.iter().filter(|s| s.name == name).copied().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("no recorder panicked").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                r#"{{"name":"{}","id":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A thread's private span buffer; flushed into the tracer on drop.
pub struct LocalTrace<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl LocalTrace<'_> {
    fn now_ns(&self) -> u64 {
        self.tracer.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`; returns the handle [`Self::close`] takes.
    pub fn open(&mut self, name: &'static str, parent: u64) -> usize {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close the span `open` returned.
    pub fn close(&mut self, handle: usize) {
        self.spans[handle].end_ns = self.now_ns();
    }

    /// The id of the span `open` returned (to parent children on it).
    pub fn id(&self, handle: usize) -> u64 {
        self.spans[handle].id
    }

    /// Record `f` as one span under `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let h = self.open(name, parent);
        let r = f();
        self.close(h);
        r
    }
}

impl Drop for LocalTrace<'_> {
    fn drop(&mut self) {
        // a poisoned sink only loses spans; never panic in drop
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_name() {
        let t = Tracer::new();
        {
            let mut l = t.local();
            let root = l.open("pass", 0);
            let root_id = l.id(root);
            l.span("step", root_id, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            l.span("step", root_id, || ());
            l.close(root);
        }
        let steps = t.spans_named("step");
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|s| s.parent != 0));
        let busy = t.busy_s();
        assert!(busy["pass"] >= busy["step"]);
        assert!(busy["step"] >= 0.002);
    }
}
