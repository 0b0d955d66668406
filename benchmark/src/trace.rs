//! The harness's own spans: recorded around calls into the program's
//! public functions, kept in memory, and written out as Chrome
//! trace-event JSON when the run ends. Timing happens in both modes;
//! only the traced mode records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` 0 means a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub detail: String,
    /// Recording thread (0 = main, 1.. = load generators).
    pub lane: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A span that has been opened but not closed.
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    detail: String,
    lane: u64,
    start: Instant,
}

/// The span recorder. With recording off, `open`/`close` only read
/// the clock.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Opens a span on `lane` under `parent`; `detail` is only built
    /// when recording.
    pub fn open(
        &self,
        name: &'static str,
        detail: impl FnOnce() -> String,
        parent: u64,
        lane: u64,
    ) -> Open {
        let (id, detail) = if self.recording {
            (self.next_id.fetch_add(1, Ordering::Relaxed), detail())
        } else {
            (0, String::new())
        };
        Open {
            id,
            parent,
            name,
            detail,
            lane,
            start: Instant::now(),
        }
    }

    /// Closes a span and returns its duration in milliseconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        let ms = end.duration_since(open.start).as_secs_f64() * 1e3;
        if self.recording {
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                detail: open.detail,
                lane: open.lane,
                start_us: open.start.duration_since(self.epoch).as_secs_f64() * 1e6,
                end_us: end.duration_since(self.epoch).as_secs_f64() * 1e6,
            };
            self.spans.lock().expect("span buffer lock").push(span);
        }
        ms
    }

    /// Times `f` as a span on lane 0; returns its result and duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        detail: impl FnOnce() -> String,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, detail, parent, 0);
        let out = f();
        (out, self.close(open))
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Recorded spans.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock").len()
    }

    /// The cost of recording one span, in microseconds, measured on a
    /// throwaway recorder.
    pub fn span_cost_us() -> f64 {
        const N: u64 = 20_000;
        let probe = Tracer::new(true);
        let t = Instant::now();
        for i in 0..N {
            let open = probe.open("probe", || format!("{i}"), 0, 0);
            std::hint::black_box(probe.close(open));
        }
        t.elapsed().as_secs_f64() * 1e6 / N as f64
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span,
    /// with its id and parent in `args`, plus a name per lane.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut lanes: Vec<u64> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut events: Vec<String> = lanes
            .iter()
            .map(|lane| {
                let name = if *lane == 0 { "main".to_string() } else { format!("client-{lane}") };
                format!("{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}")
            })
            .collect();
        events.extend(spans.iter().map(|s| {
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"detail\":\"{}\"}}}}",
                s.lane,
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                s.parent,
                s.detail.replace('\\', "\\\\").replace('"', "\\\"")
            )
        }));
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Share of each parent span's wall time covered by the union of its
/// direct children, over every span named `parent_name`, in percent.
pub fn coverage_pct(spans: &[Span], parent_name: &str) -> Option<f64> {
    let mut covered = 0.0;
    let mut wall = 0.0;
    for parent in spans.iter().filter(|s| s.name == parent_name) {
        let mut kids: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == parent.id)
            .map(|s| (s.start_us, s.end_us))
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut reach = parent.start_us;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        wall += parent.end_us - parent.start_us;
    }
    (wall > 0.0).then(|| 100.0 * covered / wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            detail: String::new(),
            lane: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn coverage_counts_overlapping_children_once() {
        let spans = vec![
            span(1, 0, "op", 0.0, 100.0),
            span(2, 1, "a", 0.0, 40.0),
            span(3, 1, "b", 20.0, 60.0),
            span(4, 3, "grandchild", 20.0, 100.0),
        ];
        assert_eq!(coverage_pct(&spans, "op"), Some(60.0));
        assert_eq!(coverage_pct(&spans, "missing"), None);
    }

    #[test]
    fn recording_keeps_parents_and_exports_chrome_json() {
        let tr = Tracer::new(true);
        let op = tr.open("op", String::new, 0, 0);
        let (_, ms) = tr.time("child", || "x\"y".to_string(), op.id, || 1 + 1);
        let op_id = op.id;
        assert!(tr.close(op) >= ms);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, op_id);
        let v: serde_json::Value = serde_json::from_str(&tr.chrome_json()).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn a_silent_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let (_, ms) = tr.time(
            "x",
            || unreachable!("detail built while not recording"),
            0,
            || (),
        );
        assert!(ms >= 0.0);
        assert_eq!(tr.len(), 0);
    }
}
