//! Stage timing for the driver: the set-up clock every run keeps, and
//! the in-memory span record of traced runs.
//!
//! Untraced passes time only the set-up stages (two `Instant` reads
//! each); every other stage runs bare. Traced passes record one span per
//! stage — name, start, end, parent span and job id — and keep them in
//! memory until the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified stage name (`core.dp`, `sim.verify`, …).
    pub name: &'static str,
    /// Start, relative to the run's origin.
    pub start: Duration,
    /// End, relative to the run's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to (unique within a run).
    pub job: u32,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Stage clock of one run.
pub struct Recorder {
    origin: Instant,
    traced: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
    setup: Duration,
}

impl Recorder {
    /// A recorder whose span times count from `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            traced: false,
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
            setup: Duration::ZERO,
        }
    }

    /// Whether stages are currently recorded as spans.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Switch span recording on or off (between passes).
    pub fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    /// Set the job id stamped on subsequent spans.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Run `f` as the stage `name`. Set-up stages add their wall time to
    /// the set-up clock in every pass; in traced passes every stage also
    /// records a span nested under the innermost open one.
    pub fn stage<T>(&mut self, name: &'static str, setup: bool, f: impl FnOnce() -> T) -> T {
        if !self.traced && !setup {
            return f();
        }
        let start = Instant::now();
        let span = self.traced.then(|| self.open_at(name, start));
        let out = f();
        let end = Instant::now();
        if let Some(idx) = span {
            self.close_at(idx, end);
        }
        if setup {
            self.setup += end - start;
        }
        out
    }

    /// Open a span by hand (for spans enclosing several stages).
    pub fn open(&mut self, name: &'static str) -> usize {
        self.open_at(name, Instant::now())
    }

    /// Close a span opened with [`open`](Recorder::open).
    pub fn close(&mut self, idx: usize) {
        self.close_at(idx, Instant::now());
    }

    fn open_at(&mut self, name: &'static str, at: Instant) -> usize {
        let t = at - self.origin;
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    /// Close span `idx` and any span still open inside it (a stage that
    /// panicked never closed its own).
    fn close_at(&mut self, idx: usize, at: Instant) {
        let t = at - self.origin;
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = t;
            if top == idx {
                break;
            }
        }
    }

    /// Set-up time accumulated since the last call, resetting the clock.
    pub fn take_setup(&mut self) -> Duration {
        std::mem::take(&mut self.setup)
    }

    /// Number of spans recorded so far (a pass's spans are the slice
    /// from its starting length).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span record as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"job\":{}}}\n",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                parent,
                s.job
            ));
        }
        out
    }
}

/// Self time per span name over `spans`, in seconds: each span's
/// duration minus the durations of its direct children (stages of one
/// job run sequentially, so children never overlap). `first` is the
/// index of `spans[0]` in the full record, which parent indices use.
pub fn self_times(spans: &[Span], first: usize) -> BTreeMap<&'static str, f64> {
    let mut child = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first)) {
            if p < child.len() {
                child[p] += s.duration();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        *out.entry(s.name).or_insert(0.0) += s.duration().saturating_sub(c).as_secs_f64();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let ms = Duration::from_millis;
        let spans = vec![
            Span {
                name: "job",
                start: ms(0),
                end: ms(10),
                parent: None,
                job: 0,
            },
            Span {
                name: "a",
                start: ms(1),
                end: ms(4),
                parent: Some(0),
                job: 0,
            },
            Span {
                name: "b",
                start: ms(4),
                end: ms(9),
                parent: Some(0),
                job: 0,
            },
        ];
        let t = self_times(&spans, 0);
        assert!((t["job"] - 0.002).abs() < 1e-9);
        assert!((t["a"] - 0.003).abs() < 1e-9);
        assert!((t["b"] - 0.005).abs() < 1e-9);
    }

    #[test]
    fn untraced_stages_record_only_setup() {
        let mut rec = Recorder::new(Instant::now());
        rec.stage("x", false, || ());
        rec.stage("y", true, || std::thread::sleep(Duration::from_millis(1)));
        assert_eq!(rec.span_count(), 0);
        assert!(rec.take_setup() >= Duration::from_millis(1));
        rec.set_traced(true);
        let job = rec.open("job");
        rec.stage("x", false, || ());
        rec.close(job);
        assert_eq!(rec.span_count(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }
}
