//! Spans recorded from the benchmark's own files, around the calls into
//! each layer's public functions. Nothing inside the program is
//! instrumented. Spans stay in memory until the child that recorded
//! them reports; the parent writes them to `out/trace.json` at exit.

use std::time::Instant;

use crate::json::Json;

/// One timed call. Times are host seconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Records nested spans. A tracer that is off records nothing, so the
/// one script that runs both ways (`pfs-vcr`) pays a branch per phase,
/// not a clock read, on the untraced ops that end-to-end metrics use.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`, a child of whichever span
    /// is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total host seconds spent in spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> Option<f64> {
    let mut hits = spans.iter().filter(|s| s.name == name).peekable();
    hits.peek()?;
    Some(hits.map(|s| s.end_s - s.start_s).sum())
}

/// A span's duration minus the part its child spans cover.
pub fn self_s(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.end_s - s.start_s)
        .sum();
    spans[id].end_s - spans[id].start_s - children
}

/// The spans as `trace.json` carries them: every span of one traced op
/// shares `workload` and `op`, and names its parent by index.
pub fn to_json(spans: &[Span], workload: &str, op: u64) -> Vec<Json> {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("workload", Json::str(workload)),
                ("op", Json::Num(op as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
                ("self_s", Json::Num(self_s(spans, id))),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut tr = Tracer::new(true);
        let got = tr.span("op", |tr| {
            tr.span("a", |_| ());
            tr.span("b", |tr| tr.span("c", |_| 7))
        });
        assert_eq!(got, 7);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("op", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]
        );
        for s in tr.spans() {
            assert!(s.end_s >= s.start_s, "{s:?}");
        }
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("op", |tr| tr.span("a", |_| 3)), 3);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            span("op", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("a", Some(0), 5.0, 9.0),
            span("b", Some(2), 6.0, 7.0),
        ];
        assert_eq!(self_s(&spans, 0), 3.0);
        assert_eq!(self_s(&spans, 2), 3.0);
        assert_eq!(total_s(&spans, "a"), Some(7.0));
        assert_eq!(total_s(&spans, "none"), None);
        let json = to_json(&spans, "metro-steady", 3);
        assert_eq!(json[3].get("parent").unwrap().as_f64(), Some(2.0));
        assert_eq!(json[0].get("parent"), Some(&Json::Null));
        assert_eq!(json[0].get("self_s").unwrap().as_f64(), Some(3.0));
    }
}
