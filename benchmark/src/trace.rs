//! Spans recorded by the benchmark around its own calls into each layer.
//! Kept in memory, written out once when the traced run ends.

use std::sync::Mutex;
use std::time::Instant;

use crate::report::Json;

pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one job share this identifier.
    pub job: u64,
}

/// Span sink. A disabled tracer records nothing, which is how end-to-end
/// metrics are measured.
pub struct Tracer {
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer { spans: None }
    }

    pub fn on() -> Tracer {
        Tracer {
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// Record one finished span; returns its index for children to name.
    pub fn span(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> Option<usize> {
        let mut spans = self
            .spans
            .as_ref()?
            .lock()
            .expect("a span push cannot panic");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            job,
        });
        Some(spans.len() - 1)
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64, Option<usize>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.span(name, start, end, parent, job);
        (out, end.duration_since(start).as_secs_f64(), id)
    }

    /// All spans as JSON, times in microseconds from `epoch`.
    pub fn to_json(&self, epoch: Instant) -> Json {
        let spans = match &self.spans {
            Some(s) => s.lock().expect("a span push cannot panic"),
            None => return Json::Arr(Vec::new()),
        };
        Json::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.into())),
                        ("start_us", Json::Num(us(s.start))),
                        ("end_us", Json::Num(us(s.end))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("job", Json::Num(s.job as f64)),
                    ])
                })
                .collect(),
        )
    }
}
