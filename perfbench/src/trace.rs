//! In-memory spans around the calls the benchmark makes into each layer,
//! written once at exit as Chrome trace-event JSON (one track per layer),
//! which chrome://tracing and Perfetto open.

use crate::stats::{string, Obj};
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    track: usize,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call, so untraced runs share the traced runs' code path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tracks: Vec<String>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; close it with [`Tracer::end`].
#[derive(Debug)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            tracks: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` on track `track`; its parent is the
    /// innermost span still open.
    pub fn begin(&mut self, track: &str, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let track = match self.tracks.iter().position(|t| t == track) {
            Some(i) => i,
            None => {
                self.tracks.push(track.to_string());
                self.tracks.len() - 1
            }
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            track,
            parent: self.open.last().copied(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else {
            return;
        };
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[id];
        span.dur_us = now - span.start_us;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.remove(pos);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, track: &str, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(track, name);
        let out = f();
        self.end(open);
        out
    }

    /// Durations (ms) of every span named `name` on `track` or on its
    /// sub-tracks (`track/...`).
    pub fn durations_ms(&self, track: &str, name: &str) -> Vec<f64> {
        let sub = format!("{track}/");
        self.spans
            .iter()
            .filter(|s| {
                let t = &self.tracks[s.track];
                s.name == name && (t == track || t.starts_with(&sub))
            })
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// The recorded spans as a Chrome trace-event document: one `X`
    /// (complete) event per span, one named thread per track.
    pub fn chrome_json(&self) -> String {
        let mut events: Vec<String> = vec![Obj::default()
            .str("name", "process_name")
            .str("ph", "M")
            .int("pid", 1)
            .raw("args", Obj::default().str("name", "perfbench").finish())
            .finish()];
        for (i, t) in self.tracks.iter().enumerate() {
            events.push(
                Obj::default()
                    .str("name", "thread_name")
                    .str("ph", "M")
                    .int("pid", 1)
                    .int("tid", i as u64 + 1)
                    .raw("args", Obj::default().str("name", t).finish())
                    .finish(),
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = Obj::default().int("id", id as u64);
            if let Some(p) = s.parent {
                args = args.int("parent", p as u64);
            }
            events.push(
                Obj::default()
                    .str("name", &s.name)
                    .str("cat", &self.tracks[s.track])
                    .str("ph", "X")
                    .num("ts", s.start_us)
                    .num("dur", s.dur_us)
                    .int("pid", 1)
                    .int("tid", s.track as u64 + 1)
                    .raw("args", args.finish())
                    .finish(),
            );
        }
        format!(
            "{{{}: [\n{}\n], {}: {}}}\n",
            string("traceEvents"),
            events.join(",\n"),
            string("displayTimeUnit"),
            string("ms")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("functional", "rep");
        tr.time("L0", "fwd", || ());
        tr.end(outer);
        assert_eq!(tr.durations_ms("L0", "fwd").len(), 1);
        let json = tr.chrome_json();
        assert!(json.contains(r#""parent": 0"#));
        assert!(json.contains(r#""name": "thread_name""#));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.time("L0", "fwd", || ());
        assert!(tr.durations_ms("L0", "fwd").is_empty());
    }
}
