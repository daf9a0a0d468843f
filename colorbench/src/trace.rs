//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; spans of
//! one sample share the sample id. The engine reports its rounds as
//! [`RoundMetrics`] without timestamps, so the solve span gets one
//! synthetic child per phase (duration = the phase's summed round wall),
//! laid end to end from the solve's start, each with a synthetic routing
//! child. The solve span's self time is then exactly the time spent outside
//! rounds. Spans are written out once, when the run ends.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use engine::RoundMetrics;

use crate::json::Json;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub sample: u64,
    pub name: String,
    /// Offsets from the trace's epoch.
    pub start: Duration,
    pub end: Duration,
    /// Placed by the benchmark from reported durations, not timed.
    pub synthetic: bool,
    pub attrs: Vec<(String, Json)>,
}

/// One phase's rounds, summed.
pub struct PhaseTotal {
    pub phase: String,
    pub rounds: usize,
    pub wall: Duration,
    pub route: Duration,
    pub messages: usize,
}

/// Per-phase sums over `rounds`, in order of each phase's first round.
pub fn phase_totals<'a>(rounds: impl IntoIterator<Item = &'a RoundMetrics>) -> Vec<PhaseTotal> {
    let mut totals: Vec<PhaseTotal> = Vec::new();
    for r in rounds {
        let i = match totals.iter().position(|p| *p.phase == *r.phase) {
            Some(i) => i,
            None => {
                totals.push(PhaseTotal {
                    phase: r.phase.to_string(),
                    rounds: 0,
                    wall: Duration::ZERO,
                    route: Duration::ZERO,
                    messages: 0,
                });
                totals.len() - 1
            }
        };
        let p = &mut totals[i];
        p.rounds += 1;
        p.wall += r.wall;
        p.route += r.route_wall;
        p.messages += r.messages;
    }
    totals
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, sample: u64, parent: Option<SpanId>, name: &str) -> SpanId {
        let now = self.epoch.elapsed();
        self.push(Span {
            parent,
            sample,
            name: name.to_string(),
            start: now,
            end: now,
            synthetic: false,
            attrs: Vec::new(),
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn record<T>(
        &mut self,
        sample: u64,
        parent: Option<SpanId>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(sample, parent, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    pub fn set_attr(&mut self, id: SpanId, key: &str, value: Json) {
        self.spans[id].attrs.push((key.to_string(), value));
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Hangs one synthetic child per phase under `solve`, in order of the
    /// phase's first round, each with a synthetic `engine.route/<phase>`
    /// child covering its routing epochs.
    pub fn attach_rounds(&mut self, solve: SpanId, rounds: &[RoundMetrics]) {
        let (sample, mut at) = (self.spans[solve].sample, self.spans[solve].start);
        for p in phase_totals(rounds) {
            let id = self.push(Span {
                parent: Some(solve),
                sample,
                name: format!("engine.round/{}", p.phase),
                start: at,
                end: at + p.wall,
                synthetic: true,
                attrs: vec![
                    ("rounds".to_string(), Json::int(p.rounds)),
                    ("messages".to_string(), Json::int(p.messages)),
                ],
            });
            self.push(Span {
                parent: Some(id),
                sample,
                name: format!("engine.route/{}", p.phase),
                start: at + p.wall - p.route,
                end: at + p.wall,
                synthetic: true,
                attrs: Vec::new(),
            });
            at += p.wall;
        }
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        let s = &self.spans[id];
        s.end.saturating_sub(s.start)
    }

    /// The span's duration minus the part of its interval its children
    /// cover.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let parent = &self.spans[id];
        let mut kids: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut reach = parent.start;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        self.duration(id).saturating_sub(covered)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut pairs = vec![
                ("id", Json::int(id)),
                ("parent", s.parent.map_or(Json::Null, Json::int)),
                ("sample", Json::int(s.sample)),
                ("name", Json::str(&s.name)),
                ("start_s", Json::Num(s.start.as_secs_f64())),
                ("end_s", Json::Num(s.end.as_secs_f64())),
                ("self_s", Json::Num(self.self_time(id).as_secs_f64())),
                ("synthetic", Json::Bool(s.synthetic)),
            ];
            if !s.attrs.is_empty() {
                pairs.push(("attrs", Json::Obj(s.attrs.clone())));
            }
            writeln!(out, "{}", Json::obj(pairs))?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn round(phase: &Arc<str>, wall_ms: u64, route_ms: u64) -> RoundMetrics {
        RoundMetrics {
            round: 1,
            phase: Arc::clone(phase),
            messages: 4,
            dropped: 0,
            delayed: 0,
            duplicated: 0,
            lost: 0,
            max_width: 1,
            physical_rounds: 1,
            fragments: 0,
            active_nodes: 1,
            live: 1,
            stepped: 1,
            active_frac: 1.0,
            wall: Duration::from_millis(wall_ms),
            route_wall: Duration::from_millis(route_ms),
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut t = Trace::new();
        let p = t.open(0, None, "p");
        t.spans[p].start = Duration::ZERO;
        t.spans[p].end = Duration::from_millis(100);
        for (a, b) in [(10, 30), (20, 40), (90, 150)] {
            let c = t.open(0, Some(p), "c");
            t.spans[c].start = Duration::from_millis(a);
            t.spans[c].end = Duration::from_millis(b);
        }
        // Covered: [10, 40) and [90, 100) = 40 ms of 100.
        assert_eq!(t.self_time(p), Duration::from_millis(60));
    }

    #[test]
    fn round_children_leave_outside_time_as_self_time() {
        let mut t = Trace::new();
        let s = t.open(3, None, "solve");
        t.spans[s].end = t.spans[s].start + Duration::from_millis(50);
        let (a, b): (Arc<str>, Arc<str>) = ("a".into(), "b".into());
        t.attach_rounds(s, &[round(&a, 10, 4), round(&b, 5, 1), round(&a, 10, 2)]);
        assert_eq!(t.self_time(s), Duration::from_millis(25));
        let pa = (0..t.spans.len())
            .find(|&i| t.spans[i].name == "engine.round/a")
            .unwrap();
        assert_eq!(t.duration(pa), Duration::from_millis(20));
        assert_eq!(t.self_time(pa), Duration::from_millis(14));
        assert_eq!(t.spans[pa].sample, 3);
    }
}
