//! The traced run's span buffer: spans recorded around each call into a
//! layer, kept in a preallocated in-memory buffer and written out when
//! the run ends, together with each span name's self time.

use std::time::Instant;

use desim::Json;

use crate::measure::nanos;

/// Spans kept per run; later spans are counted as dropped. The
/// per-layer histograms keep measuring past this point.
pub const CAPACITY: usize = 1 << 16;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// A preallocated span buffer.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    buf: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// An empty buffer whose timestamps count from now, preallocated
    /// when `traced` (an untraced run records no spans).
    pub fn new(traced: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            buf: Vec::with_capacity(if traced { CAPACITY } else { 0 }),
            dropped: 0,
        }
    }

    /// Records a finished span and returns its index (for children), or
    /// [`ROOT`] when the buffer is full. Children of a dropped span are
    /// dropped too.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if self.buf.len() == CAPACITY || (parent != ROOT && parent as usize >= self.buf.len()) {
            self.dropped += 1;
            return ROOT;
        }
        self.buf.push(Span {
            name,
            parent,
            req,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            end_ns: nanos(end.saturating_duration_since(self.epoch)),
        });
        (self.buf.len() - 1) as u32
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Spans::close`] after its children are recorded.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64, start: Instant) -> u32 {
        self.push(name, parent, req, start, start)
    }

    /// Sets the end of an opened span.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = nanos(end.saturating_duration_since(self.epoch));
        if let Some(s) = self.buf.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Per span name: `(name, count, total ns, self ns)`, where self
    /// time is a span's duration minus the time its children cover.
    /// Sorted by self time, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.buf.len()];
        for s in &self.buf {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, &children) in self.buf.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(children);
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += dur;
                    e.3 += own;
                }
                None => by_name.push((s.name, 1, dur, own)),
            }
        }
        by_name.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        by_name
    }

    /// The buffer as a JSON document: every span as `[name, parent,
    /// request, start_ns, end_ns]` (parent -1 for roots) plus the self
    /// time table.
    pub fn to_json(&self) -> Json {
        let spans = self
            .buf
            .iter()
            .map(|s| {
                let parent = if s.parent == ROOT {
                    Json::Int(-1)
                } else {
                    Json::UInt(u64::from(s.parent))
                };
                Json::Arr(vec![
                    Json::from(s.name),
                    parent,
                    Json::UInt(s.req),
                    Json::UInt(s.start_ns),
                    Json::UInt(s.end_ns),
                ])
            })
            .collect();
        let mut selfs = Json::object();
        for (name, count, total, own) in self.self_times() {
            let mut o = Json::object();
            o.set("count", count);
            o.set("total_ns", total);
            o.set("self_ns", own);
            selfs.set(name, o);
        }
        let mut root = Json::object();
        root.set(
            "span_fields",
            vec!["name", "parent", "request", "start_ns", "end_ns"],
        );
        root.set("dropped", self.dropped);
        root.set("self_time", selfs);
        root.set("spans", Json::Arr(spans));
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let t = s.epoch;
        let at = |us: u64| t + Duration::from_micros(us);
        let root = s.open("rtt", ROOT, 7, at(0));
        s.push("encode", root, 7, at(0), at(2));
        s.push("decode", root, 7, at(8), at(10));
        s.close(root, at(10));
        let table = s.self_times();
        assert_eq!(table[0], ("rtt", 1, 10_000, 6_000));
        assert!(table.contains(&("encode", 1, 2_000, 2_000)));
        assert_eq!(
            s.to_json()
                .get("spans")
                .map(|a| matches!(a, Json::Arr(v) if v.len() == 3)),
            Some(true)
        );
    }
}
