//! Span recording for the traced run: per-layer self time, counts, and
//! a Chrome `trace_event` document that opens in Perfetto.
//!
//! Spans are recorded in the benchmark's own code around calls into the
//! library's public API; nothing inside the simulator is instrumented.
//! Calls too frequent to span one by one (a device access, a slot drawn
//! from the stream) are summed by [`crate::timed`] and charged to the
//! enclosing span with [`Recorder::charge`], so they still come out of
//! that span's self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Most spans kept for the Chrome trace; later spans still count toward
/// the layer totals.
const MAX_EVENTS: usize = 200_000;

/// Self time and count accumulated for one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Nanoseconds spent in the layer itself, children excluded.
    pub self_ns: u64,
    /// Spans or operations counted for the layer.
    pub count: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    args: Vec<(&'static str, f64)>,
}

struct Event {
    name: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    args: Vec<(&'static str, f64)>,
}

struct Inner {
    epoch: Instant,
    open: Vec<Open>,
    events: Vec<Event>,
    dropped: u64,
    layers: BTreeMap<&'static str, LayerTotal>,
    counters: BTreeMap<&'static str, u64>,
}

/// Records nested spans on one thread.
pub struct Recorder {
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            inner: RefCell::new(Inner {
                epoch: Instant::now(),
                open: Vec::new(),
                events: Vec::new(),
                dropped: 0,
                layers: BTreeMap::new(),
                counters: BTreeMap::new(),
            }),
        }
    }

    /// Opens a span named after its layer (`cpu.warm`, `cache.get`, ...).
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        self.inner.borrow_mut().open.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
            args: Vec::new(),
        });
        Guard { rec: self }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.enter(name);
        f()
    }

    /// Charges `ns` of time measured elsewhere, over `count` operations,
    /// to layer `name`, and removes it from the open span's self time.
    pub fn charge(&self, name: &'static str, ns: u64, count: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(top) = inner.open.last_mut() {
            top.child_ns += ns;
            top.args.push((name, ns as f64 / 1e6));
        }
        let t = inner.layers.entry(name).or_default();
        t.self_ns += ns;
        t.count += count;
    }

    /// Adds `n` to counter `name`, which carries no time (bytes, hits,
    /// rejections).
    pub fn count(&self, name: &'static str, n: u64) {
        *self.inner.borrow_mut().counters.entry(name).or_default() += n;
    }

    /// The totals recorded so far, by layer.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        self.inner.borrow().layers.clone()
    }

    /// Self time of `name` in seconds (0 when never recorded).
    pub fn self_s(&self, name: &str) -> f64 {
        self.inner
            .borrow()
            .layers
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e9)
    }

    /// Spans or operations of layer `name`, or the value of counter
    /// `name` (0 when never recorded).
    pub fn count_of(&self, name: &str) -> u64 {
        let inner = self.inner.borrow();
        inner
            .layers
            .get(name)
            .map(|t| t.count)
            .or_else(|| inner.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// The recorded spans as a Chrome `trace_event` JSON document (one
    /// thread; times in microseconds).
    pub fn chrome_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(inner.events.len() * 110 + 128);
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{}}},\"traceEvents\":[",
            inner.dropped
        );
        for (i, e) in inner.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cat = e.name.split('.').next().unwrap_or(e.name);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{",
                e.name,
                e.ts_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3
            );
            for (j, (k, v)) in e.args.iter().enumerate() {
                let sep = if j > 0 { "," } else { "" };
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(out, "{sep}\"{k}_ms\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// A self-time table over all layers, largest first, with each
    /// layer's share of `total_s`.
    pub fn self_time_table(&self, total_s: f64) -> String {
        let mut rows: Vec<(&'static str, LayerTotal)> = self.layers().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "  {:<22} {:>11} {:>8} {:>12}\n",
            "layer", "self (s)", "share", "count"
        );
        for (name, t) in rows {
            let s = t.self_ns as f64 / 1e9;
            let share = if total_s > 0.0 {
                s / total_s * 100.0
            } else {
                0.0
            };
            let _ = writeln!(out, "  {name:<22} {s:>11.4} {share:>7.2}% {:>12}", t.count);
        }
        out
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        // A span closing while the recorder is borrowed would be a bug in
        // this module; skip the record rather than panic in `drop`.
        let Ok(mut inner) = self.rec.inner.try_borrow_mut() else {
            return;
        };
        let Some(open) = inner.open.pop() else {
            return;
        };
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        if let Some(parent) = inner.open.last_mut() {
            parent.child_ns += dur_ns;
        }
        let t = inner.layers.entry(open.name).or_default();
        t.self_ns += self_ns;
        t.count += 1;
        if inner.events.len() < MAX_EVENTS {
            let ts_ns = open.start.duration_since(inner.epoch).as_nanos() as u64;
            inner.events.push(Event {
                name: open.name,
                ts_ns,
                dur_ns,
                args: open.args,
            });
        } else {
            inner.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_charges() {
        let rec = Recorder::new();
        {
            let _outer = rec.enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = rec.enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
            rec.charge("fine", 2_000_000, 7);
        }
        let layers = rec.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(
            layers["fine"],
            LayerTotal {
                self_ns: 2_000_000,
                count: 7
            }
        );
        assert!(inner.self_ns >= 4_000_000);
        assert!(
            outer.self_ns >= 2_000_000 && outer.self_ns < 8_000_000,
            "{outer:?}"
        );
        let doc: serde::Value = serde_json::from_str(&rec.chrome_json()).expect("valid JSON");
        let events = doc.as_object().expect("object")[2]
            .1
            .as_array()
            .expect("events")
            .len();
        assert_eq!(events, 2);
        assert!(rec.self_time_table(1.0).contains("inner"));
    }
}
