//! Host-clock spans recorded by the benchmark around its calls into the
//! layers.
//!
//! A span's name starts with the crate it calls into (`index.build.hnsw`,
//! `engine.run.aging`), so the text before the first dot is the layer.
//! Spans are kept in memory and exported as Chrome trace events when the
//! run ends. Timing itself does not depend on recording: [`Recorder::exit`]
//! returns the elapsed seconds whether or not the span was stored, so the
//! traced and untraced runs execute the same calls and differ only in the
//! push onto the span list.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what[.detail]`.
    pub name: String,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer (crate) the span's call went into.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; give it back to [`Recorder::exit`].
#[must_use]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

/// Collects spans on the benchmark's single driver thread.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// The open spans, innermost last: the slot of each, or `None` if it
    /// was opened while storage was off.
    open: Vec<Option<usize>>,
}

impl Recorder {
    /// A recorder that stores nothing until [`Recorder::set_enabled`].
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns span storage on or off; open spans are unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let at = (start - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns: at,
                end_ns: at,
                parent: self.open.last().copied().flatten(),
            });
            self.spans.len() - 1
        });
        self.open.push(slot);
        Open { slot, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.slot), "spans must close innermost first");
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.spans[slot].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64()
    }

    /// The recorded spans, in open order (a child follows its parent).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children never overlap (one driver thread), so the self
/// times of a tree sum to the root's duration exactly.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self seconds per layer over the trees rooted at spans named `root`,
/// plus the summed duration of those roots.
pub fn layer_self_seconds(spans: &[Span], root: &str) -> (BTreeMap<String, f64>, f64) {
    let own = self_times_ns(spans);
    // A child follows its parent, so one forward pass settles membership.
    let mut inside = vec![false; spans.len()];
    let mut table = BTreeMap::new();
    let mut total = 0.0;
    for (i, span) in spans.iter().enumerate() {
        inside[i] = match span.parent {
            Some(parent) => inside[parent],
            None => span.name == root,
        };
        if !inside[i] {
            continue;
        }
        if span.parent.is_none() {
            total += span.duration_ns() as f64 / 1e9;
        }
        *table.entry(span.layer().to_owned()).or_insert(0.0) += own[i] as f64 / 1e9;
    }
    (table, total)
}

/// Renders the per-layer self-time table of a traced workload.
pub fn self_time_table(spans: &[Span], root: &str) -> String {
    let (table, total) = layer_self_seconds(spans, root);
    let mut rows: Vec<(&String, &f64)> = table.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    let mut out = format!("{:<12} {:>12} {:>8}\n", "layer", "self_s", "share");
    for (layer, secs) in rows {
        out.push_str(&format!(
            "{layer:<12} {secs:>12.6} {:>7.2}%\n",
            100.0 * secs / total.max(f64::MIN_POSITIVE)
        ));
    }
    let sum: f64 = table.values().sum();
    out.push_str(&format!(
        "{:<12} {sum:>12.6} of {total:.6} s in `{root}` spans\n",
        "sum"
    ));
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`X`) event per span, timestamps in microseconds of host time.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let parent = span.parent.map_or(Value::Null, Value::from);
            Value::obj()
                .with("name", span.name.as_str())
                .with("cat", span.layer())
                .with("ph", "X")
                .with("ts", span.start_ns as f64 / 1e3)
                .with("dur", span.duration_ns() as f64 / 1e3)
                .with("pid", 1u64)
                .with("tid", 1u64)
                .with(
                    "args",
                    Value::obj()
                        .with("id", id)
                        .with("parent", parent)
                        .with("workload", workload),
                )
        })
        .collect();
    Value::obj()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", events)
        .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
        }
    }

    /// pass[0,100] { index.build[10,60] { quant.train[20,50] }, engine.run[60,90] }
    /// setup[100,150] { index.build[100,140] }
    fn tree() -> Vec<Span> {
        vec![
            span("pass", 0, 100, None),
            span("index.build.ivf", 10, 60, Some(0)),
            span("quant.train", 20, 50, Some(1)),
            span("engine.run.c16", 60, 90, Some(0)),
            span("setup", 100, 150, None),
            span("index.build.ivf", 100, 140, Some(4)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        assert_eq!(self_times_ns(&tree()), vec![20, 20, 30, 30, 10, 40]);
    }

    #[test]
    fn layer_table_covers_only_the_named_roots_and_sums_to_them() {
        let (table, total) = layer_self_seconds(&tree(), "pass");
        assert_eq!(total, 100e-9);
        let layers: Vec<&str> = table.keys().map(String::as_str).collect();
        assert_eq!(layers, ["engine", "index", "pass", "quant"]);
        assert_eq!(table["index"], 20e-9, "the setup's build is not counted");
        let sum: f64 = table.values().sum();
        assert!((sum - total).abs() < 1e-15);
        assert!(self_time_table(&tree(), "pass").contains("index"));
    }

    #[test]
    fn recorder_nests_and_times_even_when_disabled() {
        let mut rec = Recorder::new();
        let off = rec.enter("core.ignored");
        assert!(rec.exit(off) >= 0.0);
        assert!(rec.spans().is_empty(), "disabled recorder stores nothing");
        rec.set_enabled(true);
        let outer = rec.enter("pass");
        let inner = rec.enter("index.search.hnsw");
        let inner_s = rec.exit(inner);
        let outer_s = rec.exit(outer);
        assert!(outer_s >= inner_s);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "index");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let text = chrome_trace(&tree(), "prep-cold");
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 6);
        let first = &events[1];
        assert_eq!(first.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(first.get("cat").and_then(Value::as_str), Some("index"));
        assert_eq!(first.get("dur").and_then(Value::as_f64), Some(0.05));
        let args = first.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            args.get("workload").and_then(Value::as_str),
            Some("prep-cold")
        );
    }
}
