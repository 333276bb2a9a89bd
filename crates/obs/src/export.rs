//! Deterministic trace exporters.
//!
//! Two formats, both produced with integer-only timestamp formatting so
//! identical-seed runs export byte-identical files (the `sann-bench`
//! `determinism` tests diff them byte for byte):
//!
//! * [`chrome_trace`] — the Chrome Trace Event JSON array format, loadable
//!   in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Query
//!   spans become `B`/`E` duration events on one track (`tid`) per query;
//!   device requests become zero-or-more `X` complete events nested under
//!   their owning span.
//! * [`jsonl`] — one JSON object per line (a `meta` line, then every span
//!   in id order, then every I/O span in record order), for `grep`/`jq`
//!   style post-processing without a trace viewer.
//!
//! Events are emitted in depth-first span order, so within a track the
//! file order is exactly the begin/end stack order — a property the
//! golden-file schema test checks line by line.
//!
//! Each exporter sums the exact length of every record first and reserves
//! the output `String` once, then `write!`s every event into it through
//! `Display` newtypes: no per-event `String`, and the buffer never regrows.
//! Every writer has a length function beside it; each counts the bytes of
//! its writer's format string with the fields left out (its template) plus
//! the fields' own lengths.

use crate::span::{IoOutcome, IoSpan, Span, SpanId, SpanName, Trace};
use crate::IoProvenance;
use sann_core::cast;
use std::collections::BTreeSet;
use std::fmt::{self, Display, Write as _};

/// Decimal digits of `v`: the bytes `{}` writes for it.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Bytes `{}` writes for a span's [`SpanName`].
fn label_len(name: SpanName) -> usize {
    match name {
        SpanName::Query { plan } => "query/plan".len() + digits(cast::u64_from_usize(plan)),
        SpanName::Phase(p) => p.name().len(),
    }
}

/// Simulated nanoseconds written as the microsecond value Chrome's `ts`
/// field expects, with exactly three decimals — pure integer math, so the
/// output is bit-stable across platforms.
struct Us(u64);

impl Us {
    fn len(&self) -> usize {
        digits(self.0 / 1_000) + ".000".len()
    }
}

impl Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

/// The provenance attribute of an I/O span as an extra JSON field (leading
/// comma included), or nothing for the default tag — so untagged exports
/// stay byte-identical to pre-provenance builds.
struct ProvArgs<'a>(&'a IoSpan);

impl ProvArgs<'_> {
    fn tagged(&self) -> bool {
        self.0.provenance != IoProvenance::default()
    }

    fn len(&self) -> usize {
        if !self.tagged() {
            return 0;
        }
        ",\"prov\":\"\"".len() + self.0.provenance.name().len()
    }
}

impl Display for ProvArgs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.tagged() {
            return Ok(());
        }
        write!(f, ",\"prov\":\"{}\"", self.0.provenance.name())
    }
}

/// The fault attributes of an I/O span as extra JSON fields (leading comma
/// included), or nothing when every attribute has its fault-free default —
/// so fault-free exports stay byte-identical to pre-fault builds.
struct FaultArgs<'a>(&'a IoSpan);

impl FaultArgs<'_> {
    fn len(&self) -> usize {
        let io = self.0;
        let mut len = 0;
        if io.attempt != 0 {
            len += ",\"attempt\":".len() + digits(u64::from(io.attempt));
        }
        if io.hedged {
            len += ",\"hedged\":true".len();
        }
        if io.outcome != IoOutcome::Ok {
            len += ",\"outcome\":\"\"".len() + io.outcome.name().len();
        }
        len
    }
}

impl Display for FaultArgs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let io = self.0;
        if io.attempt != 0 {
            write!(f, ",\"attempt\":{}", io.attempt)?;
        }
        if io.hedged {
            f.write_str(",\"hedged\":true")?;
        }
        if io.outcome != IoOutcome::Ok {
            write!(f, ",\"outcome\":\"{}\"", io.outcome.name())?;
        }
        Ok(())
    }
}

fn op(io: &IoSpan) -> &'static str {
    if io.write {
        "write"
    } else {
        "read"
    }
}

fn category(s: &Span) -> &'static str {
    match s.name {
        SpanName::Query { .. } => "query",
        SpanName::Phase(_) => "phase",
    }
}

/// The Chrome file up to its first track, and after its last event.
const CHROME_HEAD: &str = "{\"traceEvents\":[\n\
    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"sann-sim\"}}";
const CHROME_TAIL: &str = "\n]}\n";

/// Template of [`thread_name_event`].
const THREAD_NAME: &str =
    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":,\"args\":{\"name\":\"query \"}}";

fn thread_name_len(q: u64) -> usize {
    THREAD_NAME.len() + 2 * digits(q)
}

fn thread_name_event(out: &mut String, q: u64) {
    // Writing to a `String` cannot fail.
    let _ = write!(
        out,
        ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{q},\
         \"args\":{{\"name\":\"query {q}\"}}}}"
    );
}

/// Template of [`span_event`], whose `ph` is one byte.
const SPAN_EVENT: &str = ",\n{\"name\":\"\",\"cat\":\"\",\"ph\":\"\",\"ts\":,\"pid\":0,\"tid\":}";

/// Bytes of `s`'s `B` and `E` events together.
fn span_events_len(s: &Span) -> usize {
    let one = SPAN_EVENT.len() + label_len(s.name) + category(s).len() + 1 + digits(s.query);
    2 * one + Us(s.start_ns).len() + Us(s.end_ns).len()
}

#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn span_event(out: &mut String, s: &Span, ph: char) {
    let ts = Us(if ph == 'B' { s.start_ns } else { s.end_ns });
    let _ = write!(
        out,
        ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":0,\"tid\":{}}}",
        s.name,
        category(s),
        s.query
    );
}

/// Template of [`io_event`].
const IO_EVENT: &str = ",\n{\"name\":\" B\",\"cat\":\"io\",\"ph\":\"X\",\"ts\":,\"dur\":,\
    \"pid\":0,\"tid\":,\"args\":{\"offset\":,\"len\":}}";

fn io_event_len(io: &IoSpan) -> usize {
    IO_EVENT.len()
        + op(io).len()
        + 2 * digits(u64::from(io.len))
        + Us(io.start_ns).len()
        + Us(io.end_ns - io.start_ns).len()
        + digits(io.query)
        + digits(io.offset)
        + ProvArgs(io).len()
        + FaultArgs(io).len()
}

#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn io_event(out: &mut String, io: &IoSpan) {
    let _ = write!(
        out,
        ",\n{{\"name\":\"{} {}B\",\"cat\":\"io\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
         \"args\":{{\"offset\":{},\"len\":{}{}{}}}}}",
        op(io),
        io.len,
        Us(io.start_ns),
        Us(io.end_ns - io.start_ns),
        io.query,
        io.offset,
        io.len,
        ProvArgs(io),
        FaultArgs(io)
    );
}

/// Items grouped by owner in compressed sparse row form: owner `i`'s
/// items are `items[at[i]..at[i + 1]]`.
struct Csr {
    at: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    /// Groups items `0..m` under `owner(j)` among `0..n`, skipping items
    /// with no owner; each group keeps item order.
    fn group(n: usize, m: usize, owner: impl Fn(usize) -> Option<usize>) -> Csr {
        // Count per owner, then prefix-sum into each group's end, then
        // place items back to front so every group ends up at its start.
        let mut at = vec![0; n + 1];
        for o in (0..m).filter_map(&owner) {
            at[o] += 1;
        }
        let mut end = 0;
        for a in &mut at {
            end += *a;
            *a = end;
        }
        let mut items = vec![0; end];
        for j in (0..m).rev() {
            if let Some(o) = owner(j) {
                at[o] -= 1;
                items[at[o]] = j;
            }
        }
        Csr { at, items }
    }

    fn of(&self, i: usize) -> &[usize] {
        &self.items[self.at[i]..self.at[i + 1]]
    }
}

/// Exports a trace in the Chrome Trace Event JSON array format
/// (Perfetto-loadable), one event per line.
///
/// Layout: a `process_name` metadata event, a `thread_name` metadata
/// event per query track, then for each root span (by start time) a
/// depth-first walk emitting `B`, nested `X` I/O events, children, `E`.
pub fn chrome_trace(trace: &Trace) -> String {
    let spans = &trace.spans;
    let mut roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.index().is_none())
        .collect();
    roots.sort_unstable_by_key(|&i| (spans[i].start_ns, i));
    let mut children = Csr::group(spans.len(), spans.len(), |i| spans[i].parent.index());
    for i in 0..spans.len() {
        let (from, to) = (children.at[i], children.at[i + 1]);
        children.items[from..to].sort_unstable_by_key(|&c| (spans[c].start_ns, c));
    }
    let io_by_owner = Csr::group(spans.len(), trace.io.len(), |j| trace.io[j].owner.index());
    // One named track per query, in first-appearance (root) order.
    let mut seen = BTreeSet::new();
    let tracks: Vec<u64> = roots
        .iter()
        .map(|&r| spans[r].query)
        .filter(|&q| seen.insert(q))
        .collect();

    let len = CHROME_HEAD.len()
        + tracks.iter().map(|&q| thread_name_len(q)).sum::<usize>()
        + spans.iter().map(span_events_len).sum::<usize>()
        + io_by_owner
            .items
            .iter()
            .map(|&j| io_event_len(&trace.io[j]))
            .sum::<usize>()
        + CHROME_TAIL.len();
    let mut out = String::with_capacity(len);
    out.push_str(CHROME_HEAD);
    for &q in &tracks {
        thread_name_event(&mut out, q);
    }
    // Depth-first emit: B, owned I/O, children, E.
    let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
    while let Some((idx, closing)) = stack.pop() {
        let s = &spans[idx];
        if closing {
            span_event(&mut out, s, 'E');
            continue;
        }
        span_event(&mut out, s, 'B');
        for &j in io_by_owner.of(idx) {
            io_event(&mut out, &trace.io[j]);
        }
        stack.push((idx, true));
        stack.extend(children.of(idx).iter().rev().map(|&c| (c, false)));
    }
    out.push_str(CHROME_TAIL);
    out
}

/// A span's parent id in a `span` line: its index, or `null` for a root.
struct Parent(SpanId);

impl Parent {
    fn len(&self) -> usize {
        self.0
            .index()
            .map_or("null".len(), |p| digits(cast::u64_from_usize(p)))
    }
}

impl Display for Parent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.index() {
            Some(p) => write!(f, "{p}"),
            None => f.write_str("null"),
        }
    }
}

/// Template of the `meta` line.
const META_LINE: &str = "{\"type\":\"meta\",\"level\":\"\",\"end_ns\":,\"spans\":,\"io\":}\n";

/// Template of [`span_line`].
const SPAN_LINE: &str = "{\"type\":\"span\",\"id\":,\"parent\":,\"query\":,\"name\":\"\",\
    \"start_ns\":,\"end_ns\":}\n";

fn span_line_len(s: &Span) -> usize {
    SPAN_LINE.len()
        + digits(u64::from(s.id.0))
        + Parent(s.parent).len()
        + digits(s.query)
        + label_len(s.name)
        + digits(s.start_ns)
        + digits(s.end_ns)
}

#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn span_line(out: &mut String, s: &Span) {
    let _ = writeln!(
        out,
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\
         \"start_ns\":{},\"end_ns\":{}}}",
        s.id.0,
        Parent(s.parent),
        s.query,
        s.name,
        s.start_ns,
        s.end_ns
    );
}

/// Template of [`io_line`].
const IO_LINE: &str = "{\"type\":\"io\",\"owner\":,\"query\":,\"op\":\"\",\"offset\":,\
    \"len\":,\"start_ns\":,\"end_ns\":}\n";

fn io_line_len(io: &IoSpan) -> usize {
    IO_LINE.len()
        + digits(u64::from(io.owner.0))
        + digits(io.query)
        + op(io).len()
        + digits(io.offset)
        + digits(u64::from(io.len))
        + digits(io.start_ns)
        + digits(io.end_ns)
        + ProvArgs(io).len()
        + FaultArgs(io).len()
}

#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[deny(clippy::indexing_slicing)]
fn io_line(out: &mut String, io: &IoSpan) {
    let _ = writeln!(
        out,
        "{{\"type\":\"io\",\"owner\":{},\"query\":{},\"op\":\"{}\",\"offset\":{},\
         \"len\":{},\"start_ns\":{},\"end_ns\":{}{}{}}}",
        io.owner.0,
        io.query,
        op(io),
        io.offset,
        io.len,
        io.start_ns,
        io.end_ns,
        ProvArgs(io),
        FaultArgs(io)
    );
}

/// Exports a trace as line-oriented JSON: a `meta` line, then one `span`
/// line per span in id order, then one `io` line per device request in
/// record order.
pub fn jsonl(trace: &Trace) -> String {
    let (spans, io) = (trace.spans.len(), trace.io.len());
    let len = META_LINE.len()
        + trace.level.name().len()
        + digits(trace.end_ns)
        + digits(cast::u64_from_usize(spans))
        + digits(cast::u64_from_usize(io))
        + trace.spans.iter().map(span_line_len).sum::<usize>()
        + trace.io.iter().map(io_line_len).sum::<usize>();
    let mut out = String::with_capacity(len);
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"level\":\"{}\",\"end_ns\":{},\"spans\":{spans},\"io\":{io}}}",
        trace.level.name(),
        trace.end_ns,
    );
    for chunk in trace.spans.slices() {
        for s in chunk {
            span_line(&mut out, s);
        }
    }
    for chunk in trace.io.slices() {
        for io in chunk {
            io_line(&mut out, io);
        }
    }
    out
}

/// The exporters as they were before the single reservation: a `format!`
/// `String` per event, `Vec<Vec<usize>>` children and I/O lists, and a
/// linear thread-name dedup. The tests hold the exporters above to its
/// bytes.
#[cfg(test)]
mod reference {
    use crate::column::Column;
    use crate::span::{IoSpan, Span, Trace};

    /// Formats simulated nanoseconds as the microsecond value Chrome's `ts`
    /// field expects, with exactly three decimals — pure integer math, so the
    /// output is bit-stable across platforms.
    pub(super) fn fmt_us(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }

    fn push_span_event(out: &mut String, s: &Span, ph: char) {
        let cat = match s.name {
            crate::span::SpanName::Query { .. } => "query",
            crate::span::SpanName::Phase(_) => "phase",
        };
        let ts = fmt_us(if ph == 'B' { s.start_ns } else { s.end_ns });
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
            s.name, cat, ph, ts, s.query
        ));
    }

    /// Renders the provenance attribute of an I/O span as an extra JSON field
    /// (leading comma included), or `""` for the default tag — so untagged
    /// exports stay byte-identical to pre-provenance builds.
    fn prov_args(io: &IoSpan) -> String {
        if io.provenance == crate::IoProvenance::default() {
            return String::new();
        }
        format!(",\"prov\":\"{}\"", io.provenance.name())
    }

    /// Renders the fault attributes of an I/O span as extra JSON fields
    /// (leading comma included), or `""` when every attribute has its
    /// fault-free default — so fault-free exports stay byte-identical to
    /// pre-fault builds.
    fn fault_args(io: &IoSpan) -> String {
        if !io.fault_tagged() {
            return String::new();
        }
        let mut extra = String::new();
        if io.attempt != 0 {
            extra.push_str(&format!(",\"attempt\":{}", io.attempt));
        }
        if io.hedged {
            extra.push_str(",\"hedged\":true");
        }
        if io.outcome != crate::span::IoOutcome::Ok {
            extra.push_str(&format!(",\"outcome\":\"{}\"", io.outcome.name()));
        }
        extra
    }

    fn push_io_event(out: &mut String, io: &IoSpan) {
        let op = if io.write { "write" } else { "read" };
        out.push_str(&format!(
            "{{\"name\":\"{} {}B\",\"cat\":\"io\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"offset\":{},\"len\":{}{}{}}}}}",
            op,
            io.len,
            fmt_us(io.start_ns),
            fmt_us(io.end_ns - io.start_ns),
            io.query,
            io.offset,
            io.len,
            prov_args(io),
            fault_args(io)
        ));
    }

    /// Exports a trace in the Chrome Trace Event JSON array format
    /// (Perfetto-loadable), one event per line.
    ///
    /// Layout: a `process_name` metadata event, a `thread_name` metadata
    /// event per query track, then for each root span (by start time) a
    /// depth-first walk emitting `B`, nested `X` I/O events, children, `E`.
    pub(super) fn chrome_trace(trace: &Trace) -> String {
        // Children and per-span I/O, index-keyed off the span table.
        let n = trace.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in trace.spans.iter().enumerate() {
            match s.parent.index() {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let by_start = |spans: &Column<Span>, idxs: &mut Vec<usize>| {
            idxs.sort_by_key(|&i| (spans[i].start_ns, i));
        };
        by_start(&trace.spans, &mut roots);
        for c in &mut children {
            by_start(&trace.spans, c);
        }
        let mut io_by_owner: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, io) in trace.io.iter().enumerate() {
            if let Some(owner) = io.owner.index() {
                io_by_owner[owner].push(i);
            }
        }

        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"sann-sim\"}}",
        );
        // One named track per query, in first-appearance (root) order.
        let mut seen_queries: Vec<u64> = Vec::new();
        for &r in &roots {
            let q = trace.spans[r].query;
            if !seen_queries.contains(&q) {
                seen_queries.push(q);
                out.push_str(&format!(
                    ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{q},\
                     \"args\":{{\"name\":\"query {q}\"}}}}"
                ));
            }
        }

        // Depth-first emit: B, owned I/O, children, E.
        let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((idx, closing)) = stack.pop() {
            let s = &trace.spans[idx];
            out.push_str(",\n");
            if closing {
                push_span_event(&mut out, s, 'E');
                continue;
            }
            push_span_event(&mut out, s, 'B');
            for &io_idx in &io_by_owner[idx] {
                out.push_str(",\n");
                push_io_event(&mut out, &trace.io[io_idx]);
            }
            stack.push((idx, true));
            for &c in children[idx].iter().rev() {
                stack.push((c, false));
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Exports a trace as line-oriented JSON: a `meta` line, then one `span`
    /// line per span in id order, then one `io` line per device request in
    /// record order.
    pub(super) fn jsonl(trace: &Trace) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"level\":\"{}\",\"end_ns\":{},\"spans\":{},\"io\":{}}}\n",
            trace.level.name(),
            trace.end_ns,
            trace.spans.len(),
            trace.io.len()
        ));
        for s in &trace.spans {
            let parent = match s.parent.index() {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}\n",
                s.id.0, parent, s.query, s.name, s.start_ns, s.end_ns
            ));
        }
        for io in &trace.io {
            out.push_str(&format!(
                "{{\"type\":\"io\",\"owner\":{},\"query\":{},\"op\":\"{}\",\"offset\":{},\
                 \"len\":{},\"start_ns\":{},\"end_ns\":{}{}{}}}\n",
                io.owner.0,
                io.query,
                if io.write { "write" } else { "read" },
                io.offset,
                io.len,
                io.start_ns,
                io.end_ns,
                prov_args(io),
                fault_args(io)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::CHUNK;
    use crate::span::{Phase, TraceLevel, Tracer};
    use sann_core::rng::SplitMix64;

    fn sample_trace() -> Trace {
        let mut t = Tracer::new(TraceLevel::Io);
        let q0 = t.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 0 }, 0);
        let c0 = t.begin_span(q0, 0, SpanName::Phase(Phase::Compute), 0);
        t.end_span(c0, 2_500);
        let f0 = t.begin_span(q0, 0, SpanName::Phase(Phase::FlashService), 2_500);
        t.io_span(IoSpan {
            owner: f0,
            query: 0,
            start_ns: 2_500,
            end_ns: 90_000,
            offset: 4096,
            len: 4096,
            write: false,
            provenance: Default::default(),
            attempt: 0,
            hedged: false,
            outcome: crate::span::IoOutcome::Ok,
        });
        t.end_span(f0, 90_000);
        t.end_span(q0, 90_000);
        let q1 = t.begin_span(SpanId::NONE, 1, SpanName::Query { plan: 1 }, 1_000);
        // Zero-duration cache-hit phase: B and E share a timestamp.
        let h1 = t.begin_span(q1, 1, SpanName::Phase(Phase::CacheHit), 1_000);
        t.end_span(h1, 1_000);
        t.end_span(q1, 5_000);
        let trace = t.finish(100_000);
        trace.validate().unwrap();
        trace
    }

    #[test]
    fn fmt_us_is_integer_only() {
        for (ns, text) in [
            (0, "0.000"),
            (999, "0.999"),
            (1_000, "1.000"),
            (2_500, "2.500"),
            (1_234_567, "1234.567"),
            (u64::MAX, "18446744073709551.615"),
        ] {
            assert_eq!(Us(ns).to_string(), text);
            assert_eq!(Us(ns).len(), text.len());
            assert_eq!(reference::fmt_us(ns), text);
        }
    }

    #[test]
    fn chrome_trace_pairs_and_nests() {
        let trace = sample_trace();
        let out = chrome_trace(&trace);
        // One B and one E per span, one X per io, stack-ordered per tid.
        let b = out.matches("\"ph\":\"B\"").count();
        let e = out.matches("\"ph\":\"E\"").count();
        let x = out.matches("\"ph\":\"X\"").count();
        assert_eq!(b, trace.spans.len());
        assert_eq!(e, trace.spans.len());
        assert_eq!(x, trace.io.len());
        // File order is DFS: parent B before child B, child E before
        // parent E.
        let qb = out
            .find("\"name\":\"query/plan0\",\"cat\":\"query\",\"ph\":\"B\"")
            .unwrap();
        let cb = out.find("\"name\":\"compute\"").unwrap();
        assert!(qb < cb);
        // Valid JSON shape: one trailing newline, balanced brackets.
        assert!(out.starts_with("{\"traceEvents\":[\n"));
        assert!(out.ends_with("\n]}\n"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }

    #[test]
    fn chrome_trace_zero_duration_span_keeps_stack_order() {
        let trace = sample_trace();
        let out = chrome_trace(&trace);
        // The cache-hit span's B line appears before its E line even
        // though both carry the same timestamp.
        let lines: Vec<&str> = out.lines().collect();
        let b = lines
            .iter()
            .position(|l| l.contains("cache_hit") && l.contains("\"ph\":\"B\""))
            .unwrap();
        let e = lines
            .iter()
            .position(|l| l.contains("cache_hit") && l.contains("\"ph\":\"E\""))
            .unwrap();
        assert!(b < e);
    }

    #[test]
    fn jsonl_lists_everything_once() {
        let trace = sample_trace();
        let out = jsonl(&trace);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1 + trace.spans.len() + trace.io.len());
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[0].contains("\"level\":\"io\""));
        assert!(lines[1].contains("\"parent\":null"));
        assert!(lines.last().unwrap().contains("\"type\":\"io\""));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_trace();
        let b = sample_trace();
        assert_eq!(chrome_trace(&a), chrome_trace(&b));
        assert_eq!(jsonl(&a), jsonl(&b));
    }

    #[test]
    fn fault_attributes_appear_only_when_tagged() {
        use crate::span::IoOutcome;
        // A fault-free trace exports no fault fields at all.
        let clean = jsonl(&sample_trace());
        assert!(!clean.contains("attempt"));
        assert!(!clean.contains("hedged"));
        assert!(!clean.contains("outcome"));
        // A tagged attempt renders every non-default attribute.
        let mut t = Tracer::new(TraceLevel::Io);
        let q = t.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 0 }, 0);
        t.io_span(IoSpan {
            owner: q,
            query: 0,
            start_ns: 0,
            end_ns: 10,
            offset: 0,
            len: 4096,
            write: false,
            provenance: Default::default(),
            attempt: 2,
            hedged: true,
            outcome: IoOutcome::Error,
        });
        t.end_span(q, 10);
        let trace = t.finish(10);
        let out = jsonl(&trace);
        assert!(out.contains("\"attempt\":2,\"hedged\":true,\"outcome\":\"error\""));
        let chrome = chrome_trace(&trace);
        assert!(chrome.contains(",\"attempt\":2,\"hedged\":true,\"outcome\":\"error\"}"));
    }

    #[test]
    fn provenance_attribute_appears_only_when_tagged() {
        use crate::IoProvenance;
        // Default-tagged (metadata) traces export no provenance field.
        let clean = jsonl(&sample_trace());
        assert!(!clean.contains("prov"));
        assert!(!chrome_trace(&sample_trace()).contains("prov"));
        // A tagged read renders the attribute in both exporters.
        let mut t = Tracer::new(TraceLevel::Io);
        let q = t.begin_span(SpanId::NONE, 0, SpanName::Query { plan: 0 }, 0);
        t.io_span(IoSpan {
            owner: q,
            query: 0,
            start_ns: 0,
            end_ns: 10,
            offset: 0,
            len: 4096,
            write: false,
            provenance: IoProvenance::GraphAdjacency,
            attempt: 0,
            hedged: false,
            outcome: crate::span::IoOutcome::Ok,
        });
        t.end_span(q, 10);
        let trace = t.finish(10);
        assert!(jsonl(&trace).contains(",\"prov\":\"graph-adjacency\"}"));
        assert!(chrome_trace(&trace).contains(",\"prov\":\"graph-adjacency\"}"));
    }

    /// Start and end of a random sub-interval of `[lo, hi]`; a quarter of
    /// them have zero length.
    fn within(rng: &mut SplitMix64, lo: u64, hi: u64) -> (u64, u64) {
        let a = lo + rng.next_bounded(hi - lo + 1);
        if rng.next_bounded(4) == 0 {
            return (a, a);
        }
        (a, a + rng.next_bounded(hi - a + 1))
    }

    /// Records 0-3 device attempts owned by `owner` inside `[lo, hi]`,
    /// reads and writes, with every provenance tag, retry ordinals up to
    /// 255, hedges and every outcome; now and then an attempt with no
    /// owner, which only the JSONL export lists.
    fn random_io(
        t: &mut Tracer,
        rng: &mut SplitMix64,
        owner: SpanId,
        query: u64,
        lo: u64,
        hi: u64,
    ) {
        use crate::span::IoOutcome;
        let outcomes = [IoOutcome::Ok, IoOutcome::Error, IoOutcome::Cancelled];
        for _ in 0..rng.next_bounded(4) {
            let (start_ns, end_ns) = within(rng, lo, hi);
            let faulted = rng.next_bounded(3) == 0;
            t.io_span(IoSpan {
                owner: if rng.next_bounded(50) == 0 {
                    SpanId::NONE
                } else {
                    owner
                },
                query,
                start_ns,
                end_ns,
                offset: if rng.next_bounded(8) == 0 {
                    rng.next_u64()
                } else {
                    rng.next_bounded(1 << 30)
                },
                len: if rng.next_bounded(8) == 0 {
                    u32::MAX
                } else {
                    512 << rng.next_bounded(8)
                },
                write: rng.next_bounded(4) == 0,
                provenance: IoProvenance::ALL[rng.next_bounded(5) as usize],
                attempt: if faulted { rng.next_u64() as u8 } else { 0 },
                hedged: faulted && rng.next_bounded(2) == 0,
                outcome: if faulted {
                    outcomes[rng.next_bounded(3) as usize]
                } else {
                    IoOutcome::Ok
                },
            });
        }
    }

    /// A seeded random trace recorded through `Tracer`: 1-3 roots per
    /// query, children opened out of start order (some of zero length,
    /// some with a child of their own), and timestamps, ids and offsets
    /// from one digit to the top of their range.
    fn random_trace(seed: u64, queries: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        let mut t = Tracer::new(TraceLevel::Io);
        let scales = [1_000, 1 << 20, 1 << 40, 1 << 62];
        let mut horizon = 0;
        for q in 0..queries {
            let query = if rng.next_bounded(16) == 0 {
                rng.next_u64()
            } else {
                q
            };
            for _ in 0..1 + rng.next_bounded(3) {
                let scale = scales[rng.next_bounded(4) as usize];
                let start = rng.next_bounded(scale);
                let stop = start + rng.next_bounded(scale);
                let plan = if rng.next_bounded(16) == 0 {
                    usize::MAX
                } else {
                    rng.next_bounded(100) as usize
                };
                let root = t.begin_span(SpanId::NONE, query, SpanName::Query { plan }, start);
                random_io(&mut t, &mut rng, root, query, start, stop);
                for _ in 0..rng.next_bounded(5) {
                    let (a, b) = within(&mut rng, start, stop);
                    let phase = Phase::ALL[rng.next_bounded(7) as usize];
                    let child = t.begin_span(root, query, SpanName::Phase(phase), a);
                    random_io(&mut t, &mut rng, child, query, a, b);
                    if rng.next_bounded(3) == 0 {
                        let (x, y) = within(&mut rng, a, b);
                        let grandchild = t.begin_span(child, query, SpanName::Phase(phase), x);
                        random_io(&mut t, &mut rng, grandchild, query, x, y);
                        t.end_span(grandchild, y);
                    }
                    t.end_span(child, b);
                }
                t.end_span(root, stop);
                horizon = horizon.max(stop);
            }
        }
        t.finish(horizon)
    }

    /// Both exporters write the reference's bytes, into a buffer reserved
    /// to exactly the output's length.
    fn assert_matches_reference(trace: &Trace, what: &str) {
        let chrome = chrome_trace(trace);
        assert_eq!(chrome, reference::chrome_trace(trace), "{what}: chrome");
        assert_eq!(
            chrome.capacity(),
            chrome.len(),
            "{what}: chrome reservation"
        );
        let lines = jsonl(trace);
        assert_eq!(lines, reference::jsonl(trace), "{what}: jsonl");
        assert_eq!(lines.capacity(), lines.len(), "{what}: jsonl reservation");
    }

    #[test]
    fn exports_match_the_reference_on_random_traces() {
        for seed in 0..64 {
            let trace = random_trace(seed, 1 + seed % 9);
            assert!(trace.spans.iter().any(|s| s.start_ns == s.end_ns) || seed % 9 == 0);
            assert_matches_reference(&trace, &format!("seed {seed}"));
        }
        assert_matches_reference(&sample_trace(), "sample");
        assert_matches_reference(&Tracer::new(TraceLevel::Io).finish(0), "empty");
    }

    #[test]
    fn exports_match_the_reference_on_a_5000_query_trace() {
        let trace = random_trace(0x5EED, 5_000);
        // Chunk boundaries inside both columns.
        assert!(trace.spans.len() > 2 * CHUNK && trace.io.len() > CHUNK);
        let tags = |f: fn(&IoSpan) -> bool| trace.io.iter().filter(|io| f(io)).count();
        assert!(
            tags(|io| io.write) > 0 && tags(|io| io.hedged) > 0 && tags(|io| io.attempt > 0) > 0
        );
        assert!(tags(|io| io.owner == SpanId::NONE) > 0);
        for outcome in [IoOutcome::Ok, IoOutcome::Error, IoOutcome::Cancelled] {
            assert!(trace.io.iter().any(|io| io.outcome == outcome));
        }
        for prov in IoProvenance::ALL {
            assert!(trace.io.iter().any(|io| io.provenance == prov));
        }
        assert_matches_reference(&trace, "5000 queries");
    }
}
