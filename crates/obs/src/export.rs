//! Deterministic trace exporters.
//!
//! Two formats, both produced with integer-only timestamp formatting so
//! identical-seed runs export byte-identical files (the
//! `sann-xtask determinism` audit diffs them byte for byte):
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

use crate::span::{IoSpan, Span, SpanId, Trace};

/// Formats simulated nanoseconds as the microsecond value Chrome's `ts`
/// field expects, with exactly three decimals — pure integer math, so the
/// output is bit-stable across platforms.
fn fmt_us(ns: u64) -> String {
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
        s.name.label(),
        cat,
        ph,
        ts,
        s.query
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
pub fn chrome_trace(trace: &Trace) -> String {
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
    let by_start = |spans: &[Span], idxs: &mut Vec<usize>| {
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
pub fn jsonl(trace: &Trace) -> String {
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
            s.id.0,
            parent,
            s.query,
            s.name.label(),
            s.start_ns,
            s.end_ns
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

/// True if `id` is a real span (helper for exporters and tests).
pub fn has_owner(id: SpanId) -> bool {
    id.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, SpanName, TraceLevel, Tracer};

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
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(999), "0.999");
        assert_eq!(fmt_us(1_000), "1.000");
        assert_eq!(fmt_us(2_500), "2.500");
        assert_eq!(fmt_us(1_234_567), "1234.567");
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
}
