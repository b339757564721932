//! In-memory span recorder for the traced run (CRA TRACE event shape:
//! `trace_id`/`span_id`/`parent_span_id`), self-time arithmetic, and
//! the JSONL dump written when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! it makes into each layer; nothing inside the measured crates is
//! instrumented.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. `count` is the units of work the span covered
/// (ops, frames, PDUs), so `ns / count` is a per-unit cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u32,
    pub parent_span_id: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Indices (into `spans`) of the spans still open, innermost last.
    open: Vec<usize>,
    trace_id: u64,
}

/// The recorder. Disabled, [`Tracer::span`] costs one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: enabled.then(|| {
                RefCell::new(Inner {
                    spans: Vec::new(),
                    open: Vec::new(),
                    trace_id: 0,
                })
            }),
        }
    }

    /// Spans opened from now on belong to trace `id` (one trace per
    /// viewer or op).
    pub fn set_trace(&self, id: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().trace_id = id;
        }
    }

    /// Opens a span covering one unit of work; it closes when the
    /// guard drops. Spans opened meanwhile become its children.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_n(name, 1)
    }

    /// Opens a span covering `count` units of work.
    pub fn span_n(&self, name: &'static str, count: u64) -> SpanGuard<'_> {
        let index = self.inner.as_ref().map(|inner| {
            let mut inner = inner.borrow_mut();
            let index = inner.spans.len();
            let parent_span_id = inner.open.last().map(|&p| inner.spans[p].span_id);
            let trace_id = inner.trace_id;
            inner.spans.push(Span {
                trace_id,
                span_id: index as u32 + 1,
                parent_span_id,
                name,
                start_ns: 0,
                end_ns: 0,
                count,
            });
            inner.open.push(index);
            // Stamp last so the bookkeeping above is outside the span.
            inner.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
            index
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// All finished spans, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().spans.clone())
    }
}

impl SpanGuard<'_> {
    /// Sets the units of work covered, for spans that learn it from
    /// the call they wrap.
    pub fn set_count(&mut self, count: u64) {
        if let (Some(index), Some(inner)) = (self.index, &self.tracer.inner) {
            inner.borrow_mut().spans[index].count = count;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(inner)) = (self.index, &self.tracer.inner) else {
            return;
        };
        let end = self.tracer.epoch.elapsed().as_nanos() as u64;
        let mut inner = inner.borrow_mut();
        inner.spans[index].end_ns = end;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub spans: u64,
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children.
    pub self_ns: u64,
}

impl NameTotals {
    /// Span time per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

/// Sums spans by name. A span's self time is its duration minus the
/// durations of its direct children, so a grandchild is subtracted
/// once (from its parent), never twice.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent_span_id {
            *child_ns.entry(parent).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.count += s.count;
        t.total_ns += s.duration_ns();
        t.self_ns += s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.span_id).copied().unwrap_or(0));
    }
    out
}

/// One JSON object per line, in the CRA TRACE span shape.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let parent = s
            .parent_span_id
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"trace_id\":{},\"span_id\":{},\"parent_span_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.trace_id, s.span_id, parent, s.name, s.start_ns, s.end_ns, s.count
        )
        .expect("writing to a String");
    }
    out
}

/// Checks what a reader of the dump relies on: ids unique and
/// ascending, every parent link names an earlier span of the same
/// trace that encloses the child.
pub fn check_links(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.span_id as usize != i + 1 {
            return Err(format!("span {} out of order", s.span_id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.span_id));
        }
        if let Some(p) = s.parent_span_id {
            let Some(parent) = spans.get(p as usize - 1).filter(|_| p < s.span_id) else {
                return Err(format!("span {} has no earlier parent {p}", s.span_id));
            };
            if parent.start_ns > s.start_ns || parent.end_ns < s.end_ns {
                return Err(format!("span {} escapes its parent {p}", s.span_id));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace_id: 1,
            span_id: id,
            parent_span_id: parent,
            name,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        // root [0,100] ⊃ a [10,60] ⊃ b [20,30]; root ⊃ c [70,90].
        let spans = [
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 60),
            span(3, Some(2), "b", 20, 30),
            span(4, Some(1), "c", 70, 90),
        ];
        let t = totals_by_name(&spans);
        // root loses a (50) and c (20) but not b again.
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["a"].self_ns, 40);
        assert_eq!(t["b"].self_ns, 10);
        assert_eq!(t["c"].self_ns, 20);
        let self_sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root");
        check_links(&spans).unwrap();
    }

    #[test]
    fn same_name_spans_accumulate() {
        let mut spans = vec![span(1, None, "op", 0, 10), span(2, None, "op", 10, 40)];
        spans[1].count = 3;
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].spans, 2);
        assert_eq!(t["op"].count, 4);
        assert_eq!(t["op"].total_ns, 40);
        assert_eq!(t["op"].ns_per_unit(), 10.0);
    }

    #[test]
    fn recorder_nests_and_links() {
        let tracer = Tracer::new(true);
        tracer.set_trace(7);
        {
            let _outer = tracer.span("outer");
            {
                let _inner = tracer.span_n("inner", 5);
            }
            let _sibling = tracer.span("sibling");
        }
        let _next = tracer.span("next");
        drop(_next);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent_span_id, None);
        assert_eq!(spans[1].parent_span_id, Some(1));
        assert_eq!(spans[2].parent_span_id, Some(1));
        assert_eq!(spans[3].parent_span_id, None);
        assert_eq!(spans[1].count, 5);
        assert!(spans.iter().all(|s| s.trace_id == 7));
        check_links(&spans).unwrap();
        let dump = to_jsonl(&spans);
        assert_eq!(dump.lines().count(), 4);
        assert!(dump
            .lines()
            .next()
            .unwrap()
            .contains("\"parent_span_id\":null"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tracer = Tracer::new(false);
        let _g = tracer.span("x");
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn broken_links_are_reported() {
        let orphan = [span(1, Some(9), "x", 0, 1)];
        assert!(check_links(&orphan).is_err());
        let escaping = [span(1, None, "p", 10, 20), span(2, Some(1), "c", 5, 15)];
        assert!(check_links(&escaping).is_err());
    }
}
