//! In-memory span recorder for the calls the benchmark makes into each
//! layer. Spans are kept in a `Vec` and written out once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: host nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Campaign iteration (or set-up sample) the span belongs to.
    pub run: u32,
    pub id: u32,
    pub parent: Option<u32>,
    /// `layer.call`, e.g. `core.crawl`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The crate the called API belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            run: self.run,
            id: idx as u32,
            parent: self.stack.last().map(|&p| p as u32),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `open`, which must be the innermost open span. Returns its
    /// duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.dur_ns() as f64 / 1e9
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children of one parent never overlap (the
/// tracer is single-threaded and spans nest), so that part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals: sample count, summed duration and summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rollup {
    pub samples: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Roll spans up by name, or by layer when `by_layer` is set.
pub fn rollup(spans: &[Span], by_layer: bool) -> BTreeMap<&'static str, Rollup> {
    let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let key = if by_layer { s.layer() } else { s.name };
        let r = out.entry(key).or_default();
        r.samples += 1;
        r.total_ns += s.dur_ns();
        r.self_ns += self_ns;
    }
    out
}

/// Every span as one JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.run, s.id, parent, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            run: 0,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span(0, None, "core.run", 0, 100),
            span(1, Some(0), "core.crawl", 10, 40),
            span(2, Some(1), "simnet.run_until", 15, 25),
            span(3, Some(0), "core.gap", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root interval.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn rollup_counts_samples_per_name_and_layer() {
        let spans = vec![
            span(0, None, "core.run", 0, 100),
            span(1, Some(0), "core.crawl", 0, 30),
            span(2, Some(0), "core.crawl", 30, 50),
            span(3, Some(0), "simnet.run_until", 50, 100),
        ];
        let by_name = rollup(&spans, false);
        assert_eq!(
            by_name["core.crawl"],
            Rollup {
                samples: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(by_name["core.run"].self_ns, 0);
        let by_layer = rollup(&spans, true);
        assert_eq!(by_layer["core"].samples, 3);
        assert_eq!(by_layer["core"].self_ns, 50);
        assert_eq!(by_layer["simnet"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_and_records_parents() {
        let mut t = Tracer::default();
        t.set_run(3);
        let outer = t.enter("core.run");
        t.time("core.crawl", || std::hint::black_box(1 + 1));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].run, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let line = to_jsonl(s);
        assert!(line.starts_with("{\"run\":3,\"id\":0,\"parent\":null,\"name\":\"core.run\""));
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn exiting_out_of_order_panics() {
        let mut t = Tracer::default();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
