//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps each call into a layer in a span: a name, a
//! start and an end on one monotonic clock, and the span that was open
//! when it began (its parent). Calls that happen millions of times per
//! run (the substrate's `advance` / `try_inject` / `try_receive`) are
//! not stored one by one: the [`TimedNetwork`](crate::timed_net)
//! decorator sums them and the harness records one *aggregate* span
//! per method under the span they ran in, with `calls` and `busy_ns`
//! (the summed call time) beside the first start and last end. An
//! ordinary span has `calls == 1` and `busy_ns == end_ns - start_ns`.
//!
//! A span's **self time** is its busy time minus the busy time of its
//! direct children — so a parent's children and its self time add up
//! to the parent exactly, which is what lets the per-layer numbers be
//! read as a partition of the run.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One recorded span (or aggregate of many short calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Which repetition of the workload the span belongs to.
    pub rep: u32,
}

/// Summed timing of one hot method, as kept by the network decorator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub first_start_ns: u64,
    pub last_end_ns: u64,
}

impl CallTotals {
    /// What happened between an `earlier` reading and this one.
    pub fn since(&self, earlier: &CallTotals) -> CallTotals {
        CallTotals {
            calls: self.calls - earlier.calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
            // The first call after `earlier` began no sooner than the
            // last call before it ended.
            first_start_ns: if earlier.calls == 0 {
                self.first_start_ns
            } else {
                earlier.last_end_ns
            },
            last_end_ns: self.last_end_ns,
        }
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The recorder: spans in memory, written out by the parent process
/// when the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// The instant `start_ns`/`end_ns` count from; the network
    /// decorator stamps its first/last calls on the same clock.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span under whichever span is currently open.
    pub fn open(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            busy_ns: 0,
            calls: 1,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        // Stamp last, so the recorder's own bookkeeping stays outside.
        self.spans[id].start_ns = self.now_ns();
        SpanId(id)
    }

    /// Close the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order: that is a bug in the
    /// harness, and would make self times meaningless.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id.0];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
    }

    /// Record the summed calls of one hot method as a child of
    /// `parent`. Nothing is recorded for a method never called.
    pub fn aggregate(&mut self, parent: SpanId, name: &str, totals: &CallTotals) {
        if totals.calls == 0 {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: totals.first_start_ns,
            end_ns: totals.last_end_ns,
            busy_ns: totals.busy_ns,
            calls: totals.calls,
            parent: Some(parent.0),
            rep: self.rep,
        });
    }

    /// Busy time of a closed span, in seconds.
    pub fn busy_s(&self, id: SpanId) -> f64 {
        self.spans[id.0].busy_ns as f64 / 1e9
    }

    /// Busy time of `id`'s direct children, in nanoseconds.
    fn children_ns(&self, id: SpanId) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id.0))
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Self time of a closed span, in seconds: its busy time minus
    /// what its direct children cover.
    pub fn self_s(&self, id: SpanId) -> f64 {
        self.spans[id.0]
            .busy_ns
            .saturating_sub(self.children_ns(id)) as f64
            / 1e9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Span {
    /// One line of the child → parent protocol.
    pub fn to_line(&self) -> String {
        format!(
            "span {} {} {} {} {} {} {}",
            self.name,
            self.start_ns,
            self.end_ns,
            self.busy_ns,
            self.calls,
            self.parent.map_or(-1, |p| p as i64),
            self.rep
        )
    }

    /// Inverse of [`Span::to_line`], given the fields after `span`.
    pub fn from_fields(fields: &[&str]) -> Option<Span> {
        let [name, start, end, busy, calls, parent, rep] = fields else {
            return None;
        };
        let parent: i64 = parent.parse().ok()?;
        Some(Span {
            name: (*name).to_string(),
            start_ns: start.parse().ok()?,
            end_ns: end.parse().ok()?,
            busy_ns: busy.parse().ok()?,
            calls: calls.parse().ok()?,
            parent: usize::try_from(parent).ok(),
            rep: rep.parse().ok()?,
        })
    }
}

/// Write the spans of every round of one workload as a JSON array.
/// `parent` indexes into the same round's spans.
///
/// # Errors
///
/// Any I/O error creating the directory or writing the file.
pub fn write_json(path: &Path, workload: &str, rounds: &[Vec<Span>]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = String::from("[\n");
    let mut first = true;
    for (round, spans) in rounds.iter().enumerate() {
        for s in spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\
                 \"parent\":{},\"workload\":{},\"round\":{},\"rep\":{}}}",
                json::quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls,
                parent,
                json::quote(workload),
                round,
                s.rep
            );
        }
    }
    out.push_str("\n]\n");
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_self_time_add_up_to_the_parent() {
        let mut r = Recorder::new();
        let root = r.open("root");
        let a = r.open("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(a);
        let b = r.open("b");
        r.close(b);
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.close(root);
        r.aggregate(
            root,
            "hot",
            &CallTotals {
                calls: 1000,
                busy_ns: 100_000,
                first_start_ns: 1,
                last_end_ns: 2,
            },
        );
        let children: f64 = [a, b].iter().map(|&c| r.busy_s(c)).sum::<f64>() + 100_000e-9;
        assert!((children + r.self_s(root) - r.busy_s(root)).abs() < 1e-9);
        assert!(
            r.self_s(root) >= 0.0008,
            "the 1 ms outside a and b, less the hot calls, is root's own"
        );
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[3].calls, 1000);
        // A grandchild is not subtracted twice.
        assert_eq!(r.self_s(a), r.busy_s(a));
    }

    #[test]
    fn uncalled_methods_leave_no_span() {
        let mut r = Recorder::new();
        let root = r.open("root");
        r.close(root);
        r.aggregate(root, "never", &CallTotals::default());
        assert_eq!(r.spans().len(), 1);
    }

    #[test]
    fn call_totals_difference() {
        let a = CallTotals {
            calls: 2,
            busy_ns: 10,
            first_start_ns: 5,
            last_end_ns: 20,
        };
        let b = CallTotals {
            calls: 5,
            busy_ns: 45,
            first_start_ns: 5,
            last_end_ns: 90,
        };
        assert_eq!(
            b.since(&a),
            CallTotals {
                calls: 3,
                busy_ns: 35,
                first_start_ns: 20,
                last_end_ns: 90
            }
        );
        assert_eq!(b.since(&CallTotals::default()), b);
    }

    #[test]
    fn span_lines_round_trip() {
        let s = Span {
            name: "netsim.advance".into(),
            start_ns: 5,
            end_ns: 99,
            busy_ns: 40,
            calls: 7,
            parent: Some(3),
            rep: 2,
        };
        let line = s.to_line();
        let fields: Vec<&str> = line.split_whitespace().skip(1).collect();
        assert_eq!(Span::from_fields(&fields), Some(s.clone()));
        let root = Span { parent: None, ..s };
        let line = root.to_line();
        let fields: Vec<&str> = line.split_whitespace().skip(1).collect();
        assert_eq!(Span::from_fields(&fields), Some(root));
    }
}
