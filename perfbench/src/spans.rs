//! Spans recorded by the benchmark itself around its calls into a
//! layer's public functions. Nothing inside the library is instrumented:
//! a span here brackets a call site in this package.
//!
//! Spans are kept in memory and summarised when the run ends. Every span
//! of one operation shares the operation's id (`op`), and a child names
//! its parent by id, so one operation forms one tree.

use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The operation this span belongs to.
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Id of the `slot`-th span of operation `op`. Slot 0 is the root.
pub fn span_id(op: u64, slot: u64) -> u64 {
    op * 64 + slot
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span of operation `op` in `slot`, under `parent_slot`
    /// (`None` for the root).
    pub fn record(
        &self,
        op: u64,
        slot: u64,
        parent_slot: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            op,
            id: span_id(op, slot),
            parent: parent_slot.map(|p| span_id(op, p)),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span buffer").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer"))
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .collect()
}

/// Self time (µs) of every span called `name`: its duration minus the
/// part of it its children cover.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e3
        })
        .collect()
}

/// Check that the spans form one tree per operation: exactly one root
/// per op, every parent exists, and every parent belongs to the same op.
pub fn check_trees(spans: &[Span]) -> Result<(), String> {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span ids".into());
    }
    let mut roots: HashMap<u64, usize> = HashMap::new();
    for s in spans {
        match s.parent {
            None => *roots.entry(s.op).or_default() += 1,
            Some(p) => {
                let parent = by_id
                    .get(&p)
                    .ok_or_else(|| format!("span {} ({}) has no parent {p}", s.id, s.name))?;
                if parent.op != s.op {
                    return Err(format!(
                        "span {} of op {} has a parent in op {}",
                        s.id, s.op, parent.op
                    ));
                }
            }
        }
    }
    for s in spans {
        if roots.get(&s.op) != Some(&1) {
            return Err(format!("op {} does not have exactly one root", s.op));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let t0 = Instant::now();
        let r = Recorder::new(t0);
        let us = |n| t0 + Duration::from_micros(n);
        r.record(1, 0, None, "root", us(0), us(100));
        r.record(1, 1, Some(0), "a", us(10), us(40));
        r.record(1, 2, Some(0), "b", us(30), us(60));
        let spans = r.take();
        assert_eq!(self_times(&spans, "root"), vec![50.0]);
        assert!(check_trees(&spans).is_ok());
    }

    #[test]
    fn orphan_and_cross_op_parents_are_rejected() {
        let t0 = Instant::now();
        let r = Recorder::new(t0);
        r.record(1, 0, None, "root", t0, t0);
        r.record(2, 1, Some(5), "orphan", t0, t0);
        assert!(check_trees(&r.take()).is_err());
        let cross = Span {
            op: 2,
            id: span_id(2, 1),
            parent: Some(span_id(1, 0)),
            name: "x",
            start_ns: 0,
            end_ns: 0,
        };
        let root1 = Span {
            op: 1,
            id: span_id(1, 0),
            parent: None,
            name: "root",
            start_ns: 0,
            end_ns: 0,
        };
        assert!(check_trees(&[root1, cross]).is_err());
    }
}
