//! The span recorder and the statistics the report is built from.
//!
//! A traced run records one span around each public call the benchmark
//! makes into the archive (`prepare`, `open`, each `next_batch`, each
//! `rows`, `finish`, `run`), nested under the statement's `stmt` span;
//! spans of one statement share its id. Spans stay in memory and are
//! analysed after the run. A disabled recorder records nothing, so the
//! untraced loop runs the same code.

use std::time::Instant;

/// Index of "no parent".
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Statement id; every span of one statement carries it.
    pub stmt: u64,
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client thread's spans.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle to an open span (a no-op token when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, stmt: u64, name: &'static str) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stmt,
            name,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn close(&mut self, token: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop().expect("close matches an open span");
        assert_eq!(top, token.0, "spans close innermost first");
        self.spans[top as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, stmt: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.open(stmt, name);
        let out = f();
        self.close(token);
        out
    }

    /// Duration of the most recently opened span (once it is closed).
    pub fn last_dur_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::dur_ns)
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Check that every span nests inside its parent, in time and by
/// statement id. Returns the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.parent == ROOT {
            continue;
        }
        let p = spans
            .get(s.parent as usize)
            .ok_or_else(|| format!("span {i} ({}) has a missing parent", s.name))?;
        if p.stmt != s.stmt {
            return Err(format!(
                "span {i} ({}) of statement {} sits under statement {}",
                s.name, s.stmt, p.stmt
            ));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {i} ({}) leaves its parent {}",
                s.name, p.name
            ));
        }
    }
    Ok(())
}

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`p` in (0, 1)), reported only when
/// at least [`MIN_BEYOND`] samples lie above it; `None` otherwise.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps `0.99 * 1000` at rank 990 whatever the rounding.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The plain median (mean of the middle pair for even counts) — for a
/// handful of repeats, where no tail is claimed.
pub fn median(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Tracing overhead: how much slower the traced loop ran, as a share of
/// the traced throughput (0.05 = the untraced loop completed 5% more
/// statements per second).
pub fn overhead(untraced_per_s: f64, traced_per_s: f64) -> f64 {
    untraced_per_s / traced_per_s - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stmt: u64, name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            stmt,
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 above it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples: p99 is rank 990 with only 9 above — refused.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p90 needs 100 samples.
        assert_eq!(percentile(&v[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.90), None);
        // p50 needs 20.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.99), Some(990.0));
    }

    #[test]
    fn median_of_few() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, "stmt", ROOT, 0, 100),
            span(1, "prepare", 0, 10, 30),
            span(1, "next_batch", 0, 30, 60),
            span(1, "rows", 0, 60, 70),
            // Overlapping children are covered once.
            span(1, "a", 2, 35, 50),
            span(1, "b", 2, 40, 55),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 20 - 30 - 10);
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 30 - 20);
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 15);
    }

    #[test]
    fn recorder_nests_spans_per_statement() {
        let mut rec = Recorder::new(true, Instant::now());
        for stmt in [7u64, 8] {
            let root = rec.open(stmt, "stmt");
            rec.span(stmt, "prepare", || std::hint::black_box(1 + 1));
            let open = rec.open(stmt, "open");
            rec.span(stmt, "inner", || ());
            rec.close(open);
            rec.close(root);
        }
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[4].parent, ROOT);
        assert_eq!(spans[5].parent, 4);
        assert!(spans[4..].iter().all(|s| s.stmt == 8));
        check_nesting(&spans).unwrap();
        let st = self_times(&spans);
        assert!(st[0] <= spans[0].dur_ns());

        // A child filed under another statement's span is rejected, and
        // so is one that outlives its parent.
        let mut bad = spans.clone();
        bad[5].stmt = 7;
        assert!(check_nesting(&bad).is_err());
        let mut late = spans;
        late[1].end_ns = late[0].end_ns + 1;
        assert!(check_nesting(&late).is_err());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        let t = rec.open(1, "stmt");
        assert_eq!(rec.span(1, "prepare", || 5), 5);
        rec.close(t);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn overhead_is_relative_slowdown() {
        assert!((overhead(105.0, 100.0) - 0.05).abs() < 1e-12);
        assert_eq!(overhead(100.0, 100.0), 0.0);
    }
}
