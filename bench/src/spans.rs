//! In-memory wall-clock spans recorded around the benchmark's calls into
//! the simulator's public API.
//!
//! Spans live only in the benchmark: the program under test is never
//! instrumented. A disabled log runs the wrapped closure and records
//! nothing, so the end-to-end numbers come from an untraced run and a
//! separate traced run gives the per-layer breakdown.

use std::time::Instant;

/// One timed call: `[start_s, end_s)` in seconds since the log was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the log (1-based, in opening order).
    pub id: u64,
    /// The enclosing span's id, `None` for a root.
    pub parent: Option<u64>,
    /// The call, e.g. `run_fig5` or `cpu.design.duplexity.mcrouter`.
    pub name: String,
    /// The layer the call belongs to (`core`, `cpu`, `queueing`, ...).
    pub layer: &'static str,
    /// The benchmark workload the span was recorded under.
    pub workload: String,
    /// Start, seconds since the log was created.
    pub start_s: f64,
    /// End, seconds since the log was created.
    pub end_s: f64,
}

impl Span {
    /// Wall time covered by the span.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A stack-structured span recorder (single-threaded: the benchmark opens
/// spans only on its main thread, around whole public calls).
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    workload: String,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            workload: String::new(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording log; spans are stamped with `workload` until
    /// [`SpanLog::set_workload`] changes it.
    #[must_use]
    pub fn enabled(workload: &str) -> Self {
        Self {
            enabled: true,
            workload: workload.to_string(),
            ..Self::disabled()
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps later spans with `workload`.
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }

    /// Runs `f` inside a span named `name` of layer `layer`. Spans opened
    /// inside `f` (through the log it receives) become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u64 + 1;
        let parent = self.stack.last().copied();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            layer,
            workload: self.workload.clone(),
            start_s,
            end_s: start_s,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_s = self.origin.elapsed().as_secs_f64();
        self.spans[(id - 1) as usize].end_s = end_s;
        out
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total wall time of the spans named `name` under `workload`.
    #[must_use]
    pub fn total_s(&self, workload: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .fold(0.0, |total, s| total + s.duration_s())
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover (children never overlap, since spans nest on one
    /// thread).
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[(p - 1) as usize] -= s.duration_s();
            }
        }
        own
    }

    /// The spans as a JSON array, one object per span with its self time.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": {:?}, \"layer\": {:?}, \
                 \"workload\": {:?}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                s.id, s.name, s.layer, s.workload, s.start_s, s.end_s, self_s
            ));
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing_and_returns_the_value() {
        let mut log = SpanLog::disabled();
        let v = log.span("core", "outer", |log| log.span("cpu", "inner", |_| 7));
        assert_eq!(v, 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut log = SpanLog::enabled("w");
        log.span("core", "outer", |log| {
            log.span("cpu", "a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            log.span("cpu", "b", |_| ());
        });
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(1));
        assert_eq!(s[2].parent, Some(1));
        let own = log.self_times();
        let children = s[1].duration_s() + s[2].duration_s();
        assert!((own[0] - (s[0].duration_s() - children)).abs() < 1e-12);
        assert!(log.total_s("w", "a") >= 0.002);
        let json = log.to_json();
        assert!(json.contains("\"name\": \"outer\"") && json.contains("\"parent\": 1"));
        assert!(serde_json::parse_value(&json).is_ok());
    }
}
