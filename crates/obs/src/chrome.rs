//! Chrome `trace_event` JSON export.
//!
//! The output loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev) (legacy JSON mode): one *process*
//! per simulation cell, with rows for the morph window, per-class stall
//! windows, per-context borrow windows, and instant markers for request
//! arrivals and completions, dispatches, hedges and purges. Everything is converted to a shared microsecond
//! axis via each [`TraceLog`]'s `ticks_per_us`.
//!
//! The builder is deliberately string-based: output bytes are a pure
//! function of the input logs (no maps with nondeterministic iteration, no
//! timestamps from the host clock), which is what lets the test-suite
//! assert byte equality between 1-worker and 8-worker runs.

use crate::registry::{escape, json_f64};
use crate::trace::{ThreadTag, TraceEvent, TraceLog};
use std::collections::{BTreeMap, VecDeque};

/// Virtual-thread rows within one cell's process. The numbers are part of
/// the exported bytes, so they stay fixed; 5 is unused.
const TID_MORPH: u64 = 1;
const TID_STALL_MASTER: u64 = 2;
const TID_STALL_FILLER: u64 = 3;
const TID_STALL_LENDER: u64 = 4;
const TID_REQUESTS: u64 = 6;
const TID_DISPATCH: u64 = 7;
const TID_PURGE: u64 = 8;
/// Borrow rows start here (one per virtual-context id, modulo 32).
const TID_BORROW_BASE: u64 = 16;
/// Every stall waits on the one remote access the engines issue.
const STALL_LABEL: &str = "stall:remote_memory";

fn stall_tid(tag: ThreadTag) -> u64 {
    match tag {
        ThreadTag::Master => TID_STALL_MASTER,
        ThreadTag::Filler => TID_STALL_FILLER,
        ThreadTag::Lender => TID_STALL_LENDER,
    }
}

/// One cell's event stream → `trace_event` array entries.
struct CellWriter<'a> {
    pid: usize,
    ticks_per_us: f64,
    out: &'a mut Vec<String>,
}

impl CellWriter<'_> {
    fn us(&self, ticks: u64) -> String {
        json_f64(ticks as f64 / self.ticks_per_us.max(f64::MIN_POSITIVE))
    }

    fn span(&mut self, name: &str, tid: u64, begin: u64, end: u64, args: &str) {
        let ts = self.us(begin);
        let dur = self.us(end.saturating_sub(begin));
        self.out.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}",
            escape(name),
            self.pid,
        ));
    }

    fn instant(&mut self, name: &str, tid: u64, at: u64, args: &str) {
        let ts = self.us(at);
        self.out.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}",
            escape(name),
            self.pid,
        ));
    }
}

/// Renders `cells` — `(label, log)` pairs in the caller's (deterministic)
/// order — as a complete Chrome `trace_event` JSON document.
#[must_use]
pub fn chrome_trace_json(cells: &[(String, TraceLog)]) -> String {
    let mut entries: Vec<String> = Vec::new();
    for (pid, (label, log)) in cells.iter().enumerate() {
        entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape(label),
        ));
        let horizon = log.events.iter().map(TraceEvent::at).max().unwrap_or(0);
        let mut w = CellWriter {
            pid,
            ticks_per_us: log.ticks_per_us,
            out: &mut entries,
        };

        // Pairing state. Begin/end events pair FIFO per row; FIFO order is
        // emission order, so pairing is deterministic by construction.
        let mut open_morph: Option<(u64, &'static str)> = None;
        let mut open_stalls: BTreeMap<ThreadTag, VecDeque<u64>> = BTreeMap::new();
        let mut open_borrows: BTreeMap<u64, u64> = BTreeMap::new();

        for ev in &log.events {
            match *ev {
                TraceEvent::MorphIn { at, cause } => {
                    open_morph = Some((at, cause.name()));
                }
                TraceEvent::MorphOut { at } => {
                    if let Some((begin, cause)) = open_morph.take() {
                        w.span(
                            "morph",
                            TID_MORPH,
                            begin,
                            at,
                            &format!("\"cause\":\"{cause}\""),
                        );
                    }
                }
                TraceEvent::StallBegin { at, tag } => {
                    open_stalls.entry(tag).or_default().push_back(at);
                }
                TraceEvent::StallEnd { at, tag } => {
                    if let Some(begin) = open_stalls.get_mut(&tag).and_then(VecDeque::pop_front) {
                        w.span(
                            STALL_LABEL,
                            stall_tid(tag),
                            begin,
                            at,
                            &format!("\"thread\":\"{}\"", tag.name()),
                        );
                    }
                }
                TraceEvent::FillerBorrow { at, ctx } => {
                    open_borrows.insert(ctx, at);
                }
                TraceEvent::FillerReturn { at, ctx, reason } => {
                    if let Some(begin) = open_borrows.remove(&ctx) {
                        w.span(
                            &format!("borrow:ctx{ctx}"),
                            TID_BORROW_BASE + ctx % 32,
                            begin,
                            at,
                            &format!("\"reason\":\"{}\"", reason.name()),
                        );
                    }
                }
                TraceEvent::RequestArrive { at } => {
                    w.instant("request_arrive", TID_REQUESTS, at, "");
                }
                TraceEvent::Dispatch {
                    at,
                    server,
                    queue_len,
                } => {
                    w.instant(
                        "dispatch",
                        TID_DISPATCH,
                        at,
                        &format!("\"server\":{server},\"queue_len\":{queue_len}"),
                    );
                }
                TraceEvent::RequestComplete { at, latency } => {
                    let lat_us = json_f64(latency as f64 / log.ticks_per_us.max(f64::MIN_POSITIVE));
                    w.instant(
                        "request_complete",
                        TID_REQUESTS,
                        at,
                        &format!("\"latency_us\":{lat_us}"),
                    );
                }
                TraceEvent::HedgeFire { at, server } => {
                    w.instant(
                        "hedge_fire",
                        TID_DISPATCH,
                        at,
                        &format!("\"server\":{server}"),
                    );
                }
                TraceEvent::Purge {
                    at,
                    server,
                    in_service,
                } => {
                    w.instant(
                        "purge",
                        TID_PURGE,
                        at,
                        &format!("\"server\":{server},\"in_service\":{in_service}"),
                    );
                }
            }
        }

        // Close windows still open at the end of the record against the
        // last observed timestamp, so truncated rings still render.
        if let Some((begin, cause)) = open_morph {
            w.span(
                "morph",
                TID_MORPH,
                begin,
                horizon.max(begin),
                &format!("\"cause\":\"{cause}\",\"open\":true"),
            );
        }
        for (tag, begins) in &open_stalls {
            for &begin in begins {
                w.span(
                    STALL_LABEL,
                    stall_tid(*tag),
                    begin,
                    horizon.max(begin),
                    &format!("\"thread\":\"{}\",\"open\":true", tag.name()),
                );
            }
        }
        for (&ctx, &begin) in &open_borrows {
            w.span(
                &format!("borrow:ctx{ctx}"),
                TID_BORROW_BASE + ctx % 32,
                begin,
                horizon.max(begin),
                "\"open\":true",
            );
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Why a Chrome trace payload failed validation in [`parse_trace_events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The payload is not valid JSON at all.
    InvalidJson(String),
    /// The top level is valid JSON but not an object.
    NotAnObject,
    /// The top-level object has no `traceEvents` field.
    MissingTraceEvents,
    /// `traceEvents` exists but is not an array.
    TraceEventsNotArray,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::InvalidJson(e) => write!(f, "malformed trace JSON: {e}"),
            TraceParseError::NotAnObject => f.write_str("trace document is not a JSON object"),
            TraceParseError::MissingTraceEvents => {
                f.write_str("trace document has no `traceEvents` field")
            }
            TraceParseError::TraceEventsNotArray => f.write_str("`traceEvents` is not an array"),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Parses a Chrome `trace_event` document and extracts the `traceEvents`
/// array, reporting malformed payloads as a typed [`TraceParseError`]
/// instead of panicking — external trace files (or truncated exports)
/// must not abort the tooling that inspects them.
///
/// # Errors
///
/// [`TraceParseError::InvalidJson`] on a syntax error, `NotAnObject` /
/// `MissingTraceEvents` / `TraceEventsNotArray` on shape mismatches.
pub fn parse_trace_events(json: &str) -> Result<Vec<serde_json::Value>, TraceParseError> {
    let v =
        serde_json::parse_value(json).map_err(|e| TraceParseError::InvalidJson(e.to_string()))?;
    let serde_json::Value::Object(fields) = v else {
        return Err(TraceParseError::NotAnObject);
    };
    // The first `traceEvents` field, as `Value::get_field` finds it, moved
    // out of the document rather than copied.
    match fields.into_iter().find(|(k, _)| k == "traceEvents") {
        None => Err(TraceParseError::MissingTraceEvents),
        Some((_, serde_json::Value::Array(items))) => Ok(items),
        Some(_) => Err(TraceParseError::TraceEventsNotArray),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MorphTrigger, ReturnReason, Tracer};

    fn sample_log() -> TraceLog {
        let t = Tracer::enabled(64, 3400.0);
        t.emit(|| TraceEvent::RequestArrive { at: 0 });
        t.emit(|| TraceEvent::StallBegin {
            at: 100,
            tag: ThreadTag::Master,
        });
        t.emit(|| TraceEvent::StallEnd {
            at: 6900,
            tag: ThreadTag::Master,
        });
        t.emit(|| TraceEvent::MorphIn {
            at: 120,
            cause: MorphTrigger::Stall,
        });
        t.emit(|| TraceEvent::FillerBorrow { at: 140, ctx: 2 });
        t.emit(|| TraceEvent::FillerReturn {
            at: 6800,
            ctx: 2,
            reason: ReturnReason::Evict,
        });
        t.emit(|| TraceEvent::MorphOut { at: 6920 });
        t.emit(|| TraceEvent::RequestComplete {
            at: 7000,
            latency: 7000,
        });
        t.take()
    }

    #[test]
    fn export_parses_and_contains_the_morph_window() {
        let json = chrome_trace_json(&[("dyad0".to_string(), sample_log())]);
        let items = parse_trace_events(&json).expect("well-formed export");
        assert!(items.len() >= 6, "got {}", items.len());
        assert!(json.contains("\"name\":\"morph\""));
        assert!(json.contains("\"cause\":\"stall\""));
        assert!(json.contains("borrow:ctx2"));
        assert!(json.contains("process_name"));
    }

    #[test]
    fn malformed_payloads_are_typed_errors_not_panics() {
        // Truncated JSON (a cut-off export is the common real-world case).
        assert!(matches!(
            parse_trace_events("{\"traceEvents\":[{\"name\":"),
            Err(TraceParseError::InvalidJson(_))
        ));
        // Valid JSON, wrong top-level shape.
        assert_eq!(
            parse_trace_events("[1,2,3]"),
            Err(TraceParseError::NotAnObject)
        );
        // An object without the required field.
        assert_eq!(
            parse_trace_events("{\"displayTimeUnit\":\"ms\"}"),
            Err(TraceParseError::MissingTraceEvents)
        );
        // The field present but not an array.
        assert_eq!(
            parse_trace_events("{\"traceEvents\":42}"),
            Err(TraceParseError::TraceEventsNotArray)
        );
        // And every error renders a human-readable message.
        let msg = parse_trace_events("not json").unwrap_err().to_string();
        assert!(msg.contains("malformed"), "{msg}");
    }

    #[test]
    fn dispatch_events_render_on_their_own_row() {
        let t = Tracer::enabled(8, 1000.0);
        t.emit(|| TraceEvent::RequestArrive { at: 1000 });
        t.emit(|| TraceEvent::Dispatch {
            at: 1000,
            server: 3,
            queue_len: 2,
        });
        t.emit(|| TraceEvent::RequestComplete {
            at: 5000,
            latency: 4000,
        });
        let json = chrome_trace_json(&[("farm".to_string(), t.take())]);
        assert!(parse_trace_events(&json).is_ok(), "{json}");
        assert!(json.contains("\"name\":\"dispatch\""));
        assert!(json.contains("\"server\":3,\"queue_len\":2"));
        assert!(json.contains(&format!("\"tid\":{TID_DISPATCH},")));
    }

    #[test]
    fn hedge_and_purge_events_render_as_instants() {
        let t = Tracer::enabled(8, 1000.0);
        t.emit(|| TraceEvent::RequestArrive { at: 1000 });
        t.emit(|| TraceEvent::HedgeFire {
            at: 21_000,
            server: 1,
        });
        t.emit(|| TraceEvent::Purge {
            at: 30_000,
            server: 1,
            in_service: true,
        });
        let json = chrome_trace_json(&[("farm".to_string(), t.take())]);
        assert!(parse_trace_events(&json).is_ok(), "{json}");
        assert!(json.contains("\"name\":\"hedge_fire\""));
        assert!(json.contains("\"name\":\"purge\""));
        assert!(json.contains("\"server\":1,\"in_service\":true"));
        assert!(json.contains(&format!("\"tid\":{TID_PURGE},")));
    }

    #[test]
    fn timestamps_convert_to_microseconds() {
        let json = chrome_trace_json(&[("c".to_string(), sample_log())]);
        // The 6800-cycle stall at 3400 cycles/µs spans 2µs: ts 100/3400.
        assert!(
            json.contains("\"dur\":2,"),
            "expected a 2µs stall span in {json}"
        );
    }

    #[test]
    fn export_is_deterministic() {
        let cells = vec![
            ("a".to_string(), sample_log()),
            ("b".to_string(), sample_log()),
        ];
        assert_eq!(chrome_trace_json(&cells), chrome_trace_json(&cells));
    }

    #[test]
    fn unclosed_windows_still_render() {
        let t = Tracer::enabled(8, 1000.0);
        t.emit(|| TraceEvent::MorphIn {
            at: 5,
            cause: MorphTrigger::Idle,
        });
        t.emit(|| TraceEvent::FillerBorrow { at: 6, ctx: 0 });
        t.emit(|| TraceEvent::RequestArrive { at: 50 });
        let json = chrome_trace_json(&[("open".to_string(), t.take())]);
        assert!(serde_json::parse_value(&json).is_ok(), "{json}");
        assert!(json.contains("\"open\":true"));
    }

    #[test]
    fn empty_cells_export_metadata_only() {
        let json = chrome_trace_json(&[("empty".to_string(), TraceLog::default())]);
        assert!(serde_json::parse_value(&json).is_ok(), "{json}");
        assert!(json.contains("empty"));
    }
}
