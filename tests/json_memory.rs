//! Parsing JSON holds about as much memory as the value tree it returns.
//!
//! The vendored parser gives back the spare capacity of every array,
//! object and string it closes, and `parse_trace_events` moves the
//! `traceEvents` array out of the parsed document instead of copying it.
//! The global allocator is per binary, so these checks have a test binary
//! of their own: a forwarding allocator tracks, per thread, the live
//! requested bytes and their peak, so tests running on other threads do
//! not count.

use duplexity::{Design, ServerSim, Workload};
use duplexity_obs::{chrome_trace_json, parse_trace_events, Tracer};
use serde_json::parse_value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread requested minus the bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Largest value of [`LIVE`] since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Forwards to [`System`] and keeps [`LIVE`] and [`PEAK`].
struct Counting;

fn count(delta: isize) {
    let live = LIVE.get() + delta;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract for every pointer handed out.
// The only added work updates this thread's counters, which are
// const-initialized and have no destructor, so it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns what it returned with the peak of the bytes it
/// held live above those live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.get();
    PEAK.set(start);
    let out = f();
    (out, (PEAK.get() - start) as usize)
}

/// Arrays 127 levels deep, repeated in one outer array, as in
/// `tests/json_properties.rs`: every level but the innermost holds exactly
/// one element, which a `Vec` grown by `push` keeps at a capacity of four.
#[test]
fn nested_arrays_peak_below_twenty_times_their_length() {
    let deep = "[".repeat(127) + &"]".repeat(127);
    let n = (4 << 20) / (deep.len() + 1);
    let doc = format!("[{}]", vec![deep; n].join(","));
    let (tree, peak) = peak_of(|| parse_value(&doc).expect("127 levels under one array"));
    drop(tree);
    let ratio = peak as f64 / doc.len() as f64;
    assert!(
        ratio < 20.0,
        "parsing {} bytes peaked at {peak} bytes ({ratio:.1}x)",
        doc.len()
    );
}

/// Strings of 33 characters, each grown one character at a time to a
/// capacity of 64 bytes, keep only the bytes they hold once closed.
#[test]
fn strings_peak_below_two_point_three_times_their_length() {
    let item = format!("\"{}\"", "s".repeat(33));
    let n = (4 << 20) / (item.len() + 1);
    let doc = format!("[{}]", vec![item; n].join(","));
    let (tree, peak) = peak_of(|| parse_value(&doc).expect("an array of strings"));
    drop(tree);
    let ratio = peak as f64 / doc.len() as f64;
    assert!(
        ratio < 2.3,
        "parsing {} bytes peaked at {peak} bytes ({ratio:.2}x)",
        doc.len()
    );
}

/// Extracting the events of a real export costs no more than parsing it.
#[test]
fn trace_events_peak_no_higher_than_the_parse() {
    let tracer = Tracer::enabled(1 << 16, 3400.0);
    let _ = ServerSim::new(Design::Duplexity, Workload::McRouter)
        .horizon_cycles(400_000)
        .run_traced(&tracer);
    let json = chrome_trace_json(&[("duplexity/mcrouter".to_string(), tracer.take())]);
    let (tree, parse_peak) = peak_of(|| parse_value(&json).expect("a fresh export parses"));
    drop(tree);
    let (events, events_peak) = peak_of(|| parse_trace_events(&json).expect("it has events"));
    assert!(events.len() > 100, "{} events", events.len());
    drop(events);
    assert!(
        events_peak <= parse_peak,
        "parse_trace_events peaked at {events_peak} bytes, parse_value at {parse_peak} bytes \
         on a {}-byte export",
        json.len()
    );
}
