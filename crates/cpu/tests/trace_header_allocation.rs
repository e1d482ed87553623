//! Decoding a trace reserves memory by what arrives, not by what the header
//! claims.
//!
//! A trace header carries its op count, and `Trace::read_from` takes it
//! from the input before it decodes a single op. A 13-byte header claiming
//! `u64::MAX` ops must fail with `UnexpectedEof` without a large
//! reservation. The global allocator is per binary, so this check has a
//! test binary of its own: a forwarding allocator records the largest
//! single request.

use duplexity_cpu::traceio::{TRACE_MAGIC, TRACE_VERSION};
use duplexity_cpu::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest size, in bytes, requested from [`Largest`] since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`] and records each requested size in [`LARGEST`].
/// The trait's default `alloc_zeroed` and `realloc` go through `alloc`, so
/// every request is recorded.
struct Largest;

// SAFETY: `alloc` and `dealloc` pass their arguments unchanged to
// `System`, so `System` upholds the `GlobalAlloc` contract for every
// pointer handed out. The only added work is an atomic `fetch_max`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

#[test]
fn a_header_claiming_u64_max_ops_reserves_under_one_mib() {
    let mut header = TRACE_MAGIC.to_vec();
    header.push(TRACE_VERSION);
    header.extend_from_slice(&u64::MAX.to_le_bytes());
    LARGEST.store(0, Ordering::Relaxed);
    let err = Trace::read_from(header.as_slice()).unwrap_err();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        largest < 1 << 20,
        "decoding a {}-byte header allocated {largest} bytes at once",
        header.len()
    );
}
