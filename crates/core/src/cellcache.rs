//! Content-addressed, on-disk cache for simulation-cell results.
//!
//! Every experiment grid in this workspace is a pure function of its
//! options: a cell's output is fully determined by `(options, seed,
//! coordinates)`, never by the worker count, wall-clock, or host. That
//! purity is what the determinism test suite enforces — and it is exactly
//! the property a content-addressed cache needs. This module turns it
//! into an incremental-re-run substrate. The sweep drivers reach it
//! through the crate's grid runner (`experiments/grid.rs`), which owns
//! the whole contract once: cells → keys ([`CellKey`] digests of every
//! cell's inputs) → [`CellCache::probe`] *before* any
//! [`ExecPool`](crate::exec::ExecPool) work list is built → calibration
//! restricted to designs with a missed cell (plus Baseline) → the misses'
//! replications flattened into the pool → merge → [`CellCache::store`] →
//! [`assemble`] in grid order. Figure 5 follows the same probe → misses →
//! store → assemble shape around its own passes. Cold, warm, and mixed
//! runs therefore produce byte-identical artifacts at any worker count.
//!
//! ## Keying contract
//!
//! A [`CellKey`] is an FNV-1a-128 digest over a canonical field-by-field
//! encoding (the [`Digest`] trait): every field contributes its name, a
//! type tag, and its exact value bytes (`f64` via [`f64::to_bits`], so
//! `-0.0`, `inf`, and NaN payloads are all distinct), every struct
//! contributes a per-struct tag, and every key folds in
//! [`CACHE_SCHEMA_VERSION`] plus the driver's name. Changing any digested
//! option, any coordinate, the seed, or the cache format therefore
//! changes the key; two runs that share a key share a result.
//!
//! Deliberately **excluded** from every digest, mirroring the
//! [`RunManifest`](duplexity_obs::RunManifest) requested-inputs-only
//! rule: resolved worker-thread counts (results are bit-identical for
//! every value) and anything wall-clock. Also excluded: the template
//! [`Mg1Options::seed`], which every driver overwrites with a per-cell
//! stream derived from the experiment seed.
//!
//! ## Storage contract
//!
//! One file per key under the cache directory (`--cache <dir>` or
//! `DUPLEXITY_CACHE`; default off), written atomically via
//! tmp-write+rename so a crashed or concurrent run can never publish a
//! torn entry. Each file carries a versioned envelope (magic line, key
//! echo, payload byte length); a corrupt, truncated, or
//! version-mismatched entry degrades to a miss with a stderr warning
//! (gated behind the verbose `DUPLEXITY_LOG` level, like all obs
//! bookkeeping) — the cache can make a run faster, never wrong. There is
//! no eviction:
//! entries are invalidated by *keying* (stale keys are simply never
//! probed again), and the directory can be deleted wholesale at any
//! time.
//!
//! Cache-hit counters ([`CellCache::registry`]) are observability, like
//! [`PoolReport`](duplexity_obs::PoolReport) wall-clock data: they are
//! reported to stderr / bench JSON but never folded into deterministic
//! artifacts, because a warm run's counters differ from a cold run's.

use duplexity_cpu::designs::{Design, Stepping};
use duplexity_net::{FaultPlan, RetryPolicy};
use duplexity_obs::logx::log_verbose;
use duplexity_obs::Registry;
use duplexity_queueing::cluster::{BalancerPolicy, DupMode, DuplicationPolicy};
use duplexity_queueing::des::Mg1Options;
use duplexity_queueing::eventcore::EventQueueKind;
use duplexity_queueing::rack::{Coordination, RackPlan, StealPolicy};
use duplexity_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version of the on-disk entry format *and* of the digest schema. Bump
/// whenever the envelope layout, a payload encoding, or the canonical
/// digest of any option struct changes; old entries then miss (by key,
/// and by envelope check for entries probed under the old scheme).
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// Magic first line of every cache entry.
const MAGIC: &str = "duplexity-cell";

/// Environment variable naming the cache directory when `--cache` is not
/// given.
pub const CACHE_ENV: &str = "DUPLEXITY_CACHE";

/// One corrupt/stale/unwritable-entry warning on stderr, gated behind the
/// verbose `DUPLEXITY_LOG` level so 8-worker sweeps do not interleave
/// garbage by default. Never stdout, never artifacts: a warning can
/// change nothing but a miss counter.
fn cache_warn(msg: std::fmt::Arguments<'_>) {
    if log_verbose() {
        eprintln!("[duplexity] cellcache: {msg}");
    }
}

// FNV-1a, 128-bit variant (offset basis and prime per the FNV spec).
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Canonical field-by-field hasher behind [`CellKey`]s.
///
/// Each helper folds the field *name*, a one-byte type tag, and the
/// exact value bytes, so reordering fields, renaming them, or moving a
/// value between types all change the digest.
#[derive(Debug, Clone)]
pub struct DigestWriter {
    state: u128,
}

impl Default for DigestWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestWriter {
    /// A fresh writer folding in the schema version.
    #[must_use]
    pub fn new() -> Self {
        let mut w = Self { state: FNV_OFFSET };
        w.absorb(b"schema");
        w.absorb(&CACHE_SCHEMA_VERSION.to_le_bytes());
        w
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        // Length-delimit every absorbed chunk so ("ab","c") never
        // collides with ("a","bc").
        self.state ^= bytes.len() as u128;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds a per-struct tag (call once at the top of every
    /// [`Digest::digest`] impl).
    pub fn tag(&mut self, tag: &str) {
        self.absorb(b"#");
        self.absorb(tag.as_bytes());
    }

    /// Folds a `u64` field.
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.absorb(name.as_bytes());
        self.absorb(b"u");
        self.absorb(&v.to_le_bytes());
    }

    /// Folds a `usize` field.
    pub fn field_usize(&mut self, name: &str, v: usize) {
        self.field_u64(name, v as u64);
    }

    /// Folds an `f64` field by its exact bit pattern.
    pub fn field_f64(&mut self, name: &str, v: f64) {
        self.absorb(name.as_bytes());
        self.absorb(b"f");
        self.absorb(&v.to_bits().to_le_bytes());
    }

    /// Folds a `bool` field.
    pub fn field_bool(&mut self, name: &str, v: bool) {
        self.absorb(name.as_bytes());
        self.absorb(b"b");
        self.absorb(&[u8::from(v)]);
    }

    /// Folds a string field.
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.absorb(name.as_bytes());
        self.absorb(b"s");
        self.absorb(v.as_bytes());
    }

    /// Folds a nested [`Digest`] field.
    pub fn field(&mut self, name: &str, v: &impl Digest) {
        self.absorb(name.as_bytes());
        self.absorb(b"{");
        v.digest(self);
        self.absorb(b"}");
    }

    fn hex(&self) -> String {
        format!("{:032x}", self.state)
    }
}

/// Canonical, schema-versioned hashing of a value's identity-relevant
/// fields into a [`DigestWriter`].
pub trait Digest {
    /// Folds `self` into `w` (start with [`DigestWriter::tag`]).
    fn digest(&self, w: &mut DigestWriter);
}

/// The content address of one simulation cell: 32 hex digits of
/// FNV-1a-128 over the schema version, the driver name, and every
/// digested input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    hex: String,
}

impl CellKey {
    /// Builds a key for `driver` from the fields folded by `f`.
    #[must_use]
    pub fn build(driver: &str, f: impl FnOnce(&mut DigestWriter)) -> Self {
        let mut w = DigestWriter::new();
        w.field_str("driver", driver);
        f(&mut w);
        Self { hex: w.hex() }
    }

    /// The 32-hex-digit digest (also the entry's file stem).
    #[must_use]
    pub fn hex(&self) -> &str {
        &self.hex
    }
}

/// One digest over an ordered list of cell keys — the grid's identity,
/// recorded in each artifact's `RunManifest` sidecar as `cache_digest`.
/// A pure function of the run's requested inputs (cold and warm runs
/// agree), and any change to any cell's key changes it.
#[must_use]
pub fn digest_of_digests(keys: &[CellKey]) -> String {
    let mut w = DigestWriter::new();
    w.tag("grid");
    w.field_usize("cells", keys.len());
    for k in keys {
        w.field_str("cell", k.hex());
    }
    w.hex()
}

/// Hit/miss/byte counters shared by every clone of a [`CellCache`].
#[derive(Debug, Default)]
struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A content-addressed, on-disk store of simulation-cell payloads.
///
/// Cloning is cheap and clones share their counters, so a cache can ride
/// inside several drivers' option structs while the caller reads one
/// combined hit/miss tally at the end. All methods degrade gracefully:
/// an unreadable entry is a miss, an unwritable store is a warning —
/// the cache is an accelerator, never a correctness dependency.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
    stats: Arc<CacheStats>,
}

impl CellCache {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            stats: Arc::default(),
        }
    }

    /// The cache from the `DUPLEXITY_CACHE` environment variable, if set
    /// and non-empty.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        match std::env::var(CACHE_ENV) {
            Ok(dir) if !dir.is_empty() => Some(Self::new(dir)),
            _ => None,
        }
    }

    /// Resolves the cache from an explicit `--cache` value, falling back
    /// to the environment; `None` disables caching (the default).
    #[must_use]
    pub fn resolve(flag: Option<&str>) -> Option<Self> {
        match flag {
            Some(dir) if !dir.is_empty() => Some(Self::new(dir)),
            _ => Self::from_env(),
        }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CellKey) -> PathBuf {
        self.dir.join(format!("{}.cell", key.hex()))
    }

    /// Loads the payload stored under `key`, or `None` on a miss. Any
    /// malformed entry — wrong magic, stale version, key mismatch (a
    /// digest collision or a renamed file), or truncated payload — is a
    /// miss with a stderr warning; a simply absent entry is a quiet miss.
    #[must_use]
    pub fn load(&self, key: &CellKey) -> Option<String> {
        let path = self.entry_path(key);
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                cache_warn(format_args!(
                    "unreadable entry {}: {e} (miss)",
                    path.display()
                ));
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_envelope(&raw, key) {
            Ok(payload) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_read
                    .fetch_add(raw.len() as u64, Ordering::Relaxed);
                Some(payload)
            }
            Err(why) => {
                cache_warn(format_args!("{why} in {} (miss)", path.display()));
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Probes every key, decoding hits with `decode`; slot `i` of the
    /// result is `Some` iff key `i` hit *and* decoded. A payload that
    /// fails to decode (schema drift without a version bump) demotes to
    /// a miss with a warning rather than an error.
    #[must_use]
    pub fn probe<T>(&self, keys: &[CellKey], decode: impl Fn(&str) -> Option<T>) -> Vec<Option<T>> {
        keys.iter()
            .map(|key| {
                let payload = self.load(key)?;
                let decoded = decode(&payload);
                if decoded.is_none() {
                    cache_warn(format_args!(
                        "undecodable payload for {} (miss)",
                        self.entry_path(key).display()
                    ));
                    // Reclassify the envelope-level hit.
                    self.stats.hits.fetch_sub(1, Ordering::Relaxed);
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                }
                decoded
            })
            .collect()
    }

    /// Stores `payload` under `key` atomically (tmp-write + rename).
    /// Failures warn and continue: an unwritable cache never fails a run.
    pub fn store(&self, key: &CellKey, payload: &str) {
        let entry = envelope(key, payload);
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            cache_warn(format_args!("cannot create {}: {e}", self.dir.display()));
            return;
        }
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{}", key.hex(), std::process::id()));
        let path = self.entry_path(key);
        let res = std::fs::write(&tmp, &entry).and_then(|()| std::fs::rename(&tmp, &path));
        match res {
            Ok(()) => {
                self.stats
                    .bytes_written
                    .fetch_add(entry.len() as u64, Ordering::Relaxed);
            }
            Err(e) => {
                cache_warn(format_args!("cannot write {}: {e}", path.display()));
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// Cache hits so far (across every clone).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.stats.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (across every clone).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.stats.misses.load(Ordering::Relaxed)
    }

    /// Envelope bytes read on hits.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.stats.bytes_read.load(Ordering::Relaxed)
    }

    /// Envelope bytes written on stores.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.stats.bytes_written.load(Ordering::Relaxed)
    }

    /// The counters as a [`Registry`] (`cache/hits`, `cache/misses`,
    /// `cache/bytes_read`, `cache/bytes_written`). Observability only:
    /// a warm run's counters differ from a cold run's, so — like
    /// wall-clock pool reports — they must never be folded into a
    /// deterministic artifact.
    #[must_use]
    pub fn registry(&self) -> Registry {
        let mut r = Registry::default();
        r.incr("cache/hits", self.hits());
        r.incr("cache/misses", self.misses());
        r.incr("cache/bytes_read", self.bytes_read());
        r.incr("cache/bytes_written", self.bytes_written());
        r
    }

    /// One stderr-ready summary line.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "cellcache: {} hits, {} misses, {} bytes read, {} bytes written ({})",
            self.hits(),
            self.misses(),
            self.bytes_read(),
            self.bytes_written(),
            self.dir.display()
        )
    }
}

fn envelope(key: &CellKey, payload: &str) -> String {
    format!(
        "{MAGIC} v{CACHE_SCHEMA_VERSION}\nkey {}\nlen {}\n{payload}",
        key.hex(),
        payload.len()
    )
}

fn parse_envelope(raw: &str, key: &CellKey) -> Result<String, String> {
    let mut rest = raw;
    let mut line = |what: &str| -> Result<&str, String> {
        let (l, r) = rest
            .split_once('\n')
            .ok_or_else(|| format!("truncated envelope ({what} line missing)"))?;
        rest = r;
        Ok(l)
    };
    let magic = line("magic")?;
    let expected = format!("{MAGIC} v{CACHE_SCHEMA_VERSION}");
    if magic != expected {
        return Err(format!(
            "version/magic mismatch (found {magic:?}, want {expected:?})"
        ));
    }
    let key_line = line("key")?;
    if key_line != format!("key {}", key.hex()) {
        return Err(format!("key mismatch ({key_line:?})"));
    }
    let len_line = line("len")?;
    let len: usize = len_line
        .strip_prefix("len ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed length line ({len_line:?})"))?;
    if rest.len() != len {
        return Err(format!(
            "truncated payload ({} bytes, envelope says {len})",
            rest.len()
        ));
    }
    Ok(rest.to_string())
}

/// Merges cached hits and freshly computed misses back into grid order:
/// `fresh[j]` fills the `j`-th `None` slot of `hits`.
///
/// # Panics
///
/// Panics if `fresh` does not have exactly one element per `None` slot.
#[must_use]
pub fn assemble<T>(hits: Vec<Option<T>>, fresh: Vec<T>) -> Vec<T> {
    let mut fresh = fresh.into_iter();
    let out: Vec<T> = hits
        .into_iter()
        .map(|slot| match slot {
            Some(v) => v,
            None => fresh.next().expect("one fresh result per miss"),
        })
        .collect();
    assert!(fresh.next().is_none(), "more fresh results than misses");
    out
}

/// Indices of the miss slots of a probe result, in grid order.
#[must_use]
pub fn miss_indices<T>(hits: &[Option<T>]) -> Vec<usize> {
    hits.iter()
        .enumerate()
        .filter(|(_, h)| h.is_none())
        .map(|(i, _)| i)
        .collect()
}

// ---------------------------------------------------------------------------
// Bit-exact payload encoding.
//
// The workspace's JSON layer deliberately renders non-finite floats as
// `null` (fine for exports, lossy for round-trips) — and saturated cells
// carry `inf` tails. Cache payloads therefore use a trivial line-based
// `key value` encoding with `f64` as the hex of `to_bits()`: bitwise
// round-trips for every value, including ±inf and -0.0.
// ---------------------------------------------------------------------------

/// Writes a cache payload: one `name value` line per field, `f64`s as
/// bit-pattern hex.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: String,
}

impl PayloadWriter {
    /// An empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn line(&mut self, name: &str, value: &str) {
        debug_assert!(!name.contains([' ', '\n']), "payload name {name:?}");
        debug_assert!(!value.contains('\n'), "payload value {value:?}");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(value);
        self.buf.push('\n');
    }

    /// Writes a `u64` field.
    pub fn u64(&mut self, name: &str, v: u64) {
        self.line(name, &v.to_string());
    }

    /// Writes a `usize` field.
    pub fn usize(&mut self, name: &str, v: usize) {
        self.line(name, &v.to_string());
    }

    /// Writes a `bool` field.
    pub fn bool(&mut self, name: &str, v: bool) {
        self.line(name, if v { "1" } else { "0" });
    }

    /// Writes an `f64` field as 16 hex digits of its bit pattern.
    pub fn f64(&mut self, name: &str, v: f64) {
        self.line(name, &format!("{:016x}", v.to_bits()));
    }

    /// Writes a string field (single line; the value may contain spaces).
    pub fn str(&mut self, name: &str, v: &str) {
        self.line(name, v);
    }

    /// The payload text.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Strict sequential reader for [`PayloadWriter`] output: fields must be
/// read back in exactly the order they were written (any drift returns
/// `None`, which the cache treats as a miss).
#[derive(Debug)]
pub struct PayloadReader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `payload`.
    #[must_use]
    pub fn new(payload: &'a str) -> Self {
        Self {
            lines: payload.lines(),
        }
    }

    fn next(&mut self, name: &str) -> Option<&'a str> {
        let line = self.lines.next()?;
        let (n, v) = line.split_once(' ')?;
        (n == name).then_some(v)
    }

    /// Reads back a `u64` field.
    pub fn u64(&mut self, name: &str) -> Option<u64> {
        self.next(name)?.parse().ok()
    }

    /// Reads back a `usize` field.
    pub fn usize(&mut self, name: &str) -> Option<usize> {
        self.next(name)?.parse().ok()
    }

    /// Reads back a `bool` field.
    pub fn bool(&mut self, name: &str) -> Option<bool> {
        match self.next(name)? {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        }
    }

    /// Reads back an `f64` field bit-exactly.
    pub fn f64(&mut self, name: &str) -> Option<f64> {
        let bits = u64::from_str_radix(self.next(name)?, 16).ok()?;
        Some(f64::from_bits(bits))
    }

    /// Reads back a string field.
    pub fn str(&mut self, name: &str) -> Option<&'a str> {
        self.next(name)
    }

    /// True when every line has been consumed (call last: trailing
    /// garbage means schema drift and should demote to a miss).
    pub fn done(&mut self) -> bool {
        self.lines.next().is_none()
    }
}

// ---------------------------------------------------------------------------
// Digest impls for the shared option vocabulary. Coordinate-only enums
// digest their stable names; parameterized structs digest every
// result-relevant field.
// ---------------------------------------------------------------------------

impl Digest for Workload {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("workload");
        w.field_str("name", self.name());
    }
}

impl Digest for Design {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("design");
        w.field_str("name", self.name());
    }
}

impl Digest for Stepping {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("stepping");
        w.field_str(
            "kind",
            match self {
                Stepping::Naive => "naive",
                Stepping::FastForward => "fast_forward",
            },
        );
    }
}

impl Digest for RetryPolicy {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("retry_policy");
        w.field_u64("max_attempts", u64::from(self.max_attempts));
        w.field_f64("timeout_us", self.timeout_us);
        w.field_f64("backoff_base_us", self.backoff_base_us);
        w.field_f64("backoff_cap_us", self.backoff_cap_us);
    }
}

impl Digest for FaultPlan {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("fault_plan");
        w.field_f64("drop_prob", self.drop_prob);
        w.field("retry", &self.retry);
        w.field_bool("duplicate", self.duplicate);
        w.field_f64("slow_prob", self.slow_prob);
        w.field_f64("slow_factor", self.slow_factor);
    }
}

impl Digest for Mg1Options {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("mg1_options");
        w.field_f64("quantile", self.quantile);
        w.field_f64("confidence", self.confidence);
        w.field_f64("max_relative_error", self.max_relative_error);
        w.field_usize("warmup", self.warmup);
        w.field_usize("max_samples", self.max_samples);
        w.field_usize("check_every", self.check_every);
        // `seed` is deliberately excluded: every driver overwrites it
        // with a per-cell stream derived from the experiment seed, so
        // the template value never reaches a simulation.
    }
}

impl Digest for BalancerPolicy {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("balancer_policy");
        // The Display name is injective over the variants (PowerOfD
        // embeds its probe count).
        w.field_str("name", &self.to_string());
    }
}

impl Digest for DupMode {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("dup_mode");
        match self {
            DupMode::None => w.field_str("kind", "none"),
            DupMode::Duplicate { copies } => {
                w.field_str("kind", "duplicate");
                w.field_usize("copies", *copies);
            }
            DupMode::Hedge { deadline_us } => {
                w.field_str("kind", "hedge");
                w.field_f64("deadline_us", *deadline_us);
            }
        }
    }
}

impl Digest for DuplicationPolicy {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("duplication_policy");
        w.field("mode", &self.mode);
        w.field_bool("purge", self.purge);
        w.field_bool("low_priority", self.low_priority);
    }
}

impl Digest for EventQueueKind {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("event_queue_kind");
        w.field_str("name", self.name());
    }
}

impl Digest for Coordination {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("coordination");
        // The label is injective over the variants (`central` / `dist{k}`).
        w.field_str("name", &self.label());
    }
}

impl Digest for StealPolicy {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("steal_policy");
        w.field_usize("probes", self.probes);
        w.field_u64("min_queue", u64::from(self.min_queue));
    }
}

impl Digest for RackPlan {
    fn digest(&self, w: &mut DigestWriter) {
        w.tag("rack_plan");
        w.field("coordination", &self.coordination);
        w.field_f64("delta_us", self.delta_us);
        w.field("steal", &self.steal);
        w.field_usize("tenants", self.tenants);
        w.field_f64("skew", self.skew);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "duplexity-cellcache-test-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> CellKey {
        CellKey::build("test", |w| w.field_u64("n", n))
    }

    #[test]
    fn keys_are_stable_and_field_sensitive() {
        assert_eq!(key(1), key(1));
        assert_ne!(key(1), key(2));
        assert_ne!(
            CellKey::build("a", |w| w.field_u64("n", 1)),
            CellKey::build("b", |w| w.field_u64("n", 1)),
        );
        assert_ne!(
            CellKey::build("t", |w| w.field_u64("x", 1)),
            CellKey::build("t", |w| w.field_u64("y", 1)),
            "field names must participate in the digest"
        );
        assert_ne!(
            CellKey::build("t", |w| w.field_f64("x", 0.0)),
            CellKey::build("t", |w| w.field_f64("x", -0.0)),
            "f64 digests are bit-exact"
        );
        assert_eq!(key(7).hex().len(), 32);
        assert!(key(7).hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = CellCache::new(tmp_dir("roundtrip"));
        let k = key(3);
        assert_eq!(cache.load(&k), None);
        cache.store(&k, "a 1\nb 2\n");
        assert_eq!(cache.load(&k).as_deref(), Some("a 1\nb 2\n"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!(cache.bytes_written() > 0 && cache.bytes_read() > 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_truncated_and_stale_entries_degrade_to_misses() {
        let cache = CellCache::new(tmp_dir("corrupt"));
        let k = key(9);
        cache.store(&k, "x 42\n");
        let path = cache.dir().join(format!("{}.cell", k.hex()));

        // Truncation.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        assert_eq!(cache.load(&k), None);

        // Stale version.
        std::fs::write(&path, full.replacen("-cell v", "-cell v9", 1)).unwrap();
        assert_eq!(cache.load(&k), None);

        // Arbitrary corruption.
        std::fs::write(&path, "not a cache entry").unwrap();
        assert_eq!(cache.load(&k), None);

        // Repair by re-storing.
        cache.store(&k, "x 42\n");
        assert_eq!(cache.load(&k).as_deref(), Some("x 42\n"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let mut w = PayloadWriter::new();
        w.f64("inf", f64::INFINITY);
        w.f64("ninf", f64::NEG_INFINITY);
        w.f64("neg0", -0.0);
        w.f64("pi", std::f64::consts::PI);
        w.u64("n", u64::MAX);
        w.bool("t", true);
        w.str("s", "power_of_2 with spaces");
        let text = w.finish();
        let mut r = PayloadReader::new(&text);
        assert_eq!(r.f64("inf"), Some(f64::INFINITY));
        assert_eq!(r.f64("ninf"), Some(f64::NEG_INFINITY));
        assert_eq!(r.f64("neg0").map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.f64("pi"), Some(std::f64::consts::PI));
        assert_eq!(r.u64("n"), Some(u64::MAX));
        assert_eq!(r.bool("t"), Some(true));
        assert_eq!(r.str("s"), Some("power_of_2 with spaces"));
        assert!(r.done());
    }

    #[test]
    fn reader_rejects_reordered_or_trailing_fields() {
        let mut w = PayloadWriter::new();
        w.u64("a", 1);
        w.u64("b", 2);
        let text = w.finish();
        let mut r = PayloadReader::new(&text);
        assert_eq!(r.u64("b"), None, "out-of-order read must fail");
        let mut r = PayloadReader::new(&text);
        assert_eq!(r.u64("a"), Some(1));
        assert!(!r.done(), "unconsumed fields must be detected");
    }

    #[test]
    fn assemble_interleaves_hits_and_misses() {
        let hits = vec![Some(10), None, Some(30), None];
        assert_eq!(miss_indices(&hits), vec![1, 3]);
        assert_eq!(assemble(hits, vec![20, 40]), vec![10, 20, 30, 40]);
    }

    #[test]
    fn digest_of_digests_tracks_every_cell() {
        let a = digest_of_digests(&[key(1), key(2)]);
        assert_eq!(a, digest_of_digests(&[key(1), key(2)]));
        assert_ne!(a, digest_of_digests(&[key(2), key(1)]), "order matters");
        assert_ne!(a, digest_of_digests(&[key(1)]));
    }
}
