//! Trace emission helper for instrumented workload kernels.
//!
//! Workload algorithms run for real (hashing, searching, stemming) and call
//! [`TraceBuilder`] methods at each step to emit the micro-ops a compiled
//! implementation would execute: ALU work, loads/stores at the *actual* data
//! addresses the algorithm touches, conditional branches at stable
//! per-call-site PCs (so branch predictors see real patterns), and µs-scale
//! remote operations.

use duplexity_cpu::op::{MicroOp, Op, NO_REG};

/// Harvests the µs-scale remote-operation latencies out of an emitted trace,
/// in program order — the bridge from instrumented kernels to
/// `duplexity_net`'s trace-replay latency distribution
/// (`LatencyDist::from_trace`).
///
/// # Examples
///
/// ```
/// use duplexity_workloads::trace::{remote_latencies_us, TraceBuilder};
///
/// let mut ops = Vec::new();
/// let mut tb = TraceBuilder::new(&mut ops, 0x1000, 4 * 1024);
/// tb.alu_block(4);
/// tb.remote(1.5);
/// tb.remote(0.75);
/// assert_eq!(remote_latencies_us(&ops), vec![1.5, 0.75]);
/// ```
#[must_use]
pub fn remote_latencies_us(ops: &[MicroOp]) -> Vec<f64> {
    ops.iter()
        .filter_map(|op| match op.op {
            Op::RemoteLoad { latency_us } => Some(latency_us),
            _ => None,
        })
        .collect()
}

/// PC region reserved for branch call sites (keeps branch PCs stable per
/// static site, independent of emission order).
const BRANCH_REGION: u64 = 0x00F0_0000;

/// Number of general-purpose registers the builder rotates through for
/// plain value-producing ops (leaves headroom for explicit chains).
const ROTATION_REGS: u8 = 12;

/// Emits micro-ops on behalf of an instrumented algorithm.
///
/// The builder tracks a program counter that advances sequentially through a
/// bounded code footprint (wrapping, so instruction-cache behaviour is
/// realistic for a loop-structured service) and rotates destination
/// registers to give the out-of-order engine genuine ILP while letting the
/// caller express true data dependencies explicitly.
///
/// # Examples
///
/// ```
/// use duplexity_workloads::trace::TraceBuilder;
///
/// let mut ops = Vec::new();
/// let mut tb = TraceBuilder::new(&mut ops, 0x1000, 16 * 1024);
/// let v = tb.load(0xBEEF_000);
/// let w = tb.alu_on(v);
/// tb.store(0xBEEF_040, w);
/// assert_eq!(ops.len(), 3);
/// ```
#[derive(Debug)]
pub struct TraceBuilder<'a> {
    out: &'a mut Vec<MicroOp>,
    code_base: u64,
    code_bytes: u64,
    pc_off: u64,
    next_reg: u8,
}

impl<'a> TraceBuilder<'a> {
    /// Creates a builder appending to `out`, with instructions living in a
    /// wrapping code region of `code_bytes` at `code_base`.
    ///
    /// # Panics
    ///
    /// Panics if `code_bytes` is zero or not a multiple of 4.
    #[must_use]
    pub fn new(out: &'a mut Vec<MicroOp>, code_base: u64, code_bytes: u64) -> Self {
        assert!(
            code_bytes > 0 && code_bytes.is_multiple_of(4),
            "code footprint must be 4-byte units"
        );
        Self {
            out,
            code_base,
            code_bytes,
            pc_off: 0,
            next_reg: 0,
        }
    }

    /// Ops emitted so far through this builder.
    #[must_use]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    fn pc(&mut self) -> u64 {
        let pc = self.code_base + self.pc_off;
        self.pc_off = (self.pc_off + 4) % self.code_bytes;
        pc
    }

    fn rot(&mut self) -> u8 {
        let r = self.next_reg;
        self.next_reg = (self.next_reg + 1) % ROTATION_REGS;
        r
    }

    /// Emits one independent integer ALU op; returns its destination
    /// register.
    pub fn alu(&mut self) -> u8 {
        let pc = self.pc();
        let dst = self.rot();
        self.out.push(MicroOp::new(pc, Op::IntAlu).with_dst(dst));
        dst
    }

    /// Emits an integer ALU op consuming `src`; returns its destination.
    pub fn alu_on(&mut self, src: u8) -> u8 {
        let pc = self.pc();
        let dst = self.rot();
        self.out.push(
            MicroOp::new(pc, Op::IntAlu)
                .with_srcs(src, NO_REG)
                .with_dst(dst),
        );
        dst
    }

    /// Emits `n` *serially dependent* ALU ops (a latency chain) seeded by
    /// `src`; returns the chain's final register.
    pub fn alu_chain(&mut self, src: u8, n: usize) -> u8 {
        let mut r = src;
        for _ in 0..n {
            r = self.alu_on(r);
        }
        r
    }

    /// Emits `n` independent ALU ops (pure throughput work).
    pub fn alu_block(&mut self, n: usize) {
        for _ in 0..n {
            self.alu();
        }
    }

    /// Emits an integer multiply on `a` and `b`.
    pub fn mul(&mut self, a: u8, b: u8) -> u8 {
        let pc = self.pc();
        let dst = self.rot();
        self.out
            .push(MicroOp::new(pc, Op::IntMul).with_srcs(a, b).with_dst(dst));
        dst
    }

    /// Emits a floating-point/SIMD op consuming `src`.
    pub fn fp_on(&mut self, src: u8) -> u8 {
        let pc = self.pc();
        let dst = self.rot();
        self.out.push(
            MicroOp::new(pc, Op::FpAlu)
                .with_srcs(src, NO_REG)
                .with_dst(dst),
        );
        dst
    }

    /// Emits a load from `addr`; returns the loaded register.
    pub fn load(&mut self, addr: u64) -> u8 {
        let pc = self.pc();
        let dst = self.rot();
        self.out
            .push(MicroOp::new(pc, Op::Load { addr }).with_dst(dst));
        dst
    }

    /// Emits a load whose *address* depends on `src` (pointer chase).
    pub fn load_dependent(&mut self, addr: u64, src: u8) -> u8 {
        let pc = self.pc();
        let dst = self.rot();
        self.out.push(
            MicroOp::new(pc, Op::Load { addr })
                .with_srcs(src, NO_REG)
                .with_dst(dst),
        );
        dst
    }

    /// Emits a store of `src` to `addr`.
    pub fn store(&mut self, addr: u64, src: u8) {
        let pc = self.pc();
        self.out
            .push(MicroOp::new(pc, Op::Store { addr }).with_srcs(src, NO_REG));
    }

    /// Emits a conditional branch at the stable PC of static `site`, with the
    /// algorithm's actual `taken` outcome.
    pub fn branch(&mut self, site: u32, taken: bool) {
        // Branch PCs live in their own region so each call site trains its
        // own predictor entry regardless of how many ops preceded it.
        let pc = BRANCH_REGION + u64::from(site) * 4;
        let target = pc + 64;
        self.out
            .push(MicroOp::new(pc, Op::Branch { taken, target }));
        self.pc(); // account for the slot in the code footprint
    }

    /// Emits a µs-scale remote operation (RDMA read, Optane poll, leaf
    /// wait); the result register can be used to make dependents wait.
    pub fn remote(&mut self, latency_us: f64) -> u8 {
        let pc = self.pc();
        let dst = self.rot();
        self.out
            .push(MicroOp::new(pc, Op::RemoteLoad { latency_us }).with_dst(dst));
        dst
    }

    /// Emits a µs-scale remote operation ordered after `src` (issued only
    /// once the preceding computation completes, as a synchronous I/O is).
    pub fn remote_after(&mut self, latency_us: f64, src: u8) -> u8 {
        let pc = self.pc();
        let dst = self.rot();
        self.out.push(
            MicroOp::new(pc, Op::RemoteLoad { latency_us })
                .with_srcs(src, NO_REG)
                .with_dst(dst),
        );
        dst
    }

    /// Emits a streaming copy of `lines` cache lines from `src` to `dst`
    /// addresses, with serially dependent loads (models a userspace copy
    /// from an uncached I/O buffer, where effective bandwidth is
    /// latency-bound).
    pub fn copy_lines_dependent(&mut self, src_base: u64, dst_base: u64, lines: u64) {
        let mut carry = self.alu();
        for i in 0..lines {
            carry = self.load_dependent(src_base + i * 64, carry);
            self.store(dst_base + i * 64, carry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplexity_cpu::op::Op;

    fn build(f: impl FnOnce(&mut TraceBuilder<'_>)) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        let mut tb = TraceBuilder::new(&mut ops, 0x1000, 1024);
        f(&mut tb);
        ops
    }

    #[test]
    fn remote_latency_harvest_is_in_program_order() {
        let ops = build(|tb| {
            tb.alu_block(2);
            tb.remote(1.0);
            let x = tb.alu();
            tb.remote_after(2.5, x);
            tb.store(0x40, x);
        });
        assert_eq!(remote_latencies_us(&ops), vec![1.0, 2.5]);
        assert!(remote_latencies_us(&[]).is_empty());
    }

    #[test]
    fn pcs_advance_and_wrap() {
        let ops = build(|tb| tb.alu_block(300));
        assert_eq!(ops[0].pc, 0x1000);
        assert_eq!(ops[1].pc, 0x1004);
        // 1024-byte footprint = 256 slots; op 256 wraps to the base.
        assert_eq!(ops[256].pc, 0x1000);
    }

    #[test]
    fn chain_is_serially_dependent() {
        let ops = build(|tb| {
            let s = tb.alu();
            tb.alu_chain(s, 3);
        });
        assert_eq!(ops.len(), 4);
        for w in ops.windows(2) {
            assert_eq!(w[1].srcs[0], w[0].dst.unwrap(), "chain must link");
        }
    }

    #[test]
    fn branch_pcs_stable_per_site() {
        let ops = build(|tb| {
            tb.alu_block(10);
            tb.branch(7, true);
            tb.alu_block(20);
            tb.branch(7, false);
            tb.branch(8, true);
        });
        let branches: Vec<&MicroOp> = ops
            .iter()
            .filter(|o| matches!(o.op, Op::Branch { .. }))
            .collect();
        assert_eq!(branches.len(), 3);
        assert_eq!(branches[0].pc, branches[1].pc, "same site, same pc");
        assert_ne!(branches[0].pc, branches[2].pc, "different sites differ");
    }

    #[test]
    fn rotation_avoids_false_dependencies() {
        let ops = build(|tb| tb.alu_block(8));
        let dsts: Vec<u8> = ops.iter().map(|o| o.dst.unwrap()).collect();
        let unique: std::collections::HashSet<u8> = dsts.iter().copied().collect();
        assert_eq!(unique.len(), 8, "8 consecutive ops must use 8 registers");
    }

    #[test]
    fn copy_emits_load_store_pairs() {
        let ops = build(|tb| tb.copy_lines_dependent(0x10_000, 0x20_000, 4));
        let loads = ops
            .iter()
            .filter(|o| matches!(o.op, Op::Load { .. }))
            .count();
        let stores = ops
            .iter()
            .filter(|o| matches!(o.op, Op::Store { .. }))
            .count();
        assert_eq!(loads, 4);
        assert_eq!(stores, 4);
        // Each load depends on the previous one (latency-bound copy).
        let load_ops: Vec<&MicroOp> = ops
            .iter()
            .filter(|o| matches!(o.op, Op::Load { .. }))
            .collect();
        for w in load_ops.windows(2) {
            assert_ne!(w[1].srcs[0], NO_REG);
        }
    }

    #[test]
    fn remote_after_is_ordered() {
        let ops = build(|tb| {
            let x = tb.alu();
            tb.remote_after(1.0, x);
        });
        assert_eq!(ops[1].srcs[0], ops[0].dst.unwrap());
        assert!(matches!(ops[1].op, Op::RemoteLoad { latency_us } if latency_us == 1.0));
    }
}
