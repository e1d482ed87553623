//! Trace capture and (de)serialization.
//!
//! §V: "For the scale-out workloads running on filler-threads, we determine
//! the throughput of multi-threaded workloads on the in-order
//! master-/lender-cores through trace-based simulation." This module makes
//! that workflow a first-class artifact: capture any [`InstructionStream`]'s
//! dynamic micro-ops into a [`Trace`], persist it in a compact binary format,
//! and replay it later — identically, on any engine.
//!
//! The binary format is a little-endian tag/payload encoding (one byte of op
//! tag, fixed-width fields), independent of `serde`, so traces are stable
//! across library versions and cheap to stream.

use crate::op::{Fetched, InstructionStream, LoopedTrace, MicroOp, Op, NO_REG, REG_FILE_SIZE};
use duplexity_stats::rng::SimRng;
use std::io::{self, Read, Write};

/// Magic bytes identifying a Duplexity trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"DPXT";
/// Current format version.
pub const TRACE_VERSION: u8 = 1;

/// A captured dynamic micro-op trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    ops: Vec<MicroOp>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps existing micro-ops.
    #[must_use]
    pub fn from_ops(ops: Vec<MicroOp>) -> Self {
        Self { ops }
    }

    /// Captures up to `max_ops` ops from `stream` (stops early on
    /// [`Fetched::Done`]; idle gaps are skipped, since a trace has no clock).
    pub fn capture(stream: &mut dyn InstructionStream, max_ops: usize, rng: &mut SimRng) -> Self {
        let mut ops = Vec::with_capacity(max_ops.min(1 << 16));
        let mut now = 0u64;
        while ops.len() < max_ops {
            match stream.next(now, rng) {
                Fetched::Op(op) => ops.push(op),
                Fetched::IdleUntil(at) => now = at.max(now + 1),
                Fetched::Done => break,
            }
        }
        Self { ops }
    }

    /// The captured ops.
    #[must_use]
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of captured ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Turns the trace into a looping replay stream. An empty trace replays
    /// as a finished stream.
    #[must_use]
    pub fn into_looped_stream(self) -> LoopedTrace {
        LoopedTrace::new(self.ops)
    }

    /// Writes the trace in the compact binary format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&TRACE_MAGIC)?;
        w.write_all(&[TRACE_VERSION])?;
        w.write_all(&(self.ops.len() as u64).to_le_bytes())?;
        for op in &self.ops {
            encode_op(&mut w, op)?;
        }
        Ok(())
    }

    /// Reads a trace written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, bad magic, unsupported version, or a
    /// malformed record. A record is malformed, with
    /// [`io::ErrorKind::InvalidData`], if a register byte is neither
    /// [`NO_REG`] nor below 32 (the engines' register tables), or a remote
    /// latency is NaN, infinite or negative: the engines cannot replay it.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(invalid_data("not a Duplexity trace".into()));
        }
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        if version[0] != TRACE_VERSION {
            return Err(invalid_data(format!(
                "unsupported trace version {}",
                version[0]
            )));
        }
        let mut len = [0u8; 8];
        r.read_exact(&mut len)?;
        let n = u64::from_le_bytes(len) as usize;
        // The count is read from the input: reserve for at most 4096 ops
        // (192 KiB) up front and let the vector grow as ops decode.
        let mut ops = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            ops.push(decode_op(&mut r)?);
        }
        Ok(Self { ops })
    }
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

const TAG_INT_ALU: u8 = 0;
const TAG_INT_MUL: u8 = 1;
const TAG_FP_ALU: u8 = 2;
const TAG_LOAD: u8 = 3;
const TAG_STORE: u8 = 4;
const TAG_BRANCH_TAKEN: u8 = 5;
const TAG_BRANCH_NOT_TAKEN: u8 = 6;
const TAG_REMOTE: u8 = 7;

fn encode_op<W: Write>(w: &mut W, op: &MicroOp) -> io::Result<()> {
    let (tag, payload): (u8, u64) = match op.op {
        Op::IntAlu => (TAG_INT_ALU, 0),
        Op::IntMul => (TAG_INT_MUL, 0),
        Op::FpAlu => (TAG_FP_ALU, 0),
        Op::Load { addr } => (TAG_LOAD, addr),
        Op::Store { addr } => (TAG_STORE, addr),
        Op::Branch { taken, target } => (
            if taken {
                TAG_BRANCH_TAKEN
            } else {
                TAG_BRANCH_NOT_TAKEN
            },
            target,
        ),
        Op::RemoteLoad { latency_us } => (TAG_REMOTE, latency_us.to_bits()),
    };
    w.write_all(&[tag, op.srcs[0], op.srcs[1], op.dst.unwrap_or(NO_REG)])?;
    w.write_all(&op.pc.to_le_bytes())?;
    w.write_all(&payload.to_le_bytes())?;
    // end_of_request: present flag + arrival.
    match op.end_of_request {
        Some(arrival) => {
            w.write_all(&[1])?;
            w.write_all(&arrival.to_le_bytes())
        }
        None => w.write_all(&[0]),
    }
}

fn decode_op<R: Read>(r: &mut R) -> io::Result<MicroOp> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let mut pc = [0u8; 8];
    r.read_exact(&mut pc)?;
    let mut payload = [0u8; 8];
    r.read_exact(&mut payload)?;
    if let Some(reg) = head[1..]
        .iter()
        .find(|&&r| r != NO_REG && usize::from(r) >= REG_FILE_SIZE)
    {
        return Err(invalid_data(format!(
            "register {reg} is outside the {REG_FILE_SIZE}-entry register file"
        )));
    }
    let pc = u64::from_le_bytes(pc);
    let payload = u64::from_le_bytes(payload);
    let op = match head[0] {
        TAG_INT_ALU => Op::IntAlu,
        TAG_INT_MUL => Op::IntMul,
        TAG_FP_ALU => Op::FpAlu,
        TAG_LOAD => Op::Load { addr: payload },
        TAG_STORE => Op::Store { addr: payload },
        TAG_BRANCH_TAKEN => Op::Branch {
            taken: true,
            target: payload,
        },
        TAG_BRANCH_NOT_TAKEN => Op::Branch {
            taken: false,
            target: payload,
        },
        TAG_REMOTE => {
            let latency_us = f64::from_bits(payload);
            if !(latency_us.is_finite() && latency_us >= 0.0) {
                return Err(invalid_data(format!(
                    "remote latency {latency_us} is not a finite non-negative µs count"
                )));
            }
            Op::RemoteLoad { latency_us }
        }
        t => return Err(invalid_data(format!("bad op tag {t}"))),
    };
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let end_of_request = if flag[0] == 1 {
        let mut arrival = [0u8; 8];
        r.read_exact(&mut arrival)?;
        Some(u64::from_le_bytes(arrival))
    } else {
        None
    };
    Ok(MicroOp {
        pc,
        op,
        srcs: [head[1], head[2]],
        dst: (head[3] != NO_REG).then_some(head[3]),
        end_of_request,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplexity_stats::rng::rng_from_seed;

    fn sample_ops() -> Vec<MicroOp> {
        vec![
            MicroOp::new(0x40, Op::IntAlu).with_srcs(1, 2).with_dst(3),
            MicroOp::new(0x44, Op::Load { addr: 0xDEAD_BEE0 }).with_dst(4),
            MicroOp::new(0x48, Op::Store { addr: 0x1234 }).with_srcs(4, NO_REG),
            MicroOp::new(
                0x4C,
                Op::Branch {
                    taken: true,
                    target: 0x80,
                },
            ),
            MicroOp::new(
                0x50,
                Op::Branch {
                    taken: false,
                    target: 0x90,
                },
            ),
            MicroOp::new(0x54, Op::RemoteLoad { latency_us: 1.5 }).with_dst(5),
            MicroOp::new(0x58, Op::IntMul).with_srcs(3, 5).with_dst(6),
            {
                let mut m = MicroOp::new(0x5C, Op::FpAlu);
                m.end_of_request = Some(12345);
                m
            },
        ]
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let trace = Trace::from_ops(sample_ops());
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let trace = Trace::from_ops(sample_ops());
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(Trace::read_from(bad_magic.as_slice()).is_err());
        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(Trace::read_from(bad_version.as_slice()).is_err());
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let trace = Trace::from_ops(sample_ops());
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        assert!(Trace::read_from(&buf[..buf.len() - 3]).is_err());
    }

    #[test]
    fn capture_stops_at_done_and_skips_idle() {
        #[derive(Debug)]
        struct ThreeOpsWithIdle(u32);
        impl InstructionStream for ThreeOpsWithIdle {
            fn next(&mut self, now: u64, _rng: &mut SimRng) -> Fetched {
                self.0 += 1;
                match self.0 {
                    1 | 3 => Fetched::Op(MicroOp::new(u64::from(self.0), Op::IntAlu)),
                    2 => Fetched::IdleUntil(now + 100),
                    4 => Fetched::Op(MicroOp::new(4, Op::IntAlu)),
                    _ => Fetched::Done,
                }
            }
        }
        let mut rng = rng_from_seed(1);
        let trace = Trace::capture(&mut ThreeOpsWithIdle(0), 100, &mut rng);
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn captured_trace_replays_on_an_engine() {
        use crate::memsys::MemSys;
        use crate::ooo::{FetchPolicy, OooEngine, ThreadClass};
        use duplexity_uarch::config::{CoreConfig, LatencyModel};

        let ops: Vec<MicroOp> = (0..64)
            .map(|i| MicroOp::new(i * 4, Op::IntAlu).with_dst((i % 8) as u8))
            .collect();
        let trace = Trace::from_ops(ops);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let replay = Trace::read_from(buf.as_slice())
            .unwrap()
            .into_looped_stream();

        let mut engine = OooEngine::new(CoreConfig::baseline_ooo(), FetchPolicy::Icount, 3400.0);
        engine.add_thread(Box::new(replay), ThreadClass::Primary);
        let mut mem = MemSys::table1(LatencyModel::default());
        let mut rng = rng_from_seed(2);
        for now in 0..5_000 {
            engine.step(now, &mut mem, &mut rng);
        }
        assert!(engine.stats().retired_primary > 1_000);
    }

    /// Decoding a one-op trace of `op` fails with `InvalidData`.
    fn assert_rejected(op: MicroOp) {
        let mut buf = Vec::new();
        Trace::from_ops(vec![op]).write_to(&mut buf).unwrap();
        let err = Trace::read_from(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    fn remote(latency_us: f64) -> MicroOp {
        MicroOp::new(0x54, Op::RemoteLoad { latency_us }).with_dst(5)
    }

    #[test]
    fn rejects_a_source_register_outside_the_register_file() {
        assert_rejected(MicroOp::new(0x40, Op::IntAlu).with_srcs(1, 40));
    }

    #[test]
    fn rejects_a_destination_register_outside_the_register_file() {
        assert_rejected(MicroOp::new(0x40, Op::IntAlu).with_dst(200));
    }

    #[test]
    fn rejects_an_infinite_remote_latency() {
        assert_rejected(remote(f64::INFINITY));
    }

    #[test]
    fn rejects_a_nan_remote_latency() {
        assert_rejected(remote(f64::NAN));
    }

    #[test]
    fn rejects_a_negative_remote_latency() {
        assert_rejected(remote(-1.5));
    }

    #[test]
    fn accepts_the_last_register_and_a_zero_latency() {
        let last = (REG_FILE_SIZE - 1) as u8;
        let trace = Trace::from_ops(vec![
            MicroOp::new(0x40, Op::IntAlu)
                .with_srcs(last, NO_REG)
                .with_dst(last),
            remote(0.0),
        ]);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        Trace::new().write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }
}
