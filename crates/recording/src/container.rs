//! The on-disk recording container.
//!
//! Layout: magic `GREC`, format version, a 64-bit checksum of the payload,
//! then the payload: metadata, actions, I/O slots, and the GRZ-compressed
//! dump section. [`Recording::to_bytes`]/[`Recording::from_bytes`] are the
//! only (de)serialization paths; the replayer's verifier re-checks the
//! checksum and every structural invariant on load.
//!
//! **Checksum (version 2).** Word-wise FNV-1a: the payload is read as
//! little-endian `u64` words dealt round-robin to four independent lanes,
//! each updated as `h = (h ^ word) * FNV_PRIME`; the lanes, the zero-padded
//! tail bytes and the payload length are then folded into one state the
//! same way. Both steps are bijections of the state (xor with a fixed word,
//! multiplication by an odd constant mod 2^64), so any change confined to
//! one aligned 8-byte word — in particular any single-bit or single-byte
//! flip — always changes the checksum. That is the guarantee byte-wise
//! FNV-1a gave in version 1, at memory speed instead of one byte per
//! multiply. It is an integrity check, not a MAC: an adversary who can
//! rewrite the container can recompute it. Version-1 containers are
//! rejected with [`ContainerError::BadVersion`].

use crate::action::{Action, TimedAction};
use crate::codec::{grz_compress, grz_decompress, grz_len, GrzError};
use crate::meta::{Dump, IoSlot, RecordingMeta};

const MAGIC: &[u8; 4] = b"GREC";
const VERSION: u32 = 2;

/// A complete recording: everything needed to reproduce a fixed sequence
/// of GPU jobs on new input.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Identity and accounting.
    pub meta: RecordingMeta,
    /// The replay action sequence.
    pub actions: Vec<TimedAction>,
    /// Captured memory regions referenced by `Action::Upload`.
    pub dumps: Vec<Dump>,
    /// Discovered input slots referenced by `Action::CopyToGpu`.
    pub inputs: Vec<IoSlot>,
    /// Discovered output slots referenced by `Action::CopyFromGpu`.
    pub outputs: Vec<IoSlot>,
}

/// Error decoding or validating a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Wrong magic / truncated header.
    BadHeader,
    /// Unsupported format version.
    BadVersion(u32),
    /// Payload checksum mismatch (corrupt or tampered recording).
    ChecksumMismatch,
    /// Payload ended mid-field.
    Truncated,
    /// Unknown action tag.
    BadAction(u8),
    /// Dump section failed to decompress.
    Dump(GrzError),
    /// A string field was not valid UTF-8.
    BadString,
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadHeader => write!(f, "bad recording header"),
            ContainerError::BadVersion(v) => write!(f, "unsupported recording version {v}"),
            ContainerError::ChecksumMismatch => write!(f, "recording checksum mismatch"),
            ContainerError::Truncated => write!(f, "recording truncated"),
            ContainerError::BadAction(t) => write!(f, "unknown action tag {t}"),
            ContainerError::Dump(e) => write!(f, "dump section: {e}"),
            ContainerError::BadString => write!(f, "invalid utf-8 in recording"),
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<GrzError> for ContainerError {
    fn from(e: GrzError) -> Self {
        ContainerError::Dump(e)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// One FNV-1a step over a whole word (a bijection of `h` for fixed `w`).
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte word"))
}

/// The payload checksum (see the module doc for its detection guarantee).
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64, 1, 2, 3].map(|i| FNV_OFFSET ^ i);
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (l, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            *l = mix(*l, word(w));
        }
    }
    let mut words = chunks.remainder().chunks_exact(8);
    for (l, w) in lanes.iter_mut().zip(&mut words) {
        *l = mix(*l, word(w));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    lanes
        .into_iter()
        .chain([u64::from_le_bytes(tail), bytes.len() as u64])
        .fold(FNV_OFFSET, mix)
}

#[derive(Default)]
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        let end = self.pos.checked_add(n).ok_or(ContainerError::Truncated)?;
        if end > self.buf.len() {
            return Err(ContainerError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ContainerError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ContainerError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }
    fn u32(&mut self) -> Result<u32, ContainerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }
    fn u64(&mut self) -> Result<u64, ContainerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }
    fn bool(&mut self) -> Result<bool, ContainerError> {
        Ok(self.u8()? != 0)
    }
    fn str(&mut self) -> Result<String, ContainerError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| ContainerError::BadString)
    }
}

impl Recording {
    /// Creates an empty recording with the given metadata.
    pub fn new(meta: RecordingMeta) -> Self {
        Recording {
            meta,
            actions: Vec::new(),
            dumps: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Total uncompressed dump bytes (Table 6's "RecSize unzip" driver).
    pub fn dump_bytes(&self) -> usize {
        self.dumps.iter().map(|d| d.bytes.len()).sum()
    }

    /// Serializes to the container format (dumps GRZ-compressed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = W::default();
        // Metadata.
        p.str(&self.meta.family);
        p.str(&self.meta.sku_name);
        p.u32(self.meta.gpu_id);
        p.str(&self.meta.label);
        p.u32(self.meta.job_count);
        p.u32(self.meta.regio_count);
        p.u64(self.meta.peak_mapped_pages);
        p.u64(self.meta.modeled_gpu_mem_bytes);
        // Actions.
        p.u32(self.actions.len() as u32);
        for ta in &self.actions {
            p.u64(ta.min_interval_ns);
            p.u8(ta.action.tag());
            match &ta.action {
                Action::RegReadOnce {
                    reg,
                    expect,
                    ignore,
                } => {
                    p.u32(*reg);
                    p.u32(*expect);
                    p.bool(*ignore);
                }
                Action::RegReadWait {
                    reg,
                    mask,
                    val,
                    timeout_ns,
                } => {
                    p.u32(*reg);
                    p.u32(*mask);
                    p.u32(*val);
                    p.u64(*timeout_ns);
                }
                Action::RegWrite { reg, mask, val } => {
                    p.u32(*reg);
                    p.u32(*mask);
                    p.u32(*val);
                }
                Action::SetGpuPgtable => {}
                Action::MapGpuMem { va, pte_flags } => {
                    p.u64(*va);
                    p.u32(pte_flags.len() as u32);
                    for f in pte_flags {
                        p.u16(*f);
                    }
                }
                Action::UnmapGpuMem { va } => p.u64(*va),
                Action::Upload { dump_idx } => p.u32(*dump_idx),
                Action::CopyToGpu { slot } => p.u32(*slot),
                Action::CopyFromGpu { slot } => p.u32(*slot),
                Action::WaitIrq { line, timeout_ns } => {
                    p.u32(*line);
                    p.u64(*timeout_ns);
                }
                Action::IrqContext { enter } => p.bool(*enter),
            }
        }
        // I/O slots.
        for slots in [&self.inputs, &self.outputs] {
            p.u32(slots.len() as u32);
            for s in slots {
                p.str(&s.name);
                p.u64(s.va);
                p.u32(s.len);
            }
        }
        // Dumps: VAs+lengths in the clear, payload compressed as one blob.
        p.u32(self.dumps.len() as u32);
        let mut payload = Vec::new();
        for d in &self.dumps {
            p.u64(d.va);
            p.u32(d.bytes.len() as u32);
            payload.extend_from_slice(&d.bytes);
        }
        p.bytes(&grz_compress(&payload));

        let mut out = Vec::with_capacity(p.buf.len() + 20);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&checksum(&p.buf).to_le_bytes());
        out.extend_from_slice(&p.buf);
        out
    }

    /// Parses a container, verifying checksum and structure.
    ///
    /// # Errors
    ///
    /// Returns [`ContainerError`] on any structural or integrity problem;
    /// a recording that fails here is rejected before the replayer's
    /// semantic verifier even runs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, ContainerError> {
        if bytes.len() < 16 || &bytes[0..4] != MAGIC {
            return Err(ContainerError::BadHeader);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("len"));
        if version != VERSION {
            return Err(ContainerError::BadVersion(version));
        }
        let expected = u64::from_le_bytes(bytes[8..16].try_into().expect("len"));
        let payload = &bytes[16..];
        if checksum(payload) != expected {
            return Err(ContainerError::ChecksumMismatch);
        }
        let mut r = R {
            buf: payload,
            pos: 0,
        };
        let mut meta = RecordingMeta::new("", "", 0, "");
        meta.family = r.str()?;
        meta.sku_name = r.str()?;
        meta.gpu_id = r.u32()?;
        meta.label = r.str()?;
        meta.job_count = r.u32()?;
        meta.regio_count = r.u32()?;
        meta.peak_mapped_pages = r.u64()?;
        meta.modeled_gpu_mem_bytes = r.u64()?;

        let n_actions = r.u32()? as usize;
        let mut actions = Vec::with_capacity(n_actions.min(1 << 20));
        for _ in 0..n_actions {
            let min_interval_ns = r.u64()?;
            let tag = r.u8()?;
            let action = match tag {
                1 => Action::RegReadOnce {
                    reg: r.u32()?,
                    expect: r.u32()?,
                    ignore: r.bool()?,
                },
                2 => Action::RegReadWait {
                    reg: r.u32()?,
                    mask: r.u32()?,
                    val: r.u32()?,
                    timeout_ns: r.u64()?,
                },
                3 => Action::RegWrite {
                    reg: r.u32()?,
                    mask: r.u32()?,
                    val: r.u32()?,
                },
                4 => Action::SetGpuPgtable,
                5 => {
                    let va = r.u64()?;
                    let n = r.u32()? as usize;
                    let mut pte_flags = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        pte_flags.push(r.u16()?);
                    }
                    Action::MapGpuMem { va, pte_flags }
                }
                6 => Action::UnmapGpuMem { va: r.u64()? },
                7 => Action::Upload { dump_idx: r.u32()? },
                8 => Action::CopyToGpu { slot: r.u32()? },
                9 => Action::CopyFromGpu { slot: r.u32()? },
                10 => Action::WaitIrq {
                    line: r.u32()?,
                    timeout_ns: r.u64()?,
                },
                11 => Action::IrqContext { enter: r.bool()? },
                other => return Err(ContainerError::BadAction(other)),
            };
            actions.push(TimedAction {
                action,
                min_interval_ns,
            });
        }

        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for slots in [&mut inputs, &mut outputs] {
            let n = r.u32()? as usize;
            for _ in 0..n {
                slots.push(IoSlot {
                    name: r.str()?,
                    va: r.u64()?,
                    len: r.u32()?,
                });
            }
        }

        let n_dumps = r.u32()? as usize;
        let mut headers = Vec::with_capacity(n_dumps.min(1 << 16));
        for _ in 0..n_dumps {
            headers.push((r.u64()?, r.u32()? as usize));
        }
        let blob_len = r.u32()? as usize;
        let blob = r.take(blob_len)?;
        // The dump headers must account for exactly the stream's claimed
        // length, checked before the decoder allocates it.
        let total = headers
            .iter()
            .try_fold(0usize, |t, (_, l)| t.checked_add(*l))
            .ok_or(ContainerError::Truncated)?;
        if total != grz_len(blob)? {
            return Err(ContainerError::Truncated);
        }
        let payload = grz_decompress(blob)?;
        let mut dumps = Vec::with_capacity(headers.len());
        let mut off = 0usize;
        for (va, len) in headers {
            dumps.push(Dump {
                va,
                bytes: payload[off..off + len].to_vec(),
            });
            off += len;
        }

        Ok(Recording {
            meta,
            actions,
            dumps,
            inputs,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recording {
        let mut rec = Recording::new(RecordingMeta::new("mali", "G71", 0x6956_0010, "vecadd"));
        rec.meta.job_count = 2;
        rec.meta.regio_count = 40;
        rec.meta.peak_mapped_pages = 10;
        rec.meta.modeled_gpu_mem_bytes = 1 << 20;
        rec.actions = vec![
            TimedAction::immediate(Action::RegReadOnce {
                reg: 0,
                expect: 0x6956_0010,
                ignore: false,
            }),
            TimedAction::paced(
                Action::RegWrite {
                    reg: 0x18,
                    mask: u32::MAX,
                    val: 1,
                },
                1000,
            ),
            TimedAction::immediate(Action::RegReadWait {
                reg: 8,
                mask: 0x100,
                val: 0x100,
                timeout_ns: 1_000_000,
            }),
            TimedAction::immediate(Action::SetGpuPgtable),
            TimedAction::immediate(Action::MapGpuMem {
                va: 0x10_0000,
                pte_flags: vec![0xF, 0xB],
            }),
            TimedAction::immediate(Action::Upload { dump_idx: 0 }),
            TimedAction::immediate(Action::CopyToGpu { slot: 0 }),
            TimedAction::immediate(Action::WaitIrq {
                line: 0,
                timeout_ns: 10_000_000_000,
            }),
            TimedAction::immediate(Action::IrqContext { enter: true }),
            TimedAction::immediate(Action::RegWrite {
                reg: 0x2004,
                mask: u32::MAX,
                val: 1,
            }),
            TimedAction::immediate(Action::IrqContext { enter: false }),
            TimedAction::immediate(Action::CopyFromGpu { slot: 0 }),
            TimedAction::immediate(Action::UnmapGpuMem { va: 0x10_0000 }),
        ];
        rec.dumps = vec![
            Dump {
                va: 0x10_0000,
                bytes: vec![0xAB; 4096],
            },
            Dump {
                va: 0x10_1000,
                bytes: (0..=255u8).cycle().take(8192).collect(),
            },
        ];
        rec.inputs = vec![IoSlot {
            name: "input0".into(),
            va: 0x20_0000,
            len: 1024,
        }];
        rec.outputs = vec![IoSlot {
            name: "out0".into(),
            va: 0x20_1000,
            len: 40,
        }];
        rec
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let rec = sample();
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.dump_bytes(), 4096 + 8192);
    }

    #[test]
    fn compression_shrinks_redundant_dumps() {
        let rec = sample();
        let bytes = rec.to_bytes();
        assert!(
            bytes.len() < rec.dump_bytes(),
            "container ({}) should be smaller than raw dumps ({})",
            bytes.len(),
            rec.dump_bytes()
        );
    }

    #[test]
    fn tampering_is_detected() {
        let rec = sample();
        let mut bytes = rec.to_bytes();
        // Flip a payload byte: checksum must catch it.
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::ChecksumMismatch)
        );
    }

    #[test]
    fn dump_headers_must_match_the_stream_length() {
        let rec = sample();
        let mut bytes = rec.to_bytes();
        let raw: Vec<u8> = rec.dumps.iter().flat_map(|d| d.bytes.clone()).collect();
        // The last dump header's length sits just before the blob length.
        let at = bytes.len() - grz_compress(&raw).len() - 8;
        assert_eq!(bytes[at..at + 4], 8192u32.to_le_bytes());
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = checksum(&bytes[16..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::Truncated)
        );
    }

    #[test]
    fn header_validation() {
        assert_eq!(Recording::from_bytes(b"xx"), Err(ContainerError::BadHeader));
        let rec = sample();
        let mut bytes = rec.to_bytes();
        bytes[4] = 9; // version
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::BadVersion(9))
        );
        bytes[0] = b'X';
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::BadHeader)
        );
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        // Any prefix must fail cleanly (checksum or truncation), never panic.
        for cut in (0..bytes.len()).step_by(97) {
            assert!(Recording::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn empty_recording_roundtrips() {
        let rec = Recording::new(RecordingMeta::new("v3d", "v3d", 1, "empty"));
        let back = Recording::from_bytes(&rec.to_bytes()).unwrap();
        assert!(back.actions.is_empty());
        assert!(back.dumps.is_empty());
    }
}
