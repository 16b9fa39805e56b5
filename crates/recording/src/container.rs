//! The on-disk recording container.
//!
//! Layout: magic `GREC`, format version, a 64-bit checksum of the payload,
//! then the payload: metadata, actions, I/O slots, and the dump section.
//! [`Recording::to_bytes`]/[`Recording::from_bytes`] are the only
//! (de)serialization paths; the replayer's verifier re-checks the
//! checksum and every structural invariant on load.
//!
//! **Dumps (since version 3).** A `u32` count, then one record per dump: `va`
//! (`u64`), `len` (`u32`), a coding byte and a length-prefixed body. Coding
//! 0 stores the dump's bytes as they are; coding 1 is a GRZ stream. The
//! writer uses GRZ only when the stream is strictly smaller than the dump,
//! like zlib's stored-block fallback, so incompressible weights cost a copy
//! on load and never grow the container. Every length is untrusted: a
//! stored body must be exactly `len` bytes, and a GRZ body's claimed length
//! must equal `len` before anything is allocated for it. Each body decodes
//! straight into its own dump's buffer.
//!
//! **One pass.** [`Recording::from_bytes`] hashes the payload as it parses
//! it, and hashes each stored body block by block as it copies it out, so
//! every byte is read once. GRZ bodies are decoded only after the checksum
//! of the whole payload matched, so a corrupt container is
//! [`ContainerError::ChecksumMismatch`] even where it also fails to parse.
//!
//! **Checksum (version 4).** [`checksum`] reads the payload as
//! little-endian `u64` words dealt round-robin to eight independent lanes,
//! each updated as `h = rotl((h ^ word) * K, 29)` with an odd 64-bit `K`;
//! the lanes, the zero-padded tail bytes and the payload length are then
//! folded into one state the same way. Every step is a bijection of the
//! state (xor with a fixed word, multiplication by an odd constant mod
//! 2^64, a rotation), so any change confined to one aligned 8-byte word —
//! in particular any single-bit or single-byte flip — always changes the
//! checksum. Changes to two words are caught with high probability but
//! not always. Multiplication alone maps a flip of state bit 63 to a flip
//! of bit 63 on every input, so version 3's `h = (h ^ word) * P` lanes
//! cancelled any two bit-63 flips in one lane (the sign bits of two `f32`s
//! 32 bytes apart). The rotation moves that bit to bit 28, where the next
//! step's multiplication carries it upward. The one pair that still
//! cancels on every input is bit 63 of a word together with bit 28 of the
//! next word in its lane (64 bytes later); no sign bit of an `f32`, `f16`
//! or byte sits at bit 28. Eight lanes keep enough multiplications in
//! flight to win back most of the throughput the rotation costs. The same
//! function fingerprints the recorder's dump pages. It is an integrity
//! check, not a MAC: an adversary who can rewrite the container can
//! recompute it. Containers of an earlier version are rejected with
//! [`ContainerError::BadVersion`].

use crate::action::{Action, TimedAction};
use crate::codec::{grz_compress, grz_decompress, grz_len, GrzError};
use crate::meta::{Dump, IoSlot, RecordingMeta};

const MAGIC: &[u8; 4] = b"GREC";
const VERSION: u32 = 4;
/// Dump body coding: the dump's bytes, stored as they are.
const STORED: u8 = 0;
/// Dump body coding: a GRZ stream.
const GRZ: u8 = 1;
/// Bytes of a dump record before its body: `va`, `len`, coding and body
/// length.
const DUMP_RECORD: usize = 8 + 4 + 1 + 4;

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
    /// Payload ended mid-field, or a dump body does not hold exactly the
    /// length its record claims.
    Truncated,
    /// Unknown action tag.
    BadAction(u8),
    /// Unknown dump body coding.
    BadCoding(u8),
    /// A GRZ dump body failed to decompress.
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
            ContainerError::BadCoding(c) => write!(f, "unknown dump coding {c}"),
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

/// Initial lane state (lane `i` starts at `SEED ^ i`).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Independent checksum lanes, one `u64` word each per round.
const LANES: usize = 8;
/// Odd multiplier of the lane step (2^64 / golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One lane step over a whole word (a bijection of `h` for fixed `w`).
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(K).rotate_left(29)
}

fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte word"))
}

/// Bytes of one checksum round: a word for each lane.
const ROUND: usize = 8 * LANES;

/// The payload checksum, also the recorder's per-page fingerprint (see
/// the module doc for its detection guarantee).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] over input that arrives in pieces: any split of the same
/// bytes gives the same result as one call over all of them.
pub(crate) struct Checksum {
    lanes: [u64; LANES],
    /// The start of a round that an earlier piece left unfinished.
    pending: [u8; ROUND],
    pending_len: usize,
    len: u64,
}

impl Checksum {
    /// The state before any byte.
    pub(crate) fn new() -> Self {
        Checksum {
            lanes: std::array::from_fn(|i| SEED ^ i as u64),
            pending: [0; ROUND],
            pending_len: 0,
            len: 0,
        }
    }

    /// Feeds the next `bytes`.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let n = (ROUND - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + n].copy_from_slice(&bytes[..n]);
            self.pending_len += n;
            bytes = &bytes[n..];
            if self.pending_len < ROUND {
                return;
            }
            let round = self.pending;
            self.rounds(&round);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % ROUND;
        self.rounds(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Steps the lanes over whole rounds.
    fn rounds(&mut self, bytes: &[u8]) {
        let mut lanes = self.lanes;
        for c in bytes.chunks_exact(ROUND) {
            for (l, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
                *l = mix(*l, word(w));
            }
        }
        self.lanes = lanes;
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finish(&self) -> u64 {
        let rest = &self.pending[..self.pending_len];
        let mut lanes = self.lanes;
        let mut words = rest.chunks_exact(8);
        for (l, w) in lanes.iter_mut().zip(&mut words) {
            *l = mix(*l, word(w));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        lanes
            .into_iter()
            .chain([u64::from_le_bytes(tail), self.len])
            .fold(SEED, mix)
    }
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

/// Bytes hashed and copied together when a stored body is read, so each
/// block is still in cache for its second use.
const BLOCK: usize = 64 << 10;

/// The payload reader. It hashes every byte once, in order: the fields up
/// to each stored body when that body is read, the body block by block as
/// it is copied out, and the rest in [`R::checksum`].
struct R<'a> {
    buf: &'a [u8],
    pos: usize,
    sum: Checksum,
    /// Bytes before this offset have been fed to `sum`.
    hashed: usize,
}

impl<'a> R<'a> {
    fn new(buf: &'a [u8]) -> Self {
        R {
            buf,
            pos: 0,
            sum: Checksum::new(),
            hashed: 0,
        }
    }
    fn hash_to(&mut self, end: usize) {
        self.sum.update(&self.buf[self.hashed..end]);
        self.hashed = end;
    }
    /// The checksum of the whole payload, however far parsing got.
    fn checksum(mut self) -> u64 {
        self.hash_to(self.buf.len());
        self.sum.finish()
    }
    /// Copies out `body`, the bytes just taken, hashing it on the way.
    fn copy_body(&mut self, body: &[u8]) -> Vec<u8> {
        self.hash_to(self.pos - body.len());
        let mut out = Vec::with_capacity(body.len());
        for block in body.chunks(BLOCK) {
            self.sum.update(block);
            out.extend_from_slice(block);
        }
        self.hashed = self.pos;
        out
    }
    /// `count` capped at the number of `min_len`-byte records left, for
    /// reserving space before the records are read.
    fn bounded(&self, count: usize, min_len: usize) -> usize {
        count.min((self.buf.len() - self.pos) / min_len)
    }
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

    /// Serializes to the container format (each dump stored or
    /// GRZ-compressed, whichever is smaller).
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
        // Dumps: each GRZ-coded only when that makes it strictly smaller.
        p.u32(self.dumps.len() as u32);
        for d in &self.dumps {
            p.u64(d.va);
            p.u32(d.bytes.len() as u32);
            let z = grz_compress(&d.bytes);
            if z.len() < d.bytes.len() {
                p.u8(GRZ);
                p.bytes(&z);
            } else {
                p.u8(STORED);
                p.bytes(&d.bytes);
            }
        }

        let mut out = Vec::with_capacity(p.buf.len() + 20);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&checksum(&p.buf).to_le_bytes());
        out.extend_from_slice(&p.buf);
        out
    }

    /// Parses a container, verifying checksum and structure.
    ///
    /// One pass over the payload parses it and computes its checksum; GRZ
    /// bodies are decoded only once the checksum has matched, so a
    /// corrupt container fails with [`ContainerError::ChecksumMismatch`]
    /// whatever else is wrong with it.
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
        let mut r = R::new(&bytes[16..]);
        let parsed = Recording::parse(&mut r);
        if r.checksum() != expected {
            return Err(ContainerError::ChecksumMismatch);
        }
        let (mut rec, grz) = parsed?;
        for (i, body) in grz {
            rec.dumps[i].bytes = grz_decompress(body)?;
        }
        Ok(rec)
    }

    /// Parses the payload behind `r`.
    fn parse<'a>(r: &mut R<'a>) -> Result<Parsed<'a>, ContainerError> {
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
        let mut actions = Vec::with_capacity(r.bounded(n_actions, 8 + 1));
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
                    let mut pte_flags = Vec::with_capacity(r.bounded(n, 2));
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
        let mut dumps = Vec::with_capacity(r.bounded(n_dumps, DUMP_RECORD));
        let mut grz = Vec::new();
        for _ in 0..n_dumps {
            let va = r.u64()?;
            let len = r.u32()? as usize;
            let coding = r.u8()?;
            let body_len = r.u32()? as usize;
            let body = r.take(body_len)?;
            let bytes = match coding {
                STORED if body.len() == len => r.copy_body(body),
                // The claim is bounded by the body, and decoding waits
                // for the checksum.
                GRZ if grz_len(body)? == len => {
                    grz.push((dumps.len(), body));
                    Vec::new()
                }
                STORED | GRZ => return Err(ContainerError::Truncated),
                other => return Err(ContainerError::BadCoding(other)),
            };
            dumps.push(Dump { va, bytes });
        }

        Ok((
            Recording {
                meta,
                actions,
                dumps,
                inputs,
                outputs,
            },
            grz,
        ))
    }
}

/// A parsed recording whose GRZ-coded dumps are still empty, with the
/// index and (length-checked) stream of each.
type Parsed<'a> = (Recording, Vec<(usize, &'a [u8])>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::max_expansion;

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
        let bytes = rec.to_bytes();
        let m = &rec.meta;
        // Header, the three strings, four counters and the action count,
        // then the first action's interval.
        let tag = 16
            + [&m.family, &m.sku_name, &m.label]
                .map(|s| 4 + s.len())
                .iter()
                .sum::<usize>()
            + 4 * 3
            + 8 * 2
            + 4
            + 8;
        assert_eq!(bytes[tag], rec.actions[0].action.tag());
        let body_len = dump_records(&rec, &bytes)[0] + 13;
        // Flips that also break parsing must still read as corruption.
        let flips = [(bytes.len() - 1, 0x01), (tag, 0xF0), (body_len + 3, 0x80)];
        for (at, x) in flips {
            let mut tampered = bytes.clone();
            tampered[at] ^= x;
            assert_eq!(
                Recording::from_bytes(&tampered),
                Err(ContainerError::ChecksumMismatch),
                "flip at {at}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_streamed_checksum_matches_one_call(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..12)
        ) {
            // Cut points anywhere, so pieces split words and rounds, and
            // some pieces are empty or span several rounds.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut sum = Checksum::new();
            let mut from = 0;
            for c in cuts.into_iter().chain([data.len()]) {
                sum.update(&data[from..c]);
                from = c;
            }
            assert_eq!(sum.finish(), checksum(&data));
        }
    }

    /// Deterministic incompressible bytes.
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// Offset in `bytes` (`rec.to_bytes()`) of each dump record's `va`.
    /// The dump section is last, so it starts where the same recording
    /// without dumps ends.
    fn dump_records(rec: &Recording, bytes: &[u8]) -> Vec<usize> {
        let no_dumps = Recording {
            dumps: Vec::new(),
            ..rec.clone()
        };
        let mut at = no_dumps.to_bytes().len();
        let mut records = Vec::new();
        for _ in &rec.dumps {
            records.push(at);
            let body = u32::from_le_bytes(bytes[at + 13..at + 17].try_into().unwrap());
            at += DUMP_RECORD + body as usize;
        }
        assert_eq!(at, bytes.len());
        records
    }

    fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Recomputes the checksum, so a test reaches the parser behind it.
    fn reseal(bytes: &mut [u8]) {
        let sum = checksum(&bytes[16..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn dump_headers_must_match_the_stream_length() {
        let rec = sample();
        let mut bytes = rec.to_bytes();
        // The last dump is GRZ-coded; its `len` follows its `va`.
        let at = dump_records(&rec, &bytes)[1] + 8;
        assert_eq!(bytes[at..at + 4], 8192u32.to_le_bytes());
        assert_eq!(bytes[at + 4], GRZ);
        put_u32(&mut bytes, at, u32::MAX);
        reseal(&mut bytes);
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::Truncated)
        );
    }

    #[test]
    fn hostile_dump_records_are_typed_errors_without_large_allocations() {
        let mut rec = sample();
        rec.dumps = vec![
            Dump {
                va: 0x10_0000,
                bytes: noise(3, 4096),
            },
            Dump {
                va: 0x10_1000,
                bytes: vec![0xAB; 2048],
            },
        ];
        let bytes = rec.to_bytes();
        let at = dump_records(&rec, &bytes);
        let (stored, grz) = (at[0], at[1]);
        assert_eq!((bytes[stored + 12], bytes[grz + 12]), (STORED, GRZ));
        let grz_body = grz + DUMP_RECORD;

        type Tamper<'a> = &'a dyn Fn(&mut [u8]);
        let cases: [(&str, Tamper, ContainerError); 6] = [
            (
                "coding byte 2",
                &|b| b[grz + 12] = 2,
                ContainerError::BadCoding(2),
            ),
            (
                "stored body shorter than len",
                &|b| put_u32(b, stored + 8, 4097),
                ContainerError::Truncated,
            ),
            (
                "stored body longer than len",
                &|b| put_u32(b, stored + 8, 4095),
                ContainerError::Truncated,
            ),
            (
                "GRZ claim above len",
                &|b| put_u32(b, grz_body + 4, 2049),
                ContainerError::Truncated,
            ),
            (
                "GRZ claim far beyond the body",
                &|b| {
                    put_u32(b, grz + 8, u32::MAX);
                    put_u32(b, grz_body + 4, u32::MAX);
                },
                ContainerError::Dump(GrzError::Truncated),
            ),
            (
                "body running past the end",
                &|b| put_u32(b, grz + 13, u32::MAX),
                ContainerError::Truncated,
            ),
        ];
        for (what, tamper, want) in cases {
            let mut hostile = bytes.clone();
            tamper(&mut hostile);
            reseal(&mut hostile);
            gr_testalloc::reset();
            assert_eq!(Recording::from_bytes(&hostile), Err(want), "{what}");
            assert!(
                gr_testalloc::largest() <= hostile.len(),
                "{what}: allocated {} for a {}-byte container",
                gr_testalloc::largest(),
                hostile.len()
            );
        }

        // Unsealed, a GRZ claim that the body could expand to and `len`
        // agrees with: the checksum fails before anything is decoded.
        let mut hostile = bytes.clone();
        let body_len = u32::from_le_bytes(bytes[grz + 13..grz + 17].try_into().unwrap());
        let claim = max_expansion(body_len as usize - 8) as u32;
        assert!(claim as usize > hostile.len());
        put_u32(&mut hostile, grz + 8, claim);
        put_u32(&mut hostile, grz_body + 4, claim);
        gr_testalloc::reset();
        assert_eq!(
            Recording::from_bytes(&hostile),
            Err(ContainerError::ChecksumMismatch)
        );
        assert!(
            gr_testalloc::largest() <= hostile.len(),
            "unsealed claim: allocated {} for a {}-byte container",
            gr_testalloc::largest(),
            hostile.len()
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_dumps_roundtrip_and_are_stored_exactly_when_grz_does_not_shrink(
            specs in proptest::collection::vec((proptest::prelude::any::<u64>(), 0usize..3000), 0..6)
        ) {
            let mut rec = sample();
            rec.dumps = specs
                .iter()
                .enumerate()
                .map(|(i, &(seed, n))| {
                    let bytes = match seed % 3 {
                        0 => noise(seed, n),
                        // Zero-heavy: a few random bytes on a zero page.
                        1 => {
                            let mut z = vec![0u8; n];
                            for (k, b) in noise(seed, n / 64).into_iter().enumerate() {
                                z[(k * 61 + b as usize) % n] = b;
                            }
                            z
                        }
                        _ => [noise(seed, n / 2), vec![0; n - n / 2]].concat(),
                    };
                    Dump { va: 0x10_0000 * (i as u64 + 1), bytes }
                })
                .collect();
            let bytes = rec.to_bytes();
            assert_eq!(Recording::from_bytes(&bytes).unwrap(), rec);
            for (d, at) in rec.dumps.iter().zip(dump_records(&rec, &bytes)) {
                let shrinks = grz_compress(&d.bytes).len() < d.bytes.len();
                assert_eq!(bytes[at + 12], if shrinks { GRZ } else { STORED });
            }
            let no_dumps = Recording { dumps: Vec::new(), ..rec.clone() };
            let bound = no_dumps.to_bytes().len() + rec.dump_bytes() + DUMP_RECORD * rec.dumps.len();
            assert!(bytes.len() <= bound, "{} > {bound}", bytes.len());
        }
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
