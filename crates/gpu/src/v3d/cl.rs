//! v3d control lists.
//!
//! A v3d submission is a *control list*: a packet stream in GPU memory
//! between `CT0CA` and `CT0EA`. Packets may branch to sub-lists and
//! reference shader blobs by VA. Unlike Mali job chains, the control-list
//! *structure* is part of the open driver contract (drm/v3d parses it), so
//! the paper's v3d recorder walks it to find every region a job references
//! (§6.2: "the recorder follows v3d's registers pointing to shaders and
//! control lists \[and\] handles the cases where lists/shaders may contain
//! pointers to other lists/shaders").
//!
//! Packet wire format (little-endian):
//!
//! | opcode | payload |
//! |--------|---------|
//! | `0x00` HALT   | — |
//! | `0x01` NOP    | — |
//! | `0x02` BRANCH | sub-list VA (u64), sub-list length (u32) |
//! | `0x20` RUN_SHADER | shader VA (u64), length (u32), modeled FLOPs (u64), modeled bytes (u64) |

use crate::timing::JobCost;

/// Opcode byte for HALT.
pub const OP_HALT: u8 = 0x00;
/// Opcode byte for NOP.
pub const OP_NOP: u8 = 0x01;
/// Opcode byte for BRANCH.
pub const OP_BRANCH: u8 = 0x02;
/// Opcode byte for RUN_SHADER.
pub const OP_RUN_SHADER: u8 = 0x20;

/// Maximum BRANCH nesting the hardware follows.
pub const MAX_BRANCH_DEPTH: usize = 8;

/// One decoded control-list packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClPacket {
    /// End of list.
    Halt,
    /// Padding.
    Nop,
    /// Execute a sub-list then continue.
    Branch {
        /// Sub-list VA.
        va: u64,
        /// Sub-list byte length.
        len: u32,
    },
    /// Run a shader blob.
    RunShader {
        /// Shader blob VA.
        va: u64,
        /// Blob byte length.
        len: u32,
        /// Modeled work of the shader.
        cost: JobCost,
    },
}

/// Error parsing a control list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClError {
    /// List ended mid-packet.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// List does not end with HALT.
    MissingHalt,
}

impl std::fmt::Display for ClError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClError::Truncated => write!(f, "control list truncated"),
            ClError::BadOpcode(op) => write!(f, "unknown control-list opcode {op:#x}"),
            ClError::MissingHalt => write!(f, "control list missing HALT"),
        }
    }
}

impl std::error::Error for ClError {}

/// Incrementally builds a control list.
#[derive(Debug, Default)]
pub struct ClWriter {
    buf: Vec<u8>,
}

impl ClWriter {
    /// Starts an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a NOP.
    pub fn nop(&mut self) -> &mut Self {
        self.buf.push(OP_NOP);
        self
    }

    /// Appends a BRANCH to `va` of `len` bytes.
    pub fn branch(&mut self, va: u64, len: u32) -> &mut Self {
        self.buf.push(OP_BRANCH);
        self.buf.extend_from_slice(&va.to_le_bytes());
        self.buf.extend_from_slice(&len.to_le_bytes());
        self
    }

    /// Appends a RUN_SHADER.
    pub fn run_shader(&mut self, va: u64, len: u32, cost: JobCost) -> &mut Self {
        self.buf.push(OP_RUN_SHADER);
        self.buf.extend_from_slice(&va.to_le_bytes());
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&cost.flops.to_le_bytes());
        self.buf.extend_from_slice(&cost.bytes.to_le_bytes());
        self
    }

    /// Terminates with HALT and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.push(OP_HALT);
        self.buf
    }
}

/// Parses a flat (single-level) list into packets, including the final
/// [`ClPacket::Halt`].
///
/// # Errors
///
/// Returns [`ClError`] for truncation, unknown opcodes, or a missing HALT.
pub fn parse_list(bytes: &[u8]) -> Result<Vec<ClPacket>, ClError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    loop {
        let Some(&op) = bytes.get(pos) else {
            return Err(ClError::MissingHalt);
        };
        pos += 1;
        match op {
            OP_HALT => {
                out.push(ClPacket::Halt);
                return Ok(out);
            }
            OP_NOP => out.push(ClPacket::Nop),
            OP_BRANCH => {
                if pos + 12 > bytes.len() {
                    return Err(ClError::Truncated);
                }
                let va = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("len checked"));
                let len =
                    u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("len checked"));
                pos += 12;
                out.push(ClPacket::Branch { va, len });
            }
            OP_RUN_SHADER => {
                if pos + 28 > bytes.len() {
                    return Err(ClError::Truncated);
                }
                let va = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("len checked"));
                let len =
                    u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("len checked"));
                let flops =
                    u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("len checked"));
                let b =
                    u64::from_le_bytes(bytes[pos + 20..pos + 28].try_into().expect("len checked"));
                pos += 28;
                out.push(ClPacket::RunShader {
                    va,
                    len,
                    cost: JobCost { flops, bytes: b },
                });
            }
            other => return Err(ClError::BadOpcode(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_parser_roundtrip() {
        let mut w = ClWriter::new();
        w.nop()
            .run_shader(
                0x2000,
                36,
                JobCost {
                    flops: 10,
                    bytes: 20,
                },
            )
            .branch(0x9000, 100);
        let bytes = w.finish();
        let pkts = parse_list(&bytes).unwrap();
        assert_eq!(
            pkts,
            vec![
                ClPacket::Nop,
                ClPacket::RunShader {
                    va: 0x2000,
                    len: 36,
                    cost: JobCost {
                        flops: 10,
                        bytes: 20
                    }
                },
                ClPacket::Branch {
                    va: 0x9000,
                    len: 100
                },
                ClPacket::Halt,
            ]
        );
    }

    #[test]
    fn truncation_and_bad_opcode() {
        let mut w = ClWriter::new();
        w.run_shader(1, 2, JobCost::default());
        let bytes = w.finish();
        assert_eq!(parse_list(&bytes[..5]), Err(ClError::Truncated));
        assert_eq!(parse_list(&[0x01, 0x01]), Err(ClError::MissingHalt));
        assert_eq!(parse_list(&[0x77]), Err(ClError::BadOpcode(0x77)));
        assert_eq!(parse_list(&[]), Err(ClError::MissingHalt));
    }

    #[test]
    fn empty_list_is_just_halt() {
        let bytes = ClWriter::new().finish();
        assert_eq!(parse_list(&bytes).unwrap(), vec![ClPacket::Halt]);
    }
}
