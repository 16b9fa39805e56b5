//! The GPUReplay recording format.
//!
//! A recording encodes a fixed sequence of GPU jobs: the replay actions of
//! the paper's Table 2 ([`Action`]), the GPU memory dumps that hold the
//! proprietary job binaries, the discovered input/output addresses, and
//! metadata binding the recording to a GPU SKU. Recordings serialize to a
//! compact binary container ([`Recording::to_bytes`]) in which each dump is
//! GRZ (LZSS) compressed when that makes it smaller and stored raw
//! otherwise — standing in for the paper's zlib.
//!
//! # Example
//!
//! ```
//! use gr_recording::{Action, Recording, RecordingMeta, TimedAction};
//!
//! let mut rec = Recording::new(RecordingMeta::new("mali", "G71", 0x6956_0010, "demo"));
//! rec.actions.push(TimedAction::immediate(Action::RegWrite {
//!     reg: 0x18,
//!     mask: u32::MAX,
//!     val: 1,
//! }));
//! let bytes = rec.to_bytes();
//! let back = Recording::from_bytes(&bytes)?;
//! assert_eq!(back.actions.len(), 1);
//! # Ok::<(), gr_recording::ContainerError>(())
//! ```

pub mod action;
pub mod codec;
pub mod container;
pub mod meta;

pub use action::{Action, TimedAction};
pub use codec::{grz_compress, grz_decompress};
pub use container::{checksum, ContainerError, Recording};
pub use meta::{Dump, IoSlot, RecordingMeta};

// Lets tests prove that hostile lengths are refused before allocation.
#[cfg(test)]
#[global_allocator]
static ALLOC: gr_testalloc::Tracking = gr_testalloc::Tracking;
