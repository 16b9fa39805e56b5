//! SoC substrate: the hardware a GPU stack (or the GPUReplay replayer)
//! actually touches.
//!
//! The paper's GPU model (§3.2, Table 1) assumes the CPU/GPU interface is
//! memory-mapped registers, shared DRAM, and interrupts, with GPU page
//! tables living *in* that shared DRAM and power/clocks owned by SoC-level
//! controllers. This crate provides exactly those pieces:
//!
//! * [`PhysMem`] / [`SharedMem`] — byte-addressable simulated DRAM shared by
//!   CPU and GPU;
//! * [`FrameAllocator`] — physical page-frame allocation (the driver's and
//!   the replayer's view of "allocate GPU memory");
//! * [`Mmio`] — the register-access contract devices expose;
//! * [`IrqController`] — level-style interrupt lines;
//! * [`Pmc`] — the power/clock controller the baremetal replayer must
//!   program itself (§6.3);
//! * [`Mailbox`] — a firmware property channel (RaspberryPi-style) that the
//!   kernel driver uses for power, mirroring the paper's v3d experience.
//!
//! # Example
//!
//! ```
//! use gr_soc::{PhysMem, PAGE_SIZE};
//!
//! let mut mem = PhysMem::new(0x8000_0000, 16 * PAGE_SIZE);
//! mem.write_u32(0x8000_0000, 0xdead_beef)?;
//! assert_eq!(mem.read_u32(0x8000_0000)?, 0xdead_beef);
//! # Ok::<(), gr_soc::MemError>(())
//! ```

pub mod dirty;
pub mod frames;
pub mod irq;
pub mod mailbox;
pub mod mem;
pub mod mmio;
pub mod pmc;

pub use dirty::{DirtyLines, DIRTY_LINE};
pub use frames::FrameAllocator;
pub use irq::{IrqController, IrqLine};
pub use mailbox::{Mailbox, MboxRequest, MboxStatus};
pub use mem::{MemError, MemReadGuard, MemWriteGuard, PhysMem, SharedMem, PAGE_SIZE};
pub use mmio::Mmio;
pub use pmc::{Pmc, PmcDomain, SharedPmc};
