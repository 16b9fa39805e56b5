//! Simulated integrated GPUs for the GPUReplay reproduction.
//!
//! The paper's hardware targets (Arm Mali G31/G52/G71 and Broadcom v3d)
//! are not available here, so this crate provides register-level device
//! models that expose the same CPU-visible contract the paper's GPU model
//! (§3.2, Table 1) relies on:
//!
//! * memory-mapped registers with family-specific maps and protocols,
//! * GPU page tables stored in shared DRAM (two Mali PTE layouts plus the
//!   v3d flat format — the §6.4 cross-SKU differences),
//! * interrupts, cache-flush/reset/power-up delays,
//! * opaque job binaries (job chains / control lists referencing shader
//!   bytecode) that the devices *really execute* over f32 tensors,
//! * timing driven by modeled FLOPs/bytes with run-to-run jitter, and
//! * fault injection (core offlining, PTE corruption) for the §7.2
//!   recovery experiments.
//!
//! Assemble a [`Machine`] to get DRAM + power controller + IRQ controller
//! + GPU wired together on one virtual clock.
//!
//! # Example
//!
//! ```
//! use gr_gpu::{Machine, sku};
//!
//! let machine = Machine::new(&sku::MALI_G71, 42);
//! assert_eq!(machine.gpu_read32(gr_gpu::mali::regs::GPU_ID), sku::MALI_G71.gpu_id);
//! ```

pub mod access;
pub mod device;
pub mod faults;
pub mod machine;
pub mod mali;
pub mod sku;
pub mod timing;
pub mod v3d;
pub mod vm;

pub use access::{AccessLog, AccessSnapshot, IntervalSet, SharedAccessLog};
pub use device::{GpuDev, SoftTlb, TranslatingVaMem};
pub use faults::FaultKind;
pub use machine::{Machine, WaitOutcome, DEFAULT_DRAM_SIZE, DRAM_BASE};
pub use sku::{GpuFamilyKind, GpuSku, PteFormat};
pub use timing::JobCost;

// Lets tests prove that hostile lengths fault before they are allocated.
#[cfg(test)]
#[global_allocator]
static ALLOC: gr_testalloc::Tracking = gr_testalloc::Tracking;
