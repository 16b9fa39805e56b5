//! The driver instrumentation seams the recorder taps.
//!
//! §4.1 of the paper: "We instrument the driver code: register accessors;
//! register writes starting a GPU job; accessors of GPU page tables;
//! interrupt handling." [`RecorderSink`] is that instrumentation surface —
//! the recorder crate implements it; production drivers run with no sink
//! attached and pay nothing.

use gr_sim::SimDuration;
use gr_soc::{SharedMem, PAGE_SIZE};

use crate::driver::RegionKind;

/// Family-specific root of a submitted job, as visible at the driver level
/// (ioctl arguments / submit registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobRoot {
    /// Mali: VA of the first job-chain header.
    MaliChain {
        /// Chain head VA.
        head_va: u64,
    },
    /// v3d: control-list window.
    V3dList {
        /// List start VA.
        cl_va: u64,
        /// List byte length.
        cl_len: u32,
    },
}

/// Snapshot of one mapped GPU VA region at dump time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSnapshot {
    /// First virtual address.
    pub va: u64,
    /// Region length in pages.
    pub pages: usize,
    /// Allocation kind (the v3d recorder's syscall-flag hint, §6.2).
    pub kind: RegionKind,
    /// Low PTE bits per page, in the recording SKU's format.
    pub pte_flags: Vec<u16>,
    /// Backing physical frames, one per page.
    pub pas: Vec<u64>,
}

impl RegionSnapshot {
    /// Byte length of the region.
    pub fn len_bytes(&self) -> usize {
        self.pages * PAGE_SIZE
    }
}

/// Everything the recorder may inspect at a dump point (right before the
/// driver kicks the GPU, §4.3).
pub struct DumpCtx<'a> {
    /// Shared DRAM (for reading page contents).
    pub mem: &'a SharedMem,
    /// All currently mapped regions.
    pub regions: &'a [RegionSnapshot],
    /// The job about to be submitted.
    pub root: JobRoot,
}

impl DumpCtx<'_> {
    /// Physical address backing GPU virtual address `va` according to the
    /// region snapshots, or `None` if `va` is not mapped.
    pub fn pa_of(&self, va: u64) -> Option<u64> {
        let r = self
            .regions
            .iter()
            .find(|r| va >= r.va && va < r.va + r.len_bytes() as u64)?;
        let off = (va - r.va) as usize;
        Some(r.pas[off / PAGE_SIZE] + (off % PAGE_SIZE) as u64)
    }

    /// Reads `len` bytes at GPU virtual address `va` using the region
    /// snapshots (CPU-side access, like the paper's in-driver dumper).
    /// Returns `None` if the range is not fully mapped.
    pub fn read_va(&self, va: u64, len: usize) -> Option<Vec<u8>> {
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let pa = self.pa_of(va + done as u64)?;
            let chunk = (PAGE_SIZE - pa as usize % PAGE_SIZE).min(len - done);
            self.mem.read(pa, &mut out[done..done + chunk]).ok()?;
            done += chunk;
        }
        Some(out)
    }
}

/// Instrumentation calls the driver makes on its way to the hardware.
///
/// Implementations must be cheap and side-effect-free with respect to the
/// driver: the paper's recorder is an observer, not a participant.
pub trait RecorderSink: Send + Sync {
    /// A register write reached the GPU.
    fn reg_write(&self, reg: u32, val: u32);

    /// A single register read returned `val`.
    fn reg_read(&self, reg: u32, val: u32);

    /// A polling loop on `reg` completed (`polls` reads, nondeterministic)
    /// waiting for `(value & mask) == val` within `timeout`.
    fn poll(&self, reg: u32, mask: u32, val: u32, polls: u32, timeout: SimDuration);

    /// The driver blocked for an interrupt on `line`.
    fn wait_irq(&self, line: u32, timeout: SimDuration);

    /// Interrupt handler entry (`true`) / exit via eret (`false`).
    fn irq_context(&self, enter: bool);

    /// The driver pointed the GPU at (new) page tables.
    fn pgtable_set(&self);

    /// A VA region was mapped (per-page PTE flag bits attached).
    fn map(&self, va: u64, kind: RegionKind, pte_flags: &[u16]);

    /// A VA region was unmapped.
    fn unmap(&self, va: u64);

    /// CPU data was copied into GPU memory at `va` (candidate input).
    fn copy_to_gpu(&self, va: u64, len: usize);

    /// GPU data was copied out to the CPU from `va` (candidate output).
    fn copy_from_gpu(&self, va: u64, len: usize);

    /// Fires right before the job kick — the §4.3 dump point.
    fn pre_job_submit(&self, ctx: &DumpCtx<'_>);

    /// Fires after a job completes (IRQ acknowledged). Recorders use it to
    /// refresh their page-content view so GPU-written pages (buffers
    /// passed among jobs) are never re-dumped — §4.3: dumps "should
    /// exclude GPU buffers passed among jobs so that loading of memory
    /// dumps does not overwrite these buffers".
    fn post_job_complete(&self, ctx: &DumpCtx<'_>) {
        let _ = ctx;
    }

    /// GPU went busy (`true`, job kicked) or idle (`false`, completion
    /// acknowledged) — the §4.5 interval-skipping events.
    fn gpu_phase(&self, busy: bool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_soc::PhysMem;

    #[test]
    fn dumpctx_reads_across_region_pages() {
        let mem = SharedMem::new(PhysMem::new(0, 8 * PAGE_SIZE));
        // Region: VA 0x10000, 2 pages, physically at pages 3 and 5 (discontiguous).
        mem.write(3 * PAGE_SIZE as u64, b"tail-of-page-one")
            .unwrap();
        mem.write(5 * PAGE_SIZE as u64, b"head-of-page-two")
            .unwrap();
        let region = RegionSnapshot {
            va: 0x10000,
            pages: 2,
            kind: RegionKind::Data,
            pte_flags: vec![0xB, 0xB],
            pas: vec![3 * PAGE_SIZE as u64, 5 * PAGE_SIZE as u64],
        };
        let regions = [region];
        let ctx = DumpCtx {
            mem: &mem,
            regions: &regions,
            root: JobRoot::MaliChain { head_va: 0 },
        };
        assert_eq!(ctx.read_va(0x10000, 4).unwrap(), b"tail");
        assert_eq!(ctx.read_va(0x10000 + PAGE_SIZE as u64, 4).unwrap(), b"head");
        // Cross-page read stitches the two frames.
        let cross = ctx.read_va(0x10000 + PAGE_SIZE as u64 - 2, 6).unwrap();
        assert_eq!(&cross[2..], b"head");
        // Unmapped VA yields None.
        assert!(ctx.read_va(0x50000, 4).is_none());
        assert_eq!(
            ctx.pa_of(0x10000 + PAGE_SIZE as u64 + 7),
            Some(5 * PAGE_SIZE as u64 + 7)
        );
        assert_eq!(ctx.pa_of(0x10000 + 2 * PAGE_SIZE as u64), None);
    }
}
