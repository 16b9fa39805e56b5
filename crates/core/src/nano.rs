//! The nano GPU driver (§5.2) — "it only has 600 SLoC".
//!
//! Most functions map directly to replay actions: mapping GPU memory by
//! rebuilding page tables from recorded (opaque) PTE flag bits, loading
//! memory dumps at virtual addresses, copying data in and out, and
//! pointing the GPU at the rebuilt tables. It allocates its own physical
//! frames (always zeroed — the §5.1 "no sensitive data" guarantee) and
//! never interprets dump contents.

use std::collections::BTreeMap;

use gr_gpu::machine::Machine;
use gr_soc::PAGE_SIZE;

use crate::costs;
use crate::error::ReplayError;
use crate::iface::NanoIface;

#[derive(Debug, Clone)]
struct NanoRegion {
    pages: usize,
    pas: Vec<u64>,
    flags: Vec<u16>,
}

/// The nano driver: page tables + VA map + raw memory moves.
pub struct NanoDriver {
    machine: Machine,
    iface: NanoIface,
    root_pa: u64,
    table_frames: Vec<u64>,
    regions: BTreeMap<u64, NanoRegion>,
}

impl std::fmt::Debug for NanoDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NanoDriver")
            .field("regions", &self.regions.len())
            .finish()
    }
}

impl NanoDriver {
    /// Allocates the top-level table and returns the driver.
    ///
    /// # Errors
    ///
    /// Fails when physical memory is exhausted.
    pub fn new(machine: Machine, iface: NanoIface) -> Result<NanoDriver, ReplayError> {
        let (root_pa, table_frames) = iface.alloc_root(&machine)?;
        Ok(NanoDriver {
            machine,
            iface,
            root_pa,
            table_frames,
            regions: BTreeMap::new(),
        })
    }

    /// Physical pages currently consumed (tables + mapped regions).
    pub fn phys_pages(&self) -> u64 {
        self.table_frames.len() as u64 + self.regions.values().map(|r| r.pages as u64).sum::<u64>()
    }

    /// Implements `SetGPUPgtable`: writes the GPU's table-base register
    /// with *this* driver's root.
    pub fn set_pgtable_base(&self) {
        self.iface.set_pgtable_base(&self.machine, self.root_pa);
    }

    /// Implements `MapGPUMem`: allocates zeroed frames and writes PTEs
    /// carrying the recorded flag bits. Idempotent: re-mapping the same
    /// base VA with the same page count is a no-op (recordings replayed
    /// back-to-back in one session share their address space).
    ///
    /// # Errors
    ///
    /// Fails on OOM or a conflicting existing mapping.
    pub fn map(&mut self, va: u64, flags: &[u16]) -> Result<(), ReplayError> {
        if let Some(existing) = self.regions.get(&va) {
            if existing.pages == flags.len() {
                return Ok(());
            }
            return Err(ReplayError::Verify(format!(
                "conflicting mapping at {va:#x}"
            )));
        }
        self.machine
            .advance(costs::MAP_PER_PAGE * flags.len() as u64);
        let mut pas = Vec::with_capacity(flags.len());
        for (i, &bits) in flags.iter().enumerate() {
            let pa = self
                .machine
                .frames()
                .lock()
                .alloc_zeroed(self.machine.mem())
                .map_err(|_| ReplayError::OutOfMemory)?
                .ok_or(ReplayError::OutOfMemory)?;
            if let Some(table_frame) = self.iface.map_page_raw(
                &self.machine,
                self.root_pa,
                va + (i * PAGE_SIZE) as u64,
                pa,
                bits,
            )? {
                self.table_frames.push(table_frame);
            }
            pas.push(pa);
        }
        self.regions.insert(
            va,
            NanoRegion {
                pages: flags.len(),
                pas,
                flags: flags.to_vec(),
            },
        );
        Ok(())
    }

    /// Implements `UnMapGPUMem`: clears PTEs and frees frames.
    ///
    /// # Errors
    ///
    /// Fails if `va` is not a mapped region base.
    pub fn unmap(&mut self, va: u64) -> Result<(), ReplayError> {
        let region = self
            .regions
            .remove(&va)
            .ok_or_else(|| ReplayError::Verify(format!("unmap of unmapped {va:#x}")))?;
        for (i, pa) in region.pas.iter().enumerate() {
            self.iface
                .unmap_page_raw(&self.machine, self.root_pa, va + (i * PAGE_SIZE) as u64);
            let _ = self.machine.frames().lock().free(*pa);
        }
        // Architectural TLB shootdown: without it a stale translation
        // could survive into a mapping that later recycles this VA (or
        // leak writes into whoever now owns the freed frames).
        self.iface.tlb_shootdown(&self.machine);
        Ok(())
    }

    /// Rewrites every PTE from the driver's bookkeeping — the §5.4
    /// recovery step that re-populates page tables after corruption.
    pub fn remap_all(&mut self) -> Result<(), ReplayError> {
        let regions: Vec<(u64, Vec<u64>, Vec<u16>)> = self
            .regions
            .iter()
            .map(|(va, r)| (*va, r.pas.clone(), r.flags.clone()))
            .collect();
        for (va, pas, flags) in regions {
            for (i, (&pa, &bits)) in pas.iter().zip(flags.iter()).enumerate() {
                self.iface
                    .unmap_page_raw(&self.machine, self.root_pa, va + (i * PAGE_SIZE) as u64);
                if let Some(f) = self.iface.map_page_raw(
                    &self.machine,
                    self.root_pa,
                    va + (i * PAGE_SIZE) as u64,
                    pa,
                    bits,
                )? {
                    self.table_frames.push(f);
                }
            }
        }
        Ok(())
    }

    fn locate(&self, va: u64) -> Result<(u64, usize), ReplayError> {
        let (base, region) = self
            .regions
            .range(..=va)
            .next_back()
            .ok_or_else(|| ReplayError::Io(format!("va {va:#x} unmapped")))?;
        let off = (va - base) as usize;
        if off >= region.pages * PAGE_SIZE {
            return Err(ReplayError::Io(format!("va {va:#x} unmapped")));
        }
        Ok((*base, off))
    }

    /// Writes `data` at GPU virtual address `va` (dump loads / input
    /// injection). Holds the DRAM lock once across the whole transfer
    /// instead of re-acquiring it per 4-KiB chunk.
    ///
    /// # Errors
    ///
    /// Fails when the range is unmapped.
    pub fn write_va(&self, va: u64, data: &[u8]) -> Result<(), ReplayError> {
        let mut g = self.machine.mem().write_guard();
        let mut done = 0usize;
        while done < data.len() {
            let cur = va + done as u64;
            let (base, off) = self.locate(cur)?;
            let region = &self.regions[&base];
            let page = off / PAGE_SIZE;
            let chunk = (PAGE_SIZE - off % PAGE_SIZE).min(data.len() - done);
            let pa = region.pas[page] + (off % PAGE_SIZE) as u64;
            g.write(pa, &data[done..done + chunk])
                .map_err(|_| ReplayError::OutOfMemory)?;
            done += chunk;
        }
        Ok(())
    }

    /// Reads `out.len()` bytes from `va` (output extraction, checkpoints).
    /// Lock-amortized like [`NanoDriver::write_va`].
    ///
    /// # Errors
    ///
    /// Fails when the range is unmapped.
    pub fn read_va(&self, va: u64, out: &mut [u8]) -> Result<(), ReplayError> {
        let g = self.machine.mem().read_guard();
        let len = out.len();
        let mut done = 0usize;
        while done < len {
            let cur = va + done as u64;
            let (base, off) = self.locate(cur)?;
            let region = &self.regions[&base];
            let page = off / PAGE_SIZE;
            let chunk = (PAGE_SIZE - off % PAGE_SIZE).min(len - done);
            let pa = region.pas[page] + (off % PAGE_SIZE) as u64;
            g.read(pa, &mut out[done..done + chunk])
                .map_err(|_| ReplayError::OutOfMemory)?;
            done += chunk;
        }
        Ok(())
    }

    /// Resolves the GPU-virtual range `[va, va+len)` to its backing
    /// physical ranges (contiguous pages coalesced). Used by the warm-
    /// residency state machine to query the DRAM dirty-line map about the
    /// memory behind a dump.
    ///
    /// # Errors
    ///
    /// Fails when any part of the range is unmapped.
    pub fn phys_ranges(&self, va: u64, len: u64) -> Result<Vec<(u64, usize)>, ReplayError> {
        let mut out: Vec<(u64, usize)> = Vec::new();
        let mut done = 0u64;
        while done < len {
            let cur = va + done;
            let (base, off) = self.locate(cur)?;
            let region = &self.regions[&base];
            let page = off / PAGE_SIZE;
            let chunk = ((PAGE_SIZE - off % PAGE_SIZE) as u64).min(len - done);
            let pa = region.pas[page] + (off % PAGE_SIZE) as u64;
            match out.last_mut() {
                Some((last_pa, last_len)) if *last_pa + *last_len as u64 == pa => {
                    *last_len += chunk as usize;
                }
                _ => out.push((pa, chunk as usize)),
            }
            done += chunk;
        }
        Ok(out)
    }

    /// Snapshot of all mapped content (checkpointing).
    pub fn snapshot_memory(&self) -> Vec<(u64, Vec<u8>)> {
        self.regions
            .iter()
            .map(|(va, r)| {
                let mut bytes = vec![0u8; r.pages * PAGE_SIZE];
                for (i, &pa) in r.pas.iter().enumerate() {
                    let _ = self
                        .machine
                        .mem()
                        .read(pa, &mut bytes[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]);
                }
                (*va, bytes)
            })
            .collect()
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions
            .values()
            .map(|r| (r.pages * PAGE_SIZE) as u64)
            .sum()
    }

    /// Frees everything (Cleanup API).
    pub fn release(mut self) {
        let vas: Vec<u64> = self.regions.keys().copied().collect();
        for va in vas {
            let _ = self.unmap(va);
        }
        for f in self.table_frames.drain(..) {
            let _ = self.machine.frames().lock().free(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_gpu::sku::MALI_G71;

    #[test]
    fn map_write_read_unmap() {
        let machine = Machine::new(&MALI_G71, 2);
        let mut nano = NanoDriver::new(machine.clone(), NanoIface::Mali).unwrap();
        nano.map(0x10_0000, &[0xF, 0xF]).unwrap();
        nano.write_va(
            0x10_0FF0,
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
        )
        .unwrap();
        let mut back = [0u8; 17];
        nano.read_va(0x10_0FF0, &mut back).unwrap();
        assert_eq!(back[0], 1);
        assert_eq!(back[16], 17);
        assert!(nano.phys_pages() >= 3);
        // Idempotent re-map.
        nano.map(0x10_0000, &[0xF, 0xF]).unwrap();
        assert!(nano.map(0x10_0000, &[0xF]).is_err(), "size conflict");
        nano.unmap(0x10_0000).unwrap();
        assert!(nano.write_va(0x10_0000, &[0]).is_err());
        nano.release();
    }

    #[test]
    fn frames_are_zeroed_no_sensitive_data() {
        let machine = Machine::new(&MALI_G71, 2);
        // Dirty some frames first.
        let dirty = machine.frames().lock().alloc().unwrap();
        machine.mem().fill(dirty, PAGE_SIZE, 0xEE).unwrap();
        machine.frames().lock().free(dirty).unwrap();
        let mut nano = NanoDriver::new(machine.clone(), NanoIface::Mali).unwrap();
        // Map enough pages to certainly reuse the dirty frame.
        nano.map(0x20_0000, &[0xB; 16]).unwrap();
        let mut buf = vec![0u8; 16 * PAGE_SIZE];
        nano.read_va(0x20_0000, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "§5.1: frames must be scrubbed");
        nano.release();
    }

    #[test]
    fn release_returns_all_frames() {
        let machine = Machine::new(&MALI_G71, 2);
        let before = machine.frames().lock().used();
        let mut nano = NanoDriver::new(machine.clone(), NanoIface::Mali).unwrap();
        nano.map(0x30_0000, &[0xB; 4]).unwrap();
        nano.release();
        assert_eq!(machine.frames().lock().used(), before);
    }

    #[test]
    fn snapshot_covers_all_regions() {
        let machine = Machine::new(&MALI_G71, 2);
        let mut nano = NanoDriver::new(machine, NanoIface::Mali).unwrap();
        nano.map(0x10_0000, &[0xB]).unwrap();
        nano.map(0x20_0000, &[0xB, 0xB]).unwrap();
        nano.write_va(0x20_0000, b"abc").unwrap();
        let snap = nano.snapshot_memory();
        assert_eq!(snap.len(), 2);
        assert_eq!(nano.mapped_bytes(), 3 * PAGE_SIZE as u64);
        assert_eq!(&snap[1].1[..3], b"abc");
        nano.release();
    }
}
