//! The nano GPU driver (§5.2) — "it only has 600 SLoC".
//!
//! Most functions map directly to replay actions: mapping a GPU memory
//! region by rebuilding page tables from recorded (opaque) PTE flag bits,
//! loading memory dumps at virtual addresses, copying data in and out,
//! and pointing the GPU at the rebuilt tables. It allocates its own
//! physical frames (always zeroed — the §5.1 "no sensitive data"
//! guarantee) and never interprets dump contents.
//!
//! It works a whole region at a time, and allocates before it writes:
//! `map` takes every frame a region needs (data pages and Mali L2 tables)
//! under one frame-allocator hold, then zeroes them and writes the L1
//! entries and PTEs under one DRAM guard. A map that runs out of frames
//! therefore fails before touching DRAM, and the §5.4 recovery remap
//! rewrites the tables from bookkeeping without allocating.

use std::collections::{BTreeMap, BTreeSet};

use gr_gpu::machine::Machine;
use gr_soc::PAGE_SIZE;

use crate::costs;
use crate::error::ReplayError;
use crate::iface::NanoIface;

#[derive(Debug)]
struct NanoRegion {
    pas: Vec<u64>,
    flags: Vec<u16>,
}

/// The nano driver: page tables + VA map + raw memory moves.
pub struct NanoDriver {
    machine: Machine,
    iface: NanoIface,
    root_pa: u64,
    /// Mali L2 tables by L1 slot. A table outlives the regions in its
    /// slot and is freed only by [`NanoDriver::release`].
    tables: BTreeMap<u64, u64>,
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
        let root_pa = iface.alloc_root(&machine)?;
        Ok(NanoDriver {
            machine,
            iface,
            root_pa,
            tables: BTreeMap::new(),
            regions: BTreeMap::new(),
        })
    }

    /// Physical pages currently consumed (tables + mapped regions).
    pub fn phys_pages(&self) -> u64 {
        let data: usize = self.regions.values().map(|r| r.pas.len()).sum();
        (self.iface.root_pages() + self.tables.len() + data) as u64
    }

    /// Implements `SetGPUPgtable`: writes the GPU's table-base register
    /// with *this* driver's root.
    pub fn set_pgtable_base(&self) {
        self.iface.set_pgtable_base(&self.machine, self.root_pa);
    }

    /// Implements `MapGPUMem`: allocates zeroed frames and writes PTEs
    /// carrying the recorded flag bits. Idempotent: re-mapping the same
    /// base VA with the same flags is a no-op (recordings replayed
    /// back-to-back in one session share their address space).
    ///
    /// # Errors
    ///
    /// Fails on OOM or a conflicting existing mapping (other page count or
    /// other flags). Every frame is taken before any DRAM is written, so a
    /// map that runs out of frames leaves no PTE and no frame behind.
    pub fn map(&mut self, va: u64, flags: &[u16]) -> Result<(), ReplayError> {
        if let Some(existing) = self.regions.get(&va) {
            if existing.flags == flags {
                return Ok(());
            }
            return Err(ReplayError::Verify(format!(
                "conflicting mapping at {va:#x}"
            )));
        }
        self.machine
            .advance(costs::MAP_PER_PAGE * flags.len() as u64);
        let n = flags.len();
        let slots: BTreeSet<u64> = (0..n)
            .filter_map(|i| self.iface.table_slot(va + (i * PAGE_SIZE) as u64))
            .filter(|slot| !self.tables.contains_key(slot))
            .collect();
        let mut fresh: Vec<u64> = {
            let mut frames = self.machine.frames().lock();
            if frames.free_count() < n + slots.len() {
                return Err(ReplayError::OutOfMemory);
            }
            std::iter::from_fn(|| frames.alloc())
                .take(n + slots.len())
                .collect()
        };
        self.tables
            .extend(slots.into_iter().zip(fresh[n..].iter().copied()));
        let mut g = self.machine.mem().write_guard();
        let written = fresh
            .iter()
            .try_for_each(|&f| g.fill(f, PAGE_SIZE, 0))
            .and_then(|()| {
                let pas = &fresh[..n];
                self.iface
                    .write_region(&mut g, self.root_pa, &self.tables, va, pas, Some(flags))
            });
        drop(g);
        // Recorded even if a write failed, so `release` still frees them.
        fresh.truncate(n);
        let region = NanoRegion {
            pas: fresh,
            flags: flags.to_vec(),
        };
        self.regions.insert(va, region);
        written.map_err(|_| ReplayError::OutOfMemory)
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
        self.unmap_regions(std::iter::once((&va, &region)), std::iter::empty());
        Ok(())
    }

    /// Clears the PTEs of `regions` under one DRAM guard, frees their
    /// frames and `tables` under one frame-allocator hold, and shoots down
    /// the TLB once: without that, a stale translation could survive into
    /// a mapping that later recycles a VA (or leak writes into whoever now
    /// owns the freed frames).
    fn unmap_regions<'a>(
        &self,
        regions: impl Iterator<Item = (&'a u64, &'a NanoRegion)> + Clone,
        tables: impl Iterator<Item = u64>,
    ) {
        let mut g = self.machine.mem().write_guard();
        for (&va, r) in regions.clone() {
            let _ = self
                .iface
                .write_region(&mut g, self.root_pa, &self.tables, va, &r.pas, None);
        }
        drop(g);
        let mut frames = self.machine.frames().lock();
        for pa in regions
            .flat_map(|(_, r)| r.pas.iter().copied())
            .chain(tables)
        {
            let _ = frames.free(pa);
        }
        drop(frames);
        self.iface.tlb_shootdown(&self.machine);
    }

    /// Rewrites the L1 entries and PTEs of every mapped region from the
    /// driver's bookkeeping under one DRAM guard — the §5.4 recovery step that re-populates page
    /// tables after corruption. Every table it points at already exists,
    /// so it allocates nothing and cannot fail.
    pub fn remap_all(&self) {
        let mut g = self.machine.mem().write_guard();
        for (&va, r) in &self.regions {
            // The driver's frames lie in DRAM, so no write can fail.
            let _ = self.iface.write_region(
                &mut g,
                self.root_pa,
                &self.tables,
                va,
                &r.pas,
                Some(&r.flags),
            );
        }
    }

    /// Walks the GPU-virtual range `[va, va+len)` page by page, handing
    /// `f` each piece as `(pa, offset_into_range, len)`.
    fn walk(
        &self,
        va: u64,
        len: usize,
        mut f: impl FnMut(u64, usize, usize) -> Result<(), ReplayError>,
    ) -> Result<(), ReplayError> {
        let mut done = 0usize;
        while done < len {
            let cur = va + done as u64;
            let unmapped = || ReplayError::Io(format!("va {cur:#x} unmapped"));
            let (base, region) = self
                .regions
                .range(..=cur)
                .next_back()
                .ok_or_else(unmapped)?;
            let off = (cur - base) as usize;
            if off >= region.pas.len() * PAGE_SIZE {
                return Err(unmapped());
            }
            let chunk = (PAGE_SIZE - off % PAGE_SIZE).min(len - done);
            f(
                region.pas[off / PAGE_SIZE] + (off % PAGE_SIZE) as u64,
                done,
                chunk,
            )?;
            done += chunk;
        }
        Ok(())
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
        self.walk(va, data.len(), |pa, at, n| {
            g.write(pa, &data[at..at + n])
                .map_err(|_| ReplayError::OutOfMemory)
        })
    }

    /// Reads `out.len()` bytes from `va` (output extraction, checkpoints).
    /// Lock-amortized like [`NanoDriver::write_va`].
    ///
    /// # Errors
    ///
    /// Fails when the range is unmapped.
    pub fn read_va(&self, va: u64, out: &mut [u8]) -> Result<(), ReplayError> {
        let g = self.machine.mem().read_guard();
        self.walk(va, out.len(), |pa, at, n| {
            g.read(pa, &mut out[at..at + n])
                .map_err(|_| ReplayError::OutOfMemory)
        })
    }

    /// Snapshot of all mapped content (checkpointing), read under one
    /// DRAM guard.
    pub fn snapshot_memory(&self) -> Vec<(u64, Vec<u8>)> {
        let g = self.machine.mem().read_guard();
        self.regions
            .iter()
            .map(|(va, r)| {
                let mut bytes = vec![0u8; r.pas.len() * PAGE_SIZE];
                for (page, &pa) in bytes.chunks_exact_mut(PAGE_SIZE).zip(&r.pas) {
                    let _ = g.read(pa, page);
                }
                (*va, bytes)
            })
            .collect()
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions
            .values()
            .map(|r| (r.pas.len() * PAGE_SIZE) as u64)
            .sum()
    }

    /// Frees everything (Cleanup API).
    pub fn release(self) {
        let root = (0..self.iface.root_pages()).map(|i| self.root_pa + (i * PAGE_SIZE) as u64);
        self.unmap_regions(
            self.regions.iter(),
            self.tables.values().copied().chain(root),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_gpu::sku::{MALI_G71, V3D_RPI4};

    /// The PA the device's own table walker finds for `va` in `nano`'s
    /// page tables.
    fn translate(nano: &NanoDriver, va: u64) -> Option<u64> {
        let mem = nano.machine.mem();
        match nano.iface {
            NanoIface::Mali => gr_gpu::mali::pgtable::translate(
                mem,
                gr_gpu::PteFormat::MaliStandard,
                nano.root_pa,
                va,
            )
            .map(|(pa, _)| pa),
            NanoIface::V3d => {
                gr_gpu::v3d::pgtable::translate(mem, nano.root_pa, va).map(|(pa, _)| pa)
            }
        }
    }

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
        // Dirty the first free frames, which the driver takes first.
        let mem = machine.mem();
        mem.fill(mem.base(), 64 * PAGE_SIZE, 0xEE).unwrap();
        let mut nano = NanoDriver::new(machine.clone(), NanoIface::Mali).unwrap();
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

    /// A map that runs out of frames part-way must hand back every frame
    /// it took (data and page-table) and leave no valid PTE behind.
    #[test]
    fn failed_map_rolls_back_frames_and_ptes() {
        use gr_gpu::sku::V3D_RPI4;
        const VA: u64 = 0x10_0000;
        for sku in [&MALI_G71, &V3D_RPI4] {
            let machine = Machine::with_dram(sku, 2, 4 * 1024 * 1024);
            let iface = NanoIface::for_family(sku.family);
            let before = machine.frames().lock().used();
            let mut nano = NanoDriver::new(machine.clone(), iface).unwrap();
            let (used, pages) = (machine.frames().lock().used(), nano.phys_pages());
            let err = nano.map(VA, &[0xF; 2048]).unwrap_err();
            assert!(
                matches!(err, ReplayError::OutOfMemory),
                "{}: {err}",
                sku.name
            );
            assert_eq!(machine.frames().lock().used(), used, "{}", sku.name);
            assert_eq!(nano.phys_pages(), pages, "{}", sku.name);
            let mapped = match iface {
                NanoIface::Mali => gr_gpu::mali::pgtable::translate(
                    machine.mem(),
                    gr_gpu::PteFormat::MaliStandard,
                    nano.root_pa,
                    VA,
                )
                .is_some(),
                NanoIface::V3d => {
                    gr_gpu::v3d::pgtable::translate(machine.mem(), nano.root_pa, VA).is_some()
                }
            };
            assert!(!mapped, "{}: a PTE survived the rollback", sku.name);
            assert!(nano.write_va(VA, &[1]).is_err());
            nano.map(VA, &[0xF; 16]).unwrap();
            nano.write_va(VA, &[1]).unwrap();
            nano.release();
            assert_eq!(machine.frames().lock().used(), before, "{}", sku.name);
        }
    }

    /// A same-size re-map with other PTE flags is a conflict, not a no-op
    /// that silently keeps the first mapping's flags.
    #[test]
    fn remap_with_other_flags_conflicts() {
        const VA: u64 = 0x10_0000;
        for sku in [&MALI_G71, &V3D_RPI4] {
            let machine = Machine::with_dram(sku, 2, 8 << 20);
            let iface = NanoIface::for_family(sku.family);
            let mut nano = NanoDriver::new(machine, iface).unwrap();
            nano.map(VA, &[0x3, 0x3]).unwrap();
            nano.map(VA, &[0x3, 0x3]).unwrap();
            let err = nano.map(VA, &[0x3, 0x1]).unwrap_err();
            assert!(matches!(err, ReplayError::Verify(_)), "{}: {err}", sku.name);
            nano.release();
        }
    }

    // §5.1 on both SKUs: on dirty DRAM, every page of a fresh mapping
    // (regions at random VAs and sizes, often across a Mali 2-MiB L1
    // boundary) reads zero through the page tables before its first write,
    // also when mapped again over recycled frames. `phys_pages` counts
    // exactly the table frames and region pages, and `unmap` plus
    // `release` hand every frame back.
    proptest::proptest! {
        #[test]
        fn mapped_pages_read_zero_before_first_write(
            regions in proptest::collection::vec((0u64..1024, 1usize..600), 1..4),
        ) {
            for sku in [&MALI_G71, &V3D_RPI4] {
                let machine = Machine::with_dram(sku, 1, 8 << 20);
                let mem = machine.mem();
                mem.fill(mem.base(), mem.size(), 0xEE).unwrap();
                let iface = NanoIface::for_family(sku.family);
                let used0 = machine.frames().lock().used();
                let mut nano = NanoDriver::new(machine.clone(), iface).unwrap();
                let mut slots = BTreeSet::new();
                let vas: Vec<(u64, usize)> = regions
                    .iter()
                    .enumerate()
                    .map(|(k, &(off, pages))| (((k as u64 + 2) << 23) + off * PAGE_SIZE as u64, pages))
                    .collect();
                for round in 0..2 {
                    let mut live = 0;
                    for &(va, pages) in &vas {
                        nano.map(va, &vec![0x3; pages]).unwrap();
                        live += pages;
                        for i in 0..pages {
                            let page_va = va + (i * PAGE_SIZE) as u64;
                            let pa = translate(&nano, page_va).expect("mapped page translates");
                            let page = mem.read_vec(pa, PAGE_SIZE).unwrap();
                            assert!(page == [0u8; PAGE_SIZE], "{}: {page_va:#x} not zero", sku.name);
                            slots.extend(iface.table_slot(page_va));
                        }
                        nano.write_va(va, &vec![0xAB; pages * PAGE_SIZE]).unwrap();
                        let phys = (iface.root_pages() + slots.len() + live) as u64;
                        assert_eq!(nano.phys_pages(), phys, "{} round {round}", sku.name);
                        assert_eq!(machine.frames().lock().used() - used0, phys as usize);
                    }
                    if round == 0 {
                        for &(va, _) in &vas {
                            nano.unmap(va).unwrap();
                        }
                        let tables = iface.root_pages() + slots.len();
                        assert_eq!(machine.frames().lock().used() - used0, tables);
                    }
                }
                nano.release();
                assert_eq!(machine.frames().lock().used(), used0, "{}", sku.name);
            }
        }
    }

    /// §5.4 recovery re-populates corrupted tables from bookkeeping alone:
    /// after a corrupted PTE (both SKUs) and a cleared L1 entry (Mali),
    /// `remap_all` restores every translation without taking a frame.
    #[test]
    fn remap_all_restores_translations_without_allocating() {
        use gr_gpu::mali::regs;
        // Eight pages straddling a Mali 2-MiB L1 boundary.
        const VA: u64 = 0x20_0000 - 4 * PAGE_SIZE as u64;
        for sku in [&MALI_G71, &V3D_RPI4] {
            let machine = Machine::with_dram(sku, 2, 8 << 20);
            let iface = NanoIface::for_family(sku.family);
            let mut nano = NanoDriver::new(machine.clone(), iface).unwrap();
            nano.map(VA, &[0x3; 8]).unwrap();
            nano.set_pgtable_base();
            if iface == NanoIface::Mali {
                machine.gpu_write32(regs::AS0_COMMAND, regs::AS_CMD_UPDATE);
            }
            let pages: Vec<u64> = (0..8).map(|i| VA + (i * PAGE_SIZE) as u64).collect();
            let before: Vec<Option<u64>> = pages.iter().map(|&va| translate(&nano, va)).collect();
            assert!(before.iter().all(Option::is_some), "{}", sku.name);
            machine.inject_fault(gr_gpu::FaultKind::CorruptPte { va: pages[1] });
            assert_eq!(translate(&nano, pages[1]), None, "{}", sku.name);
            if let Some(slot) = iface.table_slot(pages[7]) {
                machine.mem().write_u64(nano.root_pa + slot * 8, 0).unwrap();
                assert_eq!(translate(&nano, pages[7]), None);
            }
            let (used, phys) = (machine.frames().lock().used(), nano.phys_pages());
            nano.remap_all();
            assert_eq!(machine.frames().lock().used(), used, "{}", sku.name);
            assert_eq!(nano.phys_pages(), phys, "{}", sku.name);
            let after: Vec<Option<u64>> = pages.iter().map(|&va| translate(&nano, va)).collect();
            assert_eq!(after, before, "{}", sku.name);
            nano.release();
        }
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
