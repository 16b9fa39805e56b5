//! GPU virtual-address-space bookkeeping shared by both drivers.
//!
//! The driver owns the authoritative map of VA regions → physical frames +
//! permissions; the recorder snapshots it at dump points and CPU-side
//! accesses (the runtime's "mmap'd GPU memory") resolve through it.

use std::collections::BTreeMap;

use gr_soc::{SharedMem, PAGE_SIZE};

use crate::driver::{DriverError, RegionKind};

/// One mapped region.
#[derive(Debug, Clone)]
pub struct Region {
    /// First VA.
    pub va: u64,
    /// Length in pages.
    pub pages: usize,
    /// Allocation kind.
    pub kind: RegionKind,
    /// Backing frames, one per page.
    pub pas: Vec<u64>,
    /// Low PTE bits per page (family encoding), kept for snapshots.
    pub pte_flags: Vec<u16>,
}

impl Region {
    /// Region byte length.
    pub fn len_bytes(&self) -> usize {
        self.pages * PAGE_SIZE
    }

    /// `true` when `[va, va+len)` lies inside the region.
    pub fn contains(&self, va: u64, len: usize) -> bool {
        va >= self.va && va + len as u64 <= self.va + self.len_bytes() as u64
    }
}

/// GPU VA space with a region table: bump-allocated, with a free-list
/// recycler that **splits** oversized holes on reuse and **coalesces**
/// adjacent holes on free (general recycling — no exact-size-match
/// restriction). Recycling is only sound because both drivers issue the
/// architectural TLB shootdown on unmap — a stale cached translation for
/// a recycled VA would otherwise read or write freed physical frames.
#[derive(Debug)]
pub struct VaSpace {
    next_va: u64,
    limit: u64,
    regions: BTreeMap<u64, Region>,
    peak_pages: u64,
    mapped_pages: u64,
    /// Freed holes, keyed by base VA → page count. Kept coalesced:
    /// no two entries are adjacent. First-fit (lowest VA) reuse keeps
    /// allocation deterministic.
    free: BTreeMap<u64, usize>,
}

impl VaSpace {
    /// Creates a VA space spanning `[base, limit)`.
    pub fn new(base: u64, limit: u64) -> Self {
        VaSpace {
            next_va: base,
            limit,
            regions: BTreeMap::new(),
            peak_pages: 0,
            mapped_pages: 0,
            free: BTreeMap::new(),
        }
    }

    /// Reserves `pages` of VA (no mapping yet), returning the base VA.
    /// Freed holes are recycled first-fit before the bump pointer grows;
    /// an oversized hole is split, its tail staying on the free list.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::OutOfMemory`] when VA space is exhausted.
    pub fn reserve(&mut self, pages: usize) -> Result<u64, DriverError> {
        if let Some((&va, &hole)) = self.free.iter().find(|&(_, &p)| p >= pages) {
            self.free.remove(&va);
            if hole > pages {
                // Split: hand out the low part, keep the tail free.
                self.free
                    .insert(va + (pages * PAGE_SIZE) as u64, hole - pages);
            }
            return Ok(va);
        }
        let bytes = (pages * PAGE_SIZE) as u64;
        if self.next_va + bytes > self.limit {
            return Err(DriverError::OutOfMemory);
        }
        let va = self.next_va;
        self.next_va += bytes;
        Ok(va)
    }

    /// Returns `(va, pages)` to the free list, merging with the holes
    /// immediately below and above so fragmentation heals on free.
    fn release_range(&mut self, va: u64, pages: usize) {
        let mut start = va;
        let mut count = pages;
        if let Some((&prev_va, &prev_pages)) = self.free.range(..va).next_back() {
            if prev_va + (prev_pages * PAGE_SIZE) as u64 == va {
                self.free.remove(&prev_va);
                start = prev_va;
                count += prev_pages;
            }
        }
        let end = va + (pages * PAGE_SIZE) as u64;
        if let Some(&next_pages) = self.free.get(&end) {
            self.free.remove(&end);
            count += next_pages;
        }
        self.free.insert(start, count);
    }

    /// Records a region as mapped.
    pub fn insert(&mut self, region: Region) {
        self.mapped_pages += region.pages as u64;
        self.peak_pages = self.peak_pages.max(self.mapped_pages);
        self.regions.insert(region.va, region);
    }

    /// Removes a region, returning it for unmapping/freeing.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::BadAddress`] when `va` is not a region base.
    pub fn remove(&mut self, va: u64) -> Result<Region, DriverError> {
        let r = self
            .regions
            .remove(&va)
            .ok_or(DriverError::BadAddress(va))?;
        self.mapped_pages -= r.pages as u64;
        self.release_range(va, r.pages);
        Ok(r)
    }

    /// The region whose range contains `va`, if any.
    pub fn find(&self, va: u64) -> Option<&Region> {
        self.regions
            .range(..=va)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(va, 1))
    }

    /// Iterates over all regions in VA order.
    pub fn iter(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// Currently mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// High-water mark of mapped pages.
    pub fn peak_pages(&self) -> u64 {
        self.peak_pages
    }

    /// CPU-side write into a mapped region (the runtime's mmap view).
    /// Holds the DRAM lock once across the whole tensor transfer.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::BadAddress`] when the range is unmapped.
    pub fn cpu_write(&self, mem: &SharedMem, va: u64, data: &[u8]) -> Result<(), DriverError> {
        let mut g = mem.write_guard();
        self.cpu_access(va, data.len(), |pa, off, chunk| {
            g.write(pa, &data[off..off + chunk])
                .map_err(|_| DriverError::BadAddress(va))
        })
    }

    /// CPU-side read from a mapped region. Lock-amortized like
    /// [`VaSpace::cpu_write`].
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::BadAddress`] when the range is unmapped.
    pub fn cpu_read(&self, mem: &SharedMem, va: u64, out: &mut [u8]) -> Result<(), DriverError> {
        let len = out.len();
        let g = mem.read_guard();
        self.cpu_access(va, len, |pa, off, chunk| {
            g.read(pa, &mut out[off..off + chunk])
                .map_err(|_| DriverError::BadAddress(va))
        })
    }

    fn cpu_access(
        &self,
        va: u64,
        len: usize,
        mut f: impl FnMut(u64, usize, usize) -> Result<(), DriverError>,
    ) -> Result<(), DriverError> {
        let mut done = 0usize;
        while done < len {
            let cur = va + done as u64;
            let region = self.find(cur).ok_or(DriverError::BadAddress(cur))?;
            let off = (cur - region.va) as usize;
            let page = off / PAGE_SIZE;
            let chunk = (PAGE_SIZE - off % PAGE_SIZE).min(len - done);
            let pa = region.pas[page] + (off % PAGE_SIZE) as u64;
            f(pa, done, chunk)?;
            done += chunk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_soc::PhysMem;

    fn region(va: u64, pages: usize, first_pa: u64) -> Region {
        Region {
            va,
            pages,
            kind: RegionKind::Data,
            pas: (0..pages)
                .map(|i| first_pa + (i * PAGE_SIZE) as u64)
                .collect(),
            pte_flags: vec![0xB; pages],
        }
    }

    #[test]
    fn reserve_bumps_and_limits() {
        let mut vs = VaSpace::new(0x10_0000, 0x10_0000 + 3 * PAGE_SIZE as u64);
        assert_eq!(vs.reserve(1).unwrap(), 0x10_0000);
        assert_eq!(vs.reserve(2).unwrap(), 0x10_0000 + PAGE_SIZE as u64);
        assert_eq!(vs.reserve(1), Err(DriverError::OutOfMemory));
    }

    #[test]
    fn find_resolves_interior_addresses() {
        let mut vs = VaSpace::new(0, 1 << 30);
        vs.insert(region(0x4000, 2, 0x10_0000));
        vs.insert(region(0xA000, 1, 0x20_0000));
        assert_eq!(vs.find(0x4000).unwrap().va, 0x4000);
        assert_eq!(vs.find(0x5FFF).unwrap().va, 0x4000);
        assert!(vs.find(0x6000).is_none());
        assert_eq!(vs.find(0xA123).unwrap().va, 0xA000);
        assert_eq!(vs.iter().count(), 2);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut vs = VaSpace::new(0, 1 << 30);
        vs.insert(region(0x1000, 3, 0x10_0000));
        vs.insert(region(0x8000, 2, 0x20_0000));
        assert_eq!(vs.peak_pages(), 5);
        vs.remove(0x1000).unwrap();
        assert_eq!(vs.mapped_pages(), 2);
        assert_eq!(vs.peak_pages(), 5);
        assert!(matches!(
            vs.remove(0x1000),
            Err(DriverError::BadAddress(0x1000))
        ));
    }

    #[test]
    fn freed_ranges_recycle_on_exact_size_match() {
        let mut vs = VaSpace::new(0x10_0000, 1 << 30);
        let a = vs.reserve(2).unwrap();
        vs.insert(region(a, 2, 0x100_0000));
        let b = vs.reserve(1).unwrap();
        vs.insert(region(b, 1, 0x200_0000));
        vs.remove(a).unwrap();
        // The 2-page hole cannot satisfy 3 pages: bump allocation continues.
        assert_eq!(vs.reserve(3).unwrap(), b + PAGE_SIZE as u64);
        // Exact fit: the freed 2-page range comes back.
        assert_eq!(vs.reserve(2).unwrap(), a);
        // And is gone from the free list afterwards.
        assert_ne!(vs.reserve(2).unwrap(), a);
    }

    #[test]
    fn oversized_hole_splits_on_reuse_and_recoalesces_on_free() {
        let mut vs = VaSpace::new(0x10_0000, 1 << 30);
        let a = vs.reserve(2).unwrap();
        vs.insert(region(a, 2, 0x100_0000));
        let guard = vs.reserve(1).unwrap(); // pins the bump pointer past `a`
        vs.insert(region(guard, 1, 0x200_0000));
        vs.remove(a).unwrap();

        // A 2-page hole satisfies a 1-page allocation: the low half is
        // handed out, the high half stays free.
        let low = vs.reserve(1).unwrap();
        assert_eq!(low, a, "split must reuse the hole's low half");
        vs.insert(region(low, 1, 0x300_0000));
        let high = vs.reserve(1).unwrap();
        assert_eq!(
            high,
            a + PAGE_SIZE as u64,
            "the split tail must be reused before the bump pointer grows"
        );
        vs.insert(region(high, 1, 0x400_0000));

        // Freeing both halves re-coalesces the original 2-page hole...
        vs.remove(low).unwrap();
        vs.remove(high).unwrap();
        assert_eq!(vs.reserve(2).unwrap(), a, "halves must merge back");

        // ...and coalescing joins across a middle hole freed last.
        let c = vs.reserve(3).unwrap();
        vs.insert(region(c, 3, 0x500_0000));
        vs.remove(c).unwrap();
        let p0 = vs.reserve(1).unwrap();
        let p1 = vs.reserve(1).unwrap();
        let p2 = vs.reserve(1).unwrap();
        assert_eq!((p0, p1, p2), (c, c + 0x1000, c + 0x2000));
        vs.insert(region(p0, 1, 0x600_0000));
        vs.insert(region(p1, 1, 0x700_0000));
        vs.insert(region(p2, 1, 0x800_0000));
        vs.remove(p0).unwrap();
        vs.remove(p2).unwrap();
        vs.remove(p1).unwrap(); // bridges the two holes
        assert_eq!(vs.reserve(3).unwrap(), c, "three frees must merge");
    }

    #[test]
    fn cpu_rw_through_discontiguous_frames() {
        let mem = SharedMem::new(PhysMem::new(0, 16 * PAGE_SIZE));
        let mut vs = VaSpace::new(0, 1 << 30);
        let mut r = region(0x4000, 2, 0);
        r.pas = vec![2 * PAGE_SIZE as u64, 7 * PAGE_SIZE as u64];
        vs.insert(r);
        let data: Vec<u8> = (0..200).collect();
        let va = 0x4000 + PAGE_SIZE as u64 - 100;
        vs.cpu_write(&mem, va, &data).unwrap();
        let mut back = vec![0u8; 200];
        vs.cpu_read(&mem, va, &mut back).unwrap();
        assert_eq!(back, data);
        // The second half physically landed in frame 7.
        let mut direct = vec![0u8; 100];
        mem.read(7 * PAGE_SIZE as u64, &mut direct).unwrap();
        assert_eq!(direct, data[100..]);
        assert!(vs.cpu_write(&mem, 0x9000, &[1]).is_err());
    }
}
