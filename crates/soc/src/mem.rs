//! Simulated shared DRAM.
//!
//! Integrated GPUs share DRAM with the CPU (paper §2.1, footnote 2: "GPU
//! memory" is part of shared DRAM). [`PhysMem`] is that DRAM: a flat,
//! byte-addressable region at a fixed physical base. Both the CPU-side
//! stack and the GPU device model operate on the same [`SharedMem`] handle;
//! GPU page tables, job binaries, and tensors all live here.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::dirty::DirtyLines;

/// Page/frame size used throughout the machine (both GPU MMU formats map
/// 4 KiB pages, like Mali's and v3d's smallest granule).
pub const PAGE_SIZE: usize = 4096;

/// Error raised by out-of-range physical accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// Faulting physical address.
    pub pa: u64,
    /// Access length in bytes.
    pub len: usize,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical access out of range: pa={:#x} len={}",
            self.pa, self.len
        )
    }
}

impl std::error::Error for MemError {}

/// Flat simulated DRAM starting at a fixed physical base address.
///
/// # Example
///
/// ```
/// use gr_soc::{PhysMem, PAGE_SIZE};
///
/// let mut mem = PhysMem::new(0x1000, 2 * PAGE_SIZE);
/// mem.write(0x1004, &[1, 2, 3])?;
/// let mut buf = [0u8; 3];
/// mem.read(0x1004, &mut buf)?;
/// assert_eq!(buf, [1, 2, 3]);
/// # Ok::<(), gr_soc::MemError>(())
/// ```
pub struct PhysMem {
    base: u64,
    bytes: Vec<u8>,
    /// Dirty-line map: every mutation path records here, so the warm-
    /// residency consumer can prove ranges unchanged between replays.
    dirty: DirtyLines,
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("base", &format_args!("{:#x}", self.base))
            .field("size", &self.bytes.len())
            .finish()
    }
}

impl PhysMem {
    /// Creates `size` bytes of zeroed DRAM at physical address `base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page-aligned or `base + size` overflows.
    pub fn new(base: u64, size: usize) -> Self {
        assert!(size % PAGE_SIZE == 0, "DRAM size must be page aligned");
        assert!(base.checked_add(size as u64).is_some(), "address overflow");
        let mut bytes = vec![0; size];
        advise_huge_pages(&mut bytes);
        PhysMem {
            base,
            bytes,
            dirty: DirtyLines::new(base, size),
        }
    }

    /// The DRAM's dirty-line map (read-only view).
    fn dirty(&self) -> &DirtyLines {
        &self.dirty
    }

    /// Mutable access to the dirty-line map (clearing, epoch bumps).
    fn dirty_mut(&mut self) -> &mut DirtyLines {
        &mut self.dirty
    }

    /// First valid physical address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// One past the last valid physical address.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// `true` when `[pa, pa+len)` lies inside DRAM.
    pub fn contains(&self, pa: u64, len: usize) -> bool {
        pa >= self.base && pa.saturating_add(len as u64) <= self.end()
    }

    fn offset(&self, pa: u64, len: usize) -> Result<usize, MemError> {
        if self.contains(pa, len) {
            Ok((pa - self.base) as usize)
        } else {
            Err(MemError { pa, len })
        }
    }

    /// Copies DRAM content at `pa` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when the range is out of bounds.
    pub fn read(&self, pa: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let off = self.offset(pa, buf.len())?;
        buf.copy_from_slice(&self.bytes[off..off + buf.len()]);
        Ok(())
    }

    /// Copies `data` into DRAM at `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when the range is out of bounds.
    pub fn write(&mut self, pa: u64, data: &[u8]) -> Result<(), MemError> {
        let off = self.offset(pa, data.len())?;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        self.dirty.record(pa, data.len());
        Ok(())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_u32(&self, pa: u64) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(pa, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write_u32(&mut self, pa: u64, val: u32) -> Result<(), MemError> {
        self.write(pa, &val.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_u64(&self, pa: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(pa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write_u64(&mut self, pa: u64, val: u64) -> Result<(), MemError> {
        self.write(pa, &val.to_le_bytes())
    }

    /// Fills `[pa, pa+len)` with `byte`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn fill(&mut self, pa: u64, len: usize, byte: u8) -> Result<(), MemError> {
        let off = self.offset(pa, len)?;
        self.bytes[off..off + len].fill(byte);
        self.dirty.record(pa, len);
        Ok(())
    }

    /// Borrow of the raw range (used by hashing/dump code on hot paths).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn slice(&self, pa: u64, len: usize) -> Result<&[u8], MemError> {
        let off = self.offset(pa, len)?;
        Ok(&self.bytes[off..off + len])
    }

    /// Mutable borrow of the raw range (zero-copy writers; pair with
    /// [`SharedMem::write_guard`]).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn slice_mut(&mut self, pa: u64, len: usize) -> Result<&mut [u8], MemError> {
        let off = self.offset(pa, len)?;
        // Conservative: the whole borrowed range counts as written.
        self.dirty.record(pa, len);
        Ok(&mut self.bytes[off..off + len])
    }
}

/// Asks the host kernel to back the 2 MiB-aligned interior of `buf` with
/// transparent huge pages, so a replay that touches DRAM for the first
/// time takes one host page fault per 2 MiB instead of one per 4 KiB.
/// Purely advisory: contents, bounds and zeroing are unchanged, and the
/// call's result is ignored because a host without huge pages simply
/// keeps 4 KiB pages.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn advise_huge_pages(buf: &mut [u8]) {
    const HUGE_PAGE: usize = 2 << 20;
    const MADV_HUGEPAGE: std::ffi::c_int = 14;
    extern "C" {
        fn madvise(
            addr: *mut std::ffi::c_void,
            len: usize,
            advice: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
    let start = buf.as_mut_ptr() as usize;
    let lo = start.next_multiple_of(HUGE_PAGE);
    let hi = (start + buf.len()) & !(HUGE_PAGE - 1);
    if lo < hi {
        // SAFETY: `[lo, hi)` lies inside `buf`, which is mapped and
        // exclusively borrowed. `MADV_HUGEPAGE` only changes how the kernel
        // backs those pages: it never changes their contents or makes them
        // inaccessible, so no Rust-visible state changes.
        unsafe {
            madvise(lo as *mut std::ffi::c_void, hi - lo, MADV_HUGEPAGE);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_buf: &mut [u8]) {}

/// Cheap-to-clone shared handle to the machine's DRAM.
///
/// Uses a read/write lock: the GPU device model, drivers, recorder, and
/// replayer all hold clones.
#[derive(Debug, Clone)]
pub struct SharedMem {
    inner: Arc<RwLock<PhysMem>>,
}

impl SharedMem {
    /// Wraps `mem` for sharing.
    pub fn new(mem: PhysMem) -> Self {
        SharedMem {
            inner: Arc::new(RwLock::new(mem)),
        }
    }

    /// DRAM base address.
    pub fn base(&self) -> u64 {
        self.inner.read().base()
    }

    /// DRAM size in bytes.
    pub fn size(&self) -> usize {
        self.inner.read().size()
    }

    /// One past the last valid physical address.
    pub fn end(&self) -> u64 {
        self.inner.read().end()
    }

    /// `true` when `[pa, pa+len)` lies inside DRAM.
    pub fn contains(&self, pa: u64, len: usize) -> bool {
        self.inner.read().contains(pa, len)
    }

    /// See [`PhysMem::read`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read(&self, pa: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.inner.read().read(pa, buf)
    }

    /// See [`PhysMem::write`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write(&self, pa: u64, data: &[u8]) -> Result<(), MemError> {
        self.inner.write().write(pa, data)
    }

    /// See [`PhysMem::read_u32`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_u32(&self, pa: u64) -> Result<u32, MemError> {
        self.inner.read().read_u32(pa)
    }

    /// See [`PhysMem::write_u32`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write_u32(&self, pa: u64, val: u32) -> Result<(), MemError> {
        self.inner.write().write_u32(pa, val)
    }

    /// See [`PhysMem::read_u64`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_u64(&self, pa: u64) -> Result<u64, MemError> {
        self.inner.read().read_u64(pa)
    }

    /// See [`PhysMem::write_u64`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn write_u64(&self, pa: u64, val: u64) -> Result<(), MemError> {
        self.inner.write().write_u64(pa, val)
    }

    /// See [`PhysMem::fill`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn fill(&self, pa: u64, len: usize, byte: u8) -> Result<(), MemError> {
        self.inner.write().fill(pa, len, byte)
    }

    /// Copies out `[pa, pa+len)` as a fresh vector (dump capture).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn read_vec(&self, pa: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let g = self.inner.read();
        Ok(g.slice(pa, len)?.to_vec())
    }

    /// Runs `f` over the raw bytes of `[pa, pa+len)` without copying.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn with_slice<R>(
        &self,
        pa: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MemError> {
        let g = self.inner.read();
        Ok(f(g.slice(pa, len)?))
    }

    /// `true` when both handles refer to the same DRAM.
    pub fn same_memory(&self, other: &SharedMem) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Acquires shared read access held across a whole multi-chunk
    /// transfer, instead of re-taking the lock per chunk.
    ///
    /// Lock-amortization contract: callers must finish all address
    /// translation *before* taking a guard and must not call any other
    /// `SharedMem` method while holding one (the underlying lock is not
    /// reentrant).
    pub fn read_guard(&self) -> MemReadGuard<'_> {
        MemReadGuard {
            guard: self.inner.read(),
        }
    }

    /// Acquires exclusive write access held across a whole multi-chunk
    /// transfer. Same contract as [`SharedMem::read_guard`].
    pub fn write_guard(&self) -> MemWriteGuard<'_> {
        MemWriteGuard {
            guard: self.inner.write(),
        }
    }

    /// Marks all of DRAM clean (see [`DirtyLines`]). The epoch is left
    /// alone.
    pub fn clear_dirty(&self) {
        self.inner.write().dirty_mut().clear();
    }

    /// The lines of physical `[pa, pa+len)` written since the last
    /// [`SharedMem::clear_dirty`], as sorted, merged, line-aligned
    /// `(start, end)` ranges (see [`DirtyLines::runs`]).
    pub fn dirty_lines(&self, pa: u64, len: usize) -> Vec<(u64, u64)> {
        self.inner.read().dirty().runs(pa, len)
    }

    /// Current dirty-map epoch (bumped on GPU reset / AS switch).
    pub fn dirty_epoch(&self) -> u64 {
        self.inner.read().dirty().epoch()
    }

    /// Bumps the dirty-map epoch, telling whoever cleared the map that its
    /// window no longer holds. The GPU device models call this on soft
    /// reset and address-space switches, alongside their `SoftTlb`
    /// flushes.
    pub fn bump_dirty_epoch(&self) {
        self.inner.write().dirty_mut().bump_epoch();
    }
}

/// Shared access to the DRAM behind a [`SharedMem`], for bulk transfers
/// that would otherwise pay one lock acquisition per 4-KiB chunk.
///
/// Dereferences to [`PhysMem`], so all read accessors are available.
pub struct MemReadGuard<'a> {
    guard: RwLockReadGuard<'a, PhysMem>,
}

impl Deref for MemReadGuard<'_> {
    type Target = PhysMem;

    fn deref(&self) -> &PhysMem {
        &self.guard
    }
}

/// Exclusive access to the DRAM behind a [`SharedMem`], for bulk
/// transfers. Dereferences (mutably) to [`PhysMem`].
pub struct MemWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, PhysMem>,
}

impl Deref for MemWriteGuard<'_> {
    type Target = PhysMem;

    fn deref(&self) -> &PhysMem {
        &self.guard
    }
}

impl DerefMut for MemWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut PhysMem {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn rw_roundtrip() {
        let mut m = PhysMem::new(0x8000_0000, 4 * PAGE_SIZE);
        m.write(0x8000_0010, b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read(0x8000_0010, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn scalar_accessors_are_little_endian() {
        let mut m = PhysMem::new(0, PAGE_SIZE);
        m.write_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.slice(0, 4).unwrap(), &[4, 3, 2, 1]);
        m.write_u64(8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(8).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let mut m = PhysMem::new(0x1000, PAGE_SIZE);
        assert_eq!(m.read_u32(0xfff), Err(MemError { pa: 0xfff, len: 4 }));
        assert!(m.write(0x1000 + PAGE_SIZE as u64 - 2, &[0; 4]).is_err());
        // Address arithmetic near u64::MAX must not overflow.
        assert!(m.read_u32(u64::MAX - 1).is_err());
    }

    #[test]
    fn fill_and_slice() {
        let mut m = PhysMem::new(0, PAGE_SIZE);
        m.fill(16, 8, 0xAB).unwrap();
        assert_eq!(m.slice(16, 8).unwrap(), &[0xAB; 8]);
        assert_eq!(m.slice(15, 1).unwrap(), &[0]);
    }

    #[test]
    fn shared_handles_alias() {
        let shared = SharedMem::new(PhysMem::new(0x4000, 2 * PAGE_SIZE));
        let clone = shared.clone();
        shared.write_u32(0x4000, 7).unwrap();
        assert_eq!(clone.read_u32(0x4000).unwrap(), 7);
        assert!(shared.same_memory(&clone));
        assert_eq!(shared.read_vec(0x4000, 4).unwrap(), vec![7, 0, 0, 0]);
        let sum = shared
            .with_slice(0x4000, 4, |s| s.iter().map(|&b| u32::from(b)).sum::<u32>())
            .unwrap();
        assert_eq!(sum, 7);
        assert!(shared.contains(0x4000, PAGE_SIZE));
        assert_eq!(shared.end(), 0x4000 + 2 * PAGE_SIZE as u64);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_size_panics() {
        let _ = PhysMem::new(0, 100);
    }

    #[test]
    fn guards_amortize_locking_across_chunks() {
        let shared = SharedMem::new(PhysMem::new(0, 4 * PAGE_SIZE));
        {
            let mut g = shared.write_guard();
            g.write(0, b"abc").unwrap();
            g.write(PAGE_SIZE as u64, b"def").unwrap();
        }
        let g = shared.read_guard();
        let mut buf = [0u8; 3];
        g.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        g.read(PAGE_SIZE as u64, &mut buf).unwrap();
        assert_eq!(&buf, b"def");
        assert!(g.read(4 * PAGE_SIZE as u64, &mut buf).is_err());
    }

    fn all_dirty(m: &SharedMem) -> Vec<(u64, u64)> {
        m.dirty_lines(m.base(), m.size())
    }

    #[test]
    fn each_mutation_path_marks_exactly_its_lines() {
        let m = SharedMem::new(PhysMem::new(0x8000, 4 * PAGE_SIZE));
        assert!(all_dirty(&m).is_empty());
        m.write(0x8048, b"abc").unwrap();
        assert_eq!(all_dirty(&m), vec![(0x8040, 0x8080)]);
        m.clear_dirty();
        m.write_u32(0x8100, 1).unwrap();
        assert_eq!(all_dirty(&m), vec![(0x8100, 0x8140)]);
        m.clear_dirty();
        m.write_u64(0x81f8, 1).unwrap();
        assert_eq!(all_dirty(&m), vec![(0x81c0, 0x8200)]);
        m.clear_dirty();
        m.fill(0x8400, 0x100, 0xAB).unwrap();
        assert_eq!(all_dirty(&m), vec![(0x8400, 0x8500)]);
        m.clear_dirty();
        m.write_guard().slice_mut(0x8880, 0x41).unwrap()[0] = 1;
        assert_eq!(all_dirty(&m), vec![(0x8880, 0x8900)]);
    }

    #[test]
    fn straddling_writes_mark_every_line_they_touch() {
        let m = SharedMem::new(PhysMem::new(0x8000, 4 * PAGE_SIZE));
        m.write(0x803f, &[1, 2]).unwrap();
        assert_eq!(all_dirty(&m), vec![(0x8000, 0x8080)]);
        m.clear_dirty();
        m.write_u64(0x8ffc, u64::MAX).unwrap();
        assert_eq!(all_dirty(&m), vec![(0x8fc0, 0x9040)]);
        // Queries see only the lines their own range touches.
        assert_eq!(m.dirty_lines(0x9000, 1), vec![(0x9000, 0x9040)]);
        assert!(m.dirty_lines(0x9040, PAGE_SIZE).is_empty());
    }

    #[test]
    fn empty_and_out_of_range_writes_mark_nothing() {
        let m = SharedMem::new(PhysMem::new(0x8000, 2 * PAGE_SIZE));
        m.write(0x8040, &[]).unwrap();
        m.fill(0x8080, 0, 0xFF).unwrap();
        m.write_guard().slice_mut(0x80c0, 0).unwrap();
        assert!(m.write(0x9ffe, &[0; 4]).is_err());
        assert!(m.write(0x7ffe, &[0; 4]).is_err());
        assert!(m.fill(0x9000, PAGE_SIZE + 1, 1).is_err());
        assert!(m.write_guard().slice_mut(0x7fc0, 0x80).is_err());
        assert!(m.write_u64(u64::MAX - 3, 0).is_err());
        assert!(all_dirty(&m).is_empty());
    }

    #[test]
    fn clearing_leaves_the_epoch_and_bumping_leaves_the_lines() {
        let m = SharedMem::new(PhysMem::new(0, PAGE_SIZE));
        m.bump_dirty_epoch();
        m.write(0x10, &[1]).unwrap();
        m.bump_dirty_epoch();
        assert_eq!(all_dirty(&m), vec![(0, 0x40)]);
        m.clear_dirty();
        assert_eq!(m.dirty_epoch(), 2);
        assert!(all_dirty(&m).is_empty());
    }

    /// Naive model of a query: the written lines (indices from `base`)
    /// overlapping `[pa, pa + len)`, merged where adjacent.
    fn model_lines(written: &BTreeSet<u64>, base: u64, pa: u64, len: usize) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &line in written {
            let (s, e) = (base + line * 64, base + (line + 1) * 64);
            if s >= pa.saturating_add(len as u64) || e <= pa {
                continue;
            }
            match out.last_mut() {
                Some((_, last)) if *last == s => *last = e,
                _ => out.push((s, e)),
            }
        }
        out
    }

    proptest! {
        #[test]
        fn dirty_lines_match_a_line_set_model(
            ops in proptest::collection::vec(((0u8..8, 0u64..33_280), 0usize..12_000), 1..48),
        ) {
            const BASE: u64 = 0x4000;
            const SIZE: usize = 8 * PAGE_SIZE;
            let m = SharedMem::new(PhysMem::new(BASE, SIZE));
            let mut written = BTreeSet::new();
            for ((kind, off), len) in ops {
                // From 256 bytes below DRAM to 256 bytes past its end.
                let pa = BASE - 256 + off;
                let ok = match kind {
                    0 => {
                        m.clear_dirty();
                        written.clear();
                        continue;
                    }
                    1 | 2 => m.write(pa, &vec![kind; len]).is_ok(),
                    3 => m.fill(pa, len, 0x5A).is_ok(),
                    4 => m.write_guard().slice_mut(pa, len).is_ok(),
                    _ => {
                        assert_eq!(m.dirty_lines(pa, len), model_lines(&written, BASE, pa, len));
                        continue;
                    }
                };
                if ok {
                    written.extend((0..len as u64).map(|b| (pa - BASE + b) / 64));
                }
            }
            assert_eq!(all_dirty(&m), model_lines(&written, BASE, BASE, SIZE));
        }
    }
}
