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
    /// One bit per page, set by every method that can change the page.
    /// A page whose bit is clear still holds its power-on zeroes, so
    /// zero-filling it is skipped (see [`PhysMem::fill`]).
    dirty: Vec<u64>,
    /// GPU epoch: bumped on every GPU reset and address-space switch (see
    /// [`SharedMem::gpu_epoch`]). Kept under the DRAM lock so one handle
    /// carries it to every device model and replayer on the machine.
    gpu_epoch: u64,
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
            dirty: vec![0; (size / PAGE_SIZE).div_ceil(64)],
            gpu_epoch: 0,
        }
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

    /// [`PhysMem::offset`] of a range about to be changed: marks every
    /// page it touches dirty.
    fn offset_mut(&mut self, pa: u64, len: usize) -> Result<usize, MemError> {
        let off = self.offset(pa, len)?;
        if len > 0 {
            for page in off / PAGE_SIZE..=(off + len - 1) / PAGE_SIZE {
                self.dirty[page / 64] |= 1 << (page % 64);
            }
        }
        Ok(off)
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
        let off = self.offset_mut(pa, data.len())?;
        self.bytes[off..off + data.len()].copy_from_slice(data);
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
    /// Zero-filling skips pages that were never changed: they still hold
    /// the zeroes [`PhysMem::new`] started with, and writing zeroes there
    /// would only make the host back them with memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn fill(&mut self, pa: u64, len: usize, byte: u8) -> Result<(), MemError> {
        if byte != 0 {
            let off = self.offset_mut(pa, len)?;
            self.bytes[off..off + len].fill(byte);
            return Ok(());
        }
        let off = self.offset(pa, len)?;
        let end = off + len;
        let mut at = off;
        while at < end {
            let page = at / PAGE_SIZE;
            let next = ((page + 1) * PAGE_SIZE).min(end);
            if self.dirty[page / 64] & (1 << (page % 64)) != 0 {
                self.bytes[at..next].fill(0);
            }
            at = next;
        }
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
    /// [`SharedMem::write_guard`]). Marks the range's pages changed
    /// whether or not the caller writes them.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when out of bounds.
    pub fn slice_mut(&mut self, pa: u64, len: usize) -> Result<&mut [u8], MemError> {
        let off = self.offset_mut(pa, len)?;
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

    /// Current GPU epoch. A consumer that caches facts about GPU state
    /// across calls (the replayer's residency anchor) records it and
    /// drops those facts when it changed.
    pub fn gpu_epoch(&self) -> u64 {
        self.inner.read().gpu_epoch
    }

    /// Bumps the GPU epoch. The GPU device models call this on soft reset
    /// and address-space switches, alongside their `SoftTlb` flushes.
    pub fn bump_gpu_epoch(&self) {
        self.inner.write().gpu_epoch += 1;
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

    /// Deterministic non-zero-heavy bytes.
    fn pattern(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    proptest::proptest! {
        // Every mutating entry point against a plain byte vector: a page
        // any of them changed must be zeroed by a later zero-fill.
        #[test]
        fn prop_every_write_path_keeps_zero_fill_exact(
            ops in proptest::collection::vec((0u8..10, (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>())), 1..40)
        ) {
            const BASE: u64 = 0x4000;
            const SIZE: usize = 6 * PAGE_SIZE;
            let shared = SharedMem::new(PhysMem::new(BASE, SIZE));
            let mut model = vec![0u8; SIZE];
            for (kind, (a, b)) in ops {
                let at = a as usize % SIZE;
                let len = (b as usize % (2 * PAGE_SIZE)).min(SIZE - at);
                let (pa, end) = (BASE + at as u64, at + len);
                let data = pattern(b, len);
                let byte = (b >> 40) as u8 | 1;
                let word = (a >> 8) as usize % (SIZE - 7);
                let wpa = BASE + word as u64;
                match kind {
                    0 => {
                        shared.write(pa, &data).unwrap();
                        model[at..end].copy_from_slice(&data);
                    }
                    1 => {
                        shared.write_u32(wpa, b as u32 | 1).unwrap();
                        model[word..word + 4].copy_from_slice(&(b as u32 | 1).to_le_bytes());
                    }
                    2 => {
                        shared.write_u64(wpa, b | 1).unwrap();
                        model[word..word + 8].copy_from_slice(&(b | 1).to_le_bytes());
                    }
                    3 | 4 => {
                        shared.fill(pa, len, 0).unwrap();
                        model[at..end].fill(0);
                    }
                    5 => {
                        shared.fill(pa, len, byte).unwrap();
                        model[at..end].fill(byte);
                    }
                    6 => {
                        let mut g = shared.write_guard();
                        g.slice_mut(pa, len).unwrap().copy_from_slice(&data);
                        model[at..end].copy_from_slice(&data);
                    }
                    7 => {
                        let mut g = shared.write_guard();
                        g.write(pa, &data).unwrap();
                        g.write_u32(wpa, b as u32 | 1).unwrap();
                        model[at..end].copy_from_slice(&data);
                        model[word..word + 4].copy_from_slice(&(b as u32 | 1).to_le_bytes());
                    }
                    8 => {
                        let mut g = shared.write_guard();
                        g.write_u64(wpa, b | 1).unwrap();
                        g.fill(pa, len, byte).unwrap();
                        model[word..word + 8].copy_from_slice(&(b | 1).to_le_bytes());
                        model[at..end].fill(byte);
                    }
                    _ => {
                        shared.write_guard().fill(pa, len, 0).unwrap();
                        model[at..end].fill(0);
                    }
                }
                shared
                    .with_slice(BASE, SIZE, |m| assert!(m == &model[..], "op {kind} at {at}+{len}"))
                    .unwrap();
            }
        }
    }
}
