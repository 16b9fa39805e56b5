//! Physical dirty-line map for cross-batch warm residency.
//!
//! Every DRAM mutation funnels through [`crate::PhysMem`] (plain writes,
//! scalar stores, fills, and the zero-copy `slice_mut` used by the GPU
//! shader-store path), so one bit per [`DIRTY_LINE`]-byte line of DRAM is
//! an exact record of "what changed since the map was last cleared" at the
//! physical level — device DMA, CPU-side stack writes, and replayer uploads
//! alike.
//!
//! The map has a fixed size (one bit per line: 256 KiB for 128 MiB of
//! DRAM) and no overflow: a consumer clears it, and later asks
//! [`DirtyLines::runs`] for the written lines of a range. There is one
//! window per machine — clearing serves exactly one consumer, the
//! replayer's residency anchor. The *epoch* counter is bumped by the GPU
//! models on reset and address-space switches (mirroring `SoftTlb`
//! flushes); a consumer that recorded the epoch at clear time drops its
//! state when it changed, which also covers a second replayer on the same
//! machine, since every one of its batches switches the page-table root.

/// Granularity of the map in bytes: the transfer line a partial
/// re-upload rounds out to.
pub const DIRTY_LINE: u64 = 64;

/// One bit per [`DIRTY_LINE`]-byte line of a DRAM region, counted from
/// the region's base.
#[derive(Debug)]
pub struct DirtyLines {
    base: u64,
    lines: u64,
    words: Vec<u64>,
    epoch: u64,
}

impl DirtyLines {
    /// A clean map over `[base, base + size)`.
    pub fn new(base: u64, size: usize) -> DirtyLines {
        let lines = (size as u64).div_ceil(DIRTY_LINE);
        DirtyLines {
            base,
            lines,
            words: vec![0; lines.div_ceil(64) as usize],
            epoch: 0,
        }
    }

    /// Current epoch; bumped by [`DirtyLines::bump_epoch`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Signals a GPU reset or address-space switch to whoever cleared the
    /// map. Leaves the bits alone.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Marks every line clean. Leaves the epoch alone.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The lines `[first, end)` that `[pa, pa + len)` touches, clipped to
    /// the map; `None` when that is empty.
    fn span(&self, pa: u64, len: usize) -> Option<(u64, u64)> {
        let lo = pa.max(self.base) - self.base;
        let end = pa.saturating_add(len as u64);
        let hi = end.saturating_sub(self.base).min(self.lines * DIRTY_LINE);
        (lo < hi).then(|| (lo / DIRTY_LINE, hi.div_ceil(DIRTY_LINE)))
    }

    /// Marks every line `[pa, pa + len)` touches as written.
    pub fn record(&mut self, pa: u64, len: usize) {
        let Some((first, end)) = self.span(pa, len) else {
            return;
        };
        let (fw, lw) = ((first / 64) as usize, ((end - 1) / 64) as usize);
        let lo = !0u64 << (first % 64);
        let hi = !0u64 >> (63 - (end - 1) % 64);
        if fw == lw {
            self.words[fw] |= lo & hi;
        } else {
            self.words[fw] |= lo;
            self.words[fw + 1..lw].fill(!0);
            self.words[lw] |= hi;
        }
    }

    /// The written lines `[pa, pa + len)` touches, as sorted, merged,
    /// line-aligned `(start, end)` physical ranges. Empty means clean.
    pub fn runs(&self, pa: u64, len: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let Some((first, end)) = self.span(pa, len) else {
            return out;
        };
        let mut line = first;
        while line < end {
            let bits = self.words[(line / 64) as usize] >> (line % 64);
            if bits == 0 {
                line = (line / 64 + 1) * 64;
                continue;
            }
            line += u64::from(bits.trailing_zeros());
            if line >= end {
                break;
            }
            let start = line;
            loop {
                let shift = line % 64;
                let ones = self.words[(line / 64) as usize] >> shift;
                let n = u64::from(ones.trailing_ones());
                line += n;
                if n < 64 - shift || line >= end {
                    break;
                }
            }
            let stop = line.min(end);
            out.push((
                self.base + start * DIRTY_LINE,
                self.base + stop * DIRTY_LINE,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cross_word_boundaries_and_clip_to_the_map() {
        let mut map = DirtyLines::new(0x1000, 512 * 64);
        map.record(0x1000 + 60 * 64, 200 * 64);
        map.record(0x1000 + 511 * 64 + 5, 1000);
        assert_eq!(
            map.runs(0, usize::MAX),
            vec![
                (0x1000 + 60 * 64, 0x1000 + 260 * 64),
                (0x1000 + 511 * 64, 0x1000 + 512 * 64)
            ]
        );
        assert_eq!(
            map.runs(0x1000 + 100 * 64 + 3, 1),
            vec![(0x1000 + 100 * 64, 0x1000 + 101 * 64)]
        );
        map.clear();
        assert!(map.runs(0, usize::MAX).is_empty());
    }
}
