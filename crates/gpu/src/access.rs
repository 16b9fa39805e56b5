//! Per-batch GPU access-set tracking for cross-batch warm residency.
//!
//! The replayer arms the log at the start of a warm batch's suffix. The
//! device core then notes every GPU-side memory access: each job-binary
//! fetch (control-list and job-chain parses, shader blobs) in its job
//! memory view, and each kernel tensor load and store in the
//! [`TranslatingVaMem`](crate::device::TranslatingVaMem) the kernels run
//! on. That accessor notes a read before it is attempted and a write
//! only after it succeeded, so a faulting partial store never
//! over-claims the written set. The replayer notes its own CPU-side
//! suffix IO (input copies, suffix dump uploads, output readbacks). At
//! batch end the replayer snapshots two interval sets over GPU VAs:
//!
//! * **first reads** — bytes the suffix read before any suffix write
//!   reached them: their pre-suffix content is observable;
//! * **written** — bytes some suffix write re-established.
//!
//! Only the replayer and the GPU jobs it kicks write its frames, so a
//! dump byte can differ from the post-prologue image only if it is
//! written; a resident batch restores exactly the written bytes that are
//! also first reads. A written byte that is not a first read is
//! overwritten by the suffix before anything can observe it, so the
//! post-batch memory image still matches a cold replay bit for bit.
//!
//! The access *ranges* are replay-static: every byte that influences
//! decoding (lists, chains, blobs) is itself in the read set, so if every
//! first-read byte holds its post-prologue content when the suffix
//! starts, execution — and with it the access pattern — is identical to
//! the previous batch's. Kernel addressing is shape-driven, never
//! data-driven, which keeps the range sets independent of input values.
//!
//! The log is bounded: overflowing [`MAX_INTERVALS`] marks the batch
//! incomplete and [`AccessLog::snapshot`] returns `None`; the replayer
//! then takes no residency anchor and the next batch runs the full
//! prologue.

use std::sync::Arc;

use parking_lot::Mutex;

/// Retained-interval bound per set; overflow poisons the snapshot.
pub const MAX_INTERVALS: usize = 1024;

/// A sorted, coalesced set of half-open `[start, end)` intervals.
#[derive(Debug, Default, Clone)]
pub struct IntervalSet {
    ivs: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> IntervalSet {
        IntervalSet::default()
    }

    /// The retained intervals (sorted, disjoint, non-adjacent).
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.ivs
    }

    /// Number of retained intervals.
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Inserts `[start, end)`, merging overlapping/adjacent intervals.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let lo = self.ivs.partition_point(|&(_, e)| e < start);
        let hi = self.ivs.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ivs.insert(lo, (start, end));
            return;
        }
        let new_s = start.min(self.ivs[lo].0);
        let new_e = end.max(self.ivs[hi - 1].1);
        self.ivs.drain(lo..hi);
        self.ivs.insert(lo, (new_s, new_e));
    }

    /// `true` when `[start, end)` overlaps any interval.
    pub fn intersects(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        let lo = self.ivs.partition_point(|&(_, e)| e <= start);
        self.ivs.get(lo).is_some_and(|&(s, _)| s < end)
    }

    /// `true` when `[start, end)` lies entirely inside one interval.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let lo = self.ivs.partition_point(|&(_, e)| e <= start);
        self.ivs
            .get(lo)
            .is_some_and(|&(s, e)| s <= start && end <= e)
    }

    /// The parts of `[start, end)` covered by the set (the complement of
    /// [`IntervalSet::subtract_from`]).
    pub fn clip(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for &(s, e) in &self.ivs {
            if e <= start {
                continue;
            }
            if s >= end {
                break;
            }
            out.push((s.max(start), e.min(end)));
        }
        out
    }

    /// The parts of `[start, end)` **not** covered by the set.
    pub fn subtract_from(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cur = start;
        for &(s, e) in &self.ivs {
            if e <= cur {
                continue;
            }
            if s >= end {
                break;
            }
            if s > cur {
                out.push((cur, s.min(end)));
            }
            cur = cur.max(e);
            if cur >= end {
                break;
            }
        }
        if cur < end {
            out.push((cur, end));
        }
        out
    }

    fn clear(&mut self) {
        self.ivs.clear();
    }
}

/// Consistent view of one batch's suffix accesses.
#[derive(Debug, Clone)]
pub struct AccessSnapshot {
    /// Bytes read before any suffix write reached them.
    pub first_reads: IntervalSet,
    /// Bytes some suffix write re-established.
    pub written: IntervalSet,
}

/// The mutable per-batch log. One per machine, shared by the device
/// model and the replayer (see module docs).
#[derive(Debug, Default)]
pub struct AccessLog {
    armed: bool,
    complete: bool,
    first_reads: IntervalSet,
    written: IntervalSet,
}

impl AccessLog {
    /// Clears and arms the log: subsequent notes are recorded.
    pub fn arm(&mut self) {
        self.armed = true;
        self.complete = true;
        self.first_reads.clear();
        self.written.clear();
    }

    /// Notes a read of `[va, va+len)`: the parts not already written
    /// this batch become first reads.
    pub fn note_read(&mut self, va: u64, len: u64) {
        if !self.armed || !self.complete {
            return;
        }
        for (s, e) in self.written.subtract_from(va, va.saturating_add(len)) {
            self.first_reads.insert(s, e);
        }
        self.check_bounds();
    }

    /// Notes a write of `[va, va+len)`.
    pub fn note_write(&mut self, va: u64, len: u64) {
        if !self.armed || !self.complete {
            return;
        }
        self.written.insert(va, va.saturating_add(len));
        self.check_bounds();
    }

    fn check_bounds(&mut self) {
        if self.first_reads.len() > MAX_INTERVALS || self.written.len() > MAX_INTERVALS {
            self.complete = false;
        }
    }

    /// The batch's access sets, or `None` when the log was never armed
    /// or overflowed (there is then nothing to build residency on).
    pub fn snapshot(&self) -> Option<AccessSnapshot> {
        (self.armed && self.complete).then(|| AccessSnapshot {
            first_reads: self.first_reads.clone(),
            written: self.written.clone(),
        })
    }
}

/// Cheap-to-clone shared handle; the machine hands one to its device and
/// keeps one for the replayer-facing API.
#[derive(Debug, Clone, Default)]
pub struct SharedAccessLog {
    inner: Arc<Mutex<AccessLog>>,
}

impl SharedAccessLog {
    /// A fresh, disarmed log.
    pub fn new() -> SharedAccessLog {
        SharedAccessLog::default()
    }

    /// See [`AccessLog::arm`].
    pub fn arm(&self) {
        self.inner.lock().arm();
    }

    /// See [`AccessLog::note_read`].
    pub fn note_read(&self, va: u64, len: u64) {
        self.inner.lock().note_read(va, len);
    }

    /// See [`AccessLog::note_write`].
    pub fn note_write(&self, va: u64, len: u64) {
        self.inner.lock().note_write(va, len);
    }

    /// See [`AccessLog::snapshot`].
    pub fn snapshot(&self) -> Option<AccessSnapshot> {
        self.inner.lock().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_set_inserts_merge_and_query() {
        let mut s = IntervalSet::new();
        s.insert(0x100, 0x200);
        s.insert(0x300, 0x400);
        s.insert(0x180, 0x320); // bridges both
        assert_eq!(s.intervals(), &[(0x100, 0x400)]);
        s.insert(0x400, 0x500); // adjacent merges
        assert_eq!(s.intervals(), &[(0x100, 0x500)]);
        assert!(s.intersects(0x4FF, 0x600));
        assert!(!s.intersects(0x500, 0x600));
        assert!(s.covers(0x100, 0x500));
        assert!(!s.covers(0x100, 0x501));
        assert_eq!(
            s.subtract_from(0x0, 0x600),
            vec![(0x0, 0x100), (0x500, 0x600)]
        );
        assert_eq!(s.subtract_from(0x200, 0x300), vec![]);
        assert_eq!(s.clip(0x0, 0x600), vec![(0x100, 0x500)]);
        assert_eq!(s.clip(0x500, 0x600), vec![]);
    }

    #[test]
    fn first_reads_exclude_prior_writes() {
        let mut log = AccessLog::default();
        log.arm();
        log.note_write(0x1000, 0x100);
        // Read straddling the written range: only the tail is a first read.
        log.note_read(0x1080, 0x100);
        // Read entirely after a write: no first read at all.
        log.note_read(0x1000, 0x80);
        let snap = log.snapshot().unwrap();
        assert_eq!(snap.first_reads.intervals(), &[(0x1100, 0x1180)]);
        assert!(snap.written.covers(0x1000, 0x1100));
    }

    #[test]
    fn read_then_write_stays_a_first_read() {
        let mut log = AccessLog::default();
        log.arm();
        log.note_read(0x2000, 0x40);
        log.note_write(0x2000, 0x40);
        let snap = log.snapshot().unwrap();
        assert!(snap.first_reads.intersects(0x2000, 0x2040));
    }

    #[test]
    fn disarmed_or_overflowed_logs_snapshot_none() {
        let log = AccessLog::default();
        assert!(log.snapshot().is_none(), "never armed");
        let mut log = AccessLog::default();
        log.arm();
        for i in 0..(MAX_INTERVALS as u64 + 2) {
            log.note_write(i * 0x100, 1); // disjoint: no merging
        }
        assert!(log.snapshot().is_none(), "overflow poisons the snapshot");
        // Re-arming recovers.
        log.arm();
        log.note_write(0, 1);
        assert!(log.snapshot().is_some());
    }

    #[test]
    fn shared_handle_aliases() {
        let a = SharedAccessLog::new();
        let b = a.clone();
        a.arm();
        b.note_read(0x10, 0x10);
        let snap = a.snapshot().unwrap();
        assert_eq!(snap.first_reads.intervals(), &[(0x10, 0x20)]);
    }
}
