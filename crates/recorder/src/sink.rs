//! The raw event collector behind the driver hooks.

use std::sync::Arc;

use gr_sim::{SimClock, SimDuration, SimTime};
use gr_stack::driver::RegionKind;
use gr_stack::hooks::{DumpCtx, RecorderSink, RegionSnapshot};
use parking_lot::Mutex;

use crate::dump;

/// One observed driver↔GPU interaction, timestamped.
#[derive(Debug, Clone)]
pub enum RawEvent {
    /// Register write.
    RegWrite {
        /// Register offset.
        reg: u32,
        /// Value.
        val: u32,
    },
    /// Single register read (value observed).
    RegRead {
        /// Register offset.
        reg: u32,
        /// Observed value.
        val: u32,
    },
    /// Summarized polling loop.
    Poll {
        /// Register offset.
        reg: u32,
        /// Compared bits.
        mask: u32,
        /// Awaited value.
        val: u32,
        /// Observed poll count (nondeterministic).
        polls: u32,
        /// Driver timeout budget.
        timeout: SimDuration,
    },
    /// Blocking interrupt wait.
    WaitIrq {
        /// IRQ line.
        line: u32,
        /// Timeout budget.
        timeout: SimDuration,
    },
    /// Interrupt context entry/exit.
    IrqCtx {
        /// Enter vs leave.
        enter: bool,
    },
    /// The driver pointed the GPU at page tables.
    PgtableSet,
    /// New VA region mapped.
    Map {
        /// Base VA.
        va: u64,
        /// Allocation kind.
        kind: RegionKind,
        /// Per-page PTE flag bits (recording SKU's format).
        pte_flags: Vec<u16>,
    },
    /// Region unmapped.
    Unmap {
        /// Base VA.
        va: u64,
    },
    /// Dump captured right before a job kick: changed pages only.
    JobDump {
        /// (page VA, 4 KiB content) pairs that changed since last dump.
        pages: Vec<(u64, Vec<u8>)>,
        /// Peak pages mapped at this point.
        mapped_pages: u64,
    },
    /// GPU went busy/idle (interval-skipping evidence).
    GpuPhase {
        /// Busy vs idle.
        busy: bool,
    },
}

/// A timestamped raw event.
#[derive(Debug, Clone)]
pub struct TimedRaw {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub event: RawEvent,
}

#[derive(Debug, Default)]
pub(crate) struct RecorderState {
    pub events: Vec<TimedRaw>,
    /// Per-page content hash at last dump (deduplicates job dumps).
    pub page_hashes: std::collections::HashMap<u64, u64>,
    /// Regions snapshot taken at the most recent dump point.
    pub last_regions: Vec<RegionSnapshot>,
    pub enabled: bool,
}

/// The recorder: an implementation of the driver instrumentation seams
/// that accumulates raw events for [`crate::builder`].
pub struct Recorder {
    clock: SimClock,
    pub(crate) state: Mutex<RecorderState>,
    sku: &'static gr_gpu::GpuSku,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("events", &self.state.lock().events.len())
            .finish()
    }
}

impl Recorder {
    /// Creates an enabled recorder for `sku`, timestamping with `clock`.
    pub fn new(clock: SimClock, sku: &'static gr_gpu::GpuSku) -> Arc<Recorder> {
        Arc::new(Recorder {
            clock,
            state: Mutex::new(RecorderState {
                enabled: true,
                ..Default::default()
            }),
            sku,
        })
    }

    /// The GPU family being recorded.
    pub fn family(&self) -> gr_gpu::GpuFamilyKind {
        self.sku.family
    }

    /// Number of raw events collected so far (bookmark for segmenting).
    pub fn mark(&self) -> usize {
        self.state.lock().events.len()
    }

    /// Clears the page-hash cache so the next job dump captures every
    /// policy page (used at recording-group boundaries).
    pub fn reset_dump_cache(&self) {
        self.state.lock().page_hashes.clear();
    }

    /// Copies out the raw events in `[from, to)`.
    pub fn events(&self, from: usize, to: usize) -> Vec<TimedRaw> {
        self.state.lock().events[from..to].to_vec()
    }

    /// The region snapshots captured at the most recent dump point.
    pub fn last_regions(&self) -> Vec<RegionSnapshot> {
        self.state.lock().last_regions.clone()
    }

    fn push(&self, event: RawEvent) {
        let mut st = self.state.lock();
        if st.enabled {
            let at = self.clock.now();
            st.events.push(TimedRaw { at, event });
        }
    }
}

impl RecorderSink for Recorder {
    fn reg_write(&self, reg: u32, val: u32) {
        self.push(RawEvent::RegWrite { reg, val });
    }

    fn reg_read(&self, reg: u32, val: u32) {
        self.push(RawEvent::RegRead { reg, val });
    }

    fn poll(&self, reg: u32, mask: u32, val: u32, polls: u32, timeout: SimDuration) {
        self.push(RawEvent::Poll {
            reg,
            mask,
            val,
            polls,
            timeout,
        });
    }

    fn wait_irq(&self, line: u32, timeout: SimDuration) {
        self.push(RawEvent::WaitIrq { line, timeout });
    }

    fn irq_context(&self, enter: bool) {
        self.push(RawEvent::IrqCtx { enter });
    }

    fn pgtable_set(&self) {
        self.push(RawEvent::PgtableSet);
    }

    fn map(&self, va: u64, kind: RegionKind, pte_flags: &[u16]) {
        self.push(RawEvent::Map {
            va,
            kind,
            pte_flags: pte_flags.to_vec(),
        });
    }

    fn unmap(&self, va: u64) {
        self.push(RawEvent::Unmap { va });
    }

    fn copy_to_gpu(&self, _va: u64, _len: usize) {
        // Input injection is discovered by taint, not hooks (§4.4): the
        // runtime may bypass the driver entirely, so the recorder must not
        // rely on seeing copies.
    }

    fn copy_from_gpu(&self, _va: u64, _len: usize) {}

    fn pre_job_submit(&self, ctx: &DumpCtx<'_>) {
        let policy_pages = dump::policy_pages(self.sku, ctx);
        let mut st = self.state.lock();
        if !st.enabled {
            return;
        }
        let mut changed = Vec::new();
        let mut mapped_pages = 0u64;
        for r in ctx.regions {
            mapped_pages += r.pages as u64;
        }
        for (page_va, bytes) in policy_pages {
            let h = fnv1a(&bytes);
            if st.page_hashes.get(&page_va) != Some(&h) {
                st.page_hashes.insert(page_va, h);
                changed.push((page_va, bytes));
            }
        }
        st.last_regions = ctx.regions.to_vec();
        let at = self.clock.now();
        st.events.push(TimedRaw {
            at,
            event: RawEvent::JobDump {
                pages: changed,
                mapped_pages,
            },
        });
    }

    fn post_job_complete(&self, ctx: &DumpCtx<'_>) {
        // Refresh the page view: anything the GPU just wrote is inter-job
        // state and must never be re-dumped (it would overwrite live
        // buffers at replay, §4.3).
        let policy_pages = dump::policy_pages(self.sku, ctx);
        let mut st = self.state.lock();
        if !st.enabled {
            return;
        }
        for (page_va, bytes) in policy_pages {
            let h = fnv1a(&bytes);
            st.page_hashes.insert(page_va, h);
        }
        st.last_regions = ctx.regions.to_vec();
    }

    fn gpu_phase(&self, busy: bool) {
        self.push(RawEvent::GpuPhase { busy });
    }
}

/// FNV-1a hash of a byte slice: the per-page content fingerprint that
/// decides which pages changed since the previous job dump.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    #[allow(unused_imports)]
    use gr_gpu::sku;
    use gr_gpu::GpuFamilyKind;

    #[test]
    fn records_in_order_with_marks() {
        let clock = SimClock::new();
        let rec = Recorder::new(clock.clone(), &gr_gpu::sku::MALI_G71);
        rec.reg_write(0x18, 1);
        let m = rec.mark();
        assert_eq!(m, 1);
        clock.advance(SimDuration::from_micros(5));
        rec.reg_read(0x08, 0x100);
        let evs = rec.events(0, rec.mark());
        assert_eq!(evs.len(), 2);
        assert!(matches!(
            evs[0].event,
            RawEvent::RegWrite { reg: 0x18, val: 1 }
        ));
        assert!(evs[1].at > evs[0].at);
        let seg = rec.events(m, rec.mark());
        assert_eq!(seg.len(), 1);
    }

    #[test]
    fn copy_hooks_are_intentionally_ignored() {
        let rec = Recorder::new(SimClock::new(), &gr_gpu::sku::V3D_RPI4);
        rec.copy_to_gpu(0x1000, 64);
        rec.copy_from_gpu(0x1000, 64);
        assert_eq!(rec.mark(), 0);
        assert_eq!(rec.family(), GpuFamilyKind::V3d);
    }

    #[test]
    fn fnv_distinguishes_content() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
