//! The raw event collector behind the driver hooks.

use std::sync::Arc;

use gr_recording::checksum;
use gr_sim::{SimClock, SimDuration, SimTime};
use gr_soc::PAGE_SIZE;
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
            state: Mutex::new(RecorderState::default()),
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
        let at = self.clock.now();
        self.state.lock().events.push(TimedRaw { at, event });
    }

    /// Fingerprints every policy frame where it sits in DRAM (one read
    /// guard, no copies), stores the new fingerprints and hands each page
    /// whose fingerprint changed to `changed`.
    fn refresh(&self, ctx: &DumpCtx<'_>, mut changed: impl FnMut(u64, &[u8])) {
        // The policy may read DRAM (v3d pointer chase): select before the
        // guard is taken.
        let frames = dump::policy_frames(self.sku, ctx);
        let mut st = self.state.lock();
        let mem = ctx.mem.read_guard();
        for (va, pa) in frames {
            let Ok(page) = mem.slice(pa, PAGE_SIZE) else {
                continue;
            };
            let h = checksum(page);
            if st.page_hashes.insert(va, h) != Some(h) {
                changed(va, page);
            }
        }
        drop(mem);
        st.last_regions = ctx.regions.to_vec();
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
        // The driver recycles freed VAs, and at replay a region mapped there
        // again starts from zeroed frames: forget the old pages'
        // fingerprints so the next dump holds the new region whole.
        {
            let mut st = self.state.lock();
            if let Some(pages) = st.last_regions.iter().find(|r| r.va == va).map(|r| r.pages) {
                for p in 0..pages as u64 {
                    st.page_hashes.remove(&(va + p * PAGE_SIZE as u64));
                }
            }
        }
        self.push(RawEvent::Unmap { va });
    }

    fn copy_to_gpu(&self, _va: u64, _len: usize) {
        // Input injection is discovered by taint, not hooks (§4.4): the
        // runtime may bypass the driver entirely, so the recorder must not
        // rely on seeing copies.
    }

    fn copy_from_gpu(&self, _va: u64, _len: usize) {}

    fn pre_job_submit(&self, ctx: &DumpCtx<'_>) {
        let mut pages = Vec::new();
        self.refresh(ctx, |va, page| pages.push((va, page.to_vec())));
        self.push(RawEvent::JobDump {
            pages,
            mapped_pages: ctx.regions.iter().map(|r| r.pages as u64).sum(),
        });
    }

    fn post_job_complete(&self, ctx: &DumpCtx<'_>) {
        // Refresh the page view: anything the GPU just wrote is inter-job
        // state and must never be re-dumped (it would overwrite live
        // buffers at replay, §4.3).
        self.refresh(ctx, |_, _| {});
    }

    fn gpu_phase(&self, busy: bool) {
        self.push(RawEvent::GpuPhase { busy });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use gr_gpu::mali::pgtable::{encode_flags, PteFlags};
    use gr_gpu::{sku, GpuFamilyKind, GpuSku};
    use gr_sim::SimRng;
    use gr_soc::{PhysMem, SharedMem};
    use gr_stack::hooks::JobRoot;

    /// The pages of the most recent event, which must be a job dump.
    fn last_dump(rec: &Recorder) -> Vec<(u64, Vec<u8>)> {
        match &rec.events(rec.mark() - 1, rec.mark())[0].event {
            RawEvent::JobDump { pages, .. } => pages.clone(),
            other => panic!("expected a job dump, got {other:?}"),
        }
    }

    fn flip_sign(mem: &SharedMem, pa: u64, f32_index: u64) {
        let at = pa + 4 * f32_index + 3;
        let b = mem.read_vec(at, 1).unwrap()[0];
        mem.write(at, &[b ^ 0x80]).unwrap();
    }

    #[test]
    fn sign_bit_pairs_are_redumped() {
        // f32 #1 and #9 are bit 63 of two words 32 bytes apart: the same
        // fingerprint lane, where a plain `(h ^ w) * P` step cancels the
        // two flips and would never dump the page again.
        let sku = &sku::MALI_G71;
        let mem = SharedMem::new(PhysMem::new(0, 2 * PAGE_SIZE));
        let counting: Vec<u8> = (0..PAGE_SIZE / 4)
            .flat_map(|i| (i as f32).to_le_bytes())
            .collect();
        mem.write(PAGE_SIZE as u64, &counting).unwrap();
        let data = encode_flags(sku.pte_format, PteFlags::rw_cpu()) as u16;
        let regions = [RegionSnapshot {
            va: 0x10_0000,
            pages: 2,
            kind: RegionKind::Data,
            pte_flags: vec![data; 2],
            pas: vec![PAGE_SIZE as u64, 0],
        }];
        let ctx = DumpCtx {
            mem: &mem,
            regions: &regions,
            root: JobRoot::MaliChain { head_va: 0x10_0000 },
        };
        let rec = Recorder::new(SimClock::new(), sku);
        rec.pre_job_submit(&ctx);
        assert_eq!(last_dump(&rec).len(), 2, "first dump takes every page");
        rec.post_job_complete(&ctx);
        rec.pre_job_submit(&ctx);
        assert!(last_dump(&rec).is_empty(), "unchanged pages stay out");

        for pa in [PAGE_SIZE as u64, 0] {
            flip_sign(&mem, pa, 1);
            flip_sign(&mem, pa, 9);
        }
        rec.pre_job_submit(&ctx);
        let want = vec![
            (
                0x10_0000,
                mem.read_vec(PAGE_SIZE as u64, PAGE_SIZE).unwrap(),
            ),
            (0x10_1000, mem.read_vec(0, PAGE_SIZE).unwrap()),
        ];
        assert_eq!(last_dump(&rec), want);
    }

    #[test]
    fn a_recycled_va_is_dumped_again() {
        // Free a region, then map a new one at the same VA holding the same
        // bytes: replay maps it on zeroed frames, so it must be dumped.
        let sku = &sku::MALI_G71;
        let mem = SharedMem::new(PhysMem::new(0, 2 * PAGE_SIZE));
        for pa in [0, PAGE_SIZE as u64] {
            mem.write(pa, &[7; 64]).unwrap();
        }
        let data = encode_flags(sku.pte_format, PteFlags::rw_cpu()) as u16;
        let region = |pa| {
            [RegionSnapshot {
                va: 0x10_0000,
                pages: 1,
                kind: RegionKind::Data,
                pte_flags: vec![data],
                pas: vec![pa],
            }]
        };
        let rec = Recorder::new(SimClock::new(), sku);
        for (pa, unmapped) in [(0, false), (PAGE_SIZE as u64, true)] {
            if unmapped {
                rec.unmap(0x10_0000);
                rec.map(0x10_0000, RegionKind::Data, &[data]);
            }
            let regions = region(pa);
            rec.pre_job_submit(&DumpCtx {
                mem: &mem,
                regions: &regions,
                root: JobRoot::MaliChain { head_va: 0x10_0000 },
            });
            let page = mem.read_vec(pa, PAGE_SIZE).unwrap();
            assert_eq!(
                last_dump(&rec),
                vec![(0x10_0000, page)],
                "after unmap: {unmapped}"
            );
        }
    }

    /// Random CPU- and "GPU"-side stores into random frames: byte writes,
    /// same-value rewrites and same-lane sign-bit pairs.
    fn scribble(mem: &SharedMem, frames: &[u64], rng: &mut SimRng) {
        for _ in 0..rng.range_u64(0, 6) {
            let pa = frames[rng.range_u64(0, frames.len() as u64) as usize];
            let off = rng.range_u64(0, PAGE_SIZE as u64);
            match rng.range_u64(0, 3) {
                0 => mem.write(pa + off, &[rng.next_u32() as u8]).unwrap(),
                1 => {
                    let b = mem.read_vec(pa + off, 1).unwrap();
                    mem.write(pa + off, &b).unwrap();
                }
                _ => {
                    let f = off / 4 % (PAGE_SIZE as u64 / 4 - 8);
                    flip_sign(mem, pa, f);
                    flip_sign(mem, pa, f + 8);
                }
            }
        }
    }

    /// Drives a recorder over random regions and checks every job dump
    /// against a shadow of full page contents: a policy page is dumped
    /// exactly when its bytes differ from what they were at the previous
    /// hook (or it was never seen), with the bytes it holds now.
    fn check_against_shadow(sku: &'static GpuSku, seed: u64) {
        const FRAMES: u64 = 24;
        let mut rng = SimRng::seed_from(seed);
        let mem = SharedMem::new(PhysMem::new(0, FRAMES as usize * PAGE_SIZE));
        let mut frames: Vec<u64> = (0..FRAMES).map(|f| f * PAGE_SIZE as u64).collect();
        for i in (1..frames.len()).rev() {
            frames.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
        }
        let kinds = [
            RegionKind::JobBinary,
            RegionKind::Data,
            RegionKind::Internal,
            RegionKind::Scratch,
        ];
        let perms = [
            PteFlags::exec_cpu(),
            PteFlags::rw_cpu(),
            PteFlags::internal(),
        ];
        let mut regions = Vec::new();
        // The test's own statement of each policy: (page VA, frame).
        let mut policy = Vec::new();
        let mut free = frames.iter().copied();
        for i in 0..rng.range_u64(1, 6) {
            let va = 0x10_0000 * (i + 1) + rng.range_u64(0, 16) * PAGE_SIZE as u64;
            let pages = rng.range_u64(1, 5) as usize;
            let kind = kinds[rng.range_u64(0, 4) as usize];
            let pas: Vec<u64> = free.by_ref().take(pages).collect();
            let mut pte_flags = Vec::new();
            for (p, &pa) in pas.iter().enumerate() {
                let perm = rng.range_u64(0, 3) as usize;
                pte_flags.push(encode_flags(sku.pte_format, perms[perm]) as u16);
                let selected = match sku.family {
                    GpuFamilyKind::Mali => perm != 2,
                    GpuFamilyKind::V3d => kind != RegionKind::Scratch,
                };
                if selected {
                    policy.push((va + (p * PAGE_SIZE) as u64, pa));
                }
            }
            regions.push(RegionSnapshot {
                va,
                pages,
                kind,
                pte_flags,
                pas,
            });
        }
        if sku.family == GpuFamilyKind::V3d {
            policy.sort_unstable();
        }
        let root = match sku.family {
            GpuFamilyKind::Mali => JobRoot::MaliChain { head_va: 0 },
            // An unmapped list: nothing to chase.
            GpuFamilyKind::V3d => JobRoot::V3dList {
                cl_va: 0,
                cl_len: 0,
            },
        };
        let ctx = DumpCtx {
            mem: &mem,
            regions: &regions,
            root,
        };
        let rec = Recorder::new(SimClock::new(), sku);
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut refresh_shadow = || {
            let mut changed = Vec::new();
            for &(va, pa) in &policy {
                let now = mem.read_vec(pa, PAGE_SIZE).unwrap();
                if shadow.get(&va) != Some(&now) {
                    changed.push((va, now.clone()));
                }
                shadow.insert(va, now);
            }
            changed
        };
        for job in 0..rng.range_u64(1, 5) {
            scribble(&mem, &frames, &mut rng);
            rec.pre_job_submit(&ctx);
            let want = refresh_shadow();
            assert_eq!(last_dump(&rec), want, "{sku:?} seed {seed} job {job}");
            scribble(&mem, &frames, &mut rng);
            rec.post_job_complete(&ctx);
            refresh_shadow();
        }
        let mapped: u64 = regions.iter().map(|r| r.pages as u64).sum();
        assert!(matches!(
            rec.events(rec.mark() - 1, rec.mark())[0].event,
            RawEvent::JobDump { mapped_pages, .. } if mapped_pages == mapped
        ));
    }

    proptest::proptest! {
        #[test]
        fn prop_job_dumps_equal_a_full_content_shadow(seed in proptest::prelude::any::<u64>()) {
            check_against_shadow(&sku::MALI_G71, seed);
            check_against_shadow(&sku::V3D_RPI4, seed);
        }
    }

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
}
