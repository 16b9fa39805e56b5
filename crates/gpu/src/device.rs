//! The device core both GPU families share, the VA-translating memory
//! accessor and the one job executor both device models run their jobs
//! through.
//!
//! Paper Table 1 lists what differs between GPU families: register
//! offsets, page-table format and how jobs are submitted. Everything else
//! lives once, in `DevCore`: the machine handles, the device timeline
//! (reset, cache-flush and job-completion events), the [`SoftTlb`] and
//! the GPU epoch it invalidates with, the job counter and the §7.2 fault
//! state. `MaliGpu` and `V3dGpu` are register front-ends over one core
//! each.
//!
//! A device parses its own job format (a Mali job chain, a v3d control
//! list) into a list of shader blobs, then hands that list to
//! `DevCore::execute`. The executor fetches, decodes and executes each
//! blob in order, at completion time, through the core's [`SoftTlb`],
//! access log and [`ExecScratch`]. It reports failures as a
//! family-neutral `JobFault`, which each device maps to its own fault
//! registers.

use std::collections::HashMap;

use gr_sim::{EventQueue, SimClock, SimDuration, SimRng, SimTime};
use gr_soc::pmc::PmcDomain;
use gr_soc::{IrqController, IrqLine, SharedMem, SharedPmc, PAGE_SIZE};

use crate::access::SharedAccessLog;
use crate::faults::FaultKind;
use crate::sku::GpuSku;
use crate::timing::{self, JobCost};
use crate::vm::bytecode::KernelOp;
use crate::vm::exec::{execute_with, ExecError, ExecScratch, VaMem};

/// A simulated GPU as seen by the machine: registers, event-driven
/// execution, and fault-injection hooks.
///
/// Reads and writes have side effects; implementations tick their internal
/// event queue before servicing accesses so register state is always
/// current with the virtual clock.
pub trait GpuDev: Send {
    /// Register read (with device side effects).
    fn read32(&mut self, off: u32) -> u32;

    /// Register write.
    fn write32(&mut self, off: u32, val: u32);

    /// Processes all events due at the current virtual time.
    fn tick(&mut self);

    /// Instant of the next scheduled internal event, if any (lets waiters
    /// advance the clock efficiently).
    fn next_event_time(&self) -> Option<SimTime>;

    /// Static SKU description.
    fn sku(&self) -> &'static GpuSku;

    /// Injects a hardware fault (§7.2 validation experiments).
    fn inject_fault(&mut self, fault: FaultKind);

    /// `true` while a job/reset/flush is in flight.
    fn busy(&self) -> bool;

    /// Monotonic count of successfully completed jobs.
    fn jobs_completed(&self) -> u64;
}

/// Software TLB: caches `page_va → (page_pa, writable)` so the execution
/// engine walks the in-DRAM page tables once per page instead of once per
/// access.
///
/// Lifetime/invalidation rules (wired into both device models):
///
/// * flushed on soft reset and on MMU enable/disable or address-space
///   switch (`AS0_COMMAND UPDATE` on Mali, `MMU_CTRL`/`MMU_PT_BASE` writes
///   on v3d),
/// * flushed on explicit TLB-shootdown commands (Mali `AS_CMD_FLUSH`),
/// * the affected page is invalidated when fault injection corrupts a PTE
///   in place, so §7.2 experiments still observe the fault even after the
///   translation was cached.
#[derive(Debug, Default)]
pub struct SoftTlb {
    entries: HashMap<u64, (u64, bool)>,
    hits: u64,
    misses: u64,
}

impl SoftTlb {
    /// Creates an empty TLB.
    pub fn new() -> Self {
        SoftTlb::default()
    }

    /// Cached translation for `page_va`, counting hit/miss.
    pub fn lookup(&mut self, page_va: u64) -> Option<(u64, bool)> {
        match self.entries.get(&page_va) {
            Some(&e) => {
                self.hits += 1;
                Some(e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches `page_va → (page_pa, writable)`.
    pub fn insert(&mut self, page_va: u64, page_pa: u64, writable: bool) {
        self.entries.insert(page_va, (page_pa, writable));
    }

    /// Drops the entry covering `va` (any alignment).
    pub fn invalidate_page(&mut self, va: u64) {
        self.entries.remove(&(va & !(PAGE_SIZE as u64 - 1)));
    }

    /// Drops every entry (MMU flush / address-space switch / reset).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Cached translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to walk the page tables.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// One physically-contiguous piece of a virtually-contiguous transfer.
#[derive(Clone, Copy)]
struct Segment {
    pa: u64,
    off: usize,
    len: usize,
}

fn resolve<F>(
    tlb: &mut Option<&mut SoftTlb>,
    translate: &mut F,
    page_va: u64,
) -> Option<(u64, bool)>
where
    F: FnMut(u64) -> Option<(u64, bool)>,
{
    if let Some(t) = tlb.as_deref_mut() {
        if let Some(e) = t.lookup(page_va) {
            return Some(e);
        }
    }
    let (page_pa, writable) = translate(page_va)?;
    if let Some(t) = tlb.as_deref_mut() {
        t.insert(page_va, page_pa, writable);
    }
    Some((page_pa, writable))
}

/// [`VaMem`] implementation that routes byte accesses through a page-wise
/// translation function and notes each access in an access log.
///
/// `translate(page_va) -> Option<(page_pa, writable)>`; `None` faults.
///
/// The accessor translates the whole span first (served from the
/// [`SoftTlb`] when one is attached), then performs the copy under a
/// single [`SharedMem`] guard instead of re-locking per 4-KiB chunk.
///
/// Reads are noted in `log` before they are attempted; writes are noted
/// only once they succeeded, so a faulting partial store never
/// over-claims the written set (see [`crate::access`]).
pub struct TranslatingVaMem<'a, F> {
    mem: &'a SharedMem,
    log: &'a SharedAccessLog,
    translate: F,
    tlb: Option<&'a mut SoftTlb>,
    segs: Vec<Segment>,
}

impl<'a, F> TranslatingVaMem<'a, F>
where
    F: FnMut(u64) -> Option<(u64, bool)>,
{
    /// Creates an accessor over `mem` using `translate` on every page
    /// (no TLB; transfers still lock-amortized).
    pub fn new(mem: &'a SharedMem, log: &'a SharedAccessLog, translate: F) -> Self {
        TranslatingVaMem {
            mem,
            log,
            translate,
            tlb: None,
            segs: Vec::new(),
        }
    }

    /// Creates an accessor whose page translations are cached in `tlb`.
    pub fn with_tlb(
        mem: &'a SharedMem,
        log: &'a SharedAccessLog,
        translate: F,
        tlb: &'a mut SoftTlb,
    ) -> Self {
        TranslatingVaMem {
            mem,
            log,
            translate,
            tlb: Some(tlb),
            segs: Vec::new(),
        }
    }

    /// Translates `[va, va+len)` into `self.segs`. `for_write` additionally
    /// demands the writable permission. Returns the faulting VA on error.
    fn plan(&mut self, va: u64, len: usize, for_write: bool) -> Result<(), u64> {
        self.segs.clear();
        let mut done = 0usize;
        while done < len {
            let cur_va = va + done as u64;
            let page_va = cur_va & !(PAGE_SIZE as u64 - 1);
            let in_page = (PAGE_SIZE as u64 - (cur_va - page_va)) as usize;
            let chunk = in_page.min(len - done);
            let (page_pa, writable) =
                resolve(&mut self.tlb, &mut self.translate, page_va).ok_or(cur_va)?;
            if for_write && !writable {
                return Err(cur_va);
            }
            self.segs.push(Segment {
                pa: page_pa + (cur_va - page_va),
                off: done,
                len: chunk,
            });
            done += chunk;
        }
        Ok(())
    }
}

impl<F> VaMem for TranslatingVaMem<'_, F>
where
    F: FnMut(u64) -> Option<(u64, bool)>,
{
    fn read_bytes(&mut self, va: u64, len: usize) -> Result<Vec<u8>, u64> {
        self.log.note_read(va, len as u64);
        // `len` comes from a kernel op: translate the whole range before
        // allocating for it, so an unmapped claim faults without a buffer.
        self.plan(va, len, false)?;
        let mut out = vec![0u8; len];
        let g = self.mem.read_guard();
        for s in &self.segs {
            g.read(s.pa, &mut out[s.off..s.off + s.len])
                .map_err(|_| va + s.off as u64)?;
        }
        Ok(out)
    }

    fn write_bytes(&mut self, va: u64, data: &[u8]) -> Result<(), u64> {
        self.plan(va, data.len(), true)?;
        let mut g = self.mem.write_guard();
        for s in &self.segs {
            g.write(s.pa, &data[s.off..s.off + s.len])
                .map_err(|_| va + s.off as u64)?;
        }
        self.log.note_write(va, data.len() as u64);
        Ok(())
    }

    fn read_f32s_into(&mut self, va: u64, n: usize, out: &mut Vec<f32>) -> Result<(), u64> {
        self.log.note_read(va, (n * 4) as u64);
        // Zero-copy: decode straight out of guarded DRAM into the caller's
        // f32 buffer — no byte staging pass at all. f32s that straddle a
        // page boundary are stitched through a 4-byte carry.
        self.plan(va, n * 4, false)?;
        let g = self.mem.read_guard();
        out.clear();
        out.reserve(n);
        let mut carry = [0u8; 4];
        let mut carry_len = 0usize;
        for s in &self.segs {
            let mut sl = g.slice(s.pa, s.len).map_err(|_| va + s.off as u64)?;
            if carry_len > 0 {
                // Segments after the first are page-sized and the total is
                // n*4, so the carry always fills to a whole f32 here.
                let take = 4 - carry_len;
                carry[carry_len..].copy_from_slice(&sl[..take]);
                out.push(f32::from_le_bytes(carry));
                sl = &sl[take..];
            }
            let whole = sl.len() & !3;
            out.extend(
                sl[..whole]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4"))),
            );
            let rem = &sl[whole..];
            carry[..rem.len()].copy_from_slice(rem);
            carry_len = rem.len();
        }
        assert_eq!(carry_len, 0, "n*4 bytes always drain the carry");
        Ok(())
    }

    fn read_runs(&mut self, va: u64, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<(), u64> {
        // Same plan and fault VAs as `read_f32s_into`, and every segment
        // is bounds-checked before the first run goes out, so a fault
        // never follows a partial stream.
        self.log.note_read(va, len as u64);
        self.plan(va, len, false)?;
        let g = self.mem.read_guard();
        if let Some(s) = self.segs.iter().find(|s| !g.contains(s.pa, s.len)) {
            return Err(va + s.off as u64);
        }
        let mut rest = &self.segs[..];
        while let Some(first) = rest.first() {
            // Page segments that are adjacent in DRAM make one run.
            let mut run_len = first.len;
            let mut used = 1;
            while rest
                .get(used)
                .is_some_and(|s| s.pa == first.pa + run_len as u64)
            {
                run_len += rest[used].len;
                used += 1;
            }
            f(g.slice(first.pa, run_len)
                .map_err(|_| va + first.off as u64)?);
            rest = &rest[used..];
        }
        Ok(())
    }

    fn write_f32s(&mut self, va: u64, vals: &[f32]) -> Result<(), u64> {
        // Zero-copy: encode straight into guarded DRAM.
        self.plan(va, vals.len() * 4, true)?;
        let mut g = self.mem.write_guard();
        for s in &self.segs {
            let dst = g.slice_mut(s.pa, s.len).map_err(|_| va + s.off as u64)?;
            if s.off % 4 == 0 && s.len % 4 == 0 {
                for (c, v) in dst.chunks_exact_mut(4).zip(&vals[s.off / 4..]) {
                    c.copy_from_slice(&v.to_le_bytes());
                }
            } else {
                // An f32 straddles this segment's edge: byte-wise fallback.
                for (i, b) in dst.iter_mut().enumerate() {
                    let byte = s.off + i;
                    *b = vals[byte / 4].to_le_bytes()[byte % 4];
                }
            }
        }
        self.log.note_write(va, (vals.len() * 4) as u64);
        Ok(())
    }

    fn check_write(&mut self, va: u64, len: usize) -> Result<(), u64> {
        self.plan(va, len, true)
    }
}

/// A page as a device's MMU resolves it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageMapping {
    /// Physical address of the page.
    pub(crate) pa: u64,
    /// Kernels may store to the page.
    pub(crate) write: bool,
    /// Job binaries (descriptors, lists, shader blobs) may be fetched from
    /// the page. v3d has no exec bit, so every valid v3d mapping sets it.
    pub(crate) exec: bool,
}

/// A device's page-table walk for its active address space.
pub(crate) trait PageWalk {
    /// Resolves `page_va`; `None` when it is unmapped or the MMU is off.
    fn walk(&self, mem: &SharedMem, page_va: u64) -> Option<PageMapping>;
}

/// Why a job failed, in terms both GPU families share. Each device maps
/// it to its own registers: Mali to `AS_FAULT_*` and `JOB_IRQ_FAIL0`,
/// v3d to `INT_MMU_FAULT` and `ERR_BAD_CL`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobFault {
    /// `va` has no valid translation, is written while read-only, or is
    /// backed by a frame outside DRAM.
    Translation {
        /// Faulting virtual address.
        va: u64,
    },
    /// A job binary was fetched from `va`, which is mapped but not
    /// executable.
    Permission {
        /// Faulting virtual address.
        va: u64,
    },
    /// A descriptor, list or shader blob did not decode, or an op's
    /// parameters were inconsistent.
    Malformed,
}

/// One job's view of GPU memory: DRAM, the device's page-table walk and
/// the access log every fetch and kernel access is noted in.
pub(crate) struct JobMem<W> {
    mem: SharedMem,
    log: SharedAccessLog,
    walk: W,
}

impl<W: PageWalk> JobMem<W> {
    /// Fetches `len` bytes of a job binary at `va`. Every page must be
    /// mapped executable: this is the hardware behaviour behind the
    /// paper's §6.1 dump heuristic. Fetches walk the page tables rather
    /// than the [`SoftTlb`], so a PTE corrupted since the last job faults
    /// here.
    ///
    /// # Errors
    ///
    /// [`JobFault::Translation`] or [`JobFault::Permission`] at the first
    /// byte of the offending page.
    pub(crate) fn fetch(&self, va: u64, len: usize) -> Result<Vec<u8>, JobFault> {
        self.log.note_read(va, len as u64);
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let cur = va + done as u64;
            let page_va = cur & !(PAGE_SIZE as u64 - 1);
            let page = self
                .walk
                .walk(&self.mem, page_va)
                .ok_or(JobFault::Translation { va: cur })?;
            if !page.exec {
                return Err(JobFault::Permission { va: cur });
            }
            let chunk = ((PAGE_SIZE as u64 - (cur - page_va)) as usize).min(len - done);
            self.mem
                .read(page.pa + (cur - page_va), &mut out[done..done + chunk])
                .map_err(|_| JobFault::Translation { va: cur })?;
            done += chunk;
        }
        Ok(out)
    }
}

/// Completion events on a device timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A soft reset settles.
    Reset,
    /// A cache flush finishes.
    Flush,
    /// The running job (a Mali chain, a v3d control list) completes.
    Job,
}

/// The device state both GPU families share below their register
/// front-ends: machine handles, the device timeline, the translation
/// cache, the job counter and the §7.2 fault state.
pub(crate) struct DevCore {
    /// Static SKU description.
    pub(crate) sku: &'static GpuSku,
    /// The machine's virtual clock.
    pub(crate) clock: SimClock,
    /// DRAM, where the page tables and every job binary live.
    pub(crate) mem: SharedMem,
    irq: IrqController,
    /// The access log every job fetch and kernel access is noted in.
    pub(crate) access: SharedAccessLog,
    pmc: SharedPmc,
    rng: SimRng,
    events: EventQueue<Event>,
    tlb: SoftTlb,
    scratch: ExecScratch,
    jobs_completed: u64,
    /// A soft reset is settling.
    pub(crate) resetting: bool,
    /// Cache flushes in flight.
    pub(crate) flushing: u32,
    /// Cores were offlined while idle: the next job to start fails.
    /// Survives resets until a job consumes it.
    pub(crate) glitch_armed: bool,
    /// Cores were offlined under the running job: it fails at
    /// completion. Cleared by reset.
    pub(crate) offline_pending: bool,
}

impl DevCore {
    /// A powered-off device core with a fresh, disarmed access log.
    pub(crate) fn new(
        sku: &'static GpuSku,
        clock: SimClock,
        mem: SharedMem,
        irq: IrqController,
        pmc: SharedPmc,
        rng: SimRng,
    ) -> Self {
        DevCore {
            sku,
            clock,
            mem,
            irq,
            access: SharedAccessLog::new(),
            pmc,
            rng,
            events: EventQueue::new(),
            tlb: SoftTlb::new(),
            scratch: ExecScratch::new(),
            jobs_completed: 0,
            resetting: false,
            flushing: 0,
            glitch_armed: false,
            offline_pending: false,
        }
    }

    /// Raises or clears interrupt `line`.
    pub(crate) fn set_irq(&self, line: IrqLine, raised: bool) {
        if raised {
            self.irq.raise(line);
        } else {
            self.irq.clear(line);
        }
    }

    /// Both GPU power domains are on and settled.
    pub(crate) fn power_stable(&self) -> bool {
        self.pmc.is_stable(PmcDomain::GpuCore) && self.pmc.is_stable(PmcDomain::GpuMem)
    }

    /// The job-memory view through `walk`, the device's active address
    /// space.
    pub(crate) fn job_mem<W: PageWalk>(&self, walk: W) -> JobMem<W> {
        JobMem {
            mem: self.mem.clone(),
            log: self.access.clone(),
            walk,
        }
    }

    /// Drops every cached translation and bumps the GPU epoch, so
    /// warm-residency anchors taken under the old translations are stale
    /// too. Called on reset, address-space switch, MMU reconfiguration
    /// and TLB shootdown.
    pub(crate) fn invalidate_translations(&mut self) {
        self.tlb.flush();
        self.mem.bump_gpu_epoch();
    }

    /// Starts a soft reset, or returns `false` while the power domains
    /// are not stable. Drops every pending event and the pending offline
    /// fault (an armed glitch survives), invalidates translations and
    /// settles after [`timing::SOFT_RESET_DELAY`].
    pub(crate) fn reset(&mut self) -> bool {
        if !self.power_stable() {
            return false;
        }
        self.events.clear();
        self.resetting = true;
        self.flushing = 0;
        self.offline_pending = false;
        self.invalidate_translations();
        self.events
            .schedule(self.clock.now() + timing::SOFT_RESET_DELAY, Event::Reset);
        true
    }

    /// Starts a cache flush of jittered duration.
    pub(crate) fn flush(&mut self) {
        let d = timing::flush_delay(&mut self.rng);
        self.flushing += 1;
        self.events.schedule(self.clock.now() + d, Event::Flush);
    }

    /// Drops every pending event (a preempted job never completes).
    pub(crate) fn drop_events(&mut self) {
        self.events.clear();
    }

    /// Schedules completion of a job made of sub-jobs of `costs` on
    /// `cores` shader cores at the current clock: modelled duration, then
    /// jitter, then IRQ latency. Returns `false`, scheduling nothing,
    /// when the job can never complete (no core or no clock).
    pub(crate) fn schedule_job(
        &mut self,
        costs: impl Iterator<Item = JobCost>,
        cores: u32,
    ) -> bool {
        let (cost, sub_jobs) = costs.fold((JobCost::default(), 0), |(t, n), c| (t + c, n + 1));
        let mhz = self.pmc.clock_mhz(PmcDomain::GpuCore);
        let d = timing::job_duration(cost, sub_jobs, cores, mhz, self.sku);
        let d = timing::jittered(d, &mut self.rng) + timing::IRQ_LATENCY;
        if d == SimDuration::MAX {
            return false;
        }
        self.events.schedule(self.clock.now() + d, Event::Job);
        true
    }

    /// Pops the next event due now, after settling a reset or retiring a
    /// flush on the core's side.
    pub(crate) fn pop_due(&mut self) -> Option<Event> {
        let ev = self.events.pop_due(self.clock.now())?;
        match ev {
            Event::Reset => self.resetting = false,
            Event::Flush => self.flushing = self.flushing.saturating_sub(1),
            Event::Job => {}
        }
        Some(ev)
    }

    /// Instant of the next scheduled event, if any.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.events.next_time()
    }

    /// A reset or cache flush is in flight.
    pub(crate) fn busy(&self) -> bool {
        self.resetting || self.flushing > 0
    }

    /// Successfully completed jobs.
    pub(crate) fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Fetches, decodes and executes each shader blob `(va, len)` in
    /// order through `jm`, counting the job as completed when all ran.
    /// Blob `i + 1` is fetched after blob `i` has run, so outputs always
    /// come from the bytes in memory at completion, and a chain that
    /// faults part-way leaves the earlier blobs' writes in place.
    ///
    /// # Errors
    ///
    /// The first fetch, decode or execution failure.
    pub(crate) fn execute<W: PageWalk>(
        &mut self,
        jm: &JobMem<W>,
        shaders: impl IntoIterator<Item = (u64, usize)>,
    ) -> Result<(), JobFault> {
        let translate = |page_va| {
            jm.walk
                .walk(&jm.mem, page_va)
                .map(|page| (page.pa, page.write))
        };
        let mut vamem = TranslatingVaMem::with_tlb(&jm.mem, &jm.log, translate, &mut self.tlb);
        for (va, len) in shaders {
            let op = KernelOp::decode(&jm.fetch(va, len)?).map_err(|_| JobFault::Malformed)?;
            execute_with(&op, &mut vamem, &mut self.scratch).map_err(|e| match e {
                ExecError::MemFault { va } => JobFault::Translation { va },
                ExecError::BadShader(_) | ExecError::BadParams(_) => JobFault::Malformed,
            })?;
        }
        self.jobs_completed += 1;
        Ok(())
    }

    /// §7.2 core offlining. With a job in flight (`running` is
    /// `Some(hit)`), the job fails at completion when the offlined cores
    /// run it; with none, the next job to start fails instead.
    pub(crate) fn offline_cores(&mut self, running: Option<bool>) {
        match running {
            Some(hit) => self.offline_pending |= hit,
            None => self.glitch_armed = true,
        }
    }

    /// §7.2 PTE corruption: clears the valid bit of the PTE at `pte_pa`,
    /// then drops `va` from the TLB so the fault is observed even if the
    /// translation was cached. Both PTE formats are little-endian with
    /// the valid bit at bit 0, so the bit lives in the PTE's first byte.
    pub(crate) fn corrupt_pte(&mut self, pte_pa: Option<u64>, va: u64) {
        let mut b = [0u8];
        if let Some(pa) = pte_pa.filter(|&pa| self.mem.read(pa, &mut b).is_ok()) {
            let _ = self.mem.write(pa, &[b[0] & !1]);
        }
        self.tlb.invalidate_page(va);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_soc::PhysMem;

    #[test]
    fn translating_accessor_crosses_pages() {
        let mem = SharedMem::new(PhysMem::new(0, 8 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        // Identity translation but remap page 1 -> phys page 4.
        let mut vm = TranslatingVaMem::new(&mem, &log, |page_va| {
            if page_va == PAGE_SIZE as u64 {
                Some((4 * PAGE_SIZE as u64, true))
            } else {
                Some((page_va, true))
            }
        });
        let data: Vec<u8> = (0..100).collect();
        let va = PAGE_SIZE as u64 - 50;
        vm.write_bytes(va, &data).unwrap();
        assert_eq!(vm.read_bytes(va, 100).unwrap(), data);
        // The second half physically landed in page 4.
        assert_eq!(
            mem.read_vec(4 * PAGE_SIZE as u64, 50).unwrap(),
            data[50..].to_vec()
        );
    }

    #[test]
    fn unmapped_page_faults_with_exact_va() {
        let mem = SharedMem::new(PhysMem::new(0, 4 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        let mut vm = TranslatingVaMem::new(&mem, &log, |page_va| {
            if page_va == 0 {
                Some((0, true))
            } else {
                None
            }
        });
        let err = vm.read_bytes(PAGE_SIZE as u64 - 2, 8).unwrap_err();
        assert_eq!(
            err, PAGE_SIZE as u64,
            "fault at first byte of unmapped page"
        );
    }

    #[test]
    fn accessor_notes_reads_before_and_writes_after_success() {
        let pg = PAGE_SIZE as u64;
        let mem = SharedMem::new(PhysMem::new(0, 4 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        log.arm();
        // Page 0 writable, page 1 read-only, every later page unmapped.
        let mut vm = TranslatingVaMem::new(&mem, &log, |page_va| {
            (page_va < 2 * pg).then_some((page_va, page_va == 0))
        });
        vm.write_f32s(0x10, &[1.0, 2.0]).unwrap();
        assert_eq!(vm.write_bytes(pg - 4, &[0; 8]), Err(pg), "read-only page");
        assert_eq!(vm.write_f32s(pg, &[0.0]), Err(pg));
        vm.read_runs(0x10, 8, &mut |_| {}).unwrap();
        vm.read_f32s_into(0x100, 2, &mut Vec::new()).unwrap();
        assert_eq!(vm.read_bytes(2 * pg - 8, 16), Err(2 * pg), "unmapped page");
        let snap = log.snapshot().unwrap();
        assert_eq!(snap.written.intervals(), &[(0x10, 0x18)]);
        assert_eq!(
            snap.first_reads.intervals(),
            &[(0x100, 0x108), (2 * pg - 8, 2 * pg + 8)]
        );
    }

    #[test]
    fn readonly_page_rejects_writes() {
        let mem = SharedMem::new(PhysMem::new(0, 4 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        let mut vm = TranslatingVaMem::new(&mem, &log, |page_va| Some((page_va, false)));
        assert_eq!(vm.write_bytes(16, &[1, 2, 3]), Err(16));
        assert!(vm.read_bytes(16, 3).is_ok(), "reads still allowed");
    }

    #[test]
    fn tlb_caches_translations_and_counts() {
        let mem = SharedMem::new(PhysMem::new(0, 8 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        let mut tlb = SoftTlb::new();
        let mut walks = 0usize;
        {
            let mut vm = TranslatingVaMem::with_tlb(
                &mem,
                &log,
                |page_va| {
                    walks += 1;
                    Some((page_va, true))
                },
                &mut tlb,
            );
            for _ in 0..10 {
                vm.write_bytes(100, &[1, 2, 3]).unwrap();
                assert_eq!(vm.read_bytes(100, 3).unwrap(), vec![1, 2, 3]);
            }
        }
        assert_eq!(walks, 1, "page 0 walked exactly once");
        assert_eq!(tlb.misses(), 1);
        assert_eq!(tlb.hits(), 19);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn tlb_invalidation_forces_rewalk() {
        let mem = SharedMem::new(PhysMem::new(0, 8 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        let mut tlb = SoftTlb::new();
        // Remappable translation: page 0 goes wherever `target` points.
        let target = std::cell::Cell::new(PAGE_SIZE as u64);
        {
            let mut vm = TranslatingVaMem::with_tlb(
                &mem,
                &log,
                |page_va| Some((target.get() + page_va, true)),
                &mut tlb,
            );
            vm.write_bytes(0, &[7]).unwrap();
        }
        assert_eq!(mem.read_vec(PAGE_SIZE as u64, 1).unwrap(), vec![7]);
        // Remap without invalidating: the stale entry still wins.
        target.set(2 * PAGE_SIZE as u64);
        {
            let mut vm = TranslatingVaMem::with_tlb(
                &mem,
                &log,
                |page_va| Some((target.get() + page_va, true)),
                &mut tlb,
            );
            vm.write_bytes(0, &[8]).unwrap();
        }
        assert_eq!(mem.read_vec(PAGE_SIZE as u64, 1).unwrap(), vec![8]);
        // Invalidate: the next access walks and sees the new target.
        tlb.invalidate_page(5);
        {
            let mut vm = TranslatingVaMem::with_tlb(
                &mem,
                &log,
                |page_va| Some((target.get() + page_va, true)),
                &mut tlb,
            );
            vm.write_bytes(0, &[9]).unwrap();
        }
        assert_eq!(mem.read_vec(2 * PAGE_SIZE as u64, 1).unwrap(), vec![9]);
        tlb.flush();
        assert!(tlb.is_empty());
    }

    #[test]
    fn f32_helpers_round_trip_without_alloc_paths() {
        let mem = SharedMem::new(PhysMem::new(0, 8 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        let mut vm = TranslatingVaMem::new(&mem, &log, |page_va| Some((page_va, true)));
        let vals = [1.5f32, -2.25, 1e-8, f32::MAX];
        // Straddle a page boundary on purpose.
        let va = PAGE_SIZE as u64 - 6;
        vm.write_f32s(va, &vals).unwrap();
        let mut back = Vec::new();
        vm.read_f32s_into(va, vals.len(), &mut back).unwrap();
        assert_eq!(back, vals);
    }

    /// VA page `i` → frame `FRAGMENTED[i]`; later pages are unmapped.
    /// Frames 3→4 and 5→6 are adjacent, so they make one run each.
    const FRAGMENTED: [u64; 6] = [9, 3, 4, 12, 5, 6];

    fn fragmented(page_va: u64) -> Option<(u64, bool)> {
        FRAGMENTED
            .get((page_va / PAGE_SIZE as u64) as usize)
            .map(|&frame| (frame * PAGE_SIZE as u64, true))
    }

    /// Collects `read_runs` output as (run lengths, concatenated bytes).
    fn runs_of<M: VaMem>(vm: &mut M, va: u64, len: usize) -> Result<(Vec<usize>, Vec<u8>), u64> {
        let (mut lens, mut bytes) = (Vec::new(), Vec::new());
        vm.read_runs(va, len, &mut |run| {
            lens.push(run.len());
            bytes.extend_from_slice(run);
        })?;
        Ok((lens, bytes))
    }

    #[test]
    fn read_runs_over_fragmented_frames_match_read_f32s_into() {
        let mem = SharedMem::new(PhysMem::new(0, 16 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        let mut vm = TranslatingVaMem::new(&mem, &log, fragmented);
        let pattern: Vec<u8> = (0..6 * PAGE_SIZE)
            .map(|i| (i * 7 + i / 251) as u8)
            .collect();
        vm.write_bytes(0, &pattern).unwrap();
        // Starts mid-page 0, ends mid-page 5.
        let (va, n) = (PAGE_SIZE as u64 - 100, (4 * PAGE_SIZE + 300) / 4);
        let (lens, bytes) = runs_of(&mut vm, va, n * 4).unwrap();
        let pg = PAGE_SIZE;
        assert_eq!(lens, vec![100, 2 * pg, pg, pg + 200]);
        let mut vals = Vec::new();
        vm.read_f32s_into(va, n, &mut vals).unwrap();
        assert_eq!(
            bytes,
            vals.iter()
                .flat_map(|v| v.to_le_bytes())
                .collect::<Vec<_>>()
        );
        assert_eq!(bytes, vm.read_bytes(va, n * 4).unwrap());
    }

    #[test]
    fn read_runs_fault_at_the_read_f32s_into_va_before_any_run() {
        let mem = SharedMem::new(PhysMem::new(0, 8 * PAGE_SIZE));
        let log = SharedAccessLog::new();
        // Page 2 unmapped mid-range.
        let mut vm = TranslatingVaMem::new(&mem, &log, |page_va| {
            (page_va != 2 * PAGE_SIZE as u64).then_some((page_va, true))
        });
        let (va, n) = (PAGE_SIZE as u64 + 8, PAGE_SIZE / 2);
        let mut calls = 0;
        let err = vm.read_runs(va, n * 4, &mut |_| calls += 1).unwrap_err();
        assert_eq!(err, 2 * PAGE_SIZE as u64);
        assert_eq!(Err(err), vm.read_f32s_into(va, n, &mut Vec::new()));
        assert_eq!(calls, 0, "no run before the fault");
        // Page 2 mapped to a frame outside DRAM and not adjacent to page
        // 1's: it faults the same way, still before page 1's run goes out.
        let mut vm = TranslatingVaMem::new(&mem, &log, |page_va| {
            let outside = page_va == 2 * PAGE_SIZE as u64;
            Some((
                if outside {
                    100 * PAGE_SIZE as u64
                } else {
                    page_va
                },
                true,
            ))
        });
        let err = vm.read_runs(va, n * 4, &mut |_| calls += 1).unwrap_err();
        assert_eq!(err, 2 * PAGE_SIZE as u64);
        assert_eq!(Err(err), vm.read_f32s_into(va, n, &mut Vec::new()));
        assert_eq!(calls, 0);
    }
}
