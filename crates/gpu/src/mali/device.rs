//! The Mali-like GPU device model.
//!
//! Implements the family protocol the paper's Table 1 knowledge captures:
//! job start via `JS0_HEAD`/`JS0_COMMAND`, page tables behind
//! `AS0_TRANSTAB`/`AS0_COMMAND`, soft reset via `GPU_COMMAND`, three IRQ
//! lines (job / MMU / GPU), and a double-buffered job slot (`*_NEXT`
//! registers) giving the depth-2 queue the paper disables for record
//! determinism.

use gr_sim::{EventQueue, SimClock, SimRng, SimTime};
use gr_soc::{IrqController, SharedMem, SharedPmc};

use crate::device::{GpuDev, SoftTlb, TranslatingVaMem};
use crate::fastpath;
use crate::faults::FaultKind;
use crate::mali::jobs::{JobHeader, JOB_HEADER_SIZE, MAX_CHAIN_LEN};
use crate::mali::pgtable;
use crate::mali::regs::{self as r, irq_lines};
use crate::sku::GpuSku;
use crate::timing::{self, JobCost};
use crate::vm::bytecode::KernelOp;
use crate::vm::exec::{execute_with, ExecError, ExecScratch};
use gr_soc::pmc::PmcDomain;

/// Completion events on the device timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Reset,
    Flush,
    Job,
}

#[derive(Debug, Clone, Copy)]
struct RunningJob {
    head_va: u64,
    affinity: u32,
}

#[derive(Debug, Clone, Copy)]
struct QueuedJob {
    head_va: u64,
    affinity: u32,
}

/// Chain parsed and shaders decoded at submit time, so completion does
/// not re-fetch and re-decode the same (hardware-owned) job memory.
struct CachedChain {
    head_va: u64,
    ops: Vec<KernelOp>,
}

/// The Mali-like device. One job slot (double-buffered), one address space.
pub struct MaliGpu {
    sku: &'static GpuSku,
    clock: SimClock,
    mem: SharedMem,
    irq: IrqController,
    pmc: SharedPmc,
    rng: SimRng,

    access: crate::access::SharedAccessLog,

    gpu_rawstat: u32,
    gpu_mask: u32,
    job_rawstat: u32,
    job_mask: u32,
    mmu_rawstat: u32,
    mmu_mask: u32,
    gpu_faultstatus: u32,

    shader_pwron: u32,
    shader_ready_at: SimTime,

    transtab_staged: u64,
    transcfg_staged: u32,
    transtab_active: u64,
    transcfg_active: u32,

    as_faultstatus: u32,
    as_faultaddr: u64,

    js_head: u64,
    js_affinity: u32,
    js_config: u32,
    js_status: u32,
    js_head_next: u64,
    js_affinity_next: u32,
    queued: Option<QueuedJob>,

    running: Option<RunningJob>,
    events: EventQueue<Event>,
    resetting: bool,
    flushing: u32,

    offline_mask: u32,
    job_fault_pending: bool,
    glitch_armed: bool,
    jobs_completed: u64,

    tlb: SoftTlb,
    scratch: ExecScratch,
    cached_chain: Option<CachedChain>,
}

impl std::fmt::Debug for MaliGpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaliGpu")
            .field("sku", &self.sku.name)
            .field("busy", &self.running.is_some())
            .field("jobs_completed", &self.jobs_completed)
            .finish()
    }
}

enum ChainFault {
    Mmu { va: u64, code: u32 },
    BadJob,
}

impl MaliGpu {
    /// Creates a powered-off device.
    pub fn new(
        sku: &'static GpuSku,
        clock: SimClock,
        mem: SharedMem,
        irq: IrqController,
        pmc: SharedPmc,
        rng: SimRng,
    ) -> Self {
        MaliGpu {
            sku,
            clock,
            mem,
            irq,
            pmc,
            rng,
            access: crate::access::SharedAccessLog::new(),
            gpu_rawstat: 0,
            gpu_mask: 0,
            job_rawstat: 0,
            job_mask: 0,
            mmu_rawstat: 0,
            mmu_mask: 0,
            gpu_faultstatus: 0,
            shader_pwron: 0,
            shader_ready_at: SimTime::ZERO,
            transtab_staged: 0,
            transcfg_staged: 0,
            transtab_active: 0,
            transcfg_active: 0,
            as_faultstatus: 0,
            as_faultaddr: 0,
            js_head: 0,
            js_affinity: 0,
            js_config: 0,
            js_status: r::JS_STATUS_IDLE,
            js_head_next: 0,
            js_affinity_next: 0,
            queued: None,
            running: None,
            events: EventQueue::new(),
            resetting: false,
            flushing: 0,
            offline_mask: 0,
            job_fault_pending: false,
            glitch_armed: false,
            jobs_completed: 0,
            tlb: SoftTlb::new(),
            scratch: ExecScratch::new(),
            cached_chain: None,
        }
    }

    fn present_mask(&self) -> u32 {
        (1u32 << self.sku.cores) - 1
    }

    fn power_stable(&self) -> bool {
        self.pmc.is_stable(PmcDomain::GpuCore) && self.pmc.is_stable(PmcDomain::GpuMem)
    }

    fn update_irq_lines(&self) {
        let pairs = [
            (self.job_rawstat & self.job_mask, irq_lines::JOB),
            (self.mmu_rawstat & self.mmu_mask, irq_lines::MMU),
            (self.gpu_rawstat & self.gpu_mask, irq_lines::GPU),
        ];
        for (pending, line) in pairs {
            if pending != 0 {
                self.irq.raise(line);
            } else {
                self.irq.clear(line);
            }
        }
    }

    fn mmu_enabled(&self) -> bool {
        self.transcfg_active & r::TRANSCFG_ENABLE != 0
    }

    /// Page-wise translation honoring this SKU's PTE format. Fetching
    /// binaries additionally requires the exec permission; see
    /// [`MaliGpu::fetch_binary`].
    fn translate_page(&self, page_va: u64) -> Option<(u64, pgtable::PteFlags)> {
        if !self.mmu_enabled() {
            return None;
        }
        pgtable::translate(
            &self.mem,
            self.sku.pte_format,
            self.transtab_active,
            page_va,
        )
    }

    fn fetch_binary(&self, va: u64, len: usize) -> Result<Vec<u8>, ChainFault> {
        // Binaries (job headers, shader blobs) must come from pages mapped
        // executable — this is the hardware behaviour behind the paper's
        // §6.1 dump heuristic.
        self.access.note_read(va, len as u64);
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let cur = va + done as u64;
            let page_va = cur & !(gr_soc::PAGE_SIZE as u64 - 1);
            let (pa_page, flags) = self.translate_page(page_va).ok_or(ChainFault::Mmu {
                va: cur,
                code: r::AS_FAULT_TRANSLATION,
            })?;
            if !flags.exec {
                return Err(ChainFault::Mmu {
                    va: cur,
                    code: r::AS_FAULT_PERMISSION,
                });
            }
            let in_page = (gr_soc::PAGE_SIZE as u64 - (cur - page_va)) as usize;
            let chunk = in_page.min(len - done);
            self.mem
                .read(pa_page + (cur - page_va), &mut out[done..done + chunk])
                .map_err(|_| ChainFault::Mmu {
                    va: cur,
                    code: r::AS_FAULT_TRANSLATION,
                })?;
            done += chunk;
        }
        Ok(out)
    }

    fn parse_chain(&self, head_va: u64) -> Result<Vec<JobHeader>, ChainFault> {
        let mut headers = Vec::new();
        let mut va = head_va;
        while va != 0 {
            if headers.len() >= MAX_CHAIN_LEN {
                return Err(ChainFault::BadJob);
            }
            let bytes = self.fetch_binary(va, JOB_HEADER_SIZE)?;
            let h = JobHeader::decode(&bytes).ok_or(ChainFault::BadJob)?;
            va = h.next_va;
            headers.push(h);
        }
        Ok(headers)
    }

    fn chain_duration(&mut self, headers: &[JobHeader], affinity: u32) -> gr_sim::SimDuration {
        let total = headers
            .iter()
            .fold(JobCost::default(), |acc, h| acc + h.cost);
        let active = (affinity & self.present_mask() & !self.offline_mask).count_ones();
        let mhz = self.pmc.clock_mhz(PmcDomain::GpuCore);
        let d = timing::job_duration(total, headers.len() as u32, active, mhz, self.sku);
        timing::jittered(d, &mut self.rng) + timing::IRQ_LATENCY
    }

    fn raise_job_fault(&mut self) {
        self.job_rawstat |= r::JOB_IRQ_FAIL0;
        self.js_status = r::JS_STATUS_FAULT;
        self.running = None;
        self.queued = None;
        self.update_irq_lines();
    }

    fn raise_mmu_fault(&mut self, va: u64, code: u32) {
        self.mmu_rawstat |= 1;
        self.as_faultaddr = va;
        self.as_faultstatus = code;
        self.raise_job_fault();
    }

    fn start_job(&mut self, head_va: u64, affinity: u32) {
        if !self.power_stable() {
            self.gpu_faultstatus = r::GPU_FAULT_POWER;
            return;
        }
        if self.glitch_armed {
            // A transient core glitch (fault injection): the next started
            // job fails; the glitch then clears, so re-execution succeeds.
            self.glitch_armed = false;
            self.raise_job_fault();
            return;
        }
        if self.resetting || self.running.is_some() {
            self.gpu_faultstatus = r::GPU_FAULT_BUSY;
            return;
        }
        // SKU-specific MMU configuration expectations (§6.4): G71 requires
        // read-allocate caching; G31/G52 reject it.
        let rd_alloc = self.transcfg_active & r::TRANSCFG_RD_ALLOC != 0;
        if rd_alloc != self.sku.requires_rd_alloc {
            self.raise_mmu_fault(0, r::AS_FAULT_BAD_CONFIG);
            return;
        }
        let headers = match self.parse_chain(head_va) {
            Ok(h) => h,
            Err(ChainFault::Mmu { va, code }) => {
                self.raise_mmu_fault(va, code);
                return;
            }
            Err(ChainFault::BadJob) => {
                self.raise_job_fault();
                return;
            }
        };
        let ready = self.shader_ready();
        if affinity & ready == 0 {
            // No powered core can run the job.
            self.raise_job_fault();
            return;
        }
        let dur = self.chain_duration(&headers, affinity);
        if dur == gr_sim::SimDuration::MAX {
            self.raise_job_fault();
            return;
        }
        // Fast path: fetch + decode every shader once at submit. Completion
        // reuses the decoded ops instead of re-walking job memory. On any
        // fetch/decode problem fall back to the completion-time path so
        // fault timing is unchanged.
        self.cached_chain = None;
        if fastpath::enabled() {
            let ops: Option<Vec<KernelOp>> = headers
                .iter()
                .map(|h| {
                    let blob = self.fetch_binary(h.shader_va, h.shader_len as usize).ok()?;
                    KernelOp::decode(&blob).ok()
                })
                .collect();
            if let Some(ops) = ops {
                self.cached_chain = Some(CachedChain { head_va, ops });
            }
        }
        self.running = Some(RunningJob { head_va, affinity });
        self.js_status = r::JS_STATUS_ACTIVE;
        let done_at = self.clock.now() + dur;
        self.events.schedule(done_at, Event::Job);
    }

    fn execute_chain_now(&mut self, head_va: u64) -> Result<(), ChainFault> {
        fn to_fault(e: ExecError) -> ChainFault {
            match e {
                ExecError::MemFault { va } => ChainFault::Mmu {
                    va,
                    code: r::AS_FAULT_TRANSLATION,
                },
                _ => ChainFault::BadJob,
            }
        }
        let transtab = self.transtab_active;
        let fmt = self.sku.pte_format;
        let enabled = self.mmu_enabled();
        let mem = self.mem.clone();
        let translate = |page_va: u64| {
            if !enabled {
                return None;
            }
            pgtable::translate(&mem, fmt, transtab, page_va).map(|(pa, fl)| (pa, fl.write))
        };
        // Decoded ops cached at submit (one per sub-job). The cache is
        // only populated when every blob decoded, so using it cannot skip
        // a fetch/decode fault the slow path would have raised.
        if let Some(c) = self.cached_chain.take() {
            if c.head_va == head_va && fastpath::enabled() {
                let mut vamem = TranslatingVaMem::with_tlb(&mem, translate, &mut self.tlb);
                let mut vamem = crate::access::LoggingVaMem {
                    inner: &mut vamem,
                    log: &self.access,
                };
                for op in &c.ops {
                    execute_with(op, &mut vamem, &mut self.scratch).map_err(to_fault)?;
                }
                return Ok(());
            }
        }
        // Slow path: fetch/decode/execute one sub-job at a time, exactly
        // like the pre-fast-path code, so partial execution and fault
        // ordering for mixed-validity chains are unchanged.
        let headers = self.parse_chain(head_va)?;
        for h in headers {
            let blob = self.fetch_binary(h.shader_va, h.shader_len as usize)?;
            let op = KernelOp::decode(&blob).map_err(|_| ChainFault::BadJob)?;
            let mut vamem = if fastpath::enabled() {
                TranslatingVaMem::with_tlb(&mem, translate, &mut self.tlb)
            } else {
                TranslatingVaMem::legacy(&mem, translate)
            };
            let mut vamem = crate::access::LoggingVaMem {
                inner: &mut vamem,
                log: &self.access,
            };
            execute_with(&op, &mut vamem, &mut self.scratch).map_err(to_fault)?;
        }
        Ok(())
    }

    fn complete_job(&mut self) {
        let Some(job) = self.running.take() else {
            return;
        };
        if self.job_fault_pending || job.affinity & !self.offline_mask & self.present_mask() == 0 {
            // Cores went away mid-flight (§7.2 fault injection).
            self.job_fault_pending = false;
            self.raise_job_fault();
            return;
        }
        match self.execute_chain_now(job.head_va) {
            Ok(()) => {
                self.jobs_completed += 1;
                self.job_rawstat |= r::JOB_IRQ_DONE0;
                self.js_status = r::JS_STATUS_COMPLETED;
                self.update_irq_lines();
                // Promote the double-buffered next job with no CPU round
                // trip — the async pipelining Fig. 3 measures.
                if let Some(q) = self.queued.take() {
                    self.js_head = q.head_va;
                    self.js_affinity = q.affinity;
                    self.start_job(q.head_va, q.affinity);
                }
            }
            Err(ChainFault::Mmu { va, code }) => self.raise_mmu_fault(va, code),
            Err(ChainFault::BadJob) => self.raise_job_fault(),
        }
    }

    fn shader_ready(&self) -> u32 {
        if self.clock.now() >= self.shader_ready_at {
            self.shader_pwron & !self.offline_mask
        } else {
            0
        }
    }

    fn soft_reset(&mut self) {
        self.events.clear();
        self.running = None;
        self.queued = None;
        self.job_fault_pending = false;
        self.offline_mask = 0;
        self.gpu_rawstat = 0;
        self.job_rawstat = 0;
        self.mmu_rawstat = 0;
        self.gpu_faultstatus = 0;
        self.as_faultstatus = 0;
        self.as_faultaddr = 0;
        self.js_status = r::JS_STATUS_IDLE;
        self.js_head = 0;
        self.js_head_next = 0;
        self.transtab_active = 0;
        self.transcfg_active = 0;
        self.transtab_staged = 0;
        self.transcfg_staged = 0;
        self.shader_pwron = 0;
        self.flushing = 0;
        self.tlb.flush();
        // Reset invalidates every outstanding warm-residency mark, the
        // same way it invalidates cached translations.
        self.mem.bump_dirty_epoch();
        self.cached_chain = None;
        self.resetting = true;
        self.update_irq_lines();
        self.events
            .schedule(self.clock.now() + timing::SOFT_RESET_DELAY, Event::Reset);
    }
}

impl GpuDev for MaliGpu {
    fn read32(&mut self, off: u32) -> u32 {
        self.tick();
        match off {
            r::GPU_ID => self.sku.gpu_id,
            r::GPU_STATUS => {
                let mut v = 0;
                if self.running.is_some() {
                    v |= 1;
                }
                if self.resetting || self.flushing > 0 {
                    v |= 2;
                }
                v
            }
            r::GPU_IRQ_RAWSTAT => self.gpu_rawstat,
            r::GPU_IRQ_MASK => self.gpu_mask,
            r::GPU_IRQ_STATUS => self.gpu_rawstat & self.gpu_mask,
            r::GPU_FAULTSTATUS => self.gpu_faultstatus,
            r::SHADER_PRESENT => self.present_mask(),
            r::SHADER_READY => self.shader_ready(),
            r::MMU_IRQ_RAWSTAT => self.mmu_rawstat,
            r::MMU_IRQ_MASK => self.mmu_mask,
            r::MMU_IRQ_STATUS => self.mmu_rawstat & self.mmu_mask,
            r::AS0_TRANSTAB_LO => self.transtab_staged as u32,
            r::AS0_TRANSTAB_HI => (self.transtab_staged >> 32) as u32,
            r::AS0_TRANSCFG => self.transcfg_staged,
            r::AS0_STATUS => 0,
            r::AS0_FAULTSTATUS => self.as_faultstatus,
            r::AS0_FAULTADDR_LO => self.as_faultaddr as u32,
            r::AS0_FAULTADDR_HI => (self.as_faultaddr >> 32) as u32,
            r::JOB_IRQ_RAWSTAT => self.job_rawstat,
            r::JOB_IRQ_MASK => self.job_mask,
            r::JOB_IRQ_STATUS => self.job_rawstat & self.job_mask,
            r::JS0_HEAD_LO => self.js_head as u32,
            r::JS0_HEAD_HI => (self.js_head >> 32) as u32,
            r::JS0_AFFINITY => self.js_affinity,
            r::JS0_CONFIG => self.js_config,
            r::JS0_STATUS => self.js_status,
            r::JS0_HEAD_NEXT_LO => self.js_head_next as u32,
            r::JS0_HEAD_NEXT_HI => (self.js_head_next >> 32) as u32,
            r::JS0_AFFINITY_NEXT => self.js_affinity_next,
            _ => 0,
        }
    }

    fn write32(&mut self, off: u32, val: u32) {
        self.tick();
        match off {
            r::GPU_IRQ_CLEAR => {
                self.gpu_rawstat &= !val;
                self.update_irq_lines();
            }
            r::GPU_IRQ_MASK => {
                self.gpu_mask = val;
                self.update_irq_lines();
            }
            r::GPU_COMMAND => match val {
                r::GPU_CMD_SOFT_RESET | r::GPU_CMD_HARD_RESET => {
                    if self.power_stable() {
                        self.soft_reset();
                    } else {
                        self.gpu_faultstatus = r::GPU_FAULT_POWER;
                    }
                }
                r::GPU_CMD_CLEAN_CACHES | r::GPU_CMD_CLEAN_INV_CACHES => {
                    let d = timing::flush_delay(&mut self.rng);
                    self.flushing += 1;
                    self.events.schedule(self.clock.now() + d, Event::Flush);
                }
                _ => {}
            },
            r::SHADER_PWRON => {
                self.shader_pwron |= val & self.present_mask();
                self.shader_ready_at = self.clock.now() + timing::CORE_POWERUP_DELAY;
            }
            r::SHADER_PWROFF => {
                self.shader_pwron &= !val;
            }
            r::MMU_IRQ_CLEAR => {
                self.mmu_rawstat &= !val;
                self.update_irq_lines();
            }
            r::MMU_IRQ_MASK => {
                self.mmu_mask = val;
                self.update_irq_lines();
            }
            r::AS0_TRANSTAB_LO => {
                self.transtab_staged = (self.transtab_staged & !0xFFFF_FFFF) | u64::from(val);
            }
            r::AS0_TRANSTAB_HI => {
                self.transtab_staged =
                    (self.transtab_staged & 0xFFFF_FFFF) | (u64::from(val) << 32);
            }
            r::AS0_TRANSCFG => self.transcfg_staged = val,
            r::AS0_COMMAND if val == r::AS_CMD_UPDATE => {
                self.transtab_active = self.transtab_staged;
                self.transcfg_active = self.transcfg_staged;
                // Address-space switch: cached translations and shaders
                // decoded under the old translation are both stale, and so
                // is any warm-residency mark taken under the old space.
                self.tlb.flush();
                self.mem.bump_dirty_epoch();
                self.cached_chain = None;
            }
            // AS_CMD_FLUSH: TLB shootdown, instantaneous in the model.
            // Issued on unmap, where the freed frames may be recycled —
            // outstanding residency marks are no longer trustworthy.
            r::AS0_COMMAND if val == r::AS_CMD_FLUSH => {
                self.tlb.flush();
                self.mem.bump_dirty_epoch();
                self.cached_chain = None;
            }
            r::JOB_IRQ_CLEAR => {
                self.job_rawstat &= !val;
                self.update_irq_lines();
            }
            r::JOB_IRQ_MASK => {
                self.job_mask = val;
                self.update_irq_lines();
            }
            r::JS0_HEAD_LO => self.js_head = (self.js_head & !0xFFFF_FFFF) | u64::from(val),
            r::JS0_HEAD_HI => self.js_head = (self.js_head & 0xFFFF_FFFF) | (u64::from(val) << 32),
            r::JS0_AFFINITY => self.js_affinity = val,
            r::JS0_CONFIG => self.js_config = val,
            r::JS0_COMMAND => match val {
                r::JS_CMD_START => self.start_job(self.js_head, self.js_affinity),
                r::JS_CMD_SOFT_STOP | r::JS_CMD_HARD_STOP => {
                    // Preemption: abandon the running job without completion.
                    self.events.clear();
                    self.running = None;
                    self.queued = None;
                    self.cached_chain = None;
                    self.js_status = r::JS_STATUS_IDLE;
                }
                _ => {}
            },
            r::JS0_HEAD_NEXT_LO => {
                self.js_head_next = (self.js_head_next & !0xFFFF_FFFF) | u64::from(val)
            }
            r::JS0_HEAD_NEXT_HI => {
                self.js_head_next = (self.js_head_next & 0xFFFF_FFFF) | (u64::from(val) << 32)
            }
            r::JS0_AFFINITY_NEXT => self.js_affinity_next = val,
            r::JS0_COMMAND_NEXT if val == r::JS_CMD_START => {
                if self.running.is_none() {
                    self.js_head = self.js_head_next;
                    self.js_affinity = self.js_affinity_next;
                    self.start_job(self.js_head_next, self.js_affinity_next);
                } else if self.queued.is_none() {
                    self.queued = Some(QueuedJob {
                        head_va: self.js_head_next,
                        affinity: self.js_affinity_next,
                    });
                } else {
                    self.gpu_faultstatus = r::GPU_FAULT_BUSY;
                }
            }
            _ => {}
        }
    }

    fn tick(&mut self) {
        let now = self.clock.now();
        while let Some(ev) = self.events.pop_due(now) {
            match ev {
                Event::Reset => {
                    self.resetting = false;
                    self.gpu_rawstat |= r::GPU_IRQ_RESET_COMPLETED;
                    self.update_irq_lines();
                }
                Event::Flush => {
                    self.flushing = self.flushing.saturating_sub(1);
                    self.gpu_rawstat |= r::GPU_IRQ_CLEAN_CACHES_COMPLETED;
                    self.update_irq_lines();
                }
                Event::Job => self.complete_job(),
            }
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.events.next_time()
    }

    fn sku(&self) -> &'static GpuSku {
        self.sku
    }

    fn inject_fault(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::OfflineCores { mask } => {
                if let Some(run) = self.running {
                    self.offline_mask |= mask;
                    if run.affinity & mask != 0 {
                        self.job_fault_pending = true;
                    }
                } else {
                    // Armed glitch: survives resets until a job consumes it.
                    self.glitch_armed = true;
                }
            }
            FaultKind::CorruptPte { va } => {
                if let Some(pte_pa) = pgtable::pte_address(&self.mem, self.transtab_active, va) {
                    if let Ok(pte) = self.mem.read_u64(pte_pa) {
                        // Clear the valid bit: deterministic, detectable.
                        let _ = self.mem.write_u64(pte_pa, pte & !1);
                    }
                }
                // The corruption must be observed even if the translation
                // (or the decoded job touching it) was already cached.
                self.tlb.invalidate_page(va);
                self.cached_chain = None;
            }
        }
    }

    fn busy(&self) -> bool {
        self.running.is_some() || self.resetting || self.flushing > 0
    }

    fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    fn access_log(&self) -> crate::access::SharedAccessLog {
        self.access.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mali::pgtable::{alloc_root, map_page, PteFlags};
    use crate::sku::{MALI_G31, MALI_G71};
    use crate::vm::bytecode::{ActKind, KernelOp};
    use gr_sim::SimDuration;
    use gr_soc::pmc::{Pmc, SETTLE_DELAY};
    use gr_soc::{FrameAllocator, PhysMem, PAGE_SIZE};

    struct Rig {
        clock: SimClock,
        mem: SharedMem,
        irq: IrqController,
        gpu: MaliGpu,
        alloc: FrameAllocator,
        root: u64,
    }

    fn rig(sku: &'static GpuSku) -> Rig {
        let clock = SimClock::new();
        let mem = SharedMem::new(PhysMem::new(0x8000_0000, 512 * PAGE_SIZE));
        let irq = IrqController::new();
        let pmc = SharedPmc::new(Pmc::new(clock.clone()));
        // Power both domains and settle.
        pmc.write32(Pmc::pwr_ctrl_off(PmcDomain::GpuCore), 1);
        pmc.write32(Pmc::pwr_ctrl_off(PmcDomain::GpuMem), 1);
        clock.advance(SETTLE_DELAY);
        let gpu = MaliGpu::new(
            sku,
            clock.clone(),
            mem.clone(),
            irq.clone(),
            pmc,
            SimRng::seed_from(7),
        );
        let mut alloc = FrameAllocator::new(0x8000_0000, 512);
        let root = alloc_root(&mem, &mut alloc).unwrap();
        Rig {
            clock,
            mem,
            irq,
            gpu,
            alloc,
            root,
        }
    }

    /// Reset, power cores, enable MMU with `root`, returning the ready rig.
    fn bring_up(rig: &mut Rig) {
        let g = &mut rig.gpu;
        g.write32(r::GPU_COMMAND, r::GPU_CMD_SOFT_RESET);
        rig.clock.advance(timing::SOFT_RESET_DELAY);
        g.tick();
        assert_eq!(
            g.read32(r::GPU_IRQ_RAWSTAT) & r::GPU_IRQ_RESET_COMPLETED,
            r::GPU_IRQ_RESET_COMPLETED
        );
        g.write32(r::GPU_IRQ_CLEAR, r::GPU_IRQ_RESET_COMPLETED);
        g.write32(r::JOB_IRQ_MASK, 0xFFFF_FFFF);
        g.write32(r::MMU_IRQ_MASK, 0xFFFF_FFFF);
        let present = g.read32(r::SHADER_PRESENT);
        g.write32(r::SHADER_PWRON, present);
        rig.clock.advance(timing::CORE_POWERUP_DELAY);
        assert_eq!(g.read32(r::SHADER_READY), present);
        g.write32(r::AS0_TRANSTAB_LO, rig.root as u32);
        g.write32(r::AS0_TRANSTAB_HI, (rig.root >> 32) as u32);
        let mut cfg = r::TRANSCFG_ENABLE;
        if g.sku().requires_rd_alloc {
            cfg |= r::TRANSCFG_RD_ALLOC;
        }
        g.write32(r::AS0_TRANSCFG, cfg);
        g.write32(r::AS0_COMMAND, r::AS_CMD_UPDATE);
    }

    /// Maps `n` pages at `va` with `flags`, returning backing PAs.
    fn map_pages(rig: &mut Rig, va: u64, n: usize, flags: PteFlags) -> Vec<u64> {
        let fmt = rig.gpu.sku().pte_format;
        (0..n)
            .map(|i| {
                let pa = rig.alloc.alloc_zeroed(&rig.mem).unwrap().unwrap();
                map_page(
                    &rig.mem,
                    &mut rig.alloc,
                    fmt,
                    rig.root,
                    va + (i * PAGE_SIZE) as u64,
                    pa,
                    flags,
                )
                .unwrap();
                pa
            })
            .collect()
    }

    /// Writes `data` into GPU memory at `va` through the page tables.
    fn poke(rig: &Rig, va: u64, data: &[u8]) {
        let fmt = rig.gpu.sku().pte_format;
        let mut done = 0;
        while done < data.len() {
            let cur = va + done as u64;
            let page = cur & !(PAGE_SIZE as u64 - 1);
            let (pa, _) = pgtable::translate(&rig.mem, fmt, rig.root, page).unwrap();
            let chunk = ((PAGE_SIZE as u64 - (cur - page)) as usize).min(data.len() - done);
            rig.mem
                .write(pa + (cur - page), &data[done..done + chunk])
                .unwrap();
            done += chunk;
        }
    }

    fn peek_f32s(rig: &Rig, va: u64, n: usize) -> Vec<f32> {
        let fmt = rig.gpu.sku().pte_format;
        let mut out = Vec::new();
        for i in 0..n {
            let cur = va + (i * 4) as u64;
            let page = cur & !(PAGE_SIZE as u64 - 1);
            let (pa, _) = pgtable::translate(&rig.mem, fmt, rig.root, page).unwrap();
            let mut b = [0u8; 4];
            rig.mem.read(pa + (cur - page), &mut b).unwrap();
            out.push(f32::from_le_bytes(b));
        }
        out
    }

    /// Builds a single-sub-job chain at `chain_va` whose shader is `op`.
    fn emit_job(rig: &Rig, chain_va: u64, op: &KernelOp, cost: JobCost) {
        let blob = op.encode();
        let shader_va = chain_va + 0x100;
        let h = JobHeader {
            next_va: 0,
            shader_va,
            shader_len: blob.len() as u32,
            cost,
        };
        poke(rig, chain_va, &h.encode());
        poke(rig, shader_va, &blob);
    }

    const CHAIN_VA: u64 = 0x0010_0000;
    const DATA_VA: u64 = 0x0020_0000;

    fn submit_and_wait(rig: &mut Rig) -> u32 {
        let g = &mut rig.gpu;
        g.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        g.write32(r::JS0_HEAD_HI, (CHAIN_VA >> 32) as u32);
        let present = g.read32(r::SHADER_PRESENT);
        g.write32(r::JS0_AFFINITY, present);
        g.write32(r::JS0_COMMAND, r::JS_CMD_START);
        // Wait for the completion event.
        let t = rig.gpu.next_event_time().expect("job scheduled");
        rig.clock.advance_to(t);
        rig.gpu.tick();
        rig.gpu.read32(r::JOB_IRQ_RAWSTAT)
    }

    fn vecadd_setup(rig: &mut Rig) {
        bring_up(rig);
        map_pages(rig, CHAIN_VA, 1, PteFlags::exec_cpu());
        map_pages(rig, DATA_VA, 1, PteFlags::rw_cpu());
        let mut bytes = Vec::new();
        for v in [1.0f32, 2.0, 3.0, 10.0, 20.0, 30.0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        poke(rig, DATA_VA, &bytes);
        emit_job(
            rig,
            CHAIN_VA,
            &KernelOp::EltwiseAdd {
                a: DATA_VA,
                b: DATA_VA + 12,
                out: DATA_VA + 24,
                n: 3,
                act: ActKind::None,
            },
            JobCost {
                flops: 3,
                bytes: 24,
            },
        );
    }

    #[test]
    fn vecadd_job_completes_and_computes() {
        let mut rg = rig(&MALI_G71);
        vecadd_setup(&mut rg);
        let rawstat = submit_and_wait(&mut rg);
        assert_eq!(rawstat & r::JOB_IRQ_DONE0, r::JOB_IRQ_DONE0);
        assert_eq!(rg.gpu.read32(r::JS0_STATUS), r::JS_STATUS_COMPLETED);
        assert!(rg.irq.pending(irq_lines::JOB));
        assert_eq!(peek_f32s(&rg, DATA_VA + 24, 3), vec![11.0, 22.0, 33.0]);
        assert_eq!(rg.gpu.jobs_completed(), 1);
        rg.gpu.write32(r::JOB_IRQ_CLEAR, r::JOB_IRQ_DONE0);
        assert!(!rg.irq.pending(irq_lines::JOB));
    }

    #[test]
    fn job_without_power_faults() {
        let clock = SimClock::new();
        let mem = SharedMem::new(PhysMem::new(0x8000_0000, 64 * PAGE_SIZE));
        let pmc = SharedPmc::new(Pmc::new(clock.clone())); // never powered
        let mut gpu = MaliGpu::new(
            &MALI_G71,
            clock,
            mem,
            IrqController::new(),
            pmc,
            SimRng::seed_from(1),
        );
        gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        assert_eq!(gpu.read32(r::GPU_FAULTSTATUS), r::GPU_FAULT_POWER);
        gpu.write32(r::GPU_COMMAND, r::GPU_CMD_SOFT_RESET);
        assert_eq!(gpu.read32(r::GPU_FAULTSTATUS), r::GPU_FAULT_POWER);
    }

    #[test]
    fn nonexec_chain_page_raises_permission_fault() {
        let mut rg = rig(&MALI_G71);
        bring_up(&mut rg);
        map_pages(&mut rg, CHAIN_VA, 1, PteFlags::rw_cpu()); // no exec!
        map_pages(&mut rg, DATA_VA, 1, PteFlags::rw_cpu());
        emit_job(
            &rg,
            CHAIN_VA,
            &KernelOp::Fill {
                out: DATA_VA,
                n: 1,
                value: 0.0,
            },
            JobCost::default(),
        );
        rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        rg.gpu.write32(r::JS0_AFFINITY, 0xFF);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        assert_eq!(rg.gpu.read32(r::JS0_STATUS), r::JS_STATUS_FAULT);
        assert_eq!(rg.gpu.read32(r::AS0_FAULTSTATUS), r::AS_FAULT_PERMISSION);
        assert!(rg.irq.pending(irq_lines::MMU));
    }

    #[test]
    fn wrong_transcfg_for_sku_faults() {
        let mut rg = rig(&MALI_G71);
        bring_up(&mut rg);
        // Drop the RD_ALLOC bit G71 requires — mimics replaying an
        // unpatched G31 recording.
        rg.gpu.write32(r::AS0_TRANSCFG, r::TRANSCFG_ENABLE);
        rg.gpu.write32(r::AS0_COMMAND, r::AS_CMD_UPDATE);
        map_pages(&mut rg, CHAIN_VA, 1, PteFlags::exec_cpu());
        rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        rg.gpu.write32(r::JS0_AFFINITY, 0xFF);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        assert_eq!(rg.gpu.read32(r::AS0_FAULTSTATUS), r::AS_FAULT_BAD_CONFIG);
    }

    #[test]
    fn affinity_controls_duration() {
        // Same job on 1 core vs 8 cores: 8-core run completes sooner.
        let durations: Vec<u64> = [0x01u32, 0xFF]
            .into_iter()
            .map(|aff| {
                let mut rg = rig(&MALI_G71);
                vecadd_setup(&mut rg);
                // Replace cost with something compute-heavy.
                emit_job(
                    &rg,
                    CHAIN_VA,
                    &KernelOp::Fill {
                        out: DATA_VA,
                        n: 4,
                        value: 1.0,
                    },
                    JobCost {
                        flops: 500_000_000,
                        bytes: 0,
                    },
                );
                let start = rg.clock.now();
                rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
                rg.gpu.write32(r::JS0_AFFINITY, aff);
                rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
                let t = rg.gpu.next_event_time().unwrap();
                rg.clock.advance_to(t);
                rg.gpu.tick();
                assert_eq!(
                    rg.gpu.read32(r::JS0_STATUS),
                    r::JS_STATUS_COMPLETED,
                    "aff={aff:#x}"
                );
                (rg.clock.now() - start).as_nanos()
            })
            .collect();
        assert!(
            durations[0] > 4 * durations[1],
            "1-core {} vs 8-core {}",
            durations[0],
            durations[1]
        );
    }

    #[test]
    fn next_slot_pipelines_two_jobs() {
        let mut rg = rig(&MALI_G71);
        vecadd_setup(&mut rg);
        // Queue the same chain twice via the NEXT registers.
        let g = &mut rg.gpu;
        g.write32(r::JS0_HEAD_NEXT_LO, CHAIN_VA as u32);
        g.write32(r::JS0_AFFINITY_NEXT, 0xFF);
        g.write32(r::JS0_COMMAND_NEXT, r::JS_CMD_START); // starts immediately
        g.write32(r::JS0_HEAD_NEXT_LO, CHAIN_VA as u32);
        g.write32(r::JS0_COMMAND_NEXT, r::JS_CMD_START); // queues
                                                         // Drain both completions.
        for _ in 0..2 {
            let t = rg.gpu.next_event_time().expect("pending job");
            rg.clock.advance_to(t);
            rg.gpu.tick();
        }
        assert_eq!(rg.gpu.jobs_completed(), 2);
        assert!(rg.gpu.next_event_time().is_none());
    }

    #[test]
    fn start_while_busy_is_a_protocol_fault() {
        let mut rg = rig(&MALI_G71);
        vecadd_setup(&mut rg);
        rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        rg.gpu.write32(r::JS0_AFFINITY, 0xFF);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        assert_eq!(rg.gpu.read32(r::GPU_FAULTSTATUS), r::GPU_FAULT_BUSY);
    }

    #[test]
    fn offline_cores_fault_the_running_job() {
        let mut rg = rig(&MALI_G71);
        vecadd_setup(&mut rg);
        rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        rg.gpu.write32(r::JS0_AFFINITY, 0xFF);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        rg.gpu.inject_fault(FaultKind::OfflineCores { mask: 0xFF });
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        rg.gpu.tick();
        assert_eq!(
            rg.gpu.read32(r::JOB_IRQ_RAWSTAT) & r::JOB_IRQ_FAIL0,
            r::JOB_IRQ_FAIL0
        );
        assert_eq!(rg.gpu.read32(r::JS0_STATUS), r::JS_STATUS_FAULT);
        // Soft reset clears the injected fault; the job then succeeds.
        bring_up(&mut rg);
        // Remap is unnecessary — tables live in DRAM untouched by reset;
        // re-point the MMU at them.
        let raw = submit_and_wait(&mut rg);
        assert_eq!(raw & r::JOB_IRQ_DONE0, r::JOB_IRQ_DONE0);
    }

    #[test]
    fn corrupt_pte_raises_mmu_fault_and_rebuild_recovers() {
        let mut rg = rig(&MALI_G71);
        vecadd_setup(&mut rg);
        rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        rg.gpu.write32(r::JS0_AFFINITY, 0xFF);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        rg.gpu.inject_fault(FaultKind::CorruptPte { va: DATA_VA });
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        rg.gpu.tick();
        assert_eq!(
            rg.gpu.read32(r::JOB_IRQ_RAWSTAT) & r::JOB_IRQ_FAIL0,
            r::JOB_IRQ_FAIL0
        );
        assert_eq!(rg.gpu.read32(r::AS0_FAULTSTATUS), r::AS_FAULT_TRANSLATION);
        let fault_va = u64::from(rg.gpu.read32(r::AS0_FAULTADDR_LO));
        assert_eq!(fault_va & !(PAGE_SIZE as u64 - 1), DATA_VA);
        // Recovery: re-populate the PTE (what the replayer's re-execution
        // does), reset, resubmit.
        let fmt = rg.gpu.sku().pte_format;
        let pa = rg.alloc.alloc_zeroed(&rg.mem).unwrap().unwrap();
        // unmap leaves the slot invalid already (corruption cleared valid);
        // write a fresh PTE directly.
        let pte_pa = pgtable::pte_address(&rg.mem, rg.root, DATA_VA).unwrap();
        rg.mem
            .write_u64(pte_pa, pgtable::encode_pte(fmt, pa, PteFlags::rw_cpu()))
            .unwrap();
        let mut bytes = Vec::new();
        for v in [1.0f32, 2.0, 3.0, 10.0, 20.0, 30.0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        poke(&rg, DATA_VA, &bytes);
        bring_up(&mut rg);
        let raw = submit_and_wait(&mut rg);
        assert_eq!(raw & r::JOB_IRQ_DONE0, r::JOB_IRQ_DONE0);
        assert_eq!(peek_f32s(&rg, DATA_VA + 24, 3), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn corrupt_pte_still_observed_after_tlb_warmup() {
        let mut rg = rig(&MALI_G71);
        vecadd_setup(&mut rg);
        // Warm-up: one successful run caches DATA_VA's translation in the
        // device TLB (and the decoded chain at the next submit).
        let raw = submit_and_wait(&mut rg);
        assert_eq!(raw & r::JOB_IRQ_DONE0, r::JOB_IRQ_DONE0);
        rg.gpu.write32(r::JOB_IRQ_CLEAR, 0xFFFF_FFFF);
        // Resubmit the same chain, then corrupt the PTE mid-flight: the
        // cached translation must not mask the fault.
        rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        rg.gpu.write32(r::JS0_AFFINITY, 0xFF);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        rg.gpu.inject_fault(FaultKind::CorruptPte { va: DATA_VA });
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        rg.gpu.tick();
        assert_eq!(
            rg.gpu.read32(r::JOB_IRQ_RAWSTAT) & r::JOB_IRQ_FAIL0,
            r::JOB_IRQ_FAIL0,
            "warm TLB must not hide a corrupted PTE"
        );
        assert_eq!(rg.gpu.read32(r::AS0_FAULTSTATUS), r::AS_FAULT_TRANSLATION);
        let fault_va = u64::from(rg.gpu.read32(r::AS0_FAULTADDR_LO));
        assert_eq!(fault_va & !(PAGE_SIZE as u64 - 1), DATA_VA);
    }

    const W_VA: u64 = 0x0030_0000;
    /// The FC weights: 16×160 f32s (10 KiB) from mid-page, over three pages.
    const FC_W: u64 = W_VA + 0x800;
    const FC_W_LEN: u64 = 16 * 160 * 4;

    /// Maps and fills a ReLU `FullyConnected` job (x and bias in DATA_VA's
    /// page, output at DATA_VA + 0x400); returns the reference output.
    fn fc_setup(rig: &mut Rig) -> Vec<f32> {
        bring_up(rig);
        map_pages(rig, CHAIN_VA, 1, PteFlags::exec_cpu());
        map_pages(rig, DATA_VA, 1, PteFlags::rw_cpu());
        map_pages(rig, W_VA, 3, PteFlags::rw_cpu());
        let x: Vec<f32> = (0..16).map(|i| i as f32 * 0.5 - 3.0).collect();
        let w: Vec<f32> = (0..16 * 160).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..160).map(|i| i as f32 * 0.01 - 0.5).collect();
        let bytes = |v: &[f32]| v.iter().flat_map(|f| f.to_le_bytes()).collect::<Vec<u8>>();
        poke(rig, DATA_VA, &bytes(&x));
        poke(rig, DATA_VA + 0x100, &bytes(&b));
        poke(rig, FC_W, &bytes(&w));
        emit_job(
            rig,
            CHAIN_VA,
            &KernelOp::FullyConnected {
                x: DATA_VA,
                w: FC_W,
                bias: DATA_VA + 0x100,
                out: DATA_VA + 0x400,
                m: 1,
                k: 16,
                n: 160,
                act: ActKind::Relu,
            },
            JobCost {
                flops: 2 * 16 * 160,
                bytes: FC_W_LEN,
            },
        );
        crate::vm::kernels::fully_connected(&x, &w, Some(&b), 1, 16, 160, ActKind::Relu)
    }

    #[test]
    fn fc_job_streams_weights_and_logs_the_whole_range_as_read() {
        let mut rg = rig(&MALI_G71);
        let expected = fc_setup(&mut rg);
        // The handle `Machine::gpu_access` hands the replayer.
        let log = rg.gpu.access_log();
        log.arm();
        let raw = submit_and_wait(&mut rg);
        assert_eq!(raw & r::JOB_IRQ_DONE0, r::JOB_IRQ_DONE0);
        let got = peek_f32s(&rg, DATA_VA + 0x400, 160);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let snap = log.snapshot().expect("armed, no overflow");
        assert!(snap.first_reads.covers(FC_W, FC_W + FC_W_LEN));
        assert!(snap.written.covers(DATA_VA + 0x400, DATA_VA + 0x400 + 640));
    }

    #[test]
    fn corrupt_weight_pte_still_observed_after_tlb_warmup() {
        let mut rg = rig(&MALI_G71);
        fc_setup(&mut rg);
        let raw = submit_and_wait(&mut rg);
        assert_eq!(raw & r::JOB_IRQ_DONE0, r::JOB_IRQ_DONE0);
        rg.gpu.write32(r::JOB_IRQ_CLEAR, 0xFFFF_FFFF);
        poke(&rg, DATA_VA + 0x400, &[0; 640]);
        // Corrupt the middle weight page mid-flight: the stream must fault
        // there, with a warm TLB, and leave the output unwritten.
        rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        rg.gpu.write32(r::JS0_AFFINITY, 0xFF);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        rg.gpu.inject_fault(FaultKind::CorruptPte {
            va: W_VA + PAGE_SIZE as u64,
        });
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        rg.gpu.tick();
        assert_eq!(
            rg.gpu.read32(r::JOB_IRQ_RAWSTAT) & r::JOB_IRQ_FAIL0,
            r::JOB_IRQ_FAIL0
        );
        assert_eq!(rg.gpu.read32(r::AS0_FAULTSTATUS), r::AS_FAULT_TRANSLATION);
        let fault_va = u64::from(rg.gpu.read32(r::AS0_FAULTADDR_LO));
        assert_eq!(fault_va, W_VA + PAGE_SIZE as u64);
        assert_eq!(peek_f32s(&rg, DATA_VA + 0x400, 160), vec![0.0; 160]);
    }

    #[test]
    fn hard_stop_preempts_without_completion() {
        let mut rg = rig(&MALI_G71);
        vecadd_setup(&mut rg);
        emit_job(
            &rg,
            CHAIN_VA,
            &KernelOp::Fill {
                out: DATA_VA,
                n: 1,
                value: 9.0,
            },
            JobCost {
                flops: 1_000_000_000,
                bytes: 0,
            },
        );
        rg.gpu.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        rg.gpu.write32(r::JS0_AFFINITY, 0xFF);
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_START);
        assert!(rg.gpu.busy());
        rg.gpu.write32(r::JS0_COMMAND, r::JS_CMD_HARD_STOP);
        assert!(!rg.gpu.busy());
        assert_eq!(rg.gpu.jobs_completed(), 0);
        // The fill never executed (execution happens at completion).
        rg.clock.advance(SimDuration::from_secs(2));
        rg.gpu.tick();
        assert_eq!(rg.gpu.jobs_completed(), 0);
    }

    #[test]
    fn lpae_sku_runs_with_lpae_tables() {
        let mut rg = rig(&MALI_G31);
        vecadd_setup(&mut rg);
        let g = &mut rg.gpu;
        g.write32(r::JS0_HEAD_LO, CHAIN_VA as u32);
        g.write32(r::JS0_AFFINITY, 0x1);
        g.write32(r::JS0_COMMAND, r::JS_CMD_START);
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        rg.gpu.tick();
        assert_eq!(rg.gpu.read32(r::JS0_STATUS), r::JS_STATUS_COMPLETED);
        assert_eq!(peek_f32s(&rg, DATA_VA + 24, 3), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn cache_flush_completes_after_delay() {
        let mut rg = rig(&MALI_G71);
        bring_up(&mut rg);
        rg.gpu.write32(r::GPU_COMMAND, r::GPU_CMD_CLEAN_CACHES);
        assert_eq!(
            rg.gpu.read32(r::GPU_IRQ_RAWSTAT) & r::GPU_IRQ_CLEAN_CACHES_COMPLETED,
            0
        );
        assert!(rg.gpu.busy());
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        assert_eq!(
            rg.gpu.read32(r::GPU_IRQ_RAWSTAT) & r::GPU_IRQ_CLEAN_CACHES_COMPLETED,
            r::GPU_IRQ_CLEAN_CACHES_COMPLETED
        );
        assert!(!rg.gpu.busy());
    }
}
