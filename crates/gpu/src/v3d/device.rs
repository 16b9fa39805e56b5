//! The v3d-like GPU device model.
//!
//! Submission: write `CT0CA` (list start VA) then `CT0EA` (end VA), which
//! kicks execution. One interrupt line; depth-1 queue (submitting while
//! busy is an error — the paper notes v3d allows max one outstanding job).
//! No exec bit in the page table; binaries fetch from any valid mapping.
//! The timeline, translation cache and fault state live in the shared
//! [`DevCore`](crate::device).

use gr_sim::SimTime;
use gr_soc::SharedMem;

use crate::device::{DevCore, Event, GpuDev, JobFault, JobMem, PageMapping, PageWalk};
use crate::faults::FaultKind;
use crate::sku::GpuSku;
use crate::timing::JobCost;
use crate::v3d::cl::{self, ClPacket, MAX_BRANCH_DEPTH};
use crate::v3d::pgtable;
use crate::v3d::regs::{self as r, irq_lines};

/// The flat page table at `MMU_PT_BASE`, or nothing while `MMU_CTRL`
/// disables the MMU. v3d has no exec bit: any valid mapping fetches.
struct ActiveMmu {
    table: u64,
    enabled: bool,
}

impl PageWalk for ActiveMmu {
    fn walk(&self, mem: &SharedMem, page_va: u64) -> Option<PageMapping> {
        if !self.enabled {
            return None;
        }
        pgtable::translate(mem, self.table, page_va).map(|(pa, flags)| PageMapping {
            pa,
            write: flags.write,
            exec: true,
        })
    }
}

/// Recursively collects every RUN_SHADER packet reachable from the list
/// at `[va, va+len)`.
fn collect_shaders(
    jm: &JobMem<ActiveMmu>,
    va: u64,
    len: u32,
    depth: usize,
    out: &mut Vec<(u64, u32, JobCost)>,
) -> Result<(), JobFault> {
    if depth > MAX_BRANCH_DEPTH {
        return Err(JobFault::Malformed);
    }
    let bytes = jm.fetch(va, len as usize)?;
    let packets = cl::parse_list(&bytes).map_err(|_| JobFault::Malformed)?;
    for p in packets {
        match p {
            ClPacket::RunShader { va, len, cost } => out.push((va, len, cost)),
            ClPacket::Branch { va, len } => collect_shaders(jm, va, len, depth + 1, out)?,
            ClPacket::Nop | ClPacket::Halt => {}
        }
    }
    Ok(())
}

/// The v3d-like device.
pub struct V3dGpu {
    core: DevCore,

    int_sts: u32,
    int_msk: u32,
    ct0ca: u64,
    ct0ea: u64,
    err_stat: u32,
    mmu_pt_base: u64,
    mmu_ctrl: u32,
    mmu_addr: u32,

    running: bool,
}

impl std::fmt::Debug for V3dGpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("V3dGpu")
            .field("sku", &self.core.sku.name)
            .field("busy", &self.running)
            .field("jobs_completed", &self.core.jobs_completed())
            .finish()
    }
}

impl V3dGpu {
    /// A powered-off device over `core`.
    pub(crate) fn new(core: DevCore) -> Self {
        V3dGpu {
            core,
            int_sts: 0,
            int_msk: 0,
            ct0ca: 0,
            ct0ea: 0,
            err_stat: 0,
            mmu_pt_base: 0,
            mmu_ctrl: 0,
            mmu_addr: 0,
            running: false,
        }
    }

    fn update_irq_line(&self) {
        self.core
            .set_irq(irq_lines::V3D, self.int_sts & self.int_msk != 0);
    }

    /// The job-memory view under the current MMU configuration.
    fn job_mem(&self) -> JobMem<ActiveMmu> {
        self.core.job_mem(ActiveMmu {
            table: self.mmu_pt_base,
            enabled: self.mmu_ctrl & 1 != 0,
        })
    }

    /// The control list `[CT0CA, CT0EA)` as it is in memory now.
    fn collect_list(&self, jm: &JobMem<ActiveMmu>) -> Result<Vec<(u64, u32, JobCost)>, JobFault> {
        let len = self.ct0ea.saturating_sub(self.ct0ca) as u32;
        let mut shaders = Vec::new();
        collect_shaders(jm, self.ct0ca, len, 0, &mut shaders)?;
        Ok(shaders)
    }

    fn raise_error(&mut self, err: u32) {
        self.err_stat = err;
        self.running = false;
        self.update_irq_line();
    }

    fn raise_mmu_fault(&mut self, va: u64) {
        self.mmu_addr = va as u32;
        self.int_sts |= r::INT_MMU_FAULT;
        self.raise_error(r::ERR_BAD_CL);
    }

    /// A core glitch or offlined cores: a power error with the MMU-fault
    /// interrupt, which is how this family reports a lost list.
    fn raise_power_fault(&mut self) {
        self.raise_error(r::ERR_POWER);
        self.int_sts |= r::INT_MMU_FAULT;
        self.update_irq_line();
    }

    /// Maps a shared-executor fault to this family's registers.
    fn raise(&mut self, fault: JobFault) {
        match fault {
            JobFault::Translation { va } | JobFault::Permission { va } => self.raise_mmu_fault(va),
            JobFault::Malformed => self.raise_error(r::ERR_BAD_CL),
        }
    }

    fn submit(&mut self) {
        if !self.core.power_stable() {
            self.err_stat = r::ERR_POWER;
            return;
        }
        if self.running || self.core.resetting {
            // Depth-1 queue: this is exactly why the paper's GPU model can
            // treat v3d submission as naturally synchronous.
            self.err_stat = r::ERR_BUSY;
            return;
        }
        if std::mem::take(&mut self.core.glitch_armed) {
            self.raise_power_fault();
            return;
        }
        let len = self.ct0ea.saturating_sub(self.ct0ca);
        if len == 0 || len > (1 << 20) {
            self.raise_error(r::ERR_BAD_CL);
            return;
        }
        let shaders = match self.collect_list(&self.job_mem()) {
            Ok(shaders) => shaders,
            Err(fault) => {
                self.raise(fault);
                return;
            }
        };
        let cores = self.core.sku.cores;
        if !self.core.schedule_job(shaders.iter().map(|s| s.2), cores) {
            self.raise_error(r::ERR_POWER);
            return;
        }
        self.running = true;
        self.err_stat = r::ERR_NONE;
    }

    fn complete_list(&mut self) {
        if !std::mem::take(&mut self.running) {
            return;
        }
        if std::mem::take(&mut self.core.offline_pending) {
            self.raise_power_fault();
            return;
        }
        // The list and its shaders are read from memory as they are now,
        // not as they were at submit.
        let jm = self.job_mem();
        let result = self.collect_list(&jm).and_then(|shaders| {
            let shaders = shaders.iter().map(|&(va, len, _)| (va, len as usize));
            self.core.execute(&jm, shaders)
        });
        if let Err(fault) = result {
            self.raise(fault);
            return;
        }
        self.ct0ca = self.ct0ea; // CA advances to EA on completion
        self.int_sts |= r::INT_DONE;
        self.update_irq_line();
    }

    fn soft_reset(&mut self) {
        if !self.core.reset() {
            self.err_stat = r::ERR_POWER;
            return;
        }
        self.running = false;
        self.int_sts = 0;
        self.err_stat = 0;
        self.mmu_ctrl = 0;
        self.mmu_pt_base = 0;
        self.mmu_addr = 0;
        self.ct0ca = 0;
        self.ct0ea = 0;
        self.update_irq_line();
    }
}

impl GpuDev for V3dGpu {
    fn read32(&mut self, off: u32) -> u32 {
        self.tick();
        match off {
            r::IDENT => self.core.sku.gpu_id,
            r::INT_STS => self.int_sts,
            r::INT_MSK => self.int_msk,
            r::CT0CA_LO => self.ct0ca as u32,
            r::CT0CA_HI => (self.ct0ca >> 32) as u32,
            r::CT0EA_LO => self.ct0ea as u32,
            r::CT0EA_HI => (self.ct0ea >> 32) as u32,
            r::CT0CS => {
                let mut v = 0;
                if self.running {
                    v |= r::CS_BUSY;
                }
                if self.core.resetting {
                    v |= r::CS_RESETTING;
                }
                if self.err_stat != 0 {
                    v |= r::CS_ERROR;
                }
                v
            }
            r::MMU_PT_BASE_LO => self.mmu_pt_base as u32,
            r::MMU_PT_BASE_HI => (self.mmu_pt_base >> 32) as u32,
            r::MMU_CTRL => self.mmu_ctrl,
            r::MMU_ADDR => self.mmu_addr,
            r::ERR_STAT => self.err_stat,
            r::CACHE_CLEAN => u32::from(self.core.flushing > 0),
            _ => 0,
        }
    }

    fn write32(&mut self, off: u32, val: u32) {
        self.tick();
        match off {
            r::INT_CLR => {
                self.int_sts &= !val;
                self.update_irq_line();
            }
            r::INT_MSK => {
                self.int_msk = val;
                self.update_irq_line();
            }
            r::CT0CA_LO => self.ct0ca = (self.ct0ca & !0xFFFF_FFFF) | u64::from(val),
            r::CT0CA_HI => self.ct0ca = (self.ct0ca & 0xFFFF_FFFF) | (u64::from(val) << 32),
            r::CT0EA_LO => {
                self.ct0ea = (self.ct0ea & !0xFFFF_FFFF) | u64::from(val);
                self.submit();
            }
            r::CT0EA_HI => self.ct0ea = (self.ct0ea & 0xFFFF_FFFF) | (u64::from(val) << 32),
            r::MMU_PT_BASE_LO => {
                self.mmu_pt_base = (self.mmu_pt_base & !0xFFFF_FFFF) | u64::from(val);
                self.core.invalidate_translations();
            }
            r::MMU_PT_BASE_HI => {
                self.mmu_pt_base = (self.mmu_pt_base & 0xFFFF_FFFF) | (u64::from(val) << 32);
                self.core.invalidate_translations();
            }
            r::MMU_CTRL => {
                // Enable/disable or reconfigure acts as a TLB shootdown.
                // The TLB_CLEAR command bit is self-clearing: it forces the
                // flush but is never stored.
                self.mmu_ctrl = val & !r::MMU_CTRL_TLB_CLEAR;
                self.core.invalidate_translations();
            }
            r::CTL_RESET if val & 1 != 0 => self.soft_reset(),
            // One clean at a time: a request while cleaning joins it.
            r::CACHE_CLEAN if val & 1 != 0 && self.core.flushing == 0 => self.core.flush(),
            _ => {}
        }
    }

    fn tick(&mut self) {
        while let Some(ev) = self.core.pop_due() {
            if ev == Event::Job {
                self.complete_list();
            }
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.core.next_event_time()
    }

    fn sku(&self) -> &'static GpuSku {
        self.core.sku
    }

    fn inject_fault(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::OfflineCores { .. } => self.core.offline_cores(self.running.then_some(true)),
            FaultKind::CorruptPte { va } => {
                let pte_pa = pgtable::pte_address(self.mmu_pt_base, va);
                self.core.corrupt_pte(pte_pa, va);
            }
        }
    }

    fn busy(&self) -> bool {
        self.running || self.core.busy()
    }

    fn jobs_completed(&self) -> u64 {
        self.core.jobs_completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sku::V3D_RPI4;
    use crate::timing;
    use crate::v3d::cl::ClWriter;
    use crate::v3d::pgtable::{alloc_table, map_page, V3dPteFlags};
    use crate::vm::bytecode::KernelOp;
    use gr_sim::{SimClock, SimRng};
    use gr_soc::pmc::{Pmc, PmcDomain, SETTLE_DELAY};
    use gr_soc::{FrameAllocator, IrqController, PhysMem, SharedPmc, PAGE_SIZE};

    struct Rig {
        clock: SimClock,
        mem: SharedMem,
        irq: IrqController,
        gpu: V3dGpu,
        alloc: FrameAllocator,
        table: u64,
    }

    fn rig() -> Rig {
        let clock = SimClock::new();
        let mem = SharedMem::new(PhysMem::new(0x8000_0000, 512 * PAGE_SIZE));
        let irq = IrqController::new();
        let pmc = SharedPmc::new(Pmc::new(clock.clone()));
        pmc.write32(Pmc::pwr_ctrl_off(PmcDomain::GpuCore), 1);
        pmc.write32(Pmc::pwr_ctrl_off(PmcDomain::GpuMem), 1);
        clock.advance(SETTLE_DELAY);
        let mut gpu = V3dGpu::new(DevCore::new(
            &V3D_RPI4,
            clock.clone(),
            mem.clone(),
            irq.clone(),
            pmc,
            SimRng::seed_from(9),
        ));
        let mut alloc = FrameAllocator::new(0x8000_0000, 512);
        // Reset + wait.
        gpu.write32(r::CTL_RESET, 1);
        clock.advance(timing::SOFT_RESET_DELAY);
        gpu.tick();
        assert_eq!(gpu.read32(r::CT0CS) & r::CS_RESETTING, 0);
        let table = alloc_table(&mem, &mut alloc).unwrap();
        gpu.write32(r::MMU_PT_BASE_LO, table as u32);
        gpu.write32(r::MMU_PT_BASE_HI, (table >> 32) as u32);
        gpu.write32(r::MMU_CTRL, 1);
        gpu.write32(r::INT_MSK, 0xFFFF_FFFF);
        Rig {
            clock,
            mem,
            irq,
            gpu,
            alloc,
            table,
        }
    }

    const CL_VA: u64 = 0x0010_0000;
    const SH_VA: u64 = 0x0011_0000;
    const DATA_VA: u64 = 0x0020_0000;

    fn map(rig: &mut Rig, va: u64, n: usize) {
        for i in 0..n {
            let pa = rig.alloc.alloc_zeroed(&rig.mem).unwrap().unwrap();
            map_page(
                &rig.mem,
                rig.table,
                va + (i * PAGE_SIZE) as u64,
                pa,
                V3dPteFlags::rw(),
            )
            .unwrap();
        }
    }

    fn poke(rig: &Rig, va: u64, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let cur = va + done as u64;
            let page = cur & !(PAGE_SIZE as u64 - 1);
            let (pa, _) = pgtable::translate(&rig.mem, rig.table, page).unwrap();
            let chunk = ((PAGE_SIZE as u64 - (cur - page)) as usize).min(data.len() - done);
            rig.mem
                .write(pa + (cur - page), &data[done..done + chunk])
                .unwrap();
            done += chunk;
        }
    }

    fn peek_f32s(rig: &Rig, va: u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let cur = va + (i * 4) as u64;
                let page = cur & !(PAGE_SIZE as u64 - 1);
                let (pa, _) = pgtable::translate(&rig.mem, rig.table, page).unwrap();
                let mut b = [0u8; 4];
                rig.mem.read(pa + (cur - page), &mut b).unwrap();
                f32::from_le_bytes(b)
            })
            .collect()
    }

    fn submit_and_wait(rig: &mut Rig, cl_len: usize) -> u32 {
        rig.gpu.write32(r::CT0CA_LO, CL_VA as u32);
        rig.gpu.write32(r::CT0CA_HI, 0);
        rig.gpu.write32(r::CT0EA_HI, 0);
        rig.gpu
            .write32(r::CT0EA_LO, (CL_VA as usize + cl_len) as u32);
        if let Some(t) = rig.gpu.next_event_time() {
            rig.clock.advance_to(t);
            rig.gpu.tick();
        }
        rig.gpu.read32(r::INT_STS)
    }

    #[test]
    fn control_list_executes_shader() {
        let mut rg = rig();
        map(&mut rg, CL_VA, 1);
        map(&mut rg, SH_VA, 1);
        map(&mut rg, DATA_VA, 1);
        let mut b = Vec::new();
        for v in [1.0f32, 2.0, 3.0] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        poke(&rg, DATA_VA, &b);
        let blob = KernelOp::Scale {
            a: DATA_VA,
            out: DATA_VA + 256,
            n: 3,
            alpha: 3.0,
        }
        .encode();
        poke(&rg, SH_VA, &blob);
        let mut w = ClWriter::new();
        w.run_shader(
            SH_VA,
            blob.len() as u32,
            JobCost {
                flops: 3,
                bytes: 24,
            },
        );
        let cl = w.finish();
        poke(&rg, CL_VA, &cl);
        let sts = submit_and_wait(&mut rg, cl.len());
        assert_eq!(sts & r::INT_DONE, r::INT_DONE);
        assert!(rg.irq.pending(irq_lines::V3D));
        assert_eq!(peek_f32s(&rg, DATA_VA + 256, 3), vec![3.0, 6.0, 9.0]);
        assert_eq!(rg.gpu.jobs_completed(), 1);
        rg.gpu.write32(r::INT_CLR, r::INT_DONE);
        assert!(!rg.irq.pending(irq_lines::V3D));
    }

    #[test]
    fn shader_rewritten_in_flight_runs_as_it_is_at_completion() {
        let mut rg = rig();
        map(&mut rg, CL_VA, 1);
        map(&mut rg, SH_VA, 1);
        map(&mut rg, DATA_VA, 1);
        let data: Vec<u8> = [1.0f32, 2.0, 3.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        poke(&rg, DATA_VA, &data);
        let scale = |alpha| KernelOp::Scale {
            a: DATA_VA,
            out: DATA_VA + 256,
            n: 3,
            alpha,
        };
        let blob = scale(3.0).encode();
        poke(&rg, SH_VA, &blob);
        let mut w = ClWriter::new();
        w.run_shader(SH_VA, blob.len() as u32, JobCost::default());
        let cl = w.finish();
        poke(&rg, CL_VA, &cl);
        rg.gpu.write32(r::CT0CA_LO, CL_VA as u32);
        rg.gpu
            .write32(r::CT0EA_LO, (CL_VA as usize + cl.len()) as u32);
        // Same op, same length: only alpha changes.
        poke(&rg, SH_VA, &scale(5.0).encode());
        let t = rg.gpu.next_event_time().expect("list scheduled");
        rg.clock.advance_to(t);
        rg.gpu.tick();
        assert_eq!(rg.gpu.read32(r::INT_STS) & r::INT_DONE, r::INT_DONE);
        assert_eq!(peek_f32s(&rg, DATA_VA + 256, 3), vec![5.0, 10.0, 15.0]);
    }

    #[test]
    fn branch_to_sublist_works() {
        let mut rg = rig();
        map(&mut rg, CL_VA, 2);
        map(&mut rg, SH_VA, 1);
        map(&mut rg, DATA_VA, 1);
        let blob = KernelOp::Fill {
            out: DATA_VA,
            n: 2,
            value: 7.0,
        }
        .encode();
        poke(&rg, SH_VA, &blob);
        let mut sub = ClWriter::new();
        sub.run_shader(SH_VA, blob.len() as u32, JobCost::default());
        let sub_bytes = sub.finish();
        let sub_va = CL_VA + 0x800;
        poke(&rg, sub_va, &sub_bytes);
        let mut main = ClWriter::new();
        main.nop().branch(sub_va, sub_bytes.len() as u32);
        let main_bytes = main.finish();
        poke(&rg, CL_VA, &main_bytes);
        let sts = submit_and_wait(&mut rg, main_bytes.len());
        assert_eq!(sts & r::INT_DONE, r::INT_DONE);
        assert_eq!(peek_f32s(&rg, DATA_VA, 2), vec![7.0, 7.0]);
    }

    #[test]
    fn submit_while_busy_is_error() {
        let mut rg = rig();
        map(&mut rg, CL_VA, 1);
        map(&mut rg, SH_VA, 1);
        map(&mut rg, DATA_VA, 1);
        let blob = KernelOp::Fill {
            out: DATA_VA,
            n: 1,
            value: 1.0,
        }
        .encode();
        poke(&rg, SH_VA, &blob);
        let mut w = ClWriter::new();
        w.run_shader(
            SH_VA,
            blob.len() as u32,
            JobCost {
                flops: 1_000_000,
                bytes: 0,
            },
        );
        let cl = w.finish();
        poke(&rg, CL_VA, &cl);
        rg.gpu.write32(r::CT0CA_LO, CL_VA as u32);
        rg.gpu
            .write32(r::CT0EA_LO, (CL_VA as usize + cl.len()) as u32);
        assert_eq!(rg.gpu.read32(r::CT0CS) & r::CS_BUSY, r::CS_BUSY);
        rg.gpu
            .write32(r::CT0EA_LO, (CL_VA as usize + cl.len()) as u32);
        assert_eq!(rg.gpu.read32(r::ERR_STAT), r::ERR_BUSY);
    }

    #[test]
    fn unmapped_list_raises_mmu_fault() {
        let mut rg = rig();
        // CL_VA left unmapped.
        rg.gpu.write32(r::CT0CA_LO, CL_VA as u32);
        rg.gpu.write32(r::CT0EA_LO, (CL_VA + 16) as u32);
        let sts = rg.gpu.read32(r::INT_STS);
        assert_eq!(sts & r::INT_MMU_FAULT, r::INT_MMU_FAULT);
        assert_eq!(u64::from(rg.gpu.read32(r::MMU_ADDR)), CL_VA);
        assert_eq!(rg.gpu.read32(r::CT0CS) & r::CS_ERROR, r::CS_ERROR);
    }

    #[test]
    fn cache_clean_is_polled_not_irq() {
        let mut rg = rig();
        rg.gpu.write32(r::CACHE_CLEAN, 1);
        assert_eq!(rg.gpu.read32(r::CACHE_CLEAN), 1, "busy while cleaning");
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        assert_eq!(rg.gpu.read32(r::CACHE_CLEAN), 0);
        assert_eq!(rg.gpu.read32(r::INT_STS), 0, "no interrupt for clean");
    }

    #[test]
    fn corrupt_pte_still_observed_after_tlb_warmup() {
        let mut rg = rig();
        map(&mut rg, CL_VA, 1);
        map(&mut rg, SH_VA, 1);
        map(&mut rg, DATA_VA, 1);
        let blob = KernelOp::Fill {
            out: DATA_VA,
            n: 1,
            value: 2.0,
        }
        .encode();
        poke(&rg, SH_VA, &blob);
        let mut w = ClWriter::new();
        w.run_shader(
            SH_VA,
            blob.len() as u32,
            JobCost {
                flops: 100,
                bytes: 4,
            },
        );
        let cl = w.finish();
        poke(&rg, CL_VA, &cl);
        // Warm-up run caches DATA_VA's translation.
        let sts = submit_and_wait(&mut rg, cl.len());
        assert_eq!(sts & r::INT_DONE, r::INT_DONE);
        assert_eq!(peek_f32s(&rg, DATA_VA, 1), vec![2.0]);
        rg.gpu.write32(r::INT_CLR, 0xFFFF_FFFF);
        // Resubmit, corrupt mid-flight: the fault must still surface.
        rg.gpu.write32(r::CT0CA_LO, CL_VA as u32);
        rg.gpu
            .write32(r::CT0EA_LO, (CL_VA as usize + cl.len()) as u32);
        rg.gpu.inject_fault(FaultKind::CorruptPte { va: DATA_VA });
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        rg.gpu.tick();
        assert_eq!(
            rg.gpu.read32(r::INT_STS) & r::INT_MMU_FAULT,
            r::INT_MMU_FAULT,
            "warm TLB must not hide a corrupted PTE"
        );
        assert_eq!(u64::from(rg.gpu.read32(r::MMU_ADDR)), DATA_VA);
    }

    #[test]
    fn corrupt_pte_faults_then_rebuild_recovers() {
        let mut rg = rig();
        map(&mut rg, CL_VA, 1);
        map(&mut rg, SH_VA, 1);
        map(&mut rg, DATA_VA, 1);
        let blob = KernelOp::Fill {
            out: DATA_VA,
            n: 1,
            value: 5.0,
        }
        .encode();
        poke(&rg, SH_VA, &blob);
        let mut w = ClWriter::new();
        w.run_shader(
            SH_VA,
            blob.len() as u32,
            JobCost {
                flops: 100,
                bytes: 0,
            },
        );
        let cl = w.finish();
        poke(&rg, CL_VA, &cl);
        rg.gpu.write32(r::CT0CA_LO, CL_VA as u32);
        rg.gpu
            .write32(r::CT0EA_LO, (CL_VA as usize + cl.len()) as u32);
        rg.gpu.inject_fault(FaultKind::CorruptPte { va: DATA_VA });
        let t = rg.gpu.next_event_time().unwrap();
        rg.clock.advance_to(t);
        rg.gpu.tick();
        assert_eq!(
            rg.gpu.read32(r::INT_STS) & r::INT_MMU_FAULT,
            r::INT_MMU_FAULT
        );
        // Rebuild the PTE and retry after reset.
        let pa = rg.alloc.alloc_zeroed(&rg.mem).unwrap().unwrap();
        let pte_pa = pgtable::pte_address(rg.table, DATA_VA).unwrap();
        rg.mem
            .write_u32(pte_pa, pgtable::encode_pte(pa, V3dPteFlags::rw()))
            .unwrap();
        rg.gpu.write32(r::CTL_RESET, 1);
        rg.clock.advance(timing::SOFT_RESET_DELAY);
        rg.gpu.tick();
        rg.gpu.write32(r::MMU_PT_BASE_LO, rg.table as u32);
        rg.gpu.write32(r::MMU_CTRL, 1);
        rg.gpu.write32(r::INT_MSK, 0xFFFF_FFFF);
        let sts = submit_and_wait(&mut rg, cl.len());
        assert_eq!(sts & r::INT_DONE, r::INT_DONE);
        assert_eq!(peek_f32s(&rg, DATA_VA, 1), vec![5.0]);
    }
}
