//! A whole simulated machine: DRAM + PMC + IRQ controller + one GPU.
//!
//! [`Machine`] is the substrate both the full GPU stack and the GPUReplay
//! replayer run against. It is cheap to clone (everything inside is
//! shared), so the driver, the recorder, an interactive app, and the
//! replayer can all hold handles to the *same* hardware — which is exactly
//! the GPU-handoff situation §5.3 studies.

use std::sync::Arc;

use gr_sim::{SimClock, SimDuration, SimRng, SimTime};
use gr_soc::pmc::Pmc;
use gr_soc::{
    FrameAllocator, IrqController, IrqLine, Mailbox, PhysMem, SharedMem, SharedPmc, PAGE_SIZE,
};
use parking_lot::Mutex;

use crate::device::{DevCore, GpuDev};
use crate::faults::FaultKind;
use crate::mali::device::MaliGpu;
use crate::sku::{GpuFamilyKind, GpuSku};
use crate::v3d::device::V3dGpu;

/// Default DRAM size (128 MiB — plenty for the scaled workloads).
pub const DEFAULT_DRAM_SIZE: usize = 128 * 1024 * 1024;

/// DRAM physical base address.
pub const DRAM_BASE: u64 = 0x8000_0000;

/// Result of waiting for an interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The line is pending.
    Irq,
    /// The deadline passed with no interrupt.
    Timeout,
}

/// The assembled machine.
#[derive(Clone)]
pub struct Machine {
    clock: SimClock,
    mem: SharedMem,
    irq: IrqController,
    pmc: SharedPmc,
    mbox: Arc<Mutex<Mailbox>>,
    gpu: Arc<Mutex<Box<dyn GpuDev>>>,
    access: crate::access::SharedAccessLog,
    frames: Arc<Mutex<FrameAllocator>>,
    sku: &'static GpuSku,
    seed: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("sku", &self.sku.name)
            .field("dram", &self.mem.size())
            .finish()
    }
}

impl Machine {
    /// Builds a machine around the given SKU with [`DEFAULT_DRAM_SIZE`].
    pub fn new(sku: &'static GpuSku, seed: u64) -> Self {
        Self::with_dram(sku, seed, DEFAULT_DRAM_SIZE)
    }

    /// Builds a machine with a custom DRAM size (page-aligned).
    pub fn with_dram(sku: &'static GpuSku, seed: u64, dram_size: usize) -> Self {
        let clock = SimClock::new();
        let mem = SharedMem::new(PhysMem::new(DRAM_BASE, dram_size));
        let irq = IrqController::new();
        let pmc = SharedPmc::new(Pmc::new(clock.clone()));
        let mbox = Arc::new(Mutex::new(Mailbox::new(clock.clone(), pmc.clone())));
        let core = DevCore::new(
            sku,
            clock.clone(),
            mem.clone(),
            irq.clone(),
            pmc.clone(),
            SimRng::seed_from(seed).fork("gpu-device"),
        );
        let access = core.access.clone();
        let gpu: Box<dyn GpuDev> = match sku.family {
            GpuFamilyKind::Mali => Box::new(MaliGpu::new(core)),
            GpuFamilyKind::V3d => Box::new(V3dGpu::new(core)),
        };
        let frames = FrameAllocator::new(DRAM_BASE, dram_size / PAGE_SIZE);
        Machine {
            clock,
            mem,
            irq,
            pmc,
            mbox,
            gpu: Arc::new(Mutex::new(gpu)),
            access,
            frames: Arc::new(Mutex::new(frames)),
            sku,
            seed,
        }
    }

    /// The machine's SKU.
    pub fn sku(&self) -> &'static GpuSku {
        self.sku
    }

    /// The experiment seed the machine was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Virtual clock handle.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advances virtual time (models CPU work between device interactions).
    pub fn advance(&self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Shared DRAM handle.
    pub fn mem(&self) -> &SharedMem {
        &self.mem
    }

    /// Interrupt controller handle.
    pub fn irq(&self) -> &IrqController {
        &self.irq
    }

    /// Power/clock controller handle.
    pub fn pmc(&self) -> &SharedPmc {
        &self.pmc
    }

    /// Firmware mailbox handle.
    pub fn mailbox(&self) -> &Arc<Mutex<Mailbox>> {
        &self.mbox
    }

    /// Physical frame allocator shared by whoever owns the GPU.
    pub fn frames(&self) -> &Arc<Mutex<FrameAllocator>> {
        &self.frames
    }

    /// Reads a GPU register.
    pub fn gpu_read32(&self, off: u32) -> u32 {
        self.gpu.lock().read32(off)
    }

    /// Writes a GPU register.
    pub fn gpu_write32(&self, off: u32, val: u32) {
        self.gpu.lock().write32(off, val);
    }

    /// Lets the device process any events due at the current time.
    pub fn tick_gpu(&self) {
        self.gpu.lock().tick();
    }

    /// Next scheduled device event, if any.
    pub fn next_gpu_event(&self) -> Option<SimTime> {
        self.gpu.lock().next_event_time()
    }

    /// `true` while the GPU is executing/resetting/flushing.
    pub fn gpu_busy(&self) -> bool {
        self.gpu.lock().busy()
    }

    /// Successfully completed jobs since machine creation.
    pub fn gpu_jobs_completed(&self) -> u64 {
        self.gpu.lock().jobs_completed()
    }

    /// The GPU's per-batch access log (armed by the replayer around warm
    /// batch suffixes; see [`crate::access`]).
    pub fn gpu_access(&self) -> &crate::access::SharedAccessLog {
        &self.access
    }

    /// Injects a hardware fault (§7.2 experiments).
    pub fn inject_fault(&self, fault: FaultKind) {
        self.gpu.lock().inject_fault(fault);
    }

    /// Blocks (in virtual time) until `line` is pending or `timeout`
    /// elapses, advancing the clock to device events as needed.
    pub fn wait_irq(&self, line: IrqLine, timeout: SimDuration) -> WaitOutcome {
        let deadline = self.clock.now() + timeout;
        loop {
            self.tick_gpu();
            if self.irq.pending(line) {
                return WaitOutcome::Irq;
            }
            match self.next_gpu_event() {
                Some(t) if t <= deadline => {
                    self.clock.advance_to(t);
                }
                _ => {
                    self.clock.advance_to(deadline);
                    self.tick_gpu();
                    return if self.irq.pending(line) {
                        WaitOutcome::Irq
                    } else {
                        WaitOutcome::Timeout
                    };
                }
            }
        }
    }

    /// Polls register `off` every `interval` until `(value & mask) == want`
    /// or `timeout` elapses. Returns `(final_value, polls)`; the poll count
    /// is nondeterministic across runs — exactly the behaviour the
    /// recorder summarizes into a `RegReadWait` action.
    pub fn poll_reg(
        &self,
        off: u32,
        mask: u32,
        want: u32,
        interval: SimDuration,
        timeout: SimDuration,
    ) -> (u32, u32) {
        let deadline = self.clock.now() + timeout;
        let mut polls = 0u32;
        loop {
            let v = self.gpu_read32(off);
            polls += 1;
            if v & mask == want {
                return (v, polls);
            }
            if self.clock.now() >= deadline {
                return (v, polls);
            }
            // Sleep until the next device event if it lands inside the
            // polling interval — mirrors cpu_relax-style waiting.
            let next = self.clock.now() + interval;
            self.clock.advance_to(next.min(deadline));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sku::{MALI_G71, V3D_RPI4};
    use gr_soc::pmc::{PmcDomain, SETTLE_DELAY};

    #[test]
    fn machine_clones_share_hardware() {
        let m = Machine::new(&MALI_G71, 42);
        let m2 = m.clone();
        m.pmc().write32(Pmc::pwr_ctrl_off(PmcDomain::GpuCore), 1);
        m.advance(SETTLE_DELAY);
        assert!(m2.pmc().is_stable(PmcDomain::GpuCore));
        assert_eq!(m.sku().name, "G71");
        assert_eq!(m2.seed(), 42);
    }

    #[test]
    fn gpu_id_is_readable_on_both_families() {
        let mali = Machine::new(&MALI_G71, 1);
        assert_eq!(mali.gpu_read32(crate::mali::regs::GPU_ID), MALI_G71.gpu_id);
        let v3d = Machine::new(&V3D_RPI4, 1);
        assert_eq!(v3d.gpu_read32(crate::v3d::regs::IDENT), V3D_RPI4.gpu_id);
    }

    #[test]
    fn wait_irq_times_out_without_events() {
        let m = Machine::new(&MALI_G71, 1);
        let t0 = m.now();
        let out = m.wait_irq(IrqLine(0), SimDuration::from_millis(5));
        assert_eq!(out, WaitOutcome::Timeout);
        assert_eq!(m.now() - t0, SimDuration::from_millis(5));
    }

    #[test]
    fn poll_reg_counts_polls() {
        let m = Machine::new(&MALI_G71, 1);
        // Poll GPU_ID for an impossible value: exhausts the timeout.
        let (v, polls) = m.poll_reg(
            crate::mali::regs::GPU_ID,
            u32::MAX,
            0,
            SimDuration::from_micros(10),
            SimDuration::from_micros(95),
        );
        assert_eq!(v, MALI_G71.gpu_id);
        assert!(polls >= 9, "polled {polls} times");
        // Poll for the actual value: single read.
        let (_, polls) = m.poll_reg(
            crate::mali::regs::GPU_ID,
            u32::MAX,
            MALI_G71.gpu_id,
            SimDuration::from_micros(10),
            SimDuration::from_micros(100),
        );
        assert_eq!(polls, 1);
    }

    #[test]
    fn frames_are_machine_wide() {
        let m = Machine::new(&MALI_G71, 1);
        let pa = m.frames().lock().alloc().unwrap();
        assert!(pa >= DRAM_BASE);
        let m2 = m.clone();
        assert_eq!(m2.frames().lock().used(), 1);
        m2.frames().lock().free(pa).unwrap();
    }
}
