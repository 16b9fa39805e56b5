//! GPU handoff and preemption (§5.3).
//!
//! The replayer fully owns the GPU during replay but lets the OS preempt
//! it at any time without waiting for the job to finish: a preemption is
//! a cache/TLB flush plus a soft reset — which is why the paper measures
//! sub-millisecond handoff delays.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gr_gpu::machine::Machine;
use gr_gpu::sku::GpuFamilyKind;
use gr_gpu::{mali, v3d};
use gr_sim::SimDuration;

use crate::iface::NanoIface;

/// A revocable GPU ownership token shared between the replayer and the
/// OS/arbiter (interactive apps ask the arbiter, which revokes the lease).
#[derive(Debug, Clone, Default)]
pub struct GpuLease {
    granted: Arc<AtomicBool>,
}

impl GpuLease {
    /// A granted lease.
    pub fn new() -> GpuLease {
        let l = GpuLease::default();
        l.granted.store(true, Ordering::SeqCst);
        l
    }

    /// `true` while the replayer may keep running.
    pub fn is_granted(&self) -> bool {
        self.granted.load(Ordering::SeqCst)
    }

    /// OS side: take the GPU away.
    pub fn revoke(&self) {
        self.granted.store(false, Ordering::SeqCst);
    }

    /// OS side: hand the GPU back.
    pub fn grant(&self) {
        self.granted.store(true, Ordering::SeqCst);
    }
}

/// Immediately preempts the GPU from an ongoing replay: hard-stops the
/// job, flushes caches (no data leaks to the next owner), soft-resets.
/// Returns the delay the interactive app perceived.
pub fn preempt_gpu(machine: &Machine) -> SimDuration {
    let t0 = machine.now();
    let poll = |reg: u32, mask: u32, want: u32| {
        machine.poll_reg(
            reg,
            mask,
            want,
            SimDuration::from_micros(2),
            SimDuration::from_millis(5),
        );
    };
    match machine.sku().family {
        GpuFamilyKind::Mali => {
            machine.gpu_write32(mali::regs::JS0_COMMAND, mali::regs::JS_CMD_HARD_STOP);
            machine.gpu_write32(
                mali::regs::GPU_COMMAND,
                mali::regs::GPU_CMD_CLEAN_INV_CACHES,
            );
            let done = mali::regs::GPU_IRQ_CLEAN_CACHES_COMPLETED;
            poll(mali::regs::GPU_IRQ_RAWSTAT, done, done);
            machine.gpu_write32(mali::regs::GPU_IRQ_CLEAR, done);
        }
        GpuFamilyKind::V3d => {
            machine.gpu_write32(v3d::regs::CACHE_CLEAN, 1);
            poll(v3d::regs::CACHE_CLEAN, 1, 0);
        }
    }
    // The reset sequence itself lives with the rest of the family
    // register knowledge; a reset that does not complete still hands the
    // GPU over (the next owner resets it again).
    let _ = NanoIface::for_family(machine.sku().family).soft_reset(machine);
    machine.now() - t0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_gpu::sku::{MALI_G71, V3D_RPI4};
    use gr_soc::pmc::{Pmc, PmcDomain, SETTLE_DELAY};

    fn powered(sku: &'static gr_gpu::GpuSku) -> Machine {
        let m = Machine::new(sku, 1);
        for d in [PmcDomain::GpuCore, PmcDomain::GpuMem] {
            m.pmc().write32(Pmc::pwr_ctrl_off(d), 1);
        }
        m.advance(SETTLE_DELAY);
        m
    }

    #[test]
    fn lease_toggles() {
        let l = GpuLease::new();
        assert!(l.is_granted());
        let peer = l.clone();
        peer.revoke();
        assert!(!l.is_granted());
        l.grant();
        assert!(peer.is_granted());
    }

    #[test]
    fn preemption_is_submillisecond_on_both_families() {
        for sku in [&MALI_G71, &V3D_RPI4] {
            let m = powered(sku);
            let d = preempt_gpu(&m);
            assert!(
                d < SimDuration::from_millis(1),
                "{}: preemption took {d}",
                sku.name
            );
            assert!(!m.gpu_busy());
        }
    }
}
