//! Family interface knowledge (paper Table 1).
//!
//! Everything the nano driver knows about a GPU family: which register
//! offsets exist (the §5.1 whitelist), which register points at the page
//! tables, how to insert physical addresses into opaque PTE flag bits,
//! which writes kick jobs, and how to reset. This is the "no more than 1K
//! SLoC per GPU family" knowledge the paper extracts from the open driver.

use std::collections::BTreeMap;

use gr_gpu::machine::Machine;
use gr_gpu::sku::GpuFamilyKind;
use gr_gpu::{mali, v3d};
use gr_soc::{MemError, PhysMem, PAGE_SIZE};

use crate::error::ReplayError;

const MALI_PA_MASK: u64 = 0x0000_FFFF_FFFF_F000;
const MALI_L1_SHIFT: u32 = 21;
const MALI_L2_SHIFT: u32 = 12;
const MALI_IDX_MASK: u64 = 0x1FF;

/// Per-family knowledge table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanoIface {
    /// Mali-like: two-level tables, three IRQ lines, JS job slot.
    Mali,
    /// v3d-like: flat table, one IRQ line, control-list window.
    V3d,
}

impl NanoIface {
    /// Selects the interface for a family.
    pub fn for_family(family: GpuFamilyKind) -> NanoIface {
        match family {
            GpuFamilyKind::Mali => NanoIface::Mali,
            GpuFamilyKind::V3d => NanoIface::V3d,
        }
    }

    /// Parses the family string a recording carries.
    pub fn from_name(name: &str) -> Option<NanoIface> {
        match name {
            "mali" => Some(NanoIface::Mali),
            "v3d" => Some(NanoIface::V3d),
            _ => None,
        }
    }

    /// §5.1 whitelist: is `reg` an architecturally defined register?
    pub fn is_known_reg(self, reg: u32) -> bool {
        match self {
            NanoIface::Mali => mali::regs::is_known_reg(reg),
            NanoIface::V3d => v3d::regs::is_known_reg(reg),
        }
    }

    /// Human-readable register name for error reports.
    pub fn reg_name(self, reg: u32) -> &'static str {
        match self {
            NanoIface::Mali => mali::regs::reg_name(reg),
            NanoIface::V3d => v3d::regs::reg_name(reg),
        }
    }

    /// Registers whose write starts a job (never blindly re-issued when
    /// restoring register state from a checkpoint).
    pub fn is_kick_reg(self, reg: u32) -> bool {
        match self {
            NanoIface::Mali => {
                reg == mali::regs::JS0_COMMAND || reg == mali::regs::JS0_COMMAND_NEXT
            }
            NanoIface::V3d => reg == v3d::regs::CT0EA_LO,
        }
    }

    /// Highest IRQ line the family uses.
    pub fn max_irq_line(self) -> u32 {
        match self {
            NanoIface::Mali => 2,
            NanoIface::V3d => 0,
        }
    }

    /// Implements the `SetGPUPgtable` action: points the GPU at the
    /// replayer's own table base.
    pub fn set_pgtable_base(self, machine: &Machine, root_pa: u64) {
        match self {
            NanoIface::Mali => {
                machine.gpu_write32(mali::regs::AS0_TRANSTAB_LO, root_pa as u32);
                machine.gpu_write32(mali::regs::AS0_TRANSTAB_HI, (root_pa >> 32) as u32);
            }
            NanoIface::V3d => {
                machine.gpu_write32(v3d::regs::MMU_PT_BASE_LO, root_pa as u32);
                machine.gpu_write32(v3d::regs::MMU_PT_BASE_HI, (root_pa >> 32) as u32);
            }
        }
    }

    /// Registers whose replayed *write* can retarget translation or reset
    /// device state: table base, MMU/address-space control, and global
    /// command registers. A batch suffix containing one is not warm-safe —
    /// sequential replay would re-establish the machine state from the
    /// prologue each time, a warm batch would not (see
    /// `VerifyReport::batch_split`).
    pub fn is_batch_hazard_reg(self, reg: u32) -> bool {
        match self {
            NanoIface::Mali => matches!(
                reg,
                mali::regs::GPU_COMMAND
                    | mali::regs::AS0_COMMAND
                    | mali::regs::AS0_TRANSTAB_LO
                    | mali::regs::AS0_TRANSTAB_HI
                    | mali::regs::AS0_TRANSCFG
            ),
            NanoIface::V3d => matches!(
                reg,
                v3d::regs::CTL_RESET
                    | v3d::regs::MMU_CTRL
                    | v3d::regs::MMU_PT_BASE_LO
                    | v3d::regs::MMU_PT_BASE_HI
            ),
        }
    }

    /// Issues the family's architectural TLB shootdown: Mali's
    /// `AS_CMD_FLUSH`, or a v3d `MMU_CTRL` write with the self-clearing
    /// TLB-clear bit. Required after an unmap so no stale translation can
    /// be served once the VA (or its backing frame) is recycled.
    pub fn tlb_shootdown(self, machine: &Machine) {
        match self {
            NanoIface::Mali => {
                machine.gpu_write32(mali::regs::AS0_COMMAND, mali::regs::AS_CMD_FLUSH);
            }
            NanoIface::V3d => {
                let ctrl = machine.gpu_read32(v3d::regs::MMU_CTRL);
                machine.gpu_write32(v3d::regs::MMU_CTRL, ctrl | v3d::regs::MMU_CTRL_TLB_CLEAR);
            }
        }
    }

    /// Issues a GPU soft reset and waits for it (the §5.4 recovery and
    /// §5.3 handoff primitive).
    pub fn soft_reset(self, machine: &Machine) -> Result<(), ReplayError> {
        let poll = |reg: u32, mask: u32, want: u32| -> Result<(), ReplayError> {
            let (v, _) = machine.poll_reg(
                reg,
                mask,
                want,
                gr_sim::SimDuration::from_micros(2),
                gr_sim::SimDuration::from_millis(50),
            );
            if v & mask == want {
                Ok(())
            } else {
                Err(ReplayError::Env("reset timeout".into()))
            }
        };
        match self {
            NanoIface::Mali => {
                machine.gpu_write32(mali::regs::GPU_COMMAND, mali::regs::GPU_CMD_SOFT_RESET);
                poll(
                    mali::regs::GPU_IRQ_RAWSTAT,
                    mali::regs::GPU_IRQ_RESET_COMPLETED,
                    mali::regs::GPU_IRQ_RESET_COMPLETED,
                )?;
                machine.gpu_write32(
                    mali::regs::GPU_IRQ_CLEAR,
                    mali::regs::GPU_IRQ_RESET_COMPLETED,
                );
            }
            NanoIface::V3d => {
                machine.gpu_write32(v3d::regs::CTL_RESET, 1);
                poll(v3d::regs::CT0CS, v3d::regs::CS_RESETTING, 0)?;
            }
        }
        Ok(())
    }

    /// Frames in the family's top-level page table: one Mali L1 table, or
    /// the whole flat v3d table.
    pub(crate) fn root_pages(self) -> usize {
        match self {
            NanoIface::Mali => 1,
            NanoIface::V3d => v3d::pgtable::PT_PAGES,
        }
    }

    /// Allocates the family's top-level page table as
    /// [`NanoIface::root_pages`] contiguous frames, zeroes it with one fill
    /// and returns its base.
    pub(crate) fn alloc_root(self, machine: &Machine) -> Result<u64, ReplayError> {
        let pages = self.root_pages();
        let root = machine
            .frames()
            .lock()
            .alloc_contig(pages)
            .ok_or(ReplayError::OutOfMemory)?;
        machine
            .mem()
            .fill(root, pages * PAGE_SIZE, 0)
            .map_err(|_| ReplayError::OutOfMemory)?;
        Ok(root)
    }

    /// The L1 slot whose L2 table maps `va` (Mali), or `None` for a
    /// single-level family (v3d), whose whole table is the root.
    pub(crate) fn table_slot(self, va: u64) -> Option<u64> {
        match self {
            NanoIface::Mali => Some((va >> MALI_L1_SHIFT) & MALI_IDX_MASK),
            NanoIface::V3d => None,
        }
    }

    /// Writes the PTEs of the region at `va` backed by frames `pas`: with
    /// `flags`, page `i` maps `pas[i]` carrying the *opaque* recorded bits
    /// `flags[i]`; without, every PTE is cleared. The nano driver only
    /// knows where the PA field lives (Table 1 "Pgtables" knowledge); the
    /// permission bits pass through untouched. On Mali it also points the
    /// L1 entry of each slot the region covers at that slot's L2 table,
    /// which `tables` (L1 slot → table PA) must hold.
    pub(crate) fn write_region(
        self,
        mem: &mut PhysMem,
        root_pa: u64,
        tables: &BTreeMap<u64, u64>,
        va: u64,
        pas: &[u64],
        flags: Option<&[u16]>,
    ) -> Result<(), MemError> {
        for (i, &pa) in pas.iter().enumerate() {
            let va = va + (i * PAGE_SIZE) as u64;
            let bits = flags.map(|f| f[i]);
            match self {
                NanoIface::Mali => {
                    let slot = (va >> MALI_L1_SHIFT) & MALI_IDX_MASK;
                    let table = tables[&slot];
                    if i == 0 || va % (1 << MALI_L1_SHIFT) == 0 {
                        mem.write_u64(root_pa + slot * 8, (table & MALI_PA_MASK) | 1)?;
                    }
                    let pte = bits.map_or(0, |b| (pa & MALI_PA_MASK) | u64::from(b));
                    mem.write_u64(table + ((va >> MALI_L2_SHIFT) & MALI_IDX_MASK) * 8, pte)?;
                }
                NanoIface::V3d => {
                    let pte = bits.map_or(0, |b| (((pa >> 12) as u32) << 4) | u32::from(b & 0xF));
                    mem.write_u32(root_pa + (va >> 12) * 4, pte)?;
                }
            }
        }
        Ok(())
    }

    /// The VA-space limit of the family.
    pub fn va_limit(self) -> u64 {
        match self {
            NanoIface::Mali => mali::pgtable::VA_SPACE_SIZE,
            NanoIface::V3d => v3d::pgtable::VA_SPACE_SIZE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_gpu::sku::{MALI_G71, V3D_RPI4};

    #[test]
    fn whitelists_differ_by_family() {
        let m = NanoIface::Mali;
        let v = NanoIface::V3d;
        assert!(m.is_known_reg(mali::regs::JS0_COMMAND));
        assert!(!v.is_known_reg(mali::regs::JS0_COMMAND));
        assert!(v.is_known_reg(v3d::regs::CT0EA_LO));
        assert!(m.is_kick_reg(mali::regs::JS0_COMMAND));
        assert!(v.is_kick_reg(v3d::regs::CT0EA_LO));
        assert!(!m.is_kick_reg(mali::regs::GPU_IRQ_MASK));
        assert_eq!(NanoIface::from_name("mali"), Some(NanoIface::Mali));
        assert_eq!(NanoIface::from_name("v3d"), Some(NanoIface::V3d));
        assert_eq!(NanoIface::from_name("adreno"), None);
    }

    #[test]
    fn raw_mapping_preserves_opaque_flags_mali() {
        const VA: u64 = 0x40_0000;
        let machine = Machine::new(&MALI_G71, 1);
        let iface = NanoIface::Mali;
        let root = iface.alloc_root(&machine).unwrap();
        let (table, frame) = {
            let mut frames = machine.frames().lock();
            (frames.alloc().unwrap(), frames.alloc().unwrap())
        };
        machine.mem().fill(table, PAGE_SIZE, 0).unwrap();
        let tables = BTreeMap::from([(iface.table_slot(VA).unwrap(), table)]);
        let write = |flags| {
            let mut g = machine.mem().write_guard();
            iface
                .write_region(&mut g, root, &tables, VA, &[frame], flags)
                .unwrap();
        };
        let translate = || {
            gr_gpu::mali::pgtable::translate(
                machine.mem(),
                gr_gpu::PteFormat::MaliStandard,
                root,
                VA,
            )
        };
        // Map with raw bits 0xF (whatever they mean) and read back through
        // the device's own walker in standard format.
        write(Some(&[0xF]));
        let (pa, flags) = translate().unwrap();
        assert_eq!(pa, frame);
        assert!(flags.valid && flags.write && flags.exec && flags.cpu_mapped);
        write(None);
        assert!(translate().is_none());
    }

    #[test]
    fn raw_mapping_v3d() {
        const VA: u64 = 0x9000;
        let machine = Machine::new(&V3D_RPI4, 1);
        let iface = NanoIface::V3d;
        let root = iface.alloc_root(&machine).unwrap();
        assert_eq!(machine.frames().lock().used(), v3d::pgtable::PT_PAGES);
        assert_eq!(iface.table_slot(VA), None);
        let frame = machine.frames().lock().alloc().unwrap();
        let write = |flags| {
            let mut g = machine.mem().write_guard();
            iface
                .write_region(&mut g, root, &BTreeMap::new(), VA, &[frame], flags)
                .unwrap();
        };
        write(Some(&[0x3]));
        let (pa, fl) = gr_gpu::v3d::pgtable::translate(machine.mem(), root, VA).unwrap();
        assert_eq!(pa, frame);
        assert!(fl.write);
        write(None);
        assert!(gr_gpu::v3d::pgtable::translate(machine.mem(), root, VA).is_none());
    }

    #[test]
    fn soft_reset_completes_on_powered_machines() {
        let machine = Machine::new(&MALI_G71, 1);
        // Power the domains like an OS kernel would.
        for d in [
            gr_soc::pmc::PmcDomain::GpuCore,
            gr_soc::pmc::PmcDomain::GpuMem,
        ] {
            machine.pmc().write32(gr_soc::pmc::Pmc::pwr_ctrl_off(d), 1);
        }
        machine.advance(gr_soc::pmc::SETTLE_DELAY);
        NanoIface::Mali.soft_reset(&machine).unwrap();
    }
}
