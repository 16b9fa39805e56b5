//! Family-specific GPU memory dump policies (§4.3, §6.1, §6.2).

use std::collections::{BTreeMap, BTreeSet};

use gr_gpu::mali::pgtable::decode_flags;
use gr_gpu::sku::{GpuFamilyKind, GpuSku, PteFormat};
use gr_gpu::v3d::cl::{parse_list, ClPacket};
use gr_soc::PAGE_SIZE;
use gr_stack::driver::RegionKind;
use gr_stack::hooks::{DumpCtx, JobRoot};

/// Returns the (page VA, frame PA) pairs the policy selects for the job
/// about to be submitted. The recorder fingerprints those frames where
/// they sit in DRAM and copies out only the pages that changed.
pub fn policy_frames(sku: &GpuSku, ctx: &DumpCtx<'_>) -> Vec<(u64, u64)> {
    match sku.family {
        GpuFamilyKind::Mali => mali_frames(sku.pte_format, ctx),
        GpuFamilyKind::V3d => v3d_frames(ctx),
    }
}

/// Mali §6.1 heuristic, driven by page *permissions*:
/// executable-to-GPU pages are job chains → dump; pages that are
/// non-executable **and** unmapped from CPU are GPU-internal buffers →
/// exclude; remaining (CPU-mapped data) pages → dump.
fn mali_frames(fmt: PteFormat, ctx: &DumpCtx<'_>) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for r in ctx.regions {
        // The recorder is built per SKU (§3.1) and knows the exact PTE
        // layout from the driver's interface knowledge.
        for (i, (&bits, &pa)) in r.pte_flags.iter().zip(&r.pas).enumerate() {
            let flags = decode_flags(fmt, u64::from(bits));
            // Neither: GPU-internal, never touched by CPU.
            if flags.exec || flags.cpu_mapped {
                out.push((r.va + (i * PAGE_SIZE) as u64, pa));
            }
        }
    }
    out
}

/// v3d §6.2 policy: no exec bit, so (1) follow the control-list registers
/// and chase BRANCH/RUN_SHADER pointers to find binary pages, and (2) use
/// the allocation-flag hints to exclude scratch while conservatively
/// including everything else. Frames come in VA order.
fn v3d_frames(ctx: &DumpCtx<'_>) -> Vec<(u64, u64)> {
    // (1) Pointer chase from the submitted control list; chased pages
    // outside every region are dropped.
    let mut chased = BTreeSet::new();
    if let JobRoot::V3dList { cl_va, cl_len } = ctx.root {
        chase_list(ctx, cl_va, cl_len, 0, &mut chased);
    }
    let mut frames: BTreeMap<u64, u64> = chased
        .into_iter()
        .filter_map(|va| Some((va, ctx.pa_of(va)?)))
        .collect();

    // (2) Alloc-flag hints: everything except Scratch, conservatively.
    for r in ctx.regions.iter().filter(|r| r.kind != RegionKind::Scratch) {
        for (i, &pa) in r.pas.iter().enumerate() {
            frames.insert(r.va + (i * PAGE_SIZE) as u64, pa);
        }
    }
    frames.into_iter().collect()
}

fn chase_list(ctx: &DumpCtx<'_>, va: u64, len: u32, depth: usize, pages: &mut BTreeSet<u64>) {
    if depth > 8 {
        return;
    }
    mark_range(va, u64::from(len), pages);
    let Some(bytes) = ctx.read_va(va, len as usize) else {
        return;
    };
    let Ok(packets) = parse_list(&bytes) else {
        return;
    };
    for p in packets {
        match p {
            ClPacket::RunShader { va, len, .. } => mark_range(va, u64::from(len), pages),
            ClPacket::Branch { va, len } => chase_list(ctx, va, len, depth + 1, pages),
            _ => {}
        }
    }
}

fn mark_range(va: u64, len: u64, pages: &mut BTreeSet<u64>) {
    let first = va & !(PAGE_SIZE as u64 - 1);
    let last = (va + len.max(1) - 1) & !(PAGE_SIZE as u64 - 1);
    let mut p = first;
    while p <= last {
        pages.insert(p);
        p += PAGE_SIZE as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_gpu::mali::pgtable::{encode_flags, PteFlags};
    use gr_gpu::timing::JobCost;
    use gr_gpu::v3d::cl::ClWriter;
    use gr_soc::{PhysMem, SharedMem};
    use gr_stack::hooks::RegionSnapshot;

    fn region(
        va: u64,
        pages: usize,
        kind: RegionKind,
        flags: u16,
        first_pa: u64,
    ) -> RegionSnapshot {
        RegionSnapshot {
            va,
            pages,
            kind,
            pte_flags: vec![flags; pages],
            pas: (0..pages)
                .map(|i| first_pa + (i * PAGE_SIZE) as u64)
                .collect(),
        }
    }

    #[test]
    fn mali_policy_follows_permissions() {
        let mem = SharedMem::new(PhysMem::new(0, 16 * PAGE_SIZE));
        let exec_bits = encode_flags(PteFormat::MaliStandard, PteFlags::exec_cpu()) as u16;
        let data_bits = encode_flags(PteFormat::MaliStandard, PteFlags::rw_cpu()) as u16;
        let internal_bits = encode_flags(PteFormat::MaliStandard, PteFlags::internal()) as u16;
        let regions = vec![
            region(0x10000, 1, RegionKind::JobBinary, exec_bits, 0),
            region(0x20000, 1, RegionKind::Data, data_bits, PAGE_SIZE as u64),
            region(
                0x30000,
                2,
                RegionKind::Internal,
                internal_bits,
                2 * PAGE_SIZE as u64,
            ),
        ];
        let ctx = DumpCtx {
            mem: &mem,
            regions: &regions,
            root: JobRoot::MaliChain { head_va: 0x10000 },
        };
        assert_eq!(
            mali_frames(PteFormat::MaliStandard, &ctx),
            vec![(0x10000, 0), (0x20000, PAGE_SIZE as u64)],
            "internal pages excluded"
        );
    }

    #[test]
    fn mali_policy_handles_lpae_bits_too() {
        let mem = SharedMem::new(PhysMem::new(0, 8 * PAGE_SIZE));
        let internal_lpae = encode_flags(PteFormat::MaliLpae, PteFlags::internal()) as u16;
        let exec_lpae = encode_flags(PteFormat::MaliLpae, PteFlags::exec_cpu()) as u16;
        let regions = vec![
            region(0x10000, 1, RegionKind::JobBinary, exec_lpae, 0),
            region(
                0x20000,
                1,
                RegionKind::Internal,
                internal_lpae,
                PAGE_SIZE as u64,
            ),
        ];
        let ctx = DumpCtx {
            mem: &mem,
            regions: &regions,
            root: JobRoot::MaliChain { head_va: 0x10000 },
        };
        assert_eq!(mali_frames(PteFormat::MaliLpae, &ctx), vec![(0x10000, 0)]);
    }

    #[test]
    fn v3d_policy_chases_pointers_and_skips_scratch() {
        let mem = SharedMem::new(PhysMem::new(0, 32 * PAGE_SIZE));
        // Control list at VA 0x5000 branches to 0x9000 which runs a shader
        // at 0x4_0000 (outside any hinted region to prove chasing works).
        let regions = vec![
            region(0x5000, 1, RegionKind::JobBinary, 0x3, 0),
            region(0x9000, 1, RegionKind::JobBinary, 0x3, PAGE_SIZE as u64),
            region(0x4_0000, 1, RegionKind::Scratch, 0x3, 2 * PAGE_SIZE as u64),
            region(0x6_0000, 1, RegionKind::Data, 0x3, 3 * PAGE_SIZE as u64),
            region(0x7_0000, 1, RegionKind::Scratch, 0x3, 4 * PAGE_SIZE as u64),
        ];
        let mut sub = ClWriter::new();
        sub.run_shader(0x4_0000, 16, JobCost::default());
        let sub_bytes = sub.finish();
        mem.write(PAGE_SIZE as u64, &sub_bytes).unwrap(); // VA 0x9000 -> PA page 1
        let mut main = ClWriter::new();
        main.branch(0x9000, sub_bytes.len() as u32);
        let main_bytes = main.finish();
        mem.write(0, &main_bytes).unwrap(); // VA 0x5000 -> PA page 0
        let ctx = DumpCtx {
            mem: &mem,
            regions: &regions,
            root: JobRoot::V3dList {
                cl_va: 0x5000,
                cl_len: main_bytes.len() as u32,
            },
        };
        let frames = v3d_frames(&ctx);
        let vas: Vec<u64> = frames.iter().map(|(va, _)| *va).collect();
        assert!(vas.windows(2).all(|w| w[0] < w[1]), "VA order");
        assert!(
            frames.contains(&(0x4_0000, 2 * PAGE_SIZE as u64)),
            "chased page resolved through its region"
        );
        assert!(vas.contains(&0x5000), "list page");
        assert!(vas.contains(&0x9000), "branched sub-list page");
        assert!(
            vas.contains(&0x4_0000),
            "shader page found via pointer chase"
        );
        assert!(vas.contains(&0x6_0000), "data hint");
        assert!(
            !vas.contains(&0x7_0000),
            "scratch excluded unless referenced"
        );
    }

    #[test]
    fn v3d_dumps_more_than_mali_for_same_regions() {
        // The paper: "being conservative, the [v3d] recorder has to dump
        // more pages than Mali in general".
        let mem = SharedMem::new(PhysMem::new(0, 32 * PAGE_SIZE));
        let internal_bits = encode_flags(PteFormat::MaliStandard, PteFlags::internal()) as u16;
        let regions = vec![
            region(0x10000, 4, RegionKind::Internal, internal_bits, 0),
            region(0x20000, 1, RegionKind::Data, 0xB, 4 * PAGE_SIZE as u64),
        ];
        let mali_ctx = DumpCtx {
            mem: &mem,
            regions: &regions,
            root: JobRoot::MaliChain { head_va: 0 },
        };
        let v3d_ctx = DumpCtx {
            mem: &mem,
            regions: &regions,
            root: JobRoot::V3dList {
                cl_va: 0,
                cl_len: 0,
            },
        };
        assert!(v3d_frames(&v3d_ctx).len() > mali_frames(PteFormat::MaliStandard, &mali_ctx).len());
    }
}
