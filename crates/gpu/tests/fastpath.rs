//! Differential tests for the zero-copy replay fast path.
//!
//! The software TLB must be *invisible*: a [`TranslatingVaMem`] with a
//! warm [`SoftTlb`] has to be byte-identical to one that walks the page
//! tables on every access — across random page mappings (including
//! aliasing and read-only and unmapped pages), accesses that straddle
//! page boundaries, and mid-job remapping with explicit invalidation.

use gr_gpu::device::{SoftTlb, TranslatingVaMem};
use gr_gpu::vm::exec::VaMem;
use gr_gpu::SharedAccessLog;
use gr_soc::{PhysMem, SharedMem, PAGE_SIZE};
use proptest::prelude::*;

/// Virtual pages covered by the random mappings.
const VA_PAGES: usize = 16;
/// Physical frames in the tiny DRAM (frame 0 plays "unmapped").
const FRAMES: usize = 24;

/// One random access: `(write?, va, len, fill_byte)`.
type Access = ((bool, u64), (usize, u8));

fn make_translate(mapping: Vec<(u64, bool)>) -> impl FnMut(u64) -> Option<(u64, bool)> + Clone {
    move |page_va: u64| {
        let idx = (page_va / PAGE_SIZE as u64) as usize;
        let &(frame, writable) = mapping.get(idx)?;
        // Frame 0 is reserved: mapping onto it means "unmapped".
        if frame == 0 {
            return None;
        }
        Some((frame * PAGE_SIZE as u64, writable))
    }
}

/// Applies one access through `m`, returning a comparable outcome.
fn apply<M: VaMem>(m: &mut M, acc: &Access) -> Result<Vec<u8>, u64> {
    let ((write, raw_va), (raw_len, byte)) = *acc;
    let space = (VA_PAGES * PAGE_SIZE) as u64;
    let va = raw_va % (space - 1);
    let len = 1 + raw_len % (2 * PAGE_SIZE).min((space - va) as usize);
    if write {
        if byte % 2 == 0 {
            // Exercise the pooled f32 path on even bytes.
            let vals = vec![f32::from_le_bytes([byte, byte, 0, 0]); len.div_ceil(4)];
            m.write_f32s(va, &vals).map(|()| Vec::new())
        } else {
            m.write_bytes(va, &vec![byte; len]).map(|()| Vec::new())
        }
    } else if byte % 2 == 0 {
        let mut out = Vec::new();
        m.read_f32s_into(va, len.div_ceil(4), &mut out)
            .map(|()| out.iter().flat_map(|v| v.to_le_bytes()).collect())
    } else {
        m.read_bytes(va, len)
    }
}

fn dram() -> SharedMem {
    SharedMem::new(PhysMem::new(0, FRAMES * PAGE_SIZE))
}

proptest! {
    #[test]
    fn tlb_is_byte_identical_to_translate_every_access(
        mapping in proptest::collection::vec((1u64..FRAMES as u64, any::<bool>()), VA_PAGES..VA_PAGES + 1),
        accesses in proptest::collection::vec(((any::<bool>(), any::<u64>()), (any::<usize>(), any::<u8>())), 1..24),
        remap in ((0u64..VA_PAGES as u64, 1u64..FRAMES as u64), any::<bool>()),
    ) {
        // Two identical DRAMs: one accessed through a persistent TLB, one
        // walking the mapping on every access.
        let mem_tlb = dram();
        let mem_walk = dram();
        let log = SharedAccessLog::new();
        let mut tlb = SoftTlb::new();
        let mut mapping = mapping;
        let half = accesses.len() / 2;

        {
            let translate = make_translate(mapping.clone());
            let mut with_tlb = TranslatingVaMem::with_tlb(&mem_tlb, &log, translate.clone(), &mut tlb);
            let mut walk = TranslatingVaMem::new(&mem_walk, &log, translate);
            for acc in &accesses[..half] {
                assert_eq!(apply(&mut with_tlb, acc), apply(&mut walk, acc));
            }
        }

        // Mid-job remap (the "PTE rewrite" case): point one page at a
        // different frame and invalidate exactly that TLB entry. The
        // walking accessor sees the new mapping immediately; the TLB
        // accessor must behave identically after invalidation.
        let ((page, new_frame), writable) = remap;
        mapping[page as usize] = (new_frame, writable);
        tlb.invalidate_page(page * PAGE_SIZE as u64 + 7);

        {
            let translate = make_translate(mapping.clone());
            let mut with_tlb = TranslatingVaMem::with_tlb(&mem_tlb, &log, translate.clone(), &mut tlb);
            let mut walk = TranslatingVaMem::new(&mem_walk, &log, translate);
            for acc in &accesses[half..] {
                assert_eq!(apply(&mut with_tlb, acc), apply(&mut walk, acc));
            }
        }

        // Both DRAMs must end bit-identical.
        assert_eq!(
            mem_tlb.read_vec(0, FRAMES * PAGE_SIZE).unwrap(),
            mem_walk.read_vec(0, FRAMES * PAGE_SIZE).unwrap()
        );
    }
}

#[test]
fn boundary_straddling_reads_hit_every_page_once() {
    let mem = dram();
    let log = SharedAccessLog::new();
    let mut tlb = SoftTlb::new();
    let mapping: Vec<(u64, bool)> = (0..VA_PAGES as u64).map(|i| (i + 2, true)).collect();
    let mut vm = TranslatingVaMem::with_tlb(&mem, &log, make_translate(mapping), &mut tlb);
    // A write spanning three pages, twice; translations are cached after
    // the first pass.
    let va = PAGE_SIZE as u64 - 100;
    let data: Vec<u8> = (0..(2 * PAGE_SIZE + 50) as u32).map(|v| v as u8).collect();
    vm.write_bytes(va, &data).unwrap();
    assert_eq!(vm.read_bytes(va, data.len()).unwrap(), data);
    vm.write_bytes(va, &data).unwrap();
    assert_eq!(vm.read_bytes(va, data.len()).unwrap(), data);
    drop(vm);
    assert_eq!(tlb.misses(), 3, "three pages, each walked once");
    assert_eq!(tlb.hits(), 9, "remaining lookups served by the TLB");
}
