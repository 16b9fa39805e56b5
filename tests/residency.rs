//! Cross-batch warm residency: consecutive `replay_batch` calls for the
//! same recording elide the prologue when the DRAM dirty-line map proves
//! the machine's memory unchanged — and the result must be bit-identical
//! to a cold (residency-disabled) replayer on both SKUs (proptest),
//! including:
//!
//! * an adversarial external write that dirties one byte of a dump
//!   between batches, behind thousands of writes to unmapped DRAM —
//!   exactly that line re-uploads, everything else stays elided, outputs
//!   stay bit-exact;
//! * a §5.4 fault mid-batch — the recovery reset bumps the dirty-map
//!   epoch, so the *next* batch must drop residency and run the full
//!   prologue;
//! * two replayers interleaving batches on one machine — each batch
//!   switches the page-table root, so neither may ever elide.

use std::sync::OnceLock;

use gpureplay::prelude::*;
use gr_gpu::{FaultKind, GpuSku, PteFormat};
use gr_mlfw::cpu_ref;
use gr_mlfw::exec::GpuNetwork;
use gr_sim::SimRng;
use proptest::prelude::*;

fn random_input(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| rng.unit_f64() as f32).collect()
}

struct Recorded {
    bytes: Vec<u8>,
    net: GpuNetwork,
}

fn recorded(sku: &'static GpuSku, seed: u64) -> Recorded {
    let dev = Machine::new(sku, seed);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, seed)
        .unwrap();
    let bytes = recs.recordings[0].to_bytes();
    harness.finish();
    Recorded {
        bytes,
        net: recs.net,
    }
}

fn mali() -> &'static Recorded {
    static REC: OnceLock<Recorded> = OnceLock::new();
    REC.get_or_init(|| recorded(&sku::MALI_G71, 171))
}

fn v3d() -> &'static Recorded {
    static REC: OnceLock<Recorded> = OnceLock::new();
    REC.get_or_init(|| recorded(&sku::V3D_RPI4, 173))
}

const TEST_DRAM: usize = 32 * 1024 * 1024;

fn make_replayer(
    sku_ref: &'static GpuSku,
    env: EnvKind,
    bytes: &[u8],
    seed: u64,
    residency: bool,
) -> (Replayer, usize, Machine) {
    let machine = Machine::with_dram(sku_ref, seed, TEST_DRAM);
    let environment = Environment::new(env, machine.clone()).unwrap();
    let mut replayer = Replayer::new(environment);
    replayer.set_residency(residency);
    let id = replayer.load_bytes(bytes).unwrap();
    (replayer, id, machine)
}

fn ios_for(replayer: &Replayer, id: usize, inputs: &[Vec<f32>]) -> Vec<ReplayIo> {
    inputs
        .iter()
        .map(|input| {
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, input).unwrap();
            io
        })
        .collect()
}

/// Replays `batches` on a resident replayer and on a cold one; asserts
/// bit-identical outputs, that residency actually elided prologue work
/// from the second batch on, and that the cold path never elided.
fn check_resident_vs_cold(
    sku_ref: &'static GpuSku,
    env: EnvKind,
    rec: &Recorded,
    batches: &[Vec<Vec<f32>>],
    seed: u64,
) {
    let (mut warm, warm_id, _) = make_replayer(sku_ref, env, &rec.bytes, seed, true);
    let (mut cold, cold_id, _) = make_replayer(sku_ref, env, &rec.bytes, seed ^ 0x5A5A, false);

    for (b, inputs) in batches.iter().enumerate() {
        let mut warm_ios = ios_for(&warm, warm_id, inputs);
        let warm_report = warm.replay_batch(warm_id, &mut warm_ios).unwrap();
        let mut cold_ios = ios_for(&cold, cold_id, inputs);
        let cold_report = cold.replay_batch(cold_id, &mut cold_ios).unwrap();

        assert!(warm_report.amortized && cold_report.amortized);
        assert_eq!(
            cold_report.prologue_skipped, 0,
            "batch {b}: residency disabled must never elide"
        );
        if b == 0 {
            assert_eq!(
                warm_report.prologue_skipped, 0,
                "first batch has no residency to consume"
            );
        } else {
            assert!(
                warm_report.prologue_skipped > 0,
                "batch {b}: steady-state batch must elide prologue work, got {warm_report:?}"
            );
        }
        for (k, (wio, cio)) in warm_ios.iter().zip(&cold_ios).enumerate() {
            let w = wio.output_f32(0).unwrap();
            assert_eq!(
                w,
                cio.output_f32(0).unwrap(),
                "batch {b} element {k}: resident replay diverged from cold replay"
            );
            assert_eq!(
                w,
                cpu_ref::cpu_infer(&rec.net, &inputs[k]),
                "batch {b} element {k}: replay diverged from CPU reference"
            );
        }
    }
    warm.cleanup();
    cold.cleanup();
}

/// Each replayed MNIST inference costs tens of milliseconds in debug
/// builds; cap the campaign so tier-1 stays fast.
const MAX_HEAVY_CASES: usize = 16;

proptest! {
    #[test]
    fn resident_batches_bit_identical_to_cold_on_both_skus(
        n in 1usize..4,
        rounds in 2usize..4,
        seed in 0u64..1_000_000,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASES_RUN: AtomicUsize = AtomicUsize::new(0);
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) >= MAX_HEAVY_CASES {
            return;
        }
        for (sku_ref, env, rec) in [
            (&sku::MALI_G71, EnvKind::UserLevel, mali()),
            (&sku::V3D_RPI4, EnvKind::KernelLevel, v3d()),
        ] {
            let batches: Vec<Vec<Vec<f32>>> = (0..rounds)
                .map(|r| {
                    (0..n)
                        .map(|k| random_input(
                            rec.net.input_len(),
                            seed.wrapping_add((r * 31 + k) as u64 * 7919),
                        ))
                        .collect()
                })
                .collect();
            check_resident_vs_cold(sku_ref, env, rec, &batches, seed | 1);
        }
    }
}

/// Resolves the physical address backing GPU VA `va` by walking the
/// family's page tables exactly as the hardware would — the test acts as
/// an external agent writing DRAM behind the replayer's back.
fn gpu_va_to_pa(machine: &Machine, va: u64) -> u64 {
    match machine.sku().family {
        gr_gpu::GpuFamilyKind::Mali => {
            let lo = u64::from(machine.gpu_read32(gr_gpu::mali::regs::AS0_TRANSTAB_LO));
            let hi = u64::from(machine.gpu_read32(gr_gpu::mali::regs::AS0_TRANSTAB_HI));
            let root = lo | (hi << 32);
            let fmt = match machine.sku().pte_format {
                PteFormat::MaliLpae => PteFormat::MaliLpae,
                _ => PteFormat::MaliStandard,
            };
            gr_gpu::mali::pgtable::translate(machine.mem(), fmt, root, va & !0xFFF)
                .expect("dump va must be mapped")
                .0
                + (va & 0xFFF)
        }
        gr_gpu::GpuFamilyKind::V3d => {
            let lo = u64::from(machine.gpu_read32(gr_gpu::v3d::regs::MMU_PT_BASE_LO));
            let hi = u64::from(machine.gpu_read32(gr_gpu::v3d::regs::MMU_PT_BASE_HI));
            let root = lo | (hi << 32);
            gr_gpu::v3d::pgtable::translate(machine.mem(), root, va & !0xFFF)
                .expect("dump va must be mapped")
                .0
                + (va & 0xFFF)
        }
    }
}

/// Per-dump verdict: `(dump_idx, fully_clean, Option<(clean_page_va,
/// chunk_len)>)`.
type DumpCleanliness = Vec<(usize, bool, Option<(u64, usize)>)>;

/// Per-dump page cleanliness since the last batch's residency anchor
/// cleared the dirty-line map, read through the public API.
fn dump_cleanliness(machine: &Machine, bytes: &[u8]) -> DumpCleanliness {
    let rec = Recording::from_bytes(bytes).unwrap();
    rec.dumps
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let mut fully_clean = true;
            let mut clean_page = None;
            for off in (0..d.bytes.len()).step_by(4096) {
                let va = d.va + off as u64;
                let len = (d.bytes.len() - off).min(4096 - (va as usize & 0xFFF));
                let pa = gpu_va_to_pa(machine, va);
                if machine.mem().dirty_lines(pa, len).is_empty() {
                    clean_page.get_or_insert((va, len));
                } else {
                    fully_clean = false;
                }
            }
            (i, fully_clean, clean_page)
        })
        .collect()
}

fn dirty_one_page_case(sku_ref: &'static GpuSku, env: EnvKind, rec: &Recorded, seed: u64) {
    let (mut warm, id, machine) = make_replayer(sku_ref, env, &rec.bytes, seed, true);
    let inputs: Vec<Vec<f32>> = (0..2)
        .map(|k| random_input(rec.net.input_len(), seed + k))
        .collect();

    let mut ios = ios_for(&warm, id, &inputs);
    warm.replay_batch(id, &mut ios).unwrap();
    let mut ios = ios_for(&warm, id, &inputs);
    let steady = warm.replay_batch(id, &mut ios).unwrap();
    assert!(steady.prologue_skipped > 0, "{steady:?}");

    // External agent scribbles one byte into a page the steady-state
    // batch provably kept clean (and therefore elided). Prefer a fully
    // clean dump (its whole upload was skipped); fall back to a clean
    // page of a partially-dirty dump (only its dirty subranges re-upload).
    let lanes = dump_cleanliness(&machine, &rec.bytes);
    let (poke_page_va, _, dump_was_fully_clean) = lanes
        .iter()
        .filter_map(|(_, clean, page)| page.map(|(va, len)| (va, len, *clean)))
        .max_by_key(|&(_, len, clean)| (clean, len))
        .expect("steady-state batches must keep at least one dump page clean");
    // First, 20,000 scattered single-byte writes to DRAM no frame backs,
    // far more than a bounded write log could keep: the map is exact, so
    // none of them may cost a re-upload.
    let scratch = machine.mem().end() - 4 * 1024 * 1024;
    for page in (scratch..machine.mem().end()).step_by(4096) {
        assert!(!machine.frames().lock().is_allocated(page));
    }
    for i in 0..20_000u64 {
        machine.mem().write(scratch + i * 200, &[i as u8]).unwrap();
    }
    // Then poke one byte mid-page, off the 64-byte transfer-line grid.
    let poke_va = poke_page_va + 0x7B3;
    let pa = gpu_va_to_pa(&machine, poke_va);
    machine.mem().write(pa, &[0xAB]).unwrap();

    let mut ios = ios_for(&warm, id, &inputs);
    let dirtied = warm.replay_batch(id, &mut ios).unwrap();
    // Only the dirtied range re-uploads — rounded out to the 64-byte
    // transfer line around the poked byte, nothing more.
    assert_eq!(
        dirtied.resident_reupload_bytes,
        steady.resident_reupload_bytes + 64,
        "exactly the dirtied line must re-upload: {dirtied:?} vs {steady:?}"
    );
    if dump_was_fully_clean {
        // The previously fully-elided upload action now runs (partially).
        assert_eq!(
            dirtied.prologue_skipped,
            steady.prologue_skipped - 1,
            "the dirtied dump's upload action must run: {dirtied:?}"
        );
    } else {
        assert_eq!(dirtied.prologue_skipped, steady.prologue_skipped);
    }
    // The re-upload restored the dump bytes: outputs stay bit-exact.
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            ios[k].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&rec.net, input),
            "element {k} corrupted by the external write"
        );
    }
    warm.cleanup();
}

#[test]
fn dirtied_dump_page_triggers_reupload_of_that_range_only_mali() {
    dirty_one_page_case(&sku::MALI_G71, EnvKind::UserLevel, mali(), 7100);
}

#[test]
fn dirtied_dump_page_triggers_reupload_of_that_range_only_v3d() {
    dirty_one_page_case(&sku::V3D_RPI4, EnvKind::KernelLevel, v3d(), 7200);
}

/// A §5.4 fault mid-batch resets the GPU, which bumps the dirty-log
/// epoch: the faulted batch still completes bit-exactly (recovery), and
/// the *next* batch must run the full prologue (residency dropped).
#[test]
fn fault_rewarm_drops_residency() {
    let rec = mali();
    let (mut warm, id, machine) =
        make_replayer(&sku::MALI_G71, EnvKind::UserLevel, &rec.bytes, 91, true);
    let inputs: Vec<Vec<f32>> = (0..2)
        .map(|k| random_input(rec.net.input_len(), 900 + k))
        .collect();

    let mut ios = ios_for(&warm, id, &inputs);
    warm.replay_batch(id, &mut ios).unwrap();
    // Armed glitch: fires on the next started job — inside the next
    // batch's suffix, after the residency decision already elided the
    // prologue.
    machine.inject_fault(FaultKind::OfflineCores { mask: 0xFF });
    let mut ios = ios_for(&warm, id, &inputs);
    let faulted = warm.replay_batch(id, &mut ios).unwrap();
    assert!(faulted.prologue_skipped > 0, "{faulted:?}");
    assert!(faulted.retries >= 1, "the glitch must force §5.4 recovery");
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            ios[k].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&rec.net, input),
            "element {k} poisoned by mid-batch recovery"
        );
    }

    // The recovery reset invalidated the warm anchor: full prologue.
    let mut ios = ios_for(&warm, id, &inputs);
    let after = warm.replay_batch(id, &mut ios).unwrap();
    assert_eq!(
        after.prologue_skipped, 0,
        "a §5.4 re-warm must drop residency: {after:?}"
    );
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            ios[k].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&rec.net, input)
        );
    }
    warm.cleanup();
}

/// Two replayers on one machine interleave batches of the same
/// recording. The dirty-line map has one window per machine, cleared by
/// whichever replayer anchored last; every batch switches the page-table
/// root to its own replayer's tables, which bumps the epoch, so neither
/// replayer may ever trust an anchor — and every output stays bit-exact.
fn two_replayers_case(sku_ref: &'static GpuSku, env: EnvKind, rec: &Recorded, seed: u64) {
    let machine = Machine::with_dram(sku_ref, seed, TEST_DRAM);
    let mut replayers: Vec<(Replayer, usize)> = (0..2)
        .map(|_| {
            let environment = Environment::new(env, machine.clone()).unwrap();
            let mut replayer = Replayer::new(environment);
            replayer.set_residency(true);
            let id = replayer.load_bytes(&rec.bytes).unwrap();
            (replayer, id)
        })
        .collect();
    for round in 0..3u64 {
        for (r, (replayer, id)) in replayers.iter_mut().enumerate() {
            let inputs: Vec<Vec<f32>> = (0..2)
                .map(|k| random_input(rec.net.input_len(), seed + round * 10 + r as u64 * 3 + k))
                .collect();
            let mut ios = ios_for(replayer, *id, &inputs);
            let report = replayer.replay_batch(*id, &mut ios).unwrap();
            assert!(report.amortized);
            assert_eq!(
                report.prologue_skipped, 0,
                "round {round} replayer {r}: the other replayer ran in between: {report:?}"
            );
            for (k, input) in inputs.iter().enumerate() {
                assert_eq!(
                    ios[k].output_f32(0).unwrap(),
                    cpu_ref::cpu_infer(&rec.net, input),
                    "round {round} replayer {r} element {k}"
                );
            }
        }
    }
    for (replayer, _) in replayers {
        replayer.cleanup();
    }
}

#[test]
fn two_replayers_on_one_machine_never_elide_mali() {
    two_replayers_case(&sku::MALI_G71, EnvKind::UserLevel, mali(), 7300);
}

#[test]
fn two_replayers_on_one_machine_never_elide_v3d() {
    two_replayers_case(&sku::V3D_RPI4, EnvKind::KernelLevel, v3d(), 7400);
}
