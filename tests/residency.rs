//! Cross-batch warm residency: consecutive `replay_batch` calls for the
//! same recording elide the prologue and restore only the dump bytes the
//! previous batch's suffix wrote after first reading them (its GPU access
//! sets) — and the result must be bit-identical to a cold
//! (residency-disabled) replayer on both SKUs (proptest), including:
//!
//! * the memory image: after every batch, every dump range and output
//!   slot reads back byte-identical on a resident and a cold replayer,
//!   which pins the premise that every suffix write reaches the access
//!   log;
//! * 20,000 writes to DRAM no frame backs between batches — they cost
//!   no re-upload and no elision (only the replayer and its GPU jobs
//!   write its frames, so nothing outside them is consulted);
//! * checkpointing, which reads memory outside the access log, so no
//!   batch may elide;
//! * a §5.4 fault mid-batch — the recovery reset bumps the GPU epoch, so
//!   the *next* batch must drop residency and run the full prologue;
//! * two replayers interleaving batches on one machine — each batch
//!   switches the page-table root, so neither may ever elide.

use std::sync::OnceLock;

use gpureplay::prelude::*;
use gr_gpu::{FaultKind, GpuSku, IntervalSet, PteFormat};
use gr_mlfw::cpu_ref;
use gr_mlfw::exec::GpuNetwork;
use gr_recording::Action;
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
/// family's page tables exactly as the hardware would.
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
                .expect("va must be mapped")
                .0
                + (va & 0xFFF)
        }
        gr_gpu::GpuFamilyKind::V3d => {
            let lo = u64::from(machine.gpu_read32(gr_gpu::v3d::regs::MMU_PT_BASE_LO));
            let hi = u64::from(machine.gpu_read32(gr_gpu::v3d::regs::MMU_PT_BASE_HI));
            let root = lo | (hi << 32);
            gr_gpu::v3d::pgtable::translate(machine.mem(), root, va & !0xFFF)
                .expect("va must be mapped")
                .0
                + (va & 0xFFF)
        }
    }
}

/// Reads GPU-virtual `[va, va + len)` page by page through the page
/// tables, the way the GPU sees it.
fn read_gpu_va(machine: &Machine, va: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let cur = va + out.len() as u64;
        let n = (len - out.len()).min(4096 - (cur as usize & 0xFFF));
        out.extend(
            machine
                .mem()
                .read_vec(gpu_va_to_pa(machine, cur), n)
                .unwrap(),
        );
    }
    out
}

/// Asserts the premise residency rests on: after a batch, every byte of
/// a prologue upload that no longer holds its post-prologue value lies in
/// the suffix's written set. Each byte is compared with the last prologue
/// upload covering it (`residency_safe` puts nothing but uploads after
/// the first one).
fn assert_changes_are_logged(machine: &Machine, rec: &Recording, split: usize, batch: u64) {
    let written = machine
        .gpu_access()
        .snapshot()
        .expect("the suffix access log must be complete")
        .written;
    let mut cover = IntervalSet::new();
    for ta in rec.actions[..split].iter().rev() {
        let Action::Upload { dump_idx } = ta.action else {
            continue;
        };
        let dump = &rec.dumps[dump_idx as usize];
        let end = dump.va + dump.bytes.len() as u64;
        for (s, e) in cover.subtract_from(dump.va, end) {
            let now = read_gpu_va(machine, s, (e - s) as usize);
            let was = &dump.bytes[(s - dump.va) as usize..(e - dump.va) as usize];
            for (i, _) in now.iter().zip(was).enumerate().filter(|(_, (a, b))| a != b) {
                let va = s + i as u64;
                assert!(
                    written.covers(va, va + 1),
                    "batch {batch}: dump {dump_idx} byte {va:#x} changed but no suffix write was logged"
                );
            }
        }
        cover.insert(dump.va, end);
    }
}

/// Runs 3 batches on a resident and on a cold replayer with the same
/// inputs. After each, every changed byte of a prologue upload must be in
/// the logged written set, and every dump range and every output slot
/// must read back byte-identical on the two machines.
fn memory_image_case(sku_ref: &'static GpuSku, env: EnvKind, rec: &Recorded, seed: u64) {
    let (mut warm, warm_id, warm_machine) = make_replayer(sku_ref, env, &rec.bytes, seed, true);
    let (mut cold, cold_id, cold_machine) = make_replayer(sku_ref, env, &rec.bytes, seed, false);
    let layout = Recording::from_bytes(&rec.bytes).unwrap();
    let ranges: Vec<(u64, usize)> = layout
        .dumps
        .iter()
        .map(|d| (d.va, d.bytes.len()))
        .chain(layout.outputs.iter().map(|o| (o.va, o.len as usize)))
        .collect();
    for b in 0..3u64 {
        let inputs: Vec<Vec<f32>> = (0..2)
            .map(|k| random_input(rec.net.input_len(), seed + b * 10 + k))
            .collect();
        let mut ios = ios_for(&warm, warm_id, &inputs);
        let report = warm.replay_batch(warm_id, &mut ios).unwrap();
        assert_eq!(report.prologue_skipped > 0, b > 0, "batch {b}: {report:?}");
        let mut ios = ios_for(&cold, cold_id, &inputs);
        cold.replay_batch(cold_id, &mut ios).unwrap();
        for machine in [&warm_machine, &cold_machine] {
            assert_changes_are_logged(machine, &layout, report.prologue_actions, b);
        }
        for (k, &(va, len)) in ranges.iter().enumerate() {
            assert!(
                read_gpu_va(&warm_machine, va, len) == read_gpu_va(&cold_machine, va, len),
                "batch {b} range {k} at {va:#x} (+{len}): resident image diverged from cold"
            );
        }
    }
    warm.cleanup();
    cold.cleanup();
}

#[test]
fn resident_memory_image_matches_cold_after_every_batch_mali() {
    memory_image_case(&sku::MALI_G71, EnvKind::UserLevel, mali(), 7500);
}

#[test]
fn resident_memory_image_matches_cold_after_every_batch_v3d() {
    memory_image_case(&sku::V3D_RPI4, EnvKind::KernelLevel, v3d(), 7600);
}

/// 20,000 scattered single-byte writes to DRAM that no frame backs,
/// between two resident batches: the next batch re-uploads the same
/// bytes and elides the same actions as the steady batch before it, with
/// bit-exact outputs.
fn unowned_writes_case(sku_ref: &'static GpuSku, env: EnvKind, rec: &Recorded, seed: u64) {
    let (mut warm, id, machine) = make_replayer(sku_ref, env, &rec.bytes, seed, true);
    let inputs: Vec<Vec<f32>> = (0..2)
        .map(|k| random_input(rec.net.input_len(), seed + k))
        .collect();

    let mut ios = ios_for(&warm, id, &inputs);
    warm.replay_batch(id, &mut ios).unwrap();
    let mut ios = ios_for(&warm, id, &inputs);
    let steady = warm.replay_batch(id, &mut ios).unwrap();
    assert!(steady.prologue_skipped > 0, "{steady:?}");

    let scratch = machine.mem().end() - 4 * 1024 * 1024;
    for page in (scratch..machine.mem().end()).step_by(4096) {
        assert!(!machine.frames().lock().is_allocated(page));
    }
    for i in 0..20_000u64 {
        machine.mem().write(scratch + i * 200, &[i as u8]).unwrap();
    }

    let mut ios = ios_for(&warm, id, &inputs);
    let after = warm.replay_batch(id, &mut ios).unwrap();
    assert_eq!(
        (after.resident_reupload_bytes, after.prologue_skipped),
        (steady.resident_reupload_bytes, steady.prologue_skipped),
        "writes outside the replayer's frames must not change the restore: {after:?} vs {steady:?}"
    );
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            ios[k].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&rec.net, input),
            "element {k}"
        );
    }
    warm.cleanup();
}

#[test]
fn writes_outside_the_replayers_frames_cost_nothing_mali() {
    unowned_writes_case(&sku::MALI_G71, EnvKind::UserLevel, mali(), 7100);
}

#[test]
fn writes_outside_the_replayers_frames_cost_nothing_v3d() {
    unowned_writes_case(&sku::V3D_RPI4, EnvKind::KernelLevel, v3d(), 7200);
}

/// Checkpoints read and restore memory outside the access log, so a
/// checkpointing replayer leaves no residency: every batch runs the full
/// prologue, and outputs stay bit-exact.
fn checkpointing_case(sku_ref: &'static GpuSku, env: EnvKind, rec: &Recorded, seed: u64) {
    let (mut replayer, id, _) = make_replayer(sku_ref, env, &rec.bytes, seed, true);
    replayer.checkpoint_every_jobs = Some(1);
    for b in 0..3u64 {
        let inputs: Vec<Vec<f32>> = (0..2)
            .map(|k| random_input(rec.net.input_len(), seed + b * 10 + k))
            .collect();
        let mut ios = ios_for(&replayer, id, &inputs);
        let report = replayer.replay_batch(id, &mut ios).unwrap();
        assert!(report.amortized);
        assert_eq!(report.prologue_skipped, 0, "batch {b}: {report:?}");
        for (k, input) in inputs.iter().enumerate() {
            assert_eq!(
                ios[k].output_f32(0).unwrap(),
                cpu_ref::cpu_infer(&rec.net, input),
                "batch {b} element {k}"
            );
        }
    }
    replayer.cleanup();
}

#[test]
fn checkpointing_replayer_never_elides_mali() {
    checkpointing_case(&sku::MALI_G71, EnvKind::UserLevel, mali(), 7700);
}

#[test]
fn checkpointing_replayer_never_elides_v3d() {
    checkpointing_case(&sku::V3D_RPI4, EnvKind::KernelLevel, v3d(), 7800);
}

/// A §5.4 fault mid-batch resets the GPU, which bumps the GPU epoch: the faulted batch still completes bit-exactly (recovery), and
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
/// recording. Every batch switches the page-table root to its own
/// replayer's tables, which bumps the GPU epoch, so neither replayer may
/// ever trust an anchor — and every output stays bit-exact.
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
