//! Batched warm-machine replay: `replay_batch` must be bit-identical to N
//! fresh sequential `replay()` calls on both SKUs (proptest), and §5.4
//! recovery inside a batch must resume cleanly without poisoning later
//! elements.

use std::sync::OnceLock;

use gpureplay::prelude::*;
use gr_gpu::{FaultKind, GpuSku};
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
    REC.get_or_init(|| recorded(&sku::MALI_G71, 61))
}

fn v3d() -> &'static Recorded {
    static REC: OnceLock<Recorded> = OnceLock::new();
    REC.get_or_init(|| recorded(&sku::V3D_RPI4, 63))
}

/// DRAM for proptest machines: MNIST maps ~5 MiB, so 32 MiB is ample and
/// keeps the 256-case campaign from memsetting gigabytes.
const TEST_DRAM: usize = 32 * 1024 * 1024;

/// Replays `inputs` as one warm batch and as fresh sequential replays;
/// asserts all three agree (batch == sequential == CPU reference).
fn check_batch_vs_sequential(
    sku_ref: &'static GpuSku,
    env: EnvKind,
    rec: &Recorded,
    inputs: &[Vec<f32>],
    seed: u64,
) {
    // Batched, one warm machine.
    let machine = Machine::with_dram(sku_ref, seed, TEST_DRAM);
    let environment = Environment::new(env, machine).unwrap();
    let mut replayer = Replayer::new(environment);
    let id = replayer.load_bytes(&rec.bytes).unwrap();
    let mut ios: Vec<ReplayIo> = inputs
        .iter()
        .map(|input| {
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, input).unwrap();
            io
        })
        .collect();
    let report = replayer.replay_batch(id, &mut ios).unwrap();
    assert!(report.amortized, "MNIST recordings must admit the split");
    assert_eq!(report.elements, inputs.len());
    replayer.cleanup();

    // Fresh sequential replays on a cold machine with different jitter.
    let machine = Machine::with_dram(sku_ref, seed ^ 0xA5A5, TEST_DRAM);
    let environment = Environment::new(env, machine).unwrap();
    let mut replayer = Replayer::new(environment);
    let id = replayer.load_bytes(&rec.bytes).unwrap();
    for (k, input) in inputs.iter().enumerate() {
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, input).unwrap();
        replayer.replay(id, &mut io).unwrap();
        let fresh = io.output_f32(0).unwrap();
        let batched = ios[k].output_f32(0).unwrap();
        assert_eq!(batched, fresh, "element {k}: batch diverged from fresh");
        assert_eq!(
            fresh,
            cpu_ref::cpu_infer(&rec.net, input),
            "element {k}: replay diverged from CPU reference"
        );
    }
    replayer.cleanup();
}

/// Each replayed MNIST inference costs tens of milliseconds in debug
/// builds; cap the campaign at this many (deterministic) cases per
/// property so the tier-1 suite stays fast. Raise locally for deeper runs.
const MAX_HEAVY_CASES: usize = 40;

proptest! {
    #[test]
    fn mali_batch_bit_identical_to_sequential(n in 1usize..5, seed in 0u64..1_000_000) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASES_RUN: AtomicUsize = AtomicUsize::new(0);
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) >= MAX_HEAVY_CASES {
            return;
        }
        let rec = mali();
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|k| random_input(rec.net.input_len(), seed.wrapping_add(k as u64 * 7919)))
            .collect();
        check_batch_vs_sequential(&sku::MALI_G71, EnvKind::UserLevel, rec, &inputs, seed | 1);
    }

    #[test]
    fn v3d_batch_bit_identical_to_sequential(n in 1usize..5, seed in 0u64..1_000_000) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASES_RUN: AtomicUsize = AtomicUsize::new(0);
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) >= MAX_HEAVY_CASES {
            return;
        }
        let rec = v3d();
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|k| random_input(rec.net.input_len(), seed.wrapping_add(k as u64 * 104729)))
            .collect();
        check_batch_vs_sequential(&sku::V3D_RPI4, EnvKind::KernelLevel, rec, &inputs, seed | 1);
    }
}

/// §5.4 recovery inside a batch: a transient core glitch faults one
/// element's job; the replayer resets, re-runs the prologue to restore
/// warm state, retries that element, and later elements replay untouched.
#[test]
fn fault_mid_batch_recovers_without_poisoning_later_elements() {
    let rec = mali();
    let machine = Machine::new(&sku::MALI_G71, 71);
    let environment = Environment::new(EnvKind::UserLevel, machine.clone()).unwrap();
    let mut replayer = Replayer::new(environment);
    let id = replayer.load_bytes(&rec.bytes).unwrap();

    let inputs: Vec<Vec<f32>> = (0..4)
        .map(|k| random_input(rec.net.input_len(), 500 + k))
        .collect();
    let mut ios: Vec<ReplayIo> = inputs
        .iter()
        .map(|input| {
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, input).unwrap();
            io
        })
        .collect();

    // Armed glitch: the next *started* job fails once, then clears — it
    // will hit the first element's first kick, mid-batch after the warm
    // prologue already ran.
    machine.inject_fault(FaultKind::OfflineCores { mask: 0xFF });
    let report = replayer.replay_batch(id, &mut ios).unwrap();
    assert!(report.amortized);
    assert!(report.retries >= 1, "the glitch must force a §5.4 retry");
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            ios[k].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&rec.net, input),
            "element {k} poisoned by mid-batch recovery"
        );
    }

    // A corrupted PTE mid-session: recovery rebuilds the tables and the
    // rest of the batch stays correct.
    machine.inject_fault(FaultKind::CorruptPte {
        va: rec.net.input_va,
    });
    let mut ios2: Vec<ReplayIo> = inputs
        .iter()
        .map(|input| {
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, input).unwrap();
            io
        })
        .collect();
    let report2 = replayer.replay_batch(id, &mut ios2).unwrap();
    assert!(report2.retries >= 1, "corrupt PTE must force recovery");
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            ios2[k].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&rec.net, input),
            "element {k} poisoned after PTE recovery"
        );
    }
    replayer.cleanup();
}

/// `replay_batch_isolated` attributes a poisoned element's failure to
/// that element alone: batchmates replay bit-exactly and the failed
/// element's outputs come back zeroed (not the caller's stale bytes).
#[test]
fn isolated_batch_attributes_faults_and_zeroes_failed_outputs() {
    use gpureplay::replayer::ReplayError;
    let rec = mali();
    let machine = Machine::new(&sku::MALI_G71, 73);
    let environment = Environment::new(EnvKind::UserLevel, machine).unwrap();
    let mut replayer = Replayer::new(environment);
    let id = replayer.load_bytes(&rec.bytes).unwrap();

    let inputs: Vec<Vec<f32>> = (0..3)
        .map(|k| random_input(rec.net.input_len(), 600 + k))
        .collect();
    let mut ios: Vec<ReplayIo> = inputs
        .iter()
        .map(|input| {
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, input).unwrap();
            io
        })
        .collect();
    // Poison the middle element: wrong input size, stale output bytes.
    ios[1].inputs[0] = vec![0u8; 3];
    for out in &mut ios[1].outputs {
        out.fill(0xAA);
    }

    let run = replayer.replay_batch_isolated(id, &mut ios).unwrap();
    assert!(run.report.amortized);
    assert_eq!(run.report.elements, 3);
    assert_eq!(run.errors.len(), 1, "exactly one attributed fault");
    assert_eq!(run.errors[0].0, 1, "the poisoned element's index");
    assert!(matches!(run.errors[0].1, ReplayError::Io(_)));
    for (k, input) in inputs.iter().enumerate() {
        if k == 1 {
            for (s, out) in ios[1].outputs.iter().enumerate() {
                assert_eq!(
                    out.len(),
                    replayer.recording(id).outputs[s].len as usize,
                    "failed element keeps recording-shaped outputs"
                );
                assert!(
                    out.iter().all(|&b| b == 0),
                    "failed element's outputs must be zeroed, not stale"
                );
            }
        } else {
            assert_eq!(
                ios[k].output_f32(0).unwrap(),
                cpu_ref::cpu_infer(&rec.net, input),
                "batchmate {k} poisoned by element 1's fault"
            );
        }
    }
    replayer.cleanup();
}

/// Multi-input recordings batch too: every element re-copies all of its
/// input slots in the suffix.
#[test]
fn multi_input_vecadd_batches_correctly() {
    let dev = Machine::new(&sku::MALI_G71, 77);
    let mut harness = RecordHarness::new(dev).unwrap();
    let rec = harness.record_vecadd(64, 64, 5).unwrap();
    harness.finish();

    let target = Machine::new(&sku::MALI_G71, 78);
    let env = Environment::new(EnvKind::UserLevel, target).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load(rec).unwrap();
    let a = random_input(64, 1);
    let b = random_input(64, 2);
    let expected: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
    let mut ios: Vec<ReplayIo> = (0..3)
        .map(|_| {
            let mut io = ReplayIo::for_recording(replayer.recording(id));
            io.set_input_f32(0, &a).unwrap();
            io.set_input_f32(1, &b).unwrap();
            io
        })
        .collect();
    let report = replayer.replay_batch(id, &mut ios).unwrap();
    assert_eq!(report.elements, 3);
    for io in &ios {
        assert_eq!(io.output_f32(0).unwrap(), expected);
    }
    replayer.cleanup();
}

/// A recording with no `CopyToGpu` has nothing to amortize per element:
/// `replay_batch` falls back to full per-element replays.
#[test]
fn unbatchable_recording_falls_back_to_full_replays() {
    use gpureplay::recording::{Action, Dump, RecordingMeta, TimedAction};
    let mut rec = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "fallback",
    ));
    rec.actions.push(TimedAction::immediate(Action::MapGpuMem {
        va: 0x10_0000,
        pte_flags: vec![0xF],
    }));
    rec.dumps.push(Dump {
        va: 0x10_0000,
        bytes: vec![7u8; 64],
    });
    rec.actions
        .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));

    let machine = Machine::new(&sku::MALI_G71, 81);
    let env = Environment::new(EnvKind::UserLevel, machine).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load(rec).unwrap();
    let mut ios = vec![ReplayIo::default(), ReplayIo::default()];
    let report = replayer.replay_batch(id, &mut ios).unwrap();
    assert!(!report.amortized, "no input copy, nothing to amortize");
    assert_eq!(report.elements, 2);
    assert_eq!(report.prologue_actions, 0);
    replayer.cleanup();
}

/// A hand-built Mali recording whose per-input suffix reads `GPU_ID` and
/// expects a value no G71 reports: every attempt diverges, so §5.4
/// recovery must run out of attempts.
fn diverging_recording() -> Recording {
    use gpureplay::recording::{Action, Dump, IoSlot, RecordingMeta, TimedAction};
    let mut rec = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "diverging-suffix",
    ));
    rec.actions.push(TimedAction::immediate(Action::MapGpuMem {
        va: 0x10_0000,
        pte_flags: vec![0xF; 4],
    }));
    rec.dumps.push(Dump {
        va: 0x10_0000,
        bytes: vec![0xEE; 4096],
    });
    rec.inputs.push(IoSlot {
        name: "in".into(),
        va: 0x10_1000,
        len: 64,
    });
    rec.outputs.push(IoSlot {
        name: "out".into(),
        va: 0x10_2000,
        len: 64,
    });
    rec.actions
        .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
    rec.actions
        .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
    rec.actions
        .push(TimedAction::immediate(Action::RegReadOnce {
            reg: gr_gpu::mali::regs::GPU_ID,
            expect: sku::MALI_G71.gpu_id ^ 1,
            ignore: false,
        }));
    rec.actions
        .push(TimedAction::immediate(Action::CopyFromGpu { slot: 0 }));
    rec
}

/// §5.4 pinned: a divergence that survives every re-execution ends
/// `replay` with `RecoveryFailed` after exactly `MAX_ATTEMPTS` attempts.
#[test]
fn replay_of_a_persistent_divergence_fails_after_three_attempts() {
    use gpureplay::replayer::ReplayError;
    let machine = Machine::new(&sku::MALI_G71, 83);
    let env = Environment::new(EnvKind::UserLevel, machine).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load(diverging_recording()).unwrap();
    let mut io = ReplayIo::for_recording(replayer.recording(id));
    let err = replayer.replay(id, &mut io).unwrap_err();
    assert!(
        matches!(
            &err,
            ReplayError::RecoveryFailed { attempts: 3, last }
                if matches!(**last, ReplayError::Diverged { .. })
        ),
        "{err:?}"
    );
    replayer.cleanup();
}

/// §5.4 pinned inside an isolated batch: each element exhausts its own
/// attempts (2 retries each), is attributed its own `RecoveryFailed`, and
/// the machine is re-warmed between elements. The virtual wall pins the
/// exact reset, re-warm and retry sequence.
#[test]
fn isolated_batch_attributes_exhausted_recovery_per_element() {
    use gpureplay::replayer::ReplayError;
    let machine = Machine::new(&sku::MALI_G71, 87);
    let env = Environment::new(EnvKind::UserLevel, machine).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load(diverging_recording()).unwrap();
    let mut ios: Vec<ReplayIo> = (0..3)
        .map(|_| ReplayIo::for_recording(replayer.recording(id)))
        .collect();
    let run = replayer.replay_batch_isolated(id, &mut ios).unwrap();
    assert!(run.report.amortized);
    assert_eq!(run.report.elements, 3);
    assert_eq!(run.errors.len(), 3, "{:?}", run.errors);
    for (k, (idx, err)) in run.errors.iter().enumerate() {
        assert_eq!(*idx, k);
        assert!(
            matches!(err, ReplayError::RecoveryFailed { attempts: 3, .. }),
            "{err:?}"
        );
    }
    assert_eq!(run.report.retries, 6);
    assert_eq!(run.report.wall.as_nanos(), 915_920, "{}", run.report.wall);
    replayer.cleanup();
}

/// `replay_batch` reports a shape-poisoned element's own `Io` error, and
/// the replayer stays usable: the next batch is bit-exact vs `cpu_ref`.
#[test]
fn replay_batch_returns_the_poisoned_elements_error_and_stays_usable() {
    use gpureplay::replayer::ReplayError;
    let rec = mali();
    let machine = Machine::new(&sku::MALI_G71, 89);
    let env = Environment::new(EnvKind::UserLevel, machine).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load_bytes(&rec.bytes).unwrap();
    let inputs: Vec<Vec<f32>> = (0..3)
        .map(|k| random_input(rec.net.input_len(), 700 + k))
        .collect();
    let build = |replayer: &Replayer| -> Vec<ReplayIo> {
        inputs
            .iter()
            .map(|input| {
                let mut io = ReplayIo::for_recording(replayer.recording(id));
                io.set_input_f32(0, input).unwrap();
                io
            })
            .collect()
    };
    let mut ios = build(&replayer);
    ios[1].inputs[0] = vec![0u8; 3];
    let err = replayer.replay_batch(id, &mut ios).unwrap_err();
    assert!(matches!(err, ReplayError::Io(_)), "{err:?}");

    let mut ios = build(&replayer);
    replayer.replay_batch(id, &mut ios).unwrap();
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            ios[k].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&rec.net, input),
            "element {k} after a poisoned batch"
        );
    }
    replayer.cleanup();
}
