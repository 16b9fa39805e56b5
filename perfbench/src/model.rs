//! Set-up shared by the workloads: record a model on its device, draw a
//! seeded input pool, and compute the CPU-reference outputs that every
//! completed op is checked against bit for bit.

use gr_gpu::{sku, GpuSku, Machine};
use gr_mlfw::fusion::Granularity;
use gr_mlfw::{cpu_ref, models};
use gr_recorder::RecordHarness;
use gr_replayer::{EnvKind, ReplayIo};
use gr_sim::SimRng;

/// Inputs per pool; ops cycle through them.
pub const POOL: usize = 4;

/// Seed of the recording run. It fixes the model's weights, so every
/// benchmark seed replays the same recording; the CLI seed drives the
/// inputs, the arrival schedule and the replay machines.
const RECORD_SEED: u64 = 7;

/// The two recorded configurations the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// AlexNet on Mali G71, user-level replayer.
    AlexNetG71,
    /// MobileNet on v3d, kernel-level replayer.
    MobileNetV3d,
}

/// A recorded model with its input pool and reference outputs.
pub struct Model {
    pub name: &'static str,
    pub sku: &'static GpuSku,
    pub env: EnvKind,
    /// The serialized recording, as a client ships it.
    pub blob: Vec<u8>,
    /// Uncompressed dump bytes inside the recording.
    pub raw_bytes: usize,
    pub inputs: Vec<Vec<f32>>,
    pub expected: Vec<Vec<f32>>,
}

impl Model {
    /// Records `kind` and builds its oracle from inputs drawn from `seed`.
    pub fn record(kind: ModelKind, seed: u64) -> Model {
        let (name, sku, env, spec) = match kind {
            ModelKind::AlexNetG71 => (
                "AlexNet",
                &sku::MALI_G71,
                EnvKind::UserLevel,
                models::alexnet(),
            ),
            ModelKind::MobileNetV3d => (
                "MobileNet",
                &sku::V3D_RPI4,
                EnvKind::KernelLevel,
                models::mobilenet(),
            ),
        };
        let mut harness =
            RecordHarness::new(Machine::new(sku, RECORD_SEED)).expect("record stack bring-up");
        let recs = harness
            .record_inference(&spec, Granularity::WholeNn, RECORD_SEED)
            .expect("record inference");
        harness.finish();
        assert_eq!(
            recs.recordings.len(),
            1,
            "whole-NN granularity records once"
        );
        let rec = &recs.recordings[0];
        let mut rng = SimRng::seed_from(seed).fork(name);
        let inputs: Vec<Vec<f32>> = (0..POOL)
            .map(|_| {
                (0..recs.net.input_len())
                    .map(|_| rng.unit_f64() as f32)
                    .collect()
            })
            .collect();
        let expected = inputs
            .iter()
            .map(|i| cpu_ref::cpu_infer(&recs.net, i))
            .collect();
        Model {
            name,
            sku,
            env,
            blob: rec.to_bytes(),
            raw_bytes: rec.dump_bytes(),
            inputs,
            expected,
        }
    }

    /// Checks output slot 0 of `io` bit for bit against the reference for
    /// pool input `k`. A mismatch is a wrong answer, never a slow op: it
    /// aborts the whole run with a non-zero exit.
    pub fn check(&self, k: usize, io: &ReplayIo) {
        let got = io.output_f32(0).unwrap_or_else(|e| {
            eprintln!("perfbench: {}: unreadable output: {e}", self.name);
            std::process::exit(3);
        });
        let want = &self.expected[k];
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            eprintln!(
                "perfbench: {} output for input {k} differs from the CPU reference",
                self.name
            );
            std::process::exit(3);
        }
    }
}
