//! The three virtual-time throughput gates, on G71 user-level and on v3d
//! kernel-level MNIST:
//!
//! * batched replay: one `replay_batch` of 16 inputs is ≥ 2× as fast as
//!   16 sequential `replay()` calls on a warm replayer;
//! * coalescing: a one-worker service draining 16 queued singles into one
//!   batch is ≥ 1.5× as fast as one with `max_batch = 1`;
//! * warm residency: steady-state batches of 4 that elide the prologue are
//!   ≥ 1.3× as fast as batches that rerun it.
//!
//! Each ratio compares both modes within one test on the machine's
//! virtual clock, which the deterministic cost model drives, so one run
//! per mode suffices. Every output must also be bit-identical to the CPU
//! reference. Wall-clock throughput is measured by `perfbench`, not here.
//! `cargo test --test virtual_gates -- --nocapture` prints each ratio.

use std::sync::OnceLock;

use gpureplay::prelude::*;
use gr_gpu::GpuSku;
use gr_mlfw::cpu_ref;
use gr_mlfw::exec::GpuNetwork;
use gr_sim::{SimRng, SimTime};

const G71: (&GpuSku, EnvKind) = (&sku::MALI_G71, EnvKind::UserLevel);
const V3D: (&GpuSku, EnvKind) = (&sku::V3D_RPI4, EnvKind::KernelLevel);

struct Recorded {
    bytes: Vec<u8>,
    net: GpuNetwork,
}

fn record(sku: &'static GpuSku) -> Recorded {
    let mut harness = RecordHarness::new(Machine::new(sku, 7)).unwrap();
    harness.skip_idle_intervals = true;
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, 7)
        .unwrap();
    harness.finish();
    Recorded {
        bytes: recs.recordings[0].to_bytes(),
        net: recs.net,
    }
}

fn recorded(sku: &'static GpuSku) -> &'static Recorded {
    static MALI: OnceLock<Recorded> = OnceLock::new();
    static V3D: OnceLock<Recorded> = OnceLock::new();
    let cell = if sku.name == sku::V3D_RPI4.name {
        &V3D
    } else {
        &MALI
    };
    cell.get_or_init(|| record(sku))
}

/// `n` random inputs from `seed` on, and their CPU-reference outputs.
fn inputs_and_expected(rec: &Recorded, n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let inputs: Vec<Vec<f32>> = (0..n as u64)
        .map(|k| {
            let mut rng = SimRng::seed_from(seed + k);
            (0..rec.net.input_len())
                .map(|_| rng.unit_f64() as f32)
                .collect()
        })
        .collect();
    let expected = inputs
        .iter()
        .map(|i| cpu_ref::cpu_infer(&rec.net, i))
        .collect();
    (inputs, expected)
}

fn io_for(rec: &Recording, input: &[f32]) -> ReplayIo {
    let mut io = ReplayIo::for_recording(rec);
    io.set_input_f32(0, input).unwrap();
    io
}

fn virtual_ms(machine: &Machine, since: SimTime) -> f64 {
    (machine.now() - since).as_nanos() as f64 / 1e6
}

fn assert_ratio(gate: &str, sku: &GpuSku, slow_ms: f64, fast_ms: f64, bound: f64) {
    let ratio = slow_ms / fast_ms;
    eprintln!(
        "{gate} on {}: {slow_ms:.3} -> {fast_ms:.3} virtual ms ({ratio:.2}x)",
        sku.name
    );
    assert!(
        ratio >= bound,
        "{gate} on {}: {slow_ms:.3} -> {fast_ms:.3} virtual ms is {ratio:.2}x, below {bound}x",
        sku.name
    );
}

/// Batched replay vs sequential replays of the same 16 inputs.
fn batched_gate((sku, env): (&'static GpuSku, EnvKind)) {
    const BATCH: usize = 16;
    let rec = recorded(sku);
    let (inputs, expected) = inputs_and_expected(rec, BATCH, 1000);
    // A warm replayer with batch-internal amortization only: residency
    // across batches is the third gate.
    let warm_replayer = || {
        let mut replayer = Replayer::new(Environment::new(env, Machine::new(sku, 7)).unwrap());
        replayer.set_residency(false);
        let id = replayer.load_bytes(&rec.bytes).unwrap();
        let mut warm_up = io_for(replayer.recording(id), &inputs[0]);
        replayer.replay(id, &mut warm_up).unwrap();
        let machine = replayer.env().machine().clone();
        (replayer, id, machine)
    };
    let ios_for = |replayer: &Replayer, id: usize| -> Vec<ReplayIo> {
        inputs
            .iter()
            .map(|i| io_for(replayer.recording(id), i))
            .collect()
    };
    let outputs = |ios: &[ReplayIo]| -> Vec<Vec<f32>> {
        ios.iter().map(|io| io.output_f32(0).unwrap()).collect()
    };

    let (mut replayer, id, machine) = warm_replayer();
    let mut ios = ios_for(&replayer, id);
    let t0 = machine.now();
    for io in &mut ios {
        replayer.replay(id, io).unwrap();
    }
    let sequential_ms = virtual_ms(&machine, t0);
    let sequential = outputs(&ios);

    let (mut replayer, id, machine) = warm_replayer();
    let mut ios = ios_for(&replayer, id);
    let t0 = machine.now();
    let report = replayer.replay_batch(id, &mut ios).unwrap();
    let batched_ms = virtual_ms(&machine, t0);
    assert!(report.amortized, "MNIST batch must take the amortized path");
    assert_eq!(outputs(&ios), sequential, "batched vs sequential");
    assert_eq!(sequential, expected, "sequential vs CPU reference");
    assert_ratio("batched replay", sku, sequential_ms, batched_ms, 2.0);
}

/// One lock-step wave (pause, submit `depth` singles, resume, quiesce)
/// after a warm-up wave, through a one-worker service. Every wave must
/// form batches of `max_batch`. Returns the measured wave's virtual ms and
/// the prologue actions the shard elided over both waves.
fn service_wave(
    (sku, env): (&'static GpuSku, EnvKind),
    depth: usize,
    max_batch: usize,
    residency: bool,
    seed: u64,
) -> (f64, u64) {
    let rec = recorded(sku);
    let (inputs, expected) = inputs_and_expected(rec, depth, seed);
    let service = ReplayService::builder()
        .shard(
            ShardSpec::new(sku, env, vec![rec.bytes.clone()])
                .queue_cap(depth * 2)
                .max_batch(max_batch)
                .residency(residency),
        )
        .spawn()
        .unwrap();
    let machine = service.machines(sku.name).unwrap()[0].clone();
    let recording = Recording::from_bytes(&rec.bytes).unwrap();
    let mut wave_ms = 0.0;
    for _ in 0..2 {
        service.pause();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|i| {
                let request = ReplayRequest::single(0, io_for(&recording, i));
                service.submit_request(sku.name, request).unwrap()
            })
            .collect();
        let t0 = machine.now();
        service.resume();
        service.quiesce();
        wave_ms = virtual_ms(&machine, t0);
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let outcome = ticket.wait().unwrap();
            assert_eq!(outcome.report.elements, max_batch, "formed batch size");
            assert_eq!(&outcome.ios[0].output_f32(0).unwrap(), want);
        }
    }
    let skipped = service.stats().shard(sku.name).unwrap().prologue_skipped;
    service.shutdown();
    (wave_ms, skipped)
}

/// Dynamic batching vs one batch per request, 16 requests deep.
fn coalescing_gate(target: (&'static GpuSku, EnvKind)) {
    const DEPTH: usize = 16;
    let (solo_ms, _) = service_wave(target, DEPTH, 1, false, 3000);
    let (coalesced_ms, _) = service_wave(target, DEPTH, DEPTH, false, 3000);
    assert_ratio("coalescing", target.0, solo_ms, coalesced_ms, 1.5);
}

/// Resident steady-state batches of 4 vs batches that rerun the prologue.
fn residency_gate(target: (&'static GpuSku, EnvKind)) {
    const BATCH: usize = 4;
    let (per_batch_ms, none_skipped) = service_wave(target, BATCH, BATCH, false, 5000);
    let (resident_ms, skipped) = service_wave(target, BATCH, BATCH, true, 5000);
    assert_eq!(none_skipped, 0, "residency off never elides");
    assert!(
        skipped > 0,
        "steady-state resident batches elide prologue actions"
    );
    assert_ratio("warm residency", target.0, per_batch_ms, resident_ms, 1.3);
}

#[test]
fn batched_replay_is_2x_sequential_on_g71() {
    batched_gate(G71);
}

#[test]
fn batched_replay_is_2x_sequential_on_v3d() {
    batched_gate(V3D);
}

#[test]
fn coalescing_is_1_5x_solo_batches_on_g71() {
    coalescing_gate(G71);
}

#[test]
fn coalescing_is_1_5x_solo_batches_on_v3d() {
    coalescing_gate(V3D);
}

#[test]
fn residency_is_1_3x_per_batch_prologue_on_g71() {
    residency_gate(G71);
}

#[test]
fn residency_is_1_3x_per_batch_prologue_on_v3d() {
    residency_gate(V3D);
}
