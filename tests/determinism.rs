//! The two cheapest determinism invariants everything else leans on:
//! seed-stable simulation randomness, and a lossless recording codec.

use gpureplay::prelude::*;
use gr_recording::grz_compress;
use gr_sim::SimRng;

/// Identical seeds must yield identical streams — across raw draws, forks,
/// and every sampling helper — or record/replay comparisons are meaningless.
#[test]
fn simrng_same_seed_identical_streams() {
    let mut a = SimRng::seed_from(1234);
    let mut b = SimRng::seed_from(1234);
    for _ in 0..64 {
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.range_u64(0, 1000), b.range_u64(0, 1000));
        assert_eq!(a.unit_f64().to_bits(), b.unit_f64().to_bits());
        assert_eq!(a.chance(0.5), b.chance(0.5));
    }
    let mut fa = a.fork("taint");
    let mut fb = b.fork("taint");
    let mut buf_a = [0u8; 32];
    let mut buf_b = [0u8; 32];
    fa.fill_bytes(&mut buf_a);
    fb.fill_bytes(&mut buf_b);
    assert_eq!(buf_a, buf_b);
}

/// Pins the actual stream values so the generator cannot silently change
/// between builds: a new RNG would invalidate every stored recording's
/// modeled nondeterminism, so changing these constants must be a conscious,
/// reviewed decision.
#[test]
fn simrng_stream_is_pinned() {
    let mut r = SimRng::seed_from(0xC0FFEE);
    let head: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
    assert_eq!(
        head,
        [
            0x8c7615e9af6b4ae5,
            0xd175fd6e7f597969,
            0xac823e0ae898e8ec,
            0x671278cc50163c69,
        ]
    );
    let mut f = SimRng::seed_from(0xC0FFEE).fork("gpu-jitter");
    assert_eq!(f.next_u64(), 0x3adaefde041de8db);
    assert_eq!(f.next_u64(), 0xd760316a4205c4ff);
}

/// Container round-trip: `to_bytes` → `from_bytes` must reproduce the
/// recording exactly — same metadata, same actions — on a real recording
/// produced by the record harness, not a synthetic one.
#[test]
fn recording_container_roundtrip_is_lossless() {
    let dev = Machine::new(&sku::MALI_G71, 77);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, 5)
        .unwrap();
    harness.finish();

    for rec in &recs.recordings {
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(&back, rec, "decode(encode(r)) != r");
        // Encoding is deterministic, so the round-trip is a fixed point.
        assert_eq!(back.to_bytes(), bytes);
    }
}

/// The same round-trip through the replayer's front door (`load_bytes`):
/// the loaded recording must carry identical replay actions and replay to
/// the same outputs as the in-memory original.
#[test]
fn loaded_recording_replays_identically_to_original() {
    let dev = Machine::new(&sku::MALI_G71, 78);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, 6)
        .unwrap();
    let net = recs.net.clone();
    let original = recs.recordings[0].clone();
    let bytes = original.to_bytes();
    harness.finish();

    let input: Vec<f32> = (0..net.input_len())
        .map(|i| (i as f32 * 0.003).sin())
        .collect();
    let mut outputs = Vec::new();
    for from_bytes in [false, true] {
        let target = Machine::new(&sku::MALI_G71, 79);
        let env = Environment::new(EnvKind::UserLevel, target).unwrap();
        let mut replayer = Replayer::new(env);
        let id = if from_bytes {
            replayer.load_bytes(&bytes).unwrap()
        } else {
            replayer.load(original.clone()).unwrap()
        };
        assert_eq!(
            replayer.recording(id).actions,
            original.actions,
            "replay actions must survive the codec"
        );
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &input).unwrap();
        replayer.replay(id, &mut io).unwrap();
        outputs.push(io.output_f32(0).unwrap());
        replayer.cleanup();
    }
    assert_eq!(outputs[0], outputs[1], "codec path changed replay output");
}

/// GRZ compression is deterministic: same payload, same stream. Recordings
/// hashed or diffed by bytes rely on this.
#[test]
fn grz_compression_is_deterministic() {
    let data: Vec<u8> = (0..32_768u32)
        .flat_map(|i| (i % 251).to_le_bytes())
        .collect();
    assert_eq!(grz_compress(&data), grz_compress(&data));
}

/// Pins the whole record → replay timeline of MNIST on both GPU families:
/// the container checksum (actions, recorded intervals, dumps) and one
/// replay's virtual `wall`, `startup` and `jobs`. A change to the device
/// models' timing, the RNG draw order or the replayer's cost charging
/// moves one of these numbers; such a change must update them on purpose.
#[test]
fn mnist_record_replay_timeline_is_pinned() {
    let cases = [
        (&sku::MALI_G71, (0x4cf1_6686_9baa_636a, 691_907, 417_798, 8)),
        (&sku::V3D_RPI4, (0x3e76_b2ce_198b_e80c, 650_036, 371_424, 8)),
    ];
    for (sku, want) in cases {
        let mut harness = RecordHarness::new(Machine::new(sku, 41)).unwrap();
        let recs = harness
            .record_inference(&models::mnist(), Granularity::WholeNn, 42)
            .unwrap();
        harness.finish();
        let bytes = recs.recordings[0].to_bytes();
        let sum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());

        let env = Environment::new(EnvKind::UserLevel, Machine::new(sku, 43)).unwrap();
        let mut replayer = Replayer::new(env);
        let id = replayer.load_bytes(&bytes).unwrap();
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        let input: Vec<f32> = (0..recs.net.input_len())
            .map(|i| (i as f32 * 0.01).cos())
            .collect();
        io.set_input_f32(0, &input).unwrap();
        let report = replayer.replay(id, &mut io).unwrap();
        let got = (
            sum,
            report.wall.as_nanos(),
            report.startup.as_nanos(),
            report.jobs,
        );
        assert_eq!(got, want, "{} timeline moved", sku.name);
    }
}
