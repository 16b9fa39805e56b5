//! Tamper coverage for the container checksum on a real recording: every
//! single-bit flip in the payload must be caught (the word-wise checksum
//! guarantees it for any change confined to one 8-byte word), and earlier
//! format versions must be refused outright.

use gpureplay::prelude::*;
use gr_recording::ContainerError;
use gr_sim::SimRng;

/// Bytes before the checksummed payload: magic, version, checksum.
const HEADER: usize = 16;

fn mnist_container() -> Vec<u8> {
    let dev = Machine::new(&sku::MALI_G71, 1);
    let mut harness = RecordHarness::new(dev).unwrap();
    let recs = harness
        .record_inference(&models::mnist(), Granularity::WholeNn, 7)
        .unwrap();
    harness.finish();
    recs.recordings[0].to_bytes()
}

#[test]
fn every_single_bit_flip_fails_the_checksum() {
    let bytes = mnist_container();
    assert!(Recording::from_bytes(&bytes).is_ok());
    let payload = bytes.len() - HEADER;
    // Both ends exhaustively (metadata, the last full words and the
    // zero-padded tail), then a seeded sample across the whole payload.
    let ends = 256.min(payload);
    let mut positions: Vec<usize> = (0..ends).chain(payload - ends..payload).collect();
    let mut rng = SimRng::seed_from(0x7a3);
    positions.extend((0..4096).map(|_| rng.range_u64(0, payload as u64) as usize));

    let mut tampered = bytes.clone();
    for at in positions {
        for bit in 0..8 {
            tampered[HEADER + at] ^= 1 << bit;
            assert_eq!(
                Recording::from_bytes(&tampered),
                Err(ContainerError::ChecksumMismatch),
                "payload byte {at} bit {bit}"
            );
            tampered[HEADER + at] ^= 1 << bit;
        }
    }
    assert_eq!(tampered, bytes);
}

#[test]
fn version_one_containers_are_refused() {
    let mut bytes = mnist_container();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        Recording::from_bytes(&bytes),
        Err(ContainerError::BadVersion(1))
    );
}

#[test]
fn version_two_containers_are_refused() {
    let mut bytes = mnist_container();
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        Recording::from_bytes(&bytes),
        Err(ContainerError::BadVersion(2))
    );
}
