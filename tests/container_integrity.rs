//! Tamper coverage for the container checksum on a real recording: every
//! single-bit flip in the payload must be caught (the word-wise checksum
//! guarantees it for any change confined to one 8-byte word), so must the
//! sign-bit pairs that a plain `(h ^ w) * P` lane step cancels, and earlier
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
fn sign_bit_pairs_fail_the_checksum() {
    // Bit 7 of payload bytes 8k+7 and 8k+7+gap is bit 63 of two words
    // `gap` bytes apart: the sign bits of two f32s. At 32 bytes they were
    // consecutive words of one lane of the version-3 checksum, whose
    // `(h ^ w) * P` step cancelled them on every input; at 64 bytes they
    // are consecutive words of one lane today. Every such pair.
    let bytes = mnist_container();
    let payload = bytes.len() - HEADER;
    let mut tampered = bytes.clone();
    for gap in [32, 64] {
        for k in 0..(payload - gap - 7).div_ceil(8) {
            let pair = [HEADER + 8 * k + 7, HEADER + 8 * k + 7 + gap];
            for at in pair {
                tampered[at] ^= 0x80;
            }
            assert_eq!(
                Recording::from_bytes(&tampered),
                Err(ContainerError::ChecksumMismatch),
                "payload bytes {} and {}",
                8 * k + 7,
                8 * k + 7 + gap
            );
            for at in pair {
                tampered[at] ^= 0x80;
            }
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

#[test]
fn version_three_containers_are_refused() {
    let mut bytes = mnist_container();
    bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
    assert_eq!(
        Recording::from_bytes(&bytes),
        Err(ContainerError::BadVersion(3))
    );
}
