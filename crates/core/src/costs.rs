//! Modeled replayer costs — why GR startup is "register accesses and GPU
//! memory copy" instead of seconds of stack initialization.
//!
//! Every constant here drives *virtual* time only. Each is labelled with
//! how it was set: all are modelled, none is calibrated against a
//! hardware or wall-clock measurement. Wall-clock figures come from
//! `perfbench` and are quoted next to a constant only for comparison.

use gr_sim::SimDuration;

/// Modelled, not calibrated: interpreter dispatch per action. An
/// estimate of a bounds-checked match over one action on a client CPU.
pub const ACTION_DISPATCH: SimDuration = SimDuration::from_nanos(300);

/// Modelled, not calibrated: interpreter dispatch per action on a
/// pre-resolved batch suffix (`replay_batch`). Set together with batched
/// replay as a third of [`ACTION_DISPATCH`], so the dispatch part of the
/// batched-vs-sequential virtual gain (`tests/virtual_gates.rs`) follows
/// from this value, not from a measurement. Bounds checks, dead-upload
/// lookups, and payload
/// validation were done once when the batch started, so warm re-runs are
/// a branch-light sweep over resolved actions. The difference to
/// [`ACTION_DISPATCH`] is charged once per suffix action at batch start.
pub const ACTION_DISPATCH_WARM: SimDuration = SimDuration::from_nanos(100);

/// Modelled, not calibrated: bookkeeping charge for a prologue action
/// elided by cross-batch warm residency. Set together with residency, so
/// the residency virtual gain (`tests/virtual_gates.rs`) follows from
/// this value, not from a measurement. The replayer still walks the
/// resolved action list and queries the DRAM dirty-line map for each
/// upload's range, but performs no register access or transfer. On the
/// wall clock a resident AlexNet prologue took 0.06–0.12 ms against
/// 1.15–1.45 ms for a full one (`perfbench --workload serve --trace 1`,
/// shared 2-vCPU x86-64 host).
pub const ACTION_RESIDENT_SKIP: SimDuration = SimDuration::from_nanos(20);

/// Modelled, not calibrated: static verification per action (§5.1).
pub const VERIFY_PER_ACTION: SimDuration = SimDuration::from_nanos(150);

/// Modelled, not calibrated: reading the recording from storage
/// (eMMC-class flash), bytes/sec.
pub const STORAGE_BW: f64 = 120e6;

/// Modelled, not calibrated: GRZ decompression throughput, bytes/sec.
/// For comparison, the wall-clock decode of the 7.27 MB AlexNet/G71
/// container (`recording.decode_mb_s` from `perfbench --workload
/// cold_start --trace 1`: checksum, parse and GRZ decode on a shared
/// 2-vCPU x86-64 host) measured 168–256 MB/s with the byte-at-a-time
/// checksum and decoder, and 802–935 MB/s with the word-wise checksum and
/// bulk decoder. The 6.51 MB version-3 container, which stores AlexNet's
/// incompressible weights raw, measured about 3,000 MB/s.
pub const DECOMPRESS_BW: f64 = 300e6;

/// Modelled, not calibrated: copying dumps and inputs into GPU memory
/// (and outputs back), bytes/sec. An estimate of a memcpy into shared
/// DRAM on a client SoC.
pub const UPLOAD_BW: f64 = 2.0e9;

/// Modelled, not calibrated: rebuilding one PTE (§5.2: the nano driver
/// rewrites recorded page-table entries). An estimate of a frame
/// allocation plus one table write.
pub const MAP_PER_PAGE: SimDuration = SimDuration::from_nanos(500);

/// Modelled, not calibrated: interrupt-context switch (enter or eret),
/// charged per recorded `IrqContext` action. An estimate of an
/// exception-level transition.
pub const IRQ_CTX_SWITCH: SimDuration = SimDuration::from_nanos(800);

/// Modelled, not calibrated: checkpoint copy bandwidth (GPU memory +
/// registers → host), bytes/sec. Set below [`UPLOAD_BW`] because a
/// checkpoint also snapshots and serializes register state.
pub const CHECKPOINT_BW: f64 = 0.4e9;

/// Duration of moving `bytes` at `bw` bytes/sec.
pub fn xfer(bytes: u64, bw: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_times_scale() {
        assert_eq!(xfer(120_000_000, STORAGE_BW), SimDuration::from_secs(1));
        assert!(xfer(1 << 20, UPLOAD_BW) < SimDuration::from_millis(1));
    }
}
