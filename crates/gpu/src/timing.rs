//! The GPU job timing model.
//!
//! Job binaries carry *modeled* work (FLOPs and bytes moved, computed by
//! the runtime from the full-size network dimensions). The device converts
//! work into virtual time using the SKU's throughput, the count of shader
//! cores the job's affinity actually engages, and the current PMC clock —
//! plus multiplicative jitter, because real job delays vary run to run
//! (§3.2's timing nondeterminism).
//!
//! Every constant below is modelled, not calibrated: it was chosen to give
//! the device model plausible orders of magnitude for a mobile GPU, and no
//! hardware or wall-clock measurement in this repository backs it. Each
//! one drives virtual time only.

use gr_sim::{SimDuration, SimRng};

use crate::sku::GpuSku;

/// Modeled work of one job (chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCost {
    /// Floating-point operations the full-size job performs.
    pub flops: u64,
    /// Bytes moved to/from DRAM.
    pub bytes: u64,
}

impl std::ops::Add for JobCost {
    type Output = JobCost;

    /// Sums two costs (chains accumulate sub-job work).
    fn add(self, other: JobCost) -> JobCost {
        JobCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Modelled, not calibrated: fixed front-end cost of parsing and
/// dispatching one job chain.
pub const JOB_DISPATCH_OVERHEAD: SimDuration = SimDuration::from_micros(18);

/// Modelled, not calibrated: per-sub-job scheduling cost inside a chain.
pub const SUBJOB_OVERHEAD: SimDuration = SimDuration::from_micros(4);

/// Modelled, not calibrated: jitter (±percent) applied to job durations,
/// the run-to-run variation §3.2 reports for real job delays.
pub const JOB_JITTER_PCT: f64 = 2.0;

/// Modelled, not calibrated: latency from job completion to the IRQ
/// becoming visible to the CPU.
pub const IRQ_LATENCY: SimDuration = SimDuration::from_micros(3);

/// Modelled, not calibrated: mean cache-flush time (jittered ±40% per
/// flush); polled by the driver until complete.
pub const CACHE_FLUSH_MEAN: SimDuration = SimDuration::from_micros(12);

/// Modelled, not calibrated: soft-reset settle time.
pub const SOFT_RESET_DELAY: SimDuration = SimDuration::from_micros(110);

/// Modelled, not calibrated: shader-core power-up time.
pub const CORE_POWERUP_DELAY: SimDuration = SimDuration::from_micros(55);

/// Computes the execution time of a job with `cost`, running on
/// `active_cores` shader cores at `clock_mhz`.
///
/// Zero active cores or a zero clock yields [`SimDuration::MAX`] — such a
/// job never completes, which the device reports as a timeout/fault.
pub fn job_duration(
    cost: JobCost,
    sub_jobs: u32,
    active_cores: u32,
    clock_mhz: u32,
    sku: &GpuSku,
) -> SimDuration {
    if active_cores == 0 || clock_mhz == 0 {
        return SimDuration::MAX;
    }
    let clock_scale = f64::from(clock_mhz) / f64::from(sku.nominal_mhz);
    let flops_rate = sku.gflops_per_core * 1e9 * f64::from(active_cores) * clock_scale;
    let compute_s = cost.flops as f64 / flops_rate;
    // Memory bandwidth is shared, not per-core; it scales only mildly with
    // clock (DRAM is on its own domain), so leave it clock-independent.
    let mem_s = cost.bytes as f64 / (sku.mem_bw_gbps * 1e9);
    // A job is bound by the slower of its compute and memory phases, with
    // partial overlap: take max + 20% of min (double-buffering hides most).
    let (hi, lo) = if compute_s >= mem_s {
        (compute_s, mem_s)
    } else {
        (mem_s, compute_s)
    };
    let busy = SimDuration::from_secs_f64(hi + 0.2 * lo);
    JOB_DISPATCH_OVERHEAD + SUBJOB_OVERHEAD * u64::from(sub_jobs) + busy
}

/// Applies the standard job jitter.
pub fn jittered(d: SimDuration, rng: &mut SimRng) -> SimDuration {
    if d == SimDuration::MAX {
        return d;
    }
    rng.jitter(d, JOB_JITTER_PCT)
}

/// Cache flush delay for this run (nondeterministic; the driver polls,
/// which the recorder summarizes as `RegReadWait`).
pub fn flush_delay(rng: &mut SimRng) -> SimDuration {
    rng.jitter(CACHE_FLUSH_MEAN, 40.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sku::{MALI_G31, MALI_G71};

    #[test]
    fn more_cores_is_faster() {
        let cost = JobCost {
            flops: 100_000_000,
            bytes: 1_000_000,
        };
        let d1 = job_duration(cost, 1, 1, 600, &MALI_G71);
        let d8 = job_duration(cost, 1, 8, 600, &MALI_G71);
        assert!(d8 < d1, "{d8} !< {d1}");
        // Compute-bound job on 8x cores approaches 8x faster (minus fixed
        // overheads and the memory floor).
        assert!(d1.as_nanos() > 4 * d8.as_nanos());
    }

    #[test]
    fn underclocking_slows_jobs() {
        let cost = JobCost {
            flops: 50_000_000,
            bytes: 0,
        };
        let full = job_duration(cost, 1, 8, 600, &MALI_G71);
        let half = job_duration(cost, 1, 8, 300, &MALI_G71);
        assert!(half > full);
    }

    #[test]
    fn zero_cores_never_completes() {
        let cost = JobCost { flops: 1, bytes: 1 };
        assert_eq!(job_duration(cost, 1, 0, 600, &MALI_G71), SimDuration::MAX);
        assert_eq!(job_duration(cost, 1, 1, 0, &MALI_G71), SimDuration::MAX);
    }

    #[test]
    fn memory_bound_jobs_ignore_core_count() {
        let cost = JobCost {
            flops: 0,
            bytes: 100_000_000,
        };
        let d1 = job_duration(cost, 1, 1, 600, &MALI_G71);
        let d8 = job_duration(cost, 1, 8, 600, &MALI_G71);
        assert_eq!(d1, d8);
    }

    #[test]
    fn g31_is_slower_than_g71() {
        let cost = JobCost {
            flops: 200_000_000,
            bytes: 4_000_000,
        };
        let g71 = job_duration(cost, 1, 8, 600, &MALI_G71);
        let g31 = job_duration(cost, 1, 1, 650, &MALI_G31);
        assert!(g31.as_nanos() > 4 * g71.as_nanos(), "{g31} vs {g71}");
    }

    #[test]
    fn cost_addition() {
        let a = JobCost { flops: 1, bytes: 2 };
        let b = JobCost {
            flops: 10,
            bytes: 20,
        };
        assert_eq!(
            a + b,
            JobCost {
                flops: 11,
                bytes: 22
            }
        );
    }

    #[test]
    fn jitter_preserves_max() {
        let mut rng = gr_sim::SimRng::seed_from(1);
        assert_eq!(jittered(SimDuration::MAX, &mut rng), SimDuration::MAX);
        let base = SimDuration::from_micros(100);
        let j = jittered(base, &mut rng);
        assert!(j.as_nanos() >= 98_000 && j.as_nanos() <= 102_000);
        let f = flush_delay(&mut rng);
        assert!(f.as_nanos() > 0);
    }
}
