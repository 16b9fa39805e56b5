//! Global switch for the zero-copy replay fast path.
//!
//! The fast path (software TLB, per-submit decoded-job caching, streamed
//! GEMM weights, restructured convolution loop orders) is on by default;
//! benchmarks and differential tests turn it off to reproduce the
//! translate-every-access / decode-every-run / reference-kernel baseline. The switch only
//! affects *host wall-clock* work — virtual-time results and replayed
//! outputs are bit-identical either way (gated by `val72_correctness` and
//! the TLB differential tests).

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// `true` when the fast path is active (the default).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables the fast path process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` with the fast path forced to `on`, restoring the previous
/// setting afterwards (benchmark/test helper).
pub fn with_fastpath<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let prev = enabled();
    set_enabled(on);
    let r = f();
    set_enabled(prev);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_fastpath_passes_through_result() {
        // Deliberately only toggles *towards* the default (enabled): other
        // tests in this binary (warm-TLB regression tests) rely on the
        // fast path staying on, and tests run in parallel threads. The
        // disabled path is exercised end-to-end by the `bench_exec`
        // binary and by explicit `TranslatingVaMem::legacy` tests.
        assert_eq!(with_fastpath(true, || 7), 7);
        assert!(enabled());
    }
}
