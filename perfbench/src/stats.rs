//! The benchmark's own statistics: percentiles with their sample counts,
//! the queue-wait derivation for the serving workload, and the share of
//! op time no timed layer call covers.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products such as 0.9 * 10 from rounding up.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p`: how many
/// observations the reported tail value rests on.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency summary of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples the summary rests on.
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarises an unsorted sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p90: percentile(&v, 0.9),
            p99: percentile(&v, 0.99),
        }
    }
}

/// One request of the open-loop serving run, in submission order. Times
/// are milliseconds since the start of the measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TicketTimes {
    /// When `submit_request` returned.
    pub submitted: f64,
    /// When the waiting thread saw the ticket resolve.
    pub resolved: f64,
    /// Elements of the batch the request rode (`BatchReport::elements`),
    /// `None` when the request failed.
    pub batch_elements: Option<usize>,
}

/// A formed batch reconstructed from ticket times.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedBatch {
    /// Index of the first ticket of the batch.
    pub first: usize,
    /// Tickets in the batch.
    pub len: usize,
    /// When the worker began the batch.
    pub start: f64,
    /// When the batch's tickets resolved.
    pub end: f64,
}

impl DerivedBatch {
    /// Wall time the worker spent on the batch.
    pub fn service(&self) -> f64 {
        self.end - self.start
    }
}

/// Reconstructs formed batches from a single-worker FIFO service.
///
/// Consecutive successful tickets that report the same batch size `e`
/// form one batch of `e`; anything else (a failure, or a run that does
/// not match its reported size) is taken as a batch of one. A batch
/// cannot start before the previous one ended (one worker) nor before
/// its last member was submitted, so its start is the later of the two;
/// it ends at the earliest resolution any of its tickets saw.
pub fn derive_batches(tickets: &[TicketTimes]) -> Vec<DerivedBatch> {
    let mut out = Vec::new();
    let mut prev_end = f64::NEG_INFINITY;
    let mut i = 0;
    while i < tickets.len() {
        let len = match tickets[i].batch_elements {
            Some(e)
                if e >= 1
                    && i + e <= tickets.len()
                    && tickets[i..i + e]
                        .iter()
                        .all(|t| t.batch_elements == Some(e)) =>
            {
                e
            }
            _ => 1,
        };
        let members = &tickets[i..i + len];
        let start = prev_end.max(members[len - 1].submitted);
        let end = members
            .iter()
            .map(|t| t.resolved)
            .fold(f64::INFINITY, f64::min)
            .max(start);
        out.push(DerivedBatch {
            first: i,
            len,
            start,
            end,
        });
        prev_end = end;
        i += len;
    }
    out
}

/// Per-ticket queue wait: from submission until its batch started.
pub fn queue_waits(tickets: &[TicketTimes], batches: &[DerivedBatch]) -> Vec<f64> {
    batches
        .iter()
        .flat_map(|b| {
            tickets[b.first..b.first + b.len]
                .iter()
                .map(move |t| (b.start - t.submitted).max(0.0))
        })
        .collect()
}

/// Share of op wall time that no timed layer call covers, over a set of
/// ops: `1 - covered / total`, with coverage capped at the op time.
pub fn unattributed_frac(op_ms_total: f64, covered_ms_total: f64) -> f64 {
    if op_ms_total <= 0.0 {
        return 0.0;
    }
    1.0 - covered_ms_total.clamp(0.0, op_ms_total) / op_ms_total
}

/// Mean formed-batch size over the batches counted between two
/// snapshots of a `batch_sizes` histogram (`hist[i]` counts batches of
/// `i + 1`).
pub fn mean_batch_size(before: &[u64], after: &[u64]) -> f64 {
    let mut batches = 0u64;
    let mut tickets = 0u64;
    for (i, &n) in after.iter().enumerate() {
        let d = n - before.get(i).copied().unwrap_or(0);
        batches += d;
        tickets += d * (i as u64 + 1);
    }
    if batches == 0 {
        0.0
    } else {
        tickets as f64 / batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.9), 900.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(600, 0.99), 6);
        assert_eq!(samples_beyond(10, 0.5), 5);
        assert_eq!(samples_beyond(1, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!((s.p50, s.p90, s.p99), (2.0, 4.0, 4.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    fn t(submitted: f64, resolved: f64, e: Option<usize>) -> TicketTimes {
        TicketTimes {
            submitted,
            resolved,
            batch_elements: e,
        }
    }

    #[test]
    fn idle_worker_starts_at_submission() {
        // Two isolated singles: no queueing, service = resolve - submit.
        let ts = [t(0.0, 4.0, Some(1)), t(10.0, 13.0, Some(1))];
        let b = derive_batches(&ts);
        assert_eq!(b.len(), 2);
        assert_eq!((b[0].start, b[0].service()), (0.0, 4.0));
        assert_eq!((b[1].start, b[1].service()), (10.0, 3.0));
        assert_eq!(queue_waits(&ts, &b), vec![0.0, 0.0]);
    }

    #[test]
    fn busy_worker_queues_and_coalesces() {
        // Ticket 0 runs alone 0..5; tickets 1-3 arrive while it runs and
        // ride one batch of 3 that starts when ticket 0's batch ends.
        let ts = [
            t(0.0, 5.0, Some(1)),
            t(1.0, 9.0, Some(3)),
            t(2.0, 9.2, Some(3)),
            t(4.0, 9.1, Some(3)),
        ];
        let b = derive_batches(&ts);
        assert_eq!(b.len(), 2);
        assert_eq!((b[1].first, b[1].len), (1, 3));
        assert_eq!(b[1].start, 5.0);
        assert_eq!(b[1].end, 9.0);
        assert_eq!(b[1].service(), 4.0);
        assert_eq!(queue_waits(&ts, &b), vec![0.0, 4.0, 3.0, 1.0]);
    }

    #[test]
    fn failures_and_short_runs_fall_back_to_singles() {
        // A failed ticket and a claimed batch of 4 with only 2 matching
        // tickets left: both become batches of one.
        let ts = [
            t(0.0, 2.0, None),
            t(0.5, 6.0, Some(4)),
            t(0.6, 6.0, Some(4)),
        ];
        let b = derive_batches(&ts);
        assert_eq!(b.iter().map(|b| b.len).collect::<Vec<_>>(), vec![1, 1, 1]);
        assert_eq!(b[1].start, 2.0);
        assert_eq!(b[2].start, 6.0);
        assert_eq!(b[2].service(), 0.0);
    }

    #[test]
    fn unattributed_share() {
        assert_eq!(unattributed_frac(100.0, 75.0), 0.25);
        assert_eq!(unattributed_frac(100.0, 120.0), 0.0);
        assert_eq!(unattributed_frac(100.0, 0.0), 1.0);
        assert_eq!(unattributed_frac(0.0, 0.0), 0.0);
    }

    #[test]
    fn batch_size_mean_from_histogram_deltas() {
        // Before: 2 singles. After: 3 singles, 1 pair, 2 batches of 4.
        assert_eq!(mean_batch_size(&[2], &[3, 1, 0, 2]), 11.0 / 4.0);
        assert_eq!(mean_batch_size(&[1, 1], &[1, 1]), 0.0);
    }
}
