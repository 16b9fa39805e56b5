//! The replay service: long-lived, multi-tenant replay behind a real
//! scheduler.
//!
//! The paper's replayer is single-shot: init, load, replay, cleanup. A
//! client serving inference traffic wants the opposite shape — machines
//! that stay warm (page tables built, dumps uploaded, registers
//! configured) while requests stream in, behind a scheduler that holds
//! up under overload. This crate provides that shape:
//!
//! * one **shard** per GPU SKU, each with a **bounded
//!   earliest-deadline-first queue** ([`EdfQueue`]): a full queue rejects
//!   the submission with [`ServiceError::QueueFull`] instead of growing
//!   without bound;
//! * **per-request deadlines** against the service's virtual clock
//!   ([`ReplayService::clock`]): already-expired requests are refused at
//!   admission, and requests that expire while queued are rejected at
//!   dequeue without ever touching a warm machine;
//! * N **worker threads** per shard, each owning a warm [`Machine`] +
//!   [`Replayer`] with every recording pre-loaded and verified;
//! * **dynamic batching**: when a shard's queue backs up, a worker
//!   drains up to [`ShardSpec::max_batch`] EDF-consecutive compatible
//!   single-input submissions for the same recording and runs them
//!   through one [`Replayer::replay_batch_isolated`] call, paying the
//!   reset/upload/remap prologue once and demuxing outputs — and faults
//!   — back to the individual tickets;
//! * **fault isolation**: a malformed or poisoned element fails only its
//!   own ticket (§5.4 recovery re-warms the machine mid-batch); the
//!   worker, its warm state, and its batchmates all survive;
//! * **cross-batch warm residency**: a worker serving consecutive batches
//!   of the same recording elides the reset/upload/remap prologue,
//!   re-uploading only the dump bytes the previous batch's suffix wrote
//!   after first reading them (`DESIGN.md` §13); residency drops on
//!   recording switch and on GPU reset or fault re-warm, and the elisions surface as
//!   `ShardStats::prologue_skipped`;
//! * **replay-progress clock**: after each formed batch a worker advances
//!   the service clock to its machine's virtual timeline, so queued
//!   deadlines expire from replay progress without an external driver
//!   (an explicit `clock().advance(..)` composes with it: the clock is
//!   monotonic, so it reads the latest of all timelines);
//! * **observability**: [`ReplayService::stats`] snapshots per-shard
//!   queue depth, admission/rejection counters, deadline misses, the
//!   formed-batch size histogram, residency elisions, and per-recording
//!   queue-depth/dequeue lanes ([`RecordingStats`]).
//!
//! ```no_run
//! use gr_service::{ReplayRequest, ReplayService, ShardSpec};
//! use gr_replayer::{EnvKind, ReplayIo};
//! use gr_gpu::sku;
//! use gr_sim::SimDuration;
//!
//! # fn demo(blob: Vec<u8>, io: ReplayIo) -> Result<(), gr_service::ServiceError> {
//! let service = ReplayService::builder()
//!     .shard(
//!         ShardSpec::new(&sku::MALI_G71, EnvKind::UserLevel, vec![blob])
//!             .workers(2)
//!             .queue_cap(128)
//!             .max_batch(16),
//!     )
//!     .spawn()?;
//! let deadline = service.clock().now() + SimDuration::from_millis(50);
//! let ticket = service.submit_request(
//!     "G71",
//!     ReplayRequest::single(0, io).deadline(deadline),
//! )?;
//! let outcome = ticket.wait()?;
//! println!("rode a batch of {}", outcome.report.elements);
//! println!("{:?}", service.stats());
//! service.shutdown();
//! # Ok(()) }
//! ```

mod queue;
mod stats;

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use gr_gpu::{GpuSku, Machine};
use gr_replayer::{
    BatchReport, EnvKind, Environment, IsolatedBatchReport, ReplayError, ReplayIo, Replayer,
};
use gr_sim::{SimClock, SimTime};

pub use queue::EdfQueue;
pub use stats::{RecordingStats, ServiceStats, ShardStats};

use stats::ShardMetrics;

/// Why a service call failed.
#[derive(Debug)]
pub enum ServiceError {
    /// No shard serves this SKU name.
    UnknownSku(String),
    /// Two shards were configured for the same SKU name.
    DuplicateShard(String),
    /// The shard's bounded queue is at capacity; the request was rejected
    /// at admission (backpressure — retry later or shed the request).
    QueueFull {
        /// SKU of the full shard.
        sku: String,
        /// The queue's admission capacity.
        cap: usize,
    },
    /// The request's deadline passed: at admission (already expired) or
    /// while queued (rejected at dequeue without touching a worker).
    DeadlineExceeded,
    /// The service is shutting down; the ticket was rejected, not run.
    Shutdown,
    /// The shard's workers are gone (shutdown raced or a thread died).
    WorkerLost,
    /// A worker failed to warm up at spawn time.
    Startup(ReplayError),
    /// The replay itself failed; the worker survived and keeps serving.
    Replay(ReplayError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSku(name) => write!(f, "no shard for SKU '{name}'"),
            ServiceError::DuplicateShard(name) => {
                write!(f, "more than one shard configured for SKU '{name}'")
            }
            ServiceError::QueueFull { sku, cap } => {
                write!(f, "shard '{sku}' queue full (cap {cap})")
            }
            ServiceError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServiceError::Shutdown => write!(f, "service shut down before the request ran"),
            ServiceError::WorkerLost => write!(f, "shard workers are gone"),
            ServiceError::Startup(e) => write!(f, "worker warm-up failed: {e}"),
            ServiceError::Replay(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One shard to build: a SKU, a deployment environment, the recordings
/// every worker pre-loads, and the scheduler knobs.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// GPU SKU the shard's machines model.
    pub sku: &'static GpuSku,
    /// Deployment environment of each worker's replayer (§6.3).
    pub env: EnvKind,
    /// Serialized recordings, loaded (and verified) by every worker in
    /// order; job `recording` indices refer to this order.
    pub recordings: Vec<Vec<u8>>,
    /// Worker threads (warm machines) in the shard.
    pub workers: usize,
    /// Base machine seed; worker `i` gets `seed + i` so shards exercise
    /// different hardware timing jitter while outputs stay bit-exact.
    pub seed: u64,
    /// Bounded queue capacity; admission past this depth returns
    /// [`ServiceError::QueueFull`].
    pub queue_cap: usize,
    /// Most tickets a worker may coalesce into one warm batch (1
    /// disables dynamic batching).
    pub max_batch: usize,
    /// Cross-batch warm residency on the shard's workers (on by default):
    /// consecutive batches of the same recording elide the prologue and
    /// restore only the dump bytes the previous suffix wrote after first
    /// reading them. Benchmarks turn it off to measure the
    /// per-batch-prologue baseline.
    pub residency: bool,
}

impl ShardSpec {
    /// A one-worker shard with default seed, a 64-deep queue, and up to
    /// 8-way dynamic batching.
    pub fn new(sku: &'static GpuSku, env: EnvKind, recordings: Vec<Vec<u8>>) -> ShardSpec {
        ShardSpec {
            sku,
            env,
            recordings,
            workers: 1,
            seed: 1,
            queue_cap: 64,
            max_batch: 8,
            residency: true,
        }
    }

    /// Sets the worker count (minimum 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> ShardSpec {
        self.workers = n.max(1);
        self
    }

    /// Sets the base machine seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> ShardSpec {
        self.seed = seed;
        self
    }

    /// Sets the bounded queue capacity (minimum 1).
    #[must_use]
    pub fn queue_cap(mut self, cap: usize) -> ShardSpec {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets the dynamic-batching cap (minimum 1 = no coalescing).
    #[must_use]
    pub fn max_batch(mut self, n: usize) -> ShardSpec {
        self.max_batch = n.max(1);
        self
    }

    /// Enables or disables cross-batch warm residency on the shard's
    /// workers (see [`ShardSpec::residency`]).
    #[must_use]
    pub fn residency(mut self, on: bool) -> ShardSpec {
        self.residency = on;
        self
    }
}

/// One submission: which recording to replay, its IO blocks, and an
/// optional deadline on the service clock.
#[derive(Debug)]
pub struct ReplayRequest {
    /// Index into the shard's recording list.
    pub recording: usize,
    /// One element per entry; a single-element request is eligible for
    /// dynamic batching with its shard neighbours.
    pub ios: Vec<ReplayIo>,
    /// Latest service-clock instant at which starting the replay is still
    /// useful; `None` never expires.
    pub deadline: Option<SimTime>,
}

impl ReplayRequest {
    /// A request carrying `ios` with no deadline.
    pub fn new(recording: usize, ios: Vec<ReplayIo>) -> ReplayRequest {
        ReplayRequest {
            recording,
            ios,
            deadline: None,
        }
    }

    /// A single-input request (the shape dynamic batching coalesces).
    pub fn single(recording: usize, io: ReplayIo) -> ReplayRequest {
        ReplayRequest::new(recording, vec![io])
    }

    /// Sets the deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: SimTime) -> ReplayRequest {
        self.deadline = Some(deadline);
        self
    }
}

/// Everything a finished job hands back.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The request's IO blocks, outputs filled.
    pub ios: Vec<ReplayIo>,
    /// The report of the warm batch this request rode (`report.elements`
    /// counts every coalesced element, not just this request's).
    pub report: BatchReport,
    /// Index of the worker (within its shard) that served the job.
    pub worker: usize,
}

/// A pending job: redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<BatchOutcome, ServiceError>>,
}

impl Ticket {
    /// Blocks until the job finishes or is rejected.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Replay`] when the replay failed,
    /// [`ServiceError::DeadlineExceeded`] when the deadline passed in the
    /// queue, [`ServiceError::Shutdown`] when the service stopped before
    /// the request ran, [`ServiceError::WorkerLost`] when the serving
    /// worker vanished.
    pub fn wait(self) -> Result<BatchOutcome, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::WorkerLost)?
    }
}

/// Per-worker lifetime counters, returned by [`ReplayService::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// SKU name of the worker's shard.
    pub sku: &'static str,
    /// Worker index within the shard.
    pub worker: usize,
    /// Batches served (a lone request counts as a batch of 1).
    pub jobs: u64,
    /// Batch elements replayed across all jobs.
    pub elements: u64,
    /// Tickets answered with an error (worker survived them).
    pub errors: u64,
}

/// A queued submission: payload plus the channel its outcome goes to.
struct Pending {
    recording: usize,
    ios: Vec<ReplayIo>,
    reply: Sender<Result<BatchOutcome, ServiceError>>,
}

/// Shard state guarded by one mutex; two condvars signal on it
/// (`work_cv` wakes workers, `idle_cv` wakes `quiesce` callers).
struct ShardState {
    queue: EdfQueue<Pending>,
    closed: bool,
    paused: bool,
    /// Tickets currently being replayed by workers.
    in_flight: usize,
    /// Worker threads still serving; when this hits zero unexpectedly
    /// (panic), the shard closes and queued tickets are rejected.
    live_workers: usize,
    /// Set when the shard closed because its workers died rather than by
    /// an orderly shutdown.
    lost: bool,
    metrics: ShardMetrics,
}

struct ShardInner {
    sku: &'static str,
    max_batch: usize,
    clock: SimClock,
    state: Mutex<ShardState>,
    work_cv: Condvar,
    idle_cv: Condvar,
}

impl ShardInner {
    /// Locks the state, recovering from a poisoned lock (a panicked
    /// worker must not wedge the whole service).
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct Shard {
    inner: Arc<ShardInner>,
    workers: Vec<JoinHandle<WorkerStats>>,
    machines: Vec<Machine>,
}

/// Builds a [`ReplayService`] shard by shard.
#[derive(Default)]
pub struct ReplayServiceBuilder {
    shards: Vec<ShardSpec>,
}

impl ReplayServiceBuilder {
    /// Adds a shard.
    #[must_use]
    pub fn shard(mut self, spec: ShardSpec) -> ReplayServiceBuilder {
        self.shards.push(spec);
        self
    }

    /// Spawns every shard's workers and blocks until each has acquired
    /// its GPU and loaded (verified) all recordings.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Startup`] when any worker fails to warm
    /// up; already-spawned workers are shut down first.
    pub fn spawn(self) -> Result<ReplayService, ServiceError> {
        let clock = SimClock::new();
        let mut shards: HashMap<&'static str, Shard> = HashMap::new();
        for spec in self.shards {
            if shards.contains_key(spec.sku.name) {
                // Silently replacing a shard would orphan its warmed
                // workers; make the misconfiguration loud instead.
                let err = ServiceError::DuplicateShard(spec.sku.name.to_string());
                ReplayService { clock, shards }.shutdown();
                return Err(err);
            }
            let inner = Arc::new(ShardInner {
                sku: spec.sku.name,
                max_batch: spec.max_batch,
                clock: clock.clone(),
                state: Mutex::new(ShardState {
                    queue: EdfQueue::new(spec.queue_cap),
                    closed: false,
                    paused: false,
                    in_flight: 0,
                    live_workers: spec.workers,
                    lost: false,
                    metrics: ShardMetrics::default(),
                }),
                work_cv: Condvar::new(),
                idle_cv: Condvar::new(),
            });
            let blobs = Arc::new(spec.recordings.clone());
            let (ready_tx, ready_rx) = channel::<(usize, Result<Machine, ReplayError>)>();
            let mut workers = Vec::with_capacity(spec.workers);
            for w in 0..spec.workers {
                let inner = Arc::clone(&inner);
                let blobs = Arc::clone(&blobs);
                let ready = ready_tx.clone();
                let (sku, env, seed) = (spec.sku, spec.env, spec.seed + w as u64);
                let residency = spec.residency;
                workers.push(std::thread::spawn(move || {
                    worker_main(sku, env, seed, w, residency, &blobs, &inner, &ready)
                }));
            }
            drop(ready_tx);
            let mut machines: Vec<Option<Machine>> = vec![None; spec.workers];
            let mut startup_err = None;
            for _ in 0..spec.workers {
                match ready_rx.recv() {
                    Ok((w, Ok(machine))) => machines[w] = Some(machine),
                    Ok((_, Err(e))) => startup_err = Some(ServiceError::Startup(e)),
                    Err(_) => startup_err = Some(ServiceError::WorkerLost),
                }
            }
            let shard = Shard {
                inner,
                workers,
                machines: machines.into_iter().flatten().collect(),
            };
            if let Some(err) = startup_err {
                {
                    let mut st = shard.inner.lock();
                    st.closed = true;
                }
                shard.inner.work_cv.notify_all();
                for h in shard.workers {
                    let _ = h.join();
                }
                let service = ReplayService { clock, shards };
                service.shutdown();
                return Err(err);
            }
            shards.insert(spec.sku.name, shard);
        }
        Ok(ReplayService { clock, shards })
    }
}

/// Rejects every expired entry at the EDF head (deadline misses never
/// touch a warm machine), then pops the first live head and coalesces up
/// to `max_batch` consecutive compatible single-input submissions for
/// the same recording. The first incompatible head stops formation —
/// strict EDF order is never violated by skipping over an entry.
/// Returns `None` when the sweep drained the queue. Every deadline
/// comparison uses the single `now` the caller read under this lock
/// hold, and EDF pop order is nondecreasing in deadline, so once the
/// head survives the sweep no later entry of the same formation can be
/// expired.
fn form_batch(st: &mut ShardState, max_batch: usize, now: SimTime) -> Option<Vec<Pending>> {
    let head = loop {
        match st.queue.peek() {
            None => return None,
            Some((Some(d), _)) if d < now => {
                let (_, p) = st.queue.pop().expect("peeked entry");
                st.metrics.note_dequeue(p.recording);
                st.metrics.deadline_missed += 1;
                let _ = p.reply.send(Err(ServiceError::DeadlineExceeded));
            }
            Some(_) => {
                let (_, p) = st.queue.pop().expect("peeked entry");
                st.metrics.note_dequeue(p.recording);
                break p;
            }
        }
    };
    let mut batch = vec![head];
    if batch[0].ios.len() != 1 {
        return Some(batch); // an explicit multi-input job runs alone
    }
    while batch.len() < max_batch {
        let compatible = match st.queue.peek() {
            Some((_, next)) => next.recording == batch[0].recording && next.ios.len() == 1,
            None => false,
        };
        if !compatible {
            break;
        }
        let (deadline, p) = st.queue.pop().expect("peeked entry");
        debug_assert!(
            !deadline.is_some_and(|d| d < now),
            "EDF order: a follower cannot be expired when the head survived the sweep"
        );
        st.metrics.note_dequeue(p.recording);
        batch.push(p);
    }
    Some(batch)
}

/// Armed for the whole serving life of a worker thread; its `Drop` runs
/// on normal exit *and* on a panic anywhere in the serving loop, so a
/// dead worker can never strand the shard: any in-flight charge is
/// released, and when the last worker goes, the shard closes and every
/// queued ticket is answered with [`ServiceError::WorkerLost`] instead
/// of hanging its `wait()` forever.
struct WorkerGuard<'a> {
    inner: &'a ShardInner,
    /// Tickets currently charged to `in_flight` by this worker.
    charged: std::cell::Cell<usize>,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        // A non-zero charge here means a panic mid-batch: those tickets'
        // replies died with the worker (their wait() resolves WorkerLost
        // via the dropped channel), so account them as lost to keep the
        // submitted == resolved + depth + in_flight invariant true.
        st.in_flight -= self.charged.get();
        st.metrics.worker_lost += self.charged.get() as u64;
        st.live_workers -= 1;
        if st.live_workers == 0 && !st.closed {
            // Panic path: an orderly shutdown would have closed the shard
            // (and drained or rejected the queue) before workers exited.
            st.closed = true;
            st.lost = true;
            for (_, p) in st.queue.drain() {
                st.metrics.note_dequeue(p.recording);
                st.metrics.worker_lost += 1;
                let _ = p.reply.send(Err(ServiceError::WorkerLost));
            }
        }
        if st.queue.is_empty() && st.in_flight == 0 {
            self.inner.idle_cv.notify_all();
        }
    }
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn worker_main(
    sku: &'static GpuSku,
    env_kind: EnvKind,
    seed: u64,
    worker: usize,
    residency: bool,
    blobs: &[Vec<u8>],
    inner: &Arc<ShardInner>,
    ready: &Sender<(usize, Result<Machine, ReplayError>)>,
) -> WorkerStats {
    let mut stats = WorkerStats {
        sku: sku.name,
        worker,
        jobs: 0,
        elements: 0,
        errors: 0,
    };
    let machine = Machine::new(sku, seed);
    let env = match Environment::new(env_kind, machine.clone()) {
        Ok(env) => env,
        Err(e) => {
            let _ = ready.send((worker, Err(e)));
            return stats;
        }
    };
    let mut replayer = Replayer::new(env);
    replayer.set_residency(residency);
    for blob in blobs {
        if let Err(e) = replayer.load_bytes(blob) {
            let _ = ready.send((worker, Err(e)));
            return stats;
        }
    }
    let _ = ready.send((worker, Ok(machine.clone())));
    let guard = WorkerGuard {
        inner,
        charged: std::cell::Cell::new(0),
    };

    loop {
        // Dequeue under the shard lock; replay runs unlocked so shard
        // workers serve in parallel on their own machines.
        let batch = {
            let mut st = inner.lock();
            loop {
                // One clock read per wake-up: the expiry sweep inside
                // form_batch and the formation itself must agree on "now"
                // (deadline-aware dequeue — expired work is rejected here,
                // before any warm machine is involved).
                let now = inner.clock.now();
                if !st.paused {
                    if let Some(batch) = form_batch(&mut st, inner.max_batch, now) {
                        st.in_flight += batch.len();
                        guard.charged.set(batch.len());
                        break batch;
                    }
                }
                if st.queue.is_empty() && st.in_flight == 0 {
                    inner.idle_cv.notify_all();
                }
                if st.closed && !st.paused && st.queue.is_empty() {
                    drop(st);
                    replayer.cleanup();
                    return stats;
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };

        stats.jobs += 1;
        let recording = batch[0].recording;
        let (replies, retries, completed, faulted, prologue_skipped) =
            run_formed_batch(&mut replayer, recording, batch, worker, &mut stats);

        // Replay-progress clock tick: deadlines expire from the worker
        // machines' virtual timelines, no external driver needed. The
        // service clock is monotonic (`advance_to`), so manual advances
        // and multiple workers compose as "max of all timelines".
        inner.clock.advance_to(machine.now());

        let mut st = inner.lock();
        st.in_flight -= replies.len();
        guard.charged.set(0);
        st.metrics.record_batch(replies.len());
        st.metrics.retries += u64::from(retries);
        st.metrics.completed += completed;
        st.metrics.faults += faulted;
        st.metrics.prologue_skipped += prologue_skipped;
        // Answer only once the batch is accounted, under the shard lock
        // (as the expiry path does): a caller whose `wait()` returned
        // always finds its ticket in the next `stats()` snapshot.
        for (reply, outcome) in replies {
            let _ = reply.send(outcome);
        }
        if st.queue.is_empty() && st.in_flight == 0 {
            inner.idle_cv.notify_all();
        }
    }
}

/// A ticket's reply channel and the outcome to send on it.
type Reply = (
    Sender<Result<BatchOutcome, ServiceError>>,
    Result<BatchOutcome, ServiceError>,
);

/// Runs one formed batch through the fault-isolating batch replay and
/// demuxes outputs and errors to the individual tickets, returning one
/// reply per ticket for the caller to send. Returns
/// `(replies, retries, completed, faulted, prologue_skipped)`.
fn run_formed_batch(
    replayer: &mut Replayer,
    recording: usize,
    mut batch: Vec<Pending>,
    worker: usize,
    stats: &mut WorkerStats,
) -> (Vec<Reply>, u32, u64, u64, u64) {
    let tickets = batch.len();
    let mut spans = Vec::with_capacity(batch.len());
    let mut all_ios: Vec<ReplayIo> = Vec::new();
    for p in &mut batch {
        spans.push(p.ios.len());
        all_ios.append(&mut p.ios);
    }

    match replayer.replay_batch_isolated(recording, &mut all_ios) {
        Ok(IsolatedBatchReport { report, errors }) => {
            stats.elements += report.elements as u64;
            let mut completed = 0u64;
            let mut faulted = 0u64;
            let mut errs = errors.into_iter().peekable();
            let mut drained = all_ios.into_iter();
            let mut base = 0usize;
            let mut replies = Vec::with_capacity(tickets);
            for (p, n) in batch.into_iter().zip(spans) {
                let ios: Vec<ReplayIo> = drained.by_ref().take(n).collect();
                // First error attributed to this ticket's element span, if
                // any (later ones in the same span are subsumed).
                let mut first_err = None;
                while let Some((k, _)) = errs.peek() {
                    if *k >= base + n {
                        break;
                    }
                    let (_, e) = errs.next().expect("peeked error");
                    first_err.get_or_insert(e);
                }
                base += n;
                if let Some(e) = first_err {
                    faulted += 1;
                    stats.errors += 1;
                    replies.push((p.reply, Err(ServiceError::Replay(e))));
                } else {
                    completed += 1;
                    let outcome = BatchOutcome {
                        ios,
                        report: report.clone(),
                        worker,
                    };
                    replies.push((p.reply, Ok(outcome)));
                }
            }
            (
                replies,
                report.retries,
                completed,
                faulted,
                report.prologue_skipped as u64,
            )
        }
        Err(e) => {
            // Batch-scoped failure: every ticket is answered with the
            // error; the warm machine re-runs its recorded reset prologue
            // on the next batch, so the worker keeps serving.
            stats.errors += tickets as u64;
            let replies = batch
                .into_iter()
                .map(|p| (p.reply, Err(ServiceError::Replay(e.clone()))))
                .collect();
            (replies, 0, 0, tickets as u64, 0)
        }
    }
}

/// The running service: sharded warm machines behind bounded EDF queues.
pub struct ReplayService {
    clock: SimClock,
    shards: HashMap<&'static str, Shard>,
}

impl std::fmt::Debug for ReplayService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.shards.keys().copied().collect();
        names.sort_unstable();
        f.debug_struct("ReplayService")
            .field("shards", &names)
            .finish()
    }
}

impl ReplayService {
    /// Starts building a service.
    pub fn builder() -> ReplayServiceBuilder {
        ReplayServiceBuilder::default()
    }

    /// SKU names with a live shard.
    pub fn skus(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.shards.keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// The service's virtual clock: deadlines are instants on this
    /// timeline. Workers advance it to their machine's virtual timeline
    /// after each formed batch; callers may also advance it explicitly
    /// (it is monotonic, so it reads the latest of all timelines).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Handles to every warm worker machine of shard `sku` (worker
    /// order). Ops/test hook: lets callers inject faults or read the
    /// machines' virtual clocks without reaching into worker threads.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSku`] when no shard serves `sku`.
    pub fn machines(&self, sku: &str) -> Result<Vec<Machine>, ServiceError> {
        self.shards
            .get(sku)
            .map(|s| s.machines.clone())
            .ok_or_else(|| ServiceError::UnknownSku(sku.to_string()))
    }

    /// Point-in-time scheduler metrics for every shard, sorted by SKU.
    pub fn stats(&self) -> ServiceStats {
        let mut shards: Vec<ShardStats> = self
            .shards
            .values()
            .map(|shard| {
                let st = shard.inner.lock();
                st.metrics.snapshot(
                    shard.inner.sku,
                    st.queue.len(),
                    st.queue.cap(),
                    st.in_flight,
                )
            })
            .collect();
        shards.sort_by_key(|s| s.sku);
        ServiceStats { shards }
    }

    /// Enqueues a job with no deadline: replay `recording` for every
    /// element of `ios` on shard `sku`.
    ///
    /// # Errors
    ///
    /// As [`ReplayService::submit_request`].
    pub fn submit(
        &self,
        sku: &str,
        recording: usize,
        ios: Vec<ReplayIo>,
    ) -> Result<Ticket, ServiceError> {
        self.submit_request(sku, ReplayRequest::new(recording, ios))
    }

    /// Admits `req` to shard `sku`'s bounded EDF queue.
    ///
    /// # Errors
    ///
    /// Synchronous rejections: [`ServiceError::UnknownSku`],
    /// [`ServiceError::QueueFull`] (bounded admission),
    /// [`ServiceError::DeadlineExceeded`] (deadline already passed),
    /// [`ServiceError::Shutdown`]. Replay and validation failures surface
    /// on the ticket instead, leaving the worker alive.
    pub fn submit_request(&self, sku: &str, req: ReplayRequest) -> Result<Ticket, ServiceError> {
        let shard = self
            .shards
            .get(sku)
            .ok_or_else(|| ServiceError::UnknownSku(sku.to_string()))?;
        let mut st = shard.inner.lock();
        if st.closed {
            // Closed by shutdown, or because every worker died.
            return Err(if st.lost {
                ServiceError::WorkerLost
            } else {
                ServiceError::Shutdown
            });
        }
        st.metrics.submitted += 1;
        if let Some(d) = req.deadline {
            if d < shard.inner.clock.now() {
                st.metrics.rejected_expired += 1;
                return Err(ServiceError::DeadlineExceeded);
            }
        }
        let (reply, rx) = channel();
        let recording = req.recording;
        let pending = Pending {
            recording,
            ios: req.ios,
            reply,
        };
        if st.queue.try_push(req.deadline, pending).is_err() {
            st.metrics.rejected_full += 1;
            return Err(ServiceError::QueueFull {
                sku: sku.to_string(),
                cap: st.queue.cap(),
            });
        }
        st.metrics.note_admit(recording);
        drop(st);
        shard.inner.work_cv.notify_one();
        Ok(Ticket { rx })
    }

    /// Convenience: submit and wait.
    ///
    /// # Errors
    ///
    /// As [`ReplayService::submit`] and [`Ticket::wait`].
    pub fn run(
        &self,
        sku: &str,
        recording: usize,
        ios: Vec<ReplayIo>,
    ) -> Result<BatchOutcome, ServiceError> {
        self.submit(sku, recording, ios)?.wait()
    }

    /// Stops every shard's workers from dequeuing (already-running
    /// batches finish). Submissions are still admitted while paused —
    /// this is how deterministic tests build up a known queue state, and
    /// how an operator drains traffic before maintenance.
    pub fn pause(&self) {
        for shard in self.shards.values() {
            shard.inner.lock().paused = true;
        }
    }

    /// Resumes dequeuing after [`ReplayService::pause`].
    pub fn resume(&self) {
        for shard in self.shards.values() {
            shard.inner.lock().paused = false;
            shard.inner.work_cv.notify_all();
        }
    }

    /// Blocks until every shard's queue is empty and no batch is in
    /// flight. Call [`ReplayService::resume`] first if the service is
    /// paused with work queued, or this waits forever.
    pub fn quiesce(&self) {
        for shard in self.shards.values() {
            let mut st = shard.inner.lock();
            while !(st.queue.is_empty() && st.in_flight == 0) {
                st = shard
                    .inner
                    .idle_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Graceful shutdown: stops admitting, **drains** every queued ticket
    /// (deadline checks still apply to queued work), joins every worker,
    /// and returns their lifetime stats (sorted by SKU then worker index).
    pub fn shutdown(self) -> Vec<WorkerStats> {
        self.shutdown_impl(true)
    }

    /// Immediate shutdown: stops admitting, **rejects** every queued
    /// ticket with [`ServiceError::Shutdown`] (their `wait()` returns the
    /// error — never hangs), lets in-flight batches finish, joins every
    /// worker, and returns their lifetime stats.
    pub fn shutdown_now(self) -> Vec<WorkerStats> {
        self.shutdown_impl(false)
    }

    fn shutdown_impl(mut self, drain: bool) -> Vec<WorkerStats> {
        let mut stats = Vec::new();
        for (_, shard) in std::mem::take(&mut self.shards) {
            {
                let mut st = shard.inner.lock();
                st.closed = true;
                st.paused = false; // a paused shard must still terminate
                if !drain {
                    for (_, p) in st.queue.drain() {
                        st.metrics.note_dequeue(p.recording);
                        st.metrics.shutdown_rejected += 1;
                        let _ = p.reply.send(Err(ServiceError::Shutdown));
                    }
                }
            }
            shard.inner.work_cv.notify_all();
            for handle in shard.workers {
                if let Ok(s) = handle.join() {
                    stats.push(s);
                }
            }
        }
        stats.sort_by(|a, b| (a.sku, a.worker).cmp(&(b.sku, b.worker)));
        stats
    }
}

impl Drop for ReplayService {
    /// Dropping the service without [`ReplayService::shutdown`] (early
    /// return, caller panic) must not strand the shards: close every
    /// queue, reject what is still queued so no `Ticket::wait` hangs, and
    /// wake the workers so they exit and release their warm machines.
    /// Unlike `shutdown`, this never blocks — the worker threads detach
    /// and finish on their own.
    fn drop(&mut self) {
        for shard in self.shards.values() {
            {
                let mut st = shard.inner.lock();
                st.closed = true;
                st.paused = false;
                for (_, p) in st.queue.drain() {
                    st.metrics.note_dequeue(p.recording);
                    st.metrics.shutdown_rejected += 1;
                    let _ = p.reply.send(Err(ServiceError::Shutdown));
                }
            }
            shard.inner.work_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_mlfw::cpu_ref;
    use gr_mlfw::fusion::Granularity;
    use gr_mlfw::models;
    use gr_recorder::RecordHarness;
    use gr_recording::Recording;
    use gr_sim::{SimDuration, SimRng};

    fn random_input(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| rng.unit_f64() as f32).collect()
    }

    fn record_mnist(sku: &'static GpuSku, seed: u64) -> (Vec<u8>, gr_mlfw::exec::GpuNetwork) {
        let dev = Machine::new(sku, seed);
        let mut harness = RecordHarness::new(dev).unwrap();
        let recs = harness
            .record_inference(&models::mnist(), Granularity::WholeNn, seed)
            .unwrap();
        let bytes = recs.recordings[0].to_bytes();
        harness.finish();
        (bytes, recs.net)
    }

    fn io_for(blob: &[u8], input: &[f32]) -> ReplayIo {
        let rec = Recording::from_bytes(blob).unwrap();
        let mut io = ReplayIo::for_recording(&rec);
        io.set_input_f32(0, input).unwrap();
        io
    }

    #[test]
    fn sharded_service_replays_batches_on_both_skus() {
        let (mali_blob, mali_net) = record_mnist(&gr_gpu::sku::MALI_G71, 41);
        let (v3d_blob, v3d_net) = record_mnist(&gr_gpu::sku::V3D_RPI4, 43);
        let service = ReplayService::builder()
            .shard(
                ShardSpec::new(
                    &gr_gpu::sku::MALI_G71,
                    EnvKind::UserLevel,
                    vec![mali_blob.clone()],
                )
                .workers(2),
            )
            .shard(ShardSpec::new(
                &gr_gpu::sku::V3D_RPI4,
                EnvKind::KernelLevel,
                vec![v3d_blob.clone()],
            ))
            .spawn()
            .unwrap();
        assert_eq!(service.skus(), vec!["G71", "v3d"]);
        assert_eq!(service.machines("G71").unwrap().len(), 2);
        assert_eq!(service.machines("v3d").unwrap().len(), 1);

        // Queue jobs on both shards before collecting any result.
        let mut tickets = Vec::new();
        let mut expected = Vec::new();
        for seed in 0..6u64 {
            let (sku, blob, net) = if seed % 2 == 0 {
                ("G71", &mali_blob, &mali_net)
            } else {
                ("v3d", &v3d_blob, &v3d_net)
            };
            let inputs: Vec<Vec<f32>> = (0..3)
                .map(|k| random_input(net.input_len(), 100 + seed * 10 + k))
                .collect();
            let ios: Vec<ReplayIo> = inputs.iter().map(|i| io_for(blob, i)).collect();
            tickets.push(service.submit(sku, 0, ios).unwrap());
            expected.push(
                inputs
                    .iter()
                    .map(|i| cpu_ref::cpu_infer(net, i))
                    .collect::<Vec<_>>(),
            );
        }
        for (ticket, want) in tickets.into_iter().zip(expected) {
            let outcome = ticket.wait().unwrap();
            assert!(outcome.report.amortized, "MNIST recording must batch");
            assert_eq!(outcome.ios.len(), want.len());
            for (io, w) in outcome.ios.iter().zip(&want) {
                assert_eq!(io.output_f32(0).unwrap(), *w, "bit-exact batch output");
            }
        }
        let snapshot = service.stats();
        assert_eq!(snapshot.shards.len(), 2);
        for shard in &snapshot.shards {
            assert!(shard.is_consistent(), "{shard:?}");
            // Consecutive batches of the same recording on a warm worker
            // elide prologue work; the stats must surface it.
            assert!(
                shard.prologue_skipped > 0,
                "warm residency must elide prologue actions: {shard:?}"
            );
            // Per-recording lanes balance: everything admitted for
            // recording 0 was dequeued by the drain.
            assert_eq!(shard.per_recording.len(), 1);
            assert_eq!(shard.per_recording[0].recording, 0);
            assert_eq!(shard.per_recording[0].queued, 0);
            assert_eq!(shard.per_recording[0].dequeued, 3);
        }
        let stats = service.shutdown();
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 6);
        assert_eq!(stats.iter().map(|s| s.elements).sum::<u64>(), 18);
        assert_eq!(stats.iter().map(|s| s.errors).sum::<u64>(), 0);
    }

    #[test]
    fn malformed_requests_do_not_kill_workers() {
        let (blob, net) = record_mnist(&gr_gpu::sku::MALI_G71, 47);
        let service = ReplayService::builder()
            .shard(ShardSpec::new(
                &gr_gpu::sku::MALI_G71,
                EnvKind::UserLevel,
                vec![blob.clone()],
            ))
            .spawn()
            .unwrap();

        // Wrong input byte size.
        let rec = Recording::from_bytes(&blob).unwrap();
        let mut bad = ReplayIo::for_recording(&rec);
        bad.inputs[0] = vec![0u8; 3];
        let err = service.run("G71", 0, vec![bad]).unwrap_err();
        assert!(
            matches!(err, ServiceError::Replay(ReplayError::Io(_))),
            "{err}"
        );

        // Unknown recording id.
        let io = io_for(&blob, &random_input(net.input_len(), 1));
        let err = service.run("G71", 7, vec![io]).unwrap_err();
        assert!(
            matches!(err, ServiceError::Replay(ReplayError::BadRecording(7))),
            "{err}"
        );

        // Empty batch.
        let err = service.run("G71", 0, vec![]).unwrap_err();
        assert!(
            matches!(err, ServiceError::Replay(ReplayError::Io(_))),
            "{err}"
        );

        // Unknown SKU is a submit-side error.
        assert!(matches!(
            service.submit("adreno", 0, vec![]),
            Err(ServiceError::UnknownSku(_))
        ));

        // The same worker still serves a well-formed request afterwards.
        let input = random_input(net.input_len(), 9);
        let outcome = service.run("G71", 0, vec![io_for(&blob, &input)]).unwrap();
        assert_eq!(
            outcome.ios[0].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&net, &input)
        );
        let snapshot = service.stats();
        let shard = snapshot.shard("G71").unwrap();
        assert_eq!(shard.faults, 3);
        assert_eq!(shard.completed, 1);
        assert!(shard.is_consistent(), "{shard:?}");
        let stats = service.shutdown();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].errors, 3);
        assert_eq!(stats[0].jobs, 4);
    }

    #[test]
    fn duplicate_shards_are_rejected_at_spawn() {
        let (blob, _) = record_mnist(&gr_gpu::sku::MALI_G71, 53);
        let err = ReplayService::builder()
            .shard(ShardSpec::new(
                &gr_gpu::sku::MALI_G71,
                EnvKind::UserLevel,
                vec![blob.clone()],
            ))
            .shard(ShardSpec::new(
                &gr_gpu::sku::MALI_G71,
                EnvKind::UserLevel,
                vec![blob],
            ))
            .spawn()
            .unwrap_err();
        assert!(matches!(err, ServiceError::DuplicateShard(_)), "{err}");
    }

    #[test]
    fn startup_failure_surfaces_at_spawn() {
        // A recording for the wrong family fails each worker's load.
        let (blob, _) = record_mnist(&gr_gpu::sku::MALI_G71, 51);
        let err = ReplayService::builder()
            .shard(ShardSpec::new(
                &gr_gpu::sku::V3D_RPI4,
                EnvKind::KernelLevel,
                vec![blob],
            ))
            .spawn()
            .unwrap_err();
        assert!(matches!(err, ServiceError::Startup(_)), "{err}");
    }

    #[test]
    fn paused_queue_rejects_past_capacity_and_drains_on_resume() {
        let (blob, net) = record_mnist(&gr_gpu::sku::MALI_G71, 57);
        let service = ReplayService::builder()
            .shard(
                ShardSpec::new(
                    &gr_gpu::sku::MALI_G71,
                    EnvKind::UserLevel,
                    vec![blob.clone()],
                )
                .queue_cap(3)
                .max_batch(4),
            )
            .spawn()
            .unwrap();
        service.pause();
        let input = random_input(net.input_len(), 11);
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(service.run_ticket(&blob, &input));
        }
        // Queue is at capacity: the 4th submission is rejected loudly.
        let err = service
            .submit_request("G71", ReplayRequest::single(0, io_for(&blob, &input)))
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::QueueFull { cap: 3, .. }),
            "{err}"
        );
        assert_eq!(service.stats().shard("G71").unwrap().depth, 3);

        service.resume();
        service.quiesce();
        let want = cpu_ref::cpu_infer(&net, &input);
        for t in tickets {
            let outcome = t.wait().unwrap();
            assert_eq!(outcome.ios[0].output_f32(0).unwrap(), want);
            // All three coalesced into one warm batch.
            assert_eq!(outcome.report.elements, 3);
        }
        let snapshot = service.stats();
        let shard = snapshot.shard("G71").unwrap();
        assert_eq!(shard.rejected_full, 1);
        assert_eq!(shard.batch_sizes, vec![0, 0, 1]);
        assert!(shard.is_consistent(), "{shard:?}");
        service.shutdown();
    }

    #[test]
    fn deadlines_reject_at_admission_and_dequeue() {
        let (blob, net) = record_mnist(&gr_gpu::sku::MALI_G71, 59);
        let service = ReplayService::builder()
            .shard(ShardSpec::new(
                &gr_gpu::sku::MALI_G71,
                EnvKind::UserLevel,
                vec![blob.clone()],
            ))
            .spawn()
            .unwrap();
        let clock = service.clock();
        clock.advance(SimDuration::from_millis(10));
        let input = random_input(net.input_len(), 13);

        // Already expired: rejected synchronously, never queued.
        let err = service
            .submit_request(
                "G71",
                ReplayRequest::single(0, io_for(&blob, &input))
                    .deadline(gr_sim::SimTime::from_nanos(1)),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded), "{err}");

        // Expires while queued (service paused): rejected at dequeue.
        service.pause();
        let doomed = service
            .submit_request(
                "G71",
                ReplayRequest::single(0, io_for(&blob, &input))
                    .deadline(clock.now() + SimDuration::from_millis(1)),
            )
            .unwrap();
        let alive = service
            .submit_request(
                "G71",
                ReplayRequest::single(0, io_for(&blob, &input))
                    .deadline(clock.now() + SimDuration::from_secs(5)),
            )
            .unwrap();
        clock.advance(SimDuration::from_millis(2));
        service.resume();
        service.quiesce();
        assert!(matches!(
            doomed.wait().unwrap_err(),
            ServiceError::DeadlineExceeded
        ));
        let outcome = alive.wait().unwrap();
        assert_eq!(
            outcome.ios[0].output_f32(0).unwrap(),
            cpu_ref::cpu_infer(&net, &input)
        );
        let snapshot = service.stats();
        let shard = snapshot.shard("G71").unwrap();
        assert_eq!(shard.rejected_expired, 1);
        assert_eq!(shard.deadline_missed, 1);
        assert_eq!(shard.completed, 1);
        assert!(shard.is_consistent(), "{shard:?}");
        service.shutdown();
    }

    #[test]
    fn a_resolved_ticket_is_already_counted_in_stats() {
        let (blob, net) = record_mnist(&gr_gpu::sku::MALI_G71, 61);
        let service = ReplayService::builder()
            .shard(ShardSpec::new(
                &gr_gpu::sku::MALI_G71,
                EnvKind::UserLevel,
                vec![blob.clone()],
            ))
            .spawn()
            .unwrap();
        let input = random_input(net.input_len(), 17);
        for n in 1..=50u64 {
            service.run_ticket(&blob, &input).wait().unwrap();
            // No quiesce: the answer alone must imply the accounting.
            let snapshot = service.stats();
            let shard = snapshot.shard("G71").unwrap();
            assert_eq!((shard.completed, shard.in_flight), (n, 0), "{shard:?}");
            assert!(shard.is_consistent(), "{shard:?}");
        }
        service.shutdown();
    }

    impl ReplayService {
        /// Test helper: submit one single-input MNIST request.
        fn run_ticket(&self, blob: &[u8], input: &[f32]) -> Ticket {
            self.submit_request("G71", ReplayRequest::single(0, io_for(blob, input)))
                .unwrap()
        }
    }
}
