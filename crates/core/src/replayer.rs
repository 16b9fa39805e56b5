//! The replayer proper: Init / Load / Replay (§5).

use std::collections::HashMap;

use gr_gpu::machine::WaitOutcome;
use gr_recording::{Action, Recording};
use gr_sim::{SimDuration, SimTime};
use gr_soc::IrqLine;

use crate::costs;
use crate::env::Environment;
use crate::error::ReplayError;
use crate::handoff::GpuLease;
use crate::iface::NanoIface;
use crate::nano::NanoDriver;
use crate::verify;

/// Default cap on physical pages a recording may map (§5.1: "apps or the
/// replayer can reject memory-hungry recordings").
pub const DEFAULT_MAX_PAGES: u64 = 24 * 1024; // 96 MiB

/// Maximum §5.4 re-execution attempts before giving up.
pub const MAX_ATTEMPTS: u32 = 3;

/// App-supplied input/output buffers for one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayIo {
    /// One byte buffer per input slot (must match slot lengths).
    pub inputs: Vec<Vec<u8>>,
    /// Filled by the replayer, one per output slot.
    pub outputs: Vec<Vec<u8>>,
}

impl ReplayIo {
    /// Builds an IO block shaped for `rec` (inputs zeroed, outputs sized).
    pub fn for_recording(rec: &Recording) -> ReplayIo {
        ReplayIo {
            inputs: rec
                .inputs
                .iter()
                .map(|s| vec![0u8; s.len as usize])
                .collect(),
            outputs: rec
                .outputs
                .iter()
                .map(|s| vec![0u8; s.len as usize])
                .collect(),
        }
    }

    /// Sets input slot `slot` from f32 values.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Io`] when the slot does not exist or the
    /// sizes mismatch. A malformed request must never abort the caller —
    /// service workers feed these from untrusted submissions.
    pub fn set_input_f32(&mut self, slot: usize, vals: &[f32]) -> Result<(), ReplayError> {
        let buf = self
            .inputs
            .get_mut(slot)
            .ok_or_else(|| ReplayError::Io(format!("input slot {slot} does not exist")))?;
        if buf.len() != vals.len() * 4 {
            return Err(ReplayError::Io(format!(
                "input slot {slot} is {} bytes, {} given",
                buf.len(),
                vals.len() * 4
            )));
        }
        for (chunk, v) in buf.chunks_exact_mut(4).zip(vals) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// Reads output slot `slot` as f32 values.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Io`] when the slot does not exist or its
    /// byte length is not a whole number of f32s.
    pub fn output_f32(&self, slot: usize) -> Result<Vec<f32>, ReplayError> {
        let buf = self
            .outputs
            .get(slot)
            .ok_or_else(|| ReplayError::Io(format!("output slot {slot} does not exist")))?;
        if buf.len() % 4 != 0 {
            return Err(ReplayError::Io(format!(
                "output slot {slot} is {} bytes, not f32-shaped",
                buf.len()
            )));
        }
        Ok(buf
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect())
    }
}

/// Result of a successful replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Actions executed (last attempt).
    pub actions: usize,
    /// §5.4 re-execution attempts used beyond the first.
    pub retries: u32,
    /// Virtual time the replay took.
    pub wall: SimDuration,
    /// GPU jobs completed (WaitIrq successes).
    pub jobs: u32,
    /// Checkpoints taken.
    pub checkpoints: u32,
    /// Time from replay start until the first job wait began — the
    /// replayer-side startup (reset, dump loads, page-table rebuild).
    pub startup: SimDuration,
}

/// Result of a fault-isolated batched replay ([`Replayer::replay_batch_isolated`]).
///
/// Element-scoped failures (shape validation, §5.4 recovery exhausted on
/// one element's suffix) are attributed to the failing element in
/// `errors` instead of aborting the batch, so a scheduler that coalesced
/// independent requests can fail exactly the poisoned ticket and answer
/// the rest from the same warm run.
#[derive(Debug)]
pub struct IsolatedBatchReport {
    /// Aggregate batch report; `elements` counts every element, including
    /// failed ones (their outputs stay zeroed).
    pub report: BatchReport,
    /// Terminal per-element failures, sorted by element index. Empty when
    /// the whole batch succeeded.
    pub errors: Vec<(usize, ReplayError)>,
}

/// Result of a successful batched replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Inputs replayed.
    pub elements: usize,
    /// Prologue span length when amortized (0 when not amortized). When
    /// `prologue_skipped > 0`, only `prologue_actions - prologue_skipped`
    /// of these actually executed this batch — the rest were elided by
    /// cross-batch warm residency.
    pub prologue_actions: usize,
    /// Prologue actions elided because the previous batch's suffix access
    /// sets proved their effect still in place on this warm machine.
    pub prologue_skipped: usize,
    /// Dump bytes a *resident* batch re-uploaded to re-establish the
    /// post-prologue memory image: only the dump bytes the previous
    /// batch's suffix wrote after reading them first.
    /// Always 0 for a non-resident batch, which uploads everything via the
    /// full prologue instead.
    pub resident_reupload_bytes: u64,
    /// Actions executed per element.
    pub suffix_actions: usize,
    /// `true` when the prologue/suffix split applied; `false` means the
    /// recording's shape forced full per-element replays.
    pub amortized: bool,
    /// §5.4 re-executions across the whole batch.
    pub retries: u32,
    /// GPU jobs completed across the whole batch.
    pub jobs: u32,
    /// Virtual time the batch took.
    pub wall: SimDuration,
}

struct Loaded {
    rec: Recording,
    /// Load-time verifier facts: the warm-batch prologue/suffix split and
    /// whether the prologue's shape admits cross-batch residency (see
    /// `VerifyReport::residency_safe`).
    batch_split: Option<usize>,
    residency_safe: bool,
}

/// Cross-batch warm residency: what the previous successful warm batch of
/// `id` left behind. `epoch` is the GPU epoch right after that batch's
/// prologue work (GPU reset or AS switch bumps it, dropping residency —
/// the §5.4 re-warm path and any other replayer's batch on the same
/// machine included); `access` is the suffix's first-read/write sets.
/// Only the replayer and its GPU jobs write its frames, so `access`
/// names every byte that can have changed since the prologue. A batch
/// whose access log overflowed or that took checkpoints (which read
/// memory outside the log) leaves no residency.
#[derive(Debug, Clone)]
struct Residency {
    id: usize,
    epoch: u64,
    access: gr_gpu::AccessSnapshot,
}

struct Checkpoint {
    id: usize,
    action_idx: usize,
    jobs: u32,
    memory: Vec<(u64, Vec<u8>)>,
    reg_state: HashMap<u32, u32>,
}

/// The GPUReplay replayer.
pub struct Replayer {
    env: Environment,
    iface: NanoIface,
    nano: NanoDriver,
    loaded: Vec<Loaded>,
    lease: GpuLease,
    /// Take a checkpoint every N completed jobs (None = disabled; §5.3
    /// finds checkpointing generally inferior to re-execution).
    pub checkpoint_every_jobs: Option<u32>,
    /// Physical-page cap enforced at load time.
    pub max_pages: u64,
    reg_state: HashMap<u32, u32>,
    checkpoint: Option<Checkpoint>,
    residency: Option<Residency>,
    residency_enabled: bool,
}

impl std::fmt::Debug for Replayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer")
            .field("env", &self.env.kind())
            .field("recordings", &self.loaded.len())
            .finish()
    }
}

impl Replayer {
    /// Init: acquires the GPU in `env` (§5 API #1).
    ///
    /// # Panics
    ///
    /// Panics if the machine has too little memory for a page-table root.
    pub fn new(env: Environment) -> Replayer {
        let iface = NanoIface::for_family(env.machine().sku().family);
        let nano = NanoDriver::new(env.machine().clone(), iface)
            .expect("machine must have memory for page tables");
        Replayer {
            env,
            iface,
            nano,
            loaded: Vec::new(),
            lease: GpuLease::new(),
            checkpoint_every_jobs: None,
            max_pages: DEFAULT_MAX_PAGES,
            reg_state: HashMap::new(),
            checkpoint: None,
            residency: None,
            residency_enabled: true,
        }
    }

    /// Enables or disables cross-batch warm residency (on by default).
    /// Disabling also drops any residency already established —
    /// benchmarks use this to measure the per-batch-prologue baseline.
    pub fn set_residency(&mut self, on: bool) {
        self.residency_enabled = on;
        if !on {
            self.residency = None;
        }
    }

    /// The lease the OS/arbiter uses to preempt this replayer.
    pub fn lease(&self) -> GpuLease {
        self.lease.clone()
    }

    /// The environment.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// A loaded recording.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn recording(&self, id: usize) -> &Recording {
        &self.loaded[id].rec
    }

    /// Load (§5 API #2) from serialized bytes: integrity check, static
    /// verification, charging storage/decompress costs.
    ///
    /// # Errors
    ///
    /// Propagates container and verifier rejections.
    pub fn load_bytes(&mut self, bytes: &[u8]) -> Result<usize, ReplayError> {
        let machine = self.env.machine().clone();
        machine.advance(costs::xfer(bytes.len() as u64, costs::STORAGE_BW));
        let rec = Recording::from_bytes(bytes)?;
        machine.advance(costs::xfer(rec.dump_bytes() as u64, costs::DECOMPRESS_BW));
        self.load(rec)
    }

    /// Load from an in-memory recording (cost of verification only).
    ///
    /// # Errors
    ///
    /// Propagates verifier rejections.
    pub fn load(&mut self, rec: Recording) -> Result<usize, ReplayError> {
        let report = verify::verify(&rec, self.iface, self.max_pages)?;
        self.env
            .machine()
            .advance(costs::VERIFY_PER_ACTION * report.actions as u64);
        self.loaded.push(Loaded {
            rec,
            batch_split: report.batch_split,
            residency_safe: report.residency_safe,
        });
        Ok(self.loaded.len() - 1)
    }

    /// Replay (§5 API #3): executes the recording with `io`, recovering
    /// from transient failures by re-execution with injected delays.
    ///
    /// # Errors
    ///
    /// Returns the terminal error when recovery is exhausted, the replay
    /// is preempted, or I/O does not match.
    pub fn replay(&mut self, id: usize, io: &mut ReplayIo) -> Result<ReplayReport, ReplayError> {
        self.validate_io(id, io)?;
        // A full replay rewrites machine state outside the residency
        // bookkeeping: drop any warm anchor rather than reason about it.
        self.residency = None;
        self.reset_outputs(id, io);

        let machine = self.env.machine().clone();
        machine.advance(self.env.replay_entry_cost());
        let t0 = machine.now();
        let end = self.loaded[id].rec.actions.len();
        let mut retries = 0u32;
        let (jobs, checkpoints, startup) =
            self.run_recovering(id, io, 0, end, costs::ACTION_DISPATCH, &mut retries)?;
        Ok(ReplayReport {
            actions: end,
            retries,
            wall: machine.now() - t0,
            jobs,
            checkpoints,
            startup,
        })
    }

    /// Replays recording `id` for a whole batch of inputs on the warm
    /// machine, running the input-independent prologue (reset sequence,
    /// dump uploads, idempotent remaps, register bring-up) **once** and
    /// only the per-input suffix (input `CopyToGpu`, job kicks, output
    /// readback) per element.
    ///
    /// Falls back to full per-element replay when the recording's shape
    /// does not admit the split (see `VerifyReport::batch_split`); either
    /// way every element's outputs are bit-identical to a fresh sequential
    /// [`Replayer::replay`] of the same inputs.
    ///
    /// §5.4 recovery applies per element: a transient failure resets the
    /// GPU, rebuilds the page tables, re-runs the prologue to restore the
    /// warm state, and retries only the failing element — elements already
    /// replayed keep their extracted outputs.
    ///
    /// This is [`Replayer::replay_batch_isolated`] with the first element
    /// failure promoted to the call's error.
    ///
    /// # Errors
    ///
    /// Returns the batch-scoped error, or else the lowest-indexed element's
    /// terminal error; every other element's outputs are already written
    /// to its `ReplayIo`.
    pub fn replay_batch(
        &mut self,
        id: usize,
        ios: &mut [ReplayIo],
    ) -> Result<BatchReport, ReplayError> {
        let run = self.replay_batch_isolated(id, ios)?;
        match run.errors.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(run.report),
        }
    }

    /// Like [`Replayer::replay_batch`], but element failures are isolated:
    /// a shape-invalid element or one whose §5.4 recovery is exhausted is
    /// recorded in [`IsolatedBatchReport::errors`] and the machine is
    /// re-warmed (reset, table rebuild, prologue re-run) before the next
    /// element, so batchmates coalesced from independent requests keep
    /// their bit-exact outputs.
    ///
    /// # Errors
    ///
    /// Only batch-scoped failures return `Err`: empty batch, unknown
    /// recording id, terminal prologue/re-warm failure, preemption, or a
    /// warm-state invariant violation.
    pub fn replay_batch_isolated(
        &mut self,
        id: usize,
        ios: &mut [ReplayIo],
    ) -> Result<IsolatedBatchReport, ReplayError> {
        if ios.is_empty() {
            return Err(ReplayError::Io("empty batch".into()));
        }
        if self.loaded.get(id).is_none() {
            return Err(ReplayError::BadRecording(id));
        }
        let mut errors: Vec<(usize, ReplayError)> = Vec::new();
        let mut runnable = Vec::with_capacity(ios.len());
        for (k, io) in ios.iter_mut().enumerate() {
            match self.validate_io(id, io) {
                Ok(()) => runnable.push(k),
                Err(e) => {
                    // A failed element must hand back zeroed outputs, not
                    // whatever the caller's buffers held.
                    self.reset_outputs(id, io);
                    errors.push((k, e));
                }
            }
        }
        let mut report = BatchReport {
            elements: ios.len(),
            prologue_actions: 0,
            prologue_skipped: 0,
            resident_reupload_bytes: 0,
            suffix_actions: 0,
            amortized: false,
            retries: 0,
            jobs: 0,
            wall: SimDuration::ZERO,
        };
        let Some(&first) = runnable.first() else {
            // Nothing runnable: answer without touching the machine.
            return Ok(IsolatedBatchReport { report, errors });
        };
        let machine = self.env.machine().clone();
        let t0 = machine.now();
        let end = self.loaded[id].rec.actions.len();

        let Some(split) = self.loaded[id].batch_split else {
            // Shape does not admit amortization: full replay per element.
            // The inner replay() calls rewrite machine state freely, so
            // any warm anchor is stale afterwards.
            self.residency = None;
            for &k in &runnable {
                match self.replay(id, &mut ios[k]) {
                    Ok(r) => {
                        report.jobs += r.jobs;
                        report.retries += r.retries;
                    }
                    Err(e @ ReplayError::Preempted { .. }) => return Err(e),
                    Err(e) => {
                        errors.push((k, e));
                        // Discard the failed attempt's partial writes.
                        self.reset_outputs(id, &mut ios[k]);
                    }
                }
            }
            errors.sort_by_key(|(k, _)| *k);
            report.suffix_actions = end;
            report.wall = machine.now() - t0;
            return Ok(IsolatedBatchReport { report, errors });
        };

        // `wall` covers the entry cost too, matching the fallback path
        // (which pays one entry per inner replay()).
        machine.advance(self.env.replay_entry_cost());
        report.amortized = true;
        report.prologue_actions = split;
        report.suffix_actions = end - split;

        // Cross-batch warm residency: when the previous successful warm
        // batch was this same recording and nothing reset the GPU since,
        // elide the prologue and restore only what that batch's suffix
        // changed and reads. Taking the anchor here means any error
        // return below leaves residency dropped — only a batch that reaches
        // its end re-arms it.
        if let Some(res) = self.valid_residency(id) {
            (report.prologue_skipped, report.resident_reupload_bytes) =
                self.run_prologue_resident(id, split, &res)?;
        } else {
            // Prologue, once (it contains no Copy actions, so any io works).
            let cold = costs::ACTION_DISPATCH;
            self.run_recovering(id, &mut ios[first], 0, split, cold, &mut report.retries)?;
            // Resolve the per-input suffix once: the bounds and payload
            // checks paid here are what lets every warm re-run charge only
            // ACTION_DISPATCH_WARM per action. A resident batch reuses the
            // previous batch's resolution — same recording, same warm
            // machine — and pays nothing here.
            machine.advance(
                (costs::ACTION_DISPATCH - costs::ACTION_DISPATCH_WARM) * (end - split) as u64,
            );
        }
        // New residency anchor: the post-prologue image. A mid-batch §5.4
        // reset bumps the epoch and invalidates it. The GPU access log,
        // armed for the suffix, records every byte the suffix writes and
        // reads; the next batch restores from those sets (see
        // `gr_gpu::access`).
        let epoch = machine.mem().gpu_epoch();
        machine.gpu_access().arm();
        // Warm-state invariant: the suffix must never grow or shrink the
        // mapped set (the verifier guarantees no map/unmap actions, this
        // guards the nano driver itself).
        let warm_pages = self.nano.phys_pages();

        for (pos, &k) in runnable.iter().enumerate() {
            let io = &mut ios[k];
            self.reset_outputs(id, io);
            let dispatch = costs::ACTION_DISPATCH_WARM;
            match self.run_recovering(id, io, split, end, dispatch, &mut report.retries) {
                Ok((jobs, _, _)) => report.jobs += jobs,
                // Preemption revokes the whole replayer, never one element.
                Err(e @ ReplayError::Preempted { .. }) => return Err(e),
                Err(e) => {
                    errors.push((k, e));
                    // Discard the failed attempts' partial writes.
                    self.reset_outputs(id, io);
                    if pos + 1 < runnable.len() {
                        // The failed suffix may have left the machine
                        // dirty: re-warm before the next element (the
                        // same reset + remap + prologue §5.4 recovery
                        // performs). A terminal re-warm failure is
                        // batch-scoped.
                        self.iface.soft_reset(&machine)?;
                        self.nano.remap_all();
                        let cold = costs::ACTION_DISPATCH;
                        self.run_recovering(id, io, 0, split, cold, &mut report.retries)?;
                    }
                    continue;
                }
            }
            if self.nano.phys_pages() != warm_pages {
                return Err(ReplayError::Verify(
                    "batch suffix mutated the warm address space".into(),
                ));
            }
        }
        errors.sort_by_key(|(k, _)| *k);
        // Checkpoints read and restore mapped memory outside the logged
        // paths: no sets, no residency.
        if self.checkpoint_every_jobs.is_none() {
            let access = machine.gpu_access().snapshot();
            self.residency = access.map(|access| Residency { id, epoch, access });
        }
        report.wall = machine.now() - t0;
        Ok(IsolatedBatchReport { report, errors })
    }

    /// Takes the stored residency if it is still valid for recording `id`:
    /// residency enabled, same recording, and the GPU epoch
    /// unchanged (no GPU reset or address-space switch since the anchor
    /// was taken — including §5.4 re-warms, which reset). Taking it means
    /// an invalid or consumed anchor never survives an error path.
    fn valid_residency(&mut self, id: usize) -> Option<Residency> {
        let res = self.residency.take()?;
        if !self.residency_enabled || res.id != id || !self.loaded[id].residency_safe {
            return None;
        }
        if self.env.machine().mem().gpu_epoch() != res.epoch {
            return None;
        }
        Some(res)
    }

    /// Runs the prologue `[0, split)` in resident mode: registers, maps,
    /// and the table-base switch are warm — the suffix cannot touch them,
    /// exactly the inter-element invariant warm batches already rely on;
    /// `residency_safe` guarantees no prologue action after the first
    /// upload could observe memory. Each `Upload` restores exactly the
    /// bytes of its dump the previous suffix wrote after first reading
    /// them; every other dump byte either still holds its post-prologue
    /// value (unwritten) or is overwritten before anything observes it.
    /// Bytes a later prologue upload covers are skipped too. Uploads with
    /// nothing to restore, and all other prologue actions, are elided.
    ///
    /// Returns `(fully_elided_actions, re_uploaded_bytes)`.
    fn run_prologue_resident(
        &mut self,
        id: usize,
        split: usize,
        res: &Residency,
    ) -> Result<(usize, u64), ReplayError> {
        use gr_gpu::IntervalSet;

        let machine = self.env.machine().clone();
        let acc = &res.access;
        // Plan every upload in one reverse pass, then apply. `cover` is
        // the union of the uploads after the current one: `residency_safe`
        // guarantees nothing but uploads follow the first upload, so a
        // byte a later upload covers is either rewritten by that upload's
        // plan or already holds its final bytes. (The v3d recorder
        // re-dumps its control-list page per job: 8 overlapping
        // single-page uploads collapse to 1.)
        let rec = &self.loaded[id].rec;
        let mut cover = IntervalSet::new();
        let mut plans: Vec<(usize, u32, IntervalSet)> = Vec::new();
        for (idx, ta) in rec.actions[..split].iter().enumerate().rev() {
            let Action::Upload { dump_idx } = ta.action else {
                continue;
            };
            let dump = &rec.dumps[dump_idx as usize];
            let (dva, dend) = (dump.va, dump.va + dump.bytes.len() as u64);
            let mut restore = IntervalSet::new();
            for (fs, fe) in acc.first_reads.clip(dva, dend) {
                for (ws, we) in acc.written.clip(fs, fe) {
                    for (rs, re) in cover.subtract_from(ws, we) {
                        restore.insert(rs, re);
                    }
                }
            }
            cover.insert(dva, dend);
            if !restore.is_empty() {
                plans.push((idx, dump_idx, restore));
            }
        }
        // Apply in action order: re-upload what changed; every other
        // prologue action is elided at ACTION_RESIDENT_SKIP.
        let skipped = split - plans.len();
        machine.advance(costs::ACTION_RESIDENT_SKIP * skipped as u64);
        let overhead = self.env.action_overhead();
        let mut reuploaded = 0u64;
        for (idx, dump_idx, restore) in plans.into_iter().rev() {
            if !self.lease.is_granted() {
                return Err(ReplayError::Preempted { index: idx });
            }
            machine.advance(overhead + costs::ACTION_DISPATCH);
            let dump = &self.loaded[id].rec.dumps[dump_idx as usize];
            let total: u64 = restore.intervals().iter().map(|(s, e)| e - s).sum();
            reuploaded += total;
            machine.advance(costs::xfer(total, costs::UPLOAD_BW));
            for &(s, e) in restore.intervals() {
                let start = (s - dump.va) as usize;
                self.nano
                    .write_va(s, &dump.bytes[start..start + (e - s) as usize])?;
            }
        }
        Ok((skipped, reuploaded))
    }

    /// Runs `[start, end)` at `dispatch` per action under §5.4 recovery:
    /// on a recoverable error it soft-resets the GPU, rebuilds the page
    /// tables, re-runs `[0, start)` cold and retries `[start, end)`, with
    /// delays and timeouts doubled per attempt, up to [`MAX_ATTEMPTS`].
    /// Retries are added to `retries`; returns the last span's
    /// `(jobs, checkpoints, startup)`.
    fn run_recovering(
        &mut self,
        id: usize,
        io: &mut ReplayIo,
        start: usize,
        end: usize,
        dispatch: SimDuration,
        retries: &mut u32,
    ) -> Result<(u32, u32, SimDuration), ReplayError> {
        let machine = self.env.machine().clone();
        let mut attempt = 0u32;
        loop {
            let scale = 1u64 << attempt;
            // The first attempt runs on the warm state the caller set up;
            // a retry runs on a freshly reset GPU and rebuilds it first.
            let rewarm_from = if attempt == 0 { start } else { 0 };
            let res = self
                .run_span(id, io, scale, rewarm_from, start, 0, costs::ACTION_DISPATCH)
                .and_then(|_| self.run_span(id, io, scale, start, end, 0, dispatch));
            match res {
                Ok(done) => return Ok(done),
                Err(e) if e.is_recoverable() && attempt + 1 < MAX_ATTEMPTS => {
                    attempt += 1;
                    *retries += 1;
                    self.iface.soft_reset(&machine)?;
                    self.nano.remap_all();
                }
                Err(e) if e.is_recoverable() => {
                    return Err(ReplayError::RecoveryFailed {
                        attempts: attempt + 1,
                        last: Box::new(e),
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Checks `io`'s shape against recording `id` without touching the GPU.
    fn validate_io(&self, id: usize, io: &ReplayIo) -> Result<(), ReplayError> {
        let Some(loaded) = self.loaded.get(id) else {
            return Err(ReplayError::BadRecording(id));
        };
        if io.inputs.len() != loaded.rec.inputs.len() {
            return Err(ReplayError::Io(format!(
                "recording takes {} inputs, {} given",
                loaded.rec.inputs.len(),
                io.inputs.len()
            )));
        }
        for (i, (buf, slot)) in io.inputs.iter().zip(&loaded.rec.inputs).enumerate() {
            if buf.len() != slot.len as usize {
                return Err(ReplayError::Io(format!(
                    "input {i} is {} bytes, slot wants {}",
                    buf.len(),
                    slot.len
                )));
            }
        }
        Ok(())
    }

    fn reset_outputs(&self, id: usize, io: &mut ReplayIo) {
        io.outputs = self.loaded[id]
            .rec
            .outputs
            .iter()
            .map(|s| vec![0u8; s.len as usize])
            .collect();
    }

    /// Resumes a preempted replay of recording `id` from the most recent
    /// checkpoint, which must have been taken while replaying `id`.
    ///
    /// # Errors
    ///
    /// Propagates replay errors; `BadRecording` for an unknown id, `Io`
    /// when `io` does not fit the recording's slots, `Verify` when no
    /// checkpoint of `id` exists.
    pub fn resume(&mut self, id: usize, io: &mut ReplayIo) -> Result<ReplayReport, ReplayError> {
        self.validate_io(id, io)?;
        let slots = self.loaded[id].rec.outputs.iter().map(|s| s.len as usize);
        if !io.outputs.iter().map(Vec::len).eq(slots) {
            return Err(ReplayError::Io("outputs do not fit the recording".into()));
        }
        let Some(cp) = self.checkpoint.as_ref().filter(|cp| cp.id == id) else {
            return Err(ReplayError::Verify(format!(
                "no checkpoint of recording {id}"
            )));
        };
        self.residency = None;
        let machine = self.env.machine().clone();
        let t0 = machine.now();
        // Restore: reset, re-point tables, restore registers and memory.
        self.iface.soft_reset(&machine)?;
        self.nano.remap_all();
        self.nano.set_pgtable_base();
        let mut regs: Vec<(u32, u32)> = cp.reg_state.iter().map(|(r, v)| (*r, *v)).collect();
        regs.sort_unstable();
        for (reg, val) in regs {
            if !self.iface.is_kick_reg(reg) {
                machine.gpu_write32(reg, val);
            }
        }
        let total = cp.memory.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        machine.advance(costs::xfer(total, costs::UPLOAD_BW));
        for (va, bytes) in &cp.memory {
            self.nano.write_va(*va, bytes)?;
        }
        let (start, jobs0) = (cp.action_idx, cp.jobs);
        let end = self.loaded[id].rec.actions.len();
        let (jobs, checkpoints, startup) =
            self.run_span(id, io, 1, start, end, jobs0, costs::ACTION_DISPATCH)?;
        Ok(ReplayReport {
            actions: end - start,
            retries: 0,
            wall: machine.now() - t0,
            jobs,
            checkpoints,
            startup,
        })
    }

    /// Interprets actions `[start, end)` of recording `id`, charging
    /// `dispatch` per action ([`costs::ACTION_DISPATCH`] for cold
    /// interpretation, [`costs::ACTION_DISPATCH_WARM`] for a batch suffix
    /// that was resolved once at batch start).
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn run_span(
        &mut self,
        id: usize,
        io: &mut ReplayIo,
        delay_scale: u64,
        start: usize,
        end: usize,
        jobs0: u32,
        dispatch: SimDuration,
    ) -> Result<(u32, u32, SimDuration), ReplayError> {
        let machine = self.env.machine().clone();
        let overhead = self.env.action_overhead();
        let irq_overhead = self.env.irq_wait_overhead();
        let mut jobs = jobs0;
        let mut checkpoints = 0u32;
        let mut prev_at: Option<SimTime> = None;
        let run_start = machine.now();
        let mut startup: Option<SimDuration> = None;

        for idx in start..end {
            if !self.lease.is_granted() {
                return Err(ReplayError::Preempted { index: idx });
            }
            let rec = &self.loaded[id].rec;
            let ta = &rec.actions[idx];
            // §4.5 pacing: keep at least the recorded minimum interval
            // (scaled up on recovery attempts, §5.4).
            if ta.min_interval_ns > 0 {
                if let Some(p) = prev_at {
                    machine
                        .clock()
                        .advance_to(p + SimDuration::from_nanos(ta.min_interval_ns * delay_scale));
                }
            }
            machine.advance(overhead + dispatch);

            let action = ta.action.clone();
            match action {
                Action::RegReadOnce {
                    reg,
                    expect,
                    ignore,
                } => {
                    let got = machine.gpu_read32(reg);
                    if !ignore && got != expect {
                        return Err(ReplayError::Diverged {
                            index: idx,
                            reg,
                            reg_name: self.iface.reg_name(reg),
                            expect,
                            got,
                        });
                    }
                }
                Action::RegReadWait {
                    reg,
                    mask,
                    val,
                    timeout_ns,
                } => {
                    let timeout = SimDuration::from_nanos(timeout_ns * delay_scale);
                    let (got, _) =
                        machine.poll_reg(reg, mask, val, SimDuration::from_micros(2), timeout);
                    if got & mask != val {
                        return Err(ReplayError::PollTimeout {
                            index: idx,
                            reg,
                            reg_name: self.iface.reg_name(reg),
                        });
                    }
                }
                Action::RegWrite { reg, mask, val } => {
                    if mask == u32::MAX {
                        machine.gpu_write32(reg, val);
                        self.reg_state.insert(reg, val);
                    } else {
                        let old = machine.gpu_read32(reg);
                        let new = (old & !mask) | (val & mask);
                        machine.gpu_write32(reg, new);
                        self.reg_state.insert(reg, new);
                    }
                }
                Action::SetGpuPgtable => self.nano.set_pgtable_base(),
                Action::MapGpuMem { va, pte_flags } => self.nano.map(va, &pte_flags)?,
                Action::UnmapGpuMem { va } => self.nano.unmap(va)?,
                Action::Upload { dump_idx } => {
                    let rec = &self.loaded[id].rec;
                    let dump = &rec.dumps[dump_idx as usize];
                    machine
                        .gpu_access()
                        .note_write(dump.va, dump.bytes.len() as u64);
                    machine.advance(costs::xfer(dump.bytes.len() as u64, costs::UPLOAD_BW));
                    self.nano.write_va(dump.va, &dump.bytes)?;
                }
                Action::CopyToGpu { slot } => {
                    let rec = &self.loaded[id].rec;
                    let va = rec.inputs[slot as usize].va;
                    machine
                        .gpu_access()
                        .note_write(va, io.inputs[slot as usize].len() as u64);
                    machine.advance(costs::xfer(
                        io.inputs[slot as usize].len() as u64,
                        costs::UPLOAD_BW,
                    ));
                    self.nano.write_va(va, &io.inputs[slot as usize])?;
                }
                Action::CopyFromGpu { slot } => {
                    let rec = &self.loaded[id].rec;
                    let va = rec.outputs[slot as usize].va;
                    machine
                        .gpu_access()
                        .note_read(va, rec.outputs[slot as usize].len as u64);
                    let mut buf = std::mem::take(&mut io.outputs[slot as usize]);
                    machine.advance(costs::xfer(buf.len() as u64, costs::UPLOAD_BW));
                    self.nano.read_va(va, &mut buf)?;
                    io.outputs[slot as usize] = buf;
                }
                Action::WaitIrq { line, timeout_ns } => {
                    startup.get_or_insert_with(|| machine.now() - run_start);
                    machine.advance(irq_overhead);
                    let timeout = SimDuration::from_nanos(timeout_ns * delay_scale);
                    match machine.wait_irq(IrqLine(line), timeout) {
                        WaitOutcome::Irq => {
                            jobs += 1;
                            if let Some(every) = self.checkpoint_every_jobs {
                                if jobs % every == 0 {
                                    self.take_checkpoint(id, idx + 1, jobs);
                                    checkpoints += 1;
                                }
                            }
                        }
                        WaitOutcome::Timeout => {
                            return Err(ReplayError::IrqTimeout { index: idx, line })
                        }
                    }
                }
                Action::IrqContext { .. } => {
                    machine.advance(costs::IRQ_CTX_SWITCH);
                }
            }
            prev_at = Some(machine.now());
        }
        let startup = startup.unwrap_or_else(|| machine.now() - run_start);
        Ok((jobs, checkpoints, startup))
    }

    fn take_checkpoint(&mut self, id: usize, action_idx: usize, jobs: u32) {
        let machine = self.env.machine().clone();
        let memory = self.nano.snapshot_memory();
        let total: u64 = memory.iter().map(|(_, b)| b.len() as u64).sum();
        machine.advance(costs::xfer(total, costs::CHECKPOINT_BW));
        self.checkpoint = Some(Checkpoint {
            id,
            action_idx,
            jobs,
            memory,
            reg_state: self.reg_state.clone(),
        });
    }

    /// Cleanup (§5 API #1): resets the GPU and releases all memory.
    pub fn cleanup(self) {
        let _ = self.iface.soft_reset(self.env.machine());
        self.nano.release();
    }
}
