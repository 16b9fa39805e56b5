//! The three workloads and the side probe. Each loop times its ops with
//! the host wall clock; with tracing on, every other op also times each
//! call into a layer's public functions (the rest run untraced, so the
//! two halves give the tracing overhead under the same conditions).

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gr_gpu::Machine;
use gr_recording::Recording;
use gr_replayer::replayer::DEFAULT_MAX_PAGES;
use gr_replayer::{verify, Environment, NanoIface, ReplayError, ReplayIo, Replayer};
use gr_service::{ReplayRequest, ReplayService, ServiceError, ShardSpec, ShardStats};
use gr_sim::SimRng;

use crate::model::{Model, POOL};
use crate::stats::{self, TicketTimes};

/// Offered load of `serve`, requests per second. At 150/s the one worker
/// ran near saturation whenever the 2-core host was contended, and the
/// latency of whole runs jumped fivefold; 100/s stays clear of that knee.
pub const SERVE_RATE: f64 = 100.0;
/// Generator lag (p99, ms) above which a `serve` run is flagged as not
/// having kept its arrival schedule.
pub const LAG_LIMIT_MS: f64 = 5.0;

/// Per-layer values a run produced, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall-clock spans around layer calls, kept in memory for the run.
#[derive(Default)]
pub struct Spans {
    calls: BTreeMap<&'static str, Vec<f64>>,
    op_covered: f64,
    op_total: f64,
    covered_total: f64,
}

impl Spans {
    /// Times `f` as one call into `layer`; the call counts as covered
    /// time of the current op.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ms = ms_since(t);
        self.op_covered += ms;
        self.note(layer, ms);
        out
    }

    /// Records a value under `layer` without counting it as op time.
    fn note(&mut self, layer: &'static str, value: f64) {
        self.calls.entry(layer).or_default().push(value);
    }

    /// Closes the current op, which took `op_ms` of wall time.
    fn end_op(&mut self, op_ms: f64) {
        self.op_total += op_ms;
        self.covered_total += self.op_covered.min(op_ms);
        self.op_covered = 0.0;
    }

    fn median(&self, layer: &str) -> f64 {
        let v = self
            .calls
            .get(layer)
            .unwrap_or_else(|| panic!("no spans recorded for {layer}"));
        stats::median(v)
    }
}

fn time<T>(spans: &mut Option<&mut Spans>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(layer, f),
        None => f(),
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    /// Wall latency of every correct op, ms.
    pub latencies: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correct ops answered within the workload's latency limit.
    pub within_slo: u64,
    /// Wall seconds the measured phase took.
    pub window_s: f64,
    /// Per-layer values, filled when the run was traced.
    pub layers: Layers,
    /// Set when the generator fell behind its arrival schedule.
    pub lagging: bool,
}

impl Run {
    fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn ok_frac(&self) -> f64 {
        self.ok() as f64 / self.attempted as f64
    }

    pub fn throughput(&self) -> f64 {
        self.ok() as f64 / self.window_s
    }
}

/// Closed-loop bookkeeping shared by `cold_start` and `steady_infer`:
/// alternates traced and untraced ops when tracing and fills the
/// generic per-layer values.
struct ClosedLoop {
    run: Run,
    spans: Spans,
    traced_lat: Vec<f64>,
    untraced_lat: Vec<f64>,
    jobs: Vec<f64>,
    retries: u64,
    slo_ms: f64,
}

impl ClosedLoop {
    fn new(slo_ms: f64) -> ClosedLoop {
        ClosedLoop {
            run: Run::default(),
            spans: Spans::default(),
            traced_lat: Vec::new(),
            untraced_lat: Vec::new(),
            jobs: Vec::new(),
            retries: 0,
            slo_ms,
        }
    }

    /// Runs `op(i, spans)` until `secs` have passed. `op` returns the
    /// op's GPU jobs and §5.4 retries, or the error that failed it.
    fn drive(
        mut self,
        secs: f64,
        trace: bool,
        mut op: impl FnMut(usize, Option<&mut Spans>) -> Result<(u64, u32), ReplayError>,
    ) -> (Run, Spans) {
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed().as_secs_f64() < secs {
            let traced = trace && i % 2 == 0;
            let t = Instant::now();
            let res = op(i, traced.then_some(&mut self.spans));
            let lat = ms_since(t);
            self.run.attempted += 1;
            match res {
                Ok((jobs, retries)) => {
                    self.run.latencies.push(lat);
                    if lat <= self.slo_ms {
                        self.run.within_slo += 1;
                    }
                    self.jobs.push(jobs as f64);
                    self.retries += u64::from(retries);
                }
                Err(e) => {
                    eprintln!("perfbench: op {i} failed: {e}");
                    self.run.failed += 1;
                }
            }
            if traced {
                self.spans.end_op(lat);
                self.traced_lat.push(lat);
            } else {
                self.untraced_lat.push(lat);
            }
            i += 1;
        }
        self.run.window_s = start.elapsed().as_secs_f64();
        if trace {
            let l = &mut self.run.layers;
            l.insert(
                "unattributed_frac",
                stats::unattributed_frac(self.spans.op_total, self.spans.covered_total),
            );
            l.insert(
                "trace_overhead_frac",
                stats::median(&self.traced_lat) / stats::median(&self.untraced_lat) - 1.0,
            );
            l.insert("gpu.jobs", stats::median(&self.jobs));
            l.insert("replayer.retries", self.retries as f64);
        }
        (self.run, self.spans)
    }
}

/// Latency limit of a `cold_start` op: replayer start-up budget.
pub const COLD_SLO_MS: f64 = 250.0;
/// Latency limit of one inference (`steady_infer`, `serve`).
pub const INFER_SLO_MS: f64 = 25.0;

/// `cold_start`: per op, a fresh machine, environment and replayer, one
/// `load_bytes`, one replay, a bit-exact check and `cleanup`.
pub fn cold_start(model: &Model, seed: u64, secs: f64, trace: bool) -> Run {
    let mut picks = SimRng::seed_from(seed).fork("cold-inputs");
    // Decoded once for the verify probe, which runs outside op windows.
    let probe_rec = Recording::from_bytes(&model.blob).expect("recording decodes");
    let iface = NanoIface::for_family(model.sku.family);
    let mut virt_startup = Vec::new();
    let mut verify_actions = 0usize;
    let (mut run, mut spans) = ClosedLoop::new(COLD_SLO_MS).drive(secs, trace, |i, mut spans| {
        let k = picks.range_u64(0, POOL as u64) as usize;
        let machine = time(&mut spans, "gpu.machine_new", || {
            Machine::new(model.sku, seed.wrapping_add(i as u64))
        });
        let v0 = machine.now();
        let mut replayer = time(&mut spans, "replayer.init", || {
            Environment::new(model.env, machine.clone()).map(Replayer::new)
        })?;
        let id = match spans.as_deref_mut() {
            None => replayer.load_bytes(&model.blob)?,
            Some(s) => {
                let rec = s.time("recording.decode", || Recording::from_bytes(&model.blob))?;
                s.time("replayer.load", || replayer.load(rec))?
            }
        };
        let v_loaded = machine.now() - v0;
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &model.inputs[k])?;
        let jobs0 = machine.gpu_jobs_completed();
        let report = time(&mut spans, "replayer.first_replay", || {
            replayer.replay(id, &mut io)
        })?;
        let jobs = machine.gpu_jobs_completed() - jobs0;
        model.check(k, &io);
        time(&mut spans, "replayer.cleanup", || replayer.cleanup());
        if spans.is_none() {
            // Virtual numbers come from the untraced path, which charges
            // the modelled storage and decompress costs of `load_bytes`.
            virt_startup.push((v_loaded + report.startup).as_nanos() as f64 / 1e6);
        }
        Ok((jobs, report.retries))
    });
    if trace {
        // The verify probe: the same checks `load` runs, timed alone, once
        // per traced op so stage time can be split from verify time.
        for _ in 0..spans.calls["replayer.load"].len() {
            let t = Instant::now();
            let report = verify::verify(&probe_rec, iface, DEFAULT_MAX_PAGES).expect("verifies");
            spans.note("verify", ms_since(t));
            verify_actions = report.actions;
        }
        let decode_ms = spans.median("recording.decode");
        let verify_ms = spans.median("verify");
        let l = &mut run.layers;
        l.insert("recording.decode_ms", decode_ms);
        l.insert(
            "recording.decode_mb_s",
            model.blob.len() as f64 / 1e6 / (decode_ms / 1e3),
        );
        l.insert("recording.zip_kb", model.blob.len() as f64 / 1024.0);
        l.insert("recording.raw_kb", model.raw_bytes as f64 / 1024.0);
        l.insert("verify.ms", verify_ms);
        l.insert("verify.actions", verify_actions as f64);
        l.insert("gpu.machine_new_ms", spans.median("gpu.machine_new"));
        l.insert("replayer.init_ms", spans.median("replayer.init"));
        l.insert(
            "replayer.stage_ms",
            spans.median("replayer.load") - verify_ms,
        );
        l.insert(
            "replayer.first_replay_ms",
            spans.median("replayer.first_replay"),
        );
        l.insert("replayer.cleanup_ms", spans.median("replayer.cleanup"));
        l.insert("replayer.virt_startup_ms", stats::median(&virt_startup));
    }
    run
}

/// A warm replayer with the model loaded, for `steady_infer`.
pub struct Warm {
    replayer: Replayer,
    machine: Machine,
    id: usize,
    io: ReplayIo,
}

impl Warm {
    /// Builds the replayer, loads the model and runs one checked replay
    /// so lazy state is in place before the first measured op.
    pub fn new(model: &Model, seed: u64) -> Warm {
        let machine = Machine::new(model.sku, seed);
        let env = Environment::new(model.env, machine.clone()).expect("environment");
        let mut replayer = Replayer::new(env);
        let id = replayer.load_bytes(&model.blob).expect("load");
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &model.inputs[0]).expect("input shape");
        replayer.replay(id, &mut io).expect("warm-up replay");
        model.check(0, &io);
        Warm {
            replayer,
            machine,
            id,
            io,
        }
    }
}

/// `steady_infer`: one `Replayer::replay` per op on a warm replayer.
pub fn steady_infer(model: &Model, warm: &mut Warm, seed: u64, secs: f64, trace: bool) -> Run {
    let mut picks = SimRng::seed_from(seed).fork("steady-inputs");
    let mut virt_replay = Vec::new();
    let Warm {
        replayer,
        machine,
        id,
        io,
    } = warm;
    let (mut run, spans) = ClosedLoop::new(INFER_SLO_MS).drive(secs, trace, |_, mut spans| {
        let k = picks.range_u64(0, POOL as u64) as usize;
        io.set_input_f32(0, &model.inputs[k])?;
        let jobs0 = machine.gpu_jobs_completed();
        let traced = spans.is_some();
        let report = time(&mut spans, "replayer.replay", || replayer.replay(*id, io))?;
        let jobs = machine.gpu_jobs_completed() - jobs0;
        model.check(k, io);
        if !traced {
            virt_replay.push(report.wall.as_nanos() as f64 / 1e6);
        }
        Ok((jobs, report.retries))
    });
    if trace {
        let replay_ms = spans.median("replayer.replay");
        let virt_ms = stats::median(&virt_replay);
        let l = &mut run.layers;
        l.insert("replayer.replay_ms", replay_ms);
        l.insert("replayer.virt_replay_ms", virt_ms);
        l.insert("replayer.wall_per_virt", replay_ms / virt_ms);
    }
    run
}

/// A one-shard service with the model, for `serve`.
pub struct Serving {
    service: ReplayService,
    /// Decoded copy of the model's recording, for I/O shapes.
    rec: Recording,
}

impl Serving {
    /// Spawns the service with `ShardSpec` defaults and answers two
    /// checked requests so the worker is warm and residency armed.
    pub fn new(model: &Model, seed: u64) -> Serving {
        let service = ReplayService::builder()
            .shard(ShardSpec::new(model.sku, model.env, vec![model.blob.clone()]).seed(seed))
            .spawn()
            .expect("spawn service");
        let rec = Recording::from_bytes(&model.blob).expect("recording decodes");
        for k in 0..2 {
            let mut io = ReplayIo::for_recording(&rec);
            io.set_input_f32(0, &model.inputs[k]).expect("input shape");
            let outcome = service
                .run(model.sku.name, 0, vec![io])
                .expect("warm-up request");
            model.check(k, &outcome.ios[0]);
        }
        Serving { service, rec }
    }

    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

/// A request handed from the submitting thread to the waiting thread.
struct Sent {
    k: usize,
    due: f64,
    submitted: f64,
    ticket: gr_service::Ticket,
}

/// What the waiting thread saw for one admitted request.
struct Answer {
    due: f64,
    times: TicketTimes,
    /// `(prologue_actions, prologue_skipped, resident_reupload_bytes)` of
    /// the batch the request rode.
    prologue: Option<(usize, usize, u64)>,
}

fn shard_stats(service: &ReplayService, sku: &str) -> ShardStats {
    service
        .stats()
        .shard(sku)
        .expect("the service has the model's shard")
        .clone()
}

/// `serve`: an open loop of Poisson arrivals at [`SERVE_RATE`] into the
/// service, one thread submitting on schedule and one waiting on tickets.
/// Latency runs from each request's due time to its resolution.
#[allow(clippy::too_many_lines)]
pub fn serve(model: &Model, serving: &Serving, seed: u64, secs: f64, trace: bool) -> Run {
    let service = &serving.service;
    let sku = model.sku.name;
    let machine = service.machines(sku).expect("shard machines")[0].clone();
    let before = shard_stats(service, sku);
    let jobs0 = machine.gpu_jobs_completed();
    let mut arrivals = SimRng::seed_from(seed).fork("arrivals");
    let mut picks = SimRng::seed_from(seed).fork("serve-inputs");
    let (tx, rx) = mpsc::channel::<Sent>();
    let origin = Instant::now();

    let mut lags = Vec::new();
    let mut admit_us = Vec::new();
    let mut attempted = 0u64;
    let mut refused = 0u64;
    let answers = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut answers = Vec::new();
            for sent in rx {
                let outcome = sent.ticket.wait();
                let resolved = ms_since(origin);
                let (batch_elements, prologue) = match outcome {
                    Ok(o) => {
                        model.check(sent.k, &o.ios[0]);
                        let r = &o.report;
                        (
                            Some(r.elements),
                            Some((
                                r.prologue_actions,
                                r.prologue_skipped,
                                r.resident_reupload_bytes,
                            )),
                        )
                    }
                    Err(e) => {
                        eprintln!("perfbench: request failed: {e}");
                        (None, None)
                    }
                };
                answers.push(Answer {
                    due: sent.due,
                    times: TicketTimes {
                        submitted: sent.submitted,
                        resolved,
                        batch_elements,
                    },
                    prologue,
                });
            }
            answers
        });

        let mut due = 0.0;
        loop {
            due += -(1.0 - arrivals.unit_f64()).ln() / SERVE_RATE * 1e3;
            if due >= secs * 1e3 {
                break;
            }
            let k = picks.range_u64(0, POOL as u64) as usize;
            let mut io = ReplayIo::for_recording(&serving.rec);
            io.set_input_f32(0, &model.inputs[k]).expect("input shape");
            let now = ms_since(origin);
            if due > now {
                std::thread::sleep(Duration::from_secs_f64((due - now) / 1e3));
            }
            let t = Instant::now();
            lags.push(t.duration_since(origin).as_secs_f64() * 1e3 - due);
            let res = service.submit_request(sku, ReplayRequest::single(0, io));
            admit_us.push(t.elapsed().as_secs_f64() * 1e6);
            let submitted = ms_since(origin);
            attempted += 1;
            match res {
                Ok(ticket) => tx
                    .send(Sent {
                        k,
                        due,
                        submitted,
                        ticket,
                    })
                    .expect("waiting thread is alive"),
                Err(ServiceError::QueueFull { .. }) => refused += 1,
                Err(e) => {
                    eprintln!("perfbench: submission failed: {e}");
                    refused += 1;
                }
            }
        }
        drop(tx);
        waiter.join().expect("waiting thread")
    });

    let mut run = Run {
        attempted,
        failed: refused,
        ..Run::default()
    };
    let mut last = secs * 1e3;
    for a in &answers {
        last = last.max(a.times.resolved);
        if a.times.batch_elements.is_none() {
            run.failed += 1;
            continue;
        }
        let lat = a.times.resolved - a.due;
        run.latencies.push(lat);
        if lat <= INFER_SLO_MS {
            run.within_slo += 1;
        }
    }
    run.window_s = last / 1e3;
    let lag_p99 = stats::Summary::of(&lags).p99;
    run.lagging = lag_p99 > LAG_LIMIT_MS;

    // Bookkeeping oracle: the service must account for every request.
    let after = shard_stats(service, sku);
    let d = |f: fn(&ShardStats) -> u64| f(&after) - f(&before);
    let consistent = after.is_consistent()
        && after.depth == 0
        && after.in_flight == 0
        && d(|s| s.submitted) == attempted
        && d(|s| s.submitted) == d(ShardStats::resolved)
        && d(|s| s.completed) == attempted - run.failed
        && d(|s| s.rejected_full) + d(|s| s.faults) + d(|s| s.rejected_expired) == run.failed;
    if !consistent {
        eprintln!("perfbench: service accounting does not balance: {before:?} -> {after:?}");
        std::process::exit(4);
    }

    if trace {
        let times: Vec<TicketTimes> = answers.iter().map(|a| a.times).collect();
        let batches = stats::derive_batches(&times);
        let waits = stats::queue_waits(&times, &batches);
        let service_ms: Vec<f64> = batches.iter().map(stats::DerivedBatch::service).collect();
        let (mut offered, mut skipped, mut reupload) = (0usize, 0usize, 0u64);
        for b in &batches {
            if let Some((actions, skip, bytes)) = answers[b.first].prologue {
                offered += actions;
                skipped += skip;
                reupload += bytes;
            }
        }
        let ok = attempted - run.failed;
        let l = &mut run.layers;
        l.insert("service.admit_us", stats::median(&admit_us));
        l.insert(
            "service.queue_wait_ms_mean",
            waits.iter().sum::<f64>() / waits.len() as f64,
        );
        l.insert("service.batch_service_ms", stats::median(&service_ms));
        l.insert(
            "service.batch_size_mean",
            stats::mean_batch_size(&before.batch_sizes, &after.batch_sizes),
        );
        l.insert(
            "service.prologue_skip_frac",
            if offered == 0 {
                0.0
            } else {
                skipped as f64 / offered as f64
            },
        );
        l.insert(
            "service.reupload_kb_per_batch",
            reupload as f64 / 1024.0 / batches.len() as f64,
        );
        l.insert("service.rejected_full", d(|s| s.rejected_full) as f64);
        l.insert("service.faults", d(|s| s.faults) as f64);
        l.insert("loadgen.lag_ms_p99", lag_p99);
        l.insert(
            "gpu.jobs",
            (machine.gpu_jobs_completed() - jobs0) as f64 / ok as f64,
        );
        l.insert("replayer.retries", d(|s| s.retries) as f64);
        // Every wall interval of a request lies inside the service, where
        // only `submit_request` is timed from outside.
        let total: f64 = answers
            .iter()
            .filter(|a| a.times.batch_elements.is_some())
            .map(|a| a.times.resolved - a.due)
            .sum();
        let covered: f64 = admit_us.iter().sum::<f64>() / 1e3;
        l.insert(
            "unattributed_frac",
            stats::unattributed_frac(total, covered),
        );
        // The untraced run reads the same timestamps: tracing adds nothing.
        l.insert("trace_overhead_frac", 0.0);
    }
    run
}

/// Side probe on a warm replayer of `model`: `replay_batch` at sizes 1
/// and 8 with residency off, then size 1 with residency on. The slope
/// gives the per-element suffix, the intercept the prologue.
pub fn batch_probe(model: &Model, seed: u64) -> Layers {
    const REPS: usize = 15;
    const BIG: usize = 8;
    let machine = Machine::new(model.sku, seed);
    let env = Environment::new(model.env, machine).expect("environment");
    let mut replayer = Replayer::new(env);
    let id = replayer.load_bytes(&model.blob).expect("load");
    let make = |n: usize| -> Vec<ReplayIo> {
        (0..n)
            .map(|j| {
                let mut io = ReplayIo::for_recording(replayer.recording(id));
                io.set_input_f32(0, &model.inputs[j % POOL])
                    .expect("input shape");
                io
            })
            .collect()
    };
    let (mut one, mut big) = (make(1), make(BIG));
    let timed = |replayer: &mut Replayer, ios: &mut [ReplayIo]| {
        let t = Instant::now();
        let report = replayer.replay_batch(id, ios).expect("batch replay");
        let ms = ms_since(t);
        for (j, io) in ios.iter().enumerate() {
            model.check(j % POOL, io);
        }
        (ms, report)
    };

    replayer.set_residency(false);
    timed(&mut replayer, &mut one);
    let (mut t1, mut t8) = (Vec::new(), Vec::new());
    let (mut jobs1, mut jobs8) = (0, 0);
    for _ in 0..REPS {
        let (ms, r) = timed(&mut replayer, &mut one);
        t1.push(ms);
        jobs1 = r.jobs;
        let (ms, r) = timed(&mut replayer, &mut big);
        t8.push(ms);
        jobs8 = r.jobs;
    }
    replayer.set_residency(true);
    timed(&mut replayer, &mut one);
    let mut t1r = Vec::new();
    for _ in 0..REPS {
        t1r.push(timed(&mut replayer, &mut one).0);
    }
    replayer.cleanup();

    let (m1, m8) = (stats::median(&t1), stats::median(&t8));
    let suffix = (m8 - m1) / (BIG - 1) as f64;
    let jobs_per_element = f64::from(jobs8 - jobs1) / (BIG - 1) as f64;
    Layers::from([
        ("replayer.prologue_ms", m1 - suffix),
        ("replayer.suffix_ms", suffix),
        (
            "replayer.resident_prologue_ms",
            stats::median(&t1r) - suffix,
        ),
        ("gpu.suffix_ms_per_job", suffix / jobs_per_element),
    ])
}
