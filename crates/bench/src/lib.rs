//! The experiment harness: one function per paper table/figure.
//!
//! Each `fig*`/`tab*`/`val*` function runs the full pipeline (stack
//! baseline and/or record+replay) in virtual time and returns the rows the
//! paper reports, formatted as text. `cargo run -p gr-bench --release
//! --bin all_experiments` runs everything and writes `EXPERIMENTS.md`.

use std::fmt::Write as _;

use gr_gpu::{sku, FaultKind, GpuSku, Machine};
use gr_mlfw::cpu_ref;
use gr_mlfw::exec::{GpuExecutor, GpuNetwork};
use gr_mlfw::fusion::Granularity;
use gr_mlfw::layers::ModelSpec;
use gr_mlfw::models;
use gr_mlfw::train::TrainSession;
use gr_recorder::RecordHarness;
use gr_recording::{Action, Recording};
use gr_replayer::{
    patch_recording, preempt_gpu, EnvKind, Environment, PatchOptions, ReplayIo, Replayer,
};
use gr_sim::{SimDuration, SimRng};
use gr_stack::runtime::GpuRuntime;

fn random_input(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| rng.unit_f64() as f32).collect()
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

/// Measured full-stack ("OS") run of one model.
pub struct OsRun {
    /// Startup: context creation through network compile (first job ready).
    pub startup: SimDuration,
    /// End-to-end inference delay.
    pub infer: SimDuration,
    /// Modeled stack CPU memory.
    pub rss: u64,
    /// GPU jobs per inference.
    pub jobs: usize,
}

/// Runs `model` on the full stack without any recorder attached.
pub fn measure_os(sku: &'static GpuSku, model: &ModelSpec, sync: bool, seed: u64) -> OsRun {
    let machine = Machine::new(sku, seed);
    let t0 = machine.now();
    let mut exec = GpuExecutor::create(machine.clone(), sync, None).expect("stack bring-up");
    let net = exec.compile(model, seed).expect("compile");
    let startup = machine.now() - t0;
    let input = random_input(net.input_len(), seed ^ 0x55);
    let t1 = machine.now();
    exec.infer(&net, &input).expect("infer");
    let infer = machine.now() - t1;
    let rss = exec.runtime().total_rss();
    let jobs = net.job_count();
    exec.release();
    OsRun {
        startup,
        infer,
        rss,
        jobs,
    }
}

/// A recorded model ready for replay measurements.
pub struct RecordedModel {
    /// Serialized recordings (one per granularity group).
    pub blobs: Vec<Vec<u8>>,
    /// Raw (uncompressed) dump bytes across recordings.
    pub unzip_bytes: usize,
    /// Serialized (compressed) bytes across recordings.
    pub zip_bytes: usize,
    /// The compiled network (CPU reference / sizes).
    pub net: GpuNetwork,
    /// Per-recording metadata copies.
    pub recordings: Vec<Recording>,
}

/// Records `model` at `granularity` on a fresh developer machine.
pub fn record_model(
    sku: &'static GpuSku,
    model: &ModelSpec,
    granularity: Granularity,
    skip_intervals: bool,
    seed: u64,
) -> RecordedModel {
    let machine = Machine::new(sku, seed);
    let mut harness = RecordHarness::new(machine).expect("record stack");
    harness.skip_idle_intervals = skip_intervals;
    let recs = harness
        .record_inference(model, granularity, seed)
        .expect("record");
    harness.finish();
    let blobs: Vec<Vec<u8>> = recs.recordings.iter().map(Recording::to_bytes).collect();
    RecordedModel {
        unzip_bytes: recs.recordings.iter().map(Recording::dump_bytes).sum(),
        zip_bytes: blobs.iter().map(Vec::len).sum(),
        blobs,
        net: recs.net,
        recordings: recs.recordings,
    }
}

/// Measured replayer ("GR") run.
pub struct GrRun {
    /// Load + verify + reset + dump-load + page-table rebuild time.
    pub startup: SimDuration,
    /// Full replay delay (all recordings, end to end).
    pub infer: SimDuration,
    /// Replayer modeled CPU memory (staged recordings).
    pub rss: u64,
    /// Output of the last recording.
    pub output: Vec<f32>,
}

/// Replays a recorded model on a fresh target machine.
pub fn measure_gr(
    sku: &'static GpuSku,
    rm: &RecordedModel,
    env_kind: EnvKind,
    input: &[f32],
    seed: u64,
) -> GrRun {
    let machine = Machine::new(sku, seed);
    let t0 = machine.now();
    let env = Environment::new(env_kind, machine.clone()).expect("env");
    let mut replayer = Replayer::new(env);
    let ids: Vec<usize> = rm
        .blobs
        .iter()
        .map(|b| replayer.load_bytes(b).expect("load"))
        .collect();
    let load_done = machine.now() - t0;
    let mut output = Vec::new();
    let mut first_startup = SimDuration::ZERO;
    let t1 = machine.now();
    for (i, &id) in ids.iter().enumerate() {
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        if i == 0 {
            io.set_input_f32(0, input).unwrap();
        }
        let report = replayer.replay(id, &mut io).expect("replay");
        if i == 0 {
            first_startup = report.startup;
        }
        if i + 1 == ids.len() {
            output = io.output_f32(0).unwrap();
        }
    }
    let infer = machine.now() - t1;
    let rss = rm.zip_bytes as u64 + rm.unzip_bytes as u64 + 512 * 1024;
    replayer.cleanup();
    GrRun {
        startup: load_done + first_startup,
        infer: infer - first_startup,
        rss,
        output,
    }
}

/// Figure 3: synchronous vs asynchronous job submission on Mali G71.
pub fn fig03_sync_overhead() -> String {
    let mut out = String::from(
        "## Figure 3 — Sync job submission overhead (Mali G71, exec time normalized to async)\n\n\
         | NN | async (s) | sync (s) | sync/async |\n|---|---|---|---|\n",
    );
    for model in models::mali_suite() {
        let a = measure_os(&sku::MALI_G71, &model, false, 31);
        let s = measure_os(&sku::MALI_G71, &model, true, 31);
        let _ = writeln!(
            out,
            "| {} | {:.4} | {:.4} | {:.3}x |",
            model.name,
            secs(a.infer),
            secs(s.infer),
            secs(s.infer) / secs(a.infer)
        );
    }
    out.push_str("\nPaper: sync adds 2–11% (avg 4%).\n");
    out
}

/// Figure 5: intervals between CPU/GPU interactions, accumulated per job.
pub fn fig05_interaction_gaps() -> String {
    let rm = record_model(
        &sku::MALI_G71,
        &models::alexnet(),
        Granularity::WholeNn,
        false,
        51,
    );
    let rec = &rm.recordings[0];
    // Accumulate recorded inter-action gaps per job (job boundary = WaitIrq).
    let mut per_job: Vec<u64> = Vec::new();
    let mut cur = 0u64;
    for ta in &rec.actions {
        cur += ta.min_interval_ns;
        if matches!(ta.action, Action::WaitIrq { .. }) {
            per_job.push(cur);
            cur = 0;
        }
    }
    let mut out = String::from(
        "## Figure 5 — CPU/GPU interaction gaps per job (AlexNet record run, Mali G71)\n\n\
         | job span | accumulated gap (ms) |\n|---|---|\n",
    );
    for (i, gap) in per_job.iter().take(12).enumerate() {
        let _ = writeln!(
            out,
            "| start-{} .. {} | {:.3} |",
            i,
            i + 1,
            *gap as f64 / 1e6
        );
    }
    let tail: u64 = per_job.iter().skip(12).sum();
    let _ = writeln!(out, "| 12 .. end | {:.3} |", tail as f64 / 1e6);
    let head: u64 = per_job.iter().take(3).sum();
    let _ = writeln!(
        out,
        "\nFirst 3 jobs carry {:.0}% of all gap time (paper: early jobs dominated by JIT + memory-manager init).\n",
        100.0 * head as f64 / per_job.iter().sum::<u64>().max(1) as f64
    );
    out
}

/// Source lines of `src` that are neither blank nor `//` comments, not
/// counting `#[cfg(test)]` items (a test module, a test-only function or
/// import).
fn sloc(src: &str) -> usize {
    let mut count = 0;
    // Inside a `#[cfg(test)]` item: the brace depth, and whether its
    // body has opened yet.
    let mut skipping: Option<(i64, bool)> = None;
    for line in src.lines() {
        let t = line.trim();
        if let Some((depth, opened)) = &mut skipping {
            *depth += brace_delta(t);
            *opened |= t.contains('{');
            if *depth <= 0 && (*opened || t.ends_with(';')) {
                skipping = None;
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("#[cfg(test)]") {
            let depth = brace_delta(rest);
            let opened = rest.contains('{');
            if !(depth <= 0 && (opened || rest.trim_end().ends_with(';'))) {
                skipping = Some((depth, opened));
            }
            continue;
        }
        if !t.is_empty() && !t.starts_with("//") {
            count += 1;
        }
    }
    count
}

/// `{` minus `}` on one line, outside string and char literals and `//`
/// comments.
fn brace_delta(line: &str) -> i64 {
    let mut delta = 0;
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_str => {
                chars.next();
            }
            '"' => in_str = !in_str,
            _ if in_str => {}
            '/' if chars.peek() == Some(&'/') => break,
            // A char literal such as '{' (a lifetime has no closing quote).
            '\'' => {
                let lit: String = chars.clone().take(3).collect();
                if lit.starts_with('\\') {
                    chars.nth(2);
                } else if lit.chars().nth(1) == Some('\'') {
                    chars.nth(1);
                }
            }
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// Table 4: codebase comparison by counting workspace SLoC of non-test
/// code (`tests/` and `benches/` directories and `#[cfg(test)]` items are
/// skipped).
pub fn tab04_codebase() -> String {
    fn crate_sloc(dir: &str) -> usize {
        fn walk(p: &std::path::Path, acc: &mut usize) {
            let Ok(entries) = std::fs::read_dir(p) else {
                return;
            };
            for path in entries.flatten().map(|e| e.path()) {
                if path.is_dir() {
                    if !path.ends_with("tests") && !path.ends_with("benches") {
                        walk(&path, acc);
                    }
                } else if path.extension().is_some_and(|x| x == "rs") {
                    if let Ok(content) = std::fs::read_to_string(&path) {
                        *acc += sloc(&content);
                    }
                }
            }
        }
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut acc = 0;
        walk(&root.join(dir), &mut acc);
        acc
    }
    let runtime = crate_sloc("crates/stack/src/runtime");
    let driver = crate_sloc("crates/stack/src/driver");
    let mlfw = crate_sloc("crates/mlfw/src");
    let recorder = crate_sloc("crates/recorder/src");
    let replayer = crate_sloc("crates/core/src");
    let service = crate_sloc("crates/replayer/src");
    let mut out = String::from(
        "## Table 4 — Codebase comparison (SLoC of this reproduction)\n\n\
         Non-test code only: `tests/`, `benches/` and `#[cfg(test)]` items are not counted.\n\n\
         | component | SLoC | role |\n|---|---|---|\n",
    );
    let _ = writeln!(
        out,
        "| ML framework (ACL/ncnn stand-in) | {mlfw} | original stack |"
    );
    let _ = writeln!(
        out,
        "| GPU runtime (blackbox) | {runtime} | original stack |"
    );
    let _ = writeln!(out, "| GPU kernel drivers | {driver} | original stack |");
    let _ = writeln!(
        out,
        "| Recorder (in-driver) | {recorder} | GR, dev machine only |"
    );
    let _ = writeln!(
        out,
        "| **Replayer (gr-replayer, whole target-side stack)** | **{replayer}** | GR |"
    );
    let _ = writeln!(
        out,
        "| Replay service (gr-service, host-side scheduler) | {service} | GR extension, not on the target |"
    );
    let _ = writeln!(
        out,
        "\nReplayer/stack ratio: {:.1}% (paper: a few K SLoC replacing a 45K SLoC driver + 48 MB runtime).\n",
        100.0 * replayer as f64 / (runtime + driver + mlfw) as f64
    );
    out
}

/// Table 5: CVE classes eliminated, demonstrated live against the verifier.
pub fn tab05_cve() -> String {
    use gr_recording::{RecordingMeta, TimedAction};
    let machine = Machine::new(&sku::MALI_G71, 61);
    let env = Environment::new(EnvKind::UserLevel, machine).unwrap();
    let mut replayer = Replayer::new(env);

    let mut rows = Vec::new();
    // CVE-2014-1376 class: arbitrary runtime API abuse -> no runtime exists.
    rows.push((
        "CVE-2014-1376 (OpenCL call abuse)",
        "runtime removed from target",
        "eliminated",
    ));
    // CVE-2019-5068 class: shared-memory permission abuse -> replayer maps only recording memory.
    rows.push((
        "CVE-2019-5068 (shared mem perms)",
        "runtime removed; nano driver maps zeroed frames",
        "eliminated",
    ));
    rows.push((
        "CVE-2018-6253 (malformed shaders hang)",
        "shaders fixed at record time",
        "eliminated",
    ));
    // Driver-class CVEs: demonstrate the verifier rejecting the exploit shapes.
    let mut bad_reg = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "cve",
    ));
    bad_reg
        .actions
        .push(TimedAction::immediate(Action::RegWrite {
            reg: 0x2FF4,
            mask: u32::MAX,
            val: 1,
        }));
    let r1 = replayer.load(bad_reg).is_err();
    rows.push((
        "CVE-2017-18643 (kernel info leak)",
        "ioctl surface gone; illegal reg write rejected",
        if r1 { "blocked (verified)" } else { "FAILED" },
    ));
    let mut bad_map = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "cve",
    ));
    bad_map
        .actions
        .push(TimedAction::immediate(Action::MapGpuMem {
            va: NanoIfaceVaLimit(),
            pte_flags: vec![0xB],
        }));
    let r2 = replayer.load(bad_map).is_err();
    rows.push((
        "CVE-2019-20577 (invalid addr mapping)",
        "out-of-space mapping rejected",
        if r2 { "blocked (verified)" } else { "FAILED" },
    ));
    let mut hog = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "cve",
    ));
    hog.actions.push(TimedAction::immediate(Action::MapGpuMem {
        va: 0,
        pte_flags: vec![0xB; 1 << 17],
    }));
    let r3 = replayer.load(hog).is_err();
    rows.push((
        "CVE-2019-10520 (GPU mem exhaustion)",
        "peak-page cap enforced",
        if r3 { "blocked (verified)" } else { "FAILED" },
    ));
    let mut upload = Recording::new(RecordingMeta::new(
        "mali",
        "G71",
        sku::MALI_G71.gpu_id,
        "cve",
    ));
    upload.dumps.push(gr_recording::Dump {
        va: 0x40_0000,
        bytes: vec![0; 4096],
    });
    upload
        .actions
        .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
    let r4 = replayer.load(upload).is_err();
    rows.push((
        "CVE-2014-0972 (IOMMU pgtable overwrite)",
        "dumps must target replayer-mapped pages",
        if r4 { "blocked (verified)" } else { "FAILED" },
    ));
    rows.push((
        "CVE-2020-11179 (ringbuffer race)",
        "no shared ring; one job at a time",
        "eliminated",
    ));
    rows.push((
        "CVE-2019-14615 (register-file leak)",
        "fine-grained sharing disabled; reset-on-handoff",
        "eliminated",
    ));
    replayer.cleanup();

    let mut out = String::from(
        "## Table 5 — GPU-stack CVE classes vs GR\n\n| CVE class | GR mechanism | status |\n|---|---|---|\n",
    );
    for (cve, how, status) in rows {
        let _ = writeln!(out, "| {cve} | {how} | {status} |");
    }
    out
}

#[allow(non_snake_case)]
fn NanoIfaceVaLimit() -> u64 {
    gr_replayer::NanoIface::Mali.va_limit()
}

/// Table 6: recording characteristics for both suites.
pub fn tab06_recordings() -> String {
    let mut out = String::from("## Table 6 — Recordings (WholeNN granularity)\n");
    for (title, sku_ref, suite) in [
        ("(a) Mali G71", &sku::MALI_G71, models::mali_suite()),
        ("(b) v3d", &sku::V3D_RPI4, models::v3d_suite()),
    ] {
        let _ = writeln!(
            out,
            "\n### {title}\n\n| model (#layers) | GPU mem (modeled MB) | #jobs | #RegIO | rec unzip (KB) | rec zip (KB) |\n|---|---|---|---|---|---|"
        );
        for model in suite {
            let rm = record_model(sku_ref, &model, Granularity::WholeNn, true, 66);
            let rec = &rm.recordings[0];
            let _ = writeln!(
                out,
                "| {} ({}) | {:.1} | {} | {} | {:.0} | {:.0} |",
                model.name,
                model.layer_count(),
                rec.meta.modeled_gpu_mem_bytes as f64 / (1024.0 * 1024.0),
                rec.meta.job_count,
                rec.meta.regio_count,
                rm.unzip_bytes as f64 / 1024.0,
                rm.zip_bytes as f64 / 1024.0,
            );
        }
    }
    out
}

/// Figures 6 + 7: startup and inference delays, OS vs GR, both suites.
pub fn fig06_07_startup_inference() -> String {
    let mut out = String::from(
        "## Figures 6 & 7 — Startup and inference delays (OS = full stack, GR = replayer)\n",
    );
    for (title, sku_ref, env, suite) in [
        (
            "Mali G71 (user-level replayer)",
            &sku::MALI_G71,
            EnvKind::UserLevel,
            models::mali_suite(),
        ),
        (
            "v3d (kernel-level replayer)",
            &sku::V3D_RPI4,
            EnvKind::KernelLevel,
            models::v3d_suite(),
        ),
    ] {
        let _ = writeln!(
            out,
            "\n### {title}\n\n| NN | OS startup (s) | GR startup (s) | Δstartup | OS infer (s) | GR infer (s) | Δinfer |\n|---|---|---|---|---|---|---|"
        );
        for model in suite {
            let os = measure_os(sku_ref, &model, false, 71);
            let rm = record_model(sku_ref, &model, Granularity::WholeNn, true, 71);
            let input = random_input(rm.net.input_len(), 99);
            let gr = measure_gr(sku_ref, &rm, env, &input, 72);
            assert_eq!(
                gr.output,
                cpu_ref::cpu_infer(&rm.net, &input),
                "{}: replay must stay correct while being timed",
                model.name
            );
            let _ = writeln!(
                out,
                "| {} | {:.3} | {:.3} | {:+.0}% | {:.4} | {:.4} | {:+.0}% |",
                model.name,
                secs(os.startup),
                secs(gr.startup),
                100.0 * (secs(gr.startup) - secs(os.startup)) / secs(os.startup),
                secs(os.infer),
                secs(gr.infer),
                100.0 * (secs(gr.infer) - secs(os.infer)) / secs(os.infer),
            );
        }
    }
    out.push_str("\nPaper: GR startup 26–98% lower (Mali) / 77–99% lower (v3d); inference ~20% faster (Mali) to ~5% slower (v3d).\n");
    out
}

/// Figure 8: MNIST training, startup + 20 iterations, OS vs GR.
pub fn fig08_training() -> String {
    // OS path.
    let machine = Machine::new(&sku::MALI_G71, 81);
    let t0 = machine.now();
    let mut rt = GpuRuntime::create(machine.clone(), true, None).unwrap();
    let sess = TrainSession::build(&mut rt, 81).unwrap();
    let os_startup = machine.now() - t0;
    let img = random_input(28 * 28, 5);
    let t1 = machine.now();
    for _ in 0..20 {
        sess.run_iteration(&mut rt, &img, 3).unwrap();
    }
    let os_train = machine.now() - t1;
    rt.release();

    // GR path.
    let dev = Machine::new(&sku::MALI_G71, 82);
    let mut harness = RecordHarness::new(dev).unwrap();
    let trec = harness.record_training(81).unwrap();
    let bytes = trec.recording.to_bytes();
    harness.finish();
    let target = Machine::new(&sku::MALI_G71, 83);
    let t0 = target.now();
    let env = Environment::new(EnvKind::UserLevel, target.clone()).unwrap();
    let mut replayer = Replayer::new(env);
    let id = replayer.load_bytes(&bytes).unwrap();
    let mut w: Vec<Vec<u8>> = trec
        .initial_weights
        .iter()
        .map(|(_, b)| b.clone())
        .collect();
    let mut gr_startup = target.now() - t0;
    let t1 = target.now();
    for i in 0..20 {
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &img).unwrap();
        io.set_input_f32(1, &[3.0]).unwrap();
        io.inputs[2] = w[0].clone();
        io.inputs[3] = w[1].clone();
        io.inputs[4] = w[2].clone();
        let report = replayer.replay(id, &mut io).unwrap();
        if i == 0 {
            gr_startup += report.startup;
        }
        w[0] = io.outputs[1].clone();
        w[1] = io.outputs[2].clone();
        w[2] = io.outputs[3].clone();
    }
    let gr_train = target.now() - t1;
    replayer.cleanup();

    format!(
        "## Figure 8 — MNIST training (DeepCL-style, Mali G71)\n\n\
         | | OS | GR | Δ |\n|---|---|---|---|\n\
         | startup (s) | {:.3} | {:.3} | {:+.0}% |\n\
         | 20 iterations (s) | {:.3} | {:.3} | {:+.0}% |\n\n\
         Paper: GR startup ~99% lower; 20-iteration delay ~40% lower.\n",
        secs(os_startup),
        secs(gr_startup),
        100.0 * (secs(gr_startup) - secs(os_startup)) / secs(os_startup),
        secs(os_train),
        secs(gr_train),
        100.0 * (secs(gr_train) - secs(os_train)) / secs(os_train),
    )
}

/// Figure 9: cross-SKU record/replay of 16M-element vecadd.
pub fn fig09_cross_sku() -> String {
    let mut out = String::from(
        "## Figure 9 — Replaying recordings from other SKUs on Mali G71 (16M-element vecadd)\n\n\
         | recorded on | patch | replay on G71 (ms) |\n|---|---|---|\n",
    );
    let run_on_g71 = |rec: &Recording| -> Result<SimDuration, gr_replayer::ReplayError> {
        let target = Machine::new(&sku::MALI_G71, 92);
        let env = Environment::new(EnvKind::UserLevel, target).unwrap();
        let mut replayer = Replayer::new(env);
        let id = replayer.load(rec.clone())?;
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        let n = replayer.recording(id).inputs[0].len as usize / 4;
        io.set_input_f32(0, &random_input(n, 7)).unwrap();
        io.set_input_f32(1, &random_input(n, 8)).unwrap();
        let report = replayer.replay(id, &mut io)?;
        replayer.cleanup();
        Ok(report.wall - report.startup)
    };
    for (src, label) in [
        (&sku::MALI_G31, "G31 (1 core)"),
        (&sku::MALI_G52, "G52 (2 cores)"),
        (&sku::MALI_G71, "G71 (8 cores)"),
    ] {
        let dev = Machine::new(src, 91);
        let mut harness = RecordHarness::new(dev).unwrap();
        let rec = harness.record_vecadd(1024, 16_000_000, 9).unwrap();
        harness.finish();
        if src.gpu_id == sku::MALI_G71.gpu_id {
            let t = run_on_g71(&rec).unwrap();
            let _ = writeln!(out, "| {label} | none needed | {:.3} |", t.as_millis_f64());
        } else {
            let unpatched = run_on_g71(&rec);
            let _ = writeln!(
                out,
                "| {label} | none | replay error: {} |",
                unpatched.err().map_or("-".into(), |e| e.to_string())
            );
            let partial =
                patch_recording(&rec, src, &sku::MALI_G71, PatchOptions::without_affinity())
                    .unwrap();
            let t1 = run_on_g71(&partial).unwrap();
            let _ = writeln!(
                out,
                "| {label} | pgtable+MMUreg | {:.3} |",
                t1.as_millis_f64()
            );
            let full = patch_recording(&rec, src, &sku::MALI_G71, PatchOptions::full()).unwrap();
            let t2 = run_on_g71(&full).unwrap();
            let _ = writeln!(
                out,
                "| {label} | pgtable+MMUreg+affinity | {:.3} |",
                t2.as_millis_f64()
            );
        }
    }
    out.push_str("\nPaper: unpatched fails; pgtable/MMU patch replays 4–8x slower; affinity patch restores full speed.\n");
    out
}

/// Figure 10: replay time with vs without idle-interval skipping.
pub fn fig10_skip_intervals() -> String {
    let mut out = String::from(
        "## Figure 10 — Interval skipping ablation (Mali G71)\n\n\
         | NN | infer skip (s) | infer keep-all (s) | infer ratio | startup ratio |\n|---|---|---|---|---|\n",
    );
    for model in models::mali_suite() {
        let skip = record_model(&sku::MALI_G71, &model, Granularity::WholeNn, true, 101);
        let keep = record_model(&sku::MALI_G71, &model, Granularity::WholeNn, false, 101);
        let input = random_input(skip.net.input_len(), 3);
        let g1 = measure_gr(&sku::MALI_G71, &skip, EnvKind::UserLevel, &input, 102);
        let g2 = measure_gr(&sku::MALI_G71, &keep, EnvKind::UserLevel, &input, 102);
        let _ = writeln!(
            out,
            "| {} | {:.4} | {:.4} | {:.2}x | {:.0}x |",
            model.name,
            secs(g1.infer),
            secs(g2.infer),
            secs(g2.infer) / secs(g1.infer),
            secs(g2.startup) / secs(g1.startup),
        );
    }
    out.push_str(
        "\nPaper: without skipping, NN inference replay is 1.1–4.9x longer and *startup*\n\
         is up to two orders of magnitude longer (it re-waits the recorded JIT gaps).\n",
    );
    out
}

/// Figure 11: recording granularity (delays include replayer startup).
pub fn fig11_granularity() -> String {
    let mut out = String::from(
        "## Figure 11 — Recording granularity (Mali G71; delay includes startup; #recordings in parens)\n\n\
         | NN | WholeNN | PerFusedLayer | PerLayer |\n|---|---|---|---|\n",
    );
    for model in [models::mnist(), models::alexnet(), models::vgg16()] {
        let mut cells = Vec::new();
        for g in [
            Granularity::WholeNn,
            Granularity::PerFusedLayer,
            Granularity::PerLayer,
        ] {
            let rm = record_model(&sku::MALI_G71, &model, g, true, 111);
            let input = random_input(rm.net.input_len(), 4);
            let gr = measure_gr(&sku::MALI_G71, &rm, EnvKind::UserLevel, &input, 112);
            cells.push(format!(
                "{:.4}s ({})",
                secs(gr.startup) + secs(gr.infer),
                rm.blobs.len()
            ));
        }
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            model.name, cells[0], cells[1], cells[2]
        );
    }
    out.push_str("\nPaper: fused-layer recordings cost ~15% over monolithic; per-layer worst (extra replayer startups).\n");
    out
}

/// §7.2 validation: repeated replays under interference + fault recovery.
pub fn val72_correctness(runs: usize) -> String {
    let rm = record_model(
        &sku::MALI_G71,
        &models::mnist(),
        Granularity::WholeNn,
        true,
        121,
    );
    let mut ok = 0usize;
    let mut recovered = 0usize;
    for i in 0..runs {
        let machine = Machine::new(&sku::MALI_G71, 2000 + i as u64);
        let env = Environment::new(EnvKind::UserLevel, machine.clone()).unwrap();
        let mut replayer = Replayer::new(env);
        let id = replayer.load_bytes(&rm.blobs[0]).unwrap();
        // Interference: underclock some runs, inject a fault in others.
        if i % 3 == 1 {
            machine.pmc().write32(
                gr_soc::pmc::Pmc::clk_rate_off(gr_soc::pmc::PmcDomain::GpuCore),
                300,
            );
            machine.advance(gr_soc::pmc::SETTLE_DELAY);
        }
        if i % 3 == 2 {
            machine.inject_fault(FaultKind::OfflineCores { mask: 0xFF });
        }
        let input = random_input(rm.net.input_len(), 3000 + i as u64);
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &input).unwrap();
        let report = replayer.replay(id, &mut io).unwrap();
        if report.retries > 0 {
            recovered += 1;
        }
        if io.output_f32(0).unwrap() == cpu_ref::cpu_infer(&rm.net, &input) {
            ok += 1;
        }
        replayer.cleanup();
    }
    format!(
        "## §7.2 — Replay correctness validation\n\n\
         {runs} replays of MNIST under interference (underclocking, forced core-offlining),\n\
         each on a machine with different timing jitter:\n\n\
         - correct (bit-identical to CPU reference): **{ok}/{runs}**\n\
         - runs that needed §5.4 re-execution recovery: {recovered}\n\n\
         Paper: 1,000/2,000-run campaigns; only poll counts and job delays diverge, outputs always correct.\n"
    )
}

/// §7.3: memory overheads.
pub fn tab73_memory() -> String {
    let mut out = String::from(
        "## §7.3 — Memory overheads (Mali G71)\n\n\
         | NN | rec zip (KB) | stack CPU mem (MB) | replayer CPU mem (MB) |\n|---|---|---|---|\n",
    );
    for model in models::mali_suite() {
        let os = measure_os(&sku::MALI_G71, &model, true, 131);
        let rm = record_model(&sku::MALI_G71, &model, Granularity::WholeNn, true, 131);
        let input = random_input(rm.net.input_len(), 5);
        let gr = measure_gr(&sku::MALI_G71, &rm, EnvKind::UserLevel, &input, 132);
        let _ = writeln!(
            out,
            "| {} | {:.0} | {:.0} | {:.1} |",
            model.name,
            rm.zip_bytes as f64 / 1024.0,
            os.rss as f64 / (1024.0 * 1024.0),
            gr.rss as f64 / (1024.0 * 1024.0),
        );
    }
    out.push_str("\nPaper: replayer 2–10 MB vs stack 220–310 MB.\n");
    out
}

/// §7.5 preemption: delay an interactive app perceives.
pub fn fig_preemption() -> String {
    let mut out =
        String::from("## §7.5 — GPU preemption delay\n\n| GPU | delay (µs) |\n|---|---|\n");
    for sku_ref in [&sku::MALI_G71, &sku::V3D_RPI4] {
        let machine = Machine::new(sku_ref, 141);
        let env = Environment::new(EnvKind::UserLevel, machine.clone()).unwrap();
        let replayer = Replayer::new(env);
        let lease = replayer.lease();
        lease.revoke(); // interactive app asked for the GPU
        let d = preempt_gpu(&machine);
        let _ = writeln!(
            out,
            "| {} | {:.1} |",
            sku_ref.name,
            d.as_nanos() as f64 / 1e3
        );
        replayer.cleanup();
    }
    out.push_str("\nPaper: below 1 ms on both GPUs (flush + TLB + soft reset).\n");
    out
}

/// §7.5 checkpoint vs re-execution.
pub fn fig_checkpoint() -> String {
    let rm = record_model(
        &sku::MALI_G71,
        &models::mobilenet(),
        Granularity::WholeNn,
        true,
        151,
    );
    let input = random_input(rm.net.input_len(), 6);
    let run = |every: Option<u32>| -> f64 {
        let machine = Machine::new(&sku::MALI_G71, 152);
        let env = Environment::new(EnvKind::UserLevel, machine).unwrap();
        let mut replayer = Replayer::new(env);
        replayer.checkpoint_every_jobs = every;
        let id = replayer.load_bytes(&rm.blobs[0]).unwrap();
        let mut io = ReplayIo::for_recording(replayer.recording(id));
        io.set_input_f32(0, &input).unwrap();
        let report = replayer.replay(id, &mut io).unwrap();
        replayer.cleanup();
        secs(report.wall)
    };
    let none = run(None);
    let cp16 = run(Some(16));
    let cp4 = run(Some(4));
    format!(
        "## §7.5 — Checkpointing vs re-execution (MobileNet replay)\n\n\
         | mode | replay (s) | slowdown |\n|---|---|---|\n\
         | no checkpoints | {none:.4} | 1.0x |\n\
         | checkpoint every 16 jobs | {cp16:.4} | {:.1}x |\n\
         | checkpoint every 4 jobs | {cp4:.4} | {:.1}x |\n\n\
         Paper: per-16-job checkpointing slows MobileNet ~8x — re-execution is the better recovery default.\n",
        cp16 / none,
        cp4 / none,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sloc_skips_test_items_and_comments() {
        let src = r#"
// A comment.
fn counted() -> &'static str {
    "{ not a brace"
}

#[cfg(test)]
use std::fmt;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brace_chars() {
        assert_eq!('{', '{');
        let _ = format!("{}}}", 1);
    }
}

#[cfg(test)]
fn oracle() {}

const AFTER: u8 = 1;
"#;
        assert_eq!(sloc(src), 4, "counted()'s three lines and AFTER");
        let test_module = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        assert_eq!(sloc(test_module), 0);
    }

    #[test]
    fn os_measurement_is_sane() {
        let run = measure_os(&sku::MALI_G71, &models::mnist(), true, 1);
        assert!(
            run.startup > SimDuration::from_millis(100),
            "startup {}",
            run.startup
        );
        assert!(run.jobs > 5);
        assert!(run.rss > 100 * 1024 * 1024);
    }

    #[test]
    fn gr_is_much_faster_to_start() {
        let os = measure_os(&sku::MALI_G71, &models::mnist(), false, 2);
        let rm = record_model(
            &sku::MALI_G71,
            &models::mnist(),
            Granularity::WholeNn,
            true,
            2,
        );
        let input = random_input(rm.net.input_len(), 9);
        let gr = measure_gr(&sku::MALI_G71, &rm, EnvKind::UserLevel, &input, 3);
        assert!(
            gr.startup.as_nanos() * 4 < os.startup.as_nanos(),
            "GR startup {} should be far below OS startup {}",
            gr.startup,
            os.startup
        );
        assert_eq!(gr.output, cpu_ref::cpu_infer(&rm.net, &input));
    }
}
