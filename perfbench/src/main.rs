//! Wall-clock benchmark of the replay stack.
//!
//! Usage: `perfbench --workload <cold_start|steady_infer|serve|all>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` the run sets the workload up three times (reporting
//! the median set-up time), then measures it for `--seconds` with no
//! layer timing and prints the end-to-end metrics. With `--trace 1` it
//! times the calls into each layer instead and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the
//! table above it names each metric's unit and clock. See `README.md`.

mod model;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use model::{Model, ModelKind};
use workloads::{Run, Serving, Warm};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdStart,
    SteadyInfer,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ColdStart, Workload::SteadyInfer, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdStart => "cold_start",
            Workload::SteadyInfer => "steady_infer",
            Workload::Serve => "serve",
        }
    }

    fn model(self) -> ModelKind {
        match self {
            Workload::SteadyInfer => ModelKind::MobileNetV3d,
            Workload::ColdStart | Workload::Serve => ModelKind::AlexNetG71,
        }
    }
}

/// The clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clock {
    /// Host wall-clock time.
    Wall,
    /// Virtual time from the cost model: modelled, not measured.
    Virtual,
    /// A count or a ratio of counts.
    Count,
    /// A ratio of two wall times, or of a wall time and a virtual one.
    Ratio,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual (modelled)",
            Clock::Count => "count",
            Clock::Ratio => "ratio",
        }
    }
}

/// End-to-end metrics, printed with `--trace 0` (all wall clock). The
/// p90 and p99 latencies are printed in the table header only: on
/// `serve` each moved by a third between 10-run sets of the same code,
/// so they are not gated; `within_slo_frac` gates the tail instead.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("ok_frac", "ratio"),
    ("within_slo_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: name, unit, clock.
const PER_LAYER: [(&str, &str, Clock); 32] = [
    ("recording.decode_ms", "ms", Clock::Wall),
    ("recording.decode_mb_s", "MB/s", Clock::Wall),
    ("recording.zip_kb", "KB", Clock::Count),
    ("recording.raw_kb", "KB", Clock::Count),
    ("verify.ms", "ms", Clock::Wall),
    ("verify.actions", "count", Clock::Count),
    ("gpu.machine_new_ms", "ms", Clock::Wall),
    ("replayer.init_ms", "ms", Clock::Wall),
    ("replayer.stage_ms", "ms", Clock::Wall),
    ("replayer.first_replay_ms", "ms", Clock::Wall),
    ("replayer.virt_startup_ms", "virt_ms", Clock::Virtual),
    ("replayer.cleanup_ms", "ms", Clock::Wall),
    ("replayer.replay_ms", "ms", Clock::Wall),
    ("replayer.virt_replay_ms", "virt_ms", Clock::Virtual),
    ("replayer.wall_per_virt", "ratio", Clock::Ratio),
    ("replayer.prologue_ms", "ms", Clock::Wall),
    ("replayer.suffix_ms", "ms", Clock::Wall),
    ("replayer.resident_prologue_ms", "ms", Clock::Wall),
    ("replayer.retries", "count", Clock::Count),
    ("gpu.jobs", "count", Clock::Count),
    ("gpu.suffix_ms_per_job", "ms", Clock::Wall),
    ("service.admit_us", "us", Clock::Wall),
    ("service.queue_wait_ms_mean", "ms", Clock::Wall),
    ("service.batch_service_ms", "ms", Clock::Wall),
    ("service.batch_size_mean", "count", Clock::Count),
    ("service.prologue_skip_frac", "ratio", Clock::Count),
    ("service.reupload_kb_per_batch", "KB", Clock::Count),
    ("service.rejected_full", "count", Clock::Count),
    ("service.faults", "count", Clock::Count),
    ("loadgen.lag_ms_p99", "ms", Clock::Wall),
    ("unattributed_frac", "ratio", Clock::Ratio),
    ("trace_overhead_frac", "ratio", Clock::Ratio),
];

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Length of the side runs a traced run makes of the other workloads, s.
const SIDE_SECONDS: [(Workload, f64); 3] = [
    (Workload::ColdStart, 1.5),
    (Workload::SteadyInfer, 1.0),
    (Workload::Serve, 3.0),
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workloads = match workload.as_str() {
        "all" => Workload::ALL.to_vec(),
        name => vec![*Workload::ALL
            .iter()
            .find(|w| w.name() == name)
            .ok_or(format!("unknown workload '{name}'"))?],
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not '{t}'")),
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// What one workload needs before its first measured op.
struct Prepared {
    model: Model,
    target: Target,
}

/// What a workload's ops run against, beyond the model itself.
enum Target {
    Fresh,
    Warm(Box<Warm>),
    Service(Box<Serving>),
}

impl Prepared {
    fn new(w: Workload, seed: u64) -> Prepared {
        let model = Model::record(w.model(), seed);
        let target = match w {
            Workload::ColdStart => Target::Fresh,
            Workload::SteadyInfer => Target::Warm(Box::new(Warm::new(&model, seed))),
            Workload::Serve => Target::Service(Box::new(Serving::new(&model, seed))),
        };
        Prepared { model, target }
    }

    fn run(&mut self, seed: u64, secs: f64, trace: bool) -> Run {
        let m = &self.model;
        match &mut self.target {
            Target::Fresh => workloads::cold_start(m, seed, secs, trace),
            Target::Warm(warm) => workloads::steady_infer(m, warm, seed, secs, trace),
            Target::Service(serving) => workloads::serve(m, serving, seed, secs, trace),
        }
    }

    fn finish(self) {
        if let Target::Service(serving) = self.target {
            serving.shutdown();
        }
    }
}

/// Resets the process's peak resident set (VmHWM) to its current size.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}

/// The process's peak resident set since the last reset, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Report {
    metrics: Vec<(&'static str, f64, &'static str, Clock)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn end_to_end(w: Workload, seed: u64, secs: f64) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        if let Some(p) = prepared.take() {
            Prepared::finish(p);
        }
        let t = Instant::now();
        prepared = Some(Prepared::new(w, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");
    reset_peak_rss()?;
    let run = prepared.run(seed, secs, false);
    let rss = peak_rss_mb()?;
    prepared.finish();

    let lat = stats::Summary::of(&run.latencies);
    let mut notes = vec![format!(
        "latency samples {}; p90 {:.4} ms with {} beyond it; p99 {:.4} ms with {} beyond it",
        lat.n,
        lat.p90,
        stats::samples_beyond(lat.n, 0.9),
        lat.p99,
        stats::samples_beyond(lat.n, 0.99)
    )];
    if run.lagging {
        notes.push(format!(
            "WARNING: the load generator fell behind its schedule (lag p99 > {} ms); \
             this serve run does not show the offered load",
            workloads::LAG_LIMIT_MS
        ));
    }
    let values = [
        stats::median(&setups),
        lat.p50,
        run.throughput(),
        run.ok_frac(),
        run.within_slo as f64 / run.attempted as f64,
        rss,
    ];
    Ok(Report {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit, Clock::Wall))
            .collect(),
        attempted: run.attempted,
        failed: run.failed,
        notes,
    })
}

fn per_layer(w: Workload, seed: u64, secs: f64) -> Result<Report, String> {
    // Every layer is reported on every workload: the workload's own run
    // gives the layers it calls and the generic values (attribution,
    // overhead, jobs, retries); short side runs of the other workloads
    // and the batch probe give the rest.
    let alexnet = Model::record(ModelKind::AlexNetG71, seed);
    let mobilenet = Model::record(ModelKind::MobileNetV3d, seed);
    let mut layers = workloads::batch_probe(&alexnet, seed);
    let mut main = None;
    for (other, side_secs) in SIDE_SECONDS {
        let model = match other.model() {
            ModelKind::AlexNetG71 => &alexnet,
            ModelKind::MobileNetV3d => &mobilenet,
        };
        let secs = if other == w { secs } else { side_secs };
        let run = match other {
            Workload::ColdStart => workloads::cold_start(model, seed, secs, true),
            Workload::SteadyInfer => {
                let mut warm = Warm::new(model, seed);
                workloads::steady_infer(model, &mut warm, seed, secs, true)
            }
            Workload::Serve => {
                let serving = Serving::new(model, seed);
                let run = workloads::serve(model, &serving, seed, secs, true);
                serving.shutdown();
                run
            }
        };
        if other == w {
            main = Some(run);
        } else {
            layers.extend(run.layers);
        }
    }
    let mut main = main.expect("the workload itself ran");
    layers.append(&mut main.layers);
    let mut notes = vec![format!(
        "per-layer values of layers {} does not call come from side runs",
        w.name()
    )];
    if main.lagging {
        notes.push("WARNING: the load generator fell behind its schedule".into());
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, clock)| {
            layers
                .get(name)
                .map(|&v| (name, v, unit, clock))
                .ok_or(format!("no value for per-layer metric {name}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        metrics,
        attempted: main.attempted,
        failed: main.failed,
        notes,
    })
}

fn print_report(w: Workload, trace: bool, r: &Report) -> Result<(), String> {
    let mut out = format!(
        "# {} ({}) — {} ops attempted, {} failed\n",
        w.name(),
        if trace { "per-layer" } else { "end-to-end" },
        r.attempted,
        r.failed
    );
    for note in &r.notes {
        let _ = writeln!(out, "# {note}");
    }
    for &(name, v, unit, clock) in &r.metrics {
        let _ = writeln!(out, "{name:<32} {v:>14.4} {unit:<8} {}", clock.label());
    }
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.attempted, r.failed
    );
    for (i, &(name, v, unit, _)) in r.metrics.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("{name} is not a finite number ({v})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    print!("{out}");
    println!("{json}");
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <cold_start|steady_infer|serve|all> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    for &w in &args.workloads {
        let report = if args.trace {
            per_layer(w, args.seed, args.seconds)
        } else {
            end_to_end(w, args.seed, args.seconds)
        };
        if let Err(e) = report.and_then(|r| print_report(w, args.trace, &r)) {
            eprintln!("perfbench: {}: {e}", w.name());
            std::process::exit(1);
        }
    }
}
