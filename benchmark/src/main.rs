//! `vfc-benchmark`: the end-to-end and per-layer benchmark of the vfc
//! node loop, trace replay and control plane. See `README.md`.
//!
//! ```text
//! vfc-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--record FILE]
//! vfc-benchmark suite [--workload W] [--seed N] [--seconds S] [--smoke] [--out FILE] [--append]
//! vfc-benchmark compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one process, one JSON object on the last line of standard output.

mod common;
mod compare;
mod machine;
mod manifest;
mod spans;
mod stats;
mod workloads;

use common::{Cfg, Checks, Chunk, Layers, Rep, TimeBase};
use machine::Machine;
use serde_json::Value;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::trace::Regime;

/// Fewest reps an end-to-end run reports a median over.
const MIN_REPS: usize = 3;

/// The clock end-to-end times are reported on. Every run prints both; on
/// every workload the calibrated one repeated at least as well over ten
/// runs (README, "Two clocks", has the table).
const REPORTED: TimeBase = TimeBase::Calibrated;

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "vfc-benchmark: refusing to measure a debug build; use run.sh or `cargo run --release`"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("suite") => Options::parse(&args[1..]).and_then(|o| suite(&o)),
        _ => Options::parse(&args).and_then(|o| single(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("vfc-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    /// `None`: the manifest's run length, or no minimum under `--smoke`.
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    record: Option<PathBuf>,
    out: Option<PathBuf>,
    append: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            record: None,
            out: None,
            append: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}"))
            };
            let number = |text: String| {
                text.parse::<u64>()
                    .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => o.workload = Some(value("a workload name")?),
                "--seed" => o.seed = number(value("a number")?)?,
                "--seconds" => o.seconds = Some(number(value("a number")?)?),
                "--trace" => o.trace = number(value("0 or 1")?)? != 0,
                "--record" => o.record = Some(PathBuf::from(value("a file")?)),
                "--out" => o.out = Some(PathBuf::from(value("a file")?)),
                "--smoke" => o.smoke = true,
                "--append" => o.append = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let Some(w) = &o.workload {
            if Kind::of(w).is_none() {
                return Err(format!(
                    "unknown workload {w:?}; known: {}",
                    manifest::get().workloads.join(", ")
                ));
            }
        }
        Ok(o)
    }

    /// How long a run keeps starting reps.
    fn run_seconds(&self) -> u64 {
        self.seconds.unwrap_or(if self.smoke {
            0
        } else {
            manifest::get().run_seconds
        })
    }
}

/// The benchmark's own directory: `run.sh` exports it; run from the
/// repository root otherwise.
fn bench_dir() -> PathBuf {
    std::env::var_os("VFC_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// Scratch space of this process — fixture cgroup trees, spec logs,
/// ledgers — removed when dropped. On `/dev/shm` when a directory can be
/// made there, else under the benchmark's own `out/tmp/`: the real
/// cgroupfs is an in-memory filesystem, and what a journaling filesystem
/// on a virtual disk adds to a `cpu.max` write or an `fsync` is several
/// times the program's own work and drifts by tens of per cent over
/// minutes (README, "Machine"). Also set as `TMPDIR`: `FixtureTree` builds
/// under `std::env::temp_dir()`.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let name = format!("vfc-benchmark-{}", std::process::id());
        let shm = Path::new("/dev/shm").join(&name);
        let dir = if std::fs::create_dir(&shm).is_ok() {
            shm
        } else {
            let dir = bench_dir().join("out").join("tmp").join(&name);
            std::fs::create_dir_all(&dir)?;
            dir.canonicalize()?
        };
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ------------------------------------------------------------ one workload

/// The workloads this harness implements; `BENCHMARK.json` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    NodeSim,
    NodeFs,
    Trace(Regime),
    ApiMixed,
    ApiRead,
}

impl Kind {
    fn of(name: &str) -> Option<Kind> {
        Some(match name {
            "node_sim" => Kind::NodeSim,
            "node_fs" => Kind::NodeFs,
            "trace_eq7" => Kind::Trace(Regime::Eq7),
            "trace_pack" => Kind::Trace(Regime::Pack),
            "api_mixed" => Kind::ApiMixed,
            "api_read" => Kind::ApiRead,
            _ => return None,
        })
    }

    /// Whether the whole process runs on one CPU (see
    /// [`machine::pin_to_current_cpu`]). The other workloads have one
    /// thread anyway, and `cluster.par_speedup` needs every CPU.
    fn pinned(self) -> bool {
        matches!(self, Kind::ApiMixed | Kind::ApiRead)
    }
}

/// Fresh state of one workload, built from the seed and not yet measured.
// One value exists at a time and it is moved twice; boxing would only add
// an allocation to the timed set-up.
#[allow(clippy::large_enum_variant)]
enum Prepared {
    Sim(workloads::node::SimNode),
    Fs(workloads::node::FsNode),
    Trace(workloads::trace::Loaded),
    Api(workloads::api::Served),
    ApiRead(workloads::api::Served),
}

fn prepare(kind: Kind, cfg: &Cfg) -> Prepared {
    match kind {
        Kind::NodeSim => Prepared::Sim(workloads::node::sim_setup(cfg)),
        Kind::NodeFs => Prepared::Fs(workloads::node::fs_setup(cfg)),
        Kind::Trace(regime) => Prepared::Trace(workloads::trace::setup(cfg, regime)),
        Kind::ApiMixed => Prepared::Api(workloads::api::setup(cfg)),
        Kind::ApiRead => Prepared::ApiRead(workloads::api::read_setup(cfg)),
    }
}

/// One set-up and the calibration taken right after it. What the harness
/// spends playing the kernel (`node_fs`'s cgroup tree) is not the
/// program's set-up and is taken out.
fn timed_prepare(kind: Kind, cfg: &Cfg) -> (Prepared, Chunk) {
    let started = Instant::now();
    let prepared = prepare(kind, cfg);
    let harness = match &prepared {
        Prepared::Fs(node) => node.harness_time(),
        _ => Duration::ZERO,
    };
    let chunk = Chunk::close(started.elapsed().saturating_sub(harness));
    (prepared, chunk)
}

/// One rep: set up (timed as `setup_s`), then the measured loop and the
/// output checks.
fn run_rep(
    kind: Kind,
    cfg: &Cfg,
    tracer: &mut Tracer,
) -> (Rep, Option<workloads::trace::OperatingPoint>) {
    let (prepared, setup) = timed_prepare(kind, cfg);
    let (mut rep, point) = match prepared {
        Prepared::Sim(node) => (workloads::node::sim_run(node, cfg, tracer), None),
        Prepared::Fs(node) => (workloads::node::fs_run(node, cfg, tracer), None),
        Prepared::Trace(loaded) => {
            let (rep, point) = workloads::trace::run(loaded, cfg, tracer);
            (rep, Some(point))
        }
        Prepared::Api(served) => (workloads::api::run(served, cfg, tracer), None),
        Prepared::ApiRead(served) => (workloads::api::read_run(served, cfg, tracer), None),
    };
    rep.setup = setup;
    (rep, point)
}

/// Set-up alone, again and again: the few reps of a run give too few
/// samples for a steady median, and most set-ups take milliseconds.
fn extra_setups(kind: Kind, cfg: &Cfg, have: usize) -> Vec<Chunk> {
    const WANT: usize = 60;
    const BUDGET: Duration = Duration::from_millis(1_000);
    let started = Instant::now();
    let mut samples = Vec::new();
    while have + samples.len() < WANT && started.elapsed() < BUDGET {
        let (prepared, setup) = timed_prepare(kind, cfg);
        samples.push(setup);
        drop(prepared);
    }
    samples
}

/// Seconds the measured loop takes on `base`: chunk by chunk, the median
/// over the reps (chunk `i` is the same work in every rep), summed. One
/// rep's hiccup in one chunk moves nothing.
fn loop_s(reps: &[&Rep], base: TimeBase) -> f64 {
    let chunks = reps.iter().map(|r| r.chunks.len()).min().unwrap_or(0);
    (0..chunks)
        .map(|i| {
            stats::median(
                &reps
                    .iter()
                    .map(|r| r.chunks[i].seconds(base))
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

fn work_per_s(reps: &[&Rep], base: TimeBase) -> f64 {
    reps[0].work as f64 / loop_s(reps, base).max(1e-12)
}

/// Median of every rep's primary-operation samples, pooled.
fn op_p50(reps: &[&Rep], base: TimeBase) -> f64 {
    stats::median(
        &reps
            .iter()
            .flat_map(|r| r.op_us_on(base))
            .collect::<Vec<_>>(),
    )
}

fn setup_p50(setups: &[Chunk], base: TimeBase) -> f64 {
    stats::median(&setups.iter().map(|c| c.seconds(base)).collect::<Vec<_>>())
}

/// What one process measured, ready to print.
struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    checks: Checks,
    digest: String,
    reps: usize,
}

fn end_to_end(kind: Kind, cfg: &Cfg, seconds: u64) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let budget = Duration::from_secs(seconds);
    let min_reps = if cfg.smoke { 2 } else { MIN_REPS };
    // Read after the first rep: how many reps fit in a run depends on the
    // machine, what one rep needs does not.
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    while reps.len() < min_reps || started.elapsed() < budget {
        let rep = run_rep(kind, cfg, &mut tracer).0;
        if reps.is_empty() {
            peak_rss_mb = machine::peak_rss_mb();
        }
        println!(
            "rep {} wall: measured_s={:.3} op_p50_us={:.3} work_per_s={:.3} setup_s={:.6} calib_us={:.1}",
            reps.len(),
            rep.measured_s,
            op_p50(&[&rep], TimeBase::Wall),
            work_per_s(&[&rep], TimeBase::Wall),
            rep.setup.seconds(TimeBase::Wall),
            rep.calib_us()
        );
        reps.push(rep);
    }

    let mut checks = Checks::default();
    let digest = reps[0].digest.clone();
    for (i, rep) in reps.iter().enumerate() {
        checks.check(rep.digest == digest, || {
            format!(
                "rep {i} digest {} differs from rep 0 digest {digest}",
                rep.digest
            )
        });
        checks.check(
            rep.chunks.len() == reps[0].chunks.len() && rep.work == reps[0].work,
            || {
                format!(
                    "rep {i} did other work than rep 0: {} chunks, {} units",
                    rep.chunks.len(),
                    rep.work
                )
            },
        );
    }
    let mut setups: Vec<Chunk> = reps.iter().map(|r| r.setup).collect();
    setups.extend(extra_setups(kind, cfg, setups.len()));
    let all: Vec<&Rep> = reps.iter().collect();
    // Both clocks, so that the choice of `REPORTED` can be checked again on
    // any machine from the logs of ten runs.
    for base in [TimeBase::Wall, TimeBase::Calibrated] {
        println!(
            "clock {}: op_p50_us={} work_per_s={} setup_s={}",
            base.label(),
            op_p50(&all, base),
            work_per_s(&all, base),
            setup_p50(&setups, base)
        );
    }
    println!(
        "calibration kernel: median {:.1} us over {} chunks; reported clock: {}",
        stats::median(&all.iter().map(|r| r.calib_us()).collect::<Vec<_>>()),
        all.iter().map(|r| r.chunks.len()).sum::<usize>(),
        REPORTED.label()
    );
    let metrics = manifest::get()
        .end_to_end
        .iter()
        .map(|m| {
            let value = match m.name.as_str() {
                "op_p50_us" => op_p50(&all, REPORTED),
                "work_per_s" => work_per_s(&all, REPORTED),
                "peak_rss_mb" => peak_rss_mb,
                "setup_s" => setup_p50(&setups, REPORTED),
                other => {
                    return Err(format!(
                        "BENCHMARK.json names end-to-end metric {other:?}, which the harness does not measure"
                    ))
                }
            };
            Ok((m.name.as_str(), m.unit.as_str(), value))
        })
        .collect::<Result<_, String>>()?;
    let n = reps.len();
    for rep in reps {
        checks.absorb(rep.checks);
    }
    Ok(Outcome {
        metrics,
        checks,
        digest,
        reps: n,
    })
}

fn traced(name: &str, kind: Kind, cfg: &Cfg) -> Result<Outcome, String> {
    // One rep as the end-to-end runs take it, one with spans on: the ratio
    // of their throughputs is what tracing costs.
    let (plain, _) = run_rep(kind, cfg, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let (mut rep, point) = run_rep(kind, cfg, &mut tracer);

    let mut layers: Layers = std::mem::take(&mut rep.layers);
    match (kind, &point) {
        (Kind::NodeSim, _) => workloads::node::sim_probes(cfg, &mut layers),
        (Kind::NodeFs, _) => workloads::node::fs_probes(cfg, &mut layers),
        (_, Some(point)) => workloads::trace::probes(cfg, point, &mut layers),
        _ => {}
    }
    layers.insert(
        "bench.trace_overhead",
        work_per_s(&[&plain], REPORTED) / work_per_s(&[&rep], REPORTED).max(1e-12),
    );
    layers.insert("bench.calib_us", rep.calib_us());

    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("{name}.trace.json"));
    std::fs::write(&trace_path, tracer.render_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!(
        "trace {} spans -> {}",
        tracer.spans().len(),
        trace_path.display()
    );
    println!(
        "{:<36} {:>9} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (span, t) in tracer.totals() {
        println!(
            "{span:<36} {:>9} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    let mut checks = Checks::default();
    checks.check(plain.digest == rep.digest, || {
        format!(
            "traced digest {} differs from untraced {}",
            rep.digest, plain.digest
        )
    });
    let digest = rep.digest.clone();
    checks.absorb(plain.checks);
    checks.absorb(rep.checks);
    let metrics = manifest::get()
        .per_layer
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                m.unit.as_str(),
                layers.get(m.name.as_str()).copied().unwrap_or(0.0),
            )
        })
        .collect();
    Ok(Outcome {
        metrics,
        checks,
        digest,
        reps: 2,
    })
}

fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    (*name).to_owned(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str((*unit).to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Run one workload in this process and print its result object last.
fn single(o: &Options) -> Result<bool, String> {
    let name = o
        .workload
        .as_deref()
        .ok_or("missing --workload (or a subcommand: suite, compare)")?;
    let kind = Kind::of(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    // Gated numbers are single-worker numbers, whatever the machine.
    vfc::cluster::set_parallelism(1);
    let cfg = Cfg {
        seed: o.seed,
        smoke: o.smoke,
        tmp: scratch.0.clone(),
    };
    // Captured before pinning: `nproc` is the machine's, not the mask's.
    let mut machine = Machine::capture(&scratch.0);
    if kind.pinned() {
        machine.pinned_cpu = machine::pin_to_current_cpu();
    }
    println!(
        "machine nproc={} cpu={:?} fs_kind={} pinned_cpu={:?} commit={} build=release",
        machine.nproc, machine.cpu_model, machine.fs_kind, machine.pinned_cpu, machine.commit
    );
    println!(
        "run workload={name} seed={} seconds={} trace={} smoke={}",
        o.seed,
        o.run_seconds(),
        u8::from(o.trace),
        o.smoke
    );

    let outcome = if o.trace {
        traced(name, kind, &cfg)
    } else {
        end_to_end(kind, &cfg, o.run_seconds())
    };
    drop(scratch);
    let outcome = outcome?;

    println!("digest {name} {} reps={}", outcome.digest, outcome.reps);
    for (metric, unit, value) in &outcome.metrics {
        println!("{metric} {unit} {value}");
    }
    for msg in &outcome.checks.messages {
        println!("FAILED {msg}");
    }
    let correct = outcome.checks.failed == 0;
    let result = vec![
        ("correct".to_owned(), Value::Bool(correct)),
        (
            "attempted".to_owned(),
            Value::UInt(outcome.checks.attempted.max(1)),
        ),
        ("failed".to_owned(), Value::UInt(outcome.checks.failed)),
        ("metrics".to_owned(), metrics_json(&outcome.metrics)),
    ];
    if let Some(path) = &o.record {
        let mut record = vec![
            ("workload".to_owned(), Value::Str(name.to_owned())),
            ("seed".to_owned(), Value::UInt(o.seed)),
            ("seconds".to_owned(), Value::UInt(o.run_seconds())),
            ("trace".to_owned(), Value::UInt(u64::from(o.trace))),
            ("smoke".to_owned(), Value::Bool(o.smoke)),
            ("reps".to_owned(), Value::UInt(outcome.reps as u64)),
            ("digest".to_owned(), Value::Str(outcome.digest.clone())),
            ("machine".to_owned(), machine.to_json()),
        ];
        record.extend(result.iter().cloned());
        let text = serde_json::to_string(&Value::Object(record)).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).map_err(|e| e.to_string())?
    );
    Ok(true)
}

// ------------------------------------------------------------------- suite

/// Every workload, each in its own process, one after another: an
/// end-to-end run, then a traced run. Results land in one file that
/// `compare` reads.
fn suite(o: &Options) -> Result<bool, String> {
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let results_path = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("results.json"));
    let mut runs: Vec<Value> = Vec::new();
    if o.append && results_path.exists() {
        runs = compare::load_runs(&results_path)?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let record = out_dir.join(format!("record-{}.json", std::process::id()));
    let mut all_correct = true;
    let started = Instant::now();
    for w in manifest::get()
        .workloads
        .iter()
        .filter(|w| o.workload.as_ref().is_none_or(|only| only == *w))
    {
        for trace in [false, true] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.run_seconds().to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--record")
                .arg(&record);
            if o.smoke {
                cmd.arg("--smoke");
            }
            println!("\n=== {w} seed={} trace={} ===", o.seed, u8::from(trace));
            let status = cmd.status().map_err(|e| format!("spawn {w}: {e}"))?;
            if !status.success() {
                let _ = std::fs::remove_file(&record);
                return Err(format!("{w} exited with {status}"));
            }
            let text = std::fs::read_to_string(&record)
                .map_err(|e| format!("read {}: {e}", record.display()))?;
            let run: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            all_correct &= run.get("correct") == Some(&Value::Bool(true));
            runs.push(run);
        }
    }
    let _ = std::fs::remove_file(&record);
    let doc = Value::Object(vec![("runs".to_owned(), Value::Array(runs))]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&results_path, text + "\n")
        .map_err(|e| format!("write {}: {e}", results_path.display()))?;
    println!(
        "\nsuite: {} in {:.1} s -> {}",
        if all_correct {
            "all outputs correct"
        } else {
            "OUTPUT CHECKS FAILED"
        },
        started.elapsed().as_secs_f64(),
        results_path.display()
    );
    Ok(all_correct)
}
