//! The `vfcd` daemon: the controller as a deployable host agent.
//!
//! This is the operational counterpart of the authors' C++
//! `cgroup-monitor` agent: a process that runs on the host, discovers KVM
//! VM scopes through the filesystem backend, and executes the control
//! loop every period, sleeping `p − spent` between iterations (§III.B.6).
//!
//! Configuration comes from the command line and/or a minimal
//! `key = value` config file with a `[vms]` section mapping VM names to
//! their guaranteed virtual frequencies. A flag that names a key
//! ([`FLAGS`], printed by `vfcd --help`) sets it through the same code
//! as the file:
//!
//! ```text
//! period_ms = 1000
//! mode = full            # or "monitor"
//! increase_trigger = 0.95
//! increase_factor = 1.0
//! decrease_trigger = 0.5
//! decrease_factor = 0.05
//! history_len = 5
//! deadline_budget_frac = 0.25   # degradation ladder arms past 25 % of p
//! ladder_recovery_periods = 3   # in-budget periods before climbing back
//! lease_ttl = 30         # cap lease TTL in periods (omit to disable)
//! lease_grace = 10       # guarantee-only periods after expiry, then uncap
//! journal_path = /var/lib/vfcd/journal.json
//! journal_interval = 1   # periods between journal flushes
//! metrics_path = /run/vfcd/metrics.prom   # Prometheus textfile
//! metrics_addr = 127.0.0.1:9753           # Prometheus HTTP endpoint
//! trace_dump = /var/log/vfcd-traces.json  # ring dump on exit
//! trace_len = 128                         # iterations kept in the ring
//!
//! [vms]
//! web-frontend = 500     # MHz
//! batch-worker = 1800
//! ```
//!
//! ## Crash recovery
//!
//! With `journal_path` set, the daemon snapshots the controller state
//! (see [`crate::persist`]) every `journal_interval` periods and, on
//! boot, reconciles the journal against the live cgroup state: wallets
//! and histories resume for VMs present in both, caps orphaned by a dead
//! predecessor are removed, and new VMs cold-start. A cooperative
//! [`ShutdownHandle`] gives embedders a SIGTERM analogue that flushes
//! the journal and leaves caps in place (warm handoff) — distinct from
//! the circuit breaker, which uncaps before exiting.

use crate::apply::cpu_max_to_allocation;
use crate::config::{ControlMode, ControllerConfig};
use crate::controller::{Controller, IterationReport};
use crate::persist::{self, LoadOutcome};
use crate::telemetry::iteration_trace;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vfc_cgroupfs::backend::{HostBackend, VmCgroupInfo};
use vfc_cgroupfs::fs::FsBackend;
use vfc_simcore::durable::replace_file;
use vfc_simcore::{MHz, Micros, VcpuAddr, VcpuId};
use vfc_telemetry::{MetricsServer, TraceRing};

/// Parsed daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// The control-loop parameters.
    pub controller: ControllerConfig,
    /// VM name → guaranteed virtual frequency.
    pub vfreq: HashMap<String, MHz>,
    /// Explicit backend roots (cgroup, proc, cpufreq); `None` = the live
    /// system mounts.
    pub roots: Option<(PathBuf, PathBuf, PathBuf)>,
    /// Stop after this many iterations; `None` = run forever.
    pub iterations: Option<u64>,
    /// Print the per-iteration report.
    pub verbose: bool,
    /// Append one JSON line per iteration (the full
    /// [`crate::IterationReport`]) to this file.
    pub log_json: Option<PathBuf>,
    /// Circuit breaker: after this many consecutive iterations with hard
    /// errors (failed reads or writes), uncap every vCPU — uncapped is
    /// the safe state for tenants — and exit with an error. `0` disables
    /// the breaker.
    pub max_consecutive_errors: u32,
    /// How many times to retry backend discovery (mounts may come up
    /// after the daemon at boot) before giving up.
    pub discovery_retries: u32,
    /// Initial backoff between discovery attempts; doubles per retry.
    pub discovery_backoff: Duration,
    /// Crash journal path (see [`crate::persist`]); `None` disables
    /// journalling and warm restart.
    pub journal_path: Option<PathBuf>,
    /// Periods between journal flushes; must be ≥ 1. Only meaningful
    /// with `journal_path` set.
    pub journal_interval: u64,
    /// Prometheus textfile exposition: after every iteration the full
    /// metrics page replaces this file atomically and durably
    /// ([`replace_file`]), ready for the node-exporter textfile
    /// collector or a `curl file://` scrape.
    pub metrics_path: Option<PathBuf>,
    /// Prometheus HTTP exposition: bind a minimal std-only listener on
    /// this address (e.g. `127.0.0.1:9753`) serving the same page.
    pub metrics_addr: Option<String>,
    /// Where to dump the daemon's iteration trace ring as JSON on every
    /// exit path (warm shutdown, iteration limit, circuit breaker);
    /// `None` disables dumping.
    pub trace_dump: Option<PathBuf>,
    /// Capacity of the iteration trace ring (clamped to ≥ 1; default
    /// 128).
    pub trace_len: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            controller: ControllerConfig::paper_defaults(),
            vfreq: HashMap::new(),
            roots: None,
            iterations: None,
            verbose: false,
            log_json: None,
            max_consecutive_errors: 10,
            discovery_retries: 2,
            discovery_backoff: Duration::from_millis(50),
            journal_path: None,
            journal_interval: 1,
            metrics_path: None,
            metrics_addr: None,
            trace_dump: None,
            trace_len: 128,
        }
    }
}

/// Cross-field validation shared by the config file, the CLI and
/// [`run_with_shutdown`]: the footguns a typo'd deployment unit would
/// otherwise only reveal at 3 a.m.
fn validate_daemon(cfg: &DaemonConfig) -> Result<(), String> {
    if cfg.journal_interval == 0 {
        return Err("journal_interval must be at least 1 period".into());
    }
    // Every output file must be distinct: two writers racing on one path
    // through atomic renames would silently clobber each other.
    let outputs: [(&str, &Option<PathBuf>); 4] = [
        ("journal_path", &cfg.journal_path),
        ("log_json", &cfg.log_json),
        ("metrics_path", &cfg.metrics_path),
        ("trace_dump", &cfg.trace_dump),
    ];
    for (i, (name_a, a)) in outputs.iter().enumerate() {
        for (name_b, b) in &outputs[i + 1..] {
            if let (Some(a), Some(b)) = (a, b) {
                if a == b {
                    return Err(format!(
                        "{name_a} and {name_b} must differ: both are {}",
                        a.display()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Every flag `vfcd` accepts, in `--help` order: the flag, its value's
/// placeholder (`""` for a switch) and the config key the value sets.
/// `--flag VALUE` is exactly `key = VALUE` in the `--config` file. The
/// flags whose key is `""` exist only on the command line, and
/// [`parse_args`] handles each of them itself. [`usage`] renders these
/// rows as `vfcd --help`.
pub const FLAGS: [(&str, &str, &str); 19] = [
    ("--config", "FILE", ""),
    ("--monitor-only", "", ""),
    ("--iterations", "N", ""),
    ("--verbose", "", ""),
    ("--vfreq", "NAME=MHZ", ""),
    ("--deadline-budget", "FRAC", "deadline_budget_frac"),
    ("--ladder-recovery", "N", "ladder_recovery_periods"),
    ("--lease-ttl", "N", "lease_ttl"),
    ("--lease-grace", "N", "lease_grace"),
    ("--log-json", "FILE", "log_json"),
    ("--journal", "FILE", "journal_path"),
    ("--journal-interval", "N", "journal_interval"),
    ("--metrics", "FILE", "metrics_path"),
    ("--metrics-addr", "HOST:PORT", "metrics_addr"),
    ("--trace-dump", "FILE", "trace_dump"),
    ("--trace-len", "N", "trace_len"),
    ("--cgroup-root", "DIR", ""),
    ("--proc-root", "DIR", ""),
    ("--cpu-root", "DIR", ""),
];

/// `vfcd --help`: one row per flag of [`FLAGS`], with the config key
/// it sets beside it.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: vfcd [FLAG]...\n\n\
         The --config file loads first; every flag applies over it, wherever\n\
         --config stands. A flag with a key beside it sets that config key.\n\n",
    );
    for (flag, value, key) in FLAGS {
        out += format!("  {:<28}{key}", format!("{flag} {value}")).trim_end();
        out.push('\n');
    }
    out + "\n--monitor-only is mode = monitor; each --vfreq is one [vms] line.\n\
           The three roots go together or not at all; without them vfcd\n\
           attaches to the live host."
}

/// Set config key `key` from its text `value`: the one place a setting is
/// parsed and its footguns are caught, for a `key = value` line and for
/// the flag of [`FLAGS`] that names the key. The error says what is wrong
/// but not where; the caller names the line or the flag.
fn set_key(cfg: &mut DaemonConfig, key: &str, value: &str) -> Result<(), String> {
    fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
        value.parse().map_err(|_| format!("bad {key} {value:?}"))
    }
    let c = &mut cfg.controller;
    match key {
        "period_ms" => c.period = Micros::from_millis(num(key, value)?),
        "mode" => {
            c.mode = match value {
                "full" => ControlMode::Full,
                "monitor" => ControlMode::MonitorOnly,
                _ => return Err(format!("bad mode {value:?}")),
            }
        }
        "increase_trigger" => c.increase_trigger = num(key, value)?,
        "increase_factor" => c.increase_factor = num(key, value)?,
        "decrease_trigger" => c.decrease_trigger = num(key, value)?,
        "decrease_factor" => c.decrease_factor = num(key, value)?,
        "history_len" => c.history_len = num(key, value)?,
        "window_us" => c.window = Micros(num(key, value)?),
        "stale_sample_ttl" => c.stale_sample_ttl = num(key, value)?,
        "deadline_budget_frac" => c.deadline_budget_frac = num(key, value)?,
        "ladder_recovery_periods" => c.ladder_recovery_periods = num(key, value)?,
        "lease_ttl" => {
            // An explicit zero is always a footgun: it reads like "very
            // short lease" but actually means "no lease at all" — caps
            // would never fail safe. Disabling is the *default*; an
            // operator who sets the key wanted leases.
            c.cap_lease_ttl = num(key, value)?;
            if c.cap_lease_ttl == 0 {
                return Err("lease_ttl 0 disables leases entirely; leave it unset \
                            to run without fail-safe leases"
                    .into());
            }
        }
        "lease_grace" => c.cap_lease_grace = num(key, value)?,
        "max_consecutive_errors" => cfg.max_consecutive_errors = num(key, value)?,
        "discovery_retries" => cfg.discovery_retries = num(key, value)?,
        "discovery_backoff_ms" => cfg.discovery_backoff = Duration::from_millis(num(key, value)?),
        "journal_path" => cfg.journal_path = Some(PathBuf::from(value)),
        "journal_interval" => cfg.journal_interval = num(key, value)?,
        "log_json" => cfg.log_json = Some(PathBuf::from(value)),
        "metrics_path" => cfg.metrics_path = Some(PathBuf::from(value)),
        "metrics_addr" => cfg.metrics_addr = Some(value.to_owned()),
        "trace_dump" => cfg.trace_dump = Some(PathBuf::from(value)),
        "trace_len" => cfg.trace_len = num(key, value)?,
        _ => return Err(format!("unknown key {key:?}")),
    }
    Ok(())
}

/// Declare VM `name`'s guaranteed frequency from its MHz text: one
/// `[vms]` line or one `--vfreq NAME=MHZ`. `named` holds the VMs this
/// surface has already declared. A name given twice on one surface is an
/// error, while a flag overrides the file's entry for its VM.
fn set_vfreq(
    cfg: &mut DaemonConfig,
    named: &mut HashSet<String>,
    name: &str,
    mhz: &str,
) -> Result<(), String> {
    let mhz = mhz.parse().map_err(|_| format!("bad frequency {mhz:?}"))?;
    // A silently-overwritten guarantee is an operator error worth
    // failing loudly on.
    if !named.insert(name.to_owned()) {
        return Err(format!("duplicate VM name {name:?}"));
    }
    cfg.vfreq.insert(name.to_owned(), MHz(mhz));
    Ok(())
}

/// The footguns no single key shows, checked on the finished config.
fn validated(cfg: DaemonConfig) -> Result<DaemonConfig, String> {
    cfg.controller
        .validate()
        .map_err(|e| format!("invalid controller parameters: {e}"))?;
    validate_daemon(&cfg)?;
    Ok(cfg)
}

/// Parse the config-file format described in the module docs.
pub fn parse_config_file(content: &str) -> Result<DaemonConfig, String> {
    let mut cfg = DaemonConfig::default();
    let mut in_vms = false;
    let mut named = HashSet::new();
    for (lineno, raw) in content.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line == "[vms]" {
            in_vms = true;
            continue;
        }
        if line.starts_with('[') {
            return Err(at(format!("unknown section {line}")));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at("expected key = value".into()))?;
        let (key, value) = (key.trim(), value.trim());
        if in_vms {
            set_vfreq(&mut cfg, &mut named, key, value).map_err(at)?;
        } else if let "shard_count" | "apply_min_delta_us" = key {
            // Written by deployments that predate the single monitoring
            // loop (`shard_count`) or the removal of write hysteresis
            // (`apply_min_delta_us`); neither key selects anything now.
            eprintln!("vfcd: line {}: {key} is ignored", lineno + 1);
        } else {
            set_key(&mut cfg, key, value).map_err(at)?;
        }
    }
    validated(cfg)
}

/// Parse command-line arguments (no external crate; the surface is
/// tiny). The flags are the rows of [`FLAGS`]; `vfcd --help` prints
/// them ([`usage`]).
///
/// The `--config` file is loaded first and every flag applies over it,
/// wherever on the line the flag stands.
pub fn parse_args(args: &[String]) -> Result<DaemonConfig, String> {
    let mut configs = (0..args.len()).filter(|&at| args[at] == "--config");
    let mut cfg = match configs.next() {
        Some(at) => {
            let path = args.get(at + 1).ok_or("--config needs a value")?;
            let content =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_config_file(&content)?
        }
        None => DaemonConfig::default(),
    };
    // One file is the base; a second has no order to be merged in.
    if configs.next().is_some() {
        return Err("--config given more than once".into());
    }
    let mut roots: [Option<PathBuf>; 3] = Default::default();
    let mut named = HashSet::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let &(_, placeholder, key) = FLAGS
            .iter()
            .find(|(name, ..)| *name == flag)
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = match placeholder {
            "" => "",
            _ => {
                i += 1;
                args.get(i).ok_or_else(|| format!("{flag} needs a value"))?
            }
        };
        let at = |e: String| format!("{flag}: {e}");
        match flag {
            _ if !key.is_empty() => set_key(&mut cfg, key, value).map_err(at)?,
            // Loaded above.
            "--config" => {}
            "--monitor-only" => set_key(&mut cfg, "mode", "monitor")?,
            "--verbose" => cfg.verbose = true,
            "--iterations" => {
                let n = value
                    .parse()
                    .map_err(|_| at(format!("bad count {value:?}")))?;
                cfg.iterations = Some(n);
            }
            "--vfreq" => {
                let (name, mhz) = value
                    .split_once('=')
                    .ok_or_else(|| at(format!("expected NAME=MHZ, got {value:?}")))?;
                set_vfreq(&mut cfg, &mut named, name, mhz).map_err(at)?;
            }
            "--cgroup-root" => roots[0] = Some(PathBuf::from(value)),
            "--proc-root" => roots[1] = Some(PathBuf::from(value)),
            "--cpu-root" => roots[2] = Some(PathBuf::from(value)),
            _ => unreachable!("{flag} has neither a config key nor a case here"),
        }
        i += 1;
    }
    cfg.roots = match roots {
        [None, None, None] => None,
        [Some(c), Some(p), Some(u)] => Some((c, p, u)),
        _ => return Err("--cgroup-root, --proc-root and --cpu-root must be given together".into()),
    };
    validated(cfg)
}

/// Discover the filesystem backend, retrying with exponential backoff —
/// at boot the daemon may start before the cgroup/`/sys` mounts are up,
/// so a failed first probe is not fatal.
fn discover_backend(cfg: &DaemonConfig) -> Result<FsBackend, String> {
    let mut backoff = cfg.discovery_backoff;
    let attempts = cfg.discovery_retries + 1;
    let mut last_err = String::new();
    for attempt in 1..=attempts {
        let probe = match &cfg.roots {
            Some((c, p, u)) => Ok(FsBackend::new(c, p, u)),
            None => FsBackend::system().map_err(|e| e.to_string()),
        };
        match probe {
            Ok(backend) => {
                let backend = backend.with_vfreq_table(cfg.vfreq.clone());
                if backend.topology().nr_cpus > 0 {
                    return Ok(backend);
                }
                last_err = "backend reports zero CPUs — wrong roots?".into();
            }
            Err(e) => last_err = e,
        }
        if attempt < attempts {
            eprintln!(
                "vfcd: backend discovery attempt {attempt}/{attempts} failed: {last_err}; \
                 retrying in {backoff:?}"
            );
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
    }
    Err(format!(
        "backend discovery failed after {attempts} attempts: {last_err}"
    ))
}

/// Best-effort safety fallback: remove every `cpu.max` cap the backend
/// knows about, so tenants are never left throttled by a controller that
/// is about to die. Returns the number of vCPUs uncapped.
pub fn uncap_all<B: HostBackend + ?Sized>(backend: &mut B) -> usize {
    let mut cleared = 0;
    for vm in backend.vms() {
        for j in 0..vm.nr_vcpus {
            if backend.clear_vcpu_max(vm.vm, VcpuId::new(j)).is_ok() {
                cleared += 1;
            }
        }
    }
    cleared
}

/// Cooperative shutdown for [`run_with_shutdown`] — the SIGTERM analogue
/// for an embedded or test-driven daemon. Cloneable; any clone may
/// request shutdown from another thread. Shutdown is a **warm handoff**:
/// the journal and JSON log are flushed and every cap is left in force
/// for the successor to adopt, unlike the circuit breaker, which uncaps
/// before exiting.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle {
    inner: Arc<ShutdownFlags>,
}

#[derive(Debug, Default)]
struct ShutdownFlags {
    requested: AtomicBool,
    /// Shut down once this many iterations have completed (0 = unset) —
    /// the deterministic variant for single-threaded tests.
    after: AtomicU64,
}

impl ShutdownHandle {
    /// A handle with no shutdown requested.
    pub fn new() -> Self {
        ShutdownHandle::default()
    }

    /// Request shutdown; the loop exits warm before its next iteration.
    pub fn request(&self) {
        self.inner.requested.store(true, Ordering::SeqCst);
    }

    /// Has [`ShutdownHandle::request`] been called?
    pub fn is_requested(&self) -> bool {
        self.inner.requested.load(Ordering::SeqCst)
    }

    /// Request shutdown after `n` completed iterations — deterministic
    /// "kill the daemon mid-run" for single-threaded tests.
    pub fn request_after_iterations(&self, n: u64) {
        self.inner.after.store(n.max(1), Ordering::SeqCst);
    }

    fn due(&self, done: u64) -> bool {
        if self.is_requested() {
            return true;
        }
        let after = self.inner.after.load(Ordering::SeqCst);
        after > 0 && done >= after
    }
}

/// Flush the controller snapshot to the configured journal path, if any.
/// A failed journal write must never take the control loop down; it is
/// reported and the previous (intact, thanks to the atomic rename)
/// journal stays in place.
fn save_journal(cfg: &DaemonConfig, controller: &Controller) {
    if let Some(path) = &cfg.journal_path {
        if let Err(e) = controller.export_state().save(path) {
            eprintln!("vfcd: journal write failed: {e}");
        }
    }
}

/// Publish the current metrics page to every configured sink: the
/// atomically-swapped textfile and/or the HTTP endpoint. A failed
/// textfile write is reported, never fatal — observability must not
/// take the control loop down.
fn publish_metrics(cfg: &DaemonConfig, server: &Option<MetricsServer>, controller: &Controller) {
    if cfg.metrics_path.is_none() && server.is_none() {
        return;
    }
    let page = controller.telemetry().render_prometheus();
    if let Some(path) = &cfg.metrics_path {
        if let Err(e) = replace_file(path, page.as_bytes()) {
            eprintln!(
                "vfcd: metrics textfile {} write failed: {e}",
                path.display()
            );
        }
    }
    if let Some(server) = server {
        server.publish(page);
    }
}

/// Every exit path's flush, tagged with what ended the loop (`reason`):
/// the journal; the buffered JSON log, so the last iterations' records
/// are never lost to the buffer; the cumulative health totals — with the
/// backend's failed-listing count beside them — on stderr (so the
/// since-boot counters survive in the supervisor's log even when no
/// JSON log was configured); the trace ring, dumped to `trace_dump`
/// with the reason; and one last metrics page.
fn flush_on_exit<B: HostBackend + ?Sized>(
    reason: &str,
    cfg: &DaemonConfig,
    controller: &Controller,
    backend: &B,
    json_log: &mut Option<std::io::BufWriter<std::fs::File>>,
    server: &Option<MetricsServer>,
    trace: &TraceRing,
) {
    use std::io::Write as _;
    save_journal(cfg, controller);
    if let Some(file) = json_log {
        if let Err(e) = file.flush() {
            eprintln!("vfcd: json log flush failed: {e}");
        }
    }
    let mut totals = serde::Serialize::ser(&controller.health_totals());
    if let serde::Value::Object(fields) = &mut totals {
        fields.push((
            "listing_errors".to_owned(),
            serde::Serialize::ser(&backend.listing_errors()),
        ));
    }
    let totals = serde_json::to_string(&totals).expect("health totals serialization cannot fail");
    eprintln!("vfcd: exit ({reason}); cumulative health: {totals}");
    if let Some(path) = &cfg.trace_dump {
        match replace_file(path, trace.dump_json(reason).as_bytes()) {
            Ok(()) => eprintln!(
                "vfcd: dumped {} iteration traces to {}",
                trace.len(),
                path.display()
            ),
            Err(e) => eprintln!("vfcd: trace dump to {} failed: {e}", path.display()),
        }
    }
    publish_metrics(cfg, server, controller);
}

/// Clear every *limited* `cpu.max` cap of `vm`; returns how many were
/// cleared. An unlimited cap is left alone.
fn clear_limited_caps<B: HostBackend + ?Sized>(backend: &mut B, vm: &VmCgroupInfo) -> usize {
    (0..vm.nr_vcpus)
        .map(VcpuId::new)
        .filter(|&vcpu| {
            let limited = matches!(backend.vcpu_max(vm.vm, vcpu), Ok(max) if !max.is_unlimited());
            limited && backend.clear_vcpu_max(vm.vm, vcpu).is_ok()
        })
        .count()
}

/// Cold-start orphan sweep: clear every *limited* cap in force. Used
/// when journalling is on but no trustworthy journal exists — whatever
/// caps are present were left by a dead predecessor and no longer match
/// any known state.
fn sweep_orphan_caps<B: HostBackend + ?Sized>(backend: &mut B) -> usize {
    let vms = backend.vms();
    vms.iter().map(|vm| clear_limited_caps(backend, vm)).sum()
}

/// Boot-time reconciliation of journal vs live cgroup state:
///
/// * no / rejected journal → cold start, sweep orphan caps;
/// * VM in both → resume wallet/history, then adopt the `cpu.max`
///   actually in force as `c_{i,j,t-1}` (a read-back failure keeps the
///   journal's value);
/// * live VM not in the journal → cold start; any limited cap it
///   carries is an orphan from the predecessor's later writes and is
///   cleared;
/// * journalled VM no longer live → dropped with the journal.
fn reconcile_on_boot<B: HostBackend + ?Sized>(
    path: &Path,
    cfg: &DaemonConfig,
    backend: &mut B,
    controller: &mut Controller,
) {
    let period = cfg.controller.period;
    let journal = match persist::Journal::load(path, period, persist::DEFAULT_MAX_AGE) {
        LoadOutcome::Fresh(journal) => journal,
        LoadOutcome::Missing => {
            let cleared = sweep_orphan_caps(backend);
            eprintln!(
                "vfcd: no journal at {}; cold start ({cleared} orphan caps cleared)",
                path.display()
            );
            return;
        }
        LoadOutcome::Rejected(reason) => {
            let cleared = sweep_orphan_caps(backend);
            eprintln!(
                "vfcd: journal rejected — {reason}; cold start ({cleared} orphan caps cleared)"
            );
            return;
        }
    };

    let live = backend.vms();
    let resumed: HashSet<String> = controller
        .restore_state(&journal, &live)
        .into_iter()
        .collect();
    let mut adopted = 0usize;
    let mut orphans = 0usize;
    let mut cold = 0usize;
    for vm in &live {
        if resumed.contains(&vm.name) {
            // Survivor: what is actually in force beats what the journal
            // remembers (the predecessor may have died mid-apply).
            for j in 0..vm.nr_vcpus {
                let vcpu = VcpuId::new(j);
                if let Ok(max) = backend.vcpu_max(vm.vm, vcpu) {
                    let alloc = cpu_max_to_allocation(max, period);
                    controller.adopt_allocation(VcpuAddr::new(vm.vm, vcpu), alloc);
                    adopted += 1;
                }
            }
        } else {
            // Appeared since the snapshot: cold start, and any limited
            // cap it carries belongs to a configuration that no longer
            // exists.
            cold += 1;
            orphans += clear_limited_caps(backend, vm);
        }
    }
    eprintln!(
        "vfcd: warm restart from {}: {}/{} journalled VMs resumed \
         ({adopted} caps adopted, {orphans} orphan caps cleared, {cold} VMs cold-started)",
        path.display(),
        resumed.len(),
        journal.vms.len(),
    );
}

/// Build the backend (with discovery retries) and run the loop. Returns
/// the number of iterations executed. The loop sleeps `p − spent`
/// between iterations exactly as §III.B.6 describes.
pub fn run(cfg: DaemonConfig) -> Result<u64, String> {
    let mut backend = discover_backend(&cfg)?;
    run_with_shutdown(cfg, &mut backend, &ShutdownHandle::new())
}

/// Run the control loop against an already-built backend until `shutdown`
/// is pulled or the iteration limit is reached. Split from [`run`] so
/// tests (and embedders) can drive simulated or fault-injecting backends
/// through the exact production loop, circuit breaker included. The full
/// daemon lifecycle: boot-time journal reconciliation, the control loop
/// with per-period journal flushes, and three exits —
///
/// * **shutdown / iteration limit** (warm handoff): journal and JSON
///   log flushed, caps left in force, `Ok(iterations)`;
/// * **circuit breaker**: every vCPU uncapped (the safe state for
///   tenants), journal and log still flushed (wallets survive; the
///   uncapped state is what reconciliation will read back), `Err`.
pub fn run_with_shutdown<B: HostBackend + ?Sized>(
    cfg: DaemonConfig,
    backend: &mut B,
    shutdown: &ShutdownHandle,
) -> Result<u64, String> {
    validate_daemon(&cfg)?;
    let topo = backend.topology();
    if topo.nr_cpus == 0 {
        return Err("backend reports zero CPUs — wrong roots?".into());
    }
    if topo.max_mhz == MHz::ZERO {
        // Eq. 2 divides by the node's maximum frequency: every guarantee
        // would be zero cycles.
        return Err("backend reports a maximum frequency of 0 MHz — \
             cpu0/cpufreq/cpuinfo_max_freq is missing or unreadable"
            .into());
    }
    let period = cfg.controller.period;
    let mut controller = Controller::new(cfg.controller.clone(), topo);
    let mut trace = TraceRing::new(cfg.trace_len);
    let metrics_server = match &cfg.metrics_addr {
        Some(addr) => {
            let server = MetricsServer::bind(addr.as_str())
                .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
            eprintln!("vfcd: serving /metrics on http://{}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    eprintln!(
        "vfcd: {} CPUs at {}, period {:?}, mode {:?}, {} VM frequencies declared",
        topo.nr_cpus,
        topo.max_mhz,
        Duration::from_micros(period.as_u64()),
        cfg.controller.mode,
        cfg.vfreq.len(),
    );

    if let Some(path) = cfg.journal_path.clone() {
        reconcile_on_boot(&path, &cfg, backend, &mut controller);
    }

    let mut json_log = match &cfg.log_json {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?,
        )),
        None => None,
    };

    let mut done = 0u64;
    let mut consecutive_errors = 0u32;
    // One report, reused every period: its row and health buffers reach
    // steady-state capacity after a few iterations, keeping the
    // iteration itself off the allocator (see `Controller::iterate_into`);
    // the trace entry and the metrics page are built after it.
    let mut report = IterationReport::default();
    let (reason, outcome) = loop {
        // Warm handoff on both: the successor adopts the caps we leave.
        if shutdown.due(done) {
            eprintln!("vfcd: shutdown requested after {done} iterations; warm handoff");
            break ("shutdown", Ok(done));
        }
        if cfg.iterations.is_some_and(|limit| done >= limit) {
            break ("iteration-limit", Ok(done));
        }
        let started = std::time::Instant::now();
        let errored = match controller.iterate_into(backend, &mut report) {
            Ok(()) => {
                trace.push(iteration_trace(controller.iterations(), &report));
                if cfg.verbose {
                    if report.health.degraded {
                        eprintln!(
                            "  degraded: {} read errors, {} write errors ({} retried), \
                             {} stale, {} skipped, {} vanished",
                            report.health.read_errors,
                            report.health.write_errors,
                            report.health.write_retries,
                            report.health.stale_reused,
                            report.health.skipped_vcpus.len(),
                            report.health.vanished_vms.len(),
                        );
                    }
                    for v in &report.vcpus {
                        eprintln!(
                            "  {} {}: used {} est {} alloc {} ({})",
                            v.vm_name, v.addr.vcpu, v.used, v.estimate, v.alloc, v.freq_est
                        );
                    }
                }
                if let Some(file) = &mut json_log {
                    use std::io::Write as _;
                    // Documented log-line health semantics: `health` is
                    // cumulative since boot, `health_delta` is this
                    // iteration's HealthReport (which resets each period).
                    let mut value = serde::Serialize::ser(&report);
                    if let serde::Value::Object(fields) = &mut value {
                        if let Some(entry) = fields.iter_mut().find(|(k, _)| k == "health") {
                            entry.0 = "health_delta".to_owned();
                        }
                        fields.push((
                            "health".to_owned(),
                            serde::Serialize::ser(&controller.health_totals()),
                        ));
                    }
                    let line =
                        serde_json::to_string(&value).expect("report serialization cannot fail");
                    if let Err(e) = writeln!(file, "{line}") {
                        eprintln!("vfcd: json log write failed: {e}");
                    }
                }
                report.health.read_errors > 0 || report.health.write_errors > 0
            }
            Err(e) => {
                eprintln!("vfcd: iteration failed: {e} (continuing)");
                true
            }
        };
        done += 1;
        if done.is_multiple_of(cfg.journal_interval) {
            save_journal(&cfg, &controller);
        }
        publish_metrics(&cfg, &metrics_server, &controller);

        // Circuit breaker: a persistently failing host is one we must not
        // keep half-controlling. Uncap everything (the safe state for
        // tenants — guarantees become "at least what the scheduler gives
        // you") and exit so the supervisor can restart us. The journal is
        // still flushed: wallets and histories survive, and the next boot
        // reads the uncapped state back during reconciliation.
        if errored {
            consecutive_errors += 1;
            if cfg.max_consecutive_errors > 0 && consecutive_errors >= cfg.max_consecutive_errors {
                let cleared = uncap_all(backend);
                break (
                    "circuit-breaker",
                    Err(format!(
                        "circuit breaker: {consecutive_errors} consecutive degraded iterations; \
                         uncapped {cleared} vCPUs and giving up"
                    )),
                );
            }
        } else {
            consecutive_errors = 0;
        }

        let spent = started.elapsed();
        let period = Duration::from_micros(period.as_u64());
        if spent < period {
            std::thread::sleep(period - spent);
        }
    };
    flush_on_exit(
        reason,
        &cfg,
        &controller,
        backend,
        &mut json_log,
        &metrics_server,
        &trace,
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_file_happy_path() {
        let cfg = parse_config_file(
            "period_ms = 500\nmode = monitor\nincrease_trigger = 0.9\n\
             increase_factor = 0.5 # aggressive\nhistory_len = 7\nwindow_us = 50000\n\
             \n[vms]\nweb = 500\nbatch = 1800\n",
        )
        .unwrap();
        assert_eq!(cfg.controller.period, Micros::from_millis(500));
        assert_eq!(cfg.controller.mode, ControlMode::MonitorOnly);
        assert_eq!(cfg.controller.increase_trigger, 0.9);
        assert_eq!(cfg.controller.increase_factor, 0.5);
        assert_eq!(cfg.controller.history_len, 7);
        assert_eq!(cfg.controller.window, Micros(50_000));
        assert_eq!(cfg.vfreq["web"], MHz(500));
        assert_eq!(cfg.vfreq["batch"], MHz(1800));
    }

    #[test]
    fn config_file_ignored_keys() {
        // Deployed files carry these keys; they must keep parsing, to
        // nothing.
        let plain = parse_config_file("[vms]\nweb = 500\n").unwrap();
        for line in [
            "shard_count = auto",
            "shard_count = 4",
            "apply_min_delta_us = 0",
            "apply_min_delta_us = 1500",
        ] {
            let old = parse_config_file(&format!("{line}\n[vms]\nweb = 500\n")).unwrap();
            assert_eq!(old.controller, plain.controller);
            assert_eq!(old.vfreq, plain.vfreq);
        }
    }

    #[test]
    fn config_file_rejects_junk() {
        assert!(parse_config_file("nonsense").is_err());
        assert!(parse_config_file("mode = sideways").is_err());
        assert!(parse_config_file("period_ms = soon").is_err());
        assert!(parse_config_file("[network]\nmtu = 9000").is_err());
        assert!(parse_config_file("[vms]\nweb = fast").is_err());
        assert!(parse_config_file("unknown_key = 1").is_err());
        // Invalid combinations are caught by ControllerConfig::validate.
        assert!(parse_config_file("history_len = 1").is_err());
    }

    #[test]
    fn config_file_overload_knobs() {
        let cfg = parse_config_file(
            "deadline_budget_frac = 0.25\nladder_recovery_periods = 4\n\
             lease_ttl = 30\nlease_grace = 5\n",
        )
        .unwrap();
        assert_eq!(cfg.controller.deadline_budget_frac, 0.25);
        assert_eq!(cfg.controller.ladder_recovery_periods, 4);
        assert_eq!(cfg.controller.cap_lease_ttl, 30);
        assert_eq!(cfg.controller.cap_lease_grace, 5);
        // Footguns rejected at load time, not at 3 a.m.
        assert!(parse_config_file("deadline_budget_frac = 1.0").is_err());
        assert!(parse_config_file("lease_ttl = 0").is_err());
        assert!(
            parse_config_file("deadline_budget_frac = 0.5\nladder_recovery_periods = 0").is_err()
        );
    }

    #[test]
    fn each_keyed_flag_is_its_config_key() {
        // The flag → key table, and per row a value both surfaces accept,
        // what it must set, and values both must reject.
        type Sets = fn(&DaemonConfig) -> bool;
        let rows: [(&str, &str, &str, Sets, &[&str]); 11] = [
            (
                "--deadline-budget",
                "deadline_budget_frac",
                "0.3",
                |c| c.controller.deadline_budget_frac == 0.3,
                &["1.5", "x"],
            ),
            (
                "--ladder-recovery",
                "ladder_recovery_periods",
                "2",
                |c| c.controller.ladder_recovery_periods == 2,
                &["-1"],
            ),
            (
                "--lease-ttl",
                "lease_ttl",
                "10",
                |c| c.controller.cap_lease_ttl == 10,
                &["0", "x"],
            ),
            (
                "--lease-grace",
                "lease_grace",
                "4",
                |c| c.controller.cap_lease_grace == 4,
                &["-3"],
            ),
            (
                "--log-json",
                "log_json",
                "/tmp/x.jsonl",
                |c| c.log_json == Some(PathBuf::from("/tmp/x.jsonl")),
                &[],
            ),
            (
                "--journal",
                "journal_path",
                "/tmp/j.json",
                |c| c.journal_path == Some(PathBuf::from("/tmp/j.json")),
                &[],
            ),
            (
                "--journal-interval",
                "journal_interval",
                "3",
                |c| c.journal_interval == 3,
                &["0", "x"],
            ),
            (
                "--metrics",
                "metrics_path",
                "/run/vfcd/metrics.prom",
                |c| c.metrics_path == Some(PathBuf::from("/run/vfcd/metrics.prom")),
                &[],
            ),
            (
                "--metrics-addr",
                "metrics_addr",
                "127.0.0.1:9753",
                |c| c.metrics_addr.as_deref() == Some("127.0.0.1:9753"),
                &[],
            ),
            (
                "--trace-dump",
                "trace_dump",
                "/var/log/vfcd-traces.json",
                |c| c.trace_dump == Some(PathBuf::from("/var/log/vfcd-traces.json")),
                &[],
            ),
            (
                "--trace-len",
                "trace_len",
                "64",
                |c| c.trace_len == 64,
                &["many"],
            ),
        ];
        let keyed: Vec<_> = FLAGS
            .iter()
            .filter(|(.., key)| !key.is_empty())
            .map(|&(flag, _, key)| (flag, key))
            .collect();
        let tested: Vec<_> = rows.iter().map(|row| (row.0, row.1)).collect();
        assert_eq!(keyed, tested);
        for (flag, key, good, sets, bad) in rows {
            let cli = parse_args(&args(&[flag, good])).unwrap();
            assert!(sets(&cli), "{flag} {good}");
            let file = parse_config_file(&format!("{key} = {good}")).unwrap();
            assert_eq!(cli, file, "{flag} {good} vs {key} = {good}");
            // A value one key rejects names the flag or the line; one the
            // whole config rejects names the key.
            for value in bad {
                let err = parse_args(&args(&[flag, value])).unwrap_err();
                assert!(
                    err.starts_with(&format!("{flag}: ")) || err.contains(key),
                    "{flag} {value}: {err}"
                );
                let err = parse_config_file(&format!("{key} = {value}")).unwrap_err();
                assert!(
                    err.starts_with("line 1: ") || err.contains(key),
                    "{key} = {value}: {err}"
                );
            }
        }
        // Every output path must be its own, on either surface.
        for pair in [
            [
                ("--metrics", "metrics_path"),
                ("--trace-dump", "trace_dump"),
            ],
            [("--journal", "journal_path"), ("--log-json", "log_json")],
        ] {
            let [(flag_a, key_a), (flag_b, key_b)] = pair;
            let err = parse_args(&args(&[flag_a, "/tmp/same", flag_b, "/tmp/same"])).unwrap_err();
            assert!(err.contains("must differ"), "{err}");
            let err = parse_config_file(&format!("{key_a} = /tmp/same\n{key_b} = /tmp/same\n"))
                .unwrap_err();
            assert!(err.contains("must differ"), "{err}");
        }
    }

    #[test]
    fn the_usage_has_a_row_per_flag() {
        let usage = usage();
        for (flag, value, key) in FLAGS {
            let row = [flag, value, key].into_iter().filter(|w| !w.is_empty());
            assert!(
                usage
                    .lines()
                    .any(|line| line.split_whitespace().eq(row.clone())),
                "{flag} missing from:\n{usage}"
            );
        }
    }

    #[test]
    fn the_documented_configurations_parse() {
        fn fenced<'a>(text: &'a str, fence: &str) -> &'a str {
            let at = text
                .find(fence)
                .unwrap_or_else(|| panic!("no {fence} block"));
            let body = &text[at + fence.len()..];
            &body[..body.find("```").expect("unclosed block")]
        }
        let module_doc: String = include_str!("daemon.rs")
            .lines()
            .map_while(|line| line.strip_prefix("//!"))
            .map(|line| format!("{}\n", line.strip_prefix(' ').unwrap_or(line)))
            .collect();
        let cfg = parse_config_file(fenced(&module_doc, "```text")).unwrap();
        assert_eq!(cfg.vfreq.len(), 2);

        let readme = include_str!("../../../README.md");
        let runbook = &readme[readme.find("## `vfcd` operations runbook").unwrap()..];
        let cfg = parse_config_file(fenced(runbook, "```ini")).unwrap();
        assert_eq!(cfg.vfreq.len(), 2);
        let command = fenced(runbook, "```bash");
        let flags: Vec<String> = command[command.find("release/vfcd").unwrap()..]
            .split_whitespace()
            .skip(1)
            .filter(|word| *word != "\\")
            .map(str::to_owned)
            .collect();
        let cfg = parse_args(&flags).unwrap();
        assert_eq!(cfg.vfreq.len(), 2);
        assert!(cfg.journal_path.is_some() && cfg.log_json.is_some());
        // The runbook's flag → key table is the table's keyed rows.
        for (flag, value, key) in FLAGS.iter().filter(|(.., key)| !key.is_empty()) {
            let row = format!("| `{flag} {value}` | `{key}` |");
            assert!(runbook.contains(&row), "README lacks {row}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let cfg = parse_config_file("# top comment\n\nperiod_ms = 1000 # inline\n").unwrap();
        assert_eq!(cfg.controller.period, Micros::SEC);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parsing() {
        let dir = std::env::temp_dir().join(format!("vfcd-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vfcd.conf");
        std::fs::write(&path, "period_ms = 100\n").unwrap();
        let line = [
            "--config",
            path.to_str().unwrap(),
            "--monitor-only",
            "--iterations",
            "5",
            "--vfreq",
            "web=500",
            "--vfreq",
            "db=1200",
            "--verbose",
            "--cgroup-root",
            "/a",
            "--proc-root",
            "/b",
            "--cpu-root",
            "/c",
        ];
        // Every command-line-only flag; the keyed ones have their own test.
        for (flag, ..) in FLAGS.iter().filter(|(.., key)| key.is_empty()) {
            assert!(line.contains(flag), "{flag} untested");
        }
        let cfg = parse_args(&args(&line)).unwrap();
        assert_eq!(cfg.controller.period, Micros::from_millis(100));
        assert_eq!(cfg.controller.mode, ControlMode::MonitorOnly);
        assert_eq!(cfg.iterations, Some(5));
        assert!(cfg.verbose);
        assert_eq!(cfg.vfreq.len(), 2);
        assert_eq!(cfg.vfreq["db"], MHz(1200));
        assert!(cfg.roots.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cli_roots_must_come_together() {
        assert!(parse_args(&args(&["--cgroup-root", "/x"])).is_err());
        let cfg = parse_args(&args(&[
            "--cgroup-root",
            "/a",
            "--proc-root",
            "/b",
            "--cpu-root",
            "/c",
        ]))
        .unwrap();
        assert!(cfg.roots.is_some());
    }

    #[test]
    fn cli_rejects_unknown_and_malformed() {
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--vfreq", "nofreq"])).is_err());
        assert!(parse_args(&args(&["--iterations"])).is_err());
        assert!(parse_args(&args(&["--iterations", "many"])).is_err());
    }

    #[test]
    fn daemon_runs_against_a_fixture() {
        use vfc_cgroupfs::fixture::FixtureTree;
        let fx = FixtureTree::builder()
            .cpus(2, MHz(2400))
            .vm("web", 1, &[11])
            .build();
        let mut cfg = DaemonConfig {
            iterations: Some(3),
            ..DaemonConfig::default()
        };
        cfg.vfreq.insert("web".into(), MHz(500));
        // Short period so the test sleeps ≤150 ms total; must stay well
        // above the 1 ms capping floor or every capping legitimately
        // rounds up to "max".
        cfg.controller.period = Micros::from_millis(50);
        cfg.roots = Some((fx.cgroup_root(), fx.proc_root(), fx.cpu_root()));
        let ran = run(cfg).unwrap();
        assert_eq!(ran, 3);
        // The idle web VM ends up floored.
        assert!(!fx.vcpu_cpu_max("web", 0).is_unlimited());
    }

    #[test]
    fn daemon_writes_json_lines() {
        use vfc_cgroupfs::fixture::FixtureTree;
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("web", 1, &[12])
            .build();
        let log = fx.root().join("vfcd.jsonl");
        let mut cfg = DaemonConfig {
            iterations: Some(2),
            log_json: Some(log.clone()),
            ..DaemonConfig::default()
        };
        cfg.controller.period = Micros::from_millis(50);
        cfg.roots = Some((fx.cgroup_root(), fx.proc_root(), fx.cpu_root()));
        run(cfg).unwrap();
        let content = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        // Each line is a valid IterationReport JSON document with the
        // documented health semantics: `health` is cumulative since
        // boot, `health_delta` is the per-iteration report — operators
        // grep the log for degradations, not the verbose stderr.
        for (i, line) in lines.iter().enumerate() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["vcpus"].is_array());
            assert!(
                v["timings"]["total"].is_object()
                    || v["timings"]["total"].is_number()
                    || !v["timings"]["total"].is_null()
            );
            assert!(v["health"].is_object(), "health missing: {line}");
            assert_eq!(
                v["health"]["iterations"].as_u64(),
                Some(i as u64 + 1),
                "cumulative iterations wrong: {line}"
            );
            assert!(v["health"]["read_errors"].as_u64().is_some());
            assert!(v["health"]["write_errors"].as_u64().is_some());
            assert!(v["health"]["degraded_iterations"].as_u64().is_some());
            assert!(
                v["health_delta"].is_object(),
                "health_delta missing: {line}"
            );
            assert!(v["health_delta"]["read_errors"].as_u64().is_some());
            assert!(v["health_delta"]["degraded"].as_bool().is_some());
        }
    }

    #[test]
    fn daemon_publishes_metrics_and_dumps_traces() {
        use vfc_cgroupfs::fixture::FixtureTree;
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("web", 1, &[14])
            .build();
        let metrics = fx.root().join("vfcd.prom");
        let traces = fx.root().join("vfcd-traces.json");
        let mut cfg = DaemonConfig {
            iterations: Some(3),
            metrics_path: Some(metrics.clone()),
            trace_dump: Some(traces.clone()),
            trace_len: 2,
            ..DaemonConfig::default()
        };
        cfg.vfreq.insert("web".into(), MHz(500));
        cfg.controller.period = Micros::from_millis(50);
        cfg.roots = Some((fx.cgroup_root(), fx.proc_root(), fx.cpu_root()));
        run(cfg).unwrap();

        // The textfile is a complete exposition: every stage histogram,
        // the market counters and the node's credit totals.
        let page = std::fs::read_to_string(&metrics).unwrap();
        assert!(page.contains("# TYPE vfc_stage_duration_seconds histogram"));
        for stage in vfc_telemetry::STAGE_NAMES {
            assert!(
                page.contains(&format!(
                    "vfc_stage_duration_seconds_count{{stage=\"{stage}\"}} 3"
                )),
                "stage {stage} missing from exposition:\n{page}"
            );
        }
        assert!(page.contains("vfc_iterations_total 3"));
        assert!(page.contains("vfc_market_cycles_usec_total{outcome=\"sold\"}"));
        assert!(page.contains("\nvfc_credit_balance_usec "));
        assert!(page.contains("vfc_monitor_read_errors_total 0"));

        // The trace dump holds the last `trace_len` iterations, tagged
        // with the exit reason.
        let dump: vfc_telemetry::TraceDump =
            serde_json::from_str(&std::fs::read_to_string(&traces).unwrap()).unwrap();
        assert_eq!(dump.reason, "iteration-limit");
        assert_eq!(dump.iterations.len(), 2);
        assert_eq!(dump.iterations[1].iteration, 3);
        assert_eq!(dump.iterations[1].stages_us.len(), 6);
        assert!(dump.iterations[1]
            .vm_alloc_us
            .iter()
            .any(|(n, _)| n == "web"));
    }

    #[test]
    fn a_huge_trace_len_boots_and_dumps_what_ran() {
        use vfc_cgroupfs::fixture::FixtureTree;
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("web", 1, &[17])
            .build();
        let out = fx.root().join("out");
        std::fs::create_dir(&out).unwrap();
        let (metrics, traces) = (out.join("vfcd.prom"), out.join("vfcd-traces.json"));
        let mut cfg = parse_config_file("trace_len = 100000000000\nperiod_ms = 20\n").unwrap();
        cfg.iterations = Some(2);
        cfg.metrics_path = Some(metrics.clone());
        cfg.trace_dump = Some(traces.clone());
        cfg.roots = Some((fx.cgroup_root(), fx.proc_root(), fx.cpu_root()));
        assert_eq!(run(cfg).unwrap(), 2);

        let dump: vfc_telemetry::TraceDump =
            serde_json::from_str(&std::fs::read_to_string(&traces).unwrap()).unwrap();
        assert_eq!(dump.capacity, 100_000_000_000);
        assert_eq!(dump.iterations.len(), 2);
        // Both files went through one durable tmp → rename writer.
        let mut left: Vec<_> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        left.sort();
        assert_eq!(left, ["vfcd-traces.json", "vfcd.prom"]);
        assert!(std::fs::read_to_string(&metrics)
            .unwrap()
            .contains("vfc_iterations_total 2"));
    }

    #[test]
    fn daemon_accepts_metrics_addr_and_runs() {
        // The live HTTP round-trip is covered by the telemetry crate's
        // MetricsServer tests; here we assert the daemon binds the
        // listener (ephemeral port) and runs the loop to completion.
        use vfc_cgroupfs::fixture::FixtureTree;
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("web", 1, &[15])
            .build();
        let mut cfg = DaemonConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..DaemonConfig::default()
        };
        cfg.controller.period = Micros::from_millis(20);
        cfg.roots = Some((fx.cgroup_root(), fx.proc_root(), fx.cpu_root()));
        let handle = ShutdownHandle::new();
        handle.request_after_iterations(4);
        let mut backend = fx.backend();
        let ran = run_with_shutdown(cfg, &mut backend, &handle).unwrap();
        assert_eq!(ran, 4);
        // An unbindable address fails loudly at boot, not mid-loop.
        let mut bad = DaemonConfig {
            metrics_addr: Some("256.0.0.1:1".into()),
            ..DaemonConfig::default()
        };
        bad.roots = Some((fx.cgroup_root(), fx.proc_root(), fx.cpu_root()));
        let err = run(bad).unwrap_err();
        assert!(err.contains("metrics endpoint"), "{err}");
    }

    #[test]
    fn the_scrape_endpoint_serves_the_page_and_refuses_typed() {
        use std::io::{Read as _, Write as _};
        use vfc_cgroupfs::fixture::FixtureTree;
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("web", 1, &[16])
            .build();
        let mut backend = fx.backend();
        let cfg = DaemonConfig::default();
        let mut controller = Controller::new(cfg.controller.clone(), backend.topology());
        controller.iterate(&mut backend).unwrap();
        // What `--metrics-addr` binds, fed the way the loop feeds it.
        let server = Some(vfc_telemetry::MetricsServer::bind("127.0.0.1:0").unwrap());
        publish_metrics(&cfg, &server, &controller);
        let addr = server.as_ref().unwrap().local_addr();
        let exchange = |request: &[u8]| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream.write_all(request).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        let scrape = || {
            let response = exchange(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            let (_, body) = response.split_once("\r\n\r\n").unwrap();
            assert_eq!(body, controller.telemetry().render_prometheus());
        };
        scrape();
        // Headers that never finish: 408 once the read deadline passes.
        let response = exchange(b"GET /metrics HTTP/1.1\r\n");
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        // A declared body over the cap: 413 before a body byte is read.
        let response = exchange(b"POST /metrics HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        scrape();
    }

    #[test]
    fn daemon_errors_on_empty_topology() {
        let dir = std::env::temp_dir().join(format!("vfcd-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = DaemonConfig {
            roots: Some((dir.clone(), dir.clone(), dir.clone())),
            iterations: Some(1),
            discovery_retries: 0,
            ..DaemonConfig::default()
        };
        let err = run(cfg).unwrap_err();
        assert!(err.contains("discovery failed after 1 attempts"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_errors_on_missing_max_frequency() {
        use vfc_cgroupfs::fixture::FixtureTree;
        let fx = FixtureTree::builder()
            .cpus(2, MHz(2400))
            .vm("web", 1, &[11])
            .build();
        std::fs::remove_file(fx.cpu_root().join("cpu0/cpufreq/cpuinfo_max_freq")).unwrap();
        let cfg = DaemonConfig {
            roots: Some((fx.cgroup_root(), fx.proc_root(), fx.cpu_root())),
            iterations: Some(1),
            ..DaemonConfig::default()
        };
        let err = run(cfg).unwrap_err();
        assert!(err.contains("cpu0/cpufreq/cpuinfo_max_freq"), "{err}");
        assert!(fx.vcpu_cpu_max("web", 0).is_unlimited(), "nothing written");
    }

    #[test]
    fn discovery_retries_before_giving_up() {
        let dir = std::env::temp_dir().join(format!("vfcd-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = DaemonConfig {
            roots: Some((dir.clone(), dir.clone(), dir.clone())),
            iterations: Some(1),
            discovery_retries: 2,
            ..DaemonConfig::default()
        };
        cfg.discovery_backoff = Duration::from_millis(1);
        let started = std::time::Instant::now();
        let err = run(cfg).unwrap_err();
        assert!(err.contains("after 3 attempts"), "{err}");
        // 1 ms + 2 ms of backoff actually elapsed.
        assert!(started.elapsed() >= Duration::from_millis(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_file_rejects_duplicate_vm_names() {
        let err = parse_config_file("[vms]\nweb = 500\ndb = 900\nweb = 800\n").unwrap_err();
        assert!(err.contains("duplicate VM name"), "{err}");
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn config_file_accepts_resilience_keys() {
        let cfg = parse_config_file(
            "stale_sample_ttl = 4\nmax_consecutive_errors = 25\n\
             discovery_retries = 7\ndiscovery_backoff_ms = 250\n",
        )
        .unwrap();
        assert_eq!(cfg.controller.stale_sample_ttl, 4);
        assert_eq!(cfg.max_consecutive_errors, 25);
        assert_eq!(cfg.discovery_retries, 7);
        assert_eq!(cfg.discovery_backoff, Duration::from_millis(250));
    }

    #[test]
    fn config_file_rejects_bad_resilience_values() {
        assert!(parse_config_file("stale_sample_ttl = forever").is_err());
        assert!(parse_config_file("max_consecutive_errors = -1").is_err());
        assert!(parse_config_file("discovery_retries = 1.5").is_err());
        assert!(parse_config_file("discovery_backoff_ms = soon").is_err());
    }

    #[test]
    fn config_file_accepts_journal_keys() {
        let cfg = parse_config_file(
            "journal_path = /var/lib/vfcd/journal.json\njournal_interval = 5\n\
             log_json = /var/log/vfcd.jsonl\n",
        )
        .unwrap();
        assert_eq!(
            cfg.journal_path,
            Some(PathBuf::from("/var/lib/vfcd/journal.json"))
        );
        assert_eq!(cfg.journal_interval, 5);
        assert_eq!(cfg.log_json, Some(PathBuf::from("/var/log/vfcd.jsonl")));
    }

    #[test]
    fn config_file_rejects_journal_footguns() {
        let err = parse_config_file("journal_interval = 0").unwrap_err();
        assert!(err.contains("journal_interval"), "{err}");
        let err = parse_config_file("journal_path = /tmp/same.json\nlog_json = /tmp/same.json\n")
            .unwrap_err();
        assert!(err.contains("must differ"), "{err}");
        assert!(parse_config_file("journal_interval = -2").is_err());
        assert!(parse_config_file("journal_interval = often").is_err());
    }

    #[test]
    fn config_file_journal_keys_reach_the_merged_cli_config() {
        let dir = std::env::temp_dir().join(format!("vfcd-jcfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vfcd.conf");
        std::fs::write(&path, "journal_path = /tmp/j.json\njournal_interval = 4\n").unwrap();
        let cfg = parse_args(&args(&["--config", path.to_str().unwrap()])).unwrap();
        assert_eq!(cfg.journal_path, Some(PathBuf::from("/tmp/j.json")));
        assert_eq!(cfg.journal_interval, 4);
        // The merge itself is validated: a file journal path colliding
        // with a CLI log path is caught.
        let err = parse_args(&args(&[
            "--log-json",
            "/tmp/j.json",
            "--config",
            path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("must differ"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flags_override_the_config_file_in_either_order() {
        let dir = std::env::temp_dir().join(format!("vfcd-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vfcd.conf");
        std::fs::write(
            &path,
            "mode = full\njournal_interval = 4\ntrace_len = 9\nlog_json = /tmp/file.jsonl\n\
             [vms]\nweb = 500\n",
        )
        .unwrap();
        let file = ["--config", path.to_str().unwrap()];
        let flags = [
            "--monitor-only",
            "--journal-interval",
            "2",
            "--log-json",
            "/tmp/flag.jsonl",
            "--vfreq",
            "web=900",
        ];
        let flags_first = parse_args(&args(&[&flags[..], &file[..]].concat())).unwrap();
        let file_first = parse_args(&args(&[&file[..], &flags[..]].concat())).unwrap();
        assert_eq!(flags_first, file_first);
        let cfg = file_first;
        assert_eq!(cfg.controller.mode, ControlMode::MonitorOnly);
        assert_eq!(cfg.journal_interval, 2);
        assert_eq!(cfg.log_json, Some(PathBuf::from("/tmp/flag.jsonl")));
        assert_eq!(cfg.vfreq["web"], MHz(900));
        // What no flag names still comes from the file.
        assert_eq!(cfg.trace_len, 9);

        let twice = [&file[..], &file[..]].concat();
        let err = parse_args(&args(&twice)).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_vm_named_twice_on_the_command_line_is_rejected() {
        let err = parse_args(&args(&["--vfreq", "web=500", "--vfreq", "web=1800"])).unwrap_err();
        assert!(err.contains("duplicate VM name \"web\""), "{err}");
        let cfg = parse_args(&args(&["--vfreq", "web=500", "--vfreq", "db=1800"])).unwrap();
        assert_eq!((cfg.vfreq["web"], cfg.vfreq["db"]), (MHz(500), MHz(1800)));
    }

    #[test]
    fn shutdown_handle_exits_warm_and_flushes_the_journal() {
        use vfc_cgroupfs::fixture::FixtureTree;
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("web", 1, &[13])
            .build();
        let journal = fx.root().join("journal.json");
        let mut cfg = DaemonConfig {
            journal_path: Some(journal.clone()),
            ..DaemonConfig::default()
        };
        cfg.vfreq.insert("web".into(), MHz(500));
        cfg.controller.period = Micros::from_millis(50);
        let mut backend = fx.backend().with_vfreq_table(cfg.vfreq.clone());

        // No iteration limit: only the handle stops the loop.
        let handle = ShutdownHandle::new();
        handle.request_after_iterations(2);
        assert!(!handle.is_requested());
        let ran = run_with_shutdown(cfg, &mut backend, &handle).unwrap();
        assert_eq!(ran, 2);
        // Warm handoff: the journal exists and the idle VM's cap is
        // still in force (shutdown never uncaps).
        assert!(journal.exists());
        assert!(!fx.vcpu_cpu_max("web", 0).is_unlimited());
        let content = std::fs::read_to_string(&journal).unwrap();
        assert!(content.contains("\"web\""), "{content}");
    }

    #[test]
    fn run_rejects_footgun_configs_too() {
        // Embedders building DaemonConfig by hand get the same guard as
        // the parsers.
        let fx = vfc_cgroupfs::fixture::FixtureTree::builder()
            .cpus(1, MHz(2400))
            .build();
        let cfg = DaemonConfig {
            journal_interval: 0,
            ..DaemonConfig::default()
        };
        let mut be = fx.backend();
        let err = run_with_shutdown(cfg, &mut be, &ShutdownHandle::new()).unwrap_err();
        assert!(err.contains("journal_interval"), "{err}");
    }

    #[test]
    fn config_file_resilience_keys_reach_the_merged_cli_config() {
        let dir = std::env::temp_dir().join(format!("vfcd-cfg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vfcd.conf");
        std::fs::write(
            &path,
            "max_consecutive_errors = 5\ndiscovery_retries = 1\ndiscovery_backoff_ms = 9\n\
             stale_sample_ttl = 3\n",
        )
        .unwrap();
        let cfg = parse_args(&args(&["--config", path.to_str().unwrap()])).unwrap();
        assert_eq!(cfg.max_consecutive_errors, 5);
        assert_eq!(cfg.discovery_retries, 1);
        assert_eq!(cfg.discovery_backoff, Duration::from_millis(9));
        assert_eq!(cfg.controller.stale_sample_ttl, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
