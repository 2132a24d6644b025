//! Cloud-trace input for the event-driven cluster simulation.
//!
//! A *trace* is a list of VM lifetimes: each VM arrives at some second,
//! requests `k_v` vCPUs at a guaranteed virtual frequency `F_v`, and
//! optionally departs at a later second. The [`TraceReader`] trait
//! abstracts the source; [`CsvTraceReader`] parses the on-disk format
//! (modeled on the dslab-iaas Azure/Huawei dataset readers) and
//! [`SyntheticTrace`] generates deterministic workloads of arbitrary
//! size for scale experiments.
//!
//! # CSV format
//!
//! One VM per line, seven comma-separated columns:
//!
//! ```csv
//! vm_id,arrival_s,departure_s,vcpus,vfreq_mhz,mem_gb,class
//! web-001,0,3600,2,500,4,small
//! db-007,120,,4,1800,16,large
//! ```
//!
//! * `vm_id` — unique, non-empty label (duplicates are rejected);
//! * `arrival_s` — arrival time in seconds, non-negative integer;
//! * `departure_s` — departure time in seconds, strictly after arrival;
//!   empty = the VM never departs;
//! * `vcpus` — positive integer (`k_v^vCPUs`);
//! * `vfreq_mhz` — guaranteed `F_v` in MHz: finite, positive;
//! * `mem_gb` — provisioned memory in GB (positive integer);
//! * `class` — SLO class label (non-empty; becomes the template name).
//!
//! A header line starting with `vm_id` and blank/`#`-comment lines are
//! skipped. Every malformed row is rejected with a [`TraceError`]
//! carrying its 1-based line number — the reader never panics on bad
//! input.
//!
//! # Time mapping
//!
//! Controller periods are 1 s and period indices are 1-based: a VM
//! arriving at second `t` is admitted just before period `t + 1` and
//! participates from that period on; a VM departing at second `d`
//! leaves just before period `d + 1` (it runs *through* period `d`).

use std::fmt;
use std::path::Path;
use vfc_simcore::{MHz, SplitMix64};
use vfc_vmm::VmTemplate;

/// One VM's lifetime as read from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceVmSpec {
    /// The trace's own identifier (unique within the trace).
    pub trace_id: String,
    /// Arrival time, seconds.
    pub arrival: u64,
    /// Departure time, seconds (`None` = runs forever).
    pub departure: Option<u64>,
    /// Size and SLO class of the VM.
    pub template: VmTemplate,
}

impl TraceVmSpec {
    /// Number of arrival/departure events this spec contributes.
    pub fn event_count(&self) -> usize {
        1 + usize::from(self.departure.is_some())
    }
}

/// Why a trace could not be read. Every parse failure names the 1-based
/// line it occurred on; parsing never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file could not be opened or read.
    Io(String),
    /// A row failed validation.
    Malformed {
        /// 1-based line number in the source.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(why) => write!(f, "trace I/O error: {why}"),
            TraceError::Malformed { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A source of VM lifetimes. Implementations must return specs in a
/// deterministic order — the event core schedules them in sequence, and
/// same-input runs must replay bit-identically.
pub trait TraceReader {
    /// Produce every VM spec in the trace.
    fn read(&mut self) -> Result<Vec<TraceVmSpec>, TraceError>;
}

/// CSV-backed trace reader; see the module docs for the format.
pub struct CsvTraceReader {
    src: String,
}

impl CsvTraceReader {
    /// Read from an in-memory CSV string.
    pub fn from_csv(src: &str) -> Self {
        CsvTraceReader {
            src: src.to_owned(),
        }
    }

    /// Read from a file on disk.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let src = std::fs::read_to_string(path.as_ref())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Ok(CsvTraceReader { src })
    }

    fn parse_row(line_no: usize, row: &str) -> Result<TraceVmSpec, TraceError> {
        let bad = |reason: String| TraceError::Malformed {
            line: line_no,
            reason,
        };
        let cols: Vec<&str> = row.split(',').map(str::trim).collect();
        if cols.len() != 7 {
            return Err(bad(format!("expected 7 columns, found {}", cols.len())));
        }
        let (id, arrival_s, departure_s, vcpus_s, vfreq_s, mem_s, class) = (
            cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6],
        );
        if id.is_empty() {
            return Err(bad("empty vm_id".into()));
        }
        // Timestamps parse as signed so `-5` reports "negative", not a
        // generic integer-parse failure.
        let arrival: i64 = arrival_s
            .parse()
            .map_err(|_| bad(format!("unparsable arrival_s {arrival_s:?}")))?;
        if arrival < 0 {
            return Err(bad(format!("negative arrival_s {arrival}")));
        }
        let departure: Option<i64> = if departure_s.is_empty() {
            None
        } else {
            Some(
                departure_s
                    .parse()
                    .map_err(|_| bad(format!("unparsable departure_s {departure_s:?}")))?,
            )
        };
        if let Some(d) = departure {
            if d < 0 {
                return Err(bad(format!("negative departure_s {d}")));
            }
            if d <= arrival {
                return Err(bad(format!(
                    "departure_s {d} not after arrival_s {arrival}"
                )));
            }
        }
        let vcpus: u32 = vcpus_s
            .parse()
            .map_err(|_| bad(format!("unparsable vcpus {vcpus_s:?}")))?;
        if vcpus == 0 {
            return Err(bad("zero vcpus".into()));
        }
        // F_v parses as float so `NaN`/`inf`/fractional inputs are
        // diagnosed precisely, then must round-trip to a positive MHz.
        let vfreq: f64 = vfreq_s
            .parse()
            .map_err(|_| bad(format!("unparsable vfreq_mhz {vfreq_s:?}")))?;
        if !vfreq.is_finite() {
            return Err(bad(format!("non-finite vfreq_mhz {vfreq}")));
        }
        if vfreq <= 0.0 || vfreq > u32::MAX as f64 {
            return Err(bad(format!("vfreq_mhz {vfreq} out of range")));
        }
        let mem_gb: u32 = mem_s
            .parse()
            .map_err(|_| bad(format!("unparsable mem_gb {mem_s:?}")))?;
        if mem_gb == 0 {
            return Err(bad("zero mem_gb".into()));
        }
        if class.is_empty() {
            return Err(bad("empty class".into()));
        }
        Ok(TraceVmSpec {
            trace_id: id.to_owned(),
            arrival: arrival as u64,
            departure: departure.map(|d| d as u64),
            template: VmTemplate::new(class, vcpus, MHz(vfreq as u32)).with_mem_gb(mem_gb),
        })
    }
}

impl TraceReader for CsvTraceReader {
    fn read(&mut self) -> Result<Vec<TraceVmSpec>, TraceError> {
        let mut specs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, raw) in self.src.lines().enumerate() {
            let line_no = i + 1;
            let row = raw.trim();
            if row.is_empty() || row.starts_with('#') || row.starts_with("vm_id") {
                continue;
            }
            let spec = Self::parse_row(line_no, row)?;
            if !seen.insert(spec.trace_id.clone()) {
                return Err(TraceError::Malformed {
                    line: line_no,
                    reason: format!("duplicate vm_id {:?}", spec.trace_id),
                });
            }
            specs.push(spec);
        }
        Ok(specs)
    }
}

/// Deterministic synthetic-trace generator for scale experiments:
/// arrivals spread uniformly over the horizon, lifetimes drawn
/// geometrically around a mean, sizes drawn from the paper's
/// small/medium/large template mix. Same seed ⇒ byte-identical trace.
pub struct SyntheticTrace {
    /// Number of VMs to generate.
    pub vms: usize,
    /// Arrival window: seconds `[0, horizon_s)`.
    pub horizon_s: u64,
    /// Mean VM lifetime in seconds (minimum 1).
    pub mean_lifetime_s: u64,
    /// Fraction of VMs that never depart (long-running services).
    pub forever_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticTrace {
    /// A generator with the scale experiment's defaults: 60 s mean
    /// lifetime, 2 % of VMs long-running.
    pub fn new(vms: usize, horizon_s: u64, seed: u64) -> Self {
        SyntheticTrace {
            vms,
            horizon_s: horizon_s.max(1),
            mean_lifetime_s: 60,
            forever_fraction: 0.02,
            seed,
        }
    }

    /// Render the generated trace in the CSV format, header included —
    /// how the committed sample/golden traces are produced.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("vm_id,arrival_s,departure_s,vcpus,vfreq_mhz,mem_gb,class\n");
        for spec in self.generate() {
            let departure = spec.departure.map(|d| d.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                spec.trace_id,
                spec.arrival,
                departure,
                spec.template.vcpus,
                spec.template.vfreq.as_u32(),
                spec.template.mem_gb,
                spec.template.name,
            ));
        }
        out
    }

    /// Generate the trace, sorted by arrival second (ties in id order).
    pub fn generate(&self) -> Vec<TraceVmSpec> {
        let mut rng = SplitMix64::new(self.seed ^ 0x7124_CE5E_ED00_0001);
        let mut specs: Vec<TraceVmSpec> = (0..self.vms)
            .map(|i| {
                let arrival = rng.next_below(self.horizon_s);
                // Size mix loosely after the paper's evaluation fleet:
                // mostly small web VMs, some medium, a few large.
                let template = match rng.next_below(10) {
                    0..=5 => VmTemplate::small(),
                    6..=8 => VmTemplate::medium(),
                    _ => VmTemplate::large(),
                };
                let departure = if rng.chance(self.forever_fraction) {
                    None
                } else {
                    // Exponential lifetimes around the mean, floored at
                    // one full period so every VM exists for ≥1 period.
                    let u = rng.next_f64().clamp(0.0, 0.999_999);
                    let life = (-(1.0 - u).ln() * self.mean_lifetime_s as f64).ceil() as u64;
                    Some(arrival + life.max(1))
                };
                TraceVmSpec {
                    trace_id: format!("syn-{i:06}"),
                    arrival,
                    departure,
                    template,
                }
            })
            .collect();
        // Stable sort: arrival ties keep generation (id) order.
        specs.sort_by_key(|s| s.arrival);
        specs
    }
}
