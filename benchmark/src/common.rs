//! Types shared by every workload.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What a workload is asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Every input is a function of this seed.
    pub seed: u64,
    /// Shrunk sizes, same code paths (`--smoke`).
    pub smoke: bool,
    /// Scratch directory for fixture trees, spec logs and ledgers; removed
    /// on exit.
    pub tmp: PathBuf,
}

impl Cfg {
    /// `full` sizes, or `smoke` ones under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Pass/fail bookkeeping for output checks. Every check is one attempted
/// operation; a failed one keeps its message (the first few are printed).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    const KEEP: usize = 8;

    /// Count `n` operations that were checked and passed.
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < Self::KEEP {
                self.messages.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < Self::KEEP {
                self.messages.push(m);
            }
        }
    }
}

/// What the calibration kernel takes on the machine and in the speed state
/// the reference numbers of the README were taken in, µs. Calibrated
/// times are wall times scaled by `CALIB_NOMINAL_US / calibration`; the
/// constant only fixes their unit.
pub const CALIB_NOMINAL_US: f64 = 350.0;

/// Which clock an end-to-end time is reported on. Every run measures
/// both; `main.rs` says which one each workload gates on, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeBase {
    Wall,
    Calibrated,
}

impl TimeBase {
    pub fn label(self) -> &'static str {
        match self {
            TimeBase::Wall => "wall",
            TimeBase::Calibrated => "calibrated",
        }
    }
}

/// Time the calibration kernel: a fixed, dependent chain of integer
/// operations that touches no memory.
///
/// The sandbox this benchmark runs in switches between CPU speed states
/// every few seconds (a neighbour on the sibling hardware thread: the same
/// loop reads 330, 430 or 500 µs), which moves every wall-clock number by
/// up to 1.5×. The states slow all code that waits for nothing but the CPU
/// down alike, so each stretch of measured work is followed by one run of
/// this kernel and can be reported relative to it.
pub fn calibrate() -> Duration {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    started.elapsed()
}

/// A stretch of measured work and the calibration taken right after it.
/// Chunk `i` of every rep of a run does identical work (same seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Chunk {
    pub wall: Duration,
    pub calib: Duration,
}

impl Chunk {
    /// Close a chunk that took `wall`: run the calibration kernel now.
    pub fn close(wall: Duration) -> Chunk {
        Chunk {
            wall,
            calib: calibrate(),
        }
    }

    /// Factor that turns a wall time measured in this chunk into a time
    /// on `base`.
    pub fn scale(&self, base: TimeBase) -> f64 {
        match base {
            TimeBase::Wall => 1.0,
            TimeBase::Calibrated => CALIB_NOMINAL_US / us(self.calib).max(1e-3),
        }
    }

    /// The chunk's time on `base`, seconds.
    pub fn seconds(&self, base: TimeBase) -> f64 {
        self.wall.as_secs_f64() * self.scale(base)
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One repetition on fresh state.
#[derive(Debug, Default)]
pub struct Rep {
    /// Building inputs and system state, warm-up included.
    pub setup: Chunk,
    /// Wall time of the measured loop (the sum of its chunks).
    pub measured_s: f64,
    /// The measured loop, cut into chunks of identical work across reps.
    pub chunks: Vec<Chunk>,
    /// Latency samples of the workload's primary operation, µs of wall
    /// time, in arrival order.
    pub op_us: Vec<f64>,
    /// The chunk each sample of `op_us` was taken in.
    pub op_chunk: Vec<u32>,
    /// Work units completed, fixed by the seed (see the README table).
    pub work: u64,
    pub checks: Checks,
    /// Digest of the outputs; equal across reps of one seed.
    pub digest: String,
    /// Layer metrics this rep could measure itself.
    pub layers: Layers,
}

/// 64-bit FNV-1a, the output digest. Not cryptographic: it only has to
/// make two commits' outputs comparable by eye.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Rep {
    /// Record one primary-operation sample taken in the chunk being filled.
    pub fn op(&mut self, elapsed: Duration) {
        self.op_us.push(us(elapsed));
        self.op_chunk.push(self.chunks.len() as u32);
    }

    /// Close the chunk being filled.
    pub fn close_chunk(&mut self, wall: Duration) {
        self.chunks.push(Chunk::close(wall));
    }

    /// Set `measured_s` from the chunks.
    pub fn finish(&mut self) {
        self.measured_s = self.chunks.iter().map(|c| c.wall.as_secs_f64()).sum();
    }

    /// Primary-operation samples on `base`, µs: each scaled by its own
    /// chunk's calibration.
    pub fn op_us_on(&self, base: TimeBase) -> impl Iterator<Item = f64> + '_ {
        self.op_us
            .iter()
            .zip(&self.op_chunk)
            .map(move |(op, c)| op * self.chunks.get(*c as usize).map_or(1.0, |c| c.scale(base)))
    }

    /// Median calibration-kernel time of the rep, µs.
    pub fn calib_us(&self) -> f64 {
        crate::stats::median(&self.chunks.iter().map(|c| us(c.calib)).collect::<Vec<_>>())
    }
}

/// Microseconds of a duration as a float, full resolution.
pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Value of an unlabelled (or the sum of a labelled) Prometheus family in
/// an exposition page — how the harness reads the program's own counters
/// without reaching into private fields.
pub fn prom_sum(page: &str, family: &str) -> f64 {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(family)?;
            // Exact family: next char starts the labels or the value.
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            rest.rsplit(' ').next()?.parse::<f64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.str("ab");
        c.str("c");
        assert_eq!(a.hex(), c.hex());
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn prometheus_families_are_summed_exactly() {
        let page = "# HELP x\nvfc_cap_writes_total 12\nvfc_cap_writes_elided_total 30\n\
                    vfc_stage_seconds_sum{stage=\"monitor\",node=\"a\"} 0.5\n\
                    vfc_stage_seconds_sum{stage=\"monitor\",node=\"b\"} 0.25\n\
                    vfc_stage_seconds_sum{stage=\"apply\",node=\"a\"} 2\n";
        assert_eq!(prom_sum(page, "vfc_cap_writes_total"), 12.0);
        assert_eq!(prom_sum(page, "vfc_stage_seconds_sum"), 2.75);
        assert_eq!(prom_sum(page, "missing"), 0.0);
    }

    #[test]
    fn checks_count_failures_and_keep_few_messages() {
        let mut c = Checks::default();
        c.pass(5);
        for i in 0..20 {
            c.check(i % 2 == 0, || format!("odd {i}"));
        }
        assert_eq!((c.attempted, c.failed), (25, 10));
        assert_eq!(c.messages.len(), Checks::KEEP);
    }
}
