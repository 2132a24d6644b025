//! The machine a run was taken on, captured with every result.

use std::path::Path;

/// Descriptor printed and stored with each run; numbers from two
/// different descriptors are not comparable.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    /// Filesystem type under the scratch directory (`node_fs`'s tree, the
    /// spec log and the ledger live there).
    pub fs_kind: String,
    /// The one CPU the process is pinned to (the API workloads), if any.
    pub pinned_cpu: Option<u32>,
    pub commit: String,
}

impl Machine {
    pub fn capture(scratch: &Path) -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            fs_kind: fs_kind(scratch),
            pinned_cpu: None,
            // The driver's checkout is not a git repository; run.sh
            // passes the commit when it can find one.
            commit: std::env::var("VFC_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(vec![
            ("nproc".into(), Value::UInt(self.nproc as u64)),
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("fs_kind".into(), Value::Str(self.fs_kind.clone())),
            (
                "pinned_cpu".into(),
                self.pinned_cpu
                    .map_or(Value::Null, |c| Value::UInt(u64::from(c))),
            ),
            ("commit".into(), Value::Str(self.commit.clone())),
        ])
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Type of the mount holding `path`: the longest mount point in
/// `/proc/mounts` that prefixes it.
fn fs_kind(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Pin the calling thread, and every thread it starts from now on, to the
/// CPU it is running on; `None` when the kernel refuses.
///
/// For the API workloads: client and server threads take turns (closed
/// loop, one client), and on a small virtual machine waking a thread on
/// another, halted, CPU costs more than the request itself — the same
/// bill read takes 70 µs when the scheduler keeps both threads on one CPU
/// and 180 µs when it does not, and which one a rep gets is the
/// scheduler's mood. On one CPU the hand-off is a context switch.
pub fn pin_to_current_cpu() -> Option<u32> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads kernel state.
    let cpu = u32::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu as usize / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, which is
    // the size passed; pid 0 names the calling thread; the call writes
    // nothing through the pointer.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
