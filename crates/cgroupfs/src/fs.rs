//! Real-filesystem [`HostBackend`].
//!
//! [`FsBackend`] drives an actual cgroup-v2 mount, `/proc`, and
//! `/sys/devices/system/cpu` — or any directory tree with the same shape,
//! which is how it is tested (see [`crate::fixture`]). On a cgroup-v2
//! host with KVM VMs it can be pointed at the real roots:
//!
//! ```no_run
//! use vfc_cgroupfs::fs::FsBackend;
//! let backend = FsBackend::system().unwrap();
//! ```
//!
//! VM discovery follows the libvirt/systemd layout:
//! `machine.slice/machine-qemu\x2dN\x2dNAME.scope`, with vCPU sub-groups
//! either under `…scope/libvirt/vcpuJ` (modern libvirt) or directly under
//! `…scope/vcpuJ`.
//!
//! The guaranteed virtual frequency `F_v` of each VM is not stored in the
//! kernel; provide it with [`FsBackend::with_vfreq_table`] (in production
//! this would come from the IaaS control plane's template database).
//!
//! # Handles are held between periods
//!
//! Every interface file the control loop touches is opened **once**, when
//! its scope is discovered, and kept: a monitoring read is one
//! `pread(fd, buf, 0)` into a stack buffer, a cap write is one `fstat`
//! plus one `pwrite(fd, text, 0)`, and [`HostBackend::vms`] re-scans only
//! the scopes that changed.
//! What can go stale is checked, not assumed:
//!
//! * a descriptor outlives `unlink` on a regular filesystem, so an access
//!   through a kept handle looks at `st_nlink`; zero — or
//!   `ENODEV`/`ESRCH`, kernfs's and procfs's answer for a removed cgroup
//!   or an exited thread — marks the handle *gone* and the access is
//!   redone **by path** in the same call, which reports what a fresh
//!   open would: `NotFound`, or the re-created file;
//! * a gone handle makes the next listing rebuild its scope by path;
//! * a handle that could not be kept (open failed, descriptor budget
//!   spent) is not an error: the same routines open the path for the
//!   duration of the call, exactly as the backend did before it kept
//!   anything.
//!
//! # The change feed decides when to check
//!
//! Each backend holds one non-blocking inotify instance (`feed`). Every
//! directory is watched before it is listed or a handle is opened in it:
//! `machine.slice`; each scope's own directory, its `libvirt/` and each
//! `vcpuN/` under one dirty flag per scope; each `/proc/<tid>/` and
//! `cpuN/cpufreq/` holding a kept handle. Creating, deleting or moving
//! an entry, or the directory itself, raises an event; rewriting a file
//! in place does not. The queue is drained — one `read` that answers
//! `EAGAIN` when nothing happened — at the start of every listing and in
//! [`HostBackend::begin_read_pass`], and an event marks its watch's flag
//! dirty (a lost-event overflow, every flag). While a flag stays quiet:
//!
//! * the slice's last listing is reused without `read_dir`;
//! * a cached scope is unchanged without the by-path `stat` of its
//!   groups' parent;
//! * within a read pass, [`HostBackend::read_vcpu_raw`] reads through a
//!   kept handle without the `st_nlink` check: the pass sees what was
//!   removed before it began (see `begin_read_pass`).
//!
//! A dirty scope is rescanned by path and a dirty `/proc` or `cpufreq`
//! handle is closed by the next listing and re-opened, each with fresh
//! watches; a dirty slice is listed by path, its path watched anew first
//! (the directory there may be another one). The fine-grained methods
//! (`vcpu_usage`, `vcpu_threads`, `thread_last_cpu`, `cpu_cur_freq`,
//! `vcpu_max`, `set_vcpu_max`) check every access whatever the feed says;
//! the cap write's `fstat` also tells it whether to truncate. Where the
//! kernel gives no instance (`max_user_instances`) or refuses a watch
//! (`ENOSPC`), or off Linux, that directory — or the whole backend — runs
//! the checks above on every access and the listing stats every cached
//! scope: chosen from what the kernel answered, with no option.
//!
//! The descriptor budget is the process's soft `RLIMIT_NOFILE` minus
//! [`FD_RESERVE`], read once from `/proc/self/limits` and shared by every
//! backend in the process. A node wants `3 × vCPUs` (`cpu.stat`,
//! `cgroup.threads`, `cpu.max`; 5 on v1) `+ vCPUs` (`/proc/<tid>/stat`)
//! `+ CPUs` (`scaling_cur_freq`) `+ 1` (the change feed) descriptors. The
//! feed claims its slot when the backend is built; with none left, there
//! is no feed.

use crate::backend::{HostBackend, TopologyInfo, VmCgroupInfo};
use crate::error::{io_vanished, CgroupError, Result};
use crate::model::CpuMax;
use crate::parse;
use crate::tree::kvm_layout;
use crate::v1;
use feed::{Feed, Watched};
use std::collections::HashMap;
use std::ffi::{OsStr, OsString};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use vfc_simcore::{CpuId, MHz, Micros, Tid, VcpuId, VmId};

mod feed;

/// Descriptors left to the rest of the process — sockets, the journal,
/// the JSON log, and the transient opens of handles that are not kept
/// (one per reading thread, plus one directory listing).
pub const FD_RESERVE: usize = 32;

/// Soft `RLIMIT_NOFILE` assumed when `/proc/self/limits` cannot be read
/// (the Linux default). An open that still hits `EMFILE` is simply not
/// kept.
const DEFAULT_NOFILE: usize = 1024;

/// Process-wide count of kept descriptors against the budget.
struct FdBudget {
    limit: usize,
    kept: AtomicUsize,
}

impl FdBudget {
    /// Claim one descriptor slot; `false` when the budget is spent.
    fn claim(&self) -> bool {
        // Relaxed: the counter guards no other data.
        self.kept
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| {
                (k < self.limit).then_some(k + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.kept.fetch_sub(1, Ordering::Relaxed);
    }
}

fn fd_budget() -> &'static FdBudget {
    static BUDGET: OnceLock<FdBudget> = OnceLock::new();
    BUDGET.get_or_init(|| {
        let soft = fs::read_to_string("/proc/self/limits")
            .ok()
            .and_then(|limits| parse_nofile_soft(&limits))
            .unwrap_or(DEFAULT_NOFILE);
        FdBudget {
            limit: soft.saturating_sub(FD_RESERVE),
            kept: AtomicUsize::new(0),
        }
    })
}

/// Soft limit of the `Max open files` row of `/proc/<pid>/limits`.
fn parse_nofile_soft(limits: &str) -> Option<usize> {
    let row = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))?;
    match row.split_ascii_whitespace().next()? {
        "unlimited" => Some(usize::MAX),
        n => n.parse().ok(),
    }
}

/// How many interface-file descriptors this process may keep open
/// between periods: soft `RLIMIT_NOFILE` − [`FD_RESERVE`].
pub fn handle_budget() -> usize {
    fd_budget().limit
}

/// A kept descriptor; gives its budget slot back when closed.
#[derive(Debug)]
struct Kept(File);

impl Drop for Kept {
    fn drop(&mut self) {
        fd_budget().release();
    }
}

/// One kernel interface file: its path, and the descriptor opened at
/// discovery when one could be kept.
#[derive(Debug)]
struct Handle {
    path: PathBuf,
    kept: Option<Kept>,
    /// The file behind `kept` is no longer the file at `path` (or there
    /// was none to open): accesses go by path, and the next listing
    /// re-opens. Relaxed everywhere: the flag publishes no other data.
    gone: AtomicBool,
}

impl Handle {
    /// Open `path` and keep the descriptor if the budget and the kernel
    /// allow; any failure (`EMFILE` included) just leaves it unkept.
    fn open(path: PathBuf, writable: bool) -> Handle {
        let opened = fd_budget()
            .claim()
            .then(|| OpenOptions::new().read(true).write(writable).open(&path));
        let (kept, missing) = match opened {
            Some(Ok(file)) => (Some(Kept(file)), false),
            Some(Err(e)) => {
                fd_budget().release();
                (None, e.kind() == io::ErrorKind::NotFound)
            }
            None => (None, false),
        };
        Handle {
            path,
            kept,
            // A file that is not there yet is looked for again by the
            // next listing.
            gone: AtomicBool::new(missing),
        }
    }

    /// A handle that keeps nothing: one-off accesses by path.
    fn transient(path: PathBuf) -> Handle {
        Handle {
            path,
            kept: None,
            gone: AtomicBool::new(false),
        }
    }

    fn is_gone(&self) -> bool {
        self.gone.load(Ordering::Relaxed)
    }

    /// The kept descriptor, while it is still the file at `path`.
    fn live(&self) -> Option<&File> {
        self.kept
            .as_ref()
            .filter(|_| !self.is_gone())
            .map(|kept| &kept.0)
    }

    fn io_err(&self, e: io::Error) -> CgroupError {
        CgroupError::io(self.path.display().to_string(), e)
    }

    /// Read the whole file and parse it in place: through the kept
    /// descriptor when it is live, else (or when that finds the file
    /// gone) through a descriptor opened for this call.
    fn read<T>(&self, parse: impl Fn(&str) -> Result<T>) -> Result<T> {
        self.read_with(true, parse)
    }

    /// [`Handle::read`], skipping the kept descriptor's link check when
    /// `check_link` is false: its directory's watch has been quiet.
    fn read_with<T>(&self, check_link: bool, parse: impl Fn(&str) -> Result<T>) -> Result<T> {
        if let Some(file) = self.live() {
            match read_whole(file, check_link, &parse) {
                Ok(parsed) => return parsed,
                Err(e) if io_vanished(&e) => self.gone.store(true, Ordering::Relaxed),
                Err(e) => return Err(self.io_err(e)),
            }
        }
        let file = File::open(&self.path).map_err(|e| self.io_err(e))?;
        read_whole(&file, false, &parse).map_err(|e| self.io_err(e))?
    }

    /// Replace the file's content with `text`: in place through the kept
    /// descriptor when it is live, else by path.
    fn write(&self, text: &str) -> Result<()> {
        if let Some(file) = self.live() {
            match write_in_place(file, text) {
                Ok(()) => return Ok(()),
                Err(e) if io_vanished(&e) => self.gone.store(true, Ordering::Relaxed),
                Err(e) => return Err(self.io_err(e)),
            }
        }
        fs::write(&self.path, text).map_err(|e| self.io_err(e))
    }
}

/// Stack buffer of a monitoring read. Every file the loop reads is a few
/// hundred bytes (`cpu.stat` ≈ 250, `/proc/<tid>/stat` ≈ 350).
const READ_BUF: usize = 1024;

/// `NotFound`, as a fresh open of an unlinked file's path would say.
fn unlinked() -> io::Error {
    io::Error::from(io::ErrorKind::NotFound)
}

/// One positional read from offset 0, parsed in place. A short read is
/// the whole file — for a regular file, and for a kernfs/procfs
/// `seq_file` whose records fit the kernel's page-sized buffer; only a
/// full buffer continues, into a growing heap buffer. With `check_link`
/// (kept descriptors) a file unlinked since it was opened is `NotFound`.
fn read_whole<T>(
    file: &File,
    check_link: bool,
    parse: impl Fn(&str) -> Result<T>,
) -> io::Result<Result<T>> {
    let mut buf = [0u8; READ_BUF];
    let n = file.read_at(&mut buf, 0)?;
    if check_link && file.metadata()?.nlink() == 0 {
        return Err(unlinked());
    }
    let mut long;
    let bytes = if n < buf.len() {
        &buf[..n]
    } else {
        long = buf.to_vec();
        loop {
            let at = long.len();
            long.resize(at + READ_BUF, 0);
            let n = file.read_at(&mut long[at..], at as u64)?;
            long.truncate(at + n);
            if n == 0 {
                break &long[..];
            }
        }
    };
    let text = std::str::from_utf8(bytes).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    Ok(parse(text))
}

/// Overwrite from offset 0 through a kept descriptor. The file is cut to
/// the new text only when it is longer than it — whoever wrote it last,
/// this backend or a foreign writer; kernfs files report size 0 and take
/// each `write` as the whole new value, so they are never truncated.
fn write_in_place(file: &File, text: &str) -> io::Result<()> {
    let meta = file.metadata()?;
    if meta.nlink() == 0 {
        return Err(unlinked());
    }
    file.write_all_at(text.as_bytes(), 0)?;
    if meta.len() > text.len() as u64 {
        file.set_len(text.len() as u64)?;
    }
    Ok(())
}

/// Stack text buffer for the few dozen bytes of a cap write
/// (`"<u64> <u64>\n"` is at most 42).
struct CapText {
    buf: [u8; 48],
    len: usize,
}

impl CapText {
    fn format(render: impl FnOnce(&mut CapText) -> fmt::Result) -> CapText {
        let mut text = CapText {
            buf: [0; 48],
            len: 0,
        };
        render(&mut text).expect("a cap text fits 48 bytes");
        text
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("only whole strs are appended")
    }
}

impl fmt::Write for CapText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// A kept handle that belongs to no scope, and the watch on its
/// directory (`/proc/<tid>`, `cpu<N>/cpufreq`) added before it was opened.
#[derive(Debug)]
struct Loose {
    handle: Handle,
    dir: Option<Watched>,
}

impl Loose {
    /// Kept, and (when watched) no event named its directory: a dirty one
    /// is closed by the next listing and re-opened, watched anew, by the
    /// read after it.
    fn worth_keeping(&self) -> bool {
        !self.handle.is_gone() && self.dir.as_ref().is_none_or(Watched::quiet)
    }
}

/// Kept handles of files that belong to no scope, by number:
/// `/proc/<tid>/stat` by tid, `cpu<N>/cpufreq/scaling_cur_freq` by CPU.
#[derive(Debug, Default)]
struct HandleMap(RwLock<HashMap<u32, Loose>>);

impl HandleMap {
    /// Read through the handle kept for `key`, opening (and keeping, if
    /// possible) `path()` on first use, its directory watched on `feed`
    /// first. With `in_pass`, a handle whose directory's watch is quiet
    /// skips its link check (see [`HostBackend::begin_read_pass`]).
    fn read<T>(
        &self,
        key: u32,
        path: impl FnOnce() -> PathBuf,
        feed: Option<&Arc<Feed>>,
        in_pass: bool,
        parse: impl Fn(&str) -> Result<T>,
    ) -> Result<T> {
        if let Some(kept) = self.0.read().expect(POISONED).get(&key) {
            let quiet = in_pass && kept.dir.as_ref().is_some_and(Watched::quiet);
            return kept.handle.read_with(!quiet, parse);
        }
        let path = path();
        let dir = feed::watch_all(feed, path.parent());
        let handle = Handle::open(path, false);
        let parsed = handle.read(parse);
        if handle.live().is_some() {
            self.0
                .write()
                .expect(POISONED)
                .insert(key, Loose { handle, dir });
        }
        parsed
    }

    fn remove(&self, key: u32) {
        self.0.write().expect(POISONED).remove(&key);
    }

    /// Close the handles found gone or whose directory changed; the next
    /// read re-opens by path.
    fn sweep(&self) {
        let keep_all = self
            .0
            .read()
            .expect(POISONED)
            .values()
            .all(Loose::worth_keeping);
        if !keep_all {
            self.0
                .write()
                .expect(POISONED)
                .retain(|_, h| h.worth_keeping());
        }
    }

    fn len(&self) -> usize {
        self.0.read().expect(POISONED).len()
    }
}

const POISONED: &str = "a thread panicked holding an FsBackend lock";

/// "No thread seen yet" in [`VcpuPlan::tid`] (`pid_max` is at most 2²²).
const NO_TID: u32 = u32::MAX;

/// One discovered VM scope, with everything [`FsBackend::relist`] needs
/// to decide next period that it is unchanged.
#[derive(Debug)]
struct DiscoveredVm {
    /// libvirt machine number (ordering key).
    number: u32,
    name: String,
    /// Name of the scope directory under `machine.slice`.
    dir_name: OsString,
    /// The `machine-qemu…scope` directory itself.
    scope_dir: PathBuf,
    /// `scope/libvirt`, where modern libvirt puts the `vcpuN` groups.
    libvirt: PathBuf,
    /// There was no `libvirt/` layer: the groups sit in the scope itself.
    flat: bool,
    /// `st_nlink` of the groups' parent when it was scanned: 2 + its
    /// sub-directories on tmpfs, ext4 and kernfs alike. (Directory
    /// mtimes would not do: kernfs only maintains them once an `iattr`
    /// exists.)
    parent_links: u64,
    /// Per-vCPU handles, indexed by vCPU id.
    vcpus: Vec<VcpuPlan>,
    /// The scope directory, its `libvirt/` and every group, watched
    /// before they were listed and their files opened; `None` without a
    /// feed or when any watch was refused.
    watch: Option<Watched>,
}

impl DiscoveredVm {
    /// No event has named the scope's directories since they were
    /// scanned: every kept handle is still the file at its path.
    fn quiet(&self) -> bool {
        self.watch.as_ref().is_some_and(Watched::quiet)
    }

    /// May this scope be served from the cache for another period? No
    /// handle may have found its file gone, and a watched scope must be
    /// quiet — a dirty one is rescanned, as a fresh backend would. An
    /// unwatched scope is checked by path: the groups' parent must be the
    /// same directory level and still count the same sub-directories (a
    /// filesystem that does not count them — `st_nlink` 1 on btrfs and
    /// overlayfs — never qualifies).
    fn unchanged(&self) -> bool {
        if self.vcpus.iter().any(VcpuPlan::any_gone) {
            return false;
        }
        if let Some(watch) = &self.watch {
            return watch.quiet();
        }
        let parent = if self.flat {
            // One group moving into a new libvirt/ keeps the count.
            if self.libvirt.is_dir() {
                return false;
            }
            &self.scope_dir
        } else {
            &self.libvirt
        };
        self.parent_links >= 2 && fs::metadata(parent).is_ok_and(|m| m.nlink() == self.parent_links)
    }
}

/// The handles of every file the control loop touches for one vCPU,
/// opened once at discovery. The members are hierarchy-version specific:
/// the plan is built for the version the backend speaks.
#[derive(Debug)]
struct VcpuPlan {
    /// v2: `cpu.stat` (usage + throttled); v1: `cpuacct.usage`.
    usage: Handle,
    /// v1 only: the v1-flavored `cpu.stat` with `throttled_time` (v2
    /// reads it from `usage`).
    throttled: Option<Handle>,
    /// v2: `cgroup.threads`; v1: `tasks`.
    threads: Handle,
    /// v2: `cpu.max`; v1: `cpu.cfs_quota_us`.
    max: Handle,
    /// v1 only: `cpu.cfs_period_us`.
    period: Option<Handle>,
    /// The thread last read from `threads` — whose `/proc` stat handle
    /// this vCPU keeps alive — or [`NO_TID`]. Relaxed: a memo.
    tid: AtomicU32,
}

impl VcpuPlan {
    fn new(dir: &Path, version: CgroupVersion) -> Self {
        let open = |file: &str, writable| Handle::open(dir.join(file), writable);
        let tid = AtomicU32::new(NO_TID);
        match version {
            CgroupVersion::V2 => VcpuPlan {
                usage: open("cpu.stat", false),
                throttled: None,
                threads: open("cgroup.threads", false),
                max: open("cpu.max", true),
                period: None,
                tid,
            },
            CgroupVersion::V1 => VcpuPlan {
                usage: open("cpuacct.usage", false),
                throttled: Some(open("cpu.stat", false)),
                threads: open("tasks", false),
                max: open("cpu.cfs_quota_us", true),
                period: Some(open("cpu.cfs_period_us", true)),
                tid,
            },
        }
    }

    fn handles(&self) -> impl Iterator<Item = &Handle> {
        [&self.usage, &self.threads, &self.max]
            .into_iter()
            .chain(&self.throttled)
            .chain(&self.period)
    }

    fn any_gone(&self) -> bool {
        self.handles().any(Handle::is_gone)
    }
}

/// Which cgroup hierarchy version the backend speaks. §III.B of the
/// paper: the controller works on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgroupVersion {
    /// Unified hierarchy: `cpu.max`, `cpu.stat`, `cgroup.threads`.
    V2,
    /// Legacy hierarchy: `cpu.cfs_quota_us`/`cpu.cfs_period_us`,
    /// `cpuacct.usage`, `tasks`.
    V1,
}

/// `machine.slice` as last listed, and the watch that keeps that listing
/// current.
#[derive(Debug, Default)]
struct SliceListing {
    /// Scope entries, sorted by `(machine number, directory name)`.
    scopes: Vec<(u32, OsString)>,
    /// Added on the slice's path before it was listed; while quiet,
    /// `scopes` is what a new listing would return.
    watch: Option<Watched>,
}

impl SliceListing {
    /// List `slice` by path, watched first on `feed`. A missing slice
    /// lists no scope (and gets no watch: it is looked for again).
    fn relist(&mut self, slice: &Path, feed: Option<&Arc<Feed>>) -> io::Result<()> {
        // The directory at the path may be another one than the one
        // watched: the old watch goes, and the path is watched anew.
        self.watch = None;
        self.watch = feed::watch_all(feed, [slice]);
        self.scopes.clear();
        let listed = self.read(slice);
        if listed.is_err() {
            self.watch = None;
        }
        self.scopes.sort_unstable();
        listed
    }

    fn read(&mut self, slice: &Path) -> io::Result<()> {
        let entries = match fs::read_dir(slice) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let dir_name = entry?.file_name();
            if let Some((number, _)) = kvm_layout::scope_parts(&dir_name.to_string_lossy()) {
                self.scopes.push((number, dir_name));
            }
        }
        Ok(())
    }
}

/// [`HostBackend`] over a real (or fixture) filesystem tree.
pub struct FsBackend {
    /// `<cgroup root>/machine.slice`.
    slice: PathBuf,
    proc_root: PathBuf,
    cpu_root: PathBuf,
    version: CgroupVersion,
    vfreq: HashMap<String, MHz>,
    /// The change feed, when the kernel gave one.
    feed: Option<Arc<Feed>>,
    /// The last listing of `machine.slice`. Lock order: `listing`, then
    /// `cache`, then `procs`.
    listing: Mutex<SliceListing>,
    /// Discovery cache, in `(number, dir_name)` order, revalidated by
    /// [`HostBackend::vms`]. Behind a lock (not a `RefCell`) so the
    /// backend is `Sync`: threads may read disjoint vCPUs concurrently
    /// through a shared `&FsBackend`, and positional I/O on a shared
    /// descriptor needs no cursor.
    cache: RwLock<Vec<DiscoveredVm>>,
    /// `/proc/<tid>/stat` handles of the threads the vCPU plans name.
    procs: HandleMap,
    /// `scaling_cur_freq` handles by CPU.
    freqs: HandleMap,
    /// Per-read-pass memo of `scaling_cur_freq` by CPU, cleared by
    /// [`HostBackend::begin_read_pass`]: vCPUs packed on one core cost
    /// one sysfs read per pass instead of one each.
    freq_memo: RwLock<HashMap<u32, MHz>>,
    /// Listings and scope scans that failed for another reason than the
    /// directory being gone. Relaxed: a statistic.
    listing_errors: AtomicU64,
}

impl FsBackend {
    /// Backend over explicit roots (fixture trees, containers, tests),
    /// auto-detecting the hierarchy version from the tree's shape.
    pub fn new(
        cgroup_root: impl Into<PathBuf>,
        proc_root: impl Into<PathBuf>,
        cpu_root: impl Into<PathBuf>,
    ) -> Self {
        let cgroup_root = cgroup_root.into();
        FsBackend {
            version: Self::detect_version(&cgroup_root),
            slice: cgroup_root.join(kvm_layout::MACHINE_SLICE),
            proc_root: proc_root.into(),
            cpu_root: cpu_root.into(),
            vfreq: HashMap::new(),
            feed: Feed::open(),
            listing: Mutex::new(SliceListing::default()),
            cache: RwLock::new(Vec::new()),
            procs: HandleMap::default(),
            freqs: HandleMap::default(),
            freq_memo: RwLock::new(HashMap::new()),
            listing_errors: AtomicU64::new(0),
        }
    }

    /// Force a hierarchy version instead of auto-detection.
    pub fn with_version(mut self, version: CgroupVersion) -> Self {
        self.version = version;
        self
    }

    /// Hierarchy version in use.
    pub fn version(&self) -> CgroupVersion {
        self.version
    }

    /// A unified mount has `cgroup.controllers` at its root; anything
    /// else is treated as a v1 `cpu,cpuacct` hierarchy.
    fn detect_version(cgroup_root: &Path) -> CgroupVersion {
        if cgroup_root.join("cgroup.controllers").exists() {
            CgroupVersion::V2
        } else {
            CgroupVersion::V1
        }
    }

    /// Backend over the real system paths. Errors if `/sys/fs/cgroup` is
    /// neither a v2 mount nor a v1 `cpu,cpuacct` hierarchy.
    pub fn system() -> Result<Self> {
        let root = Path::new("/sys/fs/cgroup");
        if root.join("cgroup.controllers").exists() {
            return Ok(FsBackend::new(root, "/proc", "/sys/devices/system/cpu"));
        }
        for legacy in ["cpu,cpuacct", "cpu"] {
            let candidate = root.join(legacy);
            if candidate.is_dir() {
                return Ok(
                    FsBackend::new(candidate, "/proc", "/sys/devices/system/cpu")
                        .with_version(CgroupVersion::V1),
                );
            }
        }
        Err(CgroupError::Invalid(
            "/sys/fs/cgroup is neither a cgroup-v2 mount nor a v1 cpu hierarchy".into(),
        ))
    }

    /// Provide the guaranteed virtual frequency for VMs by name.
    pub fn with_vfreq_table(mut self, table: HashMap<String, MHz>) -> Self {
        self.vfreq = table;
        self
    }

    /// Set/replace a single VM's guaranteed frequency.
    pub fn set_vfreq(&mut self, vm_name: impl Into<String>, freq: MHz) {
        self.vfreq.insert(vm_name.into(), freq);
    }

    /// Interface-file descriptors this backend currently keeps open.
    pub fn handles_kept(&self) -> usize {
        let cache = self.cache.read().expect(POISONED);
        let in_scopes = cache
            .iter()
            .flat_map(|vm| &vm.vcpus)
            .flat_map(VcpuPlan::handles)
            .filter(|h| h.kept.is_some())
            .count();
        in_scopes + self.procs.len() + self.freqs.len()
    }

    /// Bring the discovery cache up to date with `machine.slice`: list
    /// the slice once — or, while its watch is quiet, reuse the last
    /// listing — keep (plan, handles and all) every cached scope whose
    /// directory name is still there and which is
    /// [`DiscoveredVm::unchanged`], and scan only the scopes that are
    /// new or fail that test. Scopes stay sorted by `(machine number,
    /// directory name)` so `VmId`s are stable while the VM set is.
    ///
    /// Only a missing `machine.slice` means "no VMs". Any other listing
    /// error leaves the cache — the last good listing — as it is and is
    /// returned; a scope whose scan fails is left out for the period.
    fn relist(&self) -> Result<()> {
        let mut listing = self.listing.lock().expect(POISONED);
        if let Some(feed) = &self.feed {
            feed.drain();
        }
        if !listing.watch.as_ref().is_some_and(Watched::quiet) {
            listing
                .relist(&self.slice, self.feed.as_ref())
                .map_err(|e| CgroupError::io(self.slice.display().to_string(), e))?;
        }

        let mut cache = self.cache.write().expect(POISONED);
        let mut cached = std::mem::take(&mut *cache).into_iter().peekable();
        cache.reserve(listing.scopes.len());
        for (number, dir_name) in &listing.scopes {
            let key = (*number, dir_name);
            // Cached scopes that sort before this entry are off the disk.
            while let Some(departed) = cached.next_if(|c| (c.number, &c.dir_name) < key) {
                self.retire(departed);
            }
            match cached.next_if(|c| (c.number, &c.dir_name) == key) {
                Some(vm) if vm.unchanged() => cache.push(vm),
                stale => {
                    if let Some(vm) = stale {
                        self.retire(vm);
                    }
                    match self.scan_scope(*number, dir_name) {
                        Ok(vm) => cache.push(vm),
                        // Torn down between the listing and the scan.
                        Err(e) if e.is_vanished() => {}
                        Err(_) => self.count_listing_error(),
                    }
                }
            }
        }
        cached.for_each(|departed| self.retire(departed));
        drop(cache);
        self.procs.sweep();
        self.freqs.sweep();
        Ok(())
    }

    /// Scan one scope directory by path and open its vCPUs' handles,
    /// each directory watched before it is looked into.
    fn scan_scope(&self, number: u32, dir_name: &OsStr) -> Result<DiscoveredVm> {
        let scope_dir = self.slice.join(dir_name);
        let mut watch = feed::watch_all(self.feed.as_ref(), [scope_dir.as_path()]);
        // vCPU groups live under scope/libvirt/ (modern libvirt) or
        // directly under scope/.
        let libvirt = scope_dir.join("libvirt");
        let flat = !libvirt.is_dir();
        let vcpu_parent = if flat { &scope_dir } else { &libvirt };
        if !flat {
            self.watch_too(&mut watch, &libvirt);
        }
        let parent_err = |e| CgroupError::io(vcpu_parent.display().to_string(), e);
        // Link count before the listing: a group added in between then
        // shows as a mismatch next period, not as a stale plan.
        let parent_links = fs::metadata(vcpu_parent).map_err(parent_err)?.nlink();
        let mut vcpus: Vec<(u32, PathBuf)> = Vec::new();
        for child in fs::read_dir(vcpu_parent).map_err(parent_err)? {
            let child = child.map_err(parent_err)?;
            if let Some(j) = kvm_layout::parse_vcpu_dir(&child.file_name().to_string_lossy()) {
                let path = child.path();
                if path.is_dir() {
                    vcpus.push((j, path));
                }
            }
        }
        vcpus.sort_by_key(|(j, _)| *j);
        for (_, dir) in &vcpus {
            self.watch_too(&mut watch, dir);
        }
        let name = kvm_layout::scope_parts(&dir_name.to_string_lossy())
            .expect("relist only scans names scope_parts accepts")
            .1
            .to_owned();
        Ok(DiscoveredVm {
            number,
            name,
            parent_links,
            vcpus: vcpus
                .iter()
                .map(|(_, dir)| VcpuPlan::new(dir, self.version))
                .collect(),
            dir_name: dir_name.to_owned(),
            scope_dir,
            libvirt,
            flat,
            watch,
        })
    }

    /// Add `dir` to a scope's watch; a refused watch leaves the scope
    /// unwatched.
    fn watch_too(&self, watch: &mut Option<Watched>, dir: &Path) {
        if let (Some(feed), Some(set)) = (&self.feed, watch.as_mut()) {
            if !set.add(feed, dir) {
                *watch = None;
            }
        }
    }

    /// Drop a scope the listing no longer serves from the cache, closing
    /// its handles — the `/proc` stat handles of its threads included.
    fn retire(&self, vm: DiscoveredVm) {
        for plan in &vm.vcpus {
            let tid = plan.tid.load(Ordering::Relaxed);
            if tid != NO_TID {
                self.procs.remove(tid);
            }
        }
    }

    fn count_listing_error(&self) {
        self.listing_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Path of a VM's scope directory from the cache, refreshing once on
    /// miss.
    fn scope_dir(&self, vm: VmId) -> Result<PathBuf> {
        let lookup = || -> Option<PathBuf> {
            let cache = self.cache.read().expect(POISONED);
            cache.get(vm.as_usize()).map(|v| v.scope_dir.clone())
        };
        if let Some(p) = lookup() {
            return Ok(p);
        }
        self.relist()?;
        lookup().ok_or(CgroupError::NoSuchVcpu {
            vm: vm.as_u32(),
            vcpu: 0,
        })
    }

    /// Run `f` against a vCPU's handles and whether its scope is
    /// [`DiscoveredVm::quiet`], refreshing the discovery cache once on
    /// miss. The closure executes holding the cache's read lock, so it
    /// must not re-enter cache-mutating paths — the file reads and writes
    /// it performs never do.
    fn with_vcpu_plan<T>(
        &self,
        vm: VmId,
        vcpu: VcpuId,
        f: impl FnOnce(&VcpuPlan, bool) -> Result<T>,
    ) -> Result<T> {
        fn find(cache: &[DiscoveredVm], vm: VmId, vcpu: VcpuId) -> Option<(&VcpuPlan, bool)> {
            let scope = cache.get(vm.as_usize())?;
            Some((scope.vcpus.get(vcpu.as_usize())?, scope.quiet()))
        }
        if let Some((plan, quiet)) = find(&self.cache.read().expect(POISONED), vm, vcpu) {
            return f(plan, quiet);
        }
        self.relist()?;
        match find(&self.cache.read().expect(POISONED), vm, vcpu) {
            Some((plan, quiet)) => f(plan, quiet),
            None => Err(CgroupError::NoSuchVcpu {
                vm: vm.as_u32(),
                vcpu: vcpu.as_u32(),
            }),
        }
    }

    /// Usage and throttled counters of one vCPU: one `cpu.stat` read on
    /// v2, `cpuacct.usage` then the v1 `cpu.stat` on v1.
    fn read_counters(plan: &VcpuPlan, check_link: bool) -> Result<(Micros, Micros)> {
        match &plan.throttled {
            None => {
                let stat = plan.usage.read_with(check_link, parse::parse_cpu_stat)?;
                Ok((stat.usage_usec, stat.throttled_usec))
            }
            Some(throttled) => {
                let usage = plan.usage.read_with(check_link, v1::parse_cpuacct_usage)?;
                Ok((usage, Self::read_v1_throttled(throttled, check_link)?))
            }
        }
    }

    /// v1 reports `throttled_time` in ns inside its own cpu.stat;
    /// tolerate its absence (bandwidth control may be compiled out).
    fn read_v1_throttled(throttled: &Handle, check_link: bool) -> Result<Micros> {
        match throttled.read_with(check_link, v1::parse_v1_cpu_stat) {
            Ok((_, _, throttled)) => Ok(throttled),
            Err(CgroupError::Io { .. }) => Ok(Micros::ZERO),
            Err(e) => Err(e),
        }
    }

    /// A vCPU keeps the `/proc` stat handle of the thread its group
    /// named last: when a read of the group's threads names another, the
    /// predecessor's handle is closed.
    fn follow_thread(&self, plan: &VcpuPlan, first: Option<Tid>) {
        let now = first.map_or(NO_TID, |t| t.as_u32());
        let before = plan.tid.swap(now, Ordering::Relaxed);
        if before != now && before != NO_TID {
            self.procs.remove(before);
        }
    }

    fn read_first_thread(&self, plan: &VcpuPlan, check_link: bool) -> Result<Option<Tid>> {
        let first = plan
            .threads
            .read_with(check_link, parse::parse_first_thread)?;
        self.follow_thread(plan, first);
        Ok(first)
    }

    /// `thread_last_cpu`; `in_pass` as in [`HandleMap::read`].
    fn last_cpu(&self, tid: Tid, in_pass: bool) -> Result<CpuId> {
        self.procs.read(
            tid.as_u32(),
            || self.proc_root.join(tid.as_u32().to_string()).join("stat"),
            self.feed.as_ref(),
            in_pass,
            parse::parse_stat_last_cpu,
        )
    }

    /// `cpu_cur_freq`; `in_pass` as in [`HandleMap::read`].
    fn cur_freq(&self, cpu: CpuId, in_pass: bool) -> Result<MHz> {
        self.freqs.read(
            cpu.as_u32(),
            || {
                self.cpu_root
                    .join(format!("cpu{}", cpu.as_u32()))
                    .join("cpufreq/scaling_cur_freq")
            },
            self.feed.as_ref(),
            in_pass,
            parse::parse_scaling_cur_freq,
        )
    }

    /// This backend without a change feed: every access checked, every
    /// listing by path, as where the kernel gives no inotify instance.
    #[cfg(test)]
    fn without_feed(mut self) -> Self {
        self.feed = None;
        self
    }
}

impl HostBackend for FsBackend {
    fn topology(&self) -> TopologyInfo {
        // Count cpuN directories and read cpu0's hardware max frequency.
        let mut nr_cpus = 0u32;
        if let Ok(entries) = fs::read_dir(&self.cpu_root) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if let Some(idx) = name.strip_prefix("cpu") {
                    if idx.chars().all(|c| c.is_ascii_digit()) && !idx.is_empty() {
                        nr_cpus += 1;
                    }
                }
            }
        }
        let max_mhz = Handle::transient(self.cpu_root.join("cpu0/cpufreq/cpuinfo_max_freq"))
            .read(parse::parse_scaling_cur_freq)
            .unwrap_or(MHz::ZERO);
        TopologyInfo { nr_cpus, max_mhz }
    }

    fn vms(&self) -> Vec<VmCgroupInfo> {
        if self.relist().is_err() {
            self.count_listing_error();
        }
        let cache = self.cache.read().expect(POISONED);
        cache
            .iter()
            .enumerate()
            .map(|(i, v)| VmCgroupInfo {
                vm: VmId::new(i as u32),
                name: v.name.clone(),
                nr_vcpus: v.vcpus.len() as u32,
                vfreq: self.vfreq.get(&v.name).copied(),
            })
            .collect()
    }

    fn listing_errors(&self) -> u64 {
        self.listing_errors.load(Ordering::Relaxed)
    }

    fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
        self.with_vcpu_plan(vm, vcpu, |plan, _| match self.version {
            CgroupVersion::V2 => Ok(plan.usage.read(parse::parse_cpu_stat)?.usage_usec),
            CgroupVersion::V1 => plan.usage.read(v1::parse_cpuacct_usage),
        })
    }

    fn vcpu_throttled(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
        self.with_vcpu_plan(vm, vcpu, |plan, _| match &plan.throttled {
            None => Ok(plan.usage.read(parse::parse_cpu_stat)?.throttled_usec),
            Some(throttled) => Self::read_v1_throttled(throttled, true),
        })
    }

    fn vcpu_threads(&self, vm: VmId, vcpu: VcpuId) -> Result<Vec<Tid>> {
        // `tasks` (v1) has the shape of `cgroup.threads`.
        self.with_vcpu_plan(vm, vcpu, |plan, _| {
            let tids = plan.threads.read(parse::parse_threads)?;
            self.follow_thread(plan, tids.first().copied());
            Ok(tids)
        })
    }

    fn vcpu_first_thread(&self, vm: VmId, vcpu: VcpuId) -> Result<Option<Tid>> {
        self.with_vcpu_plan(vm, vcpu, |plan, _| self.read_first_thread(plan, true))
    }

    fn thread_last_cpu(&self, tid: Tid) -> Result<CpuId> {
        self.last_cpu(tid, false)
    }

    fn cpu_cur_freq(&self, cpu: CpuId) -> Result<MHz> {
        self.cur_freq(cpu, false)
    }

    /// Drains the change feed: what it reported from here on decides,
    /// for this pass, which kept handles [`HostBackend::read_vcpu_raw`]
    /// reads without their link check.
    fn begin_read_pass(&self) {
        if let Some(feed) = &self.feed {
            feed.drain();
        }
        self.freq_memo.write().expect(POISONED).clear();
    }

    /// Fused monitoring read: on v2 one `cpu.stat` parse yields both
    /// `usage_usec` and `throttled_usec` (the default trait path parses
    /// the same file twice), and `scaling_cur_freq` is memoised per CPU
    /// for the duration of the read pass. A kept handle whose directory
    /// the feed has reported quiet since it was opened is read without
    /// its link check. Error order matches the default exactly: usage
    /// source first, then throttled, threads, `/proc` stat, frequency.
    fn read_vcpu_raw(&self, vm: VmId, vcpu: VcpuId) -> Result<crate::backend::VcpuRawSample> {
        let (usage, throttled, tid) = self.with_vcpu_plan(vm, vcpu, |plan, quiet| {
            let (usage, throttled) = Self::read_counters(plan, !quiet)?;
            Ok((usage, throttled, self.read_first_thread(plan, !quiet)?))
        })?;
        let last_cpu = match tid {
            Some(tid) => self.last_cpu(tid, true)?,
            None => CpuId::new(0),
        };
        let memoised = {
            let memo = self.freq_memo.read().expect(POISONED);
            memo.get(&last_cpu.as_u32()).copied()
        };
        let core_freq = match memoised {
            Some(f) => f,
            None => {
                let f = self.cur_freq(last_cpu, true)?;
                self.freq_memo
                    .write()
                    .expect(POISONED)
                    .insert(last_cpu.as_u32(), f);
                f
            }
        };
        Ok(crate::backend::VcpuRawSample {
            usage,
            throttled,
            last_cpu,
            core_freq,
        })
    }

    fn set_vcpu_max(&mut self, vm: VmId, vcpu: VcpuId, max: CpuMax) -> Result<()> {
        self.with_vcpu_plan(vm, vcpu, |plan, _| match &plan.period {
            None => plan
                .max
                .write(CapText::format(|t| parse::write_cpu_max(t, &max)).as_str()),
            Some(period) => {
                // Period first: the kernel rejects quotas larger than the
                // current period.
                period.write(CapText::format(|t| v1::write_cfs_period(t, &max)).as_str())?;
                plan.max
                    .write(CapText::format(|t| v1::write_cfs_quota(t, &max)).as_str())
            }
        })
    }

    fn vcpu_max(&self, vm: VmId, vcpu: VcpuId) -> Result<CpuMax> {
        self.with_vcpu_plan(vm, vcpu, |plan, _| match &plan.period {
            None => plan.max.read(parse::parse_cpu_max),
            Some(period) => plan
                .max
                .read(|quota| period.read(|period| v1::parse_cfs_quota(quota, period))),
        })
    }

    fn set_vm_weight(&mut self, vm: VmId, weight: u32) -> Result<()> {
        let dir = self.scope_dir(vm)?;
        let weight = crate::backend::clamp_cpu_weight(weight);
        match self.version {
            CgroupVersion::V2 => {
                Handle::transient(dir.join("cpu.weight")).write(&format!("{weight}\n"))
            }
            // v1 `cpu.shares` uses 2–262144 with default 1024; convert
            // from the v2 scale (default 100).
            CgroupVersion::V1 => {
                let shares = (weight as u64 * 1_024 / 100).clamp(2, 262_144);
                Handle::transient(dir.join("cpu.shares")).write(&format!("{shares}\n"))
            }
        }
    }

    fn vm_weight(&self, vm: VmId) -> Result<u32> {
        let dir = self.scope_dir(vm)?;
        match self.version {
            CgroupVersion::V2 => Handle::transient(dir.join("cpu.weight")).read(|content| {
                content
                    .trim()
                    .parse()
                    .map_err(|_| CgroupError::parse("cpu.weight", content))
            }),
            CgroupVersion::V1 => Handle::transient(dir.join("cpu.shares")).read(|content| {
                let shares: u64 = content
                    .trim()
                    .parse()
                    .map_err(|_| CgroupError::parse("cpu.shares", content))?;
                Ok(crate::backend::clamp_cpu_weight(
                    (shares * 100 / 1_024) as u32,
                ))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::FixtureTree;

    #[test]
    fn discovers_vms_and_reads_state() {
        let fx = FixtureTree::builder()
            .cpus(4, MHz(2400))
            .vm("small0", 2, &[101, 102])
            .vm("large0", 1, &[201])
            .build();
        let backend = fx.backend();

        let topo = backend.topology();
        assert_eq!(topo.nr_cpus, 4);
        assert_eq!(topo.max_mhz, MHz(2400));

        let vms = backend.vms();
        assert_eq!(vms.len(), 2);
        assert_eq!(vms[0].name, "small0");
        assert_eq!(vms[0].nr_vcpus, 2);
        assert_eq!(vms[1].name, "large0");

        // Fresh groups: zero usage, unlimited cpu.max, one thread each.
        let u = backend.vcpu_usage(vms[0].vm, VcpuId::new(0)).unwrap();
        assert_eq!(u, Micros::ZERO);
        let threads = backend.vcpu_threads(vms[0].vm, VcpuId::new(1)).unwrap();
        assert_eq!(threads, vec![Tid::new(102)]);
        assert!(backend
            .vcpu_max(vms[0].vm, VcpuId::new(0))
            .unwrap()
            .is_unlimited());
    }

    #[test]
    fn writes_cpu_max_and_reads_back() {
        let fx = FixtureTree::builder()
            .cpus(2, MHz(2000))
            .vm("a", 1, &[11])
            .build();
        let mut backend = fx.backend();
        let vm = backend.vms()[0].vm;
        let cap = CpuMax::with_period(Micros(25_000), Micros(100_000));
        backend.set_vcpu_max(vm, VcpuId::new(0), cap).unwrap();
        assert_eq!(backend.vcpu_max(vm, VcpuId::new(0)).unwrap(), cap);
        backend.clear_vcpu_max(vm, VcpuId::new(0)).unwrap();
        assert!(backend.vcpu_max(vm, VcpuId::new(0)).unwrap().is_unlimited());
    }

    #[test]
    fn thread_placement_and_core_freq() {
        let fx = FixtureTree::builder()
            .cpus(2, MHz(2400))
            .vm("a", 1, &[11])
            .build();
        fx.set_thread_cpu(Tid::new(11), CpuId::new(1));
        fx.set_cpu_freq(CpuId::new(1), MHz(1800));
        let backend = fx.backend();
        assert_eq!(
            backend.thread_last_cpu(Tid::new(11)).unwrap(),
            CpuId::new(1)
        );
        assert_eq!(backend.cpu_cur_freq(CpuId::new(1)).unwrap(), MHz(1800));
    }

    /// The fixture's backend with its change feed, or (`feed` false)
    /// without one, as where the kernel gives no inotify instance.
    fn backend(fx: &FixtureTree, feed: bool) -> FsBackend {
        let backend = fx.backend();
        assert_eq!(backend.feed.is_some(), cfg!(target_os = "linux"));
        if feed {
            backend
        } else {
            backend.without_feed()
        }
    }

    #[test]
    fn usage_updates_are_visible() {
        for feed in [true, false] {
            let fx = FixtureTree::builder()
                .cpus(1, MHz(2400))
                .vm("a", 1, &[11])
                .build();
            let backend = backend(&fx, feed);
            let vm = backend.vms()[0].vm;
            fx.add_vcpu_usage("a", 0, Micros(123_456));
            assert_eq!(
                backend.vcpu_usage(vm, VcpuId::new(0)).unwrap(),
                Micros(123_456)
            );
            fx.add_vcpu_usage("a", 0, Micros(1_000));
            backend.begin_read_pass();
            let raw = backend.read_vcpu_raw(vm, VcpuId::new(0)).unwrap();
            assert_eq!(raw.usage, Micros(124_456), "feed={feed}");
        }
    }

    #[test]
    fn vfreq_table_is_surfaced() {
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("web", 1, &[11])
            .build();
        let mut backend = fx.backend();
        backend.set_vfreq("web", MHz(500));
        let vms = backend.vms();
        assert_eq!(vms[0].vfreq, Some(MHz(500)));
    }

    #[test]
    fn unknown_vcpu_errors() {
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("a", 1, &[11])
            .build();
        let backend = fx.backend();
        let vm = backend.vms()[0].vm;
        assert!(backend.vcpu_usage(vm, VcpuId::new(5)).is_err());
        assert!(backend.vcpu_usage(VmId::new(9), VcpuId::new(0)).is_err());
    }

    #[test]
    fn empty_tree_has_no_vms() {
        let fx = FixtureTree::builder().cpus(1, MHz(1000)).build();
        let backend = fx.backend();
        assert!(backend.vms().is_empty());
    }

    #[test]
    fn version_is_autodetected() {
        let v2 = FixtureTree::builder().cpus(1, MHz(1000)).build();
        assert_eq!(v2.backend().version(), CgroupVersion::V2);
        let v1 = FixtureTree::builder().cpus(1, MHz(1000)).v1().build();
        assert_eq!(v1.backend().version(), CgroupVersion::V1);
    }

    #[test]
    fn throttled_counter_is_readable_on_both_versions() {
        for v1 in [false, true] {
            let b = FixtureTree::builder().cpus(1, MHz(2400)).vm("t", 1, &[5]);
            let fx = if v1 { b.v1().build() } else { b.build() };
            let backend = fx.backend();
            let vm = backend.vms()[0].vm;
            assert_eq!(
                backend.vcpu_throttled(vm, VcpuId::new(0)).unwrap(),
                Micros::ZERO
            );
            fx.add_vcpu_throttled("t", 0, Micros(12_345));
            assert_eq!(
                backend.vcpu_throttled(vm, VcpuId::new(0)).unwrap(),
                Micros(12_345),
                "version v1={v1}"
            );
        }
    }

    #[test]
    fn v1_tree_reads_and_writes() {
        let fx = FixtureTree::builder()
            .cpus(2, MHz(2400))
            .vm("legacy", 2, &[41, 42])
            .v1()
            .build();
        let mut backend = fx.backend();
        let vms = backend.vms();
        assert_eq!(vms.len(), 1);
        assert_eq!(vms[0].nr_vcpus, 2);

        // Usage via cpuacct.usage (nanoseconds on disk).
        fx.add_vcpu_usage("legacy", 0, Micros(123_456));
        assert_eq!(
            backend.vcpu_usage(vms[0].vm, VcpuId::new(0)).unwrap(),
            Micros(123_456)
        );

        // Threads via `tasks`.
        assert_eq!(
            backend.vcpu_threads(vms[0].vm, VcpuId::new(1)).unwrap(),
            vec![Tid::new(42)]
        );

        // Quota via cfs_quota_us / cfs_period_us.
        assert!(backend
            .vcpu_max(vms[0].vm, VcpuId::new(0))
            .unwrap()
            .is_unlimited());
        let cap = CpuMax::with_period(Micros(20_833), Micros(100_000));
        backend
            .set_vcpu_max(vms[0].vm, VcpuId::new(0), cap)
            .unwrap();
        assert_eq!(backend.vcpu_max(vms[0].vm, VcpuId::new(0)).unwrap(), cap);
        assert_eq!(fx.vcpu_cpu_max("legacy", 0), cap);
        backend.clear_vcpu_max(vms[0].vm, VcpuId::new(0)).unwrap();
        assert!(fx.vcpu_cpu_max("legacy", 0).is_unlimited());
    }

    fn vcpu_dir(fx: &FixtureTree, n: u32, vm: &str, vcpu: u32) -> PathBuf {
        fx.cgroup_root()
            .join(kvm_layout::MACHINE_SLICE)
            .join(kvm_layout::scope_name(n, vm))
            .join("libvirt")
            .join(kvm_layout::vcpu_dir(vcpu))
    }

    #[test]
    fn nofile_row_of_proc_limits() {
        let limits = "Limit                     Soft Limit           Hard Limit           Units     \n\
                      Max stack size            8388608              unlimited            bytes     \n\
                      Max open files            1024                 524288               files     \n";
        assert_eq!(parse_nofile_soft(limits), Some(1024));
        assert_eq!(
            parse_nofile_soft("Max open files            unlimited   unlimited   files\n"),
            Some(usize::MAX)
        );
        assert_eq!(parse_nofile_soft("Max processes  7  7  processes\n"), None);
        // This process has a limit, and the budget leaves the reserve.
        assert!(handle_budget() > 0);
    }

    #[test]
    fn files_longer_than_the_stack_buffer_are_read_whole() {
        let fx = FixtureTree::builder()
            .cpus(1, MHz(2400))
            .vm("long", 1, &[7])
            .build();
        let backend = fx.backend();
        let vm = backend.vms()[0].vm;
        let dir = vcpu_dir(&fx, 1, "long", 0);
        // A cpu.stat padded with keys newer kernels add, usage last.
        let mut stat = String::new();
        for i in 0..200 {
            stat.push_str(&format!("future_key_{i} {i}\n"));
        }
        stat.push_str("usage_usec 4242\nthrottled_usec 17\n");
        assert!(stat.len() > 2 * READ_BUF);
        std::fs::write(dir.join("cpu.stat"), &stat).unwrap();
        let tids: Vec<Tid> = (0..400).map(|i| Tid::new(100_000 + i)).collect();
        std::fs::write(dir.join("cgroup.threads"), parse::format_threads(&tids)).unwrap();

        assert_eq!(
            backend.vcpu_usage(vm, VcpuId::new(0)).unwrap(),
            Micros(4242)
        );
        assert_eq!(
            backend.vcpu_throttled(vm, VcpuId::new(0)).unwrap(),
            Micros(17)
        );
        assert_eq!(backend.vcpu_threads(vm, VcpuId::new(0)).unwrap(), tids);
        // Exactly a buffer's worth: the continuation reads zero bytes.
        let exact = format!("usage_usec 1\n{}", "\n".repeat(READ_BUF - 13));
        assert_eq!(exact.len(), READ_BUF);
        std::fs::write(dir.join("cpu.stat"), exact).unwrap();
        assert_eq!(backend.vcpu_usage(vm, VcpuId::new(0)).unwrap(), Micros(1));
    }

    #[test]
    fn in_place_cap_write_leaves_no_tail_of_a_longer_foreign_value() {
        for (v1, feed) in [(false, true), (true, true), (false, false), (true, false)] {
            let b = FixtureTree::builder().cpus(1, MHz(2400)).vm("w", 1, &[9]);
            let fx = if v1 { b.v1().build() } else { b.build() };
            let mut backend = backend(&fx, feed);
            let vm = backend.vms()[0].vm;
            let dir = vcpu_dir(&fx, 1, "w", 0);
            let (file, foreign, ours) = if v1 {
                ("cpu.cfs_quota_us", "123456789012\n", "5000\n")
            } else {
                ("cpu.max", "123456789012 1000000\n", "5000 100000\n")
            };
            let cap = CpuMax::limited(Micros(5_000));
            // Through the kept handle: longer, then shorter, then equal.
            backend
                .set_vcpu_max(vm, VcpuId::new(0), CpuMax::unlimited())
                .unwrap();
            std::fs::write(dir.join(file), foreign).unwrap();
            for _ in 0..2 {
                backend.set_vcpu_max(vm, VcpuId::new(0), cap).unwrap();
                assert_eq!(std::fs::read_to_string(dir.join(file)).unwrap(), ours);
                assert_eq!(backend.vcpu_max(vm, VcpuId::new(0)).unwrap(), cap);
            }
        }
    }

    #[test]
    fn failed_listing_keeps_the_last_good_one_and_a_failed_scan_drops_one_scope() {
        for feed in [true, false] {
            let fx = FixtureTree::builder()
                .cpus(1, MHz(2400))
                .vm("a", 1, &[1])
                .vm("b", 1, &[2])
                .build();
            let backend = backend(&fx, feed);
            let both = backend.vms();
            assert_eq!(both.len(), 2);
            assert_eq!(backend.listing_errors(), 0);

            // machine.slice is a plain file for a moment: ENOTDIR, not "no VMs".
            let slice = fx.cgroup_root().join(kvm_layout::MACHINE_SLICE);
            let aside = fx.root().join("slice.aside");
            std::fs::rename(&slice, &aside).unwrap();
            std::fs::write(&slice, "").unwrap();
            assert_eq!(backend.vms(), both);
            assert_eq!(backend.listing_errors(), 1);
            std::fs::remove_file(&slice).unwrap();
            // Gone altogether is the one listing error that means "no VMs".
            assert!(backend.vms().is_empty());
            assert_eq!(backend.listing_errors(), 1);
            std::fs::rename(&aside, &slice).unwrap();
            assert_eq!(backend.vms(), both);

            // One scope unreadable (a file where its directory was): only it
            // is dropped, and counted — every period it stays so.
            let scope_b = slice.join(kvm_layout::scope_name(2, "b"));
            std::fs::remove_dir_all(&scope_b).unwrap();
            std::fs::write(&scope_b, "").unwrap();
            for errors in [2, 3] {
                let listed = backend.vms();
                assert_eq!(listed.len(), 1);
                assert_eq!(listed[0].name, "a");
                assert_eq!(backend.listing_errors(), errors, "feed={feed}");
            }
        }
    }

    #[test]
    fn handles_follow_the_thread_and_close_with_their_scope() {
        for feed in [true, false] {
            let fx = FixtureTree::builder()
                .cpus(2, MHz(2400))
                .vm("a", 2, &[11, 12])
                .vm("b", 1, &[21])
                .build();
            let backend = backend(&fx, feed);
            let vms = backend.vms();
            // Discovery opens cpu.stat, cgroup.threads and cpu.max per vCPU.
            assert_eq!(backend.handles_kept(), 3 * 3);
            backend.begin_read_pass();
            for info in &vms {
                for j in 0..info.nr_vcpus {
                    backend.read_vcpu_raw(info.vm, VcpuId::new(j)).unwrap();
                }
            }
            // … the first read adds /proc/<tid>/stat per vCPU and
            // scaling_cur_freq per CPU a thread ran on (cpu0, cpu1).
            assert_eq!(backend.handles_kept(), 3 * 3 + 3 + 2);

            // vCPU a/0 now runs as another thread: one stat handle swapped.
            let threads = vcpu_dir(&fx, 1, "a", 0).join("cgroup.threads");
            std::fs::write(threads, "99\n").unwrap();
            fx.set_thread_cpu(Tid::new(99), CpuId::new(1));
            let raw = backend.read_vcpu_raw(vms[0].vm, VcpuId::new(0)).unwrap();
            assert_eq!(raw.last_cpu, CpuId::new(1));
            assert_eq!(backend.handles_kept(), 3 * 3 + 3 + 2);
            assert!(!backend.procs.0.read().unwrap().contains_key(&11));

            // VM a is torn down: the listing that drops it closes its
            // handles, stat handles included.
            std::fs::remove_dir_all(
                fx.cgroup_root()
                    .join(kvm_layout::MACHINE_SLICE)
                    .join(kvm_layout::scope_name(1, "a")),
            )
            .unwrap();
            assert_eq!(backend.vms().len(), 1);
            assert_eq!(backend.handles_kept(), 3 + 1 + 2, "feed={feed}");
        }
    }

    #[test]
    fn a_group_swapped_under_the_same_count_is_rescanned() {
        for feed in [true, false] {
            let fx = FixtureTree::builder()
                .cpus(2, MHz(2400))
                .vm("a", 2, &[11, 12])
                .build();
            let backend = backend(&fx, feed);
            let vm = backend.vms()[0].vm;
            // vcpu0 leaves and vcpu2 arrives: libvirt/ counts the same
            // sub-directories, so only the feed can tell.
            std::fs::remove_dir_all(vcpu_dir(&fx, 1, "a", 0)).unwrap();
            fx.make_vcpu_group(&vcpu_dir(&fx, 1, "a", 2), Tid::new(13), CpuId::new(1));
            assert_eq!(backend.vms()[0].nr_vcpus, 2);
            backend.begin_read_pass();
            let first = backend.read_vcpu_raw(vm, VcpuId::new(0));
            if feed {
                // Rescanned: index 0 is vcpu1 now, as a fresh backend says.
                assert_eq!(first.unwrap().last_cpu, CpuId::new(1));
            } else {
                // The plan still names vcpu0: vanished for this period, and
                // the listing after it rescans the scope.
                assert!(first.unwrap_err().is_vanished());
                backend.vms();
                let raw = backend.read_vcpu_raw(vm, VcpuId::new(0)).unwrap();
                assert_eq!(raw.last_cpu, CpuId::new(1));
            }
        }
    }

    #[test]
    fn a_pass_sees_what_was_removed_before_it_began() {
        for feed in [true, false] {
            let fx = FixtureTree::builder()
                .cpus(1, MHz(2400))
                .vm("a", 1, &[11])
                .build();
            let backend = backend(&fx, feed);
            let vm = backend.vms()[0].vm;
            let stat = vcpu_dir(&fx, 1, "a", 0).join("cpu.stat");
            backend.begin_read_pass();
            backend.read_vcpu_raw(vm, VcpuId::new(0)).unwrap();

            // Removed during the pass: the fine-grained read checks its
            // link and sees it at once; the pass's own read may not, but
            // without a feed it checks too.
            std::fs::remove_file(&stat).unwrap();
            assert!(backend
                .vcpu_usage(vm, VcpuId::new(0))
                .unwrap_err()
                .is_vanished());
            std::fs::write(&stat, parse::format_cpu_stat(&Default::default())).unwrap();
            backend.vms();
            backend.begin_read_pass();
            backend.read_vcpu_raw(vm, VcpuId::new(0)).unwrap();
            std::fs::remove_file(&stat).unwrap();
            let in_pass = backend.read_vcpu_raw(vm, VcpuId::new(0));
            assert_eq!(in_pass.is_ok(), feed, "feed={feed}");

            // Removed before the pass began: vanished, feed or not.
            backend.begin_read_pass();
            let next = backend.read_vcpu_raw(vm, VcpuId::new(0));
            assert!(next.unwrap_err().is_vanished(), "feed={feed}");
        }
    }

    #[test]
    fn cap_text_rejects_what_does_not_fit() {
        use std::fmt::Write as _;
        let widest = CpuMax::with_period(Micros(u64::MAX), Micros(u64::MAX));
        let text = CapText::format(|t| parse::write_cpu_max(t, &widest));
        assert_eq!(text.as_str(), parse::format_cpu_max(&widest));
        let mut full = CapText::format(|t| t.write_str(&"x".repeat(48)));
        assert!(full.write_str("y").is_err());
    }
}
