//! The change feed: one non-blocking inotify instance per backend.
//!
//! A watched directory reports every entry created, deleted or moved in
//! or out of it, and its own deletion or move. In-place rewrites of a
//! file raise none of these, so a counter the kernel (or a fixture)
//! rewrites every period costs nothing here. Each watch marks a shared
//! dirty flag when an event names it; a flag never turns quiet again —
//! whoever relies on it builds a fresh one, with fresh watches, when it
//! re-reads what the flag covered.
//!
//! The three inotify calls are declared by hand (no `libc` crate). Off
//! Linux, or where the kernel refuses an instance or a watch, there is
//! no feed, and the backend checks every access as it would without one.

use super::Kept;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const POISONED: &str = "a thread panicked holding the change feed";

/// One inotify instance and the dirty flags of its watches, by watch
/// descriptor. Two registrations on one directory (two CPUs sharing a
/// `cpufreq` policy) share the kernel's watch descriptor and both flags.
#[derive(Debug)]
pub(super) struct Feed {
    fd: Kept,
    watches: Mutex<HashMap<i32, Vec<Arc<AtomicBool>>>>,
}

impl Feed {
    /// A new instance, or `None` when there is no feed: no descriptor
    /// slot left, no instance left (`max_user_instances`), or not Linux.
    pub(super) fn open() -> Option<Arc<Feed>> {
        if !super::fd_budget().claim() {
            return None;
        }
        match sys::init() {
            Ok(file) => Some(Arc::new(Feed {
                fd: Kept(file),
                watches: Mutex::new(HashMap::new()),
            })),
            Err(_) => {
                super::fd_budget().release();
                None
            }
        }
    }

    /// Mark the flags of every event queued so far; `EAGAIN` ends it.
    /// Any other read error marks every flag, as a lost event would.
    pub(super) fn drain(&self) {
        // Room for an event with the longest name (16 + NAME_MAX + 1).
        let mut buf = [0u8; 4096];
        loop {
            match sys::read(&self.fd.0, &mut buf) {
                Ok(n) if n > 0 => self.mark(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                _ => return dirty_all(&self.watches.lock().expect(POISONED)),
            }
        }
    }

    /// `struct inotify_event`: `wd`, `mask`, `cookie`, `len` (4 bytes
    /// each, native order), then `len` bytes of name.
    fn mark(&self, events: &[u8]) {
        let watches = self.watches.lock().expect(POISONED);
        let word = |at: usize| {
            let bytes = events[at..at + 4].try_into().expect("4 bytes");
            u32::from_ne_bytes(bytes)
        };
        let mut at = 0;
        while at + sys::EVENT_HEADER <= events.len() {
            let (wd, mask, len) = (word(at) as i32, word(at + 4), word(at + 12) as usize);
            at += sys::EVENT_HEADER + len;
            if mask & sys::IN_Q_OVERFLOW != 0 {
                dirty_all(&watches);
            } else if let Some(flags) = watches.get(&wd) {
                flags.iter().for_each(|f| f.store(true, Ordering::Relaxed));
            }
        }
    }
}

fn dirty_all(watches: &HashMap<i32, Vec<Arc<AtomicBool>>>) {
    watches
        .values()
        .flatten()
        .for_each(|f| f.store(true, Ordering::Relaxed));
}

/// One directory watched for one flag; removes the kernel's watch when
/// the last registration on it drops.
#[derive(Debug)]
struct Watch {
    feed: Arc<Feed>,
    wd: i32,
    flag: Arc<AtomicBool>,
}

impl Drop for Watch {
    fn drop(&mut self) {
        // No panic in a drop: every update of the map leaves it whole, so
        // a poisoned one is still right.
        let mut watches = self
            .feed
            .watches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(flags) = watches.get_mut(&self.wd) else {
            return;
        };
        if let Some(i) = flags.iter().position(|f| Arc::ptr_eq(f, &self.flag)) {
            flags.swap_remove(i);
        }
        if flags.is_empty() {
            watches.remove(&self.wd);
            // Under the lock: an add on the same directory must not get
            // this descriptor back and then lose it. A directory already
            // gone took its watch with it (`EINVAL`, ignored).
            sys::rm_watch(&self.feed.fd.0, self.wd);
        }
    }
}

/// Directories watched under one dirty flag. Relaxed everywhere: the flag
/// publishes no other data, and a reader that must see a mark is ordered
/// after the drain that set it by other means — the same thread, or the
/// hand-off that starts a read pass after `begin_read_pass`.
#[derive(Debug)]
pub(super) struct Watched {
    flag: Arc<AtomicBool>,
    watches: Vec<Watch>,
}

impl Watched {
    /// A flag watching nothing yet.
    fn new() -> Watched {
        Watched {
            flag: Arc::new(AtomicBool::new(false)),
            watches: Vec::new(),
        }
    }

    /// Watch `dir` too. `false` when the kernel refused (`ENOSPC`, gone,
    /// not a directory): the set then vouches for nothing.
    pub(super) fn add(&mut self, feed: &Arc<Feed>, dir: &Path) -> bool {
        // Held across the add: a drain cannot read an event of the new
        // descriptor before the flag is registered under it.
        let mut watches = feed.watches.lock().expect(POISONED);
        let Ok(wd) = sys::add_watch(&feed.fd.0, dir) else {
            return false;
        };
        watches.entry(wd).or_default().push(Arc::clone(&self.flag));
        drop(watches);
        self.watches.push(Watch {
            feed: Arc::clone(feed),
            wd,
            flag: Arc::clone(&self.flag),
        });
        true
    }

    /// No event has named any of the directories since they were watched
    /// (as of the last drain).
    pub(super) fn quiet(&self) -> bool {
        !self.flag.load(Ordering::Relaxed)
    }
}

/// A directory set on `feed`'s instance, or `None` when there is no feed
/// or any of `dirs` could not be watched.
pub(super) fn watch_all<'a>(
    feed: Option<&Arc<Feed>>,
    dirs: impl IntoIterator<Item = &'a Path>,
) -> Option<Watched> {
    let feed = feed?;
    let mut set = Watched::new();
    dirs.into_iter()
        .all(|dir| set.add(feed, dir))
        .then_some(set)
}

#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
))]
mod sys {
    //! `inotify_init1`, `inotify_add_watch` and `inotify_rm_watch`,
    //! declared by hand. The flag values are the generic Linux ones,
    //! shared by the architectures this module is built for.
    use std::ffi::{c_char, c_int, CString};
    use std::fs::File;
    use std::io::{self, Read};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;

    const IN_NONBLOCK: c_int = 0o4000;
    const IN_CLOEXEC: c_int = 0o2_000_000;
    const IN_MOVED_FROM: u32 = 0x40;
    const IN_MOVED_TO: u32 = 0x80;
    const IN_CREATE: u32 = 0x100;
    const IN_DELETE: u32 = 0x200;
    const IN_DELETE_SELF: u32 = 0x400;
    const IN_MOVE_SELF: u32 = 0x800;
    const IN_ONLYDIR: u32 = 0x0100_0000;
    pub(super) const IN_Q_OVERFLOW: u32 = 0x4000;
    /// `sizeof(struct inotify_event)` without its name.
    pub(super) const EVENT_HEADER: usize = 16;

    /// What changes an entry of a directory, or the directory itself.
    const MASK: u32 = IN_CREATE
        | IN_DELETE
        | IN_MOVED_FROM
        | IN_MOVED_TO
        | IN_DELETE_SELF
        | IN_MOVE_SELF
        | IN_ONLYDIR;

    extern "C" {
        fn inotify_init1(flags: c_int) -> c_int;
        fn inotify_add_watch(fd: c_int, pathname: *const c_char, mask: u32) -> c_int;
        fn inotify_rm_watch(fd: c_int, wd: c_int) -> c_int;
    }

    pub(super) fn init() -> io::Result<File> {
        // SAFETY: takes no pointer; returns a new descriptor or -1.
        let fd = unsafe { inotify_init1(IN_NONBLOCK | IN_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by the kernel and nothing else
        // owns it.
        Ok(File::from(unsafe { OwnedFd::from_raw_fd(fd) }))
    }

    pub(super) fn add_watch(feed: &File, dir: &Path) -> io::Result<i32> {
        let path = CString::new(dir.as_os_str().as_bytes())?;
        // SAFETY: `path` is NUL-terminated and outlives the call; `feed`
        // is an open inotify descriptor.
        let wd = unsafe { inotify_add_watch(feed.as_raw_fd(), path.as_ptr(), MASK) };
        if wd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(wd)
    }

    pub(super) fn rm_watch(feed: &File, wd: i32) {
        // SAFETY: takes no pointer; a stale `wd` is `EINVAL`, nothing more.
        unsafe { inotify_rm_watch(feed.as_raw_fd(), wd) };
    }

    pub(super) fn read(feed: &File, buf: &mut [u8]) -> io::Result<usize> {
        (&*feed).read(buf)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
)))]
mod sys {
    //! No inotify here: there is never a feed.
    use std::fs::File;
    use std::io;
    use std::path::Path;

    pub(super) const IN_Q_OVERFLOW: u32 = 0;
    pub(super) const EVENT_HEADER: usize = 16;

    fn none() -> io::Error {
        io::Error::from(io::ErrorKind::Unsupported)
    }

    pub(super) fn init() -> io::Result<File> {
        Err(none())
    }

    pub(super) fn add_watch(_: &File, _: &Path) -> io::Result<i32> {
        Err(none())
    }

    pub(super) fn rm_watch(_: &File, _: i32) {}

    pub(super) fn read(_: &File, _: &mut [u8]) -> io::Result<usize> {
        Err(io::Error::from(io::ErrorKind::WouldBlock))
    }
}
