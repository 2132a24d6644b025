//! Error type shared by all cgroup backends.

use std::fmt;
use std::io;

/// Errors surfaced by cgroup parsing and backends.
#[derive(Debug)]
pub enum CgroupError {
    /// A kernel interface file did not match its documented format.
    Parse {
        /// Which kernel file format failed to parse.
        what: &'static str,
        /// The offending content (truncated to 256 bytes).
        content: String,
    },
    /// A cgroup path does not exist in the hierarchy.
    NoSuchGroup(String),
    /// The requested VM or vCPU is unknown to the backend.
    NoSuchVcpu {
        /// Raw VM id.
        vm: u32,
        /// Raw vCPU index.
        vcpu: u32,
    },
    /// Underlying filesystem error (real-FS backend).
    Io {
        /// Path of the file that failed.
        path: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// An operation that is invalid for the hierarchy state, e.g. removing
    /// a cgroup that still has children.
    Invalid(String),
}

impl fmt::Display for CgroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CgroupError::Parse { what, content } => {
                write!(f, "failed to parse {what}: {content:?}")
            }
            CgroupError::NoSuchGroup(path) => write!(f, "no such cgroup: {path}"),
            CgroupError::NoSuchVcpu { vm, vcpu } => {
                write!(f, "no such vCPU: vm{vm}/vcpu{vcpu}")
            }
            CgroupError::Io { path, source } => write!(f, "io error on {path}: {source}"),
            CgroupError::Invalid(msg) => write!(f, "invalid cgroup operation: {msg}"),
        }
    }
}

impl std::error::Error for CgroupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CgroupError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl CgroupError {
    /// Wrap an I/O error with the path that produced it.
    pub fn io(path: impl Into<String>, source: io::Error) -> Self {
        CgroupError::Io {
            path: path.into(),
            source,
        }
    }

    /// Build a parse error, truncating pathological content.
    pub fn parse(what: &'static str, content: &str) -> Self {
        let mut content = content.to_owned();
        content.truncate(256);
        CgroupError::Parse { what, content }
    }

    /// Is this error worth retrying on the next control period?
    ///
    /// Transient errors cover the failure modes a live kernel interface
    /// exhibits under load: torn reads that fail to parse, and the
    /// retriable `errno` family (`EINTR`, `EAGAIN`, `EBUSY`, timeouts).
    /// The controller's degradation ladder reacts to a transient error by
    /// skipping the sample (or reusing a recent one) and retrying the
    /// operation on the next iteration, instead of aborting the loop.
    pub fn is_transient(&self) -> bool {
        match self {
            // A torn/odd read of a kernel file: the next read usually works.
            CgroupError::Parse { .. } => true,
            CgroupError::Io { source, .. } => matches!(
                source.kind(),
                io::ErrorKind::Interrupted
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::ResourceBusy
                    | io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }

    /// Did the cgroup (and therefore the VM or vCPU) disappear?
    ///
    /// VMs shut down and migrate away between `vms()` enumeration and the
    /// per-vCPU reads that follow, so the controller treats these as the
    /// normal end of a VM's life: it drops the VM's wallet and cached
    /// samples instead of retrying.
    pub fn is_vanished(&self) -> bool {
        match self {
            CgroupError::NoSuchGroup(_) | CgroupError::NoSuchVcpu { .. } => true,
            CgroupError::Io { source, .. } => io_vanished(source),
            _ => false,
        }
    }
}

/// `errno` of I/O through a descriptor whose cgroup was `rmdir`'d
/// (kernfs) or whose CPU was unplugged (sysfs).
const ENODEV: i32 = 19;
/// `errno` of reading `/proc/<tid>/stat` of an exited thread.
const ESRCH: i32 = 3;

/// Does this I/O error say the object behind the path or descriptor no
/// longer exists? `ENODEV` and `ESRCH` have no stable `ErrorKind`, so
/// they are matched by number.
pub(crate) fn io_vanished(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::NotFound || matches!(e.raw_os_error(), Some(ENODEV | ESRCH))
}

/// Result alias for cgroup operations.
pub type Result<T> = std::result::Result<T, CgroupError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CgroupError::parse("cpu.max", "garbage");
        assert!(e.to_string().contains("cpu.max"));
        let e = CgroupError::NoSuchGroup("/a/b".into());
        assert!(e.to_string().contains("/a/b"));
        let e = CgroupError::NoSuchVcpu { vm: 1, vcpu: 2 };
        assert!(e.to_string().contains("vm1/vcpu2"));
        let e = CgroupError::io("/tmp/x", io::Error::new(io::ErrorKind::NotFound, "nope"));
        assert!(e.to_string().contains("/tmp/x"));
        let e = CgroupError::Invalid("busy".into());
        assert!(e.to_string().contains("busy"));
    }

    #[test]
    fn parse_error_truncates() {
        let long = "x".repeat(10_000);
        if let CgroupError::Parse { content, .. } = CgroupError::parse("cpu.stat", &long) {
            assert!(content.len() <= 256);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn io_source_is_chained() {
        use std::error::Error;
        let e = CgroupError::io("/p", io::Error::other("inner"));
        assert!(e.source().is_some());
    }

    #[test]
    fn taxonomy_transient() {
        assert!(CgroupError::parse("cpu.stat", "torn").is_transient());
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::ResourceBusy,
            io::ErrorKind::TimedOut,
        ] {
            let e = CgroupError::io("/p", io::Error::new(kind, "again"));
            assert!(e.is_transient(), "{kind:?} should be transient");
            assert!(!e.is_vanished(), "{kind:?} is not a disappearance");
        }
        let denied = CgroupError::io(
            "/p",
            io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        );
        assert!(!denied.is_transient());
    }

    #[test]
    fn errno_taxonomy_table() {
        // (errno, is_vanished, is_transient)
        const ENOENT: i32 = 2;
        const EINTR: i32 = 4;
        const EACCES: i32 = 13;
        for (errno, vanished, transient) in [
            (ENOENT, true, false),
            (ENODEV, true, false),
            (ESRCH, true, false),
            (EINTR, false, true),
            (EACCES, false, false),
        ] {
            let e = CgroupError::io("/p", io::Error::from_raw_os_error(errno));
            assert_eq!(e.is_vanished(), vanished, "errno {errno}: {e}");
            assert_eq!(e.is_transient(), transient, "errno {errno}: {e}");
        }
    }

    #[test]
    fn taxonomy_vanished() {
        assert!(CgroupError::NoSuchGroup("/a".into()).is_vanished());
        assert!(CgroupError::NoSuchVcpu { vm: 1, vcpu: 0 }.is_vanished());
        let gone = CgroupError::io("/p", io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(gone.is_vanished());
        assert!(!gone.is_transient());
        assert!(!CgroupError::Invalid("x".into()).is_vanished());
        assert!(!CgroupError::parse("cpu.max", "junk").is_vanished());
    }
}
