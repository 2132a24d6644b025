//! One small durable append log, and the atomic whole-file write beside
//! it. Std-only and serde-free: it moves opaque newline-free lines.
//!
//! The file grammar, shared by every log in the workspace:
//!
//! ```text
//! {"version":1}        header line, written once when the file is born
//! <record>             batch 1
//! <record>
//! {"seal":2}           seal: the *cumulative* record count so far
//! <record>             batch 2
//! {"seal":3}
//! ```
//!
//! A seal commits everything before it. [`AppendLog::append`] writes one
//! batch and its seal in a single `write`, then `sync_data`s, so an
//! acknowledged batch is on disk and an unacknowledged one is at most a
//! tail without a seal. Recovery has exactly one licence: bytes after the
//! last complete seal line — a batch whose append never returned — are
//! ignored (and cut before the next write). Anything wrong at or before
//! that seal is a typed [`LogError`], never a shorter history. Loading
//! never writes.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Why a log file was rejected. Every variant is a *validated* error:
/// loading never panics and never returns a silently shortened history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The file does not exist (a fresh deployment, not a defect).
    Missing,
    /// The file could not be read or written (permissions, I/O, bad
    /// UTF-8).
    Io(String),
    /// The header line is missing, incomplete, or not the one this build
    /// writes.
    Version(String),
    /// A committed line failed to parse.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A record's `seq` broke contiguity.
    Gap {
        /// 1-based line number of the offending record.
        line: usize,
        /// The `seq` the chain required.
        expected: u64,
        /// The `seq` actually present.
        found: u64,
    },
    /// A seal disagrees with the record count before it, or (strict
    /// readers only) the file does not end in a seal.
    Truncated {
        /// The count the seal claims, if a seal was present at all.
        sealed: Option<u64>,
        /// Records actually present.
        found: u64,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Missing => write!(f, "log file missing"),
            LogError::Io(e) => write!(f, "log io: {e}"),
            LogError::Version(e) => write!(f, "log header: {e}"),
            LogError::Corrupt { line, reason } => write!(f, "log corrupt at line {line}: {reason}"),
            LogError::Gap {
                line,
                expected,
                found,
            } => write!(
                f,
                "log seq gap at line {line}: expected {expected}, found {found}"
            ),
            LogError::Truncated { sealed, found } => match sealed {
                Some(n) => write!(f, "log truncated: seal says {n}, found {found} records"),
                None => write!(f, "log truncated: no seal after {found} records"),
            },
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e.to_string())
    }
}

/// Replace `path` with `bytes` atomically and durably: write
/// `<path>.tmp`, `sync_all`, rename over `path`, fsync the directory.
/// After a crash at any point `path` holds either its previous complete
/// content or `bytes`, and once this returns the rename itself survives
/// a power loss.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Read a whole log file; a file that does not exist is
/// [`LogError::Missing`].
pub fn read(path: &Path) -> Result<String, LogError> {
    match fs::read_to_string(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Err(LogError::Missing),
        other => Ok(other?),
    }
}

/// Push `lines` (newline-free) and the seal closing them onto `out`;
/// `before` records precede the batch. Returns the sealed count.
fn push_batch<S: AsRef<str>>(
    out: &mut String,
    lines: impl IntoIterator<Item = S>,
    before: u64,
) -> u64 {
    let mut records = before;
    for line in lines {
        debug_assert!(!line.as_ref().contains('\n'), "log lines are newline-free");
        out.push_str(line.as_ref());
        out.push('\n');
        records += 1;
    }
    out.push_str(&format!("{{\"seal\":{records}}}\n"));
    records
}

/// The whole-file form of a log: `header`, then `lines` as one sealed
/// batch — what an export writes and what [`parse`] reads back.
pub fn render<S: AsRef<str>>(header: &str, lines: impl IntoIterator<Item = S>) -> String {
    let mut out = format!("{header}\n");
    push_batch(&mut out, lines, 0);
    out
}

fn seal_count(line: &str) -> Option<u64> {
    let digits = line.strip_prefix("{\"seal\":")?.strip_suffix('}')?;
    digits.parse().ok()
}

/// What [`parse`] found in a log file.
#[derive(Debug)]
pub struct Parsed<'a> {
    /// Committed records (all handed to `per_record`).
    pub records: u64,
    /// Whether a seal was found at all (a newborn file has none).
    pub sealed: bool,
    /// Byte length through the last seal line (or the header line when
    /// there is no seal).
    pub committed_len: usize,
    /// The bytes after `committed_len`: empty in a cleanly closed file,
    /// otherwise a batch whose append never returned.
    pub tail: &'a str,
}

/// Validate a log's text. `header` is the exact first line expected;
/// `per_record(line_number, line)` is called, in order, for every record
/// up to the last complete seal line (`line_number` is 1-based in the
/// file); it may reject the line, and otherwise returns the record's
/// `seq`, which must equal the record's 0-based position. Every seal must
/// carry the number of records before it. Lines after the last seal are
/// reported in [`Parsed::tail`], never interpreted.
pub fn parse<'a>(
    text: &'a str,
    header: &str,
    mut per_record: impl FnMut(usize, &str) -> Result<u64, LogError>,
) -> Result<Parsed<'a>, LogError> {
    let header_len = match text.split_once('\n') {
        Some((first, _)) if first == header => first.len() + 1,
        Some((first, _)) => return Err(LogError::Version(format!("{first:?}, want {header:?}"))),
        None => return Err(LogError::Version("no complete header line".to_owned())),
    };
    // Walk complete lines backwards to the last seal: it bounds what is
    // committed.
    let mut committed_len = header_len;
    let mut end = text.rfind('\n').map_or(0, |i| i + 1);
    while end > header_len {
        let start = text[..end - 1].rfind('\n').map_or(0, |i| i + 1);
        if seal_count(&text[start..end - 1]).is_some() {
            committed_len = end;
            break;
        }
        end = start;
    }
    let mut records = 0u64;
    for (idx, line) in text[header_len..committed_len].lines().enumerate() {
        match seal_count(line) {
            Some(n) if n == records => {}
            Some(n) => {
                return Err(LogError::Truncated {
                    sealed: Some(n),
                    found: records,
                })
            }
            None => {
                let found = per_record(idx + 2, line)?;
                if found != records {
                    return Err(LogError::Gap {
                        line: idx + 2,
                        expected: records,
                        found,
                    });
                }
                records += 1;
            }
        }
    }
    Ok(Parsed {
        records,
        sealed: committed_len > header_len,
        committed_len,
        tail: &text[committed_len..],
    })
}

/// A kept-open `O_APPEND` handle on one log file. It never reads: the
/// caller establishes the committed state with [`parse`] (or
/// [`AppendLog::open`], which does both).
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    /// Records sealed on disk.
    records: u64,
    /// Byte length through the last seal.
    committed_len: u64,
    /// Bytes may sit past `committed_len` (a recovered tail, or a failed
    /// append): cut them before the next write.
    dirty: bool,
    buf: String,
}

impl AppendLog {
    /// Open the log at `path`, replaying it through `per_record` (see
    /// [`parse`]); a missing file is born holding `header` alone, through
    /// [`replace_file`], so a header is never torn. Opening an existing
    /// file writes nothing.
    pub fn open(
        path: &Path,
        header: &str,
        per_record: impl FnMut(usize, &str) -> Result<u64, LogError>,
    ) -> Result<AppendLog, LogError> {
        let (records, committed_len) = match read(path) {
            Ok(text) => {
                let parsed = parse(&text, header, per_record)?;
                (parsed.records, parsed.committed_len)
            }
            Err(LogError::Missing) => {
                replace_file(path, format!("{header}\n").as_bytes())?;
                (0, header.len() + 1)
            }
            Err(e) => return Err(e),
        };
        Ok(AppendLog::resume(path, records, committed_len as u64)?)
    }

    /// A handle on `path` whose first `committed_len` bytes are known to
    /// hold `records` sealed records; anything longer is an uncommitted
    /// tail the first append will cut.
    pub fn resume(path: &Path, records: u64, committed_len: u64) -> io::Result<AppendLog> {
        let file = OpenOptions::new().append(true).open(path)?;
        let dirty = file.metadata()?.len() > committed_len;
        Ok(AppendLog {
            file,
            records,
            committed_len,
            dirty,
            buf: String::new(),
        })
    }

    /// Records sealed on disk.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Append `lines` (newline-free) as one sealed batch: one `write` of
    /// the batch and its seal, then `sync_data`; no lines, no write. `Ok`
    /// means the batch is durable; on `Err` the log still holds exactly
    /// what it held, and whatever the failed write left is cut before
    /// the next one.
    pub fn append<S: AsRef<str>>(&mut self, lines: impl IntoIterator<Item = S>) -> io::Result<()> {
        self.buf.clear();
        let records = push_batch(&mut self.buf, lines, self.records);
        if records == self.records {
            return Ok(());
        }
        if self.dirty {
            self.file.set_len(self.committed_len)?;
        }
        self.dirty = true;
        self.file.write_all(self.buf.as_bytes())?;
        self.file.sync_data()?;
        self.dirty = false;
        self.records = records;
        self.committed_len += self.buf.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"test_log\":1}";

    /// Test records are their own `seq`: the line `7` is record 7.
    fn seq_of(line: usize, text: &str) -> Result<u64, LogError> {
        text.parse().map_err(|_| LogError::Corrupt {
            line,
            reason: format!("{text:?} is not a number"),
        })
    }

    fn file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vfc-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("test.log")
    }

    #[test]
    fn parse_commits_through_the_last_seal_and_reports_the_rest() {
        let text = format!("{HEADER}\n0\n1\n{{\"seal\":2}}\n2\n{{\"seal\":3}}\n3\n{{\"sea");
        let mut seen = Vec::new();
        let parsed = parse(&text, HEADER, |line, t| {
            seen.push(line);
            seq_of(line, t)
        })
        .unwrap();
        assert_eq!(seen, [2, 3, 5]);
        assert_eq!((parsed.records, parsed.sealed), (3, true));
        assert_eq!(parsed.tail, "3\n{\"sea");
        assert_eq!(parsed.committed_len + parsed.tail.len(), text.len());

        assert_eq!(
            render(HEADER, ["0", "1"]),
            &text[..parsed.committed_len - 13]
        );

        let newborn = format!("{HEADER}\n");
        let parsed = parse(&newborn, HEADER, seq_of).unwrap();
        assert_eq!((parsed.records, parsed.sealed, parsed.tail), (0, false, ""));
    }

    #[test]
    fn damage_at_or_before_the_last_seal_is_typed() {
        let good = render(HEADER, ["0", "1", "2"]);
        let parse = |text: &str| parse(text, HEADER, seq_of).map(|p| p.records);
        assert_eq!(parse(&good), Ok(3));
        for (bad, want) in [
            (good.replacen("test_log", "other", 1), "Version"),
            (HEADER.to_owned(), "Version"),
            (String::new(), "Version"),
            (
                good.replacen("\n1\n", "\n7\n", 1),
                "Gap { line: 3, expected: 1, found: 7 }",
            ),
            (
                good.replacen("\n1\n", "\n", 1),
                "Gap { line: 3, expected: 1, found: 2 }",
            ),
            (good.replacen("\n1\n", "\nx\n", 1), "Corrupt { line: 3,"),
            (
                good.replacen("\n1\n", "\n1\n{\"seal\":1}\n", 1),
                "Truncated { sealed: Some(1), found: 2 }",
            ),
            (
                good.replacen("\n2\n", "\n", 1),
                "Truncated { sealed: Some(3), found: 2 }",
            ),
        ] {
            let got = format!("{:?}", parse(&bad).unwrap_err());
            assert!(got.starts_with(want), "{bad:?}: got {got}, want {want}");
        }
    }

    #[test]
    fn appends_are_sealed_batches_and_recovery_cuts_only_the_unsealed_tail() {
        let path = file("append");
        let mut log = AppendLog::open(&path, HEADER, seq_of).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), format!("{HEADER}\n"));
        log.append(["0", "1"]).unwrap();
        log.append(Vec::<String>::new()).unwrap();
        log.append(["2"]).unwrap();
        assert_eq!(log.records(), 3);
        let sealed = format!("{HEADER}\n0\n1\n{{\"seal\":2}}\n2\n{{\"seal\":3}}\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), sealed);
        drop(log);

        // A crash mid-append: bytes past the last seal.
        let torn = format!("{sealed}3\n4\n{{\"seal\":");
        fs::write(&path, &torn).unwrap();
        let mut log = AppendLog::open(&path, HEADER, seq_of).unwrap();
        assert_eq!(log.records(), 3);
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            torn,
            "opening never writes"
        );
        log.append(["3"]).unwrap();
        let healed = format!("{sealed}3\n{{\"seal\":4}}\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), healed);
        let beside = fs::read_dir(path.parent().unwrap()).unwrap().count();
        assert_eq!(beside, 1, "no tmp file outlives creation");
        assert_eq!(read(&path.with_extension("absent")), Err(LogError::Missing));
    }

    // A real error from a real syscall: every `write` to `/dev/full` is
    // `ENOSPC`.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_acknowledges_nothing() {
        let mut log = AppendLog::resume(Path::new("/dev/full"), 5, 0).unwrap();
        let e = log.append(["5"]).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(28), "{e}");
        assert_eq!(log.records(), 5);
        assert!(log.dirty, "the next append must cut first");
    }
}
