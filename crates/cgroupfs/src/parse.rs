//! Parsers and formatters for the kernel interface files the controller
//! reads and writes.
//!
//! Formats implemented exactly as the kernel emits them, so the
//! [`crate::fs::FsBackend`] works against a real cgroup-v2 mount:
//!
//! * `cpu.max` — `"$QUOTA $PERIOD\n"` with `QUOTA ∈ {max, <µs>}`;
//! * `cpu.stat` — `key value` lines; unknown keys are ignored (newer
//!   kernels add PSI-adjacent fields);
//! * `cgroup.threads` — one TID per line;
//! * `scaling_cur_freq` — a single integer in **kHz**;
//! * `/proc/{tid}/stat` — the 52-field process stat line; we extract field
//!   39 (`processor`, the CPU the thread last ran on), coping with
//!   parentheses and spaces inside `comm`.

use crate::error::{CgroupError, Result};
use crate::model::{CpuMax, CpuStat};
use std::fmt;
use vfc_simcore::{CpuId, MHz, Micros, Tid};

/// Parse the content of a `cpu.max` file.
pub fn parse_cpu_max(content: &str) -> Result<CpuMax> {
    let mut it = content.split_ascii_whitespace();
    let quota = it
        .next()
        .ok_or_else(|| CgroupError::parse("cpu.max", content))?;
    let period = it
        .next()
        .ok_or_else(|| CgroupError::parse("cpu.max", content))?;
    if it.next().is_some() {
        return Err(CgroupError::parse("cpu.max", content));
    }
    let quota = if quota == "max" {
        None
    } else {
        Some(Micros(
            quota
                .parse()
                .map_err(|_| CgroupError::parse("cpu.max quota", content))?,
        ))
    };
    let period = Micros(
        period
            .parse()
            .map_err(|_| CgroupError::parse("cpu.max period", content))?,
    );
    Ok(CpuMax { quota, period })
}

/// Render a [`CpuMax`] in the exact format the kernel accepts on write.
pub fn format_cpu_max(max: &CpuMax) -> String {
    let mut out = String::new();
    write_cpu_max(&mut out, max).expect("writing to a String cannot fail");
    out
}

/// [`format_cpu_max`] into a caller-provided sink — the filesystem
/// backend formats every cap into a stack buffer, off the allocator.
pub fn write_cpu_max(out: &mut impl fmt::Write, max: &CpuMax) -> fmt::Result {
    match max.quota {
        None => writeln!(out, "max {}", max.period.as_u64()),
        Some(q) => writeln!(out, "{} {}", q.as_u64(), max.period.as_u64()),
    }
}

/// Parse the content of a `cpu.stat` file. Unknown keys are skipped.
pub fn parse_cpu_stat(content: &str) -> Result<CpuStat> {
    let mut stat = CpuStat::default();
    let mut saw_usage = false;
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| CgroupError::parse("cpu.stat line", line))?;
        let parse_u64 = || -> Result<u64> {
            value
                .trim()
                .parse()
                .map_err(|_| CgroupError::parse("cpu.stat value", line))
        };
        match key {
            "usage_usec" => {
                stat.usage_usec = Micros(parse_u64()?);
                saw_usage = true;
            }
            "user_usec" => stat.user_usec = Micros(parse_u64()?),
            "system_usec" => stat.system_usec = Micros(parse_u64()?),
            "nr_periods" => stat.nr_periods = parse_u64()?,
            "nr_throttled" => stat.nr_throttled = parse_u64()?,
            "throttled_usec" => stat.throttled_usec = Micros(parse_u64()?),
            _ => {} // nr_bursts, burst_usec, core_sched.*, …
        }
    }
    if !saw_usage {
        return Err(CgroupError::parse("cpu.stat (no usage_usec)", content));
    }
    Ok(stat)
}

/// Render a [`CpuStat`] as the kernel does (the six guaranteed fields).
pub fn format_cpu_stat(stat: &CpuStat) -> String {
    format!(
        "usage_usec {}\nuser_usec {}\nsystem_usec {}\nnr_periods {}\nnr_throttled {}\nthrottled_usec {}\n",
        stat.usage_usec.as_u64(),
        stat.user_usec.as_u64(),
        stat.system_usec.as_u64(),
        stat.nr_periods,
        stat.nr_throttled,
        stat.throttled_usec.as_u64(),
    )
}

/// The TIDs of a `cgroup.threads` file, line by line.
fn thread_lines(content: &str) -> impl Iterator<Item = Result<Tid>> + '_ {
    content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.parse::<u32>()
                .map(Tid::new)
                .map_err(|_| CgroupError::parse("cgroup.threads", l))
        })
}

/// Parse a `cgroup.threads` file: one TID per line.
pub fn parse_threads(content: &str) -> Result<Vec<Tid>> {
    thread_lines(content).collect()
}

/// First TID of a `cgroup.threads` file without materialising the list
/// (KVM vCPU groups hold exactly one thread). Validates every line, so
/// it fails on exactly the inputs [`parse_threads`] fails on.
pub fn parse_first_thread(content: &str) -> Result<Option<Tid>> {
    let mut first = None;
    for tid in thread_lines(content) {
        first.get_or_insert(tid?);
    }
    Ok(first)
}

/// Render a `cgroup.threads` file.
pub fn format_threads(tids: &[Tid]) -> String {
    let mut out = String::with_capacity(tids.len() * 8);
    for t in tids {
        out.push_str(&t.as_u32().to_string());
        out.push('\n');
    }
    out
}

/// Parse a `scaling_cur_freq` file (kHz) into MHz.
pub fn parse_scaling_cur_freq(content: &str) -> Result<MHz> {
    let khz: u64 = content
        .trim()
        .parse()
        .map_err(|_| CgroupError::parse("scaling_cur_freq", content))?;
    Ok(MHz::from_khz(khz))
}

/// Render a `scaling_cur_freq` file from a MHz value.
pub fn format_scaling_cur_freq(freq: MHz) -> String {
    format!("{}\n", freq.as_khz())
}

/// Extract the `processor` field (39th, the CPU the thread last ran on)
/// from a `/proc/{tid}/stat` line.
///
/// The `comm` field (2nd) is delimited by parentheses and may itself
/// contain spaces and parentheses (e.g. `(CPU 0/KVM)`), so fields are
/// counted from the **last** closing parenthesis, per proc(5).
pub fn parse_stat_last_cpu(content: &str) -> Result<CpuId> {
    let after_comm = content
        .rfind(')')
        .map(|i| &content[i + 1..])
        .ok_or_else(|| CgroupError::parse("/proc/tid/stat (no comm)", content))?;
    // after_comm starts at field 3 (state). processor is field 39, i.e.
    // the 37th whitespace-separated token here (0-based index 36).
    let tok = after_comm
        .split_ascii_whitespace()
        .nth(36)
        .ok_or_else(|| CgroupError::parse("/proc/tid/stat (short)", content))?;
    tok.parse::<u32>()
        .map(CpuId::new)
        .map_err(|_| CgroupError::parse("/proc/tid/stat processor", tok))
}

/// Render a minimal-but-valid `/proc/{tid}/stat` line (52 fields) for a
/// KVM vCPU thread, with the given last-run CPU. Used by fixtures and the
/// simulator's procfs emulation.
pub fn format_stat_line(tid: Tid, comm: &str, last_cpu: CpuId) -> String {
    // Fields 3..=38 and 40..=52, zeroed except state ("R") and a plausible
    // priority block — the controller only ever reads field 39.
    let mut fields: Vec<String> = Vec::with_capacity(52);
    fields.push(tid.as_u32().to_string()); // 1 pid
    fields.push(format!("({comm})")); // 2 comm
    fields.push("R".to_string()); // 3 state
    for _ in 4..=38 {
        fields.push("0".to_string());
    }
    fields.push(last_cpu.as_u32().to_string()); // 39 processor
    for _ in 40..=52 {
        fields.push("0".to_string());
    }
    fields.join(" ") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_max_unlimited_roundtrip() {
        let m = parse_cpu_max("max 100000\n").unwrap();
        assert!(m.is_unlimited());
        assert_eq!(m.period, Micros(100_000));
        assert_eq!(format_cpu_max(&m), "max 100000\n");
    }

    #[test]
    fn cpu_max_limited_roundtrip() {
        let m = parse_cpu_max("50000 100000\n").unwrap();
        assert_eq!(m.quota, Some(Micros(50_000)));
        assert_eq!(format_cpu_max(&m), "50000 100000\n");
    }

    #[test]
    fn cpu_max_rejects_garbage() {
        assert!(parse_cpu_max("").is_err());
        assert!(parse_cpu_max("max").is_err());
        assert!(parse_cpu_max("10 20 30").is_err());
        assert!(parse_cpu_max("abc 100000").is_err());
        assert!(parse_cpu_max("100 def").is_err());
    }

    #[test]
    fn cpu_stat_parses_kernel_output() {
        let content = "usage_usec 1234567\nuser_usec 1000000\nsystem_usec 234567\n\
                       nr_periods 100\nnr_throttled 7\nthrottled_usec 42000\n\
                       nr_bursts 0\nburst_usec 0\n";
        let s = parse_cpu_stat(content).unwrap();
        assert_eq!(s.usage_usec, Micros(1_234_567));
        assert_eq!(s.user_usec, Micros(1_000_000));
        assert_eq!(s.system_usec, Micros(234_567));
        assert_eq!(s.nr_periods, 100);
        assert_eq!(s.nr_throttled, 7);
        assert_eq!(s.throttled_usec, Micros(42_000));
    }

    #[test]
    fn cpu_stat_roundtrip() {
        let s = CpuStat {
            usage_usec: Micros(5),
            user_usec: Micros(4),
            system_usec: Micros(1),
            nr_periods: 2,
            nr_throttled: 1,
            throttled_usec: Micros(9),
        };
        assert_eq!(parse_cpu_stat(&format_cpu_stat(&s)).unwrap(), s);
    }

    #[test]
    fn cpu_stat_requires_usage() {
        assert!(parse_cpu_stat("user_usec 1\n").is_err());
        assert!(parse_cpu_stat("usage_usec notanumber\n").is_err());
        assert!(parse_cpu_stat("nolinevalue\n").is_err());
    }

    #[test]
    fn threads_roundtrip() {
        let tids = vec![Tid::new(101), Tid::new(102), Tid::new(9999)];
        let content = format_threads(&tids);
        assert_eq!(parse_threads(&content).unwrap(), tids);
        assert_eq!(parse_threads("").unwrap(), vec![]);
        assert_eq!(parse_threads("\n\n10\n\n").unwrap(), vec![Tid::new(10)]);
        assert!(parse_threads("abc\n").is_err());
    }

    #[test]
    fn first_thread_agrees_with_the_full_parse() {
        for content in ["", "\n\n10\n\n", "7\n8\n9\n", "abc\n", "5\nxyz\n"] {
            match parse_threads(content) {
                Ok(all) => assert_eq!(
                    parse_first_thread(content).unwrap(),
                    all.first().copied(),
                    "{content:?}"
                ),
                Err(_) => assert!(parse_first_thread(content).is_err(), "{content:?}"),
            }
        }
    }

    #[test]
    fn scaling_cur_freq_roundtrip() {
        assert_eq!(parse_scaling_cur_freq("2400000\n").unwrap(), MHz(2400));
        assert_eq!(format_scaling_cur_freq(MHz(2400)), "2400000\n");
        assert!(parse_scaling_cur_freq("fast\n").is_err());
    }

    #[test]
    fn proc_stat_extracts_processor() {
        let line = format_stat_line(Tid::new(4242), "CPU 0/KVM", CpuId::new(17));
        assert_eq!(parse_stat_last_cpu(&line).unwrap(), CpuId::new(17));
    }

    #[test]
    fn proc_stat_handles_parens_and_spaces_in_comm() {
        // comm with nested parens and spaces, as KVM vCPU threads have.
        let line = format_stat_line(Tid::new(7), "weird (comm) name", CpuId::new(3));
        assert_eq!(parse_stat_last_cpu(&line).unwrap(), CpuId::new(3));
    }

    #[test]
    fn proc_stat_rejects_malformed() {
        assert!(parse_stat_last_cpu("no comm here").is_err());
        assert!(parse_stat_last_cpu("1 (x) R 0 0").is_err()); // too short
    }

    #[test]
    fn proc_stat_line_has_52_fields_after_comm_normalization() {
        let line = format_stat_line(Tid::new(1), "qemu", CpuId::new(0));
        let after = &line[line.rfind(')').unwrap() + 1..];
        assert_eq!(after.split_ascii_whitespace().count(), 50); // fields 3..=52
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_cpu_max_roundtrip(
                quota in proptest::option::of(0u64..10_000_000),
                period in 1_000u64..1_000_000,
            ) {
                let m = CpuMax {
                    quota: quota.map(Micros),
                    period: Micros(period),
                };
                prop_assert_eq!(parse_cpu_max(&format_cpu_max(&m)).unwrap(), m);
            }

            #[test]
            fn prop_cpu_stat_roundtrip(
                usage in 0u64..u64::MAX / 16,
                periods in 0u64..1_000_000,
                throttled in 0u64..1_000_000,
                t_us in 0u64..u64::MAX / 2,
            ) {
                let user = Micros(usage / 10 * 9);
                let s = CpuStat {
                    usage_usec: Micros(usage),
                    user_usec: user,
                    system_usec: Micros(usage) - user,
                    nr_periods: periods,
                    nr_throttled: throttled,
                    throttled_usec: Micros(t_us),
                };
                prop_assert_eq!(parse_cpu_stat(&format_cpu_stat(&s)).unwrap(), s);
            }

            #[test]
            fn prop_threads_roundtrip(
                tids in proptest::collection::vec(0u32..u32::MAX, 0..50),
            ) {
                let tids: Vec<Tid> = tids.into_iter().map(Tid::new).collect();
                prop_assert_eq!(
                    parse_threads(&format_threads(&tids)).unwrap(),
                    tids
                );
            }

            #[test]
            fn prop_stat_line_extracts_any_cpu(
                tid in 0u32..u32::MAX,
                cpu in 0u32..4096,
                comm in "[ -~]{1,16}", // printable ASCII, may contain ) and spaces
            ) {
                let line = format_stat_line(Tid::new(tid), &comm, CpuId::new(cpu));
                prop_assert_eq!(
                    parse_stat_last_cpu(&line).unwrap(),
                    CpuId::new(cpu)
                );
            }

            #[test]
            fn prop_scaling_cur_freq_roundtrip(mhz in 0u32..100_000) {
                prop_assert_eq!(
                    parse_scaling_cur_freq(&format_scaling_cur_freq(MHz(mhz))).unwrap(),
                    MHz(mhz)
                );
            }

            #[test]
            fn prop_parsers_never_panic_on_garbage(s in ".{0,64}") {
                let _ = parse_cpu_max(&s);
                let _ = parse_cpu_stat(&s);
                let _ = parse_threads(&s);
                let _ = parse_scaling_cur_freq(&s);
                let _ = parse_stat_last_cpu(&s);
            }
        }
    }
}
