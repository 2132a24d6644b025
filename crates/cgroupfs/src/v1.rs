//! cgroup **v1** CPU-controller file formats.
//!
//! §III.B of the paper: *"There are two versions of cgroup in Linux,
//! however the version is not important as our controller works on both."*
//! The v1 interface spreads the same state across the `cpu` and `cpuacct`
//! controllers:
//!
//! | v2 | v1 |
//! |---|---|
//! | `cpu.max` (`"$QUOTA $PERIOD"`) | `cpu.cfs_quota_us` (µs, `-1` = none) + `cpu.cfs_period_us` |
//! | `cpu.stat::usage_usec` | `cpuacct.usage` (**nanoseconds**) |
//! | `cpu.stat::nr_periods/…` | `cpu.stat` (same keys, no `_usec` suffixes: `throttled_time` in ns) |
//! | `cgroup.threads` | `tasks` |
//!
//! [`crate::fs::FsBackend`] auto-detects the hierarchy version and uses
//! these formats transparently.

use crate::error::{CgroupError, Result};
use crate::model::CpuMax;
use std::fmt;
use vfc_simcore::Micros;

/// Parse `cpu.cfs_quota_us` (+ the period read separately) into a
/// [`CpuMax`]. Quota `-1` (or any negative) means unlimited.
pub fn parse_cfs_quota(quota_content: &str, period_content: &str) -> Result<CpuMax> {
    let quota: i64 = quota_content
        .trim()
        .parse()
        .map_err(|_| CgroupError::parse("cpu.cfs_quota_us", quota_content))?;
    let period: u64 = period_content
        .trim()
        .parse()
        .map_err(|_| CgroupError::parse("cpu.cfs_period_us", period_content))?;
    Ok(CpuMax {
        quota: if quota < 0 {
            None
        } else {
            Some(Micros(quota as u64))
        },
        period: Micros(period),
    })
}

/// Render the `cpu.cfs_quota_us` file content of a [`CpuMax`].
pub fn format_cfs_quota(max: &CpuMax) -> String {
    let mut out = String::new();
    write_cfs_quota(&mut out, max).expect("writing to a String cannot fail");
    out
}

/// [`format_cfs_quota`] into a caller-provided sink.
pub fn write_cfs_quota(out: &mut impl fmt::Write, max: &CpuMax) -> fmt::Result {
    match max.quota {
        None => out.write_str("-1\n"),
        Some(q) => writeln!(out, "{}", q.as_u64()),
    }
}

/// Render the `cpu.cfs_period_us` file content.
pub fn format_cfs_period(max: &CpuMax) -> String {
    let mut out = String::new();
    write_cfs_period(&mut out, max).expect("writing to a String cannot fail");
    out
}

/// [`format_cfs_period`] into a caller-provided sink.
pub fn write_cfs_period(out: &mut impl fmt::Write, max: &CpuMax) -> fmt::Result {
    writeln!(out, "{}", max.period.as_u64())
}

/// Parse `cpuacct.usage` (cumulative nanoseconds) into µs.
pub fn parse_cpuacct_usage(content: &str) -> Result<Micros> {
    let ns: u64 = content
        .trim()
        .parse()
        .map_err(|_| CgroupError::parse("cpuacct.usage", content))?;
    Ok(Micros(ns / 1_000))
}

/// Render a `cpuacct.usage` file from a µs value.
pub fn format_cpuacct_usage(usage: Micros) -> String {
    format!("{}\n", usage.as_u64() * 1_000)
}

/// Throttling statistics from a v1 `cpu.stat` file: `nr_periods`,
/// `nr_throttled`, and `throttled_time` in **nanoseconds** (returned in
/// µs). Unknown keys are ignored; missing keys default to zero (the file
/// exists on any CFS-bandwidth-enabled v1 hierarchy).
pub fn parse_v1_cpu_stat(content: &str) -> Result<(u64, u64, Micros)> {
    let mut nr_periods = 0u64;
    let mut nr_throttled = 0u64;
    let mut throttled = Micros::ZERO;
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| CgroupError::parse("v1 cpu.stat line", line))?;
        let v: u64 = value
            .trim()
            .parse()
            .map_err(|_| CgroupError::parse("v1 cpu.stat value", line))?;
        match key {
            "nr_periods" => nr_periods = v,
            "nr_throttled" => nr_throttled = v,
            "throttled_time" => throttled = Micros(v / 1_000),
            _ => {}
        }
    }
    Ok((nr_periods, nr_throttled, throttled))
}

/// Render a v1 `cpu.stat` file.
pub fn format_v1_cpu_stat(nr_periods: u64, nr_throttled: u64, throttled: Micros) -> String {
    format!(
        "nr_periods {nr_periods}\nnr_throttled {nr_throttled}\nthrottled_time {}\n",
        throttled.as_u64() * 1_000
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_roundtrip_limited() {
        let m = parse_cfs_quota("25000\n", "100000\n").unwrap();
        assert_eq!(m.quota, Some(Micros(25_000)));
        assert_eq!(m.period, Micros(100_000));
        assert_eq!(format_cfs_quota(&m), "25000\n");
        assert_eq!(format_cfs_period(&m), "100000\n");
    }

    #[test]
    fn quota_roundtrip_unlimited() {
        let m = parse_cfs_quota("-1\n", "100000\n").unwrap();
        assert!(m.is_unlimited());
        assert_eq!(format_cfs_quota(&m), "-1\n");
    }

    #[test]
    fn quota_rejects_garbage() {
        assert!(parse_cfs_quota("abc", "100000").is_err());
        assert!(parse_cfs_quota("100", "xyz").is_err());
    }

    #[test]
    fn cpuacct_usage_is_nanoseconds() {
        assert_eq!(
            parse_cpuacct_usage("1234567000\n").unwrap(),
            Micros(1_234_567)
        );
        assert_eq!(format_cpuacct_usage(Micros(42)), "42000\n");
        // Roundtrip.
        let u = Micros(999_999);
        assert_eq!(parse_cpuacct_usage(&format_cpuacct_usage(u)).unwrap(), u);
        assert!(parse_cpuacct_usage("x").is_err());
    }

    #[test]
    fn v1_cpu_stat_roundtrip_and_units() {
        let content = format_v1_cpu_stat(100, 7, Micros(42_000));
        let (p, t, us) = parse_v1_cpu_stat(&content).unwrap();
        assert_eq!((p, t, us), (100, 7, Micros(42_000)));
        // Real kernel output with extra keys.
        let (p, t, us) =
            parse_v1_cpu_stat("nr_periods 5\nnr_throttled 2\nthrottled_time 1500000\nwait_sum 9\n")
                .unwrap();
        assert_eq!((p, t, us), (5, 2, Micros(1_500)));
        // Missing keys default to zero; junk errors.
        assert_eq!(parse_v1_cpu_stat("").unwrap(), (0, 0, Micros::ZERO));
        assert!(parse_v1_cpu_stat("nr_periods abc\n").is_err());
        assert!(parse_v1_cpu_stat("lonelytoken\n").is_err());
    }

    #[test]
    fn equivalence_with_v2_semantics() {
        // The same CpuMax produces the same budget regardless of which
        // interface serialized it.
        let m = CpuMax::with_period(Micros(50_000), Micros(100_000));
        let v1 = parse_cfs_quota(&format_cfs_quota(&m), &format_cfs_period(&m)).unwrap();
        let v2 = crate::parse::parse_cpu_max(&crate::parse::format_cpu_max(&m)).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(v1.budget_for(Micros::SEC), v2.budget_for(Micros::SEC));
    }
}
