//! `vfcd` — the virtual frequency controller daemon.
//!
//! `vfcd --help` prints every flag, one row each, with the config key
//! the flag sets beside it (`vfc_controller::daemon::usage`, rendered
//! from the table the parser reads).
//!
//! Without explicit roots it attaches to the live host
//! (`/sys/fs/cgroup`, `/proc`, `/sys/devices/system/cpu`; cgroup v1 and
//! v2 both supported, root privileges required to write `cpu.max`).
//! With `--journal` the daemon persists a crash journal every
//! `--journal-interval` periods and warm-restarts from it on boot (see
//! `vfc_controller::persist` and DESIGN.md §10).
//! With `--metrics` / `--metrics-addr` every iteration publishes a
//! Prometheus text page (atomically-swapped textfile / minimal HTTP
//! endpoint), and `--trace-dump` writes the last `--trace-len`
//! iterations' per-stage traces as JSON on every exit path (see
//! docs/OBSERVABILITY.md for the metric reference).
//! See `vfc_controller::daemon` for the config-file format.

use std::process::ExitCode;
use vfc_controller::daemon;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "vfcd — virtual frequency controller daemon\n\n{}",
            daemon::usage()
        );
        return ExitCode::SUCCESS;
    }
    let cfg = match daemon::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("vfcd: {e}");
            return ExitCode::FAILURE;
        }
    };
    match daemon::run(cfg) {
        Ok(n) => {
            eprintln!("vfcd: exiting after {n} iterations");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vfcd: {e}");
            ExitCode::FAILURE
        }
    }
}
