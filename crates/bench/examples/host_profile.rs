//! A sampling profile of the `node_sim` loop: `vfc_bench::mixed_host`
//! under the paper's controller, `advance_period` then `iterate_into`,
//! for 20 s. With the argument `fs`, of the `node_fs` loop instead: the
//! controller over `FsBackend` on a fixture tree of 40 VMs × 2 vCPUs on
//! 40 CPUs (under `TMPDIR`; `tools/profile.sh fs` puts it on `/dev/shm`),
//! with the guests' `cpu.stat` rewrites between iterations outside the
//! sampled time.
//!
//! `SIGPROF` interrupts the loop at the kernel timer rate (an
//! `ITIMER_PROF` asked for 1 µs fires once per timer tick the process
//! runs, `CONFIG_HZ` times per CPU second), and each interrupt records the
//! instruction it landed on. At the end every sample is printed as one
//! line, `OBJECT OFFSET`: the file mapped at that address and the offset
//! from the file's load base (where its first page is mapped), which for
//! this position-independent executable is the address its debug line
//! tables use.
//! `tools/profile.sh` runs this and resolves the offsets with
//! `addr2line -i` into shares by function and by source line.
//!
//! Reading the interrupted instruction pointer needs the kernel's
//! `ucontext_t` layout, so the sampler exists for x86_64 Linux only;
//! anywhere else the example says so and exits 0.
//!
//! ```bash
//! cargo run --release -p vfc-bench --example host_profile > samples.txt
//! TMPDIR=/dev/shm cargo run --release -p vfc-bench --example host_profile fs > samples.txt
//! ```

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sigprof {
    //! `setitimer` + `sigaction`, declared by hand (glibc's x86_64 ABI).
    use std::io;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    /// Samples kept; 20 s at up to 1 000 Hz fit with room to spare.
    const CAPACITY: usize = 1 << 16;
    static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    static PAUSED: AtomicBool = AtomicBool::new(false);

    const SIGPROF: i32 = 27;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    const ITIMER_PROF: i32 = 2;
    /// Offset of `uc_mcontext.gregs[REG_RIP]` in `ucontext_t`: `uc_flags`
    /// and `uc_link` (8 bytes each), a 24-byte `stack_t`, then the
    /// general registers, of which RIP is number 16.
    const RIP_OFFSET: usize = 8 + 8 + 24 + 16 * 8;

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    /// Records the interrupted instruction pointer unless paused: three
    /// atomic operations, nothing that could take a lock.
    extern "C" fn on_sigprof(_signum: i32, _info: *mut u8, context: *mut u8) {
        if PAUSED.load(Ordering::Relaxed) {
            return;
        }
        // SAFETY: under SA_SIGINFO the third argument is the interrupted
        // thread's `ucontext_t`, which holds RIP at `RIP_OFFSET`.
        let rip = unsafe { context.add(RIP_OFFSET).cast::<u64>().read_unaligned() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = SAMPLES.get(i) {
            slot.store(rip, Ordering::Relaxed);
        }
    }

    fn set_timer(usec: i64) -> io::Result<()> {
        let every = TimeVal { sec: 0, usec };
        let timer = ITimerVal {
            interval: every,
            value: every,
        };
        // SAFETY: `timer` outlives the call; the old value is not wanted.
        if unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Drop the samples that land before [`resume`]: the time between
    /// is not profiled. (Re-arming the timer instead would restart its
    /// count each time, and a loop that pauses every period would almost
    /// never reach a tick.)
    pub fn pause() {
        PAUSED.store(true, Ordering::Relaxed);
    }

    pub fn resume() {
        PAUSED.store(false, Ordering::Relaxed);
    }

    /// Install the handler and start the profiling timer.
    pub fn start() -> io::Result<()> {
        let act = SigAction {
            handler: on_sigprof as extern "C" fn(i32, *mut u8, *mut u8) as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` is a valid glibc `struct sigaction` whose handler
        // has the SA_SIGINFO signature.
        if unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        set_timer(1)
    }

    /// Stop the timer and return the instruction pointers sampled.
    pub fn stop() -> io::Result<Vec<u64>> {
        set_timer(0)?;
        let n = TAKEN.load(Ordering::Relaxed).min(CAPACITY);
        Ok(SAMPLES[..n]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect())
    }
}

/// One named mapping of `/proc/self/maps`: its address range and name.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
struct Mapping {
    start: u64,
    end: u64,
    name: String,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn mappings() -> std::io::Result<Vec<Mapping>> {
    let maps = std::fs::read_to_string("/proc/self/maps")?;
    let hex = |s: &str| u64::from_str_radix(s, 16).unwrap_or(0);
    Ok(maps
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (start, end) = fields.next()?.split_once('-')?;
            let name = fields.nth(4)?.to_owned();
            Some(Mapping {
                start: hex(start),
                end: hex(end),
                name,
            })
        })
        .collect())
}

/// How long each loop is sampled.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SAMPLED: std::time::Duration = std::time::Duration::from_secs(20);

/// The `node_sim` loop under the sampler; returns the periods run and
/// the time sampled.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sim_loop() -> std::io::Result<(u64, std::time::Duration)> {
    use std::time::Instant;
    use vfc_bench::{mixed_host, warm_up};
    use vfc_controller::controller::IterationReport;
    use vfc_controller::{Controller, ControllerConfig};

    let mut host = mixed_host();
    let mut controller = Controller::new(ControllerConfig::paper_defaults(), host.topology_info());
    warm_up(&mut host, &mut controller, 20);
    let mut report = IterationReport::default();

    let started = Instant::now();
    let mut periods = 0u64;
    sigprof::start()?;
    while started.elapsed() < SAMPLED {
        host.advance_period();
        controller
            .iterate_into(&mut host, &mut report)
            .expect("sim backend");
        periods += 1;
    }
    Ok((periods, started.elapsed()))
}

/// The `node_fs` loop under the sampler, the guests' writes unsampled;
/// returns the periods run and the time sampled.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn fs_loop() -> std::io::Result<(u64, std::time::Duration)> {
    use std::os::unix::fs::FileExt;
    use std::time::{Duration, Instant};
    use vfc_cgroupfs::fixture::FixtureTree;
    use vfc_cgroupfs::model::CpuStat;
    use vfc_cgroupfs::parse;
    use vfc_cgroupfs::tree::kvm_layout;
    use vfc_cgroupfs::HostBackend;
    use vfc_controller::controller::IterationReport;
    use vfc_controller::{Controller, ControllerConfig};
    use vfc_simcore::{MHz, Micros, SplitMix64};

    /// One guest vCPU: its kept `cpu.stat`, counters and mean demand.
    struct Guest {
        stat_file: std::fs::File,
        stat: CpuStat,
        level: f64,
    }

    let mut builder = FixtureTree::builder().cpus(40, MHz(2400));
    let names: Vec<String> = (0..40).map(|i| format!("vm{i:02}")).collect();
    for (i, name) in names.iter().enumerate() {
        let base = 1_000 + 10 * i as u32;
        builder = builder.vm(name, 2, &[base, base + 1]);
    }
    let fixture = builder.build();
    let mut backend = fixture.backend();
    let slice = fixture.cgroup_root().join(kvm_layout::MACHINE_SLICE);
    let mut rng = SplitMix64::new(0xF5);
    let mut guests = Vec::new();
    for (i, name) in names.iter().enumerate() {
        backend.set_vfreq(name.clone(), MHz(if i % 2 == 0 { 600 } else { 1800 }));
        for vcpu in 0..2 {
            let stat = slice
                .join(kvm_layout::scope_name(i as u32 + 1, name))
                .join("libvirt")
                .join(kvm_layout::vcpu_dir(vcpu))
                .join("cpu.stat");
            guests.push(Guest {
                stat_file: std::fs::OpenOptions::new().write(true).open(stat)?,
                stat: CpuStat::default(),
                level: rng.uniform(0.05, 1.0),
            });
        }
    }
    let mut controller = Controller::new(ControllerConfig::paper_defaults(), backend.topology());
    let period = controller.config().period;
    let mut report = IterationReport::default();
    // Each guest uses its demand, clipped by what the controller allowed
    // it last (report rows are in the guests' order).
    let mut consume = |report: &IterationReport, rng: &mut SplitMix64| -> std::io::Result<()> {
        for (i, g) in guests.iter_mut().enumerate() {
            let allowed = report.vcpus.get(i).map_or(Micros::SEC, |row| row.alloc);
            let want = (g.level * rng.uniform(0.85, 1.15)).clamp(0.0, 1.0);
            g.stat.account_usage(period.scale(want).min(allowed));
            g.stat_file
                .write_all_at(parse::format_cpu_stat(&g.stat).as_bytes(), 0)?;
        }
        Ok(())
    };
    for _ in 0..5 {
        consume(&report, &mut rng)?;
        controller
            .iterate_into(&mut backend, &mut report)
            .expect("fixture backend");
    }

    let mut sampled = Duration::ZERO;
    let mut periods = 0u64;
    sigprof::start()?;
    while sampled < SAMPLED {
        sigprof::pause();
        consume(&report, &mut rng)?;
        sigprof::resume();
        let t0 = Instant::now();
        controller
            .iterate_into(&mut backend, &mut report)
            .expect("fixture backend");
        sampled += t0.elapsed();
        periods += 1;
    }
    Ok((periods, sampled))
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() -> std::io::Result<()> {
    use std::io::Write;

    let (periods, sampled) = match std::env::args().nth(1).as_deref() {
        None => sim_loop()?,
        Some("fs") => fs_loop()?,
        Some(other) => {
            eprintln!("host_profile: unknown mode {other:?} (none, or `fs`)");
            std::process::exit(2);
        }
    };
    let samples = sigprof::stop()?;

    let maps = mappings()?;
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    // An object's load base is its lowest mapping (the kernel lists
    // mappings in address order).
    let base = |name: &str| maps.iter().find(|m| m.name == name).map_or(0, |m| m.start);
    for rip in &samples {
        match maps.iter().find(|m| (m.start..m.end).contains(rip)) {
            Some(m) => writeln!(out, "{} {:#x}", m.name, rip - base(&m.name))?,
            None => writeln!(out, "[unmapped] {rip:#x}")?,
        }
    }
    out.flush()?;
    eprintln!(
        "host_profile: {} samples over {periods} periods in {:.1} s",
        samples.len(),
        sampled.as_secs_f64()
    );
    Ok(())
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("host_profile: the SIGPROF sampler reads x86_64 Linux registers; nothing to do here");
}
