//! What the benchmark knows about the machine it runs on, and the two
//! controls it uses to judge it: a fixed-work register loop and CPU pinning.

use std::time::{Duration, Instant};

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Parse a kernel CPU list such as `0-1,4`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The CPUs this process may run on now, from `Cpus_allowed_list` in
/// `/proc/self/status`. Empty when the file cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(Vec::new, parse_cpu_list)
}

/// The CPUs the machine has online. Unlike [`allowed_cpus`] this does not
/// shrink once the process has pinned itself.
pub fn online_cpus() -> Vec<usize> {
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    parse_cpu_list(&online)
}

/// Pin the process to the last CPU it is allowed — before it creates any
/// thread, so that every thread inherits the mask — and return that CPU.
pub fn pin() -> Result<usize, String> {
    let cpu = *allowed_cpus()
        .last()
        .ok_or("cannot read the allowed CPUs from /proc/self/status")?;
    pin_to(cpu).map(|()| cpu)
}

/// Pin the calling thread — and every thread it later spawns — to `cpu`.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return Err(format!("cpu {cpu} beyond the 1024-bit affinity mask"));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer, the size the
    // call is told; pid 0 names the calling thread; the kernel only reads
    // the buffer.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpu}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Make `crates/device` calibrate at a quiet moment.
///
/// `CostModel` measures the cost of its own clock reads once per process,
/// over about 100 µs, at the first delay it charges, and subtracts that
/// from every emulated delay for the rest of the run. On a host whose
/// clock reads cost 20 to 40 ns depending on the moment, that one sample
/// moves every DRAM charge of the run by 10 ns or more — and an op has
/// twenty of them. So before anything else the benchmark repeats the same
/// measurement for 60 ms, waits until it reads within 3 % of the lowest
/// value seen, and charges one delay on a model of its own right then.
///
/// Returns how far the cheapest 64 B DRAM charge then lands from what the
/// model says it takes, as a share of the latter, for the host block: the
/// host has two clock levels a quarter apart, and a process that calibrated
/// on one over- or under-charges every delay whenever the host is on the
/// other. (Restarting the process until this reads within 6 % was tried;
/// the spread of `ycsb-ro-cached` over ten seeds did not shrink.)
pub fn calibrate_device_model_when_quiet() -> f64 {
    use spitfire_device::{AccessPattern, CostModel, DeviceProfile, TimeScale};
    // The loop `charge_overhead_ns` in crates/device/src/cost.rs times.
    let sample = || {
        const N: u32 = 4096;
        let start = Instant::now();
        let mut sink = 0u64;
        for _ in 0..N {
            sink = sink.wrapping_add(Instant::now().elapsed().as_nanos() as u64);
        }
        std::hint::black_box(sink);
        start.elapsed().as_nanos() as f64 / N as f64
    };
    let at_rest = (0..300).map(|_| sample()).fold(f64::MAX, f64::min);
    // Bounded: on a host that never comes to rest, take what there is.
    for _ in 0..3000 {
        if sample() <= at_rest * 1.03 {
            break;
        }
    }
    let profile = DeviceProfile::dram();
    let model = CostModel::new(profile, TimeScale::REAL);
    std::hint::black_box(model.charge_read(64, AccessPattern::Random));

    let mut cheapest = f64::MAX;
    for _ in 0..400 {
        let t = Instant::now();
        for _ in 0..16 {
            std::hint::black_box(model.charge_read(64, AccessPattern::Random));
        }
        cheapest = cheapest.min(t.elapsed().as_nanos() as f64 / 16.0);
    }
    let modelled = profile.rand_read_latency_ns as f64 + 64.0 * 1e9 / profile.rand_read_bw as f64;
    cheapest / modelled - 1.0
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit of the working tree the benchmark runs in, when it is a git
/// checkout; the driver's checkout is not, and reads "unknown".
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha.chars().take(12).collect()
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Iterations of one control-loop run (about 20 ms).
pub const CTL_ITERS: u64 = 20_000_000;

/// The control: `iters` dependent xorshift steps that touch no memory.
/// Its time is what this CPU gives a program right now, whatever the
/// system under test does.
pub fn control_loop(iters: u64) -> Duration {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed()
}

/// Nanoseconds per control-loop iteration, median of five runs.
pub fn control_ns_per_iter() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| control_loop(CTL_ITERS).as_nanos() as f64 / CTL_ITERS as f64)
        .collect();
    crate::stats::median(&runs)
}

/// [`control_ns_per_iter`] in a traced run; 0 otherwise, where nobody reads it.
pub fn control_ns_per_iter_if(traced: bool) -> f64 {
    if traced {
        control_ns_per_iter()
    } else {
        0.0
    }
}

/// The executable that answers `--control-child`; only `main` knows it does.
static CONTROL_EXE: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();

/// Name the executable [`parallel_speedup`] may start as a control process.
pub fn set_control_exe(exe: std::path::PathBuf) {
    let _ = CONTROL_EXE.set(exe);
}

/// Run `n` copies of the control loop at once, each a process of its own,
/// the `i`-th pinned to `cpus[i % len]`, and return the wall time until all
/// have ended.
fn control_processes(exe: &std::path::Path, n: usize, cpus: &[usize]) -> Result<Duration, String> {
    let start = Instant::now();
    let mut children = Vec::new();
    for i in 0..n {
        let cpu = cpus[i % cpus.len()];
        let child = std::process::Command::new(exe)
            .args(["--control-child", &cpu.to_string()])
            .spawn()
            .map_err(|e| e.to_string());
        children.push(child);
    }
    // Wait for every child that started, even when a later spawn failed.
    let mut failure = None;
    for child in children {
        match child.and_then(|mut c| c.wait().map_err(|e| e.to_string())) {
            Ok(status) if status.success() => {}
            Ok(status) => failure = Some(format!("control child: {status}")),
            Err(e) => failure = Some(e),
        }
    }
    failure.map_or(Ok(start.elapsed()), Err)
}

/// Body of a `--control-child <cpu>` process.
pub fn control_child(cpu: usize) -> Result<(), String> {
    pin_to(cpu)?;
    control_loop(CTL_ITERS * 10);
    Ok(())
}

/// How much faster two control processes on two CPUs finish than one after
/// the other would: 2 on two real cores, 1 when the "CPUs" share one.
/// Returns 0 when fewer than two CPUs are online, no control executable was
/// named, or a child fails (one that may not use the CPU it was given, say).
pub fn parallel_speedup() -> f64 {
    let cpus = online_cpus();
    let Some(exe) = CONTROL_EXE.get().filter(|_| cpus.len() >= 2) else {
        return 0.0;
    };
    let run = || -> Result<f64, String> {
        let one = control_processes(exe, 1, &cpus)?;
        let two = control_processes(exe, 2, &cpus)?;
        Ok(2.0 * one.as_secs_f64() / two.as_secs_f64())
    };
    run().unwrap_or_else(|e| {
        eprintln!("benchmark: parallel control failed: {e}");
        0.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb() > 0.0);
        assert!(!cpu_model().is_empty());
    }

    #[test]
    fn control_time_grows_with_work() {
        let short = control_loop(1_000_000);
        let long = control_loop(8_000_000);
        assert!(long > short * 3, "{short:?} vs {long:?}");
    }
}
