//! The host record stamped into every result file, and the sizing rule
//! every workload follows: never more worker threads, generator threads
//! or connections than the host has CPUs.

use calu::sched::{CpuTopology, StealTier};

use crate::json::Json;

/// Worker threads and connections are capped here so a large host runs
/// the same schedule shapes as the 2–4 core machines this is tuned on.
const MAX_THREADS: usize = 4;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub sockets: usize,
    pub smt: usize,
    pub cpu_model: String,
    /// Last-level cache size in bytes; 0 when sysfs does not say.
    pub llc_bytes: u64,
    /// 1-minute load average when the process started; negative when
    /// `/proc/loadavg` is unreadable.
    pub loadavg1: f64,
    /// Worker threads `T` every workload runs with.
    pub threads: usize,
    /// Client connections `C` of the served workload.
    pub connections: usize,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let topo = CpuTopology::detect();
        let smt = 1
            + (1..topo.len())
                .filter(|&v| topo.tier_between(0, v) == StealTier::Sibling)
                .count();
        let width = nproc.min(MAX_THREADS);
        Host {
            nproc,
            sockets: topo.sockets(),
            smt,
            cpu_model: cpu_model(),
            llc_bytes: llc_bytes(),
            loadavg1: loadavg1(),
            threads: width,
            connections: width,
        }
    }

    /// More runnable work than half the CPUs before we even start: the
    /// timings of this run cannot be held against another run's.
    pub fn noisy(&self) -> bool {
        self.loadavg1 > self.nproc as f64 / 2.0
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("nproc", self.nproc)
            .with("sockets", self.sockets)
            .with("smt", self.smt)
            .with("cpu_model", self.cpu_model.as_str())
            .with("llc_bytes", self.llc_bytes)
            .with("loadavg1", self.loadavg1)
            .with("threads", self.threads)
            .with("connections", self.connections)
            .with("noisy_host", self.noisy())
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of cpu0's highest-level data or unified cache.
fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().unwrap_or(0);
        if level > best.0 {
            best = (level, parse_size(size.trim()));
        }
    }
    best.1
}

/// `"2048K"` / `"260M"` / `"512"` → bytes; 0 when malformed.
fn parse_size(s: &str) -> u64 {
    let (digits, scale) = match s.as_bytes().last() {
        Some(b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().map_or(0, |n| n.saturating_mul(scale))
}

fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Peak resident set of this process in MB (`VmHWM`); 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_and_without_suffix() {
        assert_eq!(parse_size("48K"), 48 << 10);
        assert_eq!(parse_size("260M"), 260 << 20);
        assert_eq!(parse_size("512"), 512);
        assert_eq!(parse_size("junk"), 0);
    }

    #[test]
    fn sizing_never_exceeds_the_host_or_the_cap() {
        let h = Host::detect();
        assert!(h.threads >= 1 && h.threads <= h.nproc && h.threads <= MAX_THREADS);
        assert_eq!(h.connections, h.threads);
        assert!(h.smt >= 1 && h.sockets >= 1);
        assert_eq!(
            h.to_json().get("nproc").and_then(Json::as_f64),
            Some(h.nproc as f64)
        );
    }
}
