//! The host note every output carries, and the contention probe that
//! names a noisy host when two runs disagree.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Entries of the pointer-chase ring: 4 MiB of `u32` indices, larger
/// than a private cache and sharing the last-level cache with other
/// tenants.
const CHASE_ENTRIES: usize = 1 << 20;

/// Hops timed per chase sample (about 10–20 ms on a quiet host).
const CHASE_HOPS: usize = 200_000;

/// A 4 MiB single-cycle random permutation: each entry holds the index
/// of the next hop, so every load depends on the previous one.
pub struct ChaseRing {
    next: Vec<u32>,
}

impl ChaseRing {
    /// Builds the ring with Sattolo's algorithm over a fixed xorshift
    /// stream (the ring is the same on every run).
    pub fn new() -> ChaseRing {
        let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_ENTRIES).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        ChaseRing { next }
    }

    /// Nanoseconds per dependent hop over [`CHASE_HOPS`] hops.
    pub fn sample_ns(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_HOPS {
            at = self.next[at as usize];
        }
        black_box(at);
        t0.elapsed().as_nanos() as f64 / CHASE_HOPS as f64
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`, which
/// `/proc` reports in KiB).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The CPU model `/proc/cpuinfo` names, if any.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc -V`, run to completion (the child is waited for).
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line host note: parallelism, toolchain, CPU, contention and
/// the master seed, so a figure can be rechecked on the same footing.
pub fn note(workload: &str, seed: u64, threads: usize, chase_ns: Option<f64>) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\": {{\"workload\": {}, \"seed\": {seed}, \"threads\": {threads}, \
         \"available_parallelism\": {parallelism}, \"rustc\": {}, \"cpu\": {}, \
         \"host.chase_ns\": {}}}}}",
        json_string(workload),
        json_string(&rustc_version()),
        json_string(&cpu_model()),
        chase_ns.map_or("null".into(), |ns| format!("{ns:.2}")),
    )
}
