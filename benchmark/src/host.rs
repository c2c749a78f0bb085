//! Facts about the process and the host, read from the kernel's `/proc`
//! and `/sys` interfaces (Linux only; every reader degrades to `None`).

use ptatin3d::prof::json::Value;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Seconds a fixed cache-resident loop takes right now: a control
/// measurement of the host, which calls nothing in the library.
///
/// This host is a 2-vCPU virtual machine on a shared server. At times,
/// for a fraction of a second or for minutes on end, cache-resident code
/// runs 1.4–2× slower with no steal time reported. No reported time is
/// corrected for that; the probe is printed beside the metrics so that a
/// reader, and `compare`, can tell a slow host from slow code.
pub fn speed_probe() -> f64 {
    const N: usize = 64;
    let m: Vec<f64> = (0..N * N).map(|i| (i as f64).sin()).collect();
    let x: Vec<f64> = (0..N).map(|i| (i as f64).cos()).collect();
    let mut y = vec![0.0; N];
    let t = Instant::now();
    for _ in 0..3000 {
        for (yi, row) in y.iter_mut().zip(m.chunks_exact(N)) {
            *yi = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        }
        black_box(&mut y);
    }
    t.elapsed().as_secs_f64()
}

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI; std has no
/// `sysconf`, and the 10 ms grain is 0.3 % of the shortest repetition.
const USER_HZ: f64 = 100.0;

/// Process user+sys CPU seconds so far, all threads.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut it = rest.split_whitespace();
    let utime: f64 = it.nth(11)?.parse().ok()?; // field 14
    let stime: f64 = it.next()?.parse().ok()?; // field 15
    Some((utime + stime) / USER_HZ)
}

fn status_kib(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|k| k / 1024.0)
}

/// `MemAvailable` of the host in bytes.
pub fn mem_available_bytes() -> Option<u64> {
    let info = fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Size in bytes of cpu0's data/unified cache at `level` as the host
/// reports it.
pub fn cache_bytes(level: u32) -> Option<u64> {
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(lv) = fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let ty = fs::read_to_string(format!("{dir}/type")).unwrap_or_default();
        if lv.trim().parse::<u32>().ok() == Some(level) && ty.trim() != "Instruction" {
            return parse_size(&fs::read_to_string(format!("{dir}/size")).ok()?);
        }
    }
    None
}

/// The last-level cache the host reports (L3, else L2).
pub fn llc_bytes() -> Option<u64> {
    cache_bytes(3).or_else(|| cache_bytes(2))
}

/// Host facts stamped into every result file.
pub fn facts() -> Value {
    let num = |v: Option<u64>| v.map_or(Value::Null, |b| Value::Num(b as f64));
    Value::obj(vec![
        ("threads", Value::Num(1.0)),
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model())),
        ("l2_bytes", num(cache_bytes(2))),
        ("l3_bytes", num(cache_bytes(3))),
        (
            "simd_path",
            Value::Str(format!("{:?}", ptatin3d::la::simd::detected_simd_path())),
        ),
    ])
}
