//! Process-level measurement and run hygiene: CPU time and peak RSS from
//! `getrusage`, the environment every run starts from, the medians the
//! metrics report, and the source provenance printed with each result.

use std::path::Path;

/// `struct timeval` as `getrusage` fills it on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for the duration of
    // the call, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

/// User plus system CPU seconds of every thread of this process so far.
#[must_use]
pub fn cpu_secs() -> f64 {
    let r = rusage();
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&r.utime) + t(&r.stime)
}

/// Peak resident set of this process since the last [`reset_peak_rss`]
/// (or since it started), in MiB: `VmHWM` from `/proc/self/status`,
/// falling back to `getrusage`'s lifetime maximum.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let hwm_kib = std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
    });
    hwm_kib.unwrap_or_else(|| rusage().rest[0] as f64) / 1024.0
}

/// Restarts the peak-RSS watermark at the current resident set (Linux
/// `clear_refs` code 5, which acts on this process only and touches no
/// file). Without it, [`peak_rss_mb`] stays the lifetime peak.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// The `LCL_*` knobs that change what a run does or how it is placed.
/// Every benchmark run starts with all of them unset.
pub const CLEARED_ENV: [&str; 7] = [
    "LCL_BENCH_JSON_DIR",
    "LCL_SNAPSHOT_DIR",
    "LCL_HUGE_THRESHOLD",
    "LCL_DENSE_ROUNDS",
    "LCL_CERTIFY",
    "LCL_BENCH_SEQUENTIAL",
    "LCL_BENCH_QUICK",
];

/// Clears [`CLEARED_ENV`] and pins the worker pool to the machine's
/// parallelism. Must run before the pool first spins up, i.e. before any
/// parallel work.
pub fn reset_env() {
    let width = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for key in CLEARED_ENV {
        std::env::remove_var(key);
    }
    std::env::set_var("LCL_POOL_THREADS", width.to_string());
}

/// Median of `xs` (mean of the middle pair for even counts; 0 if empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
#[must_use]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Total size of the regular files under `dir`, and how many end in
/// `ext` (recursively).
#[must_use]
pub fn dir_bytes(dir: &Path, ext: &str) -> (u64, usize) {
    let mut bytes = 0;
    let mut matching = 0;
    let Ok(entries) = std::fs::read_dir(dir) else { return (0, 0) };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (b, m) = dir_bytes(&path, ext);
            bytes += b;
            matching += m;
        } else {
            bytes += meta.len();
            if path.extension().is_some_and(|e| e == ext) {
                matching += 1;
            }
        }
    }
    (bytes, matching)
}

/// Where the measured code came from: the git commit when `root` is a git
/// work tree (read from `.git` directly, so no subprocess), and always a
/// content hash of the sources the benchmark builds (`Cargo.toml`,
/// `Cargo.lock`, `crates/`, `vendor/`), so a checkout without git history
/// is still identified.
#[must_use]
pub fn provenance(root: &Path) -> (String, String) {
    let rev = git_rev(root).unwrap_or_else(|| "none".to_string());
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor"] {
        collect_sources(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        h = fnv1a(h, f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
        h = fnv1a(h, &std::fs::read(f).unwrap_or_default());
    }
    (rev, format!("{h:016x}"))
}

fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else { return };
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        if name == "target" {
            continue;
        }
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < f64::EPSILON);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < f64::EPSILON);
        assert!(median(&[]).abs() < f64::EPSILON);
    }

    #[test]
    fn rusage_reports_positive_cpu_and_rss() {
        assert!(cpu_secs() > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
