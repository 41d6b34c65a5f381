//! Process CPU and memory from `/proc`, and the host record printed
//! with every result.

use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported USER_HZ = 100 on every mainstream architecture since 2.6.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time so far, (user ms, system ms), all threads.
pub fn cpu_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line; `rest`
    // starts at field 3.
    let tick = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (
        tick(11) * 1000.0 / TICKS_PER_S,
        tick(12) * 1000.0 / TICKS_PER_S,
    )
}

/// Peak resident set size so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit under test: `git rev-parse HEAD` when the working
/// directory is the root of a repository, otherwise `unknown` (a plain
/// source checkout; asking git there could name an enclosing repo).
fn commit() -> String {
    if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// The host record: everything a result depends on besides the code.
pub fn record(tmp: &Path) -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("available_parallelism", parallelism.to_string()),
        ("kernel", kernel),
        ("rustc", command_line("rustc", &["--version"])),
        ("commit", commit()),
        ("temp_dir", tmp.display().to_string()),
        ("temp_dir_fs", fs_type(tmp)),
    ]
}
