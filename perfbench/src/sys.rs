//! The run's environment: fingerprint, memory high-water mark, seeded
//! randomness and scratch directories.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The benchmark package directory in the checkout being measured.
pub const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Where spans and scratch files go: `out/` under the package.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(PACKAGE_DIR).join("out")
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One-minute load average, when the platform reports it.
#[must_use]
pub fn load_avg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process so far, in MiB (0 where the
/// platform does not report it).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a command's standard output, or `unknown`.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result depends on besides the code: cores, revision,
/// compiler, seed, and the machine's load around the run.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    workload: String,
    seed: u64,
    nproc: usize,
    git_rev: String,
    rustc: String,
    load_start: Option<f64>,
    load_end: Option<f64>,
}

impl Fingerprint {
    /// Capture everything but the end-of-run load.
    #[must_use]
    pub fn capture(workload: &str, seed: u64) -> Fingerprint {
        let root = Path::new(PACKAGE_DIR)
            .parent()
            .expect("the package lives inside the repository");
        // Only ask git inside a git checkout of this repository; git would
        // otherwise report whatever repository encloses the directory.
        let git_rev = if root.join(".git").exists() {
            first_line(
                "git",
                &[
                    "-C",
                    &root.to_string_lossy(),
                    "rev-parse",
                    "--short=12",
                    "HEAD",
                ],
            )
        } else {
            "none".to_string()
        };
        Fingerprint {
            workload: workload.to_string(),
            seed,
            nproc: nproc(),
            git_rev,
            rustc: first_line("rustc", &["-V"]),
            load_start: load_avg(),
            load_end: None,
        }
    }

    /// Record the load average at the end of the run.
    pub fn finish(&mut self) {
        self.load_end = load_avg();
    }

    /// The run started on a machine already busier than its cores.
    #[must_use]
    pub fn overloaded(&self) -> bool {
        self.load_start.is_some_and(|l| l > self.nproc as f64)
    }

    /// One-line JSON rendering.
    #[must_use]
    pub fn json(&self) -> String {
        let load = |l: Option<f64>| l.map_or("null".to_string(), |v| format!("{v}"));
        format!(
            "{{\"workload\":{:?},\"seed\":{},\"nproc\":{},\"git_rev\":{:?},\"rustc\":{:?},\
             \"load_start\":{},\"load_end\":{},\"overloaded\":{}}}",
            self.workload,
            self.seed,
            self.nproc,
            self.git_rev,
            self.rustc,
            load(self.load_start),
            load(self.load_end),
            self.overloaded()
        )
    }
}

/// splitmix64: a tiny seeded generator for the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent input
    /// streams of one run do not share values.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A scratch directory under [`out_dir`], removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create a fresh, empty directory.
    ///
    /// # Panics
    ///
    /// When the directory cannot be created.
    #[must_use]
    pub fn new() -> ScratchDir {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        ScratchDir(path)
    }

    /// A path inside the directory.
    #[must_use]
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
