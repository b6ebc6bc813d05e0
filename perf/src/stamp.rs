//! What every output is stamped with: host, toolchain, revision and a
//! digest of the measured sources, so a row can be matched to the machine
//! and code that produced it (the `MachineConfiguration.detect()` plus
//! source-hash keying of SNIPPETS.md snippets 2–3).

use std::path::{Path, PathBuf};
use std::process::Command;

/// 64-bit FNV-1a, the digest the rest of the repo uses.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ sits inside the repository")
        .to_path_buf()
}

/// Everything the benchmark writes goes here (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn rust_files(dir: &Path, into: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            into.push(path);
        }
    }
}

/// FNV digest over `crates/**/*.rs` (relative path and content, in path
/// order): changes exactly when the measured program's sources do.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for path in files {
        let relative = path.strip_prefix(root).unwrap_or(&path);
        h.write(relative.to_string_lossy().as_bytes());
        h.write(&[0]);
        h.write(&std::fs::read(&path).unwrap_or_default());
        h.write(&[0]);
    }
    h.finish()
}

fn command_line(program: &str, args: &[&str], root: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(root)
        // Never look for a repository above the checkout.
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

pub struct Stamp {
    pub cores: usize,
    pub cpu: String,
    pub mem_mb: u64,
    pub rustc: String,
    /// `unknown` outside a git checkout.
    pub git: String,
    pub dirty: Option<bool>,
    pub source: u64,
}

impl Stamp {
    pub fn detect() -> Self {
        let root = repo_root();
        let mem_kb = proc_field("/proc/meminfo", "MemTotal")
            .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
            .unwrap_or(0);
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            mem_mb: mem_kb / 1024,
            rustc: command_line("rustc", &["--version"], &root).unwrap_or_else(|| "unknown".into()),
            git: command_line("git", &["rev-parse", "--short=12", "HEAD"], &root)
                .unwrap_or_else(|| "unknown".into()),
            dirty: command_line("git", &["status", "--porcelain"], &root).map(|s| !s.is_empty()),
            source: source_digest(&root),
        }
    }

    pub fn json_fields(&self) -> String {
        format!(
            "\"cores\":{},\"cpu\":\"{}\",\"mem_mb\":{},\"rustc\":\"{}\",\"git\":\"{}\",\
             \"dirty\":{},\"source\":\"{:016x}\"",
            self.cores,
            self.cpu.replace(['"', '\\'], " "),
            self.mem_mb,
            self.rustc.replace(['"', '\\'], " "),
            self.git,
            self.dirty.map_or("null".to_string(), |d| d.to_string()),
            self.source
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn source_digest_sees_content_and_names() {
        let dir = out_dir().join(format!("test-stamp-{}", std::process::id()));
        let src = dir.join("crates/x/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.rs"), "fn a() {}").unwrap();
        std::fs::write(src.join("note.txt"), "ignored").unwrap();
        let first = source_digest(&dir);
        assert_eq!(first, source_digest(&dir));
        std::fs::write(src.join("note.txt"), "still ignored").unwrap();
        assert_eq!(first, source_digest(&dir));
        std::fs::write(src.join("a.rs"), "fn a() { }").unwrap();
        let edited = source_digest(&dir);
        assert_ne!(first, edited);
        std::fs::rename(src.join("a.rs"), src.join("b.rs")).unwrap();
        assert_ne!(edited, source_digest(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
