//! Child processes of the benchmark: building the release `emmark` CLI,
//! running one CLI command with its wall time and peak resident memory
//! taken from outside, and keeping an `emmark serve` daemon that is
//! always stopped and reaped.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the release `emmark` binary from the checkout in the current
/// directory (a no-op when it is up to date) and returns its path.
pub fn build_emmark() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "emmark",
        ])
        .arg("--manifest-path")
        .arg("Cargo.toml")
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building emmark failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("emmark");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// Linux `struct rusage` (64-bit): two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Exit status and peak resident memory of a reaped child.
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    pub max_rss_mib: f64,
}

/// Waits for `child` with `wait4`, which reports the child's own peak
/// resident set. The `Child` must not be waited on again afterwards.
fn reap(child: &Child) -> Result<Exit, String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are valid, writable, and laid out
        // as the kernel's `int` and 64-bit `struct rusage`; `pid` is our
        // own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        max_rss_mib: usage.maxrss as f64 / 1024.0,
    })
}

/// One finished CLI command.
pub struct Run {
    pub wall: Duration,
    pub exit: Exit,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `bin args…` to completion, collecting stdout and stderr through
/// pipes (files would be truncated per command, and on a filesystem
/// mounted with `discard` every freed block slows the next write).
pub fn run(bin: &Path, args: &[&str]) -> Result<Run, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let (mut out, mut err) = (child.stdout.take(), child.stderr.take());
    let (stdout, stderr) = std::thread::scope(|s| {
        let err_reader = s.spawn(|| read_all(err.as_mut()));
        let stdout = read_all(out.as_mut());
        let stderr = err_reader.join().unwrap_or_default();
        (stdout, stderr)
    });
    let exit = reap(&child)?;
    Ok(Run {
        wall: start.elapsed(),
        exit,
        stdout,
        stderr,
    })
}

fn read_all(pipe: Option<&mut impl Read>) -> String {
    let mut s = String::new();
    if let Some(p) = pipe {
        let _ = p.read_to_string(&mut s);
    }
    s
}

/// A running `emmark serve --socket` daemon. Dropping it kills and reaps
/// the process if [`Daemon::finish`] was not called.
pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
    stderr_path: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits until its socket accepts connections.
    pub fn start(
        bin: &Path,
        socket: &Path,
        extra: &[&str],
        work_dir: &Path,
    ) -> Result<Self, String> {
        let _ = std::fs::remove_file(socket);
        let stderr_path = work_dir.join("daemon.stderr");
        let err = std::fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
            stderr_path,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while std::os::unix::net::UnixStream::connect(socket).is_err() {
            if Instant::now() > deadline {
                return Err("the daemon did not start listening within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    /// Reaps the daemon after an in-protocol shutdown; returns its exit
    /// and everything it wrote to stderr.
    #[allow(
        clippy::zombie_processes,
        reason = "`reap` waits for the child with wait4"
    )]
    pub fn finish(mut self) -> Result<(Exit, String), String> {
        let child = self.child.take().expect("finish runs once");
        let exit = reap(&child)?;
        let stderr = std::fs::read_to_string(&self.stderr_path).map_err(|e| e.to_string())?;
        Ok((exit, stderr))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(&child);
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
