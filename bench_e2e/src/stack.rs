//! Boots and owns the serving stack under test: three `fedoq-site`
//! daemons and one `fedoq-serve --workers 2` on ephemeral loopback
//! ports, as real processes (the benchmark) or as threads of this
//! process (the smoke test).

use fedoq_core::PipelineConfig;
use fedoq_net::RpcConfig;
use fedoq_wire::{spawn_serve, spawn_site, ServeOpts, SiteOpts};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Component sites in every benchmark federation.
pub const SITES: u16 = 3;
/// `fedoq-serve --workers`: one per core of the reference box.
pub const SERVE_WORKERS: usize = 2;
/// Site RPC policy of every daemon: patient enough that no healthy
/// loopback RPC ever times out, so `retries`/`lost` must stay 0.
const RPC_TIMEOUT_US: f64 = 5_000_000.0;
const RPC_RETRIES: u32 = 3;

/// How the stack is hosted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Host {
    /// Real daemons, found next to the bench binary.
    Processes,
    /// `spawn_site`/`spawn_serve` threads inside this process; they live
    /// until the process exits.
    Threads,
}

/// One daemon process, killed and reaped when dropped — on normal exit,
/// on an early `return`, and while a panic unwinds.
struct Daemon {
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A running stack. Dropping it stops every daemon it started.
pub struct Stack {
    /// Client address of the serve frontend.
    pub addr: String,
    /// Sites in site-id order, then the serve; empty for [`Host::Threads`].
    daemons: Vec<Daemon>,
}

/// Resident-set high-water marks of the daemons, MB.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rss {
    pub sites_mb: f64,
    pub serve_mb: f64,
}

/// `VmHWM` of process `pid` in MB (`self` for this process).
fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Locates a daemon binary: next to this executable (one shared target
/// directory, as `run.sh` builds it), else in the root workspace's own
/// `target/release`.
fn daemon_path(name: &str) -> Result<PathBuf, String> {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|me| me.parent().map(|dir| dir.join(name)));
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../target/release")
        .join(name);
    sibling
        .into_iter()
        .chain([workspace])
        .find(|p| p.exists())
        .ok_or_else(|| {
            format!(
                "{name} not found next to the bench binary or in target/release; \
                 build the daemons first: cargo build --release"
            )
        })
}

#[cfg(target_os = "linux")]
fn kill_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and makes
    // one async-signal-safe system call with constant arguments; it
    // touches no memory of the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn kill_with_parent(_cmd: &mut Command) {}

/// Starts one daemon; the caller reads its `LISTENING` line later so the
/// three sites build their federations concurrently.
fn start(bin: &Path, args: &[String]) -> Result<Daemon, String> {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // Destructors do not run when this process is killed by a signal
    // (a driver timeout, ^C); the kernel then kills the daemons for us.
    kill_with_parent(&mut cmd);
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    Ok(Daemon { child })
}

fn listening_addr(daemon: &mut Daemon, what: &str) -> Result<String, String> {
    let stdout = daemon.child.stdout.take().ok_or("stdout not piped")?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("{what}: {e}"))?;
    line.trim()
        .strip_prefix("LISTENING ")
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: expected LISTENING <addr>, got {line:?}"))
}

impl Stack {
    /// Boots sites and serve for `workload`; `cache` is passed to every
    /// daemon as `--cache`.
    ///
    /// # Errors
    ///
    /// A missing daemon binary, a spawn failure, or a daemon that does
    /// not announce its address. Daemons already started are stopped.
    pub fn boot(host: Host, workload: &str, cache: bool) -> Result<Stack, String> {
        match host {
            Host::Processes => Stack::boot_processes(workload, cache),
            Host::Threads => Stack::boot_threads(workload, cache),
        }
    }

    fn boot_processes(workload: &str, cache: bool) -> Result<Stack, String> {
        let site_bin = daemon_path("fedoq-site")?;
        let serve_bin = daemon_path("fedoq-serve")?;
        let common: Vec<String> = [
            "--workload",
            workload,
            "--rpc-timeout-us",
            &RPC_TIMEOUT_US.to_string(),
            "--rpc-retries",
            &RPC_RETRIES.to_string(),
            "--cache",
            &cache.to_string(),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();

        let mut daemons = Vec::new();
        for db in 0..SITES {
            let mut args = vec!["--db".to_string(), db.to_string()];
            args.extend(common.iter().cloned());
            daemons.push(start(&site_bin, &args)?);
        }
        let mut serve_args = vec!["--workers".to_string(), SERVE_WORKERS.to_string()];
        serve_args.extend(common);
        for (db, daemon) in daemons.iter_mut().enumerate() {
            serve_args.push("--site".to_string());
            serve_args.push(listening_addr(daemon, &format!("fedoq-site {db}"))?);
        }
        let mut serve = start(&serve_bin, &serve_args)?;
        let addr = listening_addr(&mut serve, "fedoq-serve")?;
        daemons.push(serve);
        Ok(Stack { addr, daemons })
    }

    fn boot_threads(workload: &str, cache: bool) -> Result<Stack, String> {
        let rpc = RpcConfig {
            timeout_us: RPC_TIMEOUT_US,
            retries: RPC_RETRIES,
            ..RpcConfig::default()
        };
        let pipeline = PipelineConfig {
            cache,
            ..PipelineConfig::default()
        };
        let mut sites = Vec::new();
        for db in 0..SITES {
            let addr = spawn_site(&SiteOpts {
                db,
                listen: "127.0.0.1:0".to_string(),
                workload: workload.to_string(),
                rpc,
                pipeline,
            })?;
            sites.push(addr.to_string());
        }
        let addr = spawn_serve(&ServeOpts {
            listen: "127.0.0.1:0".to_string(),
            sites,
            workload: workload.to_string(),
            workers: SERVE_WORKERS,
            rpc,
            pipeline,
        })?;
        Ok(Stack {
            addr: addr.to_string(),
            daemons: Vec::new(),
        })
    }

    /// High-water resident memory of the daemons so far. Hosted as
    /// threads, the whole stack shares this process, reported as serve.
    pub fn rss(&self) -> Rss {
        let Some((serve, sites)) = self.daemons.split_last() else {
            return Rss {
                sites_mb: 0.0,
                serve_mb: vm_hwm_mb("self"),
            };
        };
        Rss {
            sites_mb: sites
                .iter()
                .map(|d| vm_hwm_mb(&d.child.id().to_string()))
                .sum(),
            serve_mb: vm_hwm_mb(&serve.child.id().to_string()),
        }
    }
}
