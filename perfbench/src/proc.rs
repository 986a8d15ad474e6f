//! The processes the benchmark starts: the daemon launcher, the
//! loopback echo that measures the floor, and the parent-side guard
//! that always stops and reaps them.

use crate::model::Model;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use xar_core::server::{spawn_sharded, EngineConfig, ServerConfig};
use xar_sched::DurabilityConfig;

/// A child process that printed its listening address as its first
/// stdout line. Dropping it kills and reaps the process.
pub struct Child {
    child: std::process::Child,
    pub addr: SocketAddr,
}

impl Child {
    /// Runs this executable with `args` and waits for its address line.
    pub fn spawn(args: &[String]) -> io::Result<Child> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut guard = Child { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        guard.addr = line.trim().parse().map_err(|_| {
            io::Error::other(format!("child printed {line:?} instead of its address"))
        })?;
        Ok(guard)
    }

    /// Launches the scheduler daemon for `seed`, durable under `dur`.
    pub fn daemon(seed: u64, dur: Option<&std::path::Path>) -> io::Result<Child> {
        let mut args = vec!["daemon".to_string(), "--seed".into(), seed.to_string()];
        if let Some(dir) = dur {
            args.extend(["--dur".to_string(), dir.display().to_string()]);
        }
        Child::spawn(&args)
    }

    /// Clean stop: closing stdin asks the child to shut down.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("child exited with {status}")))
        }
    }

    /// Abrupt stop (SIGKILL), as in a crash.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(|_| ())
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `daemon --seed N [--dur DIR]`: serves the seeded policy with the
/// shipped server and engine defaults until stdin closes.
pub fn serve_daemon(seed: u64, dur: Option<PathBuf>) -> io::Result<()> {
    let server = {
        let model = Model::build(seed);
        let durability = dur.map(DurabilityConfig::at);
        spawn_sharded(
            &model.policy,
            EngineConfig::default(),
            ServerConfig { durability, ..ServerConfig::default() },
        )?
    };
    announce(server.addr())?;
    io::stdin().read_to_end(&mut Vec::new())?;
    server.shutdown();
    Ok(())
}

/// `echo --req N --rep M`: the loopback floor. Serves one connection:
/// reads `N`-byte requests and answers each with `M` bytes, with no
/// parsing and no reactor — what the daemon's RTT cannot go below.
pub fn serve_echo(req: usize, rep: usize) -> io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    announce(listener.local_addr()?)?;
    let (mut s, _) = listener.accept()?;
    s.set_nodelay(true)?;
    let (mut inb, outb) = (vec![0u8; req], vec![0x5Au8; rep]);
    loop {
        match s.read_exact(&mut inb) {
            Ok(()) => s.write_all(&outb)?,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

fn announce(addr: SocketAddr) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(out, "{addr}")?;
    out.flush()
}
