//! The `http-dblp` server: a child process running `whynot_service::serve`
//! as `whynot serve --workers 2 --threads 1` would over the `http-dblp`
//! questions' catalog, so its memory and CPU are its own.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use whynot_service::{ServeConfig, ServiceError};

use crate::workload::{service_for, Workload};

/// Handler workers of the server.
pub const SERVER_WORKERS: usize = 2;

/// Runs the server at pool width `width` in this process until stdin
/// reaches end-of-file: the body of the benchmark binary's `--serve` mode.
pub fn serve_until_stdin_closes(width: usize) -> Result<(), ServiceError> {
    whynot_exec::set_threads(width);
    let service = service_for(&Workload::HttpDblp.questions());
    let config = ServeConfig { workers: SERVER_WORKERS, ..ServeConfig::default() };
    let handle = whynot_service::serve(Arc::new(service), config).map_err(ServiceError::Io)?;
    println!("listening on {}", handle.addr());
    io::stdout().flush()?;
    let mut sink = Vec::new();
    let _ = io::stdin().lock().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}

/// A running server child. Dropping it closes the child's stdin (a clean
/// shutdown), kills it if it has not exited within a few seconds, and
/// always waits for it.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl ServerChild {
    /// Starts `exe --serve <width>` with the given `WHYNOT_FAULTS` plan
    /// (none when `None`) and waits until it listens.
    pub fn spawn(
        exe: &std::path::Path,
        width: usize,
        faults: Option<&str>,
    ) -> io::Result<ServerChild> {
        let mut command = Command::new(exe);
        command
            .arg("--serve")
            .arg(width.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        match faults {
            Some(plan) => command.env("WHYNOT_FAULTS", plan),
            None => command.env_remove("WHYNOT_FAULTS"),
        };
        let mut child = command.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerChild { child, stdin, addr: String::new() };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => server.addr = addr.to_string(),
            None => {
                return Err(io::Error::other(format!("server did not start: {line:?}")));
            }
        }
        Ok(server)
    }

    /// The address the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Shuts the server down and waits for it; errors if it did not exit
    /// cleanly.
    pub fn stop(mut self) -> io::Result<()> {
        let status = self.shutdown()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited with {status}")))
        }
    }

    fn shutdown(&mut self) -> io::Result<std::process::ExitStatus> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        self.child.wait()
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.shutdown();
        }
    }
}
