//! Client-side connection helpers: bounded connects that name the daemon
//! on failure, one-shot control requests, and readiness probes.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::protocol::read_capped_line;

/// Default bound on one connection attempt. An unreachable daemon must be
/// a prompt, named error — not a connect() hanging for the kernel's
/// multi-minute SYN retry budget.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Resolves `addr` and connects with [`CONNECT_TIMEOUT`] per candidate
/// address. Every failure names the daemon address, so a dead fleet
/// member is identifiable from the error alone.
///
/// # Errors
///
/// [`ServeError::Io`] naming `addr` when it does not resolve or no
/// candidate accepts within the timeout.
pub fn connect(addr: &str) -> Result<TcpStream, ServeError> {
    connect_with_timeout(addr, CONNECT_TIMEOUT)
}

/// [`connect`] with an explicit per-candidate timeout.
///
/// # Errors
///
/// [`ServeError::Io`] naming `addr`.
pub fn connect_with_timeout(addr: &str, timeout: Duration) -> Result<TcpStream, ServeError> {
    let candidates: Vec<_> = addr
        .to_socket_addrs()
        .map_err(|e| ServeError::Io(format!("daemon address {addr} does not resolve: {e}")))?
        .collect();
    let mut last: Option<std::io::Error> = None;
    for candidate in &candidates {
        match TcpStream::connect_timeout(candidate, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(ServeError::Io(match last {
        Some(e) => format!("daemon at {addr} is unreachable: {e}"),
        None => format!("daemon address {addr} resolves to nothing"),
    }))
}

/// Sends one control request (`"stats"` or `"scenarios"`) and returns the
/// daemon's one-line answer.
///
/// # Errors
///
/// [`ServeError::Io`] / [`ServeError::Protocol`].
pub fn request_control(addr: &str, kind: &str) -> Result<String, ServeError> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    {
        let mut writer = BufWriter::new(&stream);
        writeln!(writer, "{{\"kind\":\"{kind}\"}}")?;
        writer.flush()?;
    }
    stream.shutdown(Shutdown::Write)?;
    let line = read_capped_line(&mut reader)?
        .map(|l| l.trim_end().to_string())
        .filter(|l| !l.is_empty())
        .ok_or_else(|| ServeError::Protocol(format!("{addr}: empty control response")))?;
    Ok(line)
}

/// [`wait_ready`] over a whole worker list, probing **concurrently** and
/// collecting every failure — so a submission against a fleet with three
/// dead daemons reports all three addresses at once after one timeout,
/// instead of serially burning one timeout per corpse.
///
/// # Errors
///
/// [`ServeError::Io`] listing every unreachable address.
pub fn wait_all_ready(workers: &[String], timeout: Duration) -> Result<(), ServeError> {
    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let probes: Vec<_> = workers
            .iter()
            .map(|worker| scope.spawn(move || wait_ready(worker, timeout).err()))
            .collect();
        for (worker, probe) in workers.iter().zip(probes) {
            if let Some(e) = probe.join().expect("probe thread") {
                failures.push(format!("{worker} ({e})"));
            }
        }
    });
    if failures.is_empty() {
        Ok(())
    } else {
        Err(ServeError::Io(format!(
            "{} of {} daemons unreachable: {}",
            failures.len(),
            workers.len(),
            failures.join(", ")
        )))
    }
}

/// Polls a daemon's `stats` endpoint until it answers (startup
/// synchronization for scripts and CI).
///
/// # Errors
///
/// [`ServeError::Io`] when the daemon never comes up within `timeout`.
pub fn wait_ready(addr: &str, timeout: Duration) -> Result<(), ServeError> {
    let deadline = Instant::now() + timeout;
    loop {
        match request_control(addr, "stats") {
            Ok(_) => return Ok(()),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(ServeError::Io(format!(
                        "daemon at {addr} not ready within {timeout:?}: {e}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}
