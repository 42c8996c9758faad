//! The system under test: the shipped `spring serve` binary, spawned as
//! a separate process on an ephemeral loopback port.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A running `spring serve --port 0 --shards 2 --batch 64`. Dropping it
/// kills the process and waits for it.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns the server and waits for its `listening on ADDR` line.
    pub fn spawn(bin: &Path, query_csv: &Path, epsilon: f64) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--query")
            .arg(query_csv)
            .args(["--epsilon", &epsilon.to_string()])
            .args(["--port", "0", "--shards", "2"])
            .args(["--batch", &crate::workload::BATCH.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).and_then(|_| {
            line.trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| io::Error::other(format!("server printed `{}`", line.trim())))
        });
        match addr {
            Ok(addr) => Ok(Server {
                child,
                addr,
                _stdout: stdout,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One `GET /metrics` scrape: the full HTTP response.
    pub fn scrape(&self) -> io::Result<String> {
        let mut sock = TcpStream::connect(self.addr)?;
        sock.set_read_timeout(Some(Duration::from_secs(30)))?;
        sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
        sock.shutdown(Shutdown::Write)?;
        let mut response = String::new();
        sock.read_to_string(&mut response)?;
        Ok(response)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
