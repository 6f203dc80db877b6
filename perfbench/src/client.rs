//! The server process under test and the client side of its two wire protocols.

use anosy_serve::wire;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// How long a closed-loop client waits for one response before counting it missing.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `anosy-served --listen 127.0.0.1:0`. Dropping it kills the process and waits
/// for it, so no server outlives the benchmark, on any exit path.
pub struct ServerProcess {
    child: Child,
    /// Kept open (never drained by a thread): the server writes nothing after its banner in
    /// the configurations the benchmark runs, and the pipe buffer absorbs stray lines.
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns the server with `args` (plus `--listen 127.0.0.1:0`) and waits for its
    /// `# listening on ADDR` banner.
    pub fn spawn(binary: &Path, args: &[String]) -> Result<ServerProcess, String> {
        let mut child = Command::new(binary)
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was requested as a pipe");
        let mut server = ServerProcess {
            _stdout: BufReader::new(stdout),
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server._stdout.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server exited before listening".to_string());
            }
            if let Some(rest) = line.trim().strip_prefix("# listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr =
                    addr.parse().map_err(|e| format!("bad listen address `{addr}`: {e}"))?;
                return Ok(server);
            }
        }
    }

    /// The server's process id (for `/proc` readings).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Errors here mean the process is already gone; nothing is left to clean up.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Appends one protocol unit to `out`: a newline-terminated line, or a binary frame.
pub fn put_unit(out: &mut Vec<u8>, binary: bool, payload: &str) {
    if binary {
        wire::frame_into(out, payload.as_bytes());
    } else {
        out.extend_from_slice(payload.as_bytes());
        out.push(b'\n');
    }
}

/// One client connection, speaking either the line protocol or binary frames.
pub struct Conn {
    stream: TcpStream,
    binary: bool,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    consumed: usize,
}

impl Conn {
    /// Connects to `addr`; a binary connection sends the negotiation preamble first.
    pub fn connect(addr: SocketAddr, binary: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn { stream, binary, out: Vec::new(), inbuf: Vec::new(), consumed: 0 };
        if binary {
            conn.out.extend_from_slice(wire::BINARY_PREAMBLE);
        }
        Ok(conn)
    }

    /// Queues one request (a line, or one frame on a binary connection).
    pub fn queue(&mut self, payload: &str) {
        put_unit(&mut self.out, self.binary, payload);
    }

    /// Queues a tick marker: an empty line, or an empty frame.
    pub fn queue_tick(&mut self) {
        self.queue("");
    }

    /// Writes everything queued.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Closes the sending half, so the server tears the connection down once it has answered.
    pub fn shutdown(&self) {
        // The peer may already be gone; the run's records already say what was answered.
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }

    /// Blocks for the next response (line or frame payload, without terminator).
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(unit) = self.take_unit()? {
                return Ok(unit);
            }
            self.fill(RESPONSE_TIMEOUT)?;
        }
    }

    /// Reads once from a socket that is ready to read and appends every response now
    /// complete to `into`.
    pub fn read_ready(&mut self, into: &mut Vec<String>) -> io::Result<()> {
        self.fill(RESPONSE_TIMEOUT)?;
        while let Some(unit) = self.take_unit()? {
            into.push(unit);
        }
        Ok(())
    }

    /// A second handle on the socket for writing from another thread.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// The socket's descriptor, for readiness polling.
    pub fn raw_fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    fn fill(&mut self, timeout: Duration) -> io::Result<()> {
        if self.consumed > 0 {
            self.inbuf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.stream.set_read_timeout(Some(timeout.max(Duration::from_micros(1))))?;
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed the connection"));
        }
        self.inbuf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Splits one complete response off the input buffer.
    fn take_unit(&mut self) -> io::Result<Option<String>> {
        let pending = &self.inbuf[self.consumed..];
        let (payload, used) = if self.binary {
            if pending.len() < 12 {
                return Ok(None);
            }
            let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
            if pending.len() < 12 + len {
                return Ok(None);
            }
            let sum = u64::from_le_bytes(pending[4..12].try_into().expect("8 bytes"));
            let payload = &pending[12..12 + len];
            if wire::frame_checksum(payload) != sum {
                return Err(io::Error::new(ErrorKind::InvalidData, "response frame checksum"));
            }
            (payload, 12 + len)
        } else {
            let Some(end) = pending.iter().position(|&b| b == b'\n') else { return Ok(None) };
            (&pending[..end], end + 1)
        };
        let text = String::from_utf8(payload.to_vec())
            .map_err(|_| io::Error::new(ErrorKind::InvalidData, "non-UTF-8 response"))?;
        self.consumed += used;
        Ok(Some(text))
    }
}

/// A response split into its `conn.seq` tag and body. An unnumbered `! reason` line (a
/// request the server could not parse) is an error.
pub fn split_tag(text: &str) -> Result<((u64, u64), &str), String> {
    if let Some(reason) = text.strip_prefix("! ") {
        return Err(format!("rejected line: {reason}"));
    }
    let (tag, body) = text.split_once(' ').ok_or_else(|| format!("untagged response `{text}`"))?;
    let (conn, seq) = tag.split_once('.').ok_or_else(|| format!("bad tag `{tag}`"))?;
    match (conn.parse(), seq.parse()) {
        (Ok(conn), Ok(seq)) => Ok(((conn, seq), body)),
        _ => Err(format!("bad tag `{tag}`")),
    }
}
