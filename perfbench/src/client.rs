//! A minimal v2 frame client. The load generator encodes and decodes
//! frames itself (with `xar_sched::wire`), so the traced run can time
//! encode, write, wait and decode separately, and the open loop can
//! keep many requests in flight on one non-blocking socket.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;
use xar_sched::wire;

pub struct Conn {
    pub stream: TcpStream,
    rx: Vec<u8>,
    /// Bytes at the head of `rx` that belong to frames already handed out.
    consumed: usize,
}

impl Conn {
    /// Connects and performs the v2 handshake (blocking mode).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.write_all(&wire::handshake(wire::VERSION))?;
        let mut hs = [0u8; wire::HANDSHAKE_LEN];
        stream.read_exact(&mut hs)?;
        let v = wire::parse_handshake(&hs).map_err(io::Error::from)?;
        if v != wire::VERSION {
            return Err(io::Error::other(format!("daemon speaks v{v}")));
        }
        Ok(Conn { stream, rx: Vec::with_capacity(8192), consumed: 0 })
    }

    /// Blocking: reads until one whole reply frame is buffered and
    /// returns its payload.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        self.rx.drain(..self.consumed);
        self.consumed = 0;
        loop {
            if let Some(r) = self.next_frame()? {
                return Ok(&self.rx[r]);
            }
            self.fill()?;
        }
    }

    /// Sends one encoded frame and returns the reply payload.
    pub fn call(&mut self, frame: &[u8]) -> io::Result<&[u8]> {
        self.stream.write_all(frame)?;
        self.recv()
    }

    /// Non-blocking use: appends whatever the socket has; `Ok(false)`
    /// when it had nothing.
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut scratch = [0u8; 16 * 1024];
        match self.stream.read(&mut scratch) {
            Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed")),
            Ok(n) => {
                self.rx.extend_from_slice(&scratch[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// The next whole buffered frame's payload range, consuming it.
    /// Ranges stay valid until [`Conn::compact`] or [`Conn::recv`].
    pub fn next_frame(&mut self) -> io::Result<Option<Range<usize>>> {
        match wire::frame_in(&self.rx[self.consumed..]).map_err(io::Error::from)? {
            Some((total, r)) => {
                let at = self.consumed;
                self.consumed += total;
                Ok(Some(at + r.start..at + r.end))
            }
            None => Ok(None),
        }
    }

    pub fn payload(&self, r: Range<usize>) -> &[u8] {
        &self.rx[r]
    }

    /// Drops consumed bytes (invalidates outstanding ranges).
    pub fn compact(&mut self) {
        self.rx.drain(..self.consumed);
        self.consumed = 0;
    }
}
