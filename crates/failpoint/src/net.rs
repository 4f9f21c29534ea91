//! The one socket type the client and the daemon move wire bytes through:
//! a [`TcpStream`] whose reads and writes a [`Plan`] may number and fault.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::Duration;

use crate::plan::{FaultKind, OpKind, Plan};

/// A TCP connection with optional fault injection.
///
/// Without a plan every call passes straight to the socket. With one, each
/// non-empty read and write is a numbered site of the plan (shared across
/// every socket and [`FaultVfs`](crate::FaultVfs) wrapped from it, so a
/// client's later connections keep counting). A fault that fires here
/// kills only this socket: `Short` moves about half the bytes first, `Delay`
/// stalls and lets the socket live, `BlackHole` fails with `TimedOut`, and
/// every other fault cuts the connection with `ConnectionReset`. Once dead,
/// every later operation fails without touching the socket or the plan.
#[derive(Debug)]
pub struct Socket {
    tcp: TcpStream,
    plan: Option<Plan>,
    dead: bool,
}

impl Socket {
    /// Wraps a connected socket, numbered by `plan` when there is one.
    #[must_use]
    pub fn new(tcp: TcpStream, plan: Option<Plan>) -> Self {
        Socket {
            tcp,
            plan,
            dead: false,
        }
    }

    /// Connects to `addr` and wraps the socket as [`Socket::new`] does.
    ///
    /// # Errors
    ///
    /// Connection failures (refused, unreachable, resolution).
    pub fn connect(addr: impl ToSocketAddrs, plan: Option<Plan>) -> io::Result<Self> {
        Ok(Socket::new(TcpStream::connect(addr)?, plan))
    }

    /// Sets the read deadline (`None` disables it).
    ///
    /// # Errors
    ///
    /// The underlying socket's error, if any.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.tcp.set_read_timeout(dur)
    }

    /// Sets the write deadline (`None` disables it).
    ///
    /// # Errors
    ///
    /// The underlying socket's error, if any.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.tcp.set_write_timeout(dur)
    }

    /// Disables (or re-enables) Nagle's algorithm.
    ///
    /// # Errors
    ///
    /// The underlying socket's error, if any.
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.tcp.set_nodelay(on)
    }

    /// Numbers one wire operation of `len` bytes and returns how many bytes
    /// it may move, or the injected error.
    fn admit(&mut self, kind: OpKind, len: usize) -> io::Result<usize> {
        let Some(plan) = &self.plan else {
            return Ok(len);
        };
        if len == 0 {
            return Ok(0);
        }
        if self.dead {
            return Err(dead_error());
        }
        let (index, fault) = plan.step(kind, Path::new(""), len)?;
        let Some(fault) = fault else {
            return Ok(len);
        };
        if let FaultKind::Delay(d) = fault {
            std::thread::sleep(d);
            return Ok(len);
        }
        self.dead = true;
        match fault {
            FaultKind::Short => Ok((len / 2).max(1)),
            FaultKind::BlackHole => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("injected black hole at wire op {index}"),
            )),
            _ => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("injected connection cut at wire op {index}"),
            )),
        }
    }
}

fn dead_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        "stream faulted at an earlier wire op",
    )
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.admit(OpKind::WireRead, buf.len())?;
        self.tcp.read(&mut buf[..n])
    }
}

impl Write for Socket {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        // A short write delivers a real prefix to the peer (a torn frame).
        let n = self.admit(OpKind::WireWrite, data.len())?;
        self.tcp.write(&data[..n])
    }

    fn flush(&mut self) -> io::Result<()> {
        // Not a numbered site: flush moves no new bytes.
        if self.dead {
            return Err(dead_error());
        }
        self.tcp.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn wrap(tcp: TcpStream, plan: &Plan) -> Socket {
        Socket::new(tcp, Some(plan.clone()))
    }

    #[test]
    fn counting_numbers_ops_across_streams() {
        let (a, b) = pair();
        let plan = Plan::counting();
        let mut wa = wrap(a, &plan);
        let mut wb = wrap(b, &plan);
        wa.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        wb.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert!(plan.ops() >= 2, "one write plus at least one read");
        let trace = plan.trace();
        assert_eq!(trace[0].kind, OpKind::WireWrite);
        assert_eq!(trace[0].len, 5);
        assert_eq!(trace[1].kind, OpKind::WireRead);
        assert!(!plan.fired());
    }

    #[test]
    fn cut_fails_the_site_and_kills_the_stream() {
        let (a, _b) = pair();
        let plan = Plan::armed(1, FaultKind::Error);
        let mut wa = wrap(a, &plan);
        wa.write_all(b"x").unwrap();
        let err = wa.write_all(b"y").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(err.to_string().contains("wire op 1"), "{err}");
        assert!(plan.fired());
        // Dead afterwards, without consuming further sites.
        let ops = plan.ops();
        assert!(wa.write_all(b"z").is_err());
        assert_eq!(plan.ops(), ops, "dead stream ops are not numbered");
    }

    #[test]
    fn short_write_delivers_a_prefix() {
        let (a, mut b) = pair();
        let plan = Plan::armed(0, FaultKind::Short);
        let mut wa = wrap(a, &plan);
        // write_all sees the short count, retries, and hits the dead stream.
        let err = wa.write_all(b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        drop(wa);
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"abc", "peer holds exactly the torn prefix");
    }

    #[test]
    fn black_hole_reports_timeout() {
        let (a, _b) = pair();
        let plan = Plan::armed(0, FaultKind::BlackHole);
        let mut wa = wrap(a, &plan);
        let err = wa.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(wa.write_all(b"y").is_err());
    }

    #[test]
    fn delay_proceeds_and_stream_survives() {
        let (a, mut b) = pair();
        let plan = Plan::armed(0, FaultKind::Delay(Duration::from_millis(5)));
        let mut wa = wrap(a, &plan);
        wa.write_all(b"slow").unwrap();
        wa.write_all(b"fast").unwrap();
        let mut buf = [0u8; 8];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"slowfast");
        assert!(plan.fired());
    }

    #[test]
    fn torn_acts_like_a_cut_on_the_wire() {
        let (a, _b) = pair();
        let plan = Plan::armed(0, FaultKind::Torn(1));
        let mut wa = wrap(a, &plan);
        let err = wa.write_all(b"xyz").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(plan.fired());
    }

    #[test]
    fn fired_plan_leaves_later_streams_clean() {
        let (a, _b) = pair();
        let plan = Plan::armed(0, FaultKind::Error);
        let mut wa = wrap(a, &plan);
        assert!(wa.write_all(b"x").is_err());
        // A reconnect wrapped from the same plan runs clean.
        let (c, mut d) = pair();
        let mut wc = wrap(c, &plan);
        wc.write_all(b"retry").unwrap();
        let mut buf = [0u8; 5];
        d.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"retry");
    }

    #[test]
    fn unplanned_socket_round_trips() {
        let (a, b) = pair();
        let mut ra = Socket::new(a, None);
        let mut rb = Socket::new(b, None);
        ra.set_nodelay(true).unwrap();
        ra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        ra.set_write_timeout(None).unwrap();
        ra.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        rb.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }
}
