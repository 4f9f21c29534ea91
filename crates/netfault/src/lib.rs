#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic network fault injection — the wire-level sibling of
//! `hidestore-failpoint`.
//!
//! The crash matrix of PR 2 works because every filesystem operation flows
//! through a `Vfs` shim the harness can fault at any numbered site. This
//! crate applies the same discipline to the network: every socket read and
//! write of the daemon and the client flows through the [`NetStream`] trait,
//! so a chaos harness can enumerate the wire operations of a workload with a
//! counting [`NetPlan`] and then replay it once per site with that site
//! armed to fail.
//!
//! * [`RealStream`] is the zero-cost production wrapper around a
//!   [`TcpStream`].
//! * [`FaultStream`] wraps a [`TcpStream`] with a shared [`NetPlan`]: the
//!   plan numbers every read/write globally (across all streams it wraps,
//!   so a retrying client's reconnects keep counting), and at the armed
//!   site injects one [`NetFault`].
//!
//! Unlike the filesystem shim's crash semantics — where everything after
//! the fault fails, because the simulated process is dead — a network fault
//! kills only the *stream* it fired on. The process survives, reconnects,
//! and the retry machinery gets to prove it can converge. The plan records
//! that the fault [`fired`](NetPlan::fired) so later connections run clean.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The stream abstraction both the daemon's connection loop and the
/// [`RemoteClient`](../hidestore_server/struct.RemoteClient.html) are
/// generic over. Implementors are byte streams with socket-style deadline
/// control.
pub trait NetStream: Read + Write + Send {
    /// Sets the read deadline (`None` disables it).
    ///
    /// # Errors
    ///
    /// The underlying socket's error, if any.
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()>;

    /// Sets the write deadline (`None` disables it).
    ///
    /// # Errors
    ///
    /// The underlying socket's error, if any.
    fn set_write_timeout(&mut self, dur: Option<Duration>) -> io::Result<()>;

    /// Disables (or re-enables) Nagle's algorithm.
    ///
    /// # Errors
    ///
    /// The underlying socket's error, if any.
    fn set_nodelay(&mut self, on: bool) -> io::Result<()>;
}

/// The zero-cost production [`NetStream`]: a plain [`TcpStream`].
#[derive(Debug)]
pub struct RealStream(TcpStream);

impl RealStream {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Connection failures (refused, unreachable, resolution).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(RealStream(TcpStream::connect(addr)?))
    }

    /// Unwraps back to the socket.
    pub fn into_tcp(self) -> TcpStream {
        self.0
    }
}

impl Read for RealStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for RealStream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl NetStream for RealStream {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(dur)
    }

    fn set_write_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.0.set_write_timeout(dur)
    }

    fn set_nodelay(&mut self, on: bool) -> io::Result<()> {
        self.0.set_nodelay(on)
    }
}

/// A [`NetStream`] chosen at runtime: production [`RealStream`] or
/// plan-wrapped [`FaultStream`]. Lets code that decides per-connection
/// whether to inject faults (a retrying client under a chaos harness) stay
/// a single monomorphized type.
#[derive(Debug)]
pub enum AnyStream {
    /// A plain socket.
    Real(RealStream),
    /// A plan-wrapped socket.
    Fault(FaultStream),
}

impl AnyStream {
    /// Wraps a connected socket in `plan` when there is one, else passes
    /// it through as a [`RealStream`] — the one place either side of the
    /// wire decides.
    pub fn wrap(stream: TcpStream, plan: Option<&NetPlan>) -> Self {
        match plan {
            Some(plan) => AnyStream::Fault(plan.wrap(stream)),
            None => AnyStream::Real(RealStream(stream)),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Real(s) => s.read(buf),
            AnyStream::Fault(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Real(s) => s.write(data),
            AnyStream::Fault(s) => s.write(data),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Real(s) => s.flush(),
            AnyStream::Fault(s) => s.flush(),
        }
    }
}

impl NetStream for AnyStream {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Real(s) => s.set_read_timeout(dur),
            AnyStream::Fault(s) => s.set_read_timeout(dur),
        }
    }

    fn set_write_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Real(s) => s.set_write_timeout(dur),
            AnyStream::Fault(s) => s.set_write_timeout(dur),
        }
    }

    fn set_nodelay(&mut self, on: bool) -> io::Result<()> {
        match self {
            AnyStream::Real(s) => s.set_nodelay(on),
            AnyStream::Fault(s) => s.set_nodelay(on),
        }
    }
}

/// How an armed wire site fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The connection is cut: the operation fails with `ConnectionReset`
    /// and the stream is dead afterwards (the peer sees a mid-frame tear).
    Cut,
    /// A short read/write: roughly half the requested bytes transfer, then
    /// the stream dies — the peer holds a torn frame prefix.
    Short,
    /// The operation stalls for the given duration, then proceeds normally.
    /// The stream survives; with deadlines armed this exercises the
    /// timeout path without corrupting anything.
    Delay(Duration),
    /// The peer goes silent: the operation fails with `TimedOut` (as a
    /// kernel deadline would report) and the stream is dead afterwards.
    BlackHole,
}

/// Which direction a numbered wire operation moved bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpDir {
    /// A socket read.
    Read,
    /// A socket write.
    Write,
}

/// One numbered wire operation observed by a [`NetPlan`]. A counting run
/// collects these; the chaos harness replays the workload once per record
/// with that site armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOpRecord {
    /// Zero-based site index (the value [`NetPlan::armed`] takes).
    pub index: u64,
    /// Direction of the operation.
    pub dir: OpDir,
    /// Bytes requested by the caller (not bytes actually moved).
    pub len: usize,
}

#[derive(Debug)]
struct PlanState {
    ops: u64,
    armed: Option<(u64, NetFault)>,
    fired: bool,
    trace: Vec<NetOpRecord>,
}

/// What a numbered operation must do, as decided by the shared plan.
enum Step {
    Proceed,
    DelayThen(Duration),
    Partial(usize),
    Fail(io::Error),
}

/// A shared, cloneable fault plan. Clones (and every [`FaultStream`]
/// wrapped from them) share one global operation sequence, so a workload
/// spanning several connections still counts a single site space.
#[derive(Clone)]
pub struct NetPlan {
    state: Arc<Mutex<PlanState>>,
}

impl fmt::Debug for NetPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.lock();
        f.debug_struct("NetPlan")
            .field("ops", &s.ops)
            .field("armed", &s.armed)
            .field("fired", &s.fired)
            .finish()
    }
}

impl NetPlan {
    /// A plan that never faults but numbers and records every wire
    /// operation — used to enumerate the sites of a workload.
    #[must_use]
    pub fn counting() -> Self {
        Self::with_plan(None)
    }

    /// A plan whose `site`-th wire operation (zero-based) suffers `fault`.
    #[must_use]
    pub fn armed(site: u64, fault: NetFault) -> Self {
        Self::with_plan(Some((site, fault)))
    }

    fn with_plan(armed: Option<(u64, NetFault)>) -> Self {
        NetPlan {
            state: Arc::new(Mutex::new(PlanState {
                ops: 0,
                armed,
                fired: false,
                trace: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PlanState> {
        // Plain data behind the lock; safe to re-enter after a panic
        // elsewhere.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of wire operations observed so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Whether the armed fault has fired. Streams wrapped after this still
    /// run clean — only the stream the fault fired on is dead.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.lock().fired
    }

    /// The numbered operations observed so far (counting-run output).
    #[must_use]
    pub fn trace(&self) -> Vec<NetOpRecord> {
        self.lock().trace.clone()
    }

    /// Wraps a connected socket so its reads and writes are numbered (and
    /// possibly faulted) by this plan.
    #[must_use]
    pub fn wrap(&self, stream: TcpStream) -> FaultStream {
        FaultStream {
            inner: stream,
            plan: self.clone(),
            dead: false,
        }
    }

    fn step(&self, dir: OpDir, len: usize) -> Step {
        let mut s = self.lock();
        let index = s.ops;
        s.ops += 1;
        s.trace.push(NetOpRecord { index, dir, len });
        match s.armed {
            Some((site, fault)) if site == index && !s.fired => {
                s.fired = true;
                match fault {
                    NetFault::Cut => Step::Fail(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        format!("injected connection cut at wire op {site}"),
                    )),
                    NetFault::BlackHole => Step::Fail(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("injected black hole at wire op {site}"),
                    )),
                    NetFault::Short => Step::Partial((len / 2).max(1)),
                    NetFault::Delay(d) => Step::DelayThen(d),
                }
            }
            _ => Step::Proceed,
        }
    }
}

/// A [`TcpStream`] whose reads and writes are numbered by a shared
/// [`NetPlan`], with one injected [`NetFault`] at the armed site. Once a
/// `Cut`, `Short`, or `BlackHole` fault fires, this stream is dead: every
/// later operation fails without touching the socket (the peer observes a
/// torn connection once the stream drops).
#[derive(Debug)]
pub struct FaultStream {
    inner: TcpStream,
    plan: NetPlan,
    dead: bool,
}

impl FaultStream {
    fn dead_error() -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            "stream faulted at an earlier wire op",
        )
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        if self.dead {
            return Err(Self::dead_error());
        }
        match self.plan.step(OpDir::Read, buf.len()) {
            Step::Proceed => self.inner.read(buf),
            Step::DelayThen(d) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            Step::Partial(k) => {
                self.dead = true;
                let k = k.min(buf.len());
                self.inner.read(&mut buf[..k])
            }
            Step::Fail(e) => {
                self.dead = true;
                Err(e)
            }
        }
    }
}

impl Write for FaultStream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return self.inner.write(data);
        }
        if self.dead {
            return Err(Self::dead_error());
        }
        match self.plan.step(OpDir::Write, data.len()) {
            Step::Proceed => self.inner.write(data),
            Step::DelayThen(d) => {
                std::thread::sleep(d);
                self.inner.write(data)
            }
            Step::Partial(k) => {
                // Deliver a real prefix to the peer (a torn frame), then die.
                self.dead = true;
                let k = k.min(data.len());
                self.inner.write(&data[..k])
            }
            Step::Fail(e) => {
                self.dead = true;
                Err(e)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Not a numbered site: flush moves no new bytes.
        if self.dead {
            return Err(Self::dead_error());
        }
        self.inner.flush()
    }
}

impl NetStream for FaultStream {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    fn set_write_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(dur)
    }

    fn set_nodelay(&mut self, on: bool) -> io::Result<()> {
        self.inner.set_nodelay(on)
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

    #[test]
    fn counting_numbers_ops_across_streams() {
        let (a, b) = pair();
        let plan = NetPlan::counting();
        let mut wa = plan.wrap(a);
        let mut wb = plan.wrap(b);
        wa.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        wb.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert!(plan.ops() >= 2, "one write plus at least one read");
        let trace = plan.trace();
        assert_eq!(trace[0].dir, OpDir::Write);
        assert_eq!(trace[0].len, 5);
        assert!(!plan.fired());
    }

    #[test]
    fn cut_fails_the_site_and_kills_the_stream() {
        let (a, _b) = pair();
        let plan = NetPlan::armed(1, NetFault::Cut);
        let mut wa = plan.wrap(a);
        wa.write_all(b"x").unwrap();
        let err = wa.write_all(b"y").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(plan.fired());
        // Dead afterwards, without consuming further sites.
        let ops = plan.ops();
        assert!(wa.write_all(b"z").is_err());
        assert_eq!(plan.ops(), ops, "dead stream ops are not numbered");
    }

    #[test]
    fn short_write_delivers_a_prefix() {
        let (a, mut b) = pair();
        let plan = NetPlan::armed(0, NetFault::Short);
        let mut wa = plan.wrap(a);
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
        let plan = NetPlan::armed(0, NetFault::BlackHole);
        let mut wa = plan.wrap(a);
        let err = wa.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(wa.write_all(b"y").is_err());
    }

    #[test]
    fn delay_proceeds_and_stream_survives() {
        let (a, mut b) = pair();
        let plan = NetPlan::armed(0, NetFault::Delay(Duration::from_millis(5)));
        let mut wa = plan.wrap(a);
        wa.write_all(b"slow").unwrap();
        wa.write_all(b"fast").unwrap();
        let mut buf = [0u8; 8];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"slowfast");
        assert!(plan.fired());
    }

    #[test]
    fn fired_plan_leaves_later_streams_clean() {
        let (a, _b) = pair();
        let plan = NetPlan::armed(0, NetFault::Cut);
        let mut wa = plan.wrap(a);
        assert!(wa.write_all(b"x").is_err());
        // A reconnect wrapped from the same plan runs clean.
        let (c, mut d) = pair();
        let mut wc = plan.wrap(c);
        wc.write_all(b"retry").unwrap();
        let mut buf = [0u8; 5];
        d.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"retry");
    }

    #[test]
    fn real_stream_round_trips() {
        let (a, b) = pair();
        let mut ra = RealStream(a);
        let mut rb = RealStream(b);
        ra.set_nodelay(true).unwrap();
        ra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        ra.set_write_timeout(None).unwrap();
        ra.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        rb.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }
}
