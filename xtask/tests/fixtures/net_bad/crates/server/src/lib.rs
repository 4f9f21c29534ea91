//! Fixture: raw socket I/O outside the failpoint socket module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::net::TcpStream;

/// Writes bytes straight onto a raw socket, bypassing `Socket`.
pub fn send(addr: &str, data: &[u8]) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(data)
}
