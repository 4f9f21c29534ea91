//! Fixture: a second remote client beside `RemoteClient`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::path::Path;

use hidestore_core::write_staged;
use hidestore_failpoint::Socket;
use hidestore_proto::DataWriter;

/// Uploads `data` over a socket of its own and stages a copy at `path`.
pub fn upload(addr: &str, data: &[u8], path: &Path) -> std::io::Result<()> {
    let mut socket = Socket::connect(addr, None)?;
    let mut writer = DataWriter::new(&mut socket);
    writer.write_all(data)?;
    write_staged(path, |out| out.write_all(data))
}
