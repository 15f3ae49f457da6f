//! A minimal blocking client for the NDJSON protocol.
//!
//! One [`Client`] wraps one TCP connection; requests and responses alternate
//! line by line. Used by `rpq-cli client`, the integration tests and the
//! repository benchmark (`perfbench`).

use crate::json::Json;
use crate::protocol::Request;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The framed request line (text plus `\n`), reused across requests so
    /// each goes out in one write.
    frame: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests and responses are single short lines; Nagle's algorithm
        // interacting with delayed ACKs would add ~40 ms per round trip on a
        // persistent connection.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, frame: Vec::new() })
    }

    /// Bounds how long [`Client::request`] waits for a response line
    /// (`None` blocks forever). Tests use this to turn a hung server into a
    /// failing assertion instead of a stuck test run.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one raw request line and returns the raw response line. The
    /// line and its newline go out in one write: with `TCP_NODELAY` on, a
    /// separate newline would be a second segment, and the server's line
    /// reader would wake for the first and wait again for the second.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        self.frame.clear();
        self.frame.extend_from_slice(line.as_bytes());
        self.frame.push(b'\n');
        self.writer.write_all(&self.frame)?;
        let mut response = String::new();
        let read = self.reader.read_line(&mut response)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        Ok(response.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Sends a typed request and parses the JSON response.
    pub fn request(&mut self, request: &Request) -> io::Result<Json> {
        let line = self.request_line(&request.to_json().to_string())?;
        Json::parse(&line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad response line: {e}"))
        })
    }
}
