//! A small blocking client for the line protocol, used by the CLI, the
//! bench binaries, and the concurrency tests.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use uww_relational::{value_to_wire, Value};

/// One `OK` response to a `QUERY`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryReply {
    /// The view queried.
    pub view: String,
    /// Row count of the served extent.
    pub rows: u64,
    /// FNV-1a digest of the served extent.
    pub digest: u64,
    /// Epoch of the catalog version the extent came from.
    pub epoch: u64,
}

/// One `SNAPSHOT` response: every view of a single pinned version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotReply {
    /// The pinned epoch.
    pub epoch: u64,
    /// `(view, rows, digest)` per view, in name order.
    pub views: Vec<(String, u64, u64)>,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A response should arrive promptly even with installs in flight;
        // a stuck server must fail the test rather than hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn round_trip(&mut self, request: &str) -> io::Result<String> {
        writeln!(self.writer, "{request}")?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends `QUERY <view>` and parses the reply.
    pub fn query(&mut self, view: &str) -> io::Result<QueryReply> {
        let line = self.round_trip(&format!("QUERY {view}"))?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["OK", v, rows, digest, epoch] => Ok(QueryReply {
                view: v.to_string(),
                rows: parse_u64(rows, 10)?,
                digest: parse_u64(digest, 16)?,
                epoch: parse_u64(epoch, 10)?,
            }),
            _ => Err(protocol_error(&line)),
        }
    }

    /// Sends `SNAPSHOT` and parses the multi-line reply.
    pub fn snapshot(&mut self) -> io::Result<SnapshotReply> {
        let first = self.round_trip("SNAPSHOT")?;
        let epoch = match first.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["EPOCH", e] => parse_u64(e, 10)?,
            _ => return Err(protocol_error(&first)),
        };
        let mut views = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(protocol_error("EOF inside SNAPSHOT"));
            }
            let line = line.trim_end();
            if line == "END" {
                return Ok(SnapshotReply { epoch, views });
            }
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["VIEW", name, rows, digest] => {
                    views.push((
                        name.to_string(),
                        parse_u64(rows, 10)?,
                        parse_u64(digest, 16)?,
                    ));
                }
                _ => return Err(protocol_error(line)),
            }
        }
    }

    /// Sends `METRICS` and returns the full Prometheus text scrape,
    /// including its terminating `# EOF` line.
    pub fn metrics(&mut self) -> io::Result<String> {
        writeln!(self.writer, "METRICS")?;
        let mut body = String::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(protocol_error("EOF inside METRICS"));
            }
            if line.starts_with("ERR ") && body.is_empty() {
                return Err(protocol_error(line.trim_end()));
            }
            let done = line.trim_end() == "# EOF";
            body.push_str(&line);
            if done {
                return Ok(body);
            }
        }
    }

    /// Sends `INGEST <view> <count> <value>...` — one delta row with signed
    /// multiplicity `count` — and waits for the `OK`. Values go over the
    /// wire in snapshot encoding; a string value whose encoded form still
    /// contains whitespace cannot ride the single-line protocol and is
    /// rejected here rather than mis-tokenized by the server.
    pub fn ingest(&mut self, view: &str, count: i64, row: &[Value]) -> io::Result<()> {
        let mut request = format!("INGEST {view} {count}");
        for v in row {
            let wire = value_to_wire(v);
            if wire.chars().any(|c| c.is_whitespace()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("value {wire:?} contains whitespace"),
                ));
            }
            request.push(' ');
            request.push_str(&wire);
        }
        let line = self.round_trip(&request)?;
        if line.starts_with("OK ") {
            Ok(())
        } else {
            Err(protocol_error(&line))
        }
    }

    /// Sends a raw request line and returns the raw (single-line) response.
    pub fn raw(&mut self, request: &str) -> io::Result<String> {
        self.round_trip(request)
    }

    /// Sends `QUIT`, consuming the client.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.round_trip("QUIT")?;
        Ok(())
    }
}

fn parse_u64(s: &str, radix: u32) -> io::Result<u64> {
    u64::from_str_radix(s, radix).map_err(|_| protocol_error(s))
}

fn protocol_error(got: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected server response: {got}"),
    )
}
