//! Protocol clients: the blocking v1 [`Client`] (one request line out,
//! one response line back), the binary v3 [`V3Client`] that keeps a
//! window of length-prefixed frames (see [`crate::codec`]) in flight and
//! reassembles responses by tag, and the shard-aware [`ShardedClient`].
//!
//! All are used by the e2e tests, the `mis2svc` bin, and the CI smoke
//! legs.

use crate::codec;
use crate::proto::{self, Request};
use crate::registry;
use crate::shard::{shard_key, Ring};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Read one response line, distinguishing the three ways it can go wrong:
/// a clean EOF before any byte (server closed between responses), a
/// truncated line (server died mid-response), or a plain I/O error —
/// which includes `WouldBlock`/`TimedOut` when a read timeout is set.
fn read_response_line(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection (clean EOF before a response line)",
        ));
    }
    if !response.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "server closed the connection mid-line (truncated response: {:?})",
                response.trim_end()
            ),
        ));
    }
    Ok(response.trim_end_matches(['\r', '\n']).to_string())
}

/// The error returned by `request` calls after an earlier request on the
/// same connection already failed: a read error (timeout included) can
/// leave consumed-but-unparsed bytes behind, so the line framing can no
/// longer be trusted — reconnect instead of retrying.
fn poisoned_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        "connection poisoned by an earlier request error; reconnect",
    )
}

/// A connected blocking (v1) protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    poisoned: bool,
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            poisoned: false,
        })
    }

    /// Bound how long a [`Client::request`] may block waiting for the
    /// response (`None` = forever, the default). With a timeout set, a
    /// hung server surfaces as an `io::Error` of kind
    /// `WouldBlock`/`TimedOut` instead of parking the client for good.
    /// A timeout may fire after part of a response line was already
    /// consumed, so the connection is **poisoned** on any request error:
    /// later `request` calls fail fast instead of reading desynchronized
    /// frames — reconnect to recover.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one request line and block for its response line. A server
    /// that closes before responding yields `UnexpectedEof`, with the
    /// error text distinguishing a clean close from a truncated line.
    /// Any error poisons the connection (see
    /// [`Client::set_read_timeout`]).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        let attempt = (|| {
            writeln!(self.writer, "{line}")?;
            self.writer.flush()?;
            read_response_line(&mut self.reader)
        })();
        if attempt.is_err() {
            self.poisoned = true;
        }
        attempt
    }

    /// Polite close: `QUIT` and drop the connection.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.request("QUIT")?;
        Ok(())
    }
}

/// A v3 binary-frame client: writes a *window* of tagged frames before
/// the first response is read, reads responses as they arrive — in
/// completion order, not request order — and reassembles them by tag. No
/// response-line parsing, just fixed-offset header reads.
///
/// The connection upgrades at construction time (`V3` text hello; the
/// server's `OK V3 max_inflight=N` answer is the last text line on the
/// wire). Responses come back as frames whose status byte replaces the
/// `OK `/`ERR ` prefix; [`V3Client::request_many`] renders each back to
/// its v1-equivalent text line, which keeps every caller (tests, bin
/// sweeps, benches) byte-comparable across both protocols. The window is
/// clamped to the server's advertised `max_inflight`, so the client never
/// sends a request the server would refuse to accept into its window.
pub struct V3Client {
    // Buffered: a window refill becomes one write syscall at the flush,
    // not one per frame.
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_tag: u64,
    window: usize,
    poisoned: bool,
    latencies_ns: Vec<u64>,
}

impl V3Client {
    /// Connect and upgrade to v3 framing, keeping up to `window` requests
    /// in flight (clamped to `1..=server max_inflight`).
    pub fn connect<A: ToSocketAddrs>(addr: A, window: usize) -> io::Result<V3Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{}", codec::HELLO_V3)?;
        writer.flush()?;
        let hello = read_response_line(&mut reader)?;
        let server_max = codec::parse_hello_ok(&hello)
            .filter(|max| *max > 0)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server rejected the V3 hello: {hello}"),
                )
            })?;
        Ok(V3Client {
            writer,
            reader,
            next_tag: 0,
            window: window.clamp(1, server_max),
            poisoned: false,
            latencies_ns: Vec::new(),
        })
    }

    /// Client-observed latency of each request in the **last completed**
    /// [`V3Client::request_many`] batch, in nanoseconds, indexed like the
    /// batch's lines. Measured from the moment the request was written
    /// into the pipeline to the moment its response was reassembled — so
    /// it includes queueing behind the window. Copy the slice out before
    /// `quit()`, which consumes the client.
    pub fn last_latencies_ns(&self) -> &[u64] {
        &self.latencies_ns
    }

    /// The effective window after clamping to the server's cap.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Bound how long a read for the next frame may block (`None` =
    /// forever, the default).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send every request as a frame, keeping up to `window` in flight,
    /// and return the responses **in request order**, rendered to their
    /// v1 text form (`OK <body>` / `ERR <body>`).
    ///
    /// Tags are assigned from this client's private counter, so they are
    /// unique across the connection's lifetime; a response carrying an
    /// unknown or already-answered tag is a protocol error surfaced as
    /// `InvalidData`. Any error poisons the connection — un-retired tags
    /// may still be in flight, so the framing can no longer be trusted;
    /// later calls fail fast and the caller should reconnect.
    pub fn request_many<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<Vec<String>> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        let attempt = self.request_many_inner(lines);
        if attempt.is_err() {
            self.poisoned = true;
        }
        attempt
    }

    fn request_many_inner<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<Vec<String>> {
        let mut results: Vec<Option<String>> = Vec::with_capacity(lines.len());
        results.resize_with(lines.len(), || None);
        // Tags are assigned consecutively from this client's counter, so a
        // response's index is `tag - base` — pure arithmetic, no per-batch
        // tag map. Out-of-range or already-answered tags are still
        // protocol errors.
        let base_tag = self.next_tag;
        let mut payload: Vec<u8> = Vec::new();
        let mut sent_at: Vec<Instant> = Vec::with_capacity(lines.len());
        self.latencies_ns.clear();
        self.latencies_ns.resize(lines.len(), 0);
        let mut sent = 0;
        let mut received = 0;
        while received < lines.len() {
            // Refill the window, batching the frames into one flush.
            let mut wrote = false;
            while sent < lines.len() && sent - received < self.window {
                let tag = self.next_tag;
                self.next_tag += 1;
                codec::write_frame(
                    &mut self.writer,
                    tag,
                    codec::STATUS_OK,
                    lines[sent].as_ref().as_bytes(),
                )?;
                sent_at.push(Instant::now());
                sent += 1;
                wrote = true;
            }
            if wrote {
                self.writer.flush()?;
            }
            // Take the next frame (blocking), then drain every response
            // already sitting in the read buffer before refilling: the
            // server's writer retires responses in coalesced batches, so
            // consuming the whole batch here turns the refill into one
            // equally wide write burst instead of a one-frame-per-
            // response ping-pong — fewer syscalls on both ends.
            loop {
                // The payload buffer is reused across the whole batch.
                let (tag, status) = codec::read_frame_into(&mut self.reader, &mut payload)?
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-batch",
                        )
                    })?;
                let index = tag
                    .checked_sub(base_tag)
                    .map(|i| i as usize)
                    .filter(|i| *i < sent && results[*i].is_none())
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("response frame for unknown or duplicate tag {tag}"),
                        )
                    })?;
                // Render back to the v1 text line (status byte -> prefix).
                let prefix = if status == codec::STATUS_OK {
                    "OK "
                } else {
                    "ERR "
                };
                let mut line = String::with_capacity(prefix.len() + payload.len());
                line.push_str(prefix);
                line.push_str(&String::from_utf8_lossy(&payload));
                results[index] = Some(line);
                self.latencies_ns[index] = sent_at[index].elapsed().as_nanos() as u64;
                received += 1;
                // Another frame's header already buffered? Keep draining.
                if received >= sent || self.reader.buffer().len() < codec::HEADER_LEN {
                    break;
                }
            }
        }
        Ok(results.into_iter().map(|r| r.unwrap()).collect())
    }

    /// Single-request convenience over [`V3Client::request_many`].
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        Ok(self.request_many(&[line])?.pop().unwrap())
    }

    /// Polite close: framed `QUIT` (the server drains every in-flight
    /// response first, so `BYE` is the last frame) and drop the
    /// connection.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.request("QUIT")?;
        Ok(())
    }
}

/// One shard's connection inside a [`ShardedClient`]: the address (the
/// ring identity) plus the live v3 connection, `None` once the shard has
/// failed (fail-fast: its keys answer `ERR shard down` from then on).
struct ShardConn {
    addr: String,
    conn: Option<V3Client>,
}

/// A shard-aware client: consistent-hashes each request's graph to its
/// owning shard (the same [`Ring`] + [`shard_key`] rule the router
/// uses), fans a batch out across the shards — one thread per shard,
/// each driving its own pipelined [`V3Client`] window with the existing
/// base-offset tag reassembly — and merges the responses back into
/// request order.
///
/// Failure semantics mirror the router and the per-connection poisoning
/// contract: a shard whose batch errors (death mid-window included) is
/// marked dead, every request routed to it — in this batch and later
/// ones — answers the literal line `ERR shard down`, and the surviving
/// shards keep serving. The call itself still returns `Ok`, so one dead
/// shard never masks the other shards' responses.
pub struct ShardedClient {
    shards: Vec<ShardConn>,
    ring: Ring,
    window: usize,
}

impl ShardedClient {
    /// Connect to every shard and upgrade each to v3 framing. The
    /// per-shard window is `window` clamped to the smallest shard's
    /// advertised cap, so every shard accepts the same depth. All shards
    /// must be reachable at construction (a client that starts with a
    /// dead shard should say so loudly); shards may die afterwards.
    pub fn connect(addrs: &[String], window: usize) -> io::Result<ShardedClient> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "sharded client needs at least one shard",
            ));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        let mut effective = window.max(1);
        for addr in addrs {
            let conn = V3Client::connect(addr.as_str(), window)?;
            effective = effective.min(conn.window());
            shards.push(ShardConn {
                addr: addr.clone(),
                conn: Some(conn),
            });
        }
        Ok(ShardedClient {
            shards,
            ring: Ring::new(addrs),
            window: effective,
        })
    }

    /// The effective per-shard window after clamping to every shard's cap.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Index of the shard owning `graph` — exposed so tests can predict
    /// which keys a killed shard takes down.
    pub fn shard_of(&self, graph: &proto::GraphRef) -> usize {
        self.ring.shard_of(&shard_key(graph))
    }

    /// Send every request line, each through its owning shard, and
    /// return the responses **in request order** rendered to their v1
    /// text form — exactly what [`V3Client::request_many`] returns for
    /// the same lines on an unsharded server. Lines that do not name a
    /// graph (`PING`, `STATS`, parse errors) go to shard 0, whose server
    /// answers them with the very strings a single server would.
    pub fn request_many<S: AsRef<str> + Sync>(&mut self, lines: &[S]) -> io::Result<Vec<String>> {
        let mut batches: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, line) in lines.iter().enumerate() {
            let shard = match Request::parse(line.as_ref()) {
                Ok(ref req) => match crate::ops::request_op(req) {
                    Some((graph, _)) => self.ring.shard_of(&shard_key(graph)),
                    None => 0,
                },
                Err(_) => 0,
            };
            batches[shard].push(i);
        }
        let mut results: Vec<Option<String>> = Vec::with_capacity(lines.len());
        results.resize_with(lines.len(), || None);
        let per_shard: Vec<Vec<(usize, String)>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .zip(batches.iter())
                .map(|(shard, batch)| {
                    s.spawn(move || -> Vec<(usize, String)> {
                        if batch.is_empty() {
                            return Vec::new();
                        }
                        let sub: Vec<&str> = batch.iter().map(|&i| lines[i].as_ref()).collect();
                        let responses = match shard.conn.as_mut() {
                            Some(conn) => match conn.request_many(&sub) {
                                Ok(r) => r,
                                Err(_) => {
                                    // Death mid-window: the connection is
                                    // poisoned (tags can't be trusted), so
                                    // fail-fast every key this shard owns.
                                    shard.conn = None;
                                    vec!["ERR shard down".to_string(); batch.len()]
                                }
                            },
                            None => vec!["ERR shard down".to_string(); batch.len()],
                        };
                        batch.iter().copied().zip(responses).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        });
        for (i, response) in per_shard.into_iter().flatten() {
            results[i] = Some(response);
        }
        Ok(results.into_iter().map(|r| r.unwrap()).collect())
    }

    /// Single-request convenience over [`ShardedClient::request_many`].
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        Ok(self.request_many(&[line])?.pop().unwrap())
    }

    /// The merged cluster `STATS` line (`OK STATS ...` with every shard's
    /// counters summed and the `shards= shards_up= shard_bytes=
    /// shard_evictions=` gauges appended — see
    /// [`registry::merge_stats_bodies`]). Fetched over short-lived v1
    /// connections so it never perturbs the pipelined v3 windows; a dead
    /// shard contributes zeros.
    pub fn stats(&self) -> String {
        let fetch = |addr: &str| -> Option<String> {
            let mut c = Client::connect(addr).ok()?;
            c.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
            let line = c.request("STATS").ok()?;
            let body = line.strip_prefix("OK ")?.to_string();
            let _ = c.quit();
            Some(body)
        };
        let bodies: Vec<Option<String>> = self.shards.iter().map(|s| fetch(&s.addr)).collect();
        format!("OK {}", registry::merge_stats_bodies(&bodies))
    }

    /// Polite close: framed `QUIT` to every live shard (each drains its
    /// in-flight responses first), ignoring shards that already died.
    pub fn quit(self) -> io::Result<()> {
        for shard in self.shards {
            if let Some(conn) = shard.conn {
                let _ = conn.quit();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A fake server that accepts one connection, feeds it `response`
    /// verbatim, and closes.
    fn fake_server(response: &'static [u8]) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Consume the whole request line — it may arrive in more than
            // one segment — so closing with unread bytes can't turn the
            // client's EOF into a connection reset.
            let _ = BufReader::new(&s).read_line(&mut String::new());
            s.write_all(response).unwrap();
            // Drop closes the connection.
        });
        addr
    }

    #[test]
    fn clean_eof_and_truncation_are_distinguished() {
        let mut eof = Client::connect(fake_server(b"")).unwrap();
        let e = eof.request("PING").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(e.to_string().contains("clean EOF"), "{e}");

        let mut cut = Client::connect(fake_server(b"OK PON")).unwrap();
        let e = cut.request("PING").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(e.to_string().contains("truncated"), "{e}");
    }

    #[test]
    fn read_timeout_unparks_a_client_on_a_hung_server() {
        // A listener that accepts and then never responds.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().unwrap());
        let mut c = Client::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let e = c.request("PING").unwrap_err();
        assert!(
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "hung server must surface as a timeout, got: {e}"
        );
        // The timeout may have consumed part of a response line, so the
        // connection is poisoned: a retry must fail fast rather than read
        // desynchronized frames.
        let e = c.request("PING").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
        assert!(e.to_string().contains("poisoned"), "{e}");
        drop(hold);
    }
}
