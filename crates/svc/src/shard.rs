//! Sharded serving: a consistent-hash ring over shard identities plus
//! the `mis2svc route` proxy that fronts N independent `mis2svc` server
//! processes, each owning a slice of the graph keyspace.
//!
//! ## Ownership rule
//!
//! Every compute request names exactly one graph; the graph's *canonical*
//! token ([`shard_key`] — suite names as-is, `.mtx` paths resolved the
//! same way the registry keys them) hashes onto the [`Ring`], and the
//! shard owning the first ring point at or after that hash serves the
//! request. Each shard contributes a fixed set of virtual-node points
//! derived only from its own identity, so growing or shrinking the shard
//! set moves only the keys whose owning arc changed — every other key
//! keeps its shard, its cache entries, and its responses.
//!
//! ## The router
//!
//! [`route`] runs a protocol-transparent proxy: downstream it speaks
//! v1 and v3 exactly like a single server (same hellos, same window
//! advertisement, same error strings), upstream it keeps one pipelined v3
//! connection per shard per downstream connection and remaps tags — a
//! downstream request takes a window slot, is assigned a per-shard
//! upstream tag, and the shard's response frame is translated back to the
//! downstream protocol under the original tag. Responses are therefore
//! byte-identical to a single unsharded server's, which the e2e tests and
//! the CI `shard-smoke` leg diff-prove across the full workload sweep.
//!
//! The router's advertised window is clamped to the smallest shard
//! window, so the per-shard in-flight count can never exceed what the
//! shard's own reader will drain — upstream writes never block on shard
//! backpressure while the per-shard lock is held.
//!
//! ## Failure semantics
//!
//! A dead shard fails fast and stays contained: the upstream reader (or a
//! failed upstream write) marks that shard dead, drains its in-flight
//! tags, and answers each with `ERR shard down` under the request's own
//! tag — exactly one answer (and one window-slot release) per poisoned
//! tag, because every insert/remove on the pending map happens under one
//! lock. Requests for keys the dead shard owns keep answering `ERR shard
//! down` immediately; surviving shards are untouched. The dead shard is
//! **redialed** as requests keep arriving for it — paced by capped
//! exponential backoff (50 ms doubling to 2 s) with uniform jitter so a
//! request stream never hot-loops TCP connects and parallel routers
//! don't redial in lockstep — and a successful redial restores service
//! on a fresh connection generation (in-flight tags of the dead one
//! still answer `ERR shard down` exactly once each).
//!
//! `STATS` through the router merges every shard's counters into one
//! cluster-wide line ([`crate::registry::merge_stats_bodies`]): each key
//! summed across shards in the single-server order, then the
//! cluster-only gauges `shards= shards_up= shard_bytes= shard_evictions=`
//! appended at the end.

use crate::client::Client;
use crate::codec;
use crate::metrics;
use crate::ops;
use crate::proto::{self, GraphRef, Request};
use crate::registry;
use crate::server::{
    acquire_slot, send_payload, writer_loop, ConnSlot, ConnTable, ConnWindow, Framing, Outgoing,
    Payload, SvcStats,
};
use mis2_prim::hash::{hash2, splitmix64};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Virtual-node points each shard contributes to the ring. Enough that
/// the largest shard's share of the keyspace stays within a few percent
/// of 1/N, few enough that building and searching the ring is trivial.
pub const VNODES: usize = 64;

/// Hash a key string onto the ring's `u64` circle: bytes folded through
/// `splitmix64` with the length mixed in last, so prefixes don't collide.
fn hash_key(key: &str) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15;
    for &b in key.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    splitmix64(h ^ key.len() as u64)
}

/// The cache-key form a graph reference shards on: suite names as-is,
/// `.mtx` paths canonicalized exactly like [`crate::registry`] keys them
/// (falling back to the literal spelling when the path doesn't resolve),
/// so one graph always lives on one shard no matter how it is spelled.
pub fn shard_key(graph: &GraphRef) -> String {
    graph
        .try_canonical()
        .unwrap_or_else(|| graph.clone())
        .token()
        .to_string()
}

/// A consistent-hash ring: [`VNODES`] points per shard, each derived
/// only from the shard's own identity string, sorted on a `u64` circle.
/// A key is owned by the shard holding the first point at or after the
/// key's hash (wrapping at the top).
///
/// Because a shard's points depend on nothing but its own identity,
/// adding or removing a shard inserts or deletes only *that shard's*
/// points: every key whose owning point survives keeps its owner, which
/// is the rebalancing guarantee the grow/shrink tests pin down.
pub struct Ring {
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Build the ring over the given shard identities (typically their
    /// addresses). Panics on an empty shard set — a ring with no points
    /// cannot own anything.
    pub fn new<S: AsRef<str>>(shard_ids: &[S]) -> Ring {
        assert!(!shard_ids.is_empty(), "ring needs at least one shard");
        let mut points = Vec::with_capacity(shard_ids.len() * VNODES);
        for (idx, id) in shard_ids.iter().enumerate() {
            let base = hash_key(id.as_ref());
            for replica in 0..VNODES as u64 {
                points.push((hash2(splitmix64, base, replica), idx));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// Index (into the constructor's slice) of the shard owning `key`.
    pub fn shard_of(&self, key: &str) -> usize {
        let h = hash_key(key);
        let i = self.points.partition_point(|&(p, _)| p < h);
        let i = if i == self.points.len() { 0 } else { i };
        self.points[i].1
    }
}

/// Router configuration for [`route`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Upstream shard addresses, in ring order. Must be non-empty and
    /// every shard must answer a v3 hello at startup.
    pub shards: Vec<String>,
    /// Maximum concurrent downstream connections (0 = 1024).
    pub max_conns: usize,
    /// Downstream window cap (0 = 64); always clamped to the smallest
    /// shard-advertised window so per-shard in-flight never exceeds what
    /// the shard's reader will drain.
    pub max_inflight: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            max_conns: 0,
            max_inflight: 0,
        }
    }
}

/// A running router. Call [`RouterHandle::shutdown`] to stop it (tests)
/// or [`RouterHandle::wait`] to serve forever (the `mis2svc route` bin).
pub struct RouterHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    conn_table: Arc<ConnTable>,
    svc_stats: Arc<SvcStats>,
    max_inflight: usize,
}

impl RouterHandle {
    /// The address the router actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's wire counters (downstream window gauges).
    pub fn svc_stats(&self) -> &Arc<SvcStats> {
        &self.svc_stats
    }

    /// The downstream window cap after clamping to the shard windows.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Block forever serving.
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Stop accepting, join the accept thread, and hard-close every live
    /// downstream connection so its handler (and that handler's upstream
    /// connections) wind down.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        self.conn_table.kill_all();
    }
}

/// Probe one shard's v3 hello to learn its advertised window. The probe
/// connection is dropped immediately afterwards (the server treats the
/// EOF as a clean close).
fn probe_shard_window(addr: &str) -> io::Result<usize> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", codec::HELLO_V3)?;
    writer.flush()?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("shard {addr} closed during the hello"),
        ));
    }
    codec::parse_hello_ok(line.trim_end_matches(['\r', '\n']))
        .filter(|max| *max > 0)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard {addr} rejected the V3 hello: {}", line.trim_end()),
            )
        })
}

/// Bind and start the shard router in background threads. Every shard
/// must answer its v3 hello at startup (the advertised windows bound the
/// router's own window); shards may die afterwards — that is the failure
/// mode the router contains per-shard.
pub fn route(cfg: RouterConfig) -> io::Result<RouterHandle> {
    if cfg.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one shard",
        ));
    }
    let mut shard_window = usize::MAX;
    for addr in &cfg.shards {
        shard_window = shard_window.min(probe_shard_window(addr)?);
    }
    let max_inflight = if cfg.max_inflight == 0 {
        64
    } else {
        cfg.max_inflight
    }
    .min(shard_window);
    let max_conns = if cfg.max_conns == 0 {
        1024
    } else {
        cfg.max_conns
    };
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let svc_stats = Arc::new(SvcStats::default());
    let conn_table = Arc::new(ConnTable::default());
    let ring = Arc::new(Ring::new(&cfg.shards));
    let shard_addrs: Arc<Vec<String>> = Arc::new(cfg.shards.clone());
    let accept = {
        let stop = Arc::clone(&stop);
        let svc_stats = Arc::clone(&svc_stats);
        let conn_table = Arc::clone(&conn_table);
        let conns = Arc::new(AtomicUsize::new(0));
        std::thread::Builder::new()
            .name("mis2-route-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else {
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    };
                    let _ = stream.set_nodelay(true);
                    // Same claim-then-check slot discipline as the
                    // server's accept loop; the drop guard releases the
                    // claim on every path.
                    let claimed = conns.fetch_add(1, Ordering::AcqRel) + 1;
                    let slot = ConnSlot::new(Arc::clone(&conns));
                    if claimed > max_conns {
                        let _ = writeln!(stream, "{}", proto::err("server busy"));
                        continue;
                    }
                    let slot = slot.track(&conn_table, &stream);
                    let svc_stats = Arc::clone(&svc_stats);
                    let ring = Arc::clone(&ring);
                    let shard_addrs = Arc::clone(&shard_addrs);
                    let _ = std::thread::Builder::new()
                        .name("mis2-route-conn".into())
                        .spawn(move || {
                            let _slot = slot;
                            let _ = handle_router_connection(
                                stream,
                                &shard_addrs,
                                &ring,
                                &svc_stats,
                                max_inflight,
                            );
                        });
                }
            })?
    };
    Ok(RouterHandle {
        addr,
        stop,
        accept: Some(accept),
        conn_table,
        svc_stats,
        max_inflight,
    })
}

/// The lock-guarded half of one upstream shard connection. Every
/// transition of the pending map — insert on forward, remove on a
/// response, drain on death — happens under this one lock, which is what
/// makes delivery (and therefore window-slot release) exactly-once per
/// tag: a tag leaves the map exactly once, and whoever removes it owns
/// answering it.
struct UpState {
    /// In-flight upstream tags and how to answer each downstream.
    pending: HashMap<u64, Framing>,
    /// Next upstream tag (monotonically unique across reconnects, so a
    /// stale socket's late response can never alias a fresh tag).
    next_tag: u64,
    /// Write half of the current shard connection; `None` while the
    /// shard is dead — forwards answer `ERR shard down` immediately
    /// (fail-fast) and redial on the backoff cadence below.
    writer: Option<TcpStream>,
    /// Raw clone of the current socket, used only to `shutdown()` at
    /// downstream teardown, which unblocks the reader thread.
    teardown: Option<TcpStream>,
    /// Connection generation: bumped by every successful (re)dial. A
    /// dying reader poisons the shard only if its generation is still
    /// current — a newer socket may already be serving.
    gen: u64,
    /// Reader threads of every generation, joined at teardown.
    readers: Vec<std::thread::JoinHandle<()>>,
    /// Downstream teardown has begun: no further redials.
    closed: bool,
    /// Earliest instant the next redial may happen; `None` = dial freely
    /// (fresh shard, or first forward after a death).
    next_dial_at: Option<Instant>,
    /// Current backoff interval (zero until a dial fails; doubles per
    /// failure up to [`DIAL_BACKOFF_CAP`], resets on success).
    backoff: Duration,
    /// Total dial attempts, successful or not. Seeds the jitter and
    /// bounds the retry cadence under test.
    dials: u64,
}

/// One upstream shard connection owned by one downstream connection.
struct UpShard {
    addr: String,
    state: Mutex<UpState>,
}

impl UpShard {
    /// A shard slot with no connection yet: the first
    /// [`try_revive`] dials it eagerly.
    fn new(addr: &str) -> UpShard {
        UpShard {
            addr: addr.to_string(),
            state: Mutex::new(UpState {
                pending: HashMap::new(),
                next_tag: 0,
                writer: None,
                teardown: None,
                gen: 0,
                readers: Vec::new(),
                closed: false,
                next_dial_at: None,
                backoff: Duration::ZERO,
                dials: 0,
            }),
        }
    }
}

/// First retry interval after a failed shard dial.
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Retry interval ceiling: a shard that stays down is probed at most
/// every two seconds per downstream connection, forever.
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(2000);

/// Dial and v3-upgrade one upstream shard socket, returning
/// `(writer, teardown clone, reader)` halves.
fn dial(addr: &str) -> io::Result<(TcpStream, TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let teardown = stream.try_clone()?;
    let mut writer = stream;
    writeln!(writer, "{}", codec::HELLO_V3)?;
    writer.flush()?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard closed during the hello",
        ));
    }
    codec::parse_hello_ok(line.trim_end_matches(['\r', '\n']))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "shard rejected the V3 hello"))?;
    Ok((writer, teardown, reader))
}

/// Record a dial attempt and schedule the earliest next one:
/// exponential backoff doubling to [`DIAL_BACKOFF_CAP`], jittered
/// uniformly into `[backoff/2, backoff]` so N downstream connections
/// (or N routers) chasing one dead shard don't redial in lockstep.
/// Every attempt is paced, even ones whose connect+hello succeed — a
/// flapping shard that accepts and instantly dies must not be redialed
/// per request. Only a delivered response frame (proof of a live shard,
/// see [`upstream_reader`]) resets the cadence.
fn pace_dial(st: &mut UpState, addr: &str) {
    st.dials += 1;
    st.backoff = if st.backoff.is_zero() {
        DIAL_BACKOFF_BASE
    } else {
        (st.backoff * 2).min(DIAL_BACKOFF_CAP)
    };
    let nanos = st.backoff.as_nanos() as u64;
    // splitmix64 over (addr, attempt, wall clock): deterministic inputs
    // alone would synchronize identical routers started together.
    let wall = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    let addr_hash = addr.bytes().fold(0u64, |h, b| splitmix64(h ^ u64::from(b)));
    let r = splitmix64(hash2(splitmix64, addr_hash, st.dials) ^ wall);
    let jittered = nanos / 2 + r % (nanos / 2 + 1);
    st.next_dial_at = Some(Instant::now() + Duration::from_nanos(jittered));
}

/// Try to (re)connect `shard`. On success the fresh socket is installed
/// under a new generation, its reader thread spawned, and the backoff
/// reset; on failure the next attempt is scheduled by
/// [`pace_dial`]. The dial itself runs without the shard lock —
/// responses and poisoning on other generations proceed meanwhile.
fn try_revive(
    shard: &Arc<UpShard>,
    tx: &SyncSender<Outgoing>,
    win: &Arc<ConnWindow>,
    stats: &Arc<SvcStats>,
) {
    match dial(&shard.addr) {
        Ok((writer, teardown, reader)) => {
            let mut st = shard.state.lock().unwrap();
            if st.closed {
                return; // downstream teardown raced the dial: drop it
            }
            // The fresh socket is still paced like a failure until it
            // proves itself with a response frame (the reader resets
            // the cadence then) — so a flapping shard stays backed off.
            pace_dial(&mut st, &shard.addr);
            st.gen += 1;
            let gen = st.gen;
            let up = Arc::clone(shard);
            let (tx, win, stats) = (tx.clone(), Arc::clone(win), Arc::clone(stats));
            if let Ok(h) = std::thread::Builder::new()
                .name("mis2-route-up".into())
                .spawn(move || upstream_reader(reader, up, gen, tx, win, stats))
            {
                st.writer = Some(writer);
                st.teardown = Some(teardown);
                st.readers.push(h);
            }
            // else: no reader, no connection — stay dead, retry later.
        }
        Err(_) => {
            let mut st = shard.state.lock().unwrap();
            pace_dial(&mut st, &shard.addr);
        }
    }
}

/// Render one upstream response (or synthesized error) downstream under
/// an already-held window slot: a bare v1 line, or a v3 frame under the
/// downstream tag.
fn deliver(
    framing: Framing,
    status: u8,
    payload: &[u8],
    tx: &SyncSender<Outgoing>,
    win: &ConnWindow,
    stats: &SvcStats,
) {
    let resp = ops::Response::from_wire(status, payload);
    send_payload(framing.wrap(resp), tx, win, stats);
}

/// Forward one request line to `shard` under an already-held window
/// slot. A dead shard (or a write that kills it) answers `ERR shard
/// down` for this request — and, on a fresh death, for every other tag
/// that was in flight on the shard, exactly once each (the reader thread
/// finds an already-empty map when it notices the same death). Requests
/// hitting a dead shard also pace its revival: at most one redial per
/// jittered backoff interval ([`pace_dial`]), never a connect
/// per request.
fn forward(
    shard: &Arc<UpShard>,
    line: &str,
    framing: Framing,
    tx: &SyncSender<Outgoing>,
    win: &Arc<ConnWindow>,
    stats: &Arc<SvcStats>,
) {
    let mut st = shard.state.lock().unwrap();
    if st.writer.is_none() && !st.closed && st.next_dial_at.is_none_or(|at| Instant::now() >= at) {
        drop(st);
        try_revive(shard, tx, win, stats);
        st = shard.state.lock().unwrap();
    }
    if st.writer.is_none() {
        drop(st);
        deliver(framing, codec::STATUS_ERR, b"shard down", tx, win, stats);
        return;
    }
    let tag = st.next_tag;
    st.next_tag += 1;
    st.pending.insert(tag, framing);
    let wrote = codec::write_frame(
        st.writer.as_mut().expect("checked above"),
        tag,
        codec::STATUS_OK,
        line.as_bytes(),
    );
    if wrote.is_err() {
        // The shard died under our pen: poison it here. Taking back our
        // own entry and draining the rest under the same lock keeps the
        // reader thread (which will notice the death next) from ever
        // seeing these tags — one answer, one slot release, per tag.
        st.writer = None;
        let mine = st.pending.remove(&tag);
        let drained: Vec<Framing> = st.pending.drain().map(|(_, r)| r).collect();
        drop(st);
        for r in mine.into_iter().chain(drained) {
            deliver(r, codec::STATUS_ERR, b"shard down", tx, win, stats);
        }
    }
}

/// The per-shard upstream reader: translates response frames back to the
/// downstream protocol, and on shard death (EOF, read error, or teardown
/// shutdown) poisons only this shard — every tag still pending gets `ERR
/// shard down` and its window slot back, the connection keeps serving
/// other shards.
fn upstream_reader(
    mut reader: BufReader<TcpStream>,
    shard: Arc<UpShard>,
    gen: u64,
    tx: SyncSender<Outgoing>,
    win: Arc<ConnWindow>,
    stats: Arc<SvcStats>,
) {
    let mut payload: Vec<u8> = Vec::new();
    let mut proven = false;
    while let Ok(Some((tag, status))) = codec::read_frame_into(&mut reader, &mut payload) {
        let framing = {
            let mut st = shard.state.lock().unwrap();
            // First response frame: the shard is demonstrably alive, so
            // reset the redial cadence it would get on its next death.
            if !proven && st.gen == gen {
                proven = true;
                st.backoff = Duration::ZERO;
                st.next_dial_at = None;
            }
            st.pending.remove(&tag)
        };
        // An unknown tag means the forwarder already answered it (shard
        // died under the write, then revived enough to respond) — it
        // holds no slot, so drop it.
        if let Some(framing) = framing {
            deliver(framing, status, &payload, &tx, &win, &stats);
        }
    }
    let drained: Vec<Framing> = {
        let mut st = shard.state.lock().unwrap();
        // Poison only our own connection generation: if a redial already
        // installed a fresh socket, its tags are not ours to drain.
        if st.gen != gen {
            return;
        }
        st.writer = None;
        st.pending.drain().map(|(_, r)| r).collect()
    };
    for framing in drained {
        deliver(framing, codec::STATUS_ERR, b"shard down", &tx, &win, &stats);
    }
}

/// Fetch every shard's `STATS` over short-lived v1 connections and merge
/// them into the cluster line. A shard that cannot be reached (or
/// answers garbage) contributes zeros and drops out of `shards_up=`.
fn cluster_stats(shard_addrs: &[String]) -> String {
    let fetch = |addr: &String| -> Option<String> {
        let mut c = Client::connect(addr.as_str()).ok()?;
        c.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
        let line = c.request("STATS").ok()?;
        let body = line.strip_prefix("OK ")?.to_string();
        let _ = c.quit();
        Some(body)
    };
    let bodies: Vec<Option<String>> = shard_addrs.iter().map(fetch).collect();
    registry::merge_stats_bodies(&bodies)
}

/// Fetch every shard's `METRICS` exposition and merge bucket-wise
/// ([`crate::metrics::merge_expositions`]): counters and histogram
/// buckets sum, `mis2_uptime_seconds` takes the minimum over live
/// shards, and each shard's slow-request entries pass through with the
/// `shard` label rewritten to the shard's cluster index. The body comes
/// back in the same escaped single-line form the server emits.
fn cluster_metrics(shard_addrs: &[String]) -> String {
    let fetch = |addr: &String| -> Option<String> {
        let mut c = Client::connect(addr.as_str()).ok()?;
        c.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
        let line = c.request("METRICS").ok()?;
        let body = line.strip_prefix("OK METRICS ")?.to_string();
        let _ = c.quit();
        Some(metrics::unescape_body(&body))
    };
    let bodies: Vec<Option<String>> = shard_addrs.iter().map(fetch).collect();
    let merged = metrics::merge_expositions(&bodies);
    format!("METRICS {}", metrics::escape_body(&merged))
}

/// Serve one downstream connection: the router-side mirror of the
/// server's reader/writer split. The writer half is literally the
/// server's [`writer_loop`]; the reader parses downstream requests and
/// forwards compute to the owning shard instead of a scheduler.
fn handle_router_connection(
    stream: TcpStream,
    shard_addrs: &[String],
    ring: &Ring,
    stats: &Arc<SvcStats>,
    max_inflight: usize,
) -> io::Result<()> {
    let write_stream = stream.try_clone()?;
    let win = Arc::new(ConnWindow::new());
    // Capacity = window cap: the same bound that makes the server's
    // completion sends non-blocking makes the upstream readers' sends
    // non-blocking here.
    let (tx, rx) = sync_channel::<Outgoing>(max_inflight);
    let writer = {
        let win = Arc::clone(&win);
        let stats = Arc::clone(stats);
        std::thread::Builder::new()
            .name("mis2-route-write".into())
            .spawn(move || writer_loop(rx, write_stream, &win, &stats, None))?
    };
    // One eager upstream connection per shard, plus its reader thread.
    // A shard that can't be dialed starts dead (its keys answer `ERR
    // shard down`) and is redialed on the backoff cadence as requests
    // keep arriving for it.
    let mut shards: Vec<Arc<UpShard>> = Vec::with_capacity(shard_addrs.len());
    for addr in shard_addrs {
        let up = Arc::new(UpShard::new(addr));
        try_revive(&up, &tx, &win, stats);
        shards.push(up);
    }
    let ds = Downstream {
        shards: &shards,
        shard_addrs,
        ring,
        stats,
        max_inflight,
        win: &win,
        tx: &tx,
    };
    let result = router_read_loop(stream, &ds);
    // Teardown: mark every shard closed (no further redials), hard-close
    // the upstream sockets so their readers unblock, join the readers of
    // every generation, and drop their tx clones; then our own sender
    // drops and the writer drains out. The join happens outside the
    // shard lock — a dying reader takes it to drain its pending tags.
    for shard in &shards {
        let (socket, readers) = {
            let mut st = shard.state.lock().unwrap();
            st.closed = true;
            (st.teardown.take(), std::mem::take(&mut st.readers))
        };
        if let Some(s) = socket {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for h in readers {
            let _ = h.join();
        }
    }
    drop(tx);
    let _ = writer.join();
    result
}

/// One downstream connection's view of the router: the shard set and
/// ring its compute requests route through, and the window and channel
/// its responses travel back on.
struct Downstream<'a> {
    shards: &'a [Arc<UpShard>],
    shard_addrs: &'a [String],
    ring: &'a Ring,
    stats: &'a Arc<SvcStats>,
    max_inflight: usize,
    win: &'a Arc<ConnWindow>,
    tx: &'a SyncSender<Outgoing>,
}

impl Downstream<'_> {
    /// Take a window slot under `cap` and answer `resp` inline.
    fn answer(&self, framing: Framing, cap: usize, resp: ops::Response) {
        acquire_slot(self.win, cap, self.stats);
        send_payload(framing.wrap(resp), self.tx, self.win, self.stats);
    }

    /// Answer one parsed request under `framing`, with the same strings
    /// as a single server: `PING` locally, `STATS`/`METRICS` merged over
    /// the cluster, compute forwarded to its owning shard. Returns
    /// `false` once `QUIT` has drained the window and said goodbye.
    fn request(&self, parsed: Result<Request, String>, framing: Framing, cap: usize) -> bool {
        match parsed {
            Err(e) => self.answer(framing, cap, ops::Response::err(&e)),
            Ok(Request::Ping) => self.answer(framing, cap, ops::Response::ok_text("PONG".into())),
            Ok(Request::Stats) => {
                let body = cluster_stats(self.shard_addrs);
                self.answer(framing, cap, ops::Response::ok_text(body));
            }
            Ok(Request::Metrics) => {
                let body = cluster_metrics(self.shard_addrs);
                self.answer(framing, cap, ops::Response::ok_text(body));
            }
            Ok(Request::Quit) => {
                self.win.wait_empty();
                self.answer(framing, cap, ops::Response::ok_text("BYE".into()));
                return false;
            }
            Ok(req) => {
                acquire_slot(self.win, cap, self.stats);
                route_request(&req, self, framing);
            }
        }
        true
    }
}

/// The downstream reader: the same line discipline, `V3` hello, window
/// slots, and error strings as the server's connection machine — v1
/// lines one at a time (window cap 1) until the hello, v3 frames after
/// it.
fn router_read_loop(stream: TcpStream, ds: &Downstream) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let n = (&mut reader)
            .take(proto::MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(());
        }
        if n > proto::MAX_LINE && buf.last() != Some(&b'\n') {
            ds.answer(Framing::Bare, 1, ops::Response::err("line too long"));
            return Ok(());
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            ds.answer(Framing::Bare, 1, ops::Response::err("invalid utf-8"));
            continue;
        };
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == codec::HELLO_V3 {
            acquire_slot(ds.win, 1, ds.stats);
            let hello = Payload::Line(codec::hello_ok(ds.max_inflight));
            send_payload(hello, ds.tx, ds.win, ds.stats);
            return router_v3_read_loop(&mut reader, ds);
        }
        if !ds.request(Request::parse(trimmed), Framing::Bare, 1) {
            return Ok(());
        }
    }
}

/// The downstream v3 reader: binary frames, each answered under its own
/// tag with the full window open.
fn router_v3_read_loop(reader: &mut BufReader<TcpStream>, ds: &Downstream) -> io::Result<()> {
    let cap = ds.max_inflight;
    let mut payload: Vec<u8> = Vec::new();
    loop {
        let Some(hdr) = codec::read_header(reader)? else {
            return Ok(());
        };
        let (tag, len, _status) = codec::decode_header(&hdr);
        let framing = Framing::V3(tag);
        let len = len as usize;
        if len > codec::MAX_PAYLOAD {
            ds.answer(framing, cap, ops::Response::err("frame too long"));
            return Ok(());
        }
        payload.resize(len, 0);
        reader.read_exact(&mut payload)?;
        let Ok(text) = std::str::from_utf8(&payload) else {
            ds.answer(framing, cap, ops::Response::err("invalid utf-8"));
            continue;
        };
        if !ds.request(
            Request::parse(text.trim_end_matches(['\r', '\n'])),
            framing,
            cap,
        ) {
            return Ok(());
        }
    }
}

/// Consistent-hash one parsed compute request to its owning shard and
/// forward it (under an already-held window slot).
fn route_request(req: &Request, ds: &Downstream, framing: Framing) {
    let (tx, win, stats) = (ds.tx, ds.win, ds.stats);
    let Some((graph, _)) = ops::request_op(req) else {
        // PING/STATS/QUIT are handled before routing; nothing else
        // parses, so this is unreachable in practice — answer anyway
        // rather than poison anything.
        deliver(
            framing,
            codec::STATUS_ERR,
            b"not a compute request",
            tx,
            win,
            stats,
        );
        return;
    };
    let idx = ds.ring.shard_of(&shard_key(graph));
    forward(&ds.shards[idx], &req.to_line(), framing, tx, win, stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:90{i:02}")).collect()
    }

    fn keys() -> Vec<String> {
        (0..512).map(|i| format!("graph_{i}.mtx")).collect()
    }

    #[test]
    fn ring_is_deterministic_and_total() {
        let ring = Ring::new(&ids(3));
        let again = Ring::new(&ids(3));
        for k in keys() {
            let s = ring.shard_of(&k);
            assert!(s < 3);
            assert_eq!(s, again.shard_of(&k), "ownership must be deterministic");
        }
    }

    #[test]
    fn ring_spreads_keys_across_all_shards() {
        let ring = Ring::new(&ids(3));
        let mut counts = [0usize; 3];
        for k in keys() {
            counts[ring.shard_of(&k)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                *c > keys().len() / 10,
                "shard {i} owns {c} of {} keys — far off a fair split {counts:?}",
                keys().len()
            );
        }
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        let three = ids(3);
        let mut four = ids(3);
        four.push("127.0.0.1:9999".into());
        let before = Ring::new(&three);
        let after = Ring::new(&four);
        let mut moved = 0;
        for k in keys() {
            let old = after.shard_of(&k);
            if old != before.shard_of(&k) {
                assert_eq!(
                    four[old], "127.0.0.1:9999",
                    "a key may only move to the shard that joined"
                );
                moved += 1;
            }
        }
        assert!(moved > 0, "the new shard must own something");
        assert!(
            moved < keys().len() / 2,
            "growing by one shard must not reshuffle the world ({moved} moved)"
        );
    }

    #[test]
    fn shrinking_the_ring_only_moves_the_dead_shards_keys() {
        let three = ids(3);
        let two: Vec<String> = vec![three[0].clone(), three[2].clone()];
        let before = Ring::new(&three);
        let after = Ring::new(&two);
        for k in keys() {
            let owner_before = three[before.shard_of(&k)].clone();
            let owner_after = two[after.shard_of(&k)].clone();
            if owner_before != three[1] {
                assert_eq!(
                    owner_before, owner_after,
                    "a surviving shard's keys must not move when another shard leaves"
                );
            }
        }
    }

    #[test]
    fn shard_keys_are_canonical_across_spellings() {
        // Suite names are their own canonical form.
        let a = shard_key(&GraphRef::Suite("ecology2".into()));
        assert_eq!(a, "ecology2");
        // Two spellings of one existing path must shard identically.
        let dir = std::env::temp_dir().join("mis2_shard_key_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        std::fs::write(&path, b"stub").unwrap();
        let plain = path.to_str().unwrap().to_string();
        let dotted = format!(
            "{}/../{}/g.mtx",
            dir.to_str().unwrap(),
            dir.file_name().unwrap().to_str().unwrap()
        );
        assert_eq!(
            shard_key(&GraphRef::Mtx(plain)),
            shard_key(&GraphRef::Mtx(dotted))
        );
        // A missing path falls back to its literal spelling.
        assert_eq!(
            shard_key(&GraphRef::Mtx("no/such/file.mtx".into())),
            "no/such/file.mtx"
        );
    }

    #[test]
    fn router_refuses_an_empty_shard_set() {
        match route(RouterConfig::default()) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("an empty shard set must be refused"),
        }
    }
}
