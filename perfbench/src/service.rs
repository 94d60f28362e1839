//! The request paths: the direct library call, an in-process server over
//! v3 or v1, and two in-process shards behind the router.
//!
//! One [`service_pass`] starts a fresh target, sends the twelve keys once
//! in seeded order (every request misses: the cold sweep), then sends the
//! Zipf hot stream for a fixed time (every request hits). Every response
//! is compared byte for byte with the golden line that `ops::execute`
//! rendered on a direct registry at set-up, and the client's counts are
//! reconciled with the server's `STATS` after each phase.

use crate::trace::Tracer;
use crate::{cpu, mem};
use mis2_graph::Scale;
use mis2_svc::metrics::{parse_exposition, percentile_ns, unescape_body};
use mis2_svc::registry::parse_stats_body;
use mis2_svc::shard::{route, RouterConfig, RouterHandle};
use mis2_svc::{
    ops, server, Client, GraphRef, Registry, Request, ServerConfig, ServerHandle, V3Client,
};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per hot-stream batch handed to the client in one call. A v1
/// client sends one request at a time (about 4k requests/s), so its
/// batches are short enough not to run a 0.25 s window long.
const HOT_BATCH: usize = 1024;
const HOT_BATCH_V1: usize = 64;
/// The v3 client's in-flight window.
const WINDOW: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    /// `ops::execute` on an in-process registry, no socket.
    Direct,
    /// One in-process server, one v3 client with a window of 64.
    V3,
    /// One in-process server, one blocking v1 client.
    V1,
    /// Two in-process shards behind `shard::route`, one v3 client (the
    /// router probe of `svc_hot`'s traced run).
    Routed,
}

/// The service counters one snapshot reads.
#[derive(Clone, Default, Debug)]
pub struct Counters {
    /// Registry heap bytes (graphs and artifacts), a gauge.
    pub bytes: u64,
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub resp_hits: u64,
    pub graph_builds: u64,
    pub queue_wait_us: u64,
    pub run_us: u64,
    pub writev_batches: u64,
    pub bytes_tx: u64,
    pub memo_hits: u64,
    pub router_writev: u64,
    pub shard_requests: Vec<u64>,
}

impl Counters {
    fn minus(&self, before: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.wrapping_sub(b);
        Counters {
            bytes: self.bytes,
            requests: d(self.requests, before.requests),
            hits: d(self.hits, before.hits),
            misses: d(self.misses, before.misses),
            resp_hits: d(self.resp_hits, before.resp_hits),
            graph_builds: d(self.graph_builds, before.graph_builds),
            queue_wait_us: d(self.queue_wait_us, before.queue_wait_us),
            run_us: d(self.run_us, before.run_us),
            writev_batches: d(self.writev_batches, before.writev_batches),
            bytes_tx: d(self.bytes_tx, before.bytes_tx),
            memo_hits: d(self.memo_hits, before.memo_hits),
            router_writev: d(self.router_writev, before.router_writev),
            shard_requests: self
                .shard_requests
                .iter()
                .zip(&before.shard_requests)
                .map(|(a, b)| d(*a, *b))
                .collect(),
        }
    }
}

struct Target {
    reg: Option<Registry>,
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    v3: Option<V3Client>,
    v1: Option<Client>,
}

fn server_config(scale: Scale) -> ServerConfig {
    ServerConfig {
        threads: 1,
        scale,
        ..Default::default()
    }
}

impl Target {
    fn start(path: Path, scale: Scale) -> io::Result<Target> {
        // Memory the caller freed (the kernel passes) would otherwise stay
        // resident in the main arena while the server threads allocate
        // in arenas of their own.
        mem::release_free_memory();
        let mut t = Target {
            reg: None,
            servers: Vec::new(),
            router: None,
            v3: None,
            v1: None,
        };
        match path {
            Path::Direct => t.reg = Some(Registry::new(scale)),
            Path::V3 => {
                t.servers.push(server::serve(server_config(scale))?);
                t.v3 = Some(V3Client::connect(t.servers[0].addr(), WINDOW)?);
            }
            Path::V1 => {
                t.servers.push(server::serve(server_config(scale))?);
                t.v1 = Some(Client::connect(t.servers[0].addr())?);
            }
            Path::Routed => {
                for _ in 0..2 {
                    t.servers.push(server::serve(server_config(scale))?);
                }
                let router = route(RouterConfig {
                    shards: t.servers.iter().map(|s| s.addr().to_string()).collect(),
                    ..Default::default()
                })?;
                t.v3 = Some(V3Client::connect(router.addr(), WINDOW)?);
                t.router = Some(router);
            }
        }
        Ok(t)
    }

    /// One closed-loop request.
    fn one(&mut self, line: &str) -> io::Result<String> {
        if let Some(reg) = &self.reg {
            return Ok(direct_line(reg, line));
        }
        if let Some(c) = &mut self.v3 {
            return c.request(line);
        }
        self.v1
            .as_mut()
            .expect("a started target has a client")
            .request(line)
    }

    /// A batch of requests; appends one latency per request to `lat_ns`.
    fn batch(&mut self, lines: &[&str], lat_ns: &mut Vec<u64>) -> io::Result<Vec<String>> {
        if let Some(c) = &mut self.v3 {
            let out = c.request_many(lines)?;
            lat_ns.extend_from_slice(c.last_latencies_ns());
            return Ok(out);
        }
        let mut out = Vec::with_capacity(lines.len());
        for line in lines {
            let t = Instant::now();
            out.push(self.one(line)?);
            lat_ns.push(t.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }

    /// Read every counter: `STATS` and `METRICS` through the client (the
    /// router merges both across shards), per-shard `STATS` for the
    /// shard shares, and the router's own wire counters. The direct path
    /// reads the registry.
    fn counters(&mut self) -> io::Result<Counters> {
        if let Some(reg) = &self.reg {
            let s = reg.stats();
            return Ok(Counters {
                bytes: s.bytes as u64,
                requests: s.hits + s.misses,
                hits: s.hits,
                misses: s.misses,
                resp_hits: s.resp_hits,
                graph_builds: s.graph_builds,
                shard_requests: vec![s.hits + s.misses],
                ..Default::default()
            });
        }
        let stats = self.one("STATS")?;
        let metrics = self.one("METRICS")?;
        let pairs = parse_stats_body(&stats);
        let get = |k: &str| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map_or(0, |(_, v)| *v)
        };
        let mut c = Counters {
            bytes: get("bytes"),
            requests: get("requests"),
            hits: get("hits"),
            misses: get("misses"),
            resp_hits: get("resp_hits"),
            graph_builds: get("graph_builds"),
            queue_wait_us: get("queue_wait_us"),
            run_us: get("run_us"),
            writev_batches: get("writev_batches"),
            bytes_tx: get("bytes_tx"),
            memo_hits: memo_hits(&metrics)?,
            router_writev: self.router.as_ref().map_or(0, |r| {
                r.svc_stats()
                    .writev_batches
                    .load(std::sync::atomic::Ordering::Relaxed)
            }),
            shard_requests: Vec::new(),
        };
        if self.router.is_some() {
            for s in &self.servers {
                let body = Client::connect(s.addr())?.request("STATS")?;
                let pairs = parse_stats_body(&body);
                let n = pairs
                    .iter()
                    .find(|(k, _)| *k == "requests")
                    .map_or(0, |(_, v)| *v);
                c.shard_requests.push(n);
            }
        } else {
            c.shard_requests.push(c.requests);
        }
        Ok(c)
    }

    /// Shut everything down and wait until each server's registry is
    /// freed: connection threads let go of it after their sockets close,
    /// and a registry still alive when the next pass starts would make
    /// the peak memory depend on thread timing.
    fn stop(self) {
        let regs: Vec<Arc<Registry>> = self
            .servers
            .iter()
            .map(|s| Arc::clone(s.registry()))
            .collect();
        drop(self.v3);
        drop(self.v1);
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for reg in &regs {
            while Arc::strong_count(reg) > 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(regs);
        mem::release_free_memory();
    }
}

/// The direct library call a request line stands for.
pub fn direct_line(reg: &Registry, line: &str) -> String {
    match Request::parse(line) {
        Ok(req) => ops::execute(reg, &req),
        Err(e) => format!("ERR {e}"),
    }
}

/// Requests answered from the v3 hot-key parse memo, from a `METRICS`
/// response (`outcome="memo_hit"` latency counts, summed over ops).
fn memo_hits(line: &str) -> io::Result<u64> {
    let body = line.strip_prefix("OK METRICS ").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad METRICS reply: {line:.80}"),
        )
    })?;
    let exp = parse_exposition(&unescape_body(body))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(exp
        .samples
        .iter()
        .filter(|s| {
            s.name == "mis2_request_latency_ns_count" && s.label("outcome") == Some("memo_hit")
        })
        .map(|s| s.value)
        .sum())
}

/// Inputs shared by every pass: the keys, their golden response lines,
/// the seeded cold order and hot stream.
pub struct ServiceInputs {
    pub keys: Vec<String>,
    pub goldens: Vec<String>,
    pub cold_order: Vec<usize>,
    pub hot: Vec<usize>,
}

/// One fixed-length window of the hot stream.
pub struct HotWindow {
    pub requests: u64,
    /// Wall time and process CPU time spent inside the client's batch
    /// calls (the gate's response checks run outside them).
    pub ns: u64,
    pub cpu_ns: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Steal ticks during the window; `None` if the host reports none.
    pub steal_ticks: Option<u64>,
}

impl HotWindow {
    fn new(
        requests: u64,
        ns: u64,
        cpu_ns: u64,
        mut lat_ns: Vec<u64>,
        steal_ticks: Option<u64>,
    ) -> HotWindow {
        lat_ns.sort_unstable();
        let pct = |q| percentile_ns(&lat_ns, q) as f64 / 1e3;
        HotWindow {
            requests,
            ns,
            cpu_ns,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            steal_ticks,
        }
    }

    pub fn req_per_s(&self) -> f64 {
        self.requests as f64 / (self.ns.max(1) as f64 / 1e9)
    }

    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.requests.max(1) as f64
    }
}

/// What one pass measured and checked.
#[derive(Default)]
pub struct ServicePass {
    /// CPU time the whole process spent on the cold sweep.
    pub cold_cpu_ns: u64,
    /// Peak resident set from the target's start to the end of the hot
    /// stream, in MB (the memory freed before the pass released first).
    pub peak_mb: f64,
    pub hot_requests: u64,
    pub windows: Vec<HotWindow>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
    /// Counter deltas over the cold sweep and over the hot stream.
    pub cold: Counters,
    pub hot_delta: Counters,
    /// Traced runs only: summed client latency of the cold requests
    /// minus the direct replay's build + compute + render spans.
    pub overhead_ns: i64,
}

impl ServicePass {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// Check a response against its golden line.
fn gate(pass: &mut ServicePass, key: &str, got: &str, want: &str) {
    pass.attempted += 1;
    if got != want {
        pass.fail(format!(
            "{key}: response differs from the direct call: {got:.120}"
        ));
    }
}

/// Client counts must match the server's: every compute request is one
/// `requests=` and exactly one of `hits=`/`misses=`.
fn reconcile(
    pass: &mut ServicePass,
    phase: &str,
    d: &Counters,
    control: u64,
    sent: u64,
    misses: u64,
) {
    pass.attempted += 1;
    let ok =
        d.requests.wrapping_sub(control) == sent && d.hits + d.misses == sent && d.misses == misses;
    if !ok {
        pass.fail(format!(
            "{phase}: client sent {sent} ({misses} expected misses) but the server counted \
             requests={} (less {control} control) hits={} misses={}",
            d.requests, d.hits, d.misses
        ));
    }
}

/// One pass on a fresh target: the cold sweep in `order`, then `windows`
/// windows of `window` each of the hot stream, starting at `hot_offset`.
/// `tamper` corrupts one hot response before the gate (the self-test's
/// proof that the gate rejects it).
#[allow(clippy::too_many_arguments)]
pub fn service_pass(
    path: Path,
    scale: Scale,
    inputs: &ServiceInputs,
    order: &[usize],
    hot_offset: usize,
    windows: usize,
    window: Duration,
    tamper: bool,
    tr: &mut Tracer,
) -> io::Result<ServicePass> {
    let mut pass = ServicePass::default();
    mem::reset_peak_rss();
    let mut target = Target::start(path, scale)?;
    // Two snapshots with nothing between them measure what the snapshot's
    // own control requests add to `requests=`.
    let c0 = target.counters()?;
    let c1 = target.counters()?;
    let control = c1.requests - c0.requests;

    let mut cold_lat = Vec::with_capacity(order.len());
    let mut rids = Vec::with_capacity(order.len());
    let cpu0 = cpu::process_ns();
    for &k in order {
        let key = &inputs.keys[k];
        let rid = tr.request();
        let t_req = Instant::now();
        let got = tr.span("client.request", key, rid, |_| target.one(key))?;
        cold_lat.push(t_req.elapsed().as_nanos() as u64);
        rids.push(rid);
        gate(&mut pass, key, &got, &inputs.goldens[k]);
    }
    pass.cold_cpu_ns = cpu::process_ns() - cpu0;
    let c2 = target.counters()?;
    let cold = c2.minus(&c1);
    let n_cold = order.len() as u64;
    reconcile(&mut pass, "cold sweep", &cold, control, n_cold, n_cold);
    pass.cold = cold;

    let batch = if path == Path::V1 {
        HOT_BATCH_V1
    } else {
        HOT_BATCH
    };
    let mut i = hot_offset;
    let rid = tr.request();
    for _ in 0..windows {
        let (mut requests, mut ns, mut cpu_ns, mut lat_ns) = (0u64, 0u64, 0u64, Vec::new());
        let steal0 = cpu::steal_ticks();
        let deadline = Instant::now() + window;
        loop {
            let lines: Vec<&str> = (0..batch)
                .map(|j| inputs.keys[inputs.hot[(i + j) % inputs.hot.len()]].as_str())
                .collect();
            let (t, c) = (Instant::now(), cpu::process_ns());
            let mut got = tr.span("client.batch", "hot", rid, |_| {
                target.batch(&lines, &mut lat_ns)
            })?;
            ns += t.elapsed().as_nanos() as u64;
            cpu_ns += cpu::process_ns() - c;
            if tamper && pass.hot_requests + requests == 0 {
                got[0].push('!');
            }
            for (j, line) in got.iter().enumerate() {
                let k = inputs.hot[(i + j) % inputs.hot.len()];
                gate(&mut pass, &inputs.keys[k], line, &inputs.goldens[k]);
            }
            requests += lines.len() as u64;
            i += batch;
            if Instant::now() >= deadline {
                break;
            }
        }
        pass.hot_requests += requests;
        let steal = steal0
            .zip(cpu::steal_ticks())
            .map(|(a, b)| b.saturating_sub(a));
        pass.windows
            .push(HotWindow::new(requests, ns, cpu_ns, lat_ns, steal));
    }
    let c3 = target.counters()?;
    pass.peak_mb = mem::peak_rss_mb();
    let hot = c3.minus(&c2);
    let sent = pass.hot_requests;
    reconcile(&mut pass, "hot stream", &hot, control, sent, 0);
    pass.hot_delta = hot;
    target.stop();

    if tr.enabled() {
        replay_direct(&mut pass, scale, inputs, order, &cold_lat, &rids, tr);
    }
    Ok(pass)
}

/// Replay the cold sweep as direct calls (`Registry::graph`,
/// `ops::compute`, `ops::body`) on a fresh registry, one span each, under
/// the request ids of the client spans they explain.
fn replay_direct(
    pass: &mut ServicePass,
    scale: Scale,
    inputs: &ServiceInputs,
    order: &[usize],
    cold_lat: &[u64],
    rids: &[u64],
    tr: &mut Tracer,
) {
    let reg = Registry::new(scale);
    for ((&k, &lat), &rid) in order.iter().zip(cold_lat).zip(rids) {
        let key = &inputs.keys[k];
        let req = Request::parse(key).expect("benchmark keys parse");
        let Some((gref @ GraphRef::Suite(name), op)) = ops::request_op(&req) else {
            unreachable!("benchmark keys are suite compute requests");
        };
        let t = Instant::now();
        let body = tr.span("replay.request", key, rid, |tr| {
            let g = tr.span("graph.intern", key, rid, |_| reg.graph(gref));
            let g = g.expect("suite graphs build");
            let span = match op {
                ops::OpKey::Mis2 => "core.compute",
                ops::OpKey::Coarsen { .. } => "coarsen.compute",
                ops::OpKey::Solve { .. } => "solver.compute",
            };
            let art = tr.span(span, key, rid, |_| ops::compute(&g, &op));
            tr.span("svc.render", key, rid, |_| ops::body(name, &op, &art))
        });
        pass.overhead_ns += lat as i64 - t.elapsed().as_nanos() as i64;
        gate(pass, key, &format!("OK {body}"), &inputs.goldens[k]);
    }
}
