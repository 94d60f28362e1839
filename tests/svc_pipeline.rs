//! End-to-end test of request pipelining and its window accounting:
//! concurrent `V3Client`s keep windows of 1 to 64 tagged requests in
//! flight, the server completes them out of order, the in-flight gauges
//! settle, and every payload must still be
//! **bitwise-identical** to a direct library call — under both backends
//! (CI runs this file with and without the `parallel` feature) and at
//! pool budgets {1, 8}.
//!
//! The "direct" side computes expected payloads through
//! `mis2_svc::ops::execute` on a private registry in this process — the
//! same single definition of request semantics the server uses, with no
//! server, scheduler, window, or socket in the loop. Exactly-one-response
//! -per-tag is enforced structurally by `request_many`: a missing tag
//! would hang it, an unknown or duplicate tag is an `InvalidData` error.

use mis2::svc::{client::V3Client, ops, proto::Request, Registry, ServerConfig};
use mis2_graph::Scale;

/// Six differently-shaped suite graphs (same set as the eviction-churn
/// e2e test).
fn graphs() -> [&'static str; 6] {
    [
        "ecology2",
        "parabolic_fem",
        "thermal2",
        "tmt_sym",
        "apache2",
        "StocF-1465",
    ]
}

/// The 64 requests every pipelined client sends: all three compute ops
/// cycled over the six graphs with varying parameters.
fn request_lines() -> Vec<String> {
    (0..64)
        .map(|i| {
            // Graph cycles fast, op cycles slow: all 6 x 4 = 24 distinct
            // (graph, op) artifacts appear within the first 24 requests.
            let g = graphs()[i % graphs().len()];
            match (i / graphs().len()) % 4 {
                0 => format!("MIS2 {g}"),
                1 => format!("COARSEN {g} 2"),
                2 => format!("SOLVE {g} cg"),
                _ => format!("COARSEN {g} 3"),
            }
        })
        .collect()
}

/// Expected response payloads via the direct library path.
fn direct_responses(lines: &[String]) -> Vec<String> {
    let reg = Registry::new(Scale::Tiny);
    lines
        .iter()
        .map(|line| ops::execute(&reg, &Request::parse(line).unwrap()))
        .collect()
}

#[test]
fn eight_pipelined_clients_are_bitwise_identical_to_direct_calls() {
    let lines = request_lines();
    let want = direct_responses(&lines);
    for w in &want {
        assert!(w.starts_with("OK "), "direct call failed: {w}");
    }
    for threads in [1usize, 8] {
        let handle = mis2::svc::serve(ServerConfig {
            threads,
            scale: Scale::Tiny,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr();
        std::thread::scope(|s| {
            for c in 0..8usize {
                let (lines, want) = (&lines, &want);
                s.spawn(move || {
                    // Windows 1, 2, 4, ... 64 across the eight clients, so
                    // every depth from degenerate to full-cap is exercised
                    // concurrently.
                    let window = 1usize << (c.min(6));
                    let mut client = V3Client::connect(addr, window)
                        .unwrap_or_else(|e| panic!("client {c} cannot connect: {e}"));
                    assert_eq!(client.window(), window);
                    let got = client
                        .request_many(lines)
                        .unwrap_or_else(|e| panic!("client {c} (window {window}): {e}"));
                    assert_eq!(got.len(), want.len());
                    for (i, (g, w)) in got.iter().zip(want).enumerate() {
                        assert_eq!(
                            g, w,
                            "client {c} (window {window}) at pool budget {threads}: \
                             pipelined response for {:?} differs from the direct \
                             library call",
                            lines[i]
                        );
                    }
                    client.quit().unwrap();
                });
            }
        });
        // Window accounting must settle: nothing in flight once every
        // client has disconnected, and the peak must show real pipelining
        // depth (clients with 64-deep windows sent 64 cold computes whose
        // first takes orders of magnitude longer than parsing the rest).
        let svc = handle.svc_stats();
        assert_eq!(
            svc.inflight.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "pool budget {threads}: in-flight gauge must drain to zero"
        );
        let peak = svc.peak_inflight.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            (4..=64).contains(&peak),
            "pool budget {threads}: peak window depth {peak} outside 4..=64"
        );
        // 8 clients x 64 requests over 24 distinct artifacts: the
        // registry must have deduplicated nearly everything, and
        // single-flight interning must have built each graph once.
        let stats = handle.registry().stats();
        assert_eq!(stats.graphs, 6, "pool budget {threads}");
        assert_eq!(stats.artifacts, 24, "pool budget {threads}");
        assert_eq!(
            stats.hits + stats.misses,
            8 * 64,
            "pool budget {threads}: every request must touch the artifact cache"
        );
        assert_eq!(stats.graph_builds, 6, "pool budget {threads}");
        handle.shutdown();
    }
}

#[test]
fn stats_exposes_window_counters_over_the_wire() {
    let handle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        max_inflight: 32,
        ..Default::default()
    })
    .unwrap();
    let mut client = V3Client::connect(handle.addr(), 32).unwrap();
    // Pipeline a window of compute requests, then read STATS afterwards:
    // the peak gauge must reflect the depth the reader actually accepted.
    let lines: Vec<String> = (0..32)
        .map(|i| format!("COARSEN {} 2", graphs()[i % graphs().len()]))
        .collect();
    let responses = client.request_many(&lines).unwrap();
    assert!(responses.iter().all(|r| r.starts_with("OK ")));
    let stats = client.request("STATS").unwrap();
    assert!(stats.contains("max_inflight=32"), "{stats}");
    assert!(
        stats.contains("inflight=0"),
        "idle between batches: {stats}"
    );
    let peak: u64 = stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix("peak_inflight="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no peak_inflight in {stats}"));
    assert!(
        (2..=32).contains(&peak),
        "32 pipelined cold computes must have stacked a real window: {stats}"
    );
    client.quit().unwrap();
    handle.shutdown();
}
