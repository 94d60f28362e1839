//! One benchmark for the MIS-2 library and service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lib_paper --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Every workload runs the same closed-loop passes — the paper's kernels
//! called directly, and a cold sweep and a hot stream of the twelve
//! request keys — and differs in the path the requests take: the direct
//! library call (`lib_paper`), one server over v3 (`svc_hot`) or one
//! server over v1 (`svc_cold`). `--trace 0` prints the end-to-end
//! metrics and ends within about `--seconds` of its start; `--trace 1`
//! runs untraced and traced passes and prints the per-layer metrics
//! (`svc_hot`'s also sends its hot stream through two shards behind the
//! router). The last line of standard output is one JSON object; the exit
//! code is nonzero when any output check failed.

mod cpu;
mod kernels;
mod mem;
mod report;
mod service;
mod stream;
mod trace;

use kernels::{kernel_pass, mis2_body, KernelInputs, KernelPass, KernelPlan};
use mis2_graph::{suite, Scale};
use mis2_svc::{GraphRef, Registry};
use report::{median, Report};
use service::{direct_line, service_pass, HotWindow, Path, ServiceInputs, ServicePass};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Hot-stream length generated at set-up; passes cycle through it.
const HOT_STREAM_LEN: usize = 1 << 16;
/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// MIS-2 seeds per run: `--seed n` runs `Mis2Config::seed` = n*K .. n*K+K-1,
/// one call per graph and seed in every pass. The seed moves the R-MAT
/// round count a lot, so averaging over K seeds keeps `mis2_ms` from
/// tracking the one seed a run was given.
const MIS2_SEEDS: u64 = 10;
/// Timed coarsening calls per graph in each timed pass.
const COARSEN_REPS: usize = 2;
/// Timed AMG setups and solves in each timed pass.
const AMG_REPS: usize = 2;
/// Hot-stream windows per pass; each gives one throughput and latency
/// sample.
const HOT_WINDOWS: usize = 6;
/// Length of one hot-stream window, and at tiny scale (the self-test's
/// one-pass runs).
const HOT_WINDOW_S: f64 = 0.25;
const HOT_WINDOW_TINY_S: f64 = 0.02;
/// Steal (in clock ticks, summed over vCPUs) a hot window may see and
/// still count as unpreempted.
const CLEAN_STEAL_TICKS: u64 = 1;

const WORKLOADS: [(&str, Path); 3] = [
    ("lib_paper", Path::Direct),
    ("svc_hot", Path::V3),
    ("svc_cold", Path::V1),
];

struct Args {
    workload: &'static str,
    path: Path,
    seed: u64,
    /// `--seconds` after the arguments were read: the end of a timed run.
    deadline: Instant,
    trace: bool,
    scale: Scale,
    tamper: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scale tiny|small] [--tamper]",
        WORKLOADS.map(|(w, _)| w).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: "",
        path: Path::Direct,
        seed: 0,
        deadline: Instant::now(),
        trace: false,
        scale: Scale::Small,
        tamper: false,
    };
    let mut seconds = 35.0;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--tamper" {
            a.tamper = true;
            continue;
        }
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let (w, p) = WORKLOADS
                    .iter()
                    .find(|(w, _)| w == val)
                    .unwrap_or_else(|| usage(&format!("unknown workload {val}")));
                a.workload = w;
                a.path = *p;
            }
            "--seed" => {
                a.seed = val
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seed: not a u64: {val}")))
            }
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .unwrap_or_else(|| usage(&format!("--seconds: not a number: {val}")))
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--scale" => {
                a.scale = match val.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    _ => usage("--scale takes tiny or small"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        usage("--workload is required");
    }
    a.deadline += Duration::from_secs_f64(seconds);
    a
}

/// Everything a pass needs, built at set-up from the seed.
struct Setup {
    kernels: KernelInputs,
    service: ServiceInputs,
}

/// Golden response lines on a direct registry, the graphs it built (the
/// kernels reuse them), the Table V matrix and the seeded streams.
fn setup(scale: Scale, seed: u64) -> Setup {
    let keys = stream::keys();
    let reg = Registry::new(scale);
    let goldens: Vec<String> = keys.iter().map(|k| direct_line(&reg, k)).collect();
    let graphs = stream::GRAPHS
        .iter()
        .map(|&name| {
            let g = reg
                .graph(&GraphRef::Suite(name.to_string()))
                .expect("suite graphs build");
            (name, g)
        })
        .collect();
    let d = scale.dim3(100);
    let matrix = mis2_sparse::gen::laplace3d_matrix(d, d, d);
    Setup {
        kernels: KernelInputs { graphs, matrix },
        service: ServiceInputs {
            cold_order: stream::cold_order(seed, keys.len()),
            hot: stream::hot_stream(seed, keys.len(), HOT_STREAM_LEN),
            keys,
            goldens,
        },
    }
}

/// Checks that hold across passes and against the goldens: MIS-2 and
/// coarsening outputs and PCG iterations repeat exactly, every hierarchy
/// renders the served `COARSEN` golden, and the seed-0 MIS-2 the served
/// `MIS2` golden.
struct Gate {
    first: Option<KernelPass>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            first: None,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note());
        }
    }

    fn kernels(&mut self, pass: KernelPass, service: &ServiceInputs, plan: &KernelPlan) {
        self.attempted += pass.attempted;
        for f in &pass.failures {
            self.fail(f.clone());
        }
        let golden = |key: String| {
            let k = service.keys.iter().position(|x| *x == key);
            service.goldens[k.expect("every graph has MIS2 and COARSEN keys")].as_str()
        };
        for (name, h) in stream::GRAPHS.iter().zip(&pass.hierarchy) {
            let want = golden(format!("COARSEN {name} 4"));
            self.check(want.strip_prefix("OK ") == Some(h.body.as_str()), || {
                format!(
                    "{name}: coarsen_recursive renders {} but the service {want}",
                    h.body
                )
            });
        }
        if let Some(j) = plan.seeds.iter().position(|&seed| seed == 0) {
            for (name, outs) in stream::GRAPHS.iter().zip(&pass.mis2) {
                let want = golden(format!("MIS2 {name}"));
                let got = &outs[j].body;
                self.check(want.strip_prefix("OK ") == Some(got.as_str()), || {
                    format!("{name}: seed-0 MIS-2 renders {got} but the service {want}")
                });
            }
        }
        match &self.first {
            None => self.first = Some(pass),
            Some(first) => {
                let same = first.mis2 == pass.mis2
                    && first.hierarchy == pass.hierarchy
                    && first.pcg_iters == pass.pcg_iters;
                self.check(same, || "kernel outputs changed between passes".into());
            }
        }
    }

    fn service(&mut self, pass: &ServicePass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.notes.extend(pass.notes.iter().cloned());
    }
}

/// The paper's hash stream (seed 0) must reproduce the repository's
/// golden MIS-2 fingerprint on its pinned 12^3 Laplacian.
fn check_seed0_golden(gate: &mut Gate) {
    const LAPLACE3D_12_MIS2_FP: u64 = 0xbf72e302a7d8b8ad;
    let g = mis2_graph::gen::laplace3d(12, 12, 12);
    let r = mis2_core::mis2_with_config(&g, &mis2_core::Mis2Config::default());
    let body = mis2_body("laplace3d_12", r);
    gate.check(
        body.ends_with(&format!("fp={LAPLACE3D_12_MIS2_FP:#018x}")),
        || format!("seed-0 MIS-2 on laplace3d(12) renders {body}"),
    );
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit the benchmark was built from, read from the `.git`
/// directory next to the benchmark if there is one.
fn git_rev() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Report {
    let mut report = Report::new();
    report.stamp(&[
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("git_rev", git_rev()),
        (
            "host_cpus",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "backend",
            if cfg!(feature = "parallel") {
                "parallel"
            } else {
                "serial"
            }
            .into(),
        ),
        ("pool_threads", "1".into()),
        ("server_threads", "1".into()),
        ("scale", format!("{:?}", args.scale).to_lowercase()),
        ("trace", (args.trace as u8).to_string()),
    ]);
    let mut gate = Gate::new();
    check_seed0_golden(&mut gate);
    if args.trace {
        traced_run(args, &mut report, &mut gate);
    } else {
        timed_run(args, &mut report, &mut gate);
    }
    report.finish(gate.attempted, gate.failed, &gate.notes);
    report
}

fn kernel_plan(args: &Args, traced: bool) -> KernelPlan {
    KernelPlan {
        seeds: (0..MIS2_SEEDS)
            .map(|j| args.seed.wrapping_mul(MIS2_SEEDS).wrapping_add(j))
            .collect(),
        coarsen_reps: if traced { 1 } else { COARSEN_REPS },
        amg_reps: if traced { 1 } else { AMG_REPS },
    }
}

fn hot_window(scale: Scale) -> Duration {
    Duration::from_secs_f64(match scale {
        Scale::Tiny => HOT_WINDOW_TINY_S,
        _ => HOT_WINDOW_S,
    })
}

/// The hot windows the hypervisor did not preempt: those with at most
/// `CLEAN_STEAL_TICKS` of steal, or, if fewer than half the windows are
/// that clean, the half with the least steal. A preempted vCPU stalls a
/// 64-deep window for milliseconds, which sets that window's p99.
fn unpreempted(windows: &[HotWindow]) -> Vec<&HotWindow> {
    let mut by_steal: Vec<&HotWindow> = windows.iter().collect();
    by_steal.sort_by_key(|w| w.steal_ticks.unwrap_or(0));
    let clean = by_steal
        .iter()
        .take_while(|w| w.steal_ticks.unwrap_or(0) <= CLEAN_STEAL_TICKS)
        .count();
    by_steal.truncate(clean.max(windows.len().div_ceil(2)));
    by_steal
}

/// Share of the vCPUs' time the hypervisor took during the windows, in
/// percent (`/proc/stat` counts steal in 1/100 s ticks summed over vCPUs).
fn steal_pct(windows: &[HotWindow]) -> f64 {
    let ticks: u64 = windows.iter().filter_map(|w| w.steal_ticks).sum();
    let wall_s: f64 = windows.iter().map(|w| w.ns as f64 / 1e9).sum();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    ticks as f64 / (wall_s * 100.0 * cpus).max(1e-9) * 100.0
}

/// `--trace 0`: set up `SETUP_REPS` times, then alternate kernel and
/// service passes while the next one, as long as the longest of its kind
/// so far, would end by the deadline (one of each always runs). Reports
/// medians: per graph over every MIS-2 and coarsening call (summed over
/// the graphs), over calls for AMG, over passes for the cold sweep, and
/// over hot windows for the hot stream. The peak resident set is taken
/// per pass; `lib_paper` reports the kernel passes' highest, the service
/// workloads the first service pass's.
fn timed_run(args: &Args, report: &mut Report, gate: &mut Gate) {
    let mut setup_s = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        let t = cpu::thread_ns();
        let next = setup(args.scale, args.seed);
        setup_s.push(secs(cpu::thread_ns() - t));
        match &s {
            None => s = Some(next),
            Some(first) => gate.check(first.service.goldens == next.service.goldens, || {
                "golden responses differ between set-ups".into()
            }),
        }
    }
    let Setup { kernels, service } = s.expect("at least one set-up");

    let mut tr = Tracer::new(false);
    let plan = kernel_plan(args, false);
    let ngraphs = kernels.graphs.len();
    // mis2[graph][seed] and coarsen[graph]: samples across passes.
    let mut mis2 = vec![vec![Vec::new(); plan.seeds.len()]; ngraphs];
    let mut coarsen = vec![Vec::new(); ngraphs];
    let (mut amg_setup, mut amg_solve, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    let (mut kernel_peaks, mut peaks) = (Vec::new(), Vec::new());
    let mut windows = Vec::new();
    // The first service pass sweeps the keys in their listed order, the
    // others in the seeded order. The first pass's peak is the gated one:
    // the same twelve requests peaked anywhere from 125 to 156 MB
    // depending on their order alone.
    let listed: Vec<usize> = (0..service.keys.len()).collect();
    let mut offset = 0;
    let mut phase_peaks = true;
    // Kernel passes (on the main thread alone) and service passes
    // alternate, so a stretch of contention from the host's other tenants
    // lands on both kinds of pass instead of on one phase.
    let mut longest = [Duration::ZERO; 2];
    for n in 0.. {
        let kind = n % 2;
        if n >= 2 && Instant::now() + longest[kind] > args.deadline {
            break;
        }
        let t = Instant::now();
        if kind == 0 {
            phase_peaks &= mem::reset_peak_rss();
            let k = kernel_pass(&kernels, &plan, &mut tr);
            kernel_peaks.push(mem::peak_rss_mb());
            for g in 0..ngraphs {
                for (samples, &ns) in mis2[g].iter_mut().zip(&k.mis2_ns[g]) {
                    samples.push(ns as f64 / 1e6);
                }
                coarsen[g].extend(k.coarsen_ns[g].iter().map(|&ns| ns as f64 / 1e6));
            }
            amg_setup.extend(k.amg_setup_ns.iter().map(|&ns| ns as f64 / 1e6));
            amg_solve.extend(k.amg_solve_ns.iter().map(|&ns| ns as f64 / 1e6));
            gate.kernels(k, &service, &plan);
        } else {
            let order = if peaks.is_empty() {
                &listed
            } else {
                &service.cold_order
            };
            match service_pass(
                args.path,
                args.scale,
                &service,
                order,
                offset,
                HOT_WINDOWS,
                hot_window(args.scale),
                args.tamper,
                &mut tr,
            ) {
                Ok(p) => {
                    offset += p.hot_requests as usize;
                    cold.push(secs(p.cold_cpu_ns));
                    peaks.push(p.peak_mb);
                    gate.service(&p);
                    windows.extend(p.windows);
                }
                Err(e) => {
                    gate.check(false, || format!("service pass failed: {e}"));
                    break;
                }
            }
        }
        longest[kind] = longest[kind].max(t.elapsed());
    }
    let kernel_peak_mb = kernel_peaks.iter().copied().fold(0.0, f64::max);
    let (kernel_passes, service_passes) = (kernel_peaks.len(), peaks.len());

    let hot_samples: u64 = windows.iter().map(|w| w.requests).sum();
    let clean = unpreempted(&windows);
    report.note(&format!(
        "wall clock, not gated (medians over the least-preempted windows): hot_req_per_s={:.1} \
         hot_p50_us={:.3} hot_p99_us={:.3} host_steal_pct={:.1}",
        median(clean.iter().map(|w| w.req_per_s())),
        median(clean.iter().map(|w| w.p50_us)),
        median(clean.iter().map(|w| w.p99_us)),
        steal_pct(&windows),
    ));
    report.note(&format!(
        "kernel_passes={kernel_passes} service_passes={service_passes} samples: mis2={} per graph \
         and seed over {} seeds, coarsen={} per graph, amg={} cold_sweeps={} hot_windows={} of \
         {}s ({} used, steal ticks per window {:?}), hot_requests={hot_samples} (p99 per window \
         over >= {} requests)",
        kernel_passes,
        plan.seeds.len(),
        kernel_passes * COARSEN_REPS,
        amg_setup.len(),
        cold.len(),
        windows.len(),
        hot_window(args.scale).as_secs_f64(),
        clean.len(),
        windows
            .iter()
            .map(|w| w.steal_ticks.unwrap_or(0))
            .collect::<Vec<_>>(),
        windows.iter().map(|w| w.requests).min().unwrap_or(0),
    ));
    report.note(&format!(
        "peak resident set in MB{}: kernel passes {kernel_peaks:.1?}, service passes {peaks:.1?} \
         (the first in the listed order, the others in the seeded order)",
        if phase_peaks {
            ""
        } else {
            " (VmHWM could not be reset: each is the process's peak so far)"
        }
    ));
    report.metric("setup_s", median(setup_s), "s");
    // lib_paper is about the kernels, the service workloads about the
    // server (the first service pass: see `listed`).
    let peak_mb = match args.path {
        Path::Direct => kernel_peak_mb,
        _ => peaks.first().copied().unwrap_or(0.0),
    };
    report.metric("peak_rss_mb", peak_mb, "MB");
    // Per seed: the graphs' medians summed; then the mean over seeds.
    let per_seed: Vec<f64> = (0..plan.seeds.len())
        .map(|j| mis2.iter().map(|g| median(g[j].iter().copied())).sum())
        .collect();
    report.metric(
        "mis2_ms",
        per_seed.iter().sum::<f64>() / per_seed.len() as f64,
        "ms",
    );
    report.metric("coarsen_ms", coarsen.into_iter().map(median).sum(), "ms");
    report.metric("amg_setup_ms", median(amg_setup), "ms");
    report.metric("amg_solve_ms", median(amg_solve), "ms");
    report.metric("cold_pass_s", median(cold), "s");
    report.metric(
        "hot_cpu_us_per_req",
        median(windows.iter().map(|w| w.cpu_us_per_req())),
        "us",
    );
}

/// `--trace 1`: an untraced pass, the same pass traced (with the replays
/// that split each call into its layers), and another untraced pass.
/// Prints the per-layer metrics and the tracing overhead; writes the
/// spans as JSON lines.
fn traced_run(args: &Args, report: &mut Report, gate: &mut Gate) {
    let mut tr = Tracer::new(true);
    let s = setup(args.scale, args.seed);
    for &name in &stream::GRAPHS {
        let rid = tr.request();
        tr.span("graph.build", name, rid, |_| suite::build(name, args.scale));
    }

    // Untraced, traced, untraced: the traced pass is compared with the
    // mean of its two neighbours, so first-pass effects do not read as
    // tracing overhead.
    let plan = kernel_plan(args, true);
    let mut off = Tracer::new(false);
    let mut untraced_ns = 0;
    let mut passes = Vec::new();
    for traced in [false, true, false] {
        let t = Instant::now();
        let tr = if traced { &mut tr } else { &mut off };
        let k = kernel_pass(&s.kernels, &plan, tr);
        let p = service_pass(
            args.path,
            args.scale,
            &s.service,
            &s.service.cold_order,
            0,
            HOT_WINDOWS,
            hot_window(args.scale),
            args.tamper,
            tr,
        );
        if !traced {
            untraced_ns += t.elapsed().as_nanos() as u64 / 2;
        }
        passes.push((k, p, t.elapsed().as_nanos() as u64));
    }
    let replay_ns: u64 = tr
        .spans()
        .iter()
        .filter(|sp| sp.name.starts_with("replay.") && sp.parent.is_none())
        .map(|sp| sp.dur_ns())
        .sum();
    let mut k = None;
    let mut p = None;
    let mut traced_ns = 0;
    let mut untraced_windows = Vec::new();
    for (i, (kp, sp, ns)) in passes.into_iter().enumerate() {
        let sp = match sp {
            Ok(sp) => sp,
            Err(e) => {
                gate.check(false, || format!("service pass failed: {e}"));
                return;
            }
        };
        gate.service(&sp);
        if i == 1 {
            k = Some(kp);
            p = Some(sp);
            traced_ns = ns;
        } else {
            gate.kernels(kp, &s.service, &plan);
            untraced_windows.extend(sp.windows);
        }
    }
    let (k, p) = (k.expect("three passes ran"), p.expect("three passes ran"));
    let overhead_pct =
        (traced_ns.saturating_sub(replay_ns) as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0;

    let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        gate.check(false, || {
            format!("writing spans to {}: {e}", path.display())
        });
    }
    report.note(&format!(
        "spans={} written to {}",
        tr.spans().len(),
        path.display()
    ));
    report.note(&format!(
        "untraced_pass_s={:.4} traced_pass_s={:.4} replay_s={:.4} hot_requests={}",
        secs(untraced_ns),
        secs(traced_ns),
        secs(replay_ns),
        p.hot_requests
    ));

    let ms = |ns: u64| ns as f64 / 1e6;
    report.metric("graph.build_ms", ms(tr.total_ns("graph.build")), "ms");
    for &name in &stream::GRAPHS {
        report.metric(
            &format!("graph.build_ms.{name}"),
            ms(tr.subject_ns("graph.build", name)),
            "ms",
        );
    }
    // MIS-2 ran once per graph for each of the plan's seeds: per-graph
    // times are means over the seeds, counts are totals.
    let mis2_ns = tr.total_ns("core.mis2");
    let nseeds = plan.seeds.len() as f64;
    for &name in &stream::GRAPHS {
        let ns = tr.subject_ns("core.mis2", name);
        report.metric(&format!("core.mis2_ms.{name}"), ms(ns) / nseeds, "ms");
    }
    let rounds: usize = k.mis2.iter().flatten().map(|o| o.rounds).sum();
    report.metric("core.rounds", rounds as f64, "count");
    report.metric(
        "core.ns_per_round",
        mis2_ns as f64 / rounds.max(1) as f64,
        "ns",
    );
    report.metric(
        "core.mis2_size",
        k.mis2.iter().flatten().map(|o| o.size).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "core.verify_ms",
        ms(tr.total_ns("core.verify")) / nseeds,
        "ms",
    );
    report.metric(
        "coarsen.aggregate_ms",
        ms(tr.total_ns("coarsen.aggregate")),
        "ms",
    );
    report.metric(
        "coarsen.quotient_ms",
        ms(tr.total_ns("coarsen.quotient")),
        "ms",
    );
    report.metric(
        "coarsen.levels",
        k.hierarchy.iter().map(|o| o.levels).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "coarsen.coarsest_v",
        k.hierarchy.iter().map(|o| o.coarsest_v).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "coarsen.prolongator_ms",
        ms(tr.total_ns("coarsen.prolongator")),
        "ms",
    );
    report.metric("sparse.rap_ms", ms(tr.total_ns("sparse.rap")), "ms");
    report.metric("sparse.rap_nnz", k.rap_nnz as f64, "count");
    report.metric(
        "solver.coarse_lu_ms",
        ms(tr.total_ns("solver.coarse_lu")),
        "ms",
    );
    report.metric("solver.pcg_iters", k.pcg_iters as f64, "count");
    let cycles = tr
        .spans()
        .iter()
        .filter(|sp| sp.name == "solver.vcycle")
        .count();
    report.metric(
        "solver.vcycle_ms",
        ms(tr.total_ns("solver.vcycle")) / cycles.max(1) as f64,
        "ms",
    );
    report.metric("solver.operator_complexity", k.operator_complexity, "ratio");
    report.metric(
        "prim.spawned_workers",
        mis2_prim::pool::spawned_workers() as f64,
        "count",
    );
    report.metric(
        "prim.contended_regions",
        mis2_prim::pool::contended_regions() as f64,
        "count",
    );
    gate.kernels(k, &s.service, &plan);

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let h = &p.hot_delta;
    report.metric(
        "svc.resp_hit_ratio",
        ratio(h.resp_hits, h.hits + h.misses),
        "ratio",
    );
    report.metric(
        "svc.memo_hit_ratio",
        ratio(h.memo_hits, p.hot_requests),
        "ratio",
    );
    report.metric(
        "svc.stream_repeat_ratio",
        stream::repeat_share(&s.service.hot, 0, p.hot_requests as usize),
        "ratio",
    );
    report.metric(
        "svc.resp_per_writev",
        ratio(p.hot_requests, h.writev_batches),
        "ratio",
    );
    report.metric(
        "svc.bytes_tx_per_resp",
        ratio(h.bytes_tx, p.hot_requests),
        "B",
    );
    report.metric("svc.queue_wait_ms", p.cold.queue_wait_us as f64 / 1e3, "ms");
    report.metric("svc.run_ms", p.cold.run_us as f64 / 1e3, "ms");
    report.metric("svc.graph_builds", p.cold.graph_builds as f64, "count");
    report.metric("svc.registry_mb", p.cold.bytes as f64 / 1e6, "MB");
    report.metric("svc.seeded_peak_mb", p.peak_mb, "MB");
    report.metric(
        "svc.render_us",
        tr.total_ns("svc.render") as f64 / 1e3,
        "us",
    );
    report.metric("svc.overhead_ms", p.overhead_ns as f64 / 1e6, "ms");
    // The router hop is measured on svc_hot's traced run only: through
    // the router the hot stream's throughput and p99 moved by 2-4x from
    // run to run, too much for a gated end-to-end workload.
    let routed = match args.path {
        Path::V3 => {
            match service_pass(
                Path::Routed,
                args.scale,
                &s.service,
                &s.service.cold_order,
                0,
                HOT_WINDOWS,
                hot_window(args.scale),
                false,
                &mut off,
            ) {
                Ok(rp) => {
                    gate.service(&rp);
                    Some(rp)
                }
                Err(e) => {
                    gate.check(false, || format!("routed pass failed: {e}"));
                    None
                }
            }
        }
        _ => None,
    };
    let (router_rps, router_per_writev, shard_share) = routed.map_or((0.0, 0.0, 0.0), |rp| {
        let d = &rp.hot_delta;
        let busiest = d.shard_requests.iter().copied().max().unwrap_or(0);
        (
            median(unpreempted(&rp.windows).iter().map(|w| w.req_per_s())),
            ratio(rp.hot_requests, d.router_writev),
            ratio(busiest, d.shard_requests.iter().sum()),
        )
    });
    report.metric("svc.router_req_per_s", router_rps, "1/s");
    report.metric("svc.router_resp_per_writev", router_per_writev, "ratio");
    report.metric("svc.shard_share", shard_share, "ratio");

    // The hot stream on the wall clock, from the untraced passes: on a
    // shared host the hypervisor's preemption sets these, so they are
    // reported per layer rather than gated.
    let clean = unpreempted(&untraced_windows);
    report.metric(
        "hot_req_per_s",
        median(clean.iter().map(|w| w.req_per_s())),
        "1/s",
    );
    report.metric("hot_p50_us", median(clean.iter().map(|w| w.p50_us)), "us");
    report.metric("hot_p99_us", median(clean.iter().map(|w| w.p99_us)), "us");
    report.metric("host.steal_pct", steal_pct(&untraced_windows), "%");

    let by_layer = tr.self_ns_by_layer();
    for layer in [
        "graph", "core", "coarsen", "sparse", "solver", "svc", "client",
    ] {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        report.metric(&format!("{layer}.self_ms"), ms(ns), "ms");
    }
    report.metric("trace.spans", tr.spans().len() as f64, "count");
    report.metric("trace.overhead_pct", overhead_pct, "%");
    report.metric("fail_ratio", ratio(gate.failed, gate.attempted), "ratio");
}

fn main() {
    let args = parse_args();
    // Timed compute runs on a pool of one thread; the servers are
    // configured with one thread each.
    let report = mis2_prim::pool::with_pool(1, || run(&args));
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
