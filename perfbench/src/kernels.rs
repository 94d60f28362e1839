//! The paper's kernels called directly: MIS-2 (Table II), recursive
//! coarsening (Fig. 7) and SA-AMG setup and solve (Table V).
//!
//! [`kernel_pass`] is the timed unit; every call is timed with the
//! calling thread's CPU clock (the pool has one thread, so the calling
//! thread does all the work). With a recording tracer it also
//! replays `coarsen_recursive` and `AmgHierarchy::build` through their
//! public building blocks, so each layer gets its own spans, and checks
//! that every replay matches the one-call version. MIS-2 and coarsening
//! results are rendered with `ops::body`, so the gate can compare them
//! with the service's golden responses.

use crate::cpu;
use crate::trace::Tracer;
use mis2_coarsen::hierarchy::{coarsen_recursive, quotient_graph, Level};
use mis2_coarsen::{mis2_aggregation_with, smoothed_prolongator, tentative_prolongator};
use mis2_core::{mis2_with_config, verify_mis2, Mis2Config, Mis2Result};
use mis2_graph::CsrGraph;
use mis2_solver::{pcg, AmgConfig, AmgHierarchy, Preconditioner, SolveOpts};
use mis2_sparse::{galerkin_product, CsrMatrix};
use mis2_svc::ops::{self, Artifact, OpKey, COARSEN_MIN_VERTICES};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `coarsen_recursive(g, COARSEN_MIN_VERTICES, COARSEN_LEVELS)`, the
/// same call a `COARSEN g 4` request makes.
const COARSEN_LEVELS: usize = 4;
/// Table V: CG to a relative residual of 1e-12.
const PCG_TOL: f64 = 1e-12;
const PCG_MAX_ITERS: usize = 1000;

/// Inputs of the kernel pass, built at set-up.
pub struct KernelInputs {
    pub graphs: Vec<(&'static str, Arc<CsrGraph>)>,
    /// The Table V operator: `laplace3d_matrix(d, d, d)`.
    pub matrix: CsrMatrix,
}

/// How much one pass runs.
pub struct KernelPlan {
    /// One timed MIS-2 call per graph per seed (`Mis2Config::seed`).
    pub seeds: Vec<u64>,
    /// Timed coarsening calls per graph.
    pub coarsen_reps: usize,
    /// Timed AMG setups, each followed by a timed solve.
    pub amg_reps: usize,
}

/// What one pass measured, plus the outputs the gate compares.
#[derive(Default)]
pub struct KernelPass {
    /// `[graph][seed]`: one MIS-2 sample per seed of the plan.
    pub mis2_ns: Vec<Vec<u64>>,
    /// `[graph][rep]`.
    pub coarsen_ns: Vec<Vec<u64>>,
    pub amg_setup_ns: Vec<u64>,
    pub amg_solve_ns: Vec<u64>,
    /// `[graph][seed]`: rounds, size and fingerprint of each MIS-2.
    pub mis2: Vec<Vec<Mis2Outcome>>,
    /// `[graph]`: the coarsening hierarchy's shape and fingerprint.
    pub hierarchy: Vec<HierarchyOutcome>,
    pub pcg_iters: usize,
    pub operator_complexity: f64,
    /// Nonzeros of every Galerkin product of the traced AMG replay.
    pub rap_nnz: usize,
    /// Calls made and calls whose output failed a check.
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// A result's counts and the response body the service renders for it
/// (`ops::body`, which embeds an order-sensitive fingerprint).
#[derive(Clone, PartialEq, Debug)]
pub struct Mis2Outcome {
    pub rounds: usize,
    pub size: usize,
    pub body: String,
}

#[derive(Clone, PartialEq, Debug)]
pub struct HierarchyOutcome {
    pub levels: usize,
    pub coarsest_v: usize,
    pub body: String,
}

/// The body of a `MIS2 <name>` response for this result.
pub fn mis2_body(name: &str, r: Mis2Result) -> String {
    ops::body(name, &OpKey::Mis2, &Artifact::Mis2(r))
}

/// The body of a `COARSEN <name> 4` response for this hierarchy.
fn coarsen_body(name: &str, h: Vec<Level>) -> String {
    let op = OpKey::Coarsen {
        levels: COARSEN_LEVELS,
    };
    ops::body(name, &op, &Artifact::Hierarchy(h))
}

/// One pass over every kernel, as the plan sets out.
pub fn kernel_pass(inputs: &KernelInputs, plan: &KernelPlan, tr: &mut Tracer) -> KernelPass {
    let mut pass = KernelPass::default();
    for (name, g) in &inputs.graphs {
        let g: &CsrGraph = g;
        let (mut times, mut outcomes) = (Vec::new(), Vec::new());
        for &seed in &plan.seeds {
            let cfg = Mis2Config {
                seed,
                ..Mis2Config::default()
            };
            let rid = tr.request();
            let t = cpu::thread_ns();
            let r = tr.span("core.mis2", name, rid, |_| mis2_with_config(g, &cfg));
            times.push(cpu::thread_ns() - t);
            pass.attempted += 1;
            if let Err(e) = tr.span("core.verify", name, rid, |_| verify_mis2(g, &r.is_in)) {
                pass.failures
                    .push(format!("{name}: MIS-2 (seed {seed}) invalid: {e:?}"));
            }
            outcomes.push(Mis2Outcome {
                rounds: r.iterations,
                size: r.size(),
                body: mis2_body(name, r),
            });
        }
        pass.mis2_ns.push(times);
        pass.mis2.push(outcomes);

        let mut times = Vec::new();
        let mut first: Option<HierarchyOutcome> = None;
        for rep in 0..plan.coarsen_reps {
            let rid = tr.request();
            let t = cpu::thread_ns();
            let h = tr.span("call.coarsen_recursive", name, rid, |_| {
                coarsen_recursive(g, COARSEN_MIN_VERTICES, COARSEN_LEVELS)
            });
            times.push(cpu::thread_ns() - t);
            pass.attempted += 1;
            for (i, lvl) in h.iter().enumerate() {
                if let Some(agg) = &lvl.agg {
                    if let Err(e) = agg.validate(&lvl.graph) {
                        pass.failures
                            .push(format!("{name}: level {i} aggregation invalid: {e:?}"));
                    }
                }
            }
            let out = HierarchyOutcome {
                levels: h.len(),
                coarsest_v: h.last().map_or(0, |l| l.graph.num_vertices()),
                body: coarsen_body(name, h),
            };
            if tr.enabled() && rep == 0 {
                let replay = tr.span("replay.coarsen_recursive", name, rid, |tr| {
                    replay_coarsen(g, tr, name, rid)
                });
                if coarsen_body(name, replay) != out.body {
                    pass.failures.push(format!(
                        "{name}: coarsening replay differs from coarsen_recursive"
                    ));
                }
            }
            match &first {
                None => first = Some(out),
                Some(f) if *f != out => {
                    pass.failures
                        .push(format!("{name}: coarsening changed between repetitions"));
                }
                Some(_) => {}
            }
        }
        pass.coarsen_ns.push(times);
        pass.hierarchy.push(first.expect("at least one coarsening"));
    }

    for rep in 0..plan.amg_reps {
        amg_pass(inputs, rep, &mut pass, tr);
    }
    pass
}

/// One Table V setup and solve. The first repetition of a traced pass
/// also replays the setup and times every V-cycle.
fn amg_pass(inputs: &KernelInputs, rep: usize, pass: &mut KernelPass, tr: &mut Tracer) {
    let a = &inputs.matrix;
    let rid = tr.request();
    let t = cpu::thread_ns();
    let amg = tr.span("call.amg_build", "table5", rid, |_| {
        AmgHierarchy::build(a, &AmgConfig::default())
    });
    pass.amg_setup_ns.push(cpu::thread_ns() - t);
    pass.operator_complexity = amg.stats.operator_complexity;
    let traced = tr.enabled() && rep == 0;
    if traced {
        let (sizes, oc, rap_nnz) = tr.span("replay.amg_build", "table5", rid, |tr| {
            replay_amg_build(a, tr, rid)
        });
        pass.rap_nnz = rap_nnz;
        if sizes != amg.stats.level_sizes || oc != amg.stats.operator_complexity {
            pass.failures
                .push("table5: AMG setup replay differs from AmgHierarchy::build".into());
        }
    }

    let b = vec![1.0; a.nrows()];
    let opts = SolveOpts {
        tol: PCG_TOL,
        max_iters: PCG_MAX_ITERS,
    };
    let timed = TimedPrecond::new(&amg);
    let t = cpu::thread_ns();
    let res = tr.span("solver.pcg", "table5", rid, |tr| {
        let (_, res) = if traced {
            pcg(a, &b, &timed, &opts)
        } else {
            pcg(a, &b, &amg, &opts)
        };
        for (start, end) in timed.intervals() {
            tr.record_interval("solver.vcycle", "table5", rid, start, end);
        }
        res
    });
    pass.amg_solve_ns.push(cpu::thread_ns() - t);
    pass.attempted += 2;
    if rep > 0 && res.iterations != pass.pcg_iters {
        pass.failures.push(format!(
            "table5: PCG took {} iterations, an earlier solve {}",
            res.iterations, pass.pcg_iters
        ));
    }
    pass.pcg_iters = res.iterations;
    if !res.converged {
        pass.failures.push(format!(
            "table5: PCG did not reach {PCG_TOL:e} (rel {:e} after {} iterations)",
            res.relative_residual, res.iterations
        ));
    }
}

/// `coarsen_recursive` as its aggregation + quotient loop, one span per
/// call.
fn replay_coarsen(g: &CsrGraph, tr: &mut Tracer, name: &str, rid: u64) -> Vec<Level> {
    let cfg = Mis2Config::default();
    let mut levels = Vec::new();
    let mut cur = g.clone();
    while levels.len() + 1 < COARSEN_LEVELS && cur.num_vertices() > COARSEN_MIN_VERTICES {
        let agg = tr.span("coarsen.aggregate", name, rid, |_| {
            mis2_aggregation_with(&cur, &cfg)
        });
        if agg.num_aggregates >= cur.num_vertices() {
            break;
        }
        let coarse = tr.span("coarsen.quotient", name, rid, |_| {
            quotient_graph(&cur, &agg)
        });
        levels.push(Level {
            graph: cur,
            agg: Some(agg),
        });
        cur = coarse;
    }
    levels.push(Level {
        graph: cur,
        agg: None,
    });
    levels
}

/// `AmgHierarchy::build` with the default configuration, as its public
/// aggregation, prolongator, Galerkin and dense-LU calls. Returns the
/// level sizes and operator complexity for comparison with the stats of
/// the one-call build, and the summed nonzeros of the Galerkin products.
fn replay_amg_build(a: &CsrMatrix, tr: &mut Tracer, rid: u64) -> (Vec<usize>, f64, usize) {
    let cfg = AmgConfig::default();
    let mut sizes = vec![a.nrows()];
    let fine_nnz = a.nnz() as f64;
    let mut nnz_total = a.nnz() as f64;
    let mut cur = a.clone();
    let mut nlevels = 0usize;
    let mut rap_nnz = 0usize;
    while nlevels + 1 < cfg.max_levels && cur.nrows() > cfg.min_coarse_size {
        let g = tr.span("sparse.to_graph", "table5", rid, |_| cur.to_graph());
        let agg = tr.span("coarsen.aggregate", "table5", rid, |_| {
            cfg.scheme.aggregate(&g, cfg.seed ^ nlevels as u64)
        });
        if agg.num_aggregates >= cur.nrows() {
            break;
        }
        let p = tr.span("coarsen.prolongator", "table5", rid, |_| {
            smoothed_prolongator(&cur, &tentative_prolongator(&agg, true), Some(cfg.omega))
        });
        let coarse = tr.span("sparse.rap", "table5", rid, |_| galerkin_product(&cur, &p));
        sizes.push(coarse.nrows());
        nnz_total += coarse.nnz() as f64;
        rap_nnz += coarse.nnz();
        cur = coarse;
        nlevels += 1;
    }
    tr.span("solver.coarse_lu", "table5", rid, |_| {
        let _ = cur.to_dense().lu();
    });
    (sizes, nnz_total / fine_nnz.max(1.0), rap_nnz)
}

/// Forwards to the hierarchy and records each V-cycle's interval.
struct TimedPrecond<'a> {
    inner: &'a AmgHierarchy,
    cycles: Mutex<Vec<(Instant, Instant)>>,
}

impl<'a> TimedPrecond<'a> {
    fn new(inner: &'a AmgHierarchy) -> Self {
        TimedPrecond {
            inner,
            cycles: Mutex::new(Vec::new()),
        }
    }

    fn intervals(&self) -> Vec<(Instant, Instant)> {
        self.cycles
            .lock()
            .expect("V-cycle log poisoned by a panicking solve")
            .clone()
    }
}

impl Preconditioner for TimedPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let start = Instant::now();
        self.inner.apply(r, z);
        let end = Instant::now();
        self.cycles
            .lock()
            .expect("V-cycle log poisoned by a panicking solve")
            .push((start, end));
    }

    fn name(&self) -> &'static str {
        "timed SA-AMG V-cycle"
    }
}
