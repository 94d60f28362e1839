//! Bitwise goldens for the R-MAT workload graphs.
//!
//! `rmat_20` and `rmat_18_skew` come from `gen::rmat`, a sampler whose
//! inner loop is performance-tuned. These fingerprints pin its output
//! (the full CSR structure, not only summary statistics) at two scales, so
//! any rewrite of the sampler or of `CsrGraph::from_edges` that changes a
//! single bit fails here. The values are identical on both feature
//! backends; CI runs this file under both.

use mis2::graph::suite;
use mis2::prelude::*;
use mis2_prim::hash::splitmix64;

/// Order-sensitive 64-bit fingerprint of a u32 sequence (the same mix as
/// `tests/cross_backend.rs`).
fn fingerprint(data: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in data {
        h = splitmix64(h ^ x as u64);
    }
    h
}

/// Fingerprint of the CSR structure: `row_ptr` (as `u32`) then `col_idx`.
fn graph_fingerprint(g: &CsrGraph) -> u64 {
    fingerprint(
        g.row_ptr()
            .iter()
            .map(|&p| p as u32)
            .chain(g.col_idx().iter().copied()),
    )
}

/// (workload, scale, vertices, directed edges, fingerprint).
#[rustfmt::skip]
const GOLDENS: [(&str, Scale, usize, usize, u64); 4] = [
    ("rmat_20", Scale::Tiny, 16_384, 426_294, 0xfe5d_54f3_656d_ddd6),
    ("rmat_20", Scale::Small, 131_072, 3_728_486, 0xcd86_2a27_fc33_52f3),
    ("rmat_18_skew", Scale::Tiny, 4_096, 74_284, 0xf761_b7db_8914_d68b),
    ("rmat_18_skew", Scale::Small, 32_768, 693_580, 0x142b_a59a_0e9e_775b),
];

#[test]
fn rmat_workloads_reproduce_golden_structure() {
    for (name, scale, n, nnz, golden) in GOLDENS {
        let g = suite::build(name, scale);
        assert_eq!(g.num_vertices(), n, "{name} {scale:?}: vertex count");
        assert_eq!(g.col_idx().len(), nnz, "{name} {scale:?}: directed edges");
        let fp = graph_fingerprint(&g);
        assert_eq!(
            fp, golden,
            "{name} {scale:?}: structure fingerprint {fp:#018x} != {golden:#018x}"
        );
    }
}
