//! Seeded inputs: the twelve request keys, the cold-sweep order and the
//! Zipf-skewed hot stream. Everything here is a pure function of the seed.

use mis2_prim::hash::splitmix64;

/// The four graphs every workload runs on (a 3D mesh, a 2D honeycomb and
/// two power-law R-MAT graphs).
pub const GRAPHS: [&str; 4] = ["Laplace3D_100", "ecology2", "rmat_20", "rmat_18_skew"];

/// Zipf exponent of the hot stream. The mix is synthetic and chosen, not
/// fitted: no request log or published traffic mix for this service
/// exists to take it from. With 12 keys the hottest takes about a third
/// of the requests and about a fifth of the requests repeat the one
/// before them; traced runs report that share (`svc.stream_repeat_ratio`)
/// next to the memo hits it allows.
const ZIPF_S: f64 = 1.1;

/// The twelve request lines: {graphs} x {MIS2, COARSEN g 4, SOLVE g cg}.
pub fn keys() -> Vec<String> {
    GRAPHS
        .iter()
        .flat_map(|g| {
            [
                format!("MIS2 {g}"),
                format!("COARSEN {g} 4"),
                format!("SOLVE {g} cg"),
            ]
        })
        .collect()
}

/// A small deterministic generator (splitmix64 over a counter).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed ^ 0x6265_6e63_685f_7633))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Key indices of the cold sweep: every key once, in seeded order.
pub fn cold_order(seed: u64, nkeys: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nkeys).collect();
    Rng::new(seed ^ 0xC01D).shuffle(&mut order);
    order
}

/// Key indices of the hot stream: `len` draws from a Zipf distribution
/// over a seeded ranking of the keys.
pub fn hot_stream(seed: u64, nkeys: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x407);
    let mut rank: Vec<usize> = (0..nkeys).collect();
    rng.shuffle(&mut rank);
    let weights: Vec<f64> = (1..=nkeys).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(nkeys);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..len)
        .map(|_| {
            let u = rng.next_f64();
            let r = cdf.iter().position(|&c| u < c).unwrap_or(nkeys - 1);
            rank[r]
        })
        .collect()
}

/// Share of the `len` requests from `offset` (cycling through `stream`)
/// that repeat the request before them, the first one excepted: the
/// back-to-back repeats the v3 one-entry hot-key memo can answer.
pub fn repeat_share(stream: &[usize], offset: usize, len: usize) -> f64 {
    if len == 0 || stream.is_empty() {
        return 0.0;
    }
    let at = |i: usize| stream[(offset + i) % stream.len()];
    let repeats = (1..len).filter(|&i| at(i) == at(i - 1)).count();
    repeats as f64 / len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(cold_order(7, 12), cold_order(7, 12));
        assert_eq!(hot_stream(7, 12, 500), hot_stream(7, 12, 500));
        assert_ne!(hot_stream(7, 12, 500), hot_stream(8, 12, 500));
        let mut sorted = cold_order(3, 12);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn hot_stream_is_skewed_and_repeats_back_to_back() {
        let s = hot_stream(1, 12, 10_000);
        let mut counts = [0usize; 12];
        for &k in &s {
            counts[k] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 2_000, "hottest key drew only {max} of 10000");
        let repeats = s.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 1_000, "{repeats} back-to-back repeats");
        assert_eq!(repeat_share(&s, 0, s.len()), repeats as f64 / 1e4);
        assert_eq!(repeat_share(&[3, 3, 5], 1, 4), 0.25);
    }
}
