//! The workspace's one seeded PRNG (SplitMix64): corpus generation,
//! property tests, fault streams and temp-dir names all draw from it, so a
//! seed replays bit-identically everywhere. It lives here because this
//! crate is the dependency-free leaf that every consumer already reaches;
//! `docql-corpus` and `docql-prop` re-export it. SplitMix64 passes BigCrush
//! and is ample for synthetic data and fault injection; it is *not*
//! cryptographic.

/// Deterministic pseudo-random generator: same seed → same sequence.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

impl SeededRng {
    /// A generator seeded from a `u64` (mirrors `rand`'s `seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> SeededRng {
        SeededRng { state: seed }
    }

    /// The next 64 random bits (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[range.start, range.end)`. The range must be
    /// non-empty. (Modulo bias is negligible for the small ranges the
    /// generators use.)
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        debug_assert!(range.start < range.end, "gen_range: empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 high bits → uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_pin_the_stream() {
        // Seed 1234567 is the published SplitMix64 reference sequence; a
        // change here silently re-rolls every corpus and fault stream.
        for (seed, expected) in [
            (
                0,
                [
                    0xE220_A839_7B1D_CDAF,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                ],
            ),
            (
                1_234_567,
                [
                    6_457_827_717_110_365_317,
                    3_203_168_211_198_807_973,
                    9_817_491_932_198_370_423,
                ],
            ),
        ] {
            let mut r = SeededRng::seed_from_u64(seed);
            let got = [r.next_u64(), r.next_u64(), r.next_u64()];
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SeededRng::seed_from_u64(42);
        let mut b = SeededRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SeededRng::seed_from_u64(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SeededRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3..9);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SeededRng::seed_from_u64(7);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
        let mut r = SeededRng::seed_from_u64(7);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        let mut r = SeededRng::seed_from_u64(7);
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
