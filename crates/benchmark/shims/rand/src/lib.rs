//! Offline stand-in for `rand` 0.8: the traits and samplers this repository
//! calls, over a xoshiro256++ generator.
//!
//! The container has no crate registry, so the benchmark's build patches
//! `crates-io` with this crate. Streams are deterministic per seed but are
//! *not* the ChaCha12 streams of the published crate: absolute numbers that
//! depend on a particular draw differ, distributions do not.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    /// Seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded with splitmix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the [`distributions::Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// A value uniform in `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p = {p} is outside [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range a uniform value can be drawn from.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` below `n` (Lemire's multiply-and-reject).
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let threshold = n.wrapping_neg() % n;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(below(rng, span) as $wide) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(below(rng, span) as $wide) as $t
            }
        }
    )*};
}
int_ranges!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
            i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                loop {
                    let u: $t = rng.gen();
                    let v = self.start + (self.end - self.start) * u;
                    // Rounding can land on the excluded end point.
                    if v < self.end {
                        return v;
                    }
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let u: $t = rng.gen();
                lo + (hi - lo) * u
            }
        }
    )*};
}
float_ranges!(f32, f64);

/// Distributions: the [`Distribution`](distributions::Distribution) trait
/// and the [`Standard`](distributions::Standard) one.
pub mod distributions {
    use super::{Rng, RngCore};

    /// Something values of `T` can be drawn from.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (**self).sample(rng)
        }
    }

    /// Uniform over all values of an integer type, `[0, 1)` for floats, a
    /// fair coin for `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_ints {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    RngCore::next_u64(rng) as $t
                }
            }
        )*};
    }
    standard_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            RngCore::next_u64(rng) >> 63 == 1
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 random mantissa bits: uniform on the multiples of 2^-53.
            (RngCore::next_u64(rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (RngCore::next_u64(rng) >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }
}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard seedable generator (xoshiro256++ here).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(chunk);
                *word = u64::from_le_bytes(bytes);
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point of xoshiro.
                s = [0x9e37_79b9_7f4a_7c15, 1, 2, 3];
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// One uniformly chosen element, `None` for an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }

    /// Index sampling without replacement.
    pub mod index {
        use super::super::Rng;

        /// Distinct indices, in sampling order.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// The indices as a vector.
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }

            /// Number of indices.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether no index was drawn.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Iterates over the indices.
            pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.iter().copied()
            }
        }

        /// `amount` distinct indices uniform in `0..length`.
        ///
        /// # Panics
        /// Panics if `amount > length`.
        pub fn sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} of {length} indices"
            );
            if amount * 8 >= length {
                // Dense draw: partial Fisher–Yates over the full index set.
                let mut all: Vec<usize> = (0..length).collect();
                for i in 0..amount {
                    all.swap(i, rng.gen_range(i..length));
                }
                all.truncate(amount);
                IndexVec(all)
            } else {
                // Sparse draw (Floyd): each round adds exactly one new index.
                let mut picked: Vec<usize> = Vec::with_capacity(amount);
                for j in length - amount..length {
                    let t = rng.gen_range(0..=j);
                    let new = if picked.contains(&t) { j } else { t };
                    picked.push(new);
                }
                IndexVec(picked)
            }
        }
    }
}

/// The usual glob import.
pub mod prelude {
    pub use super::distributions::Distribution;
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((3..9).contains(&rng.gen_range(3usize..9)));
            assert!((-2..=2).contains(&rng.gen_range(-2i32..=2)));
            let f = rng.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_sample_is_distinct_in_both_regimes() {
        let mut rng = StdRng::seed_from_u64(2);
        for (length, amount) in [(10, 8), (1000, 8), (5, 5), (9, 0)] {
            let mut v = super::seq::index::sample(&mut rng, length, amount).into_vec();
            assert_eq!(v.len(), amount);
            assert!(v.iter().all(|&i| i < length));
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), amount);
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_works_through_dyn() {
        let mut rng = StdRng::seed_from_u64(3);
        let dynamic: &mut dyn RngCore = &mut rng;
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(dynamic);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
        assert!(dynamic.gen_bool(1.0));
    }
}
