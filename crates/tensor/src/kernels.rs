//! The kernel layer: blocked, SIMD-dispatched compute kernels with a
//! *canonical accumulation order*.
//!
//! Every kernel in this module is paired with a scalar reference
//! implementation (`*_reference`) that spells out the canonical order in
//! the simplest possible loop. The optimized kernels tile loops for cache
//! locality and instruction-level parallelism but are required to produce
//! **bit-identical** results to their reference — property tests in
//! `tests/properties.rs` enforce this, and the engine's sim goldens depend
//! on it (a trajectory re-bless is a correctness event, not a perf event).
//!
//! # Canonical accumulation order
//!
//! For every output element, partial products are accumulated into a
//! single `f32` accumulator in strictly increasing order of the shared
//! (contraction) index. Blocked kernels may tile the independent output
//! dimensions freely — distinct elements never share an accumulator — and
//! may tile the contraction dimension only into *contiguous, in-order*
//! panels whose partial sums resume from the stored value (storing and
//! reloading an `f32` is exact, so resuming does not change the value).
//! What is **not** allowed: multi-accumulator splits of one element's
//! contraction (lane sums reassociate the reduction), `mul_add` (fuses
//! the rounding step), and data-dependent skips (an `x != 0.0` test
//! changes NaN/±0.0 propagation and puts an unpredictable branch in the
//! hottest loop — the zero-skip the old scalar GEMM carried).
//!
//! The weighted-sum kernel accumulates models in slice order; the GEMM
//! kernels accumulate over `p = 0..k` per output element. These match the
//! orders of the pre-kernel-layer scalar code on finite inputs, which is
//! why the sim trajectories survived the refactor without re-blessing.
//!
//! # SIMD dispatch
//!
//! The optimized bodies are instantiated three times by
//! `define_kernel_impls!`: once at the build's baseline feature set and
//! once each under `#[target_feature(enable = "avx2")]` and
//! `#[target_feature(enable = "avx512f")]`, with the widest supported
//! level selected at runtime via `is_x86_feature_detected!`. Wider
//! vectors only widen the *element-lane* loops (distinct output elements
//! per lane), never a single element's contraction, so all instantiations
//! are bit-identical — and the property tests exercise exactly that claim
//! on SIMD hosts, where the optimized path runs vectorized code against
//! the baseline-compiled reference.
//! FMA is deliberately **not** enabled: fused multiply-add skips the
//! intermediate rounding and would change results.
//!
//! # Blocking, tiles and layouts
//!
//! All three GEMM layouts run one micro-kernel (`contract_tile!`) under one
//! panel driver (`RowLanes`): a register tile of `R` rows × `W` lanes of `C`
//! stays live across a whole contraction panel, its lanes fed from a row of
//! the lane operand and each row scaled by a broadcast element of the other
//! operand. [`BLOCK_K`]` × `[`BLOCK_N`] is the panel of the lane operand
//! kept hot across the rows (128 × 128 × 4 B = 64 KiB — comfortably inside
//! a per-core L2). There is no row blocking: a tile's rows stream past the
//! panel once.
//!
//! *Tiles.* A block at least 32 columns wide takes 32-lane tiles two rows
//! at a time. A narrower block — the analogs' 10-class classifier is
//! nothing else — takes 16-, 8-, 4- or 1-lane tiles with four or eight rows
//! per step, so that few lanes still mean many independent add chains.
//! Whatever columns are left after the last whole tile get one more tile
//! *shifted left* to end at the block's edge: it recomputes the lanes it
//! overlaps and stores only the new ones, which costs time, never bits.
//!
//! *Layouts.* [`gemm`] feeds the driver as is. [`gemm_at_b`] packs each
//! panel of `Aᵀ` (`k·m` elements) so the broadcast rows read contiguously.
//! In [`gemm_a_bt`] both operands are contiguous in `p`, so one must be
//! packed transposed to become the lane operand: `B` (`n·k` elements), which
//! yields `C` directly, or `A` (`m·k`), which yields `Cᵀ = B·Aᵀ` and sends
//! `C` through a transposed scratch (`2·m·n` more). The kernel counts the
//! elements and re-lays the fewer — a choice made from `(m, k, n)` alone.
//! At a batch of 8 rows that is `A`: `B` is then the weight matrix, and
//! re-laying all of it on every call for eight rows of work cost 3–6× the
//! multiply itself.

// Every collective and model average funnels through this module; a panic
// here strands a group like a comms panic (DESIGN.md §10). `assert!` on
// buffer sizes is the stated contract and stays.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

/// Columns of `B`/`C` per macro-tile.
pub const BLOCK_N: usize = 128;
/// Contraction-panel depth per macro-tile.
pub const BLOCK_K: usize = 128;
/// Element block for the fused vector kernels (16 KiB: L1-resident).
pub const VEC_BLOCK: usize = 4096;

fn check_gemm_dims(rows: usize, inner: usize, cols: usize, a: usize, b: usize, c: usize) {
    assert!(
        a == rows * inner && b == inner * cols && c == rows * cols,
        "gemm buffer sizes {a}/{b}/{c} disagree with dims {rows}x{inner}x{cols}"
    );
}

/// The one micro-kernel behind all three layouts: a register tile of
/// `R × W` output elements walks a contraction panel of depth `$depth`,
/// `acc[r][l] += Σ_dp bcast[r][dp] · lanes[dp·stride + l]`. The `W` lanes
/// and the `R` broadcast rows are *distinct* output elements, so each
/// element still owns one accumulator walking `p` in order; the tile only
/// removes the naive loop's per-`p` store/reload of `C` (exact anyway) and
/// gives the adder `R · W / lane-width` independent chains to hide its
/// latency. A macro rather than a function so the tile is a local of the
/// loop that owns it and stays in registers (`#[target_feature]` functions
/// cannot be `#[inline(always)]`).
macro_rules! contract_tile {
    ($acc:ident, $bcast:ident, $depth:expr, $lanes:expr, $stride:expr) => {
        for dp in 0..$depth {
            let lane_row = &$lanes[dp * $stride..dp * $stride + W];
            for r in 0..R {
                let x = $bcast[r][dp];
                for (av, &lv) in $acc[r].iter_mut().zip(lane_row.iter()) {
                    *av += x * lv;
                }
            }
        }
    };
}

/// Instantiates the optimized kernel bodies under an optional feature
/// attribute. The bodies are written once; `scalar` carries the build's
/// baseline features, `avx2` recompiles the same loops with 8-lane
/// vectors. Identical source ⇒ identical accumulation order ⇒ identical
/// bits (see the module docs for why lane width cannot change results).
macro_rules! define_kernel_impls {
    ($mod_name:ident $(, #[$feat:meta])?) => {
        mod $mod_name {
            use super::{BLOCK_K, BLOCK_N, VEC_BLOCK};

            /// One contraction panel of `C[m × nb] += A · B` where the
            /// lanes run along a row of `B`/`C`: row `i` of the `A` panel is
            /// `a[i·a_stride..][..kb]`, row `dp` of the `B` panel starts at
            /// `b[dp·b_stride]` and row `i` of the `C` block at
            /// `c[i·c_stride]`. A `FRESH` panel starts every tile at `+0.0`
            /// instead of loading it from `C`: the first panel of a product
            /// that overwrites `C`. It is a parameter of the type, not a
            /// field, so the accumulating panels compile to the same loop
            /// as if it did not exist.
            #[derive(Clone, Copy)]
            struct RowLanes<'a, const FRESH: bool> {
                a: &'a [f32],
                a_stride: usize,
                m: usize,
                kb: usize,
                b: &'a [f32],
                b_stride: usize,
                nb: usize,
                c_stride: usize,
            }

            impl<'a> RowLanes<'a, false> {
                /// The same panel, fresh.
                #[inline]
                fn fresh(self) -> RowLanes<'a, true> {
                    let RowLanes { a, a_stride, m, kb, b, b_stride, nb, c_stride } = self;
                    RowLanes { a, a_stride, m, kb, b, b_stride, nb, c_stride }
                }
            }

            impl<const FRESH: bool> RowLanes<'_, FRESH> {
                /// Covers the `nb` columns with the widest tile that fits:
                /// 32 lanes two rows at a time (each `B` tile row feeds both
                /// rows), and for a block narrower than that 16, 8, 4 or 1
                /// lanes with more rows per step — a narrow tile has few
                /// lanes, so it needs more rows to keep as many add chains
                /// in flight.
                $(#[$feat])?
                #[inline]
                fn run(self, c: &mut [f32]) {
                    let j = self.tiles::<32, 2>(c, 0);
                    let j = self.tiles::<16, 4>(c, j);
                    let j = self.tiles::<8, 8>(c, j);
                    let j = self.tiles::<4, 8>(c, j);
                    self.tiles::<1, 8>(c, j);
                }

                /// Every `W`-wide column tile that fits from column `j` on;
                /// if columns remain and the block is at least one tile
                /// wide, they get one more tile shifted left to end at
                /// `nb`, which recomputes the lanes it overlaps and stores
                /// only the new ones (lanes are independent elements, so
                /// a discarded lane costs time, never bits). Returns the
                /// first column not covered.
                $(#[$feat])?
                #[inline]
                fn tiles<const W: usize, const R: usize>(self, c: &mut [f32], mut j: usize) -> usize {
                    while j + W <= self.nb {
                        self.tile::<W, R>(c, j, 0);
                        j += W;
                    }
                    if j < self.nb && W <= self.nb {
                        let at = self.nb - W;
                        self.tile::<W, R>(c, at, j - at);
                        j = self.nb;
                    }
                    j
                }

                /// The tile at column `j` for every row: `R` rows at a
                /// time, the last `m % R` singly. The first `skip` lanes
                /// are computed but not stored.
                $(#[$feat])?
                #[inline]
                fn tile<const W: usize, const R: usize>(self, c: &mut [f32], j: usize, skip: usize) {
                    let i = self.rows::<W, R>(c, j, skip, 0);
                    self.rows::<W, 1>(c, j, skip, i);
                }

                $(#[$feat])?
                #[inline]
                fn rows<const W: usize, const R: usize>(
                    self,
                    c: &mut [f32],
                    j: usize,
                    skip: usize,
                    mut i: usize,
                ) -> usize {
                    while i + R <= self.m {
                        let mut bcast = [&self.a[..0]; R];
                        let mut acc = [[0.0f32; W]; R];
                        for r in 0..R {
                            bcast[r] = &self.a[(i + r) * self.a_stride..][..self.kb];
                            if !FRESH {
                                acc[r].copy_from_slice(&c[(i + r) * self.c_stride + j..][..W]);
                            }
                        }
                        let lanes = &self.b[j..];
                        contract_tile!(acc, bcast, self.kb, lanes, self.b_stride);
                        for (r, done) in acc.into_iter().enumerate() {
                            let c_tile = &mut c[(i + r) * self.c_stride + j..][..W];
                            if skip == 0 {
                                c_tile.copy_from_slice(&done);
                            } else {
                                c_tile[skip..].copy_from_slice(&done[skip..]);
                            }
                        }
                        i += R;
                    }
                    i
                }
            }

            $(#[$feat])?
            pub(super) fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
                // `p`-panels advance in order so each element's accumulation
                // stays sequential in `p`; `j`-panels partition independent
                // outputs and keep a BLOCK_K×BLOCK_N panel of B hot in L2.
                for pc in (0..k).step_by(BLOCK_K) {
                    let kb = BLOCK_K.min(k - pc);
                    for jc in (0..n).step_by(BLOCK_N) {
                        let nb = BLOCK_N.min(n - jc);
                        let b_panel = &b[pc * n + jc..];
                        RowLanes::<false> { a: &a[pc..], a_stride: k, m, kb, b: b_panel, b_stride: n, nb, c_stride: n }
                            .run(&mut c[jc..]);
                    }
                }
            }

            /// `dst[j·rows + i] = src[i·src_stride + j]`: the `rows × cols`
            /// block at the head of `src`, transposed. Every re-layout in
            /// this module is this one loop; none changes a value.
            $(#[$feat])?
            #[inline]
            fn transpose_block(src: &[f32], src_stride: usize, rows: usize, cols: usize, dst: &mut [f32]) {
                for i in 0..rows {
                    let src_row = &src[i * src_stride..][..cols];
                    for (j, &v) in src_row.iter().enumerate() {
                        dst[j * rows + i] = v;
                    }
                }
            }

            $(#[$feat])?
            pub(super) fn gemm_at_b(
                k: usize,
                m: usize,
                n: usize,
                a: &[f32],
                b: &[f32],
                c: &mut [f32],
                fresh: bool,
            ) {
                // Pack each panel of Aᵀ (k·m elements, the small operand of
                // a weight gradient) so the per-row segment reads
                // contiguously, then run the gemm panel on it. A fresh
                // product starts its first panel from `+0.0`, which is what
                // the load of a zeroed `C` would have given.
                let mut packed = vec![0.0f32; BLOCK_K.min(k) * m];
                for pc in (0..k).step_by(BLOCK_K) {
                    let kb = BLOCK_K.min(k - pc);
                    transpose_block(&a[pc * m..], m, kb, m, &mut packed);
                    for jc in (0..n).step_by(BLOCK_N) {
                        let nb = BLOCK_N.min(n - jc);
                        let b_panel = &b[pc * n + jc..];
                        let panel = RowLanes::<false> { a: &packed, a_stride: kb, m, kb, b: b_panel, b_stride: n, nb, c_stride: n };
                        if fresh && pc == 0 {
                            panel.fresh().run(&mut c[jc..]);
                        } else {
                            panel.run(&mut c[jc..]);
                        }
                    }
                }
            }

            $(#[$feat])?
            pub(super) fn gemm_a_bt(
                m: usize,
                k: usize,
                n: usize,
                a: &[f32],
                b: &[f32],
                c: &mut [f32],
            ) {
                // Both operands are contiguous in `p`, so one of them is
                // packed transposed and becomes the lane operand of the
                // `gemm` panel, while the other's rows are broadcast where
                // they lie. Packing B (n·k elements) yields C directly;
                // packing A (m·k) yields Cᵀ = B·Aᵀ, so C goes through a
                // transposed scratch as well (2·m·n). The kernel re-lays
                // whichever is fewer elements. With a batch of 8 rows that
                // is A: B is the weight matrix, and re-laying it for eight
                // rows cost several times the multiply.
                if m * (k + 2 * n) < n * k {
                    let mut ct = vec![0.0f32; n * m];
                    let mut packed = vec![0.0f32; BLOCK_K.min(k) * m];
                    transpose_block(c, n, m, n, &mut ct);
                    for pc in (0..k).step_by(BLOCK_K) {
                        let kb = BLOCK_K.min(k - pc);
                        transpose_block(&a[pc..], k, m, kb, &mut packed);
                        RowLanes::<false> { a: &b[pc..], a_stride: k, m: n, kb, b: &packed, b_stride: m, nb: m, c_stride: m }
                            .run(&mut ct);
                    }
                    transpose_block(&ct, m, n, m, c);
                    return;
                }
                let mut packed = vec![0.0f32; BLOCK_K.min(k) * BLOCK_N.min(n)];
                for pc in (0..k).step_by(BLOCK_K) {
                    let kb = BLOCK_K.min(k - pc);
                    for jc in (0..n).step_by(BLOCK_N) {
                        let nb = BLOCK_N.min(n - jc);
                        transpose_block(&b[jc * k + pc..], k, nb, kb, &mut packed);
                        RowLanes::<false> { a: &a[pc..], a_stride: k, m, kb, b: &packed, b_stride: nb, nb, c_stride: n }
                            .run(&mut c[jc..]);
                    }
                }
            }

            $(#[$feat])?
            pub(super) fn weighted_sum_acc(out: &mut [f32], models: &[&[f32]], weights: &[f32]) {
                // Each VEC_BLOCK of `out` stays L1-resident while every
                // model contributes to it, instead of re-streaming `out`
                // once per model. Models are visited in slice order per
                // element — bit-identical to the axpy chain it replaces.
                let len = out.len();
                for start in (0..len).step_by(VEC_BLOCK) {
                    let end = (start + VEC_BLOCK).min(len);
                    let ob = &mut out[start..end];
                    for (model, &w) in models.iter().zip(weights.iter()) {
                        for (o, &x) in ob.iter_mut().zip(model[start..end].iter()) {
                            *o += w * x;
                        }
                    }
                }
            }

            $(#[$feat])?
            pub(super) fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
                for (a, &b) in y.iter_mut().zip(x.iter()) {
                    *a += alpha * b;
                }
            }

            $(#[$feat])?
            pub(super) fn axpy_le_bytes(y: &mut [f32], alpha: f32, bytes: &[u8]) {
                for (a, quad) in y.iter_mut().zip(bytes.as_chunks::<4>().0) {
                    *a += alpha * f32::from_le_bytes(*quad);
                }
            }

            $(#[$feat])?
            pub(super) fn scale(x: &mut [f32], alpha: f32) {
                for v in x.iter_mut() {
                    *v *= alpha;
                }
            }

            $(#[$feat])?
            pub(super) fn scale_from_zero(x: &mut [f32], alpha: f32) {
                for v in x.iter_mut() {
                    *v = 0.0 + alpha * *v;
                }
            }

            $(#[$feat])?
            pub(super) fn sgd_step(
                params: &mut [f32],
                velocity: &mut [f32],
                grads: &[f32],
                lr: f32,
                momentum: f32,
                weight_decay: f32,
            ) {
                for ((v, p), &g) in velocity.iter_mut().zip(params.iter_mut()).zip(grads) {
                    let eff_grad = g + weight_decay * *p;
                    *v = momentum * *v + eff_grad;
                    *p -= lr * *v;
                }
            }

            $(#[$feat])?
            pub(super) fn add_bias_rows(y: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
                for r in 0..rows {
                    let row = &mut y[r * cols..(r + 1) * cols];
                    for (v, &b) in row.iter_mut().zip(bias.iter()) {
                        *v += b;
                    }
                }
            }

            $(#[$feat])?
            pub(super) fn col_sums_acc(acc: &mut [f32], mat: &[f32], rows: usize, cols: usize) {
                for r in 0..rows {
                    let row = &mat[r * cols..(r + 1) * cols];
                    for (a, &v) in acc.iter_mut().zip(row.iter()) {
                        *a += v;
                    }
                }
            }
        }
    };
}

define_kernel_impls!(scalar);
#[cfg(target_arch = "x86_64")]
define_kernel_impls!(avx2, #[target_feature(enable = "avx2")]);
#[cfg(target_arch = "x86_64")]
define_kernel_impls!(avx512, #[target_feature(enable = "avx512f")]);

/// Dispatches a kernel body to the widest instantiation the CPU supports
/// (detection results are cached by std), else the baseline one.
macro_rules! dispatch {
    ($f:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the `avx512` instantiations only require the
                // AVX-512F target feature, verified present just above.
                unsafe { avx512::$f($($arg),*) }
            } else if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the `avx2` instantiations only require the AVX2
                // target feature, verified present just above.
                unsafe { avx2::$f($($arg),*) }
            } else {
                scalar::$f($($arg),*)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            scalar::$f($($arg),*)
        }
    }};
}

/// `C += A · B` over row-major slices (`A: m×k`, `B: k×n`, `C: m×n`),
/// blocked for cache reuse. Canonical order: per element, `p = 0..k`.
/// Bit-identical to [`gemm_reference`].
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_gemm_dims(m, k, n, a.len(), b.len(), c.len());
    dispatch!(gemm(m, k, n, a, b, c))
}

/// `C += A · Bᵀ` over row-major slices (`A: m×k`, `B: n×k`, `C: m×n`).
/// Canonical order: per element, `p = 0..k`. Bit-identical to
/// [`gemm_a_bt_reference`].
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(
        a.len() == m * k && b.len() == n * k && c.len() == m * n,
        "gemm_a_bt buffer sizes disagree with dims {m}x{k}x{n}"
    );
    dispatch!(gemm_a_bt(m, k, n, a, b, c))
}

/// `C += Aᵀ · B` over row-major slices (`A: k×m`, `B: k×n`, `C: m×n`).
/// Canonical order: per element, `p = 0..k`. Bit-identical to
/// [`gemm_at_b_reference`].
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_at_b(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(
        a.len() == k * m && b.len() == k * n && c.len() == m * n,
        "gemm_at_b buffer sizes disagree with dims {k}x{m}x{n}"
    );
    dispatch!(gemm_at_b(k, m, n, a, b, c, false))
}

/// `C = Aᵀ · B`: [`gemm_at_b`] into a `C` that it overwrites and never
/// reads, with the bits [`gemm_at_b`] leaves in a `C` of `+0.0` (the first
/// contraction panel starts its accumulators at `+0.0` instead of loading
/// them). Bit-identical to [`gemm_at_b_fresh_reference`].
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_at_b_fresh(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(
        a.len() == k * m && b.len() == k * n && c.len() == m * n,
        "gemm_at_b buffer sizes disagree with dims {k}x{m}x{n}"
    );
    if k == 0 {
        c.fill(0.0);
        return;
    }
    dispatch!(gemm_at_b(k, m, n, a, b, c, true))
}

/// `out += Σ_j weights[j] · models[j]`, fused. Canonical order: per
/// element, models in slice order — bit-identical to the chain of
/// [`axpy`] calls it replaces ([`weighted_sum_reference`]).
///
/// # Panics
/// Panics if `models` and `weights` disagree or any model length differs
/// from `out`.
pub fn weighted_sum_acc(out: &mut [f32], models: &[&[f32]], weights: &[f32]) {
    assert!(
        models.len() == weights.len(),
        "one weight per model required"
    );
    for m in models {
        assert!(m.len() == out.len(), "model/output length mismatch");
    }
    dispatch!(weighted_sum_acc(out, models, weights))
}

/// `y += alpha · x` over raw slices — the BLAS axpy kernel.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert!(y.len() == x.len(), "axpy length mismatch");
    dispatch!(axpy(y, alpha, x))
}

/// `y += alpha · x` where `x` arrives as little-endian wire bytes, four
/// per element — the fold of a TCP group average, straight from the
/// socket's bytes. Bit-identical to [`axpy_le_bytes_reference`].
///
/// # Panics
/// Panics unless `bytes` holds exactly four bytes per element of `y`.
pub fn axpy_le_bytes(y: &mut [f32], alpha: f32, bytes: &[u8]) {
    assert!(bytes.len() == 4 * y.len(), "axpy_le_bytes length mismatch");
    dispatch!(axpy_le_bytes(y, alpha, bytes))
}

/// `x *= alpha`, in place.
pub fn scale(x: &mut [f32], alpha: f32) {
    dispatch!(scale(x, alpha))
}

/// `x = 0 + alpha · x`, in place: the first term of a from-zero
/// accumulator, which reads `+0.0` where the product is `-0.0` (a group
/// average's own contribution, folded first). Bit-identical to
/// [`scale_from_zero_reference`].
pub fn scale_from_zero(x: &mut [f32], alpha: f32) {
    dispatch!(scale_from_zero(x, alpha))
}

/// One SGD step with momentum and weight decay, per element:
/// `v ← momentum·v + (g + weight_decay·θ)`, then `θ ← θ − lr·v`.
/// Bit-identical to [`sgd_step_reference`].
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn sgd_step(
    params: &mut [f32],
    velocity: &mut [f32],
    grads: &[f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    assert!(
        params.len() == velocity.len() && grads.len() == velocity.len(),
        "sgd_step length mismatch"
    );
    dispatch!(sgd_step(
        params,
        velocity,
        grads,
        lr,
        momentum,
        weight_decay
    ))
}

/// Adds `bias` to every row of the row-major `rows × cols` matrix `y`
/// (the dense forward bias).
///
/// # Panics
/// Panics if the buffer sizes disagree.
pub fn add_bias_rows(y: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert!(
        y.len() == rows * cols && bias.len() == cols,
        "bias dims disagree with {rows}x{cols}"
    );
    dispatch!(add_bias_rows(y, rows, cols, bias))
}

/// `acc[j] += Σ_r mat[r, j]` for a row-major `rows × cols` matrix — the
/// bias gradient of the dense backward pass. Canonical order: rows
/// in increasing order per column.
///
/// # Panics
/// Panics if the buffer sizes disagree.
pub fn col_sums_acc(acc: &mut [f32], mat: &[f32], rows: usize, cols: usize) {
    assert!(
        mat.len() == rows * cols && acc.len() == cols,
        "column-sum dims disagree with {rows}x{cols}"
    );
    dispatch!(col_sums_acc(acc, mat, rows, cols))
}

/// `C += A · B` — the scalar reference spelling of [`gemm`]'s canonical
/// order (the pre-kernel-layer loop, minus its data-dependent zero-skip).
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_gemm_dims(m, k, n, a.len(), b.len(), c.len());
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a[i * k..(i + 1) * k].iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += a_ip * bv;
            }
        }
    }
}

/// `C += A · Bᵀ` — scalar reference for [`gemm_a_bt`] (the
/// pre-kernel-layer dot-product loop).
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_a_bt_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(
        a.len() == m * k && b.len() == n * k && c.len() == m * n,
        "gemm_a_bt buffer sizes disagree with dims {m}x{k}x{n}"
    );
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = *cv;
            for (x, y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            *cv = acc;
        }
    }
}

/// `C += Aᵀ · B` — scalar reference for [`gemm_at_b`] (the
/// pre-kernel-layer `p`-outermost loop, minus its zero-skip).
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_at_b_reference(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(
        a.len() == k * m && b.len() == k * n && c.len() == m * n,
        "gemm_at_b buffer sizes disagree with dims {k}x{m}x{n}"
    );
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_pi) in a_row.iter().enumerate() {
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += a_pi * bv;
            }
        }
    }
}

/// `C = Aᵀ · B` — scalar reference for [`gemm_at_b_fresh`]: a `C` of
/// `+0.0`, then [`gemm_at_b_reference`].
///
/// # Panics
/// Panics if the slice lengths disagree with the dimensions.
pub fn gemm_at_b_fresh_reference(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    c.fill(0.0);
    gemm_at_b_reference(k, m, n, a, b, c);
}

/// `y += alpha · x` — scalar reference for [`axpy`].
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy_reference(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert!(y.len() == x.len(), "axpy length mismatch");
    for (a, &b) in y.iter_mut().zip(x) {
        *a += alpha * b;
    }
}

/// `y += alpha · x` from little-endian bytes — scalar reference for
/// [`axpy_le_bytes`].
///
/// # Panics
/// Panics unless `bytes` holds exactly four bytes per element of `y`.
pub fn axpy_le_bytes_reference(y: &mut [f32], alpha: f32, bytes: &[u8]) {
    assert!(bytes.len() == 4 * y.len(), "axpy_le_bytes length mismatch");
    for (i, a) in y.iter_mut().enumerate() {
        let quad = [
            bytes[4 * i],
            bytes[4 * i + 1],
            bytes[4 * i + 2],
            bytes[4 * i + 3],
        ];
        *a += alpha * f32::from_le_bytes(quad);
    }
}

/// `x *= alpha` — scalar reference for [`scale`].
pub fn scale_reference(x: &mut [f32], alpha: f32) {
    for v in x {
        *v *= alpha;
    }
}

/// `x = 0 + alpha · x` — scalar reference for [`scale_from_zero`].
pub fn scale_from_zero_reference(x: &mut [f32], alpha: f32) {
    for v in x {
        *v = 0.0 + alpha * *v;
    }
}

/// Bias broadcast — scalar reference for [`add_bias_rows`].
///
/// # Panics
/// Panics if the buffer sizes disagree.
pub fn add_bias_rows_reference(y: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert!(
        y.len() == rows * cols && bias.len() == cols,
        "bias dims disagree with {rows}x{cols}"
    );
    for (i, v) in y.iter_mut().enumerate() {
        *v += bias[i % cols];
    }
}

/// Column sums, rows in order — scalar reference for [`col_sums_acc`].
///
/// # Panics
/// Panics if the buffer sizes disagree.
pub fn col_sums_acc_reference(acc: &mut [f32], mat: &[f32], rows: usize, cols: usize) {
    assert!(
        mat.len() == rows * cols && acc.len() == cols,
        "column-sum dims disagree with {rows}x{cols}"
    );
    for (i, &v) in mat.iter().enumerate() {
        acc[i % cols] += v;
    }
}

/// One SGD step — scalar reference for [`sgd_step`], element by element.
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn sgd_step_reference(
    params: &mut [f32],
    velocity: &mut [f32],
    grads: &[f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    assert!(
        params.len() == velocity.len() && grads.len() == velocity.len(),
        "sgd_step length mismatch"
    );
    for i in 0..params.len() {
        let eff_grad = grads[i] + weight_decay * params[i];
        velocity[i] = momentum * velocity[i] + eff_grad;
        params[i] -= lr * velocity[i];
    }
}

/// `out += Σ_j weights[j] · models[j]` — scalar reference for
/// [`weighted_sum_acc`]: one full [`axpy`] sweep per model, in order.
///
/// # Panics
/// Panics if `models` and `weights` disagree or any model length differs
/// from `out`.
pub fn weighted_sum_reference(out: &mut [f32], models: &[&[f32]], weights: &[f32]) {
    assert!(
        models.len() == weights.len(),
        "one weight per model required"
    );
    for (model, &w) in models.iter().zip(weights.iter()) {
        assert!(model.len() == out.len(), "model/output length mismatch");
        for (a, &b) in out.iter_mut().zip(model.iter()) {
            *a += w * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random values without an RNG dependency.
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: element {i} differs: {x} vs {y}"
            );
        }
    }

    /// `(rows of C, contraction, columns of C)`: block-size straddlers, the
    /// analogs' layer shapes at batch 8 (classifier tail included), the
    /// evaluation batches (2000 = 7·256 + 208) and row counts that are not
    /// a multiple of any tile's row group.
    const SHAPES: [(usize, usize, usize); 20] = [
        (1, 1, 1),
        (2, 3, 4),
        (7, 129, 63),
        (5, 129, 66),
        (64, 128, 128),
        (65, 257, 130),
        (65, 257, 131),
        (8, 300, 100),
        (16, 300, 3),
        (8, 64, 10),
        (8, 128, 10),
        (8, 64, 128),
        (8, 192, 128),
        (8, 256, 256),
        (8, 10, 64),
        (208, 64, 10),
        (256, 128, 64),
        (11, 70, 37),
        (13, 200, 9),
        (3, 140, 45),
    ];

    /// One kernel against its reference at `(m, k, n)`, from a zero `C` and
    /// from a non-zero one (the kernels are `C +=`).
    fn check(
        what: &str,
        (m, k, n): (usize, usize, usize),
        a_len: usize,
        b_len: usize,
        run: impl Fn(&[f32], &[f32], &mut [f32]),
        reference: impl Fn(&[f32], &[f32], &mut [f32]),
    ) {
        let a = fill(1 + m as u64, a_len);
        let b = fill(2 + n as u64, b_len);
        for c0 in [vec![0.0f32; m * n], fill(3 + k as u64, m * n)] {
            let (mut c_opt, mut c_ref) = (c0.clone(), c0);
            run(&a, &b, &mut c_opt);
            reference(&a, &b, &mut c_ref);
            assert_bits_eq(&c_opt, &c_ref, &format!("{what} {m}x{k}x{n}"));
        }
    }

    /// All three layouts at a `C` of `m × n` contracted over `k`.
    fn check_layouts(shape: (usize, usize, usize)) {
        let (m, k, n) = shape;
        check(
            "gemm",
            shape,
            m * k,
            k * n,
            |a, b, c| gemm(m, k, n, a, b, c),
            |a, b, c| gemm_reference(m, k, n, a, b, c),
        );
        check(
            "gemm_a_bt",
            shape,
            m * k,
            n * k,
            |a, b, c| gemm_a_bt(m, k, n, a, b, c),
            |a, b, c| gemm_a_bt_reference(m, k, n, a, b, c),
        );
        check(
            "gemm_at_b",
            shape,
            k * m,
            k * n,
            |a, b, c| gemm_at_b(k, m, n, a, b, c),
            |a, b, c| gemm_at_b_reference(k, m, n, a, b, c),
        );
    }

    #[test]
    fn all_layouts_match_reference_bitwise_across_shapes() {
        for shape in SHAPES {
            check_layouts(shape);
        }
    }

    #[test]
    fn all_layouts_match_reference_bitwise_at_every_narrow_width() {
        // Every column-tail composition (full tile, shifted tile, single
        // columns) under every row-group remainder, at one contraction
        // panel and at two; for `gemm_a_bt` the widths on both sides of
        // its packing choice.
        for n in 1..=40 {
            for m in [1, 2, 7, 8, 9] {
                for k in [10, 150] {
                    check_layouts((m, k, n));
                }
            }
        }
    }

    #[test]
    fn gemm_small_known_values() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    type Gemm = unsafe fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    type Axpy<X> = unsafe fn(&mut [f32], f32, &[X]);
    type Rows = unsafe fn(&mut [f32], usize, usize, &[f32]);
    type GemmAtB = unsafe fn(usize, usize, usize, &[f32], &[f32], &mut [f32], bool);
    type SgdStep = unsafe fn(&mut [f32], &mut [f32], &[f32], f32, f32, f32);

    /// One instantiation of the kernel bodies. The pointers are `unsafe`
    /// because the `avx2` and `avx512` bodies may only run on a CPU with
    /// that feature; [`instantiations`] lists only those that can.
    struct Bodies {
        level: &'static str,
        gemm: Gemm,
        gemm_a_bt: Gemm,
        gemm_at_b: GemmAtB,
        weighted_sum_acc: unsafe fn(&mut [f32], &[&[f32]], &[f32]),
        axpy: Axpy<f32>,
        axpy_le_bytes: Axpy<u8>,
        scale: unsafe fn(&mut [f32], f32),
        scale_from_zero: unsafe fn(&mut [f32], f32),
        add_bias_rows: Rows,
        col_sums_acc: unsafe fn(&mut [f32], &[f32], usize, usize),
        sgd_step: SgdStep,
    }

    macro_rules! bodies {
        ($level:ident) => {
            Bodies {
                level: stringify!($level),
                gemm: $level::gemm,
                gemm_a_bt: $level::gemm_a_bt,
                gemm_at_b: $level::gemm_at_b,
                weighted_sum_acc: $level::weighted_sum_acc,
                axpy: $level::axpy,
                axpy_le_bytes: $level::axpy_le_bytes,
                scale: $level::scale,
                scale_from_zero: $level::scale_from_zero,
                add_bias_rows: $level::add_bias_rows,
                col_sums_acc: $level::col_sums_acc,
                sgd_step: $level::sgd_step,
            }
        };
    }

    /// `scalar`, then `avx2` and `avx512` where this CPU has the feature —
    /// not only the widest, which is all the dispatched entry points run.
    fn instantiations() -> Vec<Bodies> {
        #[allow(unused_mut, reason = "only x86_64 adds the SIMD levels")]
        let mut levels = vec![bodies!(scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                levels.push(bodies!(avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                levels.push(bodies!(avx512));
            }
        }
        levels
    }

    /// [`fill`] with every fifth element `-0.0`, which a sum from `+0.0`
    /// and a product by a negative weight must not lose.
    fn fill_signed_zeros(seed: u64, len: usize) -> Vec<f32> {
        let mut v = fill(seed, len);
        v.iter_mut().step_by(5).for_each(|x| *x = -0.0);
        v
    }

    /// Lengths around every lane width and [`VEC_BLOCK`], most of them not
    /// a multiple of 16.
    const LENGTHS: [usize; 11] = [1, 3, 15, 16, 17, 31, 33, 100, 1000, 4097, 10_001];

    /// Calls body `$body` of `$b`, one of the levels [`instantiations`]
    /// returned.
    macro_rules! run {
        ($b:ident.$body:ident($($arg:expr),* $(,)?)) => {
            // SAFETY: `instantiations` lists a level only where the CPU
            // has its target feature.
            unsafe { ($b.$body)($($arg),*) }
        };
    }

    #[test]
    fn every_instantiation_matches_its_reference_bitwise() {
        for b in instantiations() {
            let level = b.level;
            for shape in SHAPES {
                let (m, k, n) = shape;
                let what = |kernel: &str| format!("{level} {kernel}");
                check(
                    &what("gemm"),
                    shape,
                    m * k,
                    k * n,
                    |x, y, c| run!(b.gemm(m, k, n, x, y, c)),
                    |x, y, c| gemm_reference(m, k, n, x, y, c),
                );
                check(
                    &what("gemm_a_bt"),
                    shape,
                    m * k,
                    n * k,
                    |x, y, c| run!(b.gemm_a_bt(m, k, n, x, y, c)),
                    |x, y, c| gemm_a_bt_reference(m, k, n, x, y, c),
                );
                check(
                    &what("gemm_at_b"),
                    shape,
                    k * m,
                    k * n,
                    |x, y, c| run!(b.gemm_at_b(k, m, n, x, y, c, false)),
                    |x, y, c| gemm_at_b_reference(k, m, n, x, y, c),
                );
                // A fresh product never reads `C`, NaN included.
                check(
                    &what("gemm_at_b fresh"),
                    shape,
                    k * m,
                    k * n,
                    |x, y, c| {
                        c.fill(f32::NAN);
                        run!(b.gemm_at_b(k, m, n, x, y, c, true))
                    },
                    |x, y, c| gemm_at_b_fresh_reference(k, m, n, x, y, c),
                );
                let mat = fill_signed_zeros(4 + n as u64, m * n);
                let row = fill_signed_zeros(5 + m as u64, n);
                let (mut got, mut want) = (mat.clone(), mat.clone());
                run!(b.add_bias_rows(&mut got, m, n, &row));
                add_bias_rows_reference(&mut want, m, n, &row);
                assert_bits_eq(&got, &want, &what("add_bias_rows"));
                let (mut got, mut want) = (row.clone(), row);
                run!(b.col_sums_acc(&mut got, &mat, m, n));
                col_sums_acc_reference(&mut want, &mat, m, n);
                assert_bits_eq(&got, &want, &what("col_sums_acc"));
            }
            for len in LENGTHS {
                let what = |kernel: &str| format!("{level} {kernel} at {len}");
                let (y, x) = (fill_signed_zeros(6, len), fill_signed_zeros(7, len));
                let bytes: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
                for alpha in [0.75f32, -1.5] {
                    let (mut got, mut want) = (y.clone(), y.clone());
                    run!(b.axpy(&mut got, alpha, &x));
                    axpy_reference(&mut want, alpha, &x);
                    assert_bits_eq(&got, &want, &what("axpy"));
                    let (mut got, mut want) = (y.clone(), y.clone());
                    run!(b.axpy_le_bytes(&mut got, alpha, &bytes));
                    axpy_le_bytes_reference(&mut want, alpha, &bytes);
                    assert_bits_eq(&got, &want, &what("axpy_le_bytes"));
                    let (mut got, mut want) = (y.clone(), y.clone());
                    run!(b.scale(&mut got, alpha));
                    scale_reference(&mut want, alpha);
                    assert_bits_eq(&got, &want, &what("scale"));
                    let (mut got, mut want) = (y.clone(), y.clone());
                    run!(b.scale_from_zero(&mut got, alpha));
                    scale_from_zero_reference(&mut want, alpha);
                    assert_bits_eq(&got, &want, &what("scale_from_zero"));
                }
                let g = fill_signed_zeros(8, len);
                let (mut p, mut p_ref) = (y.clone(), y.clone());
                let (mut v, mut v_ref) = (x.clone(), x.clone());
                for (lr, momentum, wd) in [(0.1f32, 0.9f32, 1e-4f32), (0.05, 0.0, 0.0)] {
                    run!(b.sgd_step(&mut p, &mut v, &g, lr, momentum, wd));
                    sgd_step_reference(&mut p_ref, &mut v_ref, &g, lr, momentum, wd);
                    assert_bits_eq(&p, &p_ref, &what("sgd_step params"));
                    assert_bits_eq(&v, &v_ref, &what("sgd_step velocity"));
                }
                for count in [1usize, 3, 5] {
                    let data: Vec<Vec<f32>> = (0..count)
                        .map(|j| fill_signed_zeros(9 + j as u64, len))
                        .collect();
                    let models: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
                    let weights: Vec<f32> = (0..count).map(|j| 1.0 / (j + 2) as f32).collect();
                    let (mut got, mut want) = (vec![0.0f32; len], vec![0.0f32; len]);
                    run!(b.weighted_sum_acc(&mut got, &models, &weights));
                    weighted_sum_reference(&mut want, &models, &weights);
                    assert_bits_eq(&got, &want, &what("weighted_sum_acc"));
                }
            }
        }
    }

    #[test]
    fn weighted_sum_matches_reference_bitwise() {
        for &(models, len) in &[(1usize, 7usize), (2, 4096), (5, 10_001), (8, 4097)] {
            let data: Vec<Vec<f32>> = (0..models).map(|j| fill(7 + j as u64, len)).collect();
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let weights: Vec<f32> = (0..models).map(|j| 1.0 / (j + 1) as f32).collect();
            let mut fused = vec![0.0f32; len];
            let mut chain = vec![0.0f32; len];
            weighted_sum_acc(&mut fused, &refs, &weights);
            weighted_sum_reference(&mut chain, &refs, &weights);
            assert_bits_eq(&fused, &chain, &format!("weighted_sum {models}x{len}"));
        }
    }

    #[test]
    fn axpy_and_scale_match_definitions() {
        let mut y = vec![1.0f32, 1.0];
        axpy(&mut y, -0.5, &[2.0, 3.0]);
        assert_eq!(y, vec![0.0, -0.5]);
        scale(&mut y, 2.0);
        assert_eq!(y, vec![0.0, -1.0]);
    }

    #[test]
    fn add_bias_rows_broadcasts() {
        let mut y = vec![0.0f32, 1.0, 2.0, 3.0, 4.0, 5.0];
        add_bias_rows(&mut y, 2, 3, &[10.0, 20.0, 30.0]);
        assert_eq!(y, vec![10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn col_sums_acc_accumulates() {
        let mat = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut acc = vec![100.0f32, 200.0];
        col_sums_acc(&mut acc, &mat, 3, 2);
        assert_eq!(acc, vec![109.0, 212.0]);
    }

    #[test]
    #[should_panic(expected = "disagree with dims")]
    fn gemm_rejects_bad_dims() {
        let mut c = [0.0f32; 4];
        gemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }

    #[test]
    #[should_panic(expected = "one weight per model")]
    fn weighted_sum_rejects_weight_mismatch() {
        let m = [0.0f32; 2];
        let mut out = [0.0f32; 2];
        weighted_sum_acc(&mut out, &[&m], &[0.5, 0.5]);
    }
}
