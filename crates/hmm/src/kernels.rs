//! Per-step row kernels: the one place the forward, Viterbi, backward and ξ
//! steps are written, for every engine.
//!
//! The offline scaled and sparse engines ([`crate::scaled`],
//! [`crate::sparse`]) and the streaming decoder in `dhmm-stream` all run the
//! same per-step recursions; only the way the transitions are stored
//! differs. A representation provides four row kernels through two traits:
//!
//! * [`RowKernels`] reads rows of `A` (the successors of a state): the
//!   forward scatter, the backward dot and the ξ accumulate;
//! * [`ViterbiGather`] reads rows of `Aᵀ` (the predecessors of a state): the
//!   max-product gather with its first-occurrence argmax.
//!
//! Two representations implement them. Dense transitions are the model's
//! [`Matrix`] (`A`) plus a [`DenseTranspose`] (`Aᵀ`), and CSR transitions
//! are a [`CsrTransition`], whose forward and transposed orientations bind
//! the `dhmm_linalg` CSR kernels. The step functions below are generic over
//! them and monomorphized, so dispatch happens once per call, never per
//! element.
//!
//! # Operation order
//!
//! Every engine reproduces these sequences, which is what keeps the offline,
//! sparse, streaming and lockstep results bit-identical:
//!
//! * **Forward** ([`forward_step`]): the row starts at `+0.0`; for each
//!   predecessor `i` in ascending order with `α̂_i(t−1) ≠ 0`, add
//!   `α̂_i(t−1) · a_ij` into column `j` (ascending `j`; CSR visits stored
//!   entries only). Then multiply by `b_j(y_t)`. At `t = 0` the row is
//!   `π_j · b_j(y_0)` ([`initial_step`]).
//!   [`filter_finish`] then beam-prunes the row (CSR with a beam only) and
//!   rescales it with [`scale_row`].
//! * **Viterbi** ([`viterbi_step`]): for each state `j`, the best of
//!   `δ_i(t−1) · a_ij` over predecessors `i` in ascending order with a strict
//!   `>`, so ties keep the first index. Dense seeds the running best at
//!   `(−∞, 0)`; CSR seeds it at `(0.0, 0)`, so zero products never win. The
//!   row entry is `best · b_j(y_t)`. [`viterbi_normalize`] then divides by
//!   the row max and beam-prunes the normalized row.
//! * **Backward** ([`backward_step`]): `w_j = b_j(y_{t+1}) · β_j(t+1)`, then
//!   `β_i(t) = Σ_j a_ij · w_j` (ascending `j`), then division by the row sum
//!   when that sum is positive.
//! * **ξ** ([`xi_step`]): for each predecessor `i` with `α̂_i(t−1) ≠ 0`,
//!   `ξ_ij += α̂_i(t−1) · a_ij · w_j`, where the engine supplies
//!   `w_j = b_j(y_t) · β_j(t) / (c̃_t · Σ_j α̂_j(t) β_j(t))`.
//!
//! Under [`crate::sparse::SparseParams::exact`] the CSR matrix stores every
//! entry in ascending column order, so both representations visit the same
//! values in the same order and give the same bits.

use crate::sparse::CsrTransition;
use dhmm_linalg::Matrix;

/// Row kernels over rows of `A`: the successors of one state.
pub trait RowKernels {
    /// `out[j] += scale · a_ij` over the successors `j` of `i`, ascending.
    fn scatter(&self, i: usize, scale: f64, out: &mut [f64]);
    /// `Σ_j a_ij · x[j]` over the successors of `i`, ascending `j`.
    fn dot(&self, i: usize, x: &[f64]) -> f64;
    /// `out[j] += scale · a_ij · w[j]` over the successors of `i`.
    fn accumulate_xi(&self, i: usize, scale: f64, w: &[f64], out: &mut [f64]);
}

/// The Viterbi gather over rows of `Aᵀ`: the predecessors of one state.
pub trait ViterbiGather {
    /// `(max_i x[i] · a_ij, argmax)` over the predecessors of `j`, ascending
    /// `i`, strict `>` (first occurrence wins ties).
    fn gather_max(&self, j: usize, x: &[f64]) -> (f64, usize);
}

impl RowKernels for Matrix {
    #[inline]
    fn scatter(&self, i: usize, scale: f64, out: &mut [f64]) {
        for (r, &aij) in out.iter_mut().zip(self.row(i)) {
            *r += scale * aij;
        }
    }

    #[inline]
    fn dot(&self, i: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&aij, &xj) in self.row(i).iter().zip(x) {
            acc += aij * xj;
        }
        acc
    }

    #[inline]
    fn accumulate_xi(&self, i: usize, scale: f64, w: &[f64], out: &mut [f64]) {
        for ((x, &aij), &wj) in out.iter_mut().zip(self.row(i)).zip(w) {
            *x += scale * aij * wj;
        }
    }
}

/// The transpose `Aᵀ` of a dense `k × k` transition matrix: row `j` holds
/// the predecessors of state `j` contiguously, which is what the dense
/// Viterbi gather walks. The buffer is grow-only, so rebuilding it for a new
/// matrix allocates nothing once warm.
#[derive(Debug, Clone, Default)]
pub struct DenseTranspose {
    k: usize,
    data: Vec<f64>,
}

impl DenseTranspose {
    /// Overwrites `self` with `aᵀ` (`a` must be square).
    pub fn rebuild(&mut self, a: &Matrix) {
        let k = a.rows();
        self.k = k;
        self.data.resize(k * k, 0.0);
        for i in 0..k {
            for (j, &v) in a.row(i).iter().enumerate() {
                self.data[j * k + i] = v;
            }
        }
    }

    /// Row `j` of `Aᵀ`: `a_ij` for every predecessor `i`, ascending.
    #[inline]
    pub fn row(&self, j: usize) -> &[f64] {
        &self.data[j * self.k..(j + 1) * self.k]
    }
}

impl ViterbiGather for DenseTranspose {
    #[inline]
    fn gather_max(&self, j: usize, x: &[f64]) -> (f64, usize) {
        let mut best = f64::NEG_INFINITY;
        let mut best_i = 0;
        for (i, (&xi, &aij)) in x.iter().zip(self.row(j)).enumerate() {
            let s = xi * aij;
            if s > best {
                best = s;
                best_i = i;
            }
        }
        (best, best_i)
    }
}

impl RowKernels for CsrTransition {
    #[inline]
    fn scatter(&self, i: usize, scale: f64, out: &mut [f64]) {
        self.forward().axpy_row(i, scale, out);
    }

    #[inline]
    fn dot(&self, i: usize, x: &[f64]) -> f64 {
        self.forward().dot_row(i, x)
    }

    #[inline]
    fn accumulate_xi(&self, i: usize, scale: f64, w: &[f64], out: &mut [f64]) {
        let (cols, vals) = self.forward().row(i);
        for (&j, &aij) in cols.iter().zip(vals) {
            out[j as usize] += scale * aij * w[j as usize];
        }
    }
}

impl ViterbiGather for CsrTransition {
    #[inline]
    fn gather_max(&self, j: usize, x: &[f64]) -> (f64, usize) {
        self.transposed().argmax_product_row(j, x)
    }
}

/// The `t = 0` row of both the filter and Viterbi: `row_j = π_j · e_j`.
#[inline]
pub fn initial_step(pi: &[f64], e: &[f64], row: &mut [f64]) {
    for ((r, &p), &ej) in row.iter_mut().zip(pi).zip(e) {
        *r = p * ej;
    }
}

/// One forward (filter) step before rescaling: `row = (α̂(t−1)ᵀ A) ⊙ e`,
/// skipping zero predecessors.
#[inline]
pub fn forward_step<R: RowKernels>(rows: &R, prev: &[f64], e: &[f64], row: &mut [f64]) {
    row.fill(0.0);
    for (i, &p) in prev.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        rows.scatter(i, p, row);
    }
    for (r, &ej) in row.iter_mut().zip(e) {
        *r *= ej;
    }
}

/// One Viterbi step before normalization: `cur_j = (max_i δ_i(t−1) a_ij) ·
/// e_j`, with the argmax in `psi`.
#[inline]
pub fn viterbi_step<G: ViterbiGather>(
    preds: &G,
    prev: &[f64],
    e: &[f64],
    cur: &mut [f64],
    psi: &mut [usize],
) {
    for (j, ((c, p), &ej)) in cur.iter_mut().zip(psi.iter_mut()).zip(e).enumerate() {
        let (best, best_i) = preds.gather_max(j, prev);
        *c = best * ej;
        *p = best_i;
    }
}

/// One backward step: `β(t) = A · (e(t+1) ⊙ β(t+1))`, divided by its sum
/// when positive. `w` is a length-`k` work row.
#[inline]
pub fn backward_step<R: RowKernels>(
    rows: &R,
    next_e: &[f64],
    next_beta: &[f64],
    w: &mut [f64],
    beta: &mut [f64],
) {
    for ((wj, &e), &b) in w.iter_mut().zip(next_e).zip(next_beta) {
        *wj = e * b;
    }
    for (i, r) in beta.iter_mut().enumerate() {
        *r = rows.dot(i, w);
    }
    let norm: f64 = beta.iter().sum();
    if norm > 0.0 {
        for v in beta.iter_mut() {
            *v /= norm;
        }
    }
}

/// One ξ step: `ξ_ij += α̂_i(t−1) · a_ij · w_j`, skipping zero predecessors.
#[inline]
pub fn xi_step<R: RowKernels>(rows: &R, alpha_prev: &[f64], w: &[f64], xi: &mut Matrix) {
    for (i, &ap) in alpha_prev.iter().enumerate() {
        if ap == 0.0 {
            continue;
        }
        rows.accumulate_xi(i, ap, w, xi.row_mut(i));
    }
}

/// Running beam statistics of one recursion: `Σ ε_t`, `max ε_t` and the
/// log-likelihood deficit estimate `Σ −ln(1−ε_t)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BeamStats {
    /// `Σ_t ε_t`.
    pub total: f64,
    /// `max_t ε_t`.
    pub max: f64,
    /// `Σ_t −ln(1−ε_t)`.
    pub bound: f64,
}

impl BeamStats {
    /// Folds in the relative mass `eps` one step pruned (no-op at 0).
    #[inline]
    pub fn record(&mut self, eps: f64) {
        if eps > 0.0 {
            self.total += eps;
            if eps > self.max {
                self.max = eps;
            }
            self.bound -= (-eps).ln_1p();
        }
    }
}

/// Zeroes entries of `row` below `beam × max(row)` and returns the relative
/// mass removed, `ε = pruned / (pruned + kept)`. With `beam == 0.0` (or a
/// degenerate row) the row is left untouched and `0.0` is returned, so the
/// dense engines and the exact sparse configuration never perturb a bit.
pub fn beam_prune(row: &mut [f64], beam: f64) -> f64 {
    if beam <= 0.0 {
        return 0.0;
    }
    let mut m = 0.0_f64;
    for &v in row.iter() {
        m = m.max(v);
    }
    // `m` cannot be NaN: it starts at 0.0 and `f64::max` keeps the non-NaN
    // operand, so `<=` is a complete degenerate-row check here.
    if m <= 0.0 || !m.is_finite() {
        return 0.0;
    }
    // Branchless select: whether an entry survives is data-dependent and
    // close to a coin flip per element, so a conditional here costs a
    // mispredict per entry — masking by 0.0/1.0 keeps the loop a straight
    // line of multiplies the compiler can vectorize. Multiplying a kept
    // value by 1.0 reproduces it bit-for-bit, and the `+ 0.0` terms added
    // to each accumulator leave the branchy sums unchanged (all entries
    // are non-negative), so the ε accounting is identical.
    let cut = beam * m;
    let mut kept = 0.0;
    let mut pruned = 0.0;
    for v in row.iter_mut() {
        let keep = f64::from(u8::from(*v >= cut));
        let drop = 1.0 - keep;
        pruned += *v * drop;
        kept += *v * keep;
        *v *= keep;
    }
    if pruned <= 0.0 {
        return 0.0;
    }
    pruned / (pruned + kept)
}

/// Normalizes one scaled forward row in place; mirrors the reference
/// engine's `normalize_in_place` + floored-log semantics exactly. Returns
/// the raw normalizer `c̃_t` (0.0 when the row had to be floored to uniform)
/// and the log scaling constant `log c_t = log c̃_t + shift`.
pub fn scale_row(row: &mut [f64], shift: f64) -> (f64, f64) {
    let c: f64 = row.iter().sum();
    if c > 0.0 && c.is_finite() {
        for v in row.iter_mut() {
            *v /= c;
        }
        (c, c.ln() + shift)
    } else {
        let u = 1.0 / row.len() as f64;
        for v in row.iter_mut() {
            *v = u;
        }
        (0.0, f64::MIN_POSITIVE.ln() + shift)
    }
}

/// Finishes a filter row: beam-prunes it (recording ε into `stats`), then
/// rescales it. Returns `(c̃_t, log c_t)` as [`scale_row`] does.
#[inline]
pub fn filter_finish(row: &mut [f64], shift: f64, beam: f64, stats: &mut BeamStats) -> (f64, f64) {
    stats.record(beam_prune(row, beam));
    scale_row(row, shift)
}

/// Finishes a Viterbi row: divides it by its max, then beam-prunes it.
/// Returns `(ln max, ε)`, or `None` with the row untouched when the max is
/// zero or not finite (every candidate path has probability zero).
#[inline]
pub fn viterbi_normalize(cur: &mut [f64], beam: f64) -> Option<(f64, f64)> {
    let m = cur.iter().cloned().fold(0.0_f64, f64::max);
    if !m.is_finite() || m <= 0.0 {
        return None;
    }
    for p in cur.iter_mut() {
        *p /= m;
    }
    Some((m.ln(), beam_prune(cur, beam)))
}

/// First-occurrence argmax of a Viterbi row, seeded at `(0, −∞)`: the state
/// a backtrack starts from, and its score.
#[inline]
pub fn best_state(row: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::NEG_INFINITY);
    for (j, &v) in row.iter().enumerate() {
        if v > best.1 {
            best = (j, v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseParams;

    fn matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, 0.0, 0.5],
            vec![0.2, 0.3, 0.5],
            vec![0.0, 0.9, 0.1],
        ])
        .unwrap()
    }

    /// Under the exact compile both representations run the same ops in the
    /// same order, so every step agrees bit for bit.
    #[test]
    fn dense_and_exact_csr_steps_agree_bitwise() {
        let a = matrix();
        let mut at = DenseTranspose::default();
        at.rebuild(&a);
        let csr = CsrTransition::compile(&a, SparseParams::exact()).unwrap();
        let prev = [0.25, 0.0, 0.75];
        let e = [0.3, 0.6, 0.1];

        let (mut d, mut s) = ([0.0; 3], [0.0; 3]);
        forward_step(&a, &prev, &e, &mut d);
        forward_step(&csr, &prev, &e, &mut s);
        assert_eq!(d, s);

        let (mut dp, mut sp) = ([9usize; 3], [9usize; 3]);
        viterbi_step(&at, &prev, &e, &mut d, &mut dp);
        viterbi_step(&csr, &prev, &e, &mut s, &mut sp);
        assert_eq!((d, dp), (s, sp));

        let (mut w, mut db, mut sb) = ([0.0; 3], [0.0; 3], [0.0; 3]);
        backward_step(&a, &e, &prev, &mut w, &mut db);
        backward_step(&csr, &e, &prev, &mut w, &mut sb);
        assert_eq!(db, sb);

        let (mut dx, mut sx) = (Matrix::zeros(3, 3), Matrix::zeros(3, 3));
        xi_step(&a, &prev, &e, &mut dx);
        xi_step(&csr, &prev, &e, &mut sx);
        assert_eq!(dx, sx);
    }

    /// Dense seeds the gather at −∞ and CSR at 0.0; both keep the first
    /// index on ties, and an all-zero column resolves to predecessor 0.
    #[test]
    fn gather_keeps_first_occurrence() {
        let a = matrix();
        let mut at = DenseTranspose::default();
        at.rebuild(&a);
        assert_eq!(at.row(1), &[0.0, 0.3, 0.9]);
        assert_eq!(at.gather_max(0, &[0.4, 1.0, 0.0]), (0.2, 0));
        assert_eq!(at.gather_max(2, &[1.0, 1.0, 0.0]), (0.5, 0));
        assert_eq!(at.gather_max(1, &[0.0; 3]), (0.0, 0));
        assert_eq!(best_state(&[0.5, 1.0, 1.0]), (1, 1.0));
    }

    #[test]
    fn viterbi_normalize_refuses_a_vanished_row() {
        let mut row = [0.0, 0.0];
        assert_eq!(viterbi_normalize(&mut row, 0.0), None);
        let mut row = [0.5, 0.25];
        let (ln_m, eps) = viterbi_normalize(&mut row, 0.6).unwrap();
        assert_eq!((ln_m, row), (0.5f64.ln(), [1.0, 0.0]));
        assert!((eps - 1.0 / 3.0).abs() < 1e-15);
    }
}
