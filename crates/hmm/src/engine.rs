//! The offline scaled engine, generic over the transition representation.
//!
//! One forward pass, one backward pass, one ξ loop, one Viterbi loop and one
//! backtrack, each a loop over the step functions of [`crate::kernels`]
//! (where the operation order is documented). [`crate::scaled`] runs them
//! over the dense matrix with no beam; [`crate::sparse`] runs them over a
//! [`crate::sparse::CsrTransition`] with its beam and keeps the report.

use crate::emission::Emission;
use crate::error::HmmError;
use crate::forward_backward::SequenceStats;
use crate::kernels::{
    backward_step, best_state, filter_finish, forward_step, initial_step, viterbi_normalize,
    viterbi_step, xi_step, BeamStats, RowKernels, ViterbiGather,
};
use crate::model::Hmm;
use crate::scaled::emission_likelihood_row;
use crate::workspace::InferenceWorkspace;
use dhmm_linalg::Matrix;

/// The error reason of a forward–backward or likelihood call on an empty
/// sequence.
pub(crate) const FB_EMPTY: &str = "cannot run forward-backward on an empty sequence";

/// The error reason of a decode call on an empty sequence.
pub(crate) const DECODE_EMPTY: &str = "cannot decode an empty sequence";

/// Rejects an empty sequence with `empty` as the reason, sizes the
/// workspace and fills its emission rows and per-step shifts. Returns `T`.
pub(crate) fn prepare<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
    empty: &str,
) -> Result<usize, HmmError> {
    let t_len = observations.len();
    if t_len == 0 {
        return Err(HmmError::InvalidData {
            reason: empty.into(),
        });
    }
    let k = model.num_states();
    ws.ensure(k, t_len);
    for (t, obs) in observations.iter().enumerate() {
        let row = &mut ws.emis[t * k..(t + 1) * k];
        ws.shifts[t] = emission_likelihood_row(model.emission(), obs, row);
    }
    Ok(t_len)
}

/// The scaled forward pass into the workspace (α̂ rows, raw and log scaling
/// constants), with the per-step `beam` (0 disables it).
pub(crate) fn forward<R: RowKernels>(
    rows: &R,
    pi: &[f64],
    ws: &mut InferenceWorkspace,
    t_len: usize,
    beam: f64,
) -> BeamStats {
    let k = pi.len();
    let mut stats = BeamStats::default();
    for t in 0..t_len {
        let (prev, rest) = ws.alpha.split_at_mut(t * k);
        let row = &mut rest[..k];
        let e = &ws.emis[t * k..(t + 1) * k];
        if t == 0 {
            initial_step(pi, e, row);
        } else {
            forward_step(rows, &prev[(t - 1) * k..], e, row);
        }
        let (c, log_c) = filter_finish(row, ws.shifts[t], beam, &mut stats);
        ws.scales[t] = c;
        ws.log_scales[t] = log_c;
    }
    stats
}

/// Forward pass, backward pass (β = 1 at the last step; the constant is
/// irrelevant because γ and ξ are re-normalized), then γ and the
/// time-summed ξ.
pub(crate) fn forward_backward<R: RowKernels>(
    rows: &R,
    pi: &[f64],
    ws: &mut InferenceWorkspace,
    t_len: usize,
    beam: f64,
) -> (SequenceStats, BeamStats) {
    let k = pi.len();
    let stats = forward(rows, pi, ws, t_len, beam);

    ws.beta[(t_len - 1) * k..t_len * k].fill(1.0);
    for t in (0..t_len - 1).rev() {
        let (cur, next) = ws.beta.split_at_mut((t + 1) * k);
        let next_e = &ws.emis[(t + 1) * k..(t + 2) * k];
        backward_step(
            rows,
            next_e,
            &next[..k],
            &mut ws.row[..k],
            &mut cur[t * k..],
        );
    }

    // Unary posteriors: gamma(t, i) ∝ alpha(t, i) * beta(t, i).
    let mut gamma = Matrix::zeros(t_len, k);
    for t in 0..t_len {
        let row = gamma.row_mut(t);
        let a_row = &ws.alpha[t * k..(t + 1) * k];
        let b_row = &ws.beta[t * k..(t + 1) * k];
        for ((g, &av), &bv) in row.iter_mut().zip(a_row).zip(b_row) {
            *g = av * bv;
        }
        dhmm_linalg::normalize_in_place(row);
    }

    // Pairwise posteriors summed over time. The per-step normalizer
    // Σ_ij α(t−1,i)·A_ij·b_j(y_t)·β(t,j) equals c̃_t · Σ_j α(t,j)·β(t,j),
    // so it comes from quantities already in the workspace.
    let mut xi_sum = Matrix::zeros(k, k);
    for t in 1..t_len {
        if ws.scales[t] == 0.0 {
            continue;
        }
        let alpha_t = &ws.alpha[t * k..(t + 1) * k];
        let beta_t = &ws.beta[t * k..(t + 1) * k];
        let mut ab = 0.0;
        for (&av, &bv) in alpha_t.iter().zip(beta_t) {
            ab += av * bv;
        }
        let total = ws.scales[t] * ab;
        if !total.is_finite() || total <= 0.0 {
            continue;
        }
        let e_row = &ws.emis[t * k..(t + 1) * k];
        let w = &mut ws.row[..k];
        for ((wv, &e), &b) in w.iter_mut().zip(e_row).zip(beta_t) {
            *wv = e * b / total;
        }
        xi_step(rows, &ws.alpha[(t - 1) * k..t * k], w, &mut xi_sum);
    }

    let log_likelihood = ws.log_scales[..t_len].iter().sum();
    let seq = SequenceStats {
        gamma,
        xi_sum,
        log_likelihood,
    };
    (seq, stats)
}

/// The max-normalized Viterbi recursion and backtrack, with the per-step
/// `beam`. Returns the path, `max_X log P(X, Y)` and the beam statistics,
/// or `None` when every candidate path hits probability zero at some step
/// (the callers then fall back to the log-domain reference).
pub(crate) fn viterbi<G: ViterbiGather>(
    preds: &G,
    pi: &[f64],
    ws: &mut InferenceWorkspace,
    t_len: usize,
    beam: f64,
) -> Option<(Vec<usize>, f64, BeamStats)> {
    let k = pi.len();
    let mut stats = BeamStats::default();
    let mut log_score = 0.0;
    for t in 0..t_len {
        // Two rolling rows: time t's row is delta[(t % 2) * k ..].
        let (first, rest) = ws.delta.split_at_mut(k);
        let second = &mut rest[..k];
        let (prev, cur): (&[f64], &mut [f64]) = if t % 2 == 1 {
            (first, second)
        } else {
            (second, first)
        };
        let e = &ws.emis[t * k..(t + 1) * k];
        if t == 0 {
            initial_step(pi, e, cur);
        } else {
            viterbi_step(preds, prev, e, cur, &mut ws.psi[t * k..(t + 1) * k]);
        }
        let (ln_m, eps) = viterbi_normalize(cur, beam)?;
        log_score += ln_m + ws.shifts[t];
        stats.record(eps);
    }

    let last = (t_len - 1) % 2 * k;
    let (best, best_val) = best_state(&ws.delta[last..last + k]);
    let mut path = vec![0usize; t_len];
    path[t_len - 1] = best;
    for t in (0..t_len - 1).rev() {
        path[t] = ws.psi[(t + 1) * k + path[t + 1]];
    }
    // After normalization the winning entry is exactly 1, but keep the exact
    // identity `score = Σ log m_t + log δ_final(best)` for robustness.
    Some((path, log_score + best_val.ln(), stats))
}
