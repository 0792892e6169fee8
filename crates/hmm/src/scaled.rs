//! Scaled-space (Rabiner scaling-coefficient) inference engine.
//!
//! The reference engine in [`crate::forward_backward`] and [`crate::viterbi`]
//! works through per-state log-probabilities: every time step pays for `k`
//! `ln`/`exp` calls in each of the forward, backward and ξ passes, plus fresh
//! `Matrix`/`Vec` allocations per call. This module runs the same
//! recursions in the *linear* domain with per-step scaling coefficients
//! (Rabiner, 1989): each forward row is renormalized to sum to one, the
//! normalizers `c_t` are remembered, and the sequence log-likelihood is
//! recovered exactly as `log P(Y | λ) = Σ_t log c_t` (equivalently
//! `−Σ_t log ĉ_t` for Rabiner's reciprocal coefficients `ĉ_t = 1/c_t`).
//! All scratch storage lives in a caller-provided
//! [`InferenceWorkspace`](crate::workspace::InferenceWorkspace), so repeated
//! calls perform no allocation beyond the returned statistics.
//!
//! The functions here are thin wrappers: the passes are the generic offline
//! engine run over the dense matrix (Viterbi over a per-call `Aᵀ` held in the
//! workspace), and the per-step operation order is documented once, in
//! [`crate::kernels`].
//!
//! Numerical safety: emission likelihoods are first evaluated in the linear
//! domain ([`Emission::prob_all`]); if an entire row underflows to zero (or
//! overflows), that step is recomputed through shifted log-probabilities
//! using the shared [`crate::util::finite_shift`] guard, exactly like the
//! reference engine. The log-domain reference is kept as the oracle behind
//! [`crate::reference`], and the two engines are equivalence-tested to 1e-9.

use crate::emission::Emission;
use crate::engine;
use crate::error::HmmError;
use crate::forward_backward::SequenceStats;
use crate::model::Hmm;
use crate::util::finite_shift;
use crate::workspace::InferenceWorkspace;

/// Which inference engine to run.
///
/// The scaled engine is the default everywhere; the log-domain reference is
/// retained as a numerical oracle and a debugging fallback. Training configs
/// (`BaumWelchConfig`, and the diversified configs in `dhmm-core`) carry one
/// of these so the engine choice is explicit end to end.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum InferenceBackend {
    /// Linear-domain recursions with per-step scaling coefficients, writing
    /// into a reusable workspace (fast path).
    #[default]
    Scaled,
    /// The original log-domain implementation behind [`crate::reference`]
    /// (oracle path; ignores the workspace).
    LogReference,
    /// CSR-compiled pruned transitions with beam-pruned scaled recursions
    /// (see [`crate::sparse`]): approximate, with the pruning error tracked
    /// in a queryable [`crate::sparse::SparseReport`]. Bit-equal to `Scaled`
    /// under [`crate::sparse::SparseParams::exact`].
    Sparse(crate::sparse::SparseParams),
}

impl InferenceBackend {
    /// Runs one forward–backward pass with the selected engine.
    pub fn forward_backward<E: Emission>(
        self,
        model: &Hmm<E>,
        observations: &[E::Obs],
        ws: &mut InferenceWorkspace,
    ) -> Result<SequenceStats, HmmError> {
        match self {
            Self::Scaled => forward_backward_scaled(model, observations, ws),
            Self::LogReference => crate::reference::forward_backward(model, observations),
            Self::Sparse(params) => {
                crate::sparse::forward_backward_sparse(model, observations, ws, params)
            }
        }
    }

    /// Computes `log P(Y | λ)` with the selected engine (forward pass only
    /// for the scaled engine).
    pub fn log_likelihood<E: Emission>(
        self,
        model: &Hmm<E>,
        observations: &[E::Obs],
        ws: &mut InferenceWorkspace,
    ) -> Result<f64, HmmError> {
        match self {
            Self::Scaled => log_likelihood_scaled(model, observations, ws),
            Self::LogReference => {
                Ok(crate::reference::forward_backward(model, observations)?.log_likelihood)
            }
            Self::Sparse(params) => {
                crate::sparse::log_likelihood_sparse(model, observations, ws, params)
            }
        }
    }

    /// Decodes the most likely state sequence with the selected engine.
    pub fn viterbi<E: Emission>(
        self,
        model: &Hmm<E>,
        observations: &[E::Obs],
        ws: &mut InferenceWorkspace,
    ) -> Result<Vec<usize>, HmmError> {
        Ok(self.viterbi_with_score(model, observations, ws)?.0)
    }

    /// Decodes with the selected engine, returning the path and its joint
    /// log-probability.
    pub fn viterbi_with_score<E: Emission>(
        self,
        model: &Hmm<E>,
        observations: &[E::Obs],
        ws: &mut InferenceWorkspace,
    ) -> Result<(Vec<usize>, f64), HmmError> {
        match self {
            Self::Scaled => viterbi_scaled_with_score(model, observations, ws),
            Self::LogReference => crate::reference::viterbi_with_score(model, observations),
            Self::Sparse(params) => {
                crate::sparse::viterbi_sparse_with_score(model, observations, ws, params)
            }
        }
    }
}

/// Fills `row` with the linear-domain emission likelihoods `b_i(y_t)` of one
/// observation, rescuing a degenerate row (all-zero underflow or a non-finite
/// density) through shifted log-space, and returns the per-step log shift
/// applied (0.0 on the fast path).
///
/// This is the single source of the engine's per-step emission numerics:
/// the offline engine calls it per time step when it prepares a run, and the
/// streaming decoder in `dhmm_stream` calls it per pushed token, so the two
/// see bit-identical emission rows.
pub fn emission_likelihood_row<E: Emission>(emission: &E, obs: &E::Obs, row: &mut [f64]) -> f64 {
    emission.prob_all(obs, row);
    let degenerate = row.iter().any(|v| !v.is_finite()) || row.iter().all(|&v| v == 0.0);
    if degenerate {
        // Underflow (or a non-finite density): redo the step through
        // shifted log-space so the scaled recursions see the same
        // per-step-normalized values as the reference engine.
        emission.log_prob_all(obs, row);
        let shift = finite_shift(row);
        for v in row.iter_mut() {
            let e = (*v - shift).exp();
            *v = if e.is_finite() { e } else { 0.0 };
        }
        shift
    } else {
        0.0
    }
}

/// Runs the scaled forward–backward algorithm for one sequence, writing all
/// intermediates into `ws`, and returns the EM sufficient statistics.
///
/// Equivalent to [`crate::reference::forward_backward`] to within 1e-9 (see
/// the property suite in `tests/properties.rs`), but allocation-free apart
/// from the returned `gamma`/`xi_sum` matrices.
pub fn forward_backward_scaled<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) -> Result<SequenceStats, HmmError> {
    let t_len = engine::prepare(model, observations, ws, engine::FB_EMPTY)?;
    let (stats, _) = engine::forward_backward(model.transition(), model.initial(), ws, t_len, 0.0);
    Ok(stats)
}

/// Computes `log P(Y | λ)` with the scaled forward pass only — no backward
/// pass, no posteriors — which is the cheapest exact likelihood available.
pub fn log_likelihood_scaled<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) -> Result<f64, HmmError> {
    let t_len = engine::prepare(model, observations, ws, engine::FB_EMPTY)?;
    engine::forward(model.transition(), model.initial(), ws, t_len, 0.0);
    Ok(ws.log_scales[..t_len].iter().sum())
}

/// Scaled-space Viterbi decoding: the score recursion runs on linear-domain
/// probabilities with per-step max-normalization (which preserves the argmax
/// and keeps every value in `[0, 1]`); the joint log-probability is recovered
/// from the accumulated log-normalizers.
pub fn viterbi_scaled<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) -> Result<Vec<usize>, HmmError> {
    Ok(viterbi_scaled_with_score(model, observations, ws)?.0)
}

/// Scaled-space Viterbi returning the path and `max_X log P(X, Y | λ)`.
///
/// If every candidate path hits probability exactly zero at some step (the
/// max-normalizer vanishes), the call transparently falls back to the
/// log-domain reference, whose probability floor can still rank such paths.
///
/// Known semantic boundary vs the reference: the reference floors zero
/// `π`/`A` entries at 1e-300 before taking logs, so it can *rank among*
/// zero-probability paths (and, for models combining exact-zero transitions
/// with per-step emission log-spreads beyond ~690 nats, may even prefer a
/// floored path over a positive one). The linear domain cannot emulate that
/// floor — repeated floored steps underflow any `f64` — so this engine
/// treats probability-zero paths as strictly impossible while at least one
/// positive-probability path survives. The two engines agree whenever the
/// model's optimum has positive probability, which the equivalence suite
/// pins on random models; the floored regime is reachable only with
/// hand-built degenerate parameters.
pub fn viterbi_scaled_with_score<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) -> Result<(Vec<usize>, f64), HmmError> {
    let t_len = engine::prepare(model, observations, ws, engine::DECODE_EMPTY)?;
    // The gather walks contiguous predecessor rows of a per-call `Aᵀ`,
    // taken out of the workspace for the run and put back afterwards.
    let mut at = std::mem::take(&mut ws.at);
    at.rebuild(model.transition());
    let run = engine::viterbi(&at, model.initial(), ws, t_len, 0.0);
    ws.at = at;
    match run {
        Some((path, score, _)) => Ok((path, score)),
        None => crate::reference::viterbi_with_score(model, observations),
    }
}
