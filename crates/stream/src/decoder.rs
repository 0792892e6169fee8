//! The streaming decoder: O(k²)-per-token filtering, fixed-lag smoothing and
//! bounded-memory online Viterbi.
//!
//! # Algorithms
//!
//! **Filtering.** The scaled forward recursion of the offline engine, one
//! row per pushed token: the scalar step, the lockstep finish and the
//! offline engines all run the step functions of [`dhmm_hmm::kernels`]
//! (where the operation order is documented once), so the streaming
//! filtered rows and the running `log P(y_0..t) = Σ log c_t` are
//! **bit-identical** to an offline forward pass over the same prefix.
//!
//! **Fixed-lag smoothing.** Rather than paying an O(L·k²) backward pass per
//! token, smoothing runs in amortized-O(k²) blocks: once `2L` un-smoothed
//! steps have accumulated, one backward pass over that `2L` window (started
//! from β = 1 at the newest step, per-row sum-normalized exactly like the
//! offline backward pass) emits the smoothed posteriors of the *oldest* `L`
//! steps — each conditioned on at least `L` tokens of lookahead. A smoothed
//! row for time `s` emitted while the stream is at time `t` equals row `s`
//! of `forward_backward_scaled` over the prefix `y_0..=t` exactly.
//!
//! **Online Viterbi.** The max-product recursion with per-step
//! max-normalization, ψ backpointers in a ring of `W = max(2L, 1)` rows,
//! and two commit rules:
//!
//! * *path convergence*: a level-set walk over the ψ ring finds the newest
//!   time at which every surviving path passes through a single state; the
//!   shared prefix up to that time is committed. Such commits are exact —
//!   whatever the future holds, the offline backtrack must pass through the
//!   merge state — so with `lag ≥ T` the streamed path equals the offline
//!   `viterbi_scaled` path identically. One walk costs O(window · k), so it
//!   is amortized: re-armed only after the window has grown by ~half its
//!   length, bounding its cost at O(k) per token for any window size.
//! * *forced commit at lag `L`*: the label of time `t − L` is emitted no
//!   later than after token `t`, by backtracking from the current best
//!   state. The survivor set is then pruned to the chains consistent with
//!   the committed prefix, so the emitted sequence is always a connected
//!   state path (the constrained optimum given the committed prefix).
//!
//! # Boundary semantics
//!
//! When every candidate path hits probability exactly zero at a step (the
//! Viterbi max-normalizer vanishes), the offline scaled engine falls back to
//! the log-domain reference, which can rank among floored zero-probability
//! paths. A streaming decoder has no such fallback — re-decoding the past is
//! exactly what it must not do — so it floors the row to uniform (mirroring
//! [`dhmm_hmm::scale_row`]'s floor) and continues; path-probability
//! semantics for such steps are as documented on
//! [`dhmm_hmm::viterbi_scaled_with_score`]. The parity suite pins agreement
//! on every input whose optimum has positive probability.

use crate::error::StreamError;
use crate::workspace::{BatchPanel, StreamScratch, StreamWorkspace, TransCache, LANES};
use dhmm_hmm::emission::Emission;
use dhmm_hmm::kernels::{
    backward_step, best_state, filter_finish, forward_step, initial_step, viterbi_normalize,
    viterbi_step, DenseTranspose, RowKernels, ViterbiGather,
};
use dhmm_hmm::model::Hmm;
use dhmm_hmm::scaled::emission_likelihood_row;
use dhmm_hmm::InferenceBackend;
use dhmm_linalg::{normalize_in_place, CsrMatrix};
use dhmm_runtime::Parallelism;
use dhmm_telemetry::{Counter, Histogram, TelemetrySink};

/// The ring-buffer window `W = max(2L, 1)` implied by a lag `L`: `2L` slots
/// so a smoothing block can span `2L` steps, one slot minimum so the filter
/// always has a current row. The single source of the window formula — the
/// commit rules and smoothing invariants are all stated against it.
pub(crate) fn ring_window(lag: usize) -> usize {
    (2 * lag).max(1)
}

/// One fixed-lag smoothing decision, derived by [`smoothing_action`] /
/// [`flush_smoothing_action`]. These two functions are the single source of
/// the smoothing-window extents; only [`StreamingDecoder`] smooths (a
/// [`crate::SessionPool`] returns labels and log-likelihoods, never
/// posteriors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SmoothAction {
    /// `lag = 0`: β ≡ 1 over a window of one, so the smoothed row for `t`
    /// *is* the filtered row — copied out verbatim, never re-normalized
    /// (the α̂ row's sum may differ from 1.0 in the last ulp, and the
    /// offline product with the exact 1.0 β row is an identity).
    CopyFiltered,
    /// A full window has accumulated: run the backward recursion from
    /// `from` (where β = 1) down to `downto`, emitting the γ rows of times
    /// `downto ..= emit_upto` — the oldest `L` steps, each conditioned on
    /// at least `L` tokens of lookahead.
    Block {
        from: usize,
        downto: usize,
        emit_upto: usize,
    },
}

/// The per-push smoothing decision for the token at time `t`, given the
/// first not-yet-emitted time `smoothed_upto`. With `lag > 0` the block
/// fires once `2L` un-smoothed steps have accumulated; because the boundary
/// is checked on every push, it is reached by exact equality, so every
/// mid-stream block spans exactly `2L` steps and emits exactly `L` rows.
pub(crate) fn smoothing_action(lag: usize, t: usize, smoothed_upto: usize) -> Option<SmoothAction> {
    if lag == 0 {
        return Some(SmoothAction::CopyFiltered);
    }
    if t + 1 - smoothed_upto >= 2 * lag {
        debug_assert_eq!(
            t + 1 - smoothed_upto,
            2 * lag,
            "smoothing boundary overshot: checked every push, reached by equality"
        );
        Some(SmoothAction::Block {
            from: t,
            downto: smoothed_upto,
            emit_upto: t - lag,
        })
    } else {
        None
    }
}

/// The flush-time smoothing decision: everything not yet emitted, each row
/// conditioned on the (now final) full prefix — `emit_upto` extends to
/// `last`, unlike the mid-stream block's `t − lag`. `None` when `lag = 0`
/// (every row was copied out as it streamed) or when the block passes have
/// already emitted through `last`.
pub(crate) fn flush_smoothing_action(
    lag: usize,
    last: usize,
    smoothed_upto: usize,
) -> Option<SmoothAction> {
    if lag > 0 && smoothed_upto <= last {
        Some(SmoothAction::Block {
            from: last,
            downto: smoothed_upto,
            emit_upto: last,
        })
    } else {
        None
    }
}

/// Configuration of a streaming decoder or session pool.
///
/// Not `Copy`: the [`TelemetrySink`] carries a shared registry handle.
/// Cloning is cheap (an `Arc` bump at most).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Fixed lag `L`: the Viterbi label of time `t` is emitted no later than
    /// after token `t + L`. In a [`StreamingDecoder`], smoothed posteriors
    /// also condition on at least `L` tokens of lookahead; in a
    /// [`crate::SessionPool`], `lag` bounds commit latency only — the pool
    /// emits no posteriors (use a [`StreamingDecoder`] for them). Memory is
    /// O(max(2L, 1) · k) per session. `lag ≥ T` makes the stream exactly
    /// equivalent to offline decoding; `lag = 0` degenerates to
    /// committed-as-you-go greedy filtering.
    pub lag: usize,
    /// Inference engine. Streaming supports [`InferenceBackend::Scaled`]
    /// (the default) and [`InferenceBackend::Sparse`] — both have a
    /// constant-per-token linear-domain recursion; the log-domain reference
    /// is offline-only and is rejected at construction. Under the sparse
    /// backend the per-session log-likelihood is a certified lower bound on
    /// the exact value under the pruned matrix, with the gap tracked by
    /// [`StreamWorkspace::sparse_error_bound`]; pool ticks batch in
    /// lockstep under both backends (the sparse groups walk the shared
    /// CSR-compiled matrix once per step).
    pub backend: InferenceBackend,
    /// Worker policy for [`crate::SessionPool`] batch ticks (ignored by a
    /// standalone decoder, which is single-session and inherently serial).
    pub parallelism: Parallelism,
    /// Per-session cap on the pending-token queue of a [`crate::SessionPool`]
    /// (`None` = unbounded). When a session holds this many un-ticked
    /// tokens, further pushes fail with [`StreamError::QueueFull`] — the
    /// backpressure signal a serving front-end forwards to its client.
    pub pending_cap: Option<usize>,
    /// Per-session cap on the committed-label out-queue of a
    /// [`crate::SessionPool`] (`None` = unbounded). When a session's
    /// consumer has let this many committed labels accumulate without
    /// `take_committed`, further pushes fail with [`StreamError::Lagging`].
    pub committed_cap: Option<usize>,
    /// Batched lockstep decoding in [`crate::SessionPool::tick`]: every
    /// session with pending tokens advances one token per step through a
    /// shared structure-of-arrays panel (one fused filter + Viterbi pass
    /// over the transition matrix instead of S separate k² loops), the
    /// panel shrinking to the sessions still holding tokens; once one
    /// session remains it finishes on the scalar step. Output is
    /// bit-identical to the per-session path; disable only to A/B the
    /// scalar path (ignored by a standalone decoder, which is
    /// single-session by construction).
    pub lockstep: bool,
    /// Metrics sink. [`TelemetrySink::Disabled`] (the default) compiles the
    /// record path to no-ops — no clock reads, no atomics; with a registry
    /// attached, counters/histograms cost relaxed `fetch_add`s and stay
    /// allocation-free on the push/tick hot path (pinned by
    /// `tests/zero_alloc.rs`). Telemetry never touches the arithmetic:
    /// decoded output is bit-identical either way.
    pub telemetry: TelemetrySink,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            lag: 16,
            backend: InferenceBackend::default(),
            parallelism: Parallelism::default(),
            pending_cap: None,
            committed_cap: None,
            lockstep: true,
            telemetry: TelemetrySink::default(),
        }
    }
}

impl StreamConfig {
    /// Returns a copy with the given fixed lag `L`.
    pub fn with_lag(mut self, lag: usize) -> Self {
        self.lag = lag;
        self
    }

    /// Returns a copy with the given inference backend (validated at
    /// decoder/pool construction; the scaled and sparse engines can stream,
    /// the log-domain reference cannot).
    pub fn with_backend(mut self, backend: InferenceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy with the given worker policy for pool batch ticks.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns a copy with the given pending-token queue cap (`None` =
    /// unbounded).
    pub fn with_pending_cap(mut self, cap: Option<usize>) -> Self {
        self.pending_cap = cap;
        self
    }

    /// Returns a copy with the given committed-label queue cap (`None` =
    /// unbounded).
    pub fn with_committed_cap(mut self, cap: Option<usize>) -> Self {
        self.committed_cap = cap;
        self
    }

    /// Returns a copy with batched lockstep pool ticks enabled or disabled.
    pub fn with_lockstep(mut self, lockstep: bool) -> Self {
        self.lockstep = lockstep;
        self
    }

    /// Returns a copy recording metrics into the given sink
    /// ([`TelemetrySink::Disabled`] by default).
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The ring window `W = max(2L, 1)` this config implies.
    pub fn window(&self) -> usize {
        ring_window(self.lag)
    }

    /// Rejects backends that cannot stream and out-of-range backend
    /// parameters.
    pub fn validate(&self) -> Result<(), StreamError> {
        match self.backend {
            InferenceBackend::Scaled => Ok(()),
            InferenceBackend::Sparse(params) => {
                params.validate().map_err(|e| StreamError::InvalidConfig {
                    reason: e.to_string(),
                })
            }
            other => Err(StreamError::UnsupportedBackend { backend: other }),
        }
    }
}

/// Everything one `push` produces. All slices borrow the decoder's internal
/// buffers and are valid until the next push/flush — copy out what must
/// outlive the step.
#[derive(Debug)]
pub struct StepOutput<'a> {
    /// Time index of the token just pushed (0-based).
    pub t: usize,
    /// Number of states `k` (the stride of `smoothed`).
    pub num_states: usize,
    /// Running `log P(y_0..=t)`, recovered from the accumulated `log c_t`.
    pub log_likelihood: f64,
    /// Filtered posterior `P(X_t | y_0..=t)` (the scaled α̂ row — a
    /// distribution unless the step was floored).
    pub filtered: &'a [f64],
    /// Viterbi labels newly committed by this push, ascending in time.
    pub committed: &'a [usize],
    /// Time index of `committed[0]` (meaningful when non-empty).
    pub committed_start: usize,
    /// Newly emitted fixed-lag smoothed posteriors, row-major
    /// (`len / num_states` rows), ascending in time; each row conditions on
    /// the whole prefix `y_0..=t`.
    pub smoothed: &'a [f64],
    /// Time index of the first smoothed row (meaningful when non-empty).
    pub smoothed_start: usize,
}

/// Everything `flush` produces: the Viterbi tail, the remaining smoothed
/// rows, and the final stream scalars.
#[derive(Debug)]
pub struct FlushOutput<'a> {
    /// Number of states `k` (the stride of `smoothed`).
    pub num_states: usize,
    /// Final `log P(y_0..=T-1)`.
    pub log_likelihood: f64,
    /// Joint log-probability `max_X log P(X, Y)` of the full committed path
    /// (exactly the offline `viterbi_scaled_with_score` score when no forced
    /// commit fired mid-stream).
    pub viterbi_log_score: f64,
    /// The remaining (previously uncommitted) Viterbi labels.
    pub committed: &'a [usize],
    /// Time index of `committed[0]` (meaningful when non-empty).
    pub committed_start: usize,
    /// The remaining smoothed posterior rows, ascending in time.
    pub smoothed: &'a [f64],
    /// Time index of the first smoothed row (meaningful when non-empty).
    pub smoothed_start: usize,
}

/// Advances one session by one token. Free function so the standalone
/// decoder and the session pool share one implementation (the pool calls it
/// with leased per-worker scratch).
///
/// `epoch` keys the scratch's transition-layout cache (see
/// [`crate::workspace::StreamScratch`]): the pool passes its publish epoch,
/// a standalone decoder always passes 0. The backend picks the transition
/// representation once per token — the dense `A` and its cached `Aᵀ`, or
/// the CSR-compiled pruned matrix with its per-step beam, whose `Σ −ln(1−ε_t)`
/// accumulates into the workspace's log-likelihood error bound — and
/// [`scalar_step`] runs over it.
///
/// Runs the filter, the Viterbi step and both commit rules, but no
/// fixed-lag smoothing: a pool returns labels only, and
/// [`StreamingDecoder::push`] applies the smoothing step itself.
pub(crate) fn push_token<E: Emission>(
    model: &Hmm<E>,
    lag: usize,
    backend: InferenceBackend,
    epoch: u64,
    ws: &mut StreamWorkspace,
    scratch: &mut StreamScratch,
    obs: &E::Obs,
) {
    assert!(
        !ws.finished,
        "StreamingDecoder::push after flush; call reset() to start a new stream"
    );
    let k = model.num_states();
    let window = ring_window(lag);
    if ws.shape() != (k, window) {
        // First push of a fresh/reshaped workspace; mid-stream the shape is
        // fixed by the (model, lag) pair, so this never fires after t = 0.
        ws.ensure(k, window);
    }
    scratch.ensure(k, window);
    scratch.clear_outputs();

    let t = ws.t;
    let a = model.transition();
    // Transition layouts are epoch-keyed: no-op once warm.
    scratch.trans.prepare(a, epoch, backend);
    let trans = &scratch.trans;
    match backend {
        InferenceBackend::Sparse(params) => {
            let csr = &trans.csr;
            scalar_step(model, csr, csr, params.beam, ws, &mut scratch.row, obs);
        }
        _ => scalar_step(model, a, &trans.at, 0.0, ws, &mut scratch.row, obs),
    }

    commit_rules(ws, scratch, t, lag);
    ws.t = t + 1;
}

/// The filter and Viterbi steps of one token over one transition
/// representation (`rows` for the forward scatter, `preds` for the Viterbi
/// gather): the emission row, the [`dhmm_hmm::kernels`] steps, and the
/// finishes the lockstep path shares. `row` is a length-`k` work row: with
/// `lag = 0` the ring has one slot, so the new α̂ row cannot be accumulated
/// in place over the previous one.
fn scalar_step<E: Emission, R: RowKernels, G: ViterbiGather>(
    model: &Hmm<E>,
    rows: &R,
    preds: &G,
    beam: f64,
    ws: &mut StreamWorkspace,
    row: &mut [f64],
    obs: &E::Obs,
) {
    let k = ws.num_states;
    let t = ws.t;
    let slot = ws.slot(t);
    let cell = slot * k..(slot + 1) * k;
    let shift = emission_likelihood_row(model.emission(), obs, &mut ws.emis[cell.clone()]);

    let e = &ws.emis[cell.clone()];
    if t == 0 {
        initial_step(model.initial(), e, &mut ws.alpha[cell.clone()]);
    } else {
        let row = &mut row[..k];
        forward_step(rows, ws.alpha_row(t - 1), e, row);
        ws.alpha[cell.clone()].copy_from_slice(row);
    }
    finish_filter(ws, slot, shift, beam);

    // Time t's Viterbi row is delta[(t % 2) * k ..], as offline.
    let e = &ws.emis[cell.clone()];
    let (even, odd) = ws.delta.split_at_mut(k);
    let odd = &mut odd[..k];
    if t == 0 {
        initial_step(model.initial(), e, even);
    } else {
        let (prev, cur) = if t % 2 == 1 {
            (&*even, odd)
        } else {
            (&*odd, even)
        };
        viterbi_step(preds, prev, e, cur, &mut ws.psi[cell]);
    }
    finish_viterbi(ws, t, shift, beam);
}

/// Filter finish of the scalar and lockstep steps: the beam (CSR only) and
/// rescale of time `t`'s α̂ row in ring slot `slot`, folded into the running
/// log-likelihood and beam statistics.
#[inline]
fn finish_filter(ws: &mut StreamWorkspace, slot: usize, shift: f64, beam: f64) {
    let k = ws.num_states;
    let row = &mut ws.alpha[slot * k..(slot + 1) * k];
    let (_, log_c) = filter_finish(row, shift, beam, &mut ws.beam);
    ws.log_likelihood += log_c;
}

/// Viterbi finish of the scalar and lockstep steps: normalize (and beam)
/// time `t`'s score row. The beam's ε is deliberately not folded into the
/// filter's error bound: it discards competing paths only. When every
/// surviving path hit probability zero the row is floored to uniform — the
/// streaming analogue of the offline engine's reference fallback (see the
/// module docs' boundary-semantics note).
#[inline]
fn finish_viterbi(ws: &mut StreamWorkspace, t: usize, shift: f64, beam: f64) {
    let k = ws.num_states;
    let cur = &mut ws.delta[(t % 2) * k..(t % 2) * k + k];
    let log_m = match viterbi_normalize(cur, beam) {
        Some((ln_m, _)) => ln_m,
        None => {
            cur.fill(1.0 / k as f64);
            f64::MIN_POSITIVE.ln()
        }
    };
    ws.viterbi_log += log_m + shift;
}

/// The per-step beam of a backend (0 disables it; only the CSR backend has
/// one).
fn beam_of(backend: InferenceBackend) -> f64 {
    match backend {
        InferenceBackend::Sparse(params) => params.beam,
        _ => 0.0,
    }
}

/// Both Viterbi commit rules for the token at time `t` — shared verbatim by
/// the scalar path and the lockstep finish pass.
fn commit_rules(ws: &mut StreamWorkspace, scratch: &mut StreamScratch, t: usize, lag: usize) {
    // --- Commit rule 1: path convergence (amortized). The level-set walk
    // costs O(window · k), so it is re-armed only after the uncommitted
    // window has grown by ~half its post-walk length: total walk cost stays
    // O(k) amortized per token even in the lag ≥ T exact-offline mode,
    // where the window grows with the stream. Skipping a check never
    // violates the lag bound (rule 2 runs every push) and never changes the
    // final path — only how early its stable prefix is emitted.
    if t >= ws.next_converge {
        converge_commit(ws, scratch, t);
        ws.next_converge = t + 1 + (t + 1 - ws.base) / 2;
    }

    // --- Commit rule 2: forced commit at lag L.
    if ws.base + lag <= t {
        force_commit(ws, scratch, t, t - lag);
    }
}

/// Lockstep step 1 of 3 — stages session `s`'s next token into the group
/// panel: computes the emission row into the session's ring (recording the
/// log-shift), and scatters `α̂(t-1)`, `δ(t-1)` and `e(t)` into the
/// state-major panel columns (zeros for `α̂` at `t = 0`: the fused kernel's
/// sums contribute nothing and the `π ⊙ e` row is written by the finish
/// pass).
///
/// `δ(t-1)` is reloaded from the session's rolling rows every step rather
/// than carried across steps inside the panel, because a forced commit in
/// the previous step's finish pass prunes the rolling row *in place* — a
/// stale panel copy would silently diverge from the scalar path.
pub(crate) fn lockstep_stage<E: Emission>(
    model: &Hmm<E>,
    lag: usize,
    ws: &mut StreamWorkspace,
    panel: &mut BatchPanel,
    s: usize,
    obs: &E::Obs,
) {
    assert!(
        !ws.finished,
        "lockstep step on a flushed session; the pool must not group it"
    );
    let k = model.num_states();
    let window = ring_window(lag);
    if ws.shape() != (k, window) {
        ws.ensure(k, window);
    }
    let t = ws.t;
    let slot = ws.slot(t);
    // Session s's cell for state j sits at `tb + j * LANES` (tile-major).
    let tb = (s / LANES) * k * LANES + (s % LANES);

    // Emission row into the ring — identical numerics to the scalar step.
    let shift = {
        let e_row = &mut ws.emis[slot * k..(slot + 1) * k];
        emission_likelihood_row(model.emission(), obs, e_row)
    };
    panel.shift[s] = shift;
    panel.first[s] = t == 0;

    if t == 0 {
        for j in 0..k {
            panel.alpha_t[tb + j * LANES] = 0.0;
        }
    } else {
        let alpha = ws.alpha_row(t - 1);
        let prev = &ws.delta[((t - 1) % 2) * k..((t - 1) % 2) * k + k];
        for j in 0..k {
            panel.alpha_t[tb + j * LANES] = alpha[j];
            panel.prev_t[tb + j * LANES] = prev[j];
        }
    }
    let e_row = &ws.emis[slot * k..(slot + 1) * k];
    for (j, &e) in e_row.iter().enumerate() {
        panel.emis_t[tb + j * LANES] = e;
    }
}

/// Lockstep step 2 of 3 — the fused filter + Viterbi kernel over the
/// state-major panels. One pass over the transition matrix advances both
/// per-token recursions for every session at once: for state `j` and
/// session `s`,
///
/// * `sum_t[j][s]  = Σ_i α̂_i(t-1)[s] · a[(i, j)]` (the filter's transition
///   sum — the emission multiply and rescale happen in the finish pass),
/// * `cur_t[j][s]  = (max_i δ_i(t-1)[s] · a[(i, j)]) · e_j(t)[s]`, with the
///   argmax in `psi_t`.
///
/// The single entry for both representations, with one AVX2 dispatch point
/// ([`walk_panel`]): the backend picks, once per step, the dense walk over
/// the scratch's cached `Aᵀ` or the CSR walk over `Ãᵀ` — the same layouts
/// the scalar Viterbi gather reads. Both bodies are `#[inline(always)]`, so
/// each compiles inside its AVX2 instantiation.
///
/// Per session, both bodies reproduce the row kernels of
/// [`dhmm_hmm::kernels`] bit for bit:
///
/// * the filter sum accumulates over ascending `i` with no skip — the row
///   kernel skips `α̂_i = 0` predecessors, but adding their `+0.0` terms is
///   bit-identical because every partial sum is non-negative;
/// * the max runs over ascending `i` with a strict `>` and the
///   representation's seed (dense `−∞`, CSR `0.0`), so ties keep the
///   first-occurrence argmax and the final `best · e` multiply matches.
///
/// Pad lanes (`sessions..width`) compute garbage that is never gathered;
/// blends are lane-wise, so they cannot contaminate real sessions.
/// Sessions at `t = 0` get garbage Viterbi columns here too, overwritten by
/// the finish pass before anything reads them (`ψ(0)` is never read — the
/// scalar path never writes it either).
pub(crate) fn lockstep_kernel(
    panel: &mut BatchPanel,
    trans: &TransCache,
    backend: InferenceBackend,
) {
    match backend {
        InferenceBackend::Sparse(_) => walk_panel(panel, trans.csr.transposed()),
        _ => walk_panel(panel, &trans.at),
    }
}

/// A transposed transition layout a lockstep panel step walks.
trait PanelWalk {
    /// One fused filter + Viterbi panel step over this layout.
    fn panel_step(&self, panel: &mut BatchPanel);
}

impl PanelWalk for DenseTranspose {
    #[inline(always)]
    fn panel_step(&self, panel: &mut BatchPanel) {
        dense_panel_step(panel, self);
    }
}

impl PanelWalk for CsrMatrix {
    #[inline(always)]
    fn panel_step(&self, panel: &mut BatchPanel) {
        sparse_panel_step(panel, self);
    }
}

/// The runtime AVX2 dispatch, instantiated once per layout so each AVX2
/// twin holds only its own body.
fn walk_panel<P: PanelWalk>(panel: &mut BatchPanel, preds: &P) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by runtime detection; the function only requires
        // the AVX2 feature it declares.
        return unsafe { walk_panel_avx2(panel, preds) };
    }
    preds.panel_step(panel);
}

/// AVX2 instantiation of [`walk_panel`]. The body is identical — enabling
/// the feature only widens the autovectorized lanes (the compare+blend
/// select needs `vblendvpd`, which baseline x86-64 lacks); every lane still
/// computes the same IEEE mul/add/max/compare sequence, so results are
/// bit-identical to the generic build. FMA contraction is never emitted
/// (Rust does not relax float semantics), so `Σ α̂·a` keeps the row
/// kernels' separate mul + add roundings.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_panel_avx2<P: PanelWalk>(panel: &mut BatchPanel, preds: &P) {
    preds.panel_step(panel);
}

/// The dense body of [`lockstep_kernel`], register-tiled: the tile-major
/// panel layout lets it walk [`LANES`]-wide session blocks with fixed-size
/// accumulators the compiler keeps in vector registers over the whole
/// predecessor loop (instead of a memory-carried running max), while the
/// predecessor loop reads *contiguous* memory via exact-size chunks — no
/// strided loads and no per-iteration bounds checks. The argmax is tracked
/// as an `f64` lane (`fi` counts predecessors; every index < k is exactly
/// representable) so the compare+blend stays in one vector domain, and is
/// cast back at writeout.
///
/// Fusing matters because both recursions stream the same `k × k`
/// transition row per output state: one broadcast of `a[(i, j)]` feeds the
/// filter's multiply-add and the Viterbi's multiply-max, halving loop
/// overhead and `A` traffic versus running a GEMM and a max-product kernel
/// back to back.
#[inline(always)]
fn dense_panel_step(panel: &mut BatchPanel, at: &DenseTranspose) {
    let k = panel.k;
    let kl = k * LANES;
    let tiles = panel.width / LANES;
    for tile in 0..tiles {
        let tb = tile * kl;
        let alpha = &panel.alpha_t[tb..tb + kl];
        let prev = &panel.prev_t[tb..tb + kl];
        for j in 0..k {
            let mut acc = [0.0f64; LANES];
            let mut best = [f64::NEG_INFINITY; LANES];
            let mut besti = [0.0f64; LANES];
            let mut fi = 0.0f64;
            for ((a8, p8), &a_ij) in alpha
                .chunks_exact(LANES)
                .zip(prev.chunks_exact(LANES))
                .zip(at.row(j))
            {
                for l in 0..LANES {
                    acc[l] += a8[l] * a_ij;
                    let cand = p8[l] * a_ij;
                    // `select(cand > best, cand, best)` keeps the old value
                    // on ties (the scalar strict-`>` first-occurrence rule)
                    // and lowers to a single vector max; the argmax blend
                    // reuses its mask.
                    let better = cand > best[l];
                    best[l] = if better { cand } else { best[l] };
                    besti[l] = if better { fi } else { besti[l] };
                }
                fi += 1.0;
            }
            let o = tb + j * LANES;
            let sum = &mut panel.sum_t[o..o + LANES];
            let cur = &mut panel.cur_t[o..o + LANES];
            let emis = &panel.emis_t[o..o + LANES];
            let psi = &mut panel.psi_t[o..o + LANES];
            for l in 0..LANES {
                sum[l] = acc[l];
                cur[l] = best[l] * emis[l];
                psi[l] = besti[l] as usize;
            }
        }
    }
}

/// The CSR body of [`lockstep_kernel`]: one walk of the shared pruned
/// matrix in its **transposed** (predecessor-major) CSR orientation `Ãᵀ`
/// per step, broadcasting each stored `a[(i, j)]` across the
/// [`LANES`]-wide session tiles — the filter's multiply-add and the
/// Viterbi's multiply-max fused on the same broadcast, exactly like the
/// dense body, but touching only the `nnz` surviving entries instead of all
/// `k²`.
///
/// Walking `Ãᵀ` rather than the row-major `Ã` is what lets the accumulators
/// live in registers: row `j` of `Ãᵀ` lists every stored predecessor of
/// state `j`, so the tile's sum / max / argmax lanes for `j` accumulate in
/// three register tiles and store **once** per state — the dense body's
/// structure. A row-major walk would instead scatter data-dependent
/// read-modify-writes into all three panels on every stored entry
/// (3 × [`LANES`] lanes of L1 traffic per entry), which measures *slower*
/// than `S` scalar CSR passes at the densities the backend targets. The
/// argmax lane carries the predecessor index as `f64` (exact for any
/// `u32`) so the select stays a vector blend, as in the dense body.
#[inline(always)]
fn sparse_panel_step(panel: &mut BatchPanel, tr: &CsrMatrix) {
    let k = panel.k;
    let kl = k * LANES;
    let tiles = panel.width / LANES;
    for tile in 0..tiles {
        let tb = tile * kl;
        let alpha = &panel.alpha_t[tb..tb + kl];
        let prev = &panel.prev_t[tb..tb + kl];
        for j in 0..k {
            let mut acc = [0.0f64; LANES];
            let mut best = [0.0f64; LANES];
            let mut besti = [0.0f64; LANES];
            let (cols, vals) = tr.row(j);
            for (&i, &v) in cols.iter().zip(vals) {
                let o = i as usize * LANES;
                let a8: &[f64; LANES] = alpha[o..o + LANES].try_into().unwrap();
                let p8: &[f64; LANES] = prev[o..o + LANES].try_into().unwrap();
                let fi = i as f64;
                for l in 0..LANES {
                    acc[l] += a8[l] * v;
                    let cand = p8[l] * v;
                    // Strict `>` keeps the first-occurrence argmax on ties.
                    let better = cand > best[l];
                    best[l] = if better { cand } else { best[l] };
                    besti[l] = if better { fi } else { besti[l] };
                }
            }
            // One store per state: `cur = best · e`, the dense body's
            // writeout multiply.
            let o = tb + j * LANES;
            let sum = &mut panel.sum_t[o..o + LANES];
            let cur = &mut panel.cur_t[o..o + LANES];
            let emis = &panel.emis_t[o..o + LANES];
            let psi = &mut panel.psi_t[o..o + LANES];
            for l in 0..LANES {
                sum[l] = acc[l];
                cur[l] = best[l] * emis[l];
                psi[l] = besti[l] as usize;
            }
        }
    }
}

/// Lockstep step 3 of 3 — finishes session `s`'s token from the panel:
/// gathers its transition-sum column times the emission row (the last op of
/// the forward step) into the α̂ ring and its `δ(t)`/`ψ(t)` columns into the
/// rolling rows, then runs the scalar step's filter and Viterbi finishes and
/// the commit rules — the same per-token work as [`push_token`], so no
/// smoothing either. Advances `ws.t`.
pub(crate) fn lockstep_finish<E: Emission>(
    model: &Hmm<E>,
    lag: usize,
    backend: InferenceBackend,
    ws: &mut StreamWorkspace,
    scratch: &mut StreamScratch,
    panel: &BatchPanel,
    s: usize,
) {
    let k = ws.num_states;
    let t = ws.t;
    let slot = ws.slot(t);
    let cell = slot * k..(slot + 1) * k;
    let tb = (s / LANES) * k * LANES + (s % LANES);
    let (shift, first) = (panel.shift[s], panel.first[s]);
    let beam = beam_of(backend);
    scratch.ensure(k, ws.window);

    let e = &ws.emis[cell.clone()];
    let row = &mut ws.alpha[cell.clone()];
    if first {
        initial_step(model.initial(), e, row);
    } else {
        for (j, (r, &ej)) in row.iter_mut().zip(e).enumerate() {
            *r = panel.sum_t[tb + j * LANES] * ej;
        }
    }
    finish_filter(ws, slot, shift, beam);

    let parity = (t % 2) * k;
    let cur = &mut ws.delta[parity..parity + k];
    if first {
        initial_step(model.initial(), &ws.emis[cell], cur);
    } else {
        let psi = &mut ws.psi[cell];
        for (j, (c, p)) in cur.iter_mut().zip(psi.iter_mut()).enumerate() {
            *c = panel.cur_t[tb + j * LANES];
            *p = panel.psi_t[tb + j * LANES];
        }
    }
    finish_viterbi(ws, t, shift, beam);

    commit_rules(ws, scratch, t, lag);
    ws.t = t + 1;
}

/// Finds the newest time at which all surviving Viterbi paths pass through a
/// single state (a level-set walk over the ψ ring) and commits the shared
/// prefix `[base ..= merge]`. Appends to `scratch.committed`.
fn converge_commit(ws: &mut StreamWorkspace, scratch: &mut StreamScratch, t: usize) {
    let k = ws.num_states;
    let cur = &ws.delta[(t % 2) * k..(t % 2) * k + k];

    // Seed the level set with the states that can still end the path.
    let set_cur = &mut scratch.set_cur[..k];
    let set_next = &mut scratch.set_next[..k];
    let mut count = 0usize;
    let mut last_state = 0usize;
    for (j, (&p, flag)) in cur.iter().zip(set_cur.iter_mut()).enumerate() {
        *flag = p > 0.0;
        if *flag {
            count += 1;
            last_state = j;
        }
    }
    if count == 0 {
        // Defensive: a fully floored row keeps every state alive.
        set_cur.fill(true);
        count = k;
    }

    let mut merge: Option<(usize, usize)> = None;
    if count == 1 {
        merge = Some((t, last_state));
    } else {
        let mut tau = t;
        while tau > ws.base {
            let psi_row = {
                let s = ws.slot(tau);
                &ws.psi[s * k..(s + 1) * k]
            };
            set_next.fill(false);
            count = 0;
            for (j, &alive) in set_cur.iter().enumerate() {
                if alive {
                    let p = psi_row[j];
                    if !set_next[p] {
                        set_next[p] = true;
                        count += 1;
                        last_state = p;
                    }
                }
            }
            set_cur.copy_from_slice(set_next);
            tau -= 1;
            if count == 1 {
                merge = Some((tau, last_state));
                break;
            }
        }
    }

    if let Some((m, x)) = merge {
        commit_chain(ws, scratch, m, x);
        ws.base = m + 1;
    }
}

/// Commits times `[base ..= commit_upto]` by backtracking from the current
/// best state, then prunes the survivor set to chains consistent with the
/// committed prefix (so the emitted sequence stays a connected path).
fn force_commit(
    ws: &mut StreamWorkspace,
    scratch: &mut StreamScratch,
    t: usize,
    commit_upto: usize,
) {
    let k = ws.num_states;
    // Current best state, first occurrence on ties — the same rule the
    // offline backtrack applies to the final row.
    let (jbest, _) = best_state(&ws.delta[(t % 2) * k..(t % 2) * k + k]);

    // Chain state of the best path at `commit_upto`.
    let mut x = jbest;
    let mut tau = t;
    while tau > commit_upto {
        let s = ws.slot(tau);
        x = ws.psi[s * k + x];
        tau -= 1;
    }
    commit_chain(ws, scratch, commit_upto, x);

    // Prune: states whose survivor chain does not pass through `x` at
    // `commit_upto` are no longer reachable extensions of the committed
    // prefix.
    let roots = &mut scratch.roots[..k];
    for (j, r) in roots.iter_mut().enumerate() {
        *r = j;
    }
    let mut tau = t;
    while tau > commit_upto {
        let s = ws.slot(tau);
        let psi_row = &ws.psi[s * k..(s + 1) * k];
        for r in roots.iter_mut() {
            *r = psi_row[*r];
        }
        tau -= 1;
    }
    let cur = &mut ws.delta[(t % 2) * k..(t % 2) * k + k];
    for (p, &r) in cur.iter_mut().zip(roots.iter()) {
        if r != x {
            *p = 0.0;
        }
    }

    ws.base = commit_upto + 1;
}

/// Reconstructs the (shared) survivor chain ending at `(m, x)` back to
/// `ws.base` and appends the states of times `[base ..= m]` to
/// `scratch.committed` in ascending time order.
fn commit_chain(ws: &StreamWorkspace, scratch: &mut StreamScratch, m: usize, x: usize) {
    let k = ws.num_states;
    let base = ws.base;
    let chain = &mut scratch.chain[..m - base + 1];
    chain[m - base] = x;
    let mut tau = m;
    while tau > base {
        let s = ws.slot(tau);
        chain[tau - 1 - base] = ws.psi[s * k + chain[tau - base]];
        tau -= 1;
    }
    if scratch.committed.is_empty() {
        scratch.committed_start = base;
    }
    scratch.committed.extend_from_slice(chain);
}

/// Flushes the stream: commits the Viterbi tail by backtracking from the
/// best final state. Returns the joint log-score of the committed path.
/// Emits no smoothed rows: [`StreamingDecoder::flush`] runs the smoothing
/// tail itself.
pub(crate) fn flush_stream(ws: &mut StreamWorkspace, scratch: &mut StreamScratch) -> f64 {
    assert!(
        !ws.finished,
        "StreamingDecoder::flush called twice; call reset() to start a new stream"
    );
    let k = ws.num_states.max(1);
    scratch.ensure(k, ws.window.max(1));
    scratch.clear_outputs();
    ws.finished = true;
    if ws.t == 0 {
        return f64::NEG_INFINITY;
    }
    let last = ws.t - 1;

    // Final backtrack, first-occurrence argmax like the offline engine.
    let (jbest, best_val) = best_state(&ws.delta[(last % 2) * k..(last % 2) * k + k]);
    if ws.base <= last {
        commit_chain(ws, scratch, last, jbest);
        ws.base = last + 1;
    }
    ws.viterbi_log + best_val.ln()
}

/// Metric handles of one [`StreamingDecoder`]. Registered once at
/// construction (the only allocating step); every record on the push path is
/// a relaxed `fetch_add` — or a no-op under [`TelemetrySink::Disabled`].
#[derive(Debug, Clone)]
struct DecoderMetrics {
    /// `dhmm_decoder_pushes_total`.
    pushes: Counter,
    /// `dhmm_decoder_push_duration_ns` (noop sink: no clock read either).
    push_ns: Histogram,
    /// `dhmm_decoder_committed_labels_total`.
    committed: Counter,
    /// `dhmm_decoder_smoothed_rows_total`.
    smoothed: Counter,
}

impl DecoderMetrics {
    fn new(sink: &TelemetrySink) -> Self {
        Self {
            pushes: sink.counter(
                "dhmm_decoder_pushes_total",
                &[],
                "Tokens pushed through standalone streaming decoders.",
            ),
            push_ns: sink.histogram(
                "dhmm_decoder_push_duration_ns",
                &[],
                "Wall time of one standalone decoder push, in nanoseconds.",
            ),
            committed: sink.counter(
                "dhmm_decoder_committed_labels_total",
                &[],
                "Viterbi labels committed by standalone decoder pushes.",
            ),
            smoothed: sink.counter(
                "dhmm_decoder_smoothed_rows_total",
                &[],
                "Smoothed posterior rows emitted by standalone decoder pushes.",
            ),
        }
    }

    fn noop() -> Self {
        Self::new(&TelemetrySink::Disabled)
    }
}

/// The fixed-lag smoothing buffers only a [`StreamingDecoder`] owns (a
/// [`crate::SessionPool`] never smooths, so its leased scratches carry
/// none). Sized at construction.
#[derive(Debug, Clone)]
struct Smoothing {
    /// Smoothed rows emitted by the last push/flush, row-major (`len × k`),
    /// ascending in time; room for a whole window.
    rows: Vec<f64>,
    /// Number of valid rows in `rows`.
    len: usize,
    /// Time index of the first row.
    start: usize,
    /// `2 × k` rolling backward rows.
    beta: Vec<f64>,
}

impl Smoothing {
    fn new(k: usize, window: usize) -> Self {
        Self {
            rows: vec![0.0; window * k],
            len: 0,
            start: 0,
            beta: vec![0.0; 2 * k],
        }
    }

    /// Carries out one smoothing decision ([`smoothing_action`] for the
    /// token at time `t`, or [`flush_smoothing_action`]), replacing the
    /// emitted rows and advancing `ws.smoothed_upto`. Returns the number of
    /// rows emitted. Smoothing reads nothing but the α̂ and emission rings,
    /// which the commit rules never touch, so running it after them is
    /// bit-safe.
    fn run<E: Emission>(
        &mut self,
        model: &Hmm<E>,
        backend: InferenceBackend,
        ws: &mut StreamWorkspace,
        scratch: &mut StreamScratch,
        t: usize,
        action: Option<SmoothAction>,
    ) -> usize {
        let k = ws.num_states;
        self.len = 0;
        self.start = 0;
        match action {
            Some(SmoothAction::CopyFiltered) => {
                self.rows[..k].copy_from_slice(ws.alpha_row(t));
                self.len = 1;
                self.start = t;
            }
            Some(SmoothAction::Block {
                from,
                downto,
                emit_upto,
            }) => {
                let w = &mut scratch.row[..k];
                match backend {
                    InferenceBackend::Sparse(_) => {
                        self.backward(&scratch.trans.csr, ws, w, from, downto, emit_upto)
                    }
                    _ => self.backward(model.transition(), ws, w, from, downto, emit_upto),
                }
            }
            None => return 0,
        }
        ws.smoothed_upto = self.start + self.len;
        self.len
    }

    /// Runs the backward smoothing pass from `from` (β = 1) down to `downto`
    /// with the row kernels' backward step, emitting normalized `γ` rows for
    /// times `downto ..= emit_upto` (ascending): exactly the offline
    /// backward recursion restricted to the ring window, over the same
    /// transition representation as the filter (so under the sparse backend
    /// the posteriors stay consistent with the pruned filter).
    fn backward<R: RowKernels>(
        &mut self,
        rows: &R,
        ws: &StreamWorkspace,
        w: &mut [f64],
        from: usize,
        downto: usize,
        emit_upto: usize,
    ) {
        let k = ws.num_states;
        self.start = downto;
        self.len = emit_upto - downto + 1;

        // β at `from` is all ones, in the even row.
        self.beta[..k].fill(1.0);
        if from <= emit_upto {
            // γ(from) = normalize(α̂ · 1) — multiplying by the exact 1.0 β row
            // is an identity, so copy + normalize matches the offline product.
            let out = &mut self.rows[(from - downto) * k..(from - downto + 1) * k];
            out.copy_from_slice(ws.alpha_row(from));
            normalize_in_place(out);
        }
        for tau in (downto..from).rev() {
            let next_slot = ws.slot(tau + 1);
            let next_e = &ws.emis[next_slot * k..(next_slot + 1) * k];
            // Rolling β parity: the row for time τ is the odd one when
            // `from − τ` is odd.
            let (even, odd) = self.beta.split_at_mut(k);
            let odd = &mut odd[..k];
            let (next, beta) = if (from - tau) % 2 == 1 {
                (&*even, odd)
            } else {
                (&*odd, even)
            };
            backward_step(rows, next_e, next, w, beta);
            if tau <= emit_upto {
                let out = &mut self.rows[(tau - downto) * k..(tau - downto + 1) * k];
                for ((g, &av), &bv) in out.iter_mut().zip(ws.alpha_row(tau)).zip(beta.iter()) {
                    *g = av * bv;
                }
                normalize_in_place(out);
            }
        }
    }
}

/// A single-session streaming decoder over a borrowed model.
///
/// Owns its [`StreamWorkspace`], [`StreamScratch`] and smoothing buffers;
/// every buffer is sized at construction, so [`StreamingDecoder::push`] performs **zero heap
/// allocation** (pinned by the counting-allocator test — with telemetry
/// enabled as well as disabled). For many concurrent
/// sessions, use [`crate::SessionPool`], which shares scratch across
/// sessions per worker instead of owning one per session.
#[derive(Debug, Clone)]
pub struct StreamingDecoder<'m, E: Emission> {
    model: &'m Hmm<E>,
    lag: usize,
    backend: InferenceBackend,
    ws: StreamWorkspace,
    scratch: StreamScratch,
    smoothing: Smoothing,
    metrics: DecoderMetrics,
}

impl<'m, E: Emission> StreamingDecoder<'m, E> {
    /// Creates a decoder with the given fixed lag and the default (scaled)
    /// backend, preallocating every buffer for the model's state count.
    pub fn new(model: &'m Hmm<E>, lag: usize) -> Self {
        let mut ws = StreamWorkspace::new();
        let window = ring_window(lag);
        ws.ensure(model.num_states(), window);
        let mut scratch = StreamScratch::new();
        scratch.ensure(model.num_states(), window);
        Self {
            model,
            lag,
            backend: InferenceBackend::Scaled,
            ws,
            scratch,
            smoothing: Smoothing::new(model.num_states(), window),
            metrics: DecoderMetrics::noop(),
        }
    }

    /// Creates a decoder from a full [`StreamConfig`], rejecting backends
    /// that cannot stream (and out-of-range sparse parameters).
    pub fn with_config(model: &'m Hmm<E>, config: StreamConfig) -> Result<Self, StreamError> {
        config.validate()?;
        let mut decoder = Self::new(model, config.lag);
        decoder.backend = config.backend;
        decoder.metrics = DecoderMetrics::new(&config.telemetry);
        Ok(decoder)
    }

    /// The configured lag `L`.
    pub fn lag(&self) -> usize {
        self.lag
    }

    /// The configured inference backend.
    pub fn backend(&self) -> InferenceBackend {
        self.backend
    }

    /// Running bound on the log-likelihood deficit introduced by sparse
    /// beam pruning (0 under the scaled backend; see
    /// [`StreamWorkspace::sparse_error_bound`]).
    pub fn sparse_error_bound(&self) -> f64 {
        self.ws.sparse_error_bound()
    }

    /// The model this decoder streams against.
    pub fn model(&self) -> &'m Hmm<E> {
        self.model
    }

    /// Tokens pushed since construction/reset.
    pub fn tokens(&self) -> usize {
        self.ws.tokens()
    }

    /// Number of Viterbi labels committed so far.
    pub fn committed(&self) -> usize {
        self.ws.committed()
    }

    /// Running `log P(y_0..=t-1)` of the pushed prefix.
    pub fn log_likelihood(&self) -> f64 {
        self.ws.log_likelihood()
    }

    /// Advances the stream by one observation: one O(k²) filter step, one
    /// O(k²) Viterbi step, the commit rules, and (amortized O(k²)) fixed-lag
    /// smoothing. Allocation-free.
    ///
    /// # Latency profile (amortization bound)
    ///
    /// The *amortized* cost per push is O(k²), but it is not uniform: the
    /// fixed-lag smoothing block runs once every `L` pushes and performs a
    /// backward pass over the whole `2L` window, so that one push costs
    /// O(L·k²) — a factor-`L` spike over the median. This is inherent to
    /// block-based fixed-lag smoothing: emitting `c < L` rows per pass
    /// instead would bound the spike at O((L+c)·k²) but raise the amortized
    /// smoothing cost from `2k²` to `(L+c)/c · k²` per token. Concretely, in
    /// `BENCH_stream.json` the k=64/lag=64 p99 (~185µs vs a ~5µs p50)
    /// is exactly these block pushes: 1/L ≈ 1.6% of pushes pay the block,
    /// which lands inside the top percentile; at lag=8 the block is 8× more
    /// frequent but 8× cheaper, so the p99 stays near the median. The p99.9
    /// column records the same bound one decade further out — the tail is
    /// flat beyond the block cost. Latency-critical deployments should pick
    /// the smallest lag their accuracy budget allows, not the largest ring
    /// that fits in memory.
    ///
    /// # Panics
    /// Panics if called after [`StreamingDecoder::flush`] without an
    /// intervening [`StreamingDecoder::reset`].
    pub fn push(&mut self, obs: &E::Obs) -> StepOutput<'_> {
        // Epoch 0: the borrowed model cannot change under a standalone
        // decoder, so the scratch's transition cache never goes stale.
        let span = self.metrics.push_ns.span();
        let t = self.ws.t;
        push_token(
            self.model,
            self.lag,
            self.backend,
            0,
            &mut self.ws,
            &mut self.scratch,
            obs,
        );
        let action = smoothing_action(self.lag, t, self.ws.smoothed_upto);
        let smoothed_rows = self.smoothing.run(
            self.model,
            self.backend,
            &mut self.ws,
            &mut self.scratch,
            t,
            action,
        );
        drop(span);
        self.metrics.pushes.inc();
        self.metrics.smoothed.add(smoothed_rows as u64);
        self.metrics
            .committed
            .add(self.scratch.committed.len() as u64);
        let k = self.ws.num_states;
        StepOutput {
            t,
            num_states: k,
            log_likelihood: self.ws.log_likelihood,
            filtered: self.ws.alpha_row(t),
            committed: &self.scratch.committed,
            committed_start: self.scratch.committed_start,
            smoothed: &self.smoothing.rows[..self.smoothing.len * k],
            smoothed_start: self.smoothing.start,
        }
    }

    /// Ends the stream: commits the remaining Viterbi tail (backtracking
    /// from the best final state, exactly like the offline engine) and
    /// emits the remaining smoothed rows — everything the block passes have
    /// not emitted, each conditioned on the full prefix. After `flush`, call
    /// [`StreamingDecoder::reset`] before pushing again.
    pub fn flush(&mut self) -> FlushOutput<'_> {
        let score = flush_stream(&mut self.ws, &mut self.scratch);
        let last = self.ws.t.checked_sub(1);
        let action =
            last.and_then(|last| flush_smoothing_action(self.lag, last, self.ws.smoothed_upto));
        self.smoothing.run(
            self.model,
            self.backend,
            &mut self.ws,
            &mut self.scratch,
            last.unwrap_or(0),
            action,
        );
        let k = self.ws.num_states.max(1);
        FlushOutput {
            num_states: k,
            log_likelihood: self.ws.log_likelihood,
            viterbi_log_score: score,
            committed: &self.scratch.committed,
            committed_start: self.scratch.committed_start,
            smoothed: &self.smoothing.rows[..self.smoothing.len * k],
            smoothed_start: self.smoothing.start,
        }
    }

    /// Rewinds to an empty stream, keeping every buffer warm (the
    /// allocation-free restart path).
    pub fn reset(&mut self) {
        self.ws.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-sourced window math: lag 0 copies every row as it
    /// streams; lag > 0 fires exclusively on the exact `2L`-step boundary,
    /// so every mid-stream block spans `2L` steps and emits `L` rows.
    #[test]
    fn smoothing_action_fires_only_on_exact_window_boundaries() {
        // lag 0: the filtered row is the smoothed row, every push.
        assert_eq!(smoothing_action(0, 0, 0), Some(SmoothAction::CopyFiltered));
        assert_eq!(smoothing_action(0, 7, 7), Some(SmoothAction::CopyFiltered));

        // lag 1 (window 2): nothing at t = 0, then a one-row block on every
        // push — each spans the 2 newest steps and emits the older one.
        assert_eq!(smoothing_action(1, 0, 0), None);
        assert_eq!(
            smoothing_action(1, 1, 0),
            Some(SmoothAction::Block {
                from: 1,
                downto: 0,
                emit_upto: 0
            })
        );
        assert_eq!(
            smoothing_action(1, 2, 1),
            Some(SmoothAction::Block {
                from: 2,
                downto: 1,
                emit_upto: 1
            })
        );

        // lag 8 (window 16): the first block waits for 16 steps, emits the
        // oldest 8, and the window then grows back from 8 un-smoothed steps.
        for t in 0..15 {
            assert_eq!(smoothing_action(8, t, 0), None);
        }
        assert_eq!(
            smoothing_action(8, 15, 0),
            Some(SmoothAction::Block {
                from: 15,
                downto: 0,
                emit_upto: 7
            })
        );
        for t in 16..23 {
            assert_eq!(smoothing_action(8, t, 8), None);
        }
        assert_eq!(
            smoothing_action(8, 23, 8),
            Some(SmoothAction::Block {
                from: 23,
                downto: 8,
                emit_upto: 15
            })
        );
    }

    /// The flush block emits everything not yet emitted — through `last`,
    /// not `last − L` — and is skipped when lag 0 already copied every row
    /// or the stream ended exactly on a block boundary with nothing held.
    #[test]
    fn flush_smoothing_action_covers_exactly_the_unemitted_tail() {
        assert_eq!(flush_smoothing_action(0, 9, 10), None);
        assert_eq!(
            flush_smoothing_action(2, 9, 6),
            Some(SmoothAction::Block {
                from: 9,
                downto: 6,
                emit_upto: 9
            })
        );
        // One un-smoothed row left: a single-row block conditioned on the
        // full prefix.
        assert_eq!(
            flush_smoothing_action(1, 4, 4),
            Some(SmoothAction::Block {
                from: 4,
                downto: 4,
                emit_upto: 4
            })
        );
        // Everything already emitted (flush right after a lag-0 copy).
        assert_eq!(flush_smoothing_action(1, 4, 5), None);
    }
}
