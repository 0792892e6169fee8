//! Layer probes: public kernels of `hmm`, `stream` and `core` timed in
//! isolation on a workload's own model and inputs, under the traced run.

use crate::common::time_calls;
use crate::report::Outcome;
use crate::trace::Tracer;
use dhmm_core::{DiversifiedConfig, DiversifiedHmm};
use dhmm_hmm::baum_welch::e_step_on;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::scaled::{forward_backward_scaled, viterbi_scaled};
use dhmm_hmm::sparse::{forward_backward_sparse, viterbi_sparse};
use dhmm_hmm::{
    CsrTransition, Hmm, InferenceBackend, InferenceWorkspace, SparseParams, WorkspacePool,
};
use dhmm_runtime::Parallelism;
use dhmm_stream::{StreamConfig, StreamingDecoder, TickReport};
use std::hint::black_box;

/// Seconds each probe measures for.
pub const PROBE_SECS: f64 = 0.25;

/// Tokens of the fixed sequence the kernel probes run on.
pub const PROBE_TOKENS: usize = 2048;

/// A fixed probe sequence: the workload's inputs concatenated and cut to
/// [`PROBE_TOKENS`].
pub fn probe_sequence(seqs: &[Vec<usize>]) -> Vec<usize> {
    seqs.iter().flatten().copied().take(PROBE_TOKENS).collect()
}

/// `hmm.forward_ns_per_token`, `hmm.viterbi_ns_per_token`,
/// `hmm.viterbi_over_forward` and `hmm.sparse_density`: the offline
/// forward–backward and Viterbi kernels of `backend` on `seq`, and the
/// density of the transition matrix as the CSR engine compiles it (under
/// exact parameters for a dense backend).
pub fn kernels(
    out: &mut Outcome,
    tracer: &mut Tracer,
    op: &mut u64,
    model: &Hmm<DiscreteEmission>,
    backend: InferenceBackend,
    seq: &[usize],
) {
    let mut ws = InferenceWorkspace::new();
    let tokens = seq.len() as f64;
    let (fwd, vit, params) = match backend {
        InferenceBackend::Sparse(params) => (
            time_calls(
                tracer,
                op,
                "hmm.forward_backward_sparse",
                PROBE_SECS,
                || {
                    black_box(
                        forward_backward_sparse(model, seq, &mut ws, params)
                            .expect("sparse forward-backward"),
                    );
                },
            ),
            time_calls(tracer, op, "hmm.viterbi_sparse", PROBE_SECS, || {
                black_box(viterbi_sparse(model, seq, &mut ws, params).expect("sparse viterbi"));
            }),
            params,
        ),
        _ => (
            time_calls(
                tracer,
                op,
                "hmm.forward_backward_scaled",
                PROBE_SECS,
                || {
                    black_box(
                        forward_backward_scaled(model, seq, &mut ws)
                            .expect("scaled forward-backward"),
                    );
                },
            ),
            time_calls(tracer, op, "hmm.viterbi_scaled", PROBE_SECS, || {
                black_box(viterbi_scaled(model, seq, &mut ws).expect("scaled viterbi"));
            }),
            SparseParams::exact(),
        ),
    };
    out.set("hmm.forward_ns_per_token", fwd / tokens);
    out.set("hmm.viterbi_ns_per_token", vit / tokens);
    out.set("hmm.viterbi_over_forward", vit / fwd);
    let csr = CsrTransition::compile(model.transition(), params).expect("compilable transition");
    out.set("hmm.sparse_density", csr.density());
}

/// `stream.scalar_push_ns_per_token`: one `StreamingDecoder` pushing `seq`
/// token by token under `config` (the per-session path the pool falls back
/// to outside lockstep groups).
pub fn scalar_push(
    out: &mut Outcome,
    tracer: &mut Tracer,
    op: &mut u64,
    model: &Hmm<DiscreteEmission>,
    config: StreamConfig,
    seq: &[usize],
) {
    let mut dec = StreamingDecoder::with_config(model, config).expect("streamable model");
    let ns = time_calls(tracer, op, "stream.decoder_push", PROBE_SECS, || {
        dec.reset();
        for obs in seq {
            black_box(dec.push(obs).log_likelihood);
        }
    });
    out.set("stream.scalar_push_ns_per_token", ns / seq.len() as f64);
}

/// Nanoseconds per token of `e_step_on` over `seqs` with `parallelism`.
pub fn estep(
    tracer: &mut Tracer,
    op: &mut u64,
    model: &Hmm<DiscreteEmission>,
    backend: InferenceBackend,
    seqs: &[Vec<usize>],
    parallelism: Parallelism,
) -> f64 {
    let mut pool = WorkspacePool::new();
    let tokens: usize = seqs.iter().map(Vec::len).sum();
    let ns = time_calls(tracer, op, "hmm.e_step_on", PROBE_SECS, || {
        black_box(e_step_on(model, seqs, backend, &mut pool, parallelism).expect("e-step"));
    });
    ns / tokens as f64
}

/// `core.decode_ns_per_token`: `DiversifiedHmm::decode_all` over `seqs`.
pub fn decode(
    out: &mut Outcome,
    tracer: &mut Tracer,
    op: &mut u64,
    model: &Hmm<DiscreteEmission>,
    config: DiversifiedConfig,
    seqs: &[Vec<usize>],
) {
    let trainer = DiversifiedHmm::new(config);
    let tokens: usize = seqs.iter().map(Vec::len).sum();
    let ns = time_calls(tracer, op, "core.decode_all", PROBE_SECS, || {
        black_box(trainer.decode_all(model, seqs).expect("decode"));
    });
    out.set("core.decode_ns_per_token", ns / tokens as f64);
}

/// Adds one tick's report to a running total.
pub fn add_ticks(total: &mut TickReport, r: &TickReport) {
    total.tokens += r.tokens;
    total.lockstep_tokens += r.lockstep_tokens;
    total.scalar_tokens += r.scalar_tokens;
    total.smoothing_batched_tokens += r.smoothing_batched_tokens;
    total.smoothing_scalar_tokens += r.smoothing_scalar_tokens;
}

/// The `stream.*` metrics of a traced phase: the spans around `push_many`,
/// `tick` and `take_committed` per token ticked, and the lockstep and
/// batched-smoothing shares of the summed tick reports.
pub fn stream_layer(out: &mut Outcome, tracer: &Tracer, ticks: &TickReport) {
    let tokens = ticks.tokens as f64;
    for (span, metric) in [
        ("stream.push_many", "stream.push_ns_per_token"),
        ("stream.tick", "stream.tick_ns_per_token"),
        ("stream.take_committed", "stream.take_ns_per_token"),
    ] {
        out.set(metric, tracer.total(span).0 as f64 / tokens);
    }
    let share = |a: usize, b: usize| a as f64 / (a + b).max(1) as f64;
    out.set(
        "stream.lockstep_share",
        share(ticks.lockstep_tokens, ticks.scalar_tokens),
    );
    out.set(
        "stream.smoothing_batched_share",
        share(
            ticks.smoothing_batched_tokens,
            ticks.smoothing_scalar_tokens,
        ),
    );
}
