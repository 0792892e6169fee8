//! # dhmm-stream
//!
//! Streaming inference for the dHMM reproduction: labeling data *as it
//! arrives*, with hard per-session memory bounds, on top of the per-step row
//! kernels the offline engines run (`dhmm_hmm::kernels`) and the
//! deterministic worker-pool runtime (`dhmm_runtime`).
//!
//! Every inference path elsewhere in the workspace is offline — it needs the
//! whole sequence up front. This crate provides the online counterpart:
//!
//! * [`StreamingDecoder`] — a single session. `push(obs)` advances an
//!   O(k²)-per-token scaled forward filter (filtered posterior + running
//!   `log P(y_0..t)` recovered from the accumulated `log c_t`), fixed-lag
//!   smoothing with configurable lag `L` (amortized-O(k²) backward passes
//!   over 2L-token windows), and a bounded-memory online Viterbi (ring ψ
//!   buffer, path-convergence commits, forced commit at lag `L`). All
//!   buffers (a grow-only [`StreamWorkspace`]/[`StreamScratch`] pair plus
//!   the decoder's own smoothing rows) are sized at construction, so `push`
//!   performs **zero heap allocation**.
//! * [`SessionPool`] — many concurrent sessions multiplexed over one model:
//!   create/push/flush/close by [`SessionId`], with batch [`SessionPool::tick`]s
//!   that advance pending tokens in deterministic per-session bands on the
//!   shared `runtime::Executor` — throughput scales with cores while
//!   results stay **bit-identical across worker policies**. With lockstep
//!   on (the default; see [`StreamConfig::with_lockstep`]) a tick instead
//!   advances every pending session in **batched lockstep** through one
//!   tile-major structure-of-arrays [`BatchPanel`] that shrinks as
//!   shallower queues run dry: one fused kernel pass over the shared
//!   transition matrix per step advances every session's filter and
//!   Viterbi rows together, instead of S separate k² loops, with output
//!   bit-identical to the per-session path. A pool serves labels and
//!   log-likelihoods only: its ticks run the filter, the Viterbi step and
//!   the commit rules, never fixed-lag smoothing, so `lag` bounds commit
//!   latency there. Posteriors come from [`StreamingDecoder`].
//!
//! With `lag ≥ T` the streamed output is exactly the offline decode: the
//! Viterbi path, its score, the running log-likelihood and the smoothed
//! posteriors equal the offline engine's bit for bit, under the scaled and
//! the sparse backend, and the filtered rows match the offline prefix
//! marginals to 1e-9 (pinned by `tests/parity.rs`). Smaller lags
//! trade a bounded, explicit amount of lookahead for O(lag · k) memory and
//! constant per-token latency.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod decoder;
pub mod error;
pub mod session;
pub mod workspace;

pub use decoder::{FlushOutput, StepOutput, StreamConfig, StreamingDecoder};
pub use error::StreamError;
pub use session::{SessionId, SessionPool, TickReport};
pub use workspace::{BatchPanel, StreamScratch, StreamWorkspace};

// Re-exported so `dhmm_stream` is self-sufficient for callers configuring a
// stream (the knobs are defined by `dhmm_hmm` / `dhmm_runtime` /
// `dhmm_telemetry`).
pub use dhmm_hmm::{InferenceBackend, PruneRule, SparseParams};
pub use dhmm_runtime::Parallelism;
pub use dhmm_telemetry::{Registry, TelemetrySink};
