//! `pool_dense` and `pool_sparse`: an in-process `SessionPool` fed in
//! rounds. Every round each session receives a chunk of ragged size, then
//! the pool ticks and every session's committed labels are taken.
//!
//! Ragged chunks leave some sessions alone at their pending depth, so a
//! round sends tokens through both the lockstep panels and the per-session
//! scalar path. The dense workload runs the dense `hmm` kernels; the sparse
//! one runs only the CSR kernels and the sparse lockstep walk.

use crate::common::{
    agreeing, concentrated_model, dense_model, for_seconds, sample, shuffle, timed_setup, Stream,
    MODEL_SEED,
};
use crate::probe;
use crate::report::{Outcome, Phase};
use crate::trace::Tracer;
use crate::{Opts, Scale};
use dhmm_core::DiversifiedConfig;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::{Hmm, InferenceBackend, SparseParams};
use dhmm_runtime::Parallelism;
use dhmm_stream::{SessionPool, StreamConfig, TickReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Which transition backend the pool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense k=128 model on the scaled backend.
    Dense,
    /// Concentrated k=256 model on the sparse (CSR) backend.
    Sparse,
}

/// Fixed lag of every session.
const LAG: usize = 8;
/// Observation alphabet.
const VOCAB: usize = 256;
/// Emission Dirichlet concentration (peaked rows, informative labels).
const EMISSION_CONCENTRATION: f64 = 0.05;
/// Sparse model: share of heavy successors per row, and their mass.
const SPARSE_DENSITY_PCT: usize = 10;
const SPARSE_HEAVY_MASS: f64 = 0.999;
/// Sparse backend: transition threshold and filter beam.
const SPARSE_THRESHOLD: f64 = 1e-3;
const SPARSE_BEAM: f64 = 0.01;

struct Shape {
    k: usize,
    sessions: usize,
    rounds: usize,
    /// Chunk sizes 1..=`grouped_max` are shared by several sessions each
    /// round (lockstep groups)...
    grouped_max: usize,
    /// ...and this many sessions get a size of their own (the scalar path).
    singles: usize,
}

fn shape(kind: Kind, scale: Scale) -> Shape {
    match (kind, scale) {
        (Kind::Dense, Scale::Full) => Shape {
            k: 128,
            sessions: 64,
            rounds: 192,
            grouped_max: 4,
            singles: 4,
        },
        (Kind::Sparse, Scale::Full) => Shape {
            k: 256,
            sessions: 64,
            rounds: 192,
            grouped_max: 4,
            singles: 4,
        },
        (Kind::Dense, Scale::Tiny) => Shape {
            k: 16,
            sessions: 4,
            rounds: 8,
            grouped_max: 2,
            singles: 1,
        },
        (Kind::Sparse, Scale::Tiny) => Shape {
            k: 40,
            sessions: 4,
            rounds: 8,
            grouped_max: 2,
            singles: 1,
        },
    }
}

fn backend(kind: Kind) -> InferenceBackend {
    match kind {
        Kind::Dense => InferenceBackend::Scaled,
        Kind::Sparse => InferenceBackend::Sparse(
            SparseParams::threshold(SPARSE_THRESHOLD).with_beam(SPARSE_BEAM),
        ),
    }
}

/// One round's chunk sizes: the grouped sizes cycled over most sessions,
/// then one distinct larger size per single session, in a random order. The
/// multiset is the same every round and on every seed.
fn chunk_sizes(shape: &Shape, rng: &mut StdRng) -> Vec<usize> {
    let grouped = shape.sessions - shape.singles;
    let mut sizes: Vec<usize> = (0..grouped)
        .map(|i| 1 + i % shape.grouped_max)
        .chain((1..=shape.singles).map(|i| shape.grouped_max + i))
        .collect();
    shuffle(&mut sizes, rng);
    sizes
}

/// The generated inputs: a model and one pass's script.
struct Input {
    model: Arc<Hmm<DiscreteEmission>>,
    /// One stream per session, sampled from the model.
    streams: Vec<Stream>,
    /// `chunks[round][session]`: tokens the session receives that round.
    chunks: Vec<Vec<usize>>,
}

fn generate(kind: Kind, shape: &Shape, seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let model = match kind {
        Kind::Dense => dense_model(shape.k, VOCAB, EMISSION_CONCENTRATION, &mut rng),
        Kind::Sparse => concentrated_model(
            shape.k,
            VOCAB,
            SPARSE_DENSITY_PCT,
            SPARSE_HEAVY_MASS,
            EMISSION_CONCENTRATION,
            &mut rng,
        ),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let chunks: Vec<Vec<usize>> = (0..shape.rounds)
        .map(|_| chunk_sizes(shape, &mut rng))
        .collect();
    let streams = (0..shape.sessions)
        .map(|s| {
            let len = chunks.iter().map(|r| r[s]).sum();
            sample(&model, len, &mut rng)
        })
        .collect();
    Input {
        model: Arc::new(model),
        streams,
        chunks,
    }
}

/// What one pass delivered.
#[derive(Default)]
struct PassOut {
    /// Labels per session, in time order.
    labels: Vec<Vec<usize>>,
    /// `ends[round][session]`: labels the session had delivered after the
    /// round.
    ends: Vec<Vec<usize>>,
    /// Rounds in which a push or take was refused.
    refused: Vec<usize>,
    /// Largest sparse-beam error bound over the sessions at flush.
    bound_max: f64,
}

/// Rounds per timed block (see [`Phase::start_block`]).
const BLOCK_ROUNDS: usize = 48;

/// One pass: create every session, run every round, flush, take and close.
/// Under a `phase`, every [`BLOCK_ROUNDS`] rounds are a timed block (the
/// flush and close join the last one) and round latencies are recorded;
/// tick reports are summed into `ticks`.
fn pass(
    pool: &mut SessionPool<DiscreteEmission>,
    input: &Input,
    tracer: &mut Tracer,
    op: &mut u64,
    mut phase: Option<&mut Phase>,
    ticks: &mut TickReport,
) -> PassOut {
    let n = input.streams.len();
    let ids: Vec<_> = (0..n).map(|_| pool.create()).collect();
    let mut offsets = vec![0; n];
    let mut out = PassOut {
        labels: vec![Vec::new(); n],
        ..PassOut::default()
    };
    let mut block_from = 0;
    for (r, chunk) in input.chunks.iter().enumerate() {
        if r % BLOCK_ROUNDS == 0 {
            if let Some(p) = phase.as_deref_mut() {
                if r > 0 {
                    let delivered = out.ends[r - 1].iter().sum::<usize>();
                    p.end_block(delivered - block_from);
                    block_from = delivered;
                }
                p.start_block();
            }
        }
        *op += 1;
        let mut ok = true;
        let t0 = Instant::now();
        let root = tracer.start(*op, "pool.round", Tracer::ROOT);
        let span = tracer.start(*op, "stream.push_many", root);
        for ((id, stream), (&c, off)) in ids
            .iter()
            .zip(&input.streams)
            .zip(chunk.iter().zip(&mut offsets))
        {
            ok &= pool
                .push_many(*id, stream.obs[*off..*off + c].iter().copied())
                .is_ok();
            *off += c;
        }
        tracer.end(span);
        let span = tracer.start(*op, "stream.tick", root);
        let report = pool.tick();
        tracer.end(span);
        let span = tracer.start(*op, "stream.take_committed", root);
        for (id, labels) in ids.iter().zip(&mut out.labels) {
            ok &= pool.take_committed(*id, labels).is_ok();
        }
        tracer.end(span);
        tracer.end(root);
        if let Some(p) = phase.as_deref_mut() {
            p.op_ns.push(t0.elapsed().as_nanos() as f64);
        }
        probe::add_ticks(ticks, &report);
        out.ends.push(out.labels.iter().map(Vec::len).collect());
        if !ok {
            out.refused.push(r);
        }
    }
    for (id, labels) in ids.iter().zip(&mut out.labels) {
        pool.flush(*id).expect("flush a live session");
        pool.take_committed(*id, labels)
            .expect("take from a flushed session");
        out.bound_max = out
            .bound_max
            .max(pool.sparse_error_bound(*id).expect("live session"));
        pool.close(*id).expect("close a live session");
    }
    if let Some(p) = phase {
        p.end_block(out.labels.iter().map(Vec::len).sum::<usize>() - block_from);
    }
    out
}

/// Rounds of `got` that disagree with `want`: a refused round, a round
/// whose label counts differ, or a round that delivered different labels.
/// A difference only in the flushed tail counts as one failed operation.
fn failed_rounds(got: &PassOut, want: &PassOut) -> u64 {
    let rounds = want.ends.len();
    let mut failed = vec![false; rounds + 1];
    for &r in &got.refused {
        failed[r] = true;
    }
    for (r, slot) in failed.iter_mut().enumerate().take(rounds) {
        for s in 0..want.labels.len() {
            let from = if r == 0 { 0 } else { want.ends[r - 1][s] };
            let (g_end, w_end) = (got.ends[r][s], want.ends[r][s]);
            if g_end != w_end || got.labels[s].get(from..g_end) != want.labels[s].get(from..w_end) {
                *slot = true;
            }
        }
    }
    for s in 0..want.labels.len() {
        let from = want.ends[rounds - 1][s];
        if got.labels[s].get(from..) != want.labels[s].get(from..) {
            failed[rounds] = true;
        }
    }
    failed.iter().filter(|&&f| f).count() as u64
}

fn stream_config(kind: Kind, lockstep: bool) -> StreamConfig {
    StreamConfig::default()
        .with_lag(LAG)
        .with_backend(backend(kind))
        .with_parallelism(Parallelism::Serial)
        .with_lockstep(lockstep)
}

/// What the tick reports and flushes of a phase showed.
#[derive(Default)]
struct Observed {
    ticks: TickReport,
    bound_max: f64,
}

/// Runs passes for `seconds` and records the end-to-end observations.
fn measure(
    pool: &mut SessionPool<DiscreteEmission>,
    input: &Input,
    reference: &PassOut,
    seconds: f64,
    tracer: &mut Tracer,
    op: &mut u64,
    seen: &mut Observed,
) -> Phase {
    let mut phase = Phase::new(1);
    for_seconds(seconds, || {
        let got = pass(pool, input, tracer, op, Some(&mut phase), &mut seen.ticks);
        phase.attempted += input.chunks.len() as u64;
        phase.failed += failed_rounds(&got, reference);
        for (labels, stream) in got.labels.iter().zip(&input.streams) {
            phase.labels_right += agreeing(labels, &stream.states);
            phase.labels_total += stream.states.len() as u64;
        }
        seen.bound_max = seen.bound_max.max(got.bound_max);
    });
    phase
}

/// Runs the workload.
pub fn run(opts: &Opts, kind: Kind) -> Outcome {
    let shape = shape(kind, opts.scale);
    let (input, setup_s) = timed_setup(|| generate(kind, &shape, opts.seed), drop);

    // Untimed reference: the same streams through a lockstep-off pool.
    let mut op = 0;
    let mut scratch = TickReport::default();
    let mut reference_pool =
        SessionPool::with_config(Arc::clone(&input.model), stream_config(kind, false))
            .expect("streamable model");
    let reference = pass(
        &mut reference_pool,
        &input,
        &mut Tracer::off(),
        &mut op,
        None,
        &mut scratch,
    );
    drop(reference_pool);

    let mut pool = SessionPool::with_config(Arc::clone(&input.model), stream_config(kind, true))
        .expect("streamable model");
    // Warm-up pass: sizes the pool's slots and scratch before anything is timed.
    let warm = pass(
        &mut pool,
        &input,
        &mut Tracer::off(),
        &mut op,
        None,
        &mut scratch,
    );
    let mut out = Outcome::default();
    out.note("k", shape.k);
    out.note("sessions", shape.sessions);
    out.note("rounds_per_pass", shape.rounds);
    out.attempted += shape.rounds as u64;
    out.failed += failed_rounds(&warm, &reference);

    if !opts.trace {
        let phase = measure(
            &mut pool,
            &input,
            &reference,
            opts.seconds,
            &mut Tracer::off(),
            &mut op,
            &mut Observed::default(),
        );
        out.end_to_end(&phase, setup_s);
        return out;
    }

    // Traced run: an untraced half for the overhead baseline, then a traced
    // half the per-layer figures come from.
    let half = opts.seconds / 2.0;
    let plain = measure(
        &mut pool,
        &input,
        &reference,
        half,
        &mut Tracer::off(),
        &mut op,
        &mut Observed::default(),
    );
    let mut tracer = Tracer::on();
    let mut seen = Observed::default();
    let traced = measure(
        &mut pool,
        &input,
        &reference,
        half,
        &mut tracer,
        &mut op,
        &mut seen,
    );
    out.attempted += plain.attempted + traced.attempted;
    out.failed += plain.failed + traced.failed;

    probe::stream_layer(&mut out, &tracer, &seen.ticks);
    out.set("hmm.sparse_error_bound_max", seen.bound_max);
    out.set(
        "trace.overhead_frac",
        1.0 - traced.tokens_per_s() / plain.tokens_per_s(),
    );

    let seqs: Vec<Vec<usize>> = input.streams.iter().map(|s| s.obs.clone()).collect();
    let seq = probe::probe_sequence(&seqs);
    let estep_seqs = &seqs[..seqs.len().min(8)];
    probe::kernels(
        &mut out,
        &mut tracer,
        &mut op,
        &input.model,
        backend(kind),
        &seq,
    );
    probe::scalar_push(
        &mut out,
        &mut tracer,
        &mut op,
        &input.model,
        stream_config(kind, true),
        &seq,
    );
    let estep = probe::estep(
        &mut tracer,
        &mut op,
        &input.model,
        backend(kind),
        estep_seqs,
        Parallelism::Serial,
    );
    out.set("hmm.estep_ns_per_token", estep);
    let config = DiversifiedConfig::default()
        .with_backend(backend(kind))
        .with_parallelism(Parallelism::Serial);
    probe::decode(
        &mut out,
        &mut tracer,
        &mut op,
        &input.model,
        config,
        &seqs[..seqs.len().min(8)],
    );

    out.write_spans(
        &tracer,
        if kind == Kind::Dense {
            "pool_dense"
        } else {
            "pool_sparse"
        },
    );
    out
}
