//! Batch ticks of the session pool must be bit-identical across worker
//! policies — the streaming extension of the runtime's determinism
//! contract pinned end-to-end by `crates/core/tests/parallel_determinism.rs`
//! for training. Sessions are independent and each is advanced sequentially
//! in queue order, so `Serial`, `Threads(2)` and `Threads(8)` may only
//! change wall-clock time.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::generate::generate_sequences;
use dhmm_hmm::sparse::SparseParams;
use dhmm_hmm::{Hmm, InferenceBackend};
use dhmm_linalg::Matrix;
use dhmm_stream::{Parallelism, SessionPool, StreamConfig, StreamingDecoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const POLICIES: [Parallelism; 3] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

/// Both streaming backends: the dense scaled engine and the CSR sparse
/// engine (which since the sparse lockstep kernel also batches in
/// lockstep, so it must hold the same determinism contract).
fn backends() -> [InferenceBackend; 2] {
    [
        InferenceBackend::Scaled,
        InferenceBackend::Sparse(SparseParams::threshold(0.02).with_beam(0.01)),
    ]
}

fn model() -> Hmm<DiscreteEmission> {
    let emission = DiscreteEmission::new(
        Matrix::from_rows(&[
            vec![0.6, 0.25, 0.1, 0.05],
            vec![0.1, 0.55, 0.25, 0.1],
            vec![0.05, 0.15, 0.55, 0.25],
        ])
        .unwrap(),
    )
    .unwrap();
    let transition = Matrix::from_rows(&[
        vec![0.75, 0.15, 0.1],
        vec![0.1, 0.75, 0.15],
        vec![0.2, 0.1, 0.7],
    ])
    .unwrap();
    Hmm::new(vec![0.4, 0.3, 0.3], transition, emission).unwrap()
}

fn corpus(n: usize, len: usize) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(41);
    generate_sequences(&model(), n, len, &mut rng)
        .unwrap()
        .into_iter()
        .map(|s| s.observations)
        .collect()
}

/// One run's evidence per session: committed labels + final ll bits.
type PoolTrace = Vec<(Vec<usize>, u64)>;

/// Streams `seqs` through a pool in interleaved chunks under `policy`,
/// with the batched lockstep path on or off, under the given backend.
fn run_pool_with(
    m: &Arc<Hmm<DiscreteEmission>>,
    seqs: &[Vec<usize>],
    policy: Parallelism,
    lockstep: bool,
    backend: InferenceBackend,
) -> PoolTrace {
    let mut pool = SessionPool::with_config(
        Arc::clone(m),
        StreamConfig::default()
            .with_lag(4)
            .with_backend(backend)
            .with_parallelism(policy)
            .with_lockstep(lockstep),
    )
    .unwrap();
    let ids: Vec<_> = seqs.iter().map(|_| pool.create()).collect();
    let chunk = 7;
    let mut offset = 0;
    let max_len = seqs.iter().map(|s| s.len()).max().unwrap_or(0);
    while offset < max_len {
        for (id, seq) in ids.iter().zip(seqs) {
            for &obs in seq.iter().skip(offset).take(chunk) {
                pool.push(*id, obs).unwrap();
            }
        }
        pool.tick();
        offset += chunk;
    }
    ids.iter()
        .zip(seqs)
        .map(|(id, _)| {
            pool.flush(*id).unwrap();
            let mut out = Vec::new();
            pool.take_committed(*id, &mut out).unwrap();
            (out, pool.log_likelihood(*id).unwrap().to_bits())
        })
        .collect()
}

fn run_pool(m: &Arc<Hmm<DiscreteEmission>>, seqs: &[Vec<usize>], policy: Parallelism) -> PoolTrace {
    run_pool_with(m, seqs, policy, true, InferenceBackend::Scaled)
}

/// Truncates the corpus to staggered lengths so the lockstep group's width
/// shrinks and the deepest session's tail takes the scalar step once the
/// short streams dry up.
fn staggered(mut seqs: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for (i, seq) in seqs.iter_mut().enumerate() {
        let cut = seq.len() - (i * 5) % 31;
        seq.truncate(cut);
    }
    seqs
}

#[test]
fn pool_ticks_are_bit_identical_across_worker_policies_and_lockstep_modes() {
    let m = Arc::new(model());
    let seqs = staggered(corpus(12, 90));
    for backend in backends() {
        let mut runs: Vec<PoolTrace> = Vec::new();
        for &p in &POLICIES {
            for lockstep in [true, false] {
                runs.push(run_pool_with(&m, &seqs, p, lockstep, backend));
            }
        }
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                run, &runs[0],
                "run {i} diverged from Serial+lockstep under {backend:?}"
            );
        }
    }
}

#[test]
fn pool_sessions_match_standalone_decoders() {
    // Multiplexing must be invisible: a pooled session's labels and
    // likelihood equal a standalone decoder's on the same stream, bit for
    // bit, regardless of tick chunking — and regardless of whether the
    // pool advanced it via the batched lockstep path or the scalar path.
    let m = Arc::new(model());
    let seqs = staggered(corpus(6, 73));
    for backend in backends() {
        for lockstep in [true, false] {
            let pooled = run_pool_with(&m, &seqs, Parallelism::Threads(4), lockstep, backend);
            for (seq, (labels, ll_bits)) in seqs.iter().zip(&pooled) {
                let config = StreamConfig::default().with_lag(4).with_backend(backend);
                let mut dec = StreamingDecoder::with_config(&m, config).unwrap();
                let mut path = Vec::new();
                for obs in seq {
                    path.extend_from_slice(dec.push(obs).committed);
                }
                path.extend_from_slice(dec.flush().committed);
                assert_eq!(&path, labels, "lockstep={lockstep} backend={backend:?}");
                assert_eq!(dec.log_likelihood().to_bits(), *ll_bits);
            }
        }
    }
}

#[test]
fn auto_policy_matches_the_serial_oracle() {
    let m = Arc::new(model());
    let seqs = corpus(9, 64);
    let auto = run_pool(&m, &seqs, Parallelism::Auto);
    let serial = run_pool(&m, &seqs, Parallelism::Serial);
    assert_eq!(auto, serial);
}

/// Lag of the ragged-depth test. Chunk sizes are drawn from `1..=2L+3`, so
/// a tick may push fewer or more tokens than the `2L` ring holds.
const RAGGED_LAG: usize = 4;
/// More than two 8-lane tiles, so the shrinking panel crosses tile edges.
const RAGGED_SESSIONS: usize = 19;
/// The pool publishes its second model after this many ticks.
const RAGGED_PUBLISH_AFTER: usize = 6;

/// A second model of the same shape, published mid-run.
fn swapped_model() -> Hmm<DiscreteEmission> {
    let emission = DiscreteEmission::new(
        Matrix::from_rows(&[
            vec![0.4, 0.3, 0.2, 0.1],
            vec![0.2, 0.2, 0.5, 0.1],
            vec![0.1, 0.1, 0.2, 0.6],
        ])
        .unwrap(),
    )
    .unwrap();
    let transition = Matrix::from_rows(&[
        vec![0.5, 0.3, 0.2],
        vec![0.25, 0.6, 0.15],
        vec![0.1, 0.3, 0.6],
    ])
    .unwrap();
    Hmm::new(vec![0.2, 0.5, 0.3], transition, emission).unwrap()
}

/// Each session's per-tick chunk sizes, drawn from `1..=2L+3` with a fixed
/// seed until they cover the session's stream. Sessions therefore reach
/// every tick with a different pending depth, and drop out at different
/// ticks.
fn ragged_chunks(seqs: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(1729);
    seqs.iter()
        .map(|seq| {
            let mut sizes = Vec::new();
            let mut covered = 0;
            while covered < seq.len() {
                let size = rng.gen_range(1..=2 * RAGGED_LAG + 3);
                sizes.push(size);
                covered += size;
            }
            sizes
        })
        .collect()
}

/// Streams `seqs` through a pool in the per-session `chunks`, publishing
/// `models[1]` after [`RAGGED_PUBLISH_AFTER`] ticks. Returns the per-session
/// trace and the pool's lifetime lockstep token count.
fn run_ragged_pool(
    models: &[Arc<Hmm<DiscreteEmission>>; 2],
    seqs: &[Vec<usize>],
    chunks: &[Vec<usize>],
    policy: Parallelism,
    lockstep: bool,
    backend: InferenceBackend,
) -> (PoolTrace, u64) {
    let mut pool = SessionPool::with_config(
        Arc::clone(&models[0]),
        StreamConfig::default()
            .with_lag(RAGGED_LAG)
            .with_backend(backend)
            .with_parallelism(policy)
            .with_lockstep(lockstep),
    )
    .unwrap();
    let ids: Vec<_> = seqs.iter().map(|_| pool.create()).collect();
    let mut offsets = vec![0usize; seqs.len()];
    let ticks = chunks.iter().map(Vec::len).max().unwrap_or(0);
    for tick in 0..ticks {
        for (s, id) in ids.iter().enumerate() {
            if let Some(&size) = chunks[s].get(tick) {
                let end = (offsets[s] + size).min(seqs[s].len());
                pool.push_many(*id, seqs[s][offsets[s]..end].iter().copied())
                    .unwrap();
                offsets[s] = end;
            }
        }
        pool.tick();
        if tick + 1 == RAGGED_PUBLISH_AFTER {
            pool.publish(Arc::clone(&models[1]));
        }
    }
    let trace = ids
        .iter()
        .map(|id| {
            pool.flush(*id).unwrap();
            let mut out = Vec::new();
            pool.take_committed(*id, &mut out).unwrap();
            (out, pool.log_likelihood(*id).unwrap().to_bits())
        })
        .collect();
    (trace, pool.lockstep_tokens_total())
}

#[test]
fn ragged_depths_are_bit_identical_to_the_scalar_path_and_standalone_decoders() {
    let models = [Arc::new(model()), Arc::new(swapped_model())];
    let mut seqs = corpus(RAGGED_SESSIONS, 140);
    for (i, seq) in seqs.iter_mut().enumerate() {
        seq.truncate(140 - (i * 7) % 37);
    }
    let chunks = ragged_chunks(&seqs);
    for backend in backends() {
        // Oracle: standalone decoders, closed and reopened on the second
        // model where the pool's publish landed (every session has a
        // token both before and after it).
        let config = StreamConfig::default()
            .with_lag(RAGGED_LAG)
            .with_backend(backend);
        let oracle: PoolTrace = seqs
            .iter()
            .zip(&chunks)
            .map(|(seq, sizes)| {
                let split = sizes[..RAGGED_PUBLISH_AFTER].iter().sum::<usize>();
                assert!(split < seq.len());
                let mut labels = Vec::new();
                let mut ll = 0.0;
                for (m, part) in models.iter().zip([&seq[..split], &seq[split..]]) {
                    let mut dec = StreamingDecoder::with_config(m, config.clone()).unwrap();
                    for obs in part {
                        labels.extend_from_slice(dec.push(obs).committed);
                    }
                    labels.extend_from_slice(dec.flush().committed);
                    ll += dec.log_likelihood();
                }
                (labels, ll.to_bits())
            })
            .collect();
        for policy in POLICIES.into_iter().chain([Parallelism::Auto]) {
            for lockstep in [true, false] {
                let (trace, lockstep_tokens) =
                    run_ragged_pool(&models, &seqs, &chunks, policy, lockstep, backend);
                assert_eq!(lockstep_tokens > 0, lockstep);
                for (s, (got, want)) in trace.iter().zip(&oracle).enumerate() {
                    assert_eq!(
                        got, want,
                        "session {s} diverged: policy={policy:?} lockstep={lockstep} \
                         backend={backend:?}"
                    );
                }
            }
        }
    }
}
