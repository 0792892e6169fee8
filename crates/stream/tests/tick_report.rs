//! Pins the accounting in [`TickReport`]: which sessions count, how tokens
//! split between the lockstep and scalar paths, and how the pool-lifetime
//! counters accumulate. Label correctness is pinned elsewhere
//! (`session_determinism.rs`, `parity.rs`); this file is only about the
//! numbers operators read off `stats`.
//!
//! Every test runs under both streaming backends and lags 0, 1 and 8: the
//! token split depends on queue depths alone, and the smoothing split is 0
//! in every case because a pool emits no smoothed posteriors.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_linalg::Matrix;
use dhmm_stream::{
    InferenceBackend, Parallelism, SessionPool, SparseParams, StreamConfig, TickReport,
};
use std::sync::Arc;

fn model() -> Arc<Hmm<DiscreteEmission>> {
    let emission =
        DiscreteEmission::new(Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap())
            .unwrap();
    let transition = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.3, 0.7]]).unwrap();
    Arc::new(Hmm::new(vec![0.5, 0.5], transition, emission).unwrap())
}

/// Every (backend, lag) pair the tests run under.
fn cases() -> Vec<(InferenceBackend, usize)> {
    let sparse = InferenceBackend::Sparse(SparseParams::threshold(0.05).with_beam(0.02));
    [InferenceBackend::Scaled, sparse]
        .into_iter()
        .flat_map(|backend| [0usize, 1, 8].map(|lag| (backend, lag)))
        .collect()
}

fn pool(lockstep: bool, backend: InferenceBackend, lag: usize) -> SessionPool<DiscreteEmission> {
    SessionPool::with_config(
        model(),
        StreamConfig::default()
            .with_lag(lag)
            .with_backend(backend)
            .with_parallelism(Parallelism::Serial)
            .with_lockstep(lockstep),
    )
    .unwrap()
}

#[test]
fn report_counts_active_flushed_idle_and_stale_epoch_sessions() {
    for (backend, lag) in cases() {
        counts_active_flushed_idle_and_stale_epoch_sessions(backend, lag);
    }
}

fn counts_active_flushed_idle_and_stale_epoch_sessions(backend: InferenceBackend, lag: usize) {
    let case = format!("backend={backend:?} lag={lag}");
    let mut pool = pool(true, backend, lag);
    let busy_a = pool.create();
    let busy_b = pool.create();
    let flushed = pool.create();
    let _idle = pool.create();

    pool.push_many(busy_a, [0usize, 1, 0]).unwrap();
    pool.push_many(busy_b, [1usize, 1, 0, 1]).unwrap();
    pool.push(flushed, 0).unwrap();
    pool.flush(flushed).unwrap();

    // Publish a new epoch so the tick also has rebind work: every live
    // unflushed session is stale — including the idle one, which gets
    // rebound without contributing tokens or counting as a session.
    pool.publish(model());
    let report = pool.tick();
    assert_eq!(
        report,
        TickReport {
            sessions: 2,
            tokens: 7,
            rebound: 3,
            // Depths 4 and 3 share three panel steps; busy_b's 4th token
            // is left alone and takes the scalar step.
            lockstep_tokens: 6,
            scalar_tokens: 1,
            // No smoothing runs in a pool.
            smoothing_batched_tokens: 0,
            smoothing_scalar_tokens: 0,
        },
        "{case}"
    );

    // Everyone is current now; an empty tick reports all zeros.
    assert_eq!(pool.tick(), TickReport::default(), "{case}");
}

#[test]
fn token_split_tracks_group_membership_and_accumulates_on_the_pool() {
    for (backend, lag) in cases() {
        token_split_tracks_group_membership(backend, lag);
    }
}

fn token_split_tracks_group_membership(backend: InferenceBackend, lag: usize) {
    let case = format!("backend={backend:?} lag={lag}");
    let mut pool = pool(true, backend, lag);
    assert!(pool.lockstep_enabled());
    let a = pool.create();
    let b = pool.create();
    let c = pool.create();
    let _idle = pool.create();

    // One ragged group: a and b (depth 5) and c (depth 3) share three panel
    // steps, then a and b share two more. Nothing is left alone.
    pool.push_many(a, [0usize, 1, 0, 1, 1]).unwrap();
    pool.push_many(b, [1usize, 0, 0, 1, 0]).unwrap();
    pool.push_many(c, [0usize, 0, 1]).unwrap();
    let report = pool.tick();
    assert_eq!(report.sessions, 3, "{case}");
    assert_eq!(report.tokens, 13, "{case}");
    assert_eq!(report.lockstep_tokens, 13, "{case}");
    assert_eq!(report.scalar_tokens, 0, "{case}");
    assert_eq!(report.smoothing_batched_tokens, 0, "{case}");
    assert_eq!(report.smoothing_scalar_tokens, 0, "{case}");

    // All three at the same depth: one group, nothing scalar.
    for id in [a, b, c] {
        pool.push_many(id, [1usize, 0]).unwrap();
    }
    let report = pool.tick();
    assert_eq!(report.lockstep_tokens, 6, "{case}");
    assert_eq!(report.scalar_tokens, 0, "{case}");
    assert_eq!(report.smoothing_batched_tokens, 0, "{case}");
    assert_eq!(report.smoothing_scalar_tokens, 0, "{case}");

    // The pool-lifetime counters are the running sums of the reports.
    assert_eq!(pool.lockstep_tokens_total(), 19, "{case}");
    assert_eq!(pool.scalar_tokens_total(), 0, "{case}");
}

#[test]
fn lockstep_disabled_routes_every_token_through_the_scalar_path() {
    for (backend, lag) in cases() {
        lockstep_disabled_routes_every_token_through_scalar(backend, lag);
    }
}

fn lockstep_disabled_routes_every_token_through_scalar(backend: InferenceBackend, lag: usize) {
    let case = format!("backend={backend:?} lag={lag}");
    let mut pool = pool(false, backend, lag);
    assert!(!pool.lockstep_enabled());
    let a = pool.create();
    let b = pool.create();
    pool.push_many(a, [0usize, 1, 0]).unwrap();
    pool.push_many(b, [1usize, 0, 1]).unwrap();

    let report = pool.tick();
    assert_eq!(report.sessions, 2, "{case}");
    assert_eq!(report.tokens, 6, "{case}");
    assert_eq!(report.lockstep_tokens, 0, "{case}");
    assert_eq!(report.scalar_tokens, 6, "{case}");
    assert_eq!(report.smoothing_batched_tokens, 0, "{case}");
    assert_eq!(report.smoothing_scalar_tokens, 0, "{case}");
    assert_eq!(pool.lockstep_tokens_total(), 0, "{case}");
    assert_eq!(pool.scalar_tokens_total(), 6, "{case}");
}
