//! Pins the accounting in [`TickReport`]: which sessions count, how tokens
//! split between the lockstep and scalar paths, and how the pool-lifetime
//! counters accumulate. Label correctness is pinned elsewhere
//! (`session_determinism.rs`, `parity.rs`); this file is only about the
//! numbers operators read off `stats`.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_linalg::Matrix;
use dhmm_stream::{Parallelism, SessionPool, StreamConfig, TickReport};
use std::sync::Arc;

fn model() -> Arc<Hmm<DiscreteEmission>> {
    let emission =
        DiscreteEmission::new(Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap())
            .unwrap();
    let transition = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.3, 0.7]]).unwrap();
    Arc::new(Hmm::new(vec![0.5, 0.5], transition, emission).unwrap())
}

fn pool(lockstep: bool) -> SessionPool<DiscreteEmission> {
    SessionPool::with_config(
        model(),
        StreamConfig::default()
            .with_lag(2)
            .with_parallelism(Parallelism::Serial)
            .with_lockstep(lockstep),
    )
    .unwrap()
}

#[test]
fn report_counts_active_flushed_idle_and_stale_epoch_sessions() {
    let mut pool = pool(true);
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
            // At lag 2 a smoothing block fires on the 4th token: only
            // busy_b gets that far, on its lone scalar token, emitting its
            // oldest 2 rows on the scalar path.
            smoothing_batched_tokens: 0,
            smoothing_scalar_tokens: 2,
        }
    );

    // Everyone is current now; an empty tick reports all zeros.
    assert_eq!(pool.tick(), TickReport::default());
}

#[test]
fn token_split_tracks_group_membership_and_accumulates_on_the_pool() {
    let mut pool = pool(true);
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
    assert_eq!(report.sessions, 3);
    assert_eq!(report.tokens, 13);
    assert_eq!(report.lockstep_tokens, 13);
    assert_eq!(report.scalar_tokens, 0);
    // a and b hit their lag-2 window boundary on the same lockstep step,
    // so their blocks run as one batched panel (2 rows each); c never
    // accumulates the 4 tokens a block needs.
    assert_eq!(report.smoothing_batched_tokens, 4);
    assert_eq!(report.smoothing_scalar_tokens, 0);

    // All three at the same depth: one group, nothing scalar.
    for id in [a, b, c] {
        pool.push_many(id, [1usize, 0]).unwrap();
    }
    let report = pool.tick();
    assert_eq!(report.lockstep_tokens, 6);
    assert_eq!(report.scalar_tokens, 0);
    // Due-alignment is relative to each session's own window, not absolute
    // stream time: a/b (at t=5) and c (at t=3) all fire on the group's
    // first step and co-batch despite staggered depths.
    assert_eq!(report.smoothing_batched_tokens, 6);
    assert_eq!(report.smoothing_scalar_tokens, 0);

    // The pool-lifetime counters are the running sums of the reports.
    assert_eq!(pool.lockstep_tokens_total(), 19);
    assert_eq!(pool.scalar_tokens_total(), 0);
    assert_eq!(pool.smoothing_batched_total(), 10);
    assert_eq!(pool.smoothing_scalar_total(), 0);
}

#[test]
fn lockstep_disabled_routes_every_token_through_the_scalar_path() {
    let mut pool = pool(false);
    assert!(!pool.lockstep_enabled());
    let a = pool.create();
    let b = pool.create();
    pool.push_many(a, [0usize, 1, 0]).unwrap();
    pool.push_many(b, [1usize, 0, 1]).unwrap();

    let report = pool.tick();
    assert_eq!(report.sessions, 2);
    assert_eq!(report.tokens, 6);
    assert_eq!(report.lockstep_tokens, 0);
    assert_eq!(report.scalar_tokens, 6);
    assert_eq!(report.smoothing_batched_tokens, 0);
    assert_eq!(report.smoothing_scalar_tokens, 0);
    assert_eq!(pool.lockstep_tokens_total(), 0);
    assert_eq!(pool.scalar_tokens_total(), 6);
}
