//! Input generation and timing helpers shared by the workloads.

use crate::stats;
use crate::trace::Tracer;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::generate::generate_sequence;
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::Hmm;
use dhmm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Seed of the workloads' models (and of the EM starting point). The model
/// is part of a workload's definition; `--seed` draws the traffic it
/// labels, so label accuracy and per-token cost do not move with the seed.
pub const MODEL_SEED: u64 = 0x5EED_D44A;

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Directory the benchmark writes into: spans, and the checkpoints the
/// server loads. Inside the package, so a run touches nothing outside its
/// checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs `build` [`SETUP_REPS`] times and keeps the last result, handing the
/// earlier ones to `discard`. Returns it with the median build time, scaled
/// to [`REFERENCE_SPEED`] like every time the benchmark reports (see
/// `report::Phase`).
pub fn timed_setup<T>(mut build: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    let mut speed = calibrate(1);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build();
        let raw = t.elapsed().as_secs_f64();
        let after = calibrate(1);
        secs.push(raw * (speed + after) / 2.0 / REFERENCE_SPEED);
        speed = after;
        if let Some(old) = kept.replace(built) {
            discard(old);
        }
    }
    (kept.expect("at least one set-up"), stats::median(&mut secs))
}

/// Calls `pass` until `seconds` have elapsed (at least once).
pub fn for_seconds(seconds: f64, mut pass: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        pass();
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// Times `call` under a span named `name` until `secs` have elapsed (at
/// least three calls after one warm-up call) and returns the mean
/// nanoseconds per call, read back from the spans.
pub fn time_calls(
    tracer: &mut Tracer,
    op: &mut u64,
    name: &'static str,
    secs: f64,
    mut call: impl FnMut(),
) -> f64 {
    call();
    let mark = tracer.spans().len();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut calls = 0;
    while calls < 3 || Instant::now() < deadline {
        *op += 1;
        let span = tracer.start(*op, name, Tracer::ROOT);
        call();
        tracer.end(span);
        calls += 1;
    }
    let (ns, n) = tracer.total_since(name, mark);
    ns as f64 / n as f64
}

/// A random discrete HMM: Dirichlet(2) initial and transition rows, and
/// emission rows drawn with `emission_concentration` (below 1 gives peaked
/// emissions, so decoded labels carry information about the hidden states).
pub fn dense_model(
    k: usize,
    vocab: usize,
    emission_concentration: f64,
    rng: &mut StdRng,
) -> Hmm<DiscreteEmission> {
    let (pi, a) = random_parameters(k, InitStrategy::Dirichlet { concentration: 2.0 }, rng)
        .expect("valid random parameters");
    let b = random_stochastic_matrix(k, vocab, emission_concentration, rng)
        .expect("valid emission matrix");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

/// A discrete HMM whose transition rows put `heavy_mass` on
/// `density_pct`% of the successors and share the rest evenly: the regime
/// the diversified M-step drives rows toward, and the one threshold pruning
/// compresses.
pub fn concentrated_model(
    k: usize,
    vocab: usize,
    density_pct: usize,
    heavy_mass: f64,
    emission_concentration: f64,
    rng: &mut StdRng,
) -> Hmm<DiscreteEmission> {
    let heavy_per_row = (k * density_pct).div_ceil(100).clamp(1, k);
    let light = (1.0 - heavy_mass) / (k - heavy_per_row).max(1) as f64;
    let mut a = Matrix::from_fn(k, k, |_, _| light);
    let mut cols: Vec<usize> = (0..k).collect();
    for i in 0..k {
        for j in (1..k).rev() {
            cols.swap(j, rng.gen_range(0..=j));
        }
        let weights: Vec<f64> = (0..heavy_per_row)
            .map(|_| rng.gen_range(0.2..1.0))
            .collect();
        let wsum: f64 = weights.iter().sum();
        for (&c, w) in cols[..heavy_per_row].iter().zip(&weights) {
            a[(i, c)] += w * heavy_mass / wsum;
        }
    }
    a.normalize_rows();
    let pi = vec![1.0 / k as f64; k];
    let b = random_stochastic_matrix(k, vocab, emission_concentration, rng)
        .expect("valid emission matrix");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

/// One stream sampled from `model`: hidden states and observations.
pub struct Stream {
    /// Hidden state at each step (what a correct labeler recovers).
    pub states: Vec<usize>,
    /// Observed symbol at each step.
    pub obs: Vec<usize>,
}

/// Samples a stream of `len` steps from `model`.
pub fn sample(model: &Hmm<DiscreteEmission>, len: usize, rng: &mut StdRng) -> Stream {
    let s = generate_sequence(model, len, rng).expect("sampling a valid model");
    Stream {
        states: s.states,
        obs: s.observations,
    }
}

/// `n` sizes spread evenly over `lo..=hi`, in an order drawn from `rng`.
/// Every seed draws the same multiset, so every pass carries the same
/// amount of work and the seed only moves where it falls.
pub fn ragged(n: usize, lo: usize, hi: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..n).map(|i| lo + i % (hi - lo + 1)).collect();
    shuffle(&mut sizes, rng);
    sizes
}

/// Fisher–Yates shuffle.
pub fn shuffle(v: &mut [usize], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Counts positions where `labels` equals `truth`.
pub fn agreeing(labels: &[usize], truth: &[usize]) -> u64 {
    labels.iter().zip(truth).filter(|(a, b)| a == b).count() as u64
}

/// Calibration loop speed (steps per second) that reported times are scaled
/// to; see [`calibrate`].
pub const REFERENCE_SPEED: f64 = 100_000.0;

/// Speed of this machine right now, in steps per second of a fixed loop
/// owned by the benchmark (a chain of 128×128 matrix–vector products, about
/// 10 ms), run at once on `threads` threads and averaged. The program under
/// test never runs it, so a change to the program cannot move it; a busy
/// neighbour on a shared host slows it as much as it slows the workload.
pub fn calibrate(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads)
            .map(|_| scope.spawn(calibration_loop))
            .collect();
        let mine = calibration_loop();
        let total: f64 = others
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .sum::<f64>()
            + mine;
        total / threads as f64
    })
}

fn calibration_loop() -> f64 {
    const K: usize = 128;
    const STEPS: usize = 1000;
    let m: Vec<f64> = (0..K * K)
        .map(|i| ((i * 7919) % 1000) as f64 / 1000.0 + 0.01)
        .collect();
    let mut x = vec![1.0 / K as f64; K];
    let mut y = vec![0.0; K];
    let t = Instant::now();
    for _ in 0..STEPS {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = m[i * K..(i + 1) * K]
                .iter()
                .zip(&x)
                .map(|(a, b)| a * b)
                .sum();
        }
        let n: f64 = y.iter().sum();
        for (xj, yj) in x.iter_mut().zip(&y) {
            *xj = yj / n;
        }
    }
    black_box(&x);
    STEPS as f64 / t.elapsed().as_secs_f64()
}
