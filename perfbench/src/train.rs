//! `train_pos`: unsupervised dHMM MAP-EM on the synthetic WSJ-like PoS
//! corpus, with a fixed iteration count, then `decode_all` and 1-to-1
//! accuracy. `core`'s DPP M-step, the `hmm` E-step and the `runtime`
//! executor do the work; `stream` and `serve` never run.
//!
//! The untraced fit is `DiversifiedHmm::fit`, called once per EM iteration
//! on the same model so that every iteration is timed on its own. The
//! traced fit is one `BaumWelch::fit_with_updater` over all iterations with
//! a timing wrapper around the DPP transition updater. Both must give the
//! same model to the last bit, or the traced run would measure a different
//! program.

use crate::common::{for_seconds, time_calls, timed_setup, MODEL_SEED};
use crate::probe as layer;
use crate::report::{Outcome, Phase};
use crate::trace::Tracer;
use crate::{Opts, Scale};
use dhmm_core::transition_update::{DppTransitionUpdater, TransitionObjective};
use dhmm_core::{AscentConfig, DiversifiedConfig, DiversifiedHmm};
use dhmm_data::io::model_to_string;
use dhmm_data::pos::{self, PosConfig, NUM_TAGS};
use dhmm_dpp::MStepWorkspace;
use dhmm_eval::accuracy::one_to_one_accuracy;
use dhmm_hmm::baum_welch::{e_step_on, BaumWelch, BaumWelchConfig, TransitionUpdater};
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::{Hmm, HmmError, InferenceBackend, WorkspacePool};
use dhmm_linalg::Matrix;
use dhmm_runtime::Parallelism;
use dhmm_telemetry::{Registry, TelemetrySink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Weight of the diversity prior.
const ALPHA: f64 = 10.0;
/// Projected-gradient steps per M-step.
const ASCENT_STEPS: usize = 10;

struct Shape {
    corpus: PosConfig,
    /// EM iterations per fit.
    iterations: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            corpus: PosConfig {
                num_sentences: 600,
                vocab_size: 2_000,
                min_length: 2,
                max_length: 60,
            },
            iterations: 16,
        },
        Scale::Tiny => Shape {
            corpus: PosConfig {
                num_sentences: 30,
                vocab_size: 200,
                min_length: 2,
                max_length: 20,
            },
            iterations: 2,
        },
    }
}

/// Worker policy: two threads, or one on a single-core machine.
fn parallelism() -> Parallelism {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Parallelism::Threads(cores.min(2))
}

fn config(iterations: usize) -> DiversifiedConfig {
    DiversifiedConfig {
        alpha: ALPHA,
        max_em_iterations: iterations,
        // Zero tolerance: every fit runs exactly `iterations` iterations.
        em_tolerance: 0.0,
        ascent: AscentConfig {
            max_iterations: ASCENT_STEPS,
            ..AscentConfig::default()
        },
        ..DiversifiedConfig::default()
    }
    .with_parallelism(parallelism())
}

/// The generated inputs: the corpus and the model every fit starts from.
struct Input {
    obs: Vec<Vec<usize>>,
    gold: Vec<Vec<usize>>,
    tokens: usize,
    init: Hmm<DiscreteEmission>,
}

fn generate(shape: &Shape, seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = pos::generate(&shape.corpus, &mut rng);
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let (pi, a) = random_parameters(
        NUM_TAGS,
        InitStrategy::Dirichlet { concentration: 3.0 },
        &mut rng,
    )
    .expect("valid random parameters");
    let b = random_stochastic_matrix(NUM_TAGS, corpus.vocab_size, 1.0, &mut rng)
        .expect("valid emission matrix");
    let init =
        Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model");
    Input {
        obs: corpus.corpus.observations(),
        gold: corpus.corpus.labels(),
        tokens: corpus.corpus.num_positions(),
        init,
    }
}

/// The DPP transition updater, timing each `update` call.
struct TimedUpdater {
    inner: DppTransitionUpdater,
    calls: Mutex<Vec<(Instant, Instant)>>,
}

impl TransitionUpdater for TimedUpdater {
    fn update(&self, xi_sum: &Matrix, current: &Matrix) -> Result<Matrix, HmmError> {
        let t0 = Instant::now();
        let a = self.inner.update(xi_sum, current);
        self.calls
            .lock()
            .expect("timing log")
            .push((t0, Instant::now()));
        a
    }

    fn prior_objective(&self, a: &Matrix) -> Result<f64, HmmError> {
        self.inner.prior_objective(a)
    }
}

/// The traced fit: `fit_with_updater` over every iteration, built the way
/// `DiversifiedHmm::fit` builds its trainer. Returns the model and the
/// start and end of every transition update.
fn traced_fit(
    input: &Input,
    iterations: usize,
    sink: &TelemetrySink,
) -> (Hmm<DiscreteEmission>, Vec<(Instant, Instant)>) {
    let cfg = config(iterations);
    let kernel = cfg.validate().expect("valid config");
    let updater = TimedUpdater {
        inner: DppTransitionUpdater::new(cfg.alpha, kernel, cfg.ascent)
            .with_backend(cfg.mstep)
            .with_parallelism(cfg.parallelism)
            .with_telemetry(sink),
        calls: Mutex::new(Vec::new()),
    };
    let bw = BaumWelch::new(BaumWelchConfig {
        max_iterations: cfg.max_em_iterations,
        tolerance: cfg.em_tolerance,
        verbose: false,
        backend: cfg.backend,
        parallelism: cfg.parallelism,
        telemetry: TelemetrySink::Disabled,
    });
    let mut model = input.init.clone();
    bw.fit_with_updater(&mut model, &input.obs, &updater)
        .expect("traced fit");
    (model, updater.calls.into_inner().expect("timing log"))
}

/// 1-to-1 accuracy of `model`'s decoded tags, and how many tokens it covers.
fn accuracy(model: &Hmm<DiscreteEmission>, input: &Input, iterations: usize) -> (u64, u64) {
    let predicted = DiversifiedHmm::new(config(iterations))
        .decode_all(model, &input.obs)
        .expect("decode");
    let (acc, _) = one_to_one_accuracy(&predicted, &input.gold).expect("aligned labels");
    (
        (acc * input.tokens as f64).round() as u64,
        input.tokens as u64,
    )
}

/// Untraced fits for `seconds`: each is `iterations` single-iteration
/// `DiversifiedHmm::fit` calls, compared with `reference` bit for bit.
fn measure_untraced(input: &Input, iterations: usize, reference: &str, seconds: f64) -> Phase {
    let one_step = DiversifiedHmm::new(config(1).with_parallelism(parallelism()));
    let mut phase = Phase::new(parallelism().resolve());
    for_seconds(seconds, || {
        let mut model = input.init.clone();
        phase.start_block();
        for _ in 0..iterations {
            let t = Instant::now();
            one_step.fit(&mut model, &input.obs).expect("EM iteration");
            phase.op_ns.push(t.elapsed().as_nanos() as f64);
        }
        phase.end_block(input.tokens * iterations);
        phase.attempted += iterations as u64;
        if model_to_string(&model) != reference {
            phase.failed += iterations as u64;
        }
        let (right, total) = accuracy(&model, input, iterations);
        phase.labels_right += right;
        phase.labels_total += total;
    });
    phase
}

/// Reads one counter from a registry's text exposition.
fn counter(registry: &Registry, name: &str) -> f64 {
    registry
        .render()
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let shape = shape(opts.scale);
    let n = shape.iterations;
    let (input, setup_s) = timed_setup(|| generate(&shape, opts.seed), drop);

    // Untimed gate: the traced fit is the reference every fit must equal.
    let (reference_model, _) = traced_fit(&input, n, &TelemetrySink::Disabled);
    let reference = model_to_string(&reference_model);

    let mut out = Outcome::default();
    out.note("corpus_tokens", input.tokens);
    out.note("em_iterations_per_fit", n);
    out.note("threads", parallelism().resolve());
    if !opts.trace {
        let phase = measure_untraced(&input, n, &reference, opts.seconds);
        out.end_to_end(&phase, setup_s);
        return out;
    }

    let half = opts.seconds / 2.0;
    let plain = measure_untraced(&input, n, &reference, half);
    out.attempted += plain.attempted;
    out.failed += plain.failed;

    // Traced half. The registry sees the ascent's accept/reject counters and
    // the runtime's per-band busy time, which only this run switches on.
    let registry = Registry::new();
    let sink = TelemetrySink::Registry(registry.clone());
    dhmm_runtime::telemetry::set_timing_enabled(true);
    registry.counter_fn(
        "dhmm_runtime_busy_ns_total",
        &[],
        "Per-participant busy nanoseconds summed over dispatches.",
        dhmm_runtime::telemetry::busy_ns_total,
    );
    let mut tracer = Tracer::on();
    let mut op = 0u64;
    let mut traced = Phase::new(parallelism().resolve());
    let mut fitted = input.init.clone();
    for_seconds(half, || {
        op += 1;
        let root = tracer.start(op, "train.fit_with_updater", Tracer::ROOT);
        traced.start_block();
        let (model, calls) = traced_fit(&input, n, &sink);
        tracer.end(root);
        traced.end_block(input.tokens * n);
        for (from, to) in calls {
            tracer.record(op, "core.transition_update", root, from, to);
        }
        traced.attempted += n as u64;
        if model_to_string(&model) != reference {
            traced.failed += n as u64;
        }
        fitted = model;
    });
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.set(
        "trace.overhead_frac",
        1.0 - traced.tokens_per_s() / plain.tokens_per_s(),
    );

    let (fit_ns, fits) = tracer.total("train.fit_with_updater");
    let iters = (fits * n) as f64;
    let iter_ms = fit_ns as f64 / iters / 1e6;
    let mstep_ms = tracer.total("core.transition_update").0 as f64 / iters / 1e6;
    out.set("core.mstep_ms_per_iter", mstep_ms);

    // E-step on the starting and on the fitted model.
    let par = parallelism();
    let e_start = layer::estep(
        &mut tracer,
        &mut op,
        &input.init,
        InferenceBackend::Scaled,
        &input.obs,
        par,
    );
    let e_fitted = layer::estep(
        &mut tracer,
        &mut op,
        &fitted,
        InferenceBackend::Scaled,
        &input.obs,
        par,
    );
    // Busy time the runtime's workers report over three more E-steps.
    let mut pool = WorkspacePool::new();
    let busy0 = counter(&registry, "dhmm_runtime_busy_ns_total");
    let mark = tracer.spans().len();
    for _ in 0..3 {
        op += 1;
        let span = tracer.start(op, "runtime.e_step_dispatch", Tracer::ROOT);
        black_box(
            e_step_on(
                &fitted,
                &input.obs,
                InferenceBackend::Scaled,
                &mut pool,
                par,
            )
            .expect("e-step"),
        );
        tracer.end(span);
    }
    let busy = counter(&registry, "dhmm_runtime_busy_ns_total") - busy0;
    let wall = tracer.total_since("runtime.e_step_dispatch", mark).0 as f64;
    out.set("runtime.busy_share", busy / (par.resolve() as f64 * wall));
    let estep_ns_per_token = (e_start + e_fitted) / 2.0;
    out.set("hmm.estep_ns_per_token", estep_ns_per_token);
    out.set(
        "core.em_other_ms_per_iter",
        iter_ms - estep_ns_per_token * input.tokens as f64 / 1e6 - mstep_ms,
    );
    out.note("em_iteration_ms", iter_ms);

    let accepted = counter(&registry, "dhmm_train_ascent_accepted_total");
    let rejected = counter(&registry, "dhmm_train_ascent_rejected_total");
    out.set(
        "core.ascent_accept_share",
        accepted / (accepted + rejected).max(1.0),
    );

    // The DPP objective's value and gradient on the fitted model's counts.
    let cfg = config(n);
    let stats = e_step_on(
        &fitted,
        &input.obs,
        InferenceBackend::Scaled,
        &mut pool,
        par,
    )
    .expect("e-step");
    let mut counts = Matrix::zeros(NUM_TAGS, NUM_TAGS);
    for s in &stats {
        counts = &counts + &s.xi_sum;
    }
    let objective = TransitionObjective::unsupervised(
        &counts,
        cfg.alpha,
        cfg.validate().expect("valid config"),
    )
    .with_backend(cfg.mstep)
    .with_parallelism(par);
    let mut ws = MStepWorkspace::new();
    let mut grad = Matrix::zeros(NUM_TAGS, NUM_TAGS);
    let ns = time_calls(
        &mut tracer,
        &mut op,
        "dpp.value_and_gradient_with",
        layer::PROBE_SECS,
        || {
            black_box(
                objective
                    .value_and_gradient_with(fitted.transition(), &mut ws, &mut grad)
                    .expect("objective"),
            );
        },
    );
    out.set("dpp.value_grad_us_per_call", ns / 1e3);

    let seq = layer::probe_sequence(&input.obs);
    layer::kernels(
        &mut out,
        &mut tracer,
        &mut op,
        &fitted,
        InferenceBackend::Scaled,
        &seq,
    );
    layer::decode(&mut out, &mut tracer, &mut op, &fitted, cfg, &input.obs);

    out.write_spans(&tracer, "train_pos");
    out
}
