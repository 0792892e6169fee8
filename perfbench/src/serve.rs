//! `serve_wire`: `dhmm-serve` on loopback, driven by one client connection
//! in a closed loop.
//!
//! The client interleaves several short-lived sessions (create, 32-token
//! pushes, flush, close) and a `swap-model` alternates between two
//! checkpoints at fixed request indices. At k=16 the kernels are cheap, so
//! the protocol, the transport and the engine queue do most of the work;
//! create/close and the hot swap are the writes that run beside the push
//! reads on the same pool.
//!
//! The server runs with the `dhmm-serve` binary's defaults (telemetry into
//! the process-global registry, lockstep on), except that its worker policy
//! is explicit (`Serial`) instead of `Auto`.

use crate::common::{
    agreeing, dense_model, for_seconds, out_dir, ragged, sample, timed_setup, Stream, MODEL_SEED,
};
use crate::probe;
use crate::report::{Outcome, Phase};
use crate::stats;
use crate::trace::Tracer;
use crate::{Opts, Scale};
use dhmm_core::DiversifiedConfig;
use dhmm_data::io::{load_model, save_model, LoadedModel};
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::{Hmm, InferenceBackend};
use dhmm_linalg::Matrix;
use dhmm_runtime::Parallelism;
use dhmm_serve::{
    read_frame, write_frame, Request, Response, ServeConfig, Server, ServerHandle, SessionId,
    SessionPool,
};
use dhmm_stream::{StreamConfig, TickReport};
use dhmm_telemetry::TelemetrySink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// States of the served model.
const K: usize = 16;
/// Observation alphabet.
const VOCAB: usize = 64;
/// Emission Dirichlet concentration.
const EMISSION_CONCENTRATION: f64 = 0.1;
/// Fixed lag (the `dhmm-serve` default).
const LAG: usize = 8;
/// Tokens per push request.
const PUSH_TOKENS: usize = 32;
/// Sessions open at once on the connection.
const LIVE_SESSIONS: usize = 4;
/// Weight of the first model in the second checkpoint; the rest is a
/// random model. Close to 1, so both checkpoints label the same states.
const SWAP_KEEP: f64 = 0.9;

struct Shape {
    sessions: usize,
    max_pushes: usize,
    /// A `swap-model` is sent before every request whose index is a
    /// multiple of this (alternating the second and the first checkpoint).
    swap_every: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            sessions: 768,
            max_pushes: 8,
            swap_every: 256,
        },
        Scale::Tiny => Shape {
            sessions: 4,
            max_pushes: 2,
            swap_every: 4,
        },
    }
}

/// What a request of the script does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Create,
    Push,
    Flush,
    Close,
    Swap,
}

/// One request of the script, on logical session `session` (unused by
/// `swap-model`). `request` carries a placeholder session id that is
/// replaced by the live one before it is sent.
struct Step {
    verb: Verb,
    session: usize,
    request: Request,
}

/// The generated inputs: two checkpoints and one pass's request script.
struct Input {
    models: [Arc<Hmm<DiscreteEmission>>; 2],
    paths: [PathBuf; 2],
    streams: Vec<Stream>,
    script: Vec<Step>,
}

/// `SWAP_KEEP · a + (1 − SWAP_KEEP) · b`, row-normalized.
fn blend(a: &Matrix, b: &Matrix) -> Matrix {
    let mut m = Matrix::from_fn(a.rows(), a.cols(), |i, j| {
        SWAP_KEEP * a[(i, j)] + (1.0 - SWAP_KEEP) * b[(i, j)]
    });
    m.normalize_rows();
    m
}

fn work_dir() -> PathBuf {
    out_dir().join(format!("work-{}", std::process::id()))
}

fn generate(shape: &Shape, seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let first = dense_model(K, VOCAB, EMISSION_CONCENTRATION, &mut rng);
    let noise = dense_model(K, VOCAB, EMISSION_CONCENTRATION, &mut rng);
    let second = Hmm::new(
        first.initial().to_vec(),
        blend(first.transition(), noise.transition()),
        DiscreteEmission::new(blend(first.emission().probs(), noise.emission().probs()))
            .expect("valid emission"),
    )
    .expect("valid model");

    let mut rng = StdRng::seed_from_u64(seed);
    let pushes = ragged(shape.sessions, 1, shape.max_pushes, &mut rng);
    let streams: Vec<Stream> = pushes
        .iter()
        .map(|&p| sample(&first, p * PUSH_TOKENS, &mut rng))
        .collect();

    // Interleave: each request advances one of the live sessions, chosen at
    // random; a closed session's slot takes the next one.
    let placeholder = SessionId::from_parts(0, 0);
    let mut script = Vec::new();
    let mut live: Vec<(usize, usize)> = Vec::new(); // (session, requests sent)
    let mut next = 0;
    loop {
        while live.len() < LIVE_SESSIONS && next < shape.sessions {
            live.push((next, 0));
            next += 1;
        }
        if live.is_empty() {
            break;
        }
        if !script.is_empty() && script.len() % shape.swap_every == 0 {
            let to = script
                .iter()
                .filter(|s: &&Step| s.verb == Verb::Swap)
                .count()
                % 2
                == 0;
            script.push(swap_step(to));
        }
        let slot = rng.gen_range(0..live.len());
        let (session, sent) = live[slot];
        let (verb, request) = match sent {
            0 => (Verb::Create, Request::Create),
            n if n <= pushes[session] => {
                let tokens = streams[session].obs[(n - 1) * PUSH_TOKENS..n * PUSH_TOKENS]
                    .iter()
                    .map(|o| o.to_string())
                    .collect();
                (
                    Verb::Push,
                    Request::Push {
                        id: placeholder,
                        tokens,
                    },
                )
            }
            n if n == pushes[session] + 1 => (Verb::Flush, Request::Flush { id: placeholder }),
            _ => (Verb::Close, Request::Close { id: placeholder }),
        };
        script.push(Step {
            verb,
            session,
            request,
        });
        if verb == Verb::Close {
            live.swap_remove(slot);
        } else {
            live[slot].1 += 1;
        }
    }
    // Every pass starts and ends on the first checkpoint.
    if script.iter().filter(|s| s.verb == Verb::Swap).count() % 2 == 1 {
        script.push(swap_step(false));
    }

    let dir = work_dir();
    std::fs::create_dir_all(&dir).expect("create the work directory");
    let paths = [dir.join("model-a.ckpt"), dir.join("model-b.ckpt")];
    save_model(&paths[0], &first).expect("write checkpoint");
    save_model(&paths[1], &second).expect("write checkpoint");
    let mut input = Input {
        models: [Arc::new(first), Arc::new(second)],
        paths,
        streams,
        script,
    };
    for step in &mut input.script {
        if let Request::SwapModel { path } = &mut step.request {
            *path = input.paths[usize::from(path == "b")].display().to_string();
        }
    }
    input
}

/// A swap to the second checkpoint (`true`) or back to the first; the path
/// is filled in once the checkpoints are written.
fn swap_step(to_second: bool) -> Step {
    Step {
        verb: Verb::Swap,
        session: usize::MAX,
        request: Request::SwapModel {
            path: if to_second { "b" } else { "a" }.into(),
        },
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_lag(LAG)
        .with_parallelism(Parallelism::Serial)
        .with_telemetry(TelemetrySink::process_global())
}

/// The stream config the server derives from [`serve_config`], for the
/// in-process replay (telemetry does not change labels).
fn replay_config() -> StreamConfig {
    let c = serve_config();
    StreamConfig::default()
        .with_lag(c.lag)
        .with_backend(c.backend)
        .with_parallelism(c.parallelism)
        .with_pending_cap(c.pending_cap)
        .with_committed_cap(c.committed_cap)
        .with_lockstep(c.lockstep)
}

struct Setup {
    input: Input,
    server: ServerHandle,
}

fn set_up(shape: &Shape, seed: u64) -> Setup {
    let input = generate(shape, seed);
    let server = Server::start_from_path(&input.paths[0], serve_config(), "127.0.0.1:0")
        .expect("server starts");
    Setup { input, server }
}

/// Points every request of the script at the live session ids.
fn bind(step: &mut Step, ids: &[Option<SessionId>]) {
    if let Request::Push { id, .. } | Request::Flush { id } | Request::Close { id } =
        &mut step.request
    {
        *id = ids[step.session].expect("session created before use");
    }
}

/// Records a created session's id.
fn created(step: &Step, response: &Response, ids: &mut [Option<SessionId>]) {
    if let (Verb::Create, Response::Created { id }) = (step.verb, response) {
        ids[step.session] = Some(*id);
    }
}

/// What the in-process engine answers to `request`: the server's
/// `apply_batch` for a batch of one request. Under a live tracer the push
/// stages get their own spans.
fn engine_apply(
    pool: &mut SessionPool<DiscreteEmission>,
    request: &Request,
    tracer: &mut Tracer,
    op: u64,
    parent: crate::trace::SpanId,
    ticks: &mut TickReport,
) -> Response {
    let refused = |e: dhmm_stream::StreamError| Response::Error {
        code: "refused".into(),
        message: e.to_string(),
    };
    match request {
        Request::Create => Response::Created { id: pool.create() },
        Request::Push { id, tokens } => {
            let span = tracer.start(op, "stream.push_many", parent);
            let obs: Vec<usize> = tokens
                .iter()
                .map(|t| t.parse().expect("numeric token"))
                .collect();
            let pushed = pool.push_many(*id, obs);
            tracer.end(span);
            if let Err(e) = pushed {
                return refused(e);
            }
            let span = tracer.start(op, "stream.tick", parent);
            let report = pool.tick();
            tracer.end(span);
            probe::add_ticks(ticks, &report);
            let span = tracer.start(op, "stream.take_committed", parent);
            let mut labels = Vec::new();
            let taken = pool.take_committed(*id, &mut labels);
            tracer.end(span);
            match taken {
                Ok(start) => Response::Committed { start, labels },
                Err(e) => refused(e),
            }
        }
        Request::Flush { id } => match pool.flush(*id) {
            Ok(()) => {
                let mut labels = Vec::new();
                let start = pool.take_committed(*id, &mut labels).expect("just flushed");
                Response::Flushed {
                    start,
                    labels,
                    log_likelihood: pool.log_likelihood(*id).expect("just flushed"),
                    tokens: pool.tokens(*id).expect("just flushed"),
                }
            }
            Err(e) => refused(e),
        },
        Request::Close { id } => match pool.close(*id) {
            Ok(()) => Response::Closed,
            Err(e) => refused(e),
        },
        Request::SwapModel { path } => {
            match load_model(Path::new(path)).expect("read checkpoint") {
                LoadedModel::Discrete(m) => Response::Swapped {
                    epoch: pool.publish(Arc::new(m)),
                },
                LoadedModel::Gaussian(_) => {
                    unreachable!("the benchmark writes discrete checkpoints")
                }
            }
        }
        Request::Stats | Request::Metrics => unreachable!("not in the script"),
    }
}

/// One pass of the script through an in-process pool.
fn replay_pass(
    pool: &mut SessionPool<DiscreteEmission>,
    input: &mut Input,
    tracer: &mut Tracer,
    op: &mut u64,
    ticks: &mut TickReport,
) -> Vec<Response> {
    let mut ids = vec![None; input.streams.len()];
    let mut out = Vec::with_capacity(input.script.len());
    for step in &mut input.script {
        *op += 1;
        if step.verb != Verb::Create && step.verb != Verb::Swap {
            bind(step, &ids);
        }
        let span = tracer.start(*op, "serve.engine", Tracer::ROOT);
        let response = engine_apply(pool, &step.request, tracer, *op, span, ticks);
        tracer.end(span);
        created(step, &response, &mut ids);
        out.push(response);
    }
    out
}

/// Whether a wire response carries what the reference replay answered.
/// Session ids and epochs differ between the two pools and are not
/// compared; labels, offsets, likelihoods and token counts are.
fn agrees(got: &Response, want: &Response) -> bool {
    match (got, want) {
        (Response::Created { .. }, Response::Created { .. }) => true,
        (Response::Swapped { .. }, Response::Swapped { .. }) => true,
        (Response::Closed, Response::Closed) => true,
        (Response::Error { .. }, _) => false,
        (
            Response::Flushed {
                start,
                labels,
                log_likelihood,
                tokens,
            },
            Response::Flushed {
                start: s,
                labels: l,
                log_likelihood: ll,
                tokens: t,
            },
        ) => start == s && labels == l && log_likelihood.to_bits() == ll.to_bits() && tokens == t,
        (got, want) => got == want,
    }
}

/// One round trip over the wire, with spans for the client-side protocol
/// work and for the wait on the server. Returns the response and the two
/// frames' payloads.
fn call(
    conn: &mut TcpStream,
    request: &Request,
    tracer: &mut Tracer,
    op: u64,
) -> (Response, (String, String)) {
    let root = tracer.start(op, "serve.request", Tracer::ROOT);
    let span = tracer.start(op, "serve.client_encode", root);
    let payload = request.encode();
    tracer.end(span);
    let span = tracer.start(op, "serve.wire", root);
    write_frame(conn, &payload).expect("send a frame");
    let reply = read_frame(conn)
        .expect("read a frame")
        .expect("server open");
    tracer.end(span);
    let span = tracer.start(op, "serve.client_parse", root);
    let response = Response::parse(&reply).expect("well-formed response");
    tracer.end(span);
    tracer.end(root);
    (response, (payload, reply))
}

/// What the traced phase keeps of every request: its frames, for the
/// protocol replay, and its round trip, by verb.
#[derive(Default)]
struct Recording {
    frames: Vec<(String, String)>,
    trips: Vec<(Verb, f64)>,
}

/// Requests per timed block (see [`Phase::start_block`]).
const BLOCK_REQUESTS: usize = 2048;

/// Wire passes for `seconds`, checked against `reference`.
fn measure(
    conn: &mut TcpStream,
    input: &mut Input,
    reference: &[Response],
    seconds: f64,
    tracer: &mut Tracer,
    op: &mut u64,
    mut recording: Option<&mut Recording>,
) -> Phase {
    let mut phase = Phase::new(2);
    let mut responses = Vec::with_capacity(input.script.len());
    for_seconds(seconds, || {
        let mut ids = vec![None; input.streams.len()];
        responses.clear();
        let mut delivered = 0;
        phase.start_block();
        for (i, step) in input.script.iter_mut().enumerate() {
            if i > 0 && i % BLOCK_REQUESTS == 0 {
                phase.end_block(delivered);
                delivered = 0;
                phase.start_block();
            }
            *op += 1;
            if step.verb != Verb::Create && step.verb != Verb::Swap {
                bind(step, &ids);
            }
            let t0 = Instant::now();
            let (response, frame) = call(conn, &step.request, tracer, *op);
            let ns = t0.elapsed().as_nanos() as f64;
            if step.verb == Verb::Push {
                phase.op_ns.push(ns);
            }
            if let Some(rec) = recording.as_deref_mut() {
                rec.frames.push(frame);
                rec.trips.push((step.verb, ns));
            }
            created(step, &response, &mut ids);
            if let Response::Committed { labels, .. } | Response::Flushed { labels, .. } = &response
            {
                delivered += labels.len();
            }
            responses.push(response);
        }
        phase.end_block(delivered);

        let mut labels: Vec<Vec<usize>> = vec![Vec::new(); input.streams.len()];
        for ((step, got), want) in input.script.iter().zip(&responses).zip(reference) {
            phase.attempted += 1;
            if !agrees(got, want) {
                phase.failed += 1;
            }
            if let Response::Committed { labels: l, .. } | Response::Flushed { labels: l, .. } = got
            {
                labels[step.session].extend_from_slice(l);
            }
        }
        for (l, stream) in labels.iter().zip(&input.streams) {
            phase.labels_right += agreeing(l, &stream.states);
            phase.labels_total += stream.states.len() as u64;
        }
    });
    phase
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let shape = shape(opts.scale);
    let (setup, setup_s) = timed_setup(
        || set_up(&shape, opts.seed),
        |s: Setup| {
            s.server.shutdown().expect("server drains");
        },
    );
    let Setup { mut input, server } = setup;

    // Untimed reference: the script through an in-process pool, publishing
    // at the same request indices as the wire run swaps.
    let mut op = 0u64;
    let mut pool = SessionPool::with_config(Arc::clone(&input.models[0]), replay_config())
        .expect("streamable model");
    let reference = replay_pass(
        &mut pool,
        &mut input,
        &mut Tracer::off(),
        &mut op,
        &mut TickReport::default(),
    );
    drop(pool);

    let mut conn = TcpStream::connect(server.local_addr()).expect("connect to the server");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    let mut out = Outcome::default();
    out.note("k", K);
    out.note("requests_per_pass", input.script.len());
    // Warm-up pass (checked, not timed).
    let warm = measure(
        &mut conn,
        &mut input,
        &reference,
        0.0,
        &mut Tracer::off(),
        &mut op,
        None,
    );
    out.attempted += warm.attempted;
    out.failed += warm.failed;

    if !opts.trace {
        let phase = measure(
            &mut conn,
            &mut input,
            &reference,
            opts.seconds,
            &mut Tracer::off(),
            &mut op,
            None,
        );
        out.end_to_end(&phase, setup_s);
        finish(conn, server);
        std::fs::remove_dir_all(work_dir()).expect("remove the checkpoints");
        return out;
    }

    let half = opts.seconds / 2.0;
    let plain = measure(
        &mut conn,
        &mut input,
        &reference,
        half,
        &mut Tracer::off(),
        &mut op,
        None,
    );
    let mut tracer = Tracer::on();
    let mut rec = Recording::default();
    let first_op = op + 1;
    let traced = measure(
        &mut conn,
        &mut input,
        &reference,
        half,
        &mut tracer,
        &mut op,
        Some(&mut rec),
    );
    finish(conn, server);
    out.attempted += plain.attempted + traced.attempted;
    out.failed += plain.failed + traced.failed;
    out.set(
        "trace.overhead_frac",
        1.0 - traced.tokens_per_s() / plain.tokens_per_s(),
    );

    // Protocol: client encode, server parse, server encode and client parse
    // of every recorded frame pair, under the wire run's operation ids.
    for (i, (request, reply)) in rec.frames.iter().enumerate() {
        let span = tracer.start(first_op + i as u64, "serve.protocol", Tracer::ROOT);
        let r = Request::parse(request).expect("recorded request parses");
        black_box(r.encode());
        let p = Response::parse(reply).expect("recorded reply parses");
        black_box(p.encode());
        tracer.end(span);
    }
    // Engine: the same passes replayed in-process, after one warm-up pass,
    // again under the wire run's operation ids.
    let passes = rec.trips.len() / input.script.len();
    let mut pool = SessionPool::with_config(Arc::clone(&input.models[0]), replay_config())
        .expect("streamable model");
    replay_pass(
        &mut pool,
        &mut input,
        &mut Tracer::off(),
        &mut op,
        &mut TickReport::default(),
    );
    let mut replay_op = first_op - 1;
    let mut ticks = TickReport::default();
    for _ in 0..passes {
        replay_pass(
            &mut pool,
            &mut input,
            &mut tracer,
            &mut replay_op,
            &mut ticks,
        );
    }
    drop(pool);

    let requests = rec.trips.len() as f64;
    let round_trip = rec.trips.iter().map(|(_, ns)| ns).sum::<f64>() / requests;
    let protocol = tracer.total("serve.protocol").0 as f64 / requests;
    let engine = tracer.total("serve.engine").0 as f64 / requests;
    out.set("serve.protocol_ns_per_req", protocol);
    out.set("serve.engine_ns_per_req", engine);
    out.set("serve.transport_ns_per_req", round_trip - protocol - engine);
    let median_us = |verbs: &[Verb]| {
        let mut v: Vec<f64> = rec
            .trips
            .iter()
            .filter(|(v, _)| verbs.contains(v))
            .map(|(_, ns)| ns / 1e3)
            .collect();
        stats::median(&mut v)
    };
    out.set("serve.swap_us", median_us(&[Verb::Swap]));
    out.set(
        "serve.lifecycle_us",
        median_us(&[Verb::Create, Verb::Flush, Verb::Close]),
    );
    out.set(
        "serve.refused",
        rec.frames
            .iter()
            .filter(|(_, r)| r.starts_with("err"))
            .count() as f64,
    );

    // `hmm.sparse_error_bound_max` stays 0: the scaled backend prunes nothing.
    probe::stream_layer(&mut out, &tracer, &ticks);

    let model = &input.models[0];
    let seqs: Vec<Vec<usize>> = input.streams.iter().map(|s| s.obs.clone()).collect();
    let seq = probe::probe_sequence(&seqs);
    probe::kernels(
        &mut out,
        &mut tracer,
        &mut op,
        model,
        InferenceBackend::Scaled,
        &seq,
    );
    let config = replay_config();
    probe::scalar_push(&mut out, &mut tracer, &mut op, model, config, &seq);
    let estep = probe::estep(
        &mut tracer,
        &mut op,
        model,
        InferenceBackend::Scaled,
        &seqs,
        Parallelism::Serial,
    );
    out.set("hmm.estep_ns_per_token", estep);
    let decode_config = DiversifiedConfig::default().with_parallelism(Parallelism::Serial);
    probe::decode(&mut out, &mut tracer, &mut op, model, decode_config, &seqs);
    std::fs::remove_dir_all(work_dir()).expect("remove the checkpoints");

    out.write_spans(&tracer, "serve_wire");
    out
}

/// Closes the connection and drains the server.
fn finish(conn: TcpStream, server: ServerHandle) {
    drop(conn);
    server.shutdown().expect("server drains");
}
