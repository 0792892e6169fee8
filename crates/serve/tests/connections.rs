//! Connection lifecycle: a closed connection releases every descriptor the
//! server held for it, so a long-running server's fd count stays flat no
//! matter how many clients have come and gone.
//!
//! Kept in its own test binary: it counts the process's open descriptors,
//! which any concurrently running test would disturb.

#![cfg(target_os = "linux")]

use dhmm_data::io::LoadedModel;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_serve::{Client, Request, Response, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Connections opened and closed, one after another.
const CONNECTIONS: usize = 200;
/// Descriptors the count may sit above its starting value once settled
/// (runtime threads or sockets opened lazily on first use).
const SLACK: usize = 8;

fn model() -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(17);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        3,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .unwrap();
    let b = dhmm_hmm::init::random_stochastic_matrix(3, 6, 1.0, &mut rng).unwrap();
    Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let handle = Server::start(
        LoadedModel::Discrete(model()),
        ServeConfig::default().with_lag(2),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.local_addr();
    let start = open_fds();

    for _ in 0..CONNECTIONS {
        let mut client = Client::connect(addr).unwrap();
        // A full round trip: the server has accepted the connection and
        // its reader thread is running before the client hangs up.
        assert!(matches!(
            client.call(&Request::Stats).unwrap(),
            Response::Stats { .. }
        ));
    }

    // Reader threads notice the hang-up asynchronously: poll until the
    // count settles.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut now = open_fds();
    while now > start + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = open_fds();
    }
    assert!(
        now <= start + SLACK,
        "{now} descriptors open after {CONNECTIONS} closed connections (started at {start})"
    );

    // The server still serves a fresh client end to end.
    let mut client = Client::connect(addr).unwrap();
    let id = match client.call(&Request::Create).unwrap() {
        Response::Created { id } => id,
        other => panic!("create failed: {other:?}"),
    };
    let push = Request::Push {
        id,
        tokens: ["0", "3", "5", "1"].map(String::from).to_vec(),
    };
    assert!(matches!(
        client.call(&push).unwrap(),
        Response::Committed { .. }
    ));
    match client.call(&Request::Flush { id }).unwrap() {
        Response::Flushed { tokens, .. } => assert_eq!(tokens, 4),
        other => panic!("flush failed: {other:?}"),
    }
    drop(client);
    handle.shutdown().unwrap();
}
