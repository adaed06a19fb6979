//! Connection-churn chaos: a seeded kill-proxy sits between the
//! clients and the server, severing every connection after a bounded
//! number of forwarded bytes. Resilient clients must reconnect,
//! resume, and re-send — and the run must end with *exactly* the
//! effects the clients observed: the FetchAdd ledger equals the number
//! of acked increments (no duplicate applies, no lost applies), every
//! success has exactly one RTT sample, and the server's lifetime stats
//! reconcile with the churn.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bso_client::swarm::DIAL_TIMEOUT;
use bso_client::{Connection, ResilientClient, RetryPolicy, Swarm};
use bso_objects::rng::SplitMix64;
use bso_objects::{Layout, ObjectId, ObjectInit, Op, OpKind};
use bso_server::{Server, ServerHandle};

/// A chaos proxy that forwards bytes between each client and the
/// server, killing the pair after a seeded client->server byte budget
/// is spent. Budgets are drawn in accept order from one seeded RNG, so
/// a fixed seed fixes the kill schedule.
struct KillProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl KillProxy {
    fn spawn(upstream: SocketAddr, seed: u64, budget_lo: u64, budget_hi: u64) -> KillProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let rng = Arc::new(Mutex::new(SplitMix64::new(seed)));
        std::thread::spawn(move || {
            for inbound in listener.incoming() {
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(client) = inbound else { break };
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let budget = {
                    let mut r = rng.lock().unwrap();
                    budget_lo + r.below(budget_hi - budget_lo)
                };
                let c2 = client.try_clone().unwrap();
                let s2 = server.try_clone().unwrap();
                // client -> server enforces the budget and kills both
                // halves when it runs out — mid-frame, mid-pipeline,
                // wherever the byte count lands.
                std::thread::spawn(move || {
                    forward(client, server, Some(budget));
                });
                // server -> client forwards freely until either side
                // dies.
                std::thread::spawn(move || {
                    forward(s2, c2, None);
                });
            }
        });
        KillProxy { addr, stop }
    }
}

impl Drop for KillProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }
}

fn forward(mut from: TcpStream, mut to: TcpStream, mut budget: Option<u64>) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = &buf[..n];
        if let Some(b) = budget.as_mut() {
            if (chunk.len() as u64) >= *b {
                // Spend what's left, then sever both directions.
                chunk = &chunk[..*b as usize];
                let _ = to.write_all(chunk);
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            *b -= chunk.len() as u64;
        }
        if to.write_all(chunk).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

fn layout() -> Layout {
    let mut l = Layout::new();
    l.push(ObjectInit::FetchAdd(0));
    l
}

fn serve() -> ServerHandle {
    Server::builder()
        .shards(2)
        .pin_cores(false)
        .bind("127.0.0.1:0", &layout())
        .unwrap()
}

/// Reads the ledger directly from the server (not through the proxy).
fn read_counter(addr: SocketAddr) -> i64 {
    let mut direct = Connection::builder().connect(addr).unwrap();
    match direct.apply(0, Op::new(ObjectId(0), OpKind::FetchAdd(0))) {
        Ok(v) => v.as_int().unwrap(),
        Err(e) => panic!("ledger read failed: {e}"),
    }
}

#[test]
fn swarm_survives_seeded_connection_churn_with_exact_effects() {
    const OPS: u64 = 4000;
    const CONNS: usize = 4;
    let handle = serve();
    let proxy = KillProxy::spawn(handle.local_addr(), 0xC4A05, 1_500, 6_000);

    let report = Swarm::builder()
        .connections(CONNS)
        .pipeline(4)
        .resilient(true)
        .session_base(0x5E55_0000)
        .retry_seed(0xC4A05)
        .run(proxy.addr, |_conn, seq| {
            (seq < OPS).then(|| (0usize, Op::new(ObjectId(0), OpKind::FetchAdd(1))))
        })
        .expect("resilient swarm rides out the churn");

    // Every issued increment was acked exactly once.
    assert_eq!(report.ops_ok, OPS);
    assert_eq!(report.ops_err, 0);
    assert_eq!(report.ops_busy, 0, "resilient mode retries busy in place");
    // Exactly one RTT sample per success, even across reconnects.
    assert_eq!(report.rtt_ns.len() as u64, report.ops_ok);
    // ~140 KiB of request traffic against 1.5–6 KiB budgets: the churn
    // really happened.
    assert!(
        report.reconnects >= 5,
        "expected real churn, saw {} reconnects",
        report.reconnects
    );

    // The ledger says every FetchAdd(1) applied exactly once: acked
    // effects all landed, replayed retries never re-applied.
    assert_eq!(read_counter(handle.local_addr()), OPS as i64);

    drop(proxy);
    let stats = handle.shutdown();
    // Exact accounting across resets: the initial lanes, one server
    // connection per reconnect, and the direct ledger probe.
    assert_eq!(stats.connections, CONNS as u64 + report.reconnects + 1);
    assert_eq!(
        stats.malformed, 0,
        "truncated frames are closes, not garbage"
    );
    assert_eq!(stats.version_rejects, 0);
    assert_eq!(stats.resumes, CONNS as u64 + report.reconnects);
    assert!(stats.requests >= OPS);
    assert!(stats.responses <= stats.requests);
}

#[test]
fn resilient_client_reconnects_and_never_double_applies() {
    const OPS: i64 = 300;
    let handle = serve();
    let proxy = KillProxy::spawn(handle.local_addr(), 0xFA17, 600, 2_000);

    let mut client = ResilientClient::builder()
        .token(0x7E57_7E57)
        .policy(RetryPolicy {
            max_attempts: 20,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            read_timeout: Some(Duration::from_secs(2)),
        })
        .connect(proxy.addr)
        .unwrap();

    let mut sum_of_prestates = 0i64;
    for _ in 0..OPS {
        let v = client
            .apply(0, Op::new(ObjectId(0), OpKind::FetchAdd(1)))
            .expect("apply survives churn");
        sum_of_prestates += v.as_int().unwrap();
    }
    assert!(
        client.reconnects() >= 2,
        "budgets of <=2 KiB against ~10 KiB of traffic must force reconnects, saw {}",
        client.reconnects()
    );
    // Exactly-once: the counter's pre-states are 0,1,2,… with no value
    // skipped (lost apply) or repeated (duplicate apply), so their sum
    // is the exact arithmetic series.
    assert_eq!(sum_of_prestates, OPS * (OPS - 1) / 2);
    assert_eq!(read_counter(handle.local_addr()), OPS);

    drop(client);
    drop(proxy);
    let stats = handle.shutdown();
    assert_eq!(stats.malformed, 0);
    assert!(stats.resumes >= 3);
}

/// A proxy for exactly `conns` connections, each killed after `budget`
/// client->server bytes; it stops listening once they are accepted, so
/// a reconnect to it is refused. The handle joins the accept thread.
fn one_shot_proxy(
    upstream: SocketAddr,
    conns: usize,
    budget: u64,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let acceptor = std::thread::spawn(move || {
        for _ in 0..conns {
            let (client, _) = listener.accept().unwrap();
            let server = TcpStream::connect(upstream).unwrap();
            let (c2, s2) = (client.try_clone().unwrap(), server.try_clone().unwrap());
            std::thread::spawn(move || forward(client, server, Some(budget)));
            std::thread::spawn(move || forward(s2, c2, None));
        }
    });
    (addr, acceptor)
}

#[test]
fn swarm_reconnect_rotates_past_a_server_that_never_answers() {
    const OPS: u64 = 2000;
    const CONNS: usize = 2;
    let handle = serve();
    let server = handle.local_addr();
    // A server that accepts and never answers: the kernel completes
    // every handshake into the backlog, nobody ever reads.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let silent_addr = silent.local_addr().unwrap();
    // Lanes start through the proxy; once it kills them, each
    // reconnect rotates proxy (refused) -> silent server -> server.
    let (proxy, proxy_acceptor) = one_shot_proxy(server, CONNS, 2_000);

    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let started = Instant::now();
        let report = Swarm::builder()
            .connections(CONNS)
            .pipeline(4)
            .resilient(true)
            .session_base(0x5113_0000)
            .retry_seed(0x5113)
            .fallback_addrs(vec![silent_addr, server])
            .run(proxy, |_conn, seq| {
                (seq < OPS).then(|| (0usize, Op::new(ObjectId(0), OpKind::FetchAdd(1))))
            });
        let _ = tx.send((report, started.elapsed()));
    });
    // Each lane spends at most one DIAL_TIMEOUT on the silent server;
    // the rest is generous slack for a loaded machine. Before the
    // bound existed, the first lane's `Hello` waited forever.
    let bound = DIAL_TIMEOUT * 2 * CONNS as u32 + Duration::from_secs(20);
    let (report, elapsed) = rx
        .recv_timeout(bound)
        .unwrap_or_else(|_| panic!("a silent server froze the swarm for {bound:?}"));
    runner.join().unwrap();
    proxy_acceptor.join().unwrap();
    let report = report.expect("the swarm rotates past the silent server");

    assert_eq!(report.ops_ok, OPS);
    assert_eq!(report.ops_err, 0);
    assert!(
        report.reconnects >= CONNS as u64,
        "every lane was killed and reconnected, saw {}",
        report.reconnects
    );
    assert!(
        report.redirects >= CONNS as u64,
        "lanes moved off the proxy"
    );
    assert!(
        elapsed >= DIAL_TIMEOUT,
        "a lane waited out the dial bound ({elapsed:?})"
    );
    // The rotation really dialed the silent server.
    silent.set_nonblocking(true).unwrap();
    assert!(silent.accept().is_ok(), "no dial reached the silent server");
    assert_eq!(read_counter(server), OPS as i64);
    handle.shutdown();
}
