//! End-to-end loopback tests: several client threads hammer a live
//! `bso-server`, the recorded history goes through the Wing–Gong
//! checker, and elections agree across connections.

use std::sync::Arc;

use bso_client::{ClientError, Connection, HistoryRecorder};
use bso_objects::rng::SplitMix64;
use bso_objects::{Layout, ObjectId, ObjectInit, Op, OpKind, Sym, Value};
use bso_server::Server;
use bso_sim::check_history;

const THREADS: usize = 4;

/// Spins up a server with core pinning off — the test host's cores
/// belong to the whole suite, not one loop each.
fn serve(layout: &Layout, shards: usize, queue: usize) -> bso_server::ServerHandle {
    Server::builder()
        .shards(shards)
        .queue_capacity(queue)
        .pin_cores(false)
        .bind("127.0.0.1:0", layout)
        .unwrap()
}

fn layout() -> Layout {
    let mut l = Layout::new();
    l.push(ObjectInit::CasK { k: 5 }); // o0
    l.push(ObjectInit::Register(Value::Nil)); // o1
    l.push(ObjectInit::FetchAdd(0)); // o2
    l.push(ObjectInit::Snapshot { slots: THREADS }); // o3
    l
}

/// Mixed traffic from `THREADS` connections, every successful op
/// recorded against one shared clock, then checked end to end.
#[test]
fn recorded_multithreaded_run_is_linearizable() {
    let layout = layout();
    let handle = serve(&layout, 4, 128);
    let addr = handle.local_addr();
    let rec = Arc::new(HistoryRecorder::new());

    std::thread::scope(|s| {
        for pid in 0..THREADS {
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                let mut conn = Connection::builder().recorder(rec).connect(addr).unwrap();
                let mut rng = SplitMix64::new(0xC11E57 + pid as u64);
                for _ in 0..60 {
                    let op = match rng.usize_below(5) {
                        0 => Op::cas(
                            ObjectId(0),
                            Value::Sym(Sym::BOTTOM),
                            Value::Sym(Sym::new(rng.range_u8(0, 3))),
                        ),
                        1 => Op::read(ObjectId(rng.usize_below(3))),
                        2 => Op::write(ObjectId(1), Value::Pid(pid)),
                        3 => Op::new(ObjectId(2), OpKind::FetchAdd(1)),
                        _ => {
                            if rng.usize_below(2) == 0 {
                                Op::new(ObjectId(3), OpKind::SnapshotUpdate(Value::Pid(pid)))
                            } else {
                                Op::new(ObjectId(3), OpKind::SnapshotScan)
                            }
                        }
                    };
                    conn.apply(pid, op).unwrap();
                }
                // A pipelined burst of fetch&adds: overlapping
                // intervals, but unique responses keep the check
                // cheap.
                let ids: Vec<u64> = (0..8)
                    .map(|_| {
                        conn.send(pid, Op::new(ObjectId(2), OpKind::FetchAdd(1)))
                            .unwrap()
                    })
                    .collect();
                for id in ids {
                    match conn.wait(id).unwrap() {
                        bso_server::Response::Ok(_) => {}
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
    });

    let log = rec.take_log();
    assert_eq!(log.len(), THREADS * 68, "every successful op is recorded");
    check_history(&layout, &log).expect("loopback history must be linearizable");
    let stats = handle.shutdown();
    // 68 operations plus the Hello handshake per connection.
    assert_eq!(stats.requests, (THREADS * 69) as u64);
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.version_rejects, 0);
}

/// All participants, spread across independent connections, elect the
/// same leader; a second session is independent of the first.
#[test]
fn elections_agree_across_connections() {
    let handle = serve(&layout(), 4, 128);
    let addr = handle.local_addr();
    let session = Connection::builder()
        .connect(addr)
        .unwrap()
        .open_election(6)
        .unwrap();

    let winners: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..5u32)
            .map(|pid| {
                s.spawn(move || {
                    Connection::builder()
                        .connect(addr)
                        .unwrap()
                        .elect(session, pid)
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(winners.windows(2).all(|w| w[0] == w[1]), "{winners:?}");
    assert!(winners[0] < 5, "leader is a participant");

    let mut conn = Connection::builder().connect(addr).unwrap();
    let session2 = conn.open_election(3).unwrap();
    assert_ne!(session, session2);
    let w2 = conn.elect(session2, 0).unwrap();
    assert_eq!(w2, 0, "sole participant so far wins its own election");
    handle.shutdown();
}

/// Typed server errors surface as `ClientError::Server` and leave the
/// connection usable; `Busy` is flagged retryable.
#[test]
fn server_errors_are_typed_and_non_fatal() {
    let layout = layout();
    let handle = serve(&layout, 4, 128);
    let mut conn = Connection::builder().connect(handle.local_addr()).unwrap();

    // Unknown object → BadRequest.
    let err = conn.apply(0, Op::read(ObjectId(99))).unwrap_err();
    match &err {
        ClientError::Server { code, .. } => {
            assert_eq!(*code, bso_server::ErrorCode::BadRequest)
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(!err.is_busy());

    // Domain violation on the CAS-(k) object → Object error, and the
    // object is untouched afterwards.
    let err = conn
        .apply(
            0,
            Op::cas(ObjectId(0), Value::Sym(Sym::BOTTOM), Value::Int(7)),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server {
            code: bso_server::ErrorCode::Object,
            ..
        }
    ));
    assert_eq!(
        conn.apply(0, Op::read(ObjectId(0))).unwrap(),
        Value::Sym(Sym::BOTTOM)
    );
    conn.ping().unwrap();
    drop(conn);
    handle.shutdown();
}

/// Backpressure flood: with tiny queues every request still gets
/// exactly one answer — `Ok` or a retryable `Busy`, never silence.
#[test]
fn busy_backpressure_answers_everything() {
    let layout = layout();
    let handle = serve(&layout, 1, 1);
    let mut conn = Connection::builder().connect(handle.local_addr()).unwrap();

    let ids: Vec<u64> = (0..200)
        .map(|_| {
            conn.send(0, Op::new(ObjectId(2), OpKind::FetchAdd(1)))
                .unwrap()
        })
        .collect();
    let mut ok = 0u64;
    let mut busy = 0u64;
    for id in ids {
        match conn.wait(id) {
            Ok(bso_server::Response::Ok(_)) => ok += 1,
            Ok(bso_server::Response::Err { code, .. }) => {
                assert_eq!(code, bso_server::ErrorCode::Busy);
                busy += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(ok + busy, 200, "every pipelined request was answered");
    // The counter object's final value equals the accepted ops.
    assert_eq!(
        conn.apply(0, Op::read(ObjectId(2))).unwrap(),
        Value::Int(ok as i64)
    );
    drop(conn);
    let stats = handle.shutdown();
    assert_eq!(stats.busy, busy);
}

/// Cross-shard saturation: with two shards and capacity-1 transfer
/// queues, a pipelined flood aimed at both shards must surface typed
/// `Busy` rejections — and the accepted/rejected ledger must balance
/// exactly against the objects' final state.
#[test]
fn busy_flood_saturates_cross_shard_queues() {
    const OBJECTS: usize = 4;
    const ROUNDS: usize = 20;
    const PER_ROUND: usize = 400;

    let mut layout = Layout::new();
    for _ in 0..OBJECTS {
        layout.push(ObjectInit::FetchAdd(0));
    }
    let handle = serve(&layout, 2, 1);
    // The acceptor deals connections round-robin: one floods each
    // loop, so each loop is busy with its own burst when the other's
    // cross-shard half reaches it (a parked owner would be borrowed
    // from instead of queued on).
    let mut conns: Vec<Connection> = (0..2)
        .map(|_| Connection::builder().connect(handle.local_addr()).unwrap())
        .collect();

    // Whichever loop owns a connection, half the object ids live on
    // the other shard, so half of each burst crosses a capacity-1
    // queue. Keep flooding (bounded) until backpressure shows up.
    let mut ok_per_obj = [0i64; OBJECTS];
    let mut busy = 0u64;
    for _ in 0..ROUNDS {
        let ids: Vec<Vec<(u64, usize)>> = conns
            .iter_mut()
            .map(|conn| {
                (0..PER_ROUND)
                    .map(|i| {
                        let obj = i % OBJECTS;
                        let id = conn
                            .send(0, Op::new(ObjectId(obj), OpKind::FetchAdd(1)))
                            .unwrap();
                        (id, obj)
                    })
                    .collect()
            })
            .collect();
        for conn in &mut conns {
            conn.flush().unwrap();
        }
        for (conn, ids) in conns.iter_mut().zip(ids) {
            for (id, obj) in ids {
                match conn.wait(id).unwrap() {
                    bso_server::Response::Ok(_) => ok_per_obj[obj] += 1,
                    bso_server::Response::Err { code, .. } => {
                        assert_eq!(code, bso_server::ErrorCode::Busy, "only Busy is expected");
                        busy += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        if busy > 0 {
            break;
        }
    }
    assert!(
        busy > 0,
        "{} floods of {PER_ROUND} cross-shard ops never saturated a capacity-1 queue",
        ROUNDS
    );

    // Exact ledger: each counter advanced once per accepted op.
    let conn = &mut conns[0];
    for (obj, &expect) in ok_per_obj.iter().enumerate() {
        assert_eq!(
            conn.apply(0, Op::read(ObjectId(obj))).unwrap(),
            Value::Int(expect),
            "object {obj} disagrees with the accepted-op ledger"
        );
    }
    drop(conns);
    let stats = handle.shutdown();
    assert_eq!(stats.busy, busy);
}
