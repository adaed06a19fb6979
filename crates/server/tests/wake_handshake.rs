//! The event loop's push/park/wake handshake, model-checked.
//!
//! Producers (the acceptor, peer loops) push a message into a loop's
//! inbox and then maybe write its self-pipe; the loop drains its inbox
//! and its pipe each turn and blocks on the pipe when idle. The
//! handshake is correct when no schedule leaves a message queued behind
//! a loop that sleeps with an empty pipe — a lost wakeup. This file
//! writes each handshake variant as a `bso-sim` [`Protocol`] and lets
//! the exhaustive explorer decide it:
//!
//! * the original order — wait on the pipe, drain the inbox, then drain
//!   the pipe — is **refuted**, and its counterexample replays;
//! * the parked-flag protocol of `src/inbox.rs` is **verified** with
//!   either drain order and up to three producers;
//! * the same protocol without its re-check after parking is refuted,
//!   so the verification is not vacuous.
//!
//! # The model
//!
//! Shared objects: `INBOX` counts messages pushed, `PIPE` is the wake
//! byte, `PARKED` the loop's flag, `TAKEN` the count the loop had
//! drained when it went to sleep, `DONE` counts finished processes.
//! Every step is one atomic operation, so the explorer interleaves the
//! handshake at the granularity of its atomics and syscalls (the inbox
//! mutex makes push and drain atomic; the `SeqCst` fence makes the
//! model's sequentially consistent memory the right one).
//!
//! A loop whose blocking wait finds the pipe empty goes to sleep; in
//! the model that ends it. That loses nothing: a loop that would later
//! be woken behaves exactly like one whose wait step is scheduled after
//! the waking write, and the explorer tries that schedule too. What
//! sleeping adds is the one outcome that matters — never being woken.
//! So the last process to finish audits the final memory: a message
//! pushed but not taken while the pipe is empty is stranded for good,
//! and the auditor decides [`STRANDED`] instead of [`OK`]. Every
//! process's input is [`OK`], so the consensus specification refutes
//! exactly the schedules that strand a message.

use bso_objects::{Layout, ObjectId, ObjectInit, Op, OpKind, Value};
use bso_sim::checker::check_consensus;
use bso_sim::scheduler::Scripted;
use bso_sim::{Action, ExploreOutcome, Explorer, Pid, Protocol, Simulation, TaskSpec};

const INBOX: ObjectId = ObjectId(0);
const PIPE: ObjectId = ObjectId(1);
const PARKED: ObjectId = ObjectId(2);
const TAKEN: ObjectId = ObjectId(3);
const DONE: ObjectId = ObjectId(4);

const OK: Value = Value::Int(0);
const STRANDED: Value = Value::Int(1);

/// How the loop goes to sleep.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// The original turn: block on the pipe, drain the inbox, then
    /// drain the pipe if the wait saw it. Producers always write the
    /// pipe.
    Original,
    /// The inbox protocol: park, re-check the inbox (unless `recheck`
    /// is off), wait — blocking only if the re-check came up empty —
    /// unpark, then drain pipe and inbox in the given order. Producers
    /// write the pipe only if their swap of the flag found it set.
    Parked { recheck: bool, pipe_first: bool },
}

struct Handshake {
    producers: usize,
    order: Order,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Pc {
    // Producer.
    Push,
    Notify,
    WritePipe,
    // Loop.
    Park,
    Recheck,
    Wait { may_block: bool },
    Unpark { saw_pipe: bool },
    DrainInbox { then_pipe: bool },
    DrainPipe { then_inbox: bool },
    Publish,
    // Everyone: finish, and the last one audits.
    Finish,
    AuditPushed,
    AuditTaken { pushed: i64 },
    AuditPipe { pushed: i64, taken: i64 },
    Decided(Value),
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct St {
    pc: Pc,
    /// The loop's count of drained messages.
    taken: i64,
}

impl Handshake {
    fn new(producers: usize, order: Order) -> Handshake {
        Handshake { producers, order }
    }

    fn inputs(&self) -> Vec<Value> {
        vec![OK; self.processes()]
    }

    /// Where a loop turn starts.
    fn turn_start(&self) -> Pc {
        match self.order {
            Order::Original => Pc::Wait { may_block: true },
            Order::Parked { .. } => Pc::Park,
        }
    }

    /// The drains after a wait that did (or did not) see the pipe
    /// readable; the pipe is only read when the poll reported it.
    fn drains(&self, saw_pipe: bool) -> Pc {
        let pipe_first = matches!(
            self.order,
            Order::Parked {
                pipe_first: true,
                ..
            }
        );
        match (saw_pipe, pipe_first) {
            (false, _) => Pc::DrainInbox { then_pipe: false },
            (true, true) => Pc::DrainPipe { then_inbox: true },
            (true, false) => Pc::DrainInbox { then_pipe: true },
        }
    }
}

impl Protocol for Handshake {
    type State = St;

    fn processes(&self) -> usize {
        self.producers + 1
    }

    fn layout(&self) -> Layout {
        let mut l = Layout::new();
        l.push(ObjectInit::FetchAdd(0)); // INBOX
        l.push(ObjectInit::Register(Value::Bool(false))); // PIPE
        l.push(ObjectInit::Register(Value::Bool(false))); // PARKED
        l.push(ObjectInit::Register(Value::Int(0))); // TAKEN
        l.push(ObjectInit::FetchAdd(0)); // DONE
        l
    }

    fn init(&self, pid: Pid, _input: &Value) -> St {
        let pc = if pid < self.producers {
            Pc::Push
        } else {
            self.turn_start()
        };
        St { pc, taken: 0 }
    }

    fn next_action(&self, st: &St) -> Action {
        let op = match &st.pc {
            Pc::Push => Op::new(INBOX, OpKind::FetchAdd(1)),
            Pc::Notify => match self.order {
                Order::Original => Op::write(PIPE, Value::Bool(true)),
                Order::Parked { .. } => Op::new(PARKED, OpKind::Swap(Value::Bool(false))),
            },
            Pc::WritePipe => Op::write(PIPE, Value::Bool(true)),
            Pc::Park => Op::write(PARKED, Value::Bool(true)),
            Pc::Recheck => Op::read(INBOX),
            Pc::Wait { .. } => Op::read(PIPE),
            Pc::Unpark { .. } => Op::write(PARKED, Value::Bool(false)),
            Pc::DrainInbox { .. } => Op::read(INBOX),
            Pc::DrainPipe { .. } => Op::write(PIPE, Value::Bool(false)),
            Pc::Publish => Op::write(TAKEN, Value::Int(st.taken)),
            Pc::Finish => Op::new(DONE, OpKind::FetchAdd(1)),
            Pc::AuditPushed => Op::read(INBOX),
            Pc::AuditTaken { .. } => Op::read(TAKEN),
            Pc::AuditPipe { .. } => Op::read(PIPE),
            Pc::Decided(v) => return Action::Decide(v.clone()),
        };
        Action::Invoke(op)
    }

    fn on_response(&self, st: &mut St, resp: Value) {
        let int = |v: &Value| match v {
            Value::Int(i) => *i,
            other => panic!("expected an integer, got {other:?}"),
        };
        st.pc = match std::mem::replace(&mut st.pc, Pc::Finish) {
            Pc::Push => Pc::Notify,
            Pc::Notify => match self.order {
                Order::Original => Pc::Finish,
                // The swap found the loop parked: this producer owes
                // the wake.
                Order::Parked { .. } if resp == Value::Bool(true) => Pc::WritePipe,
                Order::Parked { .. } => Pc::Finish,
            },
            Pc::WritePipe => Pc::Finish,
            Pc::Park => match self.order {
                Order::Parked { recheck: true, .. } => Pc::Recheck,
                _ => Pc::Wait { may_block: true },
            },
            Pc::Recheck => Pc::Wait {
                may_block: int(&resp) == st.taken,
            },
            Pc::Wait { may_block } => match (resp == Value::Bool(true), self.order) {
                (false, _) if may_block => Pc::Publish,
                (saw_pipe, Order::Parked { .. }) => Pc::Unpark { saw_pipe },
                (saw_pipe, Order::Original) => self.drains(saw_pipe),
            },
            Pc::Unpark { saw_pipe } => self.drains(saw_pipe),
            Pc::DrainInbox { then_pipe } => {
                st.taken = int(&resp);
                if then_pipe {
                    Pc::DrainPipe { then_inbox: false }
                } else {
                    self.turn_start()
                }
            }
            Pc::DrainPipe { then_inbox } => {
                if then_inbox {
                    Pc::DrainInbox { then_pipe: false }
                } else {
                    self.turn_start()
                }
            }
            Pc::Publish => Pc::Finish,
            Pc::Finish if int(&resp) + 1 == self.processes() as i64 => Pc::AuditPushed,
            Pc::Finish => Pc::Decided(OK),
            Pc::AuditPushed => Pc::AuditTaken { pushed: int(&resp) },
            Pc::AuditTaken { pushed } => Pc::AuditPipe {
                pushed,
                taken: int(&resp),
            },
            Pc::AuditPipe { pushed, taken } => {
                let stranded = pushed > taken && resp == Value::Bool(false);
                Pc::Decided(if stranded { STRANDED } else { OK })
            }
            decided @ Pc::Decided(_) => decided,
        };
    }
}

fn explore(proto: &Handshake) -> ExploreOutcome {
    Explorer::new(proto)
        .inputs(&proto.inputs())
        .spec(TaskSpec::Consensus(proto.inputs()))
        .run()
        .outcome
}

/// Explores `proto`, expects a counterexample, and replays its
/// schedule: the replayed run must strand a message the same way.
fn refute_and_replay(proto: &Handshake) {
    let ExploreOutcome::Violated(v) = explore(proto) else {
        panic!(
            "{:?} with {} producers: expected a lost wakeup",
            proto.order, proto.producers
        );
    };
    let inputs = proto.inputs();
    let res = Simulation::new(proto, &inputs)
        .run(&mut Scripted::new(v.schedule.clone()), 1_000)
        .expect("the counterexample schedule replays");
    assert!(
        res.decisions.contains(&Some(STRANDED)),
        "replay of {:?} must strand a message: {:?}",
        v.schedule,
        res.decisions
    );
    assert!(check_consensus(&res, &inputs).is_err());
}

#[test]
fn original_drain_order_loses_a_wakeup_and_the_counterexample_replays() {
    refute_and_replay(&Handshake::new(2, Order::Original));
    // One producer alone cannot trigger it: its byte always follows
    // its push, so whichever turn consumes the byte drains the push.
    assert!(explore(&Handshake::new(1, Order::Original)).is_verified());
}

#[test]
fn parked_flag_protocol_never_strands_a_message() {
    for producers in 1..=3 {
        for pipe_first in [false, true] {
            let order = Order::Parked {
                recheck: true,
                pipe_first,
            };
            let outcome = explore(&Handshake::new(producers, order));
            assert!(
                outcome.is_verified(),
                "{order:?} with {producers} producers: {outcome:?}"
            );
        }
    }
}

#[test]
fn parking_without_the_recheck_is_refuted() {
    for pipe_first in [false, true] {
        let order = Order::Parked {
            recheck: false,
            pipe_first,
        };
        refute_and_replay(&Handshake::new(2, order));
    }
}
