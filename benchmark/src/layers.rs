//! Single layers timed on their own, without the protocol: an echo over
//! each runtime, the wire codec, and the state machine. The gap between
//! the two echoes is what sockets and the codec cost.

use crate::Msg;
use paxi::{
    Ballot, ClientReply, ClientRequest, Command, Envelope, KvStore, Operation, RequestId, Value,
};
use paxos::PaxosMsg;
use pig_runtime::{NetRuntime, Runtime};
use pigpaxos::PigMsg;
use simnet::{
    Actor, Bytes, Context, Message, NodeId, TimerId, Wire, WireError, WireHeader, WirePut,
    WireReader,
};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long each echo runs; the first fifth (connecting) is not counted.
const ECHO_RUN: Duration = Duration::from_millis(600);

#[derive(Debug, Clone)]
struct Echo {
    sent_ns: u64,
    payload: Bytes,
}

impl Message for Echo {
    fn wire_size(&self) -> usize {
        32 + self.payload.len()
    }
    fn label(&self) -> &'static str {
        "echo"
    }
}

impl Wire for Echo {
    const KIND: &'static str = "Echo";
    fn encode_into(&self, out: &mut Vec<u8>) {
        WireHeader::new(simnet::wire::DOMAIN_CLIENT, 0xEC).encode_into(out);
        out.put_u64(self.sent_ns);
        out.extend_from_slice(self.payload.as_slice());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        WireHeader::decode(r)?;
        Ok(Echo {
            sent_ns: r.u64("echo.sent")?,
            payload: r.rest_value(),
        })
    }
}

/// Node 0 keeps `window` messages in flight to node 1, which returns them.
struct EchoNode {
    window: usize,
    payload: Bytes,
    /// `(arrival, round trip)` in nanoseconds, at node 0.
    round_trips: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl Actor<Echo> for EchoNode {
    fn on_start(&mut self, ctx: &mut Context<Echo>) {
        if ctx.node() == NodeId(0) {
            for _ in 0..self.window {
                let sent_ns = ctx.now().as_nanos();
                ctx.send(
                    NodeId(1),
                    Echo {
                        sent_ns,
                        payload: self.payload.clone(),
                    },
                );
            }
        }
    }
    fn on_message(&mut self, from: NodeId, mut msg: Echo, ctx: &mut Context<Echo>) {
        if ctx.node() == NodeId(0) {
            let now = ctx.now().as_nanos();
            self.round_trips
                .lock()
                .expect("echo log")
                .push((now, now - msg.sent_ns));
            msg.sent_ns = now;
        }
        ctx.send(from, msg);
    }
    fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<Echo>) {}
}

/// Median round trip in microseconds and round trips per second.
fn echo(over_tcp: bool, window: usize, payload: usize) -> (f64, f64) {
    let round_trips = Arc::new(Mutex::new(Vec::new()));
    let node = || EchoNode {
        window,
        payload: Bytes::from(vec![7u8; payload]),
        round_trips: round_trips.clone(),
    };
    if over_tcp {
        let mut rt: NetRuntime<Echo> = NetRuntime::new(1);
        rt.add_actor(node());
        rt.add_actor(node());
        rt.run_for(ECHO_RUN);
    } else {
        let mut rt: Runtime<Echo> = Runtime::new(1);
        rt.add_actor(node());
        rt.add_actor(node());
        rt.run_for(ECHO_RUN);
    }
    let log = round_trips.lock().expect("echo log");
    let from = ECHO_RUN.as_nanos() as u64 / 5;
    let rtts: Vec<f64> = log
        .iter()
        .filter(|(at, _)| *at >= from)
        .map(|(_, rtt)| *rtt as f64 / 1e3)
        .collect();
    let per_s = rtts.len() as f64 / (ECHO_RUN.as_secs_f64() * 0.8);
    (crate::stats::median(&rtts), per_s)
}

/// Nanoseconds per call of `f`, as the best of five batches, so that a
/// descheduled batch does not count.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut batch = 1u64;
    while {
        let t = Instant::now();
        (0..batch).for_each(|_| drop(black_box(f())));
        t.elapsed() < Duration::from_millis(10)
    } {
        batch *= 2;
    }
    (0..5)
        .map(|_| {
            let t = Instant::now();
            (0..batch).for_each(|_| drop(black_box(f())));
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn p2a(value_size: usize) -> Msg {
    Envelope::Proto(PigMsg::Direct(PaxosMsg::P2a {
        ballot: Ballot::new(1, NodeId(0)),
        slot: 123_456,
        command: Command {
            id: RequestId {
                client: NodeId(5),
                seq: 99,
            },
            op: Operation::Put(17, Value::zeros(value_size)),
        },
        commit_up_to: 123_450,
    }))
}

fn codec_ns(msg: &Msg) -> (f64, f64) {
    let frame = Bytes::from(msg.encode());
    assert_eq!(
        frame.len(),
        msg.wire_size(),
        "the codec keeps its size promise"
    );
    let encode = time_ns(|| black_box(msg).encode());
    let decode = time_ns(|| Msg::decode_frame(black_box(&frame)).expect("decodes"));
    (encode, decode)
}

/// Run every microbenchmark and record it under its metric name.
pub fn measure(set: &mut impl FnMut(&'static str, f64)) {
    let (rtt, _) = echo(true, 1, 8);
    set("net.echo_rtt_us_p50", rtt);
    // A round trip is two messages, one each way.
    set("net.echo_msgs_per_s", 2.0 * echo(true, 64, 8).1);
    set(
        "net.echo_mb_per_s",
        2.0 * echo(true, 16, 16_000).1 * 16_000.0 / 1e6,
    );
    let (rtt, _) = echo(false, 1, 8);
    set("threads.echo_rtt_us_p50", rtt);
    set("threads.echo_msgs_per_s", 2.0 * echo(false, 64, 8).1);

    let (enc, dec) = codec_ns(&p2a(8));
    set("wire.encode_ns.p2a_small", enc);
    set("wire.decode_ns.p2a_small", dec);
    let (enc, dec) = codec_ns(&p2a(16_000));
    set("wire.encode_ns.p2a_16k", enc);
    set("wire.decode_ns.p2a_16k", dec);
    let id = RequestId {
        client: NodeId(5),
        seq: 99,
    };
    let request = Envelope::Request(ClientRequest {
        command: Command {
            id,
            op: Operation::Put(17, Value::zeros(8)),
        },
    });
    set("wire.encode_ns.request_small", codec_ns(&request).0);
    let reply = Envelope::Reply(ClientReply::ok(id, Some(Value::zeros(8))));
    set("wire.decode_ns.reply_small", codec_ns(&reply).1);

    let mut kv = KvStore::new();
    let ops: Vec<Operation> = (0..1000)
        .map(|k| Operation::Put(k, Value::zeros(8)))
        .collect();
    let mut next = 0;
    set(
        "kv.apply_ns_per_op",
        time_ns(|| {
            next = (next + 1) % ops.len();
            kv.apply(&ops[next])
        }),
    );
}
