//! The load generator's three traffic shapes: the open-loop decide
//! ladder, closed-loop app calls, and closed-loop exactly-once ingest.
//! Each returns raw samples; `main` turns them into metrics.

use crate::client::Conn;
use crate::model::{self, Model, Query, Report, Rng, BATCH};
use crate::stats::Schedule;
use crate::trace::{next_id, Spans};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use xar_desim::Decision;
use xar_sched::wire::{self, Request, Response, WireReport};

/// How long after its last due time a ladder step waits for replies
/// before counting the rest as timed out.
const GRACE: Duration = Duration::from_secs(2);

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Encodes a query's `Decide` frame.
pub fn encode_decide(model: &Model, q: &Query, out: &mut Vec<u8>) {
    let app = &model.apps[q.app as usize];
    wire::encode_request(
        &Request::Decide {
            app: &app.name,
            kernel: app.kernel,
            x86_load: q.x86_load,
            arm_load: q.arm_load,
            kernel_resident: q.kernel_resident,
            device_ready: q.device_ready,
        },
        out,
    );
}

/// Encodes a `BatchReportSeq` frame.
pub fn encode_batch(model: &Model, session: u64, seq: u64, batch: &[Report], out: &mut Vec<u8>) {
    let reports: Vec<WireReport<'_>> = batch
        .iter()
        .map(|r| WireReport {
            app: &model.apps[r.app as usize].name,
            target: r.target,
            func_ms: r.func_ms,
            x86_load: r.x86_load,
        })
        .collect();
    wire::encode_batch_report_seq(session, seq, &reports, out);
}

/// One open-loop step at a fixed offered rate.
#[derive(Debug, Default)]
pub struct RatePoint {
    pub rate: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Answered with a decision within the latency limit.
    pub within: u64,
    /// Replies that differ from the sequential reference.
    pub mismatches: u64,
    /// Latency from due time, µs, of every answered decide.
    pub lat_us: Vec<f64>,
    /// Generator lateness (send − due), µs, per request.
    pub late_us: Vec<f64>,
}

/// Runs one open-loop step: decides go out on `conn` at `rate` for
/// `span`, from one non-blocking thread, replies matched FIFO.
/// `expect[i]` is the reference decision for `queries[i]`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &mut Conn,
    model: &Model,
    queries: &[Query],
    expect: &[Decision],
    rate: f64,
    span: Duration,
    limit_us: f64,
    mut trace: Option<&mut Spans>,
) -> io::Result<RatePoint> {
    conn.stream.set_nonblocking(true)?;
    let sched = Schedule::new(Instant::now() + Duration::from_millis(2), rate, span);
    let total = sched.total as usize;
    let mut p = RatePoint {
        rate,
        lat_us: Vec::with_capacity(total),
        late_us: Vec::with_capacity(total),
        ..RatePoint::default()
    };
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut out_at = 0usize;
    // Traced only: per request (encode end offset in `out`, encode
    // start, encode end, write end); answered FIFO.
    let mut marks: VecDeque<(usize, Instant, Instant, Option<Instant>)> = VecDeque::new();
    let (mut sent, mut answered) = (0usize, 0usize);
    let give_up = sched.due(sched.total - 1) + GRACE;
    while answered < total {
        let now = Instant::now();
        let due = sched.due_by(now) as usize;
        while sent < due {
            let q = &queries[sent % queries.len()];
            let t0 = Instant::now();
            encode_decide(model, q, &mut out);
            p.late_us.push(us(t0.saturating_duration_since(sched.due(sent as u64))));
            if trace.is_some() {
                marks.push_back((out.len(), t0, Instant::now(), None));
            }
            sent += 1;
        }
        if out_at < out.len() {
            match conn.stream.write(&out[out_at..]) {
                Ok(n) => out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                // A socket error or the give-up deadline ends the step;
                // every unanswered request then counts as failed.
                Err(_) => break,
            }
            if trace.is_some() {
                let t = Instant::now();
                for m in marks.iter_mut().filter(|m| m.3.is_none() && m.0 <= out_at) {
                    m.3 = Some(t);
                }
            }
            if out_at == out.len() {
                out.clear();
                for m in marks.iter_mut() {
                    m.0 = 0;
                }
                out_at = 0;
            }
        }
        match conn.fill() {
            Ok(true) => {
                let arrived = Instant::now();
                while let Some(r) = conn.next_frame()? {
                    let k = answered;
                    answered += 1;
                    let reply = wire::decode_response(conn.payload(r));
                    let decoded = Instant::now();
                    match reply {
                        Ok(Response::Decide { target, reconfigure }) => {
                            let l = us(sched.latency(k as u64, arrived));
                            if (Decision { target, reconfigure }) != expect[k % expect.len()] {
                                p.mismatches += 1;
                            }
                            if l <= limit_us {
                                p.within += 1;
                            }
                            p.lat_us.push(l);
                        }
                        _ => p.failed += 1,
                    }
                    if let (Some(spans), Some((_, e0, e1, w))) =
                        (trace.as_deref_mut(), marks.pop_front())
                    {
                        let (id, due) = (next_id(), sched.due(k as u64));
                        let w = w.unwrap_or(e1);
                        spans.push(id, "request", "", due, decoded);
                        spans.push(id, "gen_late", "request", due, e0);
                        spans.push(id, "encode", "request", e0, e1);
                        spans.push(id, "write", "request", e1, w);
                        spans.push(id, "wait", "request", w, arrived);
                        spans.push(id, "rtt", "request", e1, arrived);
                        spans.push(id, "decode", "request", arrived, decoded);
                    }
                }
                conn.compact();
            }
            Ok(false) => {}
            Err(_) => break,
        }
        if now > give_up {
            break;
        }
        std::hint::spin_loop();
    }
    p.attempted = total as u64;
    p.failed += (total - answered) as u64;
    conn.stream.set_nonblocking(false)?;
    Ok(p)
}

/// When a closed-loop worker stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    After(usize),
}

impl Stop {
    fn done(&self, ops: usize) -> bool {
        match *self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => ops >= n,
        }
    }
}

/// One logged app call: the query sent, the daemon's answer and the
/// report that followed.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub query: Query,
    pub decision: Decision,
    pub report: Report,
}

#[derive(Debug, Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
    pub decide_us: Vec<f64>,
    pub call_us: Vec<f64>,
    /// Completion time of each call, seconds since the phase's epoch.
    pub at_s: Vec<f64>,
    pub log: Vec<Call>,
}

/// Per-instance state of an app in the `app_mix` workload; it outlives
/// the connection that drives it.
pub struct Instance {
    app: u32,
    calls: u64,
    resident: bool,
    rng: Rng,
    /// Table 3 load class of the current 32-call segment.
    class: u32,
}

impl Instance {
    pub fn new(app: u32, seed: u64) -> Instance {
        Instance {
            app,
            calls: 0,
            resident: false,
            rng: Rng::new(seed, 1000 + app as u64),
            class: 0,
        }
    }
}

/// x86 load drawn from a Table 3 class: low (< cores), medium
/// (< cores + ARM cores), high (above).
fn class_load(model: &Model, class: u32, rng: &mut Rng) -> u32 {
    let (x, t) = (model.cluster.x86_cores, model.cluster.x86_cores + model.cluster.arm_cores);
    match class {
        0 => 1 + rng.below(x as u64 - 1) as u32,
        1 => x + 1 + rng.below((t - x - 1) as u64) as u32,
        _ => t + 1 + rng.below(t as u64) as u32,
    }
}

/// Closed-loop app calls on one fresh connection: round-robin over the
/// instances this connection owns; each call is one `Decide` with full
/// context followed by one `Report` of the profile's time for the
/// chosen target. Completion times are taken from `epoch`.
pub fn calls(
    addr: SocketAddr,
    model: &Model,
    insts: &mut [Instance],
    epoch: Instant,
    stop: Stop,
    mut trace: Option<&mut Spans>,
) -> io::Result<Calls> {
    let mut conn = Conn::connect(addr)?;
    let mut out = Calls::default();
    let mut frame = Vec::with_capacity(256);
    let mut i = 0usize;
    while !stop.done(out.attempted as usize) {
        let inst = &mut insts[i % insts.len()];
        i += 1;
        if inst.calls.is_multiple_of(32) {
            inst.class = inst.rng.below(3) as u32;
        }
        inst.calls += 1;
        let load = class_load(model, inst.class, &mut inst.rng);
        let query = Query {
            app: inst.app,
            x86_load: load,
            arm_load: inst.rng.below(model.cluster.arm_cores as u64) as u32,
            kernel_resident: inst.resident,
            device_ready: true,
        };
        out.attempted += 1;
        let t0 = Instant::now();
        frame.clear();
        encode_decide(model, &query, &mut frame);
        let t1 = Instant::now();
        let decision = match conn.call(&frame).and_then(decode) {
            Ok(Response::Decide { target, reconfigure }) => Decision { target, reconfigure },
            _ => {
                out.failed += 1;
                conn = Conn::connect(addr)?;
                continue;
            }
        };
        let t2 = Instant::now();
        let a = &model.apps[inst.app as usize];
        let func_ms = model::call_ms(a, decision.target, load, model.cluster.x86_cores);
        let report = Report { app: inst.app, target: decision.target, func_ms, x86_load: load };
        frame.clear();
        wire::encode_request(
            &Request::Report(WireReport {
                app: &a.name,
                target: report.target,
                func_ms,
                x86_load: load,
            }),
            &mut frame,
        );
        let acked = matches!(conn.call(&frame).and_then(decode), Ok(Response::Ack(1)));
        let t3 = Instant::now();
        if !acked {
            out.failed += 1;
            conn = Conn::connect(addr)?;
            continue;
        }
        if decision.reconfigure {
            inst.resident = true;
        }
        out.decide_us.push(us(t2 - t0));
        out.call_us.push(us(t3 - t0));
        out.at_s.push((t3 - epoch).as_secs_f64());
        out.log.push(Call { query, decision, report });
        if let Some(spans) = trace.as_deref_mut() {
            let id = next_id();
            spans.push(id, "call", "", t0, t3);
            spans.push(id, "decide_encode", "call", t0, t1);
            spans.push(id, "decide_rtt", "call", t1, t2);
            spans.push(id, "report_rtt", "call", t2, t3);
        }
    }
    Ok(out)
}

fn decode(payload: &[u8]) -> io::Result<Response<'_>> {
    wire::decode_response(payload).map_err(io::Error::from)
}

#[derive(Debug, Default)]
pub struct Ingest {
    pub session: u64,
    pub attempted: u64,
    pub failed: u64,
    pub ack_us: Vec<f64>,
    /// Ack time of each batch, seconds since the phase's epoch.
    pub at_s: Vec<f64>,
    /// Acked batches in send order.
    pub batches: Vec<Vec<Report>>,
    pub hello_hwm: u64,
    pub last_seq: u64,
}

/// Closed-loop exactly-once ingest on one fresh connection:
/// `HELLO_SESSION`, then 16-report `BATCH_REPORT_SEQ` frames with seqs
/// continuing from the session's high-water mark, each expecting
/// `Ack(16)`. Ack times are taken from `epoch`.
#[allow(clippy::too_many_arguments)]
pub fn ingest(
    addr: SocketAddr,
    model: &Model,
    session: u64,
    conn_idx: usize,
    conns: usize,
    rng: &mut Rng,
    epoch: Instant,
    stop: Stop,
    mut trace: Option<&mut Spans>,
) -> io::Result<Ingest> {
    let mut conn = Conn::connect(addr)?;
    let mut frame = Vec::with_capacity(1024);
    wire::encode_request(&Request::HelloSession { session }, &mut frame);
    let hwm = match decode(conn.call(&frame)?)? {
        Response::Session { last_seq } => last_seq,
        other => return Err(io::Error::other(format!("hello_session answered {other:?}"))),
    };
    let mut out = Ingest { session, hello_hwm: hwm, last_seq: hwm, ..Ingest::default() };
    while !stop.done(out.attempted as usize) {
        let batch = model::ingest_batch(model, rng, conn_idx, conns);
        let seq = out.last_seq + 1;
        out.attempted += 1;
        let t0 = Instant::now();
        frame.clear();
        encode_batch(model, session, seq, &batch, &mut frame);
        let t1 = Instant::now();
        let reply = conn
            .call(&frame)
            .and_then(|p| decode(p).map(|r| matches!(r, Response::Ack(n) if n as usize == BATCH)));
        let t2 = Instant::now();
        match reply {
            Ok(true) => {}
            Ok(false) => {
                // Refused or short ack: the batch was not ingested as
                // sent; the seq is not reused.
                out.failed += 1;
                out.last_seq = seq;
                continue;
            }
            Err(_) => {
                // The batch's fate is unknown and the stream is out of
                // sync: count it and stop this worker.
                out.failed += 1;
                break;
            }
        }
        out.last_seq = seq;
        out.ack_us.push(us(t2 - t0));
        out.at_s.push((t2 - epoch).as_secs_f64());
        out.batches.push(batch);
        if let Some(spans) = trace.as_deref_mut() {
            let id = next_id();
            spans.push(id, "batch", "", t0, t2);
            spans.push(id, "encode", "batch", t0, t1);
            spans.push(id, "ack_rtt", "batch", t1, t2);
        }
    }
    Ok(out)
}
