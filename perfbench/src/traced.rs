//! The traced run's per-layer pass: the loopback floor, StatsV2
//! deltas, the public entry points of each layer timed in-process on the
//! workload's own inputs, the recovery split, and the accounting of each
//! client-visible p50 against the sum of its layers.

use crate::layers;
use crate::load::{self, Calls, Ingest, RatePoint};
use crate::model::{self, Query, Rng};
use crate::phases::Ctx;
use crate::proc::Child;
use crate::stats::{median, Summary};
use crate::trace::Spans;
use crate::{copy_dir, err, Workload};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xar_sched::obs::tags;
use xar_sched::wire::{self, Response};

/// Largest share of a client-visible p50 its layers may leave
/// unexplained before the traced run flags the account.
const ACCOUNT_TOLERANCE: f64 = 0.25;

/// Inputs of the per-layer pass.
pub struct Layered<'a> {
    pub workload: Workload,
    pub seconds: f64,
    pub delta: &'a dyn Fn(u16) -> f64,
    pub untraced_p50: f64,
    pub tails: [f64; 3],
    /// Durable ack p50 on one connection (no queueing behind the other).
    pub solo_ack_p50: f64,
    pub ladder: &'a [RatePoint],
    pub calls: &'a [Calls],
    pub ingest: &'a [Ingest],
    pub setup_s: f64,
    /// Median launch of an in-memory daemon (durable workload only).
    pub in_memory_launch_s: f64,
    pub finished_wal: Option<&'a Path>,
    pub seed_dir: &'a Path,
}

/// The traced run's per-layer numbers, into `cx.rep`.
pub fn per_layer(
    cx: &mut Ctx,
    spans: &mut Spans,
    work: &Path,
    l: Layered<'_>,
) -> Result<(), String> {
    let (model, queries, rep) = (cx.model, cx.queries, &mut cx.rep);
    let delta = l.delta;
    let wl = l.workload;
    let clock = layers::clock_ns();

    // Inputs: the workload's own decide queries and report batches.
    let decide_queries: Vec<Query> = match wl {
        Workload::AppMix => {
            l.calls.iter().flat_map(|c| c.log.iter().map(|x| x.query)).take(20_000).collect()
        }
        _ => queries.iter().take(20_000).copied().collect(),
    };
    let mut batches: Vec<Vec<model::Report>> =
        l.ingest.iter().flat_map(|r| r.batches.iter().cloned()).take(2_000).collect();
    if batches.is_empty() {
        let mut rng = Rng::new(cx.seed, 7);
        batches = (0..2_000).map(|i| model::ingest_batch(model, &mut rng, i % 2, 2)).collect();
    }
    let decide_frames: Vec<Vec<u8>> = decide_queries
        .iter()
        .map(|q| {
            let mut f = Vec::new();
            load::encode_decide(model, q, &mut f);
            f
        })
        .collect();
    let batch_frames: Vec<Vec<u8>> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut f = Vec::new();
            load::encode_batch(model, 1, i as u64 + 1, b, &mut f);
            f
        })
        .collect();
    let mut reply = Vec::new();
    wire::encode_response(
        &Response::Decide { target: xar_desim::Target::X86, reconfigure: false },
        &mut reply,
    );
    let mut ack = Vec::new();
    wire::encode_response(&Response::Ack(model::BATCH as u32), &mut ack);
    let decide_bytes =
        decide_frames.iter().map(Vec::len).sum::<usize>() as f64 / decide_frames.len() as f64;
    let batch_bytes =
        batch_frames.iter().map(Vec::len).sum::<usize>() as f64 / batch_frames.len() as f64;

    // net: loopback ping-pong with the same frame sizes and connection
    // shape (the open loop polls a non-blocking socket; the closed
    // loops block in read).
    let spin = wl == Workload::DecideOpen;
    let floor = floor_rtt(
        decide_bytes.round() as usize,
        reply.len(),
        spin,
        Duration::from_secs_f64(l.seconds * 0.1),
    )?;
    let floor_ingest = floor_rtt(
        batch_bytes.round() as usize,
        ack.len(),
        false,
        Duration::from_secs_f64(l.seconds * 0.05),
    )?;
    rep.metric("net.floor_rtt_p50_us", floor.p50, "us");
    rep.metric("net.floor_ingest_rtt_p50_us", floor_ingest.p50, "us");
    rep.latency("floor decide-size", &floor);
    rep.latency("floor batch-size", &floor_ingest);

    let wire_l = layers::wire_layer(spans, clock, &decide_frames, &batch_frames);
    let engine_l = layers::engine_layer(spans, clock, model, &decide_queries, &batches);
    let records: Vec<Vec<u8>> = batches
        .iter()
        .take(200)
        .enumerate()
        .map(|(i, b)| layers::seq_batch_record(model, 1, i as u64 + 1, b))
        .collect();
    let dur_l =
        layers::dur_layer(spans, clock, &work.join("scratch-wal"), &records).map_err(err)?;

    // server: self time = traced client RTT − floor − wire − engine.
    let (rtt_p50, engine_ns) = match wl {
        Workload::DecideOpen => (median(&spans.durations_us("rtt")), engine_l.decide_ns),
        Workload::AppMix => {
            (median(&spans.durations_us("decide_rtt")), engine_l.decide_after_publish_ns)
        }
        Workload::IngestDurable => (f64::NAN, engine_l.decide_ns),
    };
    let wire_us = (wire_l.decide_decode_ns + wire_l.decide_reply_encode_ns) / 1e3;
    let self_us = rtt_p50 - floor.p50 - wire_us - engine_ns / 1e3;
    rep.metric("server.decide_self_p50_us", self_us, "us");
    rep.metric("server.shed_busy", delta(tags::SHED_BUSY), "count");
    rep.metric("server.protocol_errors", delta(tags::PROTOCOL_ERRORS), "count");
    rep.metric("server.backpressure_pauses", delta(tags::BACKPRESSURE_PAUSES), "count");
    rep.metric("server.reaped_conns", delta(tags::REAPED_CONNS), "count");

    rep.metric("wire.decide_decode_ns", wire_l.decide_decode_ns, "ns");
    rep.metric("wire.decide_reply_encode_ns", wire_l.decide_reply_encode_ns, "ns");
    rep.metric("wire.report_seq_decode_ns", wire_l.report_seq_decode_ns, "ns");
    rep.metric("wire.bytes_per_decide", decide_bytes + reply.len() as f64, "bytes");
    rep.metric(
        "wire.bytes_per_report",
        (batch_bytes + ack.len() as f64) / model::BATCH as f64,
        "bytes",
    );

    rep.metric("engine.decide_ns", engine_l.decide_ns, "ns");
    rep.metric("engine.decide_after_publish_ns", engine_l.decide_after_publish_ns, "ns");
    rep.metric("engine.report_apply_us", engine_l.report_apply_us, "us");
    rep.metric("engine.report_batch_apply_us", engine_l.report_batch_apply_us, "us");
    let reports = delta(tags::REPORTS);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    rep.metric(
        "engine.publishes_per_report",
        ratio(delta(tags::FLUSH_PUBLISHES), reports),
        "ratio",
    );

    let acked = rep.acked_batches as f64;
    let replayed = delta(tags::REPLAYED_BATCHES);
    rep.metric("session.replayed_batches", replayed, "count");
    let appends_per_batch = ratio(delta(tags::WAL_APPENDS), acked);
    rep.metric("dur.wal_appends_per_batch", appends_per_batch, "ratio");
    rep.metric(
        "dur.wal_bytes_per_report",
        ratio(delta(tags::WAL_BYTES), acked * model::BATCH as f64),
        "bytes",
    );
    rep.metric("dur.append_us", dur_l.append_us, "us");
    rep.metric("dur.fsync_us", dur_l.fsync_us, "us");

    // Recovery split and WAL mix (durable workload only).
    let (mut recovery, mut rowdelta_share) = (layers::Recovery::default(), 0.0);
    if let Some(dir) = l.finished_wal {
        let mix = layers::wal_mix(dir).map_err(err)?;
        rowdelta_share = ratio(mix.rowdelta_bytes as f64, mix.bytes as f64);
        // The benchmark's record encoding must match the daemon's.
        let mut mismatched = 0;
        for run in l.ingest {
            for (i, b) in run.batches.iter().enumerate() {
                let (s, seq) = (run.session, run.hello_hwm + 1 + i as u64);
                if let Some(rec) = mix.seq_batches.get(&(s, seq)) {
                    if *rec != layers::seq_batch_record(model, s, seq, b) {
                        mismatched += 1;
                    }
                }
            }
        }
        rep.check(mismatched == 0, || {
            format!("{mismatched} SeqBatch records differ from the benchmark's encoding")
        });
        let mut splits = Vec::new();
        for i in 0..3 {
            let copy = work.join(format!("recovery-{i}"));
            copy_dir(l.seed_dir, &copy).map_err(err)?;
            splits.push(layers::recovery(model, &copy).map_err(err)?);
            let _ = std::fs::remove_dir_all(&copy);
        }
        recovery = layers::Recovery {
            snapshot_load_ms: median(
                &splits.iter().map(|r| r.snapshot_load_ms).collect::<Vec<_>>(),
            ),
            wal_replay_ms: median(&splits.iter().map(|r| r.wal_replay_ms).collect::<Vec<_>>()),
            replay_apply_ms: median(&splits.iter().map(|r| r.replay_apply_ms).collect::<Vec<_>>()),
        };
    }
    rep.metric("dur.rowdelta_byte_share", rowdelta_share, "ratio");
    rep.metric("dur.snapshot_load_ms", recovery.snapshot_load_ms, "ms");
    rep.metric("dur.wal_replay_ms", recovery.wal_replay_ms, "ms");
    rep.metric("engine.replay_apply_ms", recovery.replay_apply_ms, "ms");

    // Generator health.
    let late: Vec<f64> = l.ladder.iter().flat_map(|p| p.late_us.iter().copied()).collect();
    rep.metric("gen.late_p50_us", median(&late), "us");
    rep.metric("gen.late_max_us", late.iter().copied().fold(0.0, f64::max), "us");

    // Tracing overhead: the traced pass against the untraced one.
    let traced_p50 = match wl {
        Workload::DecideOpen => {
            Summary::of(l.ladder.iter().flat_map(|p| p.lat_us.clone()).collect()).p50
        }
        Workload::AppMix => {
            Summary::of(l.calls.iter().flat_map(|c| c.decide_us.clone()).collect()).p50
        }
        Workload::IngestDurable => {
            Summary::of(l.ingest.iter().flat_map(|r| r.ack_us.clone()).collect()).p50
        }
    };
    rep.metric("trace.overhead_us", traced_p50 - l.untraced_p50, "us");
    rep.metric("tail.decide_p99_us", l.tails[0], "us");
    rep.metric("tail.report_ack_p99_us", l.tails[1], "us");
    rep.metric("tail.call_p99_us", l.tails[2], "us");
    // Queueing behind the other session's batch on the durable ingest
    // lock: the two-connection ack minus the one-connection ack.
    let queue_us =
        if wl == Workload::IngestDurable { l.untraced_p50 - l.solo_ack_p50 } else { 0.0 };
    rep.metric("server.ingest_queue_us", queue_us, "us");

    // Accounting: each client-visible p50 against the sum of its layers.
    let mut account = |name: &str, client: f64, layers: f64| {
        let frac =
            if client > 0.0 && layers > 0.0 { (client - layers).abs() / client } else { 0.0 };
        if client > 0.0 && layers > 0.0 {
            println!(
                "account {name}: client {client:.2}, layers {layers:.2}, unexplained {:.1}% ({} the {:.0}% tolerance)",
                frac * 100.0,
                if frac <= ACCOUNT_TOLERANCE { "within" } else { "OUTSIDE" },
                ACCOUNT_TOLERANCE * 100.0
            );
        }
        rep.metric(&format!("acct.{name}_unexplained_frac"), frac, "ratio");
    };
    let (mut decide, mut ingest, mut recover) = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0));
    match wl {
        Workload::IngestDurable => {
            ingest = (
                l.untraced_p50,
                queue_us
                    + floor_ingest.p50
                    + wire_l.report_seq_decode_ns / 1e3
                    + engine_l.report_batch_apply_us
                    + appends_per_batch * (dur_l.append_us + dur_l.fsync_us),
            );
            recover = (
                (l.setup_s - l.in_memory_launch_s) * 1e3,
                recovery.snapshot_load_ms + recovery.wal_replay_ms + recovery.replay_apply_ms,
            );
        }
        _ => decide = (l.untraced_p50, floor.p50 + wire_us + engine_ns / 1e3 + self_us),
    }
    account("decide", decide.0, decide.1);
    account("ingest", ingest.0, ingest.1);
    account("recovery", recover.0, recover.1);
    rep.metric("launch.in_memory_s", l.in_memory_launch_s, "s");

    let path = PathBuf::from(".bench_work").join(format!("spans-{}.tsv", wl.name()));
    spans.write(&path).map_err(err)?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}

/// Closed-loop ping-pong against the echo process: `req` bytes out,
/// `rep` bytes back, for `span`; `spin` polls a non-blocking socket for
/// the reply instead of blocking in `read`.
fn floor_rtt(req: usize, rep: usize, spin: bool, span: Duration) -> Result<Summary, String> {
    let echo = Child::spawn(&["echo".into(), req.to_string(), rep.to_string()]).map_err(err)?;
    let mut s = std::net::TcpStream::connect(echo.addr).map_err(err)?;
    s.set_nodelay(true).map_err(err)?;
    s.set_nonblocking(spin).map_err(err)?;
    let (out, mut inb) = (vec![0xA5u8; req], vec![0u8; rep]);
    let mut rtt = Vec::new();
    let end = Instant::now() + span;
    while Instant::now() < end {
        let t0 = Instant::now();
        s.write_all(&out).map_err(err)?;
        let mut got = 0;
        while got < rep {
            match s.read(&mut inb[got..]) {
                Ok(0) => return Err("echo closed".into()),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(err(e)),
            }
        }
        rtt.push((Instant::now() - t0).as_secs_f64() * 1e6);
    }
    drop(s);
    echo.stop().map_err(err)?;
    Ok(Summary::of(rtt))
}
