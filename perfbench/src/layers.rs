//! Per-layer timings for the traced run: the public entry points of
//! the wire, engine and durability layers, called in-process on the
//! inputs the workload generated, each call a span.

use crate::model::{Model, Query, Report};
use crate::stats::median;
use crate::trace::{next_id, Spans};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xar_core::server::{sharded_engine, EngineConfig};
use xar_dur::{load_latest_snapshot, FsyncPolicy, Wal, WalConfig, FRAME_HEADER};
use xar_sched::wire::{self, Response, WireReport};
use xar_sched::{BatchScratch, Durability, DurabilityConfig, SessionTable};

/// WAL record tags, as documented by `xar_sched::dur`.
const REC_SEQ_BATCH: u8 = 2;
const REC_ROW_DELTAS: u8 = 3;

/// Median cost of reading the clock twice, ns — subtracted from every
/// per-call span so sub-microsecond layers are not dominated by it.
pub fn clock_ns() -> f64 {
    let v: Vec<f64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            (Instant::now() - t).as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// Times `f` once per input, recording each call as a span; returns
/// the median duration in ns minus the clock cost.
fn each<T>(
    spans: &mut Spans,
    name: &'static str,
    clock: f64,
    inputs: impl IntoIterator<Item = T>,
    mut f: impl FnMut(T),
) -> f64 {
    let mut ns = Vec::new();
    for x in inputs {
        let t0 = Instant::now();
        f(x);
        let t1 = Instant::now();
        spans.push(next_id(), name, "layer", t0, t1);
        ns.push((t1 - t0).as_nanos() as f64);
    }
    (median(&ns) - clock).max(0.0)
}

fn wire_reports<'a>(model: &'a Model, batch: &[Report]) -> Vec<WireReport<'a>> {
    batch
        .iter()
        .map(|r| WireReport {
            app: &model.apps[r.app as usize].name,
            target: r.target,
            func_ms: r.func_ms,
            x86_load: r.x86_load,
        })
        .collect()
}

#[derive(Debug, Default)]
pub struct WireLayer {
    pub decide_decode_ns: f64,
    pub decide_reply_encode_ns: f64,
    pub report_seq_decode_ns: f64,
}

/// Decodes the workload's own `Decide` and `BatchReportSeq` frames and
/// encodes `Decide` replies, one call per frame.
pub fn wire_layer(
    spans: &mut Spans,
    clock: f64,
    decide_frames: &[Vec<u8>],
    batch_frames: &[Vec<u8>],
) -> WireLayer {
    let payload = |f: &Vec<u8>| f[4..].to_vec();
    let decides: Vec<Vec<u8>> = decide_frames.iter().map(payload).collect();
    let batches: Vec<Vec<u8>> = batch_frames.iter().map(payload).collect();
    let mut out = Vec::with_capacity(64);
    WireLayer {
        decide_decode_ns: each(spans, "wire.decide_decode", clock, &decides, |p| {
            black_box(wire::decode_request(black_box(p)).is_ok());
        }),
        decide_reply_encode_ns: each(spans, "wire.decide_reply_encode", clock, &decides, |_| {
            out.clear();
            let reply = Response::Decide { target: xar_desim::Target::Fpga, reconfigure: false };
            wire::encode_response(black_box(&reply), &mut out);
            black_box(&out);
        }),
        report_seq_decode_ns: each(spans, "wire.report_seq_decode", clock, &batches, |p| {
            black_box(wire::decode_request(black_box(p)).is_ok());
        }),
    }
}

#[derive(Debug, Default)]
pub struct EngineLayer {
    pub decide_ns: f64,
    pub decide_after_publish_ns: f64,
    pub report_apply_us: f64,
    pub report_batch_apply_us: f64,
}

/// Drives a private engine built exactly like the daemon's: decides
/// over the query stream, decides right after a publish on the same
/// shard, and report application per report and per 16-report batch.
pub fn engine_layer(
    spans: &mut Spans,
    clock: f64,
    model: &Model,
    queries: &[Query],
    batches: &[Vec<Report>],
) -> EngineLayer {
    let engine = Arc::new(sharded_engine(&model.policy, EngineConfig::default()));
    let mut handle = engine.handle();
    let mut scratch = BatchScratch::default();
    let decide_ns = each(spans, "engine.decide", clock, queries, |q| {
        black_box(handle.decide(&q.ctx(model)));
    });
    // A report (batch = 1, so it publishes) precedes each timed decide
    // of the same app: the decide must revalidate its cached snapshot.
    let mut after = Vec::with_capacity(queries.len().min(20_000));
    for q in queries.iter().take(20_000) {
        let ctx = q.ctx(model);
        let r =
            WireReport { app: ctx.app, target: xar_desim::Target::X86, func_ms: 1.0, x86_load: 1 };
        engine.report_batch_wire(&mut scratch, &[r]);
        let t0 = Instant::now();
        black_box(handle.decide(&ctx));
        let t1 = Instant::now();
        spans.push(next_id(), "engine.decide_after_publish", "layer", t0, t1);
        after.push((t1 - t0).as_nanos() as f64);
    }
    let singles: Vec<Vec<WireReport<'_>>> =
        batches.iter().flat_map(|b| wire_reports(model, b)).take(20_000).map(|r| vec![r]).collect();
    let report_ns = each(spans, "engine.report_apply", clock, &singles, |r| {
        black_box(engine.report_batch_wire(&mut scratch, r));
    });
    let whole: Vec<Vec<WireReport<'_>>> =
        batches.iter().take(5_000).map(|b| wire_reports(model, b)).collect();
    let batch_ns = each(spans, "engine.report_batch_apply", clock, &whole, |b| {
        black_box(engine.report_batch_wire(&mut scratch, b));
    });
    EngineLayer {
        decide_ns,
        decide_after_publish_ns: (median(&after) - clock).max(0.0),
        report_apply_us: report_ns / 1e3,
        report_batch_apply_us: batch_ns / 1e3,
    }
}

/// The `SeqBatch` WAL payload the daemon journals for one batch: tag,
/// session, seq, then the reports (the layout `xar_sched::dur`
/// documents). Checked against the daemon's own WAL on
/// `ingest_durable`.
pub fn seq_batch_record(model: &Model, session: u64, seq: u64, batch: &[Report]) -> Vec<u8> {
    let mut out = vec![REC_SEQ_BATCH];
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for r in batch {
        let name = model.apps[r.app as usize].name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.push(wire::target_to_byte(r.target));
        out.extend_from_slice(&r.func_ms.to_bits().to_le_bytes());
        out.extend_from_slice(&r.x86_load.to_le_bytes());
    }
    out
}

#[derive(Debug, Default)]
pub struct DurLayer {
    pub append_us: f64,
    pub fsync_us: f64,
}

/// Appends the workload's batch records to a scratch WAL, timing
/// `Wal::append` and `Wal::sync` separately for each.
pub fn dur_layer(
    spans: &mut Spans,
    clock: f64,
    dir: &Path,
    records: &[Vec<u8>],
) -> io::Result<DurLayer> {
    let mut wal = Wal::open(WalConfig { fsync: FsyncPolicy::Off, ..WalConfig::at(dir) })?;
    let (mut app, mut sync) = (Vec::new(), Vec::new());
    for rec in records {
        let t0 = Instant::now();
        wal.append(rec)?;
        let t1 = Instant::now();
        wal.sync()?;
        let t2 = Instant::now();
        let id = next_id();
        spans.push(id, "dur.append", "layer", t0, t1);
        spans.push(id, "dur.fsync", "layer", t1, t2);
        app.push((t1 - t0).as_nanos() as f64);
        sync.push((t2 - t1).as_nanos() as f64);
    }
    Ok(DurLayer {
        append_us: (median(&app) - clock).max(0.0) / 1e3,
        fsync_us: (median(&sync) - clock).max(0.0) / 1e3,
    })
}

#[derive(Debug, Default)]
pub struct Recovery {
    pub snapshot_load_ms: f64,
    pub wal_replay_ms: f64,
    pub replay_apply_ms: f64,
}

/// The recovery split on a copy of the seeded directory: reading the
/// snapshot, reading the WAL suffix without applying it, and what the
/// full `Durability::open` adds on top of both (restoring and applying
/// into a fresh engine).
pub fn recovery(model: &Model, dir: &Path) -> io::Result<Recovery> {
    let t0 = Instant::now();
    let watermark = load_latest_snapshot(dir)?.map_or(0, |(w, p)| {
        black_box(p.len());
        w
    });
    let t1 = Instant::now();
    let mut wal = Wal::open(WalConfig::at(dir))?;
    wal.replay_after(watermark, |_, p| {
        black_box(p.len());
    })?;
    drop(wal);
    let t2 = Instant::now();
    let engine = sharded_engine(&model.policy, EngineConfig::default());
    let sessions = SessionTable::new(1024);
    let t3 = Instant::now();
    let opened = Durability::open(DurabilityConfig::at(dir), &engine, &sessions)?;
    let t4 = Instant::now();
    drop(opened);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let (load, replay) = (ms(t1 - t0), ms(t2 - t1));
    Ok(Recovery {
        snapshot_load_ms: load,
        wal_replay_ms: replay,
        replay_apply_ms: (ms(t4 - t3) - load - replay).max(0.0),
    })
}

#[derive(Debug, Default)]
pub struct WalMix {
    pub records: u64,
    pub bytes: u64,
    pub rowdelta_bytes: u64,
    /// `SeqBatch` payloads by (session, seq).
    pub seq_batches: std::collections::HashMap<(u64, u64), Vec<u8>>,
}

/// Replays a finished WAL from the start and classifies each record by
/// its tag byte.
pub fn wal_mix(dir: &Path) -> io::Result<WalMix> {
    let mut wal = Wal::open(WalConfig { fsync: FsyncPolicy::Off, ..WalConfig::at(dir) })?;
    let mut mix = WalMix::default();
    wal.replay_after(0, |_, p| {
        let bytes = (p.len() + FRAME_HEADER) as u64;
        mix.records += 1;
        mix.bytes += bytes;
        match p.first() {
            Some(&REC_ROW_DELTAS) => mix.rowdelta_bytes += bytes,
            Some(&REC_SEQ_BATCH) if p.len() >= 17 => {
                let session = u64::from_le_bytes(p[1..9].try_into().expect("8 bytes"));
                let seq = u64::from_le_bytes(p[9..17].try_into().expect("8 bytes"));
                mix.seq_batches.insert((session, seq), p.to_vec());
            }
            _ => {}
        }
    })?;
    Ok(mix)
}
