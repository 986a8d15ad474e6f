//! The daemon's control plane: the statistics replies (`Stats`,
//! `StatsV2`, `HistDump`), the per-tick time series, and the v1 text
//! observability commands (`DUMP`, `TRACE`, `SERIES`, `RATE`). Nothing
//! here changes scheduler state; the parent module's request path and
//! maintenance tick call in to render replies and record samples.

use super::{ServerConfig, WorkerCtx};
use crate::engine::PolicyCore;
use crate::wire::{self, DaemonStats};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xar_obs::SeriesRing;

/// Counter series carried by the per-tick time-series rings, in ring
/// index order. The names are the query surface of
/// `SERIES <name> <secs>` and `RATE <name>`.
const SERIES_COUNTERS: &[&str] = &[
    "decides",
    "reports",
    "protocol_errors",
    "backpressure_pauses",
    "trace_events",
    "reaped_conns",
];

/// Histogram op classes in the rings, in ring index order — the same
/// classes (and order) `HistDump` ships. Queried as
/// `SERIES <class>_p50_ns <secs>` / `SERIES <class>_p99_ns <secs>`.
const SERIES_HISTS: &[&str] = &["decide", "decide_batch", "report_batch", "flush_publish"];

/// Window of the `RATE <name>` command (and of the decide-p99 shed
/// SLO), in seconds.
pub(super) const RATE_WINDOW_SECS: u64 = 10;

/// Window of the `DUMP` windowed section, in seconds.
const DUMP_WINDOW_SECS: u64 = 60;

/// The daemon-wide time-series state every worker records into:
/// cumulative samples of the fleet-relevant counters and op-class
/// histograms, one per `series_tick`. Shared behind an `Arc` because
/// any worker's maintenance tick may be the one that lands on a slot
/// boundary first; the `last` CAS gates so exactly one records it.
pub(super) struct SeriesState {
    start: Instant,
    tick: Duration,
    /// Highest tick index recorded so far.
    last: AtomicU64,
    pub(super) ring: Mutex<SeriesRing>,
}

impl SeriesState {
    pub(super) fn new(config: &ServerConfig) -> Option<Arc<SeriesState>> {
        if config.series_slots == 0 || config.series_tick.is_zero() {
            return None;
        }
        Some(Arc::new(SeriesState {
            start: Instant::now(),
            tick: config.series_tick,
            last: AtomicU64::new(0),
            ring: Mutex::new(SeriesRing::new(
                config.series_slots,
                SERIES_COUNTERS.len(),
                SERIES_HISTS.len(),
            )),
        }))
    }

    /// A window expressed in seconds, converted to ring ticks
    /// (rounded up; at least one).
    pub(super) fn ticks_for_secs(&self, secs: u64) -> u64 {
        let tick_ns = self.tick.as_nanos().max(1);
        ((secs as u128 * 1_000_000_000).div_ceil(tick_ns)).max(1) as u64
    }

    /// Converts a ring per-tick rate into a per-second rate.
    fn per_sec(&self, per_tick: f64) -> f64 {
        per_tick / self.tick.as_secs_f64()
    }
}

impl<P: PolicyCore> WorkerCtx<P> {
    /// Records a time-series sample if a new tick has begun since the
    /// last recorded one. Called from every worker's maintenance tick
    /// and opportunistically by the series queries, so an idle daemon
    /// still answers them. CAS-gated: of the workers racing on a slot
    /// boundary exactly one records it; the rest see the bumped `last`
    /// and do nothing. Cheap when not due — a clock read and one
    /// relaxed load.
    pub(super) fn advance_series(&self) {
        let Some(s) = &self.series else { return };
        let tick = (s.start.elapsed().as_nanos() / s.tick.as_nanos().max(1)) as u64;
        let last = s.last.load(Ordering::Relaxed);
        if tick <= last
            || s.last.compare_exchange(last, tick, Ordering::Relaxed, Ordering::Relaxed).is_err()
        {
            return;
        }
        let m = self.engine.metrics_total();
        let o = self.engine.obs_total();
        let ev = self.tracer.counters();
        let r = Ordering::Relaxed;
        // Index order pins to SERIES_COUNTERS / SERIES_HISTS.
        let counters = [
            m.decides,
            m.reports,
            ev.proto_errors.load(r),
            ev.pauses.load(r),
            ev.emitted(),
            self.counters.reaped.load(r),
        ];
        let hists = [o.decide, o.decide_batch, o.report_batch, o.flush_publish];
        s.ring.lock().unwrap().record(tick, &counters, &hists);
    }
}

/// The legacy fixed-width `Stats` reply.
pub(super) fn stats<P: PolicyCore>(ctx: &WorkerCtx<P>) -> DaemonStats {
    DaemonStats {
        metrics: ctx.engine.metrics_total(),
        live_conns: ctx.counters.live(),
        reaped_conns: ctx.counters.reaped.load(Ordering::Relaxed),
        rejected_conns: ctx.counters.rejected.load(Ordering::Relaxed),
    }
}

/// Assembles the `(tag, value)` pairs for the `StatsV2` reply. The v1
/// `DUMP` command renders its counter lines from this same list (via
/// [`xar_obs::render_pairs`]), so the wire op and the text endpoint
/// cannot drift apart: a tag added here shows up on both.
pub(super) fn stats_v2<P: PolicyCore>(ctx: &WorkerCtx<P>) -> Vec<(u16, u64)> {
    use xar_obs::tags;
    let m = ctx.engine.metrics_total();
    let o = ctx.engine.obs_total();
    let ev = ctx.tracer.counters();
    let r = Ordering::Relaxed;
    let mut pairs = vec![
        (tags::DECIDES, m.decides),
        (tags::REPORTS, m.reports),
        (tags::REPORT_BATCHES, m.batches),
        (tags::DECIDE_BATCH_FRAMES, m.decide_batches),
        (tags::TO_ARM, m.to_arm),
        (tags::TO_FPGA, m.to_fpga),
        (tags::RECONFIGS, m.reconfigs),
        (tags::LAT_SAMPLES, m.lat_samples),
        // Quantiles from the merged cross-worker histograms.
        (tags::DECIDE_P50_NS, o.decide.percentile(0.50)),
        (tags::DECIDE_P99_NS, o.decide.percentile(0.99)),
        (tags::LIVE_CONNS, ctx.counters.live()),
        (tags::ACCEPTED_CONNS, ctx.counters.accepted.load(r)),
        (tags::REAPED_CONNS, ctx.counters.reaped.load(r)),
        (tags::REJECTED_CONNS, ctx.counters.rejected.load(r)),
        (tags::SHARDS, ctx.engine.shard_count() as u64),
        (tags::WORKERS, ctx.config.workers.max(1) as u64),
        (tags::TRACE_EVENTS, ev.emitted()),
        (tags::TRACE_DROPPED, ev.dropped.load(r)),
        (tags::SLOW_DECIDES, ev.slow_decides.load(r)),
        (tags::BACKPRESSURE_PAUSES, ev.pauses.load(r)),
        (tags::BACKPRESSURE_RESUMES, ev.resumes.load(r)),
        (tags::PROTOCOL_ERRORS, ev.proto_errors.load(r)),
        (tags::DECIDE_BATCH_P50_NS, o.decide_batch.percentile(0.50)),
        (tags::DECIDE_BATCH_P99_NS, o.decide_batch.percentile(0.99)),
        (tags::REPORT_BATCH_P50_NS, o.report_batch.percentile(0.50)),
        (tags::REPORT_BATCH_P99_NS, o.report_batch.percentile(0.99)),
        (tags::FLUSH_PUBLISH_P50_NS, o.flush_publish.percentile(0.50)),
        (tags::FLUSH_PUBLISH_P99_NS, o.flush_publish.percentile(0.99)),
        (tags::FLUSH_PUBLISHES, ev.flush_publishes.load(r)),
        (tags::FLUSH_ROWS, ev.flush_rows.load(r)),
        (tags::DAEMON_ID, ctx.config.daemon_id as u64),
        (tags::UPTIME_SECS, ctx.started.elapsed().as_secs()),
        (
            tags::SERIES_SLOTS,
            ctx.series.as_ref().map_or(0, |s| s.ring.lock().unwrap().len() as u64),
        ),
        (tags::ACCEPT_THROTTLES, ev.accept_throttles.load(r)),
        (tags::SHED_BUSY, ev.shed_busy.load(r)),
        (tags::QUARANTINES, ev.quarantines.load(r)),
        (tags::SESSIONS_OPENED, ctx.sessions.opened_total()),
        (tags::REPLAYED_BATCHES, ctx.sessions.replayed_total()),
    ];
    // Durability tags ship from every daemon so StatsV2 always covers
    // the full registry; an in-memory daemon reads all-zero.
    let s = ctx.dur.as_ref().map(|d| d.stats()).unwrap_or_default();
    pairs.extend_from_slice(&[
        (tags::WAL_APPENDS, s.wal_appends),
        (tags::WAL_BYTES, s.wal_bytes),
        (tags::SNAPSHOTS_WRITTEN, s.snapshots_written),
        (tags::RECOVERY_REPLAYED_RECORDS, s.recovery_replayed_records),
        (tags::TORN_TAIL_TRUNCATIONS, s.torn_tail_truncations),
    ]);
    pairs
}

/// Raw per-bucket counts of the merged cross-worker histograms — the
/// same snapshots the `StatsV2` quantiles are computed from, so the two
/// scrape surfaces cannot disagree about the distributions they
/// describe.
pub(super) fn hist_dump<P: PolicyCore>(ctx: &WorkerCtx<P>) -> wire::HistDump {
    let o = ctx.engine.obs_total();
    wire::HistDump {
        classes: vec![
            (wire::hist_class::DECIDE, o.decide.buckets.to_vec()),
            (wire::hist_class::DECIDE_BATCH, o.decide_batch.buckets.to_vec()),
            (wire::hist_class::REPORT_BATCH, o.report_batch.buckets.to_vec()),
            (wire::hist_class::FLUSH_PUBLISH, o.flush_publish.buckets.to_vec()),
        ],
    }
}

/// `DUMP`: Prometheus-style exposition of every `StatsV2` counter, the
/// four latency histograms, the windowed section and per-shard gauges,
/// terminated by `END`.
pub(super) fn dump<P: PolicyCore>(ctx: &mut WorkerCtx<P>, out: &mut Vec<u8>) {
    // Drain this worker's ring first so the event counters and the
    // trace log reflect everything up to this request (other workers'
    // rings drain on their own maintenance ticks).
    ctx.drain_trace();
    let mut text = String::new();
    // Counter lines come from the same pairs StatsV2 ships, so DUMP
    // covers the wire op by construction.
    xar_obs::render_pairs(&stats_v2(ctx), &mut text);
    let o = ctx.engine.obs_total();
    xar_obs::render_histogram("xar_decide_latency_ns", &o.decide, &mut text);
    xar_obs::render_histogram("xar_decide_batch_latency_ns", &o.decide_batch, &mut text);
    xar_obs::render_histogram("xar_report_batch_latency_ns", &o.report_batch, &mut text);
    xar_obs::render_histogram("xar_flush_publish_latency_ns", &o.flush_publish, &mut text);
    // Windowed section: sliding-window quantiles and per-second rates
    // from the per-tick series. Absent until the series holds two
    // samples (and entirely when the series layer is disabled) —
    // cumulative lifetime values above are always present.
    ctx.advance_series();
    if let Some(state) = &ctx.series {
        let ring = state.ring.lock().unwrap();
        let w = state.ticks_for_secs(DUMP_WINDOW_SECS);
        for (i, class) in SERIES_HISTS.iter().enumerate() {
            if let Some(h) = ring.windowed_hist(i, w) {
                for (q, qn) in [(0.50, "p50"), (0.99, "p99")] {
                    let name = format!("xar_windowed_{class}_{qn}_ns");
                    xar_obs::render_type(&name, "gauge", &mut text);
                    let _ = writeln!(
                        &mut text,
                        "{name}{{window=\"{DUMP_WINDOW_SECS}s\"}} {}",
                        h.percentile(q)
                    );
                }
            }
        }
        for (i, name) in SERIES_COUNTERS.iter().enumerate() {
            if let Some(per_tick) = ring.rate(i, w) {
                let full = format!("xar_rate_{name}");
                xar_obs::render_type(&full, "gauge", &mut text);
                let _ = writeln!(
                    &mut text,
                    "{full}{{window=\"{DUMP_WINDOW_SECS}s\"}} {:.3}",
                    state.per_sec(per_tick)
                );
            }
        }
    }
    let shard_metrics = ctx.engine.metrics();
    xar_obs::render_type("xar_shard_decides", "gauge", &mut text);
    for (i, m) in shard_metrics.iter().enumerate() {
        xar_obs::render_shard_gauge("shard_decides", i, m.decides, &mut text);
    }
    xar_obs::render_type("xar_shard_reports", "gauge", &mut text);
    for (i, m) in shard_metrics.iter().enumerate() {
        xar_obs::render_shard_gauge("shard_reports", i, m.reports, &mut text);
    }
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"END\n");
}

/// `TRACE <n>`: the last `n` trace events, oldest first, then `END`.
pub(super) fn trace<P: PolicyCore>(ctx: &mut WorkerCtx<P>, n: usize, out: &mut Vec<u8>) {
    ctx.drain_trace();
    let mut text = String::new();
    // An oversized n (the grammar already clamped literals past usize)
    // means "everything the log holds".
    for ev in ctx.trace_log.last(n.min(ctx.config.trace_log_capacity)) {
        let _ = writeln!(&mut text, "{ev}");
    }
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"END\n");
}

/// `SERIES <name> <secs>`: one `<tick> <value>` line per slot, then
/// `END`; `ERR` for an unknown name or a disabled series layer.
pub(super) fn series<P: PolicyCore>(ctx: &WorkerCtx<P>, name: &str, secs: u64, out: &mut Vec<u8>) {
    ctx.advance_series();
    let rows = ctx.series.as_ref().and_then(|state| {
        let ring = state.ring.lock().unwrap();
        let w = state.ticks_for_secs(secs);
        if let Some(i) = SERIES_COUNTERS.iter().position(|&c| c == name) {
            Some(ring.deltas(i, w))
        } else {
            parse_quantile_series(name).map(|(i, q)| ring.quantile_series(i, w, q))
        }
    });
    let Some(rows) = rows else {
        out.extend_from_slice(b"ERR\n");
        return;
    };
    let mut text = String::new();
    for (tick, v) in rows {
        let _ = writeln!(&mut text, "{tick} {v}");
    }
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"END\n");
}

/// `RATE <name>`: the sliding-window per-second rate of one counter as
/// `xar_rate_<name> <value>`, then `END`; `ERR` for an unknown name or
/// a disabled series layer.
pub(super) fn rate<P: PolicyCore>(ctx: &WorkerCtx<P>, name: &str, out: &mut Vec<u8>) {
    ctx.advance_series();
    let rate = ctx.series.as_ref().and_then(|state| {
        let i = SERIES_COUNTERS.iter().position(|&c| c == name)?;
        let per_tick = state.ring.lock().unwrap().rate(i, state.ticks_for_secs(RATE_WINDOW_SECS));
        // A series with fewer than two samples yet reads as a zero
        // rate, not an error.
        Some(per_tick.map_or(0.0, |r| state.per_sec(r)))
    });
    let Some(r) = rate else {
        out.extend_from_slice(b"ERR\n");
        return;
    };
    let mut text = String::new();
    let _ = writeln!(&mut text, "xar_rate_{name} {r:.3}");
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"END\n");
}

/// `<class>_p50_ns` / `<class>_p99_ns` → (ring histogram index,
/// quantile) for the `SERIES` command.
fn parse_quantile_series(name: &str) -> Option<(usize, f64)> {
    let (base, q) = name
        .strip_suffix("_p50_ns")
        .map(|b| (b, 0.50))
        .or_else(|| name.strip_suffix("_p99_ns").map(|b| (b, 0.99)))?;
    SERIES_HISTS.iter().position(|&c| c == base).map(|i| (i, q))
}
