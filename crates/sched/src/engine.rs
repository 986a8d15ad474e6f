//! The sharded policy engine.
//!
//! State is partitioned into per-app-group shards (stable FNV-1a hash
//! of the application name). Each shard owns one policy instance and
//! publishes an immutable decision snapshot ([`ArcCell`]):
//!
//! * **decide** (hot path) — loads the shard snapshot and evaluates the
//!   pure decision function against it. No policy lock is taken, so
//!   threshold lookups never contend with Algorithm 1 updates.
//! * **report** (warm path) — a frame's reports are grouped by shard;
//!   each touched shard applies its reports in frame order under its
//!   state lock (Algorithm 1) and publishes one new snapshot before
//!   the call returns, so the next decide already sees them — as in
//!   the paper's single-mutex server, with the lock and the snapshot
//!   rebuild paid once per shard per frame.
//!
//! Because Algorithm 1 only ever touches the reporting application's
//! table row, sharding by app preserves the single-policy semantics
//! exactly: every report is applied to the same row state, in arrival
//! order per shard.
//!
//! Two decide paths exist. [`ShardedEngine::decide`] is the shared
//! path: any `&ShardedEngine` can call it, at the cost of a reader
//! lock plus an `Arc` refcount bump on the shard's snapshot cell —
//! both RMWs on cache lines shared by every caller. [`DecideHandle`]
//! is the hot path: a worker-owned handle holding a [`CachedSnap`]
//! per shard, so a steady-state decide revalidates with one atomic
//! *load* of the shard's publication generation and evaluates against
//! its privately held `Arc` — no RMW, no shared refcount line, no
//! lock. The two are decision-identical by construction (both
//! evaluate `P::decide` against the same published snapshots).
//!
//! Ingest borrows: reports arrive as [`WireReport`]s pointing into the
//! decoded frame (or WAL record), so applying one copies no string.

use crate::metrics::{MetricsSnapshot, ObsSnapshot, ShardMetrics};
use crate::snapshot::{ArcCell, CachedSnap};
use crate::wire::{WireQuery, WireReport};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use xar_desim::{CompletionReport, DecideCtx, Decision, Target};
use xar_obs::{Event, Tracer};

/// A threshold-table row as the engine and wire protocol see it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TableEntry {
    /// Application name.
    pub app: String,
    /// Hardware kernel name.
    pub kernel: String,
    /// FPGA migration threshold.
    pub fpga_thr: u32,
    /// ARM migration threshold.
    pub arm_thr: u32,
}

/// An owned completion report, as a client queues it for a
/// `BatchReport` frame (see `V2Client::report_batch`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportOwned {
    /// Application name.
    pub app: Arc<str>,
    /// Where the call ran.
    pub target: Target,
    /// Observed function time (ms).
    pub func_ms: f64,
    /// x86 load at completion.
    pub x86_load: u32,
}

/// The policy state a shard manages. `xar-core` implements this for
/// `XarTrekPolicy`; the engine itself is policy-agnostic so it can be
/// reused (and tested) with toy policies.
pub trait PolicyCore: Send + 'static {
    /// The immutable decision state published to the lock-free read
    /// path (for Xar-Trek: the threshold table plus policy flags).
    type Snap: Send + Sync + 'static;

    /// Builds the current decision snapshot.
    fn snapshot(&self) -> Self::Snap;

    /// The pure placement decision against a snapshot (Algorithm 2).
    fn decide(snap: &Self::Snap, ctx: &DecideCtx<'_>) -> Decision;

    /// Whether an application launch should trigger an early FPGA
    /// configuration (paper §3.1). Default: never.
    fn early_config(snap: &Self::Snap, ctx: &DecideCtx<'_>) -> bool {
        let _ = (snap, ctx);
        false
    }

    /// Applies one completion report (Algorithm 1).
    fn apply(&mut self, report: &CompletionReport<'_>);

    /// The current threshold rows (for TABLE snapshots).
    fn entries(&self) -> Vec<TableEntry>;

    /// Serializes this shard's full mutable state (not just the
    /// decision rows — anything [`PolicyCore::apply`] can read or
    /// write) for a durability snapshot. `None` means the policy does
    /// not support state snapshots; the durability layer then keeps
    /// the WAL from genesis instead of checkpointing.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state serialized by [`PolicyCore::save_state`],
    /// replacing this shard's current state.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let _ = bytes;
        Err("policy does not support state snapshots".into())
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of policy shards (app-name hash groups).
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { shards: 8 }
    }
}

/// Stable shard index for an application name (FNV-1a).
pub fn shard_of(app: &str, shards: usize) -> usize {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in app.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    (h % shards.max(1) as u64) as usize
}

struct Shard<P: PolicyCore> {
    state: Mutex<P>,
    snap: ArcCell<P::Snap>,
    metrics: ShardMetrics,
}

/// The sharded scheduler state behind the daemon (and the simulator
/// adapter).
pub struct ShardedEngine<P: PolicyCore> {
    shards: Vec<Shard<P>>,
}

impl<P: PolicyCore> ShardedEngine<P> {
    /// Builds an engine from pre-split shard states. `states[i]` must
    /// hold exactly the rows whose app names map to shard `i` under
    /// [`shard_of`] — [`ShardedEngine::decide`] routes by that hash.
    pub fn from_shards(states: Vec<P>) -> Self {
        assert!(!states.is_empty(), "at least one shard");
        let shards = states
            .into_iter()
            .map(|p| Shard {
                snap: ArcCell::new(p.snapshot()),
                state: Mutex::new(p),
                metrics: ShardMetrics::default(),
            })
            .collect();
        ShardedEngine { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, app: &str) -> &Shard<P> {
        &self.shards[shard_of(app, self.shards.len())]
    }

    /// Placement decision — the *shared* read path: a reader lock plus
    /// an `Arc` refcount bump per call. Workers on the request hot path
    /// should hold a [`DecideHandle`] instead, whose per-shard caches
    /// make steady-state decides wait-free.
    pub fn decide(&self, ctx: &DecideCtx<'_>) -> Decision {
        let shard = self.shard(ctx.app);
        let sampled = shard.metrics.note_decide(0);
        let start = if sampled { Some(Instant::now()) } else { None };
        let snap = shard.snap.load();
        let d = P::decide(&snap, ctx);
        shard.metrics.note_outcome(
            0,
            d.target,
            d.reconfigure,
            start.map(|s| s.elapsed().as_nanos() as u64),
        );
        d
    }

    /// Whether `ctx`'s application launch should early-configure the
    /// FPGA (paper §3.1).
    pub fn early_config(&self, ctx: &DecideCtx<'_>) -> bool {
        P::early_config(&self.shard(ctx.app).snap.load(), ctx)
    }

    /// A worker-owned decide handle over this engine (per-shard
    /// snapshot caches plus a reusable batch scratch). One per thread;
    /// the handle is `Send` but deliberately not shared.
    pub fn handle(self: &Arc<Self>) -> DecideHandle<P> {
        // Round-robin stripe assignment: concurrent handles land on
        // distinct counter cache lines (up to STRIPES of them).
        static NEXT_STRIPE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        DecideHandle {
            caches: (0..self.shards.len()).map(|_| CachedSnap::new()).collect(),
            stripe: NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % crate::metrics::STRIPES,
            engine: self.clone(),
        }
    }

    /// Applies a frame's completion reports (Algorithm 1) — the
    /// engine's one ingest path. Reports are grouped by shard through
    /// the caller-scoped [`BatchScratch`] (no per-call allocation);
    /// each touched shard applies its group in frame order under its
    /// state lock and publishes one new decision snapshot before the
    /// call returns.
    pub fn report_batch_wire(
        &self,
        scratch: &mut BatchScratch,
        reports: &[WireReport<'_>],
    ) -> usize {
        self.report_batch_wire_obs(scratch, reports, None)
    }

    /// [`ShardedEngine::report_batch_wire`] with an optional tracer:
    /// each shard's publish emits a `FlushPublish` event carrying its
    /// applied row count. The daemon's workers thread their per-worker
    /// tracer here.
    pub fn report_batch_wire_obs(
        &self,
        scratch: &mut BatchScratch,
        reports: &[WireReport<'_>],
        mut obs: Option<&mut Tracer>,
    ) -> usize {
        let shards = self.shards.len();
        scratch.groups.resize_with(shards, Vec::new);
        for (i, r) in reports.iter().enumerate() {
            scratch.groups[shard_of(r.app, shards)].push(i as u32);
        }
        for (idx, (shard, group)) in self.shards.iter().zip(&mut scratch.groups).enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut state = shard.state.lock();
            // Applies run at report cadence (rare next to decides), so
            // the apply loop and the snapshot publication are each
            // timed unconditionally — these are the report_batch /
            // flush_publish op-class distributions.
            let apply_start = Instant::now();
            for &i in group.iter() {
                let r = &reports[i as usize];
                state.apply(&CompletionReport {
                    app: r.app,
                    target: r.target,
                    func_ms: r.func_ms,
                    x86_load: r.x86_load as usize,
                });
            }
            let apply_ns = apply_start.elapsed().as_nanos() as u64;
            let publish_start = Instant::now();
            shard.snap.store(state.snapshot());
            let publish_ns = publish_start.elapsed().as_nanos() as u64;
            drop(state);
            shard.metrics.record_batch(group.len());
            shard.metrics.record_flush_ns(apply_ns, publish_ns);
            if let Some(tr) = obs.as_deref_mut() {
                tr.emit(Event::FlushPublish {
                    shard: idx as u32,
                    rows: group.len().min(u32::MAX as usize) as u32,
                });
            }
            group.clear();
        }
        reports.len()
    }

    /// Serializes every shard's policy state for a durability
    /// snapshot. `None` if the policy does not implement
    /// [`PolicyCore::save_state`].
    pub fn save_states(&self) -> Option<Vec<Vec<u8>>> {
        self.shards.iter().map(|s| s.state.lock().save_state()).collect()
    }

    /// Restores per-shard policy states serialized by
    /// [`ShardedEngine::save_states`] and republishes every shard's
    /// decision snapshot. Blob count must match the shard count — a
    /// snapshot taken under a different sharding cannot be loaded.
    pub fn load_states(&self, blobs: &[Vec<u8>]) -> Result<(), String> {
        if blobs.len() != self.shards.len() {
            return Err(format!(
                "snapshot has {} shard states, engine has {} shards",
                blobs.len(),
                self.shards.len()
            ));
        }
        for (shard, blob) in self.shards.iter().zip(blobs) {
            let mut state = shard.state.lock();
            state.load_state(blob)?;
            shard.snap.store(state.snapshot());
        }
        Ok(())
    }

    /// The merged threshold table, sorted by app.
    pub fn table(&self) -> Vec<TableEntry> {
        let mut entries: Vec<TableEntry> =
            self.shards.iter().flat_map(|s| s.state.lock().entries()).collect();
        entries.sort();
        entries
    }

    /// Per-shard metric snapshots.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.shards.iter().map(|s| s.metrics.snapshot()).collect()
    }

    /// Whole-engine metric totals. The decide-latency quantiles come
    /// from the bucket-exact merged histogram ([`Self::obs_total`]),
    /// not from the per-shard quantiles, whose maximum is biased high.
    pub fn metrics_total(&self) -> MetricsSnapshot {
        let mut total =
            self.metrics().into_iter().fold(MetricsSnapshot::default(), MetricsSnapshot::merge);
        let decide = self.obs_total().decide;
        total.lat_samples = decide.count();
        total.p50_ns = decide.percentile(0.50);
        total.p99_ns = decide.percentile(0.99);
        total
    }

    /// Per-shard full latency distributions (one histogram snapshot per
    /// op class).
    pub fn obs(&self) -> Vec<ObsSnapshot> {
        self.shards.iter().map(|s| s.metrics.obs_snapshot()).collect()
    }

    /// Whole-engine latency distributions — per-shard snapshots merged
    /// bucket-exactly. This is what `StatsV2` quantiles and the `DUMP`
    /// histogram buckets are computed from.
    pub fn obs_total(&self) -> ObsSnapshot {
        self.shards
            .iter()
            .fold(ObsSnapshot::default(), |acc, s| acc.merge(&s.metrics.obs_snapshot()))
    }
}

/// Reusable grouping scratch for [`ShardedEngine::report_batch_wire`]:
/// per-shard index lists that keep their capacity across calls, so a
/// steady stream of batch frames allocates nothing per frame.
#[derive(Debug, Default)]
pub struct BatchScratch {
    groups: Vec<Vec<u32>>,
}

/// Reusable caller-scoped scratch for [`DecideHandle::decide_batch`],
/// mirroring [`BatchScratch`]: per-shard query-index groups plus the
/// decision buffer handed back in query order. Both keep their
/// capacity across calls, so a steady stream of `DecideBatch` frames
/// allocates nothing per frame.
#[derive(Debug, Default)]
pub struct DecideScratch {
    groups: Vec<Vec<u32>>,
    decisions: Vec<Decision>,
}

/// A worker-owned fast decide path over a shared [`ShardedEngine`].
///
/// Holds one [`CachedSnap`] per shard: a steady-state
/// [`DecideHandle::decide`] revalidates the shard's snapshot with a
/// single atomic load of its publication generation and evaluates
/// against the handle's privately held `Arc` — zero atomic RMWs, no
/// refcount traffic on shared cache lines, no lock. Only an actual
/// publish (orders of magnitude rarer than decides) touches the
/// snapshot cell's lock. Decisions are identical to
/// [`ShardedEngine::decide`] by construction.
///
/// One handle per thread; cloning an adapter or spawning a worker
/// creates a fresh handle via [`ShardedEngine::handle`].
pub struct DecideHandle<P: PolicyCore> {
    engine: Arc<ShardedEngine<P>>,
    caches: Vec<CachedSnap<P::Snap>>,
    /// This handle's counter stripe (see [`crate::metrics::STRIPES`]).
    stripe: usize,
}

impl<P: PolicyCore> DecideHandle<P> {
    /// The engine behind this handle.
    pub fn engine(&self) -> &Arc<ShardedEngine<P>> {
        &self.engine
    }

    /// Placement decision (wait-free steady state + sampled latency
    /// metric); [`DecideHandle::decide_obs`] without a tracer.
    pub fn decide(&mut self, ctx: &DecideCtx<'_>) -> Decision {
        self.decide_obs(ctx, None)
    }

    /// [`DecideHandle::decide`] with an optional tracer: a sampled
    /// decide whose latency crosses the tracer's slow-decide threshold
    /// emits a `SlowDecide` event. Tracing observes, it never changes
    /// what is counted. Unelected decides pay one branch on the
    /// `Option` and nothing else.
    pub fn decide_obs(&mut self, ctx: &DecideCtx<'_>, obs: Option<&mut Tracer>) -> Decision {
        let idx = shard_of(ctx.app, self.engine.shards.len());
        let shard = &self.engine.shards[idx];
        let sampled = shard.metrics.note_decide(self.stripe);
        let start = if sampled { Some(Instant::now()) } else { None };
        let snap = self.caches[idx].get(&shard.snap);
        let d = P::decide(snap, ctx);
        let nanos = start.map(|s| s.elapsed().as_nanos() as u64);
        shard.metrics.note_outcome(self.stripe, d.target, d.reconfigure, nanos);
        if let (Some(tr), Some(ns)) = (obs, nanos) {
            tr.slow_decide(ns);
        }
        d
    }

    /// Whether `ctx`'s application launch should early-configure the
    /// FPGA (paper §3.1), evaluated against the cached snapshot.
    pub fn early_config(&mut self, ctx: &DecideCtx<'_>) -> bool {
        let idx = shard_of(ctx.app, self.engine.shards.len());
        let shard = &self.engine.shards[idx];
        P::early_config(self.caches[idx].get(&shard.snap), ctx)
    }

    /// Batched placement decisions — the whole-frame amortization of
    /// [`DecideHandle::decide`]: queries are grouped by shard through
    /// the caller-scoped [`DecideScratch`] (no per-call allocation),
    /// each *touched* shard's snapshot generation is revalidated
    /// **once per batch** instead of once per decide, and the metric
    /// counters take one add of N per lane touched. Latency sampling
    /// keeps its exact 1-in-[`crate::metrics::LATENCY_SAMPLE`]
    /// election cadence, recording the batch's amortized per-decide
    /// figure for each elected sample.
    ///
    /// Returns the decisions in query order, borrowed from the
    /// scratch. Decisions are bit-identical to issuing the same
    /// queries one by one through [`DecideHandle::decide`]: both
    /// evaluate the pure `P::decide` against the same published
    /// snapshots (a 1-query batch literally takes that path).
    pub fn decide_batch<'s>(
        &mut self,
        queries: &[WireQuery<'_>],
        scratch: &'s mut DecideScratch,
    ) -> &'s [Decision] {
        self.decide_batch_obs(queries, scratch, None)
    }

    /// [`DecideHandle::decide_batch`] with an optional tracer: an
    /// elected group whose amortized per-decide figure crosses the
    /// tracer's threshold emits a `SlowDecide` event. Counting does not
    /// depend on the tracer.
    pub fn decide_batch_obs<'s>(
        &mut self,
        queries: &[WireQuery<'_>],
        scratch: &'s mut DecideScratch,
        mut obs: Option<&mut Tracer>,
    ) -> &'s [Decision] {
        scratch.decisions.clear();
        let Some(first) = queries.first() else {
            return &scratch.decisions; // empty frame: nothing to count
        };
        let shards = self.engine.shards.len();
        // Frame-level counter, attributed to the first query's shard.
        self.engine.shards[shard_of(first.app, shards)].metrics.record_decide_batch_frame();
        if let [q] = queries {
            // Single-query batches ride the exact single-decide path
            // (same metrics election included) — pinned by test.
            let d = self.decide_obs(&q.ctx(), obs);
            scratch.decisions.push(d);
            return &scratch.decisions;
        }
        scratch.decisions.resize(queries.len(), Decision::to(Target::X86));
        scratch.groups.resize_with(shards, Vec::new);
        for (i, q) in queries.iter().enumerate() {
            scratch.groups[shard_of(q.app, shards)].push(i as u32);
        }
        for (idx, group) in scratch.groups.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.engine.shards[idx];
            let n = group.len() as u64;
            let elected = shard.metrics.note_decides(self.stripe, n);
            let start = (elected > 0).then(Instant::now);
            // The once-per-batch generation gate: every query in this
            // group evaluates against the same revalidated snapshot.
            let snap = self.caches[idx].get(&shard.snap);
            let (mut to_arm, mut to_fpga, mut reconfigs) = (0u64, 0u64, 0u64);
            for &i in group.iter() {
                let d = P::decide(snap, &queries[i as usize].ctx());
                match d.target {
                    Target::X86 => {}
                    Target::Arm => to_arm += 1,
                    Target::Fpga => to_fpga += 1,
                }
                reconfigs += u64::from(d.reconfigure);
                scratch.decisions[i as usize] = d;
            }
            let sampled = start.map(|s| {
                let group_ns = s.elapsed().as_nanos() as u64;
                shard.metrics.record_decide_batch_ns(self.stripe, group_ns);
                let per_decide_ns = group_ns / n;
                if let Some(tr) = obs.as_deref_mut() {
                    tr.slow_decide(per_decide_ns);
                }
                (elected, per_decide_ns)
            });
            shard.metrics.note_outcomes(self.stripe, to_arm, to_fpga, reconfigs, sampled);
            group.clear();
        }
        &scratch.decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy policy: per-app call counters; decides FPGA once an app has
    /// been reported `limit` times.
    #[derive(Debug, Clone, Default)]
    struct CountPolicy {
        counts: std::collections::BTreeMap<String, u32>,
        limit: u32,
    }

    impl PolicyCore for CountPolicy {
        type Snap = std::collections::BTreeMap<String, u32>;

        fn snapshot(&self) -> Self::Snap {
            self.counts.clone()
        }

        fn decide(snap: &Self::Snap, ctx: &DecideCtx<'_>) -> Decision {
            let seen = snap.get(ctx.app).copied().unwrap_or(0);
            Decision::to(if seen >= 3 { Target::Fpga } else { Target::X86 })
        }

        fn apply(&mut self, report: &CompletionReport<'_>) {
            *self.counts.entry(report.app.to_string()).or_default() += 1;
            self.limit = self.limit.max(1);
        }

        fn entries(&self) -> Vec<TableEntry> {
            self.counts
                .iter()
                .map(|(app, &n)| TableEntry {
                    app: app.clone(),
                    kernel: String::new(),
                    fpga_thr: n,
                    arm_thr: 0,
                })
                .collect()
        }
    }

    fn ctx(app: &str) -> DecideCtx<'_> {
        DecideCtx {
            app,
            kernel: "k",
            x86_load: 1,
            arm_load: 0,
            kernel_resident: true,
            device_ready: true,
            now_ns: 0.0,
        }
    }

    fn engine(shards: usize) -> ShardedEngine<CountPolicy> {
        ShardedEngine::from_shards(vec![CountPolicy::default(); shards])
    }

    fn wire(app: &str) -> WireReport<'_> {
        WireReport { app, target: Target::X86, func_ms: 1.0, x86_load: 1 }
    }

    /// Sends one single-report frame.
    fn report(e: &ShardedEngine<CountPolicy>, app: &str) {
        assert_eq!(e.report_batch_wire(&mut BatchScratch::default(), &[wire(app)]), 1);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for app in ["CG-A", "Digit2000", "FaceDet320", "x"] {
            let s = shard_of(app, 8);
            assert!(s < 8);
            assert_eq!(s, shard_of(app, 8), "stable");
        }
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn reports_publish_before_returning() {
        let e = engine(4);
        for _ in 0..3 {
            report(&e, "app");
        }
        // The snapshot already reflects all three.
        assert_eq!(e.decide(&ctx("app")).target, Target::Fpga);
        let m = e.metrics_total();
        assert_eq!(m.reports, 3);
        assert_eq!(m.batches, 3, "one publish per single-report frame");
    }

    #[test]
    fn report_batch_groups_by_shard_and_counts() {
        let e = engine(4);
        let apps: Vec<String> = (0..10).map(|i| format!("app{i}")).collect();
        let frame: Vec<WireReport<'_>> = apps.iter().map(|a| wire(a)).collect();
        let n = e.report_batch_wire(&mut BatchScratch::default(), &frame);
        assert_eq!(n, 10);
        let m = e.metrics_total();
        assert_eq!(m.reports, 10);
        let touched: std::collections::BTreeSet<usize> =
            apps.iter().map(|a| shard_of(a, 4)).collect();
        assert_eq!(m.batches, touched.len() as u64, "one publish per touched shard");
        assert_eq!(e.table().len(), 10);
    }

    #[test]
    fn table_merges_sorted_across_shards() {
        let e = engine(4);
        for app in ["zeta", "alpha", "mid"] {
            report(&e, app);
        }
        let t = e.table();
        let apps: Vec<&str> = t.iter().map(|e| e.app.as_str()).collect();
        assert_eq!(apps, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn decide_counts_and_latency_metrics_land_in_app_shard() {
        let e = engine(4);
        for _ in 0..5 {
            e.decide(&ctx("solo"));
        }
        let per_shard = e.metrics();
        let idx = shard_of("solo", 4);
        assert_eq!(per_shard[idx].decides, 5);
        assert!(per_shard[idx].p50_ns > 0);
        let other: u64 =
            per_shard.iter().enumerate().filter(|(i, _)| *i != idx).map(|(_, m)| m.decides).sum();
        assert_eq!(other, 0);
    }

    /// The legacy `Stats` p50/p99 come from the merged histogram: a
    /// busy fast shard next to one slow sample must not report the
    /// slow shard's median as the engine's, as a max over per-shard
    /// quantiles would.
    #[test]
    fn metrics_total_quantiles_come_from_the_merged_histogram() {
        let e = engine(2);
        for _ in 0..99 {
            e.shards[0].metrics.record_decide(Target::X86, false, 100);
        }
        e.shards[1].metrics.record_decide(Target::X86, false, 1_000_000);
        let max_shard_p50 = e.metrics().iter().map(|m| m.p50_ns).max().unwrap();
        let merged = e.obs_total().decide;
        let total = e.metrics_total();
        assert_eq!(total.lat_samples, 100);
        assert_eq!(total.p50_ns, merged.percentile(0.50));
        assert_eq!(total.p99_ns, merged.percentile(0.99));
        assert!(total.p50_ns < max_shard_p50, "{} vs {max_shard_p50}", total.p50_ns);
    }

    #[test]
    fn latency_sampling_pins_metric_counts() {
        use crate::metrics::LATENCY_SAMPLE;
        let e = engine(1);
        for _ in 0..(2 * LATENCY_SAMPLE + 1) {
            e.decide(&ctx("app"));
        }
        let m = e.metrics_total();
        assert_eq!(m.decides, 2 * LATENCY_SAMPLE + 1, "decide count stays exact under sampling");
        assert_eq!(m.lat_samples, 3, "decides 0, 64 and 128 were latency-sampled");
        assert!(m.p50_ns > 0, "the sampled decides landed in the histogram");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let e = engine(4);
        let mut scratch = BatchScratch::default();
        assert_eq!(e.report_batch_wire(&mut scratch, &[]), 0);
        assert_eq!(e.metrics_total().reports, 0);
    }

    #[test]
    fn decide_handle_matches_engine_and_observes_publishes() {
        let e = std::sync::Arc::new(engine(4));
        let mut h = e.handle();
        assert_eq!(h.decide(&ctx("app")).target, Target::X86);
        for _ in 0..3 {
            report(&e, "app");
        }
        // The third report published a new snapshot; the cached handle
        // must observe it on its next decide.
        assert_eq!(h.decide(&ctx("app")).target, Target::Fpga, "handle missed the publish");
        assert_eq!(h.decide(&ctx("app")), e.decide(&ctx("app")));
        let m = e.metrics_total();
        assert_eq!(m.decides, 4, "handle decides count in the shared shard metrics");
    }

    fn query(app: &str) -> WireQuery<'_> {
        WireQuery {
            app,
            kernel: "k",
            x86_load: 1,
            arm_load: 0,
            kernel_resident: true,
            device_ready: true,
        }
    }

    #[test]
    fn decide_batch_is_bit_identical_to_sequential_decides() {
        let e = std::sync::Arc::new(engine(4));
        // Push some apps over the toy policy's FPGA limit so the batch
        // spans a mixed decision set across several shards.
        for i in 0..8 {
            if i % 2 == 0 {
                for _ in 0..3 {
                    report(&e, &format!("app{i}"));
                }
            }
        }
        let apps: Vec<String> = (0..8).map(|i| format!("app{i}")).collect();
        let queries: Vec<WireQuery<'_>> = apps.iter().map(|a| query(a)).collect();
        let mut sequential = e.handle();
        let want: Vec<Decision> = queries.iter().map(|q| sequential.decide(&q.ctx())).collect();
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        let got = h.decide_batch(&queries, &mut scratch);
        assert_eq!(got, want.as_slice(), "batched decisions drifted from the sequential path");
    }

    #[test]
    fn decide_batch_observes_publishes_between_batches() {
        let e = std::sync::Arc::new(engine(4));
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        let queries = [query("app"), query("other")];
        assert_eq!(h.decide_batch(&queries, &mut scratch)[0].target, Target::X86);
        for _ in 0..3 {
            report(&e, "app");
        }
        // The third report published; the next batch's once-per-batch
        // revalidation must observe it.
        assert_eq!(
            h.decide_batch(&queries, &mut scratch)[0].target,
            Target::Fpga,
            "batch missed the publish"
        );
    }

    #[test]
    fn decide_batch_metrics_match_single_decides_plus_frame_count() {
        let e1 = std::sync::Arc::new(engine(4));
        let mut h1 = e1.handle();
        let queries: Vec<String> = (0..10).map(|i| format!("app{i}")).collect();
        let wire: Vec<WireQuery<'_>> = queries.iter().map(|a| query(a)).collect();
        for q in &wire {
            h1.decide(&q.ctx());
        }
        let e2 = std::sync::Arc::new(engine(4));
        let mut h2 = e2.handle();
        let mut scratch = DecideScratch::default();
        h2.decide_batch(&wire, &mut scratch);
        let (m1, m2) = (e1.metrics_total(), e2.metrics_total());
        assert_eq!(m2.decides, m1.decides, "batched decides must count exactly");
        assert_eq!(m2.to_arm, m1.to_arm);
        assert_eq!(m2.to_fpga, m1.to_fpga);
        assert_eq!(m1.decide_batches, 0, "single decides are not batch frames");
        assert_eq!(m2.decide_batches, 1, "one frame, one decide_batches count");
    }

    #[test]
    fn one_query_batch_takes_the_single_decide_path() {
        let e = std::sync::Arc::new(engine(4));
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        let ds = h.decide_batch(&[query("app")], &mut scratch);
        assert_eq!(ds.len(), 1);
        assert!(scratch.groups.is_empty(), "1-query fast path never built groups");
        let m = e.metrics_total();
        assert_eq!(m.decides, 1);
        assert_eq!(m.decide_batches, 1);
        assert_eq!(m.lat_samples, 1, "the single-decide election fired");
    }

    #[test]
    fn empty_decide_batch_is_a_no_op() {
        let e = std::sync::Arc::new(engine(4));
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        assert!(h.decide_batch(&[], &mut scratch).is_empty());
        let m = e.metrics_total();
        assert_eq!(m.decides, 0);
        assert_eq!(m.decide_batches, 0, "no shard to attribute an empty frame to");
    }

    fn tracer(threshold_ns: u64) -> (Tracer, xar_obs::TraceReader, Arc<xar_obs::EventCounters>) {
        let (writer, reader) = xar_obs::ring(256);
        let counters = Arc::new(xar_obs::EventCounters::default());
        (Tracer::new(writer, 0, true, threshold_ns, counters.clone()), reader, counters)
    }

    #[test]
    fn traced_flushes_emit_publish_events_with_row_counts() {
        let e = engine(4);
        let (mut tr, mut reader, counters) = tracer(u64::MAX);
        let apps: Vec<String> = (0..6).map(|i| format!("app{i}")).collect();
        let frame: Vec<WireReport<'_>> = apps.iter().map(|a| wire(a)).collect();
        let mut scratch = BatchScratch::default();
        e.report_batch_wire_obs(&mut scratch, &frame, Some(&mut tr));
        let (mut publishes, mut rows) = (0u64, 0u64);
        let mut shards_seen = std::collections::BTreeSet::new();
        while let Some(ev) = reader.pop() {
            if let Event::FlushPublish { shard, rows: r } = ev.event {
                publishes += 1;
                rows += r as u64;
                shards_seen.insert(shard);
            }
        }
        assert_eq!(rows, 6, "row counts must sum to the reports applied");
        assert!((1..=4).contains(&publishes), "one publish per touched shard: {publishes}");
        assert_eq!(publishes, shards_seen.len() as u64, "one publish event per shard");
        assert_eq!(counters.flush_rows.load(Ordering::Relaxed), 6);
        // Each shard's apply timed both phases into the op-class
        // histograms.
        let o = e.obs_total();
        assert_eq!(o.report_batch.count(), publishes);
        assert_eq!(o.flush_publish.count(), publishes);
        // An empty frame touches no shard and emits nothing.
        e.report_batch_wire_obs(&mut scratch, &[], Some(&mut tr));
        assert_eq!(counters.flush_publishes.load(Ordering::Relaxed), publishes);
    }

    #[test]
    fn slow_sampled_decides_emit_events() {
        let e = std::sync::Arc::new(engine(1));
        let mut h = e.handle();
        // Threshold 0: every *sampled* decide is "slow". The first
        // decide of an idle stripe is always elected.
        let (mut tr, mut reader, counters) = tracer(0);
        h.decide_obs(&ctx("app"), Some(&mut tr));
        assert_eq!(counters.slow_decides.load(Ordering::Relaxed), 1);
        match reader.pop().map(|e| e.event) {
            Some(Event::SlowDecide { .. }) => {}
            other => panic!("expected SlowDecide, got {other:?}"),
        }
        // The next 63 decides are unelected: no clock, no event.
        for _ in 0..63 {
            h.decide_obs(&ctx("app"), Some(&mut tr));
        }
        assert_eq!(counters.slow_decides.load(Ordering::Relaxed), 1);
        // With an unreachable threshold nothing emits even when sampled.
        let (mut quiet, _qreader, qcounters) = tracer(u64::MAX);
        h.decide_obs(&ctx("app"), Some(&mut quiet)); // decide 64: elected
        assert_eq!(qcounters.slow_decides.load(Ordering::Relaxed), 0);
        let m = e.metrics_total();
        assert_eq!(m.decides, 65, "tracing never changes what is counted");
        assert_eq!(m.lat_samples, 2, "elections 0 and 64");
    }

    #[test]
    fn decide_obs_counts_exactly_like_decide() {
        let traced = std::sync::Arc::new(engine(4));
        let plain = std::sync::Arc::new(engine(4));
        let mut ht = traced.handle();
        let mut hp = plain.handle();
        let (mut tr, _reader, _counters) = tracer(u64::MAX);
        for i in 0..130 {
            let app = format!("app{}", i % 5);
            let want = hp.decide(&ctx(&app));
            let got = ht.decide_obs(&ctx(&app), Some(&mut tr));
            assert_eq!(got, want);
        }
        let (mt, mp) = (traced.metrics_total(), plain.metrics_total());
        assert_eq!(mt.decides, mp.decides);
        assert_eq!(mt.lat_samples, mp.lat_samples, "same election cadence");
        assert_eq!(mt.to_fpga, mp.to_fpga);
    }

    #[test]
    fn traced_decide_batch_records_frame_latency_when_elected() {
        let e = std::sync::Arc::new(engine(4));
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        let apps: Vec<String> = (0..10).map(|i| format!("app{i}")).collect();
        let queries: Vec<WireQuery<'_>> = apps.iter().map(|a| query(a)).collect();
        let (mut tr, _reader, _counters) = tracer(u64::MAX);
        let plain = std::sync::Arc::new(engine(4));
        let mut hp = plain.handle();
        let mut pscratch = DecideScratch::default();
        let want = hp.decide_batch(&queries, &mut pscratch).to_vec();
        let got = h.decide_batch_obs(&queries, &mut scratch, Some(&mut tr)).to_vec();
        assert_eq!(got, want, "traced batch decisions drifted from the plain path");
        // Quantiles are wall-clock and may differ; every count must not.
        let zero_lat = |mut m: MetricsSnapshot| {
            m.p50_ns = 0;
            m.p99_ns = 0;
            m
        };
        assert_eq!(
            zero_lat(e.metrics_total()),
            zero_lat(plain.metrics_total()),
            "identical counting"
        );
        // First-touch groups all elected: each group recorded one
        // whole-frame figure.
        let o = e.obs_total();
        assert!(o.decide_batch.count() >= 1, "elected groups record frame latency");
        assert_eq!(plain.obs_total().decide_batch.count(), o.decide_batch.count());
    }

    #[test]
    fn concurrent_reports_all_land() {
        let e = std::sync::Arc::new(engine(4));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let e = e.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        report(&e, &format!("app{}", (t + i) % 5));
                    }
                    if t == 0 {
                        report(&e, "rare");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let table = e.table();
        let total: u32 = table.iter().map(|en| en.fpga_thr).sum();
        assert_eq!(total, 801, "every report applied exactly once");
        // Every apply published before returning: a fresh handle's
        // decisions agree with the table.
        let mut h = e.handle();
        for en in &table {
            let want = if en.fpga_thr >= 3 { Target::Fpga } else { Target::X86 };
            assert_eq!(h.decide(&ctx(&en.app)).target, want, "{}", en.app);
        }
    }
}
