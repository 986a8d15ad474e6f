//! Seeded inputs: the 10k-row policy the daemon serves, the query and
//! report streams the load generator sends, and the sequential
//! reference the daemon's answers are checked against.
//!
//! Everything here is a pure function of the seed, so the launcher
//! process and the generator process build the same table
//! independently and the daemon receives only generated inputs.

use std::collections::HashMap;
use std::sync::Arc;
use xar_core::thresholds::{estimate_thresholds, scenario_times, ScenarioTimes};
use xar_core::{ThresholdEntry, ThresholdTable, XarTrekPolicy};
use xar_desim::{ClusterConfig, CompletionReport, DecideCtx, Decision, Policy, Target};
use xar_sched::TableEntry;
use xar_workloads::all_profiles;

/// Rows in the served threshold table.
pub const APPS: usize = 10_000;

/// SplitMix64: a tiny deterministic generator, so inputs depend only on
/// the seed and not on any dependency's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform(0.0, 1.0) < p
    }
}

/// One table row's identity and the Table 1 profile it was drawn from.
#[derive(Debug, Clone)]
pub struct App {
    pub name: String,
    pub kernel: &'static str,
    /// Isolated scenario times the row was seeded with.
    pub times: ScenarioTimes,
}

/// The seeded world: apps, the policy built from them, and the profiles.
pub struct Model {
    pub apps: Vec<App>,
    pub policy: XarTrekPolicy,
    pub cluster: ClusterConfig,
}

impl Model {
    /// Builds the seeded 10k-row policy: each row draws one of the five
    /// Table 1 profiles, takes the step-G threshold estimate for it with
    /// a seeded ±50% jitter (so rows of one profile disagree), and
    /// carries that profile's scenario times, so Algorithm 1 is live.
    pub fn build(seed: u64) -> Model {
        let profiles = all_profiles();
        let cluster = ClusterConfig::default();
        let base: Vec<(ThresholdEntry, ScenarioTimes)> = profiles
            .iter()
            .map(|p| (estimate_thresholds(&p.job(), &cluster), scenario_times(&p.job(), &cluster)))
            .collect();
        let mut rng = Rng::new(seed, 1);
        let mut table = ThresholdTable::new();
        let mut ref_times: HashMap<Arc<str>, ScenarioTimes> = HashMap::with_capacity(APPS);
        let mut apps = Vec::with_capacity(APPS);
        for i in 0..APPS {
            let profile = rng.below(profiles.len() as u64) as usize;
            let (entry, times) = &base[profile];
            let jitter = |thr: u32, rng: &mut Rng| (thr as f64 * rng.uniform(0.5, 1.5)) as u32;
            let name = format!("{}-{i:05}", profiles[profile].name);
            table.insert(ThresholdEntry {
                app: name.clone(),
                kernel: profiles[profile].kernel_name.to_string(),
                fpga_thr: jitter(entry.fpga_thr, &mut rng),
                arm_thr: jitter(entry.arm_thr, &mut rng),
            });
            ref_times.insert(name.as_str().into(), *times);
            apps.push(App { name, kernel: profiles[profile].kernel_name, times: *times });
        }
        Model { apps, policy: XarTrekPolicy::new(table, ref_times), cluster }
    }

    /// Highest Table 3 load class boundary: loads are drawn up to twice
    /// it, so every Algorithm 2 branch is reachable.
    pub fn max_load(&self) -> u32 {
        2 * (self.cluster.x86_cores + self.cluster.arm_cores)
    }
}

/// One full-context placement query.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub app: u32,
    pub x86_load: u32,
    pub arm_load: u32,
    pub kernel_resident: bool,
    pub device_ready: bool,
}

impl Query {
    pub fn ctx<'a>(&self, model: &'a Model) -> DecideCtx<'a> {
        let app = &model.apps[self.app as usize];
        DecideCtx {
            app: &app.name,
            kernel: app.kernel,
            x86_load: self.x86_load as usize,
            arm_load: self.arm_load as usize,
            kernel_resident: self.kernel_resident,
            device_ready: self.device_ready,
            now_ns: 0.0,
        }
    }
}

/// The `decide_open` query stream: apps uniform over the whole table
/// (all 8 shards), loads uniform over every load class.
pub fn queries(model: &Model, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 2);
    let max = model.max_load() as u64;
    (0..n)
        .map(|_| Query {
            app: rng.below(APPS as u64) as u32,
            x86_load: rng.below(max) as u32,
            arm_load: rng.below(model.cluster.arm_cores as u64) as u32,
            kernel_resident: rng.chance(0.5),
            device_ready: rng.chance(0.9),
        })
        .collect()
}

/// One completion report, by app index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    pub app: u32,
    pub target: Target,
    pub func_ms: f64,
    pub x86_load: u32,
}

/// The profile's time for a call placed on `target` at `load`; on x86
/// under processor sharing, as the step-G estimator assumes.
pub fn call_ms(app: &App, target: Target, load: u32, cores: u32) -> f64 {
    match target {
        Target::X86 => app.times.x86_ms * (load as f64 / cores as f64).max(1.0),
        Target::Arm => app.times.arm_ms,
        Target::Fpga => app.times.fpga_ms,
    }
}

/// Ingest batches for connection `conn` of `conns`: 16-report batches
/// over the apps that connection owns (app index ≡ conn mod conns), so
/// each app's reports come from one connection in one order.
pub fn ingest_batch(model: &Model, rng: &mut Rng, conn: usize, conns: usize) -> Vec<Report> {
    let owned = (APPS / conns) as u64;
    let max = model.max_load() as u64;
    (0..BATCH)
        .map(|_| {
            let app = (rng.below(owned) as usize * conns + conn) as u32;
            let target = match rng.below(3) {
                0 => Target::X86,
                1 => Target::Arm,
                _ => Target::Fpga,
            };
            let load = rng.below(max) as u32;
            let a = &model.apps[app as usize];
            let func_ms =
                call_ms(a, target, load, model.cluster.x86_cores) * rng.uniform(0.8, 1.25);
            Report { app, target, func_ms, x86_load: load }
        })
        .collect()
}

/// Reports per ingest frame.
pub const BATCH: usize = 16;

/// The sequential reference: the plain in-process [`XarTrekPolicy`],
/// folded in each app's order.
pub struct Reference {
    pub policy: XarTrekPolicy,
}

impl Reference {
    pub fn new(model: &Model) -> Reference {
        Reference { policy: model.policy.clone() }
    }

    pub fn decide(&mut self, model: &Model, q: &Query) -> Decision {
        self.policy.decide(&q.ctx(model))
    }

    pub fn apply(&mut self, model: &Model, r: &Report) {
        self.policy.on_complete(&CompletionReport {
            app: &model.apps[r.app as usize].name,
            target: r.target,
            func_ms: r.func_ms,
            x86_load: r.x86_load as usize,
        });
    }

    /// The reference table in the daemon's `fetch_table` order.
    pub fn table(&self) -> Vec<TableEntry> {
        self.policy
            .table
            .iter()
            .map(|e| TableEntry {
                app: e.app.clone(),
                kernel: e.kernel.clone(),
                fpga_thr: e.fpga_thr,
                arm_thr: e.arm_thr,
            })
            .collect()
    }
}

/// Compares a fetched table with the reference; returns the first
/// difference found.
pub fn table_diff(got: &[TableEntry], want: &[TableEntry]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("table has {} rows, reference {}", got.len(), want.len()));
    }
    let mut got: Vec<&TableEntry> = got.iter().collect();
    got.sort_by(|a, b| a.app.cmp(&b.app));
    got.iter().zip(want).find(|(g, w)| **g != *w).map(|(g, w)| format!("row {g:?} != {w:?}"))
}
