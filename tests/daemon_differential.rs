//! Whole-daemon differential property test of the one request path.
//! Generated sequences of decides, report runs and table reads go to
//! two daemons — as v1 text lines to one and as v2 frames to the
//! other — once in memory and once durable. The v2 side frames each
//! report run as single `Report`s, one `BATCH_REPORT`, or one
//! sessioned `BATCH_REPORT_SEQ` that may be sent twice. Every
//! decision and table must equal the other daemon's and the in-order
//! `XarTrekPolicy` fold, and `REPLAYED_BATCHES` must count exactly the
//! duplicates sent. A failing sequence is shrunk (ops removed while it
//! still fails) and printed.

use proptest::prelude::*;
use proptest::{collection, seed_from_name, TestRng};
use xar_trek::core::server::{
    spawn_sharded, EngineConfig, SchedulerClient, ServerConfig, ShardedSchedulerServer, V2Client,
};
use xar_trek::core::XarTrekPolicy;
use xar_trek::desim::{ClusterConfig, CompletionReport, DecideCtx, Policy, Target};
use xar_trek::sched::client::Served;
use xar_trek::sched::obs::tags;
use xar_trek::sched::wire::WireReport;
use xar_trek::sched::{DurabilityConfig, ReportOwned};

/// The Table 1 apps plus one the table does not know.
const APPS: [&str; 6] = ["Digit2000", "Digit500", "FaceDet320", "FaceDet640", "CG-A", "nope"];
const CASES: u64 = 64;
/// The v2 client's report session.
const SESSION: u64 = 7;

/// How the v2 run frames one run of reports (the v1 run always sends
/// one `REPORT` line each).
#[derive(Debug, Clone, Copy)]
enum Form {
    Single,
    Batch,
    /// One `BATCH_REPORT_SEQ`, resent with the same seq when `dup`.
    Seq {
        dup: bool,
    },
}

/// One report: app index, target, function time (ms), x86 load.
type Report = (usize, Target, f64, u32);

#[derive(Debug, Clone)]
enum Op {
    Decide { app: usize, load: u32, resident: bool },
    Reports { reports: Vec<Report>, form: Form },
    Table,
}

fn op() -> impl Strategy<Value = Op> {
    let target = prop_oneof![Just(Target::X86), Just(Target::Arm), Just(Target::Fpga)];
    // Fast and slow runs, so Algorithm 1 moves thresholds both ways.
    let func_ms = prop_oneof![Just(0.5), Just(50.0), Just(1300.0), Just(1e9), 0.0f64..2e4];
    let report = (0..APPS.len(), target, func_ms, 0u32..160);
    let form = prop_oneof![
        Just(Form::Single),
        Just(Form::Batch),
        any::<bool>().prop_map(|dup| Form::Seq { dup }),
    ];
    prop_oneof![
        (0..APPS.len(), 0u32..160, any::<bool>()).prop_map(|(app, load, resident)| Op::Decide {
            app,
            load,
            resident
        }),
        (collection::vec(report, 1..5), form)
            .prop_map(|(reports, form)| Op::Reports { reports, form }),
        Just(Op::Table),
    ]
}

fn policy() -> XarTrekPolicy {
    let specs: Vec<_> = xar_trek::workloads::all_profiles().iter().map(|p| p.job()).collect();
    XarTrekPolicy::from_specs(&specs, &ClusterConfig::default())
}

type Rows = Vec<(String, String, u32, u32)>;

fn reference_rows(p: &XarTrekPolicy) -> Rows {
    let mut rows: Rows =
        p.table.iter().map(|e| (e.app.clone(), e.kernel.clone(), e.fpga_thr, e.arm_thr)).collect();
    rows.sort();
    rows
}

/// One daemon pair (v1 side, v2 side) for one mode.
struct Pair {
    v1d: ShardedSchedulerServer,
    v2d: ShardedSchedulerServer,
    v1: SchedulerClient,
    v2: V2Client,
    seq: u64,
    dups: u64,
    /// Durability directories, removed once the daemons stop.
    dirs: Vec<std::path::PathBuf>,
}

fn spawn(durable: Option<std::path::PathBuf>) -> ShardedSchedulerServer {
    let durability = durable.map(DurabilityConfig::at);
    spawn_sharded(
        &policy(),
        EngineConfig::default(),
        ServerConfig { durability, ..Default::default() },
    )
    .unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xar-differential-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

impl Pair {
    fn new(durable: bool) -> Pair {
        let dirs = if durable { vec![tmp_dir("v1"), tmp_dir("v2")] } else { Vec::new() };
        let v1d = spawn(dirs.first().cloned());
        let v2d = spawn(dirs.get(1).cloned());
        let v1 = SchedulerClient::connect(v1d.addr()).unwrap();
        let mut v2 = V2Client::connect(v2d.addr()).unwrap();
        assert_eq!(v2.hello_session(SESSION).unwrap(), 0);
        Pair { v1d, v2d, v1, v2, seq: 0, dups: 0, dirs }
    }

    /// Applies one op to both daemons and the reference.
    fn step(&mut self, reference: &mut XarTrekPolicy, op: &Op) -> Result<(), String> {
        match op {
            Op::Decide { app, load, resident } => {
                let app = APPS[*app];
                let want = reference.decide(&DecideCtx {
                    app,
                    kernel: "k",
                    x86_load: *load as usize,
                    arm_load: 0,
                    kernel_resident: *resident,
                    device_ready: true,
                    now_ns: 0.0,
                });
                let d1 = self.v1.decide(app, "k", *load as usize, *resident).map_err(s)?;
                let d2 = self.v2.decide(app, "k", *load, *resident).map_err(s)?;
                if d1 != want || d2 != want {
                    return Err(format!("decide: v1 {d1:?}, v2 {d2:?}, reference {want:?}"));
                }
            }
            Op::Reports { reports, form } => {
                for &(app, target, func_ms, load) in reports {
                    let app = APPS[app];
                    reference.on_complete(&CompletionReport {
                        app,
                        target,
                        func_ms,
                        x86_load: load as usize,
                    });
                    self.v1.report(app, target, func_ms, load as usize).map_err(s)?;
                }
                self.v2_reports(reports, *form)?;
            }
            Op::Table => {
                let want = reference_rows(reference);
                let t1 = self.v1.fetch_table().map_err(s)?;
                let mut t1: Rows = t1
                    .iter()
                    .map(|e| (e.app.clone(), e.kernel.clone(), e.fpga_thr, e.arm_thr))
                    .collect();
                t1.sort();
                let t2: Rows = self
                    .v2
                    .fetch_table()
                    .map_err(s)?
                    .into_iter()
                    .map(|e| (e.app, e.kernel, e.fpga_thr, e.arm_thr))
                    .collect();
                if t1 != want || t2 != want {
                    return Err(format!("table: v1 {t1:?}\nv2 {t2:?}\nreference {want:?}"));
                }
            }
        }
        Ok(())
    }

    fn v2_reports(&mut self, reports: &[Report], form: Form) -> Result<(), String> {
        let n = reports.len() as u32;
        match form {
            Form::Single => {
                for &(app, target, func_ms, load) in reports {
                    self.v2.report(APPS[app], target, func_ms, load).map_err(s)?;
                }
            }
            Form::Batch => {
                let owned: Vec<ReportOwned> = reports
                    .iter()
                    .map(|&(app, target, func_ms, x86_load)| ReportOwned {
                        app: APPS[app].into(),
                        target,
                        func_ms,
                        x86_load,
                    })
                    .collect();
                let acked = self.v2.report_batch(&owned).map_err(s)?;
                if acked != n {
                    return Err(format!("BATCH_REPORT acked {acked} of {n}"));
                }
            }
            Form::Seq { dup } => {
                let wire: Vec<WireReport<'_>> = reports
                    .iter()
                    .map(|&(app, target, func_ms, x86_load)| WireReport {
                        app: APPS[app],
                        target,
                        func_ms,
                        x86_load,
                    })
                    .collect();
                self.seq += 1;
                let fresh = self.v2.report_batch_seq(SESSION, self.seq, &wire).map_err(s)?;
                if fresh != Served::Done(n) {
                    return Err(format!("seq {}: fresh batch answered {fresh:?}", self.seq));
                }
                if dup {
                    self.dups += 1;
                    let again = self.v2.report_batch_seq(SESSION, self.seq, &wire).map_err(s)?;
                    if again != Served::Done(0) {
                        return Err(format!("seq {}: duplicate answered {again:?}", self.seq));
                    }
                }
            }
        }
        Ok(())
    }

    /// The end-of-sequence checks: final tables and the replay count.
    fn finish(mut self, reference: &XarTrekPolicy) -> Result<(), String> {
        self.step(&mut reference.clone(), &Op::Table)?;
        let replayed = self.v2.stats_v2().map_err(s)?.get(tags::REPLAYED_BATCHES);
        if replayed != Some(self.dups) {
            return Err(format!("REPLAYED_BATCHES {replayed:?}, {} duplicates sent", self.dups));
        }
        drop((self.v1, self.v2));
        self.v1d.shutdown();
        self.v2d.shutdown();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }
}

fn s(e: std::io::Error) -> String {
    e.to_string()
}

/// Runs `ops` in memory and durable; the first divergence, if any.
fn check(ops: &[Op]) -> Result<(), String> {
    for durable in [false, true] {
        let mode = if durable { "durable" } else { "in-memory" };
        let mut reference = policy();
        let mut pair = Pair::new(durable);
        for (i, op) in ops.iter().enumerate() {
            pair.step(&mut reference, op).map_err(|e| format!("{mode}, op {i} {op:?}: {e}"))?;
        }
        pair.finish(&reference).map_err(|e| format!("{mode}, at the end: {e}"))?;
    }
    Ok(())
}

/// Removes ops, then single reports inside report runs, one at a time
/// for as long as the sequence still fails.
fn shrink(mut ops: Vec<Op>) -> (Vec<Op>, String) {
    let mut err = check(&ops).expect_err("shrinking a passing sequence");
    let mut i = 0;
    while i < ops.len() {
        let mut candidate = ops.clone();
        candidate.remove(i);
        match check(&candidate) {
            Err(e) => (ops, err) = (candidate, e),
            Ok(()) => i += 1,
        }
    }
    for i in 0..ops.len() {
        let mut j = 0;
        while matches!(&ops[i], Op::Reports { reports, .. } if reports.len() > 1 && j < reports.len())
        {
            let mut candidate = ops.clone();
            if let Op::Reports { reports, .. } = &mut candidate[i] {
                reports.remove(j);
            }
            match check(&candidate) {
                Err(e) => (ops, err) = (candidate, e),
                Ok(()) => j += 1,
            }
        }
    }
    (ops, err)
}

#[test]
fn v1_lines_and_v2_frames_match_the_sequential_policy() {
    let strategy = collection::vec(op(), 1..32);
    let base = seed_from_name("v1_lines_and_v2_frames_match_the_sequential_policy");
    for case in 0..CASES {
        let mut rng =
            TestRng::from_seed(base.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let ops = strategy.generate(&mut rng);
        if check(&ops).is_err() {
            let (shrunk, err) = shrink(ops);
            panic!(
                "case {case} failed: {err}\nshrunk sequence ({} ops):\n{shrunk:#?}",
                shrunk.len()
            );
        }
    }
}
