//! `perfbench` — the end-to-end and per-layer benchmark of the
//! scheduler daemon. See `README.md` next to this crate for the
//! workloads, metrics and how to run it.
//!
//! ```text
//! perfbench --workload <decide_open|ingest_durable|app_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The daemon runs in its own process (`perfbench daemon`), the loopback
//! floor in another (`perfbench echo`); this process is the load
//! generator, with at most two worker threads and two connections.

mod client;
mod layers;
mod load;
mod model;
mod phases;
mod proc;
mod stats;
mod trace;
mod traced;

use load::{Calls, Ingest, Instance, RatePoint, Stop};
use model::{Model, Reference};
use phases::{control, Ctx, SESSIONS};
use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Spans;
use xar_sched::obs::tags;

/// Offered decide rates of the open-loop ladder, per second.
const RATES: [f64; 5] = [8_000.0, 14_000.0, 20_000.0, 26_000.0, 32_000.0];
/// Index of the ladder's middle rate (where p50/p99 are reported).
const MID: usize = 2;
/// Passes over the ladder in a traced run (each rate measured this many
/// times).
const TRACED_PASSES: usize = 4;
/// Length of one round of the untraced run, seconds: every traffic shape
/// runs once per round, so each metric samples the whole run.
const ROUND_S: f64 = 2.0;
/// Untimed round before the timed ones, seconds.
const WARMUP_S: f64 = 1.0;
/// Window for throughput figures, seconds.
const RATE_WINDOW_S: f64 = 0.1;
/// Daemon launches per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;
/// Length of the cyclic decide query stream.
const QUERIES: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    DecideOpen,
    IngestDurable,
    AppMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "decide_open" => Some(Workload::DecideOpen),
            "ingest_durable" => Some(Workload::IngestDurable),
            "app_mix" => Some(Workload::AppMix),
            _ => None,
        }
    }

    /// Shares of an untraced round spent on the ladder, the app calls
    /// and the ingest: half on the workload's own traffic.
    fn shares(self) -> [f64; 3] {
        match self {
            Workload::DecideOpen => [0.5, 0.25, 0.25],
            Workload::IngestDurable => [0.25, 0.25, 0.5],
            Workload::AppMix => [0.25, 0.5, 0.25],
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::DecideOpen => "decide_open",
            Workload::IngestDurable => "ingest_durable",
            Workload::AppMix => "app_mix",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("daemon") => {
            let seed = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);
            let dur = (argv.get(3).map(String::as_str) == Some("--dur"))
                .then(|| argv.get(4).map(PathBuf::from))
                .flatten();
            proc::serve_daemon(seed, dur).map_err(err)
        }
        Some("echo") => {
            let n = |i: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(1);
            proc::serve_echo(n(1), n(2)).map_err(err)
        }
        _ => parse_args(&argv).and_then(bench),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// What one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Report batches acked in full since set-up (the StatsV2 window).
    pub acked_batches: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A figure printed for the record but kept out of the result line.
    pub fn ungated(&self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name} = {value:.4} {unit} (printed, not gated)");
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let w = what();
            eprintln!("perfbench: CHECK FAILED: {w}");
            self.failures.push(w);
        }
    }

    /// Accounts one phase's ops and prints its line.
    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        println!(
            "phase {name:<22} sent={attempted} succeeded={} failed={failed}",
            attempted - failed
        );
    }

    pub fn latency(&self, name: &str, s: &Summary) {
        println!("  {name:<22} {} us", s.describe());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn bench(args: Args) -> Result<(), String> {
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(err)?;
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let report = result?;
    for (n, v, u) in &report.metrics {
        println!("metric {n} = {v:.4} {u}");
    }
    println!("{}", report.json());
    Ok(())
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let steal0 = steal_ticks();
    let wl = args.workload;
    let s = args.seconds;
    let main = Duration::from_secs_f64(s * 0.3);
    let model = Model::build(args.seed);
    let queries = model::queries(&model, args.seed, QUERIES);
    let mut cx = Ctx {
        addr: ([127, 0, 0, 1], 0).into(),
        seed: args.seed,
        model: &model,
        queries: &queries,
        reference: Reference::new(&model),
        rep: Report::default(),
    };
    println!("workload {} seed {} seconds {s} trace {}", wl.name(), args.seed, args.trace as u8);

    // --- set-up: launch → first decide served, several times ------------
    let durable = wl == Workload::IngestDurable;
    let seed_dir = work.join("seeded");
    let seeded_hwm = if durable { cx.seed_durable(&seed_dir)? } else { [0; 2] };
    let mut launches = Vec::new();
    // Traced durable run: in-memory launches interleaved with the
    // restarts, so the recovery split is compared under equal conditions.
    let mut in_memory = Vec::new();
    let fresh = Reference::new(&model).decide(&model, &queries[0]);
    let mut serving: Option<(proc::Child, Option<PathBuf>)> = None;
    for i in 0..SETUP_SAMPLES {
        if durable && args.trace {
            let (child, secs) = phases::launch(&model, args.seed, None, &queries[0], fresh)?;
            child.kill().map_err(err)?;
            in_memory.push(secs);
        }
        let dir = durable.then(|| work.join(format!("run-{i}")));
        if let Some(d) = &dir {
            copy_dir(&seed_dir, d).map_err(err)?;
        }
        let (child, secs) = cx.launch(dir.as_deref())?;
        launches.push(secs);
        if let Some((old, old_dir)) = serving.replace((child, dir)) {
            old.kill().map_err(err)?;
            if let Some(d) = old_dir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }
    let (daemon, serving_dir) = serving.expect("at least one launch");
    cx.addr = daemon.addr;
    let setup_s = median(&launches);
    println!("setup launches_s={launches:?}");
    cx.rep.metric("setup_s", setup_s, "s");
    cx.rep.phase("setup", SETUP_SAMPLES as u64, 0);
    if durable {
        let table = control(cx.addr)?.fetch_table().map_err(err)?;
        cx.rep.check(model::table_diff(&table, &cx.reference.table()).is_none(), || {
            "recovered table differs from the reference fold of the seeded reports".into()
        });
    }

    // --- traffic ----------------------------------------------------------
    let stats0 = control(cx.addr)?.stats_v2().map_err(err)?;
    let mut spans = Spans::new();
    let (mut ladder, mut calls, mut ingest) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed: Vec<Round> = Vec::new();
    let until = |d: Duration| Stop::At(Instant::now() + d);
    // Traced run only: the untraced pass's p50 and tails (decide, ack,
    // call), and the one-connection durable ack.
    let (mut untraced_p50, mut tails, mut solo_ack_p50) = (f64::NAN, [0.0; 3], f64::NAN);
    match (args.trace, wl) {
        // Untraced run: every shape in each round, the workload's own
        // for half of it, so a slow stretch of the shared host is spread
        // over all metrics rather than landing on one.
        (false, _) => {
            let mut apps = cx.app_instances();
            // Warm-up, checked but untimed: the first connections, the
            // first publishes and the daemon's first page faults.
            let warm = round(&mut cx, wl, &mut apps, Duration::from_secs_f64(WARMUP_S), 19)?;
            if durable {
                check_hwm(&warm.ingest, seeded_hwm, &mut cx.rep);
            }
            let rounds = (s / ROUND_S).round().max(1.0) as u32;
            for r in 0..rounds {
                let span = Duration::from_secs_f64(s) / rounds;
                timed.push(round(&mut cx, wl, &mut apps, span, 20 + r as u64)?);
            }
        }
        // Traced run: the workload's own traffic twice on the same
        // inputs, untraced then traced; the difference is the overhead.
        (true, Workload::DecideOpen) => {
            let mid = [RATES[MID]];
            let plain = cx.ladder(&mid, TRACED_PASSES, main, None)?;
            let plain = Summary::of(plain.iter().flat_map(|p| p.lat_us.clone()).collect());
            (untraced_p50, tails[0]) = (plain.p50, plain.p99);
            ladder = cx.ladder(&mid, TRACED_PASSES, main, Some(&mut spans))?;
        }
        (true, Workload::IngestDurable) => {
            let plain = cx.ingest(1, 2, until(main), None)?;
            check_hwm(&plain, seeded_hwm, &mut cx.rep);
            let plain = Summary::of(plain.iter().flat_map(|r| r.ack_us.clone()).collect());
            (untraced_p50, tails[1]) = (plain.p50, plain.p99);
            ingest = cx.ingest(2, 2, until(main), Some(&mut spans))?;
            // One connection alone: the ack without queueing behind the
            // other session's batch on the daemon's ingest lock.
            let solo = cx.ingest(3, 1, until(main / 3), None)?;
            solo_ack_p50 = Summary::of(solo.iter().flat_map(|r| r.ack_us.clone()).collect()).p50;
        }
        (true, Workload::AppMix) => {
            let plain = cx.calls(&mut cx.app_instances(), main, None)?;
            let decide = Summary::of(plain.iter().flat_map(|r| r.decide_us.clone()).collect());
            (untraced_p50, tails[0]) = (decide.p50, decide.p99);
            tails[2] = Summary::of(plain.iter().flat_map(|r| r.call_us.clone()).collect()).p99;
            calls = cx.calls(&mut cx.app_instances(), main, Some(&mut spans))?;
        }
    }
    let stats1 = control(cx.addr)?.stats_v2().map_err(err)?;
    let delta =
        |tag: u16| stats1.get(tag).unwrap_or(0).saturating_sub(stats0.get(tag).unwrap_or(0)) as f64;

    // --- end-of-run checks ---------------------------------------------
    let table = control(cx.addr)?.fetch_table().map_err(err)?;
    let diff = model::table_diff(&table, &cx.reference.table());
    cx.rep.check(diff.is_none(), || {
        format!("final table differs from the reference fold: {}", diff.unwrap_or_default())
    });
    let replayed = stats1.get(tags::REPLAYED_BATCHES).unwrap_or(0);
    cx.rep
        .check(replayed == 0, || format!("REPLAYED_BATCHES = {replayed} in a run without faults"));
    if let Some(dir) = &serving_dir {
        let mut c = control(cx.addr)?;
        let hwm: Vec<u64> =
            SESSIONS.iter().map(|&s| c.hello_session(s)).collect::<Result<_, _>>().map_err(err)?;
        drop(c);
        daemon.kill().map_err(err)?;
        let (again, _) = cx.launch(Some(dir))?;
        let mut c = control(again.addr)?;
        let after = c.fetch_table().map_err(err)?;
        cx.rep.check(after == table, || "table after kill -9 + restart differs from before".into());
        for (s, want) in SESSIONS.iter().zip(hwm) {
            let got = c.hello_session(*s).map_err(err)?;
            cx.rep.check(got == want, || {
                format!("session {s}: hwm {got} after restart, {want} before")
            });
        }
        drop(c);
        again.kill().map_err(err)?;
    } else {
        daemon.stop().map_err(err)?;
    }

    // --- metrics ----------------------------------------------------------
    if !args.trace {
        // The figures come from the half of the rounds in which the
        // hypervisor stole the least CPU time, so a stretch of host steal
        // is not read as the daemon's; every round's answers were checked.
        timed.sort_by_key(|r| r.steal_ticks);
        let steal: Vec<u64> = timed.iter().map(|r| r.steal_ticks * 10).collect();
        let keep = timed.len().div_ceil(2);
        println!("rounds: kept {keep} of {}; steal per round, ms: {steal:?}", timed.len());
        println!("all rounds:");
        for (name, v, unit, _) in e2e(&timed, wl, &cx.rep) {
            cx.rep.ungated(&format!("{name}.all_rounds"), v, unit);
        }
        println!("kept rounds:");
        for (name, v, unit, gated) in e2e(&timed[..keep], wl, &cx.rep) {
            if gated {
                cx.rep.metric(name, v, unit);
            } else {
                cx.rep.ungated(name, v, unit);
            }
        }
    } else {
        cx.rep.metrics.retain(|(n, _, _)| n != "setup_s");
        let layered = traced::Layered {
            workload: wl,
            seconds: s,
            delta: &delta,
            untraced_p50,
            tails,
            solo_ack_p50,
            ladder: &ladder,
            calls: &calls,
            ingest: &ingest,
            setup_s,
            in_memory_launch_s: median(&in_memory),
            finished_wal: serving_dir.as_deref(),
            seed_dir: &seed_dir,
        };
        traced::per_layer(&mut cx, &mut spans, work, layered)?;
    }

    // --- machine block ---------------------------------------------------
    let late: Vec<f64> = ladder
        .iter()
        .chain(timed.iter().flat_map(|r| &r.ladder))
        .flat_map(|p| p.late_us.iter().copied())
        .collect();
    let steal_ms = steal_ticks().zip(steal0).map_or(f64::NAN, |(a, b)| (a - b) as f64 * 10.0);
    println!(
        "{{\"machine\": {{\"cores\": {}, \"kernel\": \"{}\", \"cpu\": \"{}\", \"steal_ms\": {steal_ms:.0}, \"gen_late_p50_us\": {:.1}, \"gen_late_max_us\": {:.1}}}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        read_trim("/proc/sys/kernel/osrelease"),
        cpu_model(),
        median(&late),
        late.iter().copied().fold(0.0, f64::max),
    );
    if args.trace {
        cx.rep.metric("machine.steal_ms", steal_ms, "ms");
    }
    Ok(cx.rep)
}

/// One round of untraced traffic.
struct Round {
    ladder: Vec<RatePoint>,
    calls: Vec<Calls>,
    ingest: Vec<Ingest>,
    /// Completed calls per second in each whole window of the calls.
    call_rates: Vec<f64>,
    /// Acked batches per second in each whole window of the ingest.
    ingest_rates: Vec<f64>,
    /// Machine-wide steal during the round, `/proc/stat` ticks.
    steal_ticks: u64,
}

/// One round of the untraced run: the ladder once, the app calls and
/// the ingest (report stream `salt`), `span` split by the workload's
/// shares.
fn round(
    cx: &mut Ctx,
    wl: Workload,
    apps: &mut [Vec<Instance>; 2],
    span: Duration,
    salt: u64,
) -> Result<Round, String> {
    let [l, c, i] = wl.shares();
    let steal0 = steal_ticks();
    let ladder = cx.ladder(&RATES, 1, span.mul_f64(l), None)?;
    let calls = cx.calls(apps, span.mul_f64(c), None)?;
    let ingest = cx.ingest(salt, 2, Stop::At(Instant::now() + span.mul_f64(i)), None)?;
    let rates = |at: Vec<f64>, share: f64| {
        stats::window_rates(&at, RATE_WINDOW_S, span.as_secs_f64() * share)
    };
    Ok(Round {
        call_rates: rates(calls.iter().flat_map(|c| c.at_s.iter().copied()).collect(), c),
        ingest_rates: rates(ingest.iter().flat_map(|r| r.at_s.iter().copied()).collect(), i),
        steal_ticks: steal_ticks().zip(steal0).map_or(0, |(a, b)| a.saturating_sub(b)),
        ladder,
        calls,
        ingest,
    })
}

/// The end-to-end figures of `rounds`: `(name, value, unit, gated)`.
/// Tails are printed, not gated: on a shared 2-vCPU host they follow the
/// host's steal, not the daemon (see README).
fn e2e(
    rounds: &[Round],
    wl: Workload,
    rep: &Report,
) -> Vec<(&'static str, f64, &'static str, bool)> {
    let ladder: Vec<&RatePoint> = rounds.iter().flat_map(|r| &r.ladder).collect();
    let calls: Vec<&Calls> = rounds.iter().flat_map(|r| &r.calls).collect();
    let ingest: Vec<&Ingest> = rounds.iter().flat_map(|r| &r.ingest).collect();
    let call_rates: Vec<f64> = rounds.iter().flat_map(|r| r.call_rates.iter().copied()).collect();
    let ingest_rates: Vec<f64> =
        rounds.iter().flat_map(|r| r.ingest_rates.iter().copied()).collect();
    let decides = phases::ladder_metrics(&ladder, rep);
    let call = phases::calls_metrics(&calls, &call_rates, rep);
    let acks = phases::ingest_metrics(&ingest, &ingest_rates, rep);
    let decide = if wl == Workload::AppMix { call.decide } else { decides.mid };
    vec![
        ("decide_p50_us", decide.p50, "us", true),
        ("decide_slo_frac", decides.slo_frac, "ratio", true),
        ("decide_knee_rps", decides.knee, "1/s", true),
        ("ingest_reports_per_s", acks.reports_per_s, "1/s", true),
        ("report_ack_p50_us", acks.ack.p50, "us", true),
        ("calls_per_s", call.per_s, "1/s", true),
        ("call_p50_us", call.call.p50, "us", true),
        ("decide_p99_us", decide.p99, "us", false),
        ("report_ack_p99_us", acks.ack.p99, "us", false),
        ("call_p99_us", call.call.p99, "us", false),
    ]
}

/// After a restart onto the seeded directory, `hello_session` must
/// return the high-water mark the killed daemon acked.
fn check_hwm(runs: &[Ingest], seeded: [u64; 2], rep: &mut Report) {
    for (run, hwm) in runs.iter().zip(seeded) {
        rep.check(run.hello_hwm == hwm, || {
            format!("hello_session returned {} after restart, seeded {hwm}", run.hello_hwm)
        });
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        std::fs::copy(e.path(), to.join(e.file_name()))?;
    }
    Ok(())
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().replace('"', "'")).unwrap_or_default()
}

fn cpu_model() -> String {
    read_trim("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// Machine-wide steal time, in USER_HZ ticks, from `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}
