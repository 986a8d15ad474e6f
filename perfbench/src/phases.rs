//! The run's traffic phases against a live daemon, each checked against
//! the sequential reference, and the end-to-end figures drawn from them.

use crate::client::Conn;
use crate::load::{self, Calls, Ingest, Instance, RatePoint, Stop};
use crate::model::{self, Model, Query, Reference, Rng};
use crate::proc::Child;
use crate::stats::{median, Summary};
use crate::trace::Spans;
use crate::{err, Report};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};
use xar_core::server::V2Client;
use xar_desim::Decision;
use xar_sched::obs::tags;

/// Latency limit on a decide, µs: the SLO the ladder is judged by.
pub const LIMIT_US: f64 = 1_000.0;
/// Exactly-once report sessions, one per ingest connection.
pub const SESSIONS: [u64; 2] = [1, 2];
/// App instances in `app_mix`, split over the two connections.
const INSTANCES: usize = 128;
/// Seeded durability directory: batches per session before and after
/// the first snapshot, so recovery loads a snapshot and replays a WAL
/// suffix.
const SEED_BATCHES: (usize, usize) = (260, 160);
/// Target length of one closed-loop slice, seconds.
const SLICE_S: f64 = 0.75;

/// A control connection for table, stats and session queries.
pub fn control(addr: SocketAddr) -> Result<V2Client, String> {
    V2Client::connect(addr).map_err(err)
}

/// Starts a daemon (durable under `dir`) and times launch → first
/// decide served; that decide must equal `expect`.
pub fn launch(
    model: &Model,
    seed: u64,
    dir: Option<&Path>,
    q: &Query,
    expect: Decision,
) -> Result<(Child, f64), String> {
    let t0 = Instant::now();
    let child = Child::daemon(seed, dir).map_err(err)?;
    let ctx = q.ctx(model);
    let got = control(child.addr)?
        .decide_with(ctx.app, ctx.kernel, q.x86_load, q.arm_load, q.kernel_resident, q.device_ready)
        .map_err(err)?;
    let secs = t0.elapsed().as_secs_f64();
    if got != expect {
        return Err(format!("first decide answered {got:?}, reference {expect:?}"));
    }
    Ok((child, secs))
}

/// One run's shared state: the daemon under load, the seeded inputs,
/// the reference every answer is checked against, and the report.
pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub seed: u64,
    pub model: &'a Model,
    pub queries: &'a [Query],
    pub reference: Reference,
    pub rep: Report,
}

impl Ctx<'_> {
    /// Launches a daemon (durable under `dir`) whose table the
    /// reference holds now; see [`launch`].
    pub fn launch(&mut self, dir: Option<&Path>) -> Result<(Child, f64), String> {
        let q = self.queries[0];
        let expect = self.reference.decide(self.model, &q);
        launch(self.model, self.seed, dir, &q, expect)
    }

    /// Leaves `dir` as a killed durable daemon left it: two sessions of
    /// acked batches, a snapshot, and a WAL suffix after it. Returns the
    /// sessions' acked high-water marks.
    pub fn seed_durable(&mut self, dir: &Path) -> Result<[u64; 2], String> {
        let d = Child::daemon(self.seed, Some(dir)).map_err(err)?;
        self.addr = d.addr;
        self.ingest(10, 2, Stop::After(SEED_BATCHES.0), None)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while control(d.addr)?.stats_v2().map_err(err)?.get(tags::SNAPSHOTS_WRITTEN).unwrap_or(0)
            == 0
        {
            if Instant::now() > deadline {
                return Err("seeded daemon wrote no snapshot".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let runs = self.ingest(11, 2, Stop::After(SEED_BATCHES.1), None)?;
        d.kill().map_err(err)?;
        Ok([runs[0].last_seq, runs[1].last_seq])
    }

    /// The open-loop ladder, climbed `passes` times in `span`, each step
    /// on a fresh connection; replies are checked against the reference's
    /// decisions for the current table.
    pub fn ladder(
        &mut self,
        rates: &[f64],
        passes: usize,
        span: Duration,
        mut spans: Option<&mut Spans>,
    ) -> Result<Vec<RatePoint>, String> {
        let expect: Vec<Decision> =
            self.queries.iter().map(|q| self.reference.decide(self.model, q)).collect();
        let step = span / (rates.len() * passes) as u32;
        let mut points = Vec::new();
        for _ in 0..passes {
            for &rate in rates {
                let mut conn = Conn::connect(self.addr).map_err(err)?;
                let p = load::open_loop(
                    &mut conn,
                    self.model,
                    self.queries,
                    &expect,
                    rate,
                    step,
                    LIMIT_US,
                    spans.as_deref_mut(),
                )
                .map_err(err)?;
                self.rep.phase(&format!("decide@{rate}/s"), p.attempted, p.failed);
                self.rep.check(p.mismatches == 0, || {
                    format!("{} decide replies at {rate}/s differ from the reference", p.mismatches)
                });
                points.push(p);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        Ok(points)
    }

    /// The `app_mix` instances, fresh, split between the two connections.
    pub fn app_instances(&self) -> [Vec<Instance>; 2] {
        let mut rng = Rng::new(self.seed, 3);
        let mut apps: Vec<u32> = Vec::with_capacity(INSTANCES);
        while apps.len() < INSTANCES {
            let a = rng.below(model::APPS as u64) as u32;
            if !apps.contains(&a) {
                apps.push(a);
            }
        }
        let seed = self.seed;
        [
            apps.iter().step_by(2).map(|&a| Instance::new(a, seed)).collect(),
            apps.iter().skip(1).step_by(2).map(|&a| Instance::new(a, seed)).collect(),
        ]
    }

    /// Closed-loop app calls on two connections, each owning one half of
    /// `halves`, in slices of fresh connections and threads; the logs
    /// are folded through the reference after each slice.
    pub fn calls(
        &mut self,
        halves: &mut [Vec<Instance>; 2],
        span: Duration,
        mut spans: Option<&mut Spans>,
    ) -> Result<Vec<Calls>, String> {
        let (addr, model, traced) = (self.addr, self.model, spans.is_some());
        let epoch = Instant::now();
        let mut out = Vec::new();
        for end in slice_ends(epoch, span) {
            let results = workers(halves, |owned| {
                let mut sp = traced.then(Spans::new);
                load::calls(addr, model, owned, epoch, Stop::At(end), sp.as_mut()).map(|c| (c, sp))
            });
            for r in results {
                let (c, sp) = r.map_err(err)?;
                absorb(&mut spans, sp);
                let mut mismatches = 0;
                for call in &c.log {
                    if self.reference.decide(model, &call.query) != call.decision {
                        mismatches += 1;
                    }
                    self.reference.apply(model, &call.report);
                }
                self.rep.check(mismatches == 0, || {
                    format!("{mismatches} app_mix decisions differ from the reference fold")
                });
                self.rep.phase("calls", c.attempted, c.failed);
                out.push(c);
            }
        }
        Ok(out)
    }

    /// Closed-loop exactly-once ingest on `conns` connections (sessions
    /// 1 and 2), in slices of fresh connections and threads (a time
    /// limit) or as one slice (a batch count); acked batches are folded
    /// into the reference. `salt` picks the phase's report stream.
    pub fn ingest(
        &mut self,
        salt: u64,
        conns: usize,
        stop: Stop,
        mut spans: Option<&mut Spans>,
    ) -> Result<Vec<Ingest>, String> {
        let (addr, model, traced) = (self.addr, self.model, spans.is_some());
        let mut sessions: Vec<(usize, u64, Rng)> = SESSIONS[..conns]
            .iter()
            .enumerate()
            .map(|(c, &s)| (c, s, Rng::new(self.seed, 100 + salt * 10 + s)))
            .collect();
        let epoch = Instant::now();
        let stops: Vec<Stop> = match stop {
            Stop::At(end) => slice_ends(epoch, end - epoch).into_iter().map(Stop::At).collect(),
            Stop::After(_) => vec![stop],
        };
        let mut out = Vec::new();
        for stop in stops {
            let results = workers(&mut sessions, |(c, session, rng)| {
                let mut sp = traced.then(Spans::new);
                load::ingest(addr, model, *session, *c, conns, rng, epoch, stop, sp.as_mut())
                    .map(|r| (r, sp))
            });
            for r in results {
                let (run, sp) = r.map_err(err)?;
                absorb(&mut spans, sp);
                for r in run.batches.iter().flatten() {
                    self.reference.apply(model, r);
                }
                self.rep.phase("ingest", run.attempted, run.failed);
                self.rep.acked_batches += run.batches.len() as u64;
                self.rep.check(run.failed == 0, || {
                    format!("{} of {} batches were not acked in full", run.failed, run.attempted)
                });
                out.push(run);
            }
        }
        Ok(out)
    }
}

/// Ends of the slices a closed-loop phase of `span` runs in: about
/// [`SLICE_S`] each. Every slice starts fresh threads and connections,
/// so one unlucky thread placement or burst of host noise does not
/// decide a run.
fn slice_ends(epoch: Instant, span: Duration) -> Vec<Instant> {
    let n = (span.as_secs_f64() / SLICE_S).round().max(1.0) as u32;
    (1..=n).map(|i| epoch + span * i / n).collect()
}

/// Runs `f` once per worker state on its own thread (one connection
/// each) and returns the results in order.
fn workers<I: Send, T: Send>(states: &mut [I], f: impl Fn(&mut I) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let hs: Vec<_> = states.iter_mut().map(|i| s.spawn(move || f(i))).collect();
        hs.into_iter().map(|h| h.join().expect("load worker panicked")).collect()
    })
}

fn absorb(sink: &mut Option<&mut Spans>, spans: Option<Spans>) {
    if let (Some(all), Some(sp)) = (sink.as_deref_mut(), spans) {
        all.absorb(sp);
    }
}

pub struct LadderOut {
    pub mid: Summary,
    pub slo_frac: f64,
    pub knee: f64,
}

/// A rate meets the limit when none of its decides failed, the median
/// of all its steps is within it, and the backlog did not grow: the
/// median over every step's last quarter is within it too.
fn meets_limit<'a>(steps: impl Iterator<Item = &'a RatePoint>) -> bool {
    let (mut all, mut tails, mut failed) = (Vec::new(), Vec::new(), 0);
    for p in steps {
        failed += p.failed;
        all.extend_from_slice(&p.lat_us);
        tails.extend_from_slice(&p.lat_us[p.lat_us.len() * 3 / 4..]);
    }
    failed == 0 && !all.is_empty() && median(&all) <= LIMIT_US && median(&tails) <= LIMIT_US
}

pub fn ladder_metrics(points: &[&RatePoint], rep: &Report) -> LadderOut {
    let mut rates: Vec<f64> = points.iter().map(|p| p.rate).collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    // Every pass's steps at one rate, pooled.
    let at = |rate: f64| points.iter().copied().filter(move |p| p.rate == rate);
    let pooled = |rate: f64| Summary::of(at(rate).flat_map(|p| p.lat_us.iter().copied()).collect());
    for &r in &rates {
        rep.latency(&format!("decide@{r}/s"), &pooled(r));
    }
    let (Some(&mid), Some(&top)) = (rates.get(rates.len() / 2), rates.last()) else {
        let nan = f64::NAN;
        let mid = Summary::of(vec![]);
        return LadderOut { mid, slo_frac: nan, knee: nan };
    };
    let (within, attempted) = at(top).fold((0, 0), |(w, a), p| (w + p.within, a + p.attempted));
    LadderOut {
        mid: pooled(mid),
        slo_frac: within as f64 / attempted.max(1) as f64,
        knee: rates.iter().copied().filter(|&r| meets_limit(at(r))).fold(0.0, f64::max),
    }
}

pub struct CallsOut {
    pub decide: Summary,
    pub call: Summary,
    pub per_s: f64,
}

/// `rates`: completed calls per second in each timed window.
pub fn calls_metrics(runs: &[&Calls], rates: &[f64], rep: &Report) -> CallsOut {
    let out = CallsOut {
        decide: Summary::of(runs.iter().flat_map(|c| c.decide_us.iter().copied()).collect()),
        call: Summary::of(runs.iter().flat_map(|c| c.call_us.iter().copied()).collect()),
        per_s: median(rates),
    };
    if !runs.is_empty() {
        rep.latency("call decide", &out.decide);
        rep.latency("call", &out.call);
    }
    out
}

pub struct IngestOut {
    pub ack: Summary,
    pub reports_per_s: f64,
}

/// `rates`: acked batches per second in each timed window.
pub fn ingest_metrics(runs: &[&Ingest], rates: &[f64], rep: &Report) -> IngestOut {
    let out = IngestOut {
        ack: Summary::of(runs.iter().flat_map(|r| r.ack_us.iter().copied()).collect()),
        reports_per_s: median(rates) * model::BATCH as f64,
    };
    if !runs.is_empty() {
        rep.latency("report ack", &out.ack);
    }
    out
}
