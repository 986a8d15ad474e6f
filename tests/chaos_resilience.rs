//! End-to-end resilience under deterministic chaos.
//!
//! A 32-client fleet reports through an `xar-chaos` fault-injection
//! proxy — connections cut mid-handshake and mid-frame, replies lost
//! or black-holed, streams split and slow-dripped — and must converge
//! to a threshold table **bit-identical** to the fault-free sequential
//! reference, with every report ingested exactly once. Every failure
//! message carries the plan's `xchaos1:` token, so a red run is
//! replayed with `XCHAOS_SEED=<token> cargo test ...`.
//!
//! Two daemon-side degradation paths ride along: overload shedding
//! (`R_BUSY` for workload ops while the control plane stays served)
//! and quarantine of repeat protocol offenders.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;
use xar_chaos::{ChaosProxy, FaultPlan};
use xar_trek::core::server::{
    spawn_sharded, EngineConfig, ResilientClient, ResilientConfig, ServerConfig, V2Client,
};
use xar_trek::core::XarTrekPolicy;
use xar_trek::desim::{ClusterConfig, CompletionReport, Policy, Target};
use xar_trek::sched::{obs, wire, ReportOwned};

const CLIENTS: usize = 32;
const REPORTS: usize = 8;
const APPS: [&str; 5] = ["Digit2000", "Digit500", "FaceDet320", "FaceDet640", "CG-A"];

fn policy() -> XarTrekPolicy {
    let specs: Vec<_> = xar_trek::workloads::all_profiles().iter().map(|p| p.job()).collect();
    XarTrekPolicy::from_specs(&specs, &ClusterConfig::default())
}

/// The plans to run: `XCHAOS_SEED` (a failure's replay token, or a
/// bare seed) pins a single plan; otherwise two fixed seeds keep the
/// gate deterministic while the nightly job sweeps fresh ones.
fn plans() -> Vec<FaultPlan> {
    match std::env::var("XCHAOS_SEED") {
        Ok(tok) => {
            vec![FaultPlan::parse(&tok)
                .unwrap_or_else(|| panic!("XCHAOS_SEED {tok:?} is not a seed or xchaos1: token"))]
        }
        Err(_) => vec![FaultPlan::from_seed(0x00A1_57C3), FaultPlan::from_seed(0x00DD_BA11)],
    }
}

/// The tentpole invariant: a chaos-battered fleet converges to the
/// fault-free table, ingests nothing twice, and the daemon's replay
/// counter balances the fleet's dedup counters exactly.
#[test]
fn fleet_converges_bit_identically_under_chaos() {
    for plan in plans() {
        fleet_run(plan);
    }
}

fn fleet_run(plan: FaultPlan) {
    let tok = plan.token();
    let daemon = spawn_sharded(
        &policy(),
        EngineConfig { shards: 8 },
        ServerConfig { workers: 4, ..ServerConfig::default() },
    )
    .unwrap();
    let proxy = ChaosProxy::spawn(daemon.addr(), plan).unwrap();
    let addr = proxy.addr();
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (barrier, tok) = (Arc::clone(&barrier), tok.clone());
            std::thread::spawn(move || {
                barrier.wait();
                let mut cl = ResilientClient::new(
                    addr,
                    ResilientConfig {
                        // Unique nonzero session (and jitter stream)
                        // per logical reporter.
                        session: c as u64 + 1,
                        connect_timeout: Duration::from_secs(2),
                        // Short enough that black-holed replies cost
                        // tenths of a second, long enough to survive a
                        // slow-dripped frame.
                        io_timeout: Duration::from_millis(500),
                        backoff_base: Duration::from_millis(2),
                        backoff_cap: Duration::from_millis(50),
                        backoff_seed: c as u64 + 1,
                        max_retries: 400,
                    },
                );
                let app = APPS[c % APPS.len()];
                let mut accepted = 0u32;
                for i in 0..REPORTS {
                    let r = ReportOwned {
                        app: app.into(),
                        // Slow FPGA runs: Algorithm 1 bumps fpga_thr
                        // by +1 each — commutative, so any interleaving
                        // converges identically.
                        target: Target::Fpga,
                        func_ms: 1e9,
                        x86_load: 2,
                    };
                    accepted += cl
                        .report_batch(std::slice::from_ref(&r))
                        .unwrap_or_else(|e| panic!("[replay {tok}] client {c} report {i}: {e}"));
                }
                (c, accepted, cl.deduped_batches(), cl.reconnects())
            })
        })
        .collect();

    let (mut fleet_deduped, mut fleet_reconnects) = (0u64, 0u64);
    for h in handles {
        let (c, accepted, deduped, reconnects) = h.join().unwrap();
        assert_eq!(
            accepted, REPORTS as u32,
            "[replay {tok}] client {c}: reports lost despite retries"
        );
        fleet_deduped += deduped;
        fleet_reconnects += reconnects;
    }

    // The plan injects faults on roughly half of all connections, so a
    // 32-client fleet that never reconnected means the proxy was not
    // actually in the path.
    assert!(fleet_reconnects > 0, "[replay {tok}] no chaos engaged across {CLIENTS} clients");

    // The fault-free reference: the same reports applied sequentially.
    let mut reference = policy();
    for c in 0..CLIENTS {
        for _ in 0..REPORTS {
            reference.on_complete(&CompletionReport {
                app: APPS[c % APPS.len()],
                target: Target::Fpga,
                func_ms: 1e9,
                x86_load: 2,
            });
        }
    }
    let want: Vec<_> =
        reference.table.iter().map(|e| (e.app.clone(), e.fpga_thr, e.arm_thr)).collect();
    let got: Vec<_> =
        daemon.engine().table().into_iter().map(|e| (e.app, e.fpga_thr, e.arm_thr)).collect();
    assert_eq!(got, want, "[replay {tok}] chaos table diverged from the fault-free reference");

    // Exactly-once, both ways: nothing lost (checked per client above)
    // and nothing double-ingested.
    let m = daemon.engine().metrics_total();
    assert_eq!(
        m.reports,
        (CLIENTS * REPORTS) as u64,
        "[replay {tok}] replayed batches were re-ingested"
    );

    // Conservation law over the whole fleet, read over an unproxied
    // connection: every server-side replay is one client-side dedup.
    let mut direct = V2Client::connect(daemon.addr()).unwrap();
    let stats = direct.stats_v2().unwrap();
    assert_eq!(
        stats.get(obs::tags::REPLAYED_BATCHES),
        Some(fleet_deduped),
        "[replay {tok}] server replays != fleet dedups (reconnects={fleet_reconnects})"
    );
    assert_eq!(
        stats.get(obs::tags::SESSIONS_OPENED),
        Some(CLIENTS as u64),
        "[replay {tok}] every client opens exactly one session"
    );
    drop(proxy);
    daemon.shutdown();
}

/// Reads v2 frames until `want` responses have arrived (handshake echo
/// consumed first).
fn read_responses(s: &mut std::net::TcpStream, want: usize) -> Vec<String> {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    let mut scratch = [0u8; 4096];
    let mut hs_done = false;
    let mut out = Vec::new();
    while out.len() < want {
        let n = s.read(&mut scratch).unwrap();
        assert!(n > 0, "server closed after {} of {want} replies", out.len());
        buf.extend_from_slice(&scratch[..n]);
        if !hs_done {
            if buf.len() < wire::HANDSHAKE_LEN {
                continue;
            }
            buf.drain(..wire::HANDSHAKE_LEN);
            hs_done = true;
        }
        while let Some((total, range)) = wire::frame_in(&buf).unwrap() {
            out.push(match wire::decode_response(&buf[range]).unwrap() {
                wire::Response::Table(e) => format!("TABLE {}", e.len()),
                wire::Response::Decide { .. } => "DECIDE".into(),
                wire::Response::Busy { retry_after_ms } => format!("BUSY {retry_after_ms}"),
                wire::Response::Pong(n) => format!("PONG {n}"),
                other => format!("{other:?}"),
            });
            buf.drain(..total);
        }
    }
    out
}

/// Overload shedding: workload requests processed behind an outbuf
/// backlog get `R_BUSY` with the configured retry hint, the control
/// plane is never shed, and the daemon serves workload again the
/// moment the backlog drains.
#[test]
fn shedding_turns_workload_away_but_never_the_control_plane() {
    const TABLES: usize = 64;
    const DECIDES: usize = 64;
    let daemon = spawn_sharded(
        &policy(),
        EngineConfig::default(),
        ServerConfig {
            // Any decide processed with >64 reply bytes still pending
            // is shed; one table reply (5 rows) is several times that.
            shed_outbuf_bytes: 64,
            shed_retry_after_ms: 7,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut s = std::net::TcpStream::connect(daemon.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    // One write, so the whole burst lands in one processing drain:
    // table replies pile up in the outbuf (no flush between frames of
    // a drain), and the decides behind them must see the backlog.
    let mut reqs = wire::handshake(wire::VERSION).to_vec();
    for _ in 0..TABLES {
        wire::encode_request(&wire::Request::Table, &mut reqs);
    }
    for _ in 0..DECIDES {
        wire::encode_request(
            &wire::Request::Decide {
                app: "Digit2000",
                kernel: "k",
                x86_load: 2,
                arm_load: 0,
                kernel_resident: true,
                device_ready: true,
            },
            &mut reqs,
        );
    }
    // Control plane rides at the very back of the same burst: it must
    // be answered, not shed, whatever the backlog.
    wire::encode_request(&wire::Request::Ping(42), &mut reqs);
    s.write_all(&reqs).unwrap();
    let replies = read_responses(&mut s, TABLES + DECIDES + 1);
    let tables = replies.iter().filter(|r| r.starts_with("TABLE")).count();
    let decided = replies.iter().filter(|r| *r == "DECIDE").count();
    let busy = replies.iter().filter(|r| r.starts_with("BUSY")).count();
    assert_eq!(tables, TABLES, "control-plane reads must never be shed: {replies:?}");
    assert_eq!(replies.last().unwrap(), "PONG 42", "ping behind the backlog was shed");
    assert_eq!(decided + busy, DECIDES);
    assert!(busy > 0, "no decide saw the {TABLES}-table backlog");
    assert!(replies.iter().any(|r| r == "BUSY 7"), "retry hint not forwarded: {replies:?}");
    // Backlog drained (we read everything): workload is served again.
    let mut cl = V2Client::connect(daemon.addr()).unwrap();
    cl.decide("Digit2000", "k", 2, true).expect("shed state leaked past the backlog");
    let stats = cl.stats_v2().unwrap();
    assert_eq!(stats.get(obs::tags::SHED_BUSY), Some(busy as u64));
    daemon.shutdown();
}

/// Quarantine: a peer that keeps sending malformed frames is cut off
/// at the configured threshold and its address refused at accept,
/// while established connections keep working.
#[test]
fn repeat_protocol_offenders_are_quarantined() {
    let daemon = spawn_sharded(
        &policy(),
        EngineConfig::default(),
        ServerConfig { quarantine_errors: 2, quarantine_secs: 60, ..ServerConfig::default() },
    )
    .unwrap();
    // Admitted before the offense: the quarantine gate is at accept,
    // so this connection must keep being served throughout.
    let mut innocent = V2Client::connect(daemon.addr()).unwrap();

    let mut offender = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut bad = wire::handshake(wire::VERSION).to_vec();
    for _ in 0..2 {
        // An unknown opcode in a well-formed frame: a protocol error
        // each time it is decoded.
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(0x7F);
    }
    offender.write_all(&bad).unwrap();
    offender.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The offender is cut off: its reply stream (handshake echo, then
    // R_ERR frames) ends in EOF or a reset once the threshold trips.
    let mut scratch = [0u8; 4096];
    loop {
        match offender.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // A banned address is refused at accept: the TCP connect succeeds
    // against the backlog, but the daemon closes it unserved.
    let mut again = std::net::TcpStream::connect(daemon.addr()).unwrap();
    again.write_all(&wire::handshake(wire::VERSION)).unwrap();
    again.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match again.read(&mut scratch) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("quarantined peer was served {n} bytes"),
    }

    assert_eq!(innocent.ping(3).unwrap(), 3, "established connection killed by the quarantine");
    let stats = innocent.stats_v2().unwrap();
    assert_eq!(stats.get(obs::tags::QUARANTINES), Some(1));
    assert!(stats.get(obs::tags::PROTOCOL_ERRORS).unwrap() >= 2);
    assert!(stats.get(obs::tags::REJECTED_CONNS).unwrap() >= 1, "the re-connect was not counted");
    daemon.shutdown();
}
