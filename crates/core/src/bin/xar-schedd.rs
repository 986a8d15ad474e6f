//! `xar-schedd` — the production Xar-Trek scheduler daemon.
//!
//! Serves wire protocol v2 (with v1 text fallback) over a sharded
//! [`XarTrekPolicy`], optionally durable: with `--durability DIR` every
//! acked report is journaled to a WAL under `DIR`, periodic + shutdown
//! snapshots checkpoint the threshold table and session marks, and a
//! restart on the same `DIR` recovers exactly the acked state.
//!
//! `SIGTERM`/`SIGINT` trigger a graceful drain: stop accepting, write
//! the final snapshot, exit 0.
//!
//! ```text
//! xar-schedd [--listen ADDR] [--workers N] [--shards N]
//!            [--table FILE] [--daemon-id N]
//!            [--durability DIR] [--fsync always|off|interval:MS]
//!            [--segment-bytes N] [--snapshot-every N]
//! ```

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;
use xar_core::server::spawn_sharded_at;
use xar_core::{ThresholdTable, XarTrekPolicy};
use xar_sched::signals;
use xar_sched::{DurabilityConfig, EngineConfig, FsyncPolicy, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: xar-schedd [--listen ADDR] [--workers N] [--shards N] \
         [--table FILE] [--daemon-id N] [--durability DIR] \
         [--fsync always|off|interval:MS] [--segment-bytes N] [--snapshot-every N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        eprintln!("xar-schedd: {flag} needs a value");
        usage();
    };
    match v.parse() {
        Ok(t) => t,
        Err(_) => {
            eprintln!("xar-schedd: bad value {v:?} for {flag}");
            usage();
        }
    }
}

fn parse_fsync(flag: &str, value: Option<String>) -> FsyncPolicy {
    let Some(v) = value else {
        eprintln!("xar-schedd: {flag} needs a value");
        usage();
    };
    match v.as_str() {
        "always" => FsyncPolicy::Always,
        "off" => FsyncPolicy::Off,
        other => match other.strip_prefix("interval:").and_then(|ms| ms.parse().ok()) {
            Some(ms) => FsyncPolicy::IntervalMs(ms),
            None => {
                eprintln!("xar-schedd: bad value {v:?} for {flag} (always|off|interval:MS)");
                usage();
            }
        },
    }
}

fn main() {
    let mut listen: SocketAddr = "127.0.0.1:7654".parse().unwrap();
    let mut engine_config = EngineConfig::default();
    let mut server_config = ServerConfig::default();
    let mut table_path: Option<String> = None;
    let mut dur: Option<DurabilityConfig> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut segment_bytes: Option<u64> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = parse(&arg, args.next()),
            "--workers" => server_config.workers = parse(&arg, args.next()),
            "--shards" => engine_config.shards = parse(&arg, args.next()),
            "--table" => table_path = Some(parse(&arg, args.next())),
            "--daemon-id" => server_config.daemon_id = parse(&arg, args.next()),
            "--durability" => dur = Some(DurabilityConfig::at(parse::<String>(&arg, args.next()))),
            "--fsync" => fsync = Some(parse_fsync(&arg, args.next())),
            "--segment-bytes" => segment_bytes = Some(parse(&arg, args.next())),
            "--snapshot-every" => snapshot_every = Some(parse(&arg, args.next())),
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("xar-schedd: unknown argument {arg}");
                usage();
            }
        }
    }
    if let Some(d) = &mut dur {
        if let Some(f) = fsync {
            d.fsync = f;
        }
        if let Some(b) = segment_bytes {
            d.segment_bytes = b;
        }
        if let Some(n) = snapshot_every {
            d.snapshot_every = n;
        }
    } else if fsync.is_some() || segment_bytes.is_some() || snapshot_every.is_some() {
        eprintln!("xar-schedd: --fsync/--segment-bytes/--snapshot-every need --durability DIR");
        usage();
    }
    server_config.durability = dur;

    // The served threshold table: estimator output via --table, or
    // empty (a durable restart recovers the real rows from disk and
    // ignores these seeds where they overlap).
    let table = match &table_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("xar-schedd: cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            match ThresholdTable::from_text(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("xar-schedd: bad table {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => ThresholdTable::new(),
    };
    let policy = XarTrekPolicy::new(table, HashMap::new());

    // Latch before serving: a signal during startup still drains.
    signals::install_shutdown_latch();
    let durable = server_config.durability.is_some();
    let server = match spawn_sharded_at(&policy, engine_config, server_config, listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xar-schedd: failed to start on {listen}: {e}");
            std::process::exit(1);
        }
    };
    let rec = server.recovery();
    if durable {
        println!(
            "xar-schedd serving on {} (durable; recovered snapshot@{} +{} WAL records, {} torn-tail repairs)",
            server.addr(),
            rec.snapshot_watermark,
            rec.replayed_records,
            rec.torn_truncations,
        );
    } else {
        println!("xar-schedd serving on {} (in-memory)", server.addr());
    }

    // The worker/acceptor threads do all the work; this thread is the
    // signal loop. 50ms keeps drain latency well under any
    // orchestrator's kill grace period at zero measurable cost.
    while !signals::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("xar-schedd: shutdown signal — draining (final snapshot)");
    server.shutdown();
    println!("xar-schedd: drained, exiting");
}
