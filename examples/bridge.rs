//! Edge bridge demo: a mission streaming its trace onto the topic
//! hierarchy while a TCP consumer prints what arrives, live.
//!
//! The default mode opens a real loopback TCP pair: a consumer thread
//! accepts the bridge's length-framed connection and prints each
//! frame's topic as it lands, then a per-topic rollup. `--faulty SEED`
//! swaps the socket for an in-memory transport wrapped in the
//! deterministic chaos profile (disconnects, stalls, torn frames,
//! duplicate deliveries) — the mode CI uses to check that two
//! same-seed runs behave identically even under fault injection.
//!
//! ```sh
//! cargo run --release --example bridge
//! # Chaos mode, machine-readable one-liner (CI diffs two runs):
//! cargo run --release --example bridge -- --faulty 17 --fingerprint
//! ```

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpListener;

use iobt::bridge::{
    memory_pair, read_framed, Bridge, BridgeConfig, FaultyTransport, TcpTransport,
    TransportFaultProfile,
};
use iobt::prelude::*;

const DURATION_S: f64 = 40.0;

/// Pulls the `"topic"` value out of a frame without a JSON parser —
/// frames put the topic first, so this is a fixed-prefix scan.
fn topic_of(frame: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(frame).ok()?;
    let rest = text.strip_prefix("{\"topic\":\"")?;
    Some(rest[..rest.find('"')?].to_owned())
}

fn run_mission_with_bridge(bridge: &Bridge, seed: u64) -> (MissionReport, u64) {
    let recorder = Recorder::with_sink(Box::new(bridge.sink()))
        .with_sampling(SamplingConfig::all(4));
    let config = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(DURATION_S))
        .recorder(recorder.clone())
        .build()
        .expect("valid run config");
    let scenario = urban_evacuation(120, seed);
    let mut runner = MissionRunner::new(&scenario, &config);
    bridge.attach_board(runner.task_board());
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        bridge.pump_n(8);
    }
    let report = runner.finish();
    let _ = bridge.drain(400);
    (report, recorder.metrics_digest().fingerprint())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let faulty_seed: Option<u64> = args
        .iter()
        .position(|a| a == "--faulty")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    let fingerprint_only = args.iter().any(|a| a == "--fingerprint");
    let seed = faulty_seed.unwrap_or(42);

    let bridge_config = BridgeConfig {
        mission: seed,
        seed,
        ring_capacity: 256,
        backoff_base: 1,
        backoff_cap: 16,
        max_attempts: 6,
        heartbeat_every: 8,
        batch_per_tick: 64,
        ..BridgeConfig::default()
    };

    if let Some(chaos_seed) = faulty_seed {
        // Chaos mode: in-memory transport + deterministic fault
        // injection; everything is a pure function of the seed.
        let (mem, peer) = memory_pair();
        let transport = FaultyTransport::new(mem, TransportFaultProfile::chaos(chaos_seed));
        let bridge = Bridge::new(bridge_config, Box::new(transport));
        let (report, mission_fp) = run_mission_with_bridge(&bridge, seed);
        let b = report_line(&bridge);
        let mut topics: BTreeMap<String, u64> = BTreeMap::new();
        for frame in peer.take_frames() {
            if let Some(t) = topic_of(&frame) {
                *topics.entry(t).or_insert(0) += 1;
            }
        }
        if fingerprint_only {
            // FNV-1a over the digest's canonical encoding: one stable
            // word CI can diff across runs.
            let mut enc = iobt::core::ckpt::Enc::new();
            iobt::core::encode_end_state_digest(&mut enc, &report.digest);
            let digest_fp = iobt::obs::fnv1a(&enc.into_bytes());
            println!("fingerprint seed={chaos_seed} mission={mission_fp} digest={digest_fp} {b}");
            return;
        }
        println!("chaos mode (seed {chaos_seed}): {b}");
        println!("mission fingerprint: {mission_fp}");
        println!("topics observed by the consumer ({}):", topics.len());
        for (t, n) in &topics {
            println!("  {t:<44} {n}");
        }
        return;
    }

    // Live mode: a loopback TCP consumer prints topics as they arrive.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let consumer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept bridge connection");
        let mut topics: BTreeMap<String, u64> = BTreeMap::new();
        let mut frames = 0u64;
        while let Ok(Some(frame)) = read_framed(&mut stream) {
            frames += 1;
            if let Some(t) = topic_of(&frame) {
                if frames <= 12 {
                    println!("  <- {t}");
                } else if frames == 13 {
                    println!("  <- … (printing rollup at the end)");
                }
                *topics.entry(t).or_insert(0) += 1;
            }
        }
        (frames, topics)
    });

    println!("bridge -> tcp://{addr}");
    let bridge = Bridge::new(bridge_config, Box::new(TcpTransport::new(addr.to_string())));
    let (report, mission_fp) = run_mission_with_bridge(&bridge, seed);
    println!("{}", report_line(&bridge));
    drop(bridge); // closes the TCP stream so the consumer sees EOF

    let (frames, topics) = consumer.join().expect("consumer thread");
    println!(
        "\nmission: {} windows, mean utility {:.2}, fingerprint {mission_fp}",
        report.windows.len(),
        report.mean_utility()
    );
    println!("consumer received {frames} frames across {} topics:", topics.len());
    let mut out = std::io::stdout().lock();
    for (t, n) in &topics {
        let _ = writeln!(out, "  {t:<44} {n}");
    }
}

fn report_line(bridge: &Bridge) -> String {
    let r = bridge.report();
    format!(
        "bridge: state={} emitted={} delivered={} dropped={} buffered={} \
         heartbeats={} connects={} retries={} accounted={}",
        r.state,
        r.emitted,
        r.delivered,
        r.dropped,
        r.buffered,
        r.heartbeats,
        r.connects,
        r.retries,
        r.accounted()
    )
}
