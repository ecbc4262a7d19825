//! Collision-decoding extension: sweep fault intensity × concurrency mode
//! and measure what §8's in-band concurrency buys a fault-ridden network.
//!
//! The paper's collision decoder separates two simultaneous backscatter
//! uplinks by zero-forcing the per-band channel matrix. This experiment
//! drives that decoder from the fault-injected network's slot loop: the
//! MAC opportunistically pairs healthy nodes into broadcast collision
//! slots when their carrier spacing clears the FM0 main-lobe gate, trains
//! per-band channel estimates, and falls back to FDMA whenever the matrix
//! is ill-conditioned or a participant sits inside a fault window. Two
//! arms face the same seeded fault schedules:
//!
//! * `fdma`      — one uplink per slot, serialized round-robin (the honest
//!   baseline: the medium is time-shared);
//! * `collision` — broadcast collision slots where viable, with training
//!   overhead and conditioning-gated fallback.
//!
//! The carrier plan (14/19 kHz) and the slowed rate ladder (1024 bps top
//! rung) are chosen so the pair passes the spacing gate: a collision pair
//! needs ≥ 2× the FM0 main lobe (4× bitrate) between carriers, which the
//! stock 2731 bps ladder cannot fit inside the 14–20 kHz band.
//!
//! Each (intensity, mode) point runs a full inventory round via
//! `pab_core::faultnet` with a seed derived per point, so the whole sweep
//! is bit-reproducible. CSV: `results/ext_collision_faultnet.csv`.

use pab_channel::{BroadbandBurst, DriftRamp, FaultSchedule, PathFade};
use pab_core::faultnet::{FaultNetConfig, FaultNetReport, FaultNetSimulator};
use pab_sweep::{derive_seed, grid2, run_recorded};
use pab_experiments::{banner, write_bytes, write_csv, write_text};
use pab_net::mac::{
    AdaptiveConfig, ChannelPlan, CollisionPolicy, Concurrency, MacPolicy, RateLadder,
};
use pab_telemetry::events_bin;
use pab_telemetry::export::{events_csv, summary_csv};
use pab_telemetry::Recorder;

/// Fault schedules for the two nodes at a given intensity step. Faults
/// are windowed (no permanent dropout) so both arms finish their
/// inventory and the goodput comparison stays apples-to-apples; what
/// changes with intensity is how much of the round the collision gate
/// must sit out.
///
/// * 0 — healthy tank (control; collision slots should dominate);
/// * 1 — a broadband burst corrupts the opening seconds (the gate vetoes
///   pairing during the burst, FDMA carries those slots);
/// * 2 — burst + a deep fade on node 1 mid-round;
/// * 3 — all of the above plus carrier drift on node 1.
fn schedules(intensity: u32, seed: u64) -> (FaultSchedule, FaultSchedule) {
    let mut node1 = FaultSchedule::new(seed);
    let mut node2 = FaultSchedule::new(seed ^ 0x5bd1_e995);
    if intensity >= 1 {
        let burst = BroadbandBurst {
            start_s: 0.0,
            duration_s: 1.0,
            rms_pa: 500.0 * intensity as f64,
        };
        node1 = node1.with_burst(burst).expect("valid burst");
        node2 = node2.with_burst(burst).expect("valid burst");
    }
    if intensity >= 2 {
        node1 = node1
            .with_fade(PathFade {
                start_s: 1.5,
                duration_s: 2.0,
                floor_ratio: 0.05,
            })
            .expect("valid fade");
    }
    if intensity >= 3 {
        node1 = node1
            .with_drift(DriftRamp {
                rate_hz_per_s: 2.0,
                max_abs_hz: 20.0,
            })
            .expect("valid drift");
    }
    (node1, node2)
}

fn concurrency_for(name: &str) -> Concurrency {
    match name {
        "fdma" => Concurrency::Serialized,
        "collision" => Concurrency::Collision(CollisionPolicy::default()),
        other => unreachable!("unknown mode {other}"),
    }
}

/// One sweep point: a two-node wide-pair network (14/19 kHz carriers,
/// 1024 bps ladder top) under the intensity's fault schedules, run as a
/// full inventory round in the given concurrency mode.
fn run_point(
    idx: usize,
    intensity: u32,
    mode: &'static str,
    per_node: u64,
    max_slots: u64,
    tel: &mut Recorder,
) -> (u32, &'static str, FaultNetReport) {
    let seed = derive_seed(11, idx as u64);
    let (f1, f2) = schedules(intensity, seed);
    let mut cfg = FaultNetConfig {
        policy: MacPolicy::Adaptive(AdaptiveConfig {
            ladder: RateLadder::new(vec![1_024.0, 512.0, 256.0]).expect("valid ladder"),
            ..AdaptiveConfig::default()
        }),
        bitrate_target_bps: 1_024.0,
        per_node_packets: per_node,
        max_slots,
        seed,
        concurrency: concurrency_for(mode),
        ..Default::default()
    };
    cfg.plan = ChannelPlan::new(vec![14_000.0, 19_000.0]).expect("valid plan");
    cfg.nodes[0].carrier_hz = 14_000.0;
    cfg.nodes[1].carrier_hz = 19_000.0;
    cfg.nodes[0].faults = f1;
    cfg.nodes[1].faults = f2;
    let report = FaultNetSimulator::new(cfg)
        .expect("config is valid by construction")
        .run_with_recorder(Some(tel))
        .expect("simulation error");
    (intensity, mode, report)
}

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let trace = std::env::args().any(|a| a == "--trace");
    banner(
        "extension — §8 collision decoding × fault injection",
        "what in-band concurrency buys a fault-ridden network: broadcast \
         collision slots (zero-forcing, training, conditioning fallback) \
         vs serialized FDMA",
    );
    if quick {
        println!("(--quick: reduced per-node packet target and slot cap)\n");
    }
    if trace {
        println!("(--trace: exporting per-slot traces to results/collision_trace.*)\n");
    }

    let intensities: Vec<u32> = vec![0, 1, 2, 3];
    let modes: Vec<&'static str> = vec!["fdma", "collision"];
    let points = grid2(&intensities, &modes);
    let per_node = if quick { 3 } else { 6 };
    let max_slots = if quick { 40 } else { 80 };

    // Always record: the per-point counters (collision slots run,
    // fallbacks, per-stream verdicts) are part of the headline table, and
    // the recorder is an observer — reports are bit-identical either way.
    let (results, recorders) = run_recorded(
        points.clone(),
        pab_telemetry::DEFAULT_CAPACITY,
        |idx, (intensity, mode), rec| run_point(idx, intensity, mode, per_node, max_slots, rec),
    );

    let mut rows = Vec::new();
    println!(
        "{:>9}  {:<10} {:>5} {:>8} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "intensity", "mode", "pdr", "goodput", "slots", "done", "coll", "fallback", "verdicts"
    );
    for ((intensity, mode, r), rec) in results.iter().zip(&recorders) {
        let count = |name: &str| rec.counters().get(name);
        let (coll, fall, verdicts) = (
            count("collision_slot"),
            count("collision_fallback"),
            count("stream_verdict"),
        );
        println!(
            "{:>9}  {:<10} {:>5.2} {:>7.2}b {:>6} {:>6} {:>9} {:>9} {:>9}",
            intensity, mode, r.pdr, r.goodput_bps, r.slots_used, r.completed, coll, fall, verdicts
        );
        rows.push(format!(
            "{},{},{:.4},{:.3},{},{},{},{},{},{},{},{:.3}",
            intensity,
            mode,
            r.pdr,
            r.goodput_bps,
            r.slots_used,
            r.completed,
            coll,
            fall,
            verdicts,
            r.delivered_total,
            r.dropped_total,
            r.elapsed_s
        ));
    }

    // The headline comparison: on the clean channel the collision arm must
    // beat serialized FDMA on goodput — two packets per decoded slot beat
    // one per slot even after paying for the training slots.
    for intensity in &intensities {
        let gp = |name: &str| {
            results
                .iter()
                .find(|(i, m, _)| i == intensity && *m == name)
                .map(|(_, _, r)| r.goodput_bps)
                .unwrap_or(0.0)
        };
        let (fdma, collision) = (gp("fdma"), gp("collision"));
        println!(
            "\nintensity {intensity}: collision {collision:.2} bps vs fdma {fdma:.2} bps ({})",
            if collision > fdma {
                "collision wins"
            } else if *intensity == 0 {
                "COLLISION DID NOT WIN ON THE CLEAN CHANNEL"
            } else {
                "fdma holds under faults"
            }
        );
    }

    let path = write_csv(
        "ext_collision_faultnet.csv",
        "intensity,mode,pdr,goodput_bps,slots_used,completed,collision_slots,fallbacks,\
         stream_verdicts,delivered,dropped,elapsed_s",
        &rows,
    )?;
    println!("\ncsv: {}", path.display());

    if trace {
        let refs: Vec<&Recorder> = recorders.iter().collect();
        let trace_path = write_text("collision_trace.csv", &events_csv(&refs))?;
        let summary_path = write_text("collision_trace_summary.csv", &summary_csv(&refs))?;
        let bin_path = write_bytes("collision_trace.bin", &events_bin(&refs))?;
        println!("\ntrace: {}", trace_path.display());
        println!("trace: {}", summary_path.display());
        println!("trace: {} (binary, see pab_telemetry::binfmt)", bin_path.display());
    }
    Ok(())
}
