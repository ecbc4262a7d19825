//! Acceptance tests for §8 collision slots driven from the fault-injected
//! network: the MAC opportunistically groups healthy nodes into broadcast
//! collision slots, the zero-forcing decoder separates the concurrent
//! uplinks, and the whole thing stays deterministic — parallel and serial
//! runs byte-identical across reports, digests and every trace export
//! format — with a clean FDMA fallback when the channel matrix is
//! ill-conditioned.

use pab_core::faultnet::{FaultNetConfig, FaultNetSimulator};
use pab_net::mac::{
    AdaptiveConfig, ChannelPlan, CollisionPolicy, Concurrency, MacPolicy, RateLadder,
};
use pab_telemetry::export::{events_csv, summary_csv};
use pab_telemetry::{events_bin, Recorder};

/// A two-node network whose carrier spacing (5 kHz) clears twice the FM0
/// main lobe at the ladder's 1024 bps top rung (2 × 2 × 1024 Hz), so the
/// MAC's collision gate admits the pair. The stock ladder tops out at
/// 2731 bps, which would need ~10.9 kHz of spacing — more than the whole
/// 14–20 kHz band — so collision runs command a slower ladder.
fn wide_pair_cfg(concurrency: Concurrency) -> FaultNetConfig {
    let mut cfg = FaultNetConfig::default();
    cfg.plan = ChannelPlan::new(vec![14_000.0, 19_000.0]).unwrap();
    cfg.nodes[0].carrier_hz = 14_000.0;
    cfg.nodes[1].carrier_hz = 19_000.0;
    cfg.bitrate_target_bps = 1_024.0;
    cfg.policy = MacPolicy::Adaptive(AdaptiveConfig {
        ladder: RateLadder::new(vec![1_024.0, 512.0, 256.0]).unwrap(),
        ..Default::default()
    });
    cfg.per_node_packets = 4;
    cfg.max_slots = 60;
    cfg.concurrency = concurrency;
    cfg
}

#[test]
fn collision_slots_fire_and_beat_serialized_goodput() {
    let mut tel = Recorder::new(16_384);
    let collision = FaultNetSimulator::new(wide_pair_cfg(Concurrency::Collision(
        CollisionPolicy::default(),
    )))
    .unwrap()
    .run_with_recorder(Some(&mut tel))
    .unwrap();
    let serialized = FaultNetSimulator::new(wide_pair_cfg(Concurrency::Serialized))
        .unwrap()
        .run_with_recorder(None)
        .unwrap();

    assert!(collision.completed, "{collision:?}");
    assert!(serialized.completed, "{serialized:?}");
    assert_eq!(collision.delivered_total, 8);
    assert_eq!(serialized.delivered_total, 8);
    assert!(
        tel.counters().get("collision_slot") >= 1,
        "no collision slot ever ran: {:?}",
        tel.counters()
    );
    assert_eq!(
        tel.counters().get("collision_fallback"),
        0,
        "well-spaced clean pair must not trip the conditioning gate"
    );
    // Every collision delivery is accounted per stream.
    assert_eq!(tel.counters().get("detection"), collision.delivered_total);
    assert!(tel.counters().get("stream_verdict") >= 2);
    // Two packets per slot instead of one: fewer slots and more delivered
    // bits per simulated second, even paying for the training slots.
    assert!(
        collision.slots_used < serialized.slots_used,
        "collision {} vs serialized {} slots",
        collision.slots_used,
        serialized.slots_used
    );
    assert!(
        collision.goodput_bps > serialized.goodput_bps,
        "collision {} vs serialized {} bps",
        collision.goodput_bps,
        serialized.goodput_bps
    );
}

#[test]
fn ill_conditioned_group_falls_back_to_fdma_with_same_payload_bits() {
    // A conditioning gate the real matrix (condition ~4) cannot pass:
    // the group trains once, trips the gate, is blacklisted, and the
    // round degrades to serialized FDMA — delivering exactly the same
    // payload bits as a run that never attempted the collision.
    let mut tel = Recorder::new(16_384);
    let strict = Concurrency::Collision(CollisionPolicy {
        max_condition: 1.0001,
        ..Default::default()
    });
    let fallback = FaultNetSimulator::new(wide_pair_cfg(strict))
        .unwrap()
        .run_with_recorder(Some(&mut tel))
        .unwrap();
    let serialized = FaultNetSimulator::new(wide_pair_cfg(Concurrency::Serialized))
        .unwrap()
        .run_with_recorder(None)
        .unwrap();

    assert!(fallback.completed, "{fallback:?}");
    assert_eq!(tel.counters().get("collision_fallback"), 1);
    assert_eq!(
        tel.counters().get("collision_slot"),
        0,
        "gated group must never reach a collision slot"
    );
    assert_eq!(fallback.delivered_total, serialized.delivered_total);
    assert_eq!(fallback.dropped_total, 0);
    assert_eq!(
        fallback.bit_digest, serialized.bit_digest,
        "fallback must deliver the same payload bits as the FDMA baseline"
    );
}

fn identity_cfg(n: usize) -> FaultNetConfig {
    let mut cfg = FaultNetConfig::with_nodes(n).unwrap();
    cfg.policy = MacPolicy::Adaptive(AdaptiveConfig {
        ladder: RateLadder::new(vec![1_024.0, 512.0, 256.0]).unwrap(),
        ..Default::default()
    });
    cfg.bitrate_target_bps = 1_024.0;
    cfg.per_node_packets = 1;
    cfg.max_slots = 80;
    cfg.fs_hz = 96_000.0;
    cfg.concurrency = Concurrency::Collision(CollisionPolicy::default());
    cfg
}

/// Collision-enabled runs must stay on the byte-identity contract at
/// every scale: the N = 2 plan (14/20 kHz) admits real collision slots,
/// while the tighter N = 4 and N = 8 plans veto every group on carrier
/// spacing and exercise the serialized path — both through the same
/// parallel/serial comparison.
#[test]
fn collision_runs_are_byte_identical_parallel_vs_serial() {
    for n in [2usize, 4, 8] {
        let mut tel_par = Recorder::new(65_536);
        let mut cfg = identity_cfg(n);
        cfg.parallel_slots = true;
        let par = FaultNetSimulator::new(cfg)
            .unwrap()
            .run_with_recorder(Some(&mut tel_par))
            .unwrap();

        let mut tel_ser = Recorder::new(65_536);
        let mut cfg = identity_cfg(n);
        cfg.parallel_slots = false;
        let ser = FaultNetSimulator::new(cfg)
            .unwrap()
            .run_with_recorder(Some(&mut tel_ser))
            .unwrap();

        assert_eq!(par, ser, "N={n}: report diverged");
        assert_eq!(par.bit_digest, ser.bit_digest, "N={n}: digest diverged");
        assert!(par.completed, "N={n}: {par:?}");
        assert_eq!(
            events_csv(&[&tel_par]),
            events_csv(&[&tel_ser]),
            "N={n}: events CSV diverged"
        );
        assert_eq!(
            summary_csv(&[&tel_par]),
            summary_csv(&[&tel_ser]),
            "N={n}: summary CSV diverged"
        );
        assert_eq!(
            events_bin(&[&tel_par]),
            events_bin(&[&tel_ser]),
            "N={n}: binary trace diverged"
        );
    }
}
