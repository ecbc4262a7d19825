//! Integration tests driving the retransmission machinery from `pab-core`
//! through lossy, fault-injected acoustics: the full query → backscatter →
//! decode → record loop, where the loss pattern comes from scheduled
//! impairments rather than from stubbing the MAC's inputs.

use pab_channel::{BroadbandBurst, DropoutWindow, FaultSchedule};
use pab_core::faultnet::{FaultNetConfig, FaultNetSimulator};
use pab_core::{LinkConfig, LinkSimulator};
use pab_net::mac::{ChannelPlan, InventoryRound, MacPolicy, NodeEntry};
use pab_net::packet::Command;

/// A loud broadband burst covering the start of the run: exchanges inside
/// it fail, exchanges after it succeed — a deterministic lossy link.
fn bursty_schedule(seed: u64, until_s: f64) -> FaultSchedule {
    FaultSchedule::new(seed)
        .with_burst(BroadbandBurst {
            start_s: 0.0,
            duration_s: until_s,
            rms_pa: 2_000.0,
        })
        .unwrap()
}

#[test]
fn inventory_round_retransmits_through_a_lossy_link() {
    // The plain InventoryRound + RetransmissionTracker, fed by real
    // decodes: during the burst the CRC fails and the tracker retries /
    // drops; once the burst passes, deliveries complete the round.
    let faults = bursty_schedule(7, 1.0);
    let cfg = LinkConfig {
        fs_hz: 96_000.0,
        ..Default::default()
    };
    let mut sim = LinkSimulator::new(cfg).unwrap();
    let mut round = InventoryRound::new(ChannelPlan::new(vec![15_000.0]).unwrap(), 2, 1);
    round.register(NodeEntry { addr: 7, channel: 0 }).unwrap();

    let mut t_now_s = 0.0;
    let mut failures = 0u64;
    while !round.is_complete() {
        assert!(round.slots_used() < 40, "round did not converge");
        for q in round.next_slot(Command::Ping) {
            let report = sim
                .run_query_to_faulted(q.query.dest, Command::Ping, &faults, t_now_s)
                .unwrap();
            t_now_s += report.received.len() as f64 / 96_000.0;
            if !report.crc_ok {
                failures += 1;
            }
            round.record(q.query.dest, report.crc_ok);
        }
    }
    let (delivered, dropped) = round.stats(7);
    assert_eq!(delivered, 2, "round must deliver the target");
    assert!(failures > 0, "the burst must have corrupted something");
    // Every failed attempt is accounted for: retries + drops = failures.
    assert!(dropped <= failures);
}

fn dead_node_cfg(policy: MacPolicy, seed: u64) -> FaultNetConfig {
    let dead = FaultSchedule::new(seed)
        .with_dropout(DropoutWindow {
            start_s: 0.0,
            duration_s: f64::INFINITY,
        })
        .unwrap();
    let mut cfg = FaultNetConfig {
        policy,
        per_node_packets: 2,
        max_slots: 60,
        fs_hz: 96_000.0,
        seed,
        ..Default::default()
    };
    cfg.nodes[1].faults = dead; // node 2 browned out forever
    cfg
}

#[test]
fn dropout_is_evicted_and_healthy_node_is_undisturbed() {
    let cfg = dead_node_cfg(MacPolicy::Adaptive(Default::default()), 11);
    let mut net = FaultNetSimulator::new(cfg).unwrap();
    let report = net.run_with_recorder(None).unwrap();
    assert!(report.completed, "adaptive policy must not livelock: {report:?}");
    let n1 = report.per_node.iter().find(|n| n.addr == 1).unwrap();
    let n2 = report.per_node.iter().find(|n| n.addr == 2).unwrap();
    assert_eq!(n1.delivered, 2, "healthy node undisturbed");
    assert_eq!(n1.dropped, 0);
    assert!(!n1.evicted);
    assert!(n2.evicted, "dead node must be evicted");
    assert_eq!(n2.delivered, 0);
}

#[test]
fn adaptive_beats_fixed_retry_on_goodput_with_a_dead_node() {
    let adaptive = FaultNetSimulator::new(dead_node_cfg(
        MacPolicy::Adaptive(Default::default()),
        11,
    ))
    .unwrap()
    .run_with_recorder(None)
    .unwrap();
    let fixed = FaultNetSimulator::new(dead_node_cfg(
        MacPolicy::FixedRetry { max_retries: 2 },
        11,
    ))
    .unwrap()
    .run_with_recorder(None)
    .unwrap();
    assert!(adaptive.completed);
    assert!(
        !fixed.completed,
        "fixed-retry has no eviction, so the dead node pins it to max_slots"
    );
    assert!(
        adaptive.goodput_bps > fixed.goodput_bps,
        "adaptive {} bps must beat fixed-retry {} bps",
        adaptive.goodput_bps,
        fixed.goodput_bps
    );
}

#[test]
fn same_seed_fault_runs_are_bit_identical() {
    let make = || {
        let mut cfg = FaultNetConfig {
            per_node_packets: 1,
            max_slots: 40,
            fs_hz: 96_000.0,
            seed: 42,
            ..Default::default()
        };
        cfg.nodes[0].faults = bursty_schedule(42, 0.5);
        cfg.nodes[1].faults = FaultSchedule::new(43)
            .with_dropout(DropoutWindow {
                start_s: 0.0,
                duration_s: 0.4,
            })
            .unwrap();
        FaultNetSimulator::new(cfg).unwrap().run_with_recorder(None).unwrap()
    };
    let a = make();
    let b = make();
    assert_eq!(a, b, "fault-injected runs must replay bit-identically");
    assert_eq!(a.bit_digest, b.bit_digest);
}

#[test]
fn same_seed_traces_export_byte_identically() {
    // The telemetry acceptance contract: two same-seed traced runs must
    // produce byte-for-byte identical CSV and summary exports — the trace
    // is a pure function of the seed, never of wall clock or scheduling.
    let run_traced = || {
        let mut cfg = FaultNetConfig {
            per_node_packets: 1,
            max_slots: 40,
            fs_hz: 96_000.0,
            seed: 42,
            ..Default::default()
        };
        cfg.nodes[0].faults = bursty_schedule(42, 0.5);
        cfg.nodes[1].faults = FaultSchedule::new(43)
            .with_dropout(DropoutWindow {
                start_s: 0.0,
                duration_s: 0.4,
            })
            .unwrap();
        let mut tel = pab_telemetry::Recorder::new(4096).with_run_id(7);
        let report = FaultNetSimulator::new(cfg)
            .unwrap()
            .run_with_recorder(Some(&mut tel))
            .unwrap();
        (report, tel)
    };
    let (ra, ta) = run_traced();
    let (rb, tb) = run_traced();
    assert_eq!(ra.bit_digest, rb.bit_digest, "traced replay must stay bit-identical");

    let csv_a = pab_telemetry::export::events_csv(&[&ta]);
    let csv_b = pab_telemetry::export::events_csv(&[&tb]);
    assert!(!csv_a.trim().is_empty());
    assert_eq!(csv_a, csv_b, "same-seed trace CSV must be byte-identical");

    let sum_a = pab_telemetry::export::summary_csv(&[&ta]);
    let sum_b = pab_telemetry::export::summary_csv(&[&tb]);
    assert_eq!(sum_a, sum_b, "same-seed counter/histogram summary must be byte-identical");

    // The trace narrates real per-slot events, not just totals: slot
    // boundaries and at least one MAC decision for the dropped-out node.
    let names: Vec<&str> = ta.events().map(|e| e.event.name()).collect();
    assert!(names.contains(&"slot_start"));
    assert!(names.contains(&"slot_end"));
    assert!(names.contains(&"erasure"), "dropout must surface erasures: {names:?}");
}
