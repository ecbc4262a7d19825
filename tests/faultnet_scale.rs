//! N-node slot-engine determinism suite: the fault-injected network must
//! produce byte-identical results whether its per-slot exchanges fan out
//! through the parallel sweep engine or run serially, whether or not a
//! trace recorder is attached, and whether or not the query-waveform /
//! clean-exchange caches are enabled. These are the load-bearing
//! invariants behind the PR's perf work — a cache or a thread pool that
//! changed a single bit would silently invalidate every sweep result.

use pab_channel::{BroadbandBurst, DropoutWindow, FaultSchedule};
use pab_core::faultnet::{FaultNetConfig, FaultNetReport, FaultNetSimulator};
use pab_telemetry::export::{events_csv, summary_csv};
use pab_telemetry::{events_bin, Recorder};

/// An N-node network with enough impairment to exercise every slot-engine
/// path: a burst over the first exchanges (CRC failures, retries), one
/// permanently browned-out node (erasures, quarantine, eviction), and
/// healthy nodes in between (cache hits).
fn scale_cfg(n: usize) -> FaultNetConfig {
    let mut cfg = FaultNetConfig::with_nodes(n).expect("valid node count");
    cfg.per_node_packets = 1;
    cfg.max_slots = 6 * n as u64;
    cfg.fs_hz = 96_000.0;
    cfg.seed = 29;
    cfg.nodes[1].faults = FaultSchedule::new(29)
        .with_burst(BroadbandBurst {
            start_s: 0.0,
            duration_s: 0.7,
            rms_pa: 1_500.0,
        })
        .expect("valid burst");
    cfg.nodes[n - 1].faults = FaultSchedule::new(31)
        .with_dropout(DropoutWindow {
            start_s: 0.0,
            duration_s: f64::INFINITY,
        })
        .expect("valid dropout");
    cfg
}

fn run_traced(mut cfg: FaultNetConfig, parallel: bool) -> (FaultNetReport, Recorder) {
    cfg.parallel_slots = parallel;
    let mut tel = Recorder::new(4096).with_run_id(0);
    let report = FaultNetSimulator::new(cfg)
        .expect("valid config")
        .run_with_recorder(Some(&mut tel))
        .expect("run succeeds");
    (report, tel)
}

/// Parallel and serial slot fan-out must agree bit-for-bit — on the
/// report, on the packet digest, and on every telemetry export format
/// (CSV, summary, binary) — at both N=4 and N=8.
#[test]
fn parallel_matches_serial_at_n4_and_n8() {
    for n in [4usize, 8] {
        let (rep_par, tel_par) = run_traced(scale_cfg(n), true);
        let (rep_ser, tel_ser) = run_traced(scale_cfg(n), false);

        assert_eq!(rep_par, rep_ser, "n={n}: parallel report != serial report");
        assert_eq!(
            rep_par.bit_digest, rep_ser.bit_digest,
            "n={n}: packet digests diverged"
        );

        let csv_par = events_csv(&[&tel_par]);
        let csv_ser = events_csv(&[&tel_ser]);
        assert!(!csv_par.trim().is_empty());
        assert_eq!(csv_par, csv_ser, "n={n}: trace CSV not byte-identical");
        assert_eq!(
            summary_csv(&[&tel_par]),
            summary_csv(&[&tel_ser]),
            "n={n}: counter/histogram summary not byte-identical"
        );
        assert_eq!(
            events_bin(&[&tel_par]),
            events_bin(&[&tel_ser]),
            "n={n}: binary trace not byte-identical"
        );

        // The run must actually have exercised the interesting paths:
        // every node polled, the dead node erased, the burst retried.
        assert_eq!(rep_par.per_node.len(), n);
        let names: Vec<&str> = tel_par.events().map(|e| e.event.name()).collect();
        assert!(names.contains(&"erasure"), "n={n}: no erasures recorded");
        assert!(names.contains(&"slot_end"), "n={n}: no slot boundaries");
    }
}

/// The query-waveform and clean-exchange caches are a pure memoisation:
/// disabling them must reproduce the exact same run, bit for bit — the
/// report and every telemetry export, since the cached and uncached
/// exchange paths both reach the receiver-verdict tracing in
/// `slot_exchange`.
#[test]
fn waveform_cache_is_bitwise_transparent() {
    let run = |cache: bool| {
        let mut cfg = scale_cfg(4);
        cfg.slot_cache = cache;
        let mut sim = FaultNetSimulator::new(cfg).expect("valid config");
        let mut tel = Recorder::new(4096).with_run_id(0);
        let report = sim.run_with_recorder(Some(&mut tel)).expect("run succeeds");
        (report, sim.slot_stats(), tel)
    };
    let (cached, stats_on, tel_on) = run(true);
    let (uncached, stats_off, tel_off) = run(false);
    assert_eq!(cached, uncached, "cache changed the simulation");
    assert_eq!(cached.bit_digest, uncached.bit_digest);
    assert_eq!(
        events_csv(&[&tel_on]),
        events_csv(&[&tel_off]),
        "cache changed the trace CSV"
    );
    assert_eq!(
        summary_csv(&[&tel_on]),
        summary_csv(&[&tel_off]),
        "cache changed the counter/histogram summary"
    );
    assert_eq!(
        events_bin(&[&tel_on]),
        events_bin(&[&tel_off]),
        "cache changed the binary trace"
    );
    let rx = tel_on.counters();
    assert!(
        rx.get("rx.detections") > 0 && rx.get("rx.erasures") > 0,
        "trace lacks receiver verdicts"
    );
    // And the knob is real: hits with the cache on, none with it off.
    assert!(
        stats_on.exchange_hits + stats_on.wave_hits > 0,
        "cached run never hit: {stats_on:?}"
    );
    assert_eq!(
        stats_off.exchange_hits + stats_off.wave_hits,
        0,
        "disabled cache still hit: {stats_off:?}"
    );
}

/// Untraced runs must not depend on tracing either: attaching a recorder
/// is observation, not perturbation.
#[test]
fn tracing_does_not_perturb_the_network() {
    let (rep_traced, _tel) = run_traced(scale_cfg(4), true);
    let rep_plain = FaultNetSimulator::new(scale_cfg(4))
        .expect("valid config")
        .run_with_recorder(None)
        .expect("run succeeds");
    assert_eq!(rep_traced, rep_plain, "recorder perturbed the run");
}
