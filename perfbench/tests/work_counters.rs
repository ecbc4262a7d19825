//! The benchmark's work counters are deterministic: two runs of the same
//! short round count exactly the same work, and every round passes the
//! correctness gate.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pab_perfbench::layers::{capture_exchange, work_counters};
use pab_perfbench::{census, check_round, find_prefix, run_round, Metrics, Workload};

/// Per-node target of the short rounds: enough for steady-state slots
/// after the warm-up prefix on every workload.
const SHORT_ROUND_PACKETS: u64 = 3;

fn counters(w: Workload, seed: u64, per_node: u64) -> Metrics {
    let cfg = w.config(seed, per_node);
    let c = census(&cfg).expect("census runs");
    check_round(w, &cfg, &c.round, None).expect("census passes the gate");
    let untraced = run_round(&cfg).expect("round runs");
    check_round(w, &cfg, &untraced, Some(&c)).expect("untraced round equals its census");
    let exchange = capture_exchange(&cfg).expect("capture decodes");
    work_counters(&cfg, &c, exchange.len())
}

#[test]
fn work_counters_repeat_exactly() {
    for w in Workload::ALL {
        let a = counters(w, 5, SHORT_ROUND_PACKETS);
        let b = counters(w, 5, SHORT_ROUND_PACKETS);
        assert_eq!(a, b, "{}: work counters differ between two runs", w.name());
        assert!(
            a.get("round.exchanges").unwrap_or(0.0) > 0.0,
            "{}",
            w.name()
        );
    }
}

#[test]
fn fdma_warm_up_is_the_first_slot() {
    let w = Workload::FdmaN8At96k;
    let cfg = w.config(w.default_seed(), SHORT_ROUND_PACKETS);
    let full = census(&cfg).expect("census runs");
    let (prefix, _) = find_prefix(&cfg, &full).expect("prefix found");
    assert_eq!(prefix.max_slots, 1);
}

/// A whole round of the collision workload runs collision slots, fade
/// bypasses and MAC retries — the paths it was chosen for.
#[test]
fn collision_workload_exercises_its_paths() {
    let w = Workload::CollisionFaultedN2;
    let m = counters(w, w.default_seed(), w.per_node_packets());
    for name in ["coll.slots", "link.bypasses", "mac.retries"] {
        assert!(m.get(name).unwrap_or(0.0) > 0.0, "{name} is zero");
    }
}

/// The end-to-end run sweeps `points()` rounds: the first is the
/// workload's own config, the others run on seeds of their own.
#[test]
fn sweep_points_are_distinct_rounds() {
    for w in Workload::ALL {
        let cfgs = w.configs(5, SHORT_ROUND_PACKETS);
        assert_eq!(cfgs.len(), w.points(), "{}", w.name());
        assert_eq!(cfgs[0].seed, w.config(5, SHORT_ROUND_PACKETS).seed);
        let mut seeds: Vec<u64> = cfgs.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cfgs.len(), "{}: points share a seed", w.name());
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("no_such_workload"), None);
}
