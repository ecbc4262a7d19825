//! Byte-identity snapshot tool: runs the canonical faultnet and
//! collision determinism workloads at N ∈ {2, 4, 8} and writes every
//! artifact a perf PR must not move — packet digests, per-node report
//! lines and all three telemetry export formats (CSV, summary, binary)
//! — into a directory. Diffing two snapshots (`diff -r`) taken
//! on two commits proves (or disproves) bit-identical behaviour without
//! hand-rolling a comparison harness each time.
//!
//! Usage:
//!     dump_identity OUTDIR

use pab_channel::{BroadbandBurst, DropoutWindow, FaultSchedule};
use pab_core::faultnet::{FaultNetConfig, FaultNetSimulator};
use pab_net::mac::{AdaptiveConfig, CollisionPolicy, Concurrency, MacPolicy, RateLadder};
use pab_telemetry::export::{events_csv, summary_csv};
use pab_telemetry::{events_bin, Recorder};
use std::io::Write;
use std::path::Path;

/// The `tests/faultnet_scale.rs` workload: burst on node 1, permanent
/// brown-out on the last node, everything else healthy.
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

/// The `crates/core/tests/collision_faultnet.rs` identity workload: a
/// collision-enabled round on the canonical N-node plan (real collision
/// slots at N = 2, spacing-vetoed serialized slots at N = 4/8).
fn collision_cfg(n: usize) -> FaultNetConfig {
    let mut cfg = FaultNetConfig::with_nodes(n).expect("valid node count");
    cfg.policy = MacPolicy::Adaptive(AdaptiveConfig {
        ladder: RateLadder::new(vec![1_024.0, 512.0, 256.0]).expect("valid ladder"),
        ..Default::default()
    });
    cfg.bitrate_target_bps = 1_024.0;
    cfg.per_node_packets = 1;
    cfg.max_slots = 80;
    cfg.fs_hz = 96_000.0;
    cfg.concurrency = Concurrency::Collision(CollisionPolicy::default());
    cfg
}

fn dump(dir: &Path, tag: &str, cfg: FaultNetConfig) -> std::io::Result<()> {
    let mut tel = Recorder::new(65_536).with_run_id(0);
    let report = FaultNetSimulator::new(cfg)
        .expect("valid config")
        .run_with_recorder(Some(&mut tel))
        .expect("run succeeds");
    let mut f = std::fs::File::create(dir.join(format!("{tag}_report.txt")))?;
    writeln!(f, "{report:?}")?;
    writeln!(f, "bit_digest={:#018x}", report.bit_digest)?;
    std::fs::write(dir.join(format!("{tag}_events.csv")), events_csv(&[&tel]))?;
    std::fs::write(dir.join(format!("{tag}_summary.csv")), summary_csv(&[&tel]))?;
    std::fs::write(dir.join(format!("{tag}_events.bin")), events_bin(&[&tel]))?;
    eprintln!("{tag}: digest {:#018x}", report.bit_digest);
    Ok(())
}

fn main() -> std::io::Result<()> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/identity".to_string());
    let dir = Path::new(&out);
    std::fs::create_dir_all(dir)?;
    for n in [2usize, 4, 8] {
        dump(dir, &format!("faultnet_n{n}"), scale_cfg(n))?;
        dump(dir, &format!("collision_n{n}"), collision_cfg(n))?;
    }
    eprintln!("wrote snapshot to {}", dir.display());
    Ok(())
}
