//! Steady-state benchmark of the fault-injected PAB network simulator.
//!
//! The library half holds everything the `pab-perfbench` binary and its
//! tests share: the named workloads ([`Workload`]), inventory rounds run
//! from cold ([`run_round`]), the traced census of a round's work
//! ([`census`]), the per-round correctness gate ([`check_round`]) and the
//! per-layer timings taken around the simulator's public calls
//! ([`layers`]).
//!
//! Warm-up is excluded from outside the library. A
//! [`FaultNetSimulator`] cannot be resumed once its round completes, so
//! every round starts cold. Each workload therefore names a *prefix*: the
//! first slots of the round, in which the slot caches, receiver front-end
//! designs and collision training are built. The same config capped at
//! the prefix's slot count replays exactly those slots (a round is a
//! pure function of its config), so the steady-state cost of a round is
//! its time minus the prefix's time, and its steady-state work is its
//! MAC observations and slots minus the prefix's.

pub mod layers;

use pab_channel::{BroadbandBurst, FaultSchedule, PathFade};
use pab_core::faultnet::{FaultNetConfig, FaultNetReport, FaultNetSimulator};
use pab_core::link::SlotEngineStats;
use pab_core::receiver::FrontEndStats;
use pab_net::mac::{
    AdaptiveConfig, ChannelPlan, CollisionPolicy, Concurrency, MacPolicy, RateLadder,
};
use pab_net::packet::UplinkPacket;
use pab_telemetry::{Event, Recorder};
use std::time::Instant;

/// Ring capacity of the census recorder: far above the event count of
/// any workload round, so the census never drops an event.
const CENSUS_EVENTS: usize = 1 << 20;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight FDMA nodes at 96 kHz on a healthy channel, stock 2731 bps
    /// ladder top, eight concurrent exchanges per slot fanned out over
    /// `pab-sweep`. Cache-hit steady state, decode-heavy.
    FdmaN8At96k,
    /// The 14/19 kHz pair on the 1024/512/256 bps ladder under §8
    /// collision slots, with recurring bursts on both nodes and recurring
    /// path fades on node 1: collision slots, fade bypasses, burst noise,
    /// retries, rate steps and fallbacks. A round is serialized, so
    /// single-threaded; the end-to-end run sweeps two rounds at once.
    CollisionFaultedN2,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::FdmaN8At96k, Workload::CollisionFaultedN2];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FdmaN8At96k => "fdma_n8_96k",
            Workload::CollisionFaultedN2 => "collision_faulted_n2",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given on the command line.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FdmaN8At96k => 7,
            Workload::CollisionFaultedN2 => 13,
        }
    }

    /// Packets each node must deliver to complete one measured round.
    pub fn per_node_packets(self) -> u64 {
        match self {
            Workload::FdmaN8At96k => 24,
            Workload::CollisionFaultedN2 => 30,
        }
    }

    /// Independent rounds the end-to-end run sweeps at once over
    /// `pab-sweep`, one per core on a two-core host. The single-threaded
    /// collision round runs two: the two cores' speeds drift
    /// independently, so the pair's throughput wanders less than one
    /// round's.
    pub fn points(self) -> usize {
        match self {
            Workload::FdmaN8At96k => 1,
            Workload::CollisionFaultedN2 => 2,
        }
    }

    /// Whether the workload runs on a healthy (fault-free) channel, where
    /// every node must deliver its whole target.
    pub fn healthy(self) -> bool {
        !matches!(self, Workload::CollisionFaultedN2)
    }

    /// The round's configuration for workload seed `seed` with a target of
    /// `per_node` packets per node. The seed drives every random input —
    /// the per-link noise streams and the burst-noise keys — while the
    /// network layout and fault windows are fixed by the workload.
    pub fn config(self, seed: u64, per_node: u64) -> FaultNetConfig {
        let sim_seed = pab_sweep::derive_seed(self.default_seed(), seed);
        let mut cfg = match self {
            // The canonical eight-node FDMA layout, every channel carrying
            // a query each slot (the concurrency is pinned, not inherited
            // from the default).
            Workload::FdmaN8At96k => FaultNetConfig {
                concurrency: Concurrency::Independent,
                fs_hz: 96_000.0,
                ..FaultNetConfig::with_nodes(8).expect("8 nodes is a valid layout")
            },
            Workload::CollisionFaultedN2 => collision_faulted(sim_seed),
        };
        cfg.seed = sim_seed;
        cfg.per_node_packets = per_node;
        cfg.max_slots = 40 * per_node.max(1) * cfg.nodes.len() as u64;
        cfg
    }

    /// The configurations of the [`points`](Self::points) rounds the
    /// end-to-end run sweeps for workload seed `seed`: the first is
    /// [`config`](Self::config)`(seed, per_node)`, point `i` after it runs
    /// on workload seed `derive_seed(seed, i)`.
    pub fn configs(self, seed: u64, per_node: u64) -> Vec<FaultNetConfig> {
        (0..self.points() as u64)
            .map(|i| {
                let point_seed = if i == 0 {
                    seed
                } else {
                    pab_sweep::derive_seed(seed, i)
                };
                self.config(point_seed, per_node)
            })
            .collect()
    }
}

/// Simulated seconds the recurring fault windows cover: well past the
/// ~35 simulated seconds a collision round lasts.
const FAULT_HORIZON_S: f64 = 240.0;

/// Period of the collision workload's fault pattern, seconds.
const FAULT_PERIOD_S: f64 = 12.0;

/// The collision workload: the two-node 14/19 kHz pair of
/// `ext_collision_faultnet`, whose spacing clears the collision gate at
/// 1024 bps, with fault windows that recur across the whole round. Every
/// 12 s a 0.5 s broadband burst hits both nodes, and half a period later a
/// 3 s deep fade hits node 1. Between the windows the MAC pairs the nodes
/// into collision slots; inside them it falls back to serialized FDMA,
/// whose exchanges take burst noise or bypass the slot cache.
fn collision_faulted(seed: u64) -> FaultNetConfig {
    let mut node1 = FaultSchedule::new(seed);
    let mut node2 = FaultSchedule::new(seed ^ 0x5bd1_e995);
    let mut t_s = 0.0;
    while t_s < FAULT_HORIZON_S {
        let burst = BroadbandBurst {
            start_s: t_s,
            duration_s: 0.5,
            rms_pa: 500.0,
        };
        let fade = PathFade {
            start_s: t_s + FAULT_PERIOD_S / 2.0,
            duration_s: 3.0,
            floor_ratio: 0.05,
        };
        node1 = node1
            .with_burst(burst)
            .and_then(|s| s.with_fade(fade))
            .expect("valid fault windows");
        node2 = node2.with_burst(burst).expect("valid burst");
        t_s += FAULT_PERIOD_S;
    }
    let mut cfg = FaultNetConfig {
        policy: MacPolicy::Adaptive(AdaptiveConfig {
            ladder: RateLadder::new(vec![1_024.0, 512.0, 256.0]).expect("valid ladder"),
            ..AdaptiveConfig::default()
        }),
        bitrate_target_bps: 1_024.0,
        concurrency: Concurrency::Collision(CollisionPolicy::default()),
        ..FaultNetConfig::default()
    };
    cfg.plan = ChannelPlan::new(vec![14_000.0, 19_000.0]).expect("valid plan");
    cfg.nodes[0].carrier_hz = 14_000.0;
    cfg.nodes[1].carrier_hz = 19_000.0;
    cfg.nodes[0].faults = node1;
    cfg.nodes[1].faults = node2;
    cfg
}

/// One round run from a cold simulator, untraced.
#[derive(Debug, Clone)]
pub struct Round {
    /// The round's report.
    pub report: FaultNetReport,
    /// Slot-engine counters summed over the nodes.
    pub slots: SlotEngineStats,
    /// Receiver front-end counters summed over the nodes.
    pub frontend: FrontEndStats,
    /// Host seconds for `FaultNetSimulator::new` plus the round.
    pub wall_s: f64,
}

/// Build a simulator for `cfg` and run its round to completion, timing
/// construction and the round together. `cfg.max_slots` caps the round,
/// which is how a workload's prefix is replayed on its own.
pub fn run_round(cfg: &FaultNetConfig) -> Result<Round, String> {
    run_traced(cfg, None)
}

fn run_traced(cfg: &FaultNetConfig, tel: Option<&mut Recorder>) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut sim = FaultNetSimulator::new(cfg.clone()).map_err(|e| format!("new: {e:?}"))?;
    let report = sim
        .run_with_recorder(tel)
        .map_err(|e| format!("run: {e:?}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Round {
        report: std::hint::black_box(report),
        slots: sim.slot_stats(),
        frontend: sim.frontend_stats(),
        wall_s,
    })
}

/// Counts read off a traced round: the deterministic work and the MAC's
/// decisions, which `FaultNetReport` does not carry.
#[derive(Debug, Default)]
pub struct EventCounts {
    /// Largest query count of any slot.
    pub max_queries: u64,
    /// Receiver verdicts: detections, CRC failures and erasures.
    pub detections: u64,
    /// CRC failures (preamble found, payload corrupt).
    pub crc_fails: u64,
    /// Erasures (nothing detected).
    pub erasures: u64,
    /// MAC retries.
    pub retries: u64,
    /// MAC backoff windows.
    pub backoffs: u64,
    /// MAC quarantines and failed re-probes.
    pub quarantines: u64,
    /// Rate-ladder steps.
    pub rate_steps: u64,
    /// Permanent evictions.
    pub evictions: u64,
    /// Zero-forced collision slots.
    pub collision_slots: u64,
    /// Collision groups abandoned to FDMA.
    pub collision_fallbacks: u64,
    /// Per-stream verdicts out of collision slots.
    pub stream_verdicts: u64,
    /// Events recorded (kept plus dropped).
    pub events: u64,
    /// Events the ring dropped.
    pub events_dropped: u64,
}

impl EventCounts {
    /// MAC observations: one per uplink decode attempt, counted per
    /// stream in collision slots.
    pub fn observations(&self) -> u64 {
        self.detections + self.crc_fails + self.erasures
    }

    fn from_recorder(rec: &Recorder) -> Self {
        let mut c = EventCounts {
            events: rec.len() as u64 + rec.events_dropped(),
            events_dropped: rec.events_dropped(),
            ..EventCounts::default()
        };
        for e in rec.events() {
            match e.event {
                Event::SlotStart { queries } => {
                    c.max_queries = c.max_queries.max(u64::from(queries));
                }
                Event::Detection { .. } => c.detections += 1,
                Event::CrcFail { .. } => c.crc_fails += 1,
                Event::Erasure { .. } => c.erasures += 1,
                Event::Retry { .. } => c.retries += 1,
                Event::Backoff { .. } => c.backoffs += 1,
                Event::Quarantine { .. } => c.quarantines += 1,
                Event::RateStep { .. } => c.rate_steps += 1,
                Event::Eviction { .. } => c.evictions += 1,
                Event::CollisionSlot { .. } => c.collision_slots += 1,
                Event::CollisionFallback { .. } => c.collision_fallbacks += 1,
                Event::StreamVerdict { .. } => c.stream_verdicts += 1,
                _ => {}
            }
        }
        c
    }
}

/// A traced round: the round itself, its event counts and the recorder.
#[derive(Debug)]
pub struct Census {
    /// The round (timed with tracing on).
    pub round: Round,
    /// Counts read off the trace.
    pub counts: EventCounts,
    /// The trace.
    pub recorder: Recorder,
}

/// Run `cfg`'s round with a telemetry recorder attached and count what
/// happened. Tracing does not perturb the simulation, so the counts
/// describe every untraced run of the same config too — the gate in
/// [`check_round`] holds each untraced report to the census's.
pub fn census(cfg: &FaultNetConfig) -> Result<Census, String> {
    let mut recorder = Recorder::new(CENSUS_EVENTS);
    let round = run_traced(cfg, Some(&mut recorder))?;
    Ok(Census {
        round,
        counts: EventCounts::from_recorder(&recorder),
        recorder,
    })
}

/// Longest warm-up prefix [`find_prefix`] tries, slots.
pub const MAX_PREFIX_SLOTS: u64 = 16;

/// The workload's warm-up prefix for `cfg`, given the census `full` of its
/// whole round: the fewest leading slots whose replay misses every slot
/// cache entry and front-end design the whole round misses and, when the
/// round holds collision slots, trains the group and runs the first one.
/// Returns the prefix's config (the round capped at that many slots) and
/// its census. Falls back to [`MAX_PREFIX_SLOTS`] when no shorter prefix
/// covers the round's misses.
pub fn find_prefix(
    cfg: &FaultNetConfig,
    full: &Census,
) -> Result<(FaultNetConfig, Census), String> {
    let cold = |r: &Round| {
        (
            r.slots.wave_misses,
            r.slots.exchange_misses,
            r.frontend.design_misses,
        )
    };
    let longest = full.round.report.slots_used.clamp(1, MAX_PREFIX_SLOTS);
    let mut prefix = cfg.clone();
    prefix.max_slots = 1;
    loop {
        let c = census(&prefix)?;
        let trained = c.counts.collision_slots > 0 || full.counts.collision_slots == 0;
        if prefix.max_slots >= longest || (cold(&c.round) == cold(&full.round) && trained) {
            return Ok((prefix, c));
        }
        prefix.max_slots += 1;
    }
}

/// The correctness gate every round passes: the accounting identities of
/// its report against `cfg`; for a whole round (one not capped at a
/// warm-up prefix of at most [`MAX_PREFIX_SLOTS`] slots) completion, and
/// full delivery on healthy workloads; and — when a `reference` (the
/// census of the same config) is given — a report identical to it, bit
/// digest and all, with identical work counters.
pub fn check_round(
    workload: Workload,
    cfg: &FaultNetConfig,
    round: &Round,
    reference: Option<&Census>,
) -> Result<(), String> {
    let r = &round.report;
    let n = cfg.nodes.len() as u64;
    let target = cfg.per_node_packets;
    let fail = |what: &str| Err(format!("{}: {what}", workload.name()));
    if r.per_node.len() as u64 != n {
        return fail("per-node outcome count differs from the node count");
    }
    if r.delivered_total != r.per_node.iter().map(|o| o.delivered).sum::<u64>() {
        return fail("delivered_total is not the sum over nodes");
    }
    if r.dropped_total != r.per_node.iter().map(|o| o.dropped).sum::<u64>() {
        return fail("dropped_total is not the sum over nodes");
    }
    if r.per_node.iter().any(|o| o.delivered > target) {
        return fail("a node delivered past its target");
    }
    let met = r
        .per_node
        .iter()
        .all(|o| o.evicted || o.delivered >= target);
    if r.completed != met {
        return fail("completed disagrees with the per-node outcomes");
    }
    if r.slots_used > cfg.max_slots {
        return fail("round ran past max_slots");
    }
    let attempts = r.delivered_total + r.dropped_total;
    let pdr = if attempts == 0 {
        1.0
    } else {
        r.delivered_total as f64 / attempts as f64
    };
    if r.pdr.to_bits() != pdr.to_bits() {
        return fail("pdr is not delivered / (delivered + dropped)");
    }
    let bits = (r.delivered_total * UplinkPacket::bits_len(0) as u64) as f64;
    if r.elapsed_s > 0.0 && (r.goodput_bps * r.elapsed_s - bits).abs() > 1e-6 * bits.max(1.0) {
        return fail("goodput × elapsed is not the delivered bits");
    }
    if cfg.max_slots > MAX_PREFIX_SLOTS {
        if !r.completed {
            return fail("round did not complete");
        }
        if workload.healthy() && r.delivered_total != n * target {
            return fail("healthy round did not deliver N × per-node target");
        }
    }
    if let Some(reference) = reference {
        if r != &reference.round.report {
            return fail("report differs from the traced census of the same config");
        }
        if round.slots != reference.round.slots || round.frontend != reference.round.frontend {
            return fail("work counters differ from the traced census of the same config");
        }
        if reference.counts.detections != r.delivered_total {
            return fail("detections differ from deliveries");
        }
    }
    Ok(())
}

/// Named metrics with their units, in output order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Append metric `name` in `unit`.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }
}

/// The median of `xs` (mean of the middle pair for even counts); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` ∈ [0, 1] of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
