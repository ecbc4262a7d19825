//! Per-layer timings and work counters, taken from outside the library.
//!
//! Every span here wraps one call into a layer's public API, made by the
//! benchmark on that layer's own objects, built from the workload's
//! config exactly as `FaultNetSimulator::new` builds them. The layers are
//! named after the simulator's modules:
//!
//! | layer | call timed |
//! |---|---|
//! | `link` | `LinkSimulator::slot_exchange`, warm (cache-hit) |
//! | `receiver` | `Receiver::decode_uplink_verdict` on a waveform from `run_query_to_faulted` |
//! | `noise` | `pab_channel::noise::add_awgn` over one exchange |
//! | `faults` | `FaultSchedule::add_burst_noise` over one exchange |
//! | `propagation` | `MultipathChannel::apply`, projector → node |
//! | `projector` | `Projector::query_waveform` |
//! | `node` | `PabNode::process` |
//! | `collision_group` | `CollisionGroupSimulator::train` and `collision_slot` |
//! | `mac` | `ResilientMac::next_slot_plan` and `record` |
//! | `sweep` | a round with `parallel_slots` off against one with it on |
//! | `telemetry` | a traced round against an untraced one; the exporters |
//!
//! Decode and AWGN are the children of a warm exchange, so the exchange's
//! self time is its median minus theirs, and `rx.share` / `noise.share` are
//! their shares of it. `coll.share` is the collision slots' share of a
//! whole round: the round's collision-slot count times one slot's median
//! over the round's median.

use crate::{median, quantile, Census, Metrics, Workload};
use pab_channel::noise::add_awgn;
use pab_channel::{BroadbandBurst, FaultSchedule};
use pab_core::collision_group::CollisionGroupSimulator;
use pab_core::faultnet::{FaultNetConfig, FaultNodeSpec};
use pab_core::link::{LinkConfig, LinkSimulator};
use pab_core::node::IncidentComponent;
use pab_core::receiver::Receiver;
use pab_net::mac::{Concurrency, MacPolicy, NodeEntry, ResilientMac, RxObservation};
use pab_net::packet::{DownlinkQuery, UplinkPacket};
use pab_telemetry::events_bin;
use pab_telemetry::export::events_csv;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Anti-alias FIR length of the receiver's decimator, the base of
/// `rx.macs_saved_frac` (MACs skipped per full-rate input sample).
const AA_TAPS: f64 = 127.0;

/// Calls `f` once untimed, then repeatedly, timing each call, until it
/// has made at least `min` timed calls and spent `budget_s`, or made
/// `max`. Returns the per-call host seconds.
fn sample<T>(
    min: usize,
    max: usize,
    budget_s: f64,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Vec<f64>, String> {
    black_box(f()?);
    let start = Instant::now();
    let mut out = Vec::with_capacity(min);
    while out.len() < max && (out.len() < min || start.elapsed().as_secs_f64() < budget_s) {
        let t0 = Instant::now();
        black_box(f()?);
        out.push(t0.elapsed().as_secs_f64());
    }
    Ok(out)
}

fn us(xs: &[f64]) -> f64 {
    median(xs) * 1e6
}

/// The node's link simulator, configured as `FaultNetSimulator::new`
/// configures it.
fn link_for(cfg: &FaultNetConfig, spec: &FaultNodeSpec) -> Result<LinkSimulator, String> {
    let link_cfg = LinkConfig {
        pool: cfg.pool,
        projector_pos: cfg.projector_pos,
        node_pos: spec.position,
        hydrophone_pos: cfg.hydrophone_pos,
        carrier_hz: spec.carrier_hz,
        f_match_hz: spec.carrier_hz,
        node_addr: spec.addr,
        bitrate_target_bps: cfg.bitrate_target_bps,
        drive_voltage_v: cfg.drive_voltage_v,
        max_reflections: cfg.max_reflections,
        noise: cfg.noise,
        noise_scale: cfg.noise_scale,
        seed: pab_sweep::derive_seed(cfg.seed, u64::from(spec.addr)),
        fs_hz: cfg.fs_hz,
        ..LinkConfig::default()
    };
    let mut link = LinkSimulator::new(link_cfg).map_err(|e| format!("link: {e:?}"))?;
    link.set_slot_cache(cfg.slot_cache);
    link.set_bitrate_target(top_rate_bps(cfg))
        .map_err(|e| format!("link rate: {e:?}"))?;
    Ok(link)
}

/// The rate the MAC commands first: the top of the adaptive ladder.
fn top_rate_bps(cfg: &FaultNetConfig) -> f64 {
    match &cfg.policy {
        MacPolicy::Adaptive(a) => a.ladder.top_bps(),
        _ => cfg.bitrate_target_bps,
    }
}

fn new_mac(cfg: &FaultNetConfig) -> Result<ResilientMac, String> {
    let err = |e| format!("mac: {e:?}");
    let mut mac = ResilientMac::new(cfg.plan.clone(), cfg.policy.clone(), cfg.per_node_packets)
        .map_err(err)?;
    mac.set_concurrency(cfg.concurrency.clone()).map_err(err)?;
    for spec in &cfg.nodes {
        mac.register(NodeEntry {
            addr: spec.addr,
            channel: spec.channel,
        })
        .map_err(err)?;
    }
    Ok(mac)
}

/// One uplink exchange of the workload's first node, as the receiver
/// records it (volts), from a healthy `run_query_to_faulted`.
pub fn capture_exchange(cfg: &FaultNetConfig) -> Result<Vec<f64>, String> {
    let spec = &cfg.nodes[0];
    let mut link = link_for(cfg, spec)?;
    let report = link
        .run_query_to_faulted(spec.addr, cfg.command, &FaultSchedule::default(), 0.0)
        .map_err(|e| format!("capture: {e:?}"))?;
    if !report.crc_ok {
        return Err("captured exchange did not decode".into());
    }
    Ok(report.received)
}

/// The deterministic work of one workload round: counts read off its
/// census, plus the length of one exchange. Two runs of the same config
/// give the same counters exactly.
pub fn work_counters(cfg: &FaultNetConfig, census: &Census, exchange_samples: usize) -> Metrics {
    let c = &census.counts;
    let s = &census.round.slots;
    let fe = &census.round.frontend;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut m = Metrics::default();
    m.push("round.exchanges", c.observations() as f64, "count");
    m.push(
        "round.slots",
        census.round.report.slots_used as f64,
        "count",
    );
    m.push("noise.draws", exchange_samples as f64, "count");
    m.push("faults.burst_samples", exchange_samples as f64, "count");
    m.push("rx.samples_in", fe.samples_in as f64, "count");
    m.push("rx.samples_out", fe.samples_out as f64, "count");
    m.push("rx.decim", ratio(fe.samples_in, fe.samples_out), "ratio");
    m.push(
        "rx.macs_saved_frac",
        ratio(fe.macs_saved, fe.samples_in) / AA_TAPS,
        "ratio",
    );
    m.push(
        "rx.design_hit_ratio",
        ratio(fe.design_hits, fe.design_hits + fe.design_misses),
        "ratio",
    );
    let exchanges = s.exchange_hits + s.exchange_misses + s.bypasses;
    m.push(
        "link.exchange_hit_ratio",
        ratio(s.exchange_hits, exchanges),
        "ratio",
    );
    m.push("link.wave_misses", s.wave_misses as f64, "count");
    m.push("link.exchange_misses", s.exchange_misses as f64, "count");
    m.push("link.bypasses", s.bypasses as f64, "count");
    m.push(
        "link.scratch_pool_misses",
        s.scratch_pool_misses as f64,
        "count",
    );
    // Calls the slot engine made into the lower layers: a query synthesis
    // per waveform miss; a node run per exchange miss or fade bypass; three
    // propagation legs per exchange miss, two per bypass (the downlink leg
    // of a bypass is itself memoised).
    m.push("proj.calls", s.wave_misses as f64, "count");
    m.push(
        "node.calls",
        (s.exchange_misses + s.bypasses) as f64,
        "count",
    );
    m.push(
        "prop.calls",
        (3 * s.exchange_misses + 2 * s.bypasses) as f64,
        "count",
    );
    let taps = cfg
        .pool
        .channel(
            &cfg.projector_pos,
            &cfg.nodes[0].position,
            cfg.max_reflections,
            cfg.nodes[0].carrier_hz,
        )
        .map(|ch| ch.taps().len())
        .unwrap_or(0);
    m.push("prop.taps", taps as f64, "count");
    m.push("coll.slots", c.collision_slots as f64, "count");
    m.push("coll.fallbacks", c.collision_fallbacks as f64, "count");
    m.push("coll.stream_verdicts", c.stream_verdicts as f64, "count");
    m.push("mac.retries", c.retries as f64, "count");
    m.push("mac.backoffs", c.backoffs as f64, "count");
    m.push("mac.quarantines", c.quarantines as f64, "count");
    m.push("mac.rate_steps", c.rate_steps as f64, "count");
    m.push("mac.evictions", c.evictions as f64, "count");
    m.push("tel.events", c.events as f64, "count");
    m.push("tel.events_dropped", c.events_dropped as f64, "count");
    m
}

/// Time every layer for `workload`, whose round `cfg` has the census
/// `census` and takes `untraced_s` host seconds untraced, `serial_s` with
/// `parallel_slots` off. Each layer gets a time box of
/// about `budget_s` host seconds. Fails when a timed call errors or its
/// output is wrong: a captured healthy exchange must decode, warm
/// exchanges and healthy collision slots must deliver every stream.
pub fn measure(
    workload: Workload,
    cfg: &FaultNetConfig,
    census: &Census,
    untraced_s: f64,
    serial_s: f64,
    budget_s: f64,
) -> Result<Metrics, String> {
    let spec = &cfg.nodes[0];
    let fs_hz = cfg.fs_hz;
    let received = capture_exchange(cfg)?;
    let n = received.len();
    let mut m = work_counters(cfg, census, n);

    // link, receiver and noise: a warm cache-hit exchange on a healthy
    // schedule, a decode of the captured exchange on a warm receiver, and
    // AWGN over as many samples, timed in turn so that the parent and its
    // children see the same machine.
    let mut link = link_for(cfg, spec)?;
    let bitrate_bps = link.bitrate_bps();
    let quiet = FaultSchedule::default();
    let receiver = Receiver::new(1.0e-3, fs_hz);
    let sigma_pa = cfg
        .noise
        .rms_pressure_pa(spec.carrier_hz, fs_hz / 2.0)
        .map_err(|e| format!("sigma: {e:?}"))?
        * cfg.noise_scale;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut y = received.clone();
    let (mut exchange, mut decode, mut awgn) = (Vec::new(), Vec::new(), Vec::new());
    let mut step = 0usize;
    sample(90, 6_000, 2.0 * budget_s, || {
        step += 1;
        let t0 = Instant::now();
        match step % 3 {
            0 => {
                let v = link
                    .slot_exchange(spec.addr, cfg.command, &quiet, 0.0, None)
                    .map_err(|e| format!("slot_exchange: {e:?}"))?;
                if !v.crc_ok {
                    return Err(format!("{}: warm exchange did not decode", workload.name()));
                }
                exchange.push(t0.elapsed().as_secs_f64());
            }
            1 => {
                let v = receiver
                    .decode_uplink_verdict(&received, spec.carrier_hz, bitrate_bps)
                    .map_err(|e| format!("decode: {e:?}"))?;
                v.packet.map_err(|e| format!("decode CRC: {e:?}"))?;
                decode.push(t0.elapsed().as_secs_f64());
            }
            _ => {
                add_awgn(&mut y, sigma_pa, &mut rng);
                awgn.push(t0.elapsed().as_secs_f64());
            }
        }
        Ok(())
    })?;
    let exchange_us = us(&exchange);
    let decode_us = us(&decode);
    let awgn_us = us(&awgn);
    let burst = FaultSchedule::new(cfg.seed)
        .with_burst(BroadbandBurst {
            start_s: 0.0,
            duration_s: n as f64 / fs_hz + 1.0,
            rms_pa: 500.0,
        })
        .map_err(|e| format!("burst: {e:?}"))?;
    let bursts = sample(20, 2_000, budget_s / 2.0, || {
        burst.add_burst_noise(&mut y, 0.0, fs_hz);
        Ok(y[0])
    })?;

    m.push("link.exchange_us_p50", exchange_us, "us");
    m.push(
        "link.exchange_us_p99",
        quantile(&exchange, 0.99) * 1e6,
        "us",
    );
    m.push("link.self_us", exchange_us - decode_us - awgn_us, "us");
    m.push("rx.decode_us", decode_us, "us");
    m.push("rx.ns_per_sample", decode_us * 1e3 / n as f64, "ns");
    m.push("rx.share", decode_us / exchange_us, "ratio");
    m.push("noise.awgn_us", awgn_us, "us");
    m.push("noise.ns_per_draw", awgn_us * 1e3 / n as f64, "ns");
    m.push("noise.share", awgn_us / exchange_us, "ratio");
    m.push("faults.burst_us", us(&bursts), "us");

    // projector → propagation → node: the chain a cache miss or a fade
    // bypass runs.
    let cw_tail_s = 5e-3 + UplinkPacket::bits_len(0) as f64 / bitrate_bps + 30e-3;
    let query = DownlinkQuery {
        dest: spec.addr,
        command: cfg.command,
    };
    let node = link.node_mut().clone();
    let projector = link.projector_mut().clone();
    let synth = sample(5, 500, budget_s / 2.0, || {
        projector
            .query_waveform(&query, spec.carrier_hz, cw_tail_s)
            .map_err(|e| format!("query_waveform: {e:?}"))
    })?;
    let (tx_wave, _) = projector
        .query_waveform(&query, spec.carrier_hz, cw_tail_s)
        .map_err(|e| format!("query_waveform: {e:?}"))?;
    let channel = cfg
        .pool
        .channel(
            &cfg.projector_pos,
            &spec.position,
            cfg.max_reflections,
            spec.carrier_hz,
        )
        .map_err(|e| format!("channel: {e:?}"))?;
    let apply = sample(
        5,
        500,
        budget_s / 2.0,
        || Ok(channel.apply(&tx_wave, fs_hz)),
    )?;
    let incident = [IncidentComponent {
        carrier_hz: spec.carrier_hz,
        samples: channel.apply(&tx_wave, fs_hz),
    }];
    let water = link.config().water;
    let process = sample(5, 500, budget_s / 2.0, || {
        let out = node
            .process(&incident, fs_hz, Some(water))
            .map_err(|e| format!("node: {e:?}"))?;
        if out.powered_up {
            Ok(out)
        } else {
            Err("node did not power up".into())
        }
    })?;
    m.push("proj.synth_us", us(&synth), "us");
    m.push("prop.apply_us", us(&apply), "us");
    m.push("node.process_us", us(&process), "us");

    // collision_group: training and zero-forced slots of the pair.
    let (train_us, slot_us, condition) = if matches!(cfg.concurrency, Concurrency::Collision(_)) {
        let addrs: Vec<u8> = cfg.nodes.iter().map(|s| s.addr).collect();
        let mut group =
            CollisionGroupSimulator::new(cfg, &addrs).map_err(|e| format!("group: {e:?}"))?;
        group
            .set_bitrate_target(top_rate_bps(cfg))
            .map_err(|e| format!("group rate: {e:?}"))?;
        let train = sample(2, 20, budget_s / 2.0, || {
            group
                .train(cfg.command)
                .map_err(|e| format!("train: {e:?}"))
        })?;
        let condition = group.condition_number();
        let slots = sample(4, 200, budget_s, || {
            let out = group
                .collision_slot(cfg.command)
                .map_err(|e| format!("collision_slot: {e:?}"))?;
            if out.verdicts.iter().all(|v| v.crc_ok) {
                Ok(out)
            } else {
                Err("healthy collision slot lost a stream".into())
            }
        })?;
        (us(&train), us(&slots), condition)
    } else {
        (0.0, 0.0, 0.0)
    };
    m.push("coll.train_us", train_us, "us");
    m.push("coll.slot_us", slot_us, "us");
    m.push("coll.condition_number", condition, "ratio");
    m.push(
        "coll.share",
        census.counts.collision_slots as f64 * slot_us * 1e-6 / untraced_s,
        "ratio",
    );

    // mac: plan and record calls over fresh rounds of every node
    // delivering.
    let mut mac = new_mac(cfg)?;
    let (mut plan_s, mut plans, mut record_s, mut records) = (0.0, 0u64, 0.0, 0u64);
    let start = Instant::now();
    while plans < 1_000 || start.elapsed().as_secs_f64() < budget_s / 4.0 {
        let t0 = Instant::now();
        let plan = mac.next_slot_plan(cfg.command, |_| true);
        plan_s += t0.elapsed().as_secs_f64();
        plans += 1;
        for q in black_box(plan).queries {
            let t0 = Instant::now();
            black_box(
                mac.record(q.query.dest, RxObservation::Delivered { margin: 0.9 })
                    .map_err(|e| format!("mac record: {e:?}"))?,
            );
            record_s += t0.elapsed().as_secs_f64();
            records += 1;
        }
        if mac.is_complete() {
            mac = new_mac(cfg)?;
        }
    }
    m.push("mac.plan_us", plan_s * 1e6 / plans as f64, "us");
    m.push(
        "mac.record_us",
        record_s * 1e6 / records.max(1) as f64,
        "us",
    );

    // sweep: the per-slot fan-out against the same round run serially.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let fanout = match cfg.concurrency {
        Concurrency::Independent => census.counts.max_queries,
        _ => 1,
    };
    let threads = nproc.min(fanout).max(1);
    m.push("sweep.threads", threads as f64, "count");
    m.push(
        "sweep.parallel_efficiency",
        serial_s / (untraced_s * threads as f64),
        "ratio",
    );

    // telemetry: what tracing the round cost, and the exporters.
    m.push(
        "tel.overhead_frac",
        census.round.wall_s / untraced_s - 1.0,
        "ratio",
    );
    let rec = [&census.recorder];
    let csv = sample(3, 200, budget_s / 4.0, || Ok(events_csv(&rec)))?;
    let bin = sample(3, 200, budget_s / 4.0, || Ok(events_bin(&rec)))?;
    m.push("tel.export_csv_us", us(&csv), "us");
    m.push("tel.export_bin_us", us(&bin), "us");
    Ok(m)
}
