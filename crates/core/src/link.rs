//! End-to-end single-link simulation: projector → pool → node → pool →
//! hydrophone → decoder. This is the machinery behind Figs. 2, 7 and 8.

use crate::node::{IncidentComponent, NodeOutput, PabNode};
use crate::projector::Projector;
use crate::receiver::{Decoded, Receiver};
use crate::scratch::{self, Scratch};
use crate::{margin_samples, CoreError, DEFAULT_SAMPLE_RATE_HZ};
use pab_channel::noise::{add_awgn, NoiseEnvironment};
use pab_channel::{FaultSchedule, Pool, Position};
use pab_mcu::Clock;
use pab_net::packet::{Command, DownlinkQuery, SensorKind, UplinkPacket};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of one link experiment.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// The tank.
    pub pool: Pool,
    /// Projector position.
    pub projector_pos: Position,
    /// Node position.
    pub node_pos: Position,
    /// Hydrophone position.
    pub hydrophone_pos: Position,
    /// Downlink carrier, Hz.
    pub carrier_hz: f64,
    /// Projector drive voltage amplitude, volts.
    pub drive_voltage_v: f64,
    /// Target uplink bitrate (quantized to the MCU divider grid), bps.
    pub bitrate_target_bps: f64,
    /// Recto-piezo match frequency, Hz.
    pub f_match_hz: f64,
    /// Node address.
    pub node_addr: u8,
    /// Image-method reflection order.
    pub max_reflections: usize,
    /// Ambient noise.
    pub noise: NoiseEnvironment,
    /// Extra multiplier on the ambient noise sigma (lets experiments sweep
    /// SNR without changing the environment model).
    // lint: unitless multiplier on ambient noise sigma
    pub noise_scale: f64,
    /// RNG seed (noise realisation).
    pub seed: u64,
    /// Sample rate, Hz.
    pub fs_hz: f64,
    /// Water conditions for the node's sensors.
    pub water: pab_sensors::WaterSample,
    /// Battery-assisted node (bypasses the harvesting power-up threshold;
    /// §1's future-work hybrid design).
    pub battery_assisted: bool,
    /// Extra selectable recto-piezo match frequencies on the node
    /// (§3.3.2's multi-matching-circuit extension; select over the air
    /// with `Command::SelectRectoPiezo`).
    pub extra_match_hz: Vec<f64>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            pool: Pool::pool_a(),
            projector_pos: Position::new(0.5, 1.5, 0.6),
            node_pos: Position::new(1.5, 1.5, 0.6),
            hydrophone_pos: Position::new(1.0, 1.2, 0.6),
            carrier_hz: 15_000.0,
            drive_voltage_v: 100.0,
            bitrate_target_bps: 2_048.0,
            f_match_hz: 15_000.0,
            node_addr: 7,
            max_reflections: 3,
            noise: NoiseEnvironment::quiet_tank(),
            noise_scale: 1.0,
            seed: 1,
            fs_hz: DEFAULT_SAMPLE_RATE_HZ,
            water: pab_sensors::WaterSample::bench(),
            battery_assisted: false,
            extra_match_hz: Vec::new(),
        }
    }
}

/// What happened during one link exchange.
#[derive(Debug)]
pub struct LinkReport {
    /// Whether the decoded packet's CRC passed.
    pub crc_ok: bool,
    /// The decoded packet (when CRC passed).
    pub packet: Option<UplinkPacket>,
    /// Receiver-estimated SNR of the backscatter modulation, dB.
    pub snr_db: f64,
    /// Whether the receiver found a packet preamble at all. `false` is an
    /// *erasure* — the MAC-level signal that the node may be dead or
    /// browned out, as opposed to `crc_ok == false` with a preamble
    /// (noisy but alive).
    pub preamble_found: bool,
    /// Peak preamble correlation in [0, 1] (0.0 on erasure) — the margin
    /// the MAC's link-quality estimator consumes.
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
    /// Whether the node powered up.
    pub node_powered_up: bool,
    /// Node's peak rectified voltage, volts.
    pub node_rectified_v: f64,
    /// Quantized uplink bitrate actually used, bps.
    pub bitrate_bps: f64,
    /// The node's average power during the exchange, watts.
    pub node_power_w: f64,
    /// Receiver envelope (diagnostics / Fig. 2-style plots).
    pub envelope: Vec<f64>,
    /// Raw recorded voltage waveform at the hydrophone (diagnostics).
    pub received: Vec<f64>,
    /// Node-side output (diagnostics).
    pub node_output: NodeOutput,
}

/// The lean verdict of one slot exchange — everything the MAC and the
/// faultnet bookkeeping consume, none of [`LinkReport`]'s waveform
/// diagnostics. Produced by [`LinkSimulator::slot_exchange`], whose
/// steady state never materialises the diagnostic buffers at all.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotVerdict {
    /// Whether the decoded packet's CRC passed.
    pub crc_ok: bool,
    /// Whether the receiver found a packet preamble (`false` = erasure).
    pub preamble_found: bool,
    /// Peak preamble correlation in [0, 1] (0.0 on erasure).
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
    /// Receiver-estimated SNR of the backscatter modulation, dB.
    pub snr_db: f64,
    /// Whether the node powered up.
    pub node_powered_up: bool,
    /// Node's peak rectified voltage, volts.
    pub node_rectified_v: f64,
    /// The node's average power during the exchange, watts.
    pub node_power_w: f64,
    /// Quantized uplink bitrate actually used, bps.
    pub bitrate_bps: f64,
    /// Length of the exchange's received window in samples (duration =
    /// `exchange_samples / fs_hz`).
    pub exchange_samples: usize,
    /// The decoded packet (when CRC passed).
    pub packet: Option<UplinkPacket>,
}

impl SlotVerdict {
    fn from_report(report: LinkReport) -> Self {
        SlotVerdict {
            crc_ok: report.crc_ok,
            preamble_found: report.preamble_found,
            preamble_corr: report.preamble_corr,
            snr_db: report.snr_db,
            node_powered_up: report.node_powered_up,
            node_rectified_v: report.node_rectified_v,
            node_power_w: report.node_power_w,
            bitrate_bps: report.bitrate_bps,
            exchange_samples: report.received.len(),
            packet: report.packet,
        }
    }
}

/// Slot-engine cache and arena counters (see
/// [`LinkSimulator::slot_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotEngineStats {
    /// Query-waveform cache hits.
    pub wave_hits: u64,
    /// Query-waveform cache misses (synthesis ran).
    pub wave_misses: u64,
    /// Clean-exchange cache hits (projector/channel/node chain skipped).
    pub exchange_hits: u64,
    /// Clean-exchange cache misses (full chain ran, result stored).
    pub exchange_misses: u64,
    /// Exchanges that bypassed the cache because a fade window overlapped
    /// the exchange (per-sample gains make the waveform time-dependent).
    pub bypasses: u64,
    /// Heap allocations observed across the engine stage of the most
    /// recent cache-hit exchange (scratch take → AWGN → burst → volts
    /// scaling, decode excluded). Reads 0 unless a counting global
    /// allocator feeds [`scratch::ALLOC_PROBE`], and must stay 0 when one
    /// does — that is the zero-allocation claim `tests/slot_engine_alloc.rs`
    /// pins.
    pub engine_allocs_last: u64,
    /// Scratch-arena buffers handed out.
    pub scratch_takes: u64,
    /// Scratch-arena takes that had to allocate (cold pool).
    pub scratch_pool_misses: u64,
}

impl SlotEngineStats {
    /// Accumulate another simulator's counters, for network-level totals
    /// (`engine_allocs_last` takes the max — it is a high-water probe,
    /// not a count).
    pub fn merge(&mut self, other: &SlotEngineStats) {
        self.wave_hits += other.wave_hits;
        self.wave_misses += other.wave_misses;
        self.exchange_hits += other.exchange_hits;
        self.exchange_misses += other.exchange_misses;
        self.bypasses += other.bypasses;
        self.engine_allocs_last = self.engine_allocs_last.max(other.engine_allocs_last);
        self.scratch_takes += other.scratch_takes;
        self.scratch_pool_misses += other.scratch_pool_misses;
    }
}

/// Stable cache identity of a `Command` (the enum carries no explicit
/// discriminants, so spell the mapping out here).
fn command_key(command: Command) -> (u8, u16) {
    match command {
        Command::Ping => (0, 0),
        Command::SetBitrateDivider(d) => (1, d),
        Command::SelectRectoPiezo(i) => (2, u16::from(i)),
        Command::ReadSensor(SensorKind::Ph) => (3, 0),
        Command::ReadSensor(SensorKind::Temperature) => (3, 1),
        Command::ReadSensor(SensorKind::Pressure) => (3, 2),
    }
}

/// Query-waveform cache key: everything the synthesized downlink depends
/// on that can vary between exchanges — destination, *responding node
/// address*, command, the node's commanded FM0 divider (through the
/// response window length) and the projector oscillator offset in force
/// (static CFO + drift), as bits.
///
/// The responder address matters because `dest` alone does not identify
/// the exchange once broadcast queries exist: every node answers
/// `BROADCAST_ADDR`, so entries keyed on the destination only would alias
/// across responders the moment these caches are shared or a simulator is
/// re-addressed.
type WaveKey = (u8, u8, (u8, u16), u16, u64);

/// Clean-exchange cache key: the wave key plus whether the node is
/// browned out for the window (the two variants superpose different
/// signals at the hydrophone).
type ExchKey = (u8, u8, (u8, u16), u16, u64, bool);

/// One memoized clean exchange: the noiseless hydrophone pressure
/// waveform plus the node-side summary the verdict reports. Valid
/// whenever no fade window overlaps the exchange — outside fade windows
/// the schedule's gain is exactly 1.0, so the cached samples are bitwise
/// what the full chain would recompute.
#[derive(Debug)]
struct CachedExchange {
    y_clean: Vec<f64>,
    powered_up: bool,
    rectified_v: f64,
    power_w: f64,
}

/// Bound on each cache's entry count: past this the whole map is cleared
/// (drift ramps insert one entry per distinct offset; wholesale clearing
/// keeps the worst case bounded without LRU bookkeeping).
const CACHE_CAP: usize = 16;

/// The link simulator.
///
/// The three propagation channels (projector→node, projector→hydrophone,
/// node→hydrophone) depend only on the configuration, so they are built
/// once here and reused across every query — the image-method search is
/// pure overhead when repeated per packet in a Monte-Carlo sweep. The
/// same reasoning extends to the slot engine's caches: the query
/// waveform and the whole clean (fade-free) exchange are pure functions
/// of the cache keys above, so steady-state slots skip synthesis, both
/// propagation legs and the node's signal chain entirely.
#[derive(Debug)]
pub struct LinkSimulator {
    cfg: LinkConfig,
    projector: Projector,
    node: PabNode,
    receiver: Receiver,
    rng: ChaCha8Rng,
    ch_pn: pab_channel::MultipathChannel,
    ch_ph: pab_channel::MultipathChannel,
    ch_nh: pab_channel::MultipathChannel,
    /// Ambient noise sigma at the carrier (pure function of the config;
    /// hoisted out of the per-exchange path).
    sigma_pa: f64,
    slot_cache_enabled: bool,
    scratch: Scratch,
    wave_cache: BTreeMap<WaveKey, Arc<Vec<f64>>>,
    exch_cache: BTreeMap<ExchKey, CachedExchange>,
    incident_cache: BTreeMap<WaveKey, Arc<Vec<f64>>>,
    stats: SlotEngineStats,
}

impl LinkSimulator {
    /// Build the simulator, designing the node front end and the
    /// propagation channels.
    pub fn new(cfg: LinkConfig) -> Result<Self, CoreError> {
        let mut projector = Projector::new(cfg.drive_voltage_v)?;
        projector.fs_hz = cfg.fs_hz;
        let mut node = PabNode::new(cfg.node_addr, cfg.f_match_hz)?;
        for &f in &cfg.extra_match_hz {
            node = node.with_extra_frontend(f)?;
        }
        node.battery_assisted = cfg.battery_assisted;
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(cfg.bitrate_target_bps)
            .map_err(CoreError::Mcu)?;
        node.default_divider = divider as u16;
        let receiver = Receiver::new(1.0e-3, cfg.fs_hz);
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let ch_pn = cfg.pool.channel(
            &cfg.projector_pos,
            &cfg.node_pos,
            cfg.max_reflections,
            cfg.carrier_hz,
        )?;
        let ch_ph = cfg.pool.channel(
            &cfg.projector_pos,
            &cfg.hydrophone_pos,
            cfg.max_reflections,
            cfg.carrier_hz,
        )?;
        let ch_nh = cfg.pool.channel(
            &cfg.node_pos,
            &cfg.hydrophone_pos,
            cfg.max_reflections,
            cfg.carrier_hz,
        )?;
        let sigma_pa = cfg.noise.rms_pressure_pa(cfg.carrier_hz, cfg.fs_hz / 2.0)?
            * cfg.noise_scale;
        Ok(LinkSimulator {
            cfg,
            projector,
            node,
            receiver,
            rng,
            ch_pn,
            ch_ph,
            ch_nh,
            sigma_pa,
            slot_cache_enabled: true,
            scratch: Scratch::new(),
            wave_cache: BTreeMap::new(),
            exch_cache: BTreeMap::new(),
            incident_cache: BTreeMap::new(),
            stats: SlotEngineStats::default(),
        })
    }

    /// Enable or disable the slot engine's waveform/exchange caches
    /// ([`slot_exchange`](Self::slot_exchange) falls back to the full
    /// per-exchange computation when disabled). On by default; the off
    /// switch exists so the bitwise cached-vs-uncached regression tests
    /// can compare both paths.
    pub fn set_slot_cache(&mut self, enabled: bool) {
        self.slot_cache_enabled = enabled;
        if !enabled {
            self.wave_cache.clear();
            self.exch_cache.clear();
            self.incident_cache.clear();
        }
    }

    /// Slot-engine cache and arena counters (diagnostics; the allocation
    /// test's evidence).
    pub fn slot_stats(&self) -> SlotEngineStats {
        SlotEngineStats {
            scratch_takes: self.scratch.takes(),
            scratch_pool_misses: self.scratch.pool_misses(),
            ..self.stats
        }
    }

    /// The receiver's decimating front-end counters (fused
    /// mix→filter→decimate work, MACs saved, design cache hits).
    pub fn frontend_stats(&self) -> crate::receiver::FrontEndStats {
        self.receiver.frontend_stats()
    }

    /// The configuration in use.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Mutable access to the node (tune thresholds, add front ends).
    pub fn node_mut(&mut self) -> &mut PabNode {
        &mut self.node
    }

    /// Mutable access to the projector (PWM timing, CFO).
    pub fn projector_mut(&mut self) -> &mut Projector {
        &mut self.projector
    }

    /// The quantized bitrate the node will use.
    pub fn bitrate_bps(&self) -> f64 {
        Clock::watch_crystal()
            .bitrate_for_divider(self.node.default_divider as u64)
            // lint: allow(no-unwrap-in-lib) default_divider is validated non-zero at construction
            .expect("divider >= 1")
    }

    /// Retune the node's uplink bitrate to the nearest watch-crystal
    /// divider (the rate-ladder actuation path: the coordinator commands
    /// a slower FM0 rate, the node reprograms its divider).
    pub fn set_bitrate_target(&mut self, bitrate_bps: f64) -> Result<(), CoreError> {
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(bitrate_bps)
            .map_err(CoreError::Mcu)?;
        self.node.default_divider = divider as u16;
        Ok(())
    }

    /// Expected response duration for a query, seconds.
    fn response_window_s(&self, payload_len: usize) -> f64 {
        let bits = UplinkPacket::bits_len(payload_len) as f64;
        // guard + packet + margin
        5e-3 + bits / self.bitrate_bps() + 30e-3
    }

    /// Run one query/response exchange with an arbitrary command,
    /// addressed to the configured node, over a fault-free channel.
    pub fn run_query(&mut self, command: Command) -> Result<LinkReport, CoreError> {
        self.run_query_to_faulted(self.cfg.node_addr, command, &FaultSchedule::default(), 0.0)
    }

    /// Run one query/response exchange addressed to `dest` with a
    /// [`FaultSchedule`](pab_channel::FaultSchedule) applied at the sample
    /// level, the exchange starting at absolute simulation time
    /// `t_start_s`:
    ///
    /// * **drift** offsets the projector's oscillator for the exchange
    ///   (restored afterwards), on top of any configured static CFO;
    /// * **fades** scale the node's path gain per sample, on both the
    ///   downlink (projector→node) and uplink (node→hydrophone) legs —
    ///   the direct projector→hydrophone path is geometry the fade does
    ///   not model and stays clean;
    /// * **dropouts** brown the node out: it neither decodes nor
    ///   backscatters if the window overlaps the exchange;
    /// * **bursts** add broadband noise at the hydrophone after ambient
    ///   AWGN, keyed on absolute sample index so same-seed runs are
    ///   bit-identical however slots are scheduled.
    pub fn run_query_to_faulted(
        &mut self,
        dest: u8,
        command: Command,
        faults: &pab_channel::FaultSchedule,
        t_start_s: f64,
    ) -> Result<LinkReport, CoreError> {
        let fs_hz = self.cfg.fs_hz;
        let payload_len = match command {
            Command::ReadSensor(_) => 4,
            _ => 0,
        };
        let query = DownlinkQuery { dest, command };
        let cw_tail = self.response_window_s(payload_len);

        let drift_hz = faults.drift_at_hz(t_start_s);
        let saved_cfo_hz = self.projector.cfo_hz;
        self.projector.cfo_hz += drift_hz;
        let wave = self
            .projector
            .query_waveform(&query, self.cfg.carrier_hz, cw_tail);
        self.projector.cfo_hz = saved_cfo_hz;
        let (tx_wave, _query_end) = wave?;
        let incident = self.ch_pn.apply(&tx_wave, fs_hz);
        self.faulted_tail(faults, t_start_s, &tx_wave, incident)
    }

    /// The faulted exchange chain downstream of query synthesis and the
    /// clean downlink propagation: fade gains, node (or brown-out),
    /// uplink superposition, noise, decode. Split out so the slot
    /// engine's fade-bypass path can reuse the memoized query waveform
    /// and clean incident instead of recomputing them — the arithmetic
    /// from here on is identical either way.
    fn faulted_tail(
        &mut self,
        faults: &pab_channel::FaultSchedule,
        t_start_s: f64,
        tx_wave: &[f64],
        mut incident: Vec<f64>,
    ) -> Result<LinkReport, CoreError> {
        let fs_hz = self.cfg.fs_hz;
        // Downlink leg, with the fade's time-varying gain on the node path.
        if !faults.is_quiet() {
            for (i, s) in incident.iter_mut().enumerate() {
                *s *= faults.gain_at(t_start_s + i as f64 / fs_hz);
            }
        }

        // A brown-out anywhere in the exchange silences the node: it
        // cannot hold charge through the window, so nothing decodes and
        // nothing backscatters (the receiver will report an erasure).
        let window_s = tx_wave.len() as f64 / fs_hz;
        let node_out = if faults.node_down_during(t_start_s, t_start_s + window_s) {
            NodeOutput {
                powered_up: false,
                rectified_v: 0.0,
                switch_wave: vec![false; incident.len()],
                backscatter: vec![vec![0.0; incident.len()]],
                powered_at_s: None,
                decoded_query: None,
                responses_sent: 0,
                bitrate_bps: self.bitrate_bps(),
                average_power_w: 0.0,
            }
        } else {
            self.node.process(
                &[IncidentComponent {
                    carrier_hz: self.cfg.carrier_hz,
                    samples: incident,
                }],
                fs_hz,
                Some(self.cfg.water),
            )?
        };

        // Uplink leg: fade the backscatter source, then superpose with the
        // clean direct path at the hydrophone.
        let mut backscatter = node_out.backscatter[0].clone();
        if !faults.is_quiet() {
            for (i, s) in backscatter.iter_mut().enumerate() {
                *s *= faults.gain_at(t_start_s + i as f64 / fs_hz);
            }
        }
        let margin = margin_samples(fs_hz)?;
        let n_rx = backscatter.len() + margin;
        let mut y = vec![0.0; n_rx];
        self.ch_ph.apply_into(&mut y, &tx_wave, fs_hz);
        self.ch_nh.apply_into(&mut y, &backscatter, fs_hz);

        add_awgn(&mut y, self.sigma_pa, &mut self.rng);
        faults.add_burst_noise(&mut y, t_start_s, fs_hz);

        let recorded = self.receiver.record(&y);
        let bitrate = self.bitrate_bps();
        let decoded = self
            .receiver
            .decode_uplink(&recorded, self.cfg.carrier_hz, bitrate);
        Ok(self.build_report(node_out, decoded, bitrate, recorded))
    }

    /// Run one fault-scheduled slot exchange through the caching slot
    /// engine, returning the lean [`SlotVerdict`] instead of a full
    /// [`LinkReport`].
    ///
    /// Semantics are identical to
    /// [`run_query_to_faulted`](Self::run_query_to_faulted)
    /// — bitwise, including the RNG stream (ambient noise draws exactly
    /// `exchange_samples` normals either way) — but the steady state is
    /// radically cheaper:
    ///
    /// * the **query waveform** is memoized on `(dest, responder address,
    ///   command, divider, oscillator offset)`, so synthesis runs once per
    ///   distinct key. The responder address is part of the key because a
    ///   broadcast `dest` is answered by *every* node — keying on the
    ///   destination alone would let broadcast exchanges alias across
    ///   responders;
    /// * the whole **clean exchange** (downlink propagation → node →
    ///   uplink superposition at the hydrophone, before noise) is
    ///   memoized on the same key plus the brown-out flag. Outside fade
    ///   windows the fault gain is exactly 1.0 and multiplying by 1.0 is
    ///   the identity on every `f64`, so the memo stays valid under any
    ///   schedule whose fade windows miss the exchange; fade-overlapped
    ///   exchanges bypass the cache and run the full chain. Drift ramps
    ///   participate through the key (the offset in force at the
    ///   exchange start), hitting once a clamped ramp saturates.
    /// * On a cache hit, the only per-exchange work before decoding is a
    ///   scratch-arena copy of the memoized waveform, in-place AWGN and
    ///   burst noise, and the in-place pressure→volts scaling — zero
    ///   heap allocations, pinned by `tests/slot_engine_alloc.rs`.
    ///
    /// AWGN is drawn fresh per exchange (never cached), so cached and
    /// uncached runs consume identical RNG streams and produce identical
    /// verdicts.
    ///
    /// This is the one place the receiver's verdict is traced: `tel`
    /// receives the `rx.detections` / `rx.crc_fails` / `rx.erasures`
    /// counters and the preamble-correlation and SNR histograms, whichever
    /// path (cache hit, fade bypass, cache off) produced the verdict. They
    /// are aggregates; per-node attribution is the MAC's and the network
    /// simulator's job.
    pub fn slot_exchange(
        &mut self,
        dest: u8,
        command: Command,
        faults: &FaultSchedule,
        t_start_s: f64,
        tel: Option<&mut pab_telemetry::Recorder>,
    ) -> Result<SlotVerdict, CoreError> {
        let verdict = self.slot_verdict(dest, command, faults, t_start_s)?;
        if let Some(t) = tel {
            if !verdict.preamble_found {
                t.inc("rx.erasures");
            } else {
                t.inc(if verdict.crc_ok { "rx.detections" } else { "rx.crc_fails" });
                t.observe("rx.preamble_corr", 0.0, 1.0, 20, verdict.preamble_corr);
                t.observe("rx.snr_db", -10.0, 40.0, 25, verdict.snr_db);
            }
        }
        Ok(verdict)
    }

    /// The untraced body of [`slot_exchange`](Self::slot_exchange).
    fn slot_verdict(
        &mut self,
        dest: u8,
        command: Command,
        faults: &FaultSchedule,
        t_start_s: f64,
    ) -> Result<SlotVerdict, CoreError> {
        let fs_hz = self.cfg.fs_hz;
        if !self.slot_cache_enabled {
            let report = self.run_query_to_faulted(dest, command, faults, t_start_s)?;
            return Ok(SlotVerdict::from_report(report));
        }

        let payload_len = match command {
            Command::ReadSensor(_) => 4,
            _ => 0,
        };
        let cw_tail = self.response_window_s(payload_len);
        let cfo_hz = self.projector.cfo_hz + faults.drift_at_hz(t_start_s);
        let divider = self.node.default_divider;
        let ck = command_key(command);
        let wkey: WaveKey = (dest, self.cfg.node_addr, ck, divider, cfo_hz.to_bits());

        let tx_wave: Arc<Vec<f64>> = match self.wave_cache.get(&wkey) {
            Some(w) => {
                self.stats.wave_hits += 1;
                Arc::clone(w)
            }
            None => {
                self.stats.wave_misses += 1;
                let saved_cfo_hz = self.projector.cfo_hz;
                self.projector.cfo_hz = cfo_hz;
                let wave = self.projector.query_waveform(
                    &DownlinkQuery { dest, command },
                    self.cfg.carrier_hz,
                    cw_tail,
                );
                self.projector.cfo_hz = saved_cfo_hz;
                let (w, _query_end) = wave?;
                let w = Arc::new(w);
                if self.wave_cache.len() >= CACHE_CAP {
                    self.wave_cache.clear();
                }
                self.wave_cache.insert(wkey, Arc::clone(&w));
                w
            }
        };

        let window_s = tx_wave.len() as f64 / fs_hz;
        let down = faults.node_down_during(t_start_s, t_start_s + window_s);
        if faults.fade_active_during(t_start_s, t_start_s + window_s) {
            // Per-sample fade gains make the exchange time-dependent, so
            // the post-node chain must run in full — but the query
            // waveform above and the clean downlink propagation are still
            // pure functions of the wave key, so reuse both and only pay
            // for the fade-dependent stages.
            self.stats.bypasses += 1;
            let incident: Arc<Vec<f64>> = match self.incident_cache.get(&wkey) {
                Some(v) => Arc::clone(v),
                None => {
                    let v = Arc::new(self.ch_pn.apply(&tx_wave, fs_hz));
                    if self.incident_cache.len() >= CACHE_CAP {
                        self.incident_cache.clear();
                    }
                    self.incident_cache.insert(wkey, Arc::clone(&v));
                    v
                }
            };
            let report =
                self.faulted_tail(faults, t_start_s, &tx_wave, incident.as_ref().clone())?;
            return Ok(SlotVerdict::from_report(report));
        }

        let ekey: ExchKey = (dest, self.cfg.node_addr, ck, divider, cfo_hz.to_bits(), down);
        if !self.exch_cache.contains_key(&ekey) {
            self.stats.exchange_misses += 1;
            let entry = self.compute_clean_exchange(&tx_wave, down)?;
            if self.exch_cache.len() >= CACHE_CAP {
                self.exch_cache.clear();
            }
            self.exch_cache.insert(ekey, entry);
        } else {
            self.stats.exchange_hits += 1;
        }

        let bitrate = self.bitrate_bps();

        // ---- engine+decode stage: zero heap allocations once the
        // scratch arena, the receiver's decode scratch and its front-end
        // design cache are warm (the telemetry recorder, which may grow
        // its own tables, is fed only after this stage in `slot_exchange`).
        // Pinned by `tests/slot_engine_alloc.rs`.
        let probe0 = scratch::alloc_probe();
        let (mut y, powered_up, rectified_v, power_w) = {
            let (cache, pool) = (&self.exch_cache, &mut self.scratch);
            // lint: allow(no-unwrap-in-lib) inserted above under the same key
            let entry = cache.get(&ekey).expect("exchange entry just ensured");
            let mut y = pool.take(entry.y_clean.len());
            y.copy_from_slice(&entry.y_clean);
            (y, entry.powered_up, entry.rectified_v, entry.power_w)
        };
        add_awgn(&mut y, self.sigma_pa, &mut self.rng);
        faults.add_burst_noise(&mut y, t_start_s, fs_hz);
        // Receiver::record, in place: the hydrophone scaling is a pure
        // per-sample multiply.
        let sensitivity = self.receiver.sensitivity_v_per_pa;
        for s in y.iter_mut() {
            *s *= sensitivity;
        }
        let decoded = self
            .receiver
            .decode_uplink_verdict(&y, self.cfg.carrier_hz, bitrate);
        let exchange_samples = y.len();
        self.scratch.put(y);
        self.stats.engine_allocs_last = scratch::alloc_probe().saturating_sub(probe0);
        // ---- end engine+decode stage.

        Ok(match decoded {
            Ok(d) => SlotVerdict {
                crc_ok: d.packet.is_ok(),
                preamble_found: true,
                preamble_corr: d.preamble_corr,
                snr_db: d.snr_db,
                node_powered_up: powered_up,
                node_rectified_v: rectified_v,
                node_power_w: power_w,
                bitrate_bps: bitrate,
                exchange_samples,
                packet: d.packet.ok(),
            },
            Err(_) => SlotVerdict {
                crc_ok: false,
                preamble_found: false,
                preamble_corr: 0.0,
                snr_db: f64::NEG_INFINITY,
                node_powered_up: powered_up,
                node_rectified_v: rectified_v,
                node_power_w: power_w,
                bitrate_bps: bitrate,
                exchange_samples,
                packet: None,
            },
        })
    }

    /// The fade-free exchange chain for one cache key: downlink
    /// propagation, node processing (or the browned-out zero response)
    /// and the noiseless superposition at the hydrophone. Bitwise what
    /// [`run_query_to_faulted`](Self::run_query_to_faulted)
    /// computes for the same inputs when no fade window overlaps — the
    /// gain multiplies it would apply are all by exactly 1.0.
    fn compute_clean_exchange(
        &mut self,
        tx_wave: &[f64],
        down: bool,
    ) -> Result<CachedExchange, CoreError> {
        let fs_hz = self.cfg.fs_hz;
        let margin = margin_samples(fs_hz)?;
        let incident_len = self.ch_pn.output_len(tx_wave.len(), fs_hz);
        if down {
            // The browned-out node backscatters silence; only the direct
            // projector→hydrophone path reaches the receiver. (The full
            // path superposes an all-zero backscatter buffer; replicate
            // that exactly, signed zeros included.)
            let zeros = vec![0.0; incident_len];
            let mut y = vec![0.0; incident_len + margin];
            self.ch_ph.apply_into(&mut y, tx_wave, fs_hz);
            self.ch_nh.apply_into(&mut y, &zeros, fs_hz);
            return Ok(CachedExchange {
                y_clean: y,
                powered_up: false,
                rectified_v: 0.0,
                power_w: 0.0,
            });
        }
        let incident = self.ch_pn.apply(tx_wave, fs_hz);
        let node_out = self.node.process(
            &[IncidentComponent {
                carrier_hz: self.cfg.carrier_hz,
                samples: incident,
            }],
            fs_hz,
            Some(self.cfg.water),
        )?;
        let mut y = vec![0.0; node_out.backscatter[0].len() + margin];
        self.ch_ph.apply_into(&mut y, tx_wave, fs_hz);
        self.ch_nh
            .apply_into(&mut y, &node_out.backscatter[0], fs_hz);
        Ok(CachedExchange {
            y_clean: y,
            powered_up: node_out.powered_up,
            rectified_v: node_out.rectified_v,
            power_w: node_out.average_power_w,
        })
    }

    fn build_report(
        &self,
        node_out: NodeOutput,
        decoded: Result<Decoded, CoreError>,
        bitrate: f64,
        received: Vec<f64>,
    ) -> LinkReport {
        match decoded {
            Ok(d) => {
                let crc_ok = d.packet.is_ok();
                let packet = d.packet.ok();
                LinkReport {
                    crc_ok,
                    packet,
                    snr_db: d.snr_db,
                    preamble_found: true,
                    preamble_corr: d.preamble_corr,
                    node_powered_up: node_out.powered_up,
                    node_rectified_v: node_out.rectified_v,
                    bitrate_bps: bitrate,
                    node_power_w: node_out.average_power_w,
                    envelope: d.envelope,
                    received,
                    node_output: node_out,
                }
            }
            Err(_) => LinkReport {
                crc_ok: false,
                packet: None,
                snr_db: f64::NEG_INFINITY,
                preamble_found: false,
                preamble_corr: 0.0,
                node_powered_up: node_out.powered_up,
                node_rectified_v: node_out.rectified_v,
                bitrate_bps: bitrate,
                node_power_w: node_out.average_power_w,
                envelope: Vec::new(),
                received,
                node_output: node_out,
            },
        }
    }

    /// Fig. 2 reproduction: CW downlink, node toggling every
    /// `half_period_s` starting `toggle_start_s` after the projector
    /// begins at `projector_start_s`. Returns the receiver's demodulated
    /// envelope over `total_s`.
    pub fn run_fig2(
        &mut self,
        total_s: f64,
        projector_start_s: f64,
        toggle_start_s: f64,
        half_period_s: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let fs_hz = self.cfg.fs_hz;
        let n = (total_s * fs_hz).floor() as usize;
        let cw = self
            .projector
            .continuous_wave(self.cfg.carrier_hz, total_s - projector_start_s);
        let mut tx = vec![0.0; n];
        let off = (projector_start_s * fs_hz).floor() as usize;
        for (i, &s) in cw.iter().enumerate() {
            if off + i < n {
                tx[off + i] = s;
            }
        }
        let incident = self.ch_pn.apply(&tx, fs_hz);
        let comp = IncidentComponent {
            carrier_hz: self.cfg.carrier_hz,
            samples: incident,
        };
        let node_out =
            self.node
                .process_fixed_toggle(&comp, fs_hz, toggle_start_s, half_period_s)?;
        let mut y = vec![0.0; n];
        self.ch_ph.apply_into(&mut y, &tx, fs_hz);
        self.ch_nh
            .apply_into(&mut y, &node_out.backscatter[0], fs_hz);
        add_awgn(&mut y, self.sigma_pa, &mut self.rng);
        let recorded = self.receiver.record(&y);
        self.receiver
            .demodulate(&recorded, self.cfg.carrier_hz, 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_link_delivers_a_sensor_packet() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let report = sim.run_query(Command::ReadSensor(SensorKind::Ph)).unwrap();
        assert!(report.node_powered_up, "rect_v={}", report.node_rectified_v);
        assert!(report.crc_ok, "snr={} dB", report.snr_db);
        let packet = report.packet.unwrap();
        assert_eq!(packet.src, 7);
        let ph = packet.sensor_value().unwrap();
        // ADC quantization + Nernst-slope temperature mismatch allow a
        // small deviation around the true pH 7.
        assert!((ph - 7.0).abs() < 0.2, "ph={ph}");
    }

    #[test]
    fn ping_roundtrip() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(report.crc_ok);
        assert_eq!(
            report.packet.unwrap().kind,
            pab_net::packet::UplinkKind::Ack
        );
    }

    #[test]
    fn snr_is_positive_at_one_meter() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(report.snr_db > 5.0, "snr={}", report.snr_db);
    }

    #[test]
    fn heavy_noise_breaks_the_link() {
        let cfg = LinkConfig {
            noise_scale: 100_000.0,
            ..Default::default()
        };
        let mut sim = LinkSimulator::new(cfg).unwrap();
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(!report.crc_ok);
    }

    #[test]
    fn weak_drive_fails_to_power_node() {
        let cfg = LinkConfig {
            drive_voltage_v: 1.0,
            ..Default::default()
        };
        let mut sim = LinkSimulator::new(cfg).unwrap();
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(!report.node_powered_up);
        assert!(!report.crc_ok);
    }

    #[test]
    fn fig2_envelope_shows_projector_then_backscatter() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let env = sim.run_fig2(1.2, 0.2, 0.6, 0.1).unwrap();
        let fs_hz = sim.config().fs_hz;
        // Quiet before the projector starts.
        let before = pab_dsp::stats::mean(&env[..(0.15 * fs_hz) as usize]);
        // Constant after the projector is on but before backscatter.
        let during_cw = pab_dsp::stats::mean(&env[(0.3 * fs_hz) as usize..(0.55 * fs_hz) as usize]);
        assert!(during_cw > 10.0 * before.max(1e-12));
        // Alternation after backscatter begins: std dev rises.
        let bs_region = &env[(0.65 * fs_hz) as usize..(1.15 * fs_hz) as usize];
        let cw_region = &env[(0.3 * fs_hz) as usize..(0.55 * fs_hz) as usize];
        assert!(
            pab_dsp::stats::std_dev(bs_region) > 3.0 * pab_dsp::stats::std_dev(cw_region),
            "bs std {} vs cw std {}",
            pab_dsp::stats::std_dev(bs_region),
            pab_dsp::stats::std_dev(cw_region)
        );
    }

    #[test]
    fn link_survives_projector_cfo() {
        // Footnote 12: the projector and hydrophone run on different
        // oscillators. A 40 Hz offset on a 15 kHz carrier must still
        // decode thanks to the receiver's CFO estimation.
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        sim.projector_mut().cfo_hz = 40.0;
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(report.crc_ok, "CFO broke the link (snr {})", report.snr_db);
    }

    #[test]
    fn run_query_to_other_address_gets_no_response() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let report = sim
            .run_query_to_faulted(99, Command::Ping, &FaultSchedule::default(), 0.0)
            .unwrap();
        assert_eq!(report.node_output.responses_sent, 0);
        assert!(!report.crc_ok);
    }

    #[test]
    fn broadcast_slot_exchange_keys_the_cache_on_the_responder() {
        // Broadcast queries are answered by every node, so the slot-engine
        // cache key must carry the responder's address, not just `dest` —
        // otherwise two responders' broadcast exchanges share a key and a
        // cached entry from one would be replayed for the other. Regression
        // for the key including `node_addr`: each responder must decode its
        // *own* packet on both the cold (miss) and warm (hit) path.
        let faults = pab_channel::FaultSchedule::default();
        for addr in [7u8, 9] {
            let cfg = LinkConfig {
                node_addr: addr,
                ..Default::default()
            };
            let mut sim = LinkSimulator::new(cfg).unwrap();
            let cold = sim
                .slot_exchange(
                    pab_net::packet::BROADCAST_ADDR,
                    Command::Ping,
                    &faults,
                    0.0,
                    None,
                )
                .unwrap();
            let warm = sim
                .slot_exchange(
                    pab_net::packet::BROADCAST_ADDR,
                    Command::Ping,
                    &faults,
                    1.0,
                    None,
                )
                .unwrap();
            assert!(cold.crc_ok, "addr {addr}: cold broadcast exchange failed");
            assert!(warm.crc_ok, "addr {addr}: warm broadcast exchange failed");
            assert_eq!(cold.packet.unwrap().src, addr);
            assert_eq!(warm.packet.unwrap().src, addr);
            let stats = sim.slot_stats();
            assert_eq!(stats.wave_misses, 1, "addr {addr}: {stats:?}");
            assert_eq!(stats.wave_hits, 1, "addr {addr}: {stats:?}");
            assert_eq!(stats.exchange_hits, 1, "addr {addr}: {stats:?}");
        }
    }

    #[test]
    fn quiet_fault_schedule_changes_nothing() {
        let faults = pab_channel::FaultSchedule::default();
        let mut a = LinkSimulator::new(LinkConfig::default()).unwrap();
        let mut b = LinkSimulator::new(LinkConfig::default()).unwrap();
        let clean = a.run_query(Command::Ping).unwrap();
        let faulted = b
            .run_query_to_faulted(7, Command::Ping, &faults, 12.5)
            .unwrap();
        assert!(faulted.crc_ok);
        assert!(faulted.preamble_found);
        assert_eq!(clean.received, faulted.received, "bit-identical waveform");
    }

    #[test]
    fn dropout_window_produces_an_erasure() {
        let faults = pab_channel::FaultSchedule::new(3)
            .with_dropout(pab_channel::DropoutWindow {
                start_s: 10.0,
                duration_s: 60.0,
            })
            .unwrap();
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        // Inside the window: erasure (no preamble at all), not a CRC fail.
        let report = sim
            .run_query_to_faulted(7, Command::Ping, &faults, 30.0)
            .unwrap();
        assert!(!report.node_powered_up);
        assert!(!report.preamble_found, "brown-out must erase, corr={}", report.preamble_corr);
        // Outside the window the link is healthy again.
        let report = sim
            .run_query_to_faulted(7, Command::Ping, &faults, 80.0)
            .unwrap();
        assert!(report.crc_ok);
    }

    #[test]
    fn deep_fade_breaks_the_link_only_inside_the_window() {
        let faults = pab_channel::FaultSchedule::new(4)
            .with_fade(pab_channel::PathFade {
                start_s: 0.0,
                duration_s: 1000.0,
                floor_ratio: 1e-4,
            })
            .unwrap();
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        // Mid-fade (gain ~1e-4): the node cannot even power up.
        let report = sim
            .run_query_to_faulted(7, Command::Ping, &faults, 500.0)
            .unwrap();
        assert!(!report.crc_ok);
        // Past the fade: healthy.
        let report = sim
            .run_query_to_faulted(7, Command::Ping, &faults, 1500.0)
            .unwrap();
        assert!(report.crc_ok);
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_invocations() {
        let faults = pab_channel::FaultSchedule::new(9)
            .with_burst(pab_channel::BroadbandBurst {
                start_s: 0.0,
                duration_s: 5.0,
                rms_pa: 0.05,
            })
            .unwrap();
        let run = || {
            let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
            let r = sim
                .run_query_to_faulted(7, Command::Ping, &faults, 0.5)
                .unwrap();
            r.received
        };
        assert_eq!(run(), run(), "fault layer must honor the determinism contract");
    }

    #[test]
    fn bitrate_quantization_reported() {
        let cfg = LinkConfig {
            bitrate_target_bps: 3_000.0,
            ..Default::default()
        };
        let sim = LinkSimulator::new(cfg).unwrap();
        // 3000 bps quantizes to 32768/(2·6) = 2730.67.
        assert!((sim.bitrate_bps() - 2730.67).abs() < 0.1);
    }
}
