//! The §3.3.2 / Fig. 10 collision decoder: a k-node group backscatters
//! concurrently into one query slot and the reader separates the
//! collision by zero-forcing over per-band channel estimates
//! ([`crate::collision`]).
//!
//! [`CollisionGroupSimulator`] is the one engine that trains, collides
//! and zero-forces. It runs on a [`CollisionGroupConfig`] (geometry plus
//! per-member carrier, position and optional ceramic resonance):
//!
//! * **training** runs one addressed slot per member (query on its own
//!   carrier, continuous wave on the others) and estimates the k×k
//!   band-major complex affine channel matrix;
//! * **conditioning** is checked against the MAC's
//!   [`CollisionPolicy`](pab_net::mac::CollisionPolicy) gate before any
//!   collision is attempted — an ill-conditioned geometry reports its
//!   condition number and the round falls back to FDMA;
//! * **collision slots** transmit one query per member carrier, every
//!   member answers concurrently, and the k separated streams each run
//!   the receiver's envelope decode + CRC so the MAC can account
//!   per-stream verdicts individually. The faultnet slot loop sends one *broadcast*
//!   query ([`BROADCAST_ADDR`](pab_net::packet::BROADCAST_ADDR)) on every
//!   carrier ([`collision_slot`](CollisionGroupSimulator::collision_slot));
//!   Fig. 10 sends each member its own addressed query.
//!
//! [`run_trial`](CollisionGroupSimulator::run_trial) runs training plus
//! one collision and reports per-stream SINR before and after projection:
//! the Fig. 10 experiment and the §8 three-channel extension are both
//! trials on differently configured groups.
//! [`CollisionGroupSimulator::new`] builds a group from a
//! [`FaultNetConfig`](crate::faultnet::FaultNetConfig) so the
//! fault-injected MAC round can schedule collision slots
//! opportunistically.
//!
//! Determinism: the group owns a ChaCha8 RNG seeded from the config's
//! seed (for faultnet groups, derived from the network seed and the
//! member addresses), every slot runs inline (never fanned through the
//! parallel engine), and AWGN is drawn in slot order — so same-seed runs
//! are bit-identical regardless of `parallel_slots`.
//!
//! The noiseless part of a slot (synthesis, the k² downlink channels,
//! the k node simulations and the superposition at the hydrophone) is
//! memoised per slot plan: the key is, per member carrier, the query it
//! carries as `(dest, command)` or continuous wave, plus the members' FM0
//! divider. The memo is valid because [`PabNode::process`] takes `&self`
//! and boots fresh firmware on each call, the divider is the group's only
//! mutator and sits in the key, and the faultnet viability gate keeps
//! members in fault windows out of collision slots. It is bounded like
//! the link's caches (cleared when it reaches `CACHE_CAP` entries). A
//! hit still draws AWGN from the group's stream (as many draws as a
//! miss), then runs the receive chain, so cached and uncached slots are
//! bit-identical. Every receive stage runs on the receiver's memoised
//! per-bitrate front-end ([`Receiver::demodulate_complex`] and
//! [`Receiver::decode_envelope`]): each band takes its mix→filter stage at
//! the full rate, and after zero-forcing each stream takes its
//! anti-alias decimator, trend filter and preamble template ahead of the
//! slicer, so no filter is designed per slot.

use crate::collision::{
    aligned_sinr_db, condition_number_n, estimate_channel_complex, naive_stream_estimate,
    zero_force_n_complex, ComplexAffineChannel,
};
use crate::faultnet::FaultNetConfig;
use crate::link::command_key;
use crate::node::{IncidentComponent, PabNode};
use crate::projector::Projector;
use crate::receiver::Receiver;
use crate::{CoreError, CACHE_CAP, DEFAULT_SAMPLE_RATE_HZ};
use num_complex::Complex64;
use pab_channel::noise::{add_awgn, NoiseEnvironment};
use pab_channel::{MultipathChannel, Pool, Position};
use pab_mcu::Clock;
use pab_net::packet::{Command, DownlinkQuery, UplinkPacket, BROADCAST_ADDR};
use pab_sweep::derive_seed;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One member's place in the group's FDMA plan.
#[derive(Debug, Clone)]
pub struct MemberPlacement {
    /// Node address (also its identity in verdicts).
    pub addr: u8,
    /// Recto-piezo match frequency = its FDMA channel, Hz.
    pub carrier_hz: f64,
    /// Position in the pool.
    pub position: Position,
    /// Geometric (ceramic) resonance for this node, Hz. `None` uses the
    /// paper's standard ~16.5 kHz cylinder; setting it per node models
    /// differently sized ceramics (the §8 scaling remedy).
    pub ceramic_resonance_hz: Option<f64>,
}

/// Configuration of one collision group.
#[derive(Debug, Clone)]
pub struct CollisionGroupConfig {
    /// The tank.
    pub pool: Pool,
    /// Projector position.
    pub projector_pos: Position,
    /// Hydrophone position.
    pub hydrophone_pos: Position,
    /// Image-method reflection order.
    pub max_reflections: usize,
    /// The members, in channel order (at least two).
    pub members: Vec<MemberPlacement>,
    /// Projector drive voltage per carrier, volts.
    pub drive_voltage_v: f64,
    /// Target uplink bitrate, bps.
    pub bitrate_target_bps: f64,
    /// Ambient noise.
    pub noise: NoiseEnvironment,
    /// Noise sigma multiplier.
    // lint: unitless multiplier on ambient noise sigma
    pub noise_scale: f64,
    /// Seed of the group's noise RNG, used as given.
    pub seed: u64,
    /// Sample rate, Hz.
    pub fs_hz: f64,
}

impl CollisionGroupConfig {
    /// The paper's Fig. 10 setup: two recto-piezo nodes matched to 15 and
    /// 18 kHz on the standard ceramic, in Pool A.
    pub fn fig10() -> Self {
        let member = |addr, carrier_hz, position| MemberPlacement {
            addr,
            carrier_hz,
            position,
            ceramic_resonance_hz: None,
        };
        CollisionGroupConfig {
            pool: Pool::pool_a(),
            projector_pos: Position::new(0.5, 1.5, 0.6),
            hydrophone_pos: Position::new(1.0, 1.5, 0.5),
            max_reflections: 3,
            members: vec![
                member(1, 15_000.0, Position::new(1.6, 1.0, 0.6)),
                member(2, 18_000.0, Position::new(1.4, 2.0, 0.7)),
            ],
            drive_voltage_v: 140.0,
            bitrate_target_bps: 1_024.0,
            noise: NoiseEnvironment::quiet_tank(),
            noise_scale: 1.0,
            seed: 7,
            fs_hz: DEFAULT_SAMPLE_RATE_HZ,
        }
    }

    /// The §8 scaling extension: three nodes on differently sized
    /// ceramics (13/16/19.5 kHz) serving 12.5/15.5/19 kHz channels.
    pub fn three_channel() -> Self {
        let member = |addr, carrier_hz, position, ceramic_hz| MemberPlacement {
            addr,
            carrier_hz,
            position,
            ceramic_resonance_hz: Some(ceramic_hz),
        };
        CollisionGroupConfig {
            hydrophone_pos: Position::new(1.3, 1.5, 0.7),
            members: vec![
                member(1, 12_500.0, Position::new(1.6, 1.0, 0.6), 13_000.0),
                member(2, 15_500.0, Position::new(1.4, 2.0, 0.7), 16_000.0),
                member(3, 19_000.0, Position::new(1.8, 1.8, 0.6), 19_500.0),
            ],
            drive_voltage_v: 160.0,
            seed: 11,
            ..Self::fig10()
        }
    }
}

/// Outcome of the per-member training pass.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// Condition number of the estimated k×k channel matrix.
    // lint: unitless condition number (ratio of singular values)
    pub condition_number: f64,
    /// Simulated time the k training slots consumed, seconds.
    pub elapsed_s: f64,
}

/// One separated stream's verdict from a collision slot.
#[derive(Debug, Clone)]
pub struct StreamVerdict {
    /// The member address the stream belongs to.
    pub addr: u8,
    /// Whether the envelope decoder found a preamble in the stream.
    pub preamble_found: bool,
    /// Whether the packet passed CRC.
    pub crc_ok: bool,
    /// Preamble correlation peak (detection margin).
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
    /// Decoder SNR estimate, dB.
    pub snr_db: f64,
    /// The decoded packet when CRC passed.
    pub packet: Option<UplinkPacket>,
    /// Node-side average harvested power during the slot, watts.
    pub power_w: f64,
    /// Node-side rectified capacitor voltage at slot end, volts.
    pub rectified_v: f64,
}

/// Outcome of one broadcast collision slot.
#[derive(Debug, Clone)]
pub struct CollisionOutcome {
    /// Per-member verdicts, in member (channel) order.
    pub verdicts: Vec<StreamVerdict>,
    /// Simulated duration of the slot, seconds.
    pub elapsed_s: f64,
}

/// Result of one train + collide trial ([`CollisionGroupSimulator::run_trial`]),
/// per stream in member order.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// SINR before projection (naive per-band envelope decoding), dB.
    pub sinr_before_db: Vec<f64>,
    /// SINR after zero-forcing projection, dB.
    pub sinr_after_db: Vec<f64>,
    /// Whether each member's concurrent packet decoded with a valid CRC.
    pub crc_ok: Vec<bool>,
    /// Condition number of the estimated channel matrix.
    // lint: unitless condition number (ratio of singular values)
    pub condition_number: f64,
}

#[derive(Debug)]
struct GroupMember {
    addr: u8,
    carrier_hz: f64,
    node: PabNode,
    /// Projector→node channels, one per member carrier.
    ch_down: Vec<MultipathChannel>,
    /// Node→hydrophone channels, one per member carrier.
    ch_up: Vec<MultipathChannel>,
}

/// Slot-memo key: per member carrier, the query it carries as `(dest,
/// command)` or `None` for continuous wave, plus the members' FM0 divider
/// (which sets the response window and the backscatter timing).
type SlotKey = (Vec<Option<(u8, (u8, u16))>>, u16);

/// One member's part of a clean slot.
#[derive(Debug)]
struct MemberResponse {
    /// Whether the member sent a complete response.
    responded: bool,
    /// Node-side average harvested power, watts.
    power_w: f64,
    /// Node-side rectified capacitor voltage at slot end, volts.
    rectified_v: f64,
    /// Backscatter switch state per node sample.
    switch_wave: Vec<bool>,
    /// Uplink direct-path delay that aligns `switch_wave` at the
    /// hydrophone, samples.
    delay: usize,
}

impl MemberResponse {
    /// The hydrophone-aligned ground-truth switching stream (1.0 while
    /// reflecting) over the sample range `[w0, w1)`.
    fn truth(&self, (w0, w1): (usize, usize)) -> Vec<f64> {
        (w0..w1)
            .map(|i| {
                let on = i
                    .checked_sub(self.delay)
                    .and_then(|t| self.switch_wave.get(t))
                    .copied()
                    .unwrap_or(false);
                if on {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// The noiseless part of one group slot: a pure function of its
/// [`SlotKey`], memoised by the group.
#[derive(Debug)]
struct CleanSlot {
    /// Hydrophone pressure before noise, Pa.
    y_clean: Vec<f64>,
    /// Per member, in channel order.
    members: Vec<MemberResponse>,
    /// First and last hydrophone sample where any member reflects.
    active: Option<(usize, usize)>,
}

/// Everything one group slot produced at the receiver.
struct SlotOutput {
    /// Complex baseband per band.
    baseband: Vec<Vec<Complex64>>,
    /// The slot's noiseless part.
    clean: Arc<CleanSlot>,
}

impl SlotOutput {
    /// Samples the slot occupied at the hydrophone.
    fn samples(&self) -> usize {
        self.clean.y_clean.len()
    }
}

/// A zero-forced collision slot, before the streams are decoded.
struct Collision {
    slot: SlotOutput,
    /// Active window `[c0, c1)` of the slot, in samples.
    window: (usize, usize),
    /// Per-band baseband inside the window.
    bands: Vec<Vec<Complex64>>,
    /// Zero-forced stream estimates, one per member.
    streams: Vec<Vec<f64>>,
}

/// A k-node concurrent-uplink simulator for one collision group.
#[derive(Debug)]
pub struct CollisionGroupSimulator {
    members: Vec<GroupMember>,
    projector: Projector,
    receiver: Receiver,
    rng: ChaCha8Rng,
    /// Projector→hydrophone channels per member carrier.
    ch_proj_hydro: Vec<MultipathChannel>,
    fs_hz: f64,
    noise_sigma_pa: f64,
    /// Band-major channel matrix from the last training pass, and the
    /// bitrate it was trained at (estimates are re-used until the
    /// commanded rate changes).
    channels: Option<Vec<ComplexAffineChannel>>,
    trained_divider: u16,
    /// Clean slots already simulated, bounded by [`CACHE_CAP`].
    slot_memo: BTreeMap<SlotKey, Arc<CleanSlot>>,
}

impl CollisionGroupSimulator {
    /// Build the group simulator for `addrs` (all of which must exist in
    /// `cfg.nodes`) on the fault-injected network's geometry. The group's
    /// noise seed is derived from the network seed and the member
    /// addresses, so two groups (or a group and the per-link sims) never
    /// share a noise stream.
    pub fn new(cfg: &FaultNetConfig, addrs: &[u8]) -> Result<Self, CoreError> {
        let mut members = Vec::with_capacity(addrs.len());
        let mut seed = derive_seed(cfg.seed, 0x636f_6c6c);
        for &addr in addrs {
            let spec = cfg
                .nodes
                .iter()
                .find(|s| s.addr == addr)
                .ok_or(CoreError::InvalidConfig("collision member not in config"))?;
            members.push(MemberPlacement {
                addr,
                carrier_hz: spec.carrier_hz,
                position: spec.position,
                ceramic_resonance_hz: None,
            });
            seed = derive_seed(seed, u64::from(addr));
        }
        Self::from_config(CollisionGroupConfig {
            pool: cfg.pool,
            projector_pos: cfg.projector_pos,
            hydrophone_pos: cfg.hydrophone_pos,
            max_reflections: cfg.max_reflections,
            members,
            drive_voltage_v: cfg.drive_voltage_v,
            bitrate_target_bps: cfg.bitrate_target_bps,
            noise: cfg.noise,
            noise_scale: cfg.noise_scale,
            seed,
            fs_hz: cfg.fs_hz,
        })
    }

    /// Build the group simulator, designing one recto-piezo per member and
    /// pre-computing the k² propagation channels per hop (the geometry is
    /// fixed for the simulator's lifetime, so every slot reuses them).
    pub fn from_config(cfg: CollisionGroupConfig) -> Result<Self, CoreError> {
        if cfg.members.len() < 2 {
            return Err(CoreError::InvalidConfig("collision group needs >= 2 members"));
        }
        let projector = Projector::new(cfg.drive_voltage_v, cfg.fs_hz)?;
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(cfg.bitrate_target_bps)
            .map_err(CoreError::Mcu)? as u16;
        let carriers: Vec<f64> = cfg.members.iter().map(|p| p.carrier_hz).collect();
        let mut members = Vec::with_capacity(carriers.len());
        for p in &cfg.members {
            let mut node = match p.ceramic_resonance_hz {
                Some(f_res) => {
                    let t = pab_piezo::TransducerBuilder::new()
                        .resonance_hz(f_res)
                        .build()
                        .map_err(pab_analog::AnalogError::Piezo)
                        .map_err(CoreError::Analog)?;
                    PabNode::with_transducer(p.addr, t, p.carrier_hz)?
                }
                None => PabNode::new(p.addr, p.carrier_hz)?,
            };
            node.default_divider = divider;
            let mut ch_down = Vec::with_capacity(carriers.len());
            let mut ch_up = Vec::with_capacity(carriers.len());
            for &f in &carriers {
                ch_down.push(cfg.pool.channel(
                    &cfg.projector_pos,
                    &p.position,
                    cfg.max_reflections,
                    f,
                )?);
                ch_up.push(cfg.pool.channel(
                    &p.position,
                    &cfg.hydrophone_pos,
                    cfg.max_reflections,
                    f,
                )?);
            }
            members.push(GroupMember {
                addr: p.addr,
                carrier_hz: p.carrier_hz,
                node,
                ch_down,
                ch_up,
            });
        }
        let mut ch_proj_hydro = Vec::with_capacity(carriers.len());
        for &f in &carriers {
            ch_proj_hydro.push(cfg.pool.channel(
                &cfg.projector_pos,
                &cfg.hydrophone_pos,
                cfg.max_reflections,
                f,
            )?);
        }
        let noise_sigma_pa =
            cfg.noise.rms_pressure_pa(carriers[0], cfg.fs_hz / 2.0)? * cfg.noise_scale;
        Ok(CollisionGroupSimulator {
            members,
            projector,
            receiver: Receiver::new(1.0e-3, cfg.fs_hz),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            ch_proj_hydro,
            fs_hz: cfg.fs_hz,
            noise_sigma_pa,
            channels: None,
            trained_divider: 0,
            slot_memo: BTreeMap::new(),
        })
    }

    /// The member addresses, in channel order.
    pub fn addrs(&self) -> Vec<u8> {
        self.members.iter().map(|m| m.addr).collect()
    }

    /// Command every member's FM0 divider for `bitrate_bps` (the MAC's
    /// rate-ladder actuation). Invalidates training if the rate changed —
    /// the channel estimate is re-fit at the new waveform timing.
    pub fn set_bitrate_target(&mut self, bitrate_bps: f64) -> Result<(), CoreError> {
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(bitrate_bps)
            .map_err(CoreError::Mcu)? as u16;
        for m in &mut self.members {
            m.node.default_divider = divider;
        }
        Ok(())
    }

    /// Quantized uplink bitrate the members will use.
    pub fn bitrate_bps(&self) -> f64 {
        Clock::watch_crystal()
            .bitrate_for_divider(self.members[0].node.default_divider as u64)
            // lint: allow(no-unwrap-in-lib) default_divider is validated non-zero at construction
            .expect("divider >= 1")
    }

    /// Whether the current channel estimate is valid for the commanded
    /// bitrate (training is re-run when the rate rung moves).
    pub fn is_trained(&self) -> bool {
        self.channels.is_some() && self.trained_divider == self.members[0].node.default_divider
    }

    /// Condition number of the current channel estimate (infinite when
    /// untrained).
    // lint: unitless condition number (ratio of singular values)
    pub fn condition_number(&self) -> f64 {
        match &self.channels {
            Some(ch) => condition_number_n(ch),
            None => f64::INFINITY,
        }
    }

    /// Run one slot carrying `plan[i]` on member `i`'s carrier (`None`
    /// is continuous wave): the clean part comes from the slot memo, then
    /// the per-slot observation draws fresh AWGN and the hydrophone
    /// demodulates each band.
    fn run_slot(&mut self, plan: &[Option<DownlinkQuery>]) -> Result<SlotOutput, CoreError> {
        let key: SlotKey = (
            plan.iter()
                .map(|q| q.map(|q| (q.dest, command_key(q.command))))
                .collect(),
            self.members[0].node.default_divider,
        );
        let clean = match self.slot_memo.get(&key) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(self.clean_slot(plan)?);
                if self.slot_memo.len() >= CACHE_CAP {
                    self.slot_memo.clear();
                }
                self.slot_memo.insert(key, Arc::clone(&c));
                c
            }
        };

        let mut y = clean.y_clean.clone();
        add_awgn(&mut y, self.noise_sigma_pa, &mut self.rng);
        self.receiver.record(&mut y);
        let bitrate = self.bitrate_bps();
        let mut baseband = Vec::with_capacity(self.members.len());
        for m in &self.members {
            baseband.push(self.receiver.demodulate_complex(&y, m.carrier_hz, bitrate)?);
        }
        Ok(SlotOutput { baseband, clean })
    }

    /// The noiseless part of a slot: per-carrier transmit waveforms (each
    /// continuous wave as long as the longest query), all members process
    /// the superposed incident field and backscatter every carrier, and
    /// the hydrophone superposes everything before noise.
    fn clean_slot(&self, plan: &[Option<DownlinkQuery>]) -> Result<CleanSlot, CoreError> {
        let fs = self.fs_hz;
        let k = self.members.len();
        let tail = self.response_tail_s();
        let mut queries = Vec::with_capacity(k);
        for (m, q) in self.members.iter().zip(plan) {
            queries.push(match q {
                Some(q) => Some(self.projector.query_waveform(q, m.carrier_hz, tail)?.0),
                None => None,
            });
        }
        let n_query = queries
            .iter()
            .flatten()
            .map(Vec::len)
            .max()
            .ok_or(CoreError::InvalidConfig("slot plan carries no query"))?;
        let dur = n_query as f64 / fs;
        let waves: Vec<Vec<f64>> = queries
            .into_iter()
            .zip(&self.members)
            .map(|(w, m)| w.unwrap_or_else(|| self.projector.continuous_wave(m.carrier_hz, dur)))
            .collect();
        let n_tx = waves.iter().map(Vec::len).max().unwrap_or(0);
        let margin = crate::margin_samples(fs)?;

        // Each member sees every carrier through its own downlink channels.
        let mut node_outs = Vec::with_capacity(k);
        for m in &self.members {
            let mut components = Vec::with_capacity(k);
            for (ci, w) in waves.iter().enumerate() {
                components.push(IncidentComponent {
                    carrier_hz: self.members[ci].carrier_hz,
                    samples: m.ch_down[ci].apply(w, fs),
                });
            }
            let out = m
                .node
                .process(&components, fs, Some(pab_sensors::WaterSample::bench()))?;
            node_outs.push(out);
        }

        // Superpose at the hydrophone: direct projector paths plus every
        // member re-radiating every carrier.
        let n_rx = n_tx + 4 * margin;
        let mut y = vec![0.0; n_rx];
        for (ci, w) in waves.iter().enumerate() {
            self.ch_proj_hydro[ci].apply_into(&mut y, w, fs);
        }
        let mut members = Vec::with_capacity(k);
        let mut active: Option<(usize, usize)> = None;
        for (out, m) in node_outs.into_iter().zip(&self.members) {
            for (ci, ch) in m.ch_up.iter().enumerate() {
                ch.apply_into(&mut y, &out.backscatter[ci], fs);
            }
            let delay = (m.ch_up[0].direct().delay_s * fs).floor() as usize;
            // Switch samples that land inside the recording.
            let visible = out.switch_wave.len().min(n_rx.saturating_sub(delay));
            let on = || out.switch_wave.iter().take(visible);
            if let (Some(first), Some(last)) = (on().position(|&b| b), on().rposition(|&b| b)) {
                let (a0, a1) = active.unwrap_or((usize::MAX, 0));
                active = Some((a0.min(first + delay), a1.max(last + delay)));
            }
            members.push(MemberResponse {
                responded: out.responses_sent > 0,
                power_w: out.average_power_w,
                rectified_v: out.rectified_v,
                switch_wave: out.switch_wave,
                delay,
            });
        }
        Ok(CleanSlot {
            y_clean: y,
            members,
            active,
        })
    }

    /// Response window for one ping-sized exchange, seconds.
    fn response_tail_s(&self) -> f64 {
        let bits = UplinkPacket::bits_len(0) as f64;
        5e-3 + bits / self.bitrate_bps() + 40e-3
    }

    /// Run the k training slots (addressed query on each member's own
    /// carrier, continuous wave on the rest) and fit the band-major k×k
    /// complex affine channel matrix.
    pub fn train(&mut self, command: Command) -> Result<TrainingOutcome, CoreError> {
        let fs = self.fs_hz;
        let k = self.members.len();
        let pad = (0.005 * fs).floor() as usize;
        let mut elapsed_s = 0.0;
        // offsets[band] averaged across slots; gains[band][member].
        let mut offsets = vec![Complex64::new(0.0, 0.0); k];
        let mut gains = vec![vec![Complex64::new(0.0, 0.0); k]; k];
        for j in 0..k {
            let query = DownlinkQuery {
                dest: self.members[j].addr,
                command,
            };
            let plan: Vec<Option<DownlinkQuery>> =
                (0..k).map(|ci| (ci == j).then_some(query)).collect();
            let slot = self.run_slot(&plan)?;
            elapsed_s += slot.samples() as f64 / fs;
            let member = &slot.clean.members[j];
            if !member.responded {
                return Err(CoreError::NodeNotPoweredUp);
            }
            let len = slot.baseband.iter().map(Vec::len).min().unwrap_or(0);
            let window = active_range(slot.clean.active, pad, len);
            let truth = member.truth(window);
            let (a0, a1) = window;
            for b in 0..k {
                let ch = estimate_channel_complex(&slot.baseband[b][a0..a1], &[&truth])?;
                offsets[b] += ch.offset / k as f64;
                gains[b][j] = ch.gains[0];
            }
        }
        let channels: Vec<ComplexAffineChannel> = (0..k)
            .map(|b| ComplexAffineChannel {
                offset: offsets[b],
                gains: gains[b].clone(),
            })
            .collect();
        let condition_number = condition_number_n(&channels);
        self.channels = Some(channels);
        self.trained_divider = self.members[0].node.default_divider;
        Ok(TrainingOutcome {
            condition_number,
            elapsed_s,
        })
    }

    /// Run one broadcast collision slot: a single query addressed to
    /// [`BROADCAST_ADDR`] transmitted on every member carrier, every
    /// member answering concurrently; zero-force the per-band basebands
    /// and decode each separated stream independently.
    ///
    /// Requires a valid training pass ([`train`](Self::train)); surfaces
    /// [`CoreError::SingularChannel`] when the estimated matrix is too
    /// ill-conditioned to invert.
    pub fn collision_slot(&mut self, command: Command) -> Result<CollisionOutcome, CoreError> {
        let broadcast = DownlinkQuery {
            dest: BROADCAST_ADDR,
            command,
        };
        let queries = vec![broadcast; self.members.len()];
        let collision = self.collide(&queries)?;
        Ok(CollisionOutcome {
            verdicts: self.verdicts(&collision),
            elapsed_s: collision.slot.samples() as f64 / self.fs_hz,
        })
    }

    /// The Fig. 10 procedure: train every member with a ping, then run
    /// one collision slot carrying `queries[i]` on member `i`'s carrier,
    /// and measure each stream's SINR before projection (naive per-band
    /// envelope) and after zero-forcing, plus its CRC.
    ///
    /// Errors with [`CoreError::NodeNotPoweredUp`] when a member stays
    /// silent in its training slot or in the collision.
    pub fn run_trial(&mut self, queries: &[DownlinkQuery]) -> Result<TrialReport, CoreError> {
        let training = self.train(Command::Ping)?;
        let collision = self.collide(queries)?;
        if collision.slot.clean.members.iter().any(|m| !m.responded) {
            return Err(CoreError::NodeNotPoweredUp);
        }
        let fs = self.fs_hz;
        let bitrate = self.bitrate_bps();
        let max_lag = (0.002 * fs).floor() as usize;
        let mut sinr_before_db = Vec::with_capacity(queries.len());
        let mut sinr_after_db = Vec::with_capacity(queries.len());
        for ((band, stream), member) in collision
            .bands
            .iter()
            .zip(&collision.streams)
            .zip(&collision.slot.clean.members)
        {
            let truth = member.truth(collision.window);
            let envelope: Vec<f64> = band.iter().map(|c| c.norm()).collect();
            let naive = naive_stream_estimate(&envelope);
            sinr_before_db.push(aligned_sinr_db(&naive, &truth, fs, bitrate, max_lag));
            sinr_after_db.push(aligned_sinr_db(stream, &truth, fs, bitrate, max_lag));
        }
        Ok(TrialReport {
            sinr_before_db,
            sinr_after_db,
            crc_ok: self.verdicts(&collision).iter().map(|v| v.crc_ok).collect(),
            condition_number: training.condition_number,
        })
    }

    /// Run one collision slot with `queries[i]` on member `i`'s carrier
    /// and zero-force the per-band basebands over the active window.
    fn collide(&mut self, queries: &[DownlinkQuery]) -> Result<Collision, CoreError> {
        if queries.len() != self.members.len() {
            return Err(CoreError::InvalidConfig("one collision query per member"));
        }
        let channels = self
            .channels
            .clone()
            .ok_or(CoreError::InvalidConfig("collision slot before training"))?;
        let plan: Vec<Option<DownlinkQuery>> = queries.iter().copied().map(Some).collect();
        let slot = self.run_slot(&plan)?;

        let pad = (0.005 * self.fs_hz).floor() as usize;
        let len = slot.baseband.iter().map(Vec::len).min().unwrap_or(0);
        let (c0, c1) = active_range(slot.clean.active, pad, len);
        let bands: Vec<Vec<Complex64>> = slot
            .baseband
            .iter()
            .map(|b| b[c0..c1].to_vec())
            .collect();
        let streams = zero_force_n_complex(&bands, &channels)?;
        Ok(Collision {
            slot,
            window: (c0, c1),
            bands,
            streams,
        })
    }

    /// Drop every memoised clean slot, so the next slot runs the full
    /// chain (the cached == uncached regression test's uncached arm).
    #[cfg(test)]
    fn clear_slot_memo(&mut self) {
        self.slot_memo.clear();
    }

    /// Decode each separated stream of `collision` independently.
    fn verdicts(&self, collision: &Collision) -> Vec<StreamVerdict> {
        let slot = &collision.slot;
        let bitrate = self.bitrate_bps();
        let mut verdicts = Vec::with_capacity(self.members.len());
        for ((m, stream), member) in self
            .members
            .iter()
            .zip(&collision.streams)
            .zip(&slot.clean.members)
        {
            let verdict = match self.receiver.decode_envelope(stream, bitrate) {
                Ok(d) => StreamVerdict {
                    addr: m.addr,
                    preamble_found: true,
                    crc_ok: d.packet.is_ok(),
                    preamble_corr: d.preamble_corr,
                    snr_db: d.snr_db,
                    packet: d.packet.ok(),
                    power_w: member.power_w,
                    rectified_v: member.rectified_v,
                },
                Err(_) => StreamVerdict {
                    addr: m.addr,
                    preamble_found: false,
                    crc_ok: false,
                    preamble_corr: 0.0,
                    snr_db: f64::NEG_INFINITY,
                    packet: None,
                    power_w: member.power_w,
                    rectified_v: member.rectified_v,
                },
            };
            // A member that never responded cannot have delivered: treat
            // any accidental decode as the erasure it physically is.
            if member.responded {
                verdicts.push(verdict);
            } else {
                verdicts.push(StreamVerdict {
                    preamble_found: false,
                    crc_ok: false,
                    preamble_corr: 0.0,
                    snr_db: f64::NEG_INFINITY,
                    packet: None,
                    ..verdict
                });
            }
        }
        verdicts
    }
}

/// The slot's active window: its first/last reflecting sample `active`,
/// padded by `pad` samples and clamped to `len` (the whole slot when no
/// member reflects inside it).
fn active_range(active: Option<(usize, usize)>, pad: usize, len: usize) -> (usize, usize) {
    let (first, last) = match active {
        Some((first, last)) => (first.min(len), last),
        None => (len, 0),
    };
    if first >= last {
        return (0, len);
    }
    (first.saturating_sub(pad), (last + pad).min(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair whose carrier spacing clears the FM0 main lobe at the
    /// commanded rate (5 kHz spacing ≥ 2 × 2 × 1024 Hz), which is the same
    /// viability gate the faultnet MAC applies before scheduling a
    /// collision slot. At the default 15/18 kHz @ 2048 bps geometry the
    /// demodulation low-pass admits the neighboring band and the affine
    /// channel model no longer holds.
    fn wide_pair_cfg() -> FaultNetConfig {
        let mut cfg = FaultNetConfig::default();
        cfg.plan = pab_net::mac::ChannelPlan::new(vec![14_000.0, 19_000.0]).unwrap();
        cfg.nodes[0].carrier_hz = 14_000.0;
        cfg.nodes[1].carrier_hz = 19_000.0;
        cfg.bitrate_target_bps = 1024.0;
        cfg
    }

    #[test]
    fn wide_pair_trains_and_decodes_collision() {
        let cfg = wide_pair_cfg();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        assert!(!group.is_trained());
        let training = group.train(Command::Ping).unwrap();
        assert!(group.is_trained());
        assert!(
            training.condition_number.is_finite() && training.condition_number > 1.0,
            "condition number {}",
            training.condition_number
        );
        assert!(training.elapsed_s > 0.0);
        let out = group.collision_slot(Command::Ping).unwrap();
        assert_eq!(out.verdicts.len(), 2);
        for v in &out.verdicts {
            assert!(v.preamble_found, "stream {} lost", v.addr);
            assert!(v.crc_ok, "stream {} CRC failed", v.addr);
            let p = v.packet.as_ref().unwrap();
            assert_eq!(p.src, v.addr, "stream decoded the wrong node");
        }
        assert!(out.elapsed_s > 0.0);
    }

    #[test]
    fn group_rejects_unknown_member_and_singletons() {
        let cfg = FaultNetConfig::default();
        assert!(CollisionGroupSimulator::new(&cfg, &[1]).is_err());
        assert!(CollisionGroupSimulator::new(&cfg, &[1, 99]).is_err());
        let mut cfg = CollisionGroupConfig::three_channel();
        cfg.members.truncate(1);
        assert!(CollisionGroupSimulator::from_config(cfg).is_err());
    }

    #[test]
    fn empty_node_list_rejected() {
        let cfg = CollisionGroupConfig {
            members: vec![],
            ..CollisionGroupConfig::three_channel()
        };
        assert!(CollisionGroupSimulator::from_config(cfg).is_err());
    }

    /// Each member's own addressed ping on its carrier, as Fig. 10 sends.
    fn addressed_pings(cfg: &CollisionGroupConfig) -> Vec<DownlinkQuery> {
        cfg.members
            .iter()
            .map(|m| DownlinkQuery {
                dest: m.addr,
                command: Command::Ping,
            })
            .collect()
    }

    #[test]
    fn benign_placement_decodes_collision() {
        let cfg = CollisionGroupConfig::fig10();
        let queries = addressed_pings(&cfg);
        let report = CollisionGroupSimulator::from_config(cfg)
            .unwrap()
            .run_trial(&queries)
            .unwrap();
        // At a low-interference placement ZF mainly costs a little noise
        // enhancement; both packets must decode and SINR stays > 3 dB.
        for i in 0..2 {
            assert!(
                report.sinr_after_db[i] > 3.0,
                "stream {i} after-projection SINR {}",
                report.sinr_after_db[i]
            );
            assert!(
                report.sinr_after_db[i] > report.sinr_before_db[i] - 2.0,
                "ZF lost more than noise-enhancement margin"
            );
        }
        assert!(report.crc_ok[0], "node 1 collision packet failed");
        assert!(report.crc_ok[1], "node 2 collision packet failed");
        assert!(report.condition_number.is_finite());
    }

    #[test]
    fn projection_rescues_interference_heavy_placement() {
        // A placement where the naive per-band decoder sees SINR below
        // the paper's 3 dB line for one stream; zero-forcing must improve
        // it (the Fig. 10 story).
        let mut cfg = CollisionGroupConfig::fig10();
        cfg.members[0].position = Position::new(1.0, 1.3, 0.6);
        cfg.members[1].position = Position::new(1.7, 1.8, 0.5);
        cfg.hydrophone_pos = Position::new(1.3, 2.0, 0.7);
        let queries = addressed_pings(&cfg);
        let report = CollisionGroupSimulator::from_config(cfg)
            .unwrap()
            .run_trial(&queries)
            .unwrap();
        let worst_before = report.sinr_before_db[0].min(report.sinr_before_db[1]);
        let worst_after = report.sinr_after_db[0].min(report.sinr_after_db[1]);
        assert!(
            worst_before < 3.0,
            "placement not interference-heavy: {worst_before}"
        );
        // Projection rescues the interference-limited stream (the clean
        // stream may pay a small noise-enhancement tax).
        assert!(
            worst_after > worst_before,
            "worst stream not improved: {worst_after} <= {worst_before}"
        );
        assert!(report.crc_ok[0] && report.crc_ok[1]);
    }

    #[test]
    fn three_channel_collision_decodes() {
        let broadcast = DownlinkQuery {
            dest: BROADCAST_ADDR,
            command: Command::Ping,
        };
        let report = CollisionGroupSimulator::from_config(CollisionGroupConfig::three_channel())
            .unwrap()
            .run_trial(&[broadcast; 3])
            .unwrap();
        assert_eq!(report.crc_ok.len(), 3);
        for (i, &ok) in report.crc_ok.iter().enumerate() {
            assert!(
                ok,
                "stream {i} failed (after-ZF SINR {:.1} dB)",
                report.sinr_after_db[i]
            );
        }
        assert!(report.condition_number.is_finite());

        // The same channels on one ~16.5 kHz ceramic type: a member never
        // powers up, and the trial reports it instead of decoding noise.
        let mut same = CollisionGroupConfig::three_channel();
        for m in &mut same.members {
            m.ceramic_resonance_hz = None;
        }
        same.members[0].carrier_hz = 13_000.0;
        same.members[2].carrier_hz = 18_000.0;
        assert!(matches!(
            CollisionGroupSimulator::from_config(same).unwrap().run_trial(&[broadcast; 3]),
            Err(CoreError::NodeNotPoweredUp)
        ));
    }

    #[test]
    fn collision_before_training_is_refused() {
        let cfg = FaultNetConfig::default();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        assert!(matches!(
            group.collision_slot(Command::Ping),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rate_change_invalidates_training() {
        let cfg = FaultNetConfig::default();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        group.train(Command::Ping).unwrap();
        assert!(group.is_trained());
        group.set_bitrate_target(512.0).unwrap();
        assert!(!group.is_trained(), "rung change must force retraining");
    }

    /// Everything a verdict reports, floats as bits.
    type VerdictBits = (u8, bool, bool, [u64; 4], Option<UplinkPacket>);

    fn verdict_bits(v: &StreamVerdict) -> VerdictBits {
        let floats = [v.preamble_corr, v.snr_db, v.power_w, v.rectified_v];
        (
            v.addr,
            v.preamble_found,
            v.crc_ok,
            floats.map(f64::to_bits),
            v.packet.clone(),
        )
    }

    #[test]
    fn slot_memo_is_bitwise_transparent() {
        let cfg = wide_pair_cfg();
        let mut cached = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        let mut uncached = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        // The trailing train + slot repeat the 512 bps plans, so the
        // cached group serves training from the memo too.
        let mut hits = std::collections::BTreeSet::new();
        for step in ["train", "slot", "slot", "slot", "rung", "train", "slot", "train", "slot"] {
            uncached.clear_slot_memo();
            let before = cached.slot_memo.len();
            match step {
                "train" => {
                    let a = cached.train(Command::Ping).unwrap();
                    let b = uncached.train(Command::Ping).unwrap();
                    assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
                    assert_eq!(a.condition_number.to_bits(), b.condition_number.to_bits());
                }
                "slot" => {
                    let a = cached.collision_slot(Command::Ping).unwrap();
                    let b = uncached.collision_slot(Command::Ping).unwrap();
                    assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
                    let a: Vec<_> = a.verdicts.iter().map(verdict_bits).collect();
                    let b: Vec<_> = b.verdicts.iter().map(verdict_bits).collect();
                    assert_eq!(a, b, "cached slot diverged from uncached");
                }
                _ => {
                    cached.set_bitrate_target(512.0).unwrap();
                    uncached.set_bitrate_target(512.0).unwrap();
                }
            }
            if step != "rung" && cached.slot_memo.len() == before {
                hits.insert(step);
            }
            assert_eq!(
                cached.condition_number().to_bits(),
                uncached.condition_number().to_bits()
            );
        }
        assert_eq!(hits.into_iter().collect::<Vec<_>>(), ["slot", "train"]);
    }

    #[test]
    fn slot_memo_keys_do_not_alias() {
        let cfg = wide_pair_cfg();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        let pings: Vec<DownlinkQuery> = [1, 2]
            .iter()
            .map(|&dest| DownlinkQuery {
                dest,
                command: Command::Ping,
            })
            .collect();
        // Two training slots plus the addressed collision.
        group.run_trial(&pings).unwrap();
        assert_eq!(group.slot_memo.len(), 3);
        // A broadcast collision is a different plan from addressed pings.
        group.collision_slot(Command::Ping).unwrap();
        assert_eq!(group.slot_memo.len(), 4);
        group.collision_slot(Command::Ping).unwrap();
        assert_eq!(group.slot_memo.len(), 4, "repeat broadcast must hit");
        // A rung change re-keys training and the collision.
        group.set_bitrate_target(512.0).unwrap();
        group.train(Command::Ping).unwrap();
        group.collision_slot(Command::Ping).unwrap();
        assert_eq!(group.slot_memo.len(), 7);
    }
}
