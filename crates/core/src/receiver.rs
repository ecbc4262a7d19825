//! The hydrophone receive chain (§5.1(b)): record, downconvert, Butterworth
//! low-pass, packet detection by preamble correlation, CFO estimation, and
//! a maximum-likelihood FM0 decoder, with CRC verification.
//!
//! The coherent decoder is organised around a memoised [`FrontEnd`]: all
//! designs that depend only on `(carrier, bitrate, fs)` — the baseband
//! Butterworth, the fused mix→filter→decimate polyphase stage, the
//! detrending filter, the preamble matched-filter template and its FFT'd
//! correlation kernels — are built once and reused, and every per-decode
//! buffer lives in a [`DecodeScratch`] arena so a steady-state decode
//! performs zero heap allocations (pinned by `tests/slot_engine_alloc.rs`).

use crate::scratch::{DecodeScratch, SlicerScratch};
use crate::{CoreError, DEFAULT_SAMPLE_RATE_HZ};
use num_complex::Complex64;
use pab_dsp::correlate::{argmax, normalized_cross_correlate};
use pab_dsp::fastconv;
use pab_dsp::iir::{butter_lowpass, Cascade};
use pab_dsp::mix::{downconvert, downconvert_into, frequency_shift_into};
use pab_dsp::polyphase::{DecimMode, PolyphaseDecimator};
use pab_dsp::stats;
use pab_net::fm0;
use pab_net::packet::{UplinkPacket, UPLINK_PREAMBLE};
use pab_net::NetError;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Decimation factor at or above which the anti-alias stage runs in
/// [`DecimMode::Direct`] (compute only kept outputs, ~`decim`× fewer
/// MACs) instead of the bitwise-preserving [`DecimMode::Auto`] FFT path.
///
/// Direct summation is ulp-level (not bitwise) different from the FFT
/// overlap-save engine, and a one-ulp change in a decoded correlation or
/// SNR value would alter the telemetry export byte streams. The
/// threshold is chosen above every decimation factor the pinned identity
/// suites reach (at 96 kHz the FM0 ladder tops out at `decim == 11`), so
/// reproducibility baselines are untouched while wideband captures
/// (e.g. 256 bps at 192 kHz, `decim == 23`) get the fast path.
const DIRECT_DECIM_MIN: usize = 16;

/// Designs the receiver rebuilds identically packet after packet —
/// Butterworth cascades and preamble templates for the envelope path —
/// memoised behind a `RefCell` so `&self` decode calls stay ergonomic.
/// Keys use `f64::to_bits` so identical parameters hit deterministically.
#[derive(Debug, Clone, Default)]
struct RxCaches {
    butter: HashMap<(usize, u64, u64), Cascade>,
    preamble: HashMap<(u64, u64), Vec<f64>>,
}

/// Everything the coherent uplink decoder needs that depends only on
/// `(carrier, bitrate, fs)`: filter designs, the fused decimator, the
/// matched-filter template and its per-block-size FFT kernels. Built once
/// per parameter set by [`Receiver::front_end`] and shared via `Arc`.
#[derive(Debug)]
struct FrontEnd {
    /// Baseband-selection Butterworth (order 4) at the full rate.
    butter4: Cascade,
    /// Decimation factor to ~16 samples per half-bit.
    decim: usize,
    /// Decimated sample rate, Hz.
    fs2: f64,
    /// Fused anti-alias decimator; `None` when `decim == 1` (the
    /// historical pipeline applies no anti-alias filter in that case).
    aa: Option<PolyphaseDecimator>,
    /// Detrending low-pass (order 2) at the decimated rate.
    trend: Cascade,
    /// ±1 preamble matched-filter template at `fs2`, widened to complex.
    template_c: Vec<Complex64>,
    /// Conjugated template — the source for FFT correlation kernels.
    template_conj: Vec<Complex64>,
    /// Template energy `sqrt(Σ t²)`.
    t_energy: f64,
    /// FFT'd correlation kernels, keyed by overlap-save block size.
    xcorr_kfft: Mutex<HashMap<usize, Arc<Vec<Complex64>>>>,
}

impl FrontEnd {
    fn new(bitrate_bps: f64, fs_hz: f64) -> Result<FrontEnd, CoreError> {
        let cutoff = (2.0 * bitrate_bps).clamp(200.0, 0.4 * fs_hz);
        let butter4 = butter_lowpass(4, cutoff, fs_hz)?;
        let spb_raw = fs_hz / (2.0 * bitrate_bps);
        let decim = ((spb_raw / 16.0).floor() as usize).max(1);
        let fs2 = fs_hz / decim as f64;
        let aa = if decim == 1 {
            None
        } else {
            let fir = pab_dsp::fir::Fir::lowpass(
                127,
                0.8 * fs_hz / (2.0 * decim as f64),
                fs_hz,
                pab_dsp::window::Window::Hamming,
            )?;
            let mode = if decim >= DIRECT_DECIM_MIN {
                DecimMode::Direct
            } else {
                DecimMode::Auto
            };
            Some(PolyphaseDecimator::new(fir, decim, mode)?)
        };
        let trend = butter_lowpass(2, (bitrate_bps / 20.0).max(2.0), fs2)?;
        // The ±1 template, sampled at the decimated rate (identical
        // construction to Receiver::preamble_template).
        let halves = fm0::encode(&UPLINK_PREAMBLE, false);
        let spb2 = fs2 / (2.0 * bitrate_bps);
        let n = (halves.len() as f64 * spb2).round() as usize;
        let template: Vec<f64> = (0..n)
            .map(|i| {
                let k = ((i as f64 / spb2) as usize).min(halves.len() - 1);
                if halves[k] {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let t_energy = template.iter().map(|x| x * x).sum::<f64>().sqrt();
        let template_c: Vec<Complex64> =
            template.iter().map(|&t| Complex64::new(t, 0.0)).collect();
        let template_conj: Vec<Complex64> = template_c.iter().map(|t| t.conj()).collect();
        Ok(FrontEnd {
            butter4,
            decim,
            fs2,
            aa,
            trend,
            template_c,
            template_conj,
            t_energy,
            xcorr_kfft: Mutex::new(HashMap::new()),
        })
    }

    /// The FFT of the (time-reversed, zero-padded) conjugated template
    /// for overlap-save block size `b`, memoised. Block size depends only
    /// on the input length, which is constant per cache key in the slot
    /// engine's steady state — so this allocates once and then hits.
    fn xcorr_kernel(&self, b: usize) -> Arc<Vec<Complex64>> {
        let mut map = self.xcorr_kfft.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(b)
            .or_insert_with(|| Arc::new(fastconv::kernel_fft(&self.template_conj, b)))
            .clone()
    }
}

/// Counters for the decimating front-end: how much work the fused
/// mix→filter→decimate stage did and saved. Aggregated per receiver;
/// [`crate::link::LinkSimulator::frontend_stats`] and the faultnet
/// simulator expose roll-ups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Coherent decode attempts.
    pub decodes: u64,
    /// Full-rate complex baseband samples entering the decimator.
    pub samples_in: u64,
    /// Decimated samples leaving it.
    pub samples_out: u64,
    /// Multiply-accumulates skipped by computing only kept outputs
    /// (counted only in [`DecimMode::Direct`], where the saving is real).
    pub macs_saved: u64,
    /// Front-end design cache hits.
    pub design_hits: u64,
    /// Front-end design cache misses (fresh designs built).
    pub design_misses: u64,
}

impl FrontEndStats {
    /// Accumulate another receiver's counters into this one.
    pub fn merge(&mut self, other: &FrontEndStats) {
        self.decodes += other.decodes;
        self.samples_in += other.samples_in;
        self.samples_out += other.samples_out;
        self.macs_saved += other.macs_saved;
        self.design_hits += other.design_hits;
        self.design_misses += other.design_misses;
    }
}

/// The hydrophone + offline decoder.
///
/// Holds per-instance design caches (filters, templates, front-ends) and
/// the decode scratch arena, so keep one `Receiver` alive across packets
/// in Monte-Carlo sweeps rather than constructing a fresh one per decode.
#[derive(Debug, Clone)]
pub struct Receiver {
    /// Hydrophone sensitivity, volts per pascal (H2a: −180 dB re 1 V/µPa
    /// = 1 mV/Pa).
    pub sensitivity_v_per_pa: f64,
    /// Sample rate, Hz.
    pub fs_hz: f64,
    caches: RefCell<RxCaches>,
    front_ends: RefCell<HashMap<(u64, u64), Arc<FrontEnd>>>,
    scratch: RefCell<DecodeScratch>,
    fe_stats: Cell<FrontEndStats>,
}

/// Result of decoding one uplink packet.
#[derive(Debug)]
pub struct Decoded {
    /// The parsed packet, if the CRC passed.
    pub packet: Result<UplinkPacket, NetError>,
    /// Raw decoded bits (preamble included).
    pub bits: Vec<bool>,
    /// Hard half-bit decisions.
    pub halves: Vec<bool>,
    /// Soft half-bit values (integrate-and-dump means).
    pub soft: Vec<f64>,
    /// Sample index where the packet starts in the input.
    pub start_sample: usize,
    /// Estimated SNR of the backscatter modulation, dB (§6.1 definition).
    pub snr_db: f64,
    /// Peak normalized preamble correlation in [0, 1] — the detection
    /// margin the MAC's link-quality estimator feeds on. Always ≥ 0.3
    /// (the detection threshold) for a successfully decoded packet.
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
    /// The demodulated envelope (diagnostics; the Fig. 2 waveform).
    pub envelope: Vec<f64>,
}

/// The allocation-free decode result: everything the MAC / slot engine
/// consumes, without the diagnostic buffers [`Decoded`] clones out of the
/// scratch arena. Use [`Receiver::decode_uplink_verdict`] on hot paths.
#[derive(Debug, Clone)]
pub struct DecodeVerdict {
    /// The parsed packet, if the CRC passed.
    pub packet: Result<UplinkPacket, NetError>,
    /// Sample index where the packet starts in the input.
    pub start_sample: usize,
    /// Estimated SNR of the backscatter modulation, dB (§6.1 definition).
    pub snr_db: f64,
    /// Peak normalized preamble correlation in [0, 1].
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
}

/// What [`Receiver::slice_core`] hands back; the caller owns the decoded
/// bit/half/soft buffers inside the scratch arena.
struct SliceOutcome {
    packet: Result<UplinkPacket, NetError>,
    snr_db: f64,
}

impl Default for Receiver {
    fn default() -> Self {
        Receiver::new(1.0e-3, DEFAULT_SAMPLE_RATE_HZ)
    }
}

impl Receiver {
    /// Build a receiver with the given hydrophone sensitivity and sample
    /// rate, with empty design caches.
    pub fn new(sensitivity_v_per_pa: f64, fs_hz: f64) -> Self {
        Receiver {
            sensitivity_v_per_pa,
            fs_hz,
            caches: RefCell::new(RxCaches::default()),
            front_ends: RefCell::new(HashMap::new()),
            scratch: RefCell::new(DecodeScratch::default()),
            fe_stats: Cell::new(FrontEndStats::default()),
        }
    }

    /// Memoised [`butter_lowpass`] design.
    fn cached_butter(&self, order: usize, cutoff_hz: f64, fs_hz: f64) -> Result<Cascade, CoreError> {
        let key = (order, cutoff_hz.to_bits(), fs_hz.to_bits());
        if let Some(c) = self.caches.borrow().butter.get(&key) {
            return Ok(c.clone());
        }
        let c = butter_lowpass(order, cutoff_hz, fs_hz)?;
        self.caches.borrow_mut().butter.insert(key, c.clone());
        Ok(c)
    }

    /// The memoised coherent front-end for `(carrier_hz, bitrate_bps)` at
    /// this receiver's sample rate.
    fn front_end(&self, carrier_hz: f64, bitrate_bps: f64) -> Result<Arc<FrontEnd>, CoreError> {
        let key = (carrier_hz.to_bits(), bitrate_bps.to_bits());
        if let Some(fe) = self.front_ends.borrow().get(&key) {
            let mut st = self.fe_stats.get();
            st.design_hits += 1;
            self.fe_stats.set(st);
            return Ok(fe.clone());
        }
        let fe = Arc::new(FrontEnd::new(bitrate_bps, self.fs_hz)?);
        self.front_ends.borrow_mut().insert(key, fe.clone());
        let mut st = self.fe_stats.get();
        st.design_misses += 1;
        self.fe_stats.set(st);
        Ok(fe)
    }

    /// Cumulative decimating front-end counters for this receiver.
    pub fn frontend_stats(&self) -> FrontEndStats {
        self.fe_stats.get()
    }

    /// Convert a pressure waveform into the recorded voltage waveform.
    pub fn record(&self, pressure: &[f64]) -> Vec<f64> {
        pressure
            .iter()
            .map(|&p| p * self.sensitivity_v_per_pa)
            .collect()
    }

    /// Downconvert at `carrier_hz` and Butterworth low-pass at
    /// `cutoff_hz`: the analysis front shared by both demodulators.
    fn downconvert_lowpass(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        cutoff_hz: f64,
    ) -> Result<Vec<Complex64>, CoreError> {
        let bb = downconvert(signal, carrier_hz, self.fs_hz);
        let lp = self.cached_butter(4, cutoff_hz, self.fs_hz)?;
        Ok(lp.filtfilt_complex(&bb))
    }

    /// Demodulate a received waveform around `carrier_hz`: downconvert,
    /// low-pass at `cutoff_hz`, return the amplitude envelope (Fig. 2).
    pub fn demodulate(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        cutoff_hz: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let filtered = self.downconvert_lowpass(signal, carrier_hz, cutoff_hz)?;
        Ok(filtered.iter().map(|c| 2.0 * c.norm()).collect())
    }

    /// Coherent demodulation: downconvert at `carrier_hz` and low-pass,
    /// returning the complex baseband (×2 to undo real→complex mixing
    /// loss). This is the observation the MIMO collision decoder works on.
    pub fn demodulate_complex(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        cutoff_hz: f64,
    ) -> Result<Vec<Complex64>, CoreError> {
        let mut out = self.downconvert_lowpass(signal, carrier_hz, cutoff_hz)?;
        for c in out.iter_mut() {
            *c = 2.0 * *c;
        }
        Ok(out)
    }

    /// Build the ±1 preamble matched-filter template at `bitrate_bps`
    /// for sample rate `fs_hz`, memoised per `(bitrate, fs)` pair.
    fn preamble_template(&self, bitrate_bps: f64, fs_hz: f64) -> Vec<f64> {
        let key = (bitrate_bps.to_bits(), fs_hz.to_bits());
        if let Some(t) = self.caches.borrow().preamble.get(&key) {
            return t.clone();
        }
        let halves = fm0::encode(&UPLINK_PREAMBLE, false);
        let spb = fs_hz / (2.0 * bitrate_bps);
        let n = (halves.len() as f64 * spb).round() as usize;
        let template: Vec<f64> = (0..n)
            .map(|i| {
                let k = ((i as f64 / spb) as usize).min(halves.len() - 1);
                if halves[k] {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        self.caches
            .borrow_mut()
            .preamble
            .insert(key, template.clone());
        template
    }

    /// Maximum-likelihood FM0 half-bit sequence detection.
    ///
    /// Viterbi over the two-level trellis: the level must flip at every
    /// bit boundary (FM0 invariant); the mid-bit flip is free and encodes
    /// the data. Metric: squared distance of each soft half-bit to the
    /// learned high/low cluster means.
    pub fn ml_fm0_halves(
        soft: &[f64],
        mu_lo: f64, // lint: unitless — cluster mean in the soft samples' own units
        mu_hi: f64, // lint: unitless — cluster mean in the soft samples' own units
    ) -> Vec<bool> {
        let lo = vec![mu_lo; soft.len()];
        let hi = vec![mu_hi; soft.len()];
        Self::ml_fm0_halves_adaptive(soft, &lo, &hi)
    }

    /// [`Self::ml_fm0_halves`] with per-half cluster means, tracking slow
    /// baseline wander across long packets.
    pub fn ml_fm0_halves_adaptive(soft: &[f64], mu_lo: &[f64], mu_hi: &[f64]) -> Vec<bool> {
        let mut back = Vec::new();
        let mut out = Vec::new();
        Self::ml_fm0_halves_adaptive_into(soft, mu_lo, mu_hi, &mut back, &mut out);
        out
    }

    /// [`Self::ml_fm0_halves_adaptive`] into caller-owned buffers: `back`
    /// holds the trellis backpointers, `out` receives the half-bit
    /// decisions. Both are cleared first, so warm buffers make the call
    /// allocation-free.
    fn ml_fm0_halves_adaptive_into(
        soft: &[f64],
        mu_lo: &[f64],
        mu_hi: &[f64],
        back: &mut Vec<[(usize, bool); 2]>,
        out: &mut Vec<bool>,
    ) {
        assert_eq!(soft.len(), mu_lo.len());
        assert_eq!(soft.len(), mu_hi.len());
        out.clear();
        let n_bits = soft.len() / 2;
        if n_bits == 0 {
            return;
        }
        let cost = |k: usize, x: f64, level: bool| {
            let mu = if level { mu_hi[k] } else { mu_lo[k] };
            (x - mu) * (x - mu)
        };
        // State: level at the *end* of bit k (after the second half).
        // path_cost[s], with backpointers per bit: (prev_state, mid_flip).
        back.clear();
        back.reserve(n_bits);
        // Initial level before bit 0 is unknown; start both states free.
        // For bit k with previous end-level p: first half = !p (boundary
        // flip), second half = s (the new end state); mid flip happened if
        // s != !p, i.e. data bit = (first == second) = (!p == s).
        let mut prev_cost = [0.0f64; 2];
        let mut first_bit = true;
        for k in 0..n_bits {
            // lint: allow(panic-path) soft.len() == 2*n_bits, so 2k+1 < soft.len()
            let (a, b) = (soft[2 * k], soft[2 * k + 1]);
            let mut new_cost = [f64::MAX; 2];
            let mut new_back = [(0usize, false); 2];
            for s in 0..2 {
                let s_level = s == 1;
                for p in 0..2 {
                    if first_bit && p == 1 {
                        // Collapse the unknown-start ambiguity: FM0 with
                        // initial_level=false means the first half is
                        // always `true` — model start level as false only.
                        continue;
                    }
                    let p_level = p == 1;
                    let first_half = !p_level;
                    let c = prev_cost[p]
                        + cost(2 * k, a, first_half)
                        + cost(2 * k + 1, b, s_level);
                    if c < new_cost[s] {
                        new_cost[s] = c;
                        new_back[s] = (p, first_half == s_level);
                    }
                }
            }
            back.push(new_back);
            prev_cost = new_cost;
            first_bit = false;
        }
        // Trace back from the cheaper final state, writing each bit's two
        // halves straight into their final positions.
        let mut s = if prev_cost[0] <= prev_cost[1] { 0 } else { 1 };
        out.resize(2 * n_bits, false);
        for k in (0..n_bits).rev() {
            // lint: allow(panic-path) s is a Viterbi state in {0,1}; back[k] is [(usize,bool); 2]
            let (p, _same) = back[k][s];
            // lint: allow(panic-path) out.len() == 2*n_bits, so 2k+1 < out.len()
            out[2 * k] = p != 1;
            // lint: allow(panic-path) out.len() == 2*n_bits, so 2k+1 < out.len()
            out[2 * k + 1] = s == 1;
            s = p;
        }
    }

    /// The fused coherent decode pipeline. All heavy buffers come from
    /// the receiver's [`DecodeScratch`]; the decoded bit/soft streams are
    /// left in the arena for callers that want to copy them out.
    fn decode_uplink_core(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        bitrate_bps: f64,
    ) -> Result<DecodeVerdict, CoreError> {
        if !(bitrate_bps > 0.0) {
            return Err(CoreError::InvalidConfig("bitrate_bps"));
        }
        if signal.len() < 64 {
            return Err(CoreError::InvalidConfig("signal too short"));
        }
        let fe = self.front_end(carrier_hz, bitrate_bps)?;
        let s = &mut *self.scratch.borrow_mut();
        let n = signal.len();

        // Fused mix→filter: downconvert straight into the centre of the
        // filtfilt workspace (the NCO phasor recurrence runs inside the
        // write loop; no full-rate intermediate vector), then run the
        // Butterworth forward-backward pass in place. The pad margins are
        // filled with odd reflections by the filter itself.
        let pad = fe.butter4.filtfilt_pad(n);
        s.ext.resize(n + 2 * pad, Complex64::new(0.0, 0.0));
        downconvert_into(signal, carrier_hz, self.fs_hz, &mut s.ext[pad..pad + n]);
        fe.butter4.filtfilt_complex_in_place(&mut s.ext, pad, n);
        let bb = &s.ext[pad..pad + n];

        // Fused filter→decimate, with the coherent ×2 (undoing the
        // real→complex mixing loss) applied as each sample is read.
        match &fe.aa {
            Some(aa) => aa.decimate_complex_scaled_into(bb, 2.0, &mut s.bb_d),
            None => {
                s.bb_d.clear();
                s.bb_d.extend(bb.iter().map(|&c| 2.0 * c));
            }
        }
        let n2 = s.bb_d.len();
        let fs2 = fe.fs2;

        let mut st = self.fe_stats.get();
        st.decodes += 1;
        st.samples_in += n as u64;
        st.samples_out += n2 as u64;
        if let Some(aa) = &fe.aa {
            if aa.mode() == DecimMode::Direct {
                st.macs_saved += aa.direct_macs_saved(n);
            }
        }
        self.fe_stats.set(st);

        // Complex detrend: the slow trend is the direct-carrier phasor.
        let pad2 = fe.trend.filtfilt_pad(n2);
        s.ext2.resize(n2 + 2 * pad2, Complex64::new(0.0, 0.0));
        s.ext2[pad2..pad2 + n2].copy_from_slice(&s.bb_d);
        fe.trend.filtfilt_complex_in_place(&mut s.ext2, pad2, n2);
        let trend_c = &s.ext2[pad2..pad2 + n2];
        s.d.clear();
        s.d.extend(s.bb_d.iter().zip(trend_c).map(|(&x, &t)| x - t));

        // CFO correction: the direct-carrier trend rotates at the CFO
        // rate; estimate it where the carrier is strong and derotate.
        // Estimate over the longest *contiguous* strong run: concatenating
        // across carrier-off gaps would add seam phase jumps that bias the
        // estimate.
        // One hypot per sample: both the peak fold and the threshold scan
        // read the same norms, so compute them once.
        s.norms.clear();
        s.norms.extend(trend_c.iter().map(|x| x.norm()));
        let trend_peak = s.norms.iter().copied().fold(0.0, f64::max);
        let threshold = 0.25 * trend_peak;
        let mut best_run = (0usize, 0usize);
        let mut run_start = None;
        for (i, &norm) in s.norms.iter().enumerate() {
            if norm > threshold {
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else if let Some(s0) = run_start.take() {
                if i - s0 > best_run.1 - best_run.0 {
                    best_run = (s0, i);
                }
            }
        }
        if let Some(s0) = run_start {
            if trend_c.len() - s0 > best_run.1 - best_run.0 {
                best_run = (s0, trend_c.len());
            }
        }
        let cfo = pab_dsp::correlate::estimate_cfo_hz(&trend_c[best_run.0..best_run.1], fs2);
        let correct_cfo = cfo.abs() > 0.05;
        if correct_cfo {
            frequency_shift_into(&s.d, -cfo, fs2, &mut s.shifted);
        }
        let d: &[Complex64] = if correct_cfo { &s.shifted } else { &s.d };

        // Complex preamble correlation: peak magnitude locates the packet,
        // peak phase is the modulation direction. The numerator is a
        // matched-filter correlation — FFT overlap-save with a memoised
        // kernel FFT for long templates, the direct loop otherwise
        // (exactly cross_correlate_complex's dispatch) — and the window
        // energy comes from an O(N) running sum.
        let m = fe.template_c.len();
        if d.len() <= m {
            return Err(CoreError::NoPacketDetected);
        }
        if fastconv::fft_pays_off(d.len(), m) {
            let kfft = fe.xcorr_kernel(fastconv::block_size(d.len(), m));
            fastconv::correlate_valid_cached_into(d, m, &kfft, &mut s.num);
        } else {
            s.num.clear();
            s.num.extend((0..=d.len() - m).map(|i| {
                d[i..i + m]
                    .iter()
                    .zip(&fe.template_c)
                    .map(|(a, b)| a * b.conj())
                    .sum::<Complex64>()
            }));
        }
        let mut best = (0usize, 0.0f64, Complex64::new(0.0, 0.0));
        // Running window energy for normalisation.
        let mut win_energy: f64 = d[..m].iter().map(|c| c.norm_sqr()).sum();
        for (i, &acc) in s.num.iter().enumerate() {
            if i > 0 {
                // lint: allow(panic-path) num.len() == d.len()-m+1, so i+m-1 < d.len(); i > 0 checked
                win_energy += d[i + m - 1].norm_sqr() - d[i - 1].norm_sqr();
            }
            let denom = win_energy.max(1e-30).sqrt() * fe.t_energy;
            let score = acc.norm() / denom;
            if score > best.1 {
                best = (i, score, acc);
            }
        }
        let (start, peak_corr, peak_acc) = best;
        if peak_corr < 0.3 {
            return Err(CoreError::NoPacketDetected);
        }
        let theta = peak_acc.arg();
        // Slice the *raw* (un-detrended) projected baseband: inside the
        // packet the baseline is the constant CW illumination, and the
        // detrending high-pass would otherwise leak a slow step transient
        // into the first tens of milliseconds of soft values (fatal at
        // low bitrates where that spans many bits). The cluster means in
        // slice_core absorb the constant offset.
        let rot = Complex64::from_polar(1.0, -theta);
        let raw: &[Complex64] = if correct_cfo {
            frequency_shift_into(&s.bb_d, -cfo, fs2, &mut s.raw);
            &s.raw
        } else {
            &s.bb_d
        };
        s.projected.clear();
        s.projected.extend(raw.iter().map(|&c| (c * rot).re));

        let outcome = Self::slice_core(&s.projected, start, fs2, bitrate_bps, &mut s.slicer)?;
        Ok(DecodeVerdict {
            packet: outcome.packet,
            start_sample: start * fe.decim,
            snr_db: outcome.snr_db,
            preamble_corr: peak_corr,
        })
    }

    /// Decode an uplink packet from a recorded waveform, coherently.
    ///
    /// The backscatter phasor arrives at an arbitrary angle relative to
    /// the direct carrier; plain magnitude (envelope) detection loses the
    /// quadrature component, so the decoder works on complex baseband:
    /// detrend (removes the direct carrier phasor), correct the residual
    /// CFO (§5.1(b), footnote 12), find the packet by complex preamble
    /// correlation — whose phase reveals the modulation direction — and
    /// project onto that direction before FM0 slicing.
    ///
    /// `bitrate_bps` must be the node's (quantized) FM0 bitrate, known to
    /// the receiver because the projector commanded it.
    ///
    /// Returns the full diagnostic [`Decoded`] (which clones the bit and
    /// envelope buffers out of the scratch arena); hot paths that only
    /// need the verdict should call
    /// [`decode_uplink_verdict`](Self::decode_uplink_verdict).
    pub fn decode_uplink(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        bitrate_bps: f64,
    ) -> Result<Decoded, CoreError> {
        let v = self.decode_uplink_core(signal, carrier_hz, bitrate_bps)?;
        let s = self.scratch.borrow();
        Ok(Decoded {
            packet: v.packet,
            bits: s.slicer.bits.clone(),
            halves: s.slicer.halves.clone(),
            soft: s.slicer.soft.clone(),
            start_sample: v.start_sample,
            snr_db: v.snr_db,
            preamble_corr: v.preamble_corr,
            envelope: s.projected.clone(),
        })
    }

    /// [`decode_uplink`](Self::decode_uplink) without the diagnostic
    /// copies: with a warm scratch arena and memoised front-end this
    /// performs zero heap allocations end-to-end.
    pub fn decode_uplink_verdict(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        bitrate_bps: f64,
    ) -> Result<DecodeVerdict, CoreError> {
        self.decode_uplink_core(signal, carrier_hz, bitrate_bps)
    }

    /// Decode a packet from an already-demodulated amplitude stream (the
    /// path used after MIMO zero-forcing, where the "envelope" is a
    /// separated stream estimate rather than a single band's magnitude).
    pub fn decode_envelope(
        &self,
        envelope: &[f64],
        bitrate_bps: f64,
    ) -> Result<Decoded, CoreError> {
        if !(bitrate_bps > 0.0) {
            return Err(CoreError::InvalidConfig("bitrate_bps"));
        }
        // Decimate so a half-bit spans ~16 samples: this keeps the
        // detrending filter's normalised cutoff numerically sane at low
        // bitrates and makes symbol processing bitrate-independent.
        let spb_raw = self.fs_hz / (2.0 * bitrate_bps);
        let decim = ((spb_raw / 16.0).floor() as usize).max(1);
        let envelope = pab_dsp::resample::decimate(envelope, decim, self.fs_hz)?;
        let fs_hz = self.fs_hz / decim as f64;
        // Detrend: the backscatter modulation rides on the much larger
        // direct-path carrier level (Fig. 2), and that baseline also moves
        // when the projector keys on/off. A low-pass trend (well below the
        // bit rate) subtracted out leaves just the modulation.
        let trend_cutoff = (bitrate_bps / 20.0).max(2.0);
        let trend = butter_lowpass(2, trend_cutoff, fs_hz)?.filtfilt(&envelope);
        let centered: Vec<f64> = envelope
            .iter()
            .zip(&trend)
            .map(|(&e, &t)| e - t)
            .collect();
        let template = self.preamble_template(bitrate_bps, fs_hz);
        if centered.len() <= template.len() {
            return Err(CoreError::NoPacketDetected);
        }
        let corr = normalized_cross_correlate(&centered, &template);
        let (start, peak_corr) = argmax(&corr).ok_or(CoreError::NoPacketDetected)?;
        if peak_corr < 0.3 {
            return Err(CoreError::NoPacketDetected);
        }
        let mut decoded = self.slice_and_decode(&centered, start, fs_hz, bitrate_bps)?;
        decoded.start_sample = start * decim;
        decoded.preamble_corr = peak_corr;
        Ok(decoded)
    }

    /// [`Self::slice_core`] plus the diagnostic copies into a [`Decoded`]
    /// (the envelope path's tail).
    fn slice_and_decode(
        &self,
        centered: &[f64],
        start: usize,
        fs_hz: f64,
        bitrate_bps: f64,
    ) -> Result<Decoded, CoreError> {
        let s = &mut *self.scratch.borrow_mut();
        let outcome = Self::slice_core(centered, start, fs_hz, bitrate_bps, &mut s.slicer)?;
        Ok(Decoded {
            packet: outcome.packet,
            bits: s.slicer.bits.clone(),
            halves: s.slicer.halves.clone(),
            soft: s.slicer.soft.clone(),
            start_sample: start,
            snr_db: outcome.snr_db,
            // Overwritten by the callers, which know the detection peak.
            preamble_corr: 0.0,
            envelope: centered.to_vec(),
        })
    }

    /// Shared tail of the decode pipelines: integrate-and-dump half-bit
    /// slicing from `start`, cluster-mean estimation, the two-pass ML
    /// trellis, packet parsing and SNR measurement. `centered` is the
    /// zero-mean modulation stream at sample rate `fs_hz`; the decoded
    /// `soft`/`halves`/`bits` streams are left in `sl` for the caller.
    fn slice_core(
        centered: &[f64],
        start: usize,
        fs_hz: f64,
        bitrate_bps: f64,
        sl: &mut SlicerScratch,
    ) -> Result<SliceOutcome, CoreError> {
        let spb = fs_hz / (2.0 * bitrate_bps);
        let available = ((centered.len() - start) as f64 / spb).floor() as usize;
        // Longest packet: 15-byte payload.
        let max_halves = 2 * UplinkPacket::bits_len(UplinkPacket::MAX_PAYLOAD);
        let n_halves = available.min(max_halves) & !1usize;
        if n_halves < 2 * UplinkPacket::bits_len(0) {
            return Err(CoreError::NoPacketDetected);
        }
        let SlicerScratch {
            soft,
            chunk,
            centers,
            los,
            his,
            mu_lo,
            mu_hi,
            back,
            halves,
            bits,
        } = sl;
        soft.clear();
        soft.reserve(n_halves);
        for k in 0..n_halves {
            let a = start + (k as f64 * spb).floor() as usize;
            let b = (start + ((k + 1) as f64 * spb) as usize).min(centered.len());
            soft.push(stats::mean(&centered[a..b]));
        }

        // Two-pass ML decode. The trellis must not run past the packet:
        // post-packet samples carry no FM0 structure, and forcing the
        // boundary-transition invariant through them corrupts the final
        // data bit. Pass 1 decodes the fixed-size header to learn the
        // payload length; pass 2 decodes exactly the packet's halves.
        let header_halves = 2 * (16 + 8 + 8 + 4 + 4);
        let head_len = header_halves.min(soft.len());
        cluster_track_into(&soft[..head_len], chunk, centers, los, his, mu_lo, mu_hi);
        Self::ml_fm0_halves_adaptive_into(&soft[..head_len], mu_lo, mu_hi, back, halves);
        fm0::decode_lenient_into(halves, bits);
        // lint: allow(lossy-cast) 4-bit value, lossless widening
        let payload_len = pab_net::bits::read_uint(bits, 36, 4).unwrap_or(0) as usize;
        let want_halves = (2 * UplinkPacket::bits_len(payload_len)).min(soft.len());
        soft.truncate(want_halves.max(head_len));
        cluster_track_into(soft, chunk, centers, los, his, mu_lo, mu_hi);
        Self::ml_fm0_halves_adaptive_into(soft, mu_lo, mu_hi, back, halves);
        fm0::decode_lenient_into(halves, bits);

        // Post-decode detection verification: the matched filter's
        // normalized peak can exceed the 0.3 threshold on pure noise (the
        // direct-path CW leaves a noise-like residual), which would let a
        // silent node masquerade as a corrupted packet. A true packet —
        // even a badly corrupted one — decodes its preamble bits nearly
        // intact, while a false detection yields ~50% preamble mismatch;
        // reject when more than a quarter of the preamble bits disagree.
        let pre_len = UPLINK_PREAMBLE.len().min(bits.len());
        let pre_err = pab_net::bits::hamming_distance(&bits[..pre_len], &UPLINK_PREAMBLE[..pre_len]);
        if pre_len < UPLINK_PREAMBLE.len() || 4 * pre_err > UPLINK_PREAMBLE.len() {
            return Err(CoreError::NoPacketDetected);
        }

        let packet = UplinkPacket::from_bits(bits);

        // SNR per §6.1: signal power = squared channel estimate (half the
        // high/low separation), noise = residual around cluster means.
        // Plain left-to-right sums — the same fold stats::mean performs.
        let mut h_sum = 0.0;
        for k in 0..soft.len() {
            h_sum += (mu_hi[k] - mu_lo[k]) / 2.0;
        }
        let h = if soft.is_empty() {
            0.0
        } else {
            h_sum / soft.len() as f64
        };
        let noise: f64 = soft
            .iter()
            .zip(halves.iter())
            .enumerate()
            .map(|(k, (&x, &lvl))| {
                let mu = if lvl { mu_hi[k] } else { mu_lo[k] };
                (x - mu) * (x - mu)
            })
            .sum::<f64>()
            / soft.len() as f64;
        let snr_db = stats::snr_db(h * h, noise);

        Ok(SliceOutcome { packet, snr_db })
    }
}

/// Blockwise robust cluster-mean estimation, interpolated per half-bit,
/// into caller-owned buffers (all cleared first): `chunk`, `centers`,
/// `los`, `his` are workspaces; `mu_lo`/`mu_hi` receive one mean per
/// half. Slow baseline wander over a long packet (residual CFO, channel
/// settling) thus doesn't bias the later bits; each 32-half block has a
/// ~balanced level mix under FM0.
#[allow(clippy::too_many_arguments)] // a scratch bundle, not an API surface
fn cluster_track_into(
    soft: &[f64],
    chunk: &mut Vec<f64>,
    centers: &mut Vec<f64>,
    los: &mut Vec<f64>,
    his: &mut Vec<f64>,
    mu_lo: &mut Vec<f64>,
    mu_hi: &mut Vec<f64>,
) {
    let block = 32usize;
    centers.clear();
    los.clear();
    his.clear();
    let mut i = 0;
    while i < soft.len() {
        let end = (i + block).min(soft.len());
        if end - i < 8 && !centers.is_empty() {
            break;
        }
        chunk.clear();
        chunk.extend_from_slice(&soft[i..end]);
        // Unstable sort: total_cmp-equal f64s are bit-identical, so the
        // sorted *values* match sort_by exactly — and no merge buffer.
        chunk.sort_unstable_by(f64::total_cmp);
        los.push(stats::mean(&chunk[..chunk.len() / 2]));
        his.push(stats::mean(&chunk[chunk.len() / 2..]));
        centers.push((i + end) as f64 / 2.0);
        i = end;
    }
    let centers: &[f64] = centers;
    let interp = |vals: &[f64], x: f64| -> f64 {
        if vals.len() == 1 {
            return vals[0];
        }
        let pos = centers
            .iter()
            .position(|&c| c > x)
            .unwrap_or(centers.len());
        match pos {
            0 => vals[0],
            p if p == centers.len() => vals[vals.len() - 1],
            p => {
                let t = (x - centers[p - 1]) / (centers[p] - centers[p - 1]);
                vals[p - 1] * (1.0 - t) + vals[p] * t
            }
        }
    };
    mu_lo.clear();
    mu_lo.extend((0..soft.len()).map(|k| interp(los, k as f64)));
    mu_hi.clear();
    mu_hi.extend((0..soft.len()).map(|k| interp(his, k as f64)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pab_net::packet::UplinkKind;

    /// Synthesise a clean backscatter envelope waveform for a packet.
    fn synth_waveform(
        packet: &UplinkPacket,
        bitrate: f64,
        fs_hz: f64,
        carrier: f64,
        amp_hi: f64,
        amp_lo: f64,
        lead_s: f64,
    ) -> Vec<f64> {
        let halves = fm0::encode(&packet.to_bits().unwrap(), false);
        let spb = fs_hz / (2.0 * bitrate);
        let lead = (lead_s * fs_hz) as usize;
        let n = lead + (halves.len() as f64 * spb) as usize + lead;
        let mut w = Vec::with_capacity(n);
        let mut nco = pab_dsp::mix::Nco::new(carrier, fs_hz);
        for i in 0..n {
            let amp = if i < lead {
                amp_lo
            } else {
                let k = ((i - lead) as f64 / spb) as usize;
                if k < halves.len() {
                    if halves[k] {
                        amp_hi
                    } else {
                        amp_lo
                    }
                } else {
                    amp_lo
                }
            };
            w.push(amp * nco.next_sample());
        }
        w
    }

    fn test_packet() -> UplinkPacket {
        UplinkPacket::sensor_reading(7, 3, pab_net::packet::SensorKind::Ph, 7.012)
    }

    #[test]
    fn clean_packet_decodes_with_crc() {
        let rx = Receiver::default();
        let p = test_packet();
        let w = synth_waveform(&p, 2730.67, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
        let d = rx.decode_uplink(&w, 15_000.0, 2730.67).unwrap();
        assert_eq!(d.packet.unwrap(), p);
        assert!(d.snr_db > 15.0, "snr={}", d.snr_db);
    }

    #[test]
    fn noisy_packet_still_decodes() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let rx = Receiver::default();
        let p = test_packet();
        let mut w = synth_waveform(&p, 1024.0, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
        pab_channel::noise::add_awgn(&mut w, 0.15, &mut rng);
        let d = rx.decode_uplink(&w, 15_000.0, 1024.0).unwrap();
        assert_eq!(d.packet.unwrap(), p);
    }

    #[test]
    fn pure_noise_yields_no_packet_or_bad_crc() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let rx = Receiver::default();
        let w = pab_channel::noise::awgn(40_000, 0.3, &mut rng);
        match rx.decode_uplink(&w, 15_000.0, 2730.67) {
            Err(CoreError::NoPacketDetected) => {}
            Ok(d) => assert!(d.packet.is_err(), "noise produced a valid packet"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn verdict_path_matches_decoded_path() {
        // The lean verdict decode and the diagnostic decode must agree
        // exactly — same pipeline, same scratch, different copy-out.
        let rx = Receiver::default();
        let p = test_packet();
        for bitrate in [2730.67, 1024.0, 256.0] {
            let w = synth_waveform(&p, bitrate, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
            let d = rx.decode_uplink(&w, 15_000.0, bitrate).unwrap();
            let v = rx.decode_uplink_verdict(&w, 15_000.0, bitrate).unwrap();
            assert_eq!(d.packet.unwrap(), v.packet.unwrap(), "bitrate={bitrate}");
            assert_eq!(d.start_sample, v.start_sample);
            assert_eq!(d.snr_db.to_bits(), v.snr_db.to_bits());
            assert_eq!(d.preamble_corr.to_bits(), v.preamble_corr.to_bits());
        }
    }

    #[test]
    fn repeated_decodes_are_deterministic_and_hit_the_front_end_cache() {
        let rx = Receiver::default();
        let p = test_packet();
        let w = synth_waveform(&p, 1024.0, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
        let a = rx.decode_uplink(&w, 15_000.0, 1024.0).unwrap();
        let b = rx.decode_uplink(&w, 15_000.0, 1024.0).unwrap();
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits());
        let st = rx.frontend_stats();
        assert_eq!(st.decodes, 2);
        assert_eq!(st.design_misses, 1, "one front-end design for one rate");
        assert_eq!(st.design_hits, 1, "second decode must hit the cache");
        assert!(st.samples_in > st.samples_out, "decimation must shrink");
    }

    #[test]
    fn ml_decoder_repairs_boundary_violations() {
        // Construct soft values where one half-bit is pushed across the
        // threshold; the trellis constraint should still recover the data.
        let p = UplinkPacket {
            src: 1,
            seq: 0,
            kind: UplinkKind::Ack,
            payload: vec![],
        };
        let bits = p.to_bits().unwrap();
        let halves = fm0::encode(&bits, false);
        let mut soft: Vec<f64> = halves.iter().map(|&h| if h { 1.0 } else { 0.0 }).collect();
        // Corrupt one sample towards the middle — threshold slicing at 0.5
        // could go either way, but the boundary rule disambiguates.
        soft[7] = 0.45;
        let ml = Receiver::ml_fm0_halves(&soft, 0.0, 1.0);
        assert_eq!(ml, halves);
    }

    #[test]
    fn ml_decoder_on_clean_input_is_identity() {
        let bits = vec![true, false, false, true, true];
        let halves = fm0::encode(&bits, false);
        let soft: Vec<f64> = halves.iter().map(|&h| if h { 0.9 } else { 0.1 }).collect();
        let ml = Receiver::ml_fm0_halves(&soft, 0.1, 0.9);
        assert_eq!(ml, halves);
        assert!(Receiver::ml_fm0_halves(&[], 0.0, 1.0).is_empty());
    }

    #[test]
    fn record_applies_sensitivity() {
        let rx = Receiver::default();
        let v = rx.record(&[1_000.0]);
        assert!((v[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        let rx = Receiver::default();
        assert!(rx.decode_uplink(&[0.0; 1000], 15_000.0, 0.0).is_err());
        assert!(rx.decode_uplink(&[0.0; 10], 15_000.0, 1000.0).is_err());
    }
}
