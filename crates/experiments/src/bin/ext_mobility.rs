//! §8 extension — mobility: "These settings are also likely to introduce
//! new challenges, such as mobility and multipath, which would be
//! interesting to explore."
//!
//! A node drifting or towed through the water Doppler-shifts and
//! time-compresses its backscatter. This experiment passes an uplink
//! packet through a constant-velocity path at increasing radial speeds
//! and reports whether the receiver still decodes it: the coherent CFO
//! correction absorbs the carrier shift until the accumulated *symbol
//! clock* slip (the same v/c factor applied to the bitrate) breaks FM0
//! alignment.

use pab_channel::mobility::MovingPath;
use pab_channel::noise::add_awgn;
use pab_channel::DriftRamp;
use pab_core::receiver::Receiver;
use pab_experiments::{banner, write_csv};
use pab_net::fm0;
use pab_net::packet::{SensorKind, UplinkPacket};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Synthesise the node's backscatter source waveform for one packet.
fn packet_waveform(bitrate: f64, fs_hz: f64) -> (UplinkPacket, Vec<f64>) {
    let packet = UplinkPacket::sensor_reading(4, 0, SensorKind::Temperature, 13.37);
    let mut halves = fm0::encode(&packet.to_bits().unwrap(), false);
    let last = *halves.last().unwrap();
    halves.push(!last);
    halves.push(!last);
    let spb = fs_hz / (2.0 * bitrate);
    let lead = (0.03 * fs_hz) as usize;
    let n = lead + (halves.len() as f64 * spb) as usize + lead;
    let mut nco = pab_dsp::mix::Nco::new(15_000.0, fs_hz);
    let w = (0..n)
        .map(|i| {
            let amp = if i < lead || i >= n - lead {
                0.4
            } else {
                let k = (((i - lead) as f64) / spb) as usize;
                if k < halves.len() && halves[k] {
                    1.0
                } else {
                    0.4
                }
            };
            amp * nco.next_sample()
        })
        .collect();
    (packet, w)
}

fn main() -> std::io::Result<()> {
    banner(
        "§8 extension — mobility (Doppler) tolerance",
        "the coherent receiver absorbs the carrier Doppler; the symbol-\
         clock slip sets the speed limit",
    );
    let rx = Receiver::default();
    let bitrate = 1_024.0;
    let (packet, w) = packet_waveform(bitrate, rx.fs_hz());
    let mut rng = ChaCha8Rng::seed_from_u64(3);

    // A slowly warming node oscillator drifts while the platform moves;
    // the two offsets compose multiplicatively (drift rides the carrier
    // *before* the Doppler compression), not additively.
    let drift = DriftRamp {
        rate_hz_per_s: 0.5,
        max_abs_hz: 20.0,
    };
    let drift_eval_s = 10.0;

    println!(
        "{:>12} {:>14} {:>12} {:>10} {:>8} {:>16}",
        "speed (m/s)", "Doppler (Hz)", "clock slip", "SNR (dB)", "decoded", "cfo+drift (Hz)"
    );
    let mut rows = Vec::new();
    for &v in &[0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0] {
        let path = MovingPath::new(3.0, v, 1_500.0).expect("physical path");
        let mut y = path.apply(&w, rx.fs_hz());
        add_awgn(&mut y, 2e-3, &mut rng);
        let doppler = 15_000.0 - path.observed_frequency_hz(15_000.0);
        // What the receiver's CFO estimator faces 10 s into the pass if
        // the node oscillator is also ramping at 0.5 Hz/s (capped 20 Hz).
        let composed_cfo = path.cfo_with_drift_hz(15_000.0, &drift, drift_eval_s);
        // Fractional symbol-clock slip over the whole packet.
        let packet_bits = packet.to_bits().unwrap().len() as f64;
        let slip_bits = packet_bits * (v / 1_500.0);
        let (snr, ok) = match rx.decode_uplink(&y, 15_000.0, bitrate) {
            Ok(d) => (d.snr_db, d.packet.map(|p| p == packet).unwrap_or(false)),
            Err(_) => (f64::NEG_INFINITY, false),
        };
        rows.push(format!(
            "{v},{doppler:.1},{slip_bits:.3},{snr:.2},{ok},{composed_cfo:.3}"
        ));
        println!(
            "{v:>12} {doppler:>14.1} {slip_bits:>10.3}b {snr:>10.1} {ok:>8} {composed_cfo:>16.3}"
        );
    }
    let path = write_csv(
        "ext_mobility.csv",
        "speed_m_s,doppler_hz,clock_slip_bits,snr_db,decoded,composed_cfo_hz",
        &rows,
    )?;
    println!();
    println!("csv: {}", path.display());
    Ok(())
}
