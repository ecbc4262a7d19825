//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! These measure *quality metrics as well as speed*: each bench times the
//! variant, and a companion `#[test]`-style assertion inside the setup
//! verifies the qualitative ordering (e.g. ML decoding tolerates more
//! noise than threshold slicing) so the ablation conclusions are checked
//! on every bench run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pab_core::receiver::Receiver;
use pab_net::{fm0, manchester};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// ML (trellis) vs threshold FM0 half-bit decisions on noisy soft values.
fn ml_vs_threshold(c: &mut Criterion) {
    let bits: Vec<bool> = (0..400u32).map(|i| (i * 7 + 3) % 5 < 2).collect();
    let halves = fm0::encode(&bits, false);
    let rng = ChaCha8Rng::seed_from_u64(4);
    let noisy = || -> Vec<f64> {
        halves
            .iter()
            .map(|&h| {
                let base = if h { 1.0 } else { 0.0 };
                base + 0.45 * pab_channel::noise::standard_normal(&mut rng.clone())
            })
            .collect()
    };
    // Quality check once: ML must not be worse than plain thresholding.
    {
        let mut rng2 = ChaCha8Rng::seed_from_u64(9);
        let soft: Vec<f64> = halves
            .iter()
            .map(|&h| {
                (if h { 1.0 } else { 0.0 })
                    + 0.45 * pab_channel::noise::standard_normal(&mut rng2)
            })
            .collect();
        let ml = Receiver::ml_fm0_halves(&soft, 0.0, 1.0);
        let thr: Vec<bool> = soft.iter().map(|&x| x > 0.5).collect();
        let err = |dec: &[bool]| {
            dec.iter()
                .zip(&halves)
                .filter(|(a, b)| a != b)
                .count()
        };
        assert!(
            err(&ml) <= err(&thr),
            "ML decoder worse than threshold: {} vs {}",
            err(&ml),
            err(&thr)
        );
    }
    let soft = noisy();
    c.bench_function("ablate_ml_trellis_decode", |b| {
        b.iter(|| Receiver::ml_fm0_halves(&soft, 0.0, 1.0))
    });
    c.bench_function("ablate_threshold_decode", |b| {
        b.iter(|| soft.iter().map(|&x| x > 0.5).collect::<Vec<bool>>())
    });
}

/// FM0 vs Manchester line coding (encode+decode throughput; both carry
/// one bit per two half-slots, FM0 additionally self-delineates).
fn fm0_vs_manchester(c: &mut Criterion) {
    let bits: Vec<bool> = (0..4096u32).map(|i| i % 3 == 0).collect();
    c.bench_function("ablate_fm0_roundtrip", |b| {
        b.iter(|| {
            let enc = fm0::encode(&bits, false);
            fm0::decode(&enc, false).unwrap()
        })
    });
    c.bench_function("ablate_manchester_roundtrip", |b| {
        b.iter(|| {
            let enc = manchester::encode(&bits);
            manchester::decode(&enc).unwrap()
        })
    });
}

/// Matching network on vs off: harvested power at resonance.
fn matching_on_off(c: &mut Criterion) {
    use pab_analog::impedance::{delivered_power_w, resistor};
    use pab_analog::MatchingNetwork;
    use pab_piezo::Transducer;
    let t = Transducer::pab_node();
    let zs = t.electrical_impedance(15_000.0);
    let m = MatchingNetwork::design(zs, 15_000.0, 20_000.0).unwrap();
    // Quality check: matching must beat a direct connection several-fold.
    let matched = m.delivered_power_w(1.0, zs, 15_000.0, 20_000.0);
    let direct = delivered_power_w(1.0, zs, resistor(20_000.0));
    assert!(
        matched > 2.0 * direct,
        "matching gain implausible: {matched} vs {direct}"
    );
    c.bench_function("ablate_matching_design", |b| {
        b.iter(|| MatchingNetwork::design(zs, 15_000.0, 20_000.0).unwrap())
    });
}

/// Image-method reflection order vs channel fidelity/cost.
fn image_order(c: &mut Criterion) {
    use pab_channel::{Pool, Position};
    let pool = Pool::pool_a();
    let a = Position::new(0.5, 1.5, 0.6);
    let b_pos = Position::new(2.5, 2.0, 0.7);
    for order in [0usize, 1, 3, 5] {
        c.bench_function(&format!("ablate_image_order_{order}"), |b| {
            b.iter(|| pool.channel(&a, &b_pos, order, 15_000.0).unwrap())
        });
    }
}

/// Coherent (complex projection) vs envelope-only packet decoding.
fn coherent_vs_envelope(c: &mut Criterion) {
    // (both paths are ms-scale; default sampling is fine)
    use pab_net::packet::{SensorKind, UplinkPacket};
    let rx = Receiver::default();
    let p = UplinkPacket::sensor_reading(1, 1, SensorKind::Ph, 7.0);
    let halves = fm0::encode(&p.to_bits().unwrap(), false);
    let spb = rx.fs_hz() / (2.0 * 1024.0);
    let lead = (0.008 * rx.fs_hz()) as usize;
    let n = lead + (halves.len() as f64 * spb) as usize + lead;
    let mut nco = pab_dsp::mix::Nco::new(15_000.0, rx.fs_hz());
    let w: Vec<f64> = (0..n)
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
    c.bench_function("ablate_coherent_decode", |b| {
        b.iter_batched(
            || w.clone(),
            |w| rx.decode_uplink(&w, 15_000.0, 1024.0).unwrap(),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("ablate_envelope_decode", |b| {
        b.iter_batched(
            || rx.demodulate(&w, 15_000.0, 2_048.0).unwrap(),
            |env| rx.decode_envelope(&env, 1024.0).unwrap(),
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    ablations,
    ml_vs_threshold,
    fm0_vs_manchester,
    matching_on_off,
    image_order,
    coherent_vs_envelope
);
criterion_main!(ablations);
