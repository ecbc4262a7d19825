//! Benchmarks for the DSP primitives on the receiver hot path.
//!
//! The `*_direct` / `*_fft` pairs pin down the overlap-save crossover
//! (`pab_dsp::fastconv`), and the planner pair measures what the
//! thread-local `PlanCache` saves per call. Run with
//! `cargo bench -p pab-bench --bench dsp`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use num_complex::Complex64;
use pab_dsp::correlate::{
    cross_correlate, cross_correlate_direct, normalized_cross_correlate,
    normalized_cross_correlate_direct,
};
use pab_dsp::fir::Fir;
use pab_dsp::goertzel::tone_amplitude;
use pab_dsp::iir::butter_lowpass;
use pab_dsp::mix::{downconvert, tone, Nco};
use pab_dsp::resample::decimate;
use pab_dsp::window::Window;

const FS: f64 = 192_000.0;
const N: usize = 96_000; // 0.5 s

fn signal() -> Vec<f64> {
    tone(15_000.0, FS, 0.0, N)
}

fn bench_downconvert(c: &mut Criterion) {
    let s = signal();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("downconvert_500ms", |b| {
        b.iter(|| downconvert(&s, 15_000.0, FS))
    });
    g.finish();
}

fn bench_butterworth(c: &mut Criterion) {
    let s = signal();
    let lp = butter_lowpass(4, 2_000.0, FS).unwrap();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("butterworth4_filtfilt_500ms", |b| b.iter(|| lp.filtfilt(&s)));
    g.finish();
}

fn bench_fir(c: &mut Criterion) {
    let s = signal();
    let f = Fir::lowpass(127, 2_000.0, FS, Window::Hamming).unwrap();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("fir127_filter_500ms", |b| b.iter(|| f.filter(&s)));
    g.finish();
}

fn bench_hilbert(c: &mut Criterion) {
    let s = signal();
    let h = pab_dsp::fir::hilbert(127, Window::Hamming).unwrap();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("hilbert127_500ms", |b| b.iter(|| h.filter(&s)));
    g.finish();
}

fn bench_decimate(c: &mut Criterion) {
    let s = signal();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("decimate_by_8_500ms", |b| {
        b.iter(|| decimate(&s, 8, FS).unwrap())
    });
    g.finish();
}

fn bench_goertzel(c: &mut Criterion) {
    let s = signal();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("goertzel_500ms", |b| {
        b.iter(|| tone_amplitude(&s, 15_000.0, FS))
    });
    g.finish();
}

fn bench_nco(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("nco_fill_500ms", |b| {
        b.iter(|| {
            let mut nco = Nco::new(15_000.0, FS);
            let mut buf = vec![0.0; N];
            nco.fill(&mut buf);
            buf
        })
    });
    g.finish();
}

fn bench_correlation(c: &mut Criterion) {
    // Template the size of the uplink preamble at 1 kbps, decimated.
    let s: Vec<f64> = tone(500.0, 12_000.0, 0.0, 12_000);
    let tpl: Vec<f64> = (0..512).map(|i| if (i / 16) % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(s.len() as u64));
    g.bench_function("normalized_xcorr_512tap", |b| {
        b.iter(|| normalized_cross_correlate(&s, &tpl))
    });
    g.finish();
}

/// Direct-vs-FFT pairs at 0.5 s @ 192 kHz — the workloads the
/// `fastconv` crossover dispatch decides between.
fn bench_direct_vs_fft(c: &mut Criterion) {
    let s = signal();
    let tpl: Vec<f64> = (0..512)
        .map(|i| if (i / 16) % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let fir = Fir::lowpass(127, 2_000.0, FS, Window::Hamming).unwrap();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("xcorr_512tap_500ms_direct", |b| {
        b.iter(|| cross_correlate_direct(&s, &tpl))
    });
    g.bench_function("xcorr_512tap_500ms_fft", |b| b.iter(|| cross_correlate(&s, &tpl)));
    g.bench_function("norm_xcorr_512tap_500ms_direct", |b| {
        b.iter(|| normalized_cross_correlate_direct(&s, &tpl))
    });
    g.bench_function("norm_xcorr_512tap_500ms_fft", |b| {
        b.iter(|| normalized_cross_correlate(&s, &tpl))
    });
    g.bench_function("fir127_500ms_direct", |b| b.iter(|| fir.filter_direct(&s)));
    g.bench_function("fir127_500ms_fft", |b| b.iter(|| fir.filter(&s)));
    g.finish();
}

/// Cached vs uncached FFT planning on the 0.5 s buffer: the uncached
/// case builds a fresh planner (tables, twiddles, bit-reversal) every
/// call, the cached case hits the thread-local `PlanCache`.
fn bench_plan_cache(c: &mut Criterion) {
    let s: Vec<Complex64> = signal()
        .iter()
        .map(|&x| Complex64::new(x, 0.0))
        .collect();
    let n_fft = s.len().next_power_of_two();
    let mut padded = s;
    padded.resize(n_fft, Complex64::new(0.0, 0.0));
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(n_fft as u64));
    g.bench_function("fft_500ms_uncached_planner", |b| {
        b.iter(|| {
            let mut planner = rustfft::FftPlanner::new();
            let plan = planner.plan_fft_forward(n_fft);
            let mut buf = padded.clone();
            plan.process(&mut buf);
            buf
        })
    });
    g.bench_function("fft_500ms_cached_planner", |b| {
        b.iter(|| {
            let mut buf = padded.clone();
            pab_dsp::plan::with_thread_cache(|cache| cache.fft_in_place(&mut buf));
            buf
        })
    });
    g.finish();
}

fn bench_image_method(c: &mut Criterion) {
    use pab_channel::{Pool, Position};
    let pool = Pool::pool_a();
    let a = Position::new(0.5, 1.5, 0.6);
    let b_pos = Position::new(3.0, 2.0, 0.7);
    c.bench_function("image_method_order4", |b| {
        b.iter(|| pool.channel(&a, &b_pos, 4, 15_000.0).unwrap())
    });
}

fn bench_channel_apply(c: &mut Criterion) {
    use pab_channel::{Pool, Position};
    let pool = Pool::pool_a();
    let ch = pool
        .channel(
            &Position::new(0.5, 1.5, 0.6),
            &Position::new(3.0, 2.0, 0.7),
            3,
            15_000.0,
        )
        .unwrap();
    let s = signal();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("multipath_apply_order3_500ms", |b| b.iter(|| ch.apply(&s, FS)));
    g.finish();
}

criterion_group!(
    dsp,
    bench_downconvert,
    bench_butterworth,
    bench_fir,
    bench_hilbert,
    bench_decimate,
    bench_goertzel,
    bench_nco,
    bench_correlation,
    bench_direct_vs_fft,
    bench_plan_cache,
    bench_image_method,
    bench_channel_apply
);
criterion_main!(dsp);
