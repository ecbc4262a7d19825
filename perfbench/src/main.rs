//! Steady-state benchmark of the fault-injected PAB network simulator.
//!
//! ```text
//! pab-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload:
//! it runs each of the workload's rounds (one per sweep point, see
//! `Workload::points`) traced once (the census: what the round does),
//! finds its warm-up prefix, then alternates cold runs of the prefixes
//! and of the whole rounds, untraced, for `S` seconds; the points of a
//! run go through `pab-sweep` at once. Every round passes the
//! correctness gate of `pab_perfbench::check_round`.
//!
//! * `exchanges_per_s` — MAC observations (uplink decode attempts, per
//!   stream in collision slots) after the prefix, per host second after
//!   the prefix, summed over the points that ran side by side: the
//!   median over the runs.
//! * `slots_per_s` — the same for MAC slots.
//! * `setup_s` — host seconds of `FaultNetSimulator::new` plus the
//!   prefix, averaged over the points: the median over the prefix runs.
//! * `peak_rss_mb` — the process's peak resident set.
//! * `sim_goodput_bps` — delivered bits per simulated second, the model's
//!   answer, averaged over the points; a pure function of the workload
//!   and seed.
//!
//! With `--trace 1` it reports the per-layer metrics of
//! `pab_perfbench::layers` instead. The last line of standard output is
//! the result, one JSON object; earlier lines carry details.

use pab_core::FaultNetConfig;
use pab_perfbench::layers;
use pab_perfbench::{
    census, check_round, find_prefix, median, run_round, Census, Metrics, Round, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Fewest measured rounds in an end-to-end run, however short `--seconds`.
const MIN_ROUNDS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// Operations attempted and failed. An operation is a round or a layer
/// measurement; it fails when it errors, panics or fails its check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(_) => "panicked".to_string(),
        };
        self.failed += 1;
        eprintln!("FAILED {what}: {err}");
        None
    }
}

/// A round of `cfg`, checked against its census.
fn checked_round(w: Workload, cfg: &FaultNetConfig, c: &Census) -> Result<Round, String> {
    let round = run_round(cfg)?;
    check_round(w, cfg, &round, Some(c))?;
    Ok(round)
}

/// The traced census of `cfg`, checked on its own.
fn checked_census(w: Workload, cfg: &FaultNetConfig) -> Result<Census, String> {
    let c = census(cfg)?;
    check_round(w, cfg, &c.round, None)?;
    Ok(c)
}

/// The rounds of `cfgs`, one `pab-sweep` point each and all at once, each
/// checked against its census in `refs`: each round's host seconds.
fn sweep_rounds(
    w: Workload,
    cfgs: &[FaultNetConfig],
    refs: &[&Census],
) -> Result<Vec<f64>, String> {
    let rounds = pab_sweep::run(cfgs.iter().collect(), |_, cfg| run_round(cfg));
    cfgs.iter()
        .zip(rounds)
        .zip(refs)
        .map(|((cfg, round), reference)| {
            let round = round?;
            check_round(w, cfg, &round, Some(reference))?;
            Ok(round.wall_s)
        })
        .collect()
}

fn end_to_end(args: &Args, tally: &mut Tally) -> Option<Metrics> {
    let w = args.workload;
    let cfgs = w.configs(args.seed, w.per_node_packets());
    let fulls = tally.attempt("census", || {
        pab_sweep::run(cfgs.iter().collect(), |_, cfg| checked_census(w, cfg))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    })?;
    let prefixes = tally.attempt("prefix", || {
        pab_sweep::run(cfgs.iter().zip(&fulls).collect(), |_, (cfg, full)| {
            let (pcfg, p) = find_prefix(cfg, full)?;
            check_round(w, &pcfg, &p.round, None)?;
            Ok((pcfg, p))
        })
        .into_iter()
        .collect::<Result<Vec<_>, String>>()
    })?;
    let exchange_samples = tally.attempt("capture", || layers::capture_exchange(&cfgs[0]))?;

    let prefix_cfgs: Vec<FaultNetConfig> = prefixes.iter().map(|(c, _)| c.clone()).collect();
    let prefix_refs: Vec<&Census> = prefixes.iter().map(|(_, p)| p).collect();
    let full_refs: Vec<&Census> = fulls.iter().collect();
    // Host seconds of each run (outer) of each point (inner).
    let start = Instant::now();
    let (mut prefix_s, mut round_s) = (Vec::new(), Vec::new());
    while round_s.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        if let Some(t) = tally.attempt("prefix round", || {
            sweep_rounds(w, &prefix_cfgs, &prefix_refs)
        }) {
            prefix_s.push(t);
        }
        if let Some(t) = tally.attempt("round", || sweep_rounds(w, &cfgs, &full_refs)) {
            round_s.push(t);
        }
        if tally.failed > 0 {
            break;
        }
    }
    if round_s.is_empty() || prefix_s.is_empty() {
        return None;
    }
    let points = cfgs.len();
    let of_point =
        |runs: &[Vec<f64>], i: usize| -> Vec<f64> { runs.iter().map(|r| r[i]).collect() };
    let point_setup_s: Vec<f64> = (0..points)
        .map(|i| median(&of_point(&prefix_s, i)))
        .collect();
    let mean_prefix_s: Vec<f64> = prefix_s
        .iter()
        .map(|r| r.iter().sum::<f64>() / points as f64)
        .collect();
    let setup_s = median(&mean_prefix_s);
    let warm = |work: fn(&Census) -> u64| -> Vec<u64> {
        fulls
            .iter()
            .zip(&prefix_refs)
            .map(|(f, p)| work(f) - work(p))
            .collect()
    };
    let warm_exchanges = warm(|c| c.counts.observations());
    let warm_slots = warm(|c| c.round.report.slots_used);
    // A run's rate is the sum of its points' warm rates: the points run
    // side by side, one per core.
    let per_s = |work: &[u64]| {
        let rates: Vec<f64> = round_s
            .iter()
            .map(|run| {
                run.iter()
                    .zip(work)
                    .zip(&point_setup_s)
                    .map(|((t, &w), s)| w as f64 / (t - s))
                    .sum()
            })
            .collect();
        median(&rates)
    };
    let goodput_bps = fulls
        .iter()
        .map(|f| f.round.report.goodput_bps)
        .sum::<f64>()
        / fulls.len() as f64;

    let work = layers::work_counters(&cfgs[0], &fulls[0], exchange_samples.len());
    let prefix_slots: Vec<f64> = prefix_cfgs.iter().map(|c| c.max_slots as f64).collect();
    let digests: Vec<String> = fulls
        .iter()
        .map(|f| f.round.report.bit_digest.to_string())
        .collect();
    let per_point = |runs: &[Vec<f64>]| -> String {
        let lists: Vec<String> = (0..points).map(|i| json_list(&of_point(runs, i))).collect();
        format!("[{}]", lists.join(", "))
    };
    let count_list = |xs: &[u64]| -> String {
        let items: Vec<String> = xs.iter().map(u64::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"points\": {points}, \"rounds\": {}, \
         \"prefix_slots\": {}, \"warm_exchanges\": {}, \"warm_slots\": {}, \
         \"round_s\": {}, \"prefix_s\": {}, \"bit_digest\": [{}], \"work\": {}}}",
        w.name(),
        args.seed,
        round_s.len(),
        json_list(&prefix_slots),
        count_list(&warm_exchanges),
        count_list(&warm_slots),
        per_point(&round_s),
        per_point(&prefix_s),
        digests.join(", "),
        json_metrics(&work),
    );

    let mut m = Metrics::default();
    m.push("exchanges_per_s", per_s(&warm_exchanges), "1/s");
    m.push("slots_per_s", per_s(&warm_slots), "1/s");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mb", tally.attempt("peak rss", peak_rss_mb)?, "MB");
    m.push("sim_goodput_bps", goodput_bps, "bps");
    Some(m)
}

fn traced(args: &Args, tally: &mut Tally) -> Option<Metrics> {
    let w = args.workload;
    let cfg = w.config(args.seed, w.per_node_packets());
    // A one-slot round first, untimed, so that the timed rounds all run
    // in a warm process.
    let mut first_slot = cfg.clone();
    first_slot.max_slots = 1;
    tally.attempt("warm-up", || run_round(&first_slot))?;
    let full = tally.attempt("census", || checked_census(w, &cfg))?;
    // Untraced rounds must equal the traced census, and the serial round
    // the parallel one.
    let untraced: Vec<f64> = (0..2)
        .filter_map(|_| tally.attempt("round", || checked_round(w, &cfg, &full)))
        .map(|r| r.wall_s)
        .collect();
    let serial_cfg = FaultNetConfig {
        parallel_slots: false,
        ..cfg.clone()
    };
    let serial = tally.attempt("serial round", || checked_round(w, &serial_cfg, &full))?;
    if untraced.is_empty() {
        return None;
    }
    let budget_s = (args.seconds / 20.0).clamp(0.25, 3.0);
    tally.attempt("layers", || {
        layers::measure(w, &cfg, &full, median(&untraced), serial.wall_s, budget_s)
    })
}

/// Peak resident set of this process, megabytes (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn json_metrics(m: &Metrics) -> String {
    let items: Vec<String> =
        m.0.iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pab-perfbench: {e}");
            eprintln!(
                "usage: pab-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    let Some(metrics) = metrics else {
        eprintln!(
            "pab-perfbench: {} of {} operations failed",
            tally.failed, tally.attempted
        );
        return ExitCode::from(1);
    };
    if let Some((name, _, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("pab-perfbench: metric {name} is not finite");
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json_metrics(&metrics),
    );
    ExitCode::SUCCESS
}
