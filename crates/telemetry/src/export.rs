//! Exporters: flatten one or more recorders into CSV text.
//!
//! Output is a pure function of the recorder contents and the order in
//! which recorders are passed. The sweep engine passes per-point recorders
//! in point-index order, which is the whole byte-identity argument for
//! parallel vs serial runs: nothing here ever consults a clock, a thread
//! id, or a hash map with randomized iteration order.

use crate::event::Event;
use crate::fmt_f64;
use crate::recorder::Recorder;

/// Column header of [`events_csv`]. Every event type writes the columns
/// it has and leaves the rest empty, so the one file is directly
/// plottable per event type without a join.
pub const EVENTS_CSV_HEADER: &str = "run,slot,t_s,node,event,detail,corr,snr_db,rate_bps,until_slot,duration_s,bits,harvested_j,power_w,rectified_v,condition";

/// Per-event columns beyond the common prefix:
/// `(detail, corr, snr_db, rate_bps, until_slot, duration_s, bits, harvested_j, power_w, rectified_v, condition)`
/// — any of which may be empty.
fn event_columns(event: &Event) -> [String; 11] {
    let mut cols: [String; 11] = Default::default();
    match *event {
        Event::SlotStart { queries } => cols[0] = queries.to_string(),
        Event::SlotEnd { duration_s, bits } => {
            cols[5] = fmt_f64(duration_s);
            cols[6] = bits.to_string();
        }
        Event::Detection { corr, snr_db, .. } => {
            cols[1] = fmt_f64(corr);
            cols[2] = fmt_f64(snr_db);
        }
        Event::CrcFail { corr, .. } => cols[1] = fmt_f64(corr),
        Event::Erasure { .. } | Event::Eviction { .. } => {}
        Event::Retry { retries_used, .. } => cols[0] = retries_used.to_string(),
        Event::Backoff { until_slot, .. } => cols[4] = until_slot.to_string(),
        Event::Quarantine { until_slot, probes_failed, .. } => {
            cols[0] = probes_failed.to_string();
            cols[4] = until_slot.to_string();
        }
        Event::RateStep { rate_bps, level, .. } => {
            cols[0] = level.to_string();
            cols[3] = fmt_f64(rate_bps);
        }
        Event::FaultEnter { kind, .. } | Event::FaultExit { kind, .. } => {
            cols[0] = kind.name().to_string();
        }
        Event::EnergySample { harvested_j, power_w, rectified_v, .. } => {
            cols[7] = fmt_f64(harvested_j);
            cols[8] = fmt_f64(power_w);
            cols[9] = fmt_f64(rectified_v);
        }
        Event::CollisionSlot { participants, condition_number }
        | Event::CollisionFallback { participants, condition_number } => {
            cols[0] = participants.to_string();
            cols[10] = fmt_f64(condition_number);
        }
        Event::StreamVerdict { crc_ok, snr_db, .. } => {
            cols[0] = u8::from(crc_ok).to_string();
            cols[2] = fmt_f64(snr_db);
        }
    }
    cols
}

/// Render every retained event of every recorder as CSV, recorder order
/// then event (recording) order. Header included.
pub fn events_csv(recorders: &[&Recorder]) -> String {
    let mut out = String::with_capacity(
        EVENTS_CSV_HEADER.len() + 1 + recorders.iter().map(|r| r.len() * 48).sum::<usize>(),
    );
    out.push_str(EVENTS_CSV_HEADER);
    out.push('\n');
    for rec in recorders {
        for te in rec.events() {
            let node = te.event.node().map(|n| n.to_string()).unwrap_or_default();
            let extra = event_columns(&te.event);
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                rec.run_id(),
                te.slot,
                fmt_f64(te.t_s),
                node,
                te.event.name(),
                extra.join(","),
            ));
        }
    }
    out
}

/// Column header of [`summary_csv`].
pub const SUMMARY_CSV_HEADER: &str = "run,kind,name,value";

/// Render the aggregate half of each recorder — counters, ring-overflow
/// and clock accounting, histogram statistics and per-bucket counts — as
/// `run,kind,name,value` rows in a fixed order.
pub fn summary_csv(recorders: &[&Recorder]) -> String {
    let mut out = String::from(SUMMARY_CSV_HEADER);
    out.push('\n');
    for rec in recorders {
        let run = rec.run_id();
        out.push_str(&format!("{run},meta,events_dropped,{}\n", rec.events_dropped()));
        out.push_str(&format!("{run},meta,events_retained,{}\n", rec.len()));
        out.push_str(&format!("{run},meta,clock_regressions,{}\n", rec.clock_regressions()));
        for (name, v) in rec.counters().iter() {
            out.push_str(&format!("{run},counter,{name},{v}\n"));
        }
        for (name, h) in rec.histograms() {
            out.push_str(&format!("{run},hist,{name}.lo,{}\n", fmt_f64(h.lo())));
            out.push_str(&format!("{run},hist,{name}.hi,{}\n", fmt_f64(h.hi())));
            out.push_str(&format!("{run},hist,{name}.total,{}\n", h.total()));
            out.push_str(&format!("{run},hist,{name}.mean,{}\n", fmt_f64(h.mean())));
            out.push_str(&format!("{run},hist,{name}.underflow,{}\n", h.underflow()));
            out.push_str(&format!("{run},hist,{name}.overflow,{}\n", h.overflow()));
            for (i, c) in h.bucket_counts().iter().enumerate() {
                out.push_str(&format!("{run},hist,{name}.bucket{i},{c}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultKind;

    fn sample_recorder(run_id: u64) -> Recorder {
        let mut r = Recorder::new(64).with_run_id(run_id);
        r.begin_slot(0, 0.0);
        r.record(Event::SlotStart { queries: 2 });
        r.record(Event::Detection { node: 1, corr: 0.875, snr_db: 12.5 });
        r.record(Event::FaultEnter { node: 2, kind: FaultKind::Dropout });
        r.record(Event::Erasure { node: 2 });
        r.record(Event::Quarantine { node: 2, until_slot: 9, probes_failed: 0 });
        r.record(Event::RateStep { node: 1, rate_bps: 2048.0, level: 1 });
        r.record(Event::EnergySample {
            node: 1,
            harvested_j: 2.5e-6,
            power_w: 1e-5,
            rectified_v: 1.25,
        });
        r.record(Event::CollisionSlot { participants: 2, condition_number: 4.5 });
        r.record(Event::StreamVerdict { node: 1, crc_ok: true, snr_db: 14.5 });
        r.record(Event::CollisionFallback { participants: 2, condition_number: 80.0 });
        r.begin_slot(1, 0.25);
        r.record(Event::SlotEnd { duration_s: 0.25, bits: 64 });
        r.observe("snr_db", 0.0, 30.0, 6, 12.5);
        r
    }

    #[test]
    fn csv_shape_and_determinism() {
        let a = sample_recorder(0);
        let b = sample_recorder(0);
        let csv = events_csv(&[&a]);
        assert_eq!(csv, events_csv(&[&b]), "same content => same bytes");
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(EVENTS_CSV_HEADER));
        let cols = EVENTS_CSV_HEADER.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(csv.contains("0,0,0,1,detection,,0.875,12.5,,,,,,,"));
        assert!(csv.contains("0,0,0,2,fault_enter,dropout,,,,,,,,,"));
        assert!(csv.contains("0,0,0,1,rate_step,1,,,2048,,,,,,"));
        assert!(csv.contains("0,1,0.25,,slot_end,,,,,,0.25,64,,,,"));
        assert!(csv.contains("0,0,0,,collision_slot,2,,,,,,,,,,4.5"));
        assert!(csv.contains("0,0,0,1,stream_verdict,1,,14.5,,,,,,,,"));
        assert!(csv.contains("0,0,0,,collision_fallback,2,,,,,,,,,,80"));
    }

    #[test]
    fn recorder_order_is_export_order() {
        let a = sample_recorder(0);
        let b = sample_recorder(1);
        let ab = events_csv(&[&a, &b]);
        let ba = events_csv(&[&b, &a]);
        assert_ne!(ab, ba, "caller-supplied order must be honored");
        let first_data_row = ab.lines().nth(1).unwrap();
        assert!(first_data_row.starts_with("0,"), "run 0 first");
    }

    #[test]
    fn summary_covers_counters_and_histograms() {
        let a = sample_recorder(0);
        let s = summary_csv(&[&a]);
        assert!(s.starts_with(SUMMARY_CSV_HEADER));
        assert!(s.contains("0,meta,events_dropped,0\n"));
        assert!(s.contains("0,counter,detection,1\n"));
        assert!(s.contains("0,hist,snr_db.total,1\n"));
        assert!(s.contains("0,hist,snr_db.bucket2,1\n"), "12.5 in [10,15) of 6x5-wide: {s}");
    }
}
