//! Campaign reports: a text table in the shape of the paper's Tables
//! I–II, plus a canonical JSON document.
//!
//! Reports are the campaign's determinism contract: they carry **no
//! wall-clock and no attempt counts** (those live only in the journal),
//! and records are ordered by the spec's expansion order — so the same
//! spec and seeds render byte-identical reports under `--jobs 1`,
//! `--jobs 8`, or a kill-and-resume.

use crate::corruption::{self, corruption_rows, CorruptionRow};
use crate::journal::JobRecord;
use crate::spec::CampaignSpec;
use glitchlock_obs::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn status_counts(records: &[JobRecord]) -> BTreeMap<&str, usize> {
    let mut counts = BTreeMap::new();
    for rec in records {
        *counts.entry(rec.status.as_str()).or_insert(0) += 1;
    }
    counts
}

/// `locker` and `attack` segments of a job id (`bench/lockerW/attack/sN`).
fn id_segments(id: &str) -> (&str, &str) {
    let mut parts = id.split('/');
    let _bench = parts.next().unwrap_or("");
    let locker = parts.next().unwrap_or("");
    let attack = parts.next().unwrap_or("");
    (locker, attack)
}

fn verdict_breakdown<'a>(
    records: &'a [JobRecord],
    key_of: impl Fn(&'a JobRecord) -> &'a str,
) -> BTreeMap<&'a str, BTreeMap<&'a str, usize>> {
    let mut by_key: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
    for rec in records {
        *by_key
            .entry(key_of(rec))
            .or_default()
            .entry(rec.verdict.as_str())
            .or_insert(0) += 1;
    }
    by_key
}

fn write_breakdown(out: &mut String, title: &str, by_key: BTreeMap<&str, BTreeMap<&str, usize>>) {
    let _ = writeln!(out, "{title}:");
    for (key, verdicts) in by_key {
        let cells: Vec<String> = verdicts.iter().map(|(v, n)| format!("{v}={n}")).collect();
        let _ = writeln!(out, "  {key:<12} {}", cells.join(" "));
    }
}

/// Renders the text and the JSON report from one computation of the
/// corruptibility rows, the costly part of a counted report. Each
/// document is byte-identical to what [`render_text`] and [`render_json`]
/// return on their own.
pub fn render_reports(spec: &CampaignSpec, records: &[JobRecord]) -> (String, String) {
    let rows = corruption_rows(spec);
    (
        text_with(spec, records, &rows),
        json_with(spec, records, &rows),
    )
}

/// Renders the text report.
pub fn render_text(spec: &CampaignSpec, records: &[JobRecord]) -> String {
    text_with(spec, records, &corruption_rows(spec))
}

/// Renders the JSON report (canonical: sorted keys, compact, one trailing
/// newline).
pub fn render_json(spec: &CampaignSpec, records: &[JobRecord]) -> String {
    json_with(spec, records, &corruption_rows(spec))
}

fn text_with(spec: &CampaignSpec, records: &[JobRecord], rows: &[CorruptionRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "campaign report (spec {})", spec.hash());
    let counts = status_counts(records);
    let summary: Vec<String> = counts.iter().map(|(s, n)| format!("{s}={n}")).collect();
    let _ = writeln!(out, "jobs: {} ({})", records.len(), summary.join(" "));
    let _ = writeln!(out);
    let id_width = records
        .iter()
        .map(|r| r.id.len())
        .max()
        .unwrap_or(0)
        .max("job".len());
    let _ = writeln!(
        out,
        "  {:<id_width$}  {:<36} {:>6} {:>5}  detail",
        "job", "verdict", "iters", "keys"
    );
    for rec in records {
        let _ = writeln!(
            out,
            "  {:<id_width$}  {:<36} {:>6} {:>5}  {}",
            rec.id, rec.verdict, rec.iterations, rec.key_bits, rec.detail
        );
    }
    let _ = writeln!(out);
    write_breakdown(
        &mut out,
        "per-locker verdicts",
        verdict_breakdown(records, |r| id_segments(&r.id).0),
    );
    let _ = writeln!(out);
    write_breakdown(
        &mut out,
        "per-attack verdicts",
        verdict_breakdown(records, |r| id_segments(&r.id).1),
    );
    if spec.count.is_some() {
        let _ = writeln!(out);
        corruption::write_text(&mut out, rows);
    }
    out
}

fn json_with(spec: &CampaignSpec, records: &[JobRecord], rows: &[CorruptionRow]) -> String {
    let mut root = BTreeMap::new();
    root.insert("kind".to_string(), Value::Str("campaign-report".into()));
    root.insert(
        "schema".to_string(),
        Value::Num(crate::journal::SCHEMA as f64),
    );
    root.insert("spec_hash".to_string(), Value::Str(spec.hash()));
    root.insert("spec".to_string(), Value::Str(spec.render()));
    let mut summary = BTreeMap::new();
    for (status, n) in status_counts(records) {
        summary.insert(status.to_string(), Value::Num(n as f64));
    }
    root.insert("summary".to_string(), Value::Obj(summary));
    let jobs: Vec<Value> = records
        .iter()
        .map(|rec| {
            // The volatile journal-only fields stay out of the report.
            let mut v = rec.to_json();
            if let Value::Obj(map) = &mut v {
                map.remove("attempts");
                map.remove("wall_ms");
            }
            v
        })
        .collect();
    root.insert("jobs".to_string(), Value::Arr(jobs));
    if spec.count.is_some() {
        root.insert("corruptibility".to_string(), corruption::rows_json(rows));
    }
    format!("{}\n", Value::Obj(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, verdict: &str, wall_ms: u64) -> JobRecord {
        JobRecord {
            id: id.to_string(),
            status: "ok".to_string(),
            verdict: verdict.to_string(),
            detail: String::new(),
            iterations: 3,
            key_bits: 4,
            attempts: 1,
            wall_ms,
            metrics: BTreeMap::new(),
        }
    }

    fn spec() -> CampaignSpec {
        CampaignSpec::parse("bench s27\nlocker xor 4\nattack sat\nseeds 1 2\n").unwrap()
    }

    #[test]
    fn reports_exclude_wall_clock_and_attempts() {
        let a = [
            record("s27/xor4/sat/s1", "key-recovered", 10),
            record("s27/xor4/sat/s2", "key-recovered", 999),
        ];
        let mut b = a.clone();
        b[0].wall_ms = 77;
        b[1].attempts = 3;
        assert_eq!(render_text(&spec(), &a), render_text(&spec(), &b));
        assert_eq!(render_json(&spec(), &a), render_json(&spec(), &b));
    }

    #[test]
    fn text_report_aggregates_by_locker_and_attack() {
        let recs = [
            record("s27/xor4/sat/s1", "key-recovered", 1),
            record("s27/gk2/sat/s1", "wrong-key-under-static-abstraction", 1),
        ];
        let text = render_text(&spec(), &recs);
        assert!(text.contains("per-locker verdicts"), "{text}");
        assert!(text.contains("gk2"), "{text}");
        assert!(text.contains("per-attack verdicts"), "{text}");
        assert!(text.contains("key-recovered=1"), "{text}");
    }

    #[test]
    fn both_reports_at_once_match_the_single_renders() {
        let spec = CampaignSpec::parse(
            "bench s27\nlocker xor 2\nlocker gk 1\nattack sat\ncount 3 0.3 26 16\n",
        )
        .unwrap();
        let recs = [record("s27/xor2/sat/s1", "key-recovered", 1)];
        let (text, json) = render_reports(&spec, &recs);
        assert!(text.contains("corruptibility"), "{text}");
        assert_eq!(text, render_text(&spec, &recs));
        assert_eq!(json, render_json(&spec, &recs));
    }

    #[test]
    fn json_report_is_parseable_and_canonical() {
        let recs = [record("s27/xor4/sat/s1", "key-recovered", 1)];
        let text = render_json(&spec(), &recs);
        let v = glitchlock_obs::json::parse(text.trim_end()).expect("parses");
        assert_eq!(
            v.get("kind").and_then(Value::as_str),
            Some("campaign-report")
        );
        assert_eq!(format!("{}\n", v), text, "canonical rendering");
    }
}
