//! `attack_campaign` and `count_campaign`: `jobs::run_campaign` on a spec
//! made from the seed, as `glk campaign --out` runs it.

use crate::harness::{self, Ctx, Outcome};
use crate::stats::{self, Ratio};
use crate::trace::LayerRow;
use glitchlock_jobs::corruption::corruption_rows;
use glitchlock_jobs::report::{render_json, render_text};
use glitchlock_jobs::{run_campaign, CampaignConfig, CampaignSpec, JobRecord};
use glitchlock_obs::json::{self, Value};
use glitchlock_obs::{self as obs, names, Collector, MetricValue};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Pool workers for both campaigns.
const WORKERS: usize = 2;
/// Set-ups per timed batch: a few ms per attack_campaign set-up (three
/// mid-size benchmarks), a few hundred µs per count_campaign one.
const ATTACK_SETUP_BATCH: usize = 16;
const COUNT_SETUP_BATCH: usize = 128;

/// The attack campaign's spec for `seed`.
fn attack_spec(ctx: &Ctx) -> String {
    let base = 1000 * (ctx.derive("attack_campaign/seeds") % 1_000_000);
    format!(
        "bench s1238 s5378 s9234\nlocker xor 16\nlocker mux 16\nlocker sarlock 8\n\
         locker antisat 8\nlocker gk 8\nattack sat appsat removal\nseeds {} {} {}\n",
        base + 1,
        base + 2,
        base + 3
    )
}

/// The count campaign's spec for `seed`.
fn count_spec(ctx: &Ctx) -> String {
    let seed = 1 + ctx.derive("count_campaign/seed") % 1_000_000;
    format!(
        "bench s27 s298\nlocker xor 8\nlocker sarlock 3\nlocker antisat 3\nlocker gk 2\n\
         attack sat\ncount 3 0.3 26 16\nseeds {seed}\n"
    )
}

/// Set-up: parse the spec and generate its benchmarks, timed in batches
/// of `batch`.
fn setup(out: &mut Outcome, text: &str, batch: usize) -> Result<CampaignSpec, String> {
    harness::timed_setups(
        out,
        batch,
        || {
            harness::timed(|| {
                let spec = CampaignSpec::parse(text)?;
                for bench in &spec.benches {
                    glitchlock_jobs::job::resolve_bench(bench)?;
                }
                Ok(spec)
            })
        },
        |_| Ok(()),
    )
}

/// One `run_campaign` under `collector`, journaled in the work directory.
fn campaign(
    ctx: &Ctx,
    spec: &CampaignSpec,
    collector: &Arc<Collector>,
    tag: &str,
) -> Result<Vec<JobRecord>, String> {
    std::fs::create_dir_all(&ctx.work_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.work_dir.display()))?;
    let journal_path = ctx.work_dir.join(format!("{tag}.journal.jsonl"));
    let config = CampaignConfig {
        spec: spec.clone(),
        jobs: WORKERS,
        journal_path: journal_path.clone(),
        resume: false,
        halt_after: None,
        shard: None,
    };
    let result = obs::scoped(collector, || run_campaign(&config));
    let _ = std::fs::remove_file(&journal_path);
    let result = result?;
    if result.halted || result.records.len() != spec.expand().len() {
        return Err(format!(
            "campaign retired {} of {} jobs",
            result.records.len(),
            spec.expand().len()
        ));
    }
    Ok(result.records)
}

fn tally(out: &mut Outcome, records: &[JobRecord]) {
    out.attempted += records.len() as u64;
    out.failed += records.iter().filter(|r| r.status != "ok").count() as u64;
}

/// `(locker tag, attack tag)` of a job id `bench/locker/attack/seed`.
fn id_parts(id: &str) -> (&str, &str) {
    let mut parts = id.split('/');
    let _bench = parts.next();
    (parts.next().unwrap_or(""), parts.next().unwrap_or(""))
}

/// Runs `attack_campaign`.
pub fn run_attack(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = setup(&mut out, &attack_spec(ctx), ATTACK_SETUP_BATCH)?;
    let mut first_report: Option<String> = None;
    let mut repeats = true;
    let mut job_ms: Vec<f64> = Vec::new();
    let mut by_kind: BTreeMap<String, f64> = BTreeMap::new();
    let mut busy = (0.0f64, 0.0f64);
    let mut obs_snapshots: Vec<Vec<(String, MetricValue)>> = Vec::new();
    let mut traced_passes = 0usize;
    let mut pass_ix = 0usize;
    harness::run_passes(ctx, &mut out, |t, out| {
        let collector = Arc::new(Collector::new());
        let t0 = Instant::now();
        let records = t.span("jobs.run_campaign", "attack_campaign", |_| {
            campaign(ctx, &spec, &collector, &format!("attack-{pass_ix}"))
        })?;
        let wall = t0.elapsed().as_secs_f64();
        let report = t.span("jobs.render_text", "attack_campaign", |_| {
            render_text(&spec, &records)
        });
        pass_ix += 1;
        tally(out, &records);
        for r in &records {
            job_ms.push(r.wall_ms as f64);
            *by_kind.entry(id_parts(&r.id).1.to_string()).or_default() += r.wall_ms as f64;
        }
        busy.0 += records.iter().map(|r| r.wall_ms as f64).sum::<f64>();
        busy.1 += WORKERS as f64 * wall * 1e3;
        match &first_report {
            None => {
                check_attack_verdicts(out, &records);
                first_report = Some(report);
            }
            Some(first) => repeats &= *first == report,
        }
        let snapshot = collector.registry().snapshot();
        if t.on() {
            traced_passes += 1;
            obs_snapshots.push(snapshot.clone());
        }
        Ok(harness::fingerprint_counters(&snapshot))
    })?;
    out.check(
        "attack_campaign report is byte-identical across passes",
        repeats,
        String::new(),
    );
    out.peak_rss_mb = harness::peak_rss_mb("self");
    if ctx.trace {
        let passes = out.passes.len() as f64;
        out.set("jobs.job_p50_ms", stats::percentile(&job_ms, 50.0)?);
        out.set("jobs.job_p90_ms", stats::percentile(&job_ms, 90.0)?);
        for (kind, metric) in [
            ("sat", "jobs.job_ms.sat"),
            ("appsat", "jobs.job_ms.appsat"),
            ("removal", "jobs.job_ms.removal"),
        ] {
            out.set(metric, by_kind.get(kind).copied().unwrap_or(0.0) / passes);
        }
        out.set_ratio("jobs.pool_busy_ratio", Ratio::new(busy.0, busy.1));
        let distinct = (spec.benches.len() * spec.lockers.len() * spec.seeds.len()) as f64;
        out.set_ratio(
            "jobs.locks_per_design",
            Ratio::new(out.counter(names::LOCK_DESIGNS) as f64, distinct),
        );
        let (solver_ns, _) = summed_hist(&obs_snapshots, names::SAT_SOLVER_NS);
        let solver_ms = solver_ns as f64 / 1e6 / traced_passes.max(1) as f64;
        out.set("sat.solver_ms", solver_ms);
        for name in [
            names::SAT_SOLVER_CALLS,
            names::SAT_CONFLICTS,
            names::SAT_PROPAGATIONS,
            names::SAT_DIPS,
            names::ORACLE_QUERIES,
            names::EVAL_PACKED_PASSES,
            names::EVAL_GATE_EVALS,
            names::REMOVAL_SKEW_SAMPLES,
            names::APPSAT_PROBES,
        ] {
            out.set(name, out.counter(name) as f64);
        }
        out.set_ratio(
            "sat.props_per_ms",
            Ratio::new(out.counter(names::SAT_PROPAGATIONS) as f64, solver_ms),
        );
        // Job wall time of the traced passes, from all passes' journals.
        let worker_ms: f64 = by_kind.values().sum::<f64>() * traced_passes as f64 / passes;
        let jobs = (spec.expand().len() * traced_passes) as u64;
        out.obs_rows = obs_rows(&obs_snapshots, worker_ms, jobs);
    }
    Ok(out)
}

fn check_attack_verdicts(out: &mut Outcome, records: &[JobRecord]) {
    let wrong: Vec<String> = records
        .iter()
        .filter_map(|r| {
            let want = match id_parts(&r.id) {
                ("gk8", "sat") => "wrong-key-under-static-abstraction",
                ("xor16" | "mux16", "sat") => "key-recovered",
                _ => return None,
            };
            (r.verdict != want).then(|| format!("{} → {} (want {want})", r.id, r.verdict))
        })
        .collect();
    out.check(
        "every gk×sat job is wrong-key-under-static-abstraction and every xor/mux×sat job key-recovered",
        wrong.is_empty(),
        wrong.join("; "),
    );
    let bad: Vec<&str> = records
        .iter()
        .filter(|r| r.status != "ok")
        .map(|r| r.id.as_str())
        .collect();
    out.check("every job retires ok", bad.is_empty(), bad.join(", "));
}

fn summed_hist(snaps: &[Vec<(String, MetricValue)>], name: &str) -> (u64, u64) {
    snaps
        .iter()
        .map(|s| harness::hist_sum(s, name))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Per-layer rows inside the jobs, from the obs histograms the traced
/// passes' jobs fired (worker time, so they can exceed wall time).
fn obs_rows(snaps: &[Vec<(String, MetricValue)>], job_ms: f64, jobs: u64) -> Vec<LayerRow> {
    let (lock_ns, lock_n) = summed_hist(snaps, "span.lock.gk.ns");
    let (sat_ns, sat_n) = summed_hist(snaps, "span.attack.sat.ns");
    let (app_ns, app_n) = summed_hist(snaps, "span.attack.appsat.ns");
    let (solver_ns, solver_n) = summed_hist(snaps, names::SAT_SOLVER_NS);
    let job_ns = (job_ms * 1e6) as u64;
    let row = |name: &str, total: u64, own: u64, calls: u64| LayerRow {
        name: name.to_string(),
        total_ns: total,
        self_ns: own,
        calls,
    };
    vec![
        row(
            "jobs.job (journal wall)",
            job_ns,
            job_ns.saturating_sub(lock_ns + sat_ns + app_ns),
            jobs,
        ),
        row("core.lock_gk", lock_ns, lock_ns, lock_n),
        row(
            "attacks.sat+appsat",
            sat_ns + app_ns,
            (sat_ns + app_ns).saturating_sub(solver_ns),
            sat_n + app_n,
        ),
        row("sat.solver", solver_ns, solver_ns, solver_n),
    ]
}

/// Runs `count_campaign`.
pub fn run_count(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = setup(&mut out, &count_spec(ctx), COUNT_SETUP_BATCH)?;
    let cells = (spec.benches.len() * spec.lockers.len()) as f64;
    let mut first: Option<(String, String)> = None;
    let mut repeats = true;
    let mut pass_ix = 0usize;
    harness::run_passes(ctx, &mut out, |t, out| {
        let collector = Arc::new(Collector::new());
        let records = t.span("jobs.run_campaign", "count_campaign", |_| {
            campaign(ctx, &spec, &collector, &format!("count-{pass_ix}"))
        })?;
        pass_ix += 1;
        let (text, json_report) = obs::scoped(&collector, || {
            let text = t.span("jobs.render_text", "count_campaign", |_| {
                render_text(&spec, &records)
            });
            let json_report = t.span("jobs.render_json", "count_campaign", |_| {
                render_json(&spec, &records)
            });
            (text, json_report)
        });
        tally(out, &records);
        let rows = count_rows(&json_report)?;
        out.attempted += rows.len() as u64;
        out.failed += rows.iter().filter(|r| r.method == "error").count() as u64;
        match &first {
            None => {
                let (epsilon, delta) = spec.count.map_or((0.0, 0.0), |c| (c.epsilon, c.delta));
                check_count_rows(out, &rows, epsilon, delta);
                first = Some((text, json_report));
            }
            Some((t0, j0)) => repeats &= *t0 == text && *j0 == json_report,
        }
        Ok(harness::fingerprint_counters(
            &collector.registry().snapshot(),
        ))
    })?;
    out.check(
        "count_campaign reports are byte-identical across passes",
        repeats,
        String::new(),
    );
    out.peak_rss_mb = harness::peak_rss_mb("self");
    if ctx.trace {
        out.set(
            "jobs.render_text_ms",
            out.per_traced_pass_ms("jobs.render_text"),
        );
        out.set(
            "jobs.render_json_ms",
            out.per_traced_pass_ms("jobs.render_json"),
        );
        out.set_ratio(
            "count.runs_per_cell",
            Ratio::new(out.counter(names::COUNT_RUNS) as f64, cells),
        );
        for name in [
            names::COUNT_SOLVER_CALLS,
            names::COUNT_XOR_ROWS,
            names::COUNT_EXHAUSTIVE_SWEEPS,
        ] {
            out.set(name, out.counter(name) as f64);
        }
        // One timed rows call, outside the passes so the tracing overhead
        // compares like with like, under its own collector.
        let own = Arc::new(Collector::new());
        let t0 = Instant::now();
        let rows = obs::scoped(&own, || corruption_rows(&spec));
        let rows_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.set("count.rows_ms", rows_ms);
        let rendered = format!("{}", glitchlock_jobs::corruption::rows_json(&rows));
        let (_, json_report) = first.as_ref().expect("at least one pass ran");
        out.check(
            "a direct corruption_rows call matches the rendered report",
            json_report.contains(&rendered),
            String::new(),
        );
        out.notes.push(format!(
            "count.rows: one call {rows_ms:.1} ms, {} count runs for {cells} cells",
            own.counter(names::COUNT_RUNS).get()
        ));
    }
    Ok(out)
}

/// The fields of one corruptibility row the checks need.
struct CountRow {
    bench: String,
    locker: String,
    method: String,
    data_bits: u32,
    /// `(exact, estimate)` of err, dip and wrong keys.
    scores: [(Option<f64>, Option<f64>); 3],
    key_classes: Option<f64>,
}

fn count_rows(json_report: &str) -> Result<Vec<CountRow>, String> {
    let v = json::parse(json_report.trim_end()).map_err(|e| format!("report JSON: {e}"))?;
    let Some(Value::Arr(rows)) = v.get("corruptibility") else {
        return Err("report has no corruptibility rows".to_string());
    };
    let text = |r: &Value, k: &str| r.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let num = |r: &Value, k: &str| r.get(k).and_then(Value::as_num);
    Ok(rows
        .iter()
        .map(|r| {
            let score = |k: &str| {
                r.get(k)
                    .map_or((None, None), |s| (num(s, "exact"), num(s, "estimate")))
            };
            CountRow {
                bench: text(r, "bench"),
                locker: text(r, "locker"),
                method: text(r, "method"),
                data_bits: num(r, "data_bits").unwrap_or(0.0) as u32,
                scores: [score("err"), score("dip"), score("wrong_keys")],
                key_classes: num(r, "key_classes"),
            }
        })
        .collect())
}

/// GK cells show err = 2^n, dip = 0 and one key class; every s27
/// estimate lies inside the (1 + ε) envelope of its exact count, up to the
/// δ miss budget.
fn check_count_rows(out: &mut Outcome, rows: &[CountRow], epsilon: f64, delta: f64) {
    let within = |value: f64, exact: f64| {
        value >= exact / (1.0 + epsilon) - 1e-9 && value <= exact * (1.0 + epsilon) + 1e-9
    };
    for r in rows.iter().filter(|r| r.locker.starts_with("gk")) {
        let all_inputs = 2f64.powi(r.data_bits as i32);
        let [err, dip, _] = r.scores;
        let err_ok = match err {
            (Some(e), _) => e == all_inputs,
            (None, Some(est)) => within(est, all_inputs),
            _ => false,
        };
        let dip_ok = dip.0.or(dip.1) == Some(0.0);
        let classes_ok = r.key_classes.is_none_or(|c| c == 1.0);
        out.check(
            format!(
                "{}/{}: err = 2^{}, dip = 0, one key class",
                r.bench, r.locker, r.data_bits
            ),
            err_ok && dip_ok && classes_ok && r.method != "error",
            format!("err {err:?} dip {dip:?} classes {:?}", r.key_classes),
        );
    }
    // The estimator promises the envelope with probability 1 − δ per
    // count, so misses are held to a δ budget rather than to zero.
    let mut checked = 0usize;
    let mut misses = Vec::new();
    for r in rows.iter().filter(|r| r.bench == "s27") {
        if r.method != "both" {
            misses.push(format!("s27/{}: method {}", r.locker, r.method));
        }
        for (&(exact, est), what) in r.scores.iter().zip(["err", "dip", "wrong-keys"]) {
            match (exact, est) {
                (Some(e), Some(x)) => {
                    checked += 1;
                    if !within(x, e) {
                        misses.push(format!("s27/{}: {what} exact {e} estimate {x}", r.locker));
                    }
                }
                (None, _) => misses.push(format!("s27/{}: {what} has no exact count", r.locker)),
                (Some(_), None) => {}
            }
        }
    }
    let budget = (delta * checked as f64).ceil() as usize;
    out.check(
        format!(
            "s27 estimates inside the (ε, δ) envelope of the exact counts ({} of {checked} outside, budget {budget})",
            misses.len()
        ),
        checked > 0 && misses.len() <= budget,
        misses.join("; "),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_split_into_locker_and_attack() {
        assert_eq!(id_parts("s1238/gk8/sat/s3001"), ("gk8", "sat"));
        assert_eq!(id_parts("bad"), ("", ""));
    }

    #[test]
    fn specs_parse_and_expand_to_the_documented_sizes() {
        let ctx = Ctx {
            seed: 5,
            seconds: 1.0,
            trace: false,
            work_dir: std::path::PathBuf::new(),
            glk: None,
            epoch: Instant::now(),
        };
        let attack = CampaignSpec::parse(&attack_spec(&ctx)).unwrap();
        assert_eq!(attack.expand().len(), 135);
        let count = CampaignSpec::parse(&count_spec(&ctx)).unwrap();
        assert_eq!(count.expand().len(), 8);
        assert!(count.count.is_some());
    }
}
