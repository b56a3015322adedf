//! What every workload shares: the run context, the pass loop, process
//! readings, correctness checks, the counter fingerprint, and the report.

use crate::catalog::catalog;
use crate::stats::{self, fnv1a, Ratio, FNV_BASIS};
use crate::trace::{self, LayerRow, Span, Tracer};
use glitchlock_obs::MetricValue;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Counter prefixes that make up a workload's deterministic fingerprint.
pub const FINGERPRINT_PREFIXES: [&str; 9] = [
    "sat.",
    "lock.",
    "count.",
    "eval.",
    "oracle.",
    "analysis.",
    "appsat.",
    "removal.",
    "served.",
];

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring budget per run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory inside the checkout (campaign journals).
    pub work_dir: PathBuf,
    /// The `glk` executable (oracle_serve only).
    pub glk: Option<PathBuf>,
    /// Time origin of every span.
    pub epoch: Instant,
}

impl Ctx {
    /// A seed for one named input, derived from the run seed.
    pub fn derive(&self, what: &str) -> u64 {
        StdRng::seed_from_u64(fnv1a(FNV_BASIS, what.as_bytes()) ^ self.seed).next_u64()
    }
}

/// One correctness check.
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values when it did not.
    pub detail: String,
}

/// One measured pass over the workload's fixed work.
pub struct Pass {
    /// Wall time.
    pub wall_s: f64,
    /// CPU time of the working process.
    pub cpu_s: f64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Deterministic work counters of the pass.
    pub counters: BTreeMap<String, u64>,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every set-up's duration.
    pub setup_s: Vec<f64>,
    /// Every pass.
    pub passes: Vec<Pass>,
    /// VmHWM of the working process.
    pub peak_rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, timed out, refused or answered with an error.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer metrics this workload produces.
    pub layer: BTreeMap<&'static str, f64>,
    /// Every ratio, printed with its base.
    pub ratios: Vec<(String, Ratio)>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
    /// Per-layer rows taken from obs counters rather than spans.
    pub obs_rows: Vec<LayerRow>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Sets a per-layer metric; the name must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog().has_layer_metric(name),
            "per-layer metric `{name}` is not in the catalog"
        );
        self.layer.insert(name, value);
    }

    /// Sets a ratio metric and keeps its base for the report.
    pub fn set_ratio(&mut self, name: &'static str, r: Ratio) {
        self.set(name, r.value());
        self.ratios.push((name.to_string(), r));
    }

    /// Median of `f` over the untraced passes (all passes if none).
    fn median_of(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        let untraced: Vec<f64> = self.passes.iter().filter(|p| !p.traced).map(&f).collect();
        let pick = if untraced.is_empty() {
            self.passes.iter().map(f).collect()
        } else {
            untraced
        };
        stats::median(&pick).unwrap_or(0.0)
    }

    /// CPU seconds per untraced pass, averaged over all of them: the tick
    /// counts behind each pass are too coarse for a per-pass median.
    fn mean_cpu_s(&self) -> f64 {
        let untraced: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.cpu_s)
            .collect();
        untraced.iter().sum::<f64>() / untraced.len().max(1) as f64
    }

    /// Mean over the traced passes of a per-pass span total, in ms.
    pub fn per_traced_pass_ms(&self, span_name: &str) -> f64 {
        let traced = self.passes.iter().filter(|p| p.traced).count().max(1);
        trace::total_ns(&self.spans, span_name) as f64 / 1e6 / traced as f64
    }

    /// The first pass's counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.passes
            .first()
            .and_then(|p| p.counters.get(name).copied())
            .unwrap_or(0)
    }
}

/// Passes every run makes, however long they take.
pub const MIN_PASSES: usize = 3;

/// Runs whole passes, at least [`MIN_PASSES`], starting another only while
/// it is expected (at the mean pass time so far) to end within
/// `ctx.seconds`, so a run does not overshoot its budget by a pass. In a
/// traced run every second pass records spans, so traced and untraced
/// passes interleave and their difference is the tracing overhead.
pub fn run_passes(
    ctx: &Ctx,
    out: &mut Outcome,
    one: impl FnMut(&mut Tracer, &mut Outcome) -> Result<BTreeMap<String, u64>, String>,
) -> Result<(), String> {
    run_passes_on(ctx, out, "self", one)
}

/// [`run_passes`], charging CPU time to process `cpu_pid` (the process
/// doing the work, which for a daemon is not this one).
pub fn run_passes_on(
    ctx: &Ctx,
    out: &mut Outcome,
    cpu_pid: &str,
    mut one: impl FnMut(&mut Tracer, &mut Outcome) -> Result<BTreeMap<String, u64>, String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut tracer = Tracer::new(true, ctx.epoch);
    let mut ix = 0usize;
    let fits = |done: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed * (done + 1) as f64 / done as f64 <= ctx.seconds
    };
    while ix < MIN_PASSES || fits(ix) {
        let traced = ctx.trace && ix % 2 == 1;
        let cpu0 = cpu_seconds(cpu_pid);
        let t0 = Instant::now();
        let counters = if traced {
            tracer.span("pass", &format!("pass{ix}"), |t| one(t, out))?
        } else {
            one(&mut Tracer::new(false, ctx.epoch), out)?
        };
        out.passes.push(Pass {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds(cpu_pid) - cpu0,
            traced,
            counters,
        });
        ix += 1;
    }
    out.spans.extend(tracer.spans().iter().cloned());
    Ok(())
}

/// Set-ups per run are timed in batches for at least this long, and at
/// least [`MIN_SETUP_BATCHES`] batches; `setup_s` is the median over the
/// batches of their mean set-up time.
pub const SETUP_SECONDS: f64 = 1.0;
/// See [`SETUP_SECONDS`].
pub const MIN_SETUP_BATCHES: usize = 7;

/// Runs `setup` repeatedly (see [`SETUP_SECONDS`]) in batches of `batch`
/// calls, recording each batch's mean of the set-up seconds the calls
/// report, and returns the last value; each earlier value goes to
/// `teardown`, untimed. A batch is sized so that it takes tens of
/// milliseconds: one set-up of a few microseconds is mostly timer and
/// cache noise.
pub fn timed_setups<T>(
    out: &mut Outcome,
    batch: usize,
    mut setup: impl FnMut() -> Result<(T, f64), String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut last: Option<T> = None;
    let start = Instant::now();
    while out.setup_s.len() < MIN_SETUP_BATCHES || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let mut total = 0.0;
        for _ in 0..batch {
            if let Some(prev) = last.take() {
                teardown(prev)?;
            }
            let (value, secs) = setup()?;
            total += secs;
            last = Some(value);
        }
        out.setup_s.push(total / batch as f64);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Runs `f`, returning its value and how many seconds it took.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let value = f()?;
    Ok((value, t0.elapsed().as_secs_f64()))
}

/// The deterministic work counters of an obs snapshot.
pub fn fingerprint_counters(snapshot: &[(String, MetricValue)]) -> BTreeMap<String, u64> {
    snapshot
        .iter()
        .filter(|(name, _)| FINGERPRINT_PREFIXES.iter().any(|p| name.starts_with(p)))
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(c) => Some((name.clone(), *c)),
            _ => None,
        })
        .collect()
}

/// Summed ns of histogram `name` in an obs snapshot, and its count.
pub fn hist_sum(snapshot: &[(String, MetricValue)], name: &str) -> (u64, u64) {
    snapshot
        .iter()
        .find_map(|(n, v)| match v {
            MetricValue::Hist { count, sum, .. } if n == name => Some((*sum, *count)),
            _ => None,
        })
        .unwrap_or((0, 0))
}

/// FNV-1a digest of a counter map.
pub fn digest(counters: &BTreeMap<String, u64>) -> u64 {
    counters.iter().fold(FNV_BASIS, |h, (k, v)| {
        fnv1a(fnv1a(h, k.as_bytes()), &v.to_le_bytes())
    })
}

/// `utime + stime` of a process, in seconds (`pid` may be `self`).
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |ix: usize| {
        fields
            .get(ix)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / clock_ticks_per_second()
}

/// `sysconf(_SC_CLK_TCK)`: the unit of `/proc/*/stat` times.
fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: std::os::raw::c_int) -> std::os::raw::c_long;
    }
    /// `_SC_CLK_TCK` on Linux.
    const SC_CLK_TCK: std::os::raw::c_int = 2;
    // SAFETY: sysconf(3) takes an integer and reads no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Build and host facts stamped on every result.
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Source revision.
    pub rev: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Cargo build profile.
    pub profile: String,
}

/// Prints the human report and the final JSON line; writes the full
/// result to `out_path` when given. Returns the process exit code.
pub fn finish(
    ctx: &Ctx,
    prov: &Provenance,
    mut outcome: Outcome,
    out_path: Option<&std::path::Path>,
) -> i32 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The fingerprint must repeat on every pass of one seed.
    let first = outcome.passes.first().map(|p| p.counters.clone());
    if let Some(first) = &first {
        let bad: Vec<usize> = (1..outcome.passes.len())
            .filter(|&i| &outcome.passes[i].counters != first)
            .collect();
        let detail = bad
            .iter()
            .map(|&i| counter_diff(first, &outcome.passes[i].counters, i))
            .collect::<Vec<_>>()
            .join("; ");
        outcome.check(
            "work-counter fingerprint repeats on every pass",
            bad.is_empty(),
            detail,
        );
    }
    let fingerprint = first.as_ref().map_or(0, digest);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed {} | nproc {nproc} | rev {} | {} | profile {}",
        prov.workload, ctx.seed, prov.rev, prov.rustc, prov.profile
    );
    let walls: Vec<String> = outcome
        .passes
        .iter()
        .map(|p| format!("{:.3}{}", p.wall_s, if p.traced { "t" } else { "" }))
        .collect();

    let _ = writeln!(
        text,
        "passes {} (wall s: {}) | set-up batches {} (s per set-up: min {:.5} median {:.5} max {:.5})",
        outcome.passes.len(),
        walls.join(" "),
        outcome.setup_s.len(),
        outcome
            .setup_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        stats::median(&outcome.setup_s).unwrap_or(0.0),
        outcome.setup_s.iter().copied().fold(0.0, f64::max),
    );

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if ctx.trace {
        fill_trace_metrics(&mut outcome);
        for l in &catalog().per_layer {
            let v = outcome.layer.get(l.name.as_str()).copied().unwrap_or(0.0);
            metrics.push((l.name.clone(), v, l.unit.clone()));
        }
    } else {
        for e in &catalog().end_to_end {
            let v = match e.name.as_str() {
                "setup_s" => stats::median(&outcome.setup_s).unwrap_or(0.0),
                "wall_s" => outcome.median_of(|p| p.wall_s),
                "cpu_s" => outcome.mean_cpu_s(),
                other => panic!("no measurement for end-to-end metric `{other}`"),
            };
            metrics.push((e.name.clone(), v, e.unit.clone()));
        }
    }

    let _ = writeln!(text, "\nmetrics:");
    for (name, v, unit) in &metrics {
        let _ = writeln!(text, "  {name:<28} {v:>16.6} {unit}");
    }
    if !outcome.ratios.is_empty() {
        let _ = writeln!(text, "\nratios (value (numerator / base)):");
        for (name, r) in &outcome.ratios {
            let _ = writeln!(text, "  {name:<28} {}", r.show());
        }
    }
    if ctx.trace {
        write_layer_table(&mut text, &outcome);
    }
    for note in &outcome.notes {
        let _ = writeln!(text, "{note}");
    }
    let _ = writeln!(text, "\nwork-counter fingerprint {fingerprint:016x}:");
    if let Some(first) = &first {
        for (k, v) in first {
            let _ = writeln!(text, "  {k:<28} {v}");
        }
    }
    let correct = outcome.checks.iter().all(|c| c.ok);
    let _ = writeln!(text, "\nchecks:");
    for c in &outcome.checks {
        let _ = writeln!(
            text,
            "  [{}] {}{}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            if c.ok || c.detail.is_empty() {
                String::new()
            } else {
                format!(": {}", c.detail)
            }
        );
    }
    print!("{text}");

    let mut metric_json = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metric_json,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(*v)
        );
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metric_json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );

    if let Some(path) = out_path {
        let counters: Vec<String> = first
            .iter()
            .flatten()
            .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
            .collect();
        let mut full = String::new();
        let _ = writeln!(
            full,
            "{{\"kind\":\"perfbench-result\",\"workload\":\"{}\",\"seed\":{},\"nproc\":{nproc},\
             \"rev\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"fingerprint\":\"{fingerprint:016x}\",\
             \"counters\":{{{}}},\"result\":{result}}}",
            prov.workload,
            ctx.seed,
            json_escape(&prov.rev),
            json_escape(&prov.rustc),
            json_escape(&prov.profile),
            counters.join(","),
        );
        for s in &outcome.spans {
            let _ = writeln!(
                full,
                "{{\"kind\":\"span\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":\"{}\"}}",
                json_escape(&s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_escape(&s.id)
            );
        }
        if let Err(e) = std::fs::write(path, full) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return 2;
        }
    }
    println!("{result}");
    if correct {
        0
    } else {
        for c in outcome.checks.iter().filter(|c| !c.ok) {
            eprintln!("perfbench: check failed: {}: {}", c.name, c.detail);
        }
        1
    }
}

/// The metrics every traced run reports: memory and the trace's own.
fn fill_trace_metrics(outcome: &mut Outcome) {
    outcome.set("proc.peak_rss_mb", outcome.peak_rss_mb);
    let passes: Vec<&Span> = outcome.spans.iter().filter(|s| s.name == "pass").collect();
    let total: u64 = passes.iter().map(|s| s.dur_ns()).sum();
    let selfs = trace::self_times(&outcome.spans);
    let own: u64 = outcome
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "pass")
        .map(|(_, v)| *v)
        .sum();
    outcome.set(
        "trace.unattributed_pct",
        100.0 * Ratio::new(own as f64, total as f64).value(),
    );
    let median = |traced: bool| {
        let walls: Vec<f64> = outcome
            .passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_s)
            .collect();
        stats::median(&walls)
    };
    if let (Some(t), Some(u)) = (median(true), median(false)) {
        outcome.set("trace.overhead_pct", 100.0 * (t - u) / u);
        outcome.notes.push(format!(
            "tracing overhead: traced pass median {t:.4} s vs untraced {u:.4} s"
        ));
    }
}

fn write_layer_table(text: &mut String, outcome: &Outcome) {
    let _ = writeln!(
        text,
        "\nlayers (spans from the benchmark's calls; all traced passes):"
    );
    let _ = writeln!(
        text,
        "  {:<28} {:>12} {:>12} {:>8}",
        "span", "total ms", "self ms", "calls"
    );
    for row in trace::layer_table(&outcome.spans) {
        let _ = writeln!(
            text,
            "  {:<28} {:>12.3} {:>12.3} {:>8}",
            row.name,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.calls
        );
    }
    if !outcome.obs_rows.is_empty() {
        let _ = writeln!(
            text,
            "  inside the program (obs counters, summed over worker threads):"
        );
        for row in &outcome.obs_rows {
            let _ = writeln!(
                text,
                "  {:<28} {:>12.3} {:>12.3} {:>8}",
                row.name,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                row.calls
            );
        }
    }
    if let Some(v) = outcome.layer.get("trace.unattributed_pct") {
        let _ = writeln!(text, "  unattributed (pass self time): {v:.2}%");
    }
}

fn counter_diff(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, pass: usize) -> String {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k} {:?} vs {:?}", a.get(k), b.get(k)))
        .collect();
    format!("pass {pass}: {}", diffs.join(", "))
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.0), "1");
        assert_eq!(json_num(0.123456789012), "0.123456789012");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn fingerprint_keeps_only_work_counters() {
        let snap = vec![
            ("sat.conflicts".to_string(), MetricValue::Counter(5)),
            ("jobs.completed".to_string(), MetricValue::Counter(9)),
            ("sat.mean_lbd_milli".to_string(), MetricValue::Gauge(3.0)),
            (
                "sat.solver.ns".to_string(),
                MetricValue::Hist {
                    count: 2,
                    sum: 10,
                    min: 4,
                    max: 6,
                },
            ),
        ];
        let fp = fingerprint_counters(&snap);
        assert_eq!(fp.len(), 1);
        assert_eq!(fp["sat.conflicts"], 5);
        assert_eq!(hist_sum(&snap, "sat.solver.ns"), (10, 2));
        assert_ne!(digest(&fp), digest(&BTreeMap::new()));
    }
}
