//! The campaign orchestrator: spec → pool → journal → records.

use crate::job::{self, JobSpec, Tuning};
use crate::journal::{self, JobRecord, JournalWriter};
use crate::pool::{run_pool, Attempt, JobTermination, PoolConfig};
use crate::spec::CampaignSpec;
use glitchlock_attacks::CancelToken;
use glitchlock_obs::{self as obs, names, Collector, MetricValue};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A campaign invocation.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The parsed spec.
    pub spec: CampaignSpec,
    /// Worker threads.
    pub jobs: usize,
    /// Checkpoint journal path (created, or appended to under `resume`).
    pub journal_path: PathBuf,
    /// Skip jobs the journal already records instead of truncating it.
    pub resume: bool,
    /// Testing/CI hook: request a halt after this many jobs retire in
    /// this run, leaving the rest for a later `--resume`.
    pub halt_after: Option<usize>,
    /// Shard selector `(index, count)`: run only the jobs whose
    /// spec-expansion index satisfies `ix % count == index`, and stamp the
    /// journal header with the shard label. `None` runs everything.
    pub shard: Option<(usize, usize)>,
}

/// What a campaign run produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// Retired records in spec-expansion order. A halted run omits the
    /// jobs it never claimed.
    pub records: Vec<JobRecord>,
    /// Jobs executed by this run (resumed jobs excluded).
    pub executed: usize,
    /// Jobs skipped because the journal already recorded them.
    pub skipped_resume: usize,
    /// True when a halt left jobs unclaimed.
    pub halted: bool,
}

/// The deterministic subset of a job's metrics snapshot: counters and
/// gauges, minus throughput gauges. Histograms carry wall-clock (span and
/// solver timings) and stay journal-external entirely.
pub fn deterministic_metrics(snapshot: &[(String, MetricValue)]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, value) in snapshot {
        if name.contains("per_sec") {
            continue;
        }
        match value {
            MetricValue::Counter(v) => {
                out.insert(name.clone(), *v as f64);
            }
            MetricValue::Gauge(v) => {
                out.insert(name.clone(), *v);
            }
            MetricValue::Hist { .. } => {}
        }
    }
    out
}

struct Retired {
    done: Vec<Option<JobRecord>>,
    journal: JournalWriter,
    error: Option<String>,
    executed: usize,
    retired_this_run: usize,
    halted: bool,
}

/// Runs a campaign: expands the spec, fans jobs over the pool, journals
/// every retirement, and returns records in spec order.
///
/// Call under the obs collector that should own the campaign's counters
/// and merged per-job metrics (jobs themselves run under private scoped
/// collectors whose deterministic subset lands in each record).
///
/// # Errors
///
/// Unknown benchmarks, journal I/O failures, and resume/spec mismatches.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignResult, String> {
    if let Some((index, count)) = config.shard {
        if count == 0 || index >= count {
            return Err(format!(
                "invalid shard {index}/{count}: want 0 <= index < count"
            ));
        }
    }
    for bench in &config.spec.benches {
        job::resolve_bench(bench).map(|_| ())?;
    }
    let jobs: Vec<JobSpec> = config.spec.expand();
    let spec_hash = config.spec.hash();
    let outer = obs::current();

    // Load or create the journal; map recorded jobs onto spec indices.
    let mut done: Vec<Option<JobRecord>> = vec![None; jobs.len()];
    let mut skipped_resume = 0usize;
    let journal = if config.resume && config.journal_path.exists() {
        // A killed run can leave a half-written final line; drop it before
        // appending, or the first new record would fuse onto the torn
        // bytes and be lost to the next load's torn-tail tolerance.
        journal::trim_torn_tail(&config.journal_path)?;
        let recorded = journal::load(&config.journal_path, &spec_hash)?;
        for (ix, job) in jobs.iter().enumerate() {
            if let Some(rec) = recorded.get(&job.id()) {
                done[ix] = Some(rec.clone());
                skipped_resume += 1;
            }
        }
        JournalWriter::append_to(&config.journal_path)?
    } else {
        JournalWriter::create_shard(&config.journal_path, &spec_hash, config.shard)?
    };
    outer
        .counter(names::JOBS_RESUME_SKIPS)
        .add(skipped_resume as u64);

    let owned = |ix: usize| match config.shard {
        Some((index, count)) => ix % count == index,
        None => true,
    };
    let pending: Vec<usize> = (0..jobs.len())
        .filter(|&ix| done[ix].is_none() && owned(ix))
        .collect();
    let pending_jobs: Vec<JobSpec> = pending.iter().map(|&ix| jobs[ix].clone()).collect();
    outer
        .counter(names::JOBS_SCHEDULED)
        .add(pending.len() as u64);

    let halt = CancelToken::new();
    let pool_config = PoolConfig {
        workers: config.jobs.max(1),
        timeout: config.spec.timeout_secs.map(Duration::from_secs),
        retries: config.spec.retries,
        backoff: Duration::from_millis(50),
        halt: Some(halt.clone()),
    };
    let tuning = Tuning {
        max_iterations: config.spec.max_iterations,
        samples: config.spec.samples,
    };

    let state = Mutex::new(Retired {
        done,
        journal,
        error: None,
        executed: 0,
        retired_this_run: 0,
        halted: false,
    });

    let runner_outer = outer.clone();
    let runner_jobs = pending_jobs.clone();
    let runner = Arc::new(move |ix: usize, attempt: usize, token: CancelToken| {
        let job = &runner_jobs[ix];
        let collector = Arc::new(Collector::new());
        let start = Instant::now();
        let mut record = obs::scoped(&collector, || job::execute(job, &tuning, &token));
        record.wall_ms = start.elapsed().as_millis() as u64;
        record.attempts = attempt as u64 + 1;
        let snapshot = collector.registry().snapshot();
        record.metrics = deterministic_metrics(&snapshot);
        runner_outer.registry().merge_snapshot(&snapshot);
        Attempt::Done(record)
    });

    run_pool(
        pending.len(),
        &pool_config,
        runner,
        |ix, termination: JobTermination<JobRecord>| {
            let mut state = state.lock().expect("campaign state mutex");
            let record = match termination {
                JobTermination::Finished { value, attempts } => {
                    let mut rec = value;
                    rec.attempts = attempts as u64;
                    rec
                }
                JobTermination::TimedOut { attempts } => JobRecord {
                    id: pending_jobs[ix].id(),
                    status: "timed-out".to_string(),
                    verdict: "timed-out".to_string(),
                    detail: "hard timeout: attempt abandoned".to_string(),
                    iterations: 0,
                    key_bits: 0,
                    attempts: attempts as u64,
                    wall_ms: config.spec.timeout_secs.unwrap_or(0) * 1000,
                    metrics: BTreeMap::new(),
                },
                JobTermination::Failed { error, attempts } => JobRecord {
                    id: pending_jobs[ix].id(),
                    status: "failed".to_string(),
                    verdict: "failed".to_string(),
                    detail: error,
                    iterations: 0,
                    key_bits: 0,
                    attempts: attempts as u64,
                    wall_ms: 0,
                    metrics: BTreeMap::new(),
                },
                JobTermination::NotRun => {
                    state.halted = true;
                    return;
                }
            };
            match record.status.as_str() {
                "timed-out" => outer.counter(names::JOBS_TIMEOUTS).incr(),
                "failed" => outer.counter(names::JOBS_FAILURES).incr(),
                _ => outer.counter(names::JOBS_COMPLETED).incr(),
            }
            if record.attempts > 1 {
                outer.counter(names::JOBS_RETRIES).add(record.attempts - 1);
            }
            if let Err(e) = state.journal.append(&record) {
                state.error.get_or_insert(e);
            }
            state.done[pending[ix]] = Some(record);
            state.executed += 1;
            state.retired_this_run += 1;
            if let Some(limit) = config.halt_after {
                if state.retired_this_run >= limit {
                    halt.cancel();
                }
            }
        },
    );

    let state = state.into_inner().expect("campaign state mutex");
    if let Some(e) = state.error {
        return Err(e);
    }
    Ok(CampaignResult {
        records: state.done.into_iter().flatten().collect(),
        executed: state.executed,
        skipped_resume,
        halted: state.halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("glk-campaign-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec::parse(
            "bench s27\nlocker xor 3\nlocker sarlock 3\nattack sat\nseeds 1 2\n\
             max-iters 64\nsamples 256\n",
        )
        .unwrap()
    }

    #[test]
    fn campaign_runs_and_resumes_without_reexecution() {
        let dir = temp_dir("resume");
        let journal_path = dir.join("journal.jsonl");
        let spec = small_spec();

        // Full run.
        let full = run_campaign(&CampaignConfig {
            spec: spec.clone(),
            jobs: 2,
            journal_path: dir.join("full.jsonl"),
            resume: false,
            halt_after: None,
            shard: None,
        })
        .expect("full run");
        assert_eq!(full.records.len(), 4);
        assert_eq!(full.executed, 4);
        assert!(!full.halted);

        // Halted run, then resume.
        let halted = run_campaign(&CampaignConfig {
            spec: spec.clone(),
            jobs: 1,
            journal_path: journal_path.clone(),
            resume: false,
            halt_after: Some(2),
            shard: None,
        })
        .expect("halted run");
        assert!(halted.halted);
        assert_eq!(halted.executed, 2);

        let resumed = run_campaign(&CampaignConfig {
            spec: spec.clone(),
            jobs: 1,
            journal_path,
            resume: true,
            halt_after: None,
            shard: None,
        })
        .expect("resumed run");
        assert_eq!(resumed.skipped_resume, 2);
        assert_eq!(resumed.executed, 2);
        assert!(!resumed.halted);

        // The resumed campaign's records match the uninterrupted run's,
        // wall-clock aside.
        let strip = |recs: &[JobRecord]| -> Vec<JobRecord> {
            recs.iter()
                .map(|r| JobRecord {
                    wall_ms: 0,
                    attempts: 0,
                    ..r.clone()
                })
                .collect()
        };
        assert_eq!(strip(&resumed.records), strip(&full.records));
    }

    #[test]
    fn resume_rejects_a_different_spec() {
        let dir = temp_dir("mismatch");
        let journal_path = dir.join("journal.jsonl");
        run_campaign(&CampaignConfig {
            spec: small_spec(),
            jobs: 1,
            journal_path: journal_path.clone(),
            resume: false,
            halt_after: None,
            shard: None,
        })
        .expect("seed run");
        let other = CampaignSpec::parse("bench s27\nlocker xor 4\nattack sat\n").unwrap();
        let err = run_campaign(&CampaignConfig {
            spec: other,
            jobs: 1,
            journal_path,
            resume: true,
            halt_after: None,
            shard: None,
        })
        .expect_err("spec mismatch");
        assert!(err.contains("refusing to resume"), "{err}");
    }

    #[test]
    fn unknown_bench_fails_before_the_pool_starts() {
        let dir = temp_dir("badbench");
        let err = run_campaign(&CampaignConfig {
            spec: CampaignSpec::parse("bench s999999\nlocker xor 2\nattack sat\n").unwrap(),
            jobs: 1,
            journal_path: dir.join("journal.jsonl"),
            resume: false,
            halt_after: None,
            shard: None,
        })
        .expect_err("unknown bench");
        assert!(err.contains("unknown benchmark"), "{err}");
    }
}
