//! `perfbench`: the glitchlock benchmark. Runs one named workload on
//! inputs made from `--seed`, checks its outputs, and prints every metric;
//! the last stdout line is one JSON object with the result.
//!
//! ```text
//! python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this binary and `glk`, then runs it with the
//! provenance flags below. `--trace 1` reports the per-layer metrics from
//! traced passes instead of the end-to-end ones. `--out FILE` also writes
//! the result, provenance and every span to FILE; nothing else is written
//! outside `--work-dir`.

mod campaigns;
mod catalog;
mod harness;
mod oracle_serve;
mod paper_flow;
mod stats;
mod trace;

use harness::{Ctx, Provenance};
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <paper_flow|attack_campaign|count_campaign|oracle_serve> \
--seed <n> --seconds <n> --trace <0|1> [--out FILE] [--work-dir DIR] [--glk PATH] \
[--rev REV] [--rustc VERSION] [--profile NAME]";

struct Args {
    workload: String,
    ctx: Ctx,
    out: Option<PathBuf>,
    prov: Provenance,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).cloned();
    let need = |k: &str| get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = need("workload")?;
    if !catalog::catalog().workloads.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed: u64 = need("seed")?
        .parse()
        .map_err(|_| "--seed expects a whole number".to_string())?;
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(get("work-dir").unwrap_or_else(|| ".perfbench-work".to_string())),
        glk: get("glk").map(PathBuf::from),
        epoch: Instant::now(),
    };
    let prov = Provenance {
        workload: workload.clone(),
        rev: get("rev").unwrap_or_else(|| "unknown".to_string()),
        rustc: get("rustc").unwrap_or_else(|| "unknown".to_string()),
        profile: get("profile").unwrap_or_else(|| "unknown".to_string()),
    };
    Ok(Args {
        workload,
        ctx,
        out: get("out").map(PathBuf::from),
        prov,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    let outcome = match args.workload.as_str() {
        "paper_flow" => paper_flow::run(ctx),
        "attack_campaign" => campaigns::run_attack(ctx),
        "count_campaign" => campaigns::run_count(ctx),
        "oracle_serve" => oracle_serve::run(ctx),
        _ => unreachable!("workload names are validated"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let code = harness::finish(ctx, &args.prov, outcome, args.out.as_deref());
    std::process::exit(code);
}
