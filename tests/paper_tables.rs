//! Paper-conformance suite: the s27/s298/s344/s1238/s5378 lock→attack
//! matrix,
//! run through `glk campaign`, must land every cell in the outcome class
//! the paper predicts (Sec. VI and Tables I–II in shape):
//!
//! * XOR/XNOR locking falls to the SAT attack (`key-recovered`).
//! * GK locking is statically key-independent, so the SAT attack sees no
//!   DIP and the best static key is wrong
//!   (`wrong-key-under-static-abstraction`, 0 iterations).
//! * SARLock and Anti-SAT resist nothing but removal: the point function
//!   is located and bypassed (`point-function-removed`).
//!
//! On top of the per-cell class assertions, the whole text report is
//! pinned against a committed golden file, and so is a removal-only
//! campaign at benchmark widths (s1238/s5378, XOR and MUX 16, SARLock,
//! Anti-SAT and GK 8) whose many-candidate `located-not-removed` and
//! `cone-bypassed` rates the matrix does not reach. Regenerate both after
//! an intentional change with:
//!
//! ```text
//! GLK_UPDATE_GOLDEN=1 cargo test --test paper_tables
//! ```

use glitchlock::obs::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The conformance matrix: 5 benchmarks × 4 lockers × 2 attacks × 1 seed.
/// `s1238` and `s5378` are Table I profiles, one to two orders of
/// magnitude above the other three — they keep the matrix honest at
/// benchmark scale. The `count` directive adds corruptibility rows:
/// s27 cells run both counting engines (7 data bits), the larger benches
/// render as skipped rows with their widths.
const SPEC: &str = "\
bench s27
bench s298
bench s344
bench s1238
bench s5378
locker xor 4
locker sarlock 3
locker antisat 3
locker gk 2
attack sat
attack removal
seeds 1
max-iters 64
samples 512
count 0.8 0.2 16 12
";

/// Removal at benchmark widths: many candidates per job, so the full and
/// cone bypass checks' match rates are pinned, not only verdicts.
const REMOVAL_SPEC: &str = "\
bench s1238 s5378
locker xor 16
locker mux 16
locker sarlock 8
locker antisat 8
locker gk 8
attack removal
seeds 1
";

fn glk() -> Command {
    Command::new(env!("CARGO_BIN_EXE_glk"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glk-paper-tables-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the conformance campaign and returns (text report, json report).
fn run_conformance(dir: &Path) -> (String, String) {
    run_campaign(dir, SPEC)
}

/// Runs `glk campaign` on `spec` and returns (text report, json report).
fn run_campaign(dir: &Path, spec_text: &str) -> (String, String) {
    let spec = dir.join("spec.txt");
    std::fs::write(&spec, spec_text).unwrap();
    let out = dir.join("conf");
    let output = glk()
        .arg("campaign")
        .arg("--spec")
        .arg(&spec)
        .args(["--jobs", "8"])
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "campaign failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(format!("{}.report.txt", out.display())).unwrap();
    let json = std::fs::read_to_string(format!("{}.report.json", out.display())).unwrap();
    // The text report is also the campaign's stdout.
    assert_eq!(String::from_utf8_lossy(&output.stdout), text);
    (text, json)
}

/// Compares `text` with `tests/golden/<name>`, rewriting the file first
/// under `GLK_UPDATE_GOLDEN`.
fn assert_matches_golden(text: &str, name: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("GLK_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, text).unwrap();
        eprintln!("regenerated {}", golden_path.display());
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             GLK_UPDATE_GOLDEN=1 cargo test --test paper_tables",
            golden_path.display()
        )
    });
    assert_eq!(
        text, golden,
        "campaign report diverged from the committed golden file {name}; if \
         the change is intentional, regenerate with \
         GLK_UPDATE_GOLDEN=1 cargo test --test paper_tables"
    );
}

/// Parses `id -> (verdict, iterations)` out of the JSON report.
fn verdicts(json_report: &str) -> BTreeMap<String, (String, u64)> {
    let v = json::parse(json_report.trim()).unwrap();
    assert_eq!(
        v.get("kind").and_then(json::Value::as_str),
        Some("campaign-report")
    );
    let jobs = match v.get("jobs") {
        Some(json::Value::Arr(jobs)) => jobs,
        other => panic!("jobs is not an array: {other:?}"),
    };
    jobs.iter()
        .map(|j| {
            let get = |k: &str| j.get(k).and_then(json::Value::as_str).unwrap().to_string();
            let iters = j.get("iterations").and_then(json::Value::as_num).unwrap();
            (get("id"), (get("verdict"), iters as u64))
        })
        .collect()
}

#[test]
fn matrix_lands_every_cell_in_the_papers_outcome_class() {
    let dir = tempdir("matrix");
    let (_text, json_report) = run_conformance(&dir);
    let cells = verdicts(&json_report);
    assert_eq!(cells.len(), 40, "5 benches × 4 lockers × 2 attacks");

    for bench in ["s27", "s298", "s344", "s1238", "s5378"] {
        // XOR/XNOR locking is broken by the SAT attack, with at least one
        // real DIP iteration.
        let (v, iters) = &cells[&format!("{bench}/xor4/sat/s1")];
        assert_eq!(v, "key-recovered", "{bench} xor sat");
        assert!(*iters >= 1, "{bench} xor sat needs DIPs, got {iters}");

        // GK: statically key-independent — the SAT attack finds no DIP at
        // all (0 iterations) and the key it settles on is wrong on the
        // static view. This is the paper's headline result.
        let (v, iters) = &cells[&format!("{bench}/gk2/sat/s1")];
        assert_eq!(v, "wrong-key-under-static-abstraction", "{bench} gk sat");
        assert_eq!(*iters, 0, "{bench} gk sat saw a DIP");

        // SARLock / Anti-SAT: the point function is located and bypassed.
        for locker in ["sarlock3", "antisat3"] {
            let (v, _) = &cells[&format!("{bench}/{locker}/removal/s1")];
            assert_eq!(v, "point-function-removed", "{bench} {locker} removal");
        }

        // GK has no point function to bypass: on the small benches the
        // locator finds nothing. On the benchmark-scale circuits it flags
        // a skewed net whose bypass fails full-design verification (the
        // other GK corrupts outputs the candidate never reaches) but does
        // verify on the extracted cone — the AIG cone-retry fix, pinned
        // here so it cannot regress to `located-not-removed`.
        let (v, _) = &cells[&format!("{bench}/gk2/removal/s1")];
        let expected = if matches!(bench, "s1238" | "s5378") {
            "cone-bypassed"
        } else {
            "nothing-located"
        };
        assert_eq!(v, expected, "{bench} gk removal");
    }
}

#[test]
fn corruptibility_rows_cover_the_matrix_with_the_gk_signature() {
    let dir = tempdir("corrupt");
    let (text, json_report) = run_conformance(&dir);
    assert!(text.contains("corruptibility"), "{text}");
    let v = json::parse(json_report.trim()).unwrap();
    let rows = match v.get("corruptibility") {
        Some(json::Value::Arr(rows)) => rows,
        other => panic!("corruptibility is not an array: {other:?}"),
    };
    assert_eq!(rows.len(), 20, "5 benches × 4 lockers");
    let row = |bench: &str, locker: &str| {
        rows.iter()
            .find(|r| {
                r.get("bench").and_then(json::Value::as_str) == Some(bench)
                    && r.get("locker").and_then(json::Value::as_str) == Some(locker)
            })
            .unwrap_or_else(|| panic!("no row for {bench}/{locker}"))
    };
    // s27/gk2: the paper's quantitative signature — zero DIP space, one
    // key class, every input corrupted for every key.
    let gk = row("s27", "gk2");
    assert_eq!(gk.get("method").and_then(json::Value::as_str), Some("both"));
    let exact = |key: &str| {
        gk.get(key)
            .and_then(|s| s.get("exact"))
            .and_then(json::Value::as_num)
    };
    assert_eq!(exact("dip"), Some(0.0), "{gk:?}");
    assert_eq!(exact("err"), Some(128.0));
    assert_eq!(exact("wrong_keys"), Some(4.0));
    assert_eq!(
        gk.get("key_classes").and_then(json::Value::as_num),
        Some(1.0)
    );
    // s27/xor4 corrupts, with a non-trivial key-class structure.
    let xor = row("s27", "xor4");
    assert_eq!(
        xor.get("method").and_then(json::Value::as_str),
        Some("both")
    );
    let wrong = xor
        .get("wrong_keys")
        .and_then(|s| s.get("exact"))
        .and_then(json::Value::as_num)
        .unwrap();
    assert!(wrong > 0.0);
    // The benchmark-scale circuits exceed the directive's cutoffs and
    // are skipped, not silently mis-counted.
    let big = row("s5378", "xor4");
    assert_eq!(
        big.get("method").and_then(json::Value::as_str),
        Some("skipped")
    );
}

#[test]
fn conformance_report_matches_golden() {
    let dir = tempdir("golden");
    let (text, _json) = run_conformance(&dir);
    assert_matches_golden(&text, "campaign_conformance.txt");
}

#[test]
fn removal_report_matches_golden() {
    let dir = tempdir("removal");
    let (text, _json) = run_campaign(&dir, REMOVAL_SPEC);
    assert_matches_golden(&text, "campaign_removal.txt");
}
