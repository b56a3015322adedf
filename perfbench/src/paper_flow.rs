//! `paper_flow`: Table I + Table II + Sec. VI on the seven IWLS2005
//! profiles, one thread, closed loop.

use crate::harness::{self, Ctx, Outcome};
use crate::stats::Ratio;
use crate::trace::Tracer;
use glitchlock_attacks::sat_attack::key_match_rate;
use glitchlock_attacks::{SatAttack, SatOutcome};
use glitchlock_circuits::{generate, iwls2005_profiles, Profile};
use glitchlock_core::encrypt_ff::select_encrypt_ff;
use glitchlock_core::feasibility::analyze_feasibility_with;
use glitchlock_core::gk::GkDesign;
use glitchlock_core::locking::{LockScheme, XorLock};
use glitchlock_core::GkEncryptor;
use glitchlock_lint::{LintContext, LintRunner};
use glitchlock_netlist::Netlist;
use glitchlock_obs::{self as obs, names, Collector};
use glitchlock_sta::ClockModel;
use glitchlock_stdcell::Library;
use glitchlock_synth::Overhead;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// GK counts of Table II's pure-GK columns.
const GK_COUNTS: [usize; 3] = [4, 8, 16];
/// Profiles that also get the XOR-16 contrast attack.
const XOR_CONTRAST: [&str; 4] = ["s1238", "s5378", "s9234", "s13207"];
/// Patterns `key_match_rate` compares a recovered XOR key on.
const VERIFY_SAMPLES: usize = 1024;

/// Table I as this flow must reproduce it: `(bench, available FFs,
/// coverage %, Encrypt-FF group size)`. Independent of the seed: the
/// profiles carry their own generation seeds.
const TABLE1: [(&str, usize, f64, usize); 7] = [
    ("s1238", 16, 88.89, 4),
    ("s5378", 107, 65.64, 64),
    ("s9234", 64, 44.14, 35),
    ("s13207", 201, 60.91, 143),
    ("s15850", 58, 43.28, 41),
    ("s38417", 1076, 68.80, 664),
    ("s38584", 935, 80.05, 450),
];

/// Table II (cell/area overhead % at 4, 8 and 16 GKs, then the hybrid)
/// pinned for the seeds whose locking choices were recorded; other seeds
/// are held to the table's shape instead.
const TABLE2: [(u64, [&str; 7]); 2] = [
    (
        1,
        [
            "25.51/35.82 49.85/70.76 99.41/141.61 54.55/77.46",
            "10.97/10.88 22.58/21.81 45.55/44.89 24.77/23.92",
            "13.70/13.00 26.75/25.31 54.49/51.55 30.67/28.88",
            "9.43/6.99 19.42/14.40 37.96/28.20 21.20/15.92",
            "19.24/15.65 40.04/33.01 78.30/64.27 42.51/34.99",
            "1.65/1.35 3.26/2.72 6.63/5.61 3.56/2.96",
            "1.68/1.58 3.34/3.17 6.73/6.40 3.68/3.49",
        ],
    ),
    (
        2,
        [
            "25.51/35.82 49.85/70.76 99.41/141.61 54.55/77.46",
            "11.61/11.23 22.45/21.91 45.16/43.84 24.26/23.61",
            "14.36/13.55 28.06/26.57 55.46/52.23 30.02/28.17",
            "9.99/7.32 18.98/14.20 37.74/28.29 21.09/15.81",
            "19.24/15.86 38.70/32.36 76.51/63.86 41.83/34.67",
            "1.63/1.37 3.28/2.77 6.45/5.41 3.54/3.01",
            "1.73/1.64 3.26/3.14 6.43/6.15 3.62/3.48",
        ],
    ),
];

/// One benchmark's Table I and Table II results.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    bench: &'static str,
    available: usize,
    coverage_pct: f64,
    group: usize,
    /// `(cell %, area %)` at 4, 8 and 16 GKs and for the hybrid.
    overheads: [(f64, f64); 4],
    /// Deny-level lint findings on the three GK-locked netlists.
    lint_denied: usize,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let profiles = iwls2005_profiles();
    let lib = Library::cl013g_like();
    let lint_lib = Library::cl013g_like().with_gk_delay_macros();
    // Set-up: the inputs every pass starts from (generation is also timed
    // inside each pass as the `circuits` layer), about 15 ms each.
    harness::timed_setups(
        &mut out,
        4,
        || harness::timed(|| Ok(profiles.iter().map(generate).collect::<Vec<Netlist>>())),
        |_| Ok(()),
    )?;

    let mut first_rows: Option<Vec<Row>> = None;
    let mut repeats = true;
    harness::run_passes(ctx, &mut out, |t, out| {
        let collector = Arc::new(Collector::new());
        let rows = obs::scoped(&collector, || {
            profiles
                .iter()
                .map(|p| {
                    t.span("bench", p.name, |t| {
                        one_bench(ctx, t, out, p, &lib, &lint_lib)
                    })
                })
                .collect::<Result<Vec<Row>, String>>()
        })?;
        match &first_rows {
            None => {
                check_tables(out, &rows, ctx.seed);
                first_rows = Some(rows.clone());
            }
            Some(first) => repeats &= *first == rows,
        }
        let mut counters = harness::fingerprint_counters(&collector.registry().snapshot());
        let denied = rows.iter().map(|r| r.lint_denied as u64).sum();
        counters.insert("lint.denied".to_string(), denied);
        Ok(counters)
    })?;
    out.check(
        "Table I/II rows repeat on every pass",
        repeats,
        String::new(),
    );
    out.peak_rss_mb = harness::peak_rss_mb("self");
    if ctx.trace {
        layer_metrics(&mut out);
    }
    Ok(out)
}

fn one_bench(
    ctx: &Ctx,
    t: &mut Tracer,
    out: &mut Outcome,
    profile: &Profile,
    lib: &Library,
    lint_lib: &Library,
) -> Result<Row, String> {
    let name = profile.name;
    let nl = t.span("circuits.generate", name, |_| generate(profile));
    let clock = ClockModel::new(profile.clock_period);
    let design = GkDesign::paper_default();
    let sta = t.span("sta.analyze", name, |_| {
        glitchlock_sta::analyze(&nl, lib, &clock)
    });
    let feas = t.span("core.feasibility", name, |_| {
        analyze_feasibility_with(&nl, lib, &clock, &design, &sta)
    });
    let available = feas.available();
    let group = t.span("core.encrypt_ff", name, |_| {
        select_encrypt_ff(&nl, &available)
    });

    let mut overheads = [(0.0, 0.0); 4];
    let mut lint_denied = 0usize;
    for (col, &n) in GK_COUNTS.iter().enumerate() {
        let id = format!("{name}/gk{n}");
        let mut rng = StdRng::seed_from_u64(ctx.derive(&id));
        let locked = t
            .span("core.gk_encrypt", &id, |_| {
                GkEncryptor::new(n).encrypt(&nl, lib, &clock, &mut rng)
            })
            .map_err(|e| format!("{id}: {e}"))?;
        out.attempted += 1;
        let oh = t.span("synth.overhead", &id, |_| {
            Overhead::measure(lib, &locked.original, &locked.netlist)
        });
        overheads[col] = (oh.cell_overhead_pct(), oh.area_overhead_pct());
        let lint = t.span("lint.run", &id, |_| {
            let lint_ctx = LintContext::new(&locked.netlist, lint_lib).with_clock(clock.clone());
            LintRunner::new().run(&lint_ctx)
        });
        lint_denied += lint.denied();
        let attack = t.span("attacks.sat", &id, |_| {
            SatAttack::new(
                &locked.attack_view,
                locked.attack_key_inputs.clone(),
                &locked.original,
            )
            .run()
        });
        out.attempted += 1;
        if !matches!(attack.outcome, SatOutcome::NoDipAtFirstIteration { .. }) {
            out.failed += 1;
            out.check(
                format!("{id}: SAT attack is UNSAT at the first DIP"),
                false,
                format!(
                    "{:?} after {} iterations",
                    attack.outcome, attack.iterations
                ),
            );
        }
    }

    // Table II's hybrid: 8 GKs plus 16 XOR key-gates (32 key inputs).
    let id = format!("{name}/gk8+xor16");
    let mut rng = StdRng::seed_from_u64(ctx.derive(&id));
    let gk8 = t
        .span("core.gk_encrypt", &id, |_| {
            GkEncryptor::new(8).encrypt(&nl, lib, &clock, &mut rng)
        })
        .map_err(|e| format!("{id}: {e}"))?;
    let hybrid = t
        .span("core.xor_lock", &id, |_| {
            XorLock::new(16).lock(&gk8.netlist, &mut rng)
        })
        .map_err(|e| format!("{id}: {e}"))?;
    out.attempted += 1;
    let oh = t.span("synth.overhead", &id, |_| {
        Overhead::measure(lib, &nl, &hybrid.netlist)
    });
    overheads[3] = (oh.cell_overhead_pct(), oh.area_overhead_pct());

    if XOR_CONTRAST.contains(&name) {
        xor_contrast(ctx, t, out, name, &nl)?;
    }
    Ok(Row {
        bench: name,
        available: available.len(),
        coverage_pct: feas.coverage_pct(),
        group: group.len(),
        overheads,
        lint_denied,
    })
}

/// Sec. VI contrast: XOR/XNOR locking falls to the same attack, and the
/// recovered key is verified against the oracle.
fn xor_contrast(
    ctx: &Ctx,
    t: &mut Tracer,
    out: &mut Outcome,
    name: &str,
    nl: &Netlist,
) -> Result<(), String> {
    let id = format!("{name}/xor16");
    let mut rng = StdRng::seed_from_u64(ctx.derive(&id));
    let locked = t
        .span("core.xor_lock", &id, |_| {
            XorLock::new(16).lock(nl, &mut rng)
        })
        .map_err(|e| format!("{id}: {e}"))?;
    let attack = t.span("attacks.sat", &id, |_| {
        SatAttack::new(&locked.netlist, locked.key_inputs.clone(), nl).run()
    });
    out.attempted += 1;
    let SatOutcome::KeyRecovered { key } = &attack.outcome else {
        out.failed += 1;
        out.check(
            format!("{id}: SAT attack cracks XOR locking"),
            false,
            format!("{:?}", attack.outcome),
        );
        return Ok(());
    };
    let rate = t.span("attacks.verify", &id, |_| {
        key_match_rate(
            &locked.netlist,
            &locked.key_inputs,
            key,
            nl,
            VERIFY_SAMPLES,
            &mut rng,
        )
    });
    if rate < 1.0 {
        out.failed += 1;
        out.check(
            format!("{id}: recovered key matches the oracle"),
            false,
            format!("key_match_rate {rate}"),
        );
    }
    Ok(())
}

/// Pins Table I exactly and Table II's shape: overhead grows with the GK
/// count, and the hybrid's 32 key inputs cost less than 16 pure GKs. For
/// a seed in [`TABLE2`], Table II must also equal the pinned values.
fn check_tables(out: &mut Outcome, rows: &[Row], seed: u64) {
    let got: Vec<(&str, usize, String, usize)> = rows
        .iter()
        .map(|r| {
            (
                r.bench,
                r.available,
                format!("{:.2}", r.coverage_pct),
                r.group,
            )
        })
        .collect();
    let want: Vec<(&str, usize, String, usize)> = TABLE1
        .iter()
        .map(|&(b, a, c, g)| (b, a, format!("{c:.2}"), g))
        .collect();
    out.check(
        "Table I available FFs, coverage and Encrypt-FF groups equal the pinned values",
        got == want,
        format!("got {got:?}"),
    );
    for r in rows {
        let [g4, g8, g16, hybrid] = r.overheads;
        let grows = g4.0 < g8.0 && g8.0 < g16.0 && g4.1 < g8.1 && g8.1 < g16.1;
        let hybrid_cheaper = hybrid.0 < g16.0 && hybrid.1 < g16.1 && hybrid.0 > g8.0;
        out.check(
            format!(
                "{}: Table II overhead grows with GKs; hybrid sits between 8 and 16",
                r.bench
            ),
            grows && hybrid_cheaper && g4.0 > 0.0,
            format!("{:?}", r.overheads),
        );
    }
    if let Some((_, pinned)) = TABLE2.iter().find(|(s, _)| *s == seed) {
        let got: Vec<String> = rows.iter().map(overhead_cols).collect();
        out.check(
            format!("Table II overheads equal the values pinned for seed {seed}"),
            got == pinned.to_vec(),
            format!("got {got:?}"),
        );
    }
    out.notes.push(render_tables(rows));
}

/// A row's Table II columns as `cell/area` pairs at two decimals.
fn overhead_cols(r: &Row) -> String {
    r.overheads
        .iter()
        .map(|(c, a)| format!("{c:.2}/{a:.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn render_tables(rows: &[Row]) -> String {
    let mut s = String::from(
        "\nTable I/II (bench: available FFs, coverage %, Encrypt-FF group | cell/area OH % at 4, 8, 16 GKs, 8 GK + 16 XOR | deny-level lint findings):\n",
    );
    for r in rows {
        s.push_str(&format!(
            "  {:<7} {:>5} {:>6.2} {:>4} | {} | {}\n",
            r.bench,
            r.available,
            r.coverage_pct,
            r.group,
            overhead_cols(r),
            r.lint_denied
        ));
    }
    s
}

fn layer_metrics(out: &mut Outcome) {
    for (metric, span) in [
        ("circuits.generate_ms", "circuits.generate"),
        ("sta.analyze_ms", "sta.analyze"),
        ("core.feasibility_ms", "core.feasibility"),
        ("core.encrypt_ff_ms", "core.encrypt_ff"),
        ("core.gk_encrypt_ms", "core.gk_encrypt"),
        ("core.xor_lock_ms", "core.xor_lock"),
        ("synth.overhead_ms", "synth.overhead"),
        ("lint.run_ms", "lint.run"),
        ("attacks.sat_ms", "attacks.sat"),
    ] {
        let v = out.per_traced_pass_ms(span);
        out.set(metric, v);
    }
    let counters: BTreeMap<&str, u64> = [
        names::LOCK_DESIGNS,
        names::LOCK_GK_INSERTED,
        names::ANALYSIS_ITERATIONS,
        names::LOCK_GK_FEASIBLE,
        names::LOCK_GK_REJECTED,
    ]
    .into_iter()
    .map(|n| (n, out.counter(n)))
    .collect();
    out.set("lock.designs", counters[names::LOCK_DESIGNS] as f64);
    out.set("lock.gk.inserted", counters[names::LOCK_GK_INSERTED] as f64);
    out.set(
        "analysis.iterations",
        counters[names::ANALYSIS_ITERATIONS] as f64,
    );
    let feasible = counters[names::LOCK_GK_FEASIBLE] as f64;
    let tried = feasible + counters[names::LOCK_GK_REJECTED] as f64;
    out.set_ratio("core.gk_feasible_ratio", Ratio::new(feasible, tried));
}
