//! The archive benchmark: three seeded closed-loop workloads against a
//! 200 000-object archive, with every answer checked.
//!
//! ```text
//! cargo run --release --manifest-path archbench/Cargo.toml -- \
//!     --workload interactive|sweep|science --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs it for half the time untraced and half
//! traced, replays the traced statements through the layers, and prints
//! the per-layer metrics and a layer report. Human-readable lines start
//! with `# `; the last line of standard output is the JSON result.

mod check;
mod gen;
mod replay;
mod report;
mod run;
mod trace;

use check::{check, Catalog};
use gen::{Class, Workload};
use report::{json_num, json_object, json_str, Metric};
use run::{clients, run_phase, setup, Env, Phase, N_OBJECTS};
use std::process::ExitCode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for x in metrics {
        match x.value {
            Some(v) => println!("#   {:<28} {v:>16.4} {}", x.name, x.unit),
            None => println!("#   {:<28} {:>16} {}", x.name, "n/a", x.unit),
        }
    }
}

/// Cover-cache (hits, misses, evictions) summed over both stores.
fn cover_counters(env: &Env) -> (u64, u64, u64) {
    let (th, tm) = env.tags.cover_cache_stats();
    let (sh, sm) = env.store.cover_cache_stats();
    let ev = env.tags.cover_cache().evictions() + env.store.cover_cache().evictions();
    (th + sh, tm + sm, ev)
}

fn facts(a: &Args, env: &Env, phases: &[&Phase], checks: &check::CheckOutcome) -> String {
    let cfg = env.archive.config().admission;
    let all: Vec<&run::Record> = phases.iter().flat_map(|p| p.records.iter()).collect();
    let mean_set_rows = |class: Class| {
        let rows: Vec<f64> = all
            .iter()
            .filter(|r| r.stmt.class == class)
            .map(|r| r.into_rows as f64)
            .collect();
        json_num(rows.iter().sum::<f64>() / rows.len().max(1) as f64)
    };
    let granted = all
        .iter()
        .map(|r| r.stats.workers_granted as f64)
        .sum::<f64>();
    let stats = report::class_stats(&all);
    let counts: Vec<(&str, String)> = stats.iter().map(|&(c, n, _)| (c, n.to_string())).collect();
    let p50s: Vec<(&str, String)> = stats
        .iter()
        .map(|&(c, _, p)| (c, json_num(p.unwrap_or(0.0))))
        .collect();
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    json_object(&[
        ("workload", json_str(a.workload.name())),
        ("why", json_str(a.workload.why())),
        ("seed", a.seed.to_string()),
        ("seconds", json_num(a.seconds)),
        ("trace", a.trace.to_string()),
        ("nproc", env.nproc.to_string()),
        ("clients", clients(a.workload, env.nproc).to_string()),
        ("max_worker_slots", cfg.max_worker_slots.to_string()),
        (
            "max_workers_per_query",
            cfg.max_workers_per_query.to_string(),
        ),
        (
            "workers_granted_mean",
            json_num(granted / all.len().max(1) as f64),
        ),
        ("objects", N_OBJECTS.to_string()),
        ("tag_containers", env.tags.num_containers().to_string()),
        ("cand_rows_mean", mean_set_rows(Class::SciInto)),
        ("qso_rows_mean", mean_set_rows(Class::SciUnionInto)),
        ("class_counts", json_object(&counts)),
        ("class_median_ms", json_object(&p50s)),
        ("timed_attempted", attempted.to_string()),
        ("timed_failed", failed.to_string()),
        ("checks_attempted", checks.attempted.to_string()),
        ("checks_failed", checks.failed.to_string()),
    ])
}

fn bench(a: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (env, setup_s) = if a.trace {
        let env = setup(a.workload, a.seed, nproc)?;
        let s = env.setup_s;
        (env, s)
    } else {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut env = None;
        for _ in 0..SETUP_REPEATS {
            // Free the previous archive first, so set-ups do not overlap.
            drop(env.take());
            let e = setup(a.workload, a.seed, nproc)?;
            times.push(e.setup_s);
            env = Some(e);
        }
        (
            env.expect("at least one set-up"),
            trace::median(&times).expect("at least one set-up"),
        )
    };
    let cat = Catalog::new(&env.tags);

    let (phases, metrics, checks) = if a.trace {
        let half = a.seconds / 2.0;
        let untraced = run_phase(&env, a.workload, a.seed, half, false);
        let (h0, m0, e0) = cover_counters(&env);
        let traced = run_phase(&env, a.workload, a.seed, half, true);
        let (h1, m1, e1) = cover_counters(&env);
        trace::check_nesting(&traced.spans)?;
        let replays = replay::replay(&env, &traced.records, &cat)?;
        trace::check_nesting(&replays.spans)?;
        let checks = check(&env, a.workload, a.seed, &cat);
        let inputs = report::LayerInputs {
            untraced: &untraced,
            traced: &traced,
            replays: &replays,
            cover_hits: h1 - h0,
            cover_misses: m1 - m0,
            cover_evictions: e1 - e0,
            peak_running: env.archive.admission().peak_running,
            gen_s: env.gen_s,
            build_s: env.build_s,
        };
        let metrics = report::per_layer(&inputs);
        for line in report::layer_report(a.workload, &inputs) {
            println!("# {line}");
        }
        print_metrics(
            "per-layer metrics (0 in the result line = not exercised)",
            &metrics,
        );
        (vec![untraced, traced], metrics, checks)
    } else {
        let phase = run_phase(&env, a.workload, a.seed, a.seconds, false);
        let checks = check(&env, a.workload, a.seed, &cat);
        let metrics = report::end_to_end(&phase, setup_s, peak_rss_mb()?);
        print_metrics("end-to-end metrics", &metrics);
        print_metrics(
            "single-workload end-to-end figures (unbounded; reported as per-layer metrics under --trace 1)",
            &report::workload_specific(&phase),
        );
        if let Some(missing) = metrics.iter().find(|x| x.value.is_none()) {
            return Err(format!("no samples for {}", missing.name));
        }
        (vec![phase], metrics, checks)
    };
    let phase_refs: Vec<&Phase> = phases.iter().collect();
    for note in checks
        .notes
        .iter()
        .chain(phases.iter().flat_map(|p| &p.errors))
    {
        eprintln!("archbench: failed: {note}");
    }
    println!("# facts {}", facts(a, &env, &phase_refs, &checks));
    let attempted = phases.iter().map(|p| p.attempted).sum::<u64>() + checks.attempted;
    let failed = phases.iter().map(|p| p.failed).sum::<u64>() + checks.failed;
    println!(
        "{}",
        report::result_line(failed == 0, attempted, failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "archbench: {e}\nusage: archbench --workload interactive|sweep|science \
                 --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("archbench: {e}");
            ExitCode::FAILURE
        }
    }
}
