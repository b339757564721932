//! `mcam-benchmark` — the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! mcam-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! mcam-benchmark --all [--seed N] [--seconds S] [--traced] [--twice]
//! ```
//!
//! The first form runs one workload in this process and ends its
//! standard output with the result line `BENCHMARK.json` describes.
//! The second runs every workload, each in a process of its own (so
//! `peak_rss_mb` is per workload), and with `--twice` does so twice
//! and compares the two sets. See `README.md`.

mod clock;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use bench::CountingAllocator;
use metrics::Clock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Size;

/// Counts every allocation of the process; the `alloc_*` metrics read
/// it around the calls they measure.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Args {
    workload: Option<String>,
    all: bool,
    twice: bool,
    traced: bool,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        twice: false,
        traced: false,
        seed: 1994,
        seconds: 15.0,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value()? == "1",
            "--out" => args.out = PathBuf::from(value()?),
            "--traced" => args.traced = true,
            "--all" => args.all = true,
            "--twice" => args.twice = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give either --workload <name> or --all".into());
    }
    Ok(args)
}

fn write_out(dir: &Path, file: &str, content: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload here and prints table and result line.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    if !workloads::NAMES.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            workloads::NAMES
        ));
    }
    let report = run::run(workload, args.seed, args.seconds, args.traced, Size::Full);
    let suffix = if args.traced { ".traced" } else { "" };
    write_out(
        &args.out,
        &format!("{workload}{suffix}.json"),
        &report.full_json(),
    )?;
    if args.traced {
        let dump = trace::to_jsonl(&report.spans);
        write_out(&args.out, &format!("{workload}.trace.jsonl"), &dump)?;
    }
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// One full pass over the workloads, each in a child process. Returns
/// every metric of every workload (from the children's `out/*.json`).
fn run_suite(args: &Args, traced: bool) -> Result<BTreeMap<String, Vec<(String, f64)>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut suite = BTreeMap::new();
    for workload in workloads::NAMES {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status()
            .map_err(|e| format!("spawning {workload}: {e}"))?;
        if !status.success() {
            return Err(format!("{workload} failed ({status})"));
        }
        let suffix = if traced { ".traced" } else { "" };
        let path = args.out.join(format!("{workload}{suffix}.json"));
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        suite.insert(workload.to_string(), run::parse_metrics(&json));
    }
    Ok(suite)
}

/// Compares two passes: host-clock end-to-end metrics within their
/// bound, sim-clock metrics bit-equal (where the workload repeats
/// exactly). Prints every spread so the bounds can be audited.
fn compare(
    first: &BTreeMap<String, Vec<(String, f64)>>,
    second: &BTreeMap<String, Vec<(String, f64)>>,
) -> bool {
    let mut ok = true;
    println!("## twice: spread of the second pass against the first");
    for (workload, a) in first {
        let b: BTreeMap<&str, f64> = second[workload]
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        for (name, va) in a {
            let (Some(def), Some(vb)) = (metrics::find(name), b.get(name.as_str())) else {
                continue;
            };
            let spread = if *va == 0.0 {
                0.0
            } else {
                (vb - va).abs() / va.abs()
            };
            let verdict = match (def.clock, def.bound) {
                _ if workload == workloads::UNBOUNDED => "",
                (Clock::Sim, _) if va != vb && run::repeats_exactly(workload) => "NOT EQUAL",
                (_, Some(bound)) if spread > bound => "OUT OF BOUND",
                _ => "",
            };
            if def.bound.is_some() || def.clock == Clock::Sim {
                println!(
                    "{workload:<20} {name:<42} {va:>16.4} {vb:>16.4} {:>7.2}% {verdict}",
                    spread * 100.0
                );
            }
            ok &= verdict.is_empty();
        }
    }
    ok
}

fn run_all(args: &Args) -> Result<bool, String> {
    let first = run_suite(args, false)?;
    if args.traced {
        run_suite(args, true)?;
    }
    if !args.twice {
        return Ok(true);
    }
    let second = run_suite(args, false)?;
    Ok(compare(&first, &second))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcam-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mcam-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    /// The `"name"` of every entry of the array under `key` in
    /// `BENCHMARK.json`, in order.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array follows");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn benchmark_json() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    #[test]
    fn benchmark_json_lists_the_metric_tables() {
        let json = benchmark_json();
        let names =
            |defs: &[metrics::Def]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names_under(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(names_under(&json, "per_layer"), names(PER_LAYER));
        let bounded: Vec<&str> = workloads::NAMES
            .into_iter()
            .filter(|w| *w != workloads::UNBOUNDED)
            .collect();
        assert_eq!(names_under(&json, "workloads"), bounded);
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.label(),
                d.bound.expect("end-to-end metrics are bounded")
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.label()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    /// A seconds-long miniature of each workload, untraced and traced:
    /// the checks pass and the result lines carry exactly the names
    /// `BENCHMARK.json` lists.
    #[test]
    fn miniature_workloads_emit_the_listed_metrics() {
        let json = benchmark_json();
        for workload in workloads::NAMES {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = run::run(workload, 7, 0.0, traced, Size::Mini);
                assert!(report.correct(), "{workload}: {:?}", report.errors);
                let emitted: Vec<String> = run::parse_metrics(&report.result_line())
                    .into_iter()
                    .map(|(n, _)| n)
                    .collect();
                assert_eq!(
                    emitted,
                    names_under(&json, key),
                    "{workload} traced={traced}"
                );
                if traced {
                    assert!(!report.spans.is_empty());
                    trace::check_links(&report.spans).unwrap();
                } else {
                    for d in END_TO_END {
                        assert!(report.values[d.name] > 0.0, "{workload}: {} is 0", d.name);
                    }
                }
            }
        }
    }
}
