//! Floor-timed benchmark of the OFFRAMPS reproduction, driven from
//! outside through the library's public calls.
//!
//! ```text
//! cargo run --release --manifest-path floorbench/Cargo.toml -- \
//!     --workload suite-online|store-replay \
//!     [--seed 42] [--seconds 55] [--trace 0|1]
//! ```
//!
//! Every host-time number is a floor sum (see [`stats`]). With
//! `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a separate
//! traced run, which must reproduce the end-to-end results exactly.
//! The line before it is the host note. See `README.md` for the
//! workloads, the metrics and the layer map.

mod host;
mod layers;
mod passes;
mod replay;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use offramps_bench::campaign::ScenarioResult;

use crate::host::{json_string, ChaseRing};
use crate::passes::Passes;
use crate::stats::{floor, floor_sum, median, tail_percentile, valid_metric_name};

const USAGE: &str = "usage: floorbench --workload suite-online|store-replay \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The command line, checked.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Master seed every input is made from.
    pub seed: u64,
    /// When the run stops starting passes: `--seconds` after start-up,
    /// so set-up work before the first pass counts against it too.
    pub deadline: Instant,
    /// Report the traced run's per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let start = Instant::now();
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        deadline: start + Duration::from_secs(55),
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.deadline = start + Duration::from_secs(value.parse().map_err(bad)?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One reported figure.
pub struct Metric {
    /// Name, in the metric-name grammar.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload measured, before it becomes metrics.
pub struct Measured {
    /// Worker threads the end-to-end run used.
    pub threads: usize,
    /// Set-up attempts, seconds.
    pub setup: Vec<f64>,
    /// The floor-timed end-to-end passes.
    pub e2e: Passes,
    /// One pass's scenario results (every pass checked identical).
    pub results: Vec<ScenarioResult>,
    /// The traced run, when asked for.
    pub traced: Option<Passes>,
    /// The traced run's layer metrics.
    pub per_layer: Vec<Metric>,
}

/// Detection quality of one pass's results: attacked scenarios flagged,
/// clean reprints flagged, and the mean print fraction at the alarm
/// (1.0 for a post-hoc verdict) over flagged attacked scenarios.
struct Quality {
    detection_rate: f64,
    false_positive_rate: f64,
    ttd_print_fraction: f64,
}

impl Quality {
    fn of(results: &[ScenarioResult]) -> Quality {
        let ratio = |num: usize, den: usize| num as f64 / den.max(1) as f64;
        let (clean, attacked): (Vec<&ScenarioResult>, Vec<&ScenarioResult>) =
            results.iter().partition(|r| r.scenario.trojan == "none");
        let flagged: Vec<&&ScenarioResult> = attacked.iter().filter(|r| r.detected()).collect();
        let ttd: f64 = flagged
            .iter()
            .map(|r| r.ttd.map_or(1.0, |t| t.print_fraction))
            .sum();
        Quality {
            detection_rate: ratio(flagged.len(), attacked.len()),
            false_positive_rate: ratio(clean.iter().filter(|r| r.detected()).count(), clean.len()),
            ttd_print_fraction: ttd / flagged.len().max(1) as f64,
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("floorbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(format!(
        ".floorbench-work-{}",
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("floorbench: cannot create {}: {e}", work.0.display());
        return ExitCode::from(1);
    }
    let chase = ChaseRing::new();
    let measured = match args.workload.as_str() {
        "suite-online" => sweep::measure(&args, &work.0, &chase),
        "store-replay" => replay::measure(&args, &work.0, &chase),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("floorbench: {e}");
            return ExitCode::from(1);
        }
    };
    drop(work);
    report(&args, measured)
}

/// Prints the host note, the sample line and the result line.
fn report(args: &Args, m: Measured) -> ExitCode {
    let Measured {
        threads,
        setup,
        e2e,
        results,
        traced,
        mut per_layer,
    } = m;
    let chase = &e2e.chase_ns;
    let mut attempted = e2e.attempted;
    let mut failed = e2e.failed;
    let mut problems = e2e.problems.clone();
    if let Some(t) = &traced {
        attempted += t.attempted;
        failed += t.failed;
        problems.extend(t.problems.iter().map(|p| format!("traced: {p}")));
    }
    for p in &problems {
        eprintln!("floorbench: check failed: {p}");
    }
    let chase_ns = median(chase);
    println!(
        "{}",
        host::note(&args.workload, args.seed, threads, chase_ns)
    );

    let wall = floor_sum(&e2e.attempts).unwrap_or(f64::NAN);
    let tail = tail_percentile(&e2e.pass_walls).map_or("null".into(), |(p, v)| {
        format!("{{\"p\": {p}, \"s\": {v}}}")
    });
    println!(
        "{{\"samples\": {{\"passes\": {}, \"unit_attempts\": {}, \"setup_reps\": {}, \
         \"pass_wall_median_s\": {}, \"pass_wall_tail\": {tail}, \"unit_floors_s\": [{}], \
         \"traced_passes\": {}}}}}",
        e2e.pass_walls.len(),
        e2e.attempted,
        setup.len(),
        median(&e2e.pass_walls).unwrap_or(f64::NAN),
        e2e.attempts
            .iter()
            .map(|a| floor(a).map_or("null".into(), |f| f.to_string()))
            .collect::<Vec<_>>()
            .join(", "),
        traced.as_ref().map_or(0, |t| t.attempted),
    );

    // Figures every run prints but does not gate: they move with the
    // seed (or, for memory, with thread timing) by more than a bound
    // can allow — see README.md.
    let quality = Quality::of(&results);
    println!(
        "{{\"quality\": {{\"scenarios\": {}, \"result_events\": {}, \"detection_rate\": {}, \
         \"false_positive_rate\": {}, \"ttd_print_fraction\": {}, \"peak_rss_mb\": {}}}}}",
        results.len(),
        results.iter().map(|r| r.events).sum::<u64>(),
        quality.detection_rate,
        quality.false_positive_rate,
        quality.ttd_print_fraction,
        host::peak_rss_mb().map_or("null".into(), |mb| mb.to_string()),
    );

    let metrics = if args.trace {
        per_layer.push(Metric::new(
            "wall_median_s",
            median(&e2e.pass_walls).unwrap_or(f64::NAN),
            "s",
        ));
        per_layer.push(Metric::new(
            "host.chase_ns",
            chase_ns.unwrap_or(f64::NAN),
            "ns",
        ));
        per_layer
    } else {
        vec![
            Metric::new("wall_s", wall, "s"),
            Metric::new("scenarios_per_s", results.len() as f64 / wall, "1/s"),
            Metric::new("setup_s", floor(&setup).unwrap_or(f64::NAN), "s"),
            Metric::new(
                "ok_frac",
                (attempted - failed) as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("detection_rate", quality.detection_rate, "ratio"),
        ]
    };

    let mut correct = failed == 0 && attempted > 0 && !results.is_empty();
    let mut fields = Vec::new();
    for m in &metrics {
        if !valid_metric_name(m.name) || !m.value.is_finite() {
            eprintln!(
                "floorbench: metric {} is {} (not reportable)",
                m.name, m.value
            );
            correct = false;
            continue;
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            m.value,
            json_string(m.unit)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
