//! `suite-online`: the pinned sweep (`mini` plus four generated corpus
//! workloads, times the 33 sweep attacks) judged online by all four
//! detectors through `run_campaign` on two threads, floor-timed, and
//! its traced composition.

use std::cell::RefCell;
use std::path::Path;

use offramps_bench::campaign::{
    run_campaign, sweep_attacks, CampaignReport, CampaignSpec, ScenarioResult,
};
use offramps_bench::corpus::CorpusSpec;
use offramps_bench::workloads::Workload;

use crate::host::ChaseRing;
use crate::layers::{by_id, id, timed, Traced};
use crate::{passes, Args, Measured};

/// Detectors judging every scenario, fused by `any` (the default).
const DETECTORS: [&str; 4] = ["txn", "power", "acoustic", "thermal"];

/// Worker threads `run_campaign` gets: two, the reference host's
/// `nproc`, so `parallel_map` runs with more than one worker.
pub const THREADS: usize = 2;

/// The master seed whose corpus geometry the pinned sweep prints, on
/// every run. The run's own seed drives every scenario, golden and
/// calibration seed; a seed-drawn geometry would change the amount of
/// work per seed by ±10 % (69.9–82.6 M events over seeds 1–7 and 42).
const GEOMETRY_SEED: u64 = 42;

/// Generated workloads next to `mini`.
const CORPUS_WORKLOADS: u32 = 4;

/// Scenarios of the pinned sweep: 33 attacks on 5 workloads.
const SCENARIOS: usize = 165;

/// Simulated events of the pinned sweep at master seed 42.
const EVENTS_AT_SEED_42: u64 = 69_887_995;

/// Set-up repetitions at the start of each pass. One set-up is tens
/// of microseconds, so the floor is taken over many, spread across the
/// run like every other attempt.
const SETUP_REPS_PER_PASS: usize = 40;

/// `mini` plus the pinned corpus.
pub fn workload_set() -> Vec<Workload> {
    let mut workloads = vec![Workload::mini()];
    workloads.extend(CorpusSpec::new(CORPUS_WORKLOADS).expand(GEOMETRY_SEED));
    workloads
}

/// One timed set-up: the spec (corpus expansion included) and slicing
/// every workload.
fn set_up(seed: u64, setup: &mut Vec<f64>) -> CampaignSpec {
    let (dt, (spec, programs)) = timed(|| {
        let spec = spec(seed);
        let programs: Vec<_> = spec.workloads.iter().map(Workload::program).collect();
        (spec, programs)
    });
    std::hint::black_box(programs);
    setup.push(dt);
    spec
}

/// The pinned sweep judged online by all four detectors under master
/// seed `seed`.
pub fn spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::default_matrix(seed);
    spec.trojans = sweep_attacks();
    spec.workloads = workload_set();
    spec.detectors = DETECTORS.iter().map(|d| d.to_string()).collect();
    spec.online = true;
    spec
}

/// Measures `suite-online`: set-up floor, floor-timed campaigns, and
/// (with `--trace 1`) the traced composition, run at the start of every
/// pass after the first so it sees the same host phases.
pub fn measure(args: &Args, work: &Path, chase: &ChaseRing) -> Result<Measured, String> {
    let mut setup = Vec::new();
    let spec = set_up(args.seed, &mut setup);
    // Units: one campaign per workload, on both workers. Each does
    // exactly the work its workload does inside the whole sweep (slice,
    // golden, its 33 scenarios), since every seed is derived from
    // labels. Units of under a second catch more of the host's fast
    // phases than the whole ~3 s campaign does (see README.md).
    let units: Vec<CampaignSpec> = spec
        .workloads
        .iter()
        .map(|w| CampaignSpec {
            workloads: vec![w.clone()],
            ..spec.clone()
        })
        .collect();
    let expected: Vec<usize> = units
        .iter()
        .map(|u| u.scenarios().map(|s| s.len()))
        .collect::<Result<_, _>>()?;

    let seed = args.seed;
    let mut summaries: Vec<Option<String>> = vec![None; units.len()];
    // Pass 0's results, the reference every later pass and the traced
    // composition are checked against.
    let results: RefCell<Vec<ScenarioResult>> = RefCell::new(Vec::new());
    // This pass's running (scenarios, events) over its units so far.
    let mut pass_total = (0, 0);
    let mut traced = Traced::default();
    let e2e = passes::run(
        chase,
        passes::Plan {
            units: units.len(),
            deadline: args.deadline,
            before_pass: |pass: usize| {
                for _ in 0..SETUP_REPS_PER_PASS {
                    set_up(seed, &mut setup);
                }
                if args.trace && pass > 0 {
                    let results = results.borrow();
                    traced.pass(
                        |layers| layers.pass(&spec, &by_id(&results)),
                        |store| store.pass(&spec, &results, work, None),
                    );
                }
            },
            timed: |u: usize| run_campaign(&units[u], THREADS),
            check: |u: usize, pass: usize, report: Result<CampaignReport, String>| {
                if u == 0 {
                    pass_total = (0, 0);
                }
                let report = report?;
                if report.results.len() != expected[u] {
                    return Err(format!(
                        "{} scenarios, expected {}",
                        report.results.len(),
                        expected[u]
                    ));
                }
                if let Some(r) = report
                    .results
                    .iter()
                    .find(|r| r.fw_state.starts_with("error"))
                {
                    return Err(format!("{:?} failed: {}", id(&r.scenario), r.fw_state));
                }
                let summary = report.summary();
                match &summaries[u] {
                    None => summaries[u] = Some(summary),
                    Some(s) if *s != summary => {
                        return Err("summary differs from the first pass".into())
                    }
                    Some(_) => {}
                }
                pass_total.0 += report.results.len();
                pass_total.1 += report.total_events();
                if pass == 0 {
                    results.borrow_mut().extend(report.results);
                }
                if u + 1 == units.len() {
                    let (scenarios, events) = pass_total;
                    if scenarios != SCENARIOS {
                        return Err(format!(
                            "pass ran {scenarios} scenarios, expected {SCENARIOS}"
                        ));
                    }
                    if seed == 42 && events != EVENTS_AT_SEED_42 {
                        return Err(format!(
                            "pass simulated {events} events, expected {EVENTS_AT_SEED_42} at seed 42"
                        ));
                    }
                }
                Ok(())
            },
        },
    );
    let (traced, per_layer) = if args.trace {
        let explained = traced.layers.campaign_seconds();
        let (tally, metrics) = traced.finish(explained, THREADS, &e2e);
        (Some(tally), metrics)
    } else {
        (None, Vec::new())
    };

    Ok(Measured {
        threads: THREADS,
        setup,
        e2e,
        results: results.into_inner(),
        traced,
        per_layer,
    })
}
