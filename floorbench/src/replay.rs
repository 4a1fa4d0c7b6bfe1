//! `store-replay`: a store of 10,065 genuine records, filled in set-up
//! and replayed warm in the timed passes — `Store::open`, an all-hit
//! `run_campaign_cached`, then `store_observations` +
//! `AnalyticsReport::over`. Nothing is simulated while timed, so the
//! store, cache and analytics layers carry the whole wall.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use offramps_bench::analytics::{AnalyticsReport, Observation, THRESHOLD_GRID};
use offramps_bench::cache::{
    canonical_workload_json, encode_result, run_campaign_cached, scenario_key, store_observations,
    CacheStats,
};
use offramps_bench::campaign::{run_campaign, CampaignReport, CampaignSpec, ScenarioResult};
use offramps_store::Store;

use crate::host::ChaseRing;
use crate::layers::{by_id, id, timed, Traced};
use crate::{passes, sweep, Args, Measured};

/// Runs per (attack, workload) cell of the replay matrix: 165 × 61 =
/// 10,065 records, enough that open, replay and analytics each take
/// tens of milliseconds (at 332 records each took under 5 ms).
const RUNS_PER_CELL: u32 = 61;

/// A set-up attempt (a whole store fill, a few tenths of a second)
/// opens every this many passes, spreading the fills across the run.
const FILL_EVERY: usize = 4;

/// Keys of the replay matrix with the fixture payload each stores:
/// every run of an (attack, workload) cell holds the fixture's result
/// for that cell.
fn records(
    replay: &CampaignSpec,
    fixture: &[ScenarioResult],
) -> Result<Vec<(String, String)>, String> {
    let policy = replay.suite()?.policy();
    let canon: BTreeMap<&str, String> = replay
        .workloads
        .iter()
        .map(|w| (w.label(), canonical_workload_json(w.spec())))
        .collect();
    let by_cell: BTreeMap<(&str, &str), &ScenarioResult> = fixture
        .iter()
        .map(|r| {
            (
                (r.scenario.workload.as_str(), r.scenario.trojan.as_str()),
                r,
            )
        })
        .collect();
    replay
        .scenarios()?
        .iter()
        .map(|sc| {
            let result = by_cell
                .get(&(sc.workload.as_str(), sc.trojan.as_str()))
                .ok_or_else(|| format!("no fixture result for {:?}", id(sc)))?;
            let key = scenario_key(
                &canon[sc.workload.as_str()],
                &sc.trojan,
                replay.golden_seed(&sc.workload),
                sc.seed,
                &policy,
            );
            Ok((key, encode_result(result)))
        })
        .collect()
}

/// One timed set-up: key, encode and put every record of the replay
/// matrix into a fresh store at `root`. Returns the payloads in matrix
/// order.
fn fill(
    root: &Path,
    replay: &CampaignSpec,
    fixture: &[ScenarioResult],
    setup: &mut Vec<f64>,
) -> Result<Vec<String>, String> {
    let _ = fs::remove_dir_all(root);
    let mut store = Store::open(root).map_err(|e| format!("store open: {e}"))?;
    let (dt, filled) = timed(|| -> Result<Vec<String>, String> {
        let records = records(replay, fixture)?;
        for (key, payload) in &records {
            store
                .put(key, payload)
                .map_err(|e| format!("store put: {e}"))?;
        }
        Ok(records.into_iter().map(|(_, p)| p).collect())
    });
    setup.push(dt);
    filled
}

/// What one timed unit of a replay pass produced.
enum Step {
    Opened(Result<usize, String>),
    Replayed(Result<(CampaignReport, CacheStats), String>),
    /// The store rides along so it is dropped outside the timed region.
    Analysed(Option<(Store, Vec<Observation>, AnalyticsReport)>),
}

/// Measures the replay workload.
pub fn measure(args: &Args, work: &Path, chase: &ChaseRing) -> Result<Measured, String> {
    // The fixture: the pinned sweep judged online by all four
    // detectors — `suite-online`'s campaign, simulated once.
    let fixture_spec = sweep::spec(args.seed);
    let fixture = run_campaign(&fixture_spec, sweep::THREADS)?;
    let replay = CampaignSpec {
        runs_per_cell: RUNS_PER_CELL,
        ..fixture_spec.clone()
    };

    // Set-up: key, encode and put every record into a fresh store.
    let root = work.join("replay");
    let mut setup = Vec::new();
    let payloads = fill(&root, &replay, &fixture.results, &mut setup)?;
    let n = payloads.len();
    let mut fill_failure = None;
    // One untimed warm replay writes the campaign-provenance record, so
    // every timed pass does identical work.
    {
        let mut store = Store::open(&root).map_err(|e| format!("store open: {e}"))?;
        let (_, stats) = run_campaign_cached(&replay, 1, &mut store)?;
        if stats.hits != n || stats.misses != 0 {
            return Err(format!("warm-up replay: {}", stats.summary_line()));
        }
    }

    let mut open: Option<Store> = None;
    let mut first_summary: Option<String> = None;
    let mut first_analytics: Option<String> = None;
    let results = RefCell::new(Vec::new());
    let reference = by_id(&fixture.results);
    let mut traced = Traced::default();
    let e2e = passes::run(
        chase,
        passes::Plan {
            units: 3,
            deadline: args.deadline,
            before_pass: |pass: usize| {
                if pass % FILL_EVERY == FILL_EVERY - 1 {
                    let scratch = work.join("fill");
                    let filled = fill(&scratch, &replay, &fixture.results, &mut setup);
                    let _ = fs::remove_dir_all(&scratch);
                    if let Err(e) = filled {
                        fill_failure.get_or_insert(e);
                    }
                }
                if args.trace && pass > 0 {
                    let results = results.borrow();
                    traced.pass(
                        |layers| layers.pass(&fixture_spec, &reference),
                        |store| store.pass(&replay, &results, work, Some(&root)),
                    );
                }
            },
            timed: |unit: usize| match unit {
                0 => {
                    let store = Store::open(&root).map_err(|e| format!("store open: {e}"));
                    let len = store.as_ref().map(Store::len).map_err(Clone::clone);
                    open = store.ok();
                    Step::Opened(len)
                }
                1 => Step::Replayed(match open.as_mut() {
                    None => Err("store did not open".into()),
                    Some(store) => run_campaign_cached(&replay, 1, store),
                }),
                _ => Step::Analysed(open.take().map(|store| {
                    let (observations, _) = store_observations(&store);
                    let report = AnalyticsReport::over(&observations, &THRESHOLD_GRID);
                    (store, observations, report)
                })),
            },
            check: |_: usize, _: usize, step: Step| match step {
                Step::Opened(len) => match len? {
                    // The records plus the campaign-provenance record.
                    len if len == n + 1 => Ok(()),
                    len => Err(format!("store holds {len} records, expected {}", n + 1)),
                },
                Step::Replayed(replayed) => {
                    let (report, stats) = replayed?;
                    if stats.hits != n || stats.misses != 0 {
                        return Err(format!("{}, expected {n} hits", stats.summary_line()));
                    }
                    let summary = report.summary();
                    if let Some(r) = report
                        .results
                        .iter()
                        .find(|r| encode_result(r) != payloads[r.scenario.index])
                    {
                        return Err(format!("{:?} decodes to another payload", id(&r.scenario)));
                    }
                    match &first_summary {
                        None => first_summary = Some(summary),
                        Some(s) if *s != summary => {
                            return Err("summary differs from the first pass".into())
                        }
                        Some(_) => {}
                    }
                    let mut results = results.borrow_mut();
                    if results.is_empty() {
                        *results = report.results;
                    }
                    Ok(())
                }
                Step::Analysed(analysed) => {
                    let (_, observations, report) = analysed.ok_or("store did not open")?;
                    let (observed, summary) = (observations.len(), report.summary());
                    if observed != n {
                        return Err(format!("analytics saw {observed} of {n} records"));
                    }
                    match &first_analytics {
                        None => first_analytics = Some(summary),
                        Some(s) if *s != summary => {
                            return Err("analytics differ from the first pass".into())
                        }
                        Some(_) => {}
                    }
                    Ok(())
                }
            },
        },
    );
    if let Some(e) = fill_failure {
        return Err(e);
    }

    let (traced, per_layer) = if args.trace {
        let explained = traced.store.replay_seconds();
        let (tally, metrics) = traced.finish(explained, 1, &e2e);
        (Some(tally), metrics)
    } else {
        (None, Vec::new())
    };
    let results = results.into_inner();
    drop(open);
    fs::remove_dir_all(&root).map_err(|e| format!("cannot remove the replay store: {e}"))?;

    Ok(Measured {
        threads: 1,
        setup,
        e2e,
        results,
        traced,
        per_layer,
    })
}
