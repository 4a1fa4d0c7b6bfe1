//! The traced run: the end-to-end scenarios re-executed one public
//! layer call at a time, each call timed on its own, plus the layer
//! probes (kernel churn, interceptor and plant-trace overheads, and the
//! store / cache / analytics calls).
//!
//! The composition is `golden_evidence` -> `TestBench::run` ->
//! `observed_evidence` -> `judge` / `StreamingSuite::run`; it must
//! reproduce every end-to-end scenario's events, firmware steps and
//! fused verdict exactly, or the traced run fails rather than report
//! layer numbers for a different program.
//!
//! Only stable entry points are named here and in the rest of the
//! benchmark: `run_campaign`, `run_campaign_cached`, `TestBench::run`,
//! the solo `Scheduler`, and the store, cache and analytics functions.
//! The roadmap retires the batched campaign executor next; that change
//! must be measurable against this benchmark without editing it, so
//! nothing here reaches for an executor-specific API.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use offramps::verdict::{DetectorSuite, EvidenceBundle, StreamingSuite};
use offramps::{SignalPath, TestBench};
use offramps_bench::analytics::{AnalyticsReport, THRESHOLD_GRID};
use offramps_bench::cache::{
    canonical_workload_json, decode_result, encode_result, scenario_key, store_observations,
};
use offramps_bench::campaign::{parse_attack, Attack, CampaignSpec, Scenario, ScenarioResult};
use offramps_bench::detectors::{golden_evidence, observed_evidence};
use offramps_des::{
    ActionSink, CompId, ComponentSet, InPort, OutPort, Scheduler, SimComponent, SimDuration, Tick,
};
use offramps_gcode::Program;
use offramps_store::Store;

use crate::passes::Passes;
use crate::stats::{floor, floor_sum};
use crate::sweep::workload_set;
use crate::Metric;

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Identity of a scenario across campaigns that cut the matrix
/// differently (matrix indices differ, labels do not).
pub type ScenarioId = (String, String, u32);

/// The scenario's identity.
pub fn id(sc: &Scenario) -> ScenarioId {
    (sc.workload.clone(), sc.trojan.clone(), sc.run)
}

/// End-to-end results keyed by scenario identity.
pub fn by_id(results: &[ScenarioResult]) -> BTreeMap<ScenarioId, &ScenarioResult> {
    results.iter().map(|r| (id(&r.scenario), r)).collect()
}

/// The traced run: one traced pass at the start of each end-to-end pass
/// after the first (whose results it must reproduce), so layer floors
/// and the end-to-end floors come from the same stretch of host time.
#[derive(Debug, Default)]
pub struct Traced {
    /// The scenario composition and probes.
    pub layers: LayerTrace,
    /// The store, cache and analytics calls.
    pub store: StoreTrace,
    /// Traced passes made and failed.
    pub tally: Passes,
}

impl Traced {
    /// One traced pass: the composition, then the store calls. A failure
    /// fails the traced run.
    pub fn pass(
        &mut self,
        composition: impl FnOnce(&mut LayerTrace) -> Result<(), String>,
        store: impl FnOnce(&mut StoreTrace) -> Result<(), String>,
    ) {
        self.tally.attempted += 1;
        if let Err(e) = composition(&mut self.layers).and_then(|()| store(&mut self.store)) {
            self.tally.fail(e);
        }
    }

    /// The per-layer metrics, given the traced seconds that should
    /// explain the end-to-end wall of `threads` workers.
    pub fn finish(self, explained: f64, threads: usize, e2e: &Passes) -> (Passes, Vec<Metric>) {
        let wall = floor_sum(&e2e.attempts).unwrap_or(f64::NAN);
        let mut metrics = Vec::new();
        self.layers.metrics(&mut metrics);
        self.store.metrics(&mut metrics);
        metrics.push(Metric::new(
            "campaign.unexplained_frac",
            1.0 - explained / (threads as f64 * wall),
            "ratio",
        ));
        metrics.push(Metric::new(
            "campaign.parallel_speedup",
            explained / wall,
            "x",
        ));
        (self.tally, metrics)
    }
}

/// The end-to-end facts the traced composition must reproduce.
fn same_outcome(
    e2e: &ScenarioResult,
    events: u64,
    fw_steps: [i64; 4],
    verdict: &offramps::verdict::Verdict,
    ttd: Option<offramps::verdict::TimeToDetection>,
) -> Result<(), String> {
    let sc = &e2e.scenario;
    let what = format!("{}/{}/{}", sc.workload, sc.trojan, sc.run);
    if e2e.events != events {
        return Err(format!("{what}: events {events} vs {}", e2e.events));
    }
    if e2e.fw_steps != fw_steps {
        return Err(format!(
            "{what}: fw_steps {fw_steps:?} vs {:?}",
            e2e.fw_steps
        ));
    }
    if &e2e.verdict != verdict {
        return Err(format!("{what}: fused verdict differs"));
    }
    if e2e.ttd != ttd {
        return Err(format!("{what}: time-to-detection differs"));
    }
    Ok(())
}

/// Per-call attempts of the scenario composition and the probes.
#[derive(Debug, Default)]
pub struct LayerTrace {
    /// `CorpusSpec::expand` + `Workload::program` for the whole set.
    pub slice: Vec<f64>,
    /// `golden_evidence`, per workload.
    pub golden: Vec<Vec<f64>>,
    /// Bench set-up + `TestBench::run`, per scenario.
    pub simulate: Vec<Vec<f64>>,
    /// `observed_evidence`, per scenario.
    pub synth: Vec<Vec<f64>>,
    /// `DetectorSuite::judge`, per scenario.
    pub judge: Vec<Vec<f64>>,
    /// `StreamingSuite::run`, per scenario.
    pub judge_online: Vec<Vec<f64>>,
    /// Events of each scenario (deterministic).
    pub events: Vec<u64>,
    /// Clean prints on the bypass path, per workload.
    pub bypass: Vec<Vec<f64>>,
    /// The same prints on the capture path, per workload.
    pub capture: Vec<Vec<f64>>,
    /// The same capture prints recording the plant trace, per workload.
    pub plant: Vec<Vec<f64>>,
    /// Kernel churn, nanoseconds per event, per attempt.
    pub churn_ns: Vec<f64>,
}

fn push(slot: &mut Vec<Vec<f64>>, i: usize, dt: f64) {
    if slot.len() <= i {
        slot.resize(i + 1, Vec::new());
    }
    slot[i].push(dt);
}

/// The bench and job of one scenario, built the way a campaign builds
/// them: capture path, plant trace when the suite consumes it, and the
/// attack armed in the interceptor or applied to the G-code upstream.
fn scenario_job(
    sc: &Scenario,
    program: &Arc<Program>,
    suite: &DetectorSuite,
) -> Result<(TestBench, Arc<Program>), String> {
    let mut bench = TestBench::new(sc.seed)
        .signal_path(SignalPath::capture())
        .record_plant_trace(suite.needs_plant_trace());
    let mut job = Arc::clone(program);
    match parse_attack(&sc.trojan)? {
        Attack::None => {}
        Attack::Trojan(trojan) => bench = bench.with_trojan(trojan),
        Attack::Flaw3d(attack) => job = Arc::new(attack.apply(program)),
    }
    Ok((bench, job))
}

impl LayerTrace {
    /// One traced pass over `spec`: slice, golden per workload, then
    /// every scenario layer by layer, checked against the end-to-end
    /// results `e2e` (keyed by scenario identity); then the signal-path
    /// probes on each workload's clean print and the kernel churn.
    /// `spec` is the pinned sweep; the slicing layer re-creates its
    /// workload set, corpus expansion included.
    pub fn pass(
        &mut self,
        spec: &CampaignSpec,
        e2e: &BTreeMap<ScenarioId, &ScenarioResult>,
    ) -> Result<(), String> {
        let (dt, programs) = timed(|| {
            workload_set()
                .iter()
                .map(|w| (w.label().to_string(), w.program()))
                .collect::<BTreeMap<String, Arc<Program>>>()
        });
        self.slice.push(dt);
        let suite = spec.suite()?;
        let mut goldens: BTreeMap<&str, EvidenceBundle> = BTreeMap::new();
        for (i, w) in spec.workloads.iter().enumerate() {
            let label = w.label();
            let calibration = spec.calibration_seeds(label, suite.calibration_runs());
            let (dt, bundle) = timed(|| {
                golden_evidence(
                    &programs[label],
                    spec.golden_seed(label),
                    &calibration,
                    &suite,
                )
            });
            push(&mut self.golden, i, dt);
            goldens.insert(label, bundle);
        }
        let streaming = StreamingSuite::new(&suite);
        for (i, sc) in spec.scenarios()?.iter().enumerate() {
            let reference = e2e
                .get(&id(sc))
                .ok_or_else(|| format!("no end-to-end result for {:?}", id(sc)))?;
            let golden = &goldens[sc.workload.as_str()];
            let (dt, art) = timed(|| {
                scenario_job(sc, &programs[&sc.workload], &suite)
                    .and_then(|(bench, job)| bench.run(&job).map_err(|e| e.to_string()))
            });
            let art = art?;
            push(&mut self.simulate, i, dt);
            let (events, fw_steps) = (art.events, art.fw_steps);
            if self.events.len() <= i {
                self.events.push(events);
            }
            let (dt, observed) = timed(|| observed_evidence(art, sc.seed, &suite));
            push(&mut self.synth, i, dt);
            let (dt, verdict) = timed(|| suite.judge(golden, &observed));
            push(&mut self.judge, i, dt);
            let (dt, online) = timed(|| streaming.run(golden, &observed));
            push(&mut self.judge_online, i, dt);
            if online.verdict != verdict {
                return Err(format!(
                    "{:?}: streaming and post-hoc verdicts differ",
                    id(sc)
                ));
            }
            same_outcome(reference, events, fw_steps, &verdict, online.ttd)?;
        }
        for (i, w) in spec.workloads.iter().enumerate() {
            let program = &programs[w.label()];
            let seed = spec.golden_seed(w.label());
            let print = |path: SignalPath, plant: bool| {
                timed(|| {
                    TestBench::new(seed)
                        .signal_path(path)
                        .record_plant_trace(plant)
                        .run(program)
                        .map(|art| art.events)
                        .map_err(|e| e.to_string())
                })
            };
            for (slot, path, plant) in [
                (&mut self.bypass, SignalPath::bypass(), false),
                (&mut self.capture, SignalPath::capture(), false),
                (&mut self.plant, SignalPath::capture(), true),
            ] {
                let (dt, events) = print(path, plant);
                events?;
                push(slot, i, dt);
            }
        }
        self.churn_ns.push(kernel_churn_ns());
        Ok(())
    }

    /// Seconds of the traced layer calls that make up the campaign's
    /// wall: slicing, golden, simulate, synthesis and the streaming
    /// judge the online campaign uses.
    pub fn campaign_seconds(&self) -> f64 {
        [
            floor(&self.slice).unwrap_or(0.0),
            floor_sum(&self.golden).unwrap_or(0.0),
            floor_sum(&self.simulate).unwrap_or(0.0),
            floor_sum(&self.synth).unwrap_or(0.0),
            floor_sum(&self.judge_online).unwrap_or(0.0),
        ]
        .iter()
        .sum()
    }

    /// The per-layer metrics of the scenario composition and probes.
    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let scenarios = self.simulate.len().max(1) as f64;
        let events: u64 = self.events.iter().sum();
        let sum = |slot: &Vec<Vec<f64>>| floor_sum(slot).unwrap_or(f64::NAN);
        out.push(Metric::new(
            "simulate.ns_per_event",
            sum(&self.simulate) * 1e9 / events.max(1) as f64,
            "ns",
        ));
        out.push(Metric::new(
            "simulate.events_per_scenario",
            events as f64 / scenarios,
            "count",
        ));
        out.push(Metric::new(
            "interceptor.overhead_frac",
            sum(&self.capture) / sum(&self.bypass) - 1.0,
            "ratio",
        ));
        out.push(Metric::new(
            "plant_trace.overhead_frac",
            sum(&self.plant) / sum(&self.capture) - 1.0,
            "ratio",
        ));
        out.push(Metric::new(
            "golden.ms_per_workload",
            sum(&self.golden) * 1e3 / self.golden.len().max(1) as f64,
            "ms",
        ));
        out.push(Metric::new(
            "synth.ms_per_scenario",
            sum(&self.synth) * 1e3 / scenarios,
            "ms",
        ));
        out.push(Metric::new(
            "judge.us_per_scenario",
            sum(&self.judge) * 1e6 / scenarios,
            "us",
        ));
        out.push(Metric::new(
            "judge_online.us_per_scenario",
            sum(&self.judge_online) * 1e6 / scenarios,
            "us",
        ));
        out.push(Metric::new(
            "gcode.slice_ms",
            floor(&self.slice).unwrap_or(f64::NAN) * 1e3,
            "ms",
        ));
        out.push(Metric::new(
            "des.ns_per_event",
            floor(&self.churn_ns).unwrap_or(f64::NAN),
            "ns",
        ));
    }
}

/// Events per kernel-churn attempt (about 40 ms on the solo kernel).
const CHURN_STEPS: u64 = 2_000_000;

/// Ping-pong endpoint: each delivery sends one payload onward and each
/// wake re-arms, exercising the route FIFO, wake-slot and write-phase
/// paths of the solo kernel with no component work of its own.
struct Churn;

impl SimComponent for Churn {
    type Payload = u64;

    fn start(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
        sink.send_at(OutPort(0), now + SimDuration::from_micros(10), 0);
        sink.wake_at(now + SimDuration::from_micros(7));
    }

    fn on_event(&mut self, now: Tick, _: InPort, n: u64, sink: &mut ActionSink<u64>) {
        sink.send_at(OutPort(0), now + SimDuration::from_micros(10), n + 1);
    }

    fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
        sink.wake_at(now + SimDuration::from_micros(7));
    }
}

struct ChurnPair([Churn; 2]);

impl ComponentSet<u64> for ChurnPair {
    fn len(&self) -> usize {
        2
    }

    fn component(&mut self, id: CompId) -> &mut dyn SimComponent<Payload = u64> {
        &mut self.0[id.index()]
    }
}

/// Nanoseconds per event of null-component churn on the solo
/// `Scheduler`: the kernel's own per-event cost.
pub fn kernel_churn_ns() -> f64 {
    let mut pair = ChurnPair([Churn, Churn]);
    let mut sched: Scheduler<u64> = Scheduler::new();
    let a = sched.add_component();
    let b = sched.add_component();
    sched.connect(a, OutPort(0), b, InPort(0));
    sched.connect(b, OutPort(0), a, InPort(0));
    sched.start(&mut pair);
    let t0 = Instant::now();
    for _ in 0..CHURN_STEPS {
        sched.step(&mut pair).expect("churn never drains");
    }
    let dt = t0.elapsed().as_nanos() as f64;
    assert_eq!(sched.events(), CHURN_STEPS, "every step is one event");
    dt / CHURN_STEPS as f64
}

/// Per-batch attempts of the store, cache and analytics calls over one
/// record set. Each attempt covers every record; per-record figures
/// divide by the record count.
#[derive(Debug, Default)]
pub struct StoreTrace {
    /// Records per batch.
    pub records: usize,
    /// Records the read store held at open.
    pub opened: usize,
    /// `canonical_workload_json` + `scenario_key`.
    pub key: Vec<f64>,
    /// `encode_result`.
    pub encode: Vec<f64>,
    /// `Store::put` into a fresh store.
    pub put: Vec<f64>,
    /// `Store::open` of the read store.
    pub open: Vec<f64>,
    /// `Store::get`.
    pub get: Vec<f64>,
    /// `decode_result`.
    pub decode: Vec<f64>,
    /// `store_observations` + `AnalyticsReport::over`.
    pub analytics: Vec<f64>,
    /// Shard-log bytes of the read store.
    pub bytes: u64,
}

/// Total size of a store's shard logs.
pub fn shard_bytes(root: &Path) -> u64 {
    fs::read_dir(root.join("shards"))
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl StoreTrace {
    /// One traced pass over the records of `results` (scenarios of
    /// `spec`): key and encode every record, put them into a fresh
    /// store under `work`, then open `read_root` (the fresh store when
    /// `None`), get and decode every record and run the analytics.
    /// Every decoded record must re-encode to its result's payload.
    pub fn pass(
        &mut self,
        spec: &CampaignSpec,
        results: &[ScenarioResult],
        work: &Path,
        read_root: Option<&Path>,
    ) -> Result<(), String> {
        let policy = spec.suite()?.policy();
        let (dt, keys) = timed(|| {
            let canon: BTreeMap<&str, String> = spec
                .workloads
                .iter()
                .map(|w| (w.label(), canonical_workload_json(w.spec())))
                .collect();
            results
                .iter()
                .map(|r| {
                    let sc = &r.scenario;
                    scenario_key(
                        &canon[sc.workload.as_str()],
                        &sc.trojan,
                        spec.golden_seed(&sc.workload),
                        sc.seed,
                        &policy,
                    )
                })
                .collect::<Vec<String>>()
        });
        self.key.push(dt);
        let (dt, payloads) = timed(|| results.iter().map(encode_result).collect::<Vec<_>>());
        self.encode.push(dt);

        let put_root = work.join("put");
        let _ = fs::remove_dir_all(&put_root);
        let mut fresh = Store::open(&put_root).map_err(|e| format!("store open: {e}"))?;
        let (dt, put) = timed(|| {
            keys.iter()
                .zip(&payloads)
                .try_for_each(|(k, p)| fresh.put(k, p))
        });
        put.map_err(|e| format!("store put: {e}"))?;
        self.put.push(dt);
        drop(fresh);

        let read_root = read_root.unwrap_or(&put_root);
        let (dt, store) = timed(|| Store::open(read_root));
        let store = store.map_err(|e| format!("store open: {e}"))?;
        self.open.push(dt);
        let (dt, got) = timed(|| keys.iter().map(|k| store.get(k)).collect::<Vec<_>>());
        self.get.push(dt);
        let got = got
            .into_iter()
            .zip(&payloads)
            .map(|(g, p)| match g {
                Some(stored) if stored == p => Ok(stored),
                Some(_) => Err("stored payload differs from the encoded result".to_string()),
                None => Err("record missing from the store".to_string()),
            })
            .collect::<Result<Vec<&str>, String>>()?;
        let (dt, decoded) = timed(|| {
            results
                .iter()
                .zip(&got)
                .map(|(r, p)| decode_result(r.scenario.clone(), p))
                .collect::<Result<Vec<_>, String>>()
        });
        self.decode.push(dt);
        // A decoded result renders byte-identically to the one encoded
        // (transaction-only payloads do not carry every evidence field,
        // so the encodings are what must agree).
        for (d, p) in decoded?.iter().zip(&payloads) {
            if &encode_result(d) != p {
                return Err(format!(
                    "{:?}: decoded record re-encodes differently",
                    id(&d.scenario)
                ));
            }
        }
        let (dt, (observations, _)) = timed(|| {
            let (observations, skipped) = store_observations(&store);
            let report = AnalyticsReport::over(&observations, &THRESHOLD_GRID);
            (observations, (skipped, report))
        });
        self.analytics.push(dt);
        if observations.len() < results.len() {
            return Err(format!(
                "analytics saw {} observations for {} records",
                observations.len(),
                results.len()
            ));
        }
        self.records = results.len();
        self.opened = store.len();
        self.bytes = shard_bytes(read_root);
        drop(store);
        fs::remove_dir_all(&put_root).map_err(|e| format!("cannot remove scratch store: {e}"))?;
        Ok(())
    }

    /// Seconds of the traced calls a warm cached replay is made of:
    /// open, then key, get and decode per record, then the analytics.
    pub fn replay_seconds(&self) -> f64 {
        [
            &self.open,
            &self.key,
            &self.get,
            &self.decode,
            &self.analytics,
        ]
        .iter()
        .map(|a| floor(a).unwrap_or(0.0))
        .sum()
    }

    /// The per-layer metrics of the store, cache and analytics calls.
    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let n = self.records.max(1) as f64;
        let us = |a: &Vec<f64>| floor(a).unwrap_or(f64::NAN) * 1e6 / n;
        out.push(Metric::new(
            "store.open_us_per_record",
            floor(&self.open).unwrap_or(f64::NAN) * 1e6 / self.opened.max(1) as f64,
            "us",
        ));
        out.push(Metric::new("store.get_us", us(&self.get), "us"));
        out.push(Metric::new("store.put_us", us(&self.put), "us"));
        out.push(Metric::new(
            "store.bytes_per_record",
            self.bytes as f64 / self.opened.max(1) as f64,
            "B",
        ));
        out.push(Metric::new("cache.key_us", us(&self.key), "us"));
        out.push(Metric::new("cache.decode_us", us(&self.decode), "us"));
        out.push(Metric::new("cache.encode_us", us(&self.encode), "us"));
        out.push(Metric::new(
            "analytics.ms",
            floor(&self.analytics).unwrap_or(f64::NAN) * 1e3,
            "ms",
        ));
    }
}
