//! Round-robin floor timing: a workload cut into units, every unit
//! attempted once per pass, passes repeated until the time budget is
//! spent, so each unit's attempts are spread across the whole run.

use std::time::{Duration, Instant};

use crate::host::ChaseRing;

/// Problems kept verbatim for the report (the count is always exact).
const PROBLEMS_KEPT: usize = 8;

/// Passes made even when they overrun the budget: every unit gets two
/// attempts, and a traced run gets a traced pass (it starts with the
/// second pass, once the first has produced the reference results).
const MIN_PASSES: usize = 2;

/// What a floor-timed measurement saw.
#[derive(Debug, Default)]
pub struct Passes {
    /// `attempts[u]`: every timed attempt of unit `u`, in seconds.
    pub attempts: Vec<Vec<f64>>,
    /// Per pass: the sum of that pass's unit times, in seconds.
    pub pass_walls: Vec<f64>,
    /// Pointer-chase samples, one at the start of each pass.
    pub chase_ns: Vec<f64>,
    /// Unit attempts made.
    pub attempted: u64,
    /// Unit attempts whose output check failed.
    pub failed: u64,
    /// The first few check failures, described.
    pub problems: Vec<String>,
}

impl Passes {
    /// Records one failed check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < PROBLEMS_KEPT {
            self.problems.push(problem);
        }
    }
}

/// The work of a floor-timed measurement.
pub struct Plan<B, T, C> {
    /// Units per pass.
    pub units: usize,
    /// When to stop: a pass starts only while the longest pass so far
    /// (its untimed work included) still fits before it.
    pub deadline: Instant,
    /// Untimed work at the start of each pass (a set-up attempt that
    /// times itself, so set-up attempts spread across the run too).
    pub before_pass: B,
    /// The measured work of unit `u`.
    pub timed: T,
    /// Verifies `(unit, pass, output)` untimed; an error counts the
    /// attempt as failed.
    pub check: C,
}

/// Runs `plan`, logging each pass's unit times to stderr.
pub fn run<O>(
    chase: &ChaseRing,
    mut plan: Plan<
        impl FnMut(usize),
        impl FnMut(usize) -> O,
        impl FnMut(usize, usize, O) -> Result<(), String>,
    >,
) -> Passes {
    let mut out = Passes {
        attempts: vec![Vec::new(); plan.units],
        ..Passes::default()
    };
    let mut longest = Duration::ZERO;
    loop {
        let pass = out.pass_walls.len();
        let pass_start = Instant::now();
        if pass >= MIN_PASSES && pass_start + longest > plan.deadline {
            break;
        }
        (plan.before_pass)(pass);
        let chase_ns = chase.sample_ns();
        out.chase_ns.push(chase_ns);
        let mut times = Vec::with_capacity(plan.units);
        for unit in 0..plan.units {
            let t0 = Instant::now();
            let output = (plan.timed)(unit);
            let dt = t0.elapsed().as_secs_f64();
            out.attempts[unit].push(dt);
            times.push(format!("{dt:.4}"));
            out.attempted += 1;
            if let Err(e) = (plan.check)(unit, pass, output) {
                out.fail(format!("pass {pass} unit {unit}: {e}"));
            }
        }
        let wall = out.attempts.iter().map(|a| a[pass]).sum();
        out.pass_walls.push(wall);
        longest = longest.max(pass_start.elapsed());
        eprintln!(
            "pass {pass}: wall {wall:.4} s, chase {chase_ns:.1} ns, units [{}]",
            times.join(" ")
        );
    }
    out
}
