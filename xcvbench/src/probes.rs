//! Layer probes for the traced run: timed calls into each crate's public
//! functions, on the compiled problems and on seeded sampled boxes.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xcv_conditions::Condition;
use xcv_core::{EncodedProblem, ProblemCache, ProblemKey};
use xcv_functionals::Registry;
use xcv_interval::Interval;
use xcv_solver::{BoxDomain, DeltaSolver, Escalation, Outcome, SolveBudget, SolveScratch};

use crate::phases::NODES;
use crate::trace::{Tracer, ROOT};
use crate::util::{median, Rng};

/// The compiled problems of every applicable cell, in matrix order.
pub fn problems(registry: &Registry, cache: &ProblemCache) -> Vec<Arc<EncodedProblem>> {
    registry
        .handles()
        .iter()
        .flat_map(|f| {
            Condition::all()
                .into_iter()
                .filter_map(move |c| cache.encode(f, c).ok())
        })
        .collect()
}

/// Median milliseconds of `ProblemKey::of` over all 49 cells.
pub fn problem_key_ms(tracer: &Tracer, registry: &Registry) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for f in registry.handles() {
                for c in Condition::all() {
                    let _s = tracer.span("core.problem_key", ROOT);
                    let _ = black_box(ProblemKey::of(f, c));
                }
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&reps)
}

/// Totals of re-solving every pair's depth-2 box schedule at one rung cap.
#[derive(Default, Clone, Copy)]
pub struct Resolve {
    pub nodes: u64,
    pub pruned: u64,
    pub branched: u64,
    pub timeouts: u64,
    /// Summed per-solve seconds (busy time, not wall).
    pub busy_s: f64,
}

/// Re-solve each problem's depth-2 box schedule with
/// `DeltaSolver::solve_compiled_with_stats`, escalation capped at
/// `max_rung`, on two threads pulling problems from a shared queue.
pub fn resolve(tracer: &Tracer, problems: &[Arc<EncodedProblem>], max_rung: u8) -> Resolve {
    let solver = DeltaSolver::new(1e-3, SolveBudget::nodes(NODES)).with_escalation(Escalation {
        max_rung,
        ..Escalation::full()
    });
    let name = ["solver.rung0", "solver.rung1", "solver.rung2"][max_rung as usize];
    let rung = tracer.span(name, ROOT);
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Resolve::default());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut scratch = SolveScratch::new();
                let mut mine = Resolve::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = problems.get(i) else { break };
                    let mut boxes = vec![p.domain.clone()];
                    for _ in 0..2 {
                        boxes = boxes.iter().flat_map(BoxDomain::split_all).collect();
                    }
                    for b in &boxes {
                        let _s = tracer.span("solver.solve", rung.id);
                        let t0 = Instant::now();
                        let (outcome, stats) =
                            solver.solve_compiled_with_stats(b, p.compiled(), &mut scratch);
                        mine.busy_s += t0.elapsed().as_secs_f64();
                        mine.nodes += stats.nodes;
                        mine.pruned += stats.pruned;
                        mine.branched += stats.branched;
                        mine.timeouts += u64::from(outcome == Outcome::Timeout);
                    }
                }
                let mut t = total.lock().expect("a benchmark thread panicked");
                t.nodes += mine.nodes;
                t.pruned += mine.pruned;
                t.branched += mine.branched;
                t.timeouts += mine.timeouts;
                t.busy_s += mine.busy_s;
            });
        }
    });
    total.into_inner().expect("a benchmark thread panicked")
}

/// A seeded sub-box of `domain`: each axis keeps a random slice whose
/// width is 1/2 to 1/64 of the axis.
fn sample_box(domain: &BoxDomain, rng: &mut Rng) -> BoxDomain {
    BoxDomain::new(
        domain
            .dims()
            .iter()
            .map(|d| {
                let frac = 0.5f64.powi(1 + rng.below(6) as i32);
                let w = d.width() * frac;
                let lo = d.lo + (d.width() - w) * rng.unit();
                Interval::new(lo, lo + w)
            })
            .collect(),
    )
}

/// Per-call microseconds of each public solver and tape stage.
pub struct Stages {
    pub contract_us: f64,
    pub mv_contract_us: f64,
    pub holds_at_us: f64,
    pub violation_score_us: f64,
    pub bisect_us: f64,
    pub newton_contract_us: f64,
    pub shave_3b_us: f64,
    pub forward_us: f64,
    pub backward_us: f64,
    pub tape_slots: u64,
}

/// Boxes sampled per problem, and calls per (stage, box).
const BOXES_PER_PROBLEM: usize = 4;
const CALLS: usize = 20;

/// Time each stage over `BOXES_PER_PROBLEM` seeded boxes of every problem.
pub fn stages(tracer: &Tracer, problems: &[Arc<EncodedProblem>], rng: &mut Rng) -> Stages {
    let cases: Vec<(usize, BoxDomain)> = problems
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            (0..BOXES_PER_PROBLEM)
                .map(|_| (i, sample_box(&p.domain, rng)))
                .collect::<Vec<_>>()
        })
        .collect();
    let calls = (cases.len() * CALLS) as f64;
    let mut scratch = SolveScratch::new();
    // Time one stage over every case; `f` is one call.
    let mut time =
        |name: &'static str, f: &mut dyn FnMut(&EncodedProblem, &BoxDomain, &mut SolveScratch)| {
            let _s = tracer.span(name, ROOT);
            let t0 = Instant::now();
            for (i, b) in &cases {
                for _ in 0..CALLS {
                    f(&problems[*i], b, &mut scratch);
                }
            }
            t0.elapsed().as_secs_f64() * 1e6 / calls
        };
    let contract_us = time("solver.contract", &mut |p, b, s| {
        black_box(p.compiled().contract(b, s));
    });
    let mv_contract_us = time("solver.mv_contract", &mut |p, b, s| {
        black_box(p.compiled().mv_contract(b, s));
    });
    let holds_at_us = time("solver.holds_at", &mut |p, b, s| {
        black_box(p.compiled().holds_at(&b.midpoint(), s));
    });
    let violation_score_us = time("solver.violation_score", &mut |p, b, s| {
        black_box(p.compiled().violation_score(&b.midpoint(), s));
    });
    let bisect_us = time("solver.bisect", &mut |p, b, _| {
        black_box(p.compiled().bisect_supported(b));
    });
    let newton_contract_us = time("solver.newton_contract", &mut |p, b, s| {
        black_box(
            p.compiled()
                .newton_contract(b, Escalation::full().newton_sweeps, s),
        );
    });
    let shave_3b_us = time("solver.shave_3b", &mut |p, b, s| {
        let e = Escalation::full();
        black_box(
            p.compiled()
                .shave_3b(b, s, e.shave_frac, e.shave_passes, None, |_, _, _| {}),
        );
    });
    // Tape passes: forward into a per-problem buffer; backward restores
    // the forward image before each sweep (the copy is timed with it).
    let mut image: Vec<Vec<Interval>> = problems
        .iter()
        .map(|p| p.compiled().interval_tape().scratch())
        .collect();
    let mut work = image.clone();
    let forward_us = {
        let _s = tracer.span("expr.forward", ROOT);
        let t0 = Instant::now();
        for (i, b) in &cases {
            let tape = problems[*i].compiled().interval_tape();
            for _ in 0..CALLS {
                tape.forward(b.dims(), &mut image[*i]);
                black_box(&image[*i]);
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / calls
    };
    let backward_us = {
        let _s = tracer.span("expr.backward", ROOT);
        let t0 = Instant::now();
        for (i, _) in &cases {
            let tape = problems[*i].compiled().interval_tape();
            for _ in 0..CALLS {
                work[*i].copy_from_slice(&image[*i]);
                black_box(tape.backward(&mut work[*i]));
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / calls
    };
    Stages {
        contract_us,
        mv_contract_us,
        holds_at_us,
        violation_score_us,
        bisect_us,
        newton_contract_us,
        shave_3b_us,
        forward_us,
        backward_us,
        tape_slots: problems
            .iter()
            .map(|p| p.compiled().interval_slots() as u64)
            .sum(),
    }
}

/// Nanoseconds per call of the interval kernels, on seeded operands.
pub fn interval_ops(tracer: &Tracer, rng: &mut Rng) -> Vec<(&'static str, f64)> {
    const N: usize = 4096;
    const ROUNDS: usize = 50;
    let pos: Vec<Interval> = (0..N)
        .map(|_| {
            let lo = 1e-3 + 10.0 * rng.unit();
            Interval::new(lo, lo * (1.0 + rng.unit()))
        })
        .collect();
    let any: Vec<Interval> = (0..N)
        .map(|_| {
            let lo = 20.0 * rng.unit() - 10.0;
            Interval::new(lo, lo + rng.unit())
        })
        .collect();
    type Kernel = fn(&Interval) -> Interval;
    let ops: [(&'static str, &[Interval], Kernel); 5] = [
        ("interval.exp_ns", &any, |x| x.exp()),
        ("interval.ln_ns", &pos, |x| x.ln()),
        ("interval.pow_ns", &pos, |x| {
            x.powf(&Interval::new(0.25, 1.75))
        }),
        ("interval.cbrt_ns", &any, |x| x.cbrt()),
        ("interval.atan_ns", &any, |x| x.atan()),
    ];
    ops.iter()
        .map(|(name, xs, op)| {
            let _s = tracer.span(name, ROOT);
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                for x in xs.iter() {
                    black_box(op(black_box(x)));
                }
            }
            (
                *name,
                t0.elapsed().as_secs_f64() * 1e9 / (N * ROUNDS) as f64,
            )
        })
        .collect()
}
