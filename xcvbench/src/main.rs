//! xcvbench — one benchmark for the xcverifier workspace.
//!
//! ```text
//! xcvbench --workload matrix|serve --seed N --seconds S --trace 0|1 --out DIR
//! ```
//!
//! Every workload verifies the pinned 49-cell extended matrix (45
//! applicable pairs) under the deterministic node-budgeted policy
//! `Policy::Flat { delta: 1e-3, max_nodes: 800, split_threshold: 0.625,
//! max_depth: 2 }`, so marks repeat exactly and only time varies. Each
//! workload has a home phase that runs on the whole matrix:
//!
//! * `matrix` — cold in-process `Campaign`s, as many as fit in `--seconds`
//!   (at least one);
//! * `serve` — one session against an in-process daemon with an on-disk
//!   store, whose warm requests fill `--seconds`.
//!
//! Every run reports every end-to-end metric, so the phases a workload does
//! not run at home — the plain campaign, the ladder campaign with
//! certificate emission and replay, the daemon session — run over the
//! two-functional side set (AM05 and VWN RPA, 12 applicable pairs) instead,
//! in side rounds spread over the whole run, with set-up reps; every metric
//! is a median over its samples.
//!
//! With `--trace 1` the run records spans around each public call and adds
//! the layer probes; the last stdout line is then the per-layer metrics.
//! Every output is checked against `expected.tsv`; each mismatch is a
//! failed operation. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod affinity;
mod phases;
mod probes;
mod trace;
mod util;

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use phases::{CertOut, Ctx, MatrixOut, ReplayOut, ServeOut};
use trace::Tracer;
use util::{median, percentile, Checks, Expected, Rng};
use xcv_functionals::FunctionalHandle;

/// Functionals of the side set.
const SIDE: [&str; 2] = ["AM05", "VWN RPA"];
/// Set-up reps before the first side round, and in each side round.
const SETUP_REPS: usize = 3;
const SETUP_REPS_PER_ROUND: usize = 2;
/// Side campaigns and certificate replays in each side round: they take
/// a fifth of a second each, so one sample per round is too few.
const SIDE_REPEATS: usize = 3;
/// Side rounds after each home campaign of `matrix`.
const SIDE_ROUNDS_PER_GAP: usize = 2;
/// Untraced side-set campaigns the tracing overhead is measured against.
const BASELINE_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if !["matrix", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: get("--trace")? == "1",
        out: PathBuf::from(get("--out")?),
    })
}

/// Metric name, value and unit, in report order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn med<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// The verdict-matrix metrics of a set of campaign runs.
fn matrix_metrics(runs: &[&MatrixOut], m: &mut Metrics) {
    m.push(("matrix_wall_s", med(runs, |r| r.wall_s), "s"));
    m.push((
        "nodes_per_s",
        med(runs, |r| r.nodes as f64 / r.wall_s),
        "1/s",
    ));
    m.push((
        "undecided_regions",
        runs.last().map_or(0, |r| r.undecided) as f64,
        "count",
    ));
}

fn cert_metrics(runs: &[CertOut], replays: &[ReplayOut], m: &mut Metrics) {
    m.push(("certify_wall_s", med(runs, |r| r.certify_s), "s"));
    m.push(("replay_wall_s", med(replays, |r| r.replay_s), "s"));
}

/// Every sample of one request series, pooled over the run's sessions.
fn pool(runs: &[ServeOut], f: fn(&ServeOut) -> &Vec<f64>) -> Vec<f64> {
    runs.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn serve_metrics(runs: &[ServeOut], m: &mut Metrics) {
    m.push(("cold_request_s", med(runs, |r| r.cold_s), "s"));
    m.push(("miss_request_s", med(runs, |r| r.miss_s), "s"));
    let warm_matrix = pool(runs, |r| &r.warm_matrix_ms);
    m.push(("warm_matrix_ms", median(&warm_matrix), "ms"));
    m.push(("warm_p50_ms", median(&pool(runs, |r| &r.warm_ms)), "ms"));
}

#[derive(Default)]
struct Outcome {
    setup_s: Vec<f64>,
    encode_ms: Vec<f64>,
    matrix: Vec<MatrixOut>,
    cert: Vec<CertOut>,
    replay: Vec<ReplayOut>,
    serve: Vec<ServeOut>,
}

/// One side round: set-up reps, then the phases the workload does not run
/// at home, over the side set.
fn side_round(ctx: &Ctx, home: &str, side: &[FunctionalHandle], o: &mut Outcome, rng: &mut Rng) {
    let setup = phases::setup(ctx, SETUP_REPS_PER_ROUND, home == "serve");
    o.setup_s.extend(setup.setup_s);
    o.encode_ms.extend(setup.encode_ms);
    if home == "serve" {
        for _ in 0..SIDE_REPEATS {
            o.matrix.push(phases::campaign(ctx, side, false));
        }
    }
    let cert = phases::certify(ctx, side, &ctx.fresh_dir("certs"));
    for _ in 0..SIDE_REPEATS {
        o.replay.push(phases::replay(ctx, &cert.paths));
    }
    o.cert.push(cert);
    if home == "matrix" {
        let names: Vec<String> = side.iter().map(|f| f.name()).collect();
        let dir = ctx.fresh_dir("store");
        o.serve.push(phases::serve(
            ctx,
            &names,
            &dir,
            rng,
            Instant::now(),
            &mut || {},
        ));
    }
}

/// Run one workload for `a.seconds`: its home phase on the whole matrix,
/// with side rounds before, between and after.
fn run_workload(ctx: &Ctx, a: &Args, rng: &mut Rng) -> (phases::SetupOut, Outcome) {
    let home = a.workload.as_str();
    let setup = phases::setup(ctx, SETUP_REPS, home == "serve");
    let full: Vec<FunctionalHandle> = setup.registry.handles().to_vec();
    let side: Vec<FunctionalHandle> = SIDE
        .iter()
        .map(|n| {
            setup
                .registry
                .get(n)
                .expect("side functional is registered")
        })
        .collect();
    let mut o = Outcome {
        setup_s: setup.setup_s.clone(),
        encode_ms: setup.encode_ms.clone(),
        ..Outcome::default()
    };
    let t0 = Instant::now();
    side_round(ctx, home, &side, &mut o, rng);
    if home == "matrix" {
        // Another campaign runs only if it is likely to end in time.
        loop {
            let run = phases::campaign(ctx, &full, false);
            let wall = run.wall_s;
            o.matrix.push(run);
            for _ in 0..SIDE_ROUNDS_PER_GAP {
                side_round(ctx, home, &side, &mut o, rng);
            }
            if t0.elapsed().as_secs_f64() + wall > a.seconds {
                break;
            }
        }
    } else {
        let names: Vec<String> = full.iter().map(|f| f.name()).collect();
        let dir = ctx.fresh_dir("store");
        let until = t0 + std::time::Duration::from_secs_f64(a.seconds);
        // The hook needs `o` and `rng` while the session runs, so the
        // session shuffles with a generator of its own, seeded from the run's.
        let mut session_rng = Rng::new(rng.next_u64());
        let session = phases::serve(ctx, &names, &dir, &mut session_rng, until, &mut || {
            side_round(ctx, home, &side, &mut o, rng)
        });
        o.serve.push(session);
        side_round(ctx, home, &side, &mut o, rng);
    }
    (setup, o)
}

fn end_to_end(o: &Outcome) -> Metrics {
    let mut m = vec![("setup_s", median(&o.setup_s), "s")];
    matrix_metrics(&o.matrix.iter().collect::<Vec<_>>(), &mut m);
    cert_metrics(&o.cert, &o.replay, &mut m);
    serve_metrics(&o.serve, &mut m);
    m
}

/// The traced run's per-layer metrics: the workload's own phases read
/// through their spans and counters, plus the layer probes.
fn per_layer(
    ctx: &Ctx,
    setup: &phases::SetupOut,
    o: &Outcome,
    overhead_s: f64,
    rng: &mut Rng,
) -> Metrics {
    let tr = ctx.tracer;
    let mut m: Metrics = vec![
        ("core.encode_ms", median(&o.encode_ms), "ms"),
        ("expr.compile_count", setup.compiles as f64, "count"),
        (
            "core.problem_key_ms",
            probes::problem_key_ms(tr, &setup.registry),
            "ms",
        ),
    ];
    let problems = probes::problems(&setup.registry, &setup.cache);
    let rungs: Vec<probes::Resolve> = (0..3).map(|r| probes::resolve(tr, &problems, r)).collect();
    for (r, got) in rungs.iter().enumerate() {
        let want = ctx.expected.rung_timeouts[r];
        ctx.checks
            .lock()
            .expect("a benchmark thread panicked")
            .check(got.timeouts == want, || {
                format!("rung {r}: {} timeouts, pinned {want}", got.timeouts)
            });
    }
    let r0 = rungs[0];
    m.push(("solver.nodes", r0.nodes as f64, "count"));
    m.push(("solver.pruned", r0.pruned as f64, "count"));
    m.push(("solver.branched", r0.branched as f64, "count"));
    m.push((
        "solver.us_per_node",
        r0.busy_s * 1e6 / r0.nodes as f64,
        "us",
    ));
    let st = probes::stages(tr, &problems, rng);
    m.push(("solver.contract_us", st.contract_us, "us"));
    m.push(("solver.mv_contract_us", st.mv_contract_us, "us"));
    m.push(("solver.holds_at_us", st.holds_at_us, "us"));
    m.push(("solver.violation_score_us", st.violation_score_us, "us"));
    m.push(("solver.bisect_us", st.bisect_us, "us"));
    m.push(("expr.forward_us", st.forward_us, "us"));
    m.push(("expr.backward_us", st.backward_us, "us"));
    m.push(("expr.tape_slots", st.tape_slots as f64, "count"));
    for (name, ns) in probes::interval_ops(tr, rng) {
        m.push((name, ns, "ns"));
    }
    m.push(("solver.newton_contract_us", st.newton_contract_us, "us"));
    m.push(("solver.shave_3b_us", st.shave_3b_us, "us"));
    for (r, name) in [
        "solver.timeouts_rung0",
        "solver.timeouts_rung1",
        "solver.timeouts_rung2",
    ]
    .into_iter()
    .enumerate()
    {
        m.push((name, rungs[r].timeouts as f64, "count"));
    }
    let replay = o.replay.last().expect("every workload replays");
    m.push(("cert.bytes", replay.bytes as f64, "bytes"));
    m.push(("cert.write_ms", med(&o.cert, |c| c.write_ms), "ms"));
    m.push(("cert.parse_ms", med(&o.replay, |r| r.parse_ms), "ms"));
    m.push(("cert.check_ms", med(&o.replay, |r| r.check_ms), "ms"));
    let last = o
        .matrix
        .last()
        .expect("every workload solves a verdict matrix");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let pair_ms_sum: f64 = last.pair_ms.iter().sum();
    let capacity_ms = workers * last.wall_s * 1e3;
    m.push(("core.campaign.pair_ms_sum", pair_ms_sum, "ms"));
    m.push((
        "core.campaign.slowest_pair_ms",
        last.pair_ms.iter().cloned().fold(0.0, f64::max),
        "ms",
    ));
    m.push(("core.campaign.idle_ms", capacity_ms - pair_ms_sum, "ms"));
    m.push((
        "core.campaign.utilization",
        pair_ms_sum / capacity_ms,
        "ratio",
    ));
    let s = o.serve.last().expect("every workload serves");
    let st = s.stats;
    m.push(("serve.l1_hits", st.l1_hits as f64, "count"));
    m.push(("serve.l1_misses", st.l1_misses as f64, "count"));
    m.push(("serve.result_hits", st.result_hits as f64, "count"));
    m.push(("serve.solves", st.solves as f64, "count"));
    m.push(("serve.coalesced", st.coalesced as f64, "count"));
    m.push(("serve.persisted", st.persisted as f64, "count"));
    m.push((
        "serve.warm_loaded",
        s.restart_stats.warm_loaded as f64,
        "count",
    ));
    m.push((
        "serve.quarantined",
        s.restart_stats.quarantined as f64,
        "count",
    ));
    m.push((
        "serve.hit_ratio",
        st.result_hits as f64 / (st.result_hits + st.solves).max(1) as f64,
        "ratio",
    ));
    m.push((
        "serve.first_event_ms",
        med(&o.serve, |s| s.first_event_ms),
        "ms",
    ));
    // Too unsteady from run to run on a shared two-vCPU host to carry an
    // end-to-end bound (see README), so they are reported here.
    let warm = pool(&o.serve, |r| &r.warm_ms);
    m.push(("serve.warm_p99_ms", percentile(&warm, 99.0), "ms"));
    let restart = pool(&o.serve, |r| &r.restart_s);
    m.push(("serve.restart_request_ms", median(&restart) * 1e3, "ms"));
    m.push(("trace.overhead_s", overhead_s, "s"));
    m
}

fn json_metrics(m: &Metrics) -> String {
    let rows: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xcvbench: {e}");
            std::process::exit(2);
        }
    };
    let tmp = a.out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the scratch directory");
    let expected = Expected::load();
    let mut rng = Rng::new(a.seed);
    let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new(a.trace)));
    let checks = Mutex::new(Checks::default());
    let ctx = Ctx::new(tracer, &expected, &checks, tmp.clone());
    let (setup, outcome) = run_workload(&ctx, &a, &mut rng);
    let metrics = if a.trace {
        // Tracing overhead: the traced run solves its plain campaign again
        // untraced (the whole matrix on `matrix`, the side set five times on
        // `serve`) and compares it with the same campaign traced inside the
        // workload. It does so afterwards, not first, so the process's first
        // campaign, slower by a few percent while the heap grows, is not
        // the whole baseline.
        let quiet = Ctx::new(
            Box::leak(Box::new(Tracer::new(false))),
            &expected,
            &checks,
            tmp.clone(),
        );
        let (set, reps): (Vec<FunctionalHandle>, usize) = if a.workload == "matrix" {
            (setup.registry.handles().to_vec(), 1)
        } else {
            let side = SIDE.iter().filter_map(|n| setup.registry.get(n));
            (side.collect(), BASELINE_REPS)
        };
        let walls: Vec<f64> = (0..reps)
            .map(|_| phases::campaign(&quiet, &set, false).wall_s)
            .collect();
        let traced = med(&outcome.matrix, |r| r.wall_s);
        per_layer(&ctx, &setup, &outcome, traced - median(&walls), &mut rng)
    } else {
        end_to_end(&outcome)
    };
    drop(ctx);
    let checks = checks.into_inner().expect("a benchmark thread panicked");
    for msg in checks.messages() {
        eprintln!("xcvbench: check failed: {msg}");
    }
    if a.trace {
        let path = a
            .out
            .join(format!("spans-{}-seed{}.json", a.workload, a.seed));
        std::fs::write(&path, tracer.to_json()).expect("write the spans");
        eprintln!(
            "xcvbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        json_metrics(&metrics)
    );
}
