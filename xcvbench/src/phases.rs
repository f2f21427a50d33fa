//! The phases a workload is made of: set-up, an in-process verdict
//! matrix, a ladder solve with certificate emission and replay, and a
//! session against an in-process daemon. Each phase runs over a set of
//! functionals (the whole extended registry, or the small side set) and
//! checks every output against the pinned expectations.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use xcv_conditions::Condition;
use xcv_core::{Campaign, CampaignEvent, CampaignReport, ProblemCache, RegionStatus};
use xcv_functionals::{FunctionalHandle, Registry};
use xcv_serve::{Client, Event, Policy, Server, ServerConfig, ServerStats, VerifyRequest};

use crate::affinity;
use crate::trace::{SpanId, Tracer, ROOT};
use crate::util::{median, percentile, Checks, Column, Expected, Rng};

/// The deterministic node-budgeted policy every phase verifies under.
pub fn flat(max_nodes: u64) -> Policy {
    Policy::Flat {
        delta: 1e-3,
        max_nodes,
        split_threshold: 0.625,
        max_depth: 2,
    }
}

/// Node budget of the main policy, and the second, smaller one whose
/// requests miss the daemon's result cache.
pub const NODES: u64 = 800;
pub const MISS_NODES: u64 = 400;

/// Warm requests come in blocks. A block asks each functional's sub-matrix
/// this many times, in seeded order, so every block has the same mix: the
/// per-functional costs differ tenfold, so a mix drawn at random would move
/// the percentiles.
const WARM_PER_FUNCTIONAL: usize = 20;
/// Warm full-matrix requests in a block, spaced evenly among its
/// per-functional ones.
const WARM_MATRIX_PER_BLOCK: usize = 5;
/// Warm blocks in a session, at least.
const MIN_WARM_BLOCKS: usize = 2;
/// Seconds of warm requests between two calls of a session's `between`.
const BETWEEN_S: f64 = 2.0;
/// Daemon restarts in the serve session, each followed by one request.
const RESTARTS: usize = 10;

pub struct Ctx<'a> {
    pub tracer: &'static Tracer,
    pub expected: &'a Expected,
    pub checks: &'a Mutex<Checks>,
    /// Scratch directory for certificates and daemon stores.
    tmp: PathBuf,
    /// Directories handed out under `tmp` so far.
    dirs: AtomicUsize,
}

impl<'a> Ctx<'a> {
    pub fn new(
        tracer: &'static Tracer,
        expected: &'a Expected,
        checks: &'a Mutex<Checks>,
        tmp: PathBuf,
    ) -> Ctx<'a> {
        Ctx {
            tracer,
            expected,
            checks,
            tmp,
            dirs: AtomicUsize::new(0),
        }
    }

    /// A path under the scratch directory that no phase has used yet.
    pub fn fresh_dir(&self, what: &str) -> PathBuf {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        self.tmp.join(format!("{what}-{n}"))
    }

    fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.checks
            .lock()
            .expect("a benchmark thread panicked")
            .check(ok, what);
    }

    fn check_mark(
        &self,
        functional: &str,
        condition: Condition,
        col: Column,
        mark: xcv_core::TableMark,
    ) {
        let ok = self.expected.mark_ok(functional, condition, col, mark);
        self.check(ok, || {
            format!("{functional} / {}: got {mark:?}", condition.id())
        });
    }
}

// ---------------------------------------------------------------- set-up

pub struct SetupOut {
    pub registry: Registry,
    pub cache: Arc<ProblemCache>,
    /// Seconds and encode milliseconds of each rep.
    pub setup_s: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub compiles: u64,
}

/// Registry build, encode and compile of the whole matrix (plus a daemon
/// spawn when `daemon` is set), `reps` times; keeps every rep's timings
/// and the last rep's registry and compiled problems.
pub fn setup(ctx: &Ctx, reps: usize, daemon: bool) -> SetupOut {
    let mut setup_s = Vec::new();
    let mut encode_ms = Vec::new();
    let mut last = None;
    let mut compiles = 0;
    for _ in 0..reps {
        let span = ctx.tracer.span("setup", ROOT);
        let t0 = Instant::now();
        let registry = {
            let _s = ctx.tracer.span("functionals.registry", span.id);
            Registry::extended()
        };
        let cache = Arc::new(ProblemCache::new());
        let c0 = xcv_solver::compile_count();
        let te = Instant::now();
        for f in registry.handles() {
            for c in Condition::all() {
                let _s = ctx.tracer.span("core.encode", span.id);
                // Inapplicable cells have no problem to encode.
                let _ = cache.encode(f, c);
            }
        }
        encode_ms.push(te.elapsed().as_secs_f64() * 1e3);
        compiles = xcv_solver::compile_count() - c0;
        if daemon {
            let dir = ctx.fresh_dir("setup-store");
            let mut server = {
                let _s = ctx.tracer.span("serve.spawn", span.id);
                spawn(&dir)
            };
            let mut client = Client::connect(server.addr()).expect("connect to the daemon");
            let pong = client.ping();
            ctx.check(pong.is_ok(), || format!("daemon ping failed: {pong:?}"));
            drop(client);
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((registry, cache));
    }
    let (registry, cache) = last.expect("at least one set-up rep");
    SetupOut {
        registry,
        cache,
        setup_s,
        encode_ms,
        compiles,
    }
}

// ------------------------------------------------------- verdict matrix

/// One campaign over the set: the verdict matrix and what it cost.
pub struct MatrixOut {
    pub wall_s: f64,
    pub nodes: u64,
    pub undecided: u64,
    /// Per-pair busy milliseconds, from the campaign's event stream
    /// (traced runs only).
    pub pair_ms: Vec<f64>,
}

fn undecided(report: &CampaignReport) -> u64 {
    report
        .pairs
        .iter()
        .filter_map(|p| p.map.as_ref())
        .flat_map(|m| m.regions.iter())
        .filter(|r| {
            matches!(
                r.status,
                RegionStatus::Inconclusive | RegionStatus::Timeout | RegionStatus::Cancelled
            )
        })
        .count() as u64
}

/// Start times of the running pairs, and the busy milliseconds of the
/// finished ones, read from the campaign's event stream.
#[derive(Default)]
struct PairClock {
    open: Vec<(String, Condition, u64)>,
    busy_ms: Vec<f64>,
}

/// Run one in-process campaign over `set` (the plain policy, or the full
/// ladder with certificate emission) and check its marks.
pub fn campaign(ctx: &Ctx, set: &[FunctionalHandle], ladder: bool) -> MatrixOut {
    // The report is dropped here: a workload keeps every run's figures,
    // and keeping the reports too would make the peak resident set grow
    // with the number of campaigns that fit in the run.
    run_campaign(ctx, set, ladder).0
}

fn run_campaign(ctx: &Ctx, set: &[FunctionalHandle], ladder: bool) -> (MatrixOut, CampaignReport) {
    let policy = flat(NODES);
    let span = ctx.tracer.span(
        if ladder {
            "core.campaign.run_ladder"
        } else {
            "core.campaign.run"
        },
        ROOT,
    );
    let mut builder = Campaign::builder()
        .functionals(set.iter().cloned())
        .config_policy(move |f, _| policy.verifier_config(f));
    if ladder {
        builder = builder
            .escalation(xcv_solver::Escalation::full())
            .emit_certificates(true);
    }
    // Pair spans come from the public event stream; the callback is only
    // attached when tracing, so the untraced run carries none of it.
    let pairs: Arc<Mutex<PairClock>> = Arc::default();
    if ctx.tracer.enabled() {
        let pairs = Arc::clone(&pairs);
        let tracer = ctx.tracer;
        let parent = span.id;
        builder = builder.on_event(move |e| {
            let now = tracer.now_ns();
            let mut g = pairs.lock().expect("a benchmark thread panicked");
            match e {
                CampaignEvent::PairStarted {
                    functional,
                    condition,
                } => {
                    g.open.push((functional.clone(), *condition, now));
                }
                CampaignEvent::PairFinished {
                    functional,
                    condition,
                    ..
                } => {
                    let open = g
                        .open
                        .iter()
                        .position(|(f, c, _)| f == functional && c == condition);
                    if let Some(i) = open {
                        let (_, _, start) = g.open.swap_remove(i);
                        g.busy_ms.push((now - start) as f64 / 1e6);
                        tracer.record("core.campaign.pair", parent, start, now);
                    }
                }
                _ => {}
            }
        });
    }
    let campaign = builder.build().expect("the set is non-empty");
    let t0 = Instant::now();
    let report = campaign.run();
    let wall_s = t0.elapsed().as_secs_f64();
    drop(span);
    let col = if ladder {
        Column::Ladder800
    } else {
        Column::Flat800
    };
    for p in &report.pairs {
        ctx.check_mark(&p.functional_name(), p.condition, col, p.mark);
    }
    let nodes = report
        .pairs
        .iter()
        .filter_map(|p| p.stats)
        .map(|s| s.nodes)
        .sum();
    eprintln!(
        "xcvbench: {} campaign, {} cells: {wall_s:.3} s",
        if ladder { "ladder" } else { "plain" },
        report.pairs.len()
    );
    let pair_ms = std::mem::take(&mut pairs.lock().expect("a benchmark thread panicked").busy_ms);
    let out = MatrixOut {
        wall_s,
        nodes,
        undecided: undecided(&report),
        pair_ms,
    };
    (out, report)
}

// ------------------------------------------------- certify and replay

pub struct CertOut {
    pub certify_s: f64,
    pub write_ms: f64,
    /// The certificate files written.
    pub paths: Vec<PathBuf>,
}

/// Ladder solve with certificate emission, certificates written to disk.
pub fn certify(ctx: &Ctx, set: &[FunctionalHandle], dir: &Path) -> CertOut {
    let (matrix, report) = run_campaign(ctx, set, true);
    let t0 = Instant::now();
    let paths = {
        let _s = ctx.tracer.span("cert.write", ROOT);
        report.write_certificates(dir).expect("write certificates")
    };
    let write_s = t0.elapsed().as_secs_f64();
    let applicable = report.encoded_pairs();
    ctx.check(paths.len() == applicable, || {
        format!(
            "{} certificates for {applicable} applicable pairs",
            paths.len()
        )
    });
    CertOut {
        certify_s: matrix.wall_s + write_s,
        write_ms: write_s * 1e3,
        paths,
    }
}

pub struct ReplayOut {
    pub replay_s: f64,
    pub bytes: u64,
    pub parse_ms: f64,
    pub check_ms: f64,
}

/// Every certificate read back and replayed through `xcv_cert::check`
/// (the `xcvcheck` path).
pub fn replay(ctx: &Ctx, paths: &[PathBuf]) -> ReplayOut {
    let replay = ctx.tracer.span("cert.replay", ROOT);
    let t0 = Instant::now();
    let (mut bytes, mut parse_ms, mut check_ms) = (0u64, 0.0, 0.0);
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        bytes += text.as_ref().map_or(0, |t| t.len() as u64);
        let tp = Instant::now();
        let cert = text.and_then(|t| {
            let _s = ctx.tracer.span("cert.parse", replay.id);
            xcv_cert::Certificate::parse(&t)
        });
        parse_ms += tp.elapsed().as_secs_f64() * 1e3;
        let tc = Instant::now();
        let verdict = cert.and_then(|c| {
            let _s = ctx.tracer.span("cert.check", replay.id);
            xcv_cert::check(&c)
        });
        check_ms += tc.elapsed().as_secs_f64() * 1e3;
        ctx.check(verdict.is_ok(), || {
            format!("{}: {:?}", path.display(), verdict.err())
        });
    }
    let replay_s = t0.elapsed().as_secs_f64();
    drop(replay);
    ReplayOut {
        replay_s,
        bytes,
        parse_ms,
        check_ms,
    }
}

// ------------------------------------------------------------- daemon

pub struct ServeOut {
    pub cold_s: f64,
    pub first_event_ms: f64,
    pub miss_s: f64,
    /// Every sample of the repeated requests, so a workload can pool its
    /// sessions' samples before taking percentiles.
    pub warm_ms: Vec<f64>,
    pub warm_matrix_ms: Vec<f64>,
    pub restart_s: Vec<f64>,
    /// Daemon counters before the first restart, and after the last.
    pub stats: ServerStats,
    pub restart_stats: ServerStats,
}

fn spawn(dir: &Path) -> Server {
    Server::spawn(ServerConfig {
        store_dir: Some(dir.to_path_buf()),
        // Persist every result, so a restart is served wholly from disk
        // whatever each solve happened to cost on this run.
        admit_ms: 0,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral localhost port")
}

/// One verify request; checks the streamed marks against `col` and the
/// cell count, and returns (wall seconds, ms to the first event).
fn request(
    ctx: &Ctx,
    client: &mut Client,
    req: &VerifyRequest,
    col: Column,
    name: &'static str,
    parent: SpanId,
    observe: &mut dyn FnMut(&Event),
) -> (f64, f64) {
    let _s = ctx.tracer.span(name, parent);
    let want = req.functionals.len() * Condition::all().len();
    let mut marks = Vec::with_capacity(want);
    let mut first = None;
    let t0 = Instant::now();
    let done = client.verify(req, |e| {
        observe(e);
        first.get_or_insert_with(|| t0.elapsed().as_secs_f64() * 1e3);
        if let Event::Pair {
            functional,
            condition,
            mark,
            ..
        } = e
        {
            marks.push((functional.clone(), *condition, *mark));
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let ok = done.is_ok()
        && marks.len() == want
        && marks
            .iter()
            .all(|(f, c, m)| ctx.expected.mark_ok(f, *c, col, *m));
    ctx.check(ok, || {
        format!("{name}: {done:?}, {} of {want} cells", marks.len())
    });
    (wall, first.unwrap_or(0.0))
}

/// The daemon's counters; a failed `stats` round trip is a failed operation.
fn fetch_stats(ctx: &Ctx, client: &mut Client) -> ServerStats {
    let stats = client.stats();
    ctx.check(stats.is_ok(), || format!("stats: {stats:?}"));
    stats.unwrap_or_default()
}

fn verify_req(functionals: &[String], max_nodes: u64) -> VerifyRequest {
    VerifyRequest {
        functionals: functionals.to_vec(),
        conditions: Vec::new(),
        policy: flat(max_nodes),
    }
}

/// The daemon session: a cold full request, two concurrent requests under
/// the second budget, warm blocks until `until` (at least
/// `MIN_WARM_BLOCKS`), and restarts on the same store. `between` runs
/// every `BETWEEN_S` seconds of warm requests and once after the cold and
/// miss requests, with the daemon idle and both CPUs given back, so a
/// workload can spread its other phases over the session.
pub fn serve(
    ctx: &Ctx,
    names: &[String],
    dir: &Path,
    rng: &mut Rng,
    until: Instant,
    between: &mut dyn FnMut(),
) -> ServeOut {
    let session = ctx.tracer.span("serve.session", ROOT);
    let mut server = {
        let _s = ctx.tracer.span("serve.spawn", session.id);
        spawn(dir)
    };
    let mut client = Client::connect(server.addr()).expect("connect to the daemon");
    let full = verify_req(names, NODES);

    // 1. Cold: solves, finalize, persist.
    let (cold_s, first_event_ms) = request(
        ctx,
        &mut client,
        &full,
        Column::Flat800,
        "serve.request.cold",
        session.id,
        &mut |_| {},
    );
    between();

    // 2. Two connections ask the same second-budget matrix: the compiled
    //    problems hit, the results miss, and the second request coalesces
    //    on the first one's solves. It is sent the moment the first has
    //    claimed every pair (its first `started` event); sent at the same
    //    instant, the two would race for the claims and the split between
    //    them would move the wall by a third from run to run.
    let miss = verify_req(names, MISS_NODES);
    let mut second = Client::connect(server.addr()).expect("second connection");
    let claimed = Barrier::new(2);
    let t0 = Instant::now();
    let miss_s = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut released = false;
            let mut release = |e: &Event| {
                if !released && matches!(e, Event::Started { .. }) {
                    released = true;
                    claimed.wait();
                }
            };
            request(
                ctx,
                &mut client,
                &miss,
                Column::Flat400,
                "serve.request.miss",
                session.id,
                &mut release,
            );
            if !released {
                claimed.wait();
            }
            t0.elapsed().as_secs_f64()
        });
        let b = s.spawn(|| {
            claimed.wait();
            request(
                ctx,
                &mut second,
                &miss,
                Column::Flat400,
                "serve.request.miss",
                session.id,
                &mut |_| {},
            );
            t0.elapsed().as_secs_f64()
        });
        let a = a.join().expect("first miss request");
        a.max(b.join().expect("second miss request"))
    });
    drop(second);
    between();

    // Warm requests and restarts solve nothing; they run with every thread
    // on one CPU (see `affinity`). Solving phases, `between` among them,
    // keep both.
    let both = affinity::current();
    let one = affinity::first_cpu(&both);
    affinity::set_all(&one);

    // 3. Warm blocks: per-functional requests in seeded order with the
    //    full-matrix repeats spaced evenly among them, all result-cache
    //    hits. The blocks run until `until`, so their samples spread over
    //    the rest of the run instead of one burst that a moment of host
    //    contention can cover.
    let singles: Vec<VerifyRequest> = names
        .iter()
        .map(|n| verify_req(std::slice::from_ref(n), NODES))
        .collect();
    let mut order: Vec<usize> = (0..names.len())
        .flat_map(|i| std::iter::repeat_n(i, WARM_PER_FUNCTIONAL))
        .collect();
    let every = order.len() / WARM_MATRIX_PER_BLOCK;
    let (mut warm, mut warm_matrix) = (Vec::new(), Vec::new());
    let mut blocks = 0;
    let mut since_between = Instant::now();
    while blocks < MIN_WARM_BLOCKS || Instant::now() < until {
        rng.shuffle(&mut order);
        for (k, &i) in order.iter().enumerate() {
            let single = &singles[i];
            let name = "serve.request.warm";
            warm.push(
                request(
                    ctx,
                    &mut client,
                    single,
                    Column::Flat800,
                    name,
                    session.id,
                    &mut |_| {},
                )
                .0 * 1e3,
            );
            if (k + 1) % every == 0 {
                let name = "serve.request.warm_matrix";
                warm_matrix.push(
                    request(
                        ctx,
                        &mut client,
                        &full,
                        Column::Flat800,
                        name,
                        session.id,
                        &mut |_| {},
                    )
                    .0 * 1e3,
                );
            }
        }
        blocks += 1;
        if since_between.elapsed().as_secs_f64() >= BETWEEN_S {
            affinity::set_all(&both);
            between();
            affinity::set_all(&one);
            since_between = Instant::now();
        }
    }
    let stats = {
        let _s = ctx.tracer.span("serve.stats", session.id);
        fetch_stats(ctx, &mut client)
    };
    drop(client);

    // 4. Restarts on the same store, each answering the full matrix from
    //    disk.
    let mut restart = Vec::new();
    let mut restart_stats = ServerStats::default();
    for _ in 0..RESTARTS {
        server.shutdown();
        let span = ctx.tracer.span("serve.restart", session.id);
        server = spawn(dir);
        let mut client = Client::connect(server.addr()).expect("reconnect after restart");
        restart.push(
            request(
                ctx,
                &mut client,
                &full,
                Column::Flat800,
                "serve.request.restart",
                span.id,
                &mut |_| {},
            )
            .0,
        );
        restart_stats = fetch_stats(ctx, &mut client);
    }
    server.shutdown();
    affinity::set_all(&both);
    drop(session);
    eprintln!(
        "xcvbench: serve session, {} functionals: cold {cold_s:.3} s, miss {miss_s:.3} s, \
         {blocks} warm blocks: p50 {:.3} ms p99 {:.3} ms, matrix {:.3} ms; restart {:.4} s",
        names.len(),
        median(&warm),
        percentile(&warm, 99.0),
        median(&warm_matrix),
        median(&restart),
    );
    ServeOut {
        cold_s,
        first_event_ms,
        miss_s,
        warm_ms: warm,
        warm_matrix_ms: warm_matrix,
        restart_s: restart,
        stats,
        restart_stats,
    }
}
