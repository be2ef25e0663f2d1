//! `cluster_churn`: the control plane. A [`Router`] over two loopback
//! [`NodeServer`]/[`TcpNode`] nodes sharing an in-memory journal and a
//! fresh analysis cache, as `mpart route` builds them, with the plan
//! guard armed. Sixty-four sessions run diamond-ladder handlers at
//! depths 8, 10 and 12; depth 12 reaches the 4096-path cap exactly.
//!
//! Each round sends one scalar event per session and one heartbeat. A
//! seeded schedule adds prepare/commit reconfigurations, close-and-reopen
//! churn, and one node kill → heartbeat failover → revive → rejoin. Every
//! routed call, control calls included, is one operation.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpart::journal::SessionJournal;
use mpart::reconfig::GuardConfig;
use mpart::router::{Router, RouterConfig, SessionSpec};
use mpart::session::SessionConfig;
use mpart::{PartitionedHandler, PseId};
use mpart_analysis::AnalysisCache;
use mpart_cost::DataSizeModel;
use mpart_ir::interp::BuiltinRegistry;
use mpart_ir::parse::parse_program;
use mpart_ir::{IrError, Program, Value};
use mpart_jecho::node::{parse_wire_value, render_wire_value, NodeServer, TcpNode};
use mpart_jecho::RetryPolicy;
use rand::prelude::*;

use crate::layers::{self, Pass};
use crate::tally::{Tally, Window};
use crate::trace::Tracer;
use crate::{mix, rss_kib, run_blocks, Cfg};

/// Cluster nodes.
const NODES: usize = 2;
/// Sessions open at any time.
const SESSIONS: usize = 64;
/// Ladder depths; session `i` runs `DEPTHS[i % 3]`.
const DEPTHS: [usize; 3] = [8, 10, 12];
/// Rounds per block.
const ROUNDS: usize = 100;
/// Extra deploy-and-tear-down rounds per block, so `setup_s` is a median
/// over more deployments.
const SETUP_ONLY: usize = 1;
/// One reconfiguration per this many rounds, on average.
const RECONFIG_EVERY: u32 = 4;
/// One close-and-reopen per this many rounds, on average.
const CHURN_EVERY: u32 = 8;
/// Heartbeat ticks a failover may take before the run counts it failed.
const FAILOVER_TICKS: usize = 32;
/// Prepare deadline of a reconfiguration.
const PREPARE_BUDGET: Duration = Duration::from_secs(5);
/// Events in the traced layer pass (depth-12 ladder).
const PASS_EVENTS: u64 = 2000;
/// Event arguments are drawn from `0..ARG_RANGE`, so some hit a
/// ladder rung's skip branch.
const ARG_RANGE: i64 = 24;

fn func_name(depth: usize) -> String {
    format!("ladder{depth}")
}

/// One handler per depth: `depth` sequential diamonds ahead of the
/// delivery native (the `throughput` bench's synthetic source).
fn ladder_program() -> Result<Arc<Program>, IrError> {
    let mut s = String::new();
    for depth in DEPTHS {
        let _ = writeln!(s, "fn {}(x) {{\n    t = x", func_name(depth));
        for i in 0..depth {
            let _ = writeln!(s, "    b{i} = t - {i}\n    if b{i} == 0 goto skip{i}");
            let _ = writeln!(s, "    t = t + {}\nskip{i}:", i + 1);
        }
        s.push_str("    native sink(t)\n    return t\n}\n");
    }
    Ok(Arc::new(parse_program(&s)?))
}

/// Rust reference of the ladder handler.
fn ladder(depth: usize, x: i64) -> i64 {
    (0..depth as i64).fold(x, |t, i| if t - i == 0 { t } else { t + i + 1 })
}

fn receiver_builtins() -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    b.register_native("sink", 1, |_, _| Ok(Value::Null));
    b
}

fn spec(program: &Arc<Program>, depth: usize) -> SessionSpec {
    SessionSpec {
        program: Arc::clone(program),
        func: func_name(depth),
        model: Arc::new(DataSizeModel::new()),
        sender_builtins: BuiltinRegistry::new(),
        receiver_builtins: receiver_builtins(),
    }
}

/// A routed session: its id, ladder depth and which candidate cut it
/// was last committed to.
#[derive(Debug, Clone, Copy)]
struct Live {
    gid: u64,
    depth: usize,
    cut: usize,
}

struct Cluster {
    cache: Arc<AnalysisCache>,
    servers: Vec<NodeServer>,
    router: Router,
    /// Two valid cuts per depth: the entry cut and the deepest one.
    cuts: Vec<[Vec<PseId>; 2]>,
    live: Vec<Live>,
}

fn deploy(program: &Arc<Program>, tr: &mut Tracer) -> Result<Cluster, IrError> {
    let setup = tr.begin("cluster.setup", 0, None);
    let cache = Arc::new(AnalysisCache::new(64));
    let journal = Arc::new(SessionJournal::in_memory());
    let config = SessionConfig::default()
        .with_journal(Arc::clone(&journal))
        .with_guard(GuardConfig::default());
    let mut cuts = Vec::with_capacity(DEPTHS.len());
    for (i, depth) in DEPTHS.into_iter().enumerate() {
        let handler = tr.time("analysis.analyze_cached", i as u64, setup, || {
            PartitionedHandler::analyze_cached(
                Arc::clone(program),
                &func_name(depth),
                Arc::new(DataSizeModel::new()),
                &cache,
            )
        })?;
        let entry = handler.entry_pse().ok_or_else(|| IrError::Invalid("no entry PSE".into()))?;
        let deepest: Vec<PseId> =
            (0..handler.analysis().pses().len()).filter(|&p| p != entry).collect();
        handler.validate_candidate(&deepest)?;
        cuts.push([vec![entry], deepest]);
    }
    let mut servers = Vec::with_capacity(NODES);
    for i in 0..NODES {
        servers.push(tr.time("node.spawn", i as u64, setup, || {
            NodeServer::spawn(
                format!("node-{i}"),
                Arc::clone(program),
                config.clone(),
                Arc::clone(&cache),
                BuiltinRegistry::new(),
                receiver_builtins(),
            )
        })?);
    }
    let mut router = Router::new(RouterConfig::default(), journal, Arc::clone(&cache));
    for server in &servers {
        router.add_node(Box::new(TcpNode::new(
            server.name().to_string(),
            server.port(),
            RetryPolicy::default(),
        )));
    }
    let mut live = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let depth = i % DEPTHS.len();
        let gid = tr.time("router.open", i as u64, setup, || {
            router.open_session(spec(program, DEPTHS[depth]))
        })?;
        live.push(Live { gid, depth, cut: 0 });
    }
    tr.end(setup);
    Ok(Cluster { cache, servers, router, cuts, live })
}

/// One routed call, timed and accounted as an operation.
fn call<T>(
    tr: &mut Tracer,
    tally: &mut Tally,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> Result<T, IrError>,
) -> Option<T> {
    let started = Instant::now();
    let out = tr.time(name, op, None, f);
    tally.record(started, out.map_err(|e| format!("{name} {op}: {e}")))
}

/// Kills `victim` and ticks heartbeats until no session is placed on it.
fn fail_over(c: &mut Cluster, victim: usize, tr: &mut Tracer, tally: &mut Tally) {
    let started = Instant::now();
    let span = tr.begin("router.failover", victim as u64, None);
    c.servers[victim].kill();
    let mut moved = false;
    for tick in 0..FAILOVER_TICKS {
        let beat_started = Instant::now();
        let beat = tr.time("router.heartbeat", tick as u64, span, || c.router.heartbeat());
        tally.record(beat_started, beat.map_err(|e| format!("failover heartbeat: {e}")));
        let router = &c.router;
        if c.live.iter().all(|l| router.placement(l.gid).is_some_and(|n| n != victim)) {
            moved = true;
            break;
        }
    }
    tr.end(span);
    tally.count("router.failovers", 1.0);
    tally.count("router.failover_s", started.elapsed().as_secs_f64());
    tally.check(moved, || {
        format!("node {victim}'s sessions still placed after {FAILOVER_TICKS} ticks")
    });
}

fn block(
    program: &Arc<Program>,
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), IrError> {
    for _ in 0..SETUP_ONLY {
        let w = Window::open();
        let c = deploy(program, tr)?;
        tally.setup(w);
        tear_down(c);
    }
    let w = Window::open();
    let mut c = deploy(program, tr)?;
    tally.setup(w);
    let misses = c.cache.misses();

    let mut rng = StdRng::seed_from_u64(seed);
    let kill_round = rng.random_range(ROUNDS / 4..ROUNDS / 2);
    let victim = rng.random_range(0..NODES);
    let revive_round = kill_round + ROUNDS / 4;
    let mut op = 0u64;
    let rss0 = rss_kib();
    let timed = Window::open();
    for round in 0..ROUNDS {
        if round == kill_round {
            fail_over(&mut c, victim, tr, tally);
        }
        if round == revive_round {
            c.servers[victim].revive();
        }
        for l in c.live.clone() {
            op += 1;
            let x = rng.random_range(0..ARG_RANGE);
            let router = &mut c.router;
            let Some(o) = call(tr, tally, "router.deliver", op, || {
                router.deliver(l.gid, vec![Value::Int(x)])
            }) else {
                continue;
            };
            let want = Value::Int(ladder(DEPTHS[l.depth], x));
            if o.ret.as_ref() != Some(&want) {
                tally.mismatch(format!(
                    "session {}: ladder({x}) returned {:?}, want {want:?}",
                    l.gid, o.ret
                ));
                continue;
            }
            tally.events += 1;
            tally.wire_bytes += o.wire_bytes as u64;
        }
        if rng.random_range(0..RECONFIG_EVERY) == 0 {
            let i = rng.random_range(0..c.live.len());
            let l = c.live[i];
            let next = 1 - l.cut;
            let (router, cut) = (&mut c.router, &c.cuts[l.depth][next]);
            op += 1;
            let committed = call(tr, tally, "router.reconfigure", op, || {
                router.reconfigure_session(l.gid, cut, PREPARE_BUDGET)
            });
            if committed.is_some() {
                c.live[i].cut = next;
            }
        }
        if rng.random_range(0..CHURN_EVERY) == 0 {
            let i = rng.random_range(0..c.live.len());
            let l = c.live[i];
            let router = &mut c.router;
            op += 1;
            call(tr, tally, "router.close", op, || router.close_session(l.gid));
            op += 1;
            if let Some(gid) = call(tr, tally, "router.open", op, || {
                router.open_session(spec(program, DEPTHS[l.depth]))
            }) {
                c.live[i] = Live { gid, depth: l.depth, cut: 0 };
            } else {
                c.live.swap_remove(i);
            }
        }
        op += 1;
        let router = &mut c.router;
        call(tr, tally, "router.heartbeat", op, || router.heartbeat());
    }
    for l in std::mem::take(&mut c.live) {
        op += 1;
        let router = &mut c.router;
        call(tr, tally, "router.close", op, || router.close_session(l.gid));
    }
    for _ in 0..2 {
        op += 1;
        let router = &mut c.router;
        call(tr, tally, "router.heartbeat", op, || router.heartbeat());
    }
    tally.timed(timed);
    tally.rss_growth_kib += rss_kib() - rss0;

    let (orphans, sessions) = (c.router.orphans(), c.router.sessions());
    tally.check(orphans == 0 && sessions == 0, || {
        format!("after the final closes: {orphans} orphaned copies, {sessions} sessions")
    });
    let re = c.cache.misses() - misses;
    tally.check(re == 0, || format!("{re} re-analyses after set-up"));
    tally.count("analysis.hits", c.cache.hits() as f64);
    tally.count("analysis.misses", c.cache.misses() as f64);
    tear_down(c);
    Ok(())
}

fn tear_down(c: Cluster) {
    drop(c.router);
    for server in c.servers {
        server.shutdown();
    }
}

/// Runs whole blocks until `seconds` have passed.
pub fn run(cfg: &Cfg, seconds: f64, tr: &mut Tracer, tally: &mut Tally) -> Result<(), IrError> {
    let program = ladder_program()?;
    run_blocks(seconds, tally, |b, tally| block(&program, mix(cfg.seed, b), tr, tally))
}

/// The traced layer pass over depth-12 ladder events, then the node
/// protocol's value codec over the same calls' arguments and results.
pub fn pass(cfg: &Cfg, tr: &mut Tracer, tally: &mut Tally) -> Result<(), IrError> {
    let program = ladder_program()?;
    let depth = DEPTHS[DEPTHS.len() - 1];
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, u64::MAX));
    let xs: Vec<i64> = (0..PASS_EVENTS).map(|_| rng.random_range(0..ARG_RANGE)).collect();
    let args = xs.clone();
    layers::run(
        Pass {
            program: Arc::clone(&program),
            func: &func_name(depth),
            model: Arc::new(DataSizeModel::new()),
            sender_builtins: BuiltinRegistry::new(),
            receiver_builtins: receiver_builtins(),
            trigger: mpart::profile::TriggerPolicy::Never,
            events: PASS_EVENTS,
            make: Box::new(move |seq, _| Ok(vec![Value::Int(args[seq as usize - 1])])),
            expect: Box::new(|seq| Some(Value::Int(ladder(depth, xs[seq as usize - 1])))),
        },
        tr,
        tally,
    )?;
    for (i, &x) in (0..).zip(&xs) {
        let (arg, ret) = (Value::Int(x), Value::Int(ladder(depth, x)));
        let round_trip = tr.time("node.codec", i, None, || -> Result<bool, IrError> {
            let arg2 = parse_wire_value(&render_wire_value(&arg))?;
            let ret2 = parse_wire_value(&render_wire_value(&ret))?;
            Ok(arg2 == arg && ret2 == ret)
        })?;
        if !round_trip {
            tally.fail_attempt(format!("node codec changed call {i}"));
        }
    }
    Ok(())
}
