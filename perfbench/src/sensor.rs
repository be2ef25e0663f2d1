//! `sensor_serve`: the §5.2 sensor pipeline as a journaled server, a
//! closed loop with one outstanding event per session.
//!
//! Each block opens eight `process` sessions (execution-time model,
//! periodic feedback) in one [`SessionManager`] with a file-backed
//! [`SessionJournal`], as `mpart serve --journal` runs them. Halfway
//! through, the manager is dropped — a crash — and every session comes
//! back from the journal with [`SessionManager::restore_session`].
//!
//! The receiver's `deliver_result` native digests the 64-bin report it
//! is handed; the digests must equal those of an unpartitioned,
//! single-context run of the same signals.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mpart::journal::{JournalRecord, SessionJournal};
use mpart::profile::TriggerPolicy;
use mpart::session::{Pending, SessionConfig, SessionManager};
use mpart_analysis::{AnalysisCache, DEFAULT_CACHE_CAPACITY};
use mpart_apps::sensor::{make_signal, sensor_cost_model, sensor_program, stage_builtins};
use mpart_ir::heap::{ArrayData, HeapCell};
use mpart_ir::interp::{BuiltinRegistry, ExecCtx, Interp};
use mpart_ir::{IrError, Program, Value};
use rand::prelude::*;

use crate::layers::{self, Pass};
use crate::tally::{Tally, Window};
use crate::trace::{SpanId, Tracer};
use crate::{mix, rss_kib, run_blocks, Cfg};

/// Sessions served by one manager.
const SESSIONS: usize = 8;
/// Events per session per block; the crash comes after half of them.
const ROUNDS: usize = 400;
/// Distinct seeded signals events are drawn from (each has a reference
/// digest computed once per run).
const POOL: u64 = 256;
/// Extra deploy-and-shut-down rounds per block for the `setup_s` median.
const SETUP_ONLY: usize = 4;
/// Events in the traced layer pass.
const PASS_EVENTS: u64 = 800;
/// Profiling feedback period.
const FEEDBACK: TriggerPolicy = TriggerPolicy::Rate(16);
/// What `process` returns for a `SensorData` event.
const PROCESSED: Value = Value::Int(1);

/// Digests of the reports one session's receiver delivered, in order.
type Digests = Arc<Mutex<Vec<u64>>>;

/// The journal stream of the last traced block, for the journal pass.
#[derive(Debug, Default)]
pub struct JournalStream {
    records: Vec<JournalRecord>,
    bytes: u64,
    events: u64,
}

fn fnv(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// Consumer builtins whose `deliver_result` records a digest of the report.
fn receiver_builtins(sink: Digests) -> BuiltinRegistry {
    let mut b = stage_builtins();
    b.register_native("deliver_result", 64, move |heap, args| {
        let report = args[0].as_ref("deliver_result report")?;
        let digest = match heap.cell(report)? {
            HeapCell::Array(ArrayData::Float(xs)) => fnv(xs),
            _ => return Err(IrError::Type("deliver_result: report is not a float array".into())),
        };
        sink.lock().expect("digest sink").push(digest);
        Ok(Value::Null)
    });
    b
}

/// Reference digests: every pool signal through `process` in one
/// unpartitioned context.
fn reference(program: &Program, pool_seed: u64) -> Result<Vec<u64>, IrError> {
    let sink: Digests = Arc::default();
    let mut ctx = ExecCtx::with_builtins(program, receiver_builtins(Arc::clone(&sink)));
    for p in 0..POOL {
        let args = make_signal(program, &mut ctx, p, pool_seed)?;
        let ret = Interp::new(program).run(&mut ctx, "process", args)?;
        if ret != Some(PROCESSED) {
            return Err(IrError::Invalid(format!("reference run returned {ret:?}")));
        }
    }
    let digests = sink.lock().expect("digest sink").clone();
    if digests.len() != POOL as usize {
        return Err(IrError::Invalid("reference run missed deliveries".into()));
    }
    Ok(digests)
}

struct Fixture {
    program: Arc<Program>,
    pool_seed: u64,
    reference: Vec<u64>,
    journal_path: PathBuf,
}

fn config(journal: &Arc<SessionJournal>) -> SessionConfig {
    SessionConfig::default().with_trigger(FEEDBACK).with_journal(Arc::clone(journal))
}

fn deploy(
    fx: &Fixture,
    digests: &[Digests],
    tr: &mut Tracer,
) -> Result<(Arc<AnalysisCache>, SessionManager), IrError> {
    let setup = tr.begin("sensor.setup", 0, None);
    let cache = Arc::new(AnalysisCache::new(DEFAULT_CACHE_CAPACITY));
    let journal = Arc::new(
        tr.time("journal.at_path", 0, setup, || SessionJournal::at_path(&fx.journal_path))?,
    );
    let mut manager = SessionManager::with_shared_cache(config(&journal), Arc::clone(&cache));
    for (s, sink) in digests.iter().enumerate() {
        let id = tr.time("session.open", s as u64, setup, || {
            manager.open_session(
                Arc::clone(&fx.program),
                "process",
                sensor_cost_model(),
                stage_builtins(),
                receiver_builtins(Arc::clone(sink)),
            )
        })?;
        if id != s {
            return Err(IrError::Invalid(format!("session {s} opened as {id}")));
        }
    }
    tr.end(setup);
    Ok((cache, manager))
}

/// Crash and restart: drops the manager, reopens the journal, replays it
/// and restores every session over the shared cache.
fn restart(
    fx: &Fixture,
    manager: SessionManager,
    cache: &Arc<AnalysisCache>,
    digests: &[Digests],
    delivered: &[u64],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<SessionManager, IrError> {
    manager.shutdown();
    let restore = tr.begin("sensor.restart", 0, None);
    let misses = cache.misses();
    let journal = Arc::new(
        tr.time("journal.at_path", 0, restore, || SessionJournal::at_path(&fx.journal_path))?,
    );
    let snapshots = tr.time("journal.replay", 0, restore, || journal.replay())?;
    let mut manager = SessionManager::with_shared_cache(config(&journal), Arc::clone(cache));
    for (&id, snapshot) in &snapshots {
        let s = id as usize;
        let sink =
            digests.get(s).ok_or_else(|| IrError::Invalid(format!("unknown session {id}")))?;
        let restored = tr.time("session.restore", id, restore, || {
            manager.restore_session(
                Arc::clone(&fx.program),
                &snapshot.func,
                sensor_cost_model(),
                stage_builtins(),
                receiver_builtins(Arc::clone(sink)),
                snapshot,
            )
        })?;
        tally.check(restored == s, || format!("session {id} restored as {restored}"));
        tally.check(snapshot.watermark == delivered[s], || {
            format!(
                "session {id}: journaled watermark {} after {} acks",
                snapshot.watermark, delivered[s]
            )
        });
    }
    tr.end(restore);
    tally.check(snapshots.len() == SESSIONS, || {
        format!("replay found {} sessions", snapshots.len())
    });
    tally.check(cache.misses() == misses, || {
        format!("restore re-analyzed {} handlers", cache.misses() - misses)
    });
    Ok(manager)
}

/// An event submitted and not yet observed.
struct InFlight {
    started: Instant,
    op: Option<SpanId>,
    waiter: Pending,
}

fn submit(
    fx: &Fixture,
    manager: &SessionManager,
    s: usize,
    pick: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Option<InFlight> {
    let (program, pool_seed) = (Arc::clone(&fx.program), fx.pool_seed);
    let op = tr.begin("sensor.op", s as u64, None);
    let started = Instant::now();
    let submitted = tr.time("session.submit", s as u64, op, || {
        manager.submit(s, move |ctx| make_signal(&program, ctx, pick, pool_seed))
    });
    match submitted {
        Ok(waiter) => Some(InFlight { started, op, waiter }),
        Err(e) => {
            tr.end(op);
            tally.fail_attempt(format!("submit to session {s}: {e}"));
            None
        }
    }
}

/// Observes one outcome: the next seq of its session, and `process`
/// returned 1.
fn complete(f: InFlight, s: usize, delivered: &mut [u64], tr: &mut Tracer, tally: &mut Tally) {
    let out = tr.time("session.wait", s as u64, f.op, || f.waiter.wait());
    tr.end(f.op);
    let Some(o) = tally.record(f.started, out) else { return };
    let expected_seq = delivered[s] + 1;
    if o.seq != expected_seq || o.ret.as_ref() != Some(&PROCESSED) {
        tally.mismatch(format!(
            "session {s}: seq {} (expected {expected_seq}) returned {:?}",
            o.seq, o.ret
        ));
        return;
    }
    delivered[s] = expected_seq;
    tally.events += 1;
    tally.wire_bytes += o.wire_bytes as u64;
}

fn block(
    fx: &Fixture,
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
    stream: &mut JournalStream,
) -> Result<(), IrError> {
    let fresh = || -> Vec<Digests> { (0..SESSIONS).map(|_| Arc::default()).collect() };
    for _ in 0..SETUP_ONLY {
        let _ = std::fs::remove_file(&fx.journal_path);
        let digests = fresh();
        let w = Window::open();
        let (_, manager) = deploy(fx, &digests, tr)?;
        tally.setup(w);
        manager.shutdown();
    }
    let _ = std::fs::remove_file(&fx.journal_path);
    let digests = fresh();
    let w = Window::open();
    let (cache, mut manager) = deploy(fx, &digests, tr)?;
    tally.setup(w);
    let misses = cache.misses();

    let mut rng = StdRng::seed_from_u64(seed);
    let picks: Vec<Vec<u64>> =
        (0..SESSIONS).map(|_| (0..ROUNDS).map(|_| rng.random_range(0..POOL)).collect()).collect();
    let mut delivered = vec![0u64; SESSIONS];
    let rss0 = rss_kib();
    let timed = Window::open();
    // Each session has one event outstanding; its next event is
    // submitted as soon as its outcome is observed. The crash splits the
    // block into two halves with every session idle in between.
    let half = ROUNDS / 2;
    for (first, end) in [(0, half), (half, ROUNDS)] {
        if first > 0 {
            manager = restart(fx, manager, &cache, &digests, &delivered, tr, tally)?;
        }
        let mut inflight: Vec<Option<InFlight>> =
            (0..SESSIONS).map(|s| submit(fx, &manager, s, picks[s][first], tr, tally)).collect();
        for round in first..end {
            for (s, slot) in inflight.iter_mut().enumerate() {
                if let Some(f) = slot.take() {
                    complete(f, s, &mut delivered, tr, tally);
                }
                if round + 1 < end {
                    *slot = submit(fx, &manager, s, picks[s][round + 1], tr, tally);
                }
            }
        }
    }
    tally.timed(timed);
    tally.rss_growth_kib += rss_kib() - rss0;

    tally.count("session.sheds", manager.sheds() as f64);
    tally.check(cache.misses() == misses, || {
        format!("{} re-analyses after set-up", cache.misses() - misses)
    });
    for (s, sink) in digests.iter().enumerate() {
        let got = sink.lock().expect("digest sink").clone();
        let want: Vec<u64> = picks[s].iter().map(|&p| fx.reference[p as usize]).collect();
        tally.check(got == want, || {
            let bad = got.iter().zip(&want).filter(|(a, b)| a != b).count();
            format!("session {s}: {bad} digests differ, {} of {} delivered", got.len(), want.len())
        });
    }
    if tr.enabled() {
        stream.records = SessionJournal::at_path(&fx.journal_path)?.records()?;
        stream.bytes = std::fs::metadata(&fx.journal_path).map_or(0, |m| m.len());
        stream.events = delivered.iter().sum();
    }
    manager.shutdown();
    let _ = std::fs::remove_file(&fx.journal_path);
    Ok(())
}

fn fixture(cfg: &Cfg) -> Result<Fixture, IrError> {
    let program = sensor_program()?;
    let pool_seed = mix(cfg.seed, 0x5e_5e);
    let reference = reference(&program, pool_seed)?;
    Ok(Fixture { program, pool_seed, reference, journal_path: cfg.scratch.join("sensor.journal") })
}

/// Runs whole blocks until `seconds` have passed.
pub fn run(
    cfg: &Cfg,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
    stream: &mut JournalStream,
) -> Result<(), IrError> {
    let fx = fixture(cfg)?;
    run_blocks(seconds, tally, |b, tally| block(&fx, mix(cfg.seed, b), tr, tally, stream))
}

/// The traced layer pass over the same signals, then the last traced
/// block's journal stream appended record by record to a fresh
/// file-backed journal.
pub fn pass(
    cfg: &Cfg,
    stream: &JournalStream,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), IrError> {
    let fx = fixture(cfg)?;
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, u64::MAX));
    let picks: Vec<u64> = (0..PASS_EVENTS).map(|_| rng.random_range(0..POOL)).collect();
    let (program, pool_seed) = (Arc::clone(&fx.program), fx.pool_seed);
    layers::run(
        Pass {
            program: Arc::clone(&fx.program),
            func: "process",
            model: sensor_cost_model(),
            sender_builtins: stage_builtins(),
            receiver_builtins: receiver_builtins(Arc::default()),
            trigger: FEEDBACK,
            events: PASS_EVENTS,
            make: Box::new(move |seq, ctx| {
                make_signal(&program, ctx, picks[seq as usize - 1], pool_seed)
            }),
            expect: Box::new(|_| Some(PROCESSED)),
        },
        tr,
        tally,
    )?;
    append_stream(&fx.journal_path, stream, tr)
}

fn append_stream(path: &Path, stream: &JournalStream, tr: &mut Tracer) -> Result<(), IrError> {
    let _ = std::fs::remove_file(path);
    let journal = SessionJournal::at_path(path)?;
    for (i, record) in stream.records.iter().cloned().enumerate() {
        tr.time("journal.append", i as u64, None, || journal.append(record))?;
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Journal records and bytes per delivered event of the traced block.
pub fn journal_per_event(stream: &JournalStream) -> (f64, f64) {
    let events = stream.events.max(1) as f64;
    (stream.records.len() as f64 / events, stream.bytes as f64 / events)
}
