//! `image_stream`: the §5.1 image-streaming app over real loopback
//! sockets, a closed loop with a fixed in-flight window.
//!
//! Each block deploys the `push` handler under the data-size model with
//! the `ImageData` self-sizer (one cold analysis), binds a
//! [`TcpReceiver`] that sends feedback after every frame, and dials it
//! with a [`Supervisor`]. The supervisor dials on its first publish, so
//! set-up ends with one warm-up frame and its outcome: the connect and
//! accept are paid there, not by the first timed frame. The block then
//! publishes Mixed 80×80 / 200×200 frames with seeded phase lengths,
//! never more than [`window`] in flight, and times each frame from its
//! publish to the receiver's outcome.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpart::profile::TriggerPolicy;
use mpart::PartitionedHandler;
use mpart_analysis::{AnalysisCache, DEFAULT_CACHE_CAPACITY};
use mpart_apps::image::{
    client_builtins, image_cost_model, image_program, make_frame, server_builtins, ImageScenario,
};
use mpart_ir::{IrError, Program, Value};
use mpart_jecho::{RetryPolicy, Supervisor, TcpReceiver};

use crate::layers::{self, Pass};
use crate::tally::{Tally, Window};
use crate::trace::{SpanId, Tracer};
use crate::{mix, rss_kib, run_blocks, window, Cfg};

/// Frames per deployment.
const FRAMES: usize = 2000;
/// Extra deploy-and-tear-down rounds per block, so `setup_s` is a median
/// over many deployments of a millisecond-scale set-up.
const SETUP_ONLY: usize = 9;
/// Frames in the traced layer pass.
const PASS_FRAMES: u64 = 1500;
/// What `push` returns for an `ImageData` event.
const PUSHED: Value = Value::Int(1);
/// Side of the warm-up frame that dials the connection during set-up.
const WARM_UP_SIDE: i64 = 80;
/// Sequence number of the first timed frame (the warm-up frame is 1).
const FIRST_SEQ: u64 = 2;
/// How long a retiring sender may take to drain its window.
const DRAIN: Duration = Duration::from_secs(30);

struct Deployment {
    handler: Arc<PartitionedHandler>,
    receiver: TcpReceiver,
    supervisor: Supervisor,
}

fn deploy(
    program: &Arc<Program>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Deployment, IrError> {
    let setup = tr.begin("image.setup", 0, None);
    let cache = AnalysisCache::new(DEFAULT_CACHE_CAPACITY);
    let handler = tr.time("analysis.analyze_cached", 0, setup, || {
        PartitionedHandler::analyze_cached(
            Arc::clone(program),
            "push",
            image_cost_model(program),
            &cache,
        )
    })?;
    let receiver = tr.time("wire.bind", 0, setup, || {
        TcpReceiver::bind_with_handler(
            Arc::clone(program),
            Arc::clone(&handler),
            client_builtins(program),
            TriggerPolicy::Rate(1),
        )
    })?;
    let mut supervisor = tr.time("wire.supervisor", 0, setup, || {
        Supervisor::new(
            Arc::clone(program),
            Arc::clone(&handler),
            server_builtins(program),
            receiver.port(),
            RetryPolicy::default(),
        )
    });
    let frame_program = Arc::clone(program);
    tr.time("wire.connect", 0, setup, || {
        supervisor.publish(move |ctx| make_frame(&frame_program, ctx, WARM_UP_SIDE))
    })?;
    let warm = tr.time("wire.wait", 0, setup, || receiver.next_outcome())?;
    tr.end(setup);
    tally.check(warm.seq == 1 && warm.ret.as_ref() == Some(&PUSHED), || {
        format!("warm-up frame: outcome seq {} returned {:?}", warm.seq, warm.ret)
    });
    Ok(Deployment { handler, receiver, supervisor })
}

/// Drains the sender, stops the receiver and checks that it applied
/// exactly `frames` frames.
fn retire(d: Deployment, frames: u64, tally: &mut Tally) -> Result<(), IrError> {
    let drained = d.supervisor.shutdown(DRAIN);
    tally.check(drained.is_ok(), || format!("sender drain: {drained:?}"));
    let applied = d.receiver.join()?;
    tally.check(applied == frames, || format!("receiver applied {applied} of {frames} frames"));
    Ok(())
}

/// Waits for the oldest in-flight frame's outcome.
fn complete_one(
    d: &Deployment,
    inflight: &mut VecDeque<(u64, Instant, Option<SpanId>)>,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let Some((seq, started, op)) = inflight.pop_front() else { return };
    let out = tr.time("wire.wait", seq, op, || d.receiver.next_outcome());
    tr.end(op);
    if let Some(o) = tally.record(started, out) {
        if o.seq != seq || o.ret.as_ref() != Some(&PUSHED) {
            tally.mismatch(format!("frame {seq}: outcome seq {} returned {:?}", o.seq, o.ret));
            return;
        }
        tally.events += 1;
        tally.wire_bytes += o.wire_bytes as u64;
    }
}

fn block(
    program: &Arc<Program>,
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), IrError> {
    for _ in 0..SETUP_ONLY {
        let w = Window::open();
        let d = deploy(program, tr, tally)?;
        tally.setup(w);
        retire(d, 1, tally)?;
    }
    let w = Window::open();
    let mut d = deploy(program, tr, tally)?;
    tally.setup(w);

    let sides = ImageScenario::Mixed.sides(FRAMES, seed);
    let epoch0 = d.handler.plan().epoch();
    let window = window();
    let mut inflight = VecDeque::with_capacity(window);
    let rss0 = rss_kib();
    let timed = Window::open();
    for (i, &side) in sides.iter().enumerate() {
        if inflight.len() >= window {
            complete_one(&d, &mut inflight, tr, tally);
        }
        let seq = FIRST_SEQ + i as u64;
        let op = tr.begin("image.op", seq, None);
        let started = Instant::now();
        let frame_program = Arc::clone(program);
        let published = tr.time("wire.publish", seq, op, || {
            d.supervisor.publish(move |ctx| make_frame(&frame_program, ctx, side))
        });
        match published {
            Ok(()) => inflight.push_back((seq, started, op)),
            Err(e) => {
                tr.end(op);
                tally.fail_attempt(format!("publish {seq}: {e}"));
            }
        }
    }
    while !inflight.is_empty() {
        complete_one(&d, &mut inflight, tr, tally);
    }
    tally.timed(timed);
    tally.rss_growth_kib += rss_kib() - rss0;

    tally.count("reconfig.switches", (d.handler.plan().epoch() - epoch0) as f64);
    tally.count("wire.reconnects", d.supervisor.reconnects() as f64);
    let retransmissions =
        d.handler.obs().registry().snapshot().counter_sum("retransmissions_total");
    tally.count("wire.retransmissions", retransmissions as f64);
    let dead = d.receiver.dead_letters().len();
    tally.check(dead == 0, || format!("{dead} frames in the dead-letter ring"));
    retire(d, FIRST_SEQ - 1 + FRAMES as u64, tally)
}

/// Runs whole blocks until `seconds` have passed.
pub fn run(cfg: &Cfg, seconds: f64, tr: &mut Tracer, tally: &mut Tally) -> Result<(), IrError> {
    let program = image_program()?;
    run_blocks(seconds, tally, |b, tally| block(&program, mix(cfg.seed, b), tr, tally))
}

/// The traced layer pass over the same frame mix.
pub fn pass(cfg: &Cfg, tr: &mut Tracer, tally: &mut Tally) -> Result<(), IrError> {
    let program = image_program()?;
    let sides = ImageScenario::Mixed.sides(PASS_FRAMES as usize, mix(cfg.seed, u64::MAX));
    let frame_program = Arc::clone(&program);
    layers::run(
        Pass {
            program: Arc::clone(&program),
            func: "push",
            model: image_cost_model(&program),
            sender_builtins: server_builtins(&program),
            receiver_builtins: client_builtins(&program),
            trigger: TriggerPolicy::Rate(1),
            events: PASS_FRAMES,
            make: Box::new(move |seq, ctx| {
                make_frame(&frame_program, ctx, sides[seq as usize - 1])
            }),
            expect: Box::new(|_| Some(PUSHED)),
        },
        tr,
        tally,
    )
}
