//! The traced layer pass: a workload's generated events sent one at a
//! time through each layer's public entry point in the order the wire
//! runs them — analysis, modulator, continuation pack, frame encode,
//! frame decode, continuation unpack, demodulator, profiling feedback,
//! min-cut and plan install — with a span around every call.

use std::sync::Arc;
use std::time::Instant;

use mpart::continuation::ContinuationMessage;
use mpart::profile::{DemodMessageProfile, ModMessageProfile, TriggerPolicy};
use mpart::reconfig::{select_active_set, ReconfigUnit};
use mpart::PartitionedHandler;
use mpart_analysis::{AnalysisCache, DEFAULT_CACHE_CAPACITY};
use mpart_cost::CostModel;
use mpart_ir::heap::Heap;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::{IrError, Program, Value};
use mpart_jecho::{Frame, ModulatedEvent};

use crate::tally::Tally;
use crate::trace::Tracer;

/// Cache hits timed after the one cold analysis.
const HIT_SAMPLES: u64 = 32;

/// Builds one event's arguments in the sender's context.
pub type MakeEvent<'a> = Box<dyn FnMut(u64, &mut ExecCtx) -> Result<Vec<Value>, IrError> + 'a>;

/// One handler deployment and the events to push through it.
pub struct Pass<'a> {
    /// The handler program.
    pub program: Arc<Program>,
    /// The handler function.
    pub func: &'a str,
    /// Its cost model.
    pub model: Arc<dyn CostModel>,
    /// Natives and pure builtins on the sending side.
    pub sender_builtins: BuiltinRegistry,
    /// Natives and pure builtins on the receiving side.
    pub receiver_builtins: BuiltinRegistry,
    /// Profiling feedback policy.
    pub trigger: TriggerPolicy,
    /// Events to send.
    pub events: u64,
    /// Event generator (seeded by the caller).
    pub make: MakeEvent<'a>,
    /// Expected handler result for event `i`.
    pub expect: Box<dyn Fn(u64) -> Option<Value> + 'a>,
}

/// Runs the pass, recording spans under `tr` and layer counts in `tally`.
///
/// # Errors
///
/// Analysis failures; per-event failures are counted, not returned.
pub fn run(pass: Pass<'_>, tr: &mut Tracer, tally: &mut Tally) -> Result<(), IrError> {
    let Pass { program, func, model, sender_builtins, receiver_builtins, trigger, events, .. } =
        pass;
    let (mut make, expect) = (pass.make, pass.expect);

    let cache = AnalysisCache::new(DEFAULT_CACHE_CAPACITY);
    let handler = tr.time("analysis.cold", 0, None, || {
        PartitionedHandler::analyze_cached(Arc::clone(&program), func, Arc::clone(&model), &cache)
    })?;
    for i in 0..HIT_SAMPLES {
        tr.time("analysis.hit", i, None, || {
            PartitionedHandler::analyze_cached(
                Arc::clone(&program),
                func,
                Arc::clone(&model),
                &cache,
            )
        })?;
    }

    let modulator = handler.modulator();
    let demodulator = handler.demodulator();
    let analysis = Arc::clone(handler.analysis());
    let locals = handler.func().locals;
    let mut receiver = ExecCtx::with_builtins(&program, receiver_builtins);
    let mut reconfig = ReconfigUnit::new(Arc::clone(&analysis), handler.model().kind(), trigger);
    for seq in 1..=events {
        let op = tr.begin("pass.op", seq, None);
        let mut sender = ExecCtx::with_builtins(&program, sender_builtins.clone());
        let outcome = (|| -> Result<Option<Value>, IrError> {
            let args = make(seq, &mut sender)?;
            let t_mod = Instant::now();
            let run = tr.time("modulator", seq, op, || modulator.handle(&mut sender, args))?;
            let t_mod = t_mod.elapsed().as_secs_f64();
            tally.count("modulator.work_units", run.mod_work as f64);
            tally.count("wire_bytes", run.message.wire_size() as f64);

            let frame = Frame::Event {
                event: ModulatedEvent {
                    seq,
                    continuation: run.message.clone(),
                    samples: run.samples.clone(),
                },
                t_mod_nanos: (t_mod * 1e9) as u64,
            };
            let encoded = tr.time("envelope.encode", seq, op, || frame.try_encode_frame())?;
            tally.count("envelope.borrowed_bytes", encoded.borrowed_payload_bytes() as f64);
            tally.count("envelope.copied_bytes", encoded.copied_payload_bytes() as f64);
            let bytes = encoded.to_vec();
            let (decoded, _) =
                tr.time("envelope.decode", seq, op, || Frame::decode_bytes(&bytes))?;
            let Frame::Event { event, .. } = decoded else {
                return Err(IrError::Invalid("decoded a non-event frame".into()));
            };
            let msg = event.continuation;

            // Unpack into a scratch heap, then re-marshal the same live set
            // from it: the pack the modulator did, timed on its own.
            let pse = &analysis.pses()[msg.pse];
            let mut scratch = Heap::new();
            let env = tr.time("marshal.unpack", seq, op, || {
                msg.unpack(pse, locals, &mut scratch, &program.classes)
            })?;
            let repacked = tr.time("marshal.pack", seq, op, || {
                ContinuationMessage::pack(msg.pse, pse, &env, &scratch, msg.mod_work, msg.epoch)
            })?;
            if repacked.wire_size() != msg.wire_size() {
                return Err(IrError::Invalid("re-marshalled live set changed size".into()));
            }

            let t_demod = Instant::now();
            let demod =
                tr.time("demodulator", seq, op, || demodulator.handle(&mut receiver, &msg))?;
            let t_demod = t_demod.elapsed().as_secs_f64();

            let update = tr.time("reconfig.feedback", seq, op, || {
                reconfig.record_mod(ModMessageProfile {
                    samples: run.samples,
                    split: msg.pse,
                    mod_work: run.mod_work,
                    t_mod: Some(t_mod),
                });
                reconfig.record_samples(&demod.samples);
                reconfig.record_demod(DemodMessageProfile {
                    pse: demod.pse,
                    demod_work: demod.demod_work,
                    t_demod: Some(t_demod),
                });
                reconfig.maybe_reconfigure()
            })?;
            if let Some(update) = update {
                tally.count("reconfig.mincuts", 1.0);
                let again = tr.time("reconfig.mincut", seq, op, || {
                    select_active_set(&analysis, &update.weights)
                })?;
                if again != update.active {
                    return Err(IrError::Invalid("min-cut is not deterministic".into()));
                }
                if update.active != handler.plan().active() {
                    tally.count("reconfig.useful", 1.0);
                    let epoch =
                        tr.time("plan.install", seq, op, || handler.install_plan(&update.active));
                    reconfig.acknowledge_epoch(epoch);
                }
            }
            Ok(demod.ret)
        })();
        tr.end(op);
        match outcome {
            Ok(ret) if ret == expect(seq) => {
                tally.attempted += 1;
                tally.completed += 1;
                tally.events += 1;
            }
            Ok(ret) => tally.fail_attempt(format!("event {seq}: returned {ret:?}")),
            Err(e) => tally.fail_attempt(format!("event {seq}: {e}")),
        }
    }
    Ok(())
}
