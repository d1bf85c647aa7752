//! Backpressure and deadline edge cases for the serving engine, plus
//! the rejection-code ↔ registry cross-check.
//!
//! Each test pins one corner the property suite only hits by chance:
//! a full queue at the peak of a burst, a deadline shorter than one
//! decode step, a burst of requests over one shared schema, the
//! zero-length prompt, an out-of-vocabulary source on the real batcher,
//! and shutdown with in-flight slots (no leaked KV bytes, witnessed
//! through `cache_bytes`).

use datavist5::data::{Task, TaskRequest};
use nn::batch::BatchedDecodeState;
use nn::param::ParamSet;
use nn::t5::{Positional, T5Config, T5Model};
use serve::{
    BatchDecoder, EngineError, Outcome, Rejection, ScriptedDecoder, ServeConfig, ServeEngine,
    ServeRequest,
};
use tensor::XorShift;
use tokenizer::WordTokenizer;
use vql::schema::{DbSchema, TableSchema};

const EOS: u32 = 1;

fn scripted(slots: usize) -> ScriptedDecoder {
    // Each request emits `src[0]` copies of token 3, then EOS.
    ScriptedDecoder::new(slots, 16, EOS, |src| {
        vec![3; src.first().copied().unwrap_or(0) as usize]
    })
}

fn req(id: u64, len: u32) -> ServeRequest {
    ServeRequest::new(id, Task::ALL[id as usize % 4], vec![len])
}

/// Full queue at the peak of a burst: slots drain only at tick
/// boundaries, so a burst of 6 simultaneous arrivals against queue
/// bound 2 queues the first two and bounces the remaining four with
/// R001 — and the bounced ones are exactly the *latest* arrivals
/// (admission order is arrival order, never resampled).
#[test]
fn burst_peak_overflows_queue_with_typed_rejections() {
    let mut e = ServeEngine::new(scripted(1), ServeConfig::new(2, 8, EOS));
    let trace: Vec<(u64, ServeRequest)> = (0..6).map(|i| (1_000, req(i, 2))).collect();
    e.run_trace(&trace).unwrap();
    let report = e.into_report();
    assert!(report.accounted());
    assert_eq!(report.completed, 2);
    assert_eq!(report.rejected["queue-full"], 4);
    for r in &report.responses {
        let expect_bounced = r.id >= 2;
        let bounced = r.outcome == Outcome::Rejected(Rejection::QueueFull);
        assert_eq!(bounced, expect_bounced, "request {} wrong outcome", r.id);
        if bounced {
            assert_eq!(r.finished_ns, r.arrival_ns, "rejection is immediate");
        }
    }
}

/// A deadline shorter than one decode step: the request is admitted,
/// pays one step, and is retired with R003 carrying the single token
/// that step produced — typed, never silently dropped.
#[test]
fn deadline_shorter_than_one_step_rejects_mid_decode() {
    let mut cfg = ServeConfig::new(4, 8, EOS);
    cfg.step_cost_ns = 1_000_000;
    let mut e = ServeEngine::new(scripted(2), ServeConfig { ..cfg });
    // Wants 5 tokens but the deadline expires inside the first step.
    let r = req(0, 5).with_deadline(500_000);
    e.run_trace(&[(0, r)]).unwrap();
    let report = e.into_report();
    assert!(report.accounted());
    let resp = &report.responses[0];
    assert_eq!(resp.outcome, Outcome::Rejected(Rejection::DeadlineDecoding));
    assert_eq!(resp.tokens, vec![3], "partial prefix from the paid step");
    assert_eq!(report.rejected["deadline-decoding"], 1);
}

/// A deadline that expires while still queued (slot starvation): R002,
/// with zero tokens and no admission log entry.
#[test]
fn deadline_expiring_in_queue_rejects_without_admission() {
    let mut e = ServeEngine::new(scripted(1), ServeConfig::new(4, 8, EOS));
    // Request 0 occupies the only slot for 8 steps (8 ms of virtual
    // time); request 1's deadline lands at 2 ms while it waits.
    let trace = vec![
        (0u64, req(0, 8)),
        (1_000u64, req(1, 1).with_deadline(2_000_000)),
    ];
    e.run_trace(&trace).unwrap();
    let report = e.into_report();
    assert!(report.accounted());
    let starved = report.responses.iter().find(|r| r.id == 1).unwrap();
    assert_eq!(
        starved.outcome,
        Outcome::Rejected(Rejection::DeadlineQueued)
    );
    assert!(starved.tokens.is_empty());
    assert_eq!(
        report.admission_log.len(),
        1,
        "starved request never admitted"
    );
}

/// All requests over the same schema: per-request filtration yields the
/// same filtered input for identical questions, and every request in
/// the burst completes independently (no cross-request aliasing of
/// sources or outputs).
#[test]
fn same_schema_burst_serves_every_request_independently() {
    let schema = DbSchema::new(
        "shared",
        vec![
            TableSchema::new("sales", vec!["region".into(), "amount".into()]),
            TableSchema::new("unrelated", vec!["noise".into()]),
        ],
    );
    let task = |q: &str| TaskRequest::TextToVis {
        question: q.into(),
        schema: schema.clone(),
    };
    let corpus_text = task("bar chart of sales amount by region").input_text();
    let tok = WordTokenizer::fit([corpus_text.as_str()], 1);
    let reqs: Vec<ServeRequest> = (0..4)
        .map(|i| ServeRequest::from_task(i, &task("bar chart of sales amount by region"), &tok))
        .collect();
    // Identical questions over one schema filter identically.
    for r in &reqs[1..] {
        assert_eq!(r.src, reqs[0].src);
    }
    assert!(
        !corpus_text.contains("unrelated"),
        "filtration dropped the unused table"
    );

    let src_len = reqs[0].src.len() as u32;
    let dec = ScriptedDecoder::new(2, 4096, EOS, move |src| vec![src.len() as u32 + 2]);
    let mut e = ServeEngine::new(dec, ServeConfig::new(8, 8, EOS));
    let trace: Vec<(u64, ServeRequest)> = reqs.into_iter().map(|r| (0u64, r)).collect();
    e.run_trace(&trace).unwrap();
    let report = e.into_report();
    assert!(report.accounted());
    assert_eq!(report.completed, 4);
    for r in &report.responses {
        assert_eq!(
            r.tokens,
            vec![src_len + 2],
            "output depends only on the request's own source"
        );
    }
}

/// The zero-length prompt: normalized to a lone EOS marker at admission
/// (mirroring `encode_with_eos`), decoded normally, completed.
#[test]
fn zero_length_prompt_is_normalized_and_served() {
    let dec = ScriptedDecoder::new(1, 16, EOS, |src| {
        assert!(!src.is_empty(), "engine must never admit an empty source");
        vec![7, 7]
    });
    let mut e = ServeEngine::new(dec, ServeConfig::new(2, 8, EOS));
    e.run_trace(&[(0, ServeRequest::new(0, Task::TableToText, Vec::new()))])
        .unwrap();
    let report = e.into_report();
    assert!(report.accounted());
    assert_eq!(report.responses[0].outcome, Outcome::Completed);
    assert_eq!(report.responses[0].tokens, vec![7, 7]);
}

/// A source id outside the vocabulary, on the real batcher: refused at
/// submission with R006 and no tokens. Admitted, it would panic the
/// serving thread at the encoder's embedding lookup and take the
/// requests around it down too; here the one already in flight and the
/// one submitted after it both complete.
#[test]
fn out_of_vocab_source_is_rejected_and_neighbours_complete() {
    let cfg = T5Config {
        vocab: 20,
        d_model: 16,
        d_ff: 32,
        heads: 2,
        enc_layers: 1,
        dec_layers: 1,
        dropout: 0.0,
        positional: Positional::RelativeBias,
    };
    let mut ps = ParamSet::new();
    let model = T5Model::new(&mut ps, "oov", cfg, &mut XorShift::new(7));
    let dec = BatchedDecodeState::new(&model, &ps, 2);
    assert_eq!(BatchDecoder::vocab(&dec), 20);
    let mut e = ServeEngine::new(dec, ServeConfig::new(4, 6, EOS));
    e.submit(ServeRequest::new(0, Task::VisToText, vec![3, 4, 5]));
    e.tick().unwrap();
    assert_eq!(e.live(), 1, "request 0 is in flight");
    e.submit(ServeRequest::new(1, Task::VisToText, vec![3, 999, 5]));
    e.submit(ServeRequest::new(2, Task::TableToText, vec![6, 19]));
    while !e.is_idle() {
        e.tick().unwrap();
    }
    let report = e.into_report();
    assert!(report.accounted());
    assert_eq!(report.completed, 2);
    assert_eq!(report.rejected["out-of-vocab"], 1);
    for r in &report.responses {
        if r.id == 1 {
            assert_eq!(r.outcome, Outcome::Rejected(Rejection::OutOfVocab));
            assert!(r.tokens.is_empty());
            assert_eq!(r.finished_ns, r.arrival_ns, "rejection is immediate");
        } else {
            assert_eq!(r.outcome, Outcome::Completed, "request {}", r.id);
            assert!(!r.tokens.is_empty());
        }
    }
}

/// Shutdown with in-flight slots: queued requests reject with R004 and
/// zero tokens, in-flight requests reject with R004 keeping their
/// partial output, and the decoder ends with zero live KV bytes.
#[test]
fn shutdown_with_in_flight_slots_leaks_nothing() {
    let dec = scripted(2);
    let mut e = ServeEngine::new(dec, ServeConfig::new(8, 16, EOS));
    for i in 0..5 {
        e.submit(req(i, 10)); // all want 10 tokens
    }
    // Three ticks: two requests in flight with partial output, three
    // queued (slots=2).
    for _ in 0..3 {
        e.tick().unwrap();
    }
    assert_eq!(e.live(), 2);
    assert!(e.queue_depth() > 0);
    e.shutdown();
    let report = e.into_report();
    assert!(report.accounted());
    assert_eq!(report.rejected["shutdown"], 5);
    let mut partials = 0;
    for r in &report.responses {
        assert_eq!(r.outcome, Outcome::Rejected(Rejection::Shutdown));
        if !r.tokens.is_empty() {
            partials += 1;
            assert_eq!(r.tokens, vec![3, 3, 3], "three paid steps preserved");
        }
    }
    assert_eq!(
        partials, 2,
        "exactly the in-flight pair kept partial output"
    );
}

/// The shutdown leak check is real: `cache_bytes` reports nonzero while
/// requests are resident and zero after shutdown retires them.
#[test]
fn cache_bytes_drop_to_zero_at_shutdown() {
    let mut dec = scripted(2);
    let a = dec.admit(&[5]).unwrap();
    assert!(dec.cache_bytes() > 0);
    dec.retire(a);
    assert_eq!(dec.cache_bytes(), 0);
    dec.take_slot_events();

    let mut e = ServeEngine::new(dec, ServeConfig::new(4, 16, EOS));
    e.submit(req(0, 10));
    e.tick().unwrap();
    e.shutdown(); // panics internally if any KV bytes survive
    assert!(e.into_report().accounted());
}

/// A decoder that violates the batcher contract: it reports free
/// capacity but refuses every admission.
struct RefusingDecoder;

impl BatchDecoder for RefusingDecoder {
    fn capacity(&self) -> usize {
        1
    }
    fn admit(&mut self, _src: &[u32]) -> Option<usize> {
        None
    }
    fn retire(&mut self, _slot: usize) {}
    fn step_packed_into(&mut self, _active: &[(usize, u32)], _out: &mut Vec<Vec<f32>>) {}
    fn cache_bytes(&self) -> usize {
        0
    }
    fn take_slot_events(&mut self) -> Vec<nn::batch::SlotEvent> {
        Vec::new()
    }
}

/// An invariant violation mid-tick poisons the engine instead of
/// panicking: the failing tick returns a typed [`EngineError`], every
/// caught-in-the-middle request drains with an R005 response, later
/// submissions reject immediately with R005, further ticks are no-ops,
/// and the request accounting still balances.
#[test]
fn invariant_violation_poisons_engine_with_typed_r005_drain() {
    let mut e = ServeEngine::new(RefusingDecoder, ServeConfig::new(4, 8, EOS));
    e.submit(req(0, 2));
    e.submit(req(1, 2));
    let err = e.tick().unwrap_err();
    assert_eq!(err, EngineError::AdmitRefused { queued: 1 });
    assert!(e.is_poisoned());

    // Post-poison: submissions bounce with R005, ticks are inert no-ops.
    e.submit(req(2, 2));
    assert_eq!(e.tick(), Ok(false));
    assert_eq!(e.live(), 0);
    assert_eq!(e.queue_depth(), 0);

    let report = e.into_report();
    assert!(report.accounted(), "accounting survives the poison drain");
    assert_eq!(report.completed, 0);
    assert_eq!(report.rejected["internal-error"], 3);
    for r in &report.responses {
        assert_eq!(r.outcome, Outcome::Rejected(Rejection::Internal));
        assert!(r.tokens.is_empty());
    }
}

/// `run_trace` on a poisoned engine: the error surfaces, and every
/// arrival after the failing tick still gets its typed R005 response so
/// nothing is silently dropped.
#[test]
fn run_trace_drains_remaining_arrivals_after_poison() {
    let mut e = ServeEngine::new(RefusingDecoder, ServeConfig::new(4, 8, EOS));
    let trace: Vec<(u64, ServeRequest)> = (0..3).map(|i| (i * 1_000, req(i, 2))).collect();
    let err = e.run_trace(&trace).unwrap_err();
    assert!(matches!(err, EngineError::AdmitRefused { .. }));
    let report = e.into_report();
    assert!(report.accounted());
    assert_eq!(report.responses.len(), 3, "every arrival answered");
    assert_eq!(report.rejected["internal-error"], 3);
}

/// Every rejection code the serving layer can emit is registered in the
/// workspace-wide diagnostic-code registry with the `serve` family.
#[test]
fn rejection_codes_are_registered() {
    let all = [
        Rejection::QueueFull,
        Rejection::DeadlineQueued,
        Rejection::DeadlineDecoding,
        Rejection::Shutdown,
        Rejection::Internal,
        Rejection::OutOfVocab,
    ];
    for rej in all {
        let entry = analysis::registry::CODES
            .iter()
            .find(|c| c.code == rej.code())
            .unwrap_or_else(|| panic!("{} missing from analysis::registry", rej.code()));
        assert_eq!(
            entry.family,
            "serve",
            "{} registered under wrong family",
            rej.code()
        );
    }
}
