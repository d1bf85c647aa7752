//! The serving engine: a deterministic scheduler driving the continuous
//! batcher.
//!
//! # State machine
//!
//! Every request moves through `queued → decoding → done` with two early
//! exits: `rejected at the front door` (queue full, R001; already past
//! deadline, R002; or a source id outside the decoder's vocabulary,
//! R006, which would otherwise panic the embedding lookup at admission)
//! and `retired mid-flight` (deadline mid-decode, R003; shutdown, R004).
//! One [`tick`] is the scheduler's atom:
//!
//! 1. expire queued requests whose deadline has passed (R002);
//! 2. fill free batcher slots from the queue in `(priority, arrival)`
//!    order, logging each admission;
//! 3. advance every live slot one token via
//!    [`step_packed_into`](nn::batch::BatchedDecodeState::step_packed_into);
//! 4. complete requests that emitted EOS or hit the output cap, then
//!    retire any survivor past its deadline (R003);
//! 5. advance the virtual clock by the configured per-step and
//!    per-admission costs and cross-check the batcher's own
//!    [`SlotEvent`] log against the scheduler's bookkeeping.
//!
//! # Panic freedom
//!
//! A scheduler/batcher bookkeeping divergence used to be a process-
//! killing `.expect()` inside the tick loop — one bad slot would abort
//! every in-flight request on the machine. Those invariants are now
//! typed: [`tick`](ServeEngine::tick) returns `Err(`[`EngineError`]`)`
//! on the first violation, after **poisoning** the engine — every queued
//! and in-flight request is drained with a terminal
//! [`Rejection::Internal`] (R005) response (partial tokens kept), later
//! submissions reject immediately with R005, and further ticks are
//! no-ops. The accounting invariant (`arrivals == completed +
//! rejections`) holds through the failure, so the front door can report
//! the outage request-by-request instead of dying. The hot-path auditor
//! (`analysis::hot`, `hot_audit`) statically pins this file panic-free.
//!
//! # Determinism
//!
//! The engine never reads a wall clock. Time is a *input*: the virtual
//! clock advances only through [`ServeEngine::advance_to`] (external
//! time injection, used by the real-time front door and the load
//! generator, both of which live where clock reads are sanctioned) and
//! through the fixed per-tick costs of [`ServeConfig`]. Given one
//! arrival trace, admission order, slot assignment, deadline decisions,
//! and every emitted token are pure functions of the trace — the
//! double-run suite asserts the whole [`ServeReport::fingerprint`] is
//! bitwise-stable across runs and across worker-thread counts (the
//! batcher's kernels are certified thread-count-invariant).
//!
//! # Accounting
//!
//! `arrivals == completed + rejected` always; [`ServeReport::accounted`]
//! checks it and the CI smoke gates on it. Nothing is silently dropped.

use std::collections::BTreeMap;
use std::fmt;

use datavist5::data::Task;
use nn::batch::{BatchedDecodeState, SlotEvent};
use nn::decode::argmax;
use nn::prefix_cache::CacheStats;
use nn::t5::DECODER_START;

use crate::queue::{AdmissionQueue, Queued};
use crate::request::{Outcome, Rejection, ServeRequest, ServeResponse};

/// The slice of the continuous batcher the scheduler needs. Implemented
/// by [`BatchedDecodeState`] (the real engine) and by the scripted
/// decoder in [`crate::testing`] (scheduler tests without a model).
pub trait BatchDecoder {
    /// Total slot count.
    fn capacity(&self) -> usize;
    /// Installs a request, returning its slot, or `None` when full.
    fn admit(&mut self, src: &[u32]) -> Option<usize>;
    /// Frees a slot (poisoning its caches).
    fn retire(&mut self, slot: usize);
    /// Advances the listed `(slot, previous token)` pairs one step,
    /// writing next-token logits per request into `out`, in input order.
    ///
    /// `out` is a caller-owned reusable buffer: implementations must
    /// truncate it to `active.len()` rows and overwrite retained rows in
    /// place, so a steady-state tick (constant batch shape) performs no
    /// heap allocation. The zero-alloc certification test
    /// (`crates/serve/tests/zero_alloc.rs`) holds implementations to it.
    fn step_packed_into(&mut self, active: &[(usize, u32)], out: &mut Vec<Vec<f32>>);
    /// Sizing hint from the scheduler: no request decodes more than
    /// `max_steps` tokens, so per-slot KV storage can be reserved up
    /// front and steady-state ticks never grow it. Default: no-op.
    fn reserve_steps(&mut self, _max_steps: usize) {}
    /// Resident KV bytes of live slots (leak detection at shutdown).
    fn cache_bytes(&self) -> usize;
    /// Number of token ids the encoder accepts; the engine refuses a
    /// source holding an id at or above it (R006) before admission.
    /// Default: unbounded, for decoders without an embedding table.
    fn vocab(&self) -> usize {
        usize::MAX
    }
    /// Drains the slot admission/retirement log.
    fn take_slot_events(&mut self) -> Vec<SlotEvent>;
    /// Running prefix-cache tallies, when a cross-request cache is
    /// attached (`None` for cacheless decoders). Purely observational:
    /// nothing scheduling-visible may depend on it.
    fn prefix_cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

impl BatchDecoder for BatchedDecodeState<'_> {
    fn capacity(&self) -> usize {
        BatchedDecodeState::capacity(self)
    }
    fn admit(&mut self, src: &[u32]) -> Option<usize> {
        BatchedDecodeState::admit(self, src)
    }
    fn retire(&mut self, slot: usize) {
        BatchedDecodeState::retire(self, slot)
    }
    fn step_packed_into(&mut self, active: &[(usize, u32)], out: &mut Vec<Vec<f32>>) {
        BatchedDecodeState::step_packed_into(self, active, out)
    }
    fn reserve_steps(&mut self, max_steps: usize) {
        BatchedDecodeState::reserve_steps(self, max_steps)
    }
    fn cache_bytes(&self) -> usize {
        BatchedDecodeState::cache_bytes(self)
    }
    fn vocab(&self) -> usize {
        BatchedDecodeState::vocab(self)
    }
    fn take_slot_events(&mut self) -> Vec<SlotEvent> {
        BatchedDecodeState::take_slot_events(self)
    }
    fn prefix_cache_stats(&self) -> Option<CacheStats> {
        BatchedDecodeState::cache_stats(self)
    }
}

/// A scheduler/batcher invariant violation caught inside the tick loop.
///
/// Each variant was a process-killing `.expect()`/`assert!` before the
/// hot-path audit; now the first violation poisons the engine (every
/// queued and in-flight request drains with an R005
/// [`Rejection::Internal`] response) and surfaces here as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The scheduler saw a non-empty queue but `pop` returned nothing.
    EmptyQueuePop,
    /// The scheduler counted a free slot but the batcher refused the
    /// admission.
    AdmitRefused {
        /// Queue depth at the moment of refusal.
        queued: usize,
    },
    /// The batcher assigned a slot the scheduler believes is occupied or
    /// out of range.
    SlotUnavailable { slot: usize },
    /// A slot listed in the packed step came back vacant.
    VacantActiveSlot { slot: usize },
    /// Completion targeted a slot with no resident request.
    FinishOfEmptySlot { slot: usize },
    /// The batcher returned a different number of logit rows than the
    /// step listed active requests.
    LogitsArity { got: usize, want: usize },
    /// The batcher's own event log disagrees with the scheduler's
    /// bookkeeping for this tick.
    EventDivergence {
        got: Vec<SlotEvent>,
        expected: Vec<SlotEvent>,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyQueuePop => {
                write!(f, "scheduler popped an empty admission queue")
            }
            EngineError::AdmitRefused { queued } => write!(
                f,
                "batcher refused an admission the scheduler counted a free slot \
                 for (queue depth {queued})"
            ),
            EngineError::SlotUnavailable { slot } => write!(
                f,
                "batcher assigned slot {slot}, which is occupied or out of range"
            ),
            EngineError::VacantActiveSlot { slot } => {
                write!(f, "active slot {slot} came back vacant mid-step")
            }
            EngineError::FinishOfEmptySlot { slot } => {
                write!(f, "completion targeted empty slot {slot}")
            }
            EngineError::LogitsArity { got, want } => write!(
                f,
                "batcher returned {got} logit rows for {want} active requests"
            ),
            EngineError::EventDivergence { got, expected } => write!(
                f,
                "batcher slot events diverged from scheduler bookkeeping \
                 (got {got:?}, expected {expected:?})"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission-queue bound (backpressure threshold).
    pub queue_cap: usize,
    /// Output-length cap per request.
    pub max_out: usize,
    /// EOS token id (completions stop on it; it is not emitted).
    pub eos: u32,
    /// Virtual cost of one packed decode step.
    pub step_cost_ns: u64,
    /// Virtual cost of admitting one request (the encoder prefill).
    pub admit_cost_ns: u64,
}

impl ServeConfig {
    /// A small default: 1 ms per step, 2 ms per admission.
    pub fn new(queue_cap: usize, max_out: usize, eos: u32) -> ServeConfig {
        ServeConfig {
            queue_cap,
            max_out,
            eos,
            step_cost_ns: 1_000_000,
            admit_cost_ns: 2_000_000,
        }
    }
}

/// One admission, as logged: the deterministic artifact the golden test
/// pins and the double-run fingerprint includes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionRecord {
    /// Arrival sequence number of the request.
    pub seq: u64,
    pub id: u64,
    pub task: Task,
    pub slot: usize,
    /// Virtual admission time.
    pub admitted_ns: u64,
    /// Time spent queued (admitted − arrival).
    pub queue_wait_ns: u64,
}

impl AdmissionRecord {
    /// Stable one-line rendering (golden log format).
    pub fn render(&self) -> String {
        format!(
            "seq={} id={} task={} slot={} t={} wait={}",
            self.seq,
            self.id,
            self.task.label(),
            self.slot,
            self.admitted_ns,
            self.queue_wait_ns
        )
    }
}

/// A request resident in a batcher slot.
struct InFlight {
    req: ServeRequest,
    arrival_ns: u64,
    tokens: Vec<u32>,
    prev: u32,
    /// Packed steps this request has taken (cross-checked against the
    /// batcher's retirement event).
    steps: usize,
}

/// Per-task tallies for the fairness report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskTally {
    pub arrivals: u64,
    pub completed: u64,
    pub rejected: u64,
}

/// The serving scheduler over a [`BatchDecoder`].
pub struct ServeEngine<D: BatchDecoder> {
    dec: D,
    cfg: ServeConfig,
    now_ns: u64,
    queue: AdmissionQueue,
    slots: Vec<Option<InFlight>>,
    live: usize,
    next_seq: u64,
    log: Vec<AdmissionRecord>,
    /// Responses not yet drained by the caller.
    outbox: Vec<ServeResponse>,
    /// All responses ever produced (report of record).
    responses: Vec<ServeResponse>,
    per_task: BTreeMap<Task, TaskTally>,
    rejected: BTreeMap<&'static str, u64>,
    arrivals: u64,
    completed: u64,
    /// Expected batcher events for the current tick (cross-check).
    expected_events: Vec<SlotEvent>,
    /// Set by the first [`EngineError`]: the engine has drained all work
    /// with R005 responses and refuses everything thereafter.
    poisoned: bool,
    /// Reusable per-tick `(slot, prev)` list (zero-alloc steady state).
    active: Vec<(usize, u32)>,
    /// Reusable per-tick logits buffer, row-recycled by the decoder.
    logits_buf: Vec<Vec<f32>>,
}

impl<D: BatchDecoder> ServeEngine<D> {
    pub fn new(mut dec: D, cfg: ServeConfig) -> ServeEngine<D> {
        assert!(cfg.max_out > 0, "max_out must be positive");
        dec.reserve_steps(cfg.max_out);
        let capacity = dec.capacity();
        ServeEngine {
            dec,
            cfg,
            now_ns: 0,
            queue: AdmissionQueue::new(cfg.queue_cap),
            slots: (0..capacity).map(|_| None).collect(),
            live: 0,
            next_seq: 0,
            log: Vec::new(),
            outbox: Vec::new(),
            responses: Vec::new(),
            per_task: BTreeMap::new(),
            rejected: BTreeMap::new(),
            arrivals: 0,
            completed: 0,
            expected_events: Vec::new(),
            poisoned: false,
            active: Vec::with_capacity(capacity),
            logits_buf: Vec::with_capacity(capacity),
        }
    }

    /// Whether a tick invariant violation has drained the engine; a
    /// poisoned engine rejects all submissions with R005 and its ticks
    /// are no-ops.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Queued request count (queue depth gauge).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently resident in batcher slots.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.live == 0 && self.queue.is_empty()
    }

    /// The underlying decoder (cache statistics, test inspection).
    pub fn decoder(&self) -> &D {
        &self.dec
    }

    /// Mutable access to the underlying decoder (draining a prefix
    /// cache's event log after a run).
    pub fn decoder_mut(&mut self) -> &mut D {
        &mut self.dec
    }

    /// Moves the virtual clock forward to `t` (never backward): external
    /// time injection for real-time drivers; a no-op when `t` is in the
    /// past.
    pub fn advance_to(&mut self, t_ns: u64) {
        self.now_ns = self.now_ns.max(t_ns);
    }

    /// Accepts one request arriving at `arrival_ns` (≤ now, clamped
    /// otherwise). A full queue or an already-expired deadline produces
    /// an immediate typed rejection response.
    pub fn submit(&mut self, req: ServeRequest) {
        self.advance_to(0);
        let arrival = self.now_ns;
        self.submit_at(arrival, req);
    }

    /// [`submit`](Self::submit) with an explicit arrival timestamp (the
    /// trace replay path: the engine may notice an arrival later than the
    /// client sent it; latency is measured from the client's send).
    pub fn submit_at(&mut self, arrival_ns: u64, req: ServeRequest) {
        self.advance_to(arrival_ns);
        self.arrivals += 1;
        self.per_task.entry(req.task).or_default().arrivals += 1;
        if obs::enabled() {
            obs::counter_add("serve.arrivals", 1);
        }
        if self.poisoned {
            self.reject(req, arrival_ns, Rejection::Internal);
            return;
        }
        if !self.in_vocab(&req.src) {
            self.reject(req, arrival_ns, Rejection::OutOfVocab);
            return;
        }
        if req.deadline_ns <= self.now_ns {
            self.reject(req, arrival_ns, Rejection::DeadlineQueued);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let item = Queued {
            seq,
            arrival_ns,
            req,
        };
        if let Err(bounced) = self.queue.push(item) {
            self.reject(bounced.req, arrival_ns, Rejection::QueueFull);
        } else if obs::enabled() {
            obs::gauge_set("serve.queue_depth", self.queue.len() as f64);
        }
    }

    /// Whether every id of `src` — as admission will see it, an empty
    /// source being a lone EOS — indexes the decoder's embedding table.
    fn in_vocab(&self, src: &[u32]) -> bool {
        let vocab = self.dec.vocab();
        let ok = |&id: &u32| usize::try_from(id).is_ok_and(|id| id < vocab);
        if src.is_empty() {
            ok(&self.cfg.eos)
        } else {
            src.iter().all(ok)
        }
    }

    fn respond(&mut self, resp: ServeResponse) {
        if obs::enabled() {
            obs::observe_ns("serve.latency_ns", resp.latency_ns());
            match resp.outcome {
                Outcome::Completed => {
                    obs::counter_add("serve.completed", 1);
                    obs::counter_add(&format!("serve.completed.{}", resp.task.label()), 1);
                }
                Outcome::Rejected(r) => {
                    obs::counter_add(&format!("serve.rejected.{}", r.label()), 1);
                }
            }
        }
        match resp.outcome {
            Outcome::Completed => {
                self.completed += 1;
                self.per_task.entry(resp.task).or_default().completed += 1;
            }
            Outcome::Rejected(r) => {
                *self.rejected.entry(r.label()).or_insert(0) += 1;
                self.per_task.entry(resp.task).or_default().rejected += 1;
            }
        }
        self.outbox.push(resp.clone());
        self.responses.push(resp);
    }

    fn reject(&mut self, req: ServeRequest, arrival_ns: u64, why: Rejection) {
        let resp = ServeResponse {
            id: req.id,
            task: req.task,
            outcome: Outcome::Rejected(why),
            tokens: Vec::new(),
            arrival_ns,
            finished_ns: self.now_ns,
        };
        self.respond(resp);
    }

    /// Responses produced since the last drain (completions *and*
    /// rejections), in production order.
    pub fn drain_responses(&mut self) -> Vec<ServeResponse> {
        std::mem::take(&mut self.outbox)
    }

    /// One scheduler tick; returns `Ok(true)` if a decode step ran. With
    /// an empty queue and no live request this is a no-op. The first
    /// invariant violation poisons the engine (all work drains with R005
    /// responses) and returns the violation; every later tick is an
    /// `Ok(false)` no-op.
    pub fn tick(&mut self) -> Result<bool, EngineError> {
        if self.poisoned {
            return Ok(false);
        }
        match self.tick_inner() {
            Ok(stepped) => Ok(stepped),
            Err(e) => {
                self.poison();
                Err(e)
            }
        }
    }

    /// The tick body. Any `Err` leaves bookkeeping mid-transition;
    /// [`tick`](Self::tick) immediately poisons the engine, which is the
    /// only caller allowed to observe that state.
    fn tick_inner(&mut self) -> Result<bool, EngineError> {
        // 1. Expire overdue queued requests.
        for item in self.queue.expire(self.now_ns) {
            self.reject(item.req, item.arrival_ns, Rejection::DeadlineQueued);
        }

        // 2. Fill free slots in (priority, arrival) order.
        let mut admissions = 0u64;
        while self.live < self.slots.len() && !self.queue.is_empty() {
            let Some(item) = self.queue.pop() else {
                return Err(EngineError::EmptyQueuePop);
            };
            // An empty prompt still carries the EOS marker, mirroring
            // `encode_with_eos` (the encoder needs at least one token).
            let src = if item.req.src.is_empty() {
                // hot-ok: admission path — runs once per request, never in a steady tick
                vec![self.cfg.eos]
            } else {
                // hot-ok: admission path — the decoder keeps no reference to src
                item.req.src.clone()
            };
            let Some(slot) = self.dec.admit(&src) else {
                // The popped item is in neither the queue nor a slot;
                // give it its terminal R005 response before bailing so
                // accounting survives the poison.
                self.reject(item.req, item.arrival_ns, Rejection::Internal);
                return Err(EngineError::AdmitRefused {
                    queued: self.queue.len(),
                });
            };
            if !matches!(self.slots.get(slot), Some(None)) {
                self.reject(item.req, item.arrival_ns, Rejection::Internal);
                return Err(EngineError::SlotUnavailable { slot });
            }
            self.expected_events.push(SlotEvent::Admitted {
                slot,
                src_len: src.len(),
            });
            self.log.push(AdmissionRecord {
                seq: item.seq,
                id: item.req.id,
                task: item.req.task,
                slot,
                admitted_ns: self.now_ns,
                queue_wait_ns: self.now_ns.saturating_sub(item.arrival_ns),
            });
            if let Some(entry) = self.slots.get_mut(slot) {
                *entry = Some(InFlight {
                    req: item.req,
                    arrival_ns: item.arrival_ns,
                    // hot-ok: admission path — one reservation per request, reused every tick
                    tokens: Vec::with_capacity(self.cfg.max_out),
                    prev: DECODER_START,
                    steps: 0,
                });
                self.live += 1;
                admissions += 1;
            }
        }
        if obs::enabled() {
            if admissions > 0 {
                obs::counter_add("serve.admitted", admissions);
            }
            obs::gauge_set("serve.queue_depth", self.queue.len() as f64);
            obs::gauge_set(
                "serve.slot_occupancy",
                self.live as f64 / self.slots.len() as f64,
            );
            obs::gauge_set("serve.kv_cache_bytes", self.dec.cache_bytes() as f64);
        }

        // 3. One packed decode step over every live slot. The `active`
        // and logits buffers are engine-owned and recycled tick to tick;
        // on the error paths below they are simply dropped — the engine
        // is poisoned and will never tick again.
        let stepped = self.live > 0;
        if stepped {
            let mut active = std::mem::take(&mut self.active);
            active.clear();
            active.extend(
                self.slots
                    .iter()
                    .enumerate()
                    .filter_map(|(slot, s)| s.as_ref().map(|f| (slot, f.prev))),
            );
            let mut logits = std::mem::take(&mut self.logits_buf);
            self.dec.step_packed_into(&active, &mut logits);
            if logits.len() != active.len() {
                return Err(EngineError::LogitsArity {
                    got: logits.len(),
                    want: active.len(),
                });
            }
            // The step and this tick's admissions are paid before the
            // post-step deadline check, so a deadline shorter than one
            // step retires its request with whatever that step emitted.
            self.now_ns += self.cfg.step_cost_ns + admissions * self.cfg.admit_cost_ns;
            let mut emitted = 0u64;
            for (&(slot, _), row) in active.iter().zip(logits.iter()) {
                let Some(f) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                    return Err(EngineError::VacantActiveSlot { slot });
                };
                f.steps += 1;
                let deadline_ns = f.req.deadline_ns;
                let next = argmax(row);
                let mut finished = next == self.cfg.eos;
                if !finished {
                    f.tokens.push(next);
                    f.prev = next;
                    emitted += 1;
                    finished = f.tokens.len() >= self.cfg.max_out;
                }
                if finished {
                    let flight = self.take_flight(slot)?;
                    self.finish_flight(slot, flight, Outcome::Completed);
                } else if deadline_ns <= self.now_ns {
                    let flight = self.take_flight(slot)?;
                    self.finish_flight(
                        slot,
                        flight,
                        Outcome::Rejected(Rejection::DeadlineDecoding),
                    );
                }
            }
            self.active = active;
            self.logits_buf = logits;
            if obs::enabled() && emitted > 0 {
                obs::counter_add("serve.tokens", emitted);
            }
        } else {
            self.now_ns += admissions * self.cfg.admit_cost_ns;
        }

        // 4. The batcher's own event log must mirror the scheduler's.
        let got = self.dec.take_slot_events();
        let expected = std::mem::take(&mut self.expected_events);
        if got != expected {
            return Err(EngineError::EventDivergence { got, expected });
        }
        Ok(stepped)
    }

    /// Removes the request resident in `slot` (typed counterpart of the
    /// old finish-of-empty-slot panic).
    fn take_flight(&mut self, slot: usize) -> Result<InFlight, EngineError> {
        self.slots
            .get_mut(slot)
            .and_then(Option::take)
            .ok_or(EngineError::FinishOfEmptySlot { slot })
    }

    /// Retires a removed request with `outcome` and emits its response.
    fn finish_flight(&mut self, slot: usize, f: InFlight, outcome: Outcome) {
        self.live -= 1;
        self.dec.retire(slot);
        self.expected_events.push(SlotEvent::Retired {
            slot,
            steps: f.steps,
        });
        let resp = ServeResponse {
            id: f.req.id,
            task: f.req.task,
            outcome,
            tokens: f.tokens,
            arrival_ns: f.arrival_ns,
            finished_ns: self.now_ns,
        };
        self.respond(resp);
    }

    /// Drains every queued and in-flight request with a terminal R005
    /// response and marks the engine refused-for-business. The decoder
    /// is deliberately not touched: its bookkeeping is the suspect.
    fn poison(&mut self) {
        self.poisoned = true;
        self.expected_events.clear();
        for item in self.queue.drain_all() {
            self.reject(item.req, item.arrival_ns, Rejection::Internal);
        }
        for slot in 0..self.slots.len() {
            if let Some(f) = self.slots.get_mut(slot).and_then(Option::take) {
                let resp = ServeResponse {
                    id: f.req.id,
                    task: f.req.task,
                    outcome: Outcome::Rejected(Rejection::Internal),
                    tokens: f.tokens,
                    arrival_ns: f.arrival_ns,
                    finished_ns: self.now_ns,
                };
                self.respond(resp);
            }
        }
        self.live = 0;
    }

    /// Replays a fixed arrival trace to completion (the deterministic
    /// path): arrivals are submitted when the virtual clock reaches
    /// them, the clock jumps over idle gaps, and the loop runs until
    /// every request has a terminal response.
    ///
    /// On an [`EngineError`] the engine poisons itself; the remaining
    /// trace arrivals are still submitted (each draws an immediate R005
    /// rejection) so the accounting invariant holds, then the error is
    /// returned.
    pub fn run_trace(&mut self, trace: &[(u64, ServeRequest)]) -> Result<(), EngineError> {
        let _span = obs::span!("serve/run_trace");
        let mut next = 0usize;
        loop {
            while next < trace.len() && trace[next].0 <= self.now_ns {
                let (arrival, req) = &trace[next];
                self.submit_at(*arrival, req.clone());
                next += 1;
            }
            if self.is_idle() {
                match trace.get(next) {
                    Some(&(t, _)) => self.advance_to(t),
                    None => return Ok(()),
                }
                continue;
            }
            if let Err(e) = self.tick() {
                for (arrival, req) in trace.iter().skip(next) {
                    self.submit_at(*arrival, req.clone());
                }
                return Err(e);
            }
        }
    }

    /// Shuts the engine down: every queued and in-flight request is
    /// retired with [`Rejection::Shutdown`] (keeping partial tokens),
    /// and the batcher must end with zero live KV bytes. A poisoned
    /// engine has already drained itself (with R005, not R004) and its
    /// batcher bookkeeping is untrusted, so the cross-checks are
    /// skipped.
    pub fn shutdown(&mut self) {
        for item in self.queue.drain_all() {
            self.reject(item.req, item.arrival_ns, Rejection::Shutdown);
        }
        for slot in 0..self.slots.len() {
            if let Some(f) = self.slots.get_mut(slot).and_then(Option::take) {
                self.finish_flight(slot, f, Outcome::Rejected(Rejection::Shutdown));
            }
        }
        if !self.poisoned {
            let got = self.dec.take_slot_events();
            let expected = std::mem::take(&mut self.expected_events);
            assert_eq!(got, expected, "shutdown slot events diverged");
            assert_eq!(
                self.dec.cache_bytes(),
                0,
                "KV cache bytes leaked past shutdown"
            );
        }
        if obs::enabled() {
            obs::gauge_set("serve.kv_cache_bytes", 0.0);
            obs::gauge_set("serve.slot_occupancy", 0.0);
        }
    }

    /// Finishes the run and produces the report of record. Panics if any
    /// request is still queued or in flight — call
    /// [`shutdown`](Self::shutdown) first unless the run drained.
    pub fn into_report(self) -> ServeReport {
        assert!(
            self.live == 0 && self.queue.is_empty(),
            "into_report with work outstanding (live={}, queued={})",
            self.live,
            self.queue.len()
        );
        let mut responses = self.responses;
        responses.sort_by_key(|r| r.id);
        ServeReport {
            responses,
            admission_log: self.log,
            arrivals: self.arrivals,
            completed: self.completed,
            rejected: self.rejected,
            per_task: self.per_task,
            end_ns: self.now_ns,
            cache: self.dec.prefix_cache_stats(),
        }
    }
}

/// Everything a finished run produced, in deterministic order.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One response per arrival, sorted by request id.
    pub responses: Vec<ServeResponse>,
    /// Admissions in admission order.
    pub admission_log: Vec<AdmissionRecord>,
    pub arrivals: u64,
    pub completed: u64,
    /// Rejection label → count.
    pub rejected: BTreeMap<&'static str, u64>,
    pub per_task: BTreeMap<Task, TaskTally>,
    /// Virtual time when the run finished.
    pub end_ns: u64,
    /// Prefix-cache tallies, when the decoder carries a cache.
    /// Deliberately **excluded** from [`fingerprint`](Self::fingerprint):
    /// the cache must be invisible at the bits level, and a fingerprint
    /// that mentioned hit counts would (correctly) differ between
    /// cache-on and cache-off runs of the same trace.
    pub cache: Option<CacheStats>,
}

impl ServeReport {
    /// Total rejections across all kinds.
    pub fn rejections(&self) -> u64 {
        self.rejected.values().sum()
    }

    /// The no-silent-drop invariant: every arrival has exactly one
    /// terminal response.
    pub fn accounted(&self) -> bool {
        self.arrivals == self.completed + self.rejections()
            && self.responses.len() as u64 == self.arrivals
    }

    /// Sorted completion latencies, optionally restricted to one task.
    pub fn latencies_ns(&self, task: Option<Task>) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .responses
            .iter()
            .filter(|r| r.outcome == Outcome::Completed)
            .filter(|r| task.is_none_or(|t| r.task == t))
            .map(ServeResponse::latency_ns)
            .collect();
        out.sort_unstable();
        out
    }

    /// Nearest-rank percentile of a sorted sample (`p` in 0..=100).
    pub fn percentile_ns(sorted: &[u64], p: u32) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p as usize * sorted.len()).div_ceil(100)).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Completion-share fairness across the four tasks: the minimum over
    /// tasks of `completed / arrivals`, divided by the maximum — 1.0
    /// when every task's completion rate is equal, 0.0 when some task
    /// starves entirely. Tasks with no arrivals are excluded.
    pub fn fairness(&self) -> f64 {
        let rates: Vec<f64> = self
            .per_task
            .values()
            .filter(|t| t.arrivals > 0)
            .map(|t| t.completed as f64 / t.arrivals as f64)
            .collect();
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(0.0f64, f64::max);
        if rates.is_empty() || max == 0.0 {
            return 0.0;
        }
        min / max
    }

    /// A bitwise-stable rendering of everything scheduling-visible:
    /// admission log, every response's outcome and tokens, and the final
    /// clock. Two runs of one trace must produce equal fingerprints —
    /// the double-run contract.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for rec in &self.admission_log {
            let _ = writeln!(s, "admit {}", rec.render());
        }
        for r in &self.responses {
            let outcome = match r.outcome {
                Outcome::Completed => "completed".to_string(),
                Outcome::Rejected(rej) => rej.code().to_string(),
            };
            let _ = writeln!(
                s,
                "resp id={} task={} outcome={} arrival={} finished={} tokens={:?}",
                r.id,
                r.task.label(),
                outcome,
                r.arrival_ns,
                r.finished_ns,
                r.tokens
            );
        }
        let _ = writeln!(s, "end t={} arrivals={}", self.end_ns, self.arrivals);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ScriptedDecoder;

    const EOS: u32 = 1;

    fn engine(slots: usize, queue_cap: usize) -> ServeEngine<ScriptedDecoder> {
        // Script: request emits `src[0]` tokens (vocab id 5), then EOS.
        let dec = ScriptedDecoder::new(slots, 8, EOS, |src| {
            vec![5; src.first().copied().unwrap_or(0) as usize]
        });
        ServeEngine::new(dec, ServeConfig::new(queue_cap, 16, EOS))
    }

    fn req(id: u64, len: u32) -> ServeRequest {
        ServeRequest::new(id, Task::TextToVis, vec![len])
    }

    #[test]
    fn single_request_completes_with_scripted_tokens() {
        let mut e = engine(2, 4);
        e.submit(req(0, 3));
        e.run_trace(&[]).unwrap();
        let report = e.into_report();
        assert!(report.accounted());
        assert_eq!(report.responses[0].outcome, Outcome::Completed);
        assert_eq!(report.responses[0].tokens, vec![5, 5, 5]);
        assert_eq!(report.admission_log.len(), 1);
    }

    #[test]
    fn queue_overflow_rejects_with_r001() {
        let mut e = engine(1, 1);
        // Slot takes one, queue takes one, third bounces.
        e.submit(req(0, 5));
        e.tick().unwrap(); // admits request 0 into the slot
        e.submit(req(1, 5));
        e.submit(req(2, 5));
        let resp: Vec<_> = e.drain_responses();
        let bounced = resp.iter().find(|r| r.id == 2).expect("response for #2");
        assert_eq!(bounced.outcome, Outcome::Rejected(Rejection::QueueFull));
        e.run_trace(&[]).unwrap();
        let report = e.into_report();
        assert!(report.accounted());
        assert_eq!(report.rejected["queue-full"], 1);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn max_out_caps_runaway_decodes() {
        let mut e = engine(1, 2);
        e.submit(req(0, 100)); // wants 100 tokens, cap is 16
        e.run_trace(&[]).unwrap();
        let report = e.into_report();
        assert_eq!(report.responses[0].tokens.len(), 16);
        assert_eq!(report.responses[0].outcome, Outcome::Completed);
    }

    #[test]
    fn fingerprint_is_stable_across_runs() {
        let trace: Vec<(u64, ServeRequest)> = (0..6)
            .map(|i| (i * 500_000, req(i, (i % 3) as u32 + 1)))
            .collect();
        let run = || {
            let mut e = engine(2, 3);
            e.run_trace(&trace).unwrap();
            e.into_report().fingerprint()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(ServeReport::percentile_ns(&sorted, 50), 50);
        assert_eq!(ServeReport::percentile_ns(&sorted, 99), 99);
        assert_eq!(ServeReport::percentile_ns(&sorted, 100), 100);
        assert_eq!(ServeReport::percentile_ns(&[7], 99), 7);
        assert_eq!(ServeReport::percentile_ns(&[], 50), 0);
    }
}
