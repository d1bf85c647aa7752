//! Property tests for the scheduler, on randomized arrival traces ×
//! deadlines × queue bounds (scripted decoder — scheduler properties do
//! not depend on model weights).
//!
//! Invariants under test:
//!
//! 1. **No slot double-assignment** — the batcher's event log never
//!    admits into a slot that is still occupied (checked by replaying
//!    the log against a free/occupied bitmap).
//! 2. **Every admitted request terminates** — EOS/cap completion,
//!    deadline retirement, or shutdown; admissions == retirements and
//!    no slot is live after the run.
//! 3. **FIFO within priority** — the admission log, restricted to any
//!    one priority class, is ordered by arrival sequence.
//! 4. **Conservation** — rejections + completions == arrivals, exactly
//!    one response per request id, nothing silently dropped.
//! 5. **Cache transparency** — with a prefix cache attached, all of the
//!    above still hold, the fingerprint equals the uncached run's (the
//!    cache is invisible at the bits level), shutdown leaves zero slot
//!    KV bytes *and* zero pinned cache entries, and double-running one
//!    trace reproduces the cache tallies exactly.

use std::collections::BTreeMap;

use datavist5::data::Task;
use nn::batch::SlotEvent;
use nn::prefix_cache::CacheStats;
use proptest::prelude::*;
use serve::{
    BatchDecoder, Outcome, PrefixCache, Priority, Rejection, ScriptedDecoder, ServeConfig,
    ServeEngine, ServeReport, ServeRequest,
};
use tensor::XorShift;

const EOS: u32 = 1;
const VOCAB: usize = 16;
const MAX_OUT: usize = 8;

/// A seeded random trace: arrivals with jittered gaps, random script
/// lengths (the first source token), priorities 0–2, and a random mix
/// of no/loose/tight deadlines.
fn random_trace(seed: u64, n: usize) -> Vec<(u64, ServeRequest)> {
    let mut rng = XorShift::new(seed.wrapping_mul(2_654_435_761).wrapping_add(1));
    let mut t = 0u64;
    (0..n)
        .map(|i| {
            t += rng.next_u64() % 3_000_000;
            let want = 1 + (rng.next_u64() % 6) as u32;
            let src = vec![want, 2 + (rng.next_u64() % 8) as u32];
            let mut req = ServeRequest::new(i as u64, Task::ALL[i % 4], src)
                .with_priority((rng.next_u64() % 3) as Priority);
            match rng.next_u64() % 3 {
                0 => {}
                1 => req = req.with_deadline(t + 50_000_000), // loose
                _ => req = req.with_deadline(t + rng.next_u64() % 4_000_000), // tight
            }
            (t, req)
        })
        .collect()
}

/// A decoder wrapper that tees every slot event into an external log
/// before the engine drains them.
struct EventTap<'a, D: BatchDecoder> {
    inner: D,
    tee: &'a mut Vec<SlotEvent>,
}

impl<D: BatchDecoder> BatchDecoder for EventTap<'_, D> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn admit(&mut self, src: &[u32]) -> Option<usize> {
        self.inner.admit(src)
    }
    fn retire(&mut self, slot: usize) {
        self.inner.retire(slot)
    }
    fn step_packed_into(&mut self, active: &[(usize, u32)], out: &mut Vec<Vec<f32>>) {
        self.inner.step_packed_into(active, out)
    }
    fn reserve_steps(&mut self, max_steps: usize) {
        self.inner.reserve_steps(max_steps)
    }
    fn cache_bytes(&self) -> usize {
        self.inner.cache_bytes()
    }
    fn vocab(&self) -> usize {
        self.inner.vocab()
    }
    fn take_slot_events(&mut self) -> Vec<SlotEvent> {
        let events = self.inner.take_slot_events();
        self.tee.extend(events.iter().copied());
        events
    }
    fn prefix_cache_stats(&self) -> Option<CacheStats> {
        self.inner.prefix_cache_stats()
    }
}

/// Runs a trace to completion (`shutdown_after == None`) or for a fixed
/// tick budget followed by a shutdown, returning the report plus the
/// raw slot-event stream.
fn run(
    trace: &[(u64, ServeRequest)],
    slots: usize,
    queue_cap: usize,
    shutdown_after: Option<usize>,
) -> (ServeReport, Vec<SlotEvent>) {
    run_with_cache(trace, slots, queue_cap, shutdown_after, None)
}

/// [`run`] with an optional prefix cache of `cache_cap` bytes attached
/// to the scripted decoder. After the run, asserts the cache drained
/// cleanly: zero pinned entries (every retirement released its pin),
/// internal accounting consistent, budget held.
fn run_with_cache(
    trace: &[(u64, ServeRequest)],
    slots: usize,
    queue_cap: usize,
    shutdown_after: Option<usize>,
    cache_cap: Option<usize>,
) -> (ServeReport, Vec<SlotEvent>) {
    let mut events = Vec::new();
    let mut inner = ScriptedDecoder::new(slots, VOCAB, EOS, |src| {
        vec![3; src.first().copied().unwrap_or(0) as usize]
    });
    if let Some(cap) = cache_cap {
        inner = inner.with_prefix_cache(PrefixCache::new(cap));
    }
    let dec = EventTap {
        inner,
        tee: &mut events,
    };
    let mut engine = ServeEngine::new(dec, ServeConfig::new(queue_cap, MAX_OUT, EOS));
    match shutdown_after {
        None => engine
            .run_trace(trace)
            .expect("scripted trace never poisons"),
        Some(ticks) => {
            // Everything arrives up front, the engine runs a bounded
            // number of ticks, then shuts down mid-flight.
            for (arrival, req) in trace {
                engine.submit_at(*arrival, req.clone());
            }
            for _ in 0..ticks {
                engine.tick().expect("scripted tick never poisons");
            }
            engine.shutdown();
        }
    }
    // Shutdown (or drain) left no live slots: the scripted decoder's
    // per-slot KV accounting must be back to zero while the prefix
    // cache itself drains cleanly — resident entries are fine, pins
    // are not.
    assert_eq!(engine.decoder().cache_bytes(), 0, "slot KV bytes leaked");
    if let Some(cache) = engine.decoder().inner.prefix_cache() {
        assert_eq!(cache.pinned_entries(), 0, "retirement leaked a pin");
        assert!(cache.bytes() <= cache.cap_bytes());
        cache.audit();
    }
    let report = engine.into_report();
    (report, events)
}

/// Invariants 1–2: replaying the event log never admits into an
/// occupied slot, never retires a free one, every admission is
/// eventually retired, and all slots end free.
fn check_slot_discipline(events: &[SlotEvent], capacity: usize) {
    let mut occupied = vec![false; capacity];
    let (mut admits, mut retires) = (0usize, 0usize);
    for ev in events {
        match *ev {
            SlotEvent::Admitted { slot, .. } => {
                assert!(slot < capacity, "slot out of range");
                assert!(!occupied[slot], "slot {slot} double-assigned");
                occupied[slot] = true;
                admits += 1;
            }
            SlotEvent::Retired { slot, .. } => {
                assert!(occupied[slot], "slot {slot} retired while free");
                occupied[slot] = false;
                retires += 1;
            }
        }
    }
    assert_eq!(admits, retires, "an admitted request never terminated");
    assert!(
        occupied.iter().all(|&o| !o),
        "live slots remain after the run"
    );
}

fn check_all(
    trace: &[(u64, ServeRequest)],
    report: &ServeReport,
    events: &[SlotEvent],
    slots: usize,
) {
    check_slot_discipline(events, slots);
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, SlotEvent::Admitted { .. }))
            .count(),
        report.admission_log.len(),
        "event log and admission log disagree"
    );

    // Invariant 3: FIFO within priority over the admission log.
    let prio_of: BTreeMap<u64, Priority> = trace.iter().map(|(_, r)| (r.id, r.priority)).collect();
    let mut last_seq: BTreeMap<Priority, u64> = BTreeMap::new();
    for rec in &report.admission_log {
        let p = prio_of[&rec.id];
        if let Some(&prev) = last_seq.get(&p) {
            assert!(
                rec.seq > prev,
                "priority {p}: admission seq {} after {} (FIFO violated)",
                rec.seq,
                prev
            );
        }
        last_seq.insert(p, rec.seq);
    }

    // Invariant 4: conservation.
    assert!(report.accounted(), "arrivals != completed + rejected");
    assert_eq!(report.arrivals as usize, trace.len());
    let ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    let mut dedup = ids.clone();
    dedup.dedup(); // responses are sorted by id
    assert_eq!(ids.len(), dedup.len(), "duplicate responses for one id");

    // Response hygiene: queue-side rejections carry no tokens; nothing
    // exceeds the output cap; time never runs backward.
    for r in &report.responses {
        match r.outcome {
            Outcome::Completed => assert!(r.tokens.len() <= MAX_OUT),
            Outcome::Rejected(Rejection::QueueFull | Rejection::DeadlineQueued) => {
                assert!(r.tokens.is_empty(), "queue-side rejection carries tokens")
            }
            Outcome::Rejected(_) => assert!(r.tokens.len() <= MAX_OUT),
        }
        assert!(r.finished_ns >= r.arrival_ns);
    }
}

proptest! {
    /// Drained runs: the trace replays to completion.
    #[test]
    fn drained_runs_hold_all_invariants(
        seed in 0u64..300,
        n in 1usize..=24,
        slots in 1usize..=4,
        queue_cap in 1usize..=6,
    ) {
        let trace = random_trace(seed, n);
        let (report, events) = run(&trace, slots, queue_cap, None);
        check_all(&trace, &report, &events, slots);
    }

    /// Interrupted runs: shutdown fires with requests still queued and
    /// in flight; everything must still terminate and account, with
    /// typed shutdown rejections rather than silent drops.
    #[test]
    fn shutdown_mid_flight_holds_all_invariants(
        seed in 300u64..600,
        n in 1usize..=24,
        slots in 1usize..=4,
        queue_cap in 1usize..=6,
        ticks in 0usize..=6,
    ) {
        let trace = random_trace(seed, n);
        let (report, events) = run(&trace, slots, queue_cap, Some(ticks));
        check_all(&trace, &report, &events, slots);
    }

    /// Determinism as a property: any generated trace double-runs to an
    /// identical fingerprint.
    #[test]
    fn any_trace_double_runs_identically(
        seed in 600u64..800,
        n in 1usize..=16,
        slots in 1usize..=4,
        queue_cap in 1usize..=6,
    ) {
        let trace = random_trace(seed, n);
        let (a, _) = run(&trace, slots, queue_cap, None);
        let (b, _) = run(&trace, slots, queue_cap, None);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// Invariant 5, drained runs: with caching on, every scheduler
    /// invariant still holds and the fingerprint is bit-identical to
    /// the uncached run of the same trace. Small byte budgets force
    /// eviction and bypass mid-run; `run_with_cache` itself asserts the
    /// cache drains with zero pins.
    #[test]
    fn cached_runs_hold_all_invariants_and_match_uncached_fingerprints(
        seed in 800u64..1000,
        n in 1usize..=24,
        slots in 1usize..=4,
        queue_cap in 1usize..=6,
        cache_cap in 100usize..=4000,
    ) {
        let trace = random_trace(seed, n);
        let (cached, events) = run_with_cache(&trace, slots, queue_cap, None, Some(cache_cap));
        check_all(&trace, &cached, &events, slots);
        prop_assert!(cached.cache.is_some(), "cached run reports tallies");
        let (plain, _) = run(&trace, slots, queue_cap, None);
        prop_assert_eq!(cached.fingerprint(), plain.fingerprint(),
            "prefix cache leaked into observable bits");
    }

    /// Invariant 5, interrupted runs: shutdown mid-flight still drains
    /// every pin and accounts every request with caching on.
    #[test]
    fn cached_shutdown_mid_flight_holds_all_invariants(
        seed in 1000u64..1200,
        n in 1usize..=24,
        slots in 1usize..=4,
        queue_cap in 1usize..=6,
        ticks in 0usize..=6,
        cache_cap in 100usize..=4000,
    ) {
        let trace = random_trace(seed, n);
        let (report, events) = run_with_cache(&trace, slots, queue_cap, Some(ticks), Some(cache_cap));
        check_all(&trace, &report, &events, slots);
    }

    /// Invariant 5, determinism: a cached trace double-runs to the same
    /// fingerprint *and* the same cache tallies (hit/miss/evict order is
    /// part of the deterministic history, not just the token bits).
    #[test]
    fn cached_double_runs_reproduce_fingerprint_and_tallies(
        seed in 1200u64..1400,
        n in 1usize..=16,
        slots in 1usize..=4,
        queue_cap in 1usize..=6,
        cache_cap in 100usize..=4000,
    ) {
        let trace = random_trace(seed, n);
        let (a, _) = run_with_cache(&trace, slots, queue_cap, None, Some(cache_cap));
        let (b, _) = run_with_cache(&trace, slots, queue_cap, None, Some(cache_cap));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.cache, b.cache, "cache tallies diverged across runs");
    }
}
