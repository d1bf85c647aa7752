//! The load loops and what is derived from their tick log.
//!
//! The load generator and the engine share one thread. The engine never
//! reads a clock (its per-step and per-admission costs are 0), so its
//! virtual time is exactly the time this module injects: each tick starts
//! with `advance_to(tick start)`, which makes every admission record's
//! `admitted_ns` equal the start of the tick that admitted it. That is
//! how a request is matched to its ticks, from outside the engine:
//!
//! * TTFT is the end of the admitting tick minus the request's due time
//!   (open loop) or send time (closed loop);
//! * a live request gains one token per tick, so token `j` lands at the
//!   end of the `j`-th tick after admission and the inter-token gaps are
//!   the differences between consecutive tick ends.

use std::time::Instant;

use datavist5::data::TaskRequest;
use serve::{BatchDecoder, Outcome, ServeEngine, ServeReport, ServeRequest};
use tokenizer::WordTokenizer;

/// Time source of the load loops, in ns since an arbitrary epoch.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns`.
    fn wait_until(&self, t_ns: u64);
}

/// The monotonic wall clock.
#[derive(Clone, Copy)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    pub fn new() -> RealClock {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        // Spin rather than sleep: waking a sleeping thread on a shared
        // host took milliseconds at the tail, and that lateness would
        // count into TTFT.
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// One engine tick as seen from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickRec {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Queue depth when the tick started (after the due submissions).
    pub queue_depth: usize,
}

/// One request as sent by the load loop.
#[derive(Debug, Clone)]
pub struct Sent {
    /// When the request was due (open loop) or sent (closed loop); the
    /// origin of its latencies and its `arrival_ns` in the engine.
    pub due_ns: u64,
    /// When the generator actually submitted it.
    pub sent_ns: u64,
    pub src: Vec<u32>,
}

/// A host-side span recorded by a traced load loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpan {
    pub name: &'static str,
    /// The request the span works for (`None` for ticks).
    pub id: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything a load loop observed.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Indexed by request id.
    pub sent: Vec<Sent>,
    pub ticks: Vec<TickRec>,
    /// Empty unless the loop ran traced.
    pub spans: Vec<HostSpan>,
    /// Loop start and the end of its sending window.
    pub start_ns: u64,
    pub window_end_ns: u64,
}

/// Shared state of the two load loops.
struct LoadLoop<'a, C: Clock> {
    clock: &'a C,
    tok: &'a WordTokenizer,
    trace: bool,
    tl: Timeline,
}

impl<C: Clock> LoadLoop<'_, C> {
    /// Encodes `req` on the serving thread and submits it as request
    /// `id`, due at `due_ns`.
    fn send<D: BatchDecoder>(
        &mut self,
        engine: &mut ServeEngine<D>,
        id: u64,
        req: &TaskRequest,
        due_ns: u64,
    ) {
        let t0 = self.clock.now_ns();
        let src = if self.trace {
            let text = req.input_text();
            let t1 = self.clock.now_ns();
            let src = self.tok.encode_with_eos(&text);
            let t2 = self.clock.now_ns();
            // Parent first: the span assembler attaches the two children
            // to the `encode` span just before them.
            self.span("encode", Some(id), t0, t2);
            self.span("data.input_text", Some(id), t0, t1);
            self.span("tokenizer.encode", Some(id), t1, t2);
            src
        } else {
            self.tok.encode_with_eos(&req.input_text())
        };
        let t3 = if self.trace { self.clock.now_ns() } else { 0 };
        engine.submit_at(due_ns, ServeRequest::new(id, req.task(), src.clone()));
        if self.trace {
            let t4 = self.clock.now_ns();
            self.span("submit", Some(id), t3, t4);
        }
        self.tl.sent.push(Sent {
            due_ns,
            sent_ns: t0,
            src,
        });
    }

    fn span(&mut self, name: &'static str, id: Option<u64>, start_ns: u64, end_ns: u64) {
        self.tl.spans.push(HostSpan {
            name,
            id,
            start_ns,
            end_ns,
        });
    }

    /// Runs one tick at the current time and logs it.
    fn tick<D: BatchDecoder>(&mut self, engine: &mut ServeEngine<D>) -> Result<(), String> {
        let start_ns = self.clock.now_ns();
        let queue_depth = engine.queue_depth();
        engine.advance_to(start_ns);
        engine
            .tick()
            .map_err(|e| format!("engine error at {start_ns} ns: {e}"))?;
        let end_ns = self.clock.now_ns();
        if self.trace {
            self.span("tick", None, start_ns, end_ns);
        }
        self.tl.ticks.push(TickRec {
            start_ns,
            end_ns,
            queue_depth,
        });
        Ok(())
    }
}

/// Open loop: request `i` is due at `start + due[i]` whether or not the
/// engine keeps up. Runs until every request has its response.
pub fn run_open<D: BatchDecoder, C: Clock>(
    engine: &mut ServeEngine<D>,
    clock: &C,
    tok: &WordTokenizer,
    reqs: &[TaskRequest],
    due: &[u64],
    trace: bool,
) -> Result<Timeline, String> {
    assert!(reqs.len() >= due.len(), "fewer requests than arrivals");
    let start = clock.now_ns();
    let mut d = LoadLoop {
        clock,
        tok,
        trace,
        tl: Timeline {
            start_ns: start,
            window_end_ns: start + due.last().map_or(0, |&t| t + 1),
            ..Timeline::default()
        },
    };
    let mut next = 0usize;
    loop {
        let now = clock.now_ns();
        while next < due.len() && start + due[next] <= now {
            d.send(engine, next as u64, &reqs[next], start + due[next]);
            next += 1;
        }
        engine.drain_responses();
        if engine.is_idle() {
            match due.get(next) {
                Some(&t) => clock.wait_until(start + t),
                None => break,
            }
            continue;
        }
        d.tick(engine)?;
    }
    Ok(d.tl)
}

/// Closed loop: `clients` requests outstanding; each response triggers
/// the next send, cycling through `reqs`, until `window_ns` has passed;
/// then the loop drains.
pub fn run_closed<D: BatchDecoder, C: Clock>(
    engine: &mut ServeEngine<D>,
    clock: &C,
    tok: &WordTokenizer,
    reqs: &[TaskRequest],
    clients: usize,
    window_ns: u64,
    trace: bool,
) -> Result<Timeline, String> {
    let start = clock.now_ns();
    let mut d = LoadLoop {
        clock,
        tok,
        trace,
        tl: Timeline {
            start_ns: start,
            window_end_ns: start + window_ns,
            ..Timeline::default()
        },
    };
    assert!(!reqs.is_empty(), "a closed loop needs requests");
    let mut next = 0usize;
    for _ in 0..clients {
        let now = clock.now_ns();
        d.send(engine, next as u64, &reqs[next % reqs.len()], now);
        next += 1;
    }
    while !engine.is_idle() {
        d.tick(engine)?;
        for _ in engine.drain_responses() {
            let now = clock.now_ns();
            if now < start + window_ns {
                d.send(engine, next as u64, &reqs[next % reqs.len()], now);
                next += 1;
            }
        }
    }
    Ok(d.tl)
}

/// Latencies of one request, derived from the tick log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqTiming {
    pub id: u64,
    pub completed: bool,
    pub tokens: usize,
    /// Admission-tick end minus due time (`None` if never admitted).
    pub ttft_ns: Option<u64>,
    /// Gaps between consecutive tokens.
    pub gaps_ns: Vec<u64>,
    /// Admission time minus due time.
    pub queue_wait_ns: Option<u64>,
}

impl ReqTiming {
    /// Mean inter-token gap (0 with fewer than two tokens).
    pub fn mean_gap_ns(&self) -> u64 {
        if self.gaps_ns.is_empty() {
            0
        } else {
            self.gaps_ns.iter().sum::<u64>() / self.gaps_ns.len() as u64
        }
    }
}

/// Derives every sent request's TTFT and inter-token gaps from the tick
/// log and the engine's admission log, cross-checking that each
/// completion happened in the tick the token count predicts.
pub fn request_timings(tl: &Timeline, report: &ServeReport) -> Result<Vec<ReqTiming>, String> {
    let mut out: Vec<ReqTiming> = (0..tl.sent.len() as u64)
        .map(|id| ReqTiming {
            id,
            completed: false,
            tokens: 0,
            ttft_ns: None,
            gaps_ns: Vec::new(),
            queue_wait_ns: None,
        })
        .collect();
    let tick_at = |t_ns: u64| {
        tl.ticks
            .binary_search_by_key(&t_ns, |t| t.start_ns)
            .map_err(|_| format!("no tick starts at {t_ns} ns"))
    };
    let mut admitted_in = vec![None; tl.sent.len()];
    for rec in &report.admission_log {
        let slot = admitted_in
            .get_mut(rec.id as usize)
            .ok_or_else(|| format!("admission of unknown request {}", rec.id))?;
        *slot = Some(tick_at(rec.admitted_ns)?);
    }
    for resp in &report.responses {
        let i = resp.id as usize;
        let due = tl
            .sent
            .get(i)
            .ok_or_else(|| format!("response for unknown request {i}"))?
            .due_ns;
        let t = &mut out[i];
        t.completed = resp.outcome == Outcome::Completed;
        t.tokens = resp.tokens.len();
        let Some(k) = admitted_in[i] else { continue };
        let n = resp.tokens.len();
        let ends = tl
            .ticks
            .get(k..k + n.max(1))
            .ok_or_else(|| format!("request {i}: tick log ends before its last token"))?;
        if t.completed {
            // The finishing tick is the last token's, or the next one
            // when the request stopped on EOS.
            let last = tick_at(resp.finished_ns)?;
            if last + 1 != k + n.max(1) && last != k + n {
                return Err(format!(
                    "request {i}: {n} tokens from tick {k} but finished in tick {last}"
                ));
            }
        }
        t.queue_wait_ns = Some(tl.ticks[k].start_ns - due);
        t.ttft_ns = Some(ends[0].end_ns - due);
        if n >= 2 {
            t.gaps_ns = ends.windows(2).map(|w| w[1].end_ns - w[0].end_ns).collect();
        }
    }
    Ok(out)
}

/// A latency objective: limits on TTFT and on each request's mean gap
/// between tokens.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub ttft_ns: u64,
    pub mean_gap_ns: u64,
}

impl Slo {
    /// Whether a request met the objective; a request that did not
    /// complete (or failed the output check) misses.
    pub fn met(&self, t: &ReqTiming, output_ok: bool) -> bool {
        output_ok
            && t.completed
            && t.ttft_ns.is_some_and(|v| v <= self.ttft_ns)
            && t.mean_gap_ns() <= self.mean_gap_ns
    }
}

/// The `p`-th percentile of `sorted`, smoothed: the mean of the samples
/// ranked within a quarter of a percentile point of it on either side.
/// Latencies here cluster by batch size (a step costs about the same per
/// sequence at any batch size), and a plain order statistic that falls
/// between two clusters jumps from one to the other when a seed shifts a
/// cluster's share slightly; the mean moves in step with the share
/// instead. The window is kept narrow so that the far costlier cluster of
/// gaps that wait for a cache miss's prefill (about half a percent of
/// `dashboard-open`'s gaps) stays out of its p99.
pub fn quantile_ns(sorted: &[u64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let lo = ((n as f64 * (p - 0.25) / 100.0).floor().max(0.0) as usize).min(n - 1);
    let hi = ((n as f64 * (p + 0.25) / 100.0).ceil() as usize).clamp(lo + 1, n);
    let window = &sorted[lo..hi];
    window.iter().map(|&v| v as f64).sum::<f64>() / window.len() as f64
}

/// The `p`-th percentile of timed samples, taken per window and averaged
/// over the windows. `samples` are `(time, value)` pairs with times
/// counted from the start of a span of `span_ns`. The span is cut into as
/// many equal windows as keeps each at least `min_window_ns` long and
/// holding, on average, at least ten samples beyond its percentile (one
/// window when there is not enough of either for two).
///
/// The host this was tuned on switches between a fast state and one
/// about 1.4 times slower every few seconds, in a share that drifts over
/// minutes. A percentile pooled over a whole run follows that share
/// steeply: a median jumps from one state's value to the other's when the
/// slow share crosses one half, and a p99 is drawn mostly from the slow
/// state's tail whenever there is any. The mean of per-window percentiles
/// moves in proportion to the share.
pub fn windowed_quantile_ns(
    samples: &[(u64, u64)],
    span_ns: u64,
    min_window_ns: u64,
    p: f64,
) -> f64 {
    let by_time = span_ns / min_window_ns.max(1);
    let by_count = (samples.len() as f64 * (100.0 - p) / 100.0 / 10.0) as u64;
    let windows = by_time.min(by_count).max(1);
    let mut by_window = vec![Vec::new(); windows as usize];
    for &(t, v) in samples {
        let k = (t.saturating_mul(windows) / span_ns.max(1)).min(windows - 1);
        by_window[k as usize].push(v);
    }
    let per_window: Vec<f64> = by_window
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_unstable();
            quantile_ns(w, p)
        })
        .collect();
    if per_window.is_empty() {
        0.0
    } else {
        per_window.iter().sum::<f64>() / per_window.len() as f64
    }
}

/// Whether the admission queue grew across the sending window: the mean
/// depth over its last quarter exceeds that over its second quarter by
/// more than one full batch (`slots`). The first quarter is skipped as
/// warm-up.
pub fn backlog_grows(tl: &Timeline, slots: usize) -> bool {
    let span = tl.window_end_ns.saturating_sub(tl.start_ns);
    if span == 0 {
        return false;
    }
    let quarter_mean = |q: u64| {
        let (lo, hi) = (tl.start_ns + span * q / 4, tl.start_ns + span * (q + 1) / 4);
        let depths: Vec<usize> = tl
            .ticks
            .iter()
            .filter(|t| t.start_ns >= lo && t.start_ns < hi)
            .map(|t| t.queue_depth)
            .collect();
        if depths.is_empty() {
            0.0
        } else {
            depths.iter().sum::<usize>() as f64 / depths.len() as f64
        }
    };
    quarter_mean(3) > quarter_mean(1) + slots as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use datavist5::data::Task;
    use nn::batch::SlotEvent;
    use serve::testing::ScriptedDecoder;
    use serve::ServeConfig;

    use std::cell::Cell;
    use std::rc::Rc;

    const EOS: u32 = 1;

    /// A clock that moves only when told to: by `wait_until`, or by whoever
    /// holds a handle (a test decoder charging a fixed cost per step).
    #[derive(Clone, Default)]
    pub struct FakeClock(pub Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }

        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    /// A scripted decoder whose every packed step costs `cost_ns` on a
    /// shared fake clock.
    struct Costly {
        inner: ScriptedDecoder,
        clock: FakeClock,
        cost_ns: u64,
    }

    impl BatchDecoder for Costly {
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
            self.clock.0.set(self.clock.0.get() + self.cost_ns);
            self.inner.step_packed_into(active, out)
        }
        fn cache_bytes(&self) -> usize {
            self.inner.cache_bytes()
        }
        fn take_slot_events(&mut self) -> Vec<SlotEvent> {
            self.inner.take_slot_events()
        }
    }

    /// Every request emits three tokens, then EOS.
    fn engine(clock: &FakeClock, slots: usize) -> ServeEngine<Costly> {
        let inner = ScriptedDecoder::new(slots, 16, EOS, |_| vec![5, 6, 7]);
        let dec = Costly {
            inner,
            clock: clock.clone(),
            cost_ns: 1000,
        };
        let mut cfg = ServeConfig::new(64, 3, EOS);
        cfg.step_cost_ns = 0;
        cfg.admit_cost_ns = 0;
        ServeEngine::new(dec, cfg)
    }

    /// `n` text requests (their content does not matter to the script).
    fn text_requests(n: usize) -> (WordTokenizer, Vec<TaskRequest>) {
        let corpus = corpus::Corpus::generate(&corpus::CorpusConfig {
            seed: 5,
            dbs_per_domain: 1,
            queries_per_db: 4,
            facts_per_db: 3,
        });
        let tok = WordTokenizer::fit(["a b c"], 1);
        (tok, bench::trace::corpus_requests(&corpus, n))
    }

    #[test]
    fn open_loop_ttft_and_gaps_match_hand_computed_values() {
        let clock = FakeClock::default();
        let mut e = engine(&clock, 1);
        let (tok, reqs) = text_requests(2);
        // Request 0 is due at 0 and runs in ticks [0,1000), [1000,2000),
        // [2000,3000), reaching the 3-token cap. Request 1 is due at 1500,
        // mid-tick; the generator sends it after that tick (lag 500), it
        // waits for the one slot, and is admitted in the tick at 3000.
        let tl = run_open(&mut e, &clock, &tok, &reqs, &[0, 1500], false).unwrap();
        let starts: Vec<u64> = tl.ticks.iter().map(|t| t.start_ns).collect();
        assert_eq!(starts, [0, 1000, 2000, 3000, 4000, 5000]);
        assert_eq!(tl.sent[1].sent_ns - tl.sent[1].due_ns, 500);
        e.shutdown();
        let report = e.into_report();
        let t = request_timings(&tl, &report).unwrap();
        assert_eq!(t[0].ttft_ns, Some(1000));
        assert_eq!(t[0].gaps_ns, [1000, 1000]);
        assert_eq!(t[0].queue_wait_ns, Some(0));
        assert_eq!(t[1].ttft_ns, Some(4000 - 1500));
        assert_eq!(t[1].gaps_ns, [1000, 1000]);
        assert_eq!(t[1].queue_wait_ns, Some(3000 - 1500));
        assert!(t.iter().all(|t| t.completed && t.tokens == 3));
        let slo = Slo {
            ttft_ns: 2000,
            mean_gap_ns: 1000,
        };
        assert!(slo.met(&t[0], true));
        assert!(!slo.met(&t[1], true), "TTFT 2500 misses a 2000 limit");
        assert!(!slo.met(&t[0], false), "a failed output check misses");
    }

    #[test]
    fn closed_loop_sends_on_each_completion() {
        let clock = FakeClock::default();
        let mut e = engine(&clock, 2);
        let (tok, reqs) = text_requests(8);
        // Two clients on two slots: each request takes ticks of 1000 ns
        // and three tokens, so a new pair starts every 3000 ns until the
        // 5000 ns window closes.
        let tl = run_closed(&mut e, &clock, &tok, &reqs, 2, 5000, false).unwrap();
        e.shutdown();
        let report = e.into_report();
        assert!(report.accounted());
        assert_eq!(tl.sent.len(), 4);
        assert_eq!(tl.sent[2].due_ns, 3000);
        let t = request_timings(&tl, &report).unwrap();
        assert!(t.iter().all(|t| t.ttft_ns == Some(1000)));
        assert!(t.iter().all(|t| t.gaps_ns == [1000, 1000]));
    }

    #[test]
    fn eos_on_first_step_has_no_tokens_and_no_gaps() {
        let clock = FakeClock::default();
        let inner = ScriptedDecoder::new(1, 16, EOS, |_| Vec::new());
        let dec = Costly {
            inner,
            clock: clock.clone(),
            cost_ns: 700,
        };
        let mut cfg = ServeConfig::new(4, 8, EOS);
        cfg.step_cost_ns = 0;
        cfg.admit_cost_ns = 0;
        let mut e = ServeEngine::new(dec, cfg);
        let (tok, reqs) = text_requests(1);
        let tl = run_open(&mut e, &clock, &tok, &reqs, &[0], false).unwrap();
        let report = e.into_report();
        let t = request_timings(&tl, &report).unwrap();
        assert_eq!(t[0].tokens, 0);
        assert_eq!(t[0].ttft_ns, Some(700));
        assert!(t[0].gaps_ns.is_empty());
    }

    fn depth_timeline(depths: &[usize]) -> Timeline {
        Timeline {
            ticks: depths
                .iter()
                .enumerate()
                .map(|(i, &queue_depth)| TickRec {
                    start_ns: i as u64 * 10,
                    end_ns: i as u64 * 10 + 9,
                    queue_depth,
                })
                .collect(),
            start_ns: 0,
            window_end_ns: depths.len() as u64 * 10,
            ..Timeline::default()
        }
    }

    #[test]
    fn smoothed_quantile_averages_around_the_rank() {
        let ramp: Vec<u64> = (1..=2000).collect();
        // Ranks [1975, 1985) hold the values 1976..=1985.
        assert_eq!(quantile_ns(&ramp, 99.0), 1980.5);
        // Ranks [995, 1005) hold 996..=1005.
        assert_eq!(quantile_ns(&ramp, 50.0), 1000.5);
        assert_eq!(quantile_ns(&[7], 99.0), 7.0);
        assert_eq!(quantile_ns(&[], 50.0), 0.0);
        // Two clusters with the boundary inside the window: 1982 zeros
        // and 18 hundreds put 3 of the window's 10 samples in the upper
        // one.
        let mut lumpy = vec![0u64; 1982];
        lumpy.extend([100; 18]);
        assert_eq!(quantile_ns(&lumpy, 99.0), 30.0);
    }

    #[test]
    fn windowed_quantile_averages_per_window_percentiles() {
        // Two 10 ns windows over a 20 ns span, 20 samples each: values
        // 1..=20, then 101..=120. Each window's smoothed median is the
        // mean of its 10th and 11th values.
        let samples: Vec<(u64, u64)> = (0..40u64)
            .map(|i| (i / 2, if i < 20 { i + 1 } else { i + 81 }))
            .collect();
        assert_eq!(windowed_quantile_ns(&samples, 20, 10, 50.0), 60.5);
        // Windows are stretched to cover the span: 25 ns makes two 12.5 ns
        // windows, so the samples at 12 fall in the first.
        let samples: Vec<(u64, u64)> = (0..40u64)
            .map(|i| if i < 20 { (12, 1) } else { (13, 9) })
            .collect();
        assert_eq!(windowed_quantile_ns(&samples, 25, 10, 50.0), 5.0);
        // A span shorter than a window is one window; empty is 0.
        assert_eq!(
            windowed_quantile_ns(&[(0, 4), (1, 6), (2, 5)], 3, 10, 50.0),
            5.0
        );
        assert_eq!(windowed_quantile_ns(&[], 20, 10, 50.0), 0.0);
    }

    #[test]
    fn windows_hold_ten_samples_beyond_their_percentile() {
        // Half zeros, then half thousands. 1000 samples leave ten beyond a
        // p99 only in one window, which sees the thousands.
        let half = |n: u64| -> Vec<(u64, u64)> {
            (0..n)
                .map(|i| (i, if i < n / 2 { 0 } else { 1000 }))
                .collect()
        };
        assert_eq!(windowed_quantile_ns(&half(1000), 1000, 10, 99.0), 1000.0);
        // 2000 samples make two windows, one all zeros.
        assert_eq!(windowed_quantile_ns(&half(2000), 2000, 10, 99.0), 500.0);
    }

    #[test]
    fn backlog_test_flags_a_growing_queue() {
        let growing: Vec<usize> = (0..400).map(|i| i / 10).collect();
        assert!(backlog_grows(&depth_timeline(&growing), 8));
        let steady: Vec<usize> = (0..400).map(|i| (i * 7) % 5).collect();
        assert!(!backlog_grows(&depth_timeline(&steady), 8));
        // A burst that drains inside the window is not a growing backlog.
        let burst: Vec<usize> = (0..400)
            .map(|i| if (150..170).contains(&i) { 30 } else { 1 })
            .collect();
        assert!(!backlog_grows(&depth_timeline(&burst), 8));
    }

    #[test]
    fn task_of_sent_requests_is_kept() {
        let clock = FakeClock::default();
        let mut e = engine(&clock, 1);
        let (tok, reqs) = text_requests(1);
        run_open(&mut e, &clock, &tok, &reqs, &[0], false).unwrap();
        let report = e.into_report();
        assert_eq!(report.responses[0].task, Task::TextToVis);
    }
}
