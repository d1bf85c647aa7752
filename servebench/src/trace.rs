//! The traced run: spans recorded from the benchmark's own code around
//! its calls into each layer.
//!
//! [`TimedDecoder`] wraps the real batcher in the engine's public
//! [`BatchDecoder`] trait and times `admit`, `step_packed_into` and
//! `retire`; the load loop times `encode`, `submit` and `tick`
//! ([`crate::timeline`]). [`assemble`] joins the two into one span tree:
//! decoder calls become children of the tick that contains them, admits
//! are attributed to request ids by their order among the tick's
//! admission-log entries, and a step lists the ids of its batch.

use std::collections::BTreeMap;

use nn::batch::{BatchedDecodeState, SlotEvent};
use nn::prefix_cache::CacheStats;
use serve::{BatchDecoder, ServeReport};

use crate::timeline::{Clock, Timeline};

/// What a decoder call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecCall {
    /// An admission; `hit` when the prefix cache supplied the encoder
    /// output (no prefill ran).
    Admit {
        slot: Option<usize>,
        hit: bool,
    },
    Step {
        slots: Vec<usize>,
    },
    Retire {
        slot: usize,
    },
}

/// One timed decoder call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecSpan {
    pub call: DecCall,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The real batcher, timed call by call.
pub struct TimedDecoder<'m, C: Clock> {
    inner: BatchedDecodeState<'m>,
    clock: C,
    pub spans: Vec<DecSpan>,
    /// Largest resident KV footprint of live slots seen after a step.
    pub kv_bytes_peak: usize,
    /// Largest prefix-cache payload seen after an admission.
    pub cache_bytes_peak: usize,
}

impl<'m, C: Clock> TimedDecoder<'m, C> {
    pub fn new(inner: BatchedDecodeState<'m>, clock: C) -> Self {
        TimedDecoder {
            inner,
            clock,
            spans: Vec::new(),
            kv_bytes_peak: 0,
            cache_bytes_peak: 0,
        }
    }

    fn record(&mut self, call: DecCall, start_ns: u64) {
        let end_ns = self.clock.now_ns();
        self.spans.push(DecSpan {
            call,
            start_ns,
            end_ns,
        });
    }
}

impl<C: Clock> BatchDecoder for TimedDecoder<'_, C> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn admit(&mut self, src: &[u32]) -> Option<usize> {
        let before = self.inner.cache_stats().map_or(0, |s| s.hits);
        let t0 = self.clock.now_ns();
        let slot = self.inner.admit(src);
        let hit = self.inner.cache_stats().map_or(0, |s| s.hits) > before;
        self.record(DecCall::Admit { slot, hit }, t0);
        let cached = self.inner.prefix_cache().map_or(0, |c| c.bytes());
        self.cache_bytes_peak = self.cache_bytes_peak.max(cached);
        slot
    }

    fn retire(&mut self, slot: usize) {
        let t0 = self.clock.now_ns();
        self.inner.retire(slot);
        self.record(DecCall::Retire { slot }, t0);
    }

    fn step_packed_into(&mut self, active: &[(usize, u32)], out: &mut Vec<Vec<f32>>) {
        let t0 = self.clock.now_ns();
        self.inner.step_packed_into(active, out);
        let slots = active.iter().map(|&(s, _)| s).collect();
        self.record(DecCall::Step { slots }, t0);
        self.kv_bytes_peak = self.kv_bytes_peak.max(self.inner.cache_bytes());
    }

    fn reserve_steps(&mut self, max_steps: usize) {
        self.inner.reserve_steps(max_steps)
    }

    fn cache_bytes(&self) -> usize {
        self.inner.cache_bytes()
    }

    fn take_slot_events(&mut self) -> Vec<SlotEvent> {
        self.inner.take_slot_events()
    }

    fn prefix_cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// One span of the assembled tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// The requests the span worked for.
    pub ids: Vec<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// One JSON line.
    pub fn to_json(&self, index: usize) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        let ids: Vec<String> = self.ids.iter().map(u64::to_string).collect();
        format!(
            "{{\"span\":{index},\"name\":\"{}\",\"parent\":{parent},\"ids\":[{}],\"start_ns\":{},\"end_ns\":{}}}",
            self.name,
            ids.join(","),
            self.start_ns,
            self.end_ns
        )
    }
}

/// Joins host spans, decoder spans and the admission log into one tree.
pub fn assemble(tl: &Timeline, dec: &[DecSpan], report: &ServeReport) -> Result<Vec<Span>, String> {
    let mut spans = Vec::with_capacity(tl.spans.len() + dec.len());
    let mut tick_spans = Vec::new();
    let mut last_encode = None;
    for h in &tl.spans {
        let parent = match h.name {
            "data.input_text" | "tokenizer.encode" => last_encode,
            _ => None,
        };
        if h.name == "encode" {
            last_encode = Some(spans.len());
        }
        if h.name == "tick" {
            tick_spans.push(spans.len());
        }
        spans.push(Span {
            name: h.name,
            parent,
            ids: h.id.into_iter().collect(),
            start_ns: h.start_ns,
            end_ns: h.end_ns,
        });
    }
    if tick_spans.len() != tl.ticks.len() {
        return Err("traced timeline is missing tick spans".into());
    }

    // Admission-log entries grouped by the tick that admitted them.
    let mut admits_of: Vec<Vec<(u64, usize)>> = vec![Vec::new(); tl.ticks.len()];
    for rec in &report.admission_log {
        let k = tl
            .ticks
            .binary_search_by_key(&rec.admitted_ns, |t| t.start_ns)
            .map_err(|_| format!("request {} admitted outside any tick", rec.id))?;
        admits_of[k].push((rec.id, rec.slot));
    }

    let capacity = report
        .admission_log
        .iter()
        .map(|r| r.slot + 1)
        .max()
        .unwrap_or(0);
    let mut owner: Vec<Option<u64>> = vec![None; capacity];
    let owner_of = |owner: &[Option<u64>], slot: usize| {
        owner
            .get(slot)
            .copied()
            .flatten()
            .ok_or_else(|| format!("slot {slot} has no resident request"))
    };
    let mut k = 0usize;
    let mut admitted = 0usize;
    for d in dec {
        while k < tl.ticks.len() && tl.ticks[k].end_ns < d.start_ns {
            k += 1;
            admitted = 0;
        }
        let tick = tl
            .ticks
            .get(k)
            .filter(|t| t.start_ns <= d.start_ns)
            .ok_or_else(|| format!("decoder call at {} ns outside any tick", d.start_ns))?;
        let (name, ids) = match &d.call {
            DecCall::Admit { slot, .. } => {
                let &(id, logged_slot) = admits_of[k].get(admitted).ok_or_else(|| {
                    format!("tick at {} ns admitted more than logged", tick.start_ns)
                })?;
                admitted += 1;
                if *slot != Some(logged_slot) {
                    return Err(format!(
                        "request {id}: admit slot {slot:?} vs logged {logged_slot}"
                    ));
                }
                owner[logged_slot] = Some(id);
                ("batch.admit", vec![id])
            }
            DecCall::Step { slots } => (
                "batch.step",
                slots
                    .iter()
                    .map(|&s| owner_of(&owner, s))
                    .collect::<Result<_, _>>()?,
            ),
            DecCall::Retire { slot } => {
                let id = owner_of(&owner, *slot)?;
                owner[*slot] = None;
                ("batch.retire", vec![id])
            }
        };
        spans.push(Span {
            name,
            parent: Some(tick_spans[k]),
            ids,
            start_ns: d.start_ns,
            end_ns: d.end_ns,
        });
    }
    Ok(spans)
}

/// Per span name: (count, total self time in ns), where a span's self
/// time is its duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{HostSpan, TickRec};
    use datavist5::data::Task;
    use serve::AdmissionRecord;

    fn host(name: &'static str, id: Option<u64>, start_ns: u64, end_ns: u64) -> HostSpan {
        HostSpan {
            name,
            id,
            start_ns,
            end_ns,
        }
    }

    fn report_with(log: Vec<AdmissionRecord>) -> ServeReport {
        ServeReport {
            responses: Vec::new(),
            admission_log: log,
            arrivals: 0,
            completed: 0,
            rejected: BTreeMap::new(),
            per_task: BTreeMap::new(),
            end_ns: 0,
            cache: None,
        }
    }

    fn admitted(id: u64, slot: usize, admitted_ns: u64) -> AdmissionRecord {
        AdmissionRecord {
            seq: id,
            id,
            task: Task::FeVisQa,
            slot,
            admitted_ns,
            queue_wait_ns: 0,
        }
    }

    fn dec(call: DecCall, start_ns: u64, end_ns: u64) -> DecSpan {
        DecSpan {
            call,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn admits_steps_and_retires_are_attributed_and_self_times_subtract_children() {
        let tl = Timeline {
            ticks: vec![
                TickRec {
                    start_ns: 100,
                    end_ns: 200,
                    queue_depth: 0,
                },
                TickRec {
                    start_ns: 300,
                    end_ns: 350,
                    queue_depth: 0,
                },
            ],
            spans: vec![
                host("encode", Some(7), 0, 40),
                host("data.input_text", Some(7), 0, 30),
                host("tokenizer.encode", Some(7), 30, 40),
                host("submit", Some(7), 40, 45),
                host("tick", None, 100, 200),
                host("tick", None, 300, 350),
            ],
            ..Timeline::default()
        };
        let report = report_with(vec![admitted(7, 1, 100), admitted(9, 0, 100)]);
        let calls = [
            dec(
                DecCall::Admit {
                    slot: Some(1),
                    hit: false,
                },
                105,
                150,
            ),
            dec(
                DecCall::Admit {
                    slot: Some(0),
                    hit: true,
                },
                150,
                155,
            ),
            dec(DecCall::Step { slots: vec![0, 1] }, 160, 190),
            dec(DecCall::Step { slots: vec![0, 1] }, 300, 320),
            dec(DecCall::Retire { slot: 1 }, 320, 322),
        ];
        let spans = assemble(&tl, &calls, &report).unwrap();
        let admit: Vec<&Span> = spans.iter().filter(|s| s.name == "batch.admit").collect();
        assert_eq!(admit[0].ids, [7]);
        assert_eq!(admit[1].ids, [9]);
        assert_eq!(admit[0].parent, Some(4));
        let steps: Vec<&Span> = spans.iter().filter(|s| s.name == "batch.step").collect();
        assert_eq!(steps[0].ids, [9, 7]);
        assert_eq!(steps[1].parent, Some(5));
        let retire = spans.iter().find(|s| s.name == "batch.retire").unwrap();
        assert_eq!(retire.ids, [7]);
        assert_eq!(spans[1].parent, Some(0), "input_text under encode");

        let st = self_times(&spans);
        // Tick 1: 100 − (45 + 5 + 30); tick 2: 50 − (20 + 2).
        assert_eq!(st["tick"], (2, 20 + 28));
        assert_eq!(st["encode"], (1, 0));
        assert_eq!(st["batch.step"], (2, 50));
    }

    #[test]
    fn an_admit_the_log_does_not_know_is_an_error() {
        let tl = Timeline {
            ticks: vec![TickRec {
                start_ns: 0,
                end_ns: 10,
                queue_depth: 0,
            }],
            spans: vec![host("tick", None, 0, 10)],
            ..Timeline::default()
        };
        let calls = [dec(
            DecCall::Admit {
                slot: Some(0),
                hit: false,
            },
            1,
            2,
        )];
        assert!(assemble(&tl, &calls, &report_with(Vec::new())).is_err());
    }
}
