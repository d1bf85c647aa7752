//! The output check: every completed response is compared with the
//! sequential decoding path (`nn::decode::greedy_decode` over
//! `DecodeState`) for the same model and source. References are computed
//! outside the timed region and cached per distinct source.

use std::collections::HashMap;

use nn::decode::greedy_decode;
use nn::param::ParamSet;
use nn::t5::{DecodeState, T5Model};

pub struct Checker<'m> {
    model: &'m T5Model,
    ps: &'m ParamSet,
    eos: u32,
    max_out: usize,
    /// Percentage of distinct sources checked; the rest are skipped by a
    /// seeded hash so the same seed checks the same sources.
    share_pct: u64,
    seed: u64,
    refs: HashMap<Vec<u32>, Vec<u32>>,
    pub checked: u64,
    pub skipped: u64,
}

impl<'m> Checker<'m> {
    pub fn new(
        model: &'m T5Model,
        ps: &'m ParamSet,
        eos: u32,
        max_out: usize,
        share_pct: u64,
        seed: u64,
    ) -> Self {
        assert!((1..=100).contains(&share_pct), "share is a percentage");
        Checker {
            model,
            ps,
            eos,
            max_out,
            share_pct,
            seed,
            refs: HashMap::new(),
            checked: 0,
            skipped: 0,
        }
    }

    fn selected(&self, src: &[u32]) -> bool {
        let h = (nn::prefix_hash(src) ^ self.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) % 100 < self.share_pct
    }

    /// Computes the references of every selected source not yet cached,
    /// on up to two threads (this runs after the timed region).
    pub fn prepare<'s>(&mut self, sources: impl Iterator<Item = &'s [u32]>) {
        let mut todo: Vec<&[u32]> = sources
            .filter(|s| self.selected(s) && !self.refs.contains_key(*s))
            .collect();
        todo.sort_unstable();
        todo.dedup();
        let (model, ps, eos, max_out) = (self.model, self.ps, self.eos, self.max_out);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let chunk = todo.len().div_ceil(workers).max(1);
        let done: Vec<Vec<(Vec<u32>, Vec<u32>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&src| {
                                let mut st = DecodeState::new(model, ps, src);
                                (src.to_vec(), greedy_decode(&mut st, eos, max_out))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference worker panicked"))
                .collect()
        });
        self.refs.extend(done.into_iter().flatten());
    }

    /// Whether `tokens` is what the sequential path emits for `src`
    /// (`true` for a source outside the checked share).
    pub fn matches(&mut self, src: &[u32], tokens: &[u32]) -> bool {
        if !self.selected(src) {
            self.skipped += 1;
            return true;
        }
        self.checked += 1;
        self.prepare(std::iter::once(src));
        self.refs[src].as_slice() == tokens
    }

    /// One line saying how much was checked.
    pub fn summary(&self) -> String {
        format!(
            "checked {} responses against the sequential path, skipped {} ({}% of distinct sources checked)",
            self.checked, self.skipped, self.share_pct
        )
    }
}
