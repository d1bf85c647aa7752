//! Seeded inputs: the request lists of the three workloads and the
//! Poisson arrival schedules of the open loops. Everything here is a pure
//! function of its arguments, so one seed names one set of inputs.

use corpus::Corpus;
use datavist5::data::{Task, TaskRequest};
use tensor::XorShift;

/// Stream tags mixed into the seed so the request list and each ladder
/// step's arrival schedule draw from independent RNG streams.
const SHUFFLE_STREAM: u64 = 0x5e1e_c7ed_0000_0001;
const ARRIVAL_STREAM: u64 = 0xa771_7a15_0000_0002;

/// A uniform draw in `(0, 1]` (never 0, so `ln` stays finite).
fn unit_open(rng: &mut XorShift) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut XorShift) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Due times (ns from the step start) of a Poisson process at `rate`
/// requests per second, up to `window_ns`. `step` selects an independent
/// stream per ladder step.
pub fn poisson_schedule(seed: u64, step: u64, rate: f64, window_ns: u64) -> Vec<u64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = XorShift::new(seed ^ ARRIVAL_STREAM ^ step.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -unit_open(&mut rng).ln() / rate * 1e9;
        if t >= window_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// `dashboard-open`: all four tasks round-robin, 90% of requests repeating
/// an earlier same-task input verbatim.
pub fn dashboard_requests(corpus: &Corpus, n: usize, seed: u64) -> Vec<TaskRequest> {
    bench::trace::corpus_requests_with_reuse(corpus, n, 90, seed)
}

/// Every corpus entry of the given tasks, once each, in a seeded order,
/// cycled to length `n`.
fn shuffled_tasks(corpus: &Corpus, tasks: &[Task], n: usize, seed: u64) -> Vec<TaskRequest> {
    let mut pool = Vec::new();
    for &task in tasks {
        // `corpus_requests` advances every task's source list by one
        // entry per four-request cycle, so `4 * len` requests visit each
        // entry of this task's list exactly once.
        let len = match task {
            Task::TextToVis | Task::VisToText => corpus.nvbench.len(),
            Task::FeVisQa => corpus.fevisqa.len(),
            Task::TableToText => corpus.chart2text.len(),
        };
        pool.extend(
            bench::trace::corpus_requests(corpus, 4 * len)
                .into_iter()
                .filter(|r| r.task() == task),
        );
    }
    let mut rng = XorShift::new(seed ^ SHUFFLE_STREAM);
    shuffle(&mut pool, &mut rng);
    pool.iter().cycle().take(n).cloned().collect()
}

/// `fevisqa-open`: FeVisQA requests only, no repeats until the corpus is
/// exhausted.
pub fn fevisqa_requests(corpus: &Corpus, n: usize, seed: u64) -> Vec<TaskRequest> {
    shuffled_tasks(corpus, &[Task::FeVisQa], n, seed)
}

/// `catalog-batch`: vis-to-text and table-to-text over the corpus.
pub fn catalog_requests(corpus: &Corpus, n: usize, seed: u64) -> Vec<TaskRequest> {
    shuffled_tasks(corpus, &[Task::VisToText, Task::TableToText], n, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        Corpus::generate(&corpus::CorpusConfig {
            seed: 5,
            dbs_per_domain: 1,
            queries_per_db: 4,
            facts_per_db: 3,
        })
    }

    #[test]
    fn same_seed_same_schedule_and_requests() {
        let c = small_corpus();
        assert_eq!(
            poisson_schedule(7, 1, 200.0, 2_000_000_000),
            poisson_schedule(7, 1, 200.0, 2_000_000_000)
        );
        assert_eq!(dashboard_requests(&c, 64, 7), dashboard_requests(&c, 64, 7));
        assert_eq!(fevisqa_requests(&c, 64, 7), fevisqa_requests(&c, 64, 7));
        assert_eq!(catalog_requests(&c, 64, 7), catalog_requests(&c, 64, 7));
    }

    #[test]
    fn different_seed_different_schedule_and_requests() {
        let c = small_corpus();
        assert_ne!(
            poisson_schedule(7, 1, 200.0, 2_000_000_000),
            poisson_schedule(8, 1, 200.0, 2_000_000_000)
        );
        assert_ne!(
            poisson_schedule(7, 1, 200.0, 2_000_000_000),
            poisson_schedule(7, 2, 200.0, 2_000_000_000),
            "ladder steps draw independent streams"
        );
        assert_ne!(dashboard_requests(&c, 64, 7), dashboard_requests(&c, 64, 8));
        assert_ne!(fevisqa_requests(&c, 64, 7), fevisqa_requests(&c, 64, 8));
        assert_ne!(catalog_requests(&c, 64, 7), catalog_requests(&c, 64, 8));
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        for (seed, rate) in [(1u64, 50.0f64), (2, 200.0), (3, 1000.0)] {
            let window = 200_000_000_000u64; // 200 s of virtual arrivals
            let due = poisson_schedule(seed, 0, rate, window);
            assert!(due.windows(2).all(|w| w[0] <= w[1]), "sorted");
            let mean_gap_s = *due.last().unwrap() as f64 / due.len() as f64 / 1e9;
            let want = 1.0 / rate;
            assert!(
                (mean_gap_s - want).abs() / want < 0.03,
                "rate {rate}: mean gap {mean_gap_s} vs {want}"
            );
        }
    }

    #[test]
    fn workload_task_mixes() {
        let c = small_corpus();
        assert!(fevisqa_requests(&c, 40, 1)
            .iter()
            .all(|r| r.task() == Task::FeVisQa));
        let cat = catalog_requests(&c, 40, 1);
        assert!(cat
            .iter()
            .all(|r| matches!(r.task(), Task::VisToText | Task::TableToText)));
        assert!(cat.iter().any(|r| r.task() == Task::VisToText));
        assert!(cat.iter().any(|r| r.task() == Task::TableToText));
        let dash = dashboard_requests(&c, 40, 1);
        for (i, r) in dash.iter().enumerate() {
            assert_eq!(r.task(), Task::ALL[i % 4], "round-robin tasks");
        }
    }
}
