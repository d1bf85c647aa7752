//! Request and response types for the serving engine.
//!
//! A [`ServeRequest`] is what the scheduler works with: token ids plus
//! scheduling metadata (priority, deadline). The text-level constructor
//! [`ServeRequest::from_task`] renders a [`TaskRequest`] through the
//! paper's unified encoding — running per-request schema filtration —
//! and tokenizes it, so clients submit raw questions/queries/tables and
//! the serving path owns the whole text → tokens pipeline.
//!
//! Every admitted or rejected request produces exactly one
//! [`ServeResponse`]; nothing is silently dropped. Rejections are typed
//! ([`Rejection`]) and each variant carries a registered diagnostic code
//! (`R001`–`R006`, see `analysis::registry` and the DESIGN.md lint-code
//! table), so rejection tallies are auditable the same way lint tallies
//! are.

use datavist5::data::{Task, TaskRequest};
use tokenizer::WordTokenizer;

/// Scheduling priority: lower values are served first; within one
/// priority the queue is strictly FIFO by arrival sequence.
pub type Priority = u8;

/// Virtual-time constant meaning "no deadline".
pub const NO_DEADLINE: u64 = u64::MAX;

/// One request as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Caller-assigned identifier, echoed in the response. Must be unique
    /// within one engine run.
    pub id: u64,
    /// Which of the four tasks the request targets (used for per-task
    /// fairness accounting; the engine itself is task-agnostic).
    pub task: Task,
    /// Encoder input token ids. An empty source is normalized to a lone
    /// EOS marker at admission (mirroring `encode_with_eos`, which never
    /// produces an empty sequence).
    pub src: Vec<u32>,
    /// Scheduling priority; 0 is the highest.
    pub priority: Priority,
    /// Absolute virtual-clock deadline in nanoseconds ([`NO_DEADLINE`]
    /// for none). A request past its deadline is retired with a typed
    /// rejection whether it is still queued (R002) or mid-decode (R003).
    pub deadline_ns: u64,
}

impl ServeRequest {
    /// A plain request with default priority and no deadline.
    pub fn new(id: u64, task: Task, src: Vec<u32>) -> ServeRequest {
        ServeRequest {
            id,
            task,
            src,
            priority: 0,
            deadline_ns: NO_DEADLINE,
        }
    }

    /// Builds a request from a text-level [`TaskRequest`]: renders the
    /// unified input encoding (running schema filtration on this
    /// request's own question/query) and tokenizes it with a trailing
    /// EOS.
    pub fn from_task(id: u64, req: &TaskRequest, tok: &WordTokenizer) -> ServeRequest {
        let text = req.input_text();
        ServeRequest::new(id, req.task(), tok.encode_with_eos(&text))
    }

    /// Sets the priority (builder style).
    pub fn with_priority(mut self, priority: Priority) -> ServeRequest {
        self.priority = priority;
        self
    }

    /// Sets the absolute deadline (builder style).
    pub fn with_deadline(mut self, deadline_ns: u64) -> ServeRequest {
        self.deadline_ns = deadline_ns;
        self
    }
}

/// Why a request was retired without completing. Every variant maps to a
/// registered diagnostic code so rejection tallies line up with the
/// workspace-wide code registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded admission queue was full at arrival (backpressure).
    QueueFull,
    /// The deadline passed while the request was still queued.
    DeadlineQueued,
    /// The deadline passed mid-decode; the response keeps the tokens
    /// emitted before expiry.
    DeadlineDecoding,
    /// The engine shut down while the request was queued or in flight.
    Shutdown,
    /// A scheduler/batcher invariant violation poisoned the engine
    /// (`serve::EngineError`); the request was drained with this typed
    /// response — partial tokens kept — instead of dying in a panic.
    Internal,
    /// The source holds a token id outside the model's vocabulary; it is
    /// refused at submission, before it can reach the embedding lookup.
    OutOfVocab,
}

impl Rejection {
    /// The registered diagnostic code for this rejection kind.
    pub fn code(self) -> &'static str {
        match self {
            Rejection::QueueFull => "R001",
            Rejection::DeadlineQueued => "R002",
            Rejection::DeadlineDecoding => "R003",
            Rejection::Shutdown => "R004",
            Rejection::Internal => "R005",
            Rejection::OutOfVocab => "R006",
        }
    }

    /// A stable human-readable label (used in logs and fingerprints).
    pub fn label(self) -> &'static str {
        match self {
            Rejection::QueueFull => "queue-full",
            Rejection::DeadlineQueued => "deadline-queued",
            Rejection::DeadlineDecoding => "deadline-decoding",
            Rejection::Shutdown => "shutdown",
            Rejection::Internal => "internal-error",
            Rejection::OutOfVocab => "out-of-vocab",
        }
    }
}

/// Terminal state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Decoded to EOS (or the output-length cap).
    Completed,
    /// Retired with a typed rejection.
    Rejected(Rejection),
}

/// The engine's answer for one request — completed or rejected, never
/// silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    pub id: u64,
    pub task: Task,
    pub outcome: Outcome,
    /// Tokens emitted before the terminal event (the full output for
    /// completions, a partial prefix for mid-decode rejections).
    pub tokens: Vec<u32>,
    /// Virtual time the request arrived at the front door.
    pub arrival_ns: u64,
    /// Virtual time of the terminal event; `finished_ns - arrival_ns` is
    /// the latency the percentile metrics aggregate.
    pub finished_ns: u64,
}

impl ServeResponse {
    /// Request latency (arrival to terminal event).
    pub fn latency_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.arrival_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_codes_are_distinct_and_stable() {
        let all = [
            Rejection::QueueFull,
            Rejection::DeadlineQueued,
            Rejection::DeadlineDecoding,
            Rejection::Shutdown,
            Rejection::Internal,
            Rejection::OutOfVocab,
        ];
        let codes: Vec<&str> = all.iter().map(|r| r.code()).collect();
        assert_eq!(codes, ["R001", "R002", "R003", "R004", "R005", "R006"]);
        let mut labels: Vec<&str> = all.iter().map(|r| r.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn builder_setters_apply() {
        let r = ServeRequest::new(7, Task::FeVisQa, vec![1, 2, 3])
            .with_priority(2)
            .with_deadline(500);
        assert_eq!(r.priority, 2);
        assert_eq!(r.deadline_ns, 500);
        assert_eq!(r.id, 7);
    }

    #[test]
    fn from_task_runs_filtration_and_appends_eos() {
        use vql::schema::{DbSchema, TableSchema};
        let schema = DbSchema::new(
            "g",
            vec![
                TableSchema::new("artist", vec!["country".into()]),
                TableSchema::new("exhibit", vec!["theme".into()]),
            ],
        );
        let task = TaskRequest::TextToVis {
            question: "bar chart of artist country".into(),
            schema,
        };
        let tok = WordTokenizer::fit([task.input_text().as_str()], 1);
        let req = ServeRequest::from_task(3, &task, &tok);
        assert_eq!(req.task, Task::TextToVis);
        assert_eq!(req.src.last(), Some(&tokenizer::special::EOS));
        // Filtration ran: the unreferenced table is absent, so the
        // encoded input is shorter than the unfiltered text would be.
        let text = task.input_text();
        assert!(!text.contains("theme"));
        // The request's admitted tokens hash to the task's cache key:
        // core-side key computation and serve-side admission agree on
        // what "the standardized input" is.
        assert_eq!(nn::prefix_hash(&req.src), task.cache_key(&tok));
    }
}
