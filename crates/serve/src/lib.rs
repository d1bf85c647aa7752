//! # serve — the model-serving engine over continuous batching
//!
//! The request front door for all four DataVisT5 tasks (text-to-vis,
//! vis-to-text, FeVisQA, table-to-text): a bounded admission queue, a
//! deterministic scheduler feeding the continuous batcher's free slots
//! mid-flight, per-request deadlines with typed rejections, and
//! backpressure at the front door. See DESIGN.md § "Serving engine".
//!
//! Layer map:
//!
//! * [`request`] — [`ServeRequest`]/[`ServeResponse`], typed
//!   [`Rejection`]s (`R001`–`R006`), and text-level request construction
//!   through the paper's unified encoding (schema filtration included).
//! * [`queue`] — the bounded FIFO-within-priority admission queue.
//! * [`engine`] — the scheduler itself: virtual clock, tick loop, slot
//!   bookkeeping cross-checked against the batcher's event log,
//!   deterministic [`ServeReport`] with fingerprint / percentiles /
//!   fairness. Invariant violations surface as typed [`EngineError`]s
//!   that poison the engine and drain every request with an `R005`
//!   response instead of panicking (see `engine` § "Panic freedom").
//! * [`front`] — the concurrent client front door (threads only send
//!   and receive; scheduling stays single-threaded).
//! * [`testing`] — the scripted decoder the scheduler test suites run
//!   against.
//!
//! The engine never reads a wall clock: time is injected (virtual in
//! traces and tests, real only in the bench crate), which is what makes
//! the double-run fingerprint contract possible.

pub mod engine;
pub mod front;
pub mod queue;
pub mod request;
pub mod testing;

pub use engine::{
    AdmissionRecord, BatchDecoder, EngineError, ServeConfig, ServeEngine, ServeReport, TaskTally,
};
pub use front::serve_concurrent;
pub use nn::prefix_cache::{prefix_hash, CacheStats, PrefixCache, PrefixKv};
pub use queue::{AdmissionQueue, Queued};
pub use request::{Outcome, Priority, Rejection, ServeRequest, ServeResponse, NO_DEADLINE};
pub use testing::ScriptedDecoder;
