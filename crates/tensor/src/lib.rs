//! Dense f32 tensors and a tape-based reverse-mode automatic differentiation
//! engine.
//!
//! This crate is the numerical substrate for the DataVisT5 reproduction. It
//! deliberately supports only what the models in `nn` need — 1-D/2-D/3-D
//! dense tensors, cache-friendly matmul kernels (including transposed
//! variants used by backward passes), and a coarse-grained operator tape —
//! rather than a general array-programming surface.
//!
//! # Architecture
//!
//! * [`Tensor`] — shape + contiguous `Vec<f32>` storage.
//! * [`kernels`] — the hot loops (`mm_nn`, `mm_nt`, `mm_tn`, row softmax).
//! * [`par`] / [`sched`] — deterministic fork-join dispatch for the matmul
//!   kernels (`DATAVIST5_THREADS` workers over contiguous output-row
//!   chunks) and the declared [`sched::ReductionSchedule`]s the
//!   `analysis::par` certifier proves bit-equivalent to sequential order.
//! * [`Graph`] — the autodiff tape. Every forward op appends a node holding
//!   its output value and enough context to compute input gradients; calling
//!   [`Graph::backward`] walks the tape in reverse.
//!
//! Trainable parameters live *outside* the graph (see `nn::ParamSet`): they
//! are inserted per-forward-pass via [`Graph::param`] with an external hook
//! id, and gradients are harvested with [`Graph::param_grads`] after
//! `backward`. This keeps the tape free of interior mutability and lets one
//! parameter store serve many sequential graphs.
//!
//! # Example
//!
//! ```
//! use tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]), false);
//! let w = g.param(Tensor::from_vec(vec![2, 2], vec![0.5, 0.0, 0.0, 0.5]), 0);
//! let y = g.matmul(x, w);
//! let loss = g.sum(y);
//! g.backward(loss);
//! let (hook, grad) = g.param_grads().next().unwrap();
//! assert_eq!(hook, 0);
//! assert_eq!(grad.shape(), &[2, 2]);
//! ```

#![deny(unsafe_code)]

mod graph;
pub mod kernels;
pub mod par;
pub mod sched;
mod tensor;

pub use graph::{Graph, MmOrient, OpKind, OpView, Var, IGNORE_TARGET};
pub use tensor::Tensor;

/// Deterministic xorshift64* generator used for dropout masks and tests.
///
/// Kept tiny and dependency-free so gradient checks are reproducible without
/// threading an external RNG through the tape.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Creates a generator from a seed (zero is mapped to a fixed constant to
    /// avoid the degenerate all-zero orbit).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform f32 in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_zero_seed_is_usable() {
        let mut r = XorShift::new(0);
        let x = r.next_f32();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn xorshift_f32_in_unit_interval() {
        let mut r = XorShift::new(7);
        for _ in 0..1000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x), "{x} out of range");
        }
    }
}
