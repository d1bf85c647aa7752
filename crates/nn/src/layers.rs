//! Reusable layers: Linear, Embedding, RMSNorm, feed-forward, and
//! multi-head attention with T5 relative-position buckets.
//!
//! Layers are plain structs holding [`ParamId`]s plus dimensions; a layer's
//! `forward` binds its parameters into the caller's graph. Weight layout is
//! `[d_in, d_out]` so activations stay row-major (`y = x · W`).

use tensor::{Graph, Tensor, Var, XorShift};

use crate::param::{ParamId, ParamSet};

/// Fully-connected layer `y = x·W (+ b)`, optionally carrying a LoRA
/// adapter (see [`crate::lora`]) attached after construction.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: ParamId,
    pub b: Option<ParamId>,
    pub d_in: usize,
    pub d_out: usize,
    /// Low-rank adapter `(A, B, scale)`; when present the forward pass
    /// computes `x·W + (x·A)·B·scale` with `W` expected frozen.
    pub lora: Option<(ParamId, ParamId, f32)>,
}

impl Linear {
    /// Creates a linear layer with `std = d_in^-0.5` normal init.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        d_in: usize,
        d_out: usize,
        bias: bool,
        rng: &mut XorShift,
    ) -> Self {
        let std = 1.0 / (d_in as f32).sqrt();
        let w = ps.add(
            format!("{name}.w"),
            Tensor::randn(vec![d_in, d_out], std, rng),
        );
        let b = bias.then(|| ps.add(format!("{name}.b"), Tensor::zeros(vec![d_out])));
        Self {
            w,
            b,
            d_in,
            d_out,
            lora: None,
        }
    }

    /// Freezes this layer's weight and attaches a rank-`rank` LoRA adapter
    /// (`B` zero-initialized, so behaviour is unchanged until training).
    pub fn attach_lora(
        &mut self,
        ps: &mut ParamSet,
        name: &str,
        rank: usize,
        alpha: f32,
        rng: &mut XorShift,
    ) {
        ps.freeze(self.w);
        let a = ps.add(
            format!("{name}.lora_a"),
            Tensor::randn(vec![self.d_in, rank], 1.0 / rank as f32, rng),
        );
        let b = ps.add(
            format!("{name}.lora_b"),
            Tensor::zeros(vec![rank, self.d_out]),
        );
        self.lora = Some((a, b, alpha / rank as f32));
    }

    /// Applies the layer to `[n, d_in]` activations.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let w = ps.bind(g, self.w);
        let mut y = g.matmul(x, w);
        if let Some((a, b, scale)) = self.lora {
            let va = ps.bind(g, a);
            let vb = ps.bind(g, b);
            let xa = g.matmul(x, va);
            let xab = g.matmul(xa, vb);
            let delta = g.scale(xab, scale);
            y = g.add(y, delta);
        }
        match self.b {
            Some(b) => {
                let vb = ps.bind(g, b);
                g.add_bias(y, vb)
            }
            None => y,
        }
    }
}

/// Token embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: ParamId,
    pub vocab: usize,
    pub d: usize,
}

impl Embedding {
    pub fn new(ps: &mut ParamSet, name: &str, vocab: usize, d: usize, rng: &mut XorShift) -> Self {
        let table = ps.add(
            format!("{name}.table"),
            Tensor::randn(vec![vocab, d], 0.02, rng),
        );
        Self { table, vocab, d }
    }

    /// Looks up ids into `[len, d]` activations.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, ids: &[usize]) -> Var {
        let t = ps.bind(g, self.table);
        g.embedding(t, ids)
    }
}

/// T5-style RMS normalization with learned gain.
#[derive(Debug, Clone)]
pub struct RmsNorm {
    pub gain: ParamId,
    pub eps: f32,
}

impl RmsNorm {
    pub fn new(ps: &mut ParamSet, name: &str, d: usize) -> Self {
        Self {
            gain: ps.add(format!("{name}.gain"), Tensor::filled(vec![d], 1.0)),
            eps: 1e-6,
        }
    }

    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let gain = ps.bind(g, self.gain);
        g.rms_norm(x, gain, self.eps)
    }
}

/// T5 feed-forward block: `relu(x·W1)·W2` (no biases).
#[derive(Debug, Clone)]
pub struct FeedForward {
    pub wi: Linear,
    pub wo: Linear,
}

impl FeedForward {
    pub fn new(ps: &mut ParamSet, name: &str, d: usize, d_ff: usize, rng: &mut XorShift) -> Self {
        Self {
            wi: Linear::new(ps, &format!("{name}.wi"), d, d_ff, false, rng),
            wo: Linear::new(ps, &format!("{name}.wo"), d_ff, d, false, rng),
        }
    }

    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let h = self.wi.forward(g, ps, x);
        let h = g.relu(h);
        self.wo.forward(g, ps, h)
    }
}

/// T5 relative-position bias shared by a stack's attention layers.
#[derive(Debug, Clone)]
pub struct RelPosBias {
    pub table: ParamId,
    pub num_buckets: usize,
    pub max_distance: usize,
    pub heads: usize,
    /// Encoders attend both ways; decoders only backwards.
    pub bidirectional: bool,
}

impl RelPosBias {
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        heads: usize,
        bidirectional: bool,
        rng: &mut XorShift,
    ) -> Self {
        let num_buckets = 32;
        Self {
            table: ps.add(
                format!("{name}.table"),
                Tensor::randn(vec![num_buckets, heads], 0.02, rng),
            ),
            num_buckets,
            max_distance: 128,
            heads,
            bidirectional,
        }
    }

    /// The T5 bucket for `relative_position = key_pos - query_pos`.
    pub fn bucket(&self, relative_position: i64) -> usize {
        let mut rp = relative_position;
        let mut nb = self.num_buckets as i64;
        let mut offset = 0i64;
        if self.bidirectional {
            nb /= 2;
            if rp > 0 {
                offset = nb;
            }
            rp = rp.abs();
        } else {
            rp = (-rp).max(0);
        }
        let max_exact = nb / 2;
        let val = if rp < max_exact {
            rp
        } else {
            let log_ratio = (rp as f64 / max_exact as f64).ln()
                / (self.max_distance as f64 / max_exact as f64).ln();
            let v = max_exact + (log_ratio * (nb - max_exact) as f64) as i64;
            v.min(nb - 1)
        };
        (offset + val) as usize
    }

    /// The bucket of every backward distance `0..=max_distance`: entry
    /// `r` is `bucket(-r)`, the bucket of a key `r` positions before its
    /// query. It is exact for every longer distance too, when indexed
    /// with `min(r, max_distance)`: at `r = max_distance` the log ratio
    /// in [`bucket`](Self::bucket) is exactly 1, so the bucket has already
    /// saturated at its last value, and it stays there for every larger
    /// `r`. Incremental decoding looks buckets up here instead of paying
    /// two `ln` calls per head per key.
    pub(crate) fn bucket_by_distance(&self) -> Vec<usize> {
        (0..=self.max_distance)
            .map(|r| self.bucket(-(r as i64)))
            .collect()
    }

    /// Builds the `[heads, tq, tk]` bias for query positions
    /// `offset..offset+tq` against key positions `0..tk` (the offset serves
    /// incremental decoding).
    pub fn bias(&self, g: &mut Graph, ps: &ParamSet, tq: usize, tk: usize, offset: usize) -> Var {
        let mut ids = Vec::with_capacity(tq * tk);
        for q in 0..tq {
            for k in 0..tk {
                ids.push(self.bucket(k as i64 - (q + offset) as i64));
            }
        }
        let table = ps.bind(g, self.table);
        let flat = g.embedding(table, &ids); // [tq*tk, heads]
        let cube = g.reshape(flat, vec![tq, tk, self.heads]);
        g.permute3(cube, [2, 0, 1])
    }
}

/// Builds an additive causal mask: `-1e9` where `key > query + offset`.
pub fn causal_mask(heads: usize, tq: usize, tk: usize, offset: usize) -> Tensor {
    let mut m = Tensor::zeros(vec![heads, tq, tk]);
    for h in 0..heads {
        for q in 0..tq {
            for k in 0..tk {
                if k > q + offset {
                    m.data_mut()[h * tq * tk + q * tk + k] = -1e9;
                }
            }
        }
    }
    m
}

/// Multi-head attention (T5 style: no biases, scale `dh^-0.5`).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub heads: usize,
    pub d_model: usize,
}

impl MultiHeadAttention {
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        d_model: usize,
        heads: usize,
        rng: &mut XorShift,
    ) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must divide into heads");
        Self {
            wq: Linear::new(ps, &format!("{name}.q"), d_model, d_model, false, rng),
            wk: Linear::new(ps, &format!("{name}.k"), d_model, d_model, false, rng),
            wv: Linear::new(ps, &format!("{name}.v"), d_model, d_model, false, rng),
            wo: Linear::new(ps, &format!("{name}.o"), d_model, d_model, false, rng),
            heads,
            d_model,
        }
    }

    fn split_heads(&self, g: &mut Graph, x: Var, t: usize) -> Var {
        let dh = self.d_model / self.heads;
        let cube = g.reshape(x, vec![t, self.heads, dh]);
        g.permute3(cube, [1, 0, 2]) // [H, t, dh]
    }

    /// Attention of `x_q` (`[tq, d]`) over `x_kv` (`[tk, d]`).
    ///
    /// `bias` is an optional `[heads, tq, tk]` additive term (relative
    /// positions and/or causal mask, pre-combined by the caller).
    pub fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        x_q: Var,
        x_kv: Var,
        bias: Option<Var>,
    ) -> Var {
        let tq = g.value(x_q).shape()[0];
        let tk = g.value(x_kv).shape()[0];
        let dh = self.d_model / self.heads;

        let q = self.wq.forward(g, ps, x_q);
        let k = self.wk.forward(g, ps, x_kv);
        let v = self.wv.forward(g, ps, x_kv);
        let q = self.split_heads(g, q, tq);
        let k = self.split_heads(g, k, tk);
        let v = self.split_heads(g, v, tk);

        let scores = g.bmm(q, k, true); // [H, tq, tk]
        let scores = g.scale(scores, 1.0 / (dh as f32).sqrt());
        let scores = match bias {
            Some(b) => g.add(scores, b),
            None => scores,
        };
        let probs = g.softmax(scores);
        let ctx = g.bmm(probs, v, false); // [H, tq, dh]
        let ctx = g.permute3(ctx, [1, 0, 2]); // [tq, H, dh]
        let ctx = g.reshape(ctx, vec![tq, self.d_model]);
        self.wo.forward(g, ps, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShift {
        XorShift::new(12345)
    }

    #[test]
    fn linear_shapes_and_bias() {
        let mut ps = ParamSet::new();
        let mut r = rng();
        let lin = Linear::new(&mut ps, "l", 4, 6, true, &mut r);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn(vec![3, 4], 1.0, &mut r), false);
        let y = lin.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), &[3, 6]);
    }

    #[test]
    fn embedding_returns_rows() {
        let mut ps = ParamSet::new();
        let mut r = rng();
        let emb = Embedding::new(&mut ps, "e", 10, 4, &mut r);
        let mut g = Graph::new();
        let y = emb.forward(&mut g, &ps, &[1, 1, 7]);
        assert_eq!(g.value(y).shape(), &[3, 4]);
        // Repeated id yields identical rows.
        let d = g.value(y).data();
        assert_eq!(&d[0..4], &d[4..8]);
    }

    #[test]
    fn rms_norm_normalizes_rows() {
        let mut ps = ParamSet::new();
        let norm = RmsNorm::new(&mut ps, "n", 8);
        let mut g = Graph::new();
        let mut r = rng();
        let x = g.leaf(Tensor::randn(vec![2, 8], 5.0, &mut r), false);
        let y = norm.forward(&mut g, &ps, x);
        for row in g.value(y).data().chunks(8) {
            let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / 8.0;
            assert!((ms - 1.0).abs() < 1e-3, "row mean square {ms}");
        }
    }

    #[test]
    fn attention_output_shape() {
        let mut ps = ParamSet::new();
        let mut r = rng();
        let attn = MultiHeadAttention::new(&mut ps, "a", 8, 2, &mut r);
        let mut g = Graph::new();
        let xq = g.leaf(Tensor::randn(vec![5, 8], 1.0, &mut r), false);
        let xkv = g.leaf(Tensor::randn(vec![7, 8], 1.0, &mut r), false);
        let y = attn.forward(&mut g, &ps, xq, xkv, None);
        assert_eq!(g.value(y).shape(), &[5, 8]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(1, 3, 3, 0);
        // Row 0 can only see key 0.
        assert_eq!(m.data()[0], 0.0);
        assert_eq!(m.data()[1], -1e9);
        assert_eq!(m.data()[2], -1e9);
        // Row 2 sees everything.
        assert_eq!(&m.data()[6..9], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn causal_mask_with_offset_for_incremental_decode() {
        // A single query at position 2 may see keys 0..=2 of 4.
        let m = causal_mask(1, 1, 4, 2);
        assert_eq!(m.data(), &[0.0, 0.0, 0.0, -1e9]);
    }

    #[test]
    fn causal_attention_ignores_future_tokens() {
        let mut ps = ParamSet::new();
        let mut r = rng();
        let attn = MultiHeadAttention::new(&mut ps, "a", 8, 2, &mut r);
        // Two inputs identical in the first 2 positions, different at 3rd.
        let base = Tensor::randn(vec![3, 8], 1.0, &mut r);
        let mut other = base.clone();
        for v in &mut other.data_mut()[16..24] {
            *v += 1.0;
        }
        let run = |x: Tensor, attn: &MultiHeadAttention, ps: &ParamSet| {
            let mut g = Graph::new();
            let vx = g.leaf(x, false);
            let mask = g.leaf(causal_mask(2, 3, 3, 0), false);
            let y = attn.forward(&mut g, ps, vx, vx, Some(mask));
            g.value(y).data()[..16].to_vec()
        };
        let a = run(base, &attn, &ps);
        let b = run(other, &attn, &ps);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5, "causality leak: {x} vs {y}");
        }
    }

    #[test]
    fn rel_pos_buckets_are_symmetric_classes() {
        let mut ps = ParamSet::new();
        let mut r = rng();
        let bias = RelPosBias::new(&mut ps, "rb", 4, true, &mut r);
        // Same distance same bucket, opposite signs differ.
        assert_eq!(bias.bucket(3), bias.bucket(3));
        assert_ne!(bias.bucket(3), bias.bucket(-3));
        // Large distances saturate below num_buckets.
        assert!(bias.bucket(10_000) < bias.num_buckets);
        assert!(bias.bucket(-10_000) < bias.num_buckets / 2);
    }

    #[test]
    fn unidirectional_buckets_ignore_future() {
        let mut ps = ParamSet::new();
        let mut r = rng();
        let bias = RelPosBias::new(&mut ps, "rb", 4, false, &mut r);
        // Future keys (rel > 0) collapse to bucket 0 for causal decoders.
        assert_eq!(bias.bucket(5), bias.bucket(1));
        assert_ne!(bias.bucket(-5), bias.bucket(5));
    }

    #[test]
    fn bucket_by_distance_is_exact_past_max_distance() {
        let mut r = rng();
        for bidirectional in [false, true] {
            let mut ps = ParamSet::new();
            let bias = RelPosBias::new(&mut ps, "rb", 4, bidirectional, &mut r);
            let table = bias.bucket_by_distance();
            assert_eq!(table.len(), bias.max_distance + 1);
            for rp in 0..4 * bias.max_distance {
                assert_eq!(
                    table[rp.min(bias.max_distance)],
                    bias.bucket(-(rp as i64)),
                    "bidirectional={bidirectional} distance {rp}"
                );
            }
        }
    }

    #[test]
    fn bias_tensor_shape_and_offset() {
        let mut ps = ParamSet::new();
        let mut r = rng();
        let bias = RelPosBias::new(&mut ps, "rb", 4, true, &mut r);
        let mut g = Graph::new();
        let b = bias.bias(&mut g, &ps, 3, 5, 0);
        assert_eq!(g.value(b).shape(), &[4, 3, 5]);
        // With offset 2 and tq 1 the single row equals row 2 of the full
        // bias.
        let mut g2 = Graph::new();
        let b_inc = bias.bias(&mut g2, &ps, 1, 5, 2);
        let full = g.value(b);
        let inc = g2.value(b_inc);
        for h in 0..4 {
            for k in 0..5 {
                let want = full.data()[h * 15 + 2 * 5 + k];
                let got = inc.data()[h * 5 + k];
                assert_eq!(want, got);
            }
        }
    }

    #[test]
    fn feed_forward_learns_sign_flip() {
        // Tiny sanity check that composite layers train end to end.
        let mut ps = ParamSet::new();
        let mut r = rng();
        let ff = FeedForward::new(&mut ps, "ff", 2, 8, &mut r);
        let mut opt = crate::optim::AdamW {
            weight_decay: 0.0,
            ..Default::default()
        };
        let x_data = Tensor::from_vec(vec![4, 2], vec![1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, -1.0]);
        let y_data = Tensor::from_vec(vec![4, 2], vec![-1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 1.0]);
        let mut last = f32::MAX;
        for _ in 0..300 {
            let mut g = Graph::new();
            let x = g.leaf(x_data.clone(), false);
            let y = ff.forward(&mut g, &ps, x);
            let t = g.leaf(y_data.clone(), false);
            let neg_t = g.scale(t, -1.0);
            let diff = g.add(y, neg_t);
            let sq = g.mul(diff, diff);
            let loss = g.sum(sq);
            last = g.value(loss).data()[0];
            g.backward(loss);
            ps.absorb_grads(&g);
            opt.step(&mut ps, 0.01, 1.0);
        }
        assert!(last < 0.05, "loss did not fall: {last}");
    }
}
