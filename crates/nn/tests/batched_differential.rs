//! Differential suite: the batched inference engine against the
//! sequential decode path.
//!
//! For batch sizes 1–8 over randomly-initialized tiny models,
//! `batched_greedy_decode` must be token-for-token identical to running
//! `DecodeState` + `greedy_decode` per request — across ragged source
//! lengths, staggered EOS (requests retiring at different steps while
//! others continue), both positional modes, LoRA-adapted weights, and
//! capacities smaller than the request count (continuous slot reuse).

use nn::batch::BatchedDecodeState;
use nn::decode::{batched_greedy_decode, greedy_decode};
use nn::param::ParamSet;
use nn::t5::{DecodeState, Positional, T5Config, T5Model, DECODER_START};
use tensor::kernels::{MM_MR, MM_NC, MM_NR, MM_NR_ROW};
use tensor::{Tensor, XorShift};

const EOS: u32 = 1;
const MAX_LEN: usize = 12;

fn random_model(seed: u64, positional: Positional) -> (T5Model, ParamSet) {
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(seed);
    let cfg = T5Config {
        vocab: 23,
        d_model: 16,
        d_ff: 32,
        heads: 2,
        enc_layers: 1,
        dec_layers: 2,
        dropout: 0.0,
        positional,
    };
    let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    (m, ps)
}

/// Ragged random sources ending in EOS, lengths 2..=6.
fn random_srcs(seed: u64, count: usize, vocab: u32) -> Vec<Vec<u32>> {
    let mut rng = XorShift::new(seed);
    (0..count)
        .map(|_| {
            let len = 2 + (rng.next_u64() % 5) as usize;
            let mut src: Vec<u32> = (0..len)
                .map(|_| 2 + (rng.next_u64() % (vocab as u64 - 2)) as u32)
                .collect();
            src.push(EOS);
            src
        })
        .collect()
}

fn sequential_outputs(m: &T5Model, ps: &ParamSet, srcs: &[Vec<u32>]) -> Vec<Vec<u32>> {
    srcs.iter()
        .map(|src| {
            let mut state = DecodeState::new(m, ps, src);
            greedy_decode(&mut state, EOS, MAX_LEN)
        })
        .collect()
}

#[test]
fn batched_greedy_matches_sequential_for_batch_sizes_1_to_8() {
    for positional in [Positional::RelativeBias, Positional::Sinusoidal] {
        for batch in 1..=8usize {
            let (m, ps) = random_model(1000 + batch as u64, positional);
            let srcs = random_srcs(2000 + batch as u64, batch, m.cfg.vocab as u32);
            let want = sequential_outputs(&m, &ps, &srcs);
            let got = batched_greedy_decode(&m, &ps, &srcs, EOS, MAX_LEN, batch);
            assert_eq!(got, want, "{positional:?} batch {batch} diverged");
        }
    }
}

#[test]
fn batched_greedy_matches_sequential_with_slot_reuse() {
    // More requests than slots: retired slots must refill mid-flight and
    // the refilled requests must still match their sequential outputs.
    let (m, ps) = random_model(7, Positional::RelativeBias);
    let srcs = random_srcs(8, 11, m.cfg.vocab as u32);
    let want = sequential_outputs(&m, &ps, &srcs);
    for capacity in [1, 2, 3, 8] {
        let got = batched_greedy_decode(&m, &ps, &srcs, EOS, MAX_LEN, capacity);
        assert_eq!(got, want, "capacity {capacity} diverged");
    }
}

#[test]
fn batched_greedy_matches_sequential_on_lora_adapted_model() {
    let (mut m, mut ps) = random_model(21, Positional::RelativeBias);
    let mut rng = XorShift::new(22);
    m.lora_adapt(&mut ps, 2, 8.0, &mut rng);
    // Give the zero-initialized B matrices real weights so the adapter
    // branch contributes to every projection.
    for name in ps.names() {
        if name.ends_with(".lora_b") {
            let id = ps.by_name(&name).unwrap();
            let shape = ps.value(id).shape().to_vec();
            *ps.value_mut(id) = Tensor::randn(shape, 0.5, &mut rng);
        }
    }
    let srcs = random_srcs(23, 6, m.cfg.vocab as u32);
    let want = sequential_outputs(&m, &ps, &srcs);
    let got = batched_greedy_decode(&m, &ps, &srcs, EOS, MAX_LEN, 4);
    assert_eq!(got, want);
}

#[test]
fn staggered_eos_keeps_survivors_bitwise_identical() {
    // Drive the engine by hand so we can check logits (not just tokens)
    // while requests retire at different steps. Each surviving request's
    // logit rows must stay bit-identical to its own sequential decode no
    // matter which neighbours have retired (and been NaN-poisoned).
    let (m, ps) = random_model(31, Positional::RelativeBias);
    let srcs = random_srcs(32, 4, m.cfg.vocab as u32);
    // Per-request sequential traces: logits of every step.
    let steps = 6usize;
    let seq_trace: Vec<Vec<Vec<f32>>> = srcs
        .iter()
        .map(|src| {
            let mut state = DecodeState::new(&m, &ps, src);
            let mut prev = DECODER_START;
            (0..steps)
                .map(|i| {
                    let logits = state.step(prev);
                    prev = (2 + i as u32) % m.cfg.vocab as u32;
                    logits
                })
                .collect()
        })
        .collect();

    let mut engine = BatchedDecodeState::new(&m, &ps, srcs.len());
    let slots: Vec<usize> = srcs.iter().map(|s| engine.admit(s).unwrap()).collect();
    // Request r retires after `2 + r` steps.
    let mut alive: Vec<usize> = (0..srcs.len()).collect();
    let mut prev: Vec<u32> = vec![DECODER_START; srcs.len()];
    // `step` indexes into `seq_trace[r]` for a request `r` chosen inside
    // the loop, so iterating a single trace is not equivalent.
    #[allow(clippy::needless_range_loop)]
    for step in 0..steps {
        if alive.is_empty() {
            break;
        }
        let active: Vec<(usize, u32)> = alive.iter().map(|&r| (slots[r], prev[r])).collect();
        let rows = engine.step_packed(&active);
        for (&r, row) in alive.iter().zip(rows.iter()) {
            let want = &seq_trace[r][step];
            for (i, (a, b)) in row.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "request {r} step {step} logit {i}: {a} vs {b}"
                );
            }
            prev[r] = (2 + step as u32) % m.cfg.vocab as u32;
        }
        alive.retain(|&r| {
            if step + 1 == 2 + r {
                engine.retire(slots[r]);
                false
            } else {
                true
            }
        });
    }
}

/// Decodes long enough (150 steps) that the decoder's relative-position
/// buckets leave the exact range (distance ≥ 16, the `ln` branch) and
/// saturate past `max_distance` = 128, on a model with several heads, a
/// `d_model` and a vocabulary that cross every `mm_nn` tile edge (a full
/// one-row `MM_NR_ROW` tile, `MM_NR` tiles and a scalar column tail),
/// and a vocabulary wider than one `MM_NC` tile. EOS sits outside the
/// vocabulary, so greedy argmax never emits it and every request runs
/// the full length. Logit rows are compared bit for bit at every step,
/// with the third request admitted mid-flight so the batch is ragged.
#[test]
fn long_decode_past_max_distance_is_bitwise_equal_to_sequential() {
    const STEPS: usize = 150;
    const LATE: usize = 20;
    let mut ps = ParamSet::new();
    let mut rng = XorShift::new(41);
    let cfg = T5Config {
        vocab: 300,
        d_model: 84,
        d_ff: 64,
        heads: 4,
        enc_layers: 1,
        dec_layers: 2,
        dropout: 0.0,
        positional: Positional::RelativeBias,
    };
    let m = T5Model::new(&mut ps, "m", cfg, &mut rng);
    let (d, vocab) = (m.cfg.d_model, m.cfg.vocab);
    assert!(vocab > MM_NC && d > MM_NR_ROW && d > MM_MR && vocab % MM_NR != 0 && d % MM_NR != 0);
    let eos = m.cfg.vocab as u32;
    let srcs = random_srcs(42, 3, m.cfg.vocab as u32);

    // Token level, through the batched scheduler with slot reuse.
    let want: Vec<Vec<u32>> = srcs
        .iter()
        .map(|src| greedy_decode(&mut DecodeState::new(&m, &ps, src), eos, STEPS))
        .collect();
    assert!(want.iter().all(|out| out.len() == STEPS));
    for capacity in [2, 3] {
        let got = batched_greedy_decode(&m, &ps, &srcs, eos, STEPS, capacity);
        assert_eq!(got, want, "capacity {capacity} diverged");
    }

    // Logit level, driven by hand: each request feeds back its own
    // sequential argmax, so both paths see the same token stream.
    let mut seqs: Vec<DecodeState> = srcs
        .iter()
        .map(|src| DecodeState::new(&m, &ps, src))
        .collect();
    let mut engine = BatchedDecodeState::new(&m, &ps, srcs.len());
    let mut slots: Vec<Option<usize>> = vec![None; srcs.len()];
    let mut prev = vec![DECODER_START; srcs.len()];
    let mut steps_done = vec![0usize; srcs.len()];
    for tick in 0..STEPS + LATE {
        for (r, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() && (r < 2 || tick == LATE) {
                *slot = engine.admit(&srcs[r]);
            }
        }
        let alive: Vec<usize> = (0..srcs.len())
            .filter(|&r| slots[r].is_some() && steps_done[r] < STEPS)
            .collect();
        let active: Vec<(usize, u32)> = alive
            .iter()
            .map(|&r| (slots[r].unwrap(), prev[r]))
            .collect();
        let rows = engine.step_packed(&active);
        for (&r, row) in alive.iter().zip(&rows) {
            let want = seqs[r].step(prev[r]);
            for (i, (a, b)) in row.iter().zip(&want).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "request {r} step {} logit {i}: {a} vs {b}",
                    steps_done[r]
                );
            }
            prev[r] = nn::decode::argmax(&want);
            steps_done[r] += 1;
        }
    }
    assert!(steps_done.iter().all(|&s| s == STEPS));
}
