//! Packed-vs-scalar spiked-MVM microbenchmark.
//!
//! Times `Crossbar::mvm_spiked` (the bit-packed popcount datapath) against
//! `Crossbar::mvm_spiked_scalar` (the pinned per-slot boolean walk) on
//! Mnist-A-shaped layers — 785×100 and 101×10 crossbars, the fc1/fc2
//! weight arrays with the bias row folded in — at the functional path's
//! 8-bit input resolution. Both paths are exact by construction, so the
//! benchmark double-checks bitwise equality of every output before trusting
//! the clock, and exits non-zero if the packed path is not at least the
//! floor factor faster (5× full, 2.5× under `--smoke` where tiny workloads
//! make the clock noisy). The two paths are timed interleaved, in
//! alternating blocks, so load from other processes on the host lands on
//! both rather than on one. The gated figure is the *network* speedup —
//! total scalar time over total packed time for one MVM per layer — because the
//! 101×10 output layer is too small for packing to amortize its fixed
//! per-call costs and would otherwise mask the win on the layer that
//! carries ~98% of the work. Per-layer rates are still reported, and full
//! runs record everything in `BENCH_mvm.json` (a `--smoke` run writes
//! nothing).
//!
//! A second, matrix-level row times the fused `ReramMatrix::matvec` (one
//! exact integer product per input phase against the recombined signed
//! levels) at fc1's shape against the same product composed from the
//! eight member crossbars' `mvm_spiked` calls through the public
//! `crossbars_mut()` accessor — the per-crossbar path the fused kernel
//! replaced. Outputs and every member's spike counters must agree bit for
//! bit, or the run fails; that row carries no speed floor.
//!
//! A third row times the Fig. 14(b) write-back of Mnist-A fc1: read the
//! forward copy (785 inputs × 100 outputs) out, then rewrite it and its
//! transposed copy (100 × 784), alternating between two weight sets so
//! every write moves levels. Stored levels, weight scales and write spikes
//! must match a reference built from public APIs alone (the quantizer's
//! scale rule, the nibble split and `Crossbar::program` on clones of the
//! members), or the run fails; that row carries no speed floor either.
//!
//! A fourth row times `ReramMatrix::matvec_batch` on a batch of 64
//! image-like fc1 inputs against the same 64 inputs through sequential
//! `matvec` calls. Outputs and every member's spike counters must agree
//! bit for bit, or the run fails; no speed floor.
//!
//! Every compared pair is timed interleaved, in alternating blocks.
//!
//! Single-threaded on purpose: the claim under test is the kernel's own
//! throughput, not batch-level parallelism.

use pipelayer_bench::{fmt_f, write_results, Table};
use pipelayer_reram::{Crossbar, ReramMatrix, ReramParams};
use std::hint::black_box;
use std::time::Instant;

/// Input resolution of the functional training paths (time slots per MVM).
const INPUT_BITS: u8 = 8;

/// Per-cell resolution of the Fig. 14 weight decomposition.
const CELL_BITS: u8 = 4;

/// Distinct input vectors cycled through while timing, so the measurement
/// is not a single-vector cache artifact.
const INPUT_POOL: usize = 32;

struct LayerArm {
    name: &'static str,
    rows: usize,
    cols: usize,
    packed_secs: f64,
    scalar_secs: f64,
    packed_mvms_per_sec: f64,
    scalar_mvms_per_sec: f64,
    speedup: f64,
}

/// Blocks each timed pair is split into (see [`paired`]).
const BLOCKS: usize = 10;

/// Inputs per batch of the batch row: the functional trainers' batch.
const BATCH: usize = 64;

/// Wall-clock seconds for `reps` calls of `step` (passed the rep index).
fn timed(reps: usize, mut step: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..reps {
        step(i);
    }
    t0.elapsed().as_secs_f64()
}

/// Total wall-clock seconds of `reps` calls each of `a` and `b` (passed
/// the rep index), timed interleaved: [`BLOCKS`] blocks, `a` first in
/// even blocks and `b` first in odd ones. A load spike on the host then
/// lands on both totals, not on one arm's back-to-back run.
fn paired(reps: usize, mut a: impl FnMut(usize), mut b: impl FnMut(usize)) -> (f64, f64) {
    let (mut total_a, mut total_b) = (0.0, 0.0);
    let per_block = reps.div_ceil(BLOCKS).max(1);
    for (k, start) in (0..reps).step_by(per_block).enumerate() {
        let n = per_block.min(reps - start);
        if k % 2 == 0 {
            total_a += timed(n, |i| a(start + i));
            total_b += timed(n, |i| b(start + i));
        } else {
            total_b += timed(n, |i| b(start + i));
            total_a += timed(n, |i| a(start + i));
        }
    }
    (total_a, total_b)
}

/// SplitMix64 step — a tiny self-contained stream so the benchmark does not
/// depend on any RNG crate surface.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Builds a deterministically-programmed crossbar and an input pool for one
/// layer shape. Two independently-built crossbars with the same seed hold
/// identical levels, so the packed and scalar arms read the same array.
fn build(rows: usize, cols: usize, seed: u64) -> (Crossbar, Vec<Vec<u32>>) {
    let mut state = seed;
    let max_level = (1u64 << CELL_BITS) - 1;
    let levels: Vec<Vec<u8>> = (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| u8::try_from(splitmix(&mut state) % (max_level + 1)).unwrap_or(0))
                .collect()
        })
        .collect();
    let mut xbar = Crossbar::new(rows, cols, CELL_BITS);
    xbar.program(&levels);
    let max_in = 1u64 << INPUT_BITS;
    let inputs: Vec<Vec<u32>> = (0..INPUT_POOL)
        .map(|_| {
            (0..rows)
                .map(|_| u32::try_from(splitmix(&mut state) % max_in).unwrap_or(0))
                .collect()
        })
        .collect();
    (xbar, inputs)
}

/// Matrix-level timing of the fused kernel against the per-crossbar
/// composition.
struct MatrixArm {
    fused_matvecs_per_sec: f64,
    composed_matvecs_per_sec: f64,
    speedup: f64,
    identical: bool,
}

/// A uniform draw in `[-1, 1)` from the SplitMix64 stream.
fn signed_unit(state: &mut u64) -> f32 {
    let top = u16::try_from(splitmix(state) >> 48).unwrap_or(0);
    f32::from(top) / 32768.0 - 1.0
}

/// `ReramMatrix::matvec` composed from the member crossbars through the
/// public API: the same input quantization, then per input sign phase one
/// `mvm_spiked` on each member (positive/negative interleaved,
/// least-significant segment group first), shift-added and subtracted.
fn composed_matvec(m: &mut ReramMatrix, x: &[f32], params: &ReramParams) -> Vec<f32> {
    let absmax = x.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    if absmax == 0.0 {
        return vec![0.0; m.out_dim()];
    }
    let x_scale = absmax / ((2f32.powi(i32::from(params.data_bits)) - 1.0) / 2.0);
    let q: Vec<i64> = x.iter().map(|&v| (v / x_scale).round() as i64).collect();
    let mut acc = vec![0i64; m.out_dim()];
    for sign in [1i64, -1] {
        let phase: Vec<u32> = q
            .iter()
            .map(|&v| u32::try_from(v * sign).unwrap_or(0))
            .collect();
        if phase.iter().all(|&v| v == 0) {
            continue;
        }
        for (k, xbar) in m.crossbars_mut().enumerate() {
            let shift = k / 2 * usize::from(params.cell_bits);
            let member_sign = if k % 2 == 0 { sign } else { -sign };
            let y = xbar.mvm_spiked(&phase, params.data_bits);
            for (a, &v) in acc.iter_mut().zip(&y) {
                *a += member_sign * ((v as i64) << shift);
            }
        }
    }
    let scale = m.weight_scale();
    acc.iter().map(|&a| a as f32 * scale * x_scale).collect()
}

/// Times the fused matvec against the per-crossbar composition on two
/// identically-programmed `rows × cols` matrices; checks outputs and
/// member spike counters before trusting the clock.
fn matrix_arm(rows: usize, cols: usize, seed: u64, reps: usize) -> MatrixArm {
    let params = ReramParams::default();
    let mut state = seed;
    let w: Vec<f32> = (0..rows * cols).map(|_| signed_unit(&mut state)).collect();
    let inputs: Vec<Vec<f32>> = (0..INPUT_POOL)
        .map(|_| (0..rows).map(|_| signed_unit(&mut state)).collect())
        .collect();
    let mut fused = ReramMatrix::program(&w, cols, rows, &params);
    let mut composed = fused.clone();

    let mut identical = true;
    for x in &inputs {
        let a = fused.matvec(x);
        let b = composed_matvec(&mut composed, x, &params);
        identical &= a
            .iter()
            .map(|v| v.to_bits())
            .eq(b.iter().map(|v| v.to_bits()));
    }
    identical &= fused
        .crossbars()
        .map(Crossbar::spike_counters)
        .eq(composed.crossbars().map(Crossbar::spike_counters));
    if !identical {
        eprintln!("CORRECTNESS FAILURE: fused matvec != per-crossbar composition");
    }

    let (fused_secs, composed_secs) = paired(
        reps,
        |i| {
            black_box(fused.matvec(&inputs[i % INPUT_POOL]));
        },
        |i| {
            black_box(composed_matvec(
                &mut composed,
                &inputs[i % INPUT_POOL],
                &params,
            ));
        },
    );
    MatrixArm {
        fused_matvecs_per_sec: reps as f64 / fused_secs,
        composed_matvecs_per_sec: reps as f64 / composed_secs,
        speedup: composed_secs / fused_secs,
        identical,
    }
}

/// Timing of one batched matvec against the same inputs one by one.
struct BatchArm {
    batched_us_per_input: f64,
    sequential_us_per_input: f64,
    speedup: f64,
    identical: bool,
}

/// Times `matvec_batch` on [`BATCH`] image-like inputs of a `rows × cols`
/// matrix (non-negative, about a third exact zeros, the bias input 1.0
/// last) against sequential `matvec` calls on an identically-programmed
/// matrix; checks outputs and member spike counters before trusting the
/// clock.
fn batch_arm(rows: usize, cols: usize, seed: u64, reps: usize) -> BatchArm {
    let params = ReramParams::default();
    let mut state = seed;
    let w: Vec<f32> = (0..rows * cols).map(|_| signed_unit(&mut state)).collect();
    let inputs: Vec<Vec<f32>> = (0..BATCH)
        .map(|_| {
            (1..rows)
                .map(|_| signed_unit(&mut state).max(-0.3) + 0.3)
                .chain([1.0])
                .collect()
        })
        .collect();
    let mut batched = ReramMatrix::program(&w, cols, rows, &params);
    let mut sequential = batched.clone();

    let got = batched.matvec_batch(&inputs);
    let want: Vec<Vec<f32>> = inputs.iter().map(|x| sequential.matvec(x)).collect();
    let identical = got
        .iter()
        .flatten()
        .map(|v| v.to_bits())
        .eq(want.iter().flatten().map(|v| v.to_bits()))
        && batched
            .crossbars()
            .map(Crossbar::spike_counters)
            .eq(sequential.crossbars().map(Crossbar::spike_counters));
    if !identical {
        eprintln!("CORRECTNESS FAILURE: matvec_batch != sequential matvec");
    }

    let (batched_secs, sequential_secs) = paired(
        reps,
        |_| {
            black_box(batched.matvec_batch(&inputs));
        },
        |_| {
            for x in &inputs {
                black_box(sequential.matvec(x));
            }
        },
    );
    let per_input = 1e6 / (reps * BATCH) as f64;
    BatchArm {
        batched_us_per_input: batched_secs * per_input,
        sequential_us_per_input: sequential_secs * per_input,
        speedup: sequential_secs / batched_secs,
        identical,
    }
}

/// Timing of the Fig. 14(b) write-back on one layer's two copies.
struct WritebackArm {
    read_us: f64,
    write_us: f64,
    identical: bool,
}

/// `ReramMatrix::write` rebuilt from public APIs on `members` (clones of a
/// matrix's crossbars, in `crossbars()` order): the weight scale maps the
/// largest magnitude to the top signed level, each weight rounds to a
/// level, and segment group `g` of a level goes to the positive or the
/// negative array of pair `g` through `Crossbar::program`. Returns the
/// scale.
fn reference_write(
    members: &mut [Crossbar],
    weights: &[f32],
    out_dim: usize,
    in_dim: usize,
    params: &ReramParams,
) -> f32 {
    let qmax = (1i64 << (params.data_bits - 1)) - 1;
    let absmax = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
    let scale = if absmax == 0.0 {
        1.0
    } else {
        absmax / (2f32.powi(i32::from(params.data_bits) - 1) - 1.0)
    };
    let mask = (1u64 << params.cell_bits) - 1;
    for (g, pair) in members.chunks_exact_mut(2).enumerate() {
        let shift = g * usize::from(params.cell_bits);
        let mut pos = vec![vec![0u8; out_dim]; in_dim];
        let mut neg = vec![vec![0u8; out_dim]; in_dim];
        for (o, row) in weights.chunks_exact(in_dim).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                let q = ((w / scale).round() as i64).clamp(-qmax, qmax);
                let nibble = u8::try_from((q.unsigned_abs() >> shift) & mask).unwrap_or(u8::MAX);
                let side = if q >= 0 { &mut pos } else { &mut neg };
                side[i][o] = nibble;
            }
        }
        if let [p, n] = pair {
            p.program(&pos);
            n.program(&neg);
        }
    }
    scale
}

/// The transposed copy's weights, as the functional trainers build them:
/// `w` (`[n_out][n_in + 1]`, bias last) transposed to `[n_in][n_out]`
/// without the bias column.
fn transpose_no_bias(w: &[f32], n_out: usize, n_in: usize) -> Vec<f32> {
    (0..n_in)
        .flat_map(|i| (0..n_out).map(move |o| w[o * (n_in + 1) + i]))
        .collect()
}

/// Whether `m`'s members hold exactly `members`' stored levels and write
/// spikes, and `m` the reference scale.
fn matches_reference(m: &ReramMatrix, members: &[Crossbar], scale: f32) -> bool {
    m.weight_scale().to_bits() == scale.to_bits()
        && m.crossbars()
            .map(|x| (x.stored_levels(), x.write_spikes()))
            .eq(members
                .iter()
                .map(|x| (x.stored_levels(), x.write_spikes())))
}

/// Times `read` of the forward copy plus `write` of both copies of a
/// `rows × cols` layer (`rows` inputs with the bias row folded in), after
/// checking the writes against [`reference_write`].
fn writeback_arm(rows: usize, cols: usize, seed: u64, reps: usize) -> WritebackArm {
    let params = ReramParams::default();
    let mut state = seed;
    let a: Vec<f32> = (0..rows * cols)
        .map(|_| 0.1 * signed_unit(&mut state))
        .collect();
    // A second set one small SGD-sized step away, as in training.
    let b: Vec<f32> = a
        .iter()
        .map(|&w| w - 1e-3 * signed_unit(&mut state))
        .collect();
    // The transposed copy drops the bias row: `cols` inputs, `rows - 1`
    // outputs.
    let sets: Vec<(Vec<f32>, Vec<f32>)> = [a, b]
        .into_iter()
        .map(|w| {
            let wt = transpose_no_bias(&w, cols, rows - 1);
            (w, wt)
        })
        .collect();
    let mut fwd = ReramMatrix::program(&sets[0].0, cols, rows, &params);
    let mut bwd = ReramMatrix::program(&sets[0].1, rows - 1, cols, &params);

    let mut identical = true;
    let mut ref_fwd: Vec<Crossbar> = fwd.crossbars().cloned().collect();
    let mut ref_bwd: Vec<Crossbar> = bwd.crossbars().cloned().collect();
    for (w, wt) in sets.iter().cycle().skip(1).take(4) {
        fwd.write(w);
        bwd.write(wt);
        let scale = reference_write(&mut ref_fwd, w, cols, rows, &params);
        identical &= matches_reference(&fwd, &ref_fwd, scale);
        let scale = reference_write(&mut ref_bwd, wt, rows - 1, cols, &params);
        identical &= matches_reference(&bwd, &ref_bwd, scale);
    }
    if !identical {
        eprintln!("CORRECTNESS FAILURE: write-back != public-API reference");
    }

    let (mut read_s, mut write_s) = (0.0f64, 0.0f64);
    for (w, wt) in sets.iter().cycle().take(reps) {
        read_s += timed(1, |_| {
            black_box(fwd.read());
        });
        write_s += timed(1, |_| {
            fwd.write(w);
            bwd.write(wt);
        });
    }
    WritebackArm {
        read_us: read_s * 1e6 / reps as f64,
        write_us: write_s * 1e6 / reps as f64,
        identical,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, floor) = if smoke { (24usize, 2.5f64) } else { (400, 5.0) };

    // fc1/fc2 of Table 3's Mnist-A (784-100-10), bias row folded in.
    let layers: [(&str, usize, usize, u64); 2] = [
        ("mnist_a fc1", 785, 100, 0xA11CE),
        ("mnist_a fc2", 101, 10, 0xB0B5),
    ];

    println!(
        "spiked-MVM throughput — packed popcount vs scalar slot walk, {INPUT_BITS}-bit inputs, {reps} reps{}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut arms: Vec<LayerArm> = Vec::new();
    let mut all_identical = true;
    for &(name, rows, cols, seed) in &layers {
        let (mut packed_xbar, inputs) = build(rows, cols, seed);
        let (mut scalar_xbar, _) = build(rows, cols, seed);

        // Correctness gate before trusting the clock: every pooled input
        // must produce bitwise-identical outputs on both paths.
        for x in &inputs {
            let p = packed_xbar.mvm_spiked(x, INPUT_BITS);
            let s = scalar_xbar.mvm_spiked_scalar(x, INPUT_BITS);
            if p != s {
                all_identical = false;
                eprintln!("CORRECTNESS FAILURE: {name} packed != scalar");
                break;
            }
        }

        // Warmup already happened above (plane cache is hot, pages faulted).
        let (packed_secs, scalar_secs) = paired(
            reps,
            |i| {
                black_box(packed_xbar.mvm_spiked(&inputs[i % INPUT_POOL], INPUT_BITS));
            },
            |i| {
                black_box(scalar_xbar.mvm_spiked_scalar(&inputs[i % INPUT_POOL], INPUT_BITS));
            },
        );

        let packed_rate = reps as f64 / packed_secs;
        let scalar_rate = reps as f64 / scalar_secs;
        arms.push(LayerArm {
            name,
            rows,
            cols,
            packed_secs,
            scalar_secs,
            packed_mvms_per_sec: packed_rate,
            scalar_mvms_per_sec: scalar_rate,
            speedup: packed_rate / scalar_rate,
        });
    }

    let mut table = Table::new(
        "Spiked-MVM throughput (single thread)".to_string(),
        &["layer", "shape", "packed MVM/s", "scalar MVM/s", "speedup"],
    );
    for arm in &arms {
        table.row(vec![
            arm.name.to_string(),
            format!("{}x{}", arm.rows, arm.cols),
            fmt_f(arm.packed_mvms_per_sec, 1),
            fmt_f(arm.scalar_mvms_per_sec, 1),
            format!("{}x", fmt_f(arm.speedup, 2)),
        ]);
    }
    table.print();

    let (m_rows, m_cols) = (785, 100);
    let matrix = matrix_arm(m_rows, m_cols, 0xFC1, reps);
    all_identical &= matrix.identical;
    let mut table = Table::new(
        "Signed 16-bit matrix matvec, fused vs per-crossbar (single thread)".to_string(),
        &[
            "layer",
            "shape",
            "fused matvec/s",
            "per-crossbar matvec/s",
            "speedup",
        ],
    );
    table.row(vec![
        "mnist_a fc1".to_string(),
        format!("{m_rows}x{m_cols}"),
        fmt_f(matrix.fused_matvecs_per_sec, 1),
        fmt_f(matrix.composed_matvecs_per_sec, 1),
        format!("{}x", fmt_f(matrix.speedup, 2)),
    ]);
    table.print();

    let writeback = writeback_arm(m_rows, m_cols, 0xB4C, reps);
    all_identical &= writeback.identical;
    let mut table = Table::new(
        "Fig. 14(b) write-back of both fc1 copies (single thread)".to_string(),
        &["layer", "copies", "read µs", "write µs", "update µs"],
    );
    table.row(vec![
        "mnist_a fc1".to_string(),
        format!("{m_rows}x{m_cols} + {m_cols}x{}", m_rows - 1),
        fmt_f(writeback.read_us, 1),
        fmt_f(writeback.write_us, 1),
        fmt_f(writeback.read_us + writeback.write_us, 1),
    ]);
    table.print();

    // A batch is 64 matvecs, so an eighth of the reps keeps the row's
    // time near the others'.
    let batch = batch_arm(m_rows, m_cols, 0xBA7C, (reps / 8).max(BLOCKS));
    all_identical &= batch.identical;
    let mut table = Table::new(
        format!("matvec_batch on {BATCH} inputs vs {BATCH} sequential matvecs (single thread)"),
        &[
            "layer",
            "shape",
            "batched µs/input",
            "sequential µs/input",
            "speedup",
        ],
    );
    table.row(vec![
        "mnist_a fc1".to_string(),
        format!("{m_rows}x{m_cols}"),
        fmt_f(batch.batched_us_per_input, 2),
        fmt_f(batch.sequential_us_per_input, 2),
        format!("{}x", fmt_f(batch.speedup, 2)),
    ]);
    table.print();

    // Network speedup: one MVM per layer (a full forward pass). Equal rep
    // counts per layer make the timed totals directly comparable.
    let scalar_total: f64 = arms.iter().map(|a| a.scalar_secs).sum();
    let packed_total: f64 = arms.iter().map(|a| a.packed_secs).sum();
    let network_speedup = scalar_total / packed_total;

    // Hand-written JSON (no serde in the workspace).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"mvm\",\n");
    json.push_str("  \"mode\": \"full\",\n");
    json.push_str(&format!("  \"input_bits\": {INPUT_BITS},\n"));
    json.push_str(&format!("  \"cell_bits\": {CELL_BITS},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!(
        "  \"timing\": \"each compared pair interleaved in {BLOCKS} alternating blocks\",\n"
    ));
    json.push_str(&format!(
        "  \"outputs_bitwise_identical\": {all_identical},\n"
    ));
    json.push_str(&format!(
        "  \"network_speedup\": {},\n",
        json_num(network_speedup)
    ));
    json.push_str(&format!("  \"speedup_floor\": {floor},\n"));
    json.push_str("  \"layers\": [\n");
    for (i, arm) in arms.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"layer\": \"{}\", \"rows\": {}, \"cols\": {}, \"packed_mvms_per_sec\": {}, \"scalar_mvms_per_sec\": {}, \"speedup\": {}}}{}\n",
            arm.name,
            arm.rows,
            arm.cols,
            json_num(arm.packed_mvms_per_sec),
            json_num(arm.scalar_mvms_per_sec),
            json_num(arm.speedup),
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"matrix\": {{\"layer\": \"mnist_a fc1\", \"rows\": {m_rows}, \"cols\": {m_cols}, \"data_bits\": {}, \"crossbars\": 8, \"fused_matvecs_per_sec\": {}, \"per_crossbar_matvecs_per_sec\": {}, \"speedup\": {}}},\n",
        ReramParams::default().data_bits,
        json_num(matrix.fused_matvecs_per_sec),
        json_num(matrix.composed_matvecs_per_sec),
        json_num(matrix.speedup),
    ));
    json.push_str(&format!(
        "  \"writeback\": {{\"layer\": \"mnist_a fc1\", \"forward\": \"{m_rows}x{m_cols}\", \"transposed\": \"{m_cols}x{}\", \"read_us\": {}, \"write_us\": {}, \"update_us\": {}, \"levels_identical\": {}}},\n",
        m_rows - 1,
        json_num(writeback.read_us),
        json_num(writeback.write_us),
        json_num(writeback.read_us + writeback.write_us),
        writeback.identical,
    ));
    json.push_str(&format!(
        "  \"batch\": {{\"layer\": \"mnist_a fc1\", \"rows\": {m_rows}, \"cols\": {m_cols}, \"batch\": {BATCH}, \"batched_us_per_input\": {}, \"sequential_us_per_input\": {}, \"speedup\": {}, \"identical\": {}}}\n",
        json_num(batch.batched_us_per_input),
        json_num(batch.sequential_us_per_input),
        json_num(batch.speedup),
        batch.identical,
    ));
    json.push_str("}\n");
    write_results("BENCH_mvm.json", &json, smoke);

    if !all_identical {
        eprintln!("a fast path diverged from its reference — failing");
        std::process::exit(1);
    }
    if network_speedup < floor {
        eprintln!(
            "packed network speedup {network_speedup:.2}x below the {floor}x floor — failing"
        );
        std::process::exit(1);
    }
    println!(
        "packed outputs bitwise identical to scalar; network speedup {:.2}x (floor {floor}x)",
        network_speedup
    );
    println!(
        "fused matvec outputs and spike counters identical to the per-crossbar composition; {:.2}x",
        matrix.speedup
    );
    println!(
        "write-back levels, scales and write spikes identical to the public-API reference; update {:.1} µs",
        writeback.read_us + writeback.write_us
    );
    println!(
        "matvec_batch outputs and spike counters identical to sequential matvec; {:.2}x",
        batch.speedup
    );
}
