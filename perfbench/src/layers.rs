//! Per-layer metrics of a traced run.
//!
//! * `functional.*` — spans around the `ReramMlp` calls of the traced
//!   repetitions: `train_batch`, `accuracy` and model construction.
//! * `reram.*.L<i>` — a layer replay: standalone `ReramMatrix` copies at
//!   each layer's geometry, programmed from the trained weights and driven
//!   with the workload's own activations and error vectors. On
//!   `mlp-ideal` the forward replay must match `ReramMlp::forward` bit for
//!   bit, read spikes included. On `device-campaign` the copies carry the
//!   noisy arm's device models but start fresh: representative, not
//!   exact. Layer 0's backward copy, which the trainer writes but never
//!   reads, is timed too.
//! * `reram.{encode,plane_pack,integrate}_us` — the packed kernels one
//!   layer-0 matvec runs, called one by one.
//! * `reram.noisy_matvec_us`, `lifecycle.*_us` — the campaign geometry's
//!   noisy read, verified write, repair and scrub, timed on fresh arrays.
//! * `lifecycle.*` counts and `sim.*` — the workload's own models (0 where
//!   it has no such device work).
//! * `nn.*`, `tensor.*` — the float trainer and kernels at Mnist-A and
//!   C-4 shapes, the same in every workload's traced run.

use crate::data::mnist_split;
use crate::stats::{median, Obj};
use crate::trace::Tracer;
use crate::workloads::{
    campaign_drift, campaign_wear, Rep, Workload, CAMPAIGN_DIMS, NOISE_STRENGTH, SCRUB_ROWS,
};
use pipelayer::functional::ReramMlp;
use pipelayer::{RepairController, RepairPolicy, SpareBudget};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::{zoo, Loss};
use pipelayer_reram::VerifyPolicy;
use pipelayer_reram::{packed, BitPlanes, NoiseModel, PackedSpikes, ReramMatrix, ReramParams};
use pipelayer_tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Network layers the replay metrics cover (both workloads' nets have two).
const LAYERS: usize = 2;
/// Images the forward/backward replay drives through the copies.
const REPLAY_IMAGES: usize = 64;
/// Weight updates and scrub calls of the lifecycle replay.
const LIFECYCLE_UPDATES: usize = 120;
const SCRUB_CALLS: usize = 60;
/// Seed salt the workloads use between a layer's forward and backward copy.
const BACKWARD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
/// Minimum wall time each kernel timing loop runs.
const KERNEL_S: f64 = 0.05;

/// Every per-layer metric, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("functional.train_batch_ms", "ms"),
    ("functional.accuracy_us_per_img", "us"),
    ("functional.setup_ms", "ms"),
    ("reram.fwd_matvec_us.L0", "us"),
    ("reram.fwd_matvec_us.L1", "us"),
    ("reram.bwd_matvec_us.L0", "us"),
    ("reram.bwd_matvec_us.L1", "us"),
    ("reram.read_us.L0", "us"),
    ("reram.read_us.L1", "us"),
    ("reram.write_us.L0", "us"),
    ("reram.write_us.L1", "us"),
    ("reram.encode_us", "us"),
    ("reram.plane_pack_us", "us"),
    ("reram.integrate_us", "us"),
    ("reram.crossbar_mvms_per_matvec", "count"),
    ("reram.read_spikes_per_matvec", "count"),
    ("reram.noisy_matvec_us", "us"),
    ("reram.noise_slowdown", "ratio"),
    ("lifecycle.write_verify_us", "us"),
    ("lifecycle.repair_us", "us"),
    ("lifecycle.scrub_rows_us", "us"),
    ("lifecycle.pulse_overhead", "ratio"),
    ("lifecycle.verify_reads_per_update", "count"),
    ("lifecycle.spares_used", "count"),
    ("lifecycle.dead_cells", "count"),
    ("lifecycle.masked_units", "count"),
    ("lifecycle.scrub_passes", "count"),
    ("nn.train_batch_parallel_ms", "ms"),
    ("nn.train_batch_ms", "ms"),
    ("nn.reduce_share", "fraction"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.im2col_us", "us"),
    ("tensor.outer_acc_us", "us"),
    ("sim.read_spikes_per_img", "count"),
    ("sim.program_pulses_per_img", "count"),
    ("sim.events_per_s", "1/s"),
    ("trace.train_img_per_s", "img/s"),
    ("trace.overhead", "fraction"),
];

/// Checks the traced run adds to the correctness verdict.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub json: String,
}

type Metrics = BTreeMap<&'static str, f64>;

/// Measures every per-layer metric of workload `w`.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    w: Workload,
    seed: u64,
    data: &SyntheticMnist,
    mut trained: Vec<ReramMlp>,
    tr: &mut Tracer,
    reps: &[Rep],
    traced_rate: f64,
    overhead: f64,
) -> (Vec<(String, &'static str, f64)>, Checks) {
    let first = &reps[0];
    let mut m = Metrics::new();
    let mut checks = Checks::default();

    let spans_ms = |name: &str| tr.durations_ms("functional", name);
    m.insert(
        "functional.train_batch_ms",
        median(&spans_ms("train_batch")),
    );
    let per_img: Vec<f64> = spans_ms("accuracy")
        .iter()
        .map(|ms| ms * 1e3 / data.test.len() as f64)
        .collect();
    m.insert("functional.accuracy_us_per_img", median(&per_img));
    m.insert("functional.setup_ms", median(&spans_ms("setup")));

    let n = REPLAY_IMAGES.min(data.test.len());
    let (images, labels) = (&data.test.images[..n], &data.test.labels[..n]);
    checks.json = if w == Workload::DeviceCampaign {
        // The noisy arm: most of the campaign's time.
        let noisy = trained.last().expect("the campaign trains three arms");
        replay(
            &mlp_layers(noisy),
            Some(seed),
            w.lr(),
            images,
            labels,
            tr,
            &mut m,
        );
        Obj::default()
            .str(
                "replay",
                "representative: fresh arrays with the noisy arm's device models",
            )
            .finish()
    } else {
        let mlp = &mut trained[0];
        let out = replay(&mlp_layers(mlp), None, w.lr(), images, labels, tr, &mut m);
        let before = mlp.read_spikes();
        let expected: Vec<Vec<f32>> = images.iter().map(|x| mlp.forward(x.as_slice())).collect();
        let fidelity = Fidelity {
            scales_matched: out.scales_matched,
            outputs_equal: same_bits(&out.outputs, &expected),
            model_spikes: mlp.read_spikes() - before,
            replay_spikes: out.read_spikes,
        };
        checks.attempted += 1;
        checks.failed += u64::from(!fidelity.exact());
        fidelity.json()
    };

    let c = &first.counters;
    m.insert("lifecycle.pulse_overhead", c.write.overhead());
    m.insert(
        "lifecycle.verify_reads_per_update",
        ratio_or_zero(c.write.verify_reads as f64, c.verified_updates as f64),
    );
    m.insert("lifecycle.spares_used", c.spares_used as f64);
    m.insert("lifecycle.dead_cells", c.dead_cells as f64);
    m.insert("lifecycle.masked_units", c.masked_units as f64);
    m.insert("lifecycle.scrub_passes", c.scrub_passes as f64);
    let imgs = first.train_images as f64;
    m.insert("sim.read_spikes_per_img", c.train_read_spikes as f64 / imgs);
    m.insert(
        "sim.program_pulses_per_img",
        c.train_program_pulses as f64 / imgs,
    );
    m.insert(
        "sim.events_per_s",
        (c.train_read_spikes + c.train_program_pulses) as f64
            / first.steps.iter().map(|t| t.raw_s).sum::<f64>(),
    );

    let shapes = mnist_split(64, 64, seed, 1);
    campaign_device(seed, &shapes, tr, &mut m);
    float_trainer(seed, &shapes, tr, &mut m);
    tensor_kernels(seed, &shapes, tr, &mut m);

    m.insert("trace.train_img_per_s", traced_rate);
    m.insert("trace.overhead", overhead);

    let out = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = *m.get(name).unwrap_or_else(|| panic!("{name} not measured"));
            (name.to_string(), unit, v)
        })
        .collect();
    (out, checks)
}

fn ratio_or_zero(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median µs per call of `f`, over at least five calls and `KERNEL_S`.
fn bench_us(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < KERNEL_S {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// `wᵀ` without the bias column: the backward copy's weights.
fn transpose_no_bias(w: &[f32], n_out: usize, n_in: usize) -> Vec<f32> {
    let mut wt = vec![0.0f32; n_in * n_out];
    for o in 0..n_out {
        for i in 0..n_in {
            wt[i * n_out + o] = w[o * (n_in + 1) + i];
        }
    }
    wt
}

/// Reprogramming read-back weights can land a few ulps off the original
/// weight scale; restores the scale under which the copy reads back
/// exactly `w`. Returns whether one was found.
fn match_scale(m: &mut ReramMatrix, w: &[f32]) -> bool {
    let same = |m: &ReramMatrix| {
        m.read()
            .iter()
            .zip(w)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    let base = m.weight_scale();
    if same(m) {
        return true;
    }
    for k in 1..=16u32 {
        for s in [base.to_bits() + k, base.to_bits() - k] {
            m.restore_weight_scale(f32::from_bits(s));
            if same(m) {
                return true;
            }
        }
    }
    m.restore_weight_scale(base);
    false
}

/// The forward replay of `mlp-ideal` against the model itself.
struct Fidelity {
    scales_matched: bool,
    outputs_equal: bool,
    model_spikes: u64,
    replay_spikes: u64,
}

impl Fidelity {
    fn exact(&self) -> bool {
        self.scales_matched && self.outputs_equal && self.model_spikes == self.replay_spikes
    }

    fn json(&self) -> String {
        Obj::default()
            .str("replay", "exact: must match ReramMlp::forward bit for bit")
            .bool("scales_matched", self.scales_matched)
            .bool("outputs_equal", self.outputs_equal)
            .int("model_read_spikes", self.model_spikes)
            .int("replay_read_spikes", self.replay_spikes)
            .bool("exact", self.exact())
            .finish()
    }
}

fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// One weighted layer: `w` is `n_out × (n_in + 1)`, bias last in each row.
struct Layer {
    n_in: usize,
    n_out: usize,
    w: Vec<f32>,
}

fn mlp_layers(mlp: &ReramMlp) -> Vec<Layer> {
    (0..mlp.depth())
        .map(|li| {
            let (n_in, n_out) = mlp.layer_dims(li);
            Layer {
                n_in,
                n_out,
                w: mlp.layer_weights(li),
            }
        })
        .collect()
}

/// What the forward chain of a replay produced.
struct ReplayOut {
    outputs: Vec<Vec<f32>>,
    read_spikes: u64,
    scales_matched: bool,
}

/// A layer's forward copy `A_l` over `[x, 1]` and its backward copy
/// `A_l2` holding `Wᵀ` without the bias.
struct Copy {
    n_in: usize,
    n_out: usize,
    fwd: ReramMatrix,
    bwd: ReramMatrix,
}

/// Replays `layers` on standalone copies (see the module docs). With
/// `noise_seed`, the copies carry the noisy arm's drift and noise models
/// under the salts `ReramMlp::with_resilience`/`attach_noise` use.
fn replay(
    layers: &[Layer],
    noise_seed: Option<u64>,
    lr: f32,
    images: &[Tensor],
    labels: &[usize],
    tr: &mut Tracer,
    m: &mut Metrics,
) -> ReplayOut {
    let params = ReramParams::default();
    let depth = layers.len();
    assert_eq!(depth, LAYERS, "the replay metrics cover {LAYERS} layers");
    let mut scales_matched = true;
    let mut copies: Vec<Copy> = layers
        .iter()
        .enumerate()
        .map(|(li, l)| {
            let mut fwd = ReramMatrix::program(&l.w, l.n_out, l.n_in + 1, &params);
            scales_matched &= match_scale(&mut fwd, &l.w);
            let wt = transpose_no_bias(&l.w, l.n_out, l.n_in);
            let mut bwd = ReramMatrix::program(&wt, l.n_in, l.n_out, &params);
            if let Some(seed) = noise_seed {
                let salt = seed.wrapping_add(1 + 1000 * li as u64);
                fwd.attach_drift(campaign_drift(), salt);
                bwd.attach_drift(campaign_drift(), salt ^ BACKWARD_SALT);
                let noise = NoiseModel::with_strength(NOISE_STRENGTH);
                fwd.attach_noise(noise, salt);
                bwd.attach_noise(noise, salt ^ BACKWARD_SALT);
            }
            Copy {
                n_in: l.n_in,
                n_out: l.n_out,
                fwd,
                bwd,
            }
        })
        .collect();
    let n = images.len();
    let seed = noise_seed.unwrap_or(0);

    // Forward chain, layer-major, exactly as `ReramMlp::forward` feeds it.
    let mut xs: Vec<Vec<f32>> = images.iter().map(|t| t.as_slice().to_vec()).collect();
    let mut ins_per_layer = Vec::with_capacity(depth);
    let mut outs_per_layer = Vec::with_capacity(depth);
    let mut read_spikes = 0;
    for (li, c) in copies.iter_mut().enumerate() {
        let ins: Vec<Vec<f32>> = xs
            .into_iter()
            .map(|mut v| {
                v.push(1.0);
                v
            })
            .collect();
        let before = c.fwd.read_spikes();
        let t = Instant::now();
        let mut outs = tr.time(&format!("L{li}"), "fwd_matvec", || c.fwd.matvec_batch(&ins));
        m_set(
            m,
            "reram.fwd_matvec_us",
            li,
            t.elapsed().as_secs_f64() * 1e6 / n as f64,
        );
        let spikes = c.fwd.read_spikes() - before;
        read_spikes += spikes;
        if li == 0 {
            m.insert("reram.read_spikes_per_matvec", spikes as f64 / n as f64);
            kernel_split(&c.fwd, &ins[0], &params, tr, m);
            m.insert(
                "reram.crossbar_mvms_per_matvec",
                crossbar_calls(&c.fwd, &ins, seed),
            );
        }
        if li + 1 < depth {
            for o in outs.iter_mut().flatten() {
                *o = o.max(0.0);
            }
        }
        ins_per_layer.push(ins);
        outs_per_layer.push(outs.clone());
        xs = outs;
    }

    // Error-backward chain: softmax cross-entropy deltas through the ReLU
    // masks and the backward copies, with each layer's ∂W accumulated as
    // the trainer does.
    let mut grads: Vec<Vec<f32>> = copies
        .iter()
        .map(|c| vec![0.0; c.n_out * (c.n_in + 1)])
        .collect();
    let mut deltas: Vec<Vec<f32>> = xs
        .iter()
        .zip(labels)
        .map(|(out, &l)| {
            let out = Tensor::from_vec(&[out.len()], out.clone());
            Loss::SoftmaxCrossEntropy
                .loss_and_delta(&out, l)
                .1
                .into_vec()
        })
        .collect();
    for li in (0..depth).rev() {
        if li + 1 < depth {
            for (d, o) in deltas.iter_mut().zip(&outs_per_layer[li]) {
                for (dv, &ov) in d.iter_mut().zip(o) {
                    if ov <= 0.0 {
                        *dv = 0.0;
                    }
                }
            }
        }
        for (d, x) in deltas.iter().zip(&ins_per_layer[li]) {
            ops::outer_acc(&mut grads[li], d, x);
        }
        let c = &mut copies[li];
        let t = Instant::now();
        deltas = tr.time(&format!("L{li}"), "bwd_matvec", || {
            c.bwd.matvec_batch(&deltas)
        });
        m_set(
            m,
            "reram.bwd_matvec_us",
            li,
            t.elapsed().as_secs_f64() * 1e6 / n as f64,
        );
    }

    // The Fig. 14(b) update: read the old weights out, write the updated
    // ones back to both copies. Alternating between the two weight sets
    // makes every write a real update of the cells this batch changes.
    for ((li, c), g) in copies.iter_mut().enumerate().zip(&grads) {
        let track = format!("L{li}");
        let old = c.fwd.read();
        let scale = lr / n as f32;
        let new: Vec<f32> = old.iter().zip(g).map(|(w, g)| w - scale * g).collect();
        let sets = [
            (transpose_no_bias(&new, c.n_out, c.n_in), new),
            (transpose_no_bias(&old, c.n_out, c.n_in), old),
        ];
        let mut read = Vec::new();
        let mut write = Vec::new();
        for (wt, w) in sets.iter().cycle().take(6) {
            let t = Instant::now();
            black_box(tr.time(&track, "read", || c.fwd.read()));
            read.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            tr.time(&track, "write", || {
                c.fwd.write(w);
                c.bwd.write(wt);
            });
            write.push(t.elapsed().as_secs_f64() * 1e6);
        }
        m_set(m, "reram.read_us", li, median(&read));
        m_set(m, "reram.write_us", li, median(&write));
    }
    ReplayOut {
        outputs: xs,
        read_spikes,
        scales_matched,
    }
}

/// Stores `reram.<family>.L<li>` under the name `PER_LAYER` declares.
fn m_set(m: &mut Metrics, family: &str, li: usize, v: f64) {
    let name = format!("{family}.L{li}");
    let key = PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"));
    m.insert(key, v);
}

/// Times the packed kernels one `matvec` of `fwd` on `x` runs, called one
/// by one in the order `ReramMatrix::matvec` issues them: per input sign
/// phase and member crossbar, one spike encode and one integrate; plus
/// one bit-plane pack per crossbar, which a matvec pays whenever the
/// plane cache is cold (after a write, and on every noisy read).
fn kernel_split(
    fwd: &ReramMatrix,
    x: &[f32],
    params: &ReramParams,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let bits = params.data_bits;
    let absmax = x.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let x_scale = absmax / (((1u64 << bits) - 1) as f32 / 2.0);
    let q: Vec<i64> = x.iter().map(|&v| (v / x_scale).round() as i64).collect();
    let phases: Vec<Vec<u32>> = [1i64, -1]
        .iter()
        .map(|&sign| {
            q.iter()
                .map(|&v| if v * sign > 0 { (v * sign) as u32 } else { 0 })
                .collect::<Vec<u32>>()
        })
        .filter(|p| p.iter().any(|&v| v != 0))
        .collect();
    let xbars: Vec<_> = fwd.crossbars().collect();
    let pack = || -> Vec<BitPlanes> {
        xbars
            .iter()
            .map(|x| {
                BitPlanes::pack(x.rows(), x.cols(), x.cell_bits(), |r, c| {
                    x.effective_level(r, c)
                })
            })
            .collect()
    };
    let planes = pack();
    let encode = || -> Vec<PackedSpikes> {
        phases
            .iter()
            .flat_map(|p| xbars.iter().map(move |_| PackedSpikes::encode(p, bits)))
            .collect()
    };
    let spikes = encode();
    let integrate = || {
        for (i, s) in spikes.iter().enumerate() {
            black_box(packed::mvm(s, &planes[i % planes.len()]));
        }
    };
    let e = tr.time("reram", "encode", || bench_us(|| drop(black_box(encode()))));
    let p = tr.time("reram", "plane_pack", || {
        bench_us(|| drop(black_box(pack())))
    });
    let i = tr.time("reram", "integrate", || bench_us(integrate));
    m.insert("reram.encode_us", e);
    m.insert("reram.plane_pack_us", p);
    m.insert("reram.integrate_us", i);
}

/// Crossbar MVMs one matvec issues, counted on a copy with per-read noise
/// attached: its noise state bumps once per crossbar MVM.
fn crossbar_calls(fwd: &ReramMatrix, ins: &[Vec<f32>], seed: u64) -> f64 {
    let mut copy = fwd.clone();
    copy.attach_noise(NoiseModel::with_strength(NOISE_STRENGTH), seed);
    let reads = |m: &ReramMatrix| -> u64 {
        m.crossbars()
            .map(|x| x.noise_state().map_or(0, |n| n.reads()))
            .sum()
    };
    let before = reads(&copy);
    for x in ins {
        black_box(copy.matvec(x));
    }
    (reads(&copy) - before) as f64 / ins.len() as f64
}

/// Layer 0 of the campaign net (16 × 50 with the bias row): noisy vs clean
/// reads, and the lifecycle's verified write, repair and scrub, on fresh
/// arrays with the campaign's device models.
fn campaign_device(seed: u64, shapes: &SyntheticMnist, tr: &mut Tracer, m: &mut Metrics) {
    let params = ReramParams::default();
    let (n_in, n_out) = (CAMPAIGN_DIMS[0] + 1, CAMPAIGN_DIMS[1]);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = (6.0 / (n_in + n_out) as f32).sqrt();
    let w = Tensor::uniform(&[n_out, n_in], -a, a, &mut rng).into_vec();
    let inputs: Vec<Vec<f32>> = shapes
        .test
        .images
        .iter()
        .map(|t| {
            let mut v = pipelayer::functional::downsample(t, 4).into_vec();
            v.push(1.0);
            v
        })
        .collect();

    let mut clean = ReramMatrix::program(&w, n_out, n_in, &params);
    let mut noisy = clean.clone();
    noisy.attach_noise(NoiseModel::with_strength(NOISE_STRENGTH), seed);
    let per = inputs.len() as f64;
    let c = tr.time("reram", "clean_matvec", || {
        bench_us(|| drop(black_box(clean.matvec_batch(&inputs))))
    }) / per;
    let n = tr.time("reram", "noisy_matvec", || {
        bench_us(|| drop(black_box(noisy.matvec_batch(&inputs))))
    }) / per;
    m.insert("reram.noisy_matvec_us", n);
    m.insert("reram.noise_slowdown", n / c);

    // Verified writes under wear, each followed by the laddered repair
    // controller, on weights that drift like training updates.
    let verify = VerifyPolicy::with_attempts(2);
    let mut arr = ReramMatrix::program(&w, n_out, n_in, &params);
    arr.attach_wear(campaign_wear(), seed);
    let mut ctl =
        RepairController::with_policy(SpareBudget::with_cols(8), RepairPolicy::laddered());
    let mut target = w.clone();
    let (mut write_s, mut repair_s) = (0.0, 0.0);
    for _ in 0..LIFECYCLE_UPDATES {
        let step = Tensor::uniform(&[n_out * n_in], -0.05 * a, 0.05 * a, &mut rng);
        for (t, s) in target.iter_mut().zip(step.as_slice()) {
            *t += s;
        }
        let t = Instant::now();
        let r = tr.time("lifecycle", "write_verify", || {
            arr.write_verify(&target, &verify, &mut rng)
        });
        write_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(tr.time("lifecycle", "repair", || {
            ctl.process_update(&mut arr, &r, &verify, &mut rng)
        }));
        repair_s += t.elapsed().as_secs_f64();
    }
    m.insert(
        "lifecycle.write_verify_us",
        write_s * 1e6 / LIFECYCLE_UPDATES as f64,
    );
    m.insert(
        "lifecycle.repair_us",
        repair_s * 1e6 / LIFECYCLE_UPDATES as f64,
    );

    // Scrub passes over an aging array, one budget of word lines per call.
    let mut aging = ReramMatrix::program(&w, n_out, n_in, &params);
    aging.attach_drift(campaign_drift(), seed);
    let scrub_verify = VerifyPolicy::default();
    let mut cursor = 0;
    let mut scrub_s = 0.0;
    for _ in 0..SCRUB_CALLS {
        aging.advance_cycles(1_000);
        let t = Instant::now();
        let r = tr.time("lifecycle", "scrub_rows", || {
            aging.scrub_rows(cursor, SCRUB_ROWS, &scrub_verify, &mut rng)
        });
        scrub_s += t.elapsed().as_secs_f64();
        black_box(r);
        cursor = (cursor + SCRUB_ROWS) % aging.in_dim();
    }
    m.insert(
        "lifecycle.scrub_rows_us",
        scrub_s * 1e6 / SCRUB_CALLS as f64,
    );
}

/// The float trainer at Mnist-A on one batch of 64: the path `Trainer`
/// runs (snapshot and reduce) against direct accumulation, and the
/// forward/backward split of the latter.
fn float_trainer(seed: u64, shapes: &SyntheticMnist, tr: &mut Tracer, m: &mut Metrics) {
    let (images, labels) = (&shapes.train.images, &shapes.train.labels);
    let mut net = zoo::mnist::mnist_a(seed);
    let parallel = tr.time("nn", "train_batch_parallel", || {
        bench_us(|| {
            black_box(net.train_batch_parallel(images, labels, 0.0, 1));
        })
    });
    let direct = tr.time("nn", "train_batch", || {
        bench_us(|| {
            black_box(net.train_batch(images, labels, 0.0));
        })
    });
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while fwd.len() < 5 || start.elapsed().as_secs_f64() < KERNEL_S {
        let (mut f, mut b) = (0.0, 0.0);
        for (x, &l) in images.iter().zip(labels) {
            let t = Instant::now();
            let out = tr.time("nn", "forward", || net.forward(x));
            f += t.elapsed().as_secs_f64();
            let delta = net.loss().loss_and_delta(&out, l).1;
            let t = Instant::now();
            black_box(tr.time("nn", "backward", || net.backward(&delta)));
            b += t.elapsed().as_secs_f64();
        }
        for layer in net.layers_mut() {
            layer.zero_grad();
        }
        fwd.push(f * 1e3);
        bwd.push(b * 1e3);
    }
    m.insert("nn.train_batch_parallel_ms", parallel / 1e3);
    m.insert("nn.train_batch_ms", direct / 1e3);
    m.insert("nn.reduce_share", 1.0 - direct / parallel);
    m.insert("nn.forward_ms", median(&fwd));
    m.insert("nn.backward_ms", median(&bwd));
}

/// The tensor kernels at the shapes the trainers use: the Mnist-A batch
/// GEMM (64 × 784 · 784 × 100), im2col of C-4's second conv input
/// (8 × 28 × 28, 3 × 3, pad 1) and Mnist-A layer 0's rank-1 ∂W update
/// (100 × 785).
fn tensor_kernels(seed: u64, shapes: &SyntheticMnist, tr: &mut Tracer, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e45);
    let batch: Vec<f32> = shapes
        .train
        .images
        .iter()
        .flat_map(|t| t.as_slice().to_vec())
        .collect();
    let a = Tensor::from_vec(&[shapes.train.len(), 784], batch);
    let b = Tensor::uniform(&[784, 100], -0.1, 0.1, &mut rng);
    let us = tr.time("tensor", "matmul", || {
        bench_us(|| drop(black_box(ops::matmul(&a, &b))))
    });
    let flops = 2.0 * shapes.train.len() as f64 * 784.0 * 100.0;
    m.insert("tensor.matmul_gflops", flops / us / 1e3);

    let x = Tensor::uniform(&[8, 28, 28], 0.0, 1.0, &mut rng);
    let us = tr.time("tensor", "im2col", || {
        bench_us(|| drop(black_box(ops::im2col(&x, 3, 3, 1, 1))))
    });
    m.insert("tensor.im2col_us", us);

    let y = Tensor::uniform(&[100], -1.0, 1.0, &mut rng).into_vec();
    let xv = Tensor::uniform(&[785], 0.0, 1.0, &mut rng).into_vec();
    let mut acc = vec![0.0f32; 100 * 785];
    let us = tr.time("tensor", "outer_acc", || {
        bench_us(|| ops::outer_acc(black_box(&mut acc), &y, &xv))
    });
    m.insert("tensor.outer_acc_us", us);
}
