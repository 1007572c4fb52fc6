//! Ablation — the unified analog non-ideality model versus noise-aware
//! training.
//!
//! Three campaigns in one binary:
//!
//! * **Strength × mitigation** — train each study network twice (naive:
//!   clean weights; noise-aware: every batch's passes run on weights
//!   carrying the same device draws inference will see), then evaluate
//!   both under the unified noise model (lognormal LRS/HRS spread, IR
//!   drop, read noise) across a strength sweep. The headline number is the
//!   *recovered fraction* at the mid-strength point: how much of the
//!   accuracy the naive network loses to noise the noise-aware network
//!   wins back. The CI gate requires ≥ half.
//! * **Noise + aging + scrub** — the functional ReRAM datapath with noise
//!   attached *and* drifting cells, with and without the online scrub
//!   scheduler: non-idealities compose, and scrub still earns its keep
//!   under analog noise.
//! * **Determinism** — noise-aware training repeated at 1/2(/8) worker
//!   threads must produce bitwise-identical weights (the perturbation is
//!   pure in `(seed, layer, batch)` and precedes the parallel section).
//!   Any divergence fails the binary (exit 1).
//!
//! Full runs write `BENCH_noise.json`. `--smoke` shrinks everything for CI
//! and writes nothing.

use pipelayer::functional::{downsample, ReramMlp};
use pipelayer::variation::{noise_sweep, VariationPoint};
use pipelayer::{ReramNoiseHook, ScrubPolicy};
use pipelayer_bench::{fmt_f, write_results, Table};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::trainer::{TrainConfig, Trainer};
use pipelayer_nn::{zoo, Network};
use pipelayer_reram::{DriftModel, NoiseModel, ReramParams, VerifyPolicy};
use pipelayer_tensor::Tensor;
use std::sync::Arc;

/// One chip instance: the seed every device-variation stream (training
/// hook AND evaluation corruption) derives from.
const NOISE_SEED: u64 = 0xA11A;
/// Strength sweep: clean, the gated mid point, and a harsh tail.
const STRENGTHS: [f64; 3] = [0.0, 4.0, 6.0];
/// Index of the gated point in [`STRENGTHS`].
const MID: usize = 1;
/// Accuracy the naive net must actually lose before the recovery gate is
/// meaningful; below this the noise didn't bite and the point passes.
const MIN_LOSS: f32 = 0.02;

struct NetResult {
    name: &'static str,
    naive: Vec<VariationPoint>,
    aware: Vec<VariationPoint>,
    /// `(aware − naive) / (clean − naive)` at the mid strength, or `None`
    /// when the naive loss there is under [`MIN_LOSS`].
    recovered_fraction: Option<f32>,
}

fn weight_bits(net: &mut Network) -> Vec<u32> {
    let mut bits = Vec::new();
    for layer in net.layers_mut() {
        if let Some(p) = layer.params_mut() {
            bits.extend(p.weight.as_slice().iter().map(|v| v.to_bits()));
            bits.extend(p.bias.as_slice().iter().map(|v| v.to_bits()));
        }
    }
    bits
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn points_json(points: &[VariationPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"strength\": {}, \"accuracy\": {}, \"normalized\": {}}}",
                json_num(p.sigma),
                json_num(f64::from(p.accuracy)),
                json_num(f64::from(p.normalized))
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_train, n_test, epochs) = if smoke { (300, 100, 4) } else { (600, 200, 6) };
    let trials = if smoke { 3 } else { 4 };
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 8] };
    type NetCtor = fn(u64) -> Network;
    let nets: &[(&'static str, NetCtor)] = if smoke {
        &[("Mnist-A", zoo::mnist_a)]
    } else {
        &[
            ("Mnist-A", zoo::mnist_a),
            ("Mnist-0", zoo::mnist_0),
            ("C-4", zoo::c4),
        ]
    };
    let params = ReramParams::default();
    let mid_model = NoiseModel::with_strength(STRENGTHS[MID]);
    // The training hook injects only the REPEATABLE error components
    // (lognormal device spread, IR drop): per-read noise is temporally
    // white, so it carries no learnable structure — feeding it to the
    // gradients would only add variance without moving the optimum.
    let hook_model = NoiseModel {
        read_sigma: 0.0,
        ..mid_model
    };
    let config = TrainConfig {
        epochs,
        batch_size: 16,
        lr: 0.1,
        threads: 1,
    };

    // ---- Campaign 1: strength × mitigation on the study networks.
    println!(
        "noise campaign — {n_train} train / {n_test} test, {epochs} epochs{}",
        if smoke { " [smoke]" } else { "" }
    );
    let data = SyntheticMnist::generate(n_train, n_test, 4243);
    let mut results: Vec<NetResult> = Vec::new();
    let mut table = Table::new(
        "Ablation: accuracy under analog noise — naive vs noise-aware training",
        &[
            "network",
            "arm",
            "clean",
            &format!("s={}", STRENGTHS[MID]),
            &format!("s={}", STRENGTHS[2]),
            "recovered",
        ],
    );
    for &(name, build) in nets {
        let mut naive_net = build(4243);
        Trainer::new(config).fit(&mut naive_net, &data);

        let hook = ReramNoiseHook::new(hook_model, params, NOISE_SEED);
        let mut aware_net = build(4243);
        Trainer::new(config)
            .with_noise(Arc::new(hook))
            .fit(&mut aware_net, &data);

        let naive = noise_sweep(
            &mut naive_net,
            &data.test,
            &STRENGTHS,
            trials,
            &params,
            NOISE_SEED,
        );
        let aware = noise_sweep(
            &mut aware_net,
            &data.test,
            &STRENGTHS,
            trials,
            &params,
            NOISE_SEED,
        );

        let loss = naive[0].accuracy - naive[MID].accuracy;
        let recovered_fraction = if loss >= MIN_LOSS {
            Some((aware[MID].accuracy - naive[MID].accuracy) / loss)
        } else {
            None
        };
        for (arm, pts) in [("naive", &naive), ("noise-aware", &aware)] {
            table.row(vec![
                name.to_string(),
                arm.to_string(),
                fmt_f(f64::from(pts[0].accuracy), 3),
                fmt_f(f64::from(pts[MID].accuracy), 3),
                fmt_f(f64::from(pts[2].accuracy), 3),
                if arm == "naive" {
                    fmt_f(f64::from(loss), 3) + " lost"
                } else {
                    match recovered_fraction {
                        Some(f) => fmt_f(f64::from(f), 2),
                        None => "n/a (loss < gate)".into(),
                    }
                },
            ]);
        }
        results.push(NetResult {
            name,
            naive,
            aware,
            recovered_fraction,
        });
    }
    table.print();

    // ---- Campaign 2: noise + aging + scrub on the functional datapath.
    println!();
    let (f_epochs, age_steps, step_cycles) = if smoke {
        (6, 3, 50_000u64)
    } else {
        (8, 6, 100_000u64)
    };
    let fdata = SyntheticMnist::generate(120, 40, 77);
    let tr: Vec<Tensor> = fdata
        .train
        .images
        .iter()
        .map(|t| downsample(t, 4))
        .collect();
    let te: Vec<Tensor> = fdata.test.images.iter().map(|t| downsample(t, 4)).collect();
    let (trl, tel) = (&fdata.train.labels, &fdata.test.labels);
    let drift = DriftModel {
        nu: 0.2,
        nu_sigma: 0.15,
        t0_cycles: 10_000,
        disturb_per_level: 0,
    };
    let mut mlp = ReramMlp::with_resilience(
        &[49, 16, 10],
        &params,
        5,
        drift,
        ScrubPolicy::off(),
        VerifyPolicy::default(),
    );
    // Milder than the weight-level sweep: here EVERY analog MVM (forward,
    // backward, and the Fig. 14(b) read-back of the update) is noisy, so
    // the datapath trains through the noise rather than around it.
    mlp.attach_noise(NoiseModel::with_strength(0.25), NOISE_SEED);
    for _ in 0..f_epochs {
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
            mlp.train_batch(imgs, labs, 0.3);
        }
    }
    let func_baseline = f64::from(mlp.accuracy(&te, tel));
    let mut func_rows: Vec<(String, f64, u64)> = Vec::new();
    for scrub_on in [false, true] {
        let mut arm = mlp.clone();
        if scrub_on {
            arm.set_scrub(ScrubPolicy::every(1_000, 16));
        }
        arm.advance_cycles(age_steps * step_cycles);
        func_rows.push((
            if scrub_on { "scrub on" } else { "scrub off" }.to_string(),
            f64::from(arm.accuracy(&te, tel)),
            arm.scrub_passes(),
        ));
    }
    let mut func_table = Table::new(
        "Functional datapath: noisy arrays aging, with/without scrub",
        &["arm", "accuracy after aging", "scrub passes"],
    );
    for (arm, acc, passes) in &func_rows {
        func_table.row(vec![arm.clone(), fmt_f(*acc, 3), passes.to_string()]);
    }
    func_table.print();
    println!(
        "noisy baseline before aging: {} ({} aging cycles applied)",
        fmt_f(func_baseline, 3),
        age_steps * step_cycles
    );

    // ---- Campaign 3: thread-count determinism of noise-aware training.
    println!();
    let ddata = SyntheticMnist::generate(96, 24, 57);
    let mut reference: Option<Vec<u32>> = None;
    let mut deterministic = true;
    for &threads in thread_counts {
        let hook = ReramNoiseHook::new(hook_model, params, NOISE_SEED);
        let mut net = zoo::mnist_a(57);
        Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.1,
            threads,
        })
        .with_noise(Arc::new(hook))
        .fit(&mut net, &ddata);
        let bits = weight_bits(&mut net);
        match &reference {
            None => reference = Some(bits),
            Some(r) => {
                let same = *r == bits;
                deterministic &= same;
                println!(
                    "noise-aware training at {threads} threads: {}",
                    if same {
                        "bitwise identical"
                    } else {
                        "DIVERGED"
                    }
                );
            }
        }
    }

    // ---- JSON artifact.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"noise\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!(
        "  \"model_at_strength_1\": {{\"lrs_sigma\": {}, \"hrs_sigma\": {}, \"ir_drop\": {}, \"read_sigma\": {}, \"g_ratio\": {}}},\n",
        json_num(NoiseModel::with_strength(1.0).lrs_sigma),
        json_num(NoiseModel::with_strength(1.0).hrs_sigma),
        json_num(NoiseModel::with_strength(1.0).ir_drop),
        json_num(NoiseModel::with_strength(1.0).read_sigma),
        json_num(NoiseModel::with_strength(1.0).g_ratio),
    ));
    let strengths: Vec<String> = STRENGTHS.iter().map(|s| json_num(*s)).collect();
    json.push_str(&format!(
        "  \"strengths\": [{}],\n  \"mid_strength\": {},\n  \"seed\": {},\n",
        strengths.join(", "),
        json_num(STRENGTHS[MID]),
        NOISE_SEED
    ));
    json.push_str("  \"networks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"network\": \"{}\", \"naive\": {}, \"noise_aware\": {}, \"recovered_fraction\": {}}}{}\n",
            r.name,
            points_json(&r.naive),
            points_json(&r.aware),
            r.recovered_fraction
                .map_or("null".to_string(), |f| json_num(f64::from(f))),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"functional_scrub\": [\n");
    for (i, (arm, acc, passes)) in func_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"arm\": \"{arm}\", \"accuracy\": {}, \"scrub_passes\": {passes}}}{}\n",
            json_num(*acc),
            if i + 1 < func_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let threads: Vec<String> = thread_counts.iter().map(|t| t.to_string()).collect();
    json.push_str(&format!(
        "  \"determinism\": {{\"thread_counts\": [{}], \"bitwise_identical\": {deterministic}}}\n",
        threads.join(", ")
    ));
    json.push_str("}\n");
    write_results("BENCH_noise.json", &json, smoke);

    // ---- Gates.
    if !deterministic {
        eprintln!("noise-aware training diverged across thread counts — failing");
        std::process::exit(1);
    }
    let mut gate_ok = true;
    for r in &results {
        if let Some(f) = r.recovered_fraction {
            let ok = f >= 0.5;
            gate_ok &= ok;
            println!(
                "{}: noise-aware training recovered {} of the naive loss at strength {} — {}",
                r.name,
                fmt_f(f64::from(f), 2),
                STRENGTHS[MID],
                if ok { "ok" } else { "BELOW the 0.5 gate" }
            );
        } else {
            println!(
                "{}: naive loss at strength {} under {} — recovery gate not exercised",
                r.name, STRENGTHS[MID], MIN_LOSS
            );
        }
    }
    if !gate_ok {
        eprintln!("noise-aware training recovered less than half the naive loss — failing");
        std::process::exit(1);
    }
    println!("noise-aware training meets the half-recovery gate everywhere it applies");
}
