//! Ablation — runtime resilience: device aging versus the online scrub
//! scheduler, and crash-safe checkpoint/resume.
//!
//! Two campaigns in one binary:
//!
//! * **Drift × scrub interval** — train Mnist-A-class weights on the
//!   functional ReRAM datapath, then deploy cloned arms under different
//!   scrub schedules while the arrays age (conductance drift with per-cell
//!   ν heterogeneity). Accuracy is sampled along the aging axis; the
//!   analytic models price each schedule's time/energy/endurance cost on
//!   the mapped design.
//! * **Kill × resume** — run the resumable trainer, kill it at awkward
//!   image counts, resume each time into a freshly-initialised network
//!   from the PLW2 checkpoint alone, and require the final weights to be
//!   BITWISE identical to a never-interrupted run. Any divergence fails
//!   the binary (exit 1), which makes it a CI gate.
//!
//! Full runs write `BENCH_resilience.json`. `--smoke` shrinks both
//! campaigns for CI and writes nothing.

use pipelayer::endurance::{training_lifetime, EnduranceModel};
use pipelayer::energy::EnergyModel;
use pipelayer::functional::{downsample, ReramMlp};
use pipelayer::timing::TimingModel;
use pipelayer::{DriftReport, DriftSample, MappedNetwork, PipeLayerConfig, ScrubPolicy};
use pipelayer_bench::{fmt_f, write_results, Table};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::trainer::{CheckpointPolicy, FitOutcome, TrainConfig, Trainer};
use pipelayer_nn::{zoo, Network};
use pipelayer_reram::{DriftModel, ReramParams, VerifyPolicy};
use pipelayer_tensor::Tensor;

const DIMS: [usize; 3] = [49, 16, 10];
const SEED: u64 = 5;
const LR: f32 = 0.3;
const ROWS_PER_PASS: usize = 16;

/// The campaign drift model: retention knee at 10k cycles (beyond the
/// training run, within deployment scale) and a large cell-to-cell ν
/// spread — heterogeneity, not mean drift, is what distorts relative
/// weights and costs accuracy.
fn aging_model() -> DriftModel {
    DriftModel {
        nu: 0.2,
        nu_sigma: 0.15,
        t0_cycles: 10_000,
        disturb_per_level: 0,
    }
}

struct DriftArm {
    interval_images: u64,
    samples: Vec<DriftSample>,
    drifted_cells: usize,
    scrub_passes: u64,
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_train, n_test, epochs) = if smoke { (80, 40, 2) } else { (120, 40, 8) };
    let (age_steps, step_cycles) = if smoke {
        (4, 50_000u64)
    } else {
        (10, 100_000u64)
    };
    let intervals: &[u64] = if smoke {
        &[0, 1_000]
    } else {
        &[0, 4_000, 1_000]
    };

    // ---- Campaign 1: drift × scrub interval on the functional datapath.
    let data = SyntheticMnist::generate(n_train, n_test, 77);
    let tr: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
    let te: Vec<Tensor> = data.test.images.iter().map(|t| downsample(t, 4)).collect();
    let (trl, tel) = (&data.train.labels, &data.test.labels);

    let mut mlp = ReramMlp::with_resilience(
        &DIMS,
        &ReramParams::default(),
        SEED,
        aging_model(),
        ScrubPolicy::off(),
        VerifyPolicy::default(),
    );
    for _ in 0..epochs {
        for (imgs, labs) in tr.chunks(10).zip(trl.chunks(10)) {
            mlp.train_batch(imgs, labs, LR);
        }
    }
    let baseline = f64::from(mlp.accuracy(&te, tel));
    println!(
        "drift campaign — {n_train} train / {n_test} test, {epochs} epochs, baseline {} {}",
        fmt_f(baseline, 3),
        if smoke { "[smoke]" } else { "" }
    );

    let mut arms: Vec<DriftArm> = Vec::new();
    for &interval in intervals {
        let mut arm = mlp.clone();
        if interval > 0 {
            arm.set_scrub(ScrubPolicy::every(interval, ROWS_PER_PASS));
        }
        let mut samples = Vec::with_capacity(age_steps);
        for step in 1..=age_steps {
            arm.advance_cycles(step_cycles);
            samples.push(DriftSample {
                cycles: step as u64 * step_cycles,
                accuracy: f64::from(arm.accuracy(&te, tel)),
            });
        }
        arms.push(DriftArm {
            interval_images: interval,
            samples,
            drifted_cells: arm.drifted_cells(),
            scrub_passes: arm.scrub_passes(),
        });
    }

    let report = DriftReport {
        baseline_accuracy: baseline,
        scrub_on: arms.last().map(|a| a.samples.clone()).unwrap_or_default(),
        scrub_off: arms.first().map(|a| a.samples.clone()).unwrap_or_default(),
    };

    let mut table = Table::new(
        "Ablation: accuracy after aging vs scrub interval",
        &[
            "scrub interval (imgs)",
            "final accuracy",
            "Δ vs baseline (pts)",
            "drifted cells left",
            "scrub passes",
        ],
    );
    for arm in &arms {
        let fin = arm.samples.last().map_or(baseline, |s| s.accuracy);
        table.row(vec![
            if arm.interval_images == 0 {
                "off".into()
            } else {
                arm.interval_images.to_string()
            },
            fmt_f(fin, 3),
            fmt_f((fin - baseline) * 100.0, 1),
            arm.drifted_cells.to_string(),
            arm.scrub_passes.to_string(),
        ]);
    }
    table.print();
    println!(
        "scrub scheduler saved {} accuracy points over {} aging cycles",
        fmt_f(report.accuracy_saved() * 100.0, 1),
        age_steps as u64 * step_cycles
    );

    // ---- Analytic cost of each schedule on the mapped Mnist-A design.
    println!();
    let spec = zoo::spec_mnist_a();
    let base_net = MappedNetwork::from_spec(&spec, PipeLayerConfig::default());
    let base_life = training_lifetime(&base_net, &EnduranceModel::research_grade());
    let batch = PipeLayerConfig::default().batch_size as f64;
    let images_to_death =
        |l: &pipelayer::endurance::Lifetime| -> f64 { l.seconds * l.updates_per_second * batch };
    let mut cost = Table::new(
        "Analytic: scrub cost on mapped Mnist-A (research-grade cells)",
        &[
            "interval (imgs)",
            "scrub ns/img",
            "scrub µJ/img",
            "images-to-death (×off)",
        ],
    );
    let mut analytic_rows: Vec<(u64, f64, f64, f64)> = Vec::new();
    cost.row(vec![
        "off".into(),
        "0.000".into(),
        "0.000".into(),
        "1.000".into(),
    ]);
    for &interval in intervals.iter().filter(|&&i| i > 0) {
        let cfg = PipeLayerConfig {
            scrub: ScrubPolicy::every(interval, ROWS_PER_PASS),
            ..PipeLayerConfig::default()
        };
        let net = MappedNetwork::from_spec(&spec, cfg);
        let ns_per_image = TimingModel::new(&net).scrub_ns_per_image();
        let uj_per_image = EnergyModel::new(&net).scrub_j_per_image() * 1e6;
        let life = training_lifetime(&net, &EnduranceModel::research_grade());
        let ratio = images_to_death(&life) / images_to_death(&base_life);
        cost.row(vec![
            interval.to_string(),
            fmt_f(ns_per_image, 3),
            fmt_f(uj_per_image, 3),
            fmt_f(ratio, 3),
        ]);
        analytic_rows.push((interval, ns_per_image, uj_per_image, ratio));
    }
    cost.print();

    // ---- Campaign 2: kill × resume bitwise determinism.
    println!();
    let kill_points: &[u64] = if smoke { &[17] } else { &[29, 67] };
    let (rn_train, rn_test, r_epochs) = if smoke { (48, 16, 1) } else { (96, 24, 2) };
    let rdata = SyntheticMnist::generate(rn_train, rn_test, 37);
    let trainer = Trainer::new(TrainConfig {
        epochs: r_epochs,
        batch_size: 16,
        lr: 0.1,
        threads: 0,
    });
    let ckpt = std::env::temp_dir().join(format!("plw2-resilience-{}.ckpt", std::process::id()));

    let mut reference_net = zoo::mnist_a(37);
    let policy = CheckpointPolicy::every(&ckpt, 64);
    match trainer.fit_resumable(&mut reference_net, &rdata, &policy) {
        Ok(FitOutcome::Completed(_)) => {}
        other => {
            eprintln!("uninterrupted reference run did not complete: {other:?}");
            std::process::exit(1);
        }
    }
    let reference = weight_bits(&mut reference_net);

    let mut all_identical = true;
    for &kill in kill_points {
        let mut policy = CheckpointPolicy::every(&ckpt, 64);
        policy.stop_after_images = Some(kill);
        let mut net = zoo::mnist_a(37);
        let mut outcome = trainer.fit_resumable(&mut net, &rdata, &policy);
        let mut hops = 0u64;
        loop {
            match outcome {
                Ok(FitOutcome::Interrupted { .. }) => {
                    hops += 1;
                    if hops > 256 {
                        eprintln!("resume loop stuck at kill point {kill}");
                        std::process::exit(1);
                    }
                    // A fresh, differently-seeded net: everything must be
                    // restored from the checkpoint file alone.
                    net = zoo::mnist_a(37 + hops);
                    outcome = trainer.resume_from(&mut net, &rdata, &policy);
                }
                Ok(FitOutcome::Completed(_)) => break,
                Err(e) => {
                    eprintln!("kill point {kill}: checkpoint round-trip failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        let identical = weight_bits(&mut net) == reference;
        all_identical &= identical;
        println!(
            "kill every {kill} images ({hops} resumes): final weights {}",
            if identical {
                "bitwise identical"
            } else {
                "DIVERGED"
            }
        );
    }
    let _ = std::fs::remove_file(&ckpt);

    // ---- JSON artifact.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"resilience\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str("  \"drift_model\": {\"nu\": 0.2, \"nu_sigma\": 0.15, \"t0_cycles\": 10000},\n");
    json.push_str(&format!(
        "  \"baseline_accuracy\": {},\n",
        json_num(baseline)
    ));
    json.push_str(&format!(
        "  \"accuracy_saved_points\": {},\n",
        json_num(report.accuracy_saved() * 100.0)
    ));
    json.push_str("  \"drift_arms\": [\n");
    for (i, arm) in arms.iter().enumerate() {
        let samples: Vec<String> = arm
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"cycles\": {}, \"accuracy\": {}}}",
                    s.cycles,
                    json_num(s.accuracy)
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"scrub_interval_images\": {}, \"rows_per_pass\": {}, \"drifted_cells\": {}, \"scrub_passes\": {}, \"samples\": [{}]}}{}\n",
            arm.interval_images,
            if arm.interval_images == 0 { 0 } else { ROWS_PER_PASS },
            arm.drifted_cells,
            arm.scrub_passes,
            samples.join(", "),
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"analytic_costs\": [\n");
    for (i, (interval, ns_per_image, uj_per_image, ratio)) in analytic_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scrub_interval_images\": {}, \"scrub_ns_per_image\": {}, \"scrub_uj_per_image\": {}, \"images_to_death_ratio\": {}}}{}\n",
            interval,
            json_num(*ns_per_image),
            json_num(*uj_per_image),
            json_num(*ratio),
            if i + 1 < analytic_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let kills: Vec<String> = kill_points.iter().map(|k| k.to_string()).collect();
    json.push_str(&format!(
        "  \"resume\": {{\"kill_points\": [{}], \"bitwise_identical\": {all_identical}}}\n",
        kills.join(", ")
    ));
    json.push_str("}\n");
    write_results("BENCH_resilience.json", &json, smoke);

    if !all_identical {
        eprintln!("kill-and-resume diverged from the uninterrupted run — failing");
        std::process::exit(1);
    }
    println!("kill-and-resume is bitwise identical at every kill point");
}
