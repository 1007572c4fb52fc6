//! Training-throughput benchmark for the data-parallel execution engine.
//!
//! Trains the Mnist-A network on synthetic MNIST at 1, 2, 4 and 8 worker
//! threads and reports images/sec per arm. Because the batch reduction
//! order is fixed per sample, every arm must produce a bitwise-identical
//! loss curve; the binary exits non-zero if any arm diverges from the
//! serial one, which makes it usable as a CI determinism gate
//! (`--smoke` shrinks the workload for that purpose).
//!
//! Full runs write the results to `BENCH_train.json` (a `--smoke` run
//! writes nothing) alongside the machine's available core count — speedups are only meaningful when the host
//! actually has the cores (a 1-core container reports ~1× at every arm).

use pipelayer_bench::{fmt_f, write_results, Table};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::trainer::{TrainConfig, Trainer};
use pipelayer_nn::zoo;
use std::time::Instant;

const THREAD_ARMS: [usize; 4] = [1, 2, 4, 8];

struct Arm {
    threads: usize,
    effective_threads: usize,
    clamped: bool,
    seconds: f64,
    images_per_sec: f64,
    epoch_losses: Vec<f32>,
}

fn json_escape_free_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (train_n, test_n, epochs, batch) = if smoke {
        (64usize, 16usize, 1usize, 16usize)
    } else {
        (512, 64, 3, 64)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let data = SyntheticMnist::generate(train_n, test_n, 7);

    println!(
        "training throughput — Mnist-A, {train_n} samples, {epochs} epoch(s), batch {batch}, {cores} core(s){}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut arms: Vec<Arm> = Vec::new();
    for &threads in &THREAD_ARMS {
        let mut net = zoo::mnist_a(7);
        let trainer = Trainer::new(TrainConfig {
            epochs,
            batch_size: batch,
            lr: 0.1,
            threads,
        });
        // Record the oversubscription clamp: on a small host the 8-thread
        // arm may actually run with fewer workers, and the JSON must say so
        // or its "speedup" column misleads.
        let resolution = trainer.config().resolve_threads();
        let t0 = Instant::now();
        let report = trainer.fit(&mut net, &data);
        let seconds = t0.elapsed().as_secs_f64();
        arms.push(Arm {
            threads,
            effective_threads: resolution.effective,
            clamped: resolution.clamped,
            seconds,
            images_per_sec: (train_n * epochs) as f64 / seconds,
            epoch_losses: report.epoch_losses,
        });
    }

    // Determinism gate: every arm's loss curve must be bitwise identical
    // to the serial arm's.
    let serial_bits: Vec<u32> = arms[0].epoch_losses.iter().map(|l| l.to_bits()).collect();
    let mut identical = true;
    for arm in &arms[1..] {
        let bits: Vec<u32> = arm.epoch_losses.iter().map(|l| l.to_bits()).collect();
        if bits != serial_bits {
            identical = false;
            eprintln!(
                "DETERMINISM FAILURE: {}-thread loss curve {:?} != serial {:?}",
                arm.threads, arm.epoch_losses, arms[0].epoch_losses
            );
        }
    }

    let mut table = Table::new(
        "Training throughput by worker-thread count".to_string(),
        &[
            "threads",
            "effective",
            "seconds",
            "img/s",
            "speedup",
            "final loss",
        ],
    );
    let base = arms[0].images_per_sec;
    for arm in &arms {
        table.row(vec![
            arm.threads.to_string(),
            if arm.clamped {
                format!("{} (clamped)", arm.effective_threads)
            } else {
                arm.effective_threads.to_string()
            },
            fmt_f(arm.seconds, 3),
            fmt_f(arm.images_per_sec, 1),
            format!("{}x", fmt_f(arm.images_per_sec / base, 2)),
            format!(
                "{:.6}",
                arm.epoch_losses.last().copied().unwrap_or(f32::NAN)
            ),
        ]);
    }
    table.print();

    // Hand-written JSON (no serde in the workspace).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"train_throughput\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str("  \"network\": \"mnist_a\",\n");
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str(&format!("  \"train_samples\": {train_n},\n"));
    json.push_str(&format!("  \"epochs\": {epochs},\n"));
    json.push_str(&format!("  \"batch_size\": {batch},\n"));
    json.push_str(&format!(
        "  \"loss_curves_bitwise_identical\": {identical},\n"
    ));
    json.push_str("  \"arms\": [\n");
    for (i, arm) in arms.iter().enumerate() {
        let losses: Vec<String> = arm
            .epoch_losses
            .iter()
            .map(|l| json_escape_free_number(f64::from(*l)))
            .collect();
        json.push_str(&format!(
            "    {{\"requested_threads\": {}, \"effective_threads\": {}, \"clamped\": {}, \"seconds\": {}, \"images_per_sec\": {}, \"speedup_vs_serial\": {}, \"epoch_losses\": [{}]}}{}\n",
            arm.threads,
            arm.effective_threads,
            arm.clamped,
            json_escape_free_number(arm.seconds),
            json_escape_free_number(arm.images_per_sec),
            json_escape_free_number(arm.images_per_sec / base),
            losses.join(", "),
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_results("BENCH_train.json", &json, smoke);

    if !identical {
        eprintln!("parallel training diverged from serial — failing");
        std::process::exit(1);
    }
    println!("loss curves bitwise identical across 1/2/4/8 threads");
}
