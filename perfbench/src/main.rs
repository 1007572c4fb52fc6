//! The repository benchmark: trains the functional ReRAM trainer on
//! seeded synthetic MNIST and prints every end-to-end metric
//! (or, with `--trace 1`, every per-layer metric) as the last line of
//! standard output.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlp-ideal --seed 1 --seconds 45 --trace 0
//! ```
//!
//! A run repeats one seeded, fixed-size repetition (set up, train, test)
//! until `--seconds` have passed, checks that every repetition ended in
//! the same digest with finite losses and accuracy above the workload's
//! floor, and reports whole-run throughputs, step-time percentiles and
//! the median set-up time. Host times are scaled to a reference core
//! speed by a calibration kernel timed between them (`host::Gauge`), so
//! a shared host's slow and fast spells cancel. A traced run also replays each layer on
//! standalone arrays and times the kernels below it; see `METRICS.md`.

mod data;
mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use host::Timed;
use stats::{median, quantile, Obj};
use std::time::Instant;
use trace::Tracer;
use workloads::{Rep, Workload};

/// Set-ups timed before the first repetition: at least this many, for at
/// least `SETUP_MIN_S`, at most `SETUP_MAX`. Each repetition adds one.
const SETUP_SAMPLES: usize = 5;
const SETUP_MIN_S: f64 = 0.3;
const SETUP_MAX: usize = 500;
/// Repetitions continue until the run holds this many steps, so that
/// `step_ms_p90` has at least ten samples beyond it.
const MIN_STEPS: usize = 100;
/// No repetition starts once this much wall time has passed.
const WALL_CAP_S: f64 = 120.0;

const USAGE: &str =
    "usage: perfbench --workload <mlp-ideal|device-campaign> --seed <n> --seconds <s> --trace <0|1>";

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 7] = [
    ("train_img_per_s", "img/s"),
    ("eval_img_per_s", "img/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("test_accuracy", "fraction"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let wall = Instant::now();
    // First, so that the gauge's buffers are resident at every later
    // moment and `peak_rss_mib` can leave them out exactly.
    let mut gauge = host::Gauge::new();
    let (w, seed) = (args.workload, args.seed);
    let data = w.data(seed);
    let mut setups: Vec<Timed> = Vec::new();
    while setups.len() < SETUP_SAMPLES
        || (setups.iter().map(|t| t.raw_s).sum::<f64>() < SETUP_MIN_S && setups.len() < SETUP_MAX)
    {
        setups.push(w.setup(seed, &mut gauge));
    }

    // A traced run alternates untraced and traced repetitions, so its
    // tracing overhead is measured in the same process and conditions.
    let mut tracer = Tracer::new(args.trace);
    let mut reps: Vec<Rep> = Vec::new();
    let mut untraced: Vec<Rep> = Vec::new();
    let min_steps = if args.trace { 0 } else { MIN_STEPS };
    let start = Instant::now();
    let trained = loop {
        if args.trace {
            untraced.push(w.rep(&data, seed, &mut Tracer::new(false), &mut gauge).0);
        }
        let open = tracer.begin("run", "repetition");
        let (rep, trained) = w.rep(&data, seed, &mut tracer, &mut gauge);
        tracer.end(open);
        setups.push(rep.setup);
        reps.push(rep);
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / reps.len() as f64;
        let steps: usize = reps.iter().map(|r| r.steps.len()).sum();
        let done = elapsed + per_round / 2.0 >= args.seconds && steps >= min_steps;
        if done || wall.elapsed().as_secs_f64() + per_round >= WALL_CAP_S {
            break trained;
        }
    };
    gauge.close();

    // Correctness: finite losses, accuracy above the floor, one digest
    // for every repetition, traced or not.
    let floor = w.accuracy_floor();
    let first = &reps[0];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for rep in reps.iter().chain(&untraced) {
        attempted += rep.steps.len() as u64 + rep.accuracies.len() as u64 + 1;
        failed += rep.bad_losses as u64;
        failed += rep.accuracies.iter().filter(|&&a| a <= floor).count() as u64;
        failed += u64::from(rep.digest != first.digest);
    }

    let scaled = |t: &Timed| gauge.scaled_s(*t);
    let raw = |t: &Timed| t.raw_s;
    let steps: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.steps.iter().map(|t| scaled(t) * 1e3))
        .collect();
    let setups: Vec<f64> = setups.iter().map(scaled).collect();
    // Throughput over the whole run: a shared host's slow and fast spells
    // average out, where a median over repetitions would pick one.
    let rate = |reps: &[Rep], secs: &dyn Fn(&Timed) -> f64, eval: bool| -> f64 {
        let (images, seconds) = reps.iter().fold((0, 0.0), |(n, s), r| {
            let (i, ts) = if eval {
                (r.eval_images, &r.evals)
            } else {
                (r.train_images, &r.steps)
            };
            (n + i, s + ts.iter().map(secs).sum::<f64>())
        });
        images as f64 / seconds
    };
    let train_rate = |reps: &[Rep]| rate(reps, &scaled, false);
    let test_accuracy = first.accuracies.iter().sum::<f64>() / first.accuracies.len() as f64;

    let mut envelope = Obj::default()
        .str("workload", w.name())
        .int("seed", seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .int("nproc", host::nproc() as u64)
        .num("median_slice_s", gauge.median_slice_s())
        .num("raw_train_img_per_s", rate(&reps, &raw, false))
        .num("raw_eval_img_per_s", rate(&reps, &raw, true))
        .str("commit", &host::commit())
        .str("source_digest", &host::source_digest())
        .int("reps", reps.len() as u64)
        .int("step_samples", steps.len() as u64)
        .int("setup_samples", setups.len() as u64)
        .str("digest", &first.digest)
        .raw("accuracies", accuracies_json(w, first))
        .raw(
            "counters",
            counters_json(&first.counters, first.train_images),
        );

    let metrics: Vec<(String, &str, f64)> = if args.trace {
        let traced_rate = train_rate(&reps);
        let untraced_rate = train_rate(&untraced);
        let overhead = untraced_rate / traced_rate - 1.0;
        let open = tracer.begin("run", "layers");
        let (layer_metrics, checks) = layers::measure(
            w,
            seed,
            &data,
            trained,
            &mut tracer,
            &reps,
            traced_rate,
            overhead,
        );
        tracer.end(open);
        attempted += checks.attempted;
        failed += checks.failed;
        envelope = envelope
            .num("untraced_train_img_per_s", untraced_rate)
            .num("traced_train_img_per_s", traced_rate)
            .num("tracing_overhead", overhead)
            .raw("checks", checks.json);
        let path = format!(".perfbench/trace-{}-seed{seed}.json", w.name());
        attempted += 1;
        match write_file(&path, &tracer.chrome_json()) {
            Ok(()) => envelope = envelope.str("trace_file", &path),
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                failed += 1;
            }
        }
        layer_metrics
    } else {
        let values = [
            train_rate(&reps),
            rate(&reps, &scaled, true),
            quantile(&steps, 0.5),
            quantile(&steps, 0.9),
            median(&setups),
            host::peak_rss_mib(),
            test_accuracy,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), unit, v))
            .collect()
    };

    let mut m = Obj::default();
    for (name, unit, v) in &metrics {
        m = m.raw(
            name,
            Obj::default().num("value", *v).str("unit", unit).finish(),
        );
    }
    println!(
        "{}",
        Obj::default().raw("perfbench", envelope.finish()).finish()
    );
    println!(
        "{}",
        Obj::default()
            .bool("correct", failed == 0)
            .int("attempted", attempted)
            .int("failed", failed)
            .raw("metrics", m.finish())
            .finish()
    );
}

fn accuracies_json(w: Workload, rep: &Rep) -> String {
    w.models()
        .iter()
        .zip(&rep.accuracies)
        .fold(Obj::default(), |o, (m, a)| o.num(m, *a))
        .finish()
}

fn counters_json(c: &workloads::Counters, train_images: usize) -> String {
    c.fields()
        .iter()
        .fold(
            Obj::default().int("train_images", train_images as u64),
            |o, &(k, v)| o.int(k, v),
        )
        .finish()
}

fn write_file(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}
