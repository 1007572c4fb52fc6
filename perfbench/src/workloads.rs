//! The workloads. Each repetition is a fixed amount of work fixed by the
//! seed: build every model, train a fixed number of steps, then run the
//! held-out accuracy pass. Two repetitions with one seed must end in the
//! same digest, which the run checks.

use crate::data::mnist_split;
use crate::host::{Gauge, Timed};
use crate::stats::Digest;
use crate::trace::Tracer;
use pipelayer::functional::ReramMlp;
use pipelayer::{RepairPolicy, ScrubPolicy, SpareBudget};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_reram::{
    DriftModel, FaultModel, NoiseModel, ProgramReport, ReramParams, VerifyPolicy, WearModel,
};

/// `mlp-ideal`: Mnist-A (Table 3) on ideal arrays at the paper's batch.
const MLP_DIMS: [usize; 3] = [784, 100, 10];
const MLP_BATCH: usize = 64;
const MLP_LR: f32 = 0.3;
const MLP_STEPS: usize = 60;
const MLP_TEST: usize = 1024;

/// `device-campaign`: the lifecycle ablations' 49-16-10 net on 7×7 images.
pub const CAMPAIGN_DIMS: [usize; 3] = [49, 16, 10];
const CAMPAIGN_BATCH: usize = 10;
const CAMPAIGN_LR: f32 = 0.3;
const CAMPAIGN_STEPS: usize = 300;
const CAMPAIGN_TRAIN: usize = 1500;
const CAMPAIGN_TEST: usize = 1000;
/// Median per-cell write budget of the repair arm: low enough that cells
/// die and spares are spent within one repetition, high enough that the
/// arm still learns.
const CAMPAIGN_ENDURANCE: f64 = 1500.0;
const CAMPAIGN_STUCK_RATE: f64 = 0.002;
const CAMPAIGN_SPARES: usize = 8;
/// Images between the aging arm's scrub passes, and word lines per pass.
const SCRUB_EVERY: u64 = 100;
pub const SCRUB_ROWS: usize = 16;
/// Per-read noise strength of the noisy arm, as in `ablation_noise`.
pub const NOISE_STRENGTH: f64 = 0.25;

/// Accuracy probes spread over each repetition's training (see `probe`).
const EVAL_PROBES: usize = 10;
const _: () =
    assert!(MLP_STEPS.is_multiple_of(EVAL_PROBES) && CAMPAIGN_STEPS.is_multiple_of(EVAL_PROBES));

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MlpIdeal,
    DeviceCampaign,
}

/// Lifecycle and simulated-work counters read from public getters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Array-read spikes and programming pulses issued while training.
    pub train_read_spikes: u64,
    pub train_program_pulses: u64,
    pub spares_used: u64,
    pub dead_cells: u64,
    pub masked_units: u64,
    pub scrub_passes: u64,
    pub drifted_cells: u64,
    /// Merged cost of verified writes (`fault_report`) and of scrub
    /// passes (`scrub_report`), without their unrecoverable-cell lists.
    pub write: ProgramReport,
    pub scrub: ProgramReport,
    pub write_unrecoverable: u64,
    /// Weight updates that went through verified writes.
    pub verified_updates: u64,
}

impl Counters {
    /// Every counter by name, in the order the digest and the envelope
    /// list them.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("train_read_spikes", self.train_read_spikes),
            ("train_program_pulses", self.train_program_pulses),
            ("spares_used", self.spares_used),
            ("dead_cells", self.dead_cells),
            ("masked_units", self.masked_units),
            ("scrub_passes", self.scrub_passes),
            ("drifted_cells", self.drifted_cells),
            ("write_pulses", self.write.pulses),
            ("write_ideal_pulses", self.write.ideal_pulses),
            ("write_verify_reads", self.write.verify_reads),
            ("write_unrecoverable", self.write_unrecoverable),
            ("scrub_pulses", self.scrub.pulses),
            ("scrub_verify_reads", self.scrub.verify_reads),
            ("verified_updates", self.verified_updates),
        ]
    }

    fn feed(&self, d: &mut Digest) {
        for (_, v) in self.fields() {
            d.u64(v);
        }
    }
}

/// One repetition's measurements; `host::Gauge` scales its intervals.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup: Timed,
    /// Every training call, and the training images over every model.
    pub steps: Vec<Timed>,
    pub train_images: usize,
    /// The accuracy passes and probes, and their held-out images.
    pub evals: Vec<Timed>,
    pub eval_images: usize,
    /// Held-out accuracy of every model, in model order.
    pub accuracies: Vec<f64>,
    /// Training steps whose loss was not finite.
    pub bad_losses: usize,
    pub counters: Counters,
    pub digest: String,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::MlpIdeal, Workload::DeviceCampaign];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpIdeal => "mlp-ideal",
            Workload::DeviceCampaign => "device-campaign",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Lowest held-out accuracy any model may end with; chance is 0.1.
    pub fn accuracy_floor(self) -> f64 {
        match self {
            Workload::MlpIdeal => 0.5,
            Workload::DeviceCampaign => 0.4,
        }
    }

    /// Learning rate of the workload's training steps.
    pub fn lr(self) -> f32 {
        match self {
            Workload::MlpIdeal => MLP_LR,
            Workload::DeviceCampaign => CAMPAIGN_LR,
        }
    }

    /// The seeded inputs (generation is not part of set-up time).
    pub fn data(self, seed: u64) -> SyntheticMnist {
        match self {
            Workload::MlpIdeal => mnist_split(MLP_STEPS * MLP_BATCH, MLP_TEST, seed, 1),
            Workload::DeviceCampaign => mnist_split(CAMPAIGN_TRAIN, CAMPAIGN_TEST, seed, 4),
        }
    }

    /// Times constructing, programming, commissioning and attaching
    /// every model.
    pub fn setup(self, seed: u64, gauge: &mut Gauge) -> Timed {
        gauge
            .time(|| match self {
                Workload::MlpIdeal => drop(std::hint::black_box(mlp_ideal_model(seed))),
                Workload::DeviceCampaign => drop(std::hint::black_box(campaign_arms(seed))),
            })
            .1
    }

    /// Names of the models, in the order `Rep::accuracies` lists them.
    pub fn models(self) -> &'static [&'static str] {
        match self {
            Workload::MlpIdeal => &["mnist-a"],
            Workload::DeviceCampaign => &["repair", "aging", "noisy"],
        }
    }

    /// One repetition; also returns the trained models for the traced run's
    /// layer replay.
    pub fn rep(
        self,
        data: &SyntheticMnist,
        seed: u64,
        tr: &mut Tracer,
        gauge: &mut Gauge,
    ) -> (Rep, Vec<ReramMlp>) {
        let mut clock = Clock { tr, gauge };
        match self {
            Workload::MlpIdeal => {
                let (mlps, setup) =
                    clock.time("functional", "setup", || vec![mlp_ideal_model(seed)]);
                reram_rep(self, mlps, setup, data, MLP_BATCH, MLP_STEPS, &mut clock)
            }
            Workload::DeviceCampaign => {
                let (arms, setup) =
                    clock.time("functional", "setup", || Vec::from(campaign_arms(seed)));
                reram_rep(
                    self,
                    arms,
                    setup,
                    data,
                    CAMPAIGN_BATCH,
                    CAMPAIGN_STEPS,
                    &mut clock,
                )
            }
        }
    }
}

/// The tracer and the gauge a repetition's public calls are timed with.
struct Clock<'a> {
    tr: &'a mut Tracer,
    gauge: &'a mut Gauge,
}

impl Clock<'_> {
    /// Runs `f` in a span; returns its output and its interval.
    fn time<T>(&mut self, track: &str, name: &str, f: impl FnOnce() -> T) -> (T, Timed) {
        let tr = &mut *self.tr;
        self.gauge.time(|| tr.time(track, name, f))
    }
}

fn mlp_ideal_model(seed: u64) -> ReramMlp {
    ReramMlp::new(&MLP_DIMS, &ReramParams::default(), seed)
}

/// The aging model shared by the aging and noisy arms: a retention knee
/// early enough that cells drift within one repetition.
pub fn campaign_drift() -> DriftModel {
    DriftModel {
        nu: 0.2,
        nu_sigma: 0.15,
        t0_cycles: 50,
        disturb_per_level: 0,
    }
}

pub fn campaign_wear() -> WearModel {
    WearModel {
        median_writes: CAMPAIGN_ENDURANCE,
        sigma: 0.2,
    }
}

/// The three lifecycle arms: repair (verified writes, wear, laddered
/// repair), aging (drift + scrub) and noisy (drift + per-read noise).
fn campaign_arms(seed: u64) -> [ReramMlp; 3] {
    let params = ReramParams::default();
    let mut repair = ReramMlp::with_fault_tolerance(
        &CAMPAIGN_DIMS,
        &params,
        seed,
        &FaultModel::with_stuck_rate(CAMPAIGN_STUCK_RATE),
        VerifyPolicy::with_attempts(2),
        SpareBudget::with_cols(CAMPAIGN_SPARES),
    );
    repair.attach_wear(campaign_wear(), seed);
    repair.set_repair_policy(RepairPolicy::laddered());
    let aging = ReramMlp::with_resilience(
        &CAMPAIGN_DIMS,
        &params,
        seed,
        campaign_drift(),
        ScrubPolicy::every(SCRUB_EVERY, SCRUB_ROWS),
        VerifyPolicy::default(),
    );
    let mut noisy = ReramMlp::with_resilience(
        &CAMPAIGN_DIMS,
        &params,
        seed,
        campaign_drift(),
        ScrubPolicy::off(),
        VerifyPolicy::default(),
    );
    noisy.attach_noise(NoiseModel::with_strength(NOISE_STRENGTH), seed);
    [repair, aging, noisy]
}

/// `r`'s pulse and verify-read counts, without the cell list.
fn counts(r: &ProgramReport) -> ProgramReport {
    ProgramReport {
        pulses: r.pulses,
        ideal_pulses: r.ideal_pulses,
        verify_reads: r.verify_reads,
        unrecoverable: Vec::new(),
    }
}

fn mlp_counters(mlps: &[ReramMlp]) -> Counters {
    let mut c = Counters::default();
    for m in mlps {
        c.spares_used += m.spares_used() as u64;
        c.dead_cells += m.wear_exhausted_cells() as u64;
        c.masked_units += m.masked_units() as u64;
        c.scrub_passes += m.scrub_passes();
        c.drifted_cells += m.drifted_cells() as u64;
        if let Some(r) = m.fault_report() {
            c.write.merge(counts(r));
            c.write_unrecoverable += r.unrecoverable.len() as u64;
        }
        if let Some(r) = m.scrub_report() {
            c.scrub.merge(counts(r));
        }
    }
    c
}

fn spikes(mlps: &[ReramMlp]) -> (u64, u64) {
    mlps.iter().fold((0, 0), |(r, w), m| {
        (r + m.read_spikes(), w + m.write_spikes())
    })
}

/// Trains every model on one image stream (each batch feeds every model
/// in turn), then evaluates each on the held-out split.
fn reram_rep(
    w: Workload,
    mut mlps: Vec<ReramMlp>,
    setup: Timed,
    data: &SyntheticMnist,
    batch: usize,
    steps: usize,
    clock: &mut Clock,
) -> (Rep, Vec<ReramMlp>) {
    let lr = w.lr();
    let mut rep = Rep {
        setup,
        ..Rep::default()
    };
    let tracks: Vec<String> = w
        .models()
        .iter()
        .map(|m| format!("functional/{m}"))
        .collect();
    let (read0, pulses0) = spikes(&mlps);
    let n = data.train.len();
    for s in 0..steps {
        let lo = (s * batch) % n;
        let hi = (lo + batch).min(n);
        let (images, labels) = (&data.train.images[lo..hi], &data.train.labels[lo..hi]);
        for (m, track) in mlps.iter_mut().zip(&tracks) {
            let (loss, t) = clock.time(track, "train_batch", || m.train_batch(images, labels, lr));
            rep.steps.push(t);
            rep.bad_losses += usize::from(!loss.is_finite());
            rep.train_images += images.len();
        }
        if (s + 1) % (steps / EVAL_PROBES) == 0 {
            probe(
                &mlps,
                &tracks,
                data,
                (s + 1) / (steps / EVAL_PROBES) - 1,
                clock,
                &mut rep,
            );
        }
    }
    let (read1, pulses1) = spikes(&mlps);
    for (m, track) in mlps.iter_mut().zip(&tracks) {
        let (acc, t) = clock.time(track, "accuracy", || {
            m.accuracy(&data.test.images, &data.test.labels)
        });
        rep.evals.push(t);
        rep.eval_images += data.test.len();
        rep.accuracies.push(f64::from(acc));
    }
    rep.counters = Counters {
        train_read_spikes: read1 - read0,
        train_program_pulses: pulses1 - pulses0,
        verified_updates: if mlps.iter().any(|m| m.fault_report().is_some()) {
            steps as u64
        } else {
            0
        },
        ..mlp_counters(&mlps)
    };
    let mut d = Digest::default();
    for m in &mlps {
        for li in 0..m.depth() {
            d.f32s(&m.layer_weights(li));
        }
    }
    rep.counters.feed(&mut d);
    rep.digest = d.hex();
    (rep, mlps)
}

/// Times an accuracy pass over the `i`-th of `EVAL_PROBES` slices of the
/// held-out set on a copy of every model, so the trained models and their
/// counters never see it. Spread over the training, the probes sample a
/// shared host's slow and fast spells the way the training steps do,
/// which the one accuracy pass at the end cannot; `eval_img_per_s` counts
/// both.
fn probe(
    mlps: &[ReramMlp],
    tracks: &[String],
    data: &SyntheticMnist,
    i: usize,
    clock: &mut Clock,
    rep: &mut Rep,
) {
    let len = data.test.len() / EVAL_PROBES;
    let (images, labels) = (
        &data.test.images[i * len..(i + 1) * len],
        &data.test.labels[i * len..(i + 1) * len],
    );
    for (m, track) in mlps.iter().zip(tracks) {
        let mut copy = m.clone();
        let (_, t) = clock.time(track, "accuracy_probe", || copy.accuracy(images, labels));
        rep.evals.push(t);
        rep.eval_images += len;
    }
}
