//! The host envelope: what ran, where, and how fast one core was; and
//! the speed gauge that scales host time to a reference core speed.

use crate::stats::{median, Digest};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seconds one calibration slice takes at the reference speed: about the
/// median slice on a 2-vCPU Xeon (family 6, model 207, 2.1 GHz) host.
const REF_SLICE_S: f64 = 1.6e-3;
/// Measured host time between two slices, at least.
const GAP_S: f64 = 0.02;

/// Host speed gauge. The benchmark's host shares its cores with other
/// tenants, whose load changes one core's speed by up to about 1.7× for
/// seconds or minutes at a time. Between measured intervals the gauge
/// times a fixed calibration slice, built only from this file's code, and
/// scales each interval by the reference slice time over the mean of the
/// slices just before and just after it. The program under test never
/// runs inside a slice, so a change to it moves the scaled time as much
/// as the raw time, while a slow or fast spell of the host moves the
/// interval and the slices around it together.
///
/// A slice mixes the two kinds of work the trainers do, because a spell
/// speeds them up by different amounts: a bit-plane popcount matvec and a
/// weight update in cache, and a read-modify-write stream through a
/// buffer three times the size of the last private cache level.
pub struct Gauge {
    planes: Vec<u64>,
    spikes: Vec<u64>,
    weights: Vec<f32>,
    stream: Vec<f32>,
    chunk: usize,
    since_s: f64,
    slices: Vec<f64>,
}

/// One measured interval: its raw host seconds, and the index of the
/// first slice taken after it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub raw_s: f64,
    after: usize,
}

/// Geometry of the in-cache part of a slice: a popcount matvec and a
/// rank-1 weight update at about Mnist-A layer 0's size, `CAL_PASSES`
/// times.
const CAL_SLOTS: usize = 8;
const CAL_PLANES: usize = 4;
const CAL_COLS: usize = 100;
const CAL_WORDS: usize = 13;
const CAL_WEIGHTS: usize = 100 * 785;
const CAL_PASSES: usize = 2;
/// The streamed part: `STREAM_CHUNKS` chunks of `CHUNK_FLOATS` per slice,
/// taken in turn from a buffer of `STREAM_FLOATS`.
const CHUNK_FLOATS: usize = 1 << 18;
const STREAM_CHUNKS: usize = 4;
const STREAM_FLOATS: usize = 12 * CHUNK_FLOATS;

/// Bytes the gauge holds, which `peak_rss_mib` leaves out.
pub const GAUGE_BYTES: usize = 4 * (STREAM_FLOATS + CAL_WEIGHTS)
    + 8 * (CAL_PLANES * CAL_COLS * CAL_WORDS + CAL_SLOTS * CAL_WORDS);

impl Gauge {
    /// A gauge primed with one slice.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut g = Gauge {
            planes: (0..CAL_PLANES * CAL_COLS * CAL_WORDS)
                .map(|_| next())
                .collect(),
            spikes: (0..CAL_SLOTS * CAL_WORDS).map(|_| next()).collect(),
            weights: (0..CAL_WEIGHTS).map(|i| (i % 97) as f32 * 0.01).collect(),
            stream: (0..STREAM_FLOATS).map(|i| (i % 89) as f32 * 0.01).collect(),
            chunk: 0,
            since_s: 0.0,
            slices: Vec::new(),
        };
        g.calibrate();
        g
    }

    /// Runs `f` and returns its output and its interval.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let timed = Timed {
            raw_s,
            after: self.slices.len(),
        };
        self.since_s += raw_s;
        if self.since_s >= GAP_S {
            self.calibrate();
        }
        (out, timed)
    }

    /// Takes the slice that closes the intervals timed since the last one.
    pub fn close(&mut self) {
        if self.since_s > 0.0 {
            self.calibrate();
        }
    }

    /// `t`'s host seconds at the reference speed (before `close`, the
    /// latest intervals are scaled by the slice before them alone).
    pub fn scaled_s(&self, t: Timed) -> f64 {
        let before = self.slices[t.after - 1];
        let after = self.slices.get(t.after).copied().unwrap_or(before);
        t.raw_s * REF_SLICE_S / ((before + after) / 2.0)
    }

    /// Median of every slice timed so far, in seconds.
    pub fn median_slice_s(&self) -> f64 {
        median(&self.slices)
    }

    fn calibrate(&mut self) {
        let t = Instant::now();
        let mut acc = in_cache_work(&self.spikes, &self.planes, &mut self.weights);
        for _ in 0..STREAM_CHUNKS {
            let lo = self.chunk * CHUNK_FLOATS;
            self.chunk = (self.chunk + 1) % (STREAM_FLOATS / CHUNK_FLOATS);
            let mut sum = 0.0f32;
            for v in &mut self.stream[lo..lo + CHUNK_FLOATS] {
                *v = *v * 0.999 + 1e-3;
                sum += *v;
            }
            acc = acc.wrapping_add(u64::from(sum.to_bits()));
        }
        black_box(acc);
        self.slices.push(t.elapsed().as_secs_f64());
        self.since_s = 0.0;
    }
}

fn in_cache_work(spikes: &[u64], planes: &[u64], weights: &mut [f32]) -> u64 {
    let mut acc = 0u64;
    for _ in 0..CAL_PASSES {
        for slot in 0..CAL_SLOTS {
            let sw = &spikes[slot * CAL_WORDS..(slot + 1) * CAL_WORDS];
            for (i, gw) in planes.chunks_exact(CAL_WORDS).enumerate() {
                let pops: u64 = sw
                    .iter()
                    .zip(gw)
                    .map(|(&a, &b)| u64::from((a & b).count_ones()))
                    .sum();
                acc = acc.wrapping_add(pops << (slot + i / CAL_COLS));
            }
        }
        let g = (acc % 7) as f32 * 1e-3;
        for (i, w) in weights.iter_mut().enumerate() {
            *w = *w * 0.999 + 1e-3 * ((i % 13) as f32 + 1.0 + g);
        }
    }
    acc
}

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`) less the gauge's
/// buffers, 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| {
            (kb * 1024.0 - GAUGE_BYTES as f64) / (1 << 20) as f64
        })
}

/// The checked-out commit, when the tree is a git repository.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match id.trim() {
        "" => "unknown".to_string(),
        id => id.to_string(),
    }
}

/// Digest of the sources the benchmark builds (`crates/**/*.rs` and
/// manifests, `third_party/**/*.rs`): identifies the code under test
/// where no commit id is available.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "third_party"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&std::fs::read(f).unwrap_or_default());
    }
    d.hex()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}
