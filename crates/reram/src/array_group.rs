//! Signed, full-resolution matrices on ReRAM: positive/negative array pairs
//! plus the resolution-compensation scheme of Fig. 14.
//!
//! A 16-bit signed weight matrix is realised as **eight** crossbars:
//! positive and negative magnitude parts (the subtractor in the activation
//! component recombines them, Sec. 4.2.3), each split into four 4-bit
//! segments stored in four array groups whose outputs are shift-added
//! (`<<0, <<4, <<8, <<12` — Fig. 14a). Weight updates read the old segments,
//! apply the averaged partial derivative and write all groups back
//! (Fig. 14b).
//!
//! The shift-add and the subtraction are exact integer operations, so per
//! input phase the eight crossbar products equal one integer product with
//! the recombined signed levels. [`ReramMatrix::matvec`] computes exactly
//! that product from a cached `[in][out]` matrix of recombined levels and
//! books each member crossbar's read (spikes, disturb, noise epoch) as if
//! it had run its own MVM.

use crate::crossbar::Crossbar;
use crate::drift::DriftModel;
use crate::energy::ReramParams;
use crate::fault::{FaultMap, FaultModel, ProgramReport, VerifyPolicy};
use crate::noise::NoiseModel;
use crate::seedstream;
use crate::spike::SpikeDriver;
use crate::wear::WearModel;
use rand::Rng;

/// A float matrix programmed onto ReRAM crossbars, supporting exact
/// fixed-point matrix–vector products and in-place weight updates.
///
/// Layout: `weights[out][in]` (row-major `[out_dim × in_dim]`, matching an
/// inner-product layer's `W`), mapped with one bit line per output and one
/// word line per input.
///
/// # Example
///
/// ```
/// use pipelayer_reram::{ReramMatrix, ReramParams};
///
/// let w = vec![1.0f32, -0.5, 0.25, 0.75]; // 2x2, row-major
/// let mut m = ReramMatrix::program(&w, 2, 2, &ReramParams::default());
/// let y = m.matvec(&[1.0, 1.0]);
/// assert!((y[0] - 0.5).abs() < 1e-3);
/// assert!((y[1] - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct ReramMatrix {
    in_dim: usize,
    out_dim: usize,
    weight_scale: f32,
    data_bits: u8,
    cell_bits: u8,
    /// One `(positive, negative)` crossbar pair per 4-bit segment group,
    /// least-significant group first.
    groups: Vec<(Crossbar, Crossbar)>,
    /// Outputs disconnected by the degradation path (spares exhausted);
    /// masked bit lines contribute 0 to every matvec and read.
    masked_outputs: Vec<bool>,
    /// The members' read levels recombined for the fused matvec kernel.
    fused: FusedLevels,
}

/// The read levels of all member crossbars, recombined: `w[r][c] =
/// Σ_g (pos_g[r][c] − neg_g[r][c]) << (g · cell_bits)` over the levels each
/// member's next read presents, plus each member's row sums (its output
/// spikes per unit of input on a word line). Valid while every member's
/// [`Crossbar::generation`] equals the stamp recorded here; rebuilt
/// otherwise, so no mutation path has to remember it.
#[derive(Debug, Clone, Default)]
struct FusedLevels {
    /// Member generations at build time, in [`ReramMatrix::crossbars`]
    /// order; empty before the first build.
    stamps: Vec<u64>,
    /// `[in][out]` recombined signed levels; `|w| < 2^data_bits`.
    w: Vec<i32>,
    /// `[member][in]` sums of each member's read levels along a word line.
    row_sums: Vec<u32>,
}

impl ReramMatrix {
    /// Quantizes and programs `weights` (`out_dim × in_dim`, row-major).
    ///
    /// The weight scale is chosen so the largest magnitude maps to the full
    /// signed range of `params.data_bits`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or inconsistent with `weights.len()`,
    /// or `data_bits` is not a multiple of `cell_bits`. `data_bits` above 31
    /// (a recombined level would overflow the fused `i32` cache) is
    /// debug-checked; the functional path models 1..=24-bit words.
    pub fn program(weights: &[f32], out_dim: usize, in_dim: usize, params: &ReramParams) -> Self {
        assert!(out_dim > 0 && in_dim > 0, "matrix must be non-empty");
        debug_assert!(
            params.data_bits <= 31,
            "data bits must fit the fused i32 level cache"
        );
        assert_eq!(
            weights.len(),
            out_dim * in_dim,
            "weight buffer size mismatch"
        );
        assert_eq!(
            params.data_bits % params.cell_bits,
            0,
            "data bits must be a multiple of cell bits"
        );
        let n_groups = (params.data_bits / params.cell_bits) as usize;
        let mut m = ReramMatrix {
            in_dim,
            out_dim,
            weight_scale: 0.0,
            data_bits: params.data_bits,
            cell_bits: params.cell_bits,
            groups: (0..n_groups)
                .map(|_| {
                    (
                        Crossbar::new(in_dim, out_dim, params.cell_bits),
                        Crossbar::new(in_dim, out_dim, params.cell_bits),
                    )
                })
                .collect(),
            masked_outputs: vec![false; out_dim],
            fused: FusedLevels::default(),
        };
        m.write(weights);
        m
    }

    /// Like [`program`](Self::program), but each member crossbar first draws
    /// a persistent [`FaultMap`] from `faults` (deterministically in `seed`,
    /// with per-crossbar sub-seeds so the eight arrays fail independently).
    /// The initial write is *not* verified — pair with
    /// [`write_verify`](Self::write_verify) to discover unrecoverable cells.
    ///
    /// # Panics
    ///
    /// Same conditions as [`program`](Self::program), plus invalid fault
    /// rates.
    pub fn program_with_faults(
        weights: &[f32],
        out_dim: usize,
        in_dim: usize,
        params: &ReramParams,
        faults: &FaultModel,
        seed: u64,
    ) -> Self {
        let mut m = Self::program(weights, out_dim, in_dim, params);
        for (g, (pos, neg)) in m.groups.iter_mut().enumerate() {
            let pos_seed = seedstream::crossbar_seed(seed, 2 * g as u64);
            let neg_seed = seedstream::crossbar_seed(seed, 2 * g as u64 + 1);
            pos.attach_faults(FaultMap::generate(in_dim, out_dim, faults, pos_seed));
            neg.attach_faults(FaultMap::generate(in_dim, out_dim, faults, neg_seed));
        }
        m
    }

    /// Attaches the time-dependent degradation model to every member
    /// crossbar, with per-crossbar sub-seeds from the documented
    /// `(seed, crossbar, row, col, epoch)` scheme so the eight arrays
    /// age independently.
    pub fn attach_drift(&mut self, model: DriftModel, seed: u64) {
        for (g, (pos, neg)) in self.groups.iter_mut().enumerate() {
            pos.attach_drift(model, seedstream::crossbar_seed(seed, 2 * g as u64));
            neg.attach_drift(model, seedstream::crossbar_seed(seed, 2 * g as u64 + 1));
        }
    }

    /// Attaches the analog non-ideality model to every member crossbar,
    /// with per-crossbar sub-seeds from the documented
    /// `(seed, crossbar, row, col, epoch)` scheme so the eight arrays see
    /// independent device lotteries and read noise.
    pub fn attach_noise(&mut self, model: NoiseModel, seed: u64) {
        for (g, (pos, neg)) in self.groups.iter_mut().enumerate() {
            pos.attach_noise(model, seedstream::crossbar_seed(seed, 2 * g as u64));
            neg.attach_noise(model, seedstream::crossbar_seed(seed, 2 * g as u64 + 1));
        }
    }

    /// Attaches the endurance wear-out model to every member crossbar,
    /// with per-crossbar sub-seeds from the documented
    /// `(seed, crossbar, row, col, epoch)` scheme so the eight arrays draw
    /// independent write-budget lotteries. An ideal model detaches wear
    /// (exact no-op).
    pub fn attach_wear(&mut self, model: WearModel, seed: u64) {
        for (g, (pos, neg)) in self.groups.iter_mut().enumerate() {
            pos.attach_wear(model, seedstream::crossbar_seed(seed, 2 * g as u64));
            neg.attach_wear(model, seedstream::crossbar_seed(seed, 2 * g as u64 + 1));
        }
    }

    /// Cells across all member crossbars that have exhausted their write
    /// budget (0 without an attached wear model).
    pub fn wear_exhausted_cells(&self) -> usize {
        self.groups
            .iter()
            .flat_map(|(p, n)| [p, n])
            .filter_map(|x| x.wear_state())
            .map(|w| w.exhausted_cells())
            .sum()
    }

    /// The smallest remaining write budget on word line `row` across all
    /// member crossbars — `u64::MAX` without wear. A scrub pass below its
    /// headroom threshold skips the row instead of burning its last writes.
    pub fn row_wear_headroom(&self, row: usize) -> u64 {
        self.groups
            .iter()
            .flat_map(|(p, n)| [p, n])
            .map(|x| x.row_wear_headroom(row))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Shared read access to the member crossbars (pos, neg interleaved,
    /// least-significant group first) — checkpoint snapshot plumbing.
    pub fn crossbars(&self) -> impl Iterator<Item = &Crossbar> {
        self.groups.iter().flat_map(|(p, n)| [p, n])
    }

    /// Mutable access to the member crossbars in the same order as
    /// [`crossbars`](Self::crossbars) — checkpoint restore plumbing.
    pub fn crossbars_mut(&mut self) -> impl Iterator<Item = &mut Crossbar> {
        self.groups.iter_mut().flat_map(|(p, n)| [p, n].into_iter())
    }

    /// Restores the weight scale persisted by a checkpoint (the quantizer
    /// recomputes it on every write, so this only matters between a restore
    /// and the first update).
    pub fn restore_weight_scale(&mut self, scale: f32) {
        self.weight_scale = scale;
    }

    /// Restores the masked-output set persisted by a checkpoint;
    /// out-of-range indices are ignored.
    pub fn restore_masked_outputs(&mut self, masked: &[usize]) {
        self.masked_outputs.fill(false);
        for &o in masked {
            if let Some(m) = self.masked_outputs.get_mut(o) {
                *m = true;
            }
        }
    }

    /// Advances every member crossbar's degradation clock by `cycles`
    /// logical pipeline cycles (one processed image = one cycle).
    pub fn advance_cycles(&mut self, cycles: u64) {
        for (pos, neg) in self.groups.iter_mut() {
            pos.advance_cycles(cycles);
            neg.advance_cycles(cycles);
        }
    }

    /// Cells across all member crossbars that currently read at a level
    /// other than the one programmed (drift/disturb damage scrub can fix).
    pub fn drifted_cells(&self) -> usize {
        self.groups
            .iter()
            .map(|(p, n)| p.drifted_cells() + n.drifted_cells())
            .sum()
    }

    /// Scrubs `row_count` word lines (wrapping from `row_start`) on every
    /// member crossbar: drifted cells are re-programmed back to their
    /// stored level through the program-and-verify loop; the merged report
    /// carries the exact pulse/read cost of the pass.
    pub fn scrub_rows(
        &mut self,
        row_start: usize,
        row_count: usize,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let mut report = ProgramReport::default();
        for (pos, neg) in self.groups.iter_mut() {
            report.merge(pos.scrub_rows(row_start, row_count, policy, rng));
            report.merge(neg.scrub_rows(row_start, row_count, policy, rng));
        }
        report
    }

    /// Input dimension (word lines).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension (bit lines).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The LSB value of the stored fixed-point weights.
    pub fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    fn qmax(&self) -> i64 {
        (1i64 << (self.data_bits - 1)) - 1
    }

    /// (Re)programs the matrix — the weight-update write of Fig. 14(b).
    /// Recomputes the weight scale from the new values.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` mismatches the geometry.
    pub fn write(&mut self, weights: &[f32]) {
        self.program_groups(weights, |xbar, levels| {
            xbar.program_flat(levels);
        });
    }

    /// (Re)programs the matrix through the bounded program-and-verify loop.
    /// The merged report's [`UnrecoverableCell::col`](crate::fault::UnrecoverableCell)
    /// values are *logical output indices* (bit lines map one-to-one onto
    /// outputs), ready for the spare-remapping layer.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` mismatches the geometry.
    pub fn write_verify(
        &mut self,
        weights: &[f32],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let mut report = ProgramReport::default();
        self.program_groups(weights, |xbar, levels| {
            report.merge(xbar.program_verify_flat(levels, policy, rng));
        });
        report
    }

    /// Quantizes `weights` once and hands every member crossbar, in
    /// [`crossbars`](Self::crossbars) order, its row-major nibble levels:
    /// group `g` of a weight `q` lands on the positive array when `q ≥ 0`
    /// and on the negative one otherwise, the other array getting 0.
    fn program_groups(&mut self, weights: &[f32], mut program: impl FnMut(&mut Crossbar, &[u8])) {
        // Programming moves every member's stamp, so the fused cache is
        // dead; freeing it first keeps it from stacking on the write
        // buffers in peak memory.
        self.fused = FusedLevels::default();
        let q = self.quantize(weights);
        let cell_bits = u32::from(self.cell_bits);
        let mask = (1u32 << cell_bits) - 1;
        let mut pos = vec![0u8; q.len()];
        let mut neg = vec![0u8; q.len()];
        for (shift, (pos_xbar, neg_xbar)) in (0..)
            .step_by(cell_bits as usize)
            .zip(self.groups.iter_mut())
        {
            for ((&qv, p), n) in q.iter().zip(&mut pos).zip(&mut neg) {
                let nibble = ((qv.unsigned_abs() >> shift) & mask) as u8;
                (*p, *n) = if qv >= 0 { (nibble, 0) } else { (0, nibble) };
            }
            program(pos_xbar, &pos);
            program(neg_xbar, &neg);
        }
    }

    /// Quantizes `weights` (`[out][in]`) to signed fixed-point levels laid
    /// out `[in][out]` like the crossbars (word line major) and updates the
    /// weight scale.
    fn quantize(&mut self, weights: &[f32]) -> Vec<i32> {
        assert_eq!(
            weights.len(),
            self.out_dim * self.in_dim,
            "weight buffer size mismatch"
        );
        let absmax = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        self.weight_scale = if absmax == 0.0 {
            1.0
        } else {
            absmax / self.qmax() as f32
        };
        let qmax = i32::try_from(self.qmax()).unwrap_or(i32::MAX);
        let (in_dim, out_dim, scale) = (self.in_dim, self.out_dim, self.weight_scale);
        let mut q = vec![0i32; weights.len()];
        // A band of output rows is quantized in the weights' own order (a
        // contiguous pass that vectorises), then written out transposed.
        let mut band = vec![0i32; BAND * in_dim];
        for (o0, rows) in (0..).step_by(BAND).zip(weights.chunks(BAND * in_dim)) {
            let band = band.get_mut(..rows.len()).unwrap_or_default();
            for (qv, &w) in band.iter_mut().zip(rows) {
                *qv = round_clamped(w / scale, qmax);
            }
            scatter_transposed(band, in_dim, &mut q, out_dim, o0);
        }
        q
    }

    /// Remaps the given logical outputs onto fault-free spare bit lines:
    /// every member crossbar's faults in those columns are cleared. The
    /// stored levels already hold the intended values, so no rewrite is
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if an output index is out of range.
    pub fn repair_outputs(&mut self, outputs: &[usize]) {
        for &o in outputs {
            assert!(o < self.out_dim, "output {o} out of range");
            for (pos, neg) in self.groups.iter_mut() {
                pos.clear_fault_col(o);
                neg.clear_fault_col(o);
            }
            self.masked_outputs[o] = false;
        }
    }

    /// Remaps the given logical outputs onto fresh spare bit lines at
    /// honest device cost: unlike [`repair_outputs`](Self::repair_outputs)
    /// (which models only the routing change), the spare's cells start
    /// blank, so the displaced column is re-programmed from the stored
    /// intent levels through the full program-and-verify loop on every
    /// member crossbar. The merged report carries the real pulse /
    /// verify-read bill (with `UnrecoverableCell::col` as logical output
    /// indices), and under wear the spare cells draw fresh budgets — an
    /// unlucky spare can die during its own commissioning and re-enter the
    /// repair ladder. Remapped outputs are unmasked. Out-of-range indices
    /// are ignored.
    pub fn remap_outputs(
        &mut self,
        outputs: &[usize],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let mut report = ProgramReport::default();
        for &o in outputs {
            if o >= self.out_dim {
                continue;
            }
            for (pos, neg) in self.groups.iter_mut() {
                report.merge(pos.reprogram_col_from_spare(o, policy, rng));
                report.merge(neg.reprogram_col_from_spare(o, policy, rng));
            }
            self.masked_outputs[o] = false;
        }
        report
    }

    /// Disconnects logical output `o` — the graceful-degradation path when
    /// the spare budget is exhausted. Masked outputs contribute exactly 0 to
    /// matvecs and reads (a zero unit, not a corrupted one).
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    pub fn mask_output(&mut self, o: usize) {
        assert!(o < self.out_dim, "output {o} out of range");
        self.masked_outputs[o] = true;
    }

    /// Logical outputs currently masked off.
    pub fn masked_outputs(&self) -> Vec<usize> {
        self.masked_outputs
            .iter()
            .enumerate()
            .filter_map(|(o, &m)| if m { Some(o) } else { None })
            .collect()
    }

    /// Faulty cells within the given logical outputs' bit lines, across all
    /// member crossbars (0 after those outputs were repaired).
    pub fn fault_count_in_outputs(&self, outputs: &[usize]) -> usize {
        self.groups
            .iter()
            .flat_map(|(p, n)| [p, n])
            .filter_map(|xbar| xbar.fault_map())
            .map(|f| {
                outputs
                    .iter()
                    .map(|&o| (0..f.rows()).filter(|&r| f.get(r, o).is_some()).count())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Faulty cells across all member crossbars.
    pub fn fault_count(&self) -> usize {
        self.groups
            .iter()
            .map(|(p, n)| {
                p.fault_map().map_or(0, |f| f.fault_count())
                    + n.fault_map().map_or(0, |f| f.fault_count())
            })
            .sum()
    }

    /// Reads the stored (quantized) weights back — the "old weights are read
    /// out" step of the update path (Sec. 4.4.2).
    ///
    /// Each word line is read once across all member crossbars. An output
    /// sums its segment groups' signed terms in ascending group order,
    /// starting from `0.0`, and is written once; masked outputs read 0.
    pub fn read(&self) -> Vec<f32> {
        let (in_dim, out_dim, scale) = (self.in_dim, self.out_dim, self.weight_scale);
        // Segment group `g` weighs its levels by 2^(g·cell_bits), exact in
        // f32, so `f32(d) · weight` is exactly `(d << shift) as f32`.
        let group_weights: Vec<f32> = (0i32..)
            .zip(&self.groups)
            .map(|(g, _)| 2f32.powi(g * i32::from(self.cell_bits)))
            .collect();
        let mut out = vec![0.0f32; out_dim * in_dim];
        // Word line `i` of every member, in `crossbars()` order.
        let mut lines = vec![0u8; self.crossbar_count() * out_dim];
        // A band of word lines is summed `[line][out]`, then written out
        // transposed.
        let mut band = vec![0.0f32; BAND * out_dim];
        for i0 in (0..in_dim).step_by(BAND) {
            let band = band
                .get_mut(..BAND.min(in_dim - i0) * out_dim)
                .unwrap_or_default();
            for (i, sums) in (i0..).zip(band.chunks_exact_mut(out_dim)) {
                // Reads go through the analog path, so stuck cells corrupt
                // what comes back.
                for (xbar, line) in self.crossbars().zip(lines.chunks_exact_mut(out_dim)) {
                    xbar.read_row(i, line);
                }
                sums.fill(0.0);
                for (pair, &gw) in lines.chunks_exact(2 * out_dim).zip(&group_weights) {
                    let (pos, neg) = pair.split_at(out_dim);
                    for ((v, &p), &n) in sums.iter_mut().zip(pos).zip(neg) {
                        *v += f32::from(i16::from(p) - i16::from(n)) * gw * scale;
                    }
                }
                for (v, &masked) in sums.iter_mut().zip(&self.masked_outputs) {
                    if masked {
                        *v = 0.0;
                    }
                }
            }
            scatter_transposed(band, out_dim, &mut out, in_dim, i0);
        }
        out
    }

    /// Fixed-point matrix–vector product `W·x` through the full analog path:
    /// input quantization (spike driver `V0` scaling), separate
    /// positive/negative input phases, per-segment crossbar MVMs,
    /// shift-add recombination and positive/negative subtraction.
    ///
    /// The eight crossbar MVMs of a phase, shift-added and subtracted, are
    /// computed as the one exact integer product they sum to, against the
    /// fused level cache; each member crossbar then books the read it
    /// would have performed (input/output spikes, read disturb, noise
    /// epoch), in member order. Outputs and counters are bitwise those of
    /// eight separate [`Crossbar::mvm_spiked`] calls per phase.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    pub fn matvec(&mut self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim, "input length mismatch");
        let absmax = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if absmax == 0.0 {
            return vec![0.0; self.out_dim];
        }
        let in_qmax = ((1u64 << self.data_bits) - 1) as f32 / 2.0;
        let x_scale = absmax / in_qmax;
        // |v / x_scale| is in_qmax at most (up to rounding), below 2^31 for
        // data_bits ≤ 31, so the clamp never binds.
        let mut q = vec![0i64; x.len()];
        for (qv, &v) in q.iter_mut().zip(x) {
            *qv = i64::from(round_clamped(v / x_scale, i32::MAX));
        }

        let mut acc = vec![0i64; self.out_dim];
        for sign in [1i64, -1] {
            let phase: Vec<u32> = q
                .iter()
                .map(|&v| if v * sign > 0 { (v * sign) as u32 } else { 0 })
                .collect();
            if phase.iter().all(|&v| v == 0) {
                continue;
            }
            for (a, y) in acc.iter_mut().zip(self.fused_phase(&phase)) {
                *a += sign * y;
            }
        }
        acc.iter()
            .zip(&self.masked_outputs)
            .map(|(&a, &masked)| {
                if masked {
                    0.0
                } else {
                    a as f32 * self.weight_scale * x_scale
                }
            })
            .collect()
    }

    /// One input phase through the fused kernel: `Σ_r phase[r]·w[r][c]`
    /// over the injected (driver-resolution) bits of each word line, then
    /// the members' read bookkeeping.
    fn fused_phase(&mut self, phase: &[u32]) -> Vec<i64> {
        let low_mask = SpikeDriver::new(self.data_bits).injected_mask();
        let injected: Vec<u32> = phase.iter().map(|&v| v & low_mask).collect();
        self.refresh_fused();
        let mut y = vec![0i64; self.out_dim];
        for (&v, w_row) in injected.iter().zip(self.fused.w.chunks_exact(self.out_dim)) {
            if v == 0 {
                continue;
            }
            let v = i64::from(v);
            for (yc, &w) in y.iter_mut().zip(w_row) {
                *yc += v * i64::from(w);
            }
        }
        let row_spikes: Vec<u32> = injected.iter().map(|v| v.count_ones()).collect();
        let members = self.groups.iter_mut().flat_map(|(p, n)| [p, n]);
        for (xbar, sums) in members.zip(self.fused.row_sums.chunks_exact(self.in_dim)) {
            let output_spikes: u64 = injected
                .iter()
                .zip(sums)
                .map(|(&v, &s)| u64::from(v) * u64::from(s))
                .sum();
            xbar.book_read(&row_spikes, output_spikes);
        }
        y
    }

    /// Rebuilds the fused level cache if any member crossbar's state moved
    /// since it was built.
    fn refresh_fused(&mut self) {
        let fresh =
            self.crossbars()
                .map(Crossbar::generation)
                .eq(self.fused.stamps.iter().copied());
        if fresh {
            return;
        }
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let cell_bits = u32::from(self.cell_bits);
        let members = || self.groups.iter().flat_map(|(p, n)| [p, n]);
        let fused = &mut self.fused;
        fused.stamps.clear();
        fused.stamps.extend(members().map(Crossbar::generation));
        fused.w.clear();
        fused.w.resize(in_dim * out_dim, 0);
        fused.row_sums.clear();
        fused.row_sums.resize(self.groups.len() * 2 * in_dim, 0);
        // Word line `r` of every member, in `crossbars()` order.
        let mut lines = vec![0u8; 2 * self.groups.len() * out_dim];
        for (r, w_row) in fused.w.chunks_exact_mut(out_dim).enumerate() {
            for (xbar, line) in members().zip(lines.chunks_exact_mut(out_dim)) {
                xbar.read_row(r, line);
            }
            for (shift, pair) in (0..)
                .step_by(cell_bits as usize)
                .zip(lines.chunks_exact(2 * out_dim))
            {
                let (pos, neg) = pair.split_at(out_dim);
                for ((w, &p), &n) in w_row.iter_mut().zip(pos).zip(neg) {
                    *w += (i32::from(p) - i32::from(n)) << shift;
                }
            }
            let sums = fused.row_sums.iter_mut().skip(r).step_by(in_dim);
            for (sum, line) in sums.zip(lines.chunks_exact(out_dim)) {
                *sum = line.iter().map(|&l| u32::from(l)).sum();
            }
        }
    }

    /// Batched [`matvec`](Self::matvec): exactly
    /// `xs.iter().map(|x| self.matvec(x))` — per-sample quantization,
    /// phase splitting, spike accounting and disturb/noise-epoch ordering
    /// all identical. The fused level cache is built once and reused
    /// across the batch unless a perturbing read (read disturb, per-read
    /// noise) moves a member's state between phases.
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `in_dim()`.
    pub fn matvec_batch(&mut self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        xs.iter().map(|x| self.matvec(x)).collect()
    }

    /// Total input (read) spikes across all member crossbars.
    pub fn read_spikes(&self) -> u64 {
        self.groups
            .iter()
            .map(|(p, n)| p.read_spikes() + n.read_spikes())
            .sum()
    }

    /// Total programming pulses across all member crossbars.
    pub fn write_spikes(&self) -> u64 {
        self.groups
            .iter()
            .map(|(p, n)| p.write_spikes() + n.write_spikes())
            .sum()
    }

    /// Number of physical crossbars backing this matrix.
    pub fn crossbar_count(&self) -> usize {
        self.groups.len() * 2
    }
}

/// Rows per band of the transposing passes ([`ReramMatrix::read`] and the
/// write-path quantizer): a band is computed row-major into a small buffer,
/// then written out in contiguous runs of this length.
const BAND: usize = 16;

/// Writes `band` (rows of `width`, row-major) transposed into the columns
/// of `dst` (`width` rows of `dst_cols`) starting at `col0`:
/// `dst[j][col0 + k] = band[k][j]`.
fn scatter_transposed<T: Copy>(
    band: &[T],
    width: usize,
    dst: &mut [T],
    dst_cols: usize,
    col0: usize,
) {
    let n = band.len() / width;
    for (j, dst_row) in dst.chunks_exact_mut(dst_cols).enumerate() {
        let column = band.get(j..).unwrap_or_default().iter().step_by(width);
        let run = dst_row.get_mut(col0..col0 + n).unwrap_or_default();
        for (d, &v) in run.iter_mut().zip(column) {
            *d = v;
        }
    }
}

/// `((x.round() as i64).clamp(-qmax, qmax)) as i32`, bit for bit, without
/// the libm `round` call or a saturating float-to-int conversion, so a loop
/// over it vectorises. Rounding is half away from zero like
/// [`f32::round`]; NaN maps to 0.
fn round_clamped(x: f32, qmax: i32) -> i32 {
    // Adding 1.5·2^52 to an f64 below 2^51 in magnitude rounds it half to
    // even and leaves the integer in the low mantissa bits.
    const SHIFTER: f64 = 6_755_399_441_055_744.0;
    let lim = f64::from(qmax);
    let x = f64::from(x);
    // Beyond ±qmax the result saturates either way.
    let x = if x.is_nan() { 0.0 } else { x.clamp(-lim, lim) };
    let even = (x + SHIFTER) - SHIFTER;
    // `x - even` is exact; ±0.5 marks a tie, which goes away from zero.
    let r = if (x - even).abs() == 0.5 {
        x + 0.5f64.copysign(x)
    } else {
        even
    };
    let v = (r + SHIFTER).to_bits().wrapping_sub(SHIFTER.to_bits()) as i64;
    i32::try_from(v).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wear::WearState;
    use proptest::prelude::*;
    use rand::SeedableRng as _;

    fn reference(w: &[f32], out: usize, inp: usize, x: &[f32]) -> Vec<f32> {
        (0..out)
            .map(|o| (0..inp).map(|i| w[o * inp + i] * x[i]).sum())
            .collect()
    }

    /// The per-crossbar matvec the fused kernel replaced: per input phase,
    /// one `mvm_spiked` on each member crossbar, shift-added and
    /// subtracted. The differential reference for `matvec`.
    fn matvec_reference(m: &mut ReramMatrix, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), m.in_dim, "input length mismatch");
        let absmax = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if absmax == 0.0 {
            return vec![0.0; m.out_dim];
        }
        let in_qmax = ((1u64 << m.data_bits) - 1) as f32 / 2.0;
        let x_scale = absmax / in_qmax;
        let q: Vec<i64> = x.iter().map(|&v| (v / x_scale).round() as i64).collect();

        let mut acc = vec![0i64; m.out_dim];
        for sign in [1i64, -1] {
            let phase: Vec<u32> = q
                .iter()
                .map(|&v| if v * sign > 0 { (v * sign) as u32 } else { 0 })
                .collect();
            if phase.iter().all(|&v| v == 0) {
                continue;
            }
            for (g, (pos, neg)) in m.groups.iter_mut().enumerate() {
                let shift = g as u32 * m.cell_bits as u32;
                let yp = pos.mvm_spiked(&phase, m.data_bits);
                let yn = neg.mvm_spiked(&phase, m.data_bits);
                for (a, (&p, &n)) in acc.iter_mut().zip(yp.iter().zip(&yn)) {
                    *a += sign * ((p as i64 - n as i64) << shift);
                }
            }
        }
        acc.iter()
            .zip(&m.masked_outputs)
            .map(|(&a, &masked)| {
                if masked {
                    0.0
                } else {
                    a as f32 * m.weight_scale * x_scale
                }
            })
            .collect()
    }

    /// The per-group read-out the one-pass `read` replaced: each segment
    /// group in turn, each word line read on both arrays and accumulated
    /// into a strided column of the `[out][in]` result. The differential
    /// reference for `read`.
    fn read_reference(m: &ReramMatrix) -> Vec<f32> {
        let mut out = vec![0.0f32; m.out_dim * m.in_dim];
        let (mut p_row, mut n_row) = (vec![0u8; m.out_dim], vec![0u8; m.out_dim]);
        for (g, (pos, neg)) in m.groups.iter().enumerate() {
            let shift = g as u32 * m.cell_bits as u32;
            for i in 0..m.in_dim {
                pos.read_row(i, &mut p_row);
                neg.read_row(i, &mut n_row);
                let cells = p_row.iter().zip(&n_row).zip(&m.masked_outputs);
                for (v, ((&p, &n), &masked)) in out.iter_mut().skip(i).step_by(m.in_dim).zip(cells)
                {
                    if !masked {
                        let d = i64::from(p) - i64::from(n);
                        *v += (d << shift) as f32 * m.weight_scale;
                    }
                }
            }
        }
        out
    }

    fn assert_read_matches_reference(m: &ReramMatrix) {
        let got: Vec<u32> = m.read().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = read_reference(m).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "read diverges from the per-group reference");
    }

    /// One step of a differential sequence.
    #[derive(Clone)]
    enum Op {
        Matvec(Vec<f32>),
        Write(Vec<f32>),
        Advance(u64),
    }

    #[derive(Clone, Copy)]
    enum Kernel {
        Fused,
        Batched,
        Reference,
    }

    /// Runs `ops` on `m` through `kernel`; consecutive matvecs form one
    /// `matvec_batch` call under [`Kernel::Batched`].
    fn run(m: &mut ReramMatrix, ops: &[Op], kernel: Kernel) -> Vec<Vec<f32>> {
        let mut outs = Vec::new();
        let mut pending: Vec<Vec<f32>> = Vec::new();
        for op in ops {
            if let Op::Matvec(x) = op {
                match kernel {
                    Kernel::Fused => outs.push(m.matvec(x)),
                    Kernel::Batched => pending.push(x.clone()),
                    Kernel::Reference => outs.push(matvec_reference(m, x)),
                }
                continue;
            }
            outs.append(&mut m.matvec_batch(&std::mem::take(&mut pending)));
            match op {
                Op::Write(w) => match kernel {
                    Kernel::Reference => write_reference(m, w, |x, l| {
                        x.program_reference(&l.concat());
                    }),
                    Kernel::Fused | Kernel::Batched => m.write(w),
                },
                Op::Advance(n) => m.advance_cycles(*n),
                Op::Matvec(_) => {}
            }
        }
        outs.append(&mut m.matvec_batch(&pending));
        outs
    }

    /// The level every cell presents next, and the full write state
    /// (stored levels, spike counters, faults, drift/noise/wear history).
    type MemberState = (Vec<u8>, String);

    /// Everything each member crossbar exposes about its reads and writes
    /// so far.
    fn member_state(m: &ReramMatrix) -> Vec<MemberState> {
        m.crossbars()
            .map(|x| {
                let levels = (0..x.rows())
                    .flat_map(|r| (0..x.cols()).map(move |c| (r, c)))
                    .map(|(r, c)| x.effective_level(r, c))
                    .collect();
                (levels, x.written_state())
            })
            .collect()
    }

    /// Runs `ops` through the fused, batched and per-crossbar kernels on
    /// clones of `m` and asserts bitwise-equal outputs and member state;
    /// the reference kernel also programs cell by cell. The read-out is
    /// pinned against its per-group reference before and after.
    fn assert_kernels_agree(m: &ReramMatrix, ops: &[Op]) {
        assert_read_matches_reference(m);
        let mut reference = m.clone();
        let want = run(&mut reference, ops, Kernel::Reference);
        assert_read_matches_reference(&reference);
        for kernel in [Kernel::Fused, Kernel::Batched] {
            let mut got_m = m.clone();
            let got = run(&mut got_m, ops, kernel);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                let g: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
                let w: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
                assert_eq!(g, w, "outputs diverge from the per-crossbar reference");
            }
            assert!(
                member_state(&got_m) == member_state(&reference),
                "member crossbar state diverges from the per-crossbar reference"
            );
        }
    }

    /// Deterministic weights in `[-1, 1)` and signed inputs (with exact
    /// zeros and single-sign vectors mixed in).
    fn fixture(out: usize, inp: usize, seed: u64) -> (Vec<f32>, Vec<Vec<f32>>) {
        use rand::{rngs::StdRng, RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let w = (0..out * inp)
            .map(|_| rng.random_range(-1.0f32..1.0))
            .collect();
        let mut xs: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                (0..inp)
                    .map(|i| {
                        if i % 7 == 3 {
                            0.0
                        } else {
                            rng.random_range(-2.0f32..2.0)
                        }
                    })
                    .collect()
            })
            .collect();
        xs.push(xs[0].iter().map(|v| v.abs()).collect());
        xs.push(xs[1].iter().map(|v| -v.abs()).collect());
        xs.push(vec![0.0; inp]);
        (w, xs)
    }

    fn matvecs(xs: &[Vec<f32>]) -> Vec<Op> {
        xs.iter().cloned().map(Op::Matvec).collect()
    }

    #[test]
    fn identity_matvec() {
        let w = vec![1.0, 0.0, 0.0, 1.0];
        let mut m = ReramMatrix::program(&w, 2, 2, &ReramParams::default());
        let y = m.matvec(&[0.3, -0.7]);
        assert!(
            (y[0] - 0.3).abs() < 1e-3 && (y[1] + 0.7).abs() < 1e-3,
            "{y:?}"
        );
    }

    #[test]
    fn read_recovers_quantized_weights() {
        let w = vec![0.5, -0.25, 0.125, 1.0, -1.0, 0.0];
        let m = ReramMatrix::program(&w, 2, 3, &ReramParams::default());
        let r = m.read();
        for (a, b) in w.iter().zip(&r) {
            assert!((a - b).abs() < 2.0 * m.weight_scale(), "{a} vs {b}");
        }
    }

    #[test]
    fn update_reprograms() {
        let mut m = ReramMatrix::program(&[1.0, 1.0, 1.0, 1.0], 2, 2, &ReramParams::default());
        let before = m.write_spikes();
        m.write(&[0.5, -0.5, 0.25, -0.25]);
        assert!(m.write_spikes() > before, "update must issue write pulses");
        let y = m.matvec(&[1.0, 0.0]);
        assert!(
            (y[0] - 0.5).abs() < 1e-2 && (y[1] - 0.25).abs() < 1e-2,
            "{y:?}"
        );
    }

    #[test]
    fn eight_crossbars_for_16bit_weights() {
        let m = ReramMatrix::program(&[1.0], 1, 1, &ReramParams::default());
        assert_eq!(m.crossbar_count(), 8); // 4 segment groups × (pos, neg)
    }

    #[test]
    fn zero_input_shortcircuits() {
        let mut m = ReramMatrix::program(&[1.0, 2.0], 2, 1, &ReramParams::default());
        assert_eq!(m.matvec(&[0.0]), vec![0.0, 0.0]);
        assert_eq!(m.read_spikes(), 0);
    }

    #[test]
    fn faulty_matrix_is_deterministic_and_repairable() {
        let w = vec![0.5f32; 16 * 8];
        let faults = FaultModel::with_stuck_rate(0.05);
        let params = ReramParams::default();
        let a = ReramMatrix::program_with_faults(&w, 8, 16, &params, &faults, 9);
        let b = ReramMatrix::program_with_faults(&w, 8, 16, &params, &faults, 9);
        assert!(a.fault_count() > 0, "5% of 2048 cells should fault");
        assert_eq!(a.fault_count(), b.fault_count());
        assert_eq!(a.read(), b.read(), "same seed, same corrupted reads");

        let mut m = a;
        let policy = VerifyPolicy::with_attempts(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let report = m.write_verify(&w, &policy, &mut rng);
        assert!(!report.unrecoverable.is_empty());
        let bad: Vec<usize> = report.unrecoverable.iter().map(|u| u.col).collect();
        m.repair_outputs(&bad);
        assert_eq!(m.fault_count_in_outputs(&bad), 0);

        // After repair, a verified rewrite succeeds everywhere repaired.
        let report = m.write_verify(&w, &policy, &mut rng);
        assert!(report.unrecoverable.iter().all(|u| !bad.contains(&u.col)));
    }

    #[test]
    fn masked_outputs_read_and_compute_zero() {
        let w = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut m = ReramMatrix::program(&w, 2, 2, &ReramParams::default());
        m.mask_output(1);
        assert_eq!(m.masked_outputs(), vec![1]);
        let y = m.matvec(&[1.0, 1.0]);
        assert!((y[0] - 3.0).abs() < 1e-2, "{y:?}");
        assert_eq!(y[1], 0.0);
        let r = m.read();
        assert_eq!(&r[2..], &[0.0, 0.0], "masked row reads as zeros");

        m.repair_outputs(&[1]);
        assert!(m.masked_outputs().is_empty(), "repair unmasks");
        let y = m.matvec(&[1.0, 1.0]);
        assert!((y[1] - 7.0).abs() < 1e-2, "{y:?}");
    }

    #[test]
    fn stuck_cells_corrupt_reads_until_remapped() {
        let w = vec![0.75f32; 4];
        let faults = FaultModel {
            stuck_at_zero: 0.3,
            stuck_at_max: 0.0,
            dead: 0.0,
        };
        let mut m = ReramMatrix::program_with_faults(&w, 2, 2, &ReramParams::default(), &faults, 3);
        assert!(m.fault_count() > 0);
        let corrupted = m.read();
        assert_ne!(corrupted, vec![0.75; 4]);
        m.repair_outputs(&[0, 1]);
        let repaired = m.read();
        for v in &repaired {
            assert!((v - 0.75).abs() < 2.0 * m.weight_scale(), "{repaired:?}");
        }
    }

    #[test]
    fn remap_outputs_rewrites_displaced_column_at_honest_cost() {
        let w = vec![0.75f32; 4];
        let faults = FaultModel {
            stuck_at_zero: 0.3,
            stuck_at_max: 0.0,
            dead: 0.0,
        };
        let mut m = ReramMatrix::program_with_faults(&w, 2, 2, &ReramParams::default(), &faults, 3);
        assert!(m.fault_count() > 0);
        let before_writes = m.write_spikes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let report = m.remap_outputs(&[0, 1], &VerifyPolicy::default(), &mut rng);
        assert_eq!(m.fault_count(), 0, "remap clears every column fault");
        assert!(
            report.pulses > 0,
            "blank spares must be re-programmed from intent"
        );
        assert_eq!(
            m.write_spikes(),
            before_writes + report.pulses,
            "the remap bill lands on the write counter"
        );
        let repaired = m.read();
        for v in &repaired {
            assert!((v - 0.75).abs() < 2.0 * m.weight_scale(), "{repaired:?}");
        }
        // Out-of-range outputs are ignored, not panicked on.
        let empty = m.remap_outputs(&[99], &VerifyPolicy::default(), &mut rng);
        assert_eq!(empty.pulses, 0);
    }

    #[test]
    fn wear_attaches_per_crossbar_and_counts_deaths() {
        use crate::wear::WearModel;
        let w = vec![0.5f32; 4];
        let mut m = ReramMatrix::program(&w, 2, 2, &ReramParams::default());
        m.attach_wear(
            WearModel {
                median_writes: 3.0,
                sigma: 0.0,
            },
            11,
        );
        assert_eq!(m.wear_exhausted_cells(), 0);
        assert_eq!(m.row_wear_headroom(0), 3);
        // Full-swing rewrites hammer the populated nibbles past 3 pulses.
        m.write(&[-0.5, 0.5, -0.5, 0.5]);
        m.write(&[0.5, -0.5, 0.5, -0.5]);
        assert!(m.wear_exhausted_cells() > 0, "swings must kill cells");
        assert!(m.fault_count() > 0, "deaths surface as live faults");
        assert_eq!(m.row_wear_headroom(0), 0);
    }

    #[test]
    fn matvec_batch_matches_sequential_bitwise() {
        let w = vec![0.5f32, -0.25, 0.125, 1.0, -1.0, 0.0];
        let xs: Vec<Vec<f32>> = vec![
            vec![1.0, -2.0, 0.5],
            vec![0.0, 0.0, 0.0],
            vec![-0.125, 3.0, 7.5],
        ];
        let mut seq = ReramMatrix::program(&w, 2, 3, &ReramParams::default());
        seq.attach_noise(NoiseModel::with_strength(1.0), 17);
        let mut bat = seq.clone();
        let want: Vec<Vec<f32>> = xs.iter().map(|x| seq.matvec(x)).collect();
        let got = bat.matvec_batch(&xs);
        for (g, w_) in got.iter().flatten().zip(want.iter().flatten()) {
            assert_eq!(g.to_bits(), w_.to_bits());
        }
        assert_eq!(bat.read_spikes(), seq.read_spikes());
    }

    /// The per-group write path the single-pass write replaced: quantize
    /// once per segment group into `[row][col]` level matrices, then
    /// program each member through the public `Vec<Vec<u8>>` API.
    fn write_reference(
        m: &mut ReramMatrix,
        weights: &[f32],
        mut program: impl FnMut(&mut Crossbar, &[Vec<u8>]),
    ) {
        let absmax = weights.iter().fold(0.0f32, |a, &w| a.max(w.abs()));
        m.weight_scale = if absmax == 0.0 {
            1.0
        } else {
            absmax / m.qmax() as f32
        };
        let mask = (1u32 << m.cell_bits) - 1;
        let (in_dim, out_dim, cell_bits) = (m.in_dim, m.out_dim, m.cell_bits);
        let (qmax, scale) = (m.qmax(), m.weight_scale);
        for (g, (pos, neg)) in m.groups.iter_mut().enumerate() {
            let shift = g as u32 * cell_bits as u32;
            let mut pos_levels = vec![vec![0u8; out_dim]; in_dim];
            let mut neg_levels = vec![vec![0u8; out_dim]; in_dim];
            for o in 0..out_dim {
                for i in 0..in_dim {
                    let q = ((weights[o * in_dim + i] / scale).round() as i64).clamp(-qmax, qmax);
                    let nibble = ((q.unsigned_abs() >> shift) as u32 & mask) as u8;
                    if q >= 0 {
                        pos_levels[i][o] = nibble;
                    } else {
                        neg_levels[i][o] = nibble;
                    }
                }
            }
            program(pos, &pos_levels);
            program(neg, &neg_levels);
        }
    }

    /// Stored levels, counters, wear and fault state of every member.
    type Programmed = Vec<(
        Vec<u8>,
        (u64, u64, u64),
        Option<WearState>,
        Option<FaultMap>,
    )>;

    fn programmed_state(m: &ReramMatrix) -> Programmed {
        m.crossbars()
            .map(|x| {
                (
                    x.stored_levels(),
                    x.spike_counters(),
                    x.wear_state().cloned(),
                    x.fault_map().cloned(),
                )
            })
            .collect()
    }

    fn disturbing_drift() -> DriftModel {
        DriftModel {
            nu: 0.1,
            nu_sigma: 0.05,
            t0_cycles: 8,
            disturb_per_level: 40,
        }
    }

    fn short_wear() -> WearModel {
        WearModel {
            median_writes: 40.0,
            sigma: 0.3,
        }
    }

    /// Matvecs interleaved with rewrites between two weight sets and clock
    /// ticks, so caches go stale mid-sequence.
    fn mixed_ops(w1: &[f32], w2: &[f32], xs: &[Vec<f32>]) -> Vec<Op> {
        let mut ops = matvecs(xs);
        ops.push(Op::Write(w2.to_vec()));
        ops.extend(matvecs(&xs[..3]));
        ops.push(Op::Advance(700));
        ops.extend(matvecs(&xs[2..]));
        ops.push(Op::Write(w1.to_vec()));
        ops.push(Op::Write(w2.to_vec()));
        ops.extend(matvecs(xs));
        ops
    }

    #[test]
    fn fused_matvec_matches_per_crossbar_reference_on_ideal_arrays() {
        let (w1, xs) = fixture(9, 70, 1);
        let (w2, _) = fixture(9, 70, 2);
        let m = ReramMatrix::program(&w1, 9, 70, &ReramParams::default());
        assert_kernels_agree(&m, &mixed_ops(&w1, &w2, &xs));
    }

    #[test]
    fn fused_matvec_matches_reference_under_faults_and_masks() {
        let (w1, xs) = fixture(6, 67, 3);
        let (w2, _) = fixture(6, 67, 4);
        let faults = FaultModel::with_stuck_rate(0.05);
        let mut m =
            ReramMatrix::program_with_faults(&w1, 6, 67, &ReramParams::default(), &faults, 5);
        assert!(m.fault_count() > 0);
        m.mask_output(2);
        m.mask_output(5);
        assert_kernels_agree(&m, &mixed_ops(&w1, &w2, &xs));
    }

    #[test]
    fn fused_matvec_matches_reference_under_drift_and_disturb() {
        let (w1, xs) = fixture(5, 66, 6);
        let (w2, _) = fixture(5, 66, 7);
        let mut m = ReramMatrix::program(&w1, 5, 66, &ReramParams::default());
        m.attach_drift(disturbing_drift(), 8);
        m.advance_cycles(5_000);
        assert!(
            m.drifted_cells() > 0,
            "the fixture must read drifted levels"
        );
        assert_kernels_agree(&m, &mixed_ops(&w1, &w2, &xs));
    }

    #[test]
    fn fused_matvec_matches_reference_under_per_read_noise() {
        let (w1, xs) = fixture(7, 65, 9);
        let (w2, _) = fixture(7, 65, 10);
        let mut m = ReramMatrix::program(&w1, 7, 65, &ReramParams::default());
        m.attach_noise(NoiseModel::with_strength(1.0), 11);
        assert_kernels_agree(&m, &mixed_ops(&w1, &w2, &xs));
    }

    #[test]
    fn fused_matvec_matches_reference_through_wear_deaths() {
        let (w1, xs) = fixture(6, 64, 12);
        let (w2, _) = fixture(6, 64, 13);
        let mut m = ReramMatrix::program(&w1, 6, 64, &ReramParams::default());
        m.attach_wear(short_wear(), 14);
        let mut ops = matvecs(&xs);
        for _ in 0..4 {
            ops.push(Op::Write(w2.clone()));
            ops.extend(matvecs(&xs[..2]));
            ops.push(Op::Write(w1.clone()));
            ops.extend(matvecs(&xs[2..]));
        }
        assert_kernels_agree(&m, &ops);
        let mut dying = m.clone();
        run(&mut dying, &ops, Kernel::Fused);
        assert!(
            dying.wear_exhausted_cells() > 0,
            "cells must die mid-sequence"
        );
    }

    #[test]
    fn fused_matvec_matches_reference_under_every_model_at_once() {
        let (w1, xs) = fixture(8, 90, 15);
        let (w2, _) = fixture(8, 90, 16);
        let faults = FaultModel::with_stuck_rate(0.02);
        let mut m =
            ReramMatrix::program_with_faults(&w1, 8, 90, &ReramParams::default(), &faults, 17);
        m.attach_drift(disturbing_drift(), 18);
        m.attach_noise(NoiseModel::with_strength(0.5), 19);
        m.attach_wear(short_wear(), 20);
        m.mask_output(0);
        assert_kernels_agree(&m, &mixed_ops(&w1, &w2, &xs));
    }

    /// The checkpoint path restores levels through `crossbars_mut()`
    /// without programming; the next matvec must read the restored levels,
    /// not a fused cache built before the restore.
    #[test]
    fn restore_through_crossbars_mut_invalidates_the_fused_cache() {
        let params = ReramParams::default();
        let (w1, xs) = fixture(5, 70, 21);
        let (w2, _) = fixture(5, 70, 22);
        let mut live = ReramMatrix::program(&w1, 5, 70, &params);
        let saved = ReramMatrix::program(&w2, 5, 70, &params);
        live.matvec(&xs[0]); // builds the cache on w1's levels
        for (dst, src) in live.crossbars_mut().zip(saved.crossbars()) {
            assert!(dst.restore_levels(&src.stored_levels()));
        }
        live.restore_weight_scale(saved.weight_scale());
        let mut want = saved.clone();
        assert_eq!(live.matvec(&xs[1]), want.matvec(&xs[1]));

        // Swapping whole crossbars in through the same accessor is caught
        // too: a different crossbar never carries a stale stamp.
        let other = ReramMatrix::program(&w1, 5, 70, &params);
        for (dst, src) in live.crossbars_mut().zip(other.crossbars()) {
            *dst = src.clone();
        }
        live.restore_weight_scale(other.weight_scale());
        let mut want = other.clone();
        assert_eq!(live.matvec(&xs[2]), want.matvec(&xs[2]));
    }

    /// The single-pass write quantizes once and programs from flat slices;
    /// every pulse, verify read, wear note, death and RNG draw must land
    /// exactly as the per-group path placed them.
    #[test]
    fn single_pass_write_matches_per_group_reference() {
        use rand::RngExt as _;
        let params = ReramParams::default();
        let (w1, _) = fixture(7, 66, 23);
        let (w2, _) = fixture(7, 66, 24);
        let faults = FaultModel::with_stuck_rate(0.03);
        let mut base = ReramMatrix::program_with_faults(&w1, 7, 66, &params, &faults, 25);
        base.attach_wear(short_wear(), 26);
        base.attach_noise(NoiseModel::with_strength(0.5), 27);
        let policy = VerifyPolicy {
            max_attempts: 3,
            write_sigma: 0.6,
        };

        let (mut got, mut want) = (base.clone(), base.clone());
        for w in [&w2, &w1, &w2, &w1] {
            got.write(w);
            write_reference(&mut want, w, |x, l| {
                x.program_reference(&l.concat());
            });
        }
        assert_eq!(got.weight_scale().to_bits(), want.weight_scale().to_bits());
        assert!(programmed_state(&got) == programmed_state(&want));
        assert!(
            got.wear_exhausted_cells() > 0,
            "the rewrites must kill cells"
        );

        let (mut got, mut want) = (base.clone(), base);
        let mut got_rng = rand::rngs::StdRng::seed_from_u64(28);
        let mut want_rng = got_rng.clone();
        for w in [&w2, &w1, &w2] {
            let got_report = got.write_verify(w, &policy, &mut got_rng);
            let mut want_report = ProgramReport::default();
            write_reference(&mut want, w, |x, l| {
                want_report.merge(x.program_verify(l, &policy, &mut want_rng));
            });
            assert_eq!(got_report, want_report);
        }
        assert!(programmed_state(&got) == programmed_state(&want));
        assert_eq!(
            got_rng.random::<u64>(),
            want_rng.random::<u64>(),
            "both paths must consume the same RNG draws"
        );
    }

    /// `round_clamped` against the libm formula it replaces, at several
    /// word widths: a stride through all f32 bit patterns (both signs,
    /// subnormals, infinities, NaNs) plus ties and clamp edges.
    #[test]
    fn round_clamped_matches_libm_round() {
        let formula = |x: f32, qmax: i32| {
            let q = i64::from(qmax);
            ((x.round() as i64).clamp(-q, q)) as i32
        };
        for qmax in [1, 7, 127, 32_767, (1 << 23) - 1, (1 << 30) - 1, i32::MAX] {
            let lim = qmax as f32;
            let mut xs: Vec<f32> = (0..=u32::MAX).step_by(65_521).map(f32::from_bits).collect();
            for base in [0.0f32, 1.0, 2.0, 4_194_304.0, 8_388_607.0, lim] {
                for d in [-1.5f32, -0.5, -0.25, 0.0, 0.25, 0.5, 1.5] {
                    xs.extend([base + d, -(base + d)]);
                }
            }
            xs.extend([
                0.499_999_97,
                -0.499_999_97,
                2_147_483_648.0,
                f32::MAX,
                f32::NAN,
            ]);
            xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, -0.0]);
            for x in xs {
                assert_eq!(
                    round_clamped(x, qmax),
                    formula(x, qmax),
                    "x = {x:e}, qmax = {qmax}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The full analog path approximates the float MVM within the
        /// fixed-point error bound.
        #[test]
        fn matvec_matches_float_reference(seed in 0u64..500) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let (out, inp) = (rng.random_range(1usize..6), rng.random_range(1usize..6));
            let w: Vec<f32> = (0..out * inp).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let x: Vec<f32> = (0..inp).map(|_| rng.random_range(-2.0f32..2.0)).collect();
            let mut m = ReramMatrix::program(&w, out, inp, &ReramParams::default());
            let got = m.matvec(&x);
            let want = reference(&w, out, inp, &x);
            // Error bound: per-term quantization error ~ (|x| eps_w + |w| eps_x).
            let tol = 1e-3 * (1.0 + inp as f32);
            for (g, wnt) in got.iter().zip(&want) {
                prop_assert!((g - wnt).abs() < tol, "got {g}, want {wnt}");
            }
        }

        /// Differential pin over random shapes and device stacks: the fused
        /// and batched kernels equal the per-crossbar reference bit for bit,
        /// outputs and member state alike.
        #[test]
        fn fused_kernels_match_reference_on_random_device_stacks(
            out in 1usize..6,
            inp in 1usize..80,
            models in 0u8..16,
            seed in 0u64..500,
        ) {
            let (w1, xs) = fixture(out, inp, seed);
            let (w2, _) = fixture(out, inp, seed + 1);
            let params = ReramParams::default();
            let mut m = if models & 1 == 1 {
                let faults = FaultModel::with_stuck_rate(0.05);
                ReramMatrix::program_with_faults(&w1, out, inp, &params, &faults, seed)
            } else {
                ReramMatrix::program(&w1, out, inp, &params)
            };
            if models & 2 == 2 {
                m.attach_drift(disturbing_drift(), seed);
                m.advance_cycles(3_000);
            }
            if models & 4 == 4 {
                m.attach_noise(NoiseModel::with_strength(1.0), seed);
            }
            if models & 8 == 8 {
                m.attach_wear(short_wear(), seed);
                m.mask_output(out - 1);
            }
            assert_kernels_agree(&m, &mixed_ops(&w1, &w2, &xs));
        }
    }
}
