//! A single ReRAM crossbar array performing in-situ matrix–vector
//! multiplication through the spike/integrate-and-fire path.

use crate::cell::ReramCell;
use crate::drift::{DriftModel, DriftState};
use crate::fault::{FaultKind, FaultMap, ProgramReport, UnrecoverableCell, VerifyPolicy};
use crate::integrate_fire::IntegrateFire;
use crate::noise::{NoiseModel, NoiseState};
use crate::packed::{self, BitPlanes, PackedSpikes};
use crate::spike::{SpikeDriver, SpikeTrain};
use crate::wear::{WearModel, WearState};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Crossbar::generation`] stamps. Process-wide, so two
/// crossbars share a stamp only when one is a clone of the other taken
/// after its last state change — i.e. only when they read identically.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A `rows × cols` crossbar of multi-level cells.
///
/// Word lines carry the (spike-coded) input vector; each bit line sums the
/// currents of its column's cells, so column `c` computes
/// `Σ_r input[r] · level[r][c]` exactly — verified against plain integer
/// arithmetic by property tests.
///
/// The struct also counts input/output/programming spikes, the quantities
/// the energy model (Sec. 6.2 constants) is built on.
///
/// Cells are stored flat: one level byte per cell, row-major, with the
/// resolution held once for the whole array. The per-cell loops of plain
/// programming and read-out run over that byte slice; the stochastic paths
/// (verify, scrub, spare remap) lift a stored level into the single-cell
/// model [`ReramCell`] and store the level it leaves.
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    /// Cell resolution in bits, `1..=8`, shared by every cell.
    bits: u8,
    /// Stored (intent) level of every cell, row-major.
    levels: Vec<u8>,
    /// Persistent stuck-at/dead cells; `None` for an ideal array.
    faults: Option<FaultMap>,
    /// Time-dependent degradation (retention drift + read disturb);
    /// `None` for an ageless array.
    drift: Option<DriftState>,
    /// Analog read-path non-idealities (lognormal spread, IR drop, read
    /// noise); `None` for a noiseless array.
    noise: Option<NoiseState>,
    /// Endurance wear-out: per-cell programming-pulse budgets whose
    /// exhaustion raises a live dead fault; `None` for an unwearing array.
    wear: Option<WearState>,
    /// Bit-plane decomposition of the levels the *next* read will see,
    /// rebuilt lazily by `mvm_spiked` and dropped by anything that can
    /// change a read: programming, scrub, fault repair, clock advance,
    /// model attachment, read disturb, or a fresh per-read noise epoch.
    plane_cache: Option<BitPlanes>,
    /// Stamp of the state reads resolve against, replaced (together with
    /// dropping `plane_cache`) by [`invalidate`](Self::invalidate) on every
    /// change that can alter a read. Caches derived outside the crossbar
    /// (the fused level cache of a `ReramMatrix`) record it and rebuild
    /// when it moves.
    generation: u64,
    read_spikes: u64,
    write_spikes: u64,
    output_spikes: u64,
}

impl Crossbar {
    /// Creates an all-zero (high-resistance) crossbar of `bits`-bit cells.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, or `bits` is out of range.
    pub fn new(rows: usize, cols: usize, bits: u8) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar must be non-empty");
        Crossbar {
            rows,
            cols,
            bits: ReramCell::new(bits).bits(),
            levels: vec![0; rows * cols],
            faults: None,
            drift: None,
            noise: None,
            wear: None,
            plane_cache: None,
            generation: fresh_generation(),
            read_spikes: 0,
            write_spikes: 0,
            output_spikes: 0,
        }
    }

    /// Drops every cache derived from the read state: the bit planes here
    /// and, through a fresh [`generation`](Self::generation) stamp, any
    /// cache a caller keyed on the old one. The one invalidation point for
    /// every state change that can alter what a read returns.
    fn invalidate(&mut self) {
        self.plane_cache = None;
        self.generation = fresh_generation();
    }

    /// Stamp of the state reads currently resolve against: equal stamps
    /// mean equal reads. Changes on every write, scrub, repair, clock
    /// advance, model attachment, checkpoint restore, wear death and
    /// perturbing read.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Attaches a persistent fault map; faulty cells present their stuck
    /// level on every read from then on.
    ///
    /// # Panics
    ///
    /// Panics if the map's geometry differs from the crossbar's.
    pub fn attach_faults(&mut self, map: FaultMap) {
        assert_eq!(
            (map.rows(), map.cols()),
            (self.rows, self.cols),
            "fault map geometry mismatch"
        );
        self.faults = Some(map);
        self.invalidate();
    }

    /// The attached fault map, if any.
    pub fn fault_map(&self) -> Option<&FaultMap> {
        self.faults.as_ref()
    }

    /// Attaches the time-dependent degradation model. All cells start at
    /// age 0 (freshly programmed). `seed` should already be
    /// crossbar-qualified via [`crate::seedstream::crossbar_seed`].
    pub fn attach_drift(&mut self, model: DriftModel, seed: u64) {
        self.drift = Some(DriftState::new(self.rows, self.cols, model, seed));
        self.invalidate();
    }

    /// The attached drift state, if any.
    pub fn drift_state(&self) -> Option<&DriftState> {
        self.drift.as_ref()
    }

    /// Attaches the analog non-ideality model (lognormal device spread,
    /// IR drop, per-read noise). An [`ideal`](NoiseModel::ideal) model is
    /// an exact no-op on every read. `seed` should already be
    /// crossbar-qualified via [`crate::seedstream::crossbar_seed`].
    pub fn attach_noise(&mut self, model: NoiseModel, seed: u64) {
        self.noise = Some(NoiseState::new(self.rows, self.cols, model, seed));
        self.invalidate();
    }

    /// The attached noise state, if any.
    pub fn noise_state(&self) -> Option<&NoiseState> {
        self.noise.as_ref()
    }

    /// Attaches the endurance wear-out model: every cell draws a lognormal
    /// write budget from its `(seed, row, col, generation)` stream, every
    /// programming pulse decrements it, and exhaustion raises a live
    /// [`FaultKind::Dead`] fault. An [`ideal`](WearModel::is_ideal) model
    /// detaches wear entirely (the exact-no-op default). `seed` should
    /// already be crossbar-qualified via
    /// [`crate::seedstream::crossbar_seed`].
    pub fn attach_wear(&mut self, model: WearModel, seed: u64) {
        self.wear = if model.is_ideal() {
            None
        } else {
            Some(WearState::new(self.rows, self.cols, model, seed))
        };
        self.invalidate();
    }

    /// The attached wear state, if any.
    pub fn wear_state(&self) -> Option<&WearState> {
        self.wear.as_ref()
    }

    /// Restores wear counters exported by
    /// [`WearState::counters`]; budgets re-derive from the attached model
    /// and seed. Returns `false` when no wear is attached or the geometry
    /// mismatches. Checkpoint restore only — issues no pulses.
    pub fn restore_wear_counters(&mut self, pulses: &[u64], generation: &[u64]) -> bool {
        let restored = match self.wear.as_mut() {
            Some(w) => w.restore_counters(pulses, generation),
            None => false,
        };
        self.invalidate();
        restored
    }

    /// Books `pulses` programming pulses of wear on `(row, col)`; if that
    /// crosses the cell's budget, the cell dies on the spot — a live
    /// [`FaultKind::Dead`] entry every later read and write sees.
    fn note_wear_pulses(&mut self, row: usize, col: usize, pulses: u64) {
        let Some(w) = self.wear.as_mut() else {
            return;
        };
        if w.note_pulses(row, col, pulses) {
            let (rows, cols) = (self.rows, self.cols);
            self.faults
                .get_or_insert_with(|| FaultMap::pristine(rows, cols))
                .set(row, col, FaultKind::Dead);
            self.invalidate();
        }
    }

    /// Books the history of a write that landed `pulses > 0` programming
    /// pulses on `(row, col)`: the drift clock and the noise device deviate
    /// restart, and the pulses wear the cell (possibly killing it). A
    /// zero-pulse write leaves the physical cell untouched, so callers skip
    /// it: its degradation clock keeps running and its deviate stays.
    fn note_written(&mut self, row: usize, col: usize, pulses: u64) {
        if let Some(d) = self.drift.as_mut() {
            d.note_program(row, col);
        }
        if let Some(n) = self.noise.as_mut() {
            n.note_program(row, col);
        }
        self.note_wear_pulses(row, col, pulses);
    }

    /// Whether any attached model keeps per-cell write history (drift,
    /// noise, wear) — without one, a write needs no per-cell bookkeeping.
    fn tracks_writes(&self) -> bool {
        self.drift.is_some() || self.noise.is_some() || self.wear.is_some()
    }

    /// Top level of the array's cells. Every write that takes a target
    /// level (plain, verified, checkpoint restore) saturates it here in
    /// release, so a verify report books the level the cell is actually
    /// driven to; the programming paths debug-check over-range targets.
    fn max_level(&self) -> u8 {
        u8::MAX >> (8 - self.bits)
    }

    /// Advances the degradation clock by `cycles` logical pipeline cycles
    /// (one processed image = one cycle). No-op without an attached model.
    pub fn advance_cycles(&mut self, cycles: u64) {
        if let Some(d) = self.drift.as_mut() {
            d.advance(cycles);
            self.invalidate();
        }
    }

    /// Cells whose read currently deviates from their programmed level
    /// because of drift or disturb (fault-pinned cells are not counted —
    /// scrub cannot help them).
    pub fn drifted_cells(&self) -> usize {
        let Some(d) = self.drift.as_ref() else {
            return 0;
        };
        let top = self.max_level();
        let rows = self.levels.chunks_exact(self.cols).enumerate();
        rows.flat_map(|(r, row)| row.iter().enumerate().map(move |(c, &l)| (r, c, l)))
            .filter(|&(r, c, l)| {
                self.faults.as_ref().and_then(|f| f.get(r, c)).is_none()
                    && d.is_degraded(r, c, l, top)
            })
            .count()
    }

    /// Clears every fault in bit line `col` — the crossbar-level view of a
    /// spare-column remap (the logical column now lives on a fault-free
    /// spare bit line).
    pub fn clear_fault_col(&mut self, col: usize) {
        if let Some(f) = self.faults.as_mut() {
            f.clear_col(col);
            self.invalidate();
        }
    }

    /// Remaps bit line `col` onto a fresh spare bit line at honest device
    /// cost: the spare's cells start at level 0 (and, under wear, draw
    /// fresh budgets from their own generation's stream), every fault on
    /// the logical column clears, and the displaced column's intent levels
    /// are driven into the spare through the full program-and-verify loop —
    /// so the returned report carries the real pulse/verify-read bill the
    /// energy, timing and endurance accounting must pay. `ideal_pulses` is
    /// the tuning distance from a pristine spare.
    ///
    /// An out-of-range `col` is a no-op returning an empty report.
    pub fn reprogram_col_from_spare(
        &mut self,
        col: usize,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let mut report = ProgramReport::default();
        if col >= self.cols {
            return report;
        }
        // Intent levels survive in storage even when a fault pinned the
        // physical reads (program paths keep tracking the target).
        let targets: Vec<u8> = (0..self.rows).map(|r| self.level(r, col)).collect();
        if let Some(f) = self.faults.as_mut() {
            f.clear_col(col);
        }
        if let Some(w) = self.wear.as_mut() {
            w.renew_col(col);
        }
        for (r, &target) in targets.iter().enumerate() {
            let idx = r * self.cols + col;
            let Some(stored) = self.levels.get_mut(idx) else {
                continue;
            };
            // The spare's cell starts pristine, at level 0.
            let mut cell = ReramCell::new(self.bits);
            let w = cell.program_verify(target, policy, rng);
            *stored = cell.level();
            report.ideal_pulses += u64::from(target);
            report.pulses += u64::from(w.pulses);
            report.verify_reads += u64::from(w.attempts);
            if w.pulses > 0 {
                // The spare itself wears; an unlucky budget draw can die
                // during its very first reprogram and re-enter the ladder.
                self.note_written(r, col, u64::from(w.pulses));
            }
            if !w.verified {
                report.unrecoverable.push(UnrecoverableCell {
                    row: r,
                    col,
                    target,
                    actual: cell.level(),
                });
            }
        }
        self.write_spikes += report.pulses;
        self.read_spikes += report.verify_reads;
        self.invalidate();
        report
    }

    /// The smallest remaining write budget across word line `row` —
    /// `u64::MAX` without wear. The wear-leveling scrub scheduler skips
    /// rows whose headroom is below its threshold instead of burning their
    /// last pulses on maintenance writes.
    pub fn row_wear_headroom(&self, row: usize) -> u64 {
        self.wear
            .as_ref()
            .map_or(u64::MAX, |w| w.row_min_remaining(row))
    }

    /// Row-major stored (intent) levels — what a checkpoint persists.
    pub fn stored_levels(&self) -> Vec<u8> {
        self.levels.clone()
    }

    /// Overwrites the stored levels in place. Checkpoint restore only: no
    /// programming pulses are issued and no wear/drift/noise bookkeeping
    /// runs. Returns `false` (untouched) on a geometry mismatch; over-range
    /// levels clamp to the cell's top level.
    pub fn restore_levels(&mut self, levels: &[u8]) -> bool {
        if levels.len() != self.levels.len() {
            return false;
        }
        let top = self.max_level();
        for (stored, &lvl) in self.levels.iter_mut().zip(levels) {
            *stored = lvl.min(top);
        }
        self.invalidate();
        true
    }

    /// Replaces the fault map wholesale (a pristine map for "no faults").
    /// Checkpoint restore only. Returns `false` on a geometry mismatch.
    pub fn restore_faults(&mut self, map: FaultMap) -> bool {
        if (map.rows(), map.cols()) != (self.rows, self.cols) {
            return false;
        }
        self.faults = Some(map);
        self.invalidate();
        true
    }

    /// The spike counters `(read, write, output)` as one tuple, for
    /// checkpoint persistence.
    pub fn spike_counters(&self) -> (u64, u64, u64) {
        (self.read_spikes, self.write_spikes, self.output_spikes)
    }

    /// Restores spike counters saved by [`spike_counters`]
    /// (checkpoint restore only).
    ///
    /// [`spike_counters`]: Self::spike_counters
    pub fn restore_spike_counters(&mut self, read: u64, write: u64, output: u64) {
        self.read_spikes = read;
        self.write_spikes = write;
        self.output_spikes = output;
    }

    /// Word-line count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit-line count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cell resolution in bits.
    pub fn cell_bits(&self) -> u8 {
        self.bits
    }

    /// Level the programming logic last stored at `(row, col)` (what the
    /// write *wanted*; faults are not applied).
    pub fn level(&self, row: usize, col: usize) -> u8 {
        self.levels[row * self.cols + col]
    }

    /// Level the cell at `(row, col)` actually presents on a read: the
    /// stored level, unless a fault pins it, age has drifted it, or the
    /// analog read path perturbs it. Noise applies *on top of* the
    /// fault/drift-resolved level — a stuck cell's pinned conductance
    /// still crosses the same noisy wires.
    pub fn effective_level(&self, row: usize, col: usize) -> u8 {
        let (stored, top) = (self.level(row, col), self.max_level());
        let base = match self.faults.as_ref().and_then(|f| f.get(row, col)) {
            Some(kind) => kind.effective_level(top),
            None => match self.drift.as_ref() {
                Some(d) => d.effective_level(row, col, stored, top),
                None => stored,
            },
        };
        match self.noise.as_ref() {
            Some(n) => n.effective_level(row, col, base, top),
            None => base,
        }
    }

    /// Programs the whole array from a row-major level matrix; counts the
    /// tuning pulses as write spikes. Returns the pulse count.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not `rows × cols`; an over-range level is
    /// debug-checked (release saturates it at the top level).
    pub fn program(&mut self, levels: &[Vec<u8>]) -> u64 {
        self.program_flat(&self.flatten_levels(levels))
    }

    /// Checks a `rows × cols` level matrix's shape and flattens it
    /// row-major.
    fn flatten_levels(&self, levels: &[Vec<u8>]) -> Vec<u8> {
        assert_eq!(levels.len(), self.rows, "level matrix row count mismatch");
        for row in levels {
            assert_eq!(row.len(), self.cols, "level matrix column count mismatch");
        }
        levels.concat()
    }

    /// Debug-checks a write request against the cell resolution.
    fn debug_check_levels(&self, levels: &[u8]) {
        debug_assert!(
            levels.iter().all(|&l| l <= self.max_level()),
            "level exceeds {}-bit cell",
            self.bits
        );
    }

    /// [`program`](Self::program) from a flat row-major level slice — the
    /// one programming body.
    ///
    /// One branch-free pass saturates each target at the top level, counts
    /// its tuning pulses (the level distance) and stores it. Only when an
    /// attached model keeps per-cell write history does a second pass then
    /// walk, in row-major order, the cells that received pulses. Splitting
    /// the passes is exact: plain programming never consults the fault
    /// map, so a wear death raised in the second pass cannot change a level
    /// the first one stored.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows × cols`; an over-range level is
    /// debug-checked (release saturates it).
    pub(crate) fn program_flat(&mut self, levels: &[u8]) -> u64 {
        assert_eq!(
            levels.len(),
            self.levels.len(),
            "level matrix size mismatch"
        );
        self.debug_check_levels(levels);
        let top = self.max_level();
        let before = self.tracks_writes().then(|| self.levels.clone());
        let mut pulses = 0u64;
        // u32 partial sums per chunk (≤ 255 per cell) keep the pass
        // vector-width; one chunk cannot overflow them.
        for (stored, targets) in self.levels.chunks_mut(1 << 16).zip(levels.chunks(1 << 16)) {
            let mut chunk = 0u32;
            for (s, &target) in stored.iter_mut().zip(targets) {
                let target = target.min(top);
                chunk += u32::from(s.abs_diff(target));
                *s = target;
            }
            pulses += u64::from(chunk);
        }
        if let Some(before) = before {
            let cols = self.cols;
            for (idx, (&was, &target)) in before.iter().zip(levels).enumerate() {
                let p = was.abs_diff(target.min(top));
                if p > 0 {
                    self.note_written(idx / cols, idx % cols, u64::from(p));
                }
            }
        }
        self.write_spikes += pulses;
        self.invalidate();
        pulses
    }

    /// Programs the whole array through the program-and-verify loop: every
    /// cell is pulsed, read back and retried within `policy.max_attempts`;
    /// cells a fault pins (or noise never lands) are reported
    /// unrecoverable with the level they actually present.
    ///
    /// Pulses (including retries) are counted as write spikes and verify
    /// reads as read spikes, so the energy accounting sees the real cost.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is not `rows × cols`; an over-range level is
    /// debug-checked (release saturates it at the top level).
    pub fn program_verify(
        &mut self,
        levels: &[Vec<u8>],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        self.program_verify_flat(&self.flatten_levels(levels), policy, rng)
    }

    /// [`program_verify`](Self::program_verify) from a flat row-major level
    /// slice — the one verified-programming body; cells (and their RNG
    /// draws) are visited in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows × cols`.
    pub(crate) fn program_verify_flat(
        &mut self,
        levels: &[u8],
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        assert_eq!(
            levels.len(),
            self.rows * self.cols,
            "level matrix size mismatch"
        );
        self.debug_check_levels(levels);
        let top = self.max_level();
        let mut report = ProgramReport::default();
        for (idx, &target) in levels.iter().enumerate() {
            let (r, c) = (idx / self.cols, idx % self.cols);
            let target = target.min(top);
            let prev = self.levels[idx];
            report.ideal_pulses += u64::from(prev.abs_diff(target));
            let fault = self.faults.as_ref().and_then(|f| f.get(r, c));
            let (pulses, attempts, actual) = match fault {
                Some(kind) => {
                    // The driver pulses and verifies up to the budget, but
                    // the cell never moves; a fault that happens to pin it
                    // at the target passes the first verify with no pulses.
                    let actual = kind.effective_level(top);
                    let (wasted, attempts) = if actual == target {
                        (0, 1)
                    } else {
                        (u64::from(policy.max_attempts), policy.max_attempts)
                    };
                    // The wasted retry pulses still stress the pinned
                    // cell's oxide.
                    self.note_wear_pulses(r, c, wasted);
                    // Track the intent so a later repair + rewrite starts
                    // from the right place.
                    self.levels[idx] = target;
                    (wasted, attempts, actual)
                }
                None => {
                    let mut cell = ReramCell::at_level(self.bits, prev);
                    let w = cell.program_verify(target, policy, rng);
                    self.levels[idx] = cell.level();
                    if w.pulses > 0 {
                        // Every pulse (including verify retries) wears the
                        // cell; a budget crossing kills it for all
                        // *subsequent* accesses — this write's charge
                        // already landed.
                        self.note_written(r, c, u64::from(w.pulses));
                    }
                    (u64::from(w.pulses), w.attempts, cell.level())
                }
            };
            report.pulses += pulses;
            report.verify_reads += u64::from(attempts);
            if actual != target {
                report.unrecoverable.push(UnrecoverableCell {
                    row: r,
                    col: c,
                    target,
                    actual,
                });
            }
        }
        self.write_spikes += report.pulses;
        self.read_spikes += report.verify_reads;
        self.invalidate();
        report
    }

    /// Bit-plane decomposition of the levels the next read will present —
    /// effective levels when any non-ideality is attached, raw stored
    /// levels otherwise.
    fn build_planes(&self) -> BitPlanes {
        let degraded = self.faults.is_some() || self.drift.is_some() || self.noise.is_some();
        if degraded {
            BitPlanes::pack(self.rows, self.cols, self.cell_bits(), |r, c| {
                self.effective_level(r, c)
            })
        } else {
            BitPlanes::pack(self.rows, self.cols, self.cell_bits(), |r, c| {
                self.level(r, c)
            })
        }
    }

    /// Whether the bookkeeping at the *end* of an MVM (read disturb,
    /// read-noise epoch bump) can change what the next read sees — if so
    /// the plane cache must not survive the call.
    pub(crate) fn reads_perturb_levels(&self) -> bool {
        self.drift
            .as_ref()
            .is_some_and(|d| d.model().disturb_per_level > 0)
            || self
                .noise
                .as_ref()
                .is_some_and(|n| n.model().read_sigma > 0.0)
    }

    /// In-situ MVM via the spike path: encodes `input` with an `input_bits`
    /// spike driver, streams the slots through the array, integrates the
    /// weighted bitline currents and fires. Returns the exact products
    /// `out[c] = Σ_r input[r]·level[r][c]`.
    ///
    /// This is the packed hot path: spike trains are packed 64 word lines
    /// per `u64` per time slot and the (effective) conductances are
    /// bit-plane decomposed, so each slot×plane partial sum is a popcount
    /// and a shift — bitwise identical to [`mvm_spiked_scalar`]
    /// (differentially tested), an order of magnitude fewer operations.
    /// The bit-plane decomposition is cached across calls and rebuilt only
    /// when something can change a read (writes, scrub, repair, clock
    /// advance, read disturb, per-read noise).
    ///
    /// A driver resolution above 32 clamps to 32 slots, exactly like the
    /// scalar path's [`SpikeDriver`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`; a value exceeding `input_bits` is
    /// debug-checked (release injects the low bits, like the driver).
    ///
    /// [`mvm_spiked_scalar`]: Self::mvm_spiked_scalar
    pub fn mvm_spiked(&mut self, input: &[u32], input_bits: u8) -> Vec<u64> {
        assert_eq!(input.len(), self.rows, "input length must equal row count");
        let driver = SpikeDriver::new(input_bits);
        let bits = driver.bits();
        #[cfg(debug_assertions)]
        for &v in input {
            debug_assert!(
                bits >= 32 || (v as u64) < (1u64 << bits),
                "value {v} does not fit in {bits} bits"
            );
        }
        let spikes = PackedSpikes::encode(input, bits);

        // Reads see the *effective* levels — faults pin their cells,
        // drift/disturb skews them and analog noise perturbs every access,
        // so resolve the array once before streaming (disturb and the
        // read-epoch bump from this MVM land afterwards; within one MVM
        // every slot integrates the same resolved conductances).
        let planes = match self.plane_cache.take() {
            Some(p) => p,
            None => self.build_planes(),
        };

        let mut fires: Vec<IntegrateFire> = vec![IntegrateFire::new(); self.cols];
        packed::integrate(&spikes, &planes, &mut fires);
        let out: Vec<u64> = fires.iter_mut().map(|f| f.fire()).collect();

        // Every slot that drove a word line disturbed that row's cells.
        let low_mask = driver.injected_mask();
        let row_spikes: Vec<u64> = input
            .iter()
            .map(|&v| u64::from((v & low_mask).count_ones()))
            .collect();
        self.book_read(&row_spikes, out.iter().sum(), 1);
        // Keep the decomposition only if this read left the levels (and
        // their noise epoch) untouched.
        if !self.reads_perturb_levels() {
            self.plane_cache = Some(planes);
        }
        out
    }

    /// Books `reads` array reads (MVMs): `row_spikes[r]` is the spike
    /// count word line `r` drove over all of them (the popcounts of its
    /// injected bits) and `output_spikes` the sum of the column outputs
    /// they fired. Read disturb lands per row, the noise read epoch
    /// advances once per read, and a perturbing read invalidates. Booking
    /// several reads at once equals booking them one by one only when
    /// they do not perturb: the fused kernel books a batch at once only
    /// then. Shared by [`mvm_spiked`](Self::mvm_spiked) and the fused
    /// kernel of [`ReramMatrix`](crate::ReramMatrix), which computes the
    /// products outside the crossbar.
    pub(crate) fn book_read(&mut self, row_spikes: &[u64], output_spikes: u64, reads: u64) {
        self.read_spikes += row_spikes.iter().sum::<u64>();
        self.output_spikes += output_spikes;
        if let Some(d) = self.drift.as_mut() {
            for (r, &n) in row_spikes.iter().enumerate() {
                d.note_row_reads(r, n);
            }
        }
        if let Some(n) = self.noise.as_mut() {
            n.note_mvms(reads);
        }
        if self.reads_perturb_levels() {
            self.invalidate();
        }
    }

    /// Fills `row` with the levels word line `r` presents on the next
    /// read (the levels [`build_planes`](Self::build_planes) packs):
    /// effective levels when any non-ideality is attached, stored levels
    /// otherwise. Columns beyond `row.len()` are skipped.
    pub(crate) fn read_row(&self, r: usize, row: &mut [u8]) {
        if self.faults.is_some() || self.drift.is_some() || self.noise.is_some() {
            for (c, lvl) in row.iter_mut().enumerate().take(self.cols) {
                *lvl = self.effective_level(r, c);
            }
        } else {
            let start = r * self.cols;
            let stored = self
                .levels
                .get(start..start + self.cols)
                .unwrap_or_default();
            for (lvl, &l) in row.iter_mut().zip(stored) {
                *lvl = l;
            }
        }
    }

    /// The original scalar slot × row × column walk, retained verbatim as
    /// the differential-testing reference for [`mvm_spiked`]
    /// (identical output bits, spike accounting, disturb and noise-epoch
    /// bookkeeping — property-tested).
    ///
    /// [`mvm_spiked`]: Self::mvm_spiked
    pub fn mvm_spiked_scalar(&mut self, input: &[u32], input_bits: u8) -> Vec<u64> {
        assert_eq!(input.len(), self.rows, "input length must equal row count");
        let driver = SpikeDriver::new(input_bits);
        let trains: Vec<SpikeTrain> = driver.encode_vector(input);
        self.read_spikes += trains.iter().map(|t| t.spike_count() as u64).sum::<u64>();

        let degraded = self.faults.is_some() || self.drift.is_some() || self.noise.is_some();
        let eff: Option<Vec<u8>> = degraded.then(|| {
            (0..self.rows * self.cols)
                .map(|i| self.effective_level(i / self.cols, i % self.cols))
                .collect()
        });

        let mut fires: Vec<IntegrateFire> = vec![IntegrateFire::new(); self.cols];
        // Stream time slots (LSB first); within a slot all word lines drive
        // their bitlines simultaneously — the analog accumulation. The loop
        // is clamped to the driver's resolution: slots the clamped driver
        // never generates inject nothing.
        for slot in 0..driver.bits() as usize {
            let w = SpikeTrain::slot_weight(slot);
            for (r, train) in trains.iter().enumerate() {
                if !train.fires(slot) {
                    continue;
                }
                let base = r * self.cols;
                for (c, inf) in fires.iter_mut().enumerate() {
                    let g = u64::from(match &eff {
                        Some(levels) => levels[base + c],
                        None => self.levels[base + c],
                    });
                    if g != 0 {
                        inf.integrate(g * w);
                    }
                }
            }
        }
        let out: Vec<u64> = fires.iter_mut().map(|f| f.fire()).collect();
        self.output_spikes += out.iter().sum::<u64>();
        if let Some(d) = self.drift.as_mut() {
            for (r, train) in trains.iter().enumerate() {
                d.note_row_reads(r, train.spike_count() as u64);
            }
        }
        if let Some(n) = self.noise.as_mut() {
            n.note_mvms(1);
        }
        // Same coherence rule as the packed path: if this read's disturb /
        // noise-epoch bookkeeping can change what the next read sees, any
        // cached bit-plane decomposition is stale. (The cache is only ever
        // populated when reads are non-perturbing, but keeping the
        // invalidation local makes the invariant checkable per method —
        // PL061 — instead of resting on a global argument.)
        if self.reads_perturb_levels() {
            self.invalidate();
        }
        out
    }

    /// Scrubs `row_count` word lines starting at `row_start` (wrapping
    /// around the array): each healthy cell is read back and, if drift or
    /// disturb moved it off its programmed level, re-programmed to that
    /// level through the program-and-verify loop. Fault-pinned cells cost
    /// one verify read and are skipped — scrub cannot recover them and
    /// they were already reported at commissioning.
    ///
    /// Verify reads and re-programming pulses are counted exactly like
    /// write-path costs, so the energy/endurance accounting sees scrub
    /// wear. Cells that actually received pulses restart their
    /// degradation clock.
    pub fn scrub_rows(
        &mut self,
        row_start: usize,
        row_count: usize,
        policy: &VerifyPolicy,
        rng: &mut impl Rng,
    ) -> ProgramReport {
        let mut report = ProgramReport::default();
        for i in 0..row_count.min(self.rows) {
            let r = (row_start + i) % self.rows;
            for c in 0..self.cols {
                if self.faults.as_ref().and_then(|f| f.get(r, c)).is_some() {
                    report.verify_reads += 1;
                    continue;
                }
                let target = self.level(r, c);
                let actual = self.effective_level(r, c);
                // Materialize the degradation in the cell, then drive it
                // back through the standard verify loop. A clean cell
                // costs exactly one verify read and zero pulses.
                let mut cell = ReramCell::at_level(self.bits, actual);
                let w = cell.program_verify(target, policy, rng);
                self.levels[r * self.cols + c] = cell.level();
                report.ideal_pulses += u64::from(actual.abs_diff(target));
                report.pulses += u64::from(w.pulses);
                report.verify_reads += u64::from(w.attempts);
                if w.pulses > 0 {
                    // Scrub re-pulses wear cells out like any other write.
                    self.note_written(r, c, u64::from(w.pulses));
                }
                if !w.verified {
                    report.unrecoverable.push(UnrecoverableCell {
                        row: r,
                        col: c,
                        target,
                        actual: cell.level(),
                    });
                }
            }
        }
        self.write_spikes += report.pulses;
        self.read_spikes += report.verify_reads;
        self.invalidate();
        report
    }

    /// Input spikes consumed so far.
    pub fn read_spikes(&self) -> u64 {
        self.read_spikes
    }

    /// Programming pulses issued so far.
    pub fn write_spikes(&self) -> u64 {
        self.write_spikes
    }

    /// Output spikes fired so far.
    pub fn output_spikes(&self) -> u64 {
        self.output_spikes
    }
}

#[cfg(test)]
impl Crossbar {
    /// The per-cell programming loop the branch-free
    /// [`program_flat`](Self::program_flat) replaced, kept as its
    /// differential reference: each cell goes through
    /// [`ReramCell::program`] and books its write history right after, in
    /// row-major order.
    pub(crate) fn program_reference(&mut self, levels: &[u8]) -> u64 {
        assert_eq!(
            levels.len(),
            self.levels.len(),
            "level matrix size mismatch"
        );
        let mut pulses = 0u64;
        for (idx, &lvl) in levels.iter().enumerate() {
            let mut cell = ReramCell::at_level(self.bits, self.levels[idx]);
            let p = u64::from(cell.program(lvl));
            self.levels[idx] = cell.level();
            if p > 0 && self.tracks_writes() {
                self.note_written(idx / self.cols, idx % self.cols, p);
            }
            pulses += p;
        }
        self.write_spikes += pulses;
        self.invalidate();
        pulses
    }

    /// Everything a write can change, for bitwise comparisons: stored
    /// levels, spike counters, the fault map, and the drift, noise and wear
    /// history.
    pub(crate) fn written_state(&self) -> String {
        format!(
            "{:?}",
            (
                &self.levels,
                self.spike_counters(),
                &self.faults,
                &self.drift,
                &self.noise,
                &self.wear,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_mvm(levels: &[Vec<u8>], input: &[u32]) -> Vec<u64> {
        let cols = levels[0].len();
        (0..cols)
            .map(|c| {
                levels
                    .iter()
                    .zip(input)
                    .map(|(row, &x)| row[c] as u64 * x as u64)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn mvm_known_values() {
        let mut xbar = Crossbar::new(3, 2, 4);
        let levels = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        xbar.program(&levels);
        let out = xbar.mvm_spiked(&[7, 8, 9], 8);
        assert_eq!(out, vec![7 + 24 + 45, 14 + 32 + 54]);
    }

    #[test]
    fn spike_accounting() {
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&[vec![15, 15], vec![15, 15]]);
        assert_eq!(xbar.write_spikes(), 60);
        xbar.mvm_spiked(&[0b101, 0b1], 4);
        assert_eq!(xbar.read_spikes(), 3); // popcounts 2 + 1
        assert!(xbar.output_spikes() > 0);
    }

    #[test]
    fn zero_input_zero_output() {
        let mut xbar = Crossbar::new(4, 4, 4);
        xbar.program(&[vec![15; 4], vec![15; 4], vec![15; 4], vec![15; 4]]);
        assert_eq!(xbar.mvm_spiked(&[0; 4], 16), vec![0; 4]);
        assert_eq!(xbar.read_spikes(), 0);
    }

    #[test]
    fn drift_corrupts_mvm_and_scrub_restores() {
        use crate::drift::DriftModel;
        use rand::{rngs::StdRng, SeedableRng};
        let model = DriftModel {
            nu: 0.15,
            nu_sigma: 0.0,
            t0_cycles: 10,
            disturb_per_level: 0,
        };
        let levels = vec![vec![9, 12], vec![15, 6]];
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&levels);
        xbar.attach_drift(model, 5);

        let fresh = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(fresh, reference_mvm(&levels, &[1, 1]));

        xbar.advance_cycles(1_000_000);
        assert!(xbar.drifted_cells() > 0, "a megacycle must drift something");
        let aged = xbar.mvm_spiked(&[1, 1], 4);
        assert_ne!(aged, fresh, "drifted weights change the product");

        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.scrub_rows(0, 2, &VerifyPolicy::default(), &mut rng);
        assert!(report.pulses > 0, "scrub must re-pulse drifted cells");
        assert_eq!(xbar.drifted_cells(), 0);
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), fresh, "scrub restores reads");
    }

    #[test]
    fn zero_pulse_rewrite_does_not_reset_aging() {
        use crate::drift::DriftModel;
        let model = DriftModel {
            nu: 0.15,
            nu_sigma: 0.0,
            t0_cycles: 10,
            disturb_per_level: 0,
        };
        let levels = vec![vec![15, 15], vec![15, 15]];
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&levels);
        xbar.attach_drift(model, 5);
        xbar.advance_cycles(1_000_000);
        let before = xbar.drifted_cells();
        assert!(before > 0);
        // Writing the same values issues no pulses, so cells keep aging.
        assert_eq!(xbar.program(&levels), 0);
        assert_eq!(xbar.drifted_cells(), before);
    }

    #[test]
    fn read_disturb_accumulates_over_mvms() {
        use crate::drift::DriftModel;
        let model = DriftModel {
            nu: 0.0,
            nu_sigma: 0.0,
            t0_cycles: 1,
            disturb_per_level: 50,
        };
        let levels = vec![vec![3, 3], vec![3, 3]];
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&levels);
        xbar.attach_drift(model, 5);
        // Each MVM with input 15 (4 slots firing) adds 4 slot-reads per row.
        for _ in 0..13 {
            xbar.mvm_spiked(&[15, 15], 4);
        }
        // 52 slot-reads ≥ 50 ⇒ every cell now reads one level high.
        assert_eq!(xbar.drifted_cells(), 4);
        assert_eq!(xbar.effective_level(0, 0), 4);
        let out = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(out, vec![8, 8], "disturbed cells read 4 instead of 3");
    }

    #[test]
    fn scrub_on_clean_array_costs_one_read_per_cell() {
        use crate::drift::DriftModel;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(3, 3, 4);
        xbar.program(&[vec![5; 3], vec![5; 3], vec![5; 3]]);
        xbar.attach_drift(DriftModel::ideal(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.scrub_rows(0, 3, &VerifyPolicy::default(), &mut rng);
        assert_eq!(report.pulses, 0);
        assert_eq!(report.verify_reads, 9);
        assert!(report.unrecoverable.is_empty());
    }

    #[test]
    fn scrub_skips_fault_pinned_cells() {
        use crate::drift::DriftModel;
        use crate::fault::FaultKind;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&[vec![7, 7], vec![7, 7]]);
        let mut map = FaultMap::pristine(2, 2);
        map.set(0, 0, FaultKind::StuckAtZero);
        xbar.attach_faults(map);
        xbar.attach_drift(DriftModel::ideal(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.scrub_rows(0, 2, &VerifyPolicy::default(), &mut rng);
        // Pinned cell: one probe read, no pulses, not re-reported.
        assert_eq!(report.pulses, 0);
        assert_eq!(report.verify_reads, 4);
        assert!(report.unrecoverable.is_empty());
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn program_rejects_bad_shape() {
        Crossbar::new(2, 2, 4).program(&[vec![0, 0]]);
    }

    #[test]
    fn stuck_cells_distort_reads_until_cleared() {
        use crate::fault::FaultKind;
        let mut xbar = Crossbar::new(2, 2, 4);
        let levels = vec![vec![3, 5], vec![7, 9]];
        xbar.program(&levels);
        let mut map = FaultMap::pristine(2, 2);
        map.set(0, 1, FaultKind::StuckAtZero);
        map.set(1, 1, FaultKind::StuckAtMax);
        xbar.attach_faults(map);

        assert_eq!(xbar.effective_level(0, 0), 3);
        assert_eq!(xbar.effective_level(0, 1), 0);
        assert_eq!(xbar.effective_level(1, 1), 15);
        // Column 0 is healthy; column 1 reads through the pinned levels.
        let out = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(out, vec![3 + 7, 15]);

        xbar.clear_fault_col(1);
        let out = xbar.mvm_spiked(&[1, 1], 4);
        assert_eq!(out, vec![3 + 7, 5 + 9], "repair restores stored levels");
    }

    #[test]
    fn program_verify_reports_pinned_cells() {
        use crate::fault::FaultKind;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(2, 2, 4);
        let mut map = FaultMap::pristine(2, 2);
        map.set(1, 0, FaultKind::StuckAtZero);
        xbar.attach_faults(map);

        let policy = VerifyPolicy::with_attempts(3);
        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.program_verify(&[vec![4, 4], vec![4, 4]], &policy, &mut rng);

        assert_eq!(report.unrecoverable.len(), 1);
        let bad = report.unrecoverable[0];
        assert_eq!((bad.row, bad.col, bad.target, bad.actual), (1, 0, 4, 0));
        // Healthy cells: 1 attempt × 4 pulses each; the stuck cell burns the
        // whole 3-attempt budget.
        assert_eq!(report.ideal_pulses, 16);
        assert_eq!(report.pulses, 12 + 3);
        assert_eq!(report.verify_reads, 3 + 3);
        assert_eq!(xbar.write_spikes(), report.pulses);
        assert_eq!(xbar.read_spikes(), report.verify_reads);
    }

    #[test]
    fn program_verify_noiseless_matches_plain_program() {
        use rand::{rngs::StdRng, SeedableRng};
        let levels = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let mut plain = Crossbar::new(2, 3, 4);
        let plain_pulses = plain.program(&levels);

        let mut verified = Crossbar::new(2, 3, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let report = verified.program_verify(&levels, &VerifyPolicy::default(), &mut rng);
        assert!(report.unrecoverable.is_empty());
        assert_eq!(report.pulses, plain_pulses);
        assert_eq!(report.overhead(), 1.0);
        assert_eq!(
            verified.mvm_spiked(&[1, 1], 4),
            plain.mvm_spiked(&[1, 1], 4)
        );
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn attach_faults_rejects_wrong_shape() {
        Crossbar::new(2, 2, 4).attach_faults(FaultMap::pristine(3, 2));
    }

    #[test]
    fn noise_corrupts_mvm_deterministically() {
        use crate::noise::NoiseModel;
        let levels = vec![vec![9, 12], vec![15, 6]];
        let strong = NoiseModel {
            lrs_sigma: 0.5,
            hrs_sigma: 0.8,
            ir_drop: 0.3,
            read_sigma: 0.1,
            g_ratio: 0.05,
        };
        let mut a = Crossbar::new(2, 2, 4);
        a.program(&levels);
        a.attach_noise(strong, 7);
        let mut b = a.clone();
        let ya = a.mvm_spiked(&[3, 5], 4);
        let yb = b.mvm_spiked(&[3, 5], 4);
        assert_eq!(ya, yb, "same seed and read epoch must match bitwise");
        assert_ne!(
            ya,
            reference_mvm(&levels, &[3, 5]),
            "strong noise must perturb the product"
        );
        // A second MVM draws the next read epoch — the replayed pair still
        // agrees with itself.
        assert_eq!(a.mvm_spiked(&[3, 5], 4), b.mvm_spiked(&[3, 5], 4));
    }

    #[test]
    fn ideal_noise_attach_leaves_mvm_bits_identical() {
        use crate::noise::NoiseModel;
        let levels = vec![vec![1, 14], vec![7, 3], vec![0, 9]];
        let mut plain = Crossbar::new(3, 2, 4);
        plain.program(&levels);
        let mut noisy = plain.clone();
        noisy.attach_noise(NoiseModel::ideal(), 99);
        for input in [[5u32, 0, 11], [1, 1, 1], [65535, 0, 32768]] {
            assert_eq!(
                plain.mvm_spiked(&input, 16),
                noisy.mvm_spiked(&input, 16),
                "ideal noise must be an exact no-op"
            );
        }
        assert_eq!(plain.read_spikes(), noisy.read_spikes());
        assert_eq!(plain.output_spikes(), noisy.output_spikes());
    }

    /// Regression for the release-profile crash: `input_bits > 32` used to
    /// walk slots past the clamped driver's train length and index out of
    /// bounds inside `SpikeTrain::fires`. Both paths must now clamp to the
    /// driver resolution instead of panicking (this test runs in every
    /// profile; release is the one that used to crash because the
    /// debug-assert in `SpikeDriver::new` is compiled out there).
    #[test]
    fn input_bits_over_32_clamps_instead_of_panicking() {
        let levels = vec![vec![3u8, 5], vec![7, 9], vec![11, 13]];
        let input = [1u32, 70_000, u32::MAX];
        let mut packed = Crossbar::new(3, 2, 4);
        packed.program(&levels);
        let mut scalar = packed.clone();
        let out = packed.mvm_spiked(&input, 40);
        // A 40-bit request clamps to the 32-slot ladder, which injects the
        // full u32 value — the exact integer product.
        assert_eq!(out, reference_mvm(&levels, &input));
        assert_eq!(out, scalar.mvm_spiked_scalar(&input, 40));
        assert_eq!(packed.read_spikes(), scalar.read_spikes());
    }

    #[test]
    fn plane_cache_tracks_repair_and_scrub() {
        use crate::drift::DriftModel;
        use crate::fault::FaultKind;
        use rand::{rngs::StdRng, SeedableRng};
        let levels = vec![vec![3u8, 5], vec![7, 9]];
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.program(&levels);
        let mut map = FaultMap::pristine(2, 2);
        map.set(0, 1, FaultKind::StuckAtZero);
        xbar.attach_faults(map);
        xbar.attach_drift(
            DriftModel {
                nu: 0.15,
                nu_sigma: 0.0,
                t0_cycles: 10,
                disturb_per_level: 0,
            },
            5,
        );
        // Warm the cache, then change the array through every mutation
        // path and check reads follow.
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), vec![3 + 7, 9]);
        xbar.clear_fault_col(1);
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), vec![3 + 7, 5 + 9]);
        xbar.advance_cycles(1_000_000);
        let aged = xbar.mvm_spiked(&[1, 1], 4);
        assert_ne!(aged, vec![3 + 7, 5 + 9], "a megacycle must drift reads");
        let mut rng = StdRng::seed_from_u64(0);
        xbar.scrub_rows(0, 2, &VerifyPolicy::default(), &mut rng);
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), vec![3 + 7, 5 + 9]);
        xbar.program(&[vec![1, 1], vec![1, 1]]);
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), vec![2, 2]);
    }

    /// Enumerates every `&mut self` mutation path and asserts the packed
    /// (cached) MVM stays bitwise identical to a scalar recompute on a
    /// clone afterwards — i.e. no mutation can leave a stale `plane_cache`
    /// behind. This is the dynamic counterpart of the PL061 static
    /// cache-coherence pass: a forgotten invalidation in any listed method
    /// makes the packed probe read stale planes and diverge.
    #[test]
    fn mutating_methods_leave_no_stale_plane_cache() {
        use crate::drift::DriftModel;
        use crate::fault::FaultKind;
        use crate::noise::NoiseModel;
        use rand::{rngs::StdRng, SeedableRng};

        fn drifty() -> DriftModel {
            DriftModel {
                nu: 0.15,
                nu_sigma: 0.0,
                t0_cycles: 10,
                disturb_per_level: 0,
            }
        }
        fn disturby() -> DriftModel {
            DriftModel {
                nu: 0.0,
                nu_sigma: 0.0,
                t0_cycles: 1,
                disturb_per_level: 3,
            }
        }
        fn stuck_corner() -> FaultMap {
            let mut map = FaultMap::pristine(4, 4);
            map.set(0, 0, FaultKind::StuckAtZero);
            map
        }

        type Step = Box<dyn Fn(&mut Crossbar)>;
        let cases: Vec<(&str, Step, Step)> = vec![
            (
                "program",
                Box::new(|_| {}),
                Box::new(|x| {
                    x.program(&[
                        vec![2, 7, 1, 8],
                        vec![2, 8, 1, 8],
                        vec![2, 8, 4, 5],
                        vec![9, 0, 4, 5],
                    ]);
                }),
            ),
            (
                "program_verify",
                Box::new(|_| {}),
                Box::new(|x| {
                    let mut rng = StdRng::seed_from_u64(1);
                    x.program_verify(
                        &[
                            vec![3, 1, 4, 1],
                            vec![5, 9, 2, 6],
                            vec![5, 3, 5, 8],
                            vec![9, 7, 9, 3],
                        ],
                        &VerifyPolicy::default(),
                        &mut rng,
                    );
                }),
            ),
            (
                "attach_faults",
                Box::new(|_| {}),
                Box::new(|x| x.attach_faults(stuck_corner())),
            ),
            (
                "attach_drift",
                Box::new(|_| {}),
                Box::new(|x| x.attach_drift(drifty(), 5)),
            ),
            (
                "attach_noise",
                Box::new(|_| {}),
                Box::new(|x| x.attach_noise(NoiseModel::with_strength(1.0), 9)),
            ),
            (
                "advance_cycles",
                Box::new(|x| x.attach_drift(drifty(), 5)),
                Box::new(|x| x.advance_cycles(1_000_000)),
            ),
            (
                "clear_fault_col",
                Box::new(|x| x.attach_faults(stuck_corner())),
                Box::new(|x| x.clear_fault_col(0)),
            ),
            (
                "scrub_rows",
                Box::new(|x| {
                    x.attach_drift(drifty(), 5);
                    x.advance_cycles(1_000_000);
                }),
                Box::new(|x| {
                    let mut rng = StdRng::seed_from_u64(2);
                    x.scrub_rows(0, 4, &VerifyPolicy::default(), &mut rng);
                }),
            ),
            (
                "attach_wear",
                Box::new(|_| {}),
                Box::new(|x| x.attach_wear(WearModel::with_endurance(8.0), 3)),
            ),
            (
                "program under wear death",
                Box::new(|x| x.attach_wear(WearModel::with_endurance(4.0), 3)),
                Box::new(|x| {
                    // Large tuning swings push several cells over their
                    // ~4-pulse budgets, raising dead faults mid-write.
                    x.program(&[vec![15; 4], vec![0; 4], vec![15; 4], vec![0; 4]]);
                }),
            ),
            (
                "reprogram_col_from_spare",
                Box::new(|x| {
                    x.attach_wear(WearModel::with_endurance(4.0), 3);
                    x.program(&[vec![15; 4], vec![0; 4], vec![15; 4], vec![0; 4]]);
                }),
                Box::new(|x| {
                    let mut rng = StdRng::seed_from_u64(4);
                    x.reprogram_col_from_spare(1, &VerifyPolicy::default(), &mut rng);
                }),
            ),
            (
                "restore_levels",
                Box::new(|_| {}),
                Box::new(|x| {
                    x.restore_levels(&[7u8; 16]);
                }),
            ),
            (
                "restore_faults",
                Box::new(|_| {}),
                Box::new(|x| {
                    x.restore_faults(stuck_corner());
                }),
            ),
            (
                "restore_wear_counters",
                Box::new(|x| {
                    x.attach_wear(WearModel::with_endurance(4.0), 3);
                    x.program(&[vec![15; 4], vec![0; 4], vec![15; 4], vec![0; 4]]);
                }),
                Box::new(|x| {
                    x.restore_wear_counters(&[0; 16], &[0; 16]);
                    // The counters no longer match the fault map, so
                    // rebuild a coherent (empty) map too — this case only
                    // probes cache invalidation, not consistency.
                    x.restore_faults(FaultMap::pristine(4, 4));
                }),
            ),
            (
                "mvm_spiked under read disturb",
                Box::new(|x| x.attach_drift(disturby(), 5)),
                Box::new(|x| {
                    x.mvm_spiked(&[15, 15, 15, 15], 4);
                }),
            ),
            (
                "mvm_spiked_scalar under read disturb",
                Box::new(|x| x.attach_drift(disturby(), 5)),
                Box::new(|x| {
                    x.mvm_spiked_scalar(&[15, 15, 15, 15], 4);
                }),
            ),
        ];

        for (name, setup, mutate) in cases {
            let mut xbar = Crossbar::new(4, 4, 4);
            xbar.program(&[
                vec![9, 1, 14, 3],
                vec![0, 5, 7, 11],
                vec![13, 2, 4, 6],
                vec![8, 15, 10, 12],
            ]);
            setup(&mut xbar);
            // Warm the plane cache (kept only when reads are non-perturbing).
            xbar.mvm_spiked(&[1, 2, 3, 4], 4);
            mutate(&mut xbar);
            // The scalar reference never touches the cache, so a stale cache
            // in the packed path shows up as a bitwise divergence.
            let mut reference = xbar.clone();
            let probe = [3, 1, 4, 1];
            let packed = xbar.mvm_spiked(&probe, 4);
            let scalar = reference.mvm_spiked_scalar(&probe, 4);
            assert_eq!(packed, scalar, "{name}: packed MVM served stale planes");
        }
    }

    #[test]
    fn wear_exhaustion_raises_live_dead_faults() {
        use crate::wear::WearModel;
        let mut xbar = Crossbar::new(2, 2, 4);
        // Deterministic budgets: every cell survives exactly 20 pulses.
        xbar.attach_wear(
            WearModel {
                median_writes: 20.0,
                sigma: 0.0,
            },
            1,
        );
        // 15 pulses per cell: everyone still alive.
        xbar.program(&[vec![15, 15], vec![15, 15]]);
        assert!(xbar.fault_map().is_none(), "no deaths before the budget");
        // +15 pulses (down to 0) crosses every 20-pulse budget: the whole
        // array dies, pinned at level 0 on every read.
        xbar.program(&[vec![0, 0], vec![0, 0]]);
        let map = xbar.fault_map().unwrap();
        assert_eq!(map.fault_count(), 4);
        assert_eq!(map.get(0, 0), Some(crate::fault::FaultKind::Dead));
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), vec![0, 0]);
    }

    #[test]
    fn wear_counts_verify_retry_pulses() {
        use crate::wear::WearModel;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(1, 1, 4);
        xbar.attach_wear(
            WearModel {
                median_writes: 1000.0,
                sigma: 0.0,
            },
            1,
        );
        let noisy = VerifyPolicy {
            max_attempts: 8,
            write_sigma: 2.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let report = xbar.program_verify(&[vec![9]], &noisy, &mut rng);
        let spent = 1000 - xbar.wear_state().unwrap().remaining_writes(0, 0);
        assert_eq!(spent, report.pulses, "wear must bill retry pulses too");
    }

    #[test]
    fn spare_remap_restores_reads_at_honest_cost() {
        use crate::wear::WearModel;
        use rand::{rngs::StdRng, SeedableRng};
        let mut xbar = Crossbar::new(2, 2, 4);
        xbar.attach_wear(
            WearModel {
                median_writes: 20.0,
                sigma: 0.0,
            },
            1,
        );
        xbar.program(&[vec![9, 5], vec![7, 3]]);
        // Burn out column 0 only.
        xbar.program(&[vec![0, 5], vec![15, 3]]);
        xbar.program(&[vec![9, 5], vec![7, 3]]);
        let map = xbar.fault_map().unwrap();
        assert!(map.get(0, 0).is_some() && map.get(1, 0).is_some());
        assert_eq!(map.faulty_cols(), vec![0]);

        let before_writes = xbar.write_spikes();
        let mut rng = StdRng::seed_from_u64(0);
        let report = xbar.reprogram_col_from_spare(0, &VerifyPolicy::default(), &mut rng);
        // The spare starts pristine: reprogramming to intent (9, 7) costs
        // exactly those tuning pulses, billed to the write counter.
        assert_eq!(report.pulses, 9 + 7);
        assert_eq!(report.ideal_pulses, 9 + 7);
        assert_eq!(report.verify_reads, 2);
        assert!(report.unrecoverable.is_empty());
        assert_eq!(xbar.write_spikes(), before_writes + 16);
        assert!(xbar.fault_map().unwrap().get(0, 0).is_none());
        // Fresh spare cells carry a fresh budget and full read fidelity.
        assert_eq!(xbar.wear_state().unwrap().remaining_writes(0, 0), 20 - 9);
        assert_eq!(xbar.mvm_spiked(&[1, 1], 4), vec![9 + 7, 5 + 3]);
    }

    #[test]
    fn ideal_wear_attach_is_exact_noop() {
        use crate::wear::WearModel;
        let levels = vec![vec![1u8, 14], vec![7, 3]];
        let mut plain = Crossbar::new(2, 2, 4);
        plain.program(&levels);
        let mut worn = plain.clone();
        worn.attach_wear(WearModel::ideal(), 99);
        assert!(worn.wear_state().is_none());
        worn.program(&[vec![4, 4], vec![4, 4]]);
        plain.program(&[vec![4, 4], vec![4, 4]]);
        assert_eq!(plain.mvm_spiked(&[2, 3], 4), worn.mvm_spiked(&[2, 3], 4));
        assert_eq!(plain.write_spikes(), worn.write_spikes());
        assert!(worn.fault_map().is_none());
    }

    #[test]
    fn wear_state_roundtrips_through_restore() {
        use crate::wear::WearModel;
        let model = WearModel::with_endurance(50.0);
        let mut xbar = Crossbar::new(3, 3, 4);
        xbar.attach_wear(model, 7);
        xbar.program(&[vec![9; 3], vec![5; 3], vec![12; 3]]);
        let (p, g) = xbar.wear_state().unwrap().counters();
        let (p, g) = (p.to_vec(), g.to_vec());
        let levels = xbar.stored_levels();
        let (rs, ws, os) = xbar.spike_counters();

        let mut fresh = Crossbar::new(3, 3, 4);
        fresh.attach_wear(model, 7);
        assert!(fresh.restore_levels(&levels));
        assert!(fresh.restore_wear_counters(&p, &g));
        fresh.restore_spike_counters(rs, ws, os);
        assert_eq!(fresh.wear_state(), xbar.wear_state());
        assert_eq!(fresh.stored_levels(), xbar.stored_levels());
        assert_eq!(fresh.spike_counters(), xbar.spike_counters());
        assert_eq!(
            fresh.mvm_spiked(&[1, 1, 1], 4),
            xbar.mvm_spiked(&[1, 1, 1], 4)
        );
    }

    /// A `rows × cols` crossbar of `bits`-bit cells carrying the device
    /// stack `models` selects: bit 0 drift (with read disturb), bit 1
    /// noise, bit 2 wear with budgets short enough that cells die in the
    /// middle of a write.
    fn stacked(rows: usize, cols: usize, bits: u8, models: u8, seed: u64) -> Crossbar {
        use crate::drift::DriftModel;
        use crate::noise::NoiseModel;
        let mut x = Crossbar::new(rows, cols, bits);
        if models & 1 == 1 {
            let drift = DriftModel {
                nu: 0.1,
                nu_sigma: 0.05,
                t0_cycles: 8,
                disturb_per_level: 40,
            };
            x.attach_drift(drift, seed);
        }
        if models & 2 == 2 {
            x.attach_noise(NoiseModel::with_strength(1.0), seed);
        }
        if models & 4 == 4 {
            let wear = WearModel {
                median_writes: 12.0,
                sigma: 0.5,
            };
            x.attach_wear(wear, seed);
        }
        x
    }

    /// Runs `writes` through the branch-free body and the per-cell
    /// reference on two clones of `x` (ticking the clock between writes)
    /// and asserts equal pulse counts and bitwise-equal write state.
    fn assert_program_matches_reference(x: &Crossbar, writes: &[Vec<u8>]) -> Crossbar {
        let (mut got, mut want) = (x.clone(), x.clone());
        for (k, levels) in writes.iter().enumerate() {
            assert_eq!(
                got.program_flat(levels),
                want.program_reference(levels),
                "write {k}: pulse counts diverge"
            );
            assert_eq!(
                got.written_state(),
                want.written_state(),
                "write {k}: state diverges from the per-cell reference"
            );
            got.advance_cycles(500);
            want.advance_cycles(500);
        }
        got
    }

    /// Largest target level the differential tests request: over-range
    /// targets in release, where programming saturates them; in range
    /// under debug assertions, where they are rejected.
    fn max_target(bits: u8) -> u8 {
        if cfg!(debug_assertions) {
            u8::MAX >> (8 - bits)
        } else {
            u8::MAX
        }
    }

    #[test]
    fn branch_free_program_matches_reference_through_wear_deaths() {
        use rand::{rngs::StdRng, RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let (rows, cols, bits) = (9, 7, 4);
        let writes: Vec<Vec<u8>> = (0..6)
            .map(|_| {
                (0..rows * cols)
                    .map(|_| rng.random_range(0..=max_target(bits)))
                    .collect()
            })
            .collect();
        let got = assert_program_matches_reference(&stacked(rows, cols, bits, 7, 32), &writes);
        assert!(
            got.wear_state().is_some_and(|w| w.exhausted_cells() > 0),
            "the rewrites must kill cells mid-sequence"
        );
    }

    /// Release-profile contract: an over-range target saturates once, at
    /// the crossbar, for plain, verified and restored writes alike, so a
    /// verify report books the level the cell is actually driven to.
    #[test]
    #[cfg(not(debug_assertions))]
    fn overrange_targets_saturate_at_the_crossbar_in_release() {
        use crate::fault::FaultKind;
        use rand::{rngs::StdRng, SeedableRng};
        let mut x = Crossbar::new(1, 2, 4);
        let mut map = FaultMap::pristine(1, 2);
        map.set(0, 1, FaultKind::StuckAtMax);
        x.attach_faults(map);
        let mut rng = StdRng::seed_from_u64(0);
        let report = x.program_verify(&[vec![20, 20]], &VerifyPolicy::default(), &mut rng);
        // The healthy cell takes 15 pulses to its top level, not 20; the
        // stuck-at-max cell already presents the clamped target.
        assert_eq!(report.ideal_pulses, 15 + 15);
        assert_eq!(report.pulses, 15);
        assert_eq!(report.verify_reads, 2);
        assert!(report.unrecoverable.is_empty(), "{report:?}");
        assert_eq!(x.stored_levels(), vec![15, 15]);

        let mut y = Crossbar::new(1, 2, 4);
        assert_eq!(y.program(&[vec![20, 3]]), 15 + 3);
        assert_eq!(y.stored_levels(), vec![15, 3]);
        assert!(y.restore_levels(&[200, 16]));
        assert_eq!(y.stored_levels(), vec![15, 15]);
    }

    /// Debug twin of the release clamp: over-range targets are rejected.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds")]
    fn overrange_verified_target_is_debug_checked() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        Crossbar::new(1, 1, 4).program_verify(&[vec![20]], &VerifyPolicy::default(), &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential pin: the branch-free programming body equals the
        /// per-cell reference — levels, pulses, write spikes, drift and
        /// noise history, wear counters and deaths — at every cell
        /// resolution and device stack, over successive writes.
        #[test]
        fn branch_free_program_matches_per_cell_reference(
            rows in 1usize..40,
            cols in 1usize..9,
            bits in 1u8..=8,
            models in 0u8..8,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let writes: Vec<Vec<u8>> = (0..4)
                .map(|_| (0..rows * cols).map(|_| rng.random_range(0..=max_target(bits))).collect())
                .collect();
            assert_program_matches_reference(&stacked(rows, cols, bits, models, seed), &writes);
        }

        /// Differential pin: the packed hot path is bitwise identical to
        /// the scalar reference — outputs *and* spike/disturb/noise
        /// bookkeeping — across random crossbars, every legal driver
        /// resolution, and attached fault / drift(+disturb) / noise state,
        /// over several consecutive MVMs (which exercises plane-cache
        /// reuse and invalidation).
        #[test]
        fn packed_mvm_matches_scalar_under_nonidealities(
            rows in 1usize..70,
            cols in 1usize..5,
            input_bits in 1u8..=32,
            fault_rate in 0.0f64..0.2,
            drift_sel in 0u8..2,
            noise_strength in 0.0f64..2.0,
            seed in 0u64..1000,
        ) {
            use crate::drift::DriftModel;
            use crate::fault::FaultModel;
            use crate::noise::NoiseModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
            let max = if input_bits >= 32 { u32::MAX } else { (1u32 << input_bits) - 1 };
            let inputs: Vec<Vec<u32>> = (0..3)
                .map(|_| (0..rows).map(|_| rng.random_range(0u32..=max)).collect())
                .collect();

            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&levels);
            if fault_rate > 0.0 {
                let fm = FaultModel::with_stuck_rate(fault_rate);
                xbar.attach_faults(FaultMap::generate(rows, cols, &fm, seed));
            }
            if drift_sel == 1 {
                xbar.attach_drift(
                    DriftModel { nu: 0.1, nu_sigma: 0.05, t0_cycles: 8, disturb_per_level: 40 },
                    seed,
                );
                xbar.advance_cycles(5_000);
            }
            if noise_strength > 0.0 {
                xbar.attach_noise(NoiseModel::with_strength(noise_strength), seed);
            }
            let mut reference = xbar.clone();

            for input in &inputs {
                prop_assert_eq!(
                    xbar.mvm_spiked(input, input_bits),
                    reference.mvm_spiked_scalar(input, input_bits)
                );
            }
            prop_assert_eq!(xbar.read_spikes(), reference.read_spikes());
            prop_assert_eq!(xbar.output_spikes(), reference.output_spikes());
            // Disturb counters advanced identically ⇒ the arrays stay
            // bitwise interchangeable for every future read.
            xbar.advance_cycles(1_000);
            reference.advance_cycles(1_000);
            prop_assert_eq!(
                xbar.mvm_spiked(&inputs[0], input_bits),
                reference.mvm_spiked_scalar(&inputs[0], input_bits)
            );
        }

        /// Attaching `NoiseModel::ideal()` leaves `mvm_spiked` output bits
        /// identical to the no-model path on random crossbars — the exact
        /// no-op contract of the noise layer.
        #[test]
        fn ideal_noise_is_noop_on_random_crossbars(
            rows in 1usize..8,
            cols in 1usize..8,
            seed in 0u64..1000,
        ) {
            use crate::noise::NoiseModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..65536)).collect();
            let mut plain = Crossbar::new(rows, cols, 4);
            plain.program(&levels);
            let mut noisy = plain.clone();
            noisy.attach_noise(NoiseModel::ideal(), seed);
            prop_assert_eq!(noisy.mvm_spiked(&input, 16), plain.mvm_spiked(&input, 16));
        }

        /// Same seed ⇒ bitwise-identical noisy reads across repeated
        /// replays, at any noise strength.
        #[test]
        fn noisy_reads_replay_bitwise(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..500,
            strength in 0.1f64..3.0,
        ) {
            use crate::noise::NoiseModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..256)).collect();
            let build = || {
                let mut x = Crossbar::new(rows, cols, 4);
                x.program(&levels);
                x.attach_noise(NoiseModel::with_strength(strength), seed);
                x
            };
            let (mut a, mut b) = (build(), build());
            for _ in 0..3 {
                prop_assert_eq!(a.mvm_spiked(&input, 8), b.mvm_spiked(&input, 8));
            }
        }

        /// The analog spike path computes exactly the integer MVM.
        #[test]
        fn spiked_mvm_is_exact(
            rows in 1usize..8,
            cols in 1usize..8,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
            let input: Vec<u32> = (0..rows).map(|_| rng.random_range(0u32..65536)).collect();
            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&levels);
            prop_assert_eq!(xbar.mvm_spiked(&input, 16), reference_mvm(&levels, &input));
        }

        /// After drift reaches (at least) the first misread, one full scrub
        /// pass restores every cell to its programmed level.
        #[test]
        fn scrub_restores_after_first_misread(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..500,
        ) {
            use crate::drift::DriftModel;
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(1u8..16)).collect())
                .collect();
            let model = DriftModel {
                nu: 0.1,
                nu_sigma: 0.05,
                t0_cycles: 8,
                disturb_per_level: 0,
            };
            let mut xbar = Crossbar::new(rows, cols, 4);
            xbar.program(&levels);
            xbar.attach_drift(model, seed);
            let mut steps = 0;
            while xbar.drifted_cells() == 0 && steps < 20 {
                xbar.advance_cycles(1000);
                steps += 1;
            }
            prop_assert!(xbar.drifted_cells() > 0, "never drifted to a misread");
            let mut prng = StdRng::seed_from_u64(0);
            let report = xbar.scrub_rows(0, rows, &VerifyPolicy::default(), &mut prng);
            prop_assert!(report.unrecoverable.is_empty());
            for (r, row) in levels.iter().enumerate() {
                for (c, &lvl) in row.iter().enumerate() {
                    prop_assert_eq!(xbar.effective_level(r, c), lvl);
                }
            }
        }

        /// MVM is linear in the input: f(a) + f(b) == f(a+b).
        #[test]
        fn mvm_linearity(seed in 0u64..1000) {
            use rand::{rngs::StdRng, RngExt as _, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let levels: Vec<Vec<u8>> = (0..4)
                .map(|_| (0..3).map(|_| rng.random_range(0u8..16)).collect())
                .collect();
            let a: Vec<u32> = (0..4).map(|_| rng.random_range(0u32..1 << 14)).collect();
            let b: Vec<u32> = (0..4).map(|_| rng.random_range(0u32..1 << 14)).collect();
            let sum: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
            let mut xbar = Crossbar::new(4, 3, 4);
            xbar.program(&levels);
            let fa = xbar.mvm_spiked(&a, 16);
            let fb = xbar.mvm_spiked(&b, 16);
            let fs = xbar.mvm_spiked(&sum, 16);
            let added: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
            prop_assert_eq!(fs, added);
        }
    }
}
