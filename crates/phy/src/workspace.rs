//! Incremental power-control workspace for candidate-at-a-time S1 probing.
//!
//! The greedy S1 scheduler (paper §IV-C1) admits candidates one at a time
//! while keeping constraint (24) feasible. [`PowerControlWorkspace`] holds
//! the admitted set's interference system and exploits that access
//! pattern:
//!
//! * [`PowerControlWorkspace::solve`] computes the minimal power vector
//!   **directly**: the fixed-point equation `p = A·p + b` (with
//!   `A_kl = Γ·g_kl/g_k`, `b_k = Γ·η_k/g_k`) is a small linear system
//!   `(I − A)·p = b` whose matrix is a Z-matrix. It is a non-singular
//!   M-matrix — equivalently `ρ(A) < 1`, equivalently a finite minimal
//!   power vector exists — exactly when Gaussian elimination without
//!   pivoting keeps every pivot positive (Fiedler–Pták). The elimination
//!   gives the exact vector however close `ρ(A)` is to 1. A zero-noise
//!   entry (a zero-bandwidth band, or zero noise density) gets the
//!   identity row and `b_k = 0`: noise is `η·W_m` per band, so such
//!   entries interfere only with each other, and their least powers are 0;
//! * the system is held **per band**: entries on different bands never
//!   interfere, so `I − A` is one independent block per band. Each band
//!   keeps an ascending list of its entries, and every loop of a probe —
//!   [`PowerControlWorkspace::push_candidate`]'s gain lookups and row
//!   sums, the elimination, back substitution, the caps check and
//!   [`PowerControlWorkspace::pop_candidate`]'s restore — walks only the
//!   probed entry's band. Other bands keep their factors and powers. The
//!   cross-band entries of `I − A` are exact zeros, which a whole-system
//!   elimination skips as zero multipliers and adds as `±0` in back
//!   substitution, so for finite powers each block's factors and powers
//!   are bit-identical to the whole system's (a non-finite held power
//!   would spread `NaN` through the whole system's zero entries, and only
//!   then do the two differ);
//! * the elimination is **bordered**: a band's no-pivot LU factors and
//!   forward-eliminated right-hand side survive across probes, and a new
//!   entry extends them by one column of `U`, one row of multipliers, one
//!   pivot and one right-hand-side entry, in `O(k_b²)` for the band's
//!   `k_b` entries. Appending a row and a column never changes the leading
//!   block, and every new element gets the operations a from-scratch
//!   elimination gives it, in the same order (the skip on a zero
//!   multiplier included), so the factors are bit-identical to a full
//!   re-elimination. The held entries' pivots are already positive, so
//!   only the new pivot can reject; back substitution of the band then
//!   yields its powers for the caps check, also in `O(k_b²)`. Several
//!   pushes before one solve factor their entries in push order, each
//!   against the band-mates pushed before it;
//! * a **row-sum spectral-radius bound** rejects provably infeasible sets
//!   before eliminating: for the non-negative iteration matrix
//!   `A_kl = Γ·g_kl/g_k`, `min_k Σ_l A_kl ≤ ρ(A)`, and `ρ(A) ≥ 1` with
//!   positive noise admits no finite power vector. The bound only ever
//!   rejects sets the elimination would also reject, never a feasible one.
//!   It takes the minimum over every entry, an `O(k)` scan;
//! * [`PowerControlWorkspace::pop_candidate`] undoes the last push — its
//!   cross-gain row and column, its factor row and column, and its band's
//!   powers and row sums, restored from the values the push saved — so a
//!   rejected probe costs `O(k_b)` beyond its elimination. Every row sum
//!   is the fold of its row in push order, whatever the push/pop history
//!   (a pop with nothing saved recounts its band), so the early reject
//!   reads a function of the held set alone.
//!
//! The cross gains and the factors are each one flat row-major buffer
//! with a fixed row stride, the entry count they have room for. Row `k`
//! belongs to entry `k`, and its columns are positions in `k`'s band
//! list, so a band's row of factors is contiguous. The band lists share
//! one more flat buffer, one row of the same stride per band. A push
//! writes its row and column in place and a pop only shortens the live
//! extent; a push past the stride re-lays every buffer out at a larger
//! one. The layout changes where each element lives, not the operations
//! it gets or their order.
//!
//! After the last probe the workspace holds exactly the accepted
//! schedule, and [`PowerControlWorkspace::powers_watts`] is its power
//! vector. All buffers survive [`PowerControlWorkspace::clear`], so a
//! workspace reused across slots performs no heap allocation in steady
//! state.

use crate::{PhyConfig, PowerControlError, SpectrumState, Transmission};
use greencell_net::Network;
use greencell_units::Power;

/// Reusable incremental power-control state (see the module docs for the
/// probing protocol).
///
/// # Examples
///
/// ```
/// use greencell_net::{BandId, NetworkBuilder, PathLossModel, Point};
/// use greencell_phy::{PhyConfig, PowerControlWorkspace, SpectrumState, Transmission};
/// use greencell_units::{Bandwidth, Power};
///
/// let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
/// let bs = b.add_base_station(Point::new(0.0, 0.0));
/// let u = b.add_user(Point::new(100.0, 0.0));
/// let net = b.build()?;
/// let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
/// let phy = PhyConfig::new(1.0, 1e-20);
/// let caps = [Power::from_watts(20.0), Power::from_watts(1.0)];
///
/// let mut ws = PowerControlWorkspace::new();
/// let t = Transmission::new(bs, u, BandId::from_index(0));
/// assert!(ws.probe(&net, &spectrum, &phy, &caps, t).is_ok());
/// assert_eq!(ws.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerControlWorkspace {
    /// The transmissions currently admitted (or being probed), in order.
    txs: Vec<Transmission>,
    /// Direct gain `g_k` per entry.
    direct_gain: Vec<f64>,
    /// Receiver noise power per entry.
    noise: Vec<f64>,
    /// The entries whose noise is not positive.
    zero_noise: usize,
    /// Transmitter cap `P^tx_max` in watts per entry.
    cap: Vec<f64>,
    /// The band lists, row-major with row stride `stride`, one row per
    /// band: `members[b·stride + q]` is the `q`-th entry on band `b`, for
    /// `q < band_len[b]`, in ascending (push) order.
    members: Vec<usize>,
    /// The entry count of each band.
    band_len: Vec<usize>,
    /// Cross gains, row-major with row stride `stride`:
    /// `cross[k·stride + q]` is the gain from the transmitter of the
    /// `q`-th entry on `k`'s band to `rx_k` (0 on the diagonal), for
    /// `q < band_len` of that band. Entries on different bands have no
    /// cross gain.
    cross: Vec<f64>,
    /// Raw interference row sums `Σ_l cross_kl` for the spectral-radius
    /// early reject: each is the left fold from `+0.0` of its row over the
    /// band-mates in push order, whatever the push/pop history.
    row_sum: Vec<f64>,
    /// Watts per entry: the solution of its band's block, or, on a band in
    /// `stale`, possibly the noise floor a push seeded.
    p: Vec<f64>,
    /// The bands whose powers the next solve must recompute: those pushed
    /// to since their last solve.
    stale: Vec<usize>,
    /// The pushed band's powers and row sums, in band order, saved by the
    /// outstanding push for `pop_candidate` to restore.
    mates_saved: Vec<(f64, f64)>,
    /// The band `mates_saved` belongs to, and whether it was stale before the
    /// push; `None` once a pop has restored it.
    saved: Option<(usize, bool)>,
    /// No-pivot LU factors of each band's block of `I − A` over the first
    /// `fwd.len()` entries, in the columns of `cross`: `lu[i·stride + q]`
    /// is the multiplier `l_iq` for `q` below `i`'s own position and `U_iq`
    /// from it on. Every factored pivot is positive (or NaN, which the
    /// elimination lets through as it always has).
    lu: Vec<f64>,
    /// The forward-eliminated right-hand side `L⁻¹·b`, one per factored
    /// entry; its length is the factored entry count.
    fwd: Vec<f64>,
    /// The row stride of `cross`, `lu` and `members`; `cross` and `lu` are
    /// each `stride²` long: the entries they have room for.
    stride: usize,
    /// Back-substitution scratch: the stale bands' powers, band after band.
    x: Vec<f64>,
}

impl PowerControlWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// `true` if no transmission has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// The held entries' powers in watts, one per entry, in push order.
    /// After a successful [`PowerControlWorkspace::solve`] (or a rejected
    /// probe, which restores the previous set) this is the exact
    /// component-wise minimal feasible vector of the held entries, to
    /// rounding.
    #[must_use]
    pub fn powers_watts(&self) -> &[f64] {
        &self.p
    }

    /// Empties the workspace, retaining every buffer's capacity.
    pub fn clear(&mut self) {
        self.txs.clear();
        self.direct_gain.clear();
        self.noise.clear();
        self.zero_noise = 0;
        self.cap.clear();
        self.band_len.fill(0);
        self.row_sum.clear();
        self.p.clear();
        self.stale.clear();
        self.saved = None;
        self.fwd.clear();
    }

    /// Grows every internal buffer — including the factors and the band
    /// lists — to hold `entries` concurrent transmissions on `bands` bands
    /// without further allocation. The single-radio constraint caps
    /// schedules at `⌊n/2⌋` entries; pass that plus one (for the
    /// outstanding probe) and the network's band count, and steady-state
    /// scheduling allocates nothing no matter how traffic peaks evolve.
    pub fn reserve(&mut self, entries: usize, bands: usize) {
        self.txs.reserve(entries);
        self.direct_gain.reserve(entries);
        self.noise.reserve(entries);
        self.cap.reserve(entries);
        self.row_sum.reserve(entries);
        self.p.reserve(entries);
        self.mates_saved.reserve(entries);
        self.fwd.reserve(entries);
        self.x.reserve(entries);
        self.stale.reserve(bands);
        if entries > self.stride {
            self.relayout(entries);
        }
        self.add_bands(bands);
    }

    /// Grows the band lists to at least `bands` bands.
    fn add_bands(&mut self, bands: usize) {
        if bands > self.band_len.len() {
            self.band_len.resize(bands, 0);
            self.members.resize(bands * self.stride, 0);
        }
    }

    /// Moves `cross`, `lu` and `members` to row stride `stride` (at least
    /// the current one), keeping every element.
    fn relayout(&mut self, stride: usize) {
        fn restride<T: Copy + Default>(buf: &mut Vec<T>, rows: usize, old: usize, new: usize) {
            let mut grown = vec![T::default(); rows * new];
            if old > 0 {
                for (to, from) in grown.chunks_exact_mut(new).zip(buf.chunks_exact(old)) {
                    to[..old].copy_from_slice(from);
                }
            }
            *buf = grown;
        }
        let old = self.stride;
        restride(&mut self.cross, stride, old, stride);
        restride(&mut self.lu, stride, old, stride);
        restride(&mut self.members, self.band_len.len(), old, stride);
        self.stride = stride;
    }

    /// The factored entry count.
    fn factored(&self) -> usize {
        self.fwd.len()
    }

    /// Marks band `b` stale, or not.
    fn set_stale(&mut self, b: usize, stale: bool) {
        match (self.stale.iter().position(|&s| s == b), stale) {
            (None, true) => self.stale.push(b),
            (Some(i), false) => {
                self.stale.swap_remove(i);
            }
            _ => {}
        }
    }

    /// Appends `t` to its band's block of the interference system: one new
    /// row (gains from every band-mate's transmitter into `t`'s receiver)
    /// and one new column (gain from `t`'s transmitter into every
    /// band-mate's receiver). Saves the band's current powers so
    /// [`PowerControlWorkspace::pop_candidate`] can restore them, and seeds
    /// the new entry at its noise-only lower bound.
    ///
    /// Returns [`PowerControlError::Infeasible`] — without pushing — if
    /// the new entry's noise-only minimum already exceeds its cap.
    ///
    /// # Errors
    ///
    /// [`PowerControlError::Infeasible`] as above.
    pub fn push_candidate(
        &mut self,
        net: &Network,
        spectrum: &SpectrumState,
        phy: &PhyConfig,
        max_powers: &[Power],
        t: Transmission,
    ) -> Result<(), PowerControlError> {
        let topo = net.topology();
        let gamma = phy.sinr_threshold();
        let g = topo.gain(t.tx(), t.rx());
        let eta_w = spectrum
            .bandwidth(t.band())
            .noise_power_watts(phy.noise_density());
        let cap = max_powers[t.tx().index()].as_watts();
        let floor = gamma * eta_w / g;
        if floor > cap {
            return Err(PowerControlError::Infeasible {
                transmission_index: self.txs.len(),
            });
        }

        let n = self.txs.len();
        if n == self.stride {
            self.relayout((n + 1).max(2 * n));
        }
        let b = t.band().index();
        self.add_bands(b + 1);
        let (stride, q) = (self.stride, self.band_len[b]);
        let mates = &self.members[b * stride..b * stride + q];
        self.mates_saved.clear();
        self.mates_saved
            .extend(mates.iter().map(|&i| (self.p[i], self.row_sum[i])));
        self.saved = Some((b, self.stale.contains(&b)));
        // New column: t's transmitter interfering with the band-mates'
        // receivers; new row: their transmitters interfering with t's.
        let mut new_row_sum = 0.0;
        for (r, &i) in mates.iter().enumerate() {
            let other = self.txs[i];
            let col = topo.gain(t.tx(), other.rx());
            self.cross[i * stride + q] = col;
            self.row_sum[i] += col;
            let row = topo.gain(other.tx(), t.rx());
            self.cross[n * stride + r] = row;
            new_row_sum += row;
        }
        self.cross[n * stride + q] = 0.0; // diagonal
        self.row_sum.push(new_row_sum);
        self.members[b * stride + q] = n;
        self.band_len[b] = q + 1;
        self.set_stale(b, true);

        self.txs.push(t);
        self.direct_gain.push(g);
        self.noise.push(eta_w);
        self.zero_noise += usize::from(eta_w <= 0.0);
        self.cap.push(cap);
        self.p.push(floor);
        Ok(())
    }

    /// Undoes the most recent [`PowerControlWorkspace::push_candidate`]
    /// — and, if a solve factored it, its factor row and column — and
    /// restores its band's powers and row sums saved by it. Only the last
    /// push can be undone, and only before the next one; a further pop
    /// leaves the band's powers to the next solve and recounts its
    /// band-mates' row sums, so a row sum depends only on the held set.
    ///
    /// # Panics
    ///
    /// Panics if the workspace is empty.
    pub fn pop_candidate(&mut self) {
        let t = self.txs.pop().expect("nothing to pop");
        let n = self.txs.len();
        if self.factored() > n {
            self.fwd.pop();
        }
        self.direct_gain.pop();
        let noise = self.noise.pop().unwrap_or_default();
        self.zero_noise -= usize::from(noise <= 0.0);
        self.cap.pop();
        self.row_sum.pop();
        self.p.pop();
        // The last entry is the last of its band.
        let b = t.band().index();
        let q = self.band_len[b] - 1;
        self.band_len[b] = q;
        let stride = self.stride;
        let mates = &self.members[b * stride..b * stride + q];
        match self.saved.take() {
            Some((saved, was_stale)) if saved == b => {
                for (&i, &(w, sum)) in mates.iter().zip(&self.mates_saved) {
                    self.p[i] = w;
                    self.row_sum[i] = sum;
                }
                self.set_stale(b, was_stale);
            }
            _ => {
                // The fold the pushes built: each band-mate's gains in push
                // order. Its `+0.0` diagonal adds nothing, since a fold
                // from `+0.0` never reaches `−0.0`.
                for &i in mates {
                    let row = &self.cross[i * stride..i * stride + q];
                    self.row_sum[i] = row.iter().fold(0.0, |sum, &g| sum + g);
                }
                self.set_stale(b, true);
            }
        }
    }

    /// `true` if the row-sum spectral-radius bound proves the current set
    /// infeasible under `phy`'s SINR target: with every receiver's noise
    /// positive, `min_k Σ_l A_kl` lower-bounds `ρ(A)` for the non-negative
    /// iteration matrix `A_kl = Γ·cross_kl/g_k`, and `ρ(A) > 1` admits no
    /// finite fixed point. A feasible set has `ρ(A) < 1`, hence a min row
    /// sum below 1 — so this bound can never reject a feasible set.
    ///
    /// With zero noise anywhere the bound is skipped (returns `false`):
    /// the zero-noise entries' least powers are 0 whatever the spectral
    /// radius of their block.
    #[must_use]
    pub fn provably_infeasible(&self, phy: &PhyConfig) -> bool {
        if self.row_sum.is_empty() || self.zero_noise > 0 {
            return false;
        }
        // `min_k ratio_k > 1` (a NaN ratio never the minimum) exactly when
        // no ratio is at most 1, which the first row of a feasible set
        // usually shows.
        let gamma = phy.sinr_threshold();
        !self
            .row_sum
            .iter()
            .zip(&self.direct_gain)
            .any(|(s, g)| gamma * s / g <= 1.0)
    }

    /// Solves `(I − A)·p = b` for the component-wise minimal feasible
    /// power vector of the current entries, or proves infeasibility.
    ///
    /// The matrix is a Z-matrix with unit diagonal; elimination without
    /// pivoting keeps every pivot positive iff it is a non-singular
    /// M-matrix, i.e. iff `ρ(A) < 1` and a finite minimal power vector
    /// exists. The factors of the entries a previous solve factored are
    /// kept; each entry pushed since extends its band's factors by one
    /// bordering row and column (see the module docs). A non-positive
    /// pivot proves infeasibility, and otherwise back substitution of each
    /// band pushed to since its last solve yields its minimal powers,
    /// which are then checked against the transmitter caps. Zero-noise
    /// entries get the identity row and `b_k = 0`.
    ///
    /// Every solve between two clears must pass the same `phy`: the kept
    /// factors were eliminated under its SINR target.
    ///
    /// On `Err` [`PowerControlWorkspace::powers_watts`] is stale for the
    /// rejected entry set; callers must
    /// [`PowerControlWorkspace::pop_candidate`] (which restores the saved
    /// powers) or [`PowerControlWorkspace::clear`].
    ///
    /// # Errors
    ///
    /// [`PowerControlError::Infeasible`] — a cap binds, a pivot proves
    /// `ρ(A) ≥ 1`, or the spectral bound proves it.
    pub fn solve(&mut self, phy: &PhyConfig) -> Result<(), PowerControlError> {
        let n = self.txs.len();
        let infeasible = PowerControlError::Infeasible {
            transmission_index: n.saturating_sub(1),
        };
        if self.provably_infeasible(phy) {
            return Err(infeasible);
        }
        let gamma = phy.sinr_threshold();
        while self.factored() < n {
            if !self.factor_next(gamma) {
                return Err(infeasible);
            }
        }
        let stride = self.stride;
        self.x.clear();
        // The first entry over its cap, in push order: a stale band's
        // first, as the other bands' powers passed when they were solved.
        let mut over_cap = None;
        for &b in &self.stale {
            let mates = &self.members[b * stride..b * stride + self.band_len[b]];
            let start = self.x.len();
            self.x.resize(start + mates.len(), 0.0);
            let x = &mut self.x[start..];
            for (r, &k) in mates.iter().enumerate().rev() {
                let row = &self.lu[k * stride..k * stride + mates.len()];
                let mut acc = self.fwd[k];
                for (u, x) in row[r + 1..].iter().zip(&x[r + 1..]) {
                    acc -= u * x;
                }
                x[r] = acc / row[r];
            }
            if let Some((&k, _)) = mates.iter().zip(&*x).find(|(&k, &x)| x > self.cap[k]) {
                over_cap = Some(over_cap.map_or(k, |first: usize| first.min(k)));
            }
        }
        if let Some(k) = over_cap {
            return Err(PowerControlError::Infeasible {
                transmission_index: k,
            });
        }
        let mut solved = self.x.iter();
        for &b in &self.stale {
            for &k in &self.members[b * stride..b * stride + self.band_len[b]] {
                self.p[k] = solved.next().copied().unwrap_or_default();
            }
        }
        self.stale.clear();
        Ok(())
    }

    /// Row `k`'s scale `Γ/g_k` in `I − A`; 0 for a zero-noise entry, whose
    /// row is the identity.
    fn scale(&self, gamma: f64, k: usize) -> f64 {
        if self.noise[k] > 0.0 {
            gamma / self.direct_gain[k]
        } else {
            0.0
        }
    }

    /// Extends the factors of its band by the first unfactored entry `m`,
    /// at position `q` of the band: `U`'s new column `q` by forward
    /// substitution with the band-mates' stored multipliers, then row
    /// `m`'s multipliers by forward substitution against their `U`, its
    /// pivot and its forward-eliminated right-hand side. Each element gets
    /// the right-looking elimination's operations in its order: step `j`
    /// updates it by `l·U_j` unless the multiplier `l` is 0. Returns
    /// `false`, with the factors as before, if the pivot is not positive.
    fn factor_next(&mut self, gamma: f64) -> bool {
        let (m, stride) = (self.factored(), self.stride);
        let b = self.txs[m].band().index();
        let band = &self.members[b * stride..b * stride + self.band_len[b]];
        // The band-mates pushed before `m`, every one of them factored.
        let q = band.partition_point(|&j| j < m);
        let mates = &band[..q];
        for (r, &i) in mates.iter().enumerate() {
            let mut u = -self.scale(gamma, i) * self.cross[i * stride + q];
            // Row `i`'s multipliers against column `q` of the rows above.
            for (&l, &j) in self.lu[i * stride..i * stride + r].iter().zip(mates) {
                if l == 0.0 {
                    continue;
                }
                u -= l * self.lu[j * stride + q];
            }
            self.lu[i * stride + q] = u;
        }
        let scale = self.scale(gamma, m);
        let (above, below) = self.lu.split_at_mut(m * stride);
        let row = &mut below[..=q];
        for (r, (x, &g)) in row.iter_mut().zip(&self.cross[m * stride..]).enumerate() {
            *x = if r == q { 1.0 } else { -scale * g };
        }
        let mut rhs = scale * self.noise[m];
        for (r, &j) in mates.iter().enumerate() {
            let u = &above[j * stride..=j * stride + q];
            let l = row[r] / u[r];
            row[r] = l;
            // Couplings between entries that never interfere are exact
            // zeros; skipping them keeps the elimination near-linear on
            // sparse blocks.
            if l == 0.0 {
                continue;
            }
            for (x, &u) in row[r + 1..].iter_mut().zip(&u[r + 1..]) {
                *x -= l * u;
            }
            rhs -= l * self.fwd[j];
        }
        // A rejected pivot leaves row `m` and column `q` as scratch beyond
        // the factored extent.
        if row[q] <= 0.0 {
            return false;
        }
        self.fwd.push(rhs);
        true
    }

    /// Pushes `t`, solves, and pops automatically on failure — the
    /// one-call probe the S1 kernels use. On `Ok` the candidate is
    /// admitted and the solution updated; on `Err` the workspace is
    /// exactly as before the call.
    ///
    /// # Errors
    ///
    /// Propagates [`PowerControlWorkspace::push_candidate`] /
    /// [`PowerControlWorkspace::solve`] errors.
    pub fn probe(
        &mut self,
        net: &Network,
        spectrum: &SpectrumState,
        phy: &PhyConfig,
        max_powers: &[Power],
        t: Transmission,
    ) -> Result<(), PowerControlError> {
        self.push_candidate(net, spectrum, phy, max_powers, t)?;
        self.solve(phy).inspect_err(|_| self.pop_candidate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{min_power_assignment_reference, Schedule};
    use greencell_net::{BandId, NetworkBuilder, NodeId, PathLossModel, Point};
    use greencell_stochastic::Rng;
    use greencell_units::Bandwidth;

    /// Two BS→user links facing each other, `sep` metres apart: close
    /// separations are mutually infeasible, far ones feasible.
    fn two_link_net(sep: f64) -> (Network, [NodeId; 4]) {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let a = b.add_base_station(Point::new(0.0, 0.0));
        let x = b.add_user(Point::new(100.0, 0.0));
        let c = b.add_base_station(Point::new(sep, 0.0));
        let y = b.add_user(Point::new(sep - 100.0, 0.0));
        (b.build().expect("valid"), [a, x, c, y])
    }

    fn caps(n: usize) -> Vec<Power> {
        (0..n).map(|_| Power::from_watts(20.0)).collect()
    }

    /// The early reject is one-sided: whenever the reference iteration
    /// accepts a set, `provably_infeasible` must be false for it and for
    /// every prefix; whenever the reference proves a set infeasible, the
    /// workspace must reject it too. Swept over geometries and SINR
    /// thresholds straddling the feasibility boundary.
    #[test]
    fn spectral_radius_reject_never_rejects_a_feasible_set() {
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let band = BandId::from_index(0);
        let mut feasible_seen = 0;
        let mut infeasible_seen = 0;
        for sep in [
            205.0, 210.0, 220.0, 260.0, 320.0, 400.0, 600.0, 1000.0, 2000.0,
        ] {
            for gamma in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
                let phy = PhyConfig::new(gamma, 1e-20);
                let (net, [a, x, c, y]) = two_link_net(sep);
                let mut schedule = Schedule::new();
                schedule
                    .try_add(&net, Transmission::new(a, x, band))
                    .expect("add");
                schedule
                    .try_add(&net, Transmission::new(c, y, band))
                    .expect("add");
                let reference =
                    min_power_assignment_reference(&net, &schedule, &spectrum, &phy, &caps(4));

                let mut ws = PowerControlWorkspace::new();
                let mut rejected = false;
                for t in schedule.transmissions() {
                    if ws
                        .push_candidate(&net, &spectrum, &phy, &caps(4), *t)
                        .is_err()
                    {
                        rejected = true;
                        break;
                    }
                    if ws.provably_infeasible(&phy) {
                        rejected = true;
                        break;
                    }
                }
                match reference {
                    Ok(_) => {
                        feasible_seen += 1;
                        assert!(
                            !rejected,
                            "early reject fired on a feasible set (sep={sep}, gamma={gamma})"
                        );
                        ws.solve(&phy).expect("the solve accepts a feasible set");
                    }
                    Err(PowerControlError::Infeasible { .. }) => {
                        infeasible_seen += 1;
                        // One-sided bound: firing is optional, but without
                        // it the elimination must reject the set.
                        if !rejected {
                            assert!(
                                ws.solve(&phy).is_err(),
                                "the solve accepted an infeasible set \
                                 (sep={sep}, gamma={gamma})"
                            );
                        }
                    }
                    // On the boundary the iteration decides nothing.
                    Err(PowerControlError::NonConvergent) => {}
                }
            }
        }
        // The sweep must actually straddle the boundary to mean anything.
        assert!(
            feasible_seen > 5,
            "sweep too easy: {feasible_seen} feasible"
        );
        assert!(
            infeasible_seen > 5,
            "sweep too lax: {infeasible_seen} infeasible"
        );
    }

    /// Probe solutions match the reference iteration to 1e-9 relative on
    /// random feasible prefixes, and pop restores the previous state.
    #[test]
    fn probe_solution_matches_the_reference_and_pop_restores() {
        let spectrum = SpectrumState::new(vec![
            Bandwidth::from_megahertz(1.0),
            Bandwidth::from_megahertz(2.0),
        ]);
        let mut rng = Rng::seed_from(7);
        for _ in 0..30 {
            let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
            let mut ids = Vec::new();
            for k in 0..6 {
                let p = Point::new(rng.range_f64(0.0, 4000.0), rng.range_f64(0.0, 4000.0));
                ids.push(if k % 3 == 0 {
                    b.add_base_station(p)
                } else {
                    b.add_user(p)
                });
            }
            let net = b.build().expect("valid");
            let phy = PhyConfig::new(1.0, 1e-20);
            let caps = caps(6);
            let mut ws = PowerControlWorkspace::new();
            let mut schedule = Schedule::new();
            for pair in [(0usize, 1usize), (2, 3), (4, 5)] {
                let band = BandId::from_index(rng.index(2));
                let t = Transmission::new(ids[pair.0], ids[pair.1], band);
                if schedule.try_add(&net, t).is_err() {
                    continue;
                }
                let before: Vec<f64> = ws.powers_watts().to_vec();
                if ws.probe(&net, &spectrum, &phy, &caps, t).is_err() {
                    // Probe auto-popped: state must be exactly as before.
                    assert_eq!(ws.powers_watts(), before.as_slice());
                    let idx = schedule.len() - 1;
                    schedule.remove(idx);
                    continue;
                }
                // Both find the minimal solution, the iteration to its
                // tolerance.
                let reference =
                    min_power_assignment_reference(&net, &schedule, &spectrum, &phy, &caps)
                        .expect("a probe-accepted set is feasible for the reference");
                for (w, r) in ws.powers_watts().iter().zip(&reference) {
                    let r = r.as_watts();
                    assert!(
                        (w - r).abs() <= 1e-9 * r.max(1e-30),
                        "probe {w} vs reference {r}"
                    );
                }
            }
        }
    }

    /// push → pop round-trips the whole interference system, leaving the
    /// workspace able to accept the same candidate again.
    #[test]
    fn pop_candidate_round_trips() {
        let (net, [a, x, c, y]) = two_link_net(2000.0);
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let band = BandId::from_index(0);
        let caps = caps(4);
        let mut ws = PowerControlWorkspace::new();
        ws.probe(&net, &spectrum, &phy, &caps, Transmission::new(a, x, band))
            .expect("first link feasible");
        let saved: Vec<f64> = ws.powers_watts().to_vec();
        ws.push_candidate(&net, &spectrum, &phy, &caps, Transmission::new(c, y, band))
            .expect("push");
        ws.pop_candidate();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.powers_watts(), saved.as_slice());
        // The popped candidate is re-admittable.
        ws.probe(&net, &spectrum, &phy, &caps, Transmission::new(c, y, band))
            .expect("re-probe succeeds");
        assert_eq!(ws.len(), 2);
    }

    impl PowerControlWorkspace {
        /// Band `b`'s entries, ascending.
        fn mates(&self, b: usize) -> &[usize] {
            &self.members[b * self.stride..b * self.stride + self.band_len[b]]
        }

        /// The whole system's cross gain from `tx_l` to `rx_k`: 0 on the
        /// diagonal and between entries on different bands.
        fn gain(&self, k: usize, l: usize) -> f64 {
            let same = k != l && self.txs[k].band() == self.txs[l].band();
            if same {
                let b = self.txs[l].band().index();
                self.cross[k * self.stride + self.mates(b).partition_point(|&j| j < l)]
            } else {
                0.0
            }
        }

        /// Entry `i`'s row of its band's factors, over the factored
        /// band-mates.
        fn lu_row(&self, i: usize) -> &[f64] {
            let b = self.txs[i].band().index();
            let factored = self.mates(b).partition_point(|&j| j < self.factored());
            &self.lu[i * self.stride..i * self.stride + factored]
        }
    }

    /// Where a from-scratch elimination of a set of held entries stops.
    struct Oracle {
        /// Entries factored: all of them, or those before the first
        /// non-positive pivot.
        factored: usize,
        /// Row-major factors over the set, multipliers stored below the
        /// diagonal.
        lu: Vec<f64>,
        /// The forward-eliminated right-hand side.
        fwd: Vec<f64>,
        /// The powers, when every pivot is positive.
        x: Option<Vec<f64>>,
    }

    /// The oracle: a right-looking elimination of `(I − A)·p = b` over the
    /// held `entries` (ascending) from the workspace's raw cross gains.
    /// Over every entry it is the whole-system elimination, which the
    /// per-band solve must match bit for bit; over one band's entries it
    /// is that band's sub-system.
    fn eliminate(ws: &PowerControlWorkspace, entries: &[usize], phy: &PhyConfig) -> Oracle {
        let n = entries.len();
        let gamma = phy.sinr_threshold();
        let mut lu = Vec::with_capacity(n * n);
        let mut fwd = Vec::with_capacity(n);
        for (r, &k) in entries.iter().enumerate() {
            let scale = if ws.noise[k] > 0.0 {
                gamma / ws.direct_gain[k]
            } else {
                0.0
            };
            lu.extend(entries.iter().enumerate().map(|(c, &l)| {
                if c == r {
                    1.0
                } else {
                    -scale * ws.gain(k, l)
                }
            }));
            fwd.push(scale * ws.noise[k]);
        }
        for j in 0..n {
            let pivot = lu[j * n + j];
            if pivot <= 0.0 {
                return Oracle {
                    factored: j,
                    lu,
                    fwd,
                    x: None,
                };
            }
            for i in (j + 1)..n {
                let factor = lu[i * n + j] / pivot;
                lu[i * n + j] = factor;
                if factor == 0.0 {
                    continue;
                }
                for l in (j + 1)..n {
                    lu[i * n + l] -= factor * lu[j * n + l];
                }
                fwd[i] -= factor * fwd[j];
            }
        }
        let mut x = fwd.clone();
        for k in (0..n).rev() {
            let mut acc = x[k];
            for l in (k + 1)..n {
                acc -= lu[k * n + l] * x[l];
            }
            x[k] = acc / lu[k * n + k];
        }
        Oracle {
            factored: n,
            lu,
            fwd,
            x: Some(x),
        }
    }

    /// Every entry's row sum recounted from its cross gains: a fold from
    /// `+0.0` over the held entries in push order (other bands add `0.0`).
    fn recount_row_sums(ws: &PowerControlWorkspace) -> Vec<f64> {
        let n = ws.len();
        (0..n)
            .map(|k| (0..n).fold(0.0, |sum, l| sum + ws.gain(k, l)))
            .collect()
    }

    /// After random push, pop, probe and clear sequences on crowded bands,
    /// every row sum is bit-equal to a recount in push order: a pop that
    /// undoes the outstanding push restores its band-mates' sums, and a
    /// further pop recounts them, so the early reject reads a function of
    /// the held set alone.
    #[test]
    fn row_sums_equal_a_recount_after_push_pop_sequences() {
        let mut rng = Rng::seed_from(17);
        let mut ws = PowerControlWorkspace::new();
        let (mut restored, mut recounted) = (0, 0);
        for _ in 0..100 {
            let bands = 1 + rng.index(3);
            let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0); bands]);
            let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), bands);
            let n = 12 + rng.index(9);
            let ids: Vec<NodeId> = (0..n)
                .map(|k| {
                    let p = Point::new(rng.range_f64(0.0, 3000.0), rng.range_f64(0.0, 3000.0));
                    if k == 0 {
                        b.add_base_station(p)
                    } else {
                        b.add_user(p)
                    }
                })
                .collect();
            let net = b.build().expect("valid");
            let phy = PhyConfig::new(0.25, 1e-20);
            let caps = caps(n);
            ws.clear();
            for _ in 0..40 {
                let free: Vec<NodeId> = ids
                    .iter()
                    .copied()
                    .filter(|&id| !ws.txs.iter().any(|t| t.tx() == id || t.rx() == id))
                    .collect();
                let op = rng.index(8);
                if op < 4 && free.len() >= 2 {
                    let tx = free[rng.index(free.len())];
                    let rx = free[(free.iter().position(|&x| x == tx).unwrap()
                        + 1
                        + rng.index(free.len() - 1))
                        % free.len()];
                    let t = Transmission::new(tx, rx, BandId::from_index(rng.index(bands)));
                    if op == 0 {
                        let _ = ws.probe(&net, &spectrum, &phy, &caps, t);
                    } else {
                        let _ = ws.push_candidate(&net, &spectrum, &phy, &caps, t);
                    }
                } else if op < 7 && !ws.is_empty() {
                    let outstanding = ws
                        .saved
                        .is_some_and(|(b, _)| ws.txs.last().is_some_and(|t| t.band().index() == b));
                    ws.pop_candidate();
                    restored += usize::from(outstanding);
                    recounted += usize::from(!outstanding);
                } else if op == 7 {
                    ws.clear();
                }
                assert_eq!(bits(&ws.row_sum), bits(&recount_row_sums(&ws)));
            }
        }
        assert!(restored >= 10 && recounted >= 10, "{restored} {recounted}");
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Everything a rejected probe must leave as it found it: the entries,
    /// the band lists, the cross-gain rows, the row sums, the powers, the
    /// factor rows, the forward right-hand side and the stale bands.
    type State = (
        Vec<Transmission>,
        Vec<Vec<usize>>,
        Vec<Vec<u64>>,
        Vec<u64>,
        Vec<u64>,
        Vec<Vec<u64>>,
        Vec<u64>,
        Vec<usize>,
    );

    fn state(ws: &PowerControlWorkspace) -> State {
        let bands = ws.band_len.len();
        let mut stale = ws.stale.clone();
        stale.sort_unstable();
        (
            ws.txs.clone(),
            (0..bands).map(|b| ws.mates(b).to_vec()).collect(),
            (0..ws.len())
                .map(|k| {
                    let b = ws.txs[k].band().index();
                    bits(&ws.cross[k * ws.stride..k * ws.stride + ws.band_len[b]])
                })
                .collect(),
            bits(&ws.row_sum),
            bits(&ws.p),
            (0..ws.factored()).map(|i| bits(ws.lu_row(i))).collect(),
            bits(&ws.fwd),
            stale,
        )
    }

    /// What the lockstep saw, so the test can show it reached every case.
    #[derive(Debug, Default)]
    struct Seen {
        accepted: usize,
        floor: usize,
        spectral: usize,
        pivot: usize,
        cap_on_new: usize,
        cap_on_held: usize,
        zero_noise_accepted: usize,
        crowded_band: usize,
        multi_push: usize,
        pops_after_accept: usize,
    }

    /// Checks a `solve` that just returned `got` against the oracles, bit
    /// for bit: each band's kept factors and forward right-hand side
    /// against that band's from-scratch elimination and against the whole
    /// system's, and the verdict and powers against the whole system's.
    /// The entries from `new` on were pushed since the last solve.
    fn check_solve(
        ws: &PowerControlWorkspace,
        phy: &PhyConfig,
        spectral: bool,
        got: &Result<(), PowerControlError>,
        new: usize,
        seen: &mut Seen,
    ) {
        let n = ws.len();
        let all: Vec<usize> = (0..n).collect();
        let whole = eliminate(ws, &all, phy);
        // The early reject's row sums: every band-mate's gain, summed in
        // push order.
        assert_eq!(bits(&ws.row_sum), bits(&recount_row_sums(ws)));
        // The early reject's verdict: the minimum ratio, folded as before
        // the scan stopped at the first row that clears the bound.
        let gamma = phy.sinr_threshold();
        let min_ratio = (0..n)
            .map(|k| gamma * ws.row_sum[k] / ws.direct_gain[k])
            .fold(f64::INFINITY, f64::min);
        let quiet = n == 0 || ws.noise.iter().any(|&e| e <= 0.0);
        assert_eq!(spectral, !quiet && min_ratio > 1.0, "row-sum verdict");
        if spectral {
            let want = PowerControlError::Infeasible {
                transmission_index: n - 1,
            };
            assert_eq!(*got, Err(want));
            assert!(
                whole.x.is_none(),
                "the row-sum bound rejected a set with positive pivots"
            );
            seen.spectral += 1;
            return;
        }
        assert_eq!(ws.factored(), whole.factored, "factored entries");
        for b in 0..ws.band_len.len() {
            let mates = ws.mates(b);
            let block = eliminate(ws, mates, phy);
            let k = mates.partition_point(|&j| j < whole.factored);
            assert!(block.factored >= k, "band {b} factored {}", block.factored);
            for (r, &i) in mates[..k].iter().enumerate() {
                let want = &block.lu[r * mates.len()..r * mates.len() + k];
                assert_eq!(bits(ws.lu_row(i)), bits(want), "band {b} row {r}");
                let whole_row: Vec<f64> = mates[..k].iter().map(|&j| whole.lu[i * n + j]).collect();
                assert_eq!(bits(ws.lu_row(i)), bits(&whole_row), "whole row {i}");
                assert_eq!(ws.fwd[i].to_bits(), block.fwd[r].to_bits(), "band {b} rhs");
                assert_eq!(ws.fwd[i].to_bits(), whole.fwd[i].to_bits(), "whole rhs");
            }
            seen.crowded_band += usize::from(mates.len() >= 3);
        }
        // The whole system's cross-band factors are exact zeros.
        for i in 0..whole.factored {
            for j in 0..whole.factored {
                if ws.txs[i].band() != ws.txs[j].band() {
                    assert_eq!(whole.lu[i * n + j], 0.0, "cross-band factor ({i}, {j})");
                }
            }
        }
        let Some(x) = whole.x else {
            assert_eq!(
                *got,
                Err(PowerControlError::Infeasible {
                    transmission_index: n - 1
                })
            );
            seen.pivot += 1;
            return;
        };
        match (0..n).find(|&k| x[k] > ws.cap[k]) {
            Some(k) => {
                assert_eq!(
                    *got,
                    Err(PowerControlError::Infeasible {
                        transmission_index: k
                    })
                );
                if k >= new {
                    seen.cap_on_new += 1;
                } else {
                    seen.cap_on_held += 1;
                }
            }
            None => {
                assert_eq!(*got, Ok(()));
                assert_eq!(bits(ws.powers_watts()), bits(&x), "powers");
                seen.accepted += 1;
                if ws.noise.iter().any(|&e| e <= 0.0) {
                    seen.zero_noise_accepted += 1;
                }
            }
        }
    }

    /// Per-band bordered factors in lockstep with from-scratch
    /// eliminations, over random probe, push-push-solve, pop and clear
    /// sequences on crowded geometries with 6–64 bands, three of them
    /// (one of zero bandwidth) drawn often enough to hold several links:
    /// each band's factors bit-equal to its own sub-system's elimination
    /// and to the whole system's, verdicts and powers bit-equal to the
    /// whole system's, every reject reason reached (the noise floor, the
    /// row-sum bound, a pivot, a cap on a new entry and a cap on a held
    /// one), and a rejected probe leaves the workspace exactly as it found
    /// it.
    #[test]
    fn bordered_factors_match_a_from_scratch_elimination() {
        let mut rng = Rng::seed_from(11);
        let mut seen = Seen::default();
        let mut ws = PowerControlWorkspace::new();
        for _ in 0..200 {
            let bands = 6 + rng.index(59);
            let spectrum = SpectrumState::new(
                (0..bands)
                    .map(|m| {
                        Bandwidth::from_megahertz(if m == 1 { 0.0 } else { 1.0 + m as f64 % 2.0 })
                    })
                    .collect(),
            );
            let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), bands);
            let n = 16 + rng.index(9);
            let ids: Vec<NodeId> = (0..n)
                .map(|k| {
                    let p = Point::new(rng.range_f64(0.0, 3000.0), rng.range_f64(0.0, 3000.0));
                    if k % 4 == 0 {
                        b.add_base_station(p)
                    } else {
                        b.add_user(p)
                    }
                })
                .collect();
            let net = b.build().expect("valid");
            let phy = PhyConfig::new([0.25, 1.0, 4.0][rng.index(3)], 1e-20);
            let caps: Vec<Power> = (0..n)
                .map(|_| Power::from_watts([20.0, 1.0, 0.1, 1e-2, 1e-3][rng.index(5)]))
                .collect();
            // A transmission between two nodes no held entry uses, on one
            // of three crowded bands five times in eight, on the
            // zero-bandwidth band one time in eight.
            let fresh = |ws: &PowerControlWorkspace, rng: &mut Rng| {
                let used = |id: NodeId| ws.txs.iter().any(|t| t.tx() == id || t.rx() == id);
                let free: Vec<NodeId> = ids.iter().copied().filter(|&id| !used(id)).collect();
                (free.len() >= 2).then(|| {
                    let tx = free[rng.index(free.len())];
                    let rx = loop {
                        let rx = free[rng.index(free.len())];
                        if rx != tx {
                            break rx;
                        }
                    };
                    let band = match rng.index(8) {
                        0..=4 => [0, 2, 3][rng.index(3)],
                        5 => 1,
                        _ => rng.index(bands),
                    };
                    Transmission::new(tx, rx, BandId::from_index(band))
                })
            };
            // A new network and SINR target: the kept factors belong to the
            // old ones. The buffers carry over.
            ws.clear();
            for _ in 0..24 {
                match rng.index(6) {
                    // One probe: push, solve, pop on a reject.
                    0..=2 => {
                        let Some(t) = fresh(&ws, &mut rng) else { break };
                        let before = state(&ws);
                        if ws.push_candidate(&net, &spectrum, &phy, &caps, t).is_err() {
                            assert_eq!(state(&ws), before, "a floor reject pushes nothing");
                            seen.floor += 1;
                            continue;
                        }
                        let spectral = ws.provably_infeasible(&phy);
                        let got = ws.solve(&phy);
                        check_solve(&ws, &phy, spectral, &got, ws.len() - 1, &mut seen);
                        if got.is_err() {
                            ws.pop_candidate();
                            assert_eq!(state(&ws), before, "a rejected probe restores");
                        }
                    }
                    // Two pushes, one solve: the factors grow twice.
                    3 => {
                        let Some(t) = fresh(&ws, &mut rng) else { break };
                        if ws.push_candidate(&net, &spectrum, &phy, &caps, t).is_err() {
                            continue;
                        }
                        let pushed = fresh(&ws, &mut rng)
                            .map(|u| ws.push_candidate(&net, &spectrum, &phy, &caps, u));
                        if !matches!(pushed, Some(Ok(()))) {
                            ws.pop_candidate();
                            continue;
                        }
                        seen.multi_push += 1;
                        let spectral = ws.provably_infeasible(&phy);
                        let got = ws.solve(&phy);
                        check_solve(&ws, &phy, spectral, &got, ws.len() - 2, &mut seen);
                        if got.is_err() {
                            ws.pop_candidate();
                            ws.pop_candidate();
                        }
                    }
                    // Undo an accepted entry, then re-solve what is left.
                    4 if !ws.is_empty() => {
                        let factored = ws.factored() == ws.len();
                        ws.pop_candidate();
                        seen.pops_after_accept += usize::from(factored);
                        if !ws.is_empty() {
                            let spectral = ws.provably_infeasible(&phy);
                            let got = ws.solve(&phy);
                            check_solve(&ws, &phy, spectral, &got, ws.len(), &mut seen);
                            if got.is_err() {
                                ws.clear();
                            }
                        }
                    }
                    _ => ws.clear(),
                }
            }
        }
        for (what, count) in [
            ("accepted solves", seen.accepted),
            ("floor rejects", seen.floor),
            ("row-sum rejects", seen.spectral),
            ("pivot rejects", seen.pivot),
            ("cap rejects on a new entry", seen.cap_on_new),
            ("cap rejects on a held entry", seen.cap_on_held),
            (
                "accepted sets with zero-noise entries",
                seen.zero_noise_accepted,
            ),
            ("bands of three or more entries", seen.crowded_band),
            ("two-push solves", seen.multi_push),
            ("pops of a factored entry", seen.pops_after_accept),
        ] {
            assert!(count >= 10, "only {count} {what}: {seen:?}");
        }
    }

    /// A zero-bandwidth band beside a positive one: the zero-noise
    /// entries' least powers are exactly 0, even where their block is
    /// crossed (`ρ > 1`), and the positive band's entry gets its
    /// noise-limited minimum — the reference iteration's answer.
    #[test]
    fn zero_bandwidth_band_mixed_with_a_positive_one() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
        // Crossed pair: each receiver sits next to the other transmitter.
        let a = b.add_base_station(Point::new(0.0, 0.0));
        let x = b.add_user(Point::new(590.0, 0.0));
        let c = b.add_base_station(Point::new(600.0, 0.0));
        let y = b.add_user(Point::new(10.0, 0.0));
        let d = b.add_base_station(Point::new(5000.0, 0.0));
        let z = b.add_user(Point::new(5100.0, 0.0));
        let net = b.build().expect("valid");
        let spectrum = SpectrumState::new(vec![
            Bandwidth::from_megahertz(0.0),
            Bandwidth::from_megahertz(1.0),
        ]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let (zero, one) = (BandId::from_index(0), BandId::from_index(1));
        let mut schedule = Schedule::new();
        let mut ws = PowerControlWorkspace::new();
        for t in [
            Transmission::new(a, x, zero),
            Transmission::new(d, z, one),
            Transmission::new(c, y, zero),
        ] {
            schedule.try_add(&net, t).expect("disjoint nodes");
            ws.probe(&net, &spectrum, &phy, &caps(6), t)
                .expect("every entry is feasible");
        }
        let p = ws.powers_watts();
        assert_eq!((p[0], p[2]), (0.0, 0.0));
        let floor = 1e-14 / (62.5 * 100f64.powi(-4));
        assert!((p[1] / floor - 1.0).abs() < 1e-12, "{} vs {floor}", p[1]);
        let reference = min_power_assignment_reference(&net, &schedule, &spectrum, &phy, &caps(6))
            .expect("the reference converges at once");
        for (w, r) in p.iter().zip(&reference) {
            let r = r.as_watts();
            assert!((w - r).abs() <= 1e-12 * r, "probe {w} vs reference {r}");
        }
    }
}
