//! Incremental power-control workspace for candidate-at-a-time S1 probing.
//!
//! The greedy S1 scheduler (paper §IV-C1) admits candidates one at a time
//! while keeping constraint (24) feasible. [`PowerControlWorkspace`] holds
//! the admitted set's interference system and exploits that access
//! pattern:
//!
//! * [`PowerControlWorkspace::push_candidate`] appends one row and one
//!   column to the cross-gain matrix (`O(n)` gain lookups, no rebuild);
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
//! * the elimination is **bordered**: the no-pivot LU factors and the
//!   forward-eliminated right-hand side of the held entries survive
//!   across probes, and a new entry extends them by one column of `U`,
//!   one row of multipliers, one pivot and one right-hand-side entry, in
//!   `O(n²)`. Appending a row and a column never changes the leading
//!   block, and every new element gets the operations a from-scratch
//!   elimination gives it, in the same order (the skip on a zero
//!   multiplier included), so the factors are bit-identical to a full
//!   re-elimination. The held entries' pivots are already positive, so
//!   only the new pivot can reject; back substitution then yields the
//!   powers for the caps check, also in `O(n²)`;
//! * a **row-sum spectral-radius bound** rejects provably infeasible sets
//!   before eliminating: for the non-negative iteration matrix
//!   `A_kl = Γ·g_kl/g_k`, `min_k Σ_l A_kl ≤ ρ(A)`, and `ρ(A) ≥ 1` with
//!   positive noise admits no finite power vector. The bound only ever
//!   rejects sets the elimination would also reject, never a feasible one;
//! * [`PowerControlWorkspace::pop_candidate`] undoes the last push — its
//!   cross-gain row and column, and its factor row and column — and
//!   restores the previous solution, so a rejected probe costs `O(n)`
//!   beyond its elimination.
//!
//! The cross gains and the factors are each one flat row-major buffer
//! with a fixed row stride, the entry count they have room for. A push
//! writes its row and column in place and a pop only shortens the live
//! extent; a push past the stride re-lays both buffers out at a larger
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
    /// Transmitter cap `P^tx_max` in watts per entry.
    cap: Vec<f64>,
    /// Cross gains, row-major with row stride `stride`: `cross[k·stride
    /// + l]` is the gain from `tx_l` to `rx_k` when the two entries share
    /// a band, else 0, for `k, l < len()`.
    cross: Vec<f64>,
    /// Raw interference row sums `Σ_l cross_kl`, maintained
    /// incrementally for the spectral-radius early reject.
    row_sum: Vec<f64>,
    /// The solution of the last successful solve, watts; a pushed entry
    /// holds its noise floor until the next solve.
    p: Vec<f64>,
    /// The solution saved before the outstanding probe.
    p_saved: Vec<f64>,
    /// No-pivot LU factors of `I − A` over the first `fwd.len()` entries,
    /// row-major with row stride `stride`: `lu[i·stride + j]` is the
    /// multiplier `l_ij` for `j < i` and `U_ij` for `j ≥ i`. Every
    /// factored pivot is positive (or NaN, which the elimination lets
    /// through as it always has).
    lu: Vec<f64>,
    /// The forward-eliminated right-hand side `L⁻¹·b`, one per factored
    /// entry; its length is the factored entry count.
    fwd: Vec<f64>,
    /// The row stride of `cross` and `lu`, each `stride²` long: the
    /// entries they have room for.
    stride: usize,
    /// Back-substitution scratch: the solution of the last solve.
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
        self.cap.clear();
        self.row_sum.clear();
        self.p.clear();
        self.p_saved.clear();
        self.fwd.clear();
    }

    /// Grows every internal buffer — including the factors — to hold `entries` concurrent transmissions without further
    /// allocation. The single-radio constraint caps schedules at `⌊n/2⌋`
    /// entries; pass that plus one (for the outstanding probe) and
    /// steady-state scheduling allocates nothing no matter how traffic
    /// peaks evolve.
    pub fn reserve(&mut self, entries: usize) {
        self.txs.reserve(entries);
        self.direct_gain.reserve(entries);
        self.noise.reserve(entries);
        self.cap.reserve(entries);
        self.row_sum.reserve(entries);
        self.p.reserve(entries);
        self.p_saved.reserve(entries);
        self.fwd.reserve(entries);
        self.x.reserve(entries);
        if entries > self.stride {
            self.relayout(entries);
        }
    }

    /// Moves `cross` and `lu` to row stride `stride` (at least the
    /// current one), keeping every element.
    fn relayout(&mut self, stride: usize) {
        let old = self.stride;
        for buf in [&mut self.cross, &mut self.lu] {
            let mut grown = vec![0.0; stride * stride];
            for k in 0..old {
                grown[k * stride..k * stride + old].copy_from_slice(&buf[k * old..(k + 1) * old]);
            }
            *buf = grown;
        }
        self.stride = stride;
    }

    /// The factored entry count.
    fn factored(&self) -> usize {
        self.fwd.len()
    }

    /// Appends `t` to the interference system: one new row (gains from
    /// every existing transmitter into `t`'s receiver) and one new column
    /// (gain from `t`'s transmitter into every existing receiver), both
    /// restricted to co-channel entries. Saves the current solution so
    /// [`PowerControlWorkspace::pop_candidate`] can restore it, and seeds
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

        // Save the current solution for pop_candidate.
        self.p_saved.clear();
        self.p_saved.extend_from_slice(&self.p);

        let n = self.txs.len();
        if n == self.stride {
            self.relayout((n + 1).max(2 * n));
        }
        let stride = self.stride;
        // New column: t's transmitter interfering with existing receivers;
        // new row: existing transmitters interfering with t's receiver.
        let mut new_row_sum = 0.0;
        for (k, other) in self.txs.iter().enumerate() {
            let (col, row) = if other.band() == t.band() {
                (topo.gain(t.tx(), other.rx()), topo.gain(other.tx(), t.rx()))
            } else {
                (0.0, 0.0)
            };
            self.cross[k * stride + n] = col;
            self.row_sum[k] += col;
            self.cross[n * stride + k] = row;
            new_row_sum += row;
        }
        self.cross[n * stride + n] = 0.0; // diagonal
        self.row_sum.push(new_row_sum);

        self.txs.push(t);
        self.direct_gain.push(g);
        self.noise.push(eta_w);
        self.cap.push(cap);
        self.p.push(floor);
        Ok(())
    }

    /// Undoes the most recent [`PowerControlWorkspace::push_candidate`]
    /// — and, if a solve factored it, its factor row and column — and
    /// restores the solution saved by it. Only the last push can be
    /// undone, and only before the next one.
    ///
    /// # Panics
    ///
    /// Panics if the workspace is empty.
    pub fn pop_candidate(&mut self) {
        assert!(!self.txs.is_empty(), "nothing to pop");
        if self.factored() == self.txs.len() {
            self.fwd.pop();
        }
        self.txs.pop();
        self.direct_gain.pop();
        self.noise.pop();
        self.cap.pop();
        self.row_sum.pop();
        let (n, stride) = (self.txs.len(), self.stride);
        for (k, sum) in self.row_sum.iter_mut().enumerate() {
            *sum -= self.cross[k * stride + n];
        }
        self.p.clear();
        self.p.extend_from_slice(&self.p_saved);
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
        if self.row_sum.is_empty() || self.noise.iter().any(|&n| n <= 0.0) {
            return false;
        }
        let gamma = phy.sinr_threshold();
        let min_ratio = self
            .row_sum
            .iter()
            .zip(&self.direct_gain)
            .map(|(s, g)| gamma * s / g)
            .fold(f64::INFINITY, f64::min);
        min_ratio > 1.0
    }

    /// Solves `(I − A)·p = b` for the component-wise minimal feasible
    /// power vector of the current entries, or proves infeasibility.
    ///
    /// The matrix is a Z-matrix with unit diagonal; elimination without
    /// pivoting keeps every pivot positive iff it is a non-singular
    /// M-matrix, i.e. iff `ρ(A) < 1` and a finite minimal power vector
    /// exists. The factors of the entries a previous solve factored are
    /// kept; each entry pushed since extends them by one bordering row
    /// and column (see the module docs). A non-positive pivot proves
    /// infeasibility, and otherwise back-substitution yields the minimal
    /// vector, which is then checked against the transmitter caps.
    /// Zero-noise entries get the identity row and `b_k = 0`.
    ///
    /// Every solve between two clears must pass the same `phy`: the kept
    /// factors were eliminated under its SINR target.
    ///
    /// On `Err` [`PowerControlWorkspace::powers_watts`] is stale for the
    /// rejected entry set; callers must
    /// [`PowerControlWorkspace::pop_candidate`] (which restores the saved
    /// solution) or [`PowerControlWorkspace::clear`].
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
        self.x.clear();
        self.x.resize(n, 0.0);
        for k in (0..n).rev() {
            let row = &self.lu[k * self.stride..k * self.stride + n];
            let mut acc = self.fwd[k];
            for (u, x) in row[k + 1..].iter().zip(&self.x[k + 1..]) {
                acc -= u * x;
            }
            self.x[k] = acc / row[k];
        }
        if let Some(k) = (0..n).find(|&k| self.x[k] > self.cap[k]) {
            return Err(PowerControlError::Infeasible {
                transmission_index: k,
            });
        }
        self.p.clear();
        self.p.extend_from_slice(&self.x);
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

    /// Extends the factors by the first unfactored entry `m`: `U`'s new
    /// column `m` by forward substitution with the stored multipliers,
    /// then row `m`'s multipliers by forward substitution against `U`,
    /// its pivot and its forward-eliminated right-hand side. Each element
    /// gets the right-looking elimination's operations in its order:
    /// step `j` updates it by `l·U_j` unless the multiplier `l` is 0.
    /// Returns `false`, with the factors as before, if the pivot is not
    /// positive.
    fn factor_next(&mut self, gamma: f64) -> bool {
        let (m, stride) = (self.factored(), self.stride);
        for i in 0..m {
            let mut u = -self.scale(gamma, i) * self.cross[i * stride + m];
            // Row `i`'s multipliers against column `m` of the rows above.
            let column = self.lu[m..].iter().step_by(stride);
            for (&l, &above) in self.lu[i * stride..i * stride + i].iter().zip(column) {
                if l == 0.0 {
                    continue;
                }
                u -= l * above;
            }
            self.lu[i * stride + m] = u;
        }
        let scale = self.scale(gamma, m);
        let (above, below) = self.lu.split_at_mut(m * stride);
        let row = &mut below[..=m];
        for (l, (r, &g)) in row.iter_mut().zip(&self.cross[m * stride..]).enumerate() {
            *r = if l == m { 1.0 } else { -scale * g };
        }
        let mut rhs = scale * self.noise[m];
        for (j, u) in above.chunks_exact(stride).enumerate() {
            let l = row[j] / u[j];
            row[j] = l;
            // Cross-band couplings are exact zeros; skipping them keeps
            // the elimination near-linear on band-disjoint sets.
            if l == 0.0 {
                continue;
            }
            for (r, &u) in row[j + 1..].iter_mut().zip(&u[j + 1..=m]) {
                *r -= l * u;
            }
            rhs -= l * self.fwd[j];
        }
        // A rejected pivot leaves row `m` and column `m` as scratch beyond
        // the factored extent.
        if row[m] <= 0.0 {
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
        /// Row `k` of the cross gains, over the held entries.
        fn cross_row(&self, k: usize) -> &[f64] {
            &self.cross[k * self.stride..k * self.stride + self.len()]
        }

        /// Row `i` of the factors, over the factored entries.
        fn lu_row(&self, i: usize) -> &[f64] {
            &self.lu[i * self.stride..i * self.stride + self.factored()]
        }
    }

    /// Where a from-scratch elimination of the held system stops.
    struct Oracle {
        /// The verdict, with the powers on success.
        verdict: Result<Vec<f64>, PowerControlError>,
        /// Entries factored: all of them, or those before the first
        /// non-positive pivot.
        factored: usize,
        /// Row-major `n × n` factors, multipliers stored below the
        /// diagonal.
        lu: Vec<f64>,
        /// The forward-eliminated right-hand side.
        fwd: Vec<f64>,
    }

    /// The oracle: a right-looking elimination of the whole `(I − A)·p = b`
    /// from the workspace's raw cross gains, as `solve` computed it before
    /// its factors were kept across probes.
    fn from_scratch(ws: &PowerControlWorkspace, phy: &PhyConfig) -> Oracle {
        let n = ws.txs.len();
        let gamma = phy.sinr_threshold();
        let mut lu = Vec::with_capacity(n * n);
        let mut fwd = Vec::with_capacity(n);
        for k in 0..n {
            let scale = if ws.noise[k] > 0.0 {
                gamma / ws.direct_gain[k]
            } else {
                0.0
            };
            lu.extend(ws.cross_row(k).iter().enumerate().map(|(l, &g)| {
                if l == k {
                    1.0
                } else {
                    -scale * g
                }
            }));
            fwd.push(scale * ws.noise[k]);
        }
        let reject = |k| PowerControlError::Infeasible {
            transmission_index: k,
        };
        for j in 0..n {
            let pivot = lu[j * n + j];
            if pivot <= 0.0 {
                return Oracle {
                    verdict: Err(reject(n - 1)),
                    factored: j,
                    lu,
                    fwd,
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
        let verdict = match (0..n).find(|&k| x[k] > ws.cap[k]) {
            Some(k) => Err(reject(k)),
            None => Ok(x),
        };
        Oracle {
            verdict,
            factored: n,
            lu,
            fwd,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Everything a rejected probe must leave as it found it.
    type State = (
        Vec<Transmission>,
        Vec<Vec<u64>>,
        Vec<u64>,
        Vec<Vec<u64>>,
        Vec<u64>,
    );

    fn state(ws: &PowerControlWorkspace) -> State {
        (
            ws.txs.clone(),
            (0..ws.len()).map(|k| bits(ws.cross_row(k))).collect(),
            bits(&ws.p),
            (0..ws.factored()).map(|i| bits(ws.lu_row(i))).collect(),
            bits(&ws.fwd),
        )
    }

    /// What the lockstep saw, so the test can show it reached every case.
    #[derive(Debug, Default)]
    struct Seen {
        accepted: usize,
        cap: usize,
        pivot: usize,
        spectral: usize,
        zero_noise_accepted: usize,
        multi_push: usize,
        pops_after_accept: usize,
    }

    /// Checks a `solve` that just returned `got` against the oracle, bit
    /// for bit: the verdict, the powers on success, and the kept factors
    /// with their forward-eliminated right-hand side.
    fn check_solve(
        ws: &PowerControlWorkspace,
        phy: &PhyConfig,
        spectral: bool,
        got: &Result<(), PowerControlError>,
        seen: &mut Seen,
    ) {
        let n = ws.len();
        if spectral {
            let want = PowerControlError::Infeasible {
                transmission_index: n - 1,
            };
            assert_eq!(*got, Err(want));
            seen.spectral += 1;
            return;
        }
        let oracle = from_scratch(ws, phy);
        let k = oracle.factored;
        assert_eq!(ws.factored(), k, "factored entries");
        for i in 0..k {
            assert_eq!(
                bits(ws.lu_row(i)),
                bits(&oracle.lu[i * n..i * n + k]),
                "row {i}"
            );
        }
        assert_eq!(bits(&ws.fwd), bits(&oracle.fwd[..k]), "forward rhs");
        match &oracle.verdict {
            Ok(x) => {
                assert_eq!(*got, Ok(()));
                assert_eq!(bits(ws.powers_watts()), bits(x), "powers");
                seen.accepted += 1;
                if ws.noise.iter().any(|&e| e <= 0.0) {
                    seen.zero_noise_accepted += 1;
                }
            }
            Err(e) => {
                assert_eq!(got.as_ref().err(), Some(e));
                if oracle.factored < n {
                    seen.pivot += 1;
                } else {
                    seen.cap += 1;
                }
            }
        }
    }

    /// The bordered factors in lockstep with a from-scratch elimination
    /// over random probe, push-push-solve, pop and clear sequences on
    /// crowded geometries: bit-equal verdicts, powers and factors, zero
    /// noise, cap, pivot and spectral rejects all reached, and a rejected
    /// probe leaves the workspace exactly as it found it.
    #[test]
    fn bordered_factors_match_a_from_scratch_elimination() {
        let spectrum = SpectrumState::new(vec![
            Bandwidth::from_megahertz(1.0),
            Bandwidth::from_megahertz(2.0),
            Bandwidth::from_megahertz(0.0),
        ]);
        let mut rng = Rng::seed_from(11);
        let mut seen = Seen::default();
        let mut ws = PowerControlWorkspace::new();
        for _ in 0..60 {
            let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 3);
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
                .map(|_| Power::from_watts([20.0, 1.0, 1e-3][rng.index(3)]))
                .collect();
            // A transmission between two nodes no held entry uses.
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
                    Transmission::new(tx, rx, BandId::from_index(rng.index(3)))
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
                            continue;
                        }
                        let spectral = ws.provably_infeasible(&phy);
                        let got = ws.solve(&phy);
                        check_solve(&ws, &phy, spectral, &got, &mut seen);
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
                        check_solve(&ws, &phy, spectral, &got, &mut seen);
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
                            check_solve(&ws, &phy, spectral, &got, &mut seen);
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
            ("cap rejects", seen.cap),
            ("pivot rejects", seen.pivot),
            ("spectral rejects", seen.spectral),
            (
                "accepted sets with zero-noise entries",
                seen.zero_noise_accepted,
            ),
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
