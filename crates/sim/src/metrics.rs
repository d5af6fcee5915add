//! Per-run measurement collection — everything Fig. 2 plots.

use greencell_stochastic::Series;

/// Everything recorded over one simulation run.
///
/// Units follow the paper's axes: costs in the cost function's currency,
/// BS energy buffers in kWh (Fig. 2(d)), user energy buffers in Wh
/// (Fig. 2(e)), backlogs in packets (Fig. 2(b)/(c)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    // Fields are crate-visible so the snapshot codec (`crate::snapshot`)
    // can serialize and rebuild a run's metrics without widening the
    // public API; everything else goes through the accessors below.
    pub(crate) cost: Series,
    pub(crate) grid_kwh: Series,
    pub(crate) backlog_bs: Series,
    pub(crate) backlog_users: Series,
    pub(crate) buffer_bs_kwh: Series,
    pub(crate) buffer_users_wh: Series,
    pub(crate) admitted: Series,
    pub(crate) routed: Series,
    pub(crate) scheduled_links: Series,
    pub(crate) relaxed_cost: Series,
    pub(crate) lyapunov: Series,
    pub(crate) delivered_total: u64,
    pub(crate) delivered_per_session: Vec<u64>,
    pub(crate) shed_total: u64,
    pub(crate) degraded_slots: u64,
    pub(crate) degradation_events: u64,
    pub(crate) lower_bound: Option<f64>,
}

impl RunMetrics {
    /// Creates an empty collection.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_slot(
        &mut self,
        cost: f64,
        grid_kwh: f64,
        backlog_bs: f64,
        backlog_users: f64,
        buffer_bs_kwh: f64,
        buffer_users_wh: f64,
        admitted: f64,
        routed: f64,
        scheduled_links: f64,
        shed: u64,
    ) {
        self.cost.push(cost);
        self.grid_kwh.push(grid_kwh);
        self.backlog_bs.push(backlog_bs);
        self.backlog_users.push(backlog_users);
        self.buffer_bs_kwh.push(buffer_bs_kwh);
        self.buffer_users_wh.push(buffer_users_wh);
        self.admitted.push(admitted);
        self.routed.push(routed);
        self.scheduled_links.push(scheduled_links);
        self.shed_total += shed;
    }

    pub(crate) fn record_degradation(&mut self, degraded: bool, events: u64) {
        self.degraded_slots += u64::from(degraded);
        self.degradation_events += events;
    }

    pub(crate) fn record_relaxed(&mut self, cost: f64) {
        self.relaxed_cost.push(cost);
    }

    pub(crate) fn record_lyapunov(&mut self, value: f64) {
        self.lyapunov.push(value);
    }

    pub(crate) fn set_delivered(&mut self, per_session: Vec<u64>) {
        self.delivered_total = per_session.iter().sum();
        self.delivered_per_session = per_session;
    }

    pub(crate) fn set_lower_bound(&mut self, bound: f64) {
        self.lower_bound = Some(bound);
    }

    /// Per-slot energy cost `f(P(t))` — Fig. 2(a)'s upper-bound input.
    #[must_use]
    pub fn cost_series(&self) -> &Series {
        &self.cost
    }

    /// Time-averaged energy cost `ψ` (the upper bound of Theorem 4).
    #[must_use]
    pub fn average_cost(&self) -> f64 {
        self.cost.mean()
    }

    /// Per-slot total grid draw in kWh.
    #[must_use]
    pub fn grid_series(&self) -> &Series {
        &self.grid_kwh
    }

    /// Total BS data-queue backlog over time (Fig. 2(b)).
    #[must_use]
    pub fn backlog_bs_series(&self) -> &Series {
        &self.backlog_bs
    }

    /// Total user data-queue backlog over time (Fig. 2(c)).
    #[must_use]
    pub fn backlog_users_series(&self) -> &Series {
        &self.backlog_users
    }

    /// Total BS energy-buffer level in kWh over time (Fig. 2(d)).
    #[must_use]
    pub fn buffer_bs_series(&self) -> &Series {
        &self.buffer_bs_kwh
    }

    /// Total user energy-buffer level in Wh over time (Fig. 2(e)).
    #[must_use]
    pub fn buffer_users_series(&self) -> &Series {
        &self.buffer_users_wh
    }

    /// Admitted packets per slot.
    #[must_use]
    pub fn admitted_series(&self) -> &Series {
        &self.admitted
    }

    /// Routed packets per slot.
    #[must_use]
    pub fn routed_series(&self) -> &Series {
        &self.routed
    }

    /// Scheduled transmissions per slot.
    #[must_use]
    pub fn scheduled_series(&self) -> &Series {
        &self.scheduled_links
    }

    /// The relaxed controller's per-slot costs, when tracked.
    #[must_use]
    pub fn relaxed_cost_series(&self) -> &Series {
        &self.relaxed_cost
    }

    /// The Lyapunov function `L(Θ(t+1))` per slot — the scalar congestion
    /// measure whose bounded drift is Theorem 3's mechanism.
    #[must_use]
    pub fn lyapunov_series(&self) -> &Series {
        &self.lyapunov
    }

    /// Theorem 5's lower bound `ψ̄ − B/V`, when tracked.
    #[must_use]
    pub fn lower_bound(&self) -> Option<f64> {
        self.lower_bound
    }

    /// Total packets delivered to destinations.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered_total
    }

    /// Packets delivered per session, in session-id order.
    #[must_use]
    pub fn delivered_per_session(&self) -> &[u64] {
        &self.delivered_per_session
    }

    /// Jain's fairness index of per-session deliveries: 1.0 when every
    /// session received the same throughput.
    #[must_use]
    pub fn delivery_fairness(&self) -> f64 {
        let shares: Vec<f64> = self
            .delivered_per_session
            .iter()
            .map(|&d| d as f64)
            .collect();
        greencell_stochastic::jain_fairness(&shares)
    }

    /// Total transmissions shed due to energy deficits (should be 0).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_total
    }

    /// Slots where a fault was active or the controller degraded service.
    #[must_use]
    pub fn degraded_slots(&self) -> u64 {
        self.degraded_slots
    }

    /// Total [`greencell_core::DegradationEvent`]s the controller emitted.
    #[must_use]
    pub fn degradation_events(&self) -> u64 {
        self.degradation_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut m = RunMetrics::new();
        m.record_slot(1.0, 0.1, 10.0, 5.0, 2.0, 30.0, 100.0, 90.0, 3.0, 0);
        m.record_slot(3.0, 0.3, 20.0, 15.0, 2.5, 35.0, 100.0, 80.0, 4.0, 1);
        assert_eq!(m.average_cost(), 2.0);
        assert_eq!(m.cost_series().len(), 2);
        assert_eq!(m.backlog_bs_series().last(), Some(20.0));
        assert_eq!(m.shed(), 1);
        assert_eq!(m.lower_bound(), None);
        m.set_lower_bound(-4.0);
        assert_eq!(m.lower_bound(), Some(-4.0));
    }

    #[test]
    fn per_session_delivery_and_fairness() {
        let mut m = RunMetrics::new();
        m.set_delivered(vec![300, 300, 300]);
        assert_eq!(m.delivered(), 900);
        assert_eq!(m.delivered_per_session(), &[300, 300, 300]);
        assert_eq!(m.delivery_fairness(), 1.0);
        m.set_delivered(vec![900, 0, 0]);
        assert!((m.delivery_fairness() - 1.0 / 3.0).abs() < 1e-12);
    }
}
