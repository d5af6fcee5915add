//! Link-band activations `α^m_ij(t)` and the single-radio constraint (22).

use greencell_net::{BandId, Network, NodeId};
use std::error::Error;
use std::fmt;

/// One activated link-band: `α^m_ij(t) = 1` for `tx = i`, `rx = j`,
/// `band = m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transmission {
    tx: NodeId,
    rx: NodeId,
    band: BandId,
}

impl Transmission {
    /// Creates a transmission descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `tx == rx`; self-links do not exist in the model.
    #[must_use]
    pub fn new(tx: NodeId, rx: NodeId, band: BandId) -> Self {
        assert!(tx != rx, "self-transmission {tx} → {tx} is not a link");
        Self { tx, rx, band }
    }

    /// The transmitting node `i`.
    #[must_use]
    pub fn tx(&self) -> NodeId {
        self.tx
    }

    /// The receiving node `j`.
    #[must_use]
    pub fn rx(&self) -> NodeId {
        self.rx
    }

    /// The band `m` used.
    #[must_use]
    pub fn band(&self) -> BandId {
        self.band
    }
}

impl fmt::Display for Transmission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {} on {}", self.tx, self.rx, self.band)
    }
}

/// Error adding a transmission that violates a link-layer constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A node in the new transmission is already transmitting or receiving —
    /// the single-radio constraint (22) allows each node at most one role on
    /// one band per slot (and (22) subsumes (20) and (21)).
    NodeBusy {
        /// The node that is already scheduled.
        node: NodeId,
    },
    /// The band is not available at both endpoints (`m ∉ ℳ_i ∩ ℳ_j`).
    BandUnavailable {
        /// The offending transmission.
        transmission: Transmission,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NodeBusy { node } => {
                write!(f, "node {node} already scheduled this slot (single radio)")
            }
            Self::BandUnavailable { transmission } => {
                write!(f, "band not available at both endpoints of {transmission}")
            }
        }
    }
}

impl Error for ScheduleError {}

/// The set of simultaneous transmissions in one slot.
///
/// Structurally enforces constraint (22): [`Schedule::try_add`] rejects any
/// transmission whose endpoints are already busy, so a `Schedule` can never
/// hold a node in two roles. SINR feasibility (constraint (24)) is a
/// property of transmit *powers* and is checked by
/// [`crate::min_power_assignment`], not here.
///
/// # Examples
///
/// ```
/// use greencell_net::{NetworkBuilder, PathLossModel, Point, BandId};
/// use greencell_phy::{Schedule, Transmission, ScheduleError};
///
/// let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
/// let bs = b.add_base_station(Point::new(0.0, 0.0));
/// let u1 = b.add_user(Point::new(100.0, 0.0));
/// let u2 = b.add_user(Point::new(0.0, 100.0));
/// let net = b.build()?;
///
/// let mut s = Schedule::new();
/// s.try_add(&net, Transmission::new(bs, u1, BandId::from_index(0)))?;
/// // The BS radio is busy: a second transmission from it is rejected.
/// let err = s.try_add(&net, Transmission::new(bs, u2, BandId::from_index(1)));
/// assert!(matches!(err, Err(ScheduleError::NodeBusy { .. })));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    transmissions: Vec<Transmission>,
}

impl Schedule {
    /// Creates an empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The scheduled transmissions, in insertion order.
    #[must_use]
    pub fn transmissions(&self) -> &[Transmission] {
        &self.transmissions
    }

    /// Number of active transmissions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transmissions.len()
    }

    /// `true` if nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transmissions.is_empty()
    }

    /// Removes every transmission, retaining the allocation so a schedule
    /// reused across slots performs no heap allocation in steady state.
    pub fn clear(&mut self) {
        self.transmissions.clear();
    }

    /// Pre-allocates room for `entries` further transmissions, so
    /// [`Schedule::try_add`] up to that many performs no heap allocation.
    /// The single-radio constraint caps any schedule at `⌊n/2⌋` entries,
    /// making that the natural bound to pass.
    pub fn reserve(&mut self, entries: usize) {
        self.transmissions.reserve(entries);
    }

    /// `true` if `node` already transmits or receives in this schedule.
    #[must_use]
    pub fn is_busy(&self, node: NodeId) -> bool {
        self.transmissions
            .iter()
            .any(|t| t.tx == node || t.rx == node)
    }

    /// Attempts to activate `t`, enforcing (22) and band availability.
    ///
    /// Returns the index of the new transmission within
    /// [`Schedule::transmissions`].
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::NodeBusy`] if either endpoint is already active;
    /// * [`ScheduleError::BandUnavailable`] if `t.band() ∉ ℳ_i ∩ ℳ_j`.
    pub fn try_add(&mut self, net: &Network, t: Transmission) -> Result<usize, ScheduleError> {
        if self.is_busy(t.tx) {
            return Err(ScheduleError::NodeBusy { node: t.tx });
        }
        if self.is_busy(t.rx) {
            return Err(ScheduleError::NodeBusy { node: t.rx });
        }
        if !net.link_bands(t.tx, t.rx).contains(t.band) {
            return Err(ScheduleError::BandUnavailable { transmission: t });
        }
        self.transmissions.push(t);
        Ok(self.transmissions.len() - 1)
    }

    /// Removes the transmission at `index`, returning it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove(&mut self, index: usize) -> Transmission {
        self.transmissions.remove(index)
    }

    /// The transmission (if any) whose transmitter is `node`.
    #[must_use]
    pub fn transmission_from(&self, node: NodeId) -> Option<&Transmission> {
        self.transmissions.iter().find(|t| t.tx == node)
    }

    /// The transmission (if any) whose receiver is `node`.
    #[must_use]
    pub fn transmission_to(&self, node: NodeId) -> Option<&Transmission> {
        self.transmissions.iter().find(|t| t.rx == node)
    }

    /// Iterates over the scheduled transmissions.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            inner: self.transmissions.iter(),
        }
    }
}

/// Iterator over a schedule's transmissions (see [`Schedule::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    inner: std::slice::Iter<'a, Transmission>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Transmission;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Schedule {
    type Item = &'a Transmission;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_net::{BandSet, NetworkBuilder, PathLossModel, Point};

    fn three_node_net() -> (Network, NodeId, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let u1 = b.add_user(Point::new(100.0, 0.0));
        let u2 = b.add_user(Point::new(0.0, 100.0));
        (b.build().unwrap(), bs, u1, u2)
    }

    use greencell_net::Network;

    #[test]
    fn add_and_query() {
        let (net, bs, u1, u2) = three_node_net();
        let mut s = Schedule::new();
        let idx = s
            .try_add(&net, Transmission::new(bs, u1, BandId::from_index(0)))
            .unwrap();
        assert_eq!(idx, 0);
        assert!(s.is_busy(bs));
        assert!(s.is_busy(u1));
        assert!(!s.is_busy(u2));
        assert_eq!(s.transmission_from(bs).unwrap().rx(), u1);
        assert_eq!(s.transmission_to(u1).unwrap().tx(), bs);
        assert!(s.transmission_from(u2).is_none());
    }

    #[test]
    fn single_radio_rejects_second_role() {
        let (net, bs, u1, u2) = three_node_net();
        let mut s = Schedule::new();
        s.try_add(&net, Transmission::new(bs, u1, BandId::from_index(0)))
            .unwrap();
        // u1 receiving already: cannot also transmit (self-interference, (21)).
        let err = s.try_add(&net, Transmission::new(u1, u2, BandId::from_index(1)));
        assert_eq!(err, Err(ScheduleError::NodeBusy { node: u1 }));
    }

    #[test]
    fn distinct_nodes_can_share_a_band() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let u1 = b.add_user(Point::new(100.0, 0.0));
        let bs2 = b.add_base_station(Point::new(2000.0, 2000.0));
        let u2 = b.add_user(Point::new(1900.0, 2000.0));
        let net = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_add(&net, Transmission::new(bs, u1, BandId::from_index(0)))
            .unwrap();
        s.try_add(&net, Transmission::new(bs2, u2, BandId::from_index(0)))
            .unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn band_availability_enforced() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let u = b.add_user(Point::new(100.0, 0.0));
        b.set_bands(u, [BandId::from_index(0)].into_iter().collect::<BandSet>());
        let net = b.build().unwrap();
        let mut s = Schedule::new();
        let err = s.try_add(&net, Transmission::new(bs, u, BandId::from_index(1)));
        assert!(matches!(err, Err(ScheduleError::BandUnavailable { .. })));
    }

    #[test]
    fn remove_frees_the_radio() {
        let (net, bs, u1, _) = three_node_net();
        let mut s = Schedule::new();
        let idx = s
            .try_add(&net, Transmission::new(bs, u1, BandId::from_index(0)))
            .unwrap();
        let t = s.remove(idx);
        assert_eq!(t.tx(), bs);
        assert!(s.is_empty());
        assert!(!s.is_busy(bs));
    }

    #[test]
    #[should_panic(expected = "not a link")]
    fn self_transmission_rejected() {
        let _ = Transmission::new(
            NodeId::from_index(1),
            NodeId::from_index(1),
            BandId::from_index(0),
        );
    }

    #[test]
    fn error_display() {
        let e = ScheduleError::NodeBusy {
            node: NodeId::from_index(2),
        };
        assert!(e.to_string().contains("single radio"));
    }

    #[test]
    fn iteration() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let u1 = b.add_user(Point::new(100.0, 0.0));
        let bs2 = b.add_base_station(Point::new(2000.0, 2000.0));
        let u2 = b.add_user(Point::new(1900.0, 2000.0));
        let net = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_add(&net, Transmission::new(bs, u1, BandId::from_index(0)))
            .unwrap();
        s.try_add(&net, Transmission::new(bs2, u2, BandId::from_index(0)))
            .unwrap();
        let txs: Vec<_> = s.iter().map(Transmission::tx).collect();
        assert_eq!(txs, vec![bs, bs2]);
        assert_eq!(s.iter().len(), 2);
        let for_loop: usize = (&s).into_iter().count();
        assert_eq!(for_loop, 2);
    }
}
