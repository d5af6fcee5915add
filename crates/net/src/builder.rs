//! Incremental construction and validation of a [`Network`].

use crate::{
    BandSet, Network, NetworkError, NodeId, NodeKind, PathLossModel, Point, Session, SessionId,
    Topology,
};
use greencell_units::DataRate;

/// Builder for [`Network`] values.
///
/// Nodes receive dense ids in insertion order. Every node defaults to full
/// spectrum access (`ℳ_i = ℳ`); restrict users with
/// [`NetworkBuilder::set_bands`] to model the paper's "only a random subset
/// of the spectrum bands are available at each mobile user".
///
/// # Examples
///
/// ```
/// use greencell_net::{NetworkBuilder, PathLossModel, Point, BandId, BandSet};
/// use greencell_units::DataRate;
///
/// let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 5);
/// let bs = b.add_base_station(Point::new(500.0, 500.0));
/// let u = b.add_user(Point::new(700.0, 900.0));
/// b.set_bands(u, [BandId::from_index(0), BandId::from_index(3)].into_iter().collect());
/// b.add_session(u, DataRate::from_kilobits_per_second(100.0));
/// let net = b.build()?;
/// assert_eq!(net.link_bands(bs, u).len(), 2);
/// # Ok::<(), greencell_net::NetworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    path_loss: PathLossModel,
    band_count: usize,
    nodes: Vec<(NodeKind, Point)>,
    bands: Vec<BandSet>,
    sessions: Vec<(NodeId, DataRate)>,
    shadowing_db: Vec<(NodeId, NodeId, f64)>,
    gain_floor: f64,
}

impl NetworkBuilder {
    /// Creates a builder for a network with `band_count` spectrum bands.
    #[must_use]
    pub fn new(path_loss: PathLossModel, band_count: usize) -> Self {
        Self {
            path_loss,
            band_count,
            nodes: Vec::new(),
            bands: Vec::new(),
            sessions: Vec::new(),
            shadowing_db: Vec::new(),
            gain_floor: 0.0,
        }
    }

    fn add_node(&mut self, kind: NodeKind, position: Point) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push((kind, position));
        self.bands.push(BandSet::all(self.band_count));
        id
    }

    /// Adds a base station at `position`, returning its id.
    pub fn add_base_station(&mut self, position: Point) -> NodeId {
        self.add_node(NodeKind::BaseStation, position)
    }

    /// Adds a mobile user at `position`, returning its id.
    pub fn add_user(&mut self, position: Point) -> NodeId {
        self.add_node(NodeKind::User, position)
    }

    /// Restricts node `i`'s spectrum access to exactly `bands`.
    ///
    /// # Panics
    ///
    /// Panics if `i` was not created by this builder.
    pub fn set_bands(&mut self, i: NodeId, bands: BandSet) -> &mut Self {
        self.bands[i.index()] = bands;
        self
    }

    /// Applies a symmetric shadowing offset in decibels to the `(i, j)`
    /// link: the propagation gain becomes `C·d^{-γ}·10^{db/10}` in both
    /// directions. Log-normal shadowing (the standard extension of the
    /// paper's pure path-loss model) is `db ~ N(0, σ²)` per link; callers
    /// draw the offsets, keeping this crate free of randomness.
    ///
    /// Later calls for the same pair override earlier ones.
    pub fn set_shadowing_db(&mut self, i: NodeId, j: NodeId, db: f64) -> &mut Self {
        self.shadowing_db
            .retain(|&(a, b, _)| !((a == i && b == j) || (a == j && b == i)));
        self.shadowing_db.push((i, j, db));
        self
    }

    /// Sets the interference pruning floor: after shadowing, every gain
    /// strictly below `floor` becomes exactly `0.0` in the assembled
    /// [`Topology`]. `0.0` (the default) disables pruning — the gain
    /// matrix is bit-identical to the unpruned one. Callers pick a floor
    /// below which a link can neither be scheduled nor raise interference
    /// above thermal noise (see `PhyConfig::prune_gain_floor` in
    /// `greencell-phy`), so pruning only discards physically irrelevant
    /// cross terms.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is negative or non-finite.
    pub fn set_gain_floor(&mut self, floor: f64) -> &mut Self {
        assert!(
            floor >= 0.0 && floor.is_finite(),
            "gain floor must be finite and non-negative, got {floor}"
        );
        self.gain_floor = floor;
        self
    }

    /// Adds a downlink session terminating at `destination` with the given
    /// throughput requirement.
    pub fn add_session(&mut self, destination: NodeId, demand: DataRate) -> SessionId {
        let id = SessionId(self.sessions.len());
        self.sessions.push((destination, demand));
        id
    }

    /// Validates the configuration and assembles the [`Network`].
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetworkError`]; see that
    /// type for the full list.
    pub fn build(&self) -> Result<Network, NetworkError> {
        if !self.nodes.iter().any(|(k, _)| k.is_base_station()) {
            return Err(NetworkError::NoBaseStations);
        }
        if self.band_count == 0 {
            return Err(NetworkError::NoBands);
        }
        for (idx, set) in self.bands.iter().enumerate() {
            if set.iter().any(|b| b.index() >= self.band_count) {
                return Err(NetworkError::BandOutOfRange { node: NodeId(idx) });
            }
        }
        let mut sessions = Vec::with_capacity(self.sessions.len());
        for (idx, &(dest, demand)) in self.sessions.iter().enumerate() {
            let sid = SessionId(idx);
            if dest.index() >= self.nodes.len() {
                return Err(NetworkError::UnknownDestination {
                    session: sid,
                    node: dest,
                });
            }
            if self.nodes[dest.index()].0.is_base_station() {
                return Err(NetworkError::DestinationIsBaseStation { session: sid });
            }
            sessions.push(Session::new(sid, dest, demand));
        }
        Ok(Network::assemble(
            Topology::with_shadowing(
                self.nodes.clone(),
                self.path_loss,
                &self.shadowing_db,
                self.gain_floor,
            ),
            self.band_count,
            self.bands.clone(),
            sessions,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BandId;

    fn base() -> NetworkBuilder {
        NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 3)
    }

    #[test]
    fn builds_valid_network() {
        let mut b = base();
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let u = b.add_user(Point::new(10.0, 0.0));
        b.add_session(u, DataRate::from_kilobits_per_second(100.0));
        let net = b.build().unwrap();
        assert_eq!(net.topology().base_station_count(), 1);
        assert_eq!(net.session_count(), 1);
        assert_eq!(net.link_bands(bs, u).len(), 3);
        assert_eq!(net.session(SessionId(0)).destination(), u);
    }

    #[test]
    fn rejects_missing_base_station() {
        let mut b = base();
        b.add_user(Point::new(0.0, 0.0));
        assert_eq!(b.build().unwrap_err(), NetworkError::NoBaseStations);
    }

    #[test]
    fn rejects_zero_bands() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 0);
        b.add_base_station(Point::new(0.0, 0.0));
        assert_eq!(b.build().unwrap_err(), NetworkError::NoBands);
    }

    #[test]
    fn rejects_band_out_of_range() {
        let mut b = base();
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        b.set_bands(bs, [BandId::from_index(7)].into_iter().collect());
        assert!(matches!(
            b.build().unwrap_err(),
            NetworkError::BandOutOfRange { .. }
        ));
    }

    #[test]
    fn rejects_unknown_destination() {
        let mut b = base();
        b.add_base_station(Point::new(0.0, 0.0));
        b.add_session(NodeId::from_index(9), DataRate::ZERO);
        assert!(matches!(
            b.build().unwrap_err(),
            NetworkError::UnknownDestination { .. }
        ));
    }

    #[test]
    fn rejects_bs_destination() {
        let mut b = base();
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        b.add_session(bs, DataRate::ZERO);
        assert!(matches!(
            b.build().unwrap_err(),
            NetworkError::DestinationIsBaseStation { .. }
        ));
    }

    #[test]
    fn link_bands_is_intersection() {
        let mut b = base();
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let u = b.add_user(Point::new(5.0, 5.0));
        b.set_bands(u, [BandId::from_index(1)].into_iter().collect());
        let net = b.build().unwrap();
        let common = net.link_bands(bs, u);
        assert_eq!(
            common.iter().collect::<Vec<_>>(),
            vec![BandId::from_index(1)]
        );
    }

    #[test]
    fn shadowing_scales_gains_symmetrically() {
        let mut b = base();
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let u = b.add_user(Point::new(100.0, 0.0));
        b.add_session(u, DataRate::ZERO);
        let plain = b.build().unwrap();
        b.set_shadowing_db(bs, u, 10.0); // +10 dB = ×10
        let shadowed = b.build().unwrap();
        let g0 = plain.topology().gain(bs, u);
        assert!((shadowed.topology().gain(bs, u) / g0 - 10.0).abs() < 1e-9);
        assert!((shadowed.topology().gain(u, bs) / g0 - 10.0).abs() < 1e-9);
        // Overriding replaces, not stacks.
        b.set_shadowing_db(u, bs, -10.0);
        let re = b.build().unwrap();
        assert!((re.topology().gain(bs, u) / g0 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn gain_floor_flows_through_to_the_topology() {
        let mut b = base();
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let near = b.add_user(Point::new(100.0, 0.0));
        let far = b.add_user(Point::new(9000.0, 0.0));
        b.add_session(near, DataRate::ZERO);
        let plain = b.build().unwrap();
        let floor = plain.topology().gain(bs, far) * 2.0;
        b.set_gain_floor(floor);
        let pruned = b.build().unwrap();
        assert_eq!(pruned.topology().gain_floor(), floor);
        assert_eq!(pruned.topology().gain(bs, far), 0.0);
        assert_eq!(
            pruned.topology().gain(bs, near),
            plain.topology().gain(bs, near)
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(
            NetworkError::NoBaseStations.to_string(),
            "network has no base stations"
        );
    }
}
