//! Downlink service sessions `𝒮` (paper §II-A).

use crate::NodeId;
use greencell_units::DataRate;
use std::fmt;

/// Identifier of a downlink service session, `s ∈ 𝒮 = {1, …, S}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub(crate) usize);

impl SessionId {
    /// Creates a session id from a raw dense index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }

    /// The dense index of this session.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A downlink Internet service session `{d_s, v_s(t), s_s(t)}`.
///
/// The *destination* `d_s` is fixed; the *source base station* `s_s(t)` is
/// chosen fresh every slot by the S2 resource-allocation subproblem, so it
/// is not stored here. The required throughput `v_s(t)` is modelled as a
/// constant demand rate in the paper's evaluation (100 kbps per session);
/// the simulator derives per-slot packet requirements from its scenario's
/// demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    id: SessionId,
    destination: NodeId,
    demand: DataRate,
}

impl Session {
    pub(crate) fn new(id: SessionId, destination: NodeId, demand: DataRate) -> Self {
        Self {
            id,
            destination,
            demand,
        }
    }

    /// This session's identifier.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The fixed destination node `d_s`.
    #[must_use]
    pub fn destination(&self) -> NodeId {
        self.destination
    }
}

impl fmt::Display for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {} @ {}", self.id, self.destination, self.demand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Session::new(
            SessionId::from_index(1),
            NodeId::from_index(7),
            DataRate::from_kilobits_per_second(100.0),
        );
        assert_eq!(s.id().index(), 1);
        assert_eq!(s.destination().index(), 7);
    }

    #[test]
    fn display() {
        let s = Session::new(
            SessionId::from_index(0),
            NodeId::from_index(2),
            DataRate::from_bits_per_second(8.0),
        );
        assert_eq!(s.to_string(), "s0 → n2 @ 8 bit/s");
    }
}
