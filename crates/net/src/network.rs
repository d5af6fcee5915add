//! The assembled network: topology + spectrum availability + sessions.

use crate::{BandSet, NodeId, Session, SessionId, Topology};
use std::error::Error;
use std::fmt;

/// A fully-assembled multi-hop cellular network (paper §II-A).
///
/// Combines the static [`Topology`], the per-node spectrum availability
/// sets `ℳ_i`, and the downlink session set `𝒮`. Construct it through
/// [`crate::NetworkBuilder`], which validates the invariants listed on
/// [`NetworkError`].
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    topology: Topology,
    band_count: usize,
    availability: Vec<BandSet>,
    sessions: Vec<Session>,
}

impl Network {
    pub(crate) fn assemble(
        topology: Topology,
        band_count: usize,
        availability: Vec<BandSet>,
        sessions: Vec<Session>,
    ) -> Self {
        Self {
            topology,
            band_count,
            availability,
            sessions,
        }
    }

    /// The node layout and gain matrix.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Total number of spectrum bands `M`.
    #[must_use]
    pub fn band_count(&self) -> usize {
        self.band_count
    }

    /// The bands usable on directed link `(i, j)`: `ℳ_i ∩ ℳ_j`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn link_bands(&self, i: NodeId, j: NodeId) -> BandSet {
        self.availability[i.index()].intersection(self.availability[j.index()])
    }

    /// All sessions in id order.
    #[must_use]
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// The session with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn session(&self, id: SessionId) -> &Session {
        &self.sessions[id.index()]
    }

    /// Number of sessions `S`.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

/// Error building a [`Network`] that violates a model invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// The network must contain at least one base station — constraint (19)
    /// requires every session to have a source BS each slot.
    NoBaseStations,
    /// The network must contain at least one spectrum band.
    NoBands,
    /// A session destination refers to a node outside the topology.
    UnknownDestination {
        /// The offending session.
        session: SessionId,
        /// The dangling node id.
        node: NodeId,
    },
    /// A session's destination is a base station; downlink sessions must
    /// terminate at mobile users (§III-A serves destinations *from* BSs).
    DestinationIsBaseStation {
        /// The offending session.
        session: SessionId,
    },
    /// A node was granted a band index ≥ the declared band count.
    BandOutOfRange {
        /// The node with the invalid grant.
        node: NodeId,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoBaseStations => write!(f, "network has no base stations"),
            Self::NoBands => write!(f, "network has no spectrum bands"),
            Self::UnknownDestination { session, node } => {
                write!(f, "session {session} destination {node} does not exist")
            }
            Self::DestinationIsBaseStation { session } => {
                write!(f, "session {session} destination is a base station")
            }
            Self::BandOutOfRange { node } => {
                write!(
                    f,
                    "node {node} granted a band outside the declared band count"
                )
            }
        }
    }
}

impl Error for NetworkError {}
