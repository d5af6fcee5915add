//! Queueing substrate: data queues, virtual link queues, the Lyapunov
//! function, and stability estimation (paper §II-F, §III-A, §IV-A/B).
//!
//! Strong stability of every queue in the network is the paper's headline
//! guarantee (Theorem 3), so the queues are first-class citizens here:
//!
//! * [`PacketQueue`] — a single discrete queue obeying the law
//!   `Q(t+1) = max{Q(t) − b(t), 0} + a(t)` of Theorem 1;
//! * [`DataQueueBank`] — the per-node per-session network-layer queues
//!   `Q^s_i(t)` of Eq. (15), including the destination rule (destinations
//!   deliver instead of queueing);
//! * [`LinkQueueBank`] — the per-link virtual queues `G_ij(t)` of Eq. (28)
//!   and their scaled twins `H_ij(t) = β·G_ij(t)` of Eq. (30);
//! * [`FlowPlan`] — the routing decision `l^s_ij(t)` that moves packets
//!   between the two banks;
//! * [`lyapunov_value`] — the quadratic Lyapunov function `L(Θ(t))`
//!   (§IV-B);
//! * [`StabilityEstimator`] — finite-horizon estimates of Definition 2's
//!   rate and strong stability.
//!
//! The per-slot state is sparse where the traffic is: a [`FlowPlan`]
//! stores only its non-zero flows, each bank keeps the indices of its
//! non-empty queues current, an advance touches only the queues the
//! slot's flows, admissions and service name, and [`lyapunov_value`] sums
//! over the non-empty queues alone — bit-identical to the dense sum, since
//! an empty queue only ever adds `+0.0`.
//!
//! # Examples
//!
//! ```
//! use greencell_queue::PacketQueue;
//! use greencell_units::Packets;
//!
//! let mut q = PacketQueue::new();
//! q.advance(Packets::new(5), Packets::new(2)); // arrive 5, serve 2
//! assert_eq!(q.backlog().count(), 5);          // max{0-2,0}+5
//! q.advance(Packets::new(0), Packets::new(9)); // overserve
//! assert_eq!(q.backlog().count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod flow;
mod link;
mod lyapunov;
mod queue;
mod stability;

pub use data::DataQueueBank;
pub use flow::FlowPlan;
pub use link::LinkQueueBank;
pub use lyapunov::lyapunov_value;
pub use queue::PacketQueue;
pub use stability::StabilityEstimator;
