//! A single discrete-time queue and its queueing law.

use greencell_units::Packets;

/// A single-server discrete-time queue following Theorem 1's dynamics
/// `Q(t+1) = max{Q(t) − b(t), 0} + a(t)`.
///
/// Tracks lifetime totals of arrivals, service *offered*, and service
/// *wasted* (the part of `b(t)` exceeding the backlog — the `max{·, 0}`
/// truncation), which the stability estimators and tests use to verify
/// Theorem 1's `ā ≤ b̄` criterion empirically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketQueue {
    backlog: Packets,
    total_arrivals: u64,
    total_offered: u64,
    total_wasted: u64,
}

impl PacketQueue {
    /// Creates an empty queue (`Q(0) = 0`, as assumed in §IV-B).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a queue from its captured state — backlog plus the three
    /// lifetime counters ([`PacketQueue::total_arrivals`],
    /// [`PacketQueue::total_offered`], [`PacketQueue::total_wasted`]) — the
    /// snapshot/restore inverse of reading them.
    ///
    /// # Panics
    ///
    /// Panics if `wasted > offered` (the truncation can never exceed the
    /// service that produced it).
    #[must_use]
    pub fn from_parts(backlog: Packets, arrivals: u64, offered: u64, wasted: u64) -> Self {
        assert!(
            wasted <= offered,
            "wasted service {wasted} exceeds offered {offered}"
        );
        Self {
            backlog,
            total_arrivals: arrivals,
            total_offered: offered,
            total_wasted: wasted,
        }
    }

    /// The current backlog `Q(t)`.
    #[must_use]
    pub fn backlog(&self) -> Packets {
        self.backlog
    }

    /// Applies one slot of the queueing law with arrivals `a` and offered
    /// service `b`; returns the new backlog.
    ///
    /// Service is applied before arrivals, exactly as in
    /// `max{Q − b, 0} + a`: packets arriving in slot `t` cannot be served
    /// until slot `t+1`.
    pub fn advance(&mut self, a: Packets, b: Packets) -> Packets {
        let wasted = b.saturating_sub(self.backlog);
        self.backlog = self.backlog.saturating_sub(b) + a;
        self.total_arrivals += a.count();
        self.total_offered += b.count();
        self.total_wasted += wasted.count();
        self.backlog
    }

    /// Lifetime arrivals `Σ a(t)`.
    #[must_use]
    pub fn total_arrivals(&self) -> u64 {
        self.total_arrivals
    }

    /// Lifetime offered service `Σ b(t)`.
    #[must_use]
    pub fn total_offered(&self) -> u64 {
        self.total_offered
    }

    /// Lifetime wasted service `Σ max{b(t) − Q(t), 0}`.
    #[must_use]
    pub fn total_wasted(&self) -> u64 {
        self.total_wasted
    }
}

/// The ascending indices of a bank's non-empty queues, so the Lyapunov
/// value and the backlog scans cost O(non-empty) rather than O(queues).
///
/// The owning bank calls [`NonEmpty::update`] on every queue an advance
/// touched and [`NonEmpty::rebuild`] after a restore; the index holds
/// `u32`s and reserves one slot per queue up front, so keeping it current
/// never allocates.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct NonEmpty(Vec<u32>);

/// A clone keeps the reserved capacity, so a cloned bank's advance does
/// not allocate either.
impl Clone for NonEmpty {
    fn clone(&self) -> Self {
        let mut index = Vec::with_capacity(self.0.capacity());
        index.extend_from_slice(&self.0);
        Self(index)
    }
}

impl NonEmpty {
    /// The index of a bank of `queues` empty queues.
    pub(crate) fn empty(queues: usize) -> Self {
        assert!(u32::try_from(queues).is_ok(), "bank too large");
        Self(Vec::with_capacity(queues))
    }

    /// Recomputes the index from scratch, O(queues).
    pub(crate) fn rebuild(&mut self, queues: &[PacketQueue]) {
        self.0.clear();
        self.0.reserve(queues.len());
        self.0.extend(
            (0..queues.len() as u32).filter(|&k| queues[k as usize].backlog() > Packets::ZERO),
        );
    }

    /// Brings queue `k`'s membership up to date with its backlog,
    /// O(log non-empty) plus the shift of an insert or a removal.
    pub(crate) fn update(&mut self, k: usize, queue: &PacketQueue) {
        let key = k as u32;
        match (self.0.binary_search(&key), queue.backlog() > Packets::ZERO) {
            (Err(at), true) => self.0.insert(at, key),
            (Ok(at), false) => {
                self.0.remove(at);
            }
            _ => {}
        }
    }

    /// The non-empty queue indices, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().map(|&k| k as usize)
    }
}

impl core::fmt::Display for PacketQueue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Q={}", self.backlog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn law_matches_hand_trace() {
        // Hand-computed trace of max{Q-b,0}+a.
        let mut q = PacketQueue::new();
        assert_eq!(q.advance(Packets::new(3), Packets::new(0)).count(), 3);
        assert_eq!(q.advance(Packets::new(2), Packets::new(1)).count(), 4);
        assert_eq!(q.advance(Packets::new(0), Packets::new(10)).count(), 0);
        assert_eq!(q.advance(Packets::new(7), Packets::new(7)).count(), 7);
    }

    #[test]
    fn service_before_arrivals() {
        let mut q = PacketQueue::new();
        // b = 5 with empty queue serves nothing even though a = 5 arrives.
        q.advance(Packets::new(5), Packets::new(5));
        assert_eq!(q.backlog().count(), 5);
    }

    #[test]
    fn accounting_totals() {
        let mut q = PacketQueue::new();
        q.advance(Packets::new(3), Packets::new(0));
        q.advance(Packets::new(0), Packets::new(5)); // wastes 2
        assert_eq!(q.total_arrivals(), 3);
        assert_eq!(q.total_offered(), 5);
        assert_eq!(q.total_wasted(), 2);
    }

    #[test]
    fn from_parts_roundtrips_a_lived_in_queue() {
        let mut q = PacketQueue::new();
        q.advance(Packets::new(3), Packets::new(0));
        q.advance(Packets::new(2), Packets::new(7)); // wastes 4
        let rebuilt = PacketQueue::from_parts(
            q.backlog(),
            q.total_arrivals(),
            q.total_offered(),
            q.total_wasted(),
        );
        assert_eq!(rebuilt, q);
    }

    #[test]
    #[should_panic(expected = "exceeds offered")]
    fn from_parts_rejects_impossible_waste() {
        let _ = PacketQueue::from_parts(Packets::ZERO, 0, 1, 2);
    }

    #[test]
    fn display() {
        assert_eq!(PacketQueue::new().to_string(), "Q=0 pkt");
    }
}
