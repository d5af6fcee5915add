//! The quadratic Lyapunov function `L(Θ(t))` (§IV-B).

use crate::{DataQueueBank, LinkQueueBank};

/// Evaluates the paper's Lyapunov function
///
/// ```text
/// L(Θ(t)) = ½ [ Σ_{s,i} Q^s_i(t)² + Σ_{i,j} H_ij(t)² + Σ_i z_i(t)² ]
/// ```
///
/// for the current queue state. `shifted_energy` yields the shifted battery
/// levels `z_i(t) = x_i(t) − Vγ_max − d^max_i` of the banks' nodes in node
/// order (they can be negative — that is the point of the shift); a
/// partitioned controller passes each part's levels gathered from the
/// global vector, so no per-part copy is needed.
///
/// The queue sums run over the non-empty queues only, in index order: an
/// empty queue adds `+0.0` to a non-negative running sum, which changes
/// nothing, so the value is bit-identical to the sum over every queue.
#[must_use]
pub fn lyapunov_value(
    data: &DataQueueBank,
    links: &LinkQueueBank,
    shifted_energy: impl IntoIterator<Item = f64>,
) -> f64 {
    let mut total = 0.0;
    for (_, _, q) in data.nonempty_backlogs() {
        let q = q.count_f64();
        total += q * q;
    }
    for (_, _, g) in links.backlogs() {
        let h = links.beta() * g.count_f64(); // `LinkQueueBank::h`
        total += h * h;
    }
    for z in shifted_energy {
        total += z * z;
    }
    0.5 * total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowPlan;
    use greencell_net::{NodeId, SessionId};
    use greencell_units::Packets;

    #[test]
    fn lyapunov_of_empty_state_is_zero() {
        let data = DataQueueBank::new(2, &[NodeId::from_index(1)]);
        let links = LinkQueueBank::new(2, 1.0);
        assert_eq!(lyapunov_value(&data, &links, [0.0, 0.0]), 0.0);
    }

    #[test]
    fn lyapunov_matches_hand_computation() {
        let mut data = DataQueueBank::new(2, &[NodeId::from_index(1)]);
        data.advance(
            &FlowPlan::new(2, 1),
            &[(
                SessionId::from_index(0),
                NodeId::from_index(0),
                Packets::new(3),
            )],
        );
        let mut links = LinkQueueBank::new(2, 2.0);
        let mut plan = FlowPlan::new(2, 1);
        plan.set(
            SessionId::from_index(0),
            NodeId::from_index(0),
            NodeId::from_index(1),
            Packets::new(2),
        );
        links.advance(&plan, &[]);
        // Q = 3 at (0, s0); G_01 = 2 so H_01 = 4; z = [-1, 2].
        let l = lyapunov_value(&data, &links, [-1.0, 2.0]);
        assert_eq!(l, 0.5 * (9.0 + 16.0 + 1.0 + 4.0));
    }
}
