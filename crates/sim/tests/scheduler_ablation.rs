//! The S1 ablation of DESIGN.md: the weight-greedy default must stay
//! competitive with the paper's sequential-fix on identical traces.

use greencell_core::SchedulerKind;
use greencell_sim::{Scenario, Simulator};

#[test]
fn greedy_and_sequential_fix_deliver_comparably() {
    let mut base = Scenario::paper(42);
    base.horizon = 40;
    // Both schedulers replay one recorded observation trace (perfectly
    // paired).
    let (_, trace) = Simulator::new(&base)
        .and_then(|mut sim| sim.run_recording())
        .expect("records");
    let replay = |scheduler| {
        let mut s = base.clone();
        s.scheduler = scheduler;
        let mut sim = Simulator::new(&s).expect("builds");
        let m = sim.replay(&trace).expect("replays");
        (m.average_cost(), m.delivered())
    };
    let (greedy_cost, greedy_delivered) = replay(SchedulerKind::Greedy);
    let (sf_cost, sf_delivered) = replay(SchedulerKind::SequentialFix);

    assert!(greedy_delivered > 0);
    assert!(sf_delivered > 0);
    // Neither scheduler should deliver less than 70% of the other.
    let (lo, hi) = (
        greedy_delivered.min(sf_delivered) as f64,
        greedy_delivered.max(sf_delivered) as f64,
    );
    assert!(
        lo >= 0.7 * hi,
        "throughput gap too large: greedy {greedy_delivered} vs sequential-fix {sf_delivered}"
    );
    // Costs within 2x of each other (both dominated by the same storage
    // and overhead flows).
    let (clo, chi) = (greedy_cost.min(sf_cost), greedy_cost.max(sf_cost));
    assert!(
        chi <= 2.0 * clo + 1e-9,
        "cost gap too large: greedy {greedy_cost} vs sequential-fix {sf_cost}"
    );
}
