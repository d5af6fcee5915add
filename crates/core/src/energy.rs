//! The slot's S4 split across the controller's partition.
//!
//! Only the base stations couple in S4, through `V·f(P)` over their grid
//! draw (§IV-C4); a mobile user's draw is not billed, so each user's answer
//! is its own. Each part therefore does its nodes' energy work on its own
//! worker ([`NodeEnergy`]): their shifted levels `z`, their demands, each
//! non-BS node's answer through [`EnergyStage::respond`], and, once the
//! slot's decisions are final, the battery update and `z_after`. The
//! driver runs only the coupled base-station solve, on one thread
//! ([`CoupledS4`]).
//!
//! The composition is the whole-network solve bit for bit. Each node's
//! answer is a function of that node's inputs alone, so it does not matter
//! which thread computes it. The failure is the first of the halves' in
//! `(check, node)` order, which is the order the whole solve checks in.
//! Ψ̂₄ adds every node's term in node order, from the same `0.0`.

use crate::pipeline::EnergyStage;
use crate::s4::BsInput;
use crate::{
    dpp, EnergyConfig, EnergyManagementInput, EnergyOutcome, NetworkState, S4Failure, S4Workspace,
    ScheduleOutcome,
};
use greencell_energy::{Battery, EnergyDecision, NodeEnergyModel, QuadraticCost};
use greencell_units::{Energy, TimeDelta};

/// The energy side of a set of nodes (a part's, or the nodes no part
/// covers), indexed by local id: their batteries and hardware constants,
/// and the slot's shifted levels, demands and S4 answers.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeEnergy {
    pub(crate) batteries: Vec<Battery>,
    pub(crate) models: Vec<NodeEnergyModel>,
    pub(crate) grid_limits: Vec<Energy>,
    pub(crate) is_bs: Vec<bool>,
    /// This slot's shifted levels `z_i(t)`.
    pub(crate) z: Vec<f64>,
    /// This slot's demands `E_i(t)`, before any sleep override.
    pub(crate) demand: Vec<Energy>,
    renewable: Vec<Energy>,
    grid_connected: Vec<bool>,
    /// The slot's decisions: the nodes' own answers, and the base
    /// stations' once the driver writes them in.
    pub(crate) decisions: Vec<EnergyDecision>,
    /// The non-BS nodes' Lyapunov terms (0 at base stations).
    pub(crate) terms: Vec<f64>,
    /// The shifted levels after the slot's battery update.
    pub(crate) z_after: Vec<f64>,
    /// The first failing non-BS node's failure, by global id.
    pub(crate) failure: Option<S4Failure>,
}

/// The slot-wide inputs of the per-node energy step, indexed by global
/// node id.
pub(crate) struct EnergyInputs<'a> {
    pub stage: &'a dyn EnergyStage,
    pub renewable: &'a [Energy],
    pub grid_connected: &'a [bool],
    /// The slot's (price-scaled) cost function.
    pub cost: &'a QuadraticCost,
    pub v: f64,
    pub gamma_max: f64,
    pub slot: TimeDelta,
}

impl NodeEnergy {
    /// The energy side of global nodes `nodes`, with the configured
    /// initial batteries.
    pub(crate) fn new(nodes: &[usize], energy: &EnergyConfig, is_bs: &[bool]) -> Self {
        let config = |g: usize| &energy.nodes[g];
        Self {
            batteries: nodes.iter().map(|&g| config(g).battery).collect(),
            models: nodes.iter().map(|&g| config(g).energy_model).collect(),
            grid_limits: nodes.iter().map(|&g| config(g).grid_limit).collect(),
            is_bs: nodes.iter().map(|&g| is_bs[g]).collect(),
            ..Self::default()
        }
    }

    /// This slot's shifted levels and demands, and each non-BS node's
    /// answer. `schedule` holds the nodes' transmissions in local ids
    /// (`None`: every node idles); `whole` says that `nodes` is `0..n`, so
    /// the global vectors are read in place.
    pub(crate) fn step(
        &mut self,
        nodes: &[usize],
        cx: &EnergyInputs<'_>,
        schedule: Option<&ScheduleOutcome>,
        whole: bool,
    ) {
        self.z.clear();
        self.z.extend(
            self.batteries
                .iter()
                .map(|b| shifted(b, cx.v, cx.gamma_max)),
        );
        // Eq. (2) per node: every node idles, then each transmission's
        // ends take their roles. The single-radio constraint (22) gives
        // every node at most one role.
        self.demand.clear();
        self.demand.extend(
            self.models
                .iter()
                .map(|m| m.slot_demand(None, false, cx.slot)),
        );
        if let Some(outcome) = schedule {
            for (t, &power) in outcome.schedule.transmissions().iter().zip(&outcome.powers) {
                let (tx, rx) = (t.tx().index(), t.rx().index());
                self.demand[tx] = self.models[tx].slot_demand(Some(power), false, cx.slot);
                self.demand[rx] = self.models[rx].slot_demand(None, true, cx.slot);
            }
        }
        self.respond(nodes, cx, whole);
    }

    /// Each non-BS node's answer from the stage's uncoupled half, and the
    /// first failure among them.
    pub(crate) fn respond(&mut self, nodes: &[usize], cx: &EnergyInputs<'_>, whole: bool) {
        let Self {
            batteries,
            grid_limits,
            is_bs,
            z,
            demand,
            renewable,
            grid_connected,
            decisions,
            terms,
            failure,
            ..
        } = self;
        let (renewable, grid_connected): (&[Energy], &[bool]) = if whole {
            (cx.renewable, cx.grid_connected)
        } else {
            renewable.clear();
            renewable.extend(nodes.iter().map(|&g| cx.renewable[g]));
            grid_connected.clear();
            grid_connected.extend(nodes.iter().map(|&g| cx.grid_connected[g]));
            (renewable, grid_connected)
        };
        let input = EnergyManagementInput {
            z,
            demand,
            renewable,
            batteries,
            grid_connected,
            grid_limits,
            is_base_station: is_bs,
            cost: cx.cost,
            v: cx.v,
        };
        decisions.clear();
        terms.clear();
        *failure = None;
        for (i, &bs) in is_bs.iter().enumerate() {
            let (decision, term) = if bs {
                Default::default()
            } else {
                cx.stage.respond(&input, i).unwrap_or_else(|f| {
                    let f = f.renamed(|k| nodes[k]);
                    *failure = S4Failure::first(failure.take(), Some(f));
                    Default::default()
                })
            };
            decisions.push(decision);
            terms.push(term);
        }
    }

    /// Applies the slot's decisions to the batteries and takes `z_after`.
    ///
    /// # Panics
    ///
    /// Panics if a decision does not apply: every decision was validated
    /// against its battery, so this is an internal invariant.
    pub(crate) fn advance(&mut self, v: f64, gamma_max: f64) {
        for (battery, decision) in self.batteries.iter_mut().zip(&self.decisions) {
            decision
                .apply_to_battery(battery)
                .expect("validated decision must apply");
        }
        self.z_after.clear();
        self.z_after
            .extend(self.batteries.iter().map(|b| shifted(b, v, gamma_max)));
    }
}

/// A battery's shifted level `z_i` in kWh.
pub(crate) fn shifted(battery: &Battery, v: f64, gamma_max: f64) -> f64 {
    dpp::shifted_level(battery.level(), v, gamma_max, battery.discharge_limit())
}

/// The driver's half of the split: the base stations' input, gathered
/// from the blocks that hold them, the coupled outcome over them, and
/// every node's Lyapunov term in node order.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoupledS4 {
    pub(crate) bs: BsInput,
    out: EnergyOutcome,
    terms: Vec<f64>,
}

impl CoupledS4 {
    /// Gathers base stations `bs_nodes` (ascending global ids) from their
    /// blocks; `demand` maps a base station and its own demand to the
    /// demand S4 sees (the sleep override).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gather<'a>(
        &mut self,
        bs_nodes: &[usize],
        block: impl Fn(usize) -> (&'a NodeEnergy, usize),
        demand: impl Fn(usize, Energy) -> Energy,
        renewable: &[Energy],
        grid_connected: &[bool],
        grid_limits: &[Energy],
    ) {
        self.bs.clear();
        for &g in bs_nodes {
            let (b, l) = block(g);
            self.bs.push(
                g,
                b.z[l],
                demand(g, b.demand[l]),
                renewable[g],
                b.batteries[l],
                grid_connected[g],
                grid_limits[g],
            );
        }
    }

    /// Runs the stage's coupled half on the gathered base stations and
    /// composes it with the answers of `blocks` (each block's global node
    /// ids with its energy side; together they hold all `n` nodes). On
    /// success `out` holds the slot's grid draw, cost, price and Ψ̂₄; the
    /// decisions stay in the blocks and [`CoupledS4::decisions`].
    ///
    /// # Errors
    ///
    /// The first failure of the coupled half and the blocks, in `(check,
    /// node)` order, by global node id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve<'a>(
        &mut self,
        stage: &dyn EnergyStage,
        n: usize,
        blocks: impl Iterator<Item = (&'a [usize], &'a NodeEnergy)>,
        cost: &QuadraticCost,
        v: f64,
        net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), S4Failure> {
        let coupled = stage.solve(&self.bs.input(cost, v), net_state, ws, &mut self.out);
        let bs_nodes = &self.bs.nodes;
        let mut failure = coupled.err().map(|f| f.renamed(|k| bs_nodes[k]));
        // Every node's term, laid out by node id.
        self.terms.clear();
        self.terms.resize(n, 0.0);
        for (nodes, b) in blocks {
            failure = S4Failure::first(failure, b.failure.clone());
            for (&g, &term) in nodes.iter().zip(&b.terms) {
                self.terms[g] = term;
            }
        }
        if let Some(f) = failure {
            return Err(f);
        }
        for (&g, &term) in bs_nodes.iter().zip(&self.out.terms) {
            self.terms[g] = term;
        }
        let mut z_terms = 0.0;
        for &term in &self.terms {
            z_terms += term;
        }
        out.decisions.clear();
        out.terms.clear();
        out.grid_draw = self.out.grid_draw;
        out.cost = self.out.cost;
        out.objective = z_terms + v * out.cost;
        out.equilibrium_price = self.out.equilibrium_price;
        Ok(())
    }

    /// The base stations' decisions from the last successful solve, in
    /// the order of [`CoupledS4::bs`].
    pub(crate) fn decisions(&self) -> &[EnergyDecision] {
        &self.out.decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{EnergyCoopStage, GridOnlyStage, MarginalPriceStage};
    use crate::s4::solve_coupled_into;
    use crate::{
        solve_energy_management_into, solve_grid_only_into, Check, CoopPolicy,
        EnergyManagementError,
    };
    use greencell_stochastic::Rng;

    fn kwh(x: f64) -> Energy {
        Energy::from_kilowatt_hours(x)
    }

    /// One random S4 instance over `n` nodes, indexed by global id, with
    /// the block (part, or the uncovered set) each node belongs to.
    struct Instance {
        z: Vec<f64>,
        demand: Vec<Energy>,
        renewable: Vec<Energy>,
        batteries: Vec<Battery>,
        grid_connected: Vec<bool>,
        grid_limits: Vec<Energy>,
        is_bs: Vec<bool>,
        cost: QuadraticCost,
        v: f64,
        /// Block of each node: parts `0..parts`, then the uncovered set.
        block: Vec<usize>,
        parts: usize,
    }

    impl Instance {
        /// Base stations and users interleaved at random over 2–12
        /// nodes in up to four parts (users may sit in no part), lossy
        /// and lossless batteries, `V` down to 0 and up to paper scale,
        /// and, a third of the time, starved nodes (no grid, an empty
        /// battery, no harvest, heavy demand) that S4 cannot serve.
        fn random(rng: &mut Rng) -> Self {
            let n = 2 + rng.index(11);
            let parts = 1 + rng.index(4);
            let scale = [1.0, 1e5][rng.index(2)];
            let mut pick = |xs: &[f64]| xs[rng.index(xs.len())];
            let v = pick(&[0.0, 1.0, 10.0, 1e5]);
            let mut x = Self {
                z: Vec::new(),
                demand: Vec::new(),
                renewable: Vec::new(),
                batteries: Vec::new(),
                grid_connected: Vec::new(),
                grid_limits: vec![kwh(0.2); n],
                is_bs: Vec::new(),
                cost: QuadraticCost::paper_default(),
                v,
                block: Vec::new(),
                parts,
            };
            for _ in 0..n {
                let bs = rng.chance(0.4);
                x.is_bs.push(bs);
                x.block.push(if bs || rng.chance(0.8) {
                    rng.index(parts)
                } else {
                    parts
                });
                x.z.push((rng.next_f64() - 0.7) * scale);
                x.demand.push(kwh(rng.range_f64(0.0, 0.3)));
                x.renewable.push(kwh(rng.range_f64(0.0, 0.2)));
                x.grid_connected.push(rng.chance(0.8));
                let eta = [1.0, 0.9, 0.8][rng.index(3)];
                let level = kwh(rng.range_f64(0.0, 1.0));
                x.batteries.push(
                    Battery::try_from_parts(kwh(1.0), kwh(0.1), kwh(0.1), eta, level, false)
                        .expect("valid battery"),
                );
            }
            if rng.chance(0.33) {
                for _ in 0..1 + rng.index(2) {
                    let i = rng.index(n);
                    x.grid_connected[i] = false;
                    x.renewable[i] = Energy::ZERO;
                    x.demand[i] = kwh(0.5);
                    x.batteries[i] = Battery::new(kwh(1.0), kwh(0.1), kwh(0.1));
                }
            }
            x
        }

        fn input<'a>(&'a self, renewable: &'a [Energy]) -> EnergyManagementInput<'a> {
            EnergyManagementInput {
                z: &self.z,
                demand: &self.demand,
                renewable,
                batteries: &self.batteries,
                grid_connected: &self.grid_connected,
                grid_limits: &self.grid_limits,
                is_base_station: &self.is_bs,
                cost: &self.cost,
                v: self.v,
            }
        }

        /// Each block's global node ids and its energy side, with the
        /// instance's levels and demands in place of a slot's.
        fn blocks(&self) -> (Vec<Vec<usize>>, Vec<NodeEnergy>, Vec<usize>) {
            let n = self.z.len();
            let mut ids = vec![Vec::new(); self.parts + 1];
            let mut local = vec![0; n];
            for g in 0..n {
                local[g] = ids[self.block[g]].len();
                ids[self.block[g]].push(g);
            }
            let blocks = ids
                .iter()
                .map(|nodes| NodeEnergy {
                    batteries: nodes.iter().map(|&g| self.batteries[g]).collect(),
                    grid_limits: nodes.iter().map(|&g| self.grid_limits[g]).collect(),
                    is_bs: nodes.iter().map(|&g| self.is_bs[g]).collect(),
                    z: nodes.iter().map(|&g| self.z[g]).collect(),
                    demand: nodes.iter().map(|&g| self.demand[g]).collect(),
                    ..NodeEnergy::default()
                })
                .collect();
            (ids, blocks, local)
        }
    }

    /// What a solve decided, as bits: per-node decisions, grid draw,
    /// cost, objective and price, or the error.
    type Verdict = Result<(Vec<[u64; 6]>, [u64; 4]), EnergyManagementError>;

    fn verdict(solved: Result<(), EnergyManagementError>, out: &EnergyOutcome) -> Verdict {
        solved.map(|()| {
            let decisions = out.decisions.iter().map(decision_bits).collect();
            let price = out.equilibrium_price.map_or(u64::MAX, f64::to_bits);
            let totals = [
                out.grid_draw.as_joules().to_bits(),
                out.cost.to_bits(),
                out.objective.to_bits(),
                price,
            ];
            (decisions, totals)
        })
    }

    fn decision_bits(d: &EnergyDecision) -> [u64; 6] {
        [
            d.grid_to_demand(),
            d.grid_to_battery(),
            d.renewable().to_demand(),
            d.renewable().to_battery(),
            d.renewable().curtailed(),
            d.discharge(),
        ]
        .map(|e| e.as_joules().to_bits())
    }

    /// The split as the controller runs it: every block answers its own
    /// non-BS nodes, then the coupled half runs on the gathered base
    /// stations and composes with them. Returns the verdict, with the
    /// decisions read back in node order, and the renewable vector the
    /// coupled half saw at the base stations.
    fn split(
        x: &Instance,
        stage: &dyn EnergyStage,
        coop: Option<CoopPolicy>,
    ) -> (Verdict, Vec<Energy>) {
        let (ids, mut blocks, local) = x.blocks();
        let cx = EnergyInputs {
            stage,
            renewable: &x.renewable,
            grid_connected: &x.grid_connected,
            cost: &x.cost,
            v: x.v,
            gamma_max: 0.0,
            slot: TimeDelta::from_minutes(1.0),
        };
        for (nodes, b) in ids.iter().zip(&mut blocks) {
            b.respond(nodes, &cx, false);
        }
        let node_part: Vec<usize> = x
            .block
            .iter()
            .map(|&k| if k < x.parts { k } else { usize::MAX })
            .collect();
        let mut net_state = NetworkState::new(&x.is_bs, &node_part, None, coop);
        net_state.begin_slot(&[]);
        let bs_nodes: Vec<usize> = (0..x.z.len()).filter(|&g| x.is_bs[g]).collect();
        let block = |g: usize| (&blocks[x.block[g]], local[g]);
        let mut coupled = CoupledS4::default();
        coupled.gather(
            &bs_nodes,
            block,
            |_, own| own,
            &x.renewable,
            &x.grid_connected,
            &x.grid_limits,
        );
        let (mut ws, mut out) = (S4Workspace::new(), EnergyOutcome::empty());
        let solved = coupled.solve(
            stage,
            x.z.len(),
            ids.iter().map(Vec::as_slice).zip(&blocks),
            &x.cost,
            x.v,
            &mut net_state,
            &mut ws,
            &mut out,
        );
        let mut seen = x.renewable.clone();
        if coop.is_some() {
            for (&g, &r) in bs_nodes.iter().zip(net_state.adjusted_renewable()) {
                seen[g] = r;
            }
        }
        if solved.is_ok() {
            let mut bs = coupled.decisions().iter();
            out.decisions = (0..x.z.len())
                .map(|g| match x.is_bs[g] {
                    true => *bs.next().expect("one decision per base station"),
                    false => blocks[x.block[g]].decisions[local[g]],
                })
                .collect();
        }
        (verdict(solved.map_err(|f| f.error), &out), seen)
    }

    /// On random multi-part instances, the parts' per-node answers
    /// composed with the coupled base-station solve equal the monolithic
    /// whole-network solve bit for bit — decisions, grid draw, cost,
    /// objective and price, or the error with its node — for all three
    /// built-in stages. Cooperation is compared on the renewables its
    /// transfers left (they move base-station harvest only).
    #[test]
    fn split_solve_matches_the_whole_network_solve_bit_for_bit() {
        let mut rng = Rng::seed_from(36);
        // [solved, user deficit first, BS deficit first, other error]
        let mut seen = [0usize; 4];
        for case in 0..3000 {
            let x = Instance::random(&mut rng);
            // The monolithic solves: every node in one pass (grid-only)
            // or one coupled solve (marginal price). The public
            // whole-network solve, itself a composition over one node
            // list, must agree with them too.
            let whole = |renewable: &[Energy], grid_only: bool| {
                let (mut ws, mut out) = (S4Workspace::new(), EnergyOutcome::empty());
                let input = x.input(renewable);
                let solved = if grid_only {
                    solve_grid_only_into(&input, &mut out)
                } else {
                    let public = solve_energy_management_into(&input, &mut ws, &mut out);
                    let public = verdict(public, &out);
                    let solved = solve_coupled_into(&input, &mut ws, &mut out);
                    let solved = solved.map_err(|f| f.error);
                    assert_eq!(public, verdict(solved.clone(), &out), "case {case}");
                    solved
                };
                verdict(solved, &out)
            };
            let coop = CoopPolicy { eta_x: 0.5 };
            let runs: [(&dyn EnergyStage, Option<CoopPolicy>, bool); 3] = [
                (&MarginalPriceStage, None, false),
                (&GridOnlyStage, None, true),
                (&EnergyCoopStage, Some(coop), false),
            ];
            for (stage, coop, grid_only) in runs {
                let (got, renewable) = split(&x, stage, coop);
                let want = whole(&renewable, grid_only);
                assert_eq!(got, want, "case {case}: {stage:?}");
                seen[match &want {
                    Ok(_) => 0,
                    Err(EnergyManagementError::Deficit { node, .. }) if !x.is_bs[*node] => 1,
                    Err(EnergyManagementError::Deficit { .. }) => 2,
                    Err(_) => 3,
                }] += 1;
            }
        }
        assert!(seen[..3].iter().all(|&k| k >= 100), "{seen:?}");
    }

    /// A failure's place in the order of checks decides between the
    /// halves: a feasibility failure beats any assembly failure, the
    /// lower node wins within a check, and a bracket failure names no
    /// node.
    #[test]
    fn failures_compose_in_check_then_node_order() {
        let deficit = |node| EnergyManagementError::Deficit {
            node,
            demand: Energy::ZERO,
        };
        let at = |check, node| {
            Some(S4Failure {
                check,
                node,
                error: deficit(node),
            })
        };
        let first = |a, b| S4Failure::first(a, b).map(|f| (f.check, f.node));
        assert_eq!(
            first(at(Check::Assembly, 1), at(Check::Feasibility, 7)),
            Some((Check::Feasibility, 7))
        );
        assert_eq!(
            first(at(Check::Feasibility, 3), at(Check::Feasibility, 2)),
            Some((Check::Feasibility, 2))
        );
        assert_eq!(
            first(None, at(Check::Bracket, 0)),
            Some((Check::Bracket, 0))
        );
        let renamed = at(Check::Feasibility, 1).map(|f| f.renamed(|k| 10 * k));
        assert_eq!(renamed.map(|f| (f.node, f.error)), Some((10, deficit(10))));
    }
}
