//! S4 — energy management: minimize
//! `Ψ̂₄(t) = Σ_i z_i(t)·(c_i(t) − d_i(t)) + V·f(P(t))` (§IV-C4).
//!
//! The paper hands this convex program to CPLEX; we solve it exactly with
//! a *marginal-price equilibrium*, exploiting its structure:
//!
//! * Every per-node term is linear in the node's charge/discharge/draw, so
//!   each node's optimal response to a fixed grid price `p` (currency per
//!   kWh of *base-station* draw — mobile-user draws do not enter `P(t)`,
//!   §II-E) has a closed form: evaluate the **charge mode** (`d = 0`:
//!   serve remaining demand from the grid, charge from leftover renewable
//!   when `z < 0` and from the grid when `z + p < 0`) and the **discharge
//!   mode** (`c = 0`: split remaining demand between battery at unit cost
//!   `−z` and grid at unit cost `p`, cheaper source first) and keep the
//!   better — the mutual-exclusion constraint (9) makes the two modes the
//!   only candidates, and within each mode the optimum is bang-bang.
//! * The only coupling is `V·f(P)` with `f` convex: each node's draw is a
//!   non-increasing step function of `p` whose steps sit at its mode-flip
//!   prices `−z` and `−z·η` (and `0`, below the price bracket), so the
//!   equilibrium price solving the monotone fixed point `p = V·f'(P(p))`
//!   is found exactly by one sweep over the sorted flip prices (see
//!   [`solve_energy_management_into`]), after which the price-tied nodes'
//!   continuous knobs (grid-charge amounts and battery/grid demand splits)
//!   are filled fractionally to land `P` exactly on `f'⁻¹(p*/V)`.

use greencell_energy::CostFn;
use greencell_energy::{
    Battery, EnergyDecision, EnergyDecisionError, GridConnection, QuadraticCost, RenewableSplit,
};
use greencell_lp::bisect_increasing;
use greencell_units::Energy;
use std::error::Error;
use std::fmt;

/// Error from [`solve_energy_management`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EnergyManagementError {
    /// A node's demand exceeds every feasible supply combination — the
    /// scheduler admitted a transmission the node cannot power. The
    /// controller's energy-admission precheck exists to prevent this.
    Deficit {
        /// The node index.
        node: usize,
        /// The unservable demand.
        demand: Energy,
    },
    /// A produced decision failed validation (internal invariant).
    Invalid(EnergyDecisionError),
    /// The equilibrium price search has no finite bracket: `V·f'(·)` at
    /// the base stations' largest possible draw overflows (an extreme
    /// grid price or Lyapunov weight).
    PriceOverflow {
        /// The bracket's lower end, `V·f'(0)`.
        lo: f64,
        /// The bracket's upper end, `V·f'(P_max) + 1`.
        hi: f64,
    },
}

impl fmt::Display for EnergyManagementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Deficit { node, demand } => {
                write!(f, "node {node} cannot source its demand of {demand}")
            }
            Self::Invalid(e) => write!(f, "internal: produced invalid decision: {e}"),
            Self::PriceOverflow { lo, hi } => {
                write!(f, "equilibrium price bracket [{lo}, {hi}] is not finite")
            }
        }
    }
}

impl Error for EnergyManagementError {}

impl From<EnergyDecisionError> for EnergyManagementError {
    fn from(e: EnergyDecisionError) -> Self {
        Self::Invalid(e)
    }
}

/// The phases of an S4 solve's checks, in the order it runs them.
///
/// The marginal-price solve checks every node's feasibility, then the price
/// bracket, then assembles and validates every node's decision. The
/// grid-only solve checks each node in one pass, all in
/// [`Check::Feasibility`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// Some supply combination covers the node's demand.
    Feasibility,
    /// The equilibrium price has a finite bracket.
    Bracket,
    /// The node's decision assembles and validates.
    Assembly,
}

/// An S4 failure at its place in the solve's order of checks: a solve
/// reports its first failing check in `(check, node)` order.
///
/// The two halves of a split solve (see
/// [`crate::pipeline::EnergyStage`]) report their failures this way, so
/// the first of them is the failure the whole solve would report.
#[derive(Debug, Clone, PartialEq)]
pub struct S4Failure {
    /// The phase that failed.
    pub check: Check,
    /// The failing node (0 for [`Check::Bracket`], which has none).
    pub node: usize,
    /// The error the whole solve returns.
    pub error: EnergyManagementError,
}

impl S4Failure {
    fn new(check: Check, node: usize, error: EnergyManagementError) -> Self {
        Self { check, node, error }
    }

    /// The same failure with its node renamed by `id` (a
    /// [`Check::Bracket`] failure names no node and keeps 0).
    #[must_use]
    pub(crate) fn renamed(mut self, id: impl Fn(usize) -> usize) -> Self {
        if self.check != Check::Bracket {
            self.node = id(self.node);
        }
        if let EnergyManagementError::Deficit { node, .. } = &mut self.error {
            *node = id(*node);
        }
        self
    }

    /// The earlier of `first` and `other` in `(check, node)` order.
    #[must_use]
    pub(crate) fn first(first: Option<Self>, other: Option<Self>) -> Option<Self> {
        match (first, other) {
            (Some(a), Some(b)) => Some(if (b.check, b.node) < (a.check, a.node) {
                b
            } else {
                a
            }),
            (a, b) => a.or(b),
        }
    }
}

/// One node's S4 answer: its decision and its Lyapunov term, the node's
/// share of Ψ̂₄'s per-node sum (see [`EnergyOutcome::terms`]).
pub type NodeAnswer = (EnergyDecision, f64);

/// Inputs to S4 for one slot, all indexed by node.
#[derive(Debug)]
pub struct EnergyManagementInput<'a> {
    /// Shifted battery levels `z_i(t)` in kWh (usually negative).
    pub z: &'a [f64],
    /// Demands `E_i(t)` from Eq. (2) (already includes TX/RX energy).
    pub demand: &'a [Energy],
    /// Harvested renewable energy `R_i(t)·Δt`.
    pub renewable: &'a [Energy],
    /// Batteries (for charge/discharge limits; not mutated here).
    pub batteries: &'a [Battery],
    /// Grid connectivity `ω_i(t)`.
    pub grid_connected: &'a [bool],
    /// Grid draw limits `p^max_i`.
    pub grid_limits: &'a [Energy],
    /// `true` where the node is a base station (its draw enters `P(t)`).
    pub is_base_station: &'a [bool],
    /// The provider's cost function `f`.
    pub cost: &'a QuadraticCost,
    /// The Lyapunov weight `V`.
    pub v: f64,
}

/// The S4 solution for one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyOutcome {
    /// Per-node validated decisions.
    pub decisions: Vec<EnergyDecision>,
    /// Per-node Lyapunov terms of Ψ̂₄ (`z_i·(η_i·c_i − d_i)` for the
    /// marginal-price solve): `objective` is their sum in node order plus
    /// `V·cost`.
    pub terms: Vec<f64>,
    /// The provider's total draw `P(t) = Σ_{i∈ℬ} (g_i + c^g_i)`.
    pub grid_draw: Energy,
    /// The slot cost `f(P(t))`.
    pub cost: f64,
    /// The achieved objective `Ψ̂₄(t)`.
    pub objective: f64,
    /// The equilibrium marginal price `p*` solving `p = V·f'(P(p))`, when
    /// the marginal-price solver produced this outcome; `None` for the
    /// grid-only ablation and safe mode, which have no price equilibrium.
    pub equilibrium_price: Option<f64>,
}

impl EnergyOutcome {
    /// An empty outcome (no decisions, zero draw/cost/objective) — the
    /// starting state for the `_into` solvers' output buffer.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            decisions: Vec::new(),
            terms: Vec::new(),
            grid_draw: Energy::ZERO,
            cost: 0.0,
            objective: 0.0,
            equilibrium_price: None,
        }
    }
}

impl Default for EnergyOutcome {
    fn default() -> Self {
        Self::empty()
    }
}

/// Retained workspace for [`solve_energy_management_into`]: the coupled
/// solve's per-node environments, base-station index list, per-node
/// solutions and sorted price breakpoints, and the whole-network solve's
/// base-station input and coupled outcome. Cleared and refilled each
/// call; buffers never shrink, so the steady-state solve performs zero heap
/// allocations.
#[derive(Debug, Clone, Default)]
pub struct S4Workspace {
    sweep: SweepScratch,
    bs: BsInput,
    bs_out: EnergyOutcome,
}

impl S4Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The coupled solve's scratch.
#[derive(Debug, Clone, Default)]
struct SweepScratch {
    envs: Vec<NodeEnv>,
    bs_indices: Vec<usize>,
    solutions: Vec<NodeSolution>,
    /// `(price, base station)` for every mode flip inside the price bracket.
    breakpoints: Vec<(f64, usize)>,
}

/// An S4 input over the base stations alone, in ascending node order: what
/// the coupled half of a split solve runs on. Owned, so a caller can gather
/// it from wherever its nodes' state lives.
#[derive(Debug, Clone, Default)]
pub(crate) struct BsInput {
    /// The base stations' node ids, ascending: entry `k` is node
    /// `nodes[k]`.
    pub(crate) nodes: Vec<usize>,
    z: Vec<f64>,
    demand: Vec<Energy>,
    renewable: Vec<Energy>,
    batteries: Vec<Battery>,
    grid_connected: Vec<bool>,
    grid_limits: Vec<Energy>,
    is_bs: Vec<bool>,
}

impl BsInput {
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.z.clear();
        self.demand.clear();
        self.renewable.clear();
        self.batteries.clear();
        self.grid_connected.clear();
        self.grid_limits.clear();
        self.is_bs.clear();
    }

    /// Appends base station `node` with its slot inputs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push(
        &mut self,
        node: usize,
        z: f64,
        demand: Energy,
        renewable: Energy,
        battery: Battery,
        grid_connected: bool,
        grid_limit: Energy,
    ) {
        self.nodes.push(node);
        self.z.push(z);
        self.demand.push(demand);
        self.renewable.push(renewable);
        self.batteries.push(battery);
        self.grid_connected.push(grid_connected);
        self.grid_limits.push(grid_limit);
        self.is_bs.push(true);
    }

    /// The entries' demands, in order.
    pub(crate) fn demand(&self) -> &[Energy] {
        &self.demand
    }

    pub(crate) fn input<'a>(
        &'a self,
        cost: &'a QuadraticCost,
        v: f64,
    ) -> EnergyManagementInput<'a> {
        EnergyManagementInput {
            z: &self.z,
            demand: &self.demand,
            renewable: &self.renewable,
            batteries: &self.batteries,
            grid_connected: &self.grid_connected,
            grid_limits: &self.grid_limits,
            is_base_station: &self.is_bs,
            cost,
            v,
        }
    }
}

/// One node's candidate solution, in kWh components.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NodeSolution {
    grid_to_demand: f64,
    grid_to_battery: f64,
    renewable_to_demand: f64,
    renewable_to_battery: f64,
    discharge: f64,
}

impl NodeSolution {
    fn draw(&self) -> f64 {
        self.grid_to_demand + self.grid_to_battery
    }

    /// Per-node objective at a fixed price: `z·(η·c − d) + price·draw` —
    /// the Lyapunov term uses the *stored* energy (the queue-law delta),
    /// which is `η` per unit drawn.
    fn objective(&self, z: f64, price: f64, eta: f64) -> f64 {
        z * (eta * (self.renewable_to_battery + self.grid_to_battery) - self.discharge)
            + price * self.draw()
    }
}

/// Static per-node quantities (kWh) shared by both modes.
#[derive(Debug, Clone, Copy)]
struct NodeEnv {
    z: f64,
    demand: f64,
    renewable: f64,
    g_max: f64,
    d_max: f64,
    c_room: f64,
    /// Battery charge efficiency `η` (1.0 = the paper's lossless model).
    eta: f64,
}

impl NodeEnv {
    fn from_input(input: &EnergyManagementInput<'_>, i: usize) -> Self {
        Self {
            z: input.z[i],
            demand: input.demand[i].as_kilowatt_hours(),
            renewable: input.renewable[i].as_kilowatt_hours(),
            g_max: if input.grid_connected[i] {
                input.grid_limits[i].as_kilowatt_hours()
            } else {
                0.0
            },
            d_max: input.batteries[i].max_discharge_now().as_kilowatt_hours(),
            c_room: input.batteries[i].max_charge_now().as_kilowatt_hours(),
            eta: input.batteries[i].charge_efficiency(),
        }
    }
}

const EPS: f64 = 1e-12;
/// Feasibility slack in kWh (≈ 3.6×10⁻⁸ J). Must stay strictly below the
/// validator's slacks (10⁻⁶ J for grid draws, 10⁻⁴ J for balance) so that
/// a clamped borderline residual can never produce a decision the
/// validator rejects.
const FEAS_EPS: f64 = 1e-11;

/// Discharge mode (`c = 0`): serve the demand from renewable (unit
/// objective cost 0), battery (unit cost `−z` — *negative*, i.e.
/// profitable, when `z > 0`), and grid (unit cost `price`), filling from
/// the cheapest source. Unused renewable is wasted (charging is the other
/// mode's job).
fn mode_discharge(env: &NodeEnv, price: f64) -> Option<NodeSolution> {
    // (cost, source) with deterministic tie order renewable < battery <
    // grid at equal cost. The three keys are distinct, so three
    // compare-exchanges give the one sorted order.
    let mut sources = [
        (0.0, 0u8, env.renewable),
        (-env.z, 1u8, env.d_max),
        (price, 2u8, env.g_max),
    ];
    let after =
        |a: &(f64, u8, f64), b: &(f64, u8, f64)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_gt();
    for (a, b) in [(0, 1), (1, 2), (0, 1)] {
        if after(&sources[a], &sources[b]) {
            sources.swap(a, b);
        }
    }
    let mut need = env.demand;
    let mut taken = [0.0f64; 3];
    for &(_, which, cap) in &sources {
        let amount = need.min(cap);
        taken[which as usize] = amount;
        need -= amount;
        if need <= EPS {
            break;
        }
    }
    if need > FEAS_EPS {
        return None;
    }
    Some(NodeSolution {
        grid_to_demand: taken[2],
        grid_to_battery: 0.0,
        renewable_to_demand: taken[0],
        renewable_to_battery: 0.0,
        discharge: taken[1],
    })
}

/// Charge mode (`d = 0`): the renewable output is allocated between
/// serving demand (worth `price` per kWh of displaced grid) and charging
/// (worth `−z` when `z < 0`); the grid covers the remaining demand and
/// additionally charges when `z + price < 0`.
///
/// The objective is piecewise linear in the renewable-to-demand amount
/// `u`, so the exact optimum is found by evaluating every breakpoint.
fn mode_charge(env: &NodeEnv, price: f64) -> Option<NodeSolution> {
    let u_max = env.renewable.min(env.demand);
    // Grid feasibility: g = demand − u ≤ g_max.
    let u_min = (env.demand - env.g_max).max(0.0);
    if u_min > u_max + FEAS_EPS {
        return None;
    }
    let u_min = u_min.min(u_max);
    let build = |u: f64| -> NodeSolution {
        let g = (env.demand - u).max(0.0);
        let leftover = env.renewable - u;
        let cr = if env.z < 0.0 {
            leftover.min(env.c_room)
        } else {
            0.0
        };
        // Grid charging stores η per unit drawn: worth it iff the stored
        // Lyapunov gain η·|z| beats the purchase price.
        let cg = if env.z * env.eta + price < 0.0 {
            (env.c_room - cr).min(env.g_max - g).max(0.0)
        } else {
            0.0
        };
        NodeSolution {
            grid_to_demand: g,
            grid_to_battery: cg,
            renewable_to_demand: u,
            renewable_to_battery: cr,
            discharge: 0.0,
        }
    };
    // Breakpoints of the piecewise-linear objective in u: the endpoints,
    // the point where leftover renewable saturates the charge room
    // (u = R − c_room), and where the grid-charge cap flips between the
    // room and the connection limit. At most four candidates, held in a
    // fixed array (this is the hot inner loop of the price bisection; it
    // must not touch the heap). The order [u_min, u_max, saturation, flip]
    // is load-bearing: the scan keeps the *first* minimum at exact ties.
    let mut candidates = [u_min, u_max, 0.0, 0.0];
    let mut count = 2;
    let saturation = env.renewable - env.c_room;
    if saturation > u_min && saturation < u_max {
        candidates[count] = saturation;
        count += 1;
    }
    // c_room − cr = g_max − g  ⇔  c_room − (R − u) = g_max − demand + u —
    // constant difference in u when cr is interior, so no extra breakpoint
    // beyond `saturation`; when cr is clamped at c_room the cap flip is at:
    let flip = env.demand - env.g_max + env.c_room;
    if flip > u_min && flip < u_max {
        candidates[count] = flip;
        count += 1;
    }
    // The first strict minimum under `total_cmp`, as `min_by` returns it,
    // with each candidate's objective evaluated once.
    let mut best: Option<(f64, NodeSolution)> = None;
    for &u in &candidates[..count] {
        let sol = build(u);
        let value = sol.objective(env.z, price, env.eta);
        if best.is_none_or(|(b, _)| value.total_cmp(&b).is_lt()) {
            best = Some((value, sol));
        }
    }
    best.map(|(_, sol)| sol)
}

/// The node's optimal response to `price`; `None` if no mode is feasible.
fn node_at_price(env: &NodeEnv, price: f64) -> Option<NodeSolution> {
    let d = mode_discharge(env, price);
    let c = mode_charge(env, price);
    match (d, c) {
        (None, None) => None,
        (Some(s), None) | (None, Some(s)) => Some(s),
        (Some(a), Some(b)) => {
            // Ties go to the charge mode. No slack: one would move a
            // node's discharge flip off `−z` by `slack/d`, a price the
            // breakpoint sweep does not know about.
            if a.objective(env.z, price, env.eta) < b.objective(env.z, price, env.eta) {
                Some(a)
            } else {
                Some(b)
            }
        }
    }
}

/// The storage-oblivious ablation baseline
/// ([`crate::EnergyPolicy::GridOnly`]): renewables serve demand, the grid
/// covers the rest, the battery is touched only when the grid cannot cover
/// feasibility, and nothing ever charges. No Lyapunov term is optimized —
/// this is what a provider without the paper's S4 would do.
///
/// # Errors
///
/// [`EnergyManagementError::Deficit`] if some node cannot source its
/// demand; [`EnergyManagementError::Invalid`] on internal invariant
/// violation.
pub fn solve_grid_only(
    input: &EnergyManagementInput<'_>,
) -> Result<EnergyOutcome, EnergyManagementError> {
    let mut out = EnergyOutcome::empty();
    solve_grid_only_into(input, &mut out)?;
    Ok(out)
}

/// [`solve_grid_only`] into a caller-owned outcome (cleared first) — the
/// pipeline's allocation-free path. On `Err` the buffer's contents are
/// unspecified.
///
/// # Errors
///
/// Same as [`solve_grid_only`].
pub fn solve_grid_only_into(
    input: &EnergyManagementInput<'_>,
    out: &mut EnergyOutcome,
) -> Result<(), EnergyManagementError> {
    grid_only_into(input, out).map_err(|f| f.error)
}

/// [`solve_grid_only_into`] with its failure located: every check is in
/// [`Check::Feasibility`], so the first failing node in node order fails
/// the solve.
pub(crate) fn grid_only_into(
    input: &EnergyManagementInput<'_>,
    out: &mut EnergyOutcome,
) -> Result<(), S4Failure> {
    let n = input.z.len();
    assert_eq!(input.demand.len(), n, "one demand per node");
    out.decisions.clear();
    out.terms.clear();
    let mut grid_draw = Energy::ZERO;
    let mut z_terms = 0.0;
    for i in 0..n {
        let (decision, term) = grid_only_node(input, i)?;
        if input.is_base_station[i] {
            grid_draw += decision.grid_total();
        }
        z_terms += term;
        out.decisions.push(decision);
        out.terms.push(term);
    }
    let cost = input.cost.cost(grid_draw);
    out.grid_draw = grid_draw;
    out.cost = cost;
    out.objective = z_terms + input.v * cost;
    out.equilibrium_price = None;
    Ok(())
}

/// Node `i`'s grid-only decision and Lyapunov term.
pub(crate) fn grid_only_node(
    input: &EnergyManagementInput<'_>,
    i: usize,
) -> Result<NodeAnswer, S4Failure> {
    let deficit = || {
        S4Failure::new(
            Check::Feasibility,
            i,
            EnergyManagementError::Deficit {
                node: i,
                demand: input.demand[i],
            },
        )
    };
    let env = NodeEnv::from_input(input, i);
    let r_dem = env.renewable.min(env.demand);
    let need = env.demand - r_dem;
    let g = env.g_max.min(need);
    let d = need - g;
    if d > env.d_max + FEAS_EPS {
        return Err(deficit());
    }
    let waste = env.renewable - r_dem;
    let split = RenewableSplit::new(
        input.renewable[i],
        Energy::from_kilowatt_hours(r_dem),
        Energy::ZERO,
        Energy::from_kilowatt_hours(waste),
    )
    .map_err(|_| deficit())?;
    let decision = EnergyDecision::new(
        Energy::from_kilowatt_hours(g),
        Energy::ZERO,
        split,
        Energy::from_kilowatt_hours(d.max(0.0)),
    );
    let grid = GridConnection::new(input.grid_connected[i], input.grid_limits[i]);
    decision
        .validate(input.demand[i], &input.batteries[i], &grid)
        .map_err(|e| S4Failure::new(Check::Feasibility, i, EnergyManagementError::Invalid(e)))?;
    let term = input.z[i]
        * (decision.charge_total().as_kilowatt_hours() - decision.discharge().as_kilowatt_hours());
    Ok((decision, term))
}

/// The safe-mode S4 result: the decisions plus which nodes browned out.
#[derive(Debug, Clone, PartialEq)]
pub struct SafeModeOutcome {
    /// The (validated) decisions, grid draw, cost, and objective for the
    /// *served* portion of each node's demand.
    pub outcome: EnergyOutcome,
    /// `(node, unserved energy)` for every node whose demand exceeded its
    /// combined renewable + grid + battery supply this slot.
    pub deficits: Vec<(usize, Energy)>,
}

/// The degradation ladder's last rung: serve as much of each node's demand
/// as physics allows — renewable first, then grid, then battery — and
/// report the remainder as a brown-out instead of failing. Never charges,
/// never optimizes the Lyapunov term, **never errors**: a node whose
/// demand exceeds every supply simply runs a deficit, which the caller
/// records as a [`crate::DegradationEvent::SafeMode`].
///
/// The returned decisions balance against the *served* demand, so they
/// still apply cleanly to the batteries and the cost accounting stays
/// conservative (the provider pays for every kWh actually drawn).
///
/// # Panics
///
/// Panics only on an internal invariant violation (a by-construction
/// balanced decision failing validation).
#[must_use]
pub fn solve_safe_mode(input: &EnergyManagementInput<'_>) -> SafeModeOutcome {
    let n = input.z.len();
    assert_eq!(input.demand.len(), n, "one demand per node");
    let mut decisions = Vec::with_capacity(n);
    let mut terms = Vec::with_capacity(n);
    let mut deficits = Vec::new();
    let mut grid_draw = Energy::ZERO;
    let mut z_terms = 0.0;
    for i in 0..n {
        let env = NodeEnv::from_input(input, i);
        let r_dem = env.renewable.min(env.demand);
        let g = env.g_max.min(env.demand - r_dem);
        let d = env.d_max.min(env.demand - r_dem - g);
        let served = r_dem + g + d;
        let deficit = (env.demand - served).max(0.0);
        if deficit > FEAS_EPS {
            deficits.push((i, Energy::from_kilowatt_hours(deficit)));
        }
        let split = RenewableSplit::new(
            input.renewable[i],
            Energy::from_kilowatt_hours(r_dem),
            Energy::ZERO,
            Energy::from_kilowatt_hours((env.renewable - r_dem).max(0.0)),
        )
        .expect("safe-mode renewable split is conserving by construction");
        let decision = EnergyDecision::new(
            Energy::from_kilowatt_hours(g),
            Energy::ZERO,
            split,
            Energy::from_kilowatt_hours(d.max(0.0)),
        );
        let grid = GridConnection::new(input.grid_connected[i], input.grid_limits[i]);
        decision
            .validate(
                Energy::from_kilowatt_hours(served),
                &input.batteries[i],
                &grid,
            )
            .expect("safe-mode decision balances its served demand by construction");
        if input.is_base_station[i] {
            grid_draw += decision.grid_total();
        }
        // `t − x` is `t + (−x)` exactly, so the term carries the sign.
        let term = -(input.z[i] * decision.discharge().as_kilowatt_hours());
        z_terms += term;
        decisions.push(decision);
        terms.push(term);
    }
    let cost = input.cost.cost(grid_draw);
    SafeModeOutcome {
        outcome: EnergyOutcome {
            decisions,
            terms,
            grid_draw,
            cost,
            objective: z_terms + input.v * cost,
            equilibrium_price: None,
        },
        deficits,
    }
}

/// Solves S4 exactly. See the module docs for the algorithm.
///
/// # Examples
///
/// ```
/// use greencell_core::{solve_energy_management, EnergyManagementInput};
/// use greencell_energy::{Battery, QuadraticCost};
/// use greencell_units::Energy;
///
/// let kwh = Energy::from_kilowatt_hours;
/// // One base station, deeply "under-charged" in the Lyapunov sense
/// // (z ≪ 0): it buys its full charge capacity from the grid.
/// let battery = Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.1), kwh(0.2));
/// let input = EnergyManagementInput {
///     z: &[-10.0],
///     demand: &[Energy::ZERO],
///     renewable: &[Energy::ZERO],
///     batteries: &[battery],
///     grid_connected: &[true],
///     grid_limits: &[kwh(0.2)],
///     is_base_station: &[true],
///     cost: &QuadraticCost::paper_default(),
///     v: 1.0,
/// };
/// let out = solve_energy_management(&input)?;
/// assert!((out.grid_draw.as_kilowatt_hours() - 0.1).abs() < 1e-9);
/// # Ok::<(), greencell_core::EnergyManagementError>(())
/// ```
///
/// # Errors
///
/// [`EnergyManagementError::Deficit`] if some node cannot source its
/// demand; [`EnergyManagementError::Invalid`] if an internal invariant is
/// violated (a produced decision fails validation — a bug, not an input
/// condition).
pub fn solve_energy_management(
    input: &EnergyManagementInput<'_>,
) -> Result<EnergyOutcome, EnergyManagementError> {
    let mut ws = S4Workspace::new();
    let mut out = EnergyOutcome::empty();
    solve_energy_management_into(input, &mut ws, &mut out)?;
    Ok(out)
}

/// [`solve_energy_management`] into a caller-owned workspace and outcome —
/// the pipeline's allocation-free path. The outcome is cleared first; on
/// `Err` its contents are unspecified.
///
/// Only the base stations couple, through `V·f(P)`: a mobile user's draw
/// is not billed, so each user's answer is its own response at price 0
/// (§II-E). The solve is the composition of those two halves over one node
/// list: the users' responses, and the coupled solve over the base
/// stations alone (the coupled half of
/// [`crate::pipeline::MarginalPriceStage`]: one exact breakpoint sweep, see
/// the module docs). Its failure is the first of theirs in `(check, node)`
/// order, and Ψ̂₄ sums every node's term in node order, so the composition
/// is the monolithic solve bit for bit.
///
/// # Errors
///
/// Same as [`solve_energy_management`].
pub fn solve_energy_management_into(
    input: &EnergyManagementInput<'_>,
    ws: &mut S4Workspace,
    out: &mut EnergyOutcome,
) -> Result<(), EnergyManagementError> {
    let n = input.z.len();
    assert_eq!(input.demand.len(), n, "one demand per node");
    let S4Workspace { sweep, bs, bs_out } = ws;
    bs.clear();
    for i in (0..n).filter(|&i| input.is_base_station[i]) {
        bs.push(
            i,
            input.z[i],
            input.demand[i],
            input.renewable[i],
            input.batteries[i],
            input.grid_connected[i],
            input.grid_limits[i],
        );
    }
    let coupled = coupled_into(&bs.input(input.cost, input.v), sweep, bs_out);
    let solved = coupled.is_ok();
    let mut failure = coupled.err().map(|f| f.renamed(|k| bs.nodes[k]));
    out.decisions.clear();
    out.terms.clear();
    let mut z_terms = 0.0;
    let mut rank = 0;
    for i in 0..n {
        let answer = if input.is_base_station[i] {
            rank += 1;
            solved.then(|| (bs_out.decisions[rank - 1], bs_out.terms[rank - 1]))
        } else {
            match respond_at_zero(input, i) {
                Ok(answer) => Some(answer),
                Err(f) => {
                    failure = S4Failure::first(failure, Some(f));
                    None
                }
            }
        };
        if let Some((decision, term)) = answer {
            z_terms += term;
            out.decisions.push(decision);
            out.terms.push(term);
        }
    }
    if let Some(f) = failure {
        return Err(f.error);
    }
    out.grid_draw = bs_out.grid_draw;
    out.cost = bs_out.cost;
    out.objective = z_terms + input.v * out.cost;
    out.equilibrium_price = bs_out.equilibrium_price;
    Ok(())
}

/// Node `i`'s response at price 0 — the whole answer for a node whose draw
/// is not billed: its feasibility, then its assembled and validated
/// decision with its Lyapunov term.
pub(crate) fn respond_at_zero(
    input: &EnergyManagementInput<'_>,
    i: usize,
) -> Result<NodeAnswer, S4Failure> {
    let env = NodeEnv::from_input(input, i);
    let Some(sol) = node_at_price(&env, 0.0) else {
        return Err(infeasible(input, i));
    };
    assemble(input, &env, i, &sol).map_err(|e| S4Failure::new(Check::Assembly, i, e))
}

/// Node `i` cannot source its demand.
fn infeasible(input: &EnergyManagementInput<'_>, i: usize) -> S4Failure {
    S4Failure::new(
        Check::Feasibility,
        i,
        EnergyManagementError::Deficit {
            node: i,
            demand: input.demand[i],
        },
    )
}

/// The coupled half of the marginal-price solve: every node of `input` in
/// one equilibrium. On an input that lists only base stations (a
/// [`BsInput`]) it is the part of S4 that only one thread can do.
///
/// The equilibrium price comes from one exact sweep, with no search. Each
/// base station's draw is a non-increasing step function of the price:
///
/// * in discharge mode the source order (renewable at 0, battery at `−z`,
///   grid at `p`) changes only at `p = 0` and `p = −z`;
/// * in charge mode the renewable-shift and grid-charge choices change
///   only at `p = −z·η`;
/// * for `z < 0` the discharge-vs-charge comparison flips at `−z`, and for
///   `z ≥ 0` it never flips, so the mode choice adds no breakpoint.
///
/// So `g(p) = p − V·f'(P(p))` rises by `1` per unit price inside each
/// piece between breakpoints and jumps up at them. The sweep sorts the
/// breakpoints inside the price bracket once, then walks the pieces
/// upwards with a running draw `P`, re-evaluating at each breakpoint only
/// the base stations that own it, at a price inside the next piece. It
/// stops at the first piece whose candidate `V·f'(P)` is not above the
/// piece's upper end: the candidate is `p*` when it lies inside the piece,
/// and otherwise the root sits on the jump at the piece's lower end, where
/// the fractional fill absorbs the jump. O(B log B) over the B base
/// stations, with no state carried across slots.
///
/// # Errors
///
/// The first failing check: a node's [`Check::Feasibility`], the
/// [`Check::Bracket`], or a node's [`Check::Assembly`].
pub(crate) fn solve_coupled_into(
    input: &EnergyManagementInput<'_>,
    ws: &mut S4Workspace,
    out: &mut EnergyOutcome,
) -> Result<(), S4Failure> {
    coupled_into(input, &mut ws.sweep, out)
}

fn coupled_into(
    input: &EnergyManagementInput<'_>,
    ws: &mut SweepScratch,
    out: &mut EnergyOutcome,
) -> Result<(), S4Failure> {
    let SweepScratch {
        envs,
        bs_indices,
        solutions,
        breakpoints,
    } = ws;
    let (lo, hi) = prepare(input, envs, bs_indices, solutions)?;
    let p_star = sweep_equilibrium(input, envs, bs_indices, solutions, breakpoints, lo, hi);
    finish(input, envs, bs_indices, solutions, p_star, out)
}

/// The reference S4 solver, kept as the test oracle for the sweep: the
/// same closed forms, fill and assembly, but the equilibrium price comes
/// from 100 blind bisection steps of `g(p) = p − V·f'(P(p))`, each
/// evaluating every base station.
///
/// # Errors
///
/// Same as [`solve_energy_management`].
pub fn solve_energy_management_reference(
    input: &EnergyManagementInput<'_>,
) -> Result<EnergyOutcome, EnergyManagementError> {
    let (mut envs, mut bs_indices, mut solutions) = (Vec::new(), Vec::new(), Vec::new());
    let (lo, hi) =
        prepare(input, &mut envs, &mut bs_indices, &mut solutions).map_err(|f| f.error)?;
    let total_bs_draw = |price: f64| -> f64 {
        bs_indices
            .iter()
            .map(|&i| respond(&envs[i], price).draw())
            .sum()
    };
    let p_star = bisect_increasing(|p| p - marginal_price(input, total_bs_draw(p)), lo, hi, 100);
    let mut out = EnergyOutcome::empty();
    finish(input, &envs, &bs_indices, &mut solutions, p_star, &mut out).map_err(|f| f.error)?;
    Ok(out)
}

/// The sweep-vs-reference lockstep check on one input: `got` (the sweep's
/// result) must match `reference` ([`solve_energy_management_reference`]
/// on the same input) with identical errors; `grid_draw`, `objective` and
/// the equilibrium price within 10⁻⁹ relative (of at least `EPS`: at
/// `V = 0` the bisection stops at 2⁻¹⁰¹, not 0); and the same per-node
/// mode — discharging, charging, or neither — wherever the reference's
/// two mode objectives at its price differ by more than `EPS`. Returns the
/// first divergence, described, or `None`.
pub fn energy_lockstep_divergence(
    input: &EnergyManagementInput<'_>,
    got: Result<&EnergyOutcome, &EnergyManagementError>,
    reference: Result<&EnergyOutcome, &EnergyManagementError>,
) -> Option<String> {
    let (got, reference) = match (got, reference) {
        (Ok(g), Ok(r)) => (g, r),
        (Err(g), Err(r)) if g == r => return None,
        (g, r) => return Some(format!("got {g:?}, reference {r:?}")),
    };
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(EPS);
    let (g_draw, r_draw) = (got.grid_draw, reference.grid_draw);
    if !close(g_draw.as_kilowatt_hours(), r_draw.as_kilowatt_hours()) {
        return Some(format!("grid draw {g_draw}, reference {r_draw}"));
    }
    if !close(got.objective, reference.objective) {
        let (g, r) = (got.objective, reference.objective);
        return Some(format!("objective {g}, reference {r}"));
    }
    let (p_got, p_ref) = (got.equilibrium_price, reference.equilibrium_price);
    let (Some(p_got), Some(p_ref)) = (p_got, p_ref) else {
        return Some(format!("price {p_got:?}, reference {p_ref:?}"));
    };
    if !close(p_got, p_ref) {
        return Some(format!("price {p_got}, reference {p_ref}"));
    }
    let mode = |d: &EnergyDecision| {
        (
            d.discharge() > Energy::ZERO,
            d.charge_total() > Energy::ZERO,
        )
    };
    for (i, (g, r)) in got.decisions.iter().zip(&reference.decisions).enumerate() {
        let env = NodeEnv::from_input(input, i);
        let price = if input.is_base_station[i] { p_ref } else { 0.0 };
        let gap = match (mode_discharge(&env, price), mode_charge(&env, price)) {
            (Some(d), Some(c)) => {
                (d.objective(env.z, price, env.eta) - c.objective(env.z, price, env.eta)).abs()
            }
            _ => f64::INFINITY,
        };
        if gap > EPS && mode(g) != mode(r) {
            return Some(format!("node {i}: decision {g:?}, reference {r:?}"));
        }
    }
    None
}

/// Fills the per-node environments, checks every node's feasibility and
/// stores its price-0 response (the mobile users' final solutions: their
/// draws are not billed), lists the base stations, and returns the price
/// bracket.
fn prepare(
    input: &EnergyManagementInput<'_>,
    envs: &mut Vec<NodeEnv>,
    bs_indices: &mut Vec<usize>,
    solutions: &mut Vec<NodeSolution>,
) -> Result<(f64, f64), S4Failure> {
    let n = input.z.len();
    assert_eq!(input.demand.len(), n, "one demand per node");
    envs.clear();
    envs.extend((0..n).map(|i| NodeEnv::from_input(input, i)));
    // Feasibility is price-independent (some mode exists or none does).
    solutions.clear();
    for (i, env) in envs.iter().enumerate() {
        let Some(sol) = node_at_price(env, 0.0) else {
            return Err(infeasible(input, i));
        };
        solutions.push(sol);
    }
    bs_indices.clear();
    bs_indices.extend((0..n).filter(|&i| input.is_base_station[i]));
    let p_ub: f64 = bs_indices.iter().map(|&i| envs[i].g_max).sum();
    price_bracket(input, p_ub).map_err(|e| S4Failure::new(Check::Bracket, 0, e))
}

/// A feasible node's response to `price`.
fn respond(env: &NodeEnv, price: f64) -> NodeSolution {
    node_at_price(env, price).expect("feasibility checked")
}

/// `V·f'(P)` at a base-station draw of `draw` kWh.
fn marginal_price(input: &EnergyManagementInput<'_>, draw: f64) -> f64 {
    input.v * input.cost.marginal(Energy::from_kilowatt_hours(draw))
}

/// The equilibrium price by the breakpoint sweep described at
/// [`solve_energy_management_into`]. Leaves the base stations' entries of
/// `solutions` at their responses inside the last piece visited.
fn sweep_equilibrium(
    input: &EnergyManagementInput<'_>,
    envs: &[NodeEnv],
    bs_indices: &[usize],
    solutions: &mut [NodeSolution],
    breakpoints: &mut Vec<(f64, usize)>,
    lo: f64,
    hi: f64,
) -> f64 {
    // The discharge order's other flip, p = 0, never lies inside: the
    // bracket starts at V·f'(0) ≥ 0.
    breakpoints.clear();
    for &i in bs_indices {
        let env = &envs[i];
        for price in [-env.z, -(env.z * env.eta)] {
            if lo < price && price < hi {
                breakpoints.push((price, i));
            }
        }
    }
    breakpoints.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    // A node whose flips coincide (η = 1, or z = 0) owns the price once.
    breakpoints.dedup();

    let inside = |a: f64, b: f64| 0.5 * a + 0.5 * b;
    let mut lower = lo;
    let mut upper = breakpoints.first().map_or(hi, |b| b.0);
    let mut draw = 0.0;
    for &i in bs_indices {
        solutions[i] = respond(&envs[i], inside(lower, upper));
        draw += solutions[i].draw();
    }
    let mut next = 0;
    while next < breakpoints.len() && marginal_price(input, draw) > upper {
        lower = upper;
        let owners = breakpoints[next..]
            .iter()
            .take_while(|b| b.0 == lower)
            .count();
        let end = next + owners;
        upper = breakpoints.get(end).map_or(hi, |b| b.0);
        let price = inside(lower, upper);
        for &(_, i) in &breakpoints[next..end] {
            draw -= solutions[i].draw();
            solutions[i] = respond(&envs[i], price);
            draw += solutions[i].draw();
        }
        next = end;
    }
    // Re-sum the piece's draw in base-station order: the running total has
    // picked up rounding from every update on the way.
    let draw: f64 = bs_indices.iter().map(|&i| solutions[i].draw()).sum();
    let candidate = marginal_price(input, draw);
    // The re-summed candidate may sit an ulp past the piece the running
    // total stopped in; the clamp keeps `p*` inside it.
    if candidate > lower {
        candidate.min(upper)
    } else {
        lower
    }
}

/// Sets the base stations' responses to `p_star`, runs the fractional
/// fill, and assembles the outcome — shared by the sweep and the
/// reference.
fn finish(
    input: &EnergyManagementInput<'_>,
    envs: &[NodeEnv],
    bs_indices: &[usize],
    solutions: &mut [NodeSolution],
    p_star: f64,
    out: &mut EnergyOutcome,
) -> Result<(), S4Failure> {
    for &i in bs_indices {
        solutions[i] = respond(&envs[i], p_star);
    }
    fractional_fill(input, envs, bs_indices, solutions, p_star);
    assemble_outcome(input, envs, solutions, p_star, out)
}

/// The equilibrium price's bracket `[V·f'(0), V·f'(p_ub) + 1]`, shared by
/// the sweep and the reference so both fail alike when it overflows.
fn price_bracket(
    input: &EnergyManagementInput<'_>,
    p_ub: f64,
) -> Result<(f64, f64), EnergyManagementError> {
    let lo = marginal_price(input, 0.0);
    let hi = marginal_price(input, p_ub) + 1.0;
    if lo.is_finite() && hi.is_finite() {
        Ok((lo, hi))
    } else {
        Err(EnergyManagementError::PriceOverflow { lo, hi })
    }
}

/// Whether a node's closed-form response is discontinuous at `p_star` —
/// one of its battery economics ties with the grid price, so its
/// continuous knobs are the ones that absorb the fractional fill.
///
/// The tolerance is relative to the compared quantities on each side
/// (`z·η` vs `p*` for the grid-charge flip, `−z` vs `p*` for the
/// discharge flip). True ties come out of the price search within a few
/// ulps of the flip (~1e-15 relative); distinct nodes differ by at least
/// battery-level-scale amounts (~1e-4 relative), so 1e-9 sits orders of
/// magnitude clear of both. An *absolute* band like the former
/// `1e-6·(1+|p*|)` fails at city scale, where `|z| ≈ V·γ_max` makes
/// genuinely distinct nodes sit inside the band.
fn price_tied(env: &NodeEnv, p_star: f64) -> bool {
    const TIE_REL: f64 = 1e-9;
    let charge_flip = env.z * env.eta + p_star;
    let discharge_flip = -env.z - p_star;
    charge_flip.abs() <= TIE_REL * (1.0 + p_star.abs() + (env.z * env.eta).abs())
        || discharge_flip.abs() <= TIE_REL * (1.0 + p_star.abs() + env.z.abs())
}

/// The fractional fill at the equilibrium price, shared by the sweep and
/// the reference: price-tied continuous knobs are adjusted to
/// land the total base-station draw exactly on `f'⁻¹(p*/V)`.
fn fractional_fill(
    input: &EnergyManagementInput<'_>,
    envs: &[NodeEnv],
    bs_indices: &[usize],
    solutions: &mut [NodeSolution],
    p_star: f64,
) {
    // V ≤ EPS is a pure-stability run: the equilibrium is degenerate
    // (p* ≈ 0 solves p = V·f'(·)) and `p*/V` is meaningless, so the
    // bang-bang per-node responses already stand — skip the fill rather
    // than aim it at `marginal_inverse(p*/EPS)`.
    if input.v <= EPS {
        return;
    }
    let Some(target) = input.cost.marginal_inverse(p_star / input.v) else {
        return;
    };
    let target = target.as_kilowatt_hours();
    for &i in bs_indices.iter() {
        // Recompute the total from the solutions at each loop head: a
        // running `+=`/`-=` total accumulates FP drift across the
        // shed/shift/swing adjustments, which the FEAS_EPS exit test and
        // the residual mins then inherit.
        let mut total: f64 = bs_indices.iter().map(|&j| solutions[j].draw()).sum();
        if (total - target).abs() <= FEAS_EPS {
            break;
        }
        let env = &envs[i];
        if !price_tied(env, p_star) {
            continue;
        }
        let sol = &mut solutions[i];
        if total > target {
            // Reduce draw: shed grid charging first; then re-point
            // banked renewable at the demand (displacing grid); then
            // substitute discharge for grid service (only if not
            // charging at all).
            let shed = sol.grid_to_battery.min(total - target);
            sol.grid_to_battery -= shed;
            total -= shed;
            if total > target {
                let shift = sol
                    .renewable_to_battery
                    .min(sol.grid_to_demand)
                    .min(total - target)
                    .max(0.0);
                sol.renewable_to_battery -= shift;
                sol.renewable_to_demand += shift;
                sol.grid_to_demand -= shift;
                total -= shift;
            }
            if total > target && sol.grid_to_battery <= EPS && sol.renewable_to_battery <= EPS {
                let swing = (env.d_max - sol.discharge)
                    .min(sol.grid_to_demand)
                    .min(total - target)
                    .max(0.0);
                sol.discharge += swing;
                sol.grid_to_demand -= swing;
                total -= swing;
            }
        } else {
            // Increase draw: buy back grid service for discharge; then
            // re-point demand-serving renewable at the battery (buying
            // grid for the demand instead); then grid-charge.
            let swing = sol
                .discharge
                .min(env.g_max - sol.draw())
                .min(target - total)
                .max(0.0);
            sol.discharge -= swing;
            sol.grid_to_demand += swing;
            total += swing;
            if total < target && sol.discharge <= EPS {
                let shift = sol
                    .renewable_to_demand
                    .min(env.c_room - sol.grid_to_battery - sol.renewable_to_battery)
                    .min(env.g_max - sol.draw())
                    .min(target - total)
                    .max(0.0);
                sol.renewable_to_demand -= shift;
                sol.renewable_to_battery += shift;
                sol.grid_to_demand += shift;
                total += shift;
            }
            if total < target && sol.discharge <= EPS {
                let headroom = (env.c_room - sol.grid_to_battery - sol.renewable_to_battery)
                    .min(env.g_max - sol.draw())
                    .min(target - total)
                    .max(0.0);
                sol.grid_to_battery += headroom;
                total += headroom;
            }
        }
    }
}

/// Assembles, validates, and prices the final per-node solutions into
/// `out`.
fn assemble_outcome(
    input: &EnergyManagementInput<'_>,
    envs: &[NodeEnv],
    solutions: &[NodeSolution],
    p_star: f64,
    out: &mut EnergyOutcome,
) -> Result<(), S4Failure> {
    out.decisions.clear();
    out.terms.clear();
    let mut grid_draw = Energy::ZERO;
    let mut z_terms = 0.0;
    for (i, sol) in solutions.iter().enumerate() {
        let (decision, term) =
            assemble(input, &envs[i], i, sol).map_err(|e| S4Failure::new(Check::Assembly, i, e))?;
        if input.is_base_station[i] {
            grid_draw += decision.grid_total();
        }
        z_terms += term;
        out.decisions.push(decision);
        out.terms.push(term);
    }
    let cost = input.cost.cost(grid_draw);
    out.grid_draw = grid_draw;
    out.cost = cost;
    out.objective = z_terms + input.v * cost;
    out.equilibrium_price = Some(p_star);
    Ok(())
}

/// Node `i`'s validated decision for `sol`, with its Lyapunov term
/// `z·(η·c − d)`.
fn assemble(
    input: &EnergyManagementInput<'_>,
    env: &NodeEnv,
    i: usize,
    sol: &NodeSolution,
) -> Result<NodeAnswer, EnergyManagementError> {
    let waste = (env.renewable - sol.renewable_to_demand - sol.renewable_to_battery).max(0.0);
    let split = RenewableSplit::new(
        input.renewable[i],
        Energy::from_kilowatt_hours(sol.renewable_to_demand),
        Energy::from_kilowatt_hours(sol.renewable_to_battery),
        Energy::from_kilowatt_hours(waste),
    )
    .map_err(|_| EnergyManagementError::Deficit {
        node: i,
        demand: input.demand[i],
    })?;
    let decision = EnergyDecision::new(
        Energy::from_kilowatt_hours(sol.grid_to_demand),
        Energy::from_kilowatt_hours(sol.grid_to_battery),
        split,
        Energy::from_kilowatt_hours(sol.discharge),
    );
    let grid = GridConnection::new(input.grid_connected[i], input.grid_limits[i]);
    decision
        .validate(input.demand[i], &input.batteries[i], &grid)
        .map_err(EnergyManagementError::Invalid)?;
    let term = input.z[i]
        * (input.batteries[i].charge_efficiency() * decision.charge_total().as_kilowatt_hours()
            - decision.discharge().as_kilowatt_hours());
    Ok((decision, term))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kwh(x: f64) -> Energy {
        Energy::from_kilowatt_hours(x)
    }

    struct Fixture {
        z: Vec<f64>,
        demand: Vec<Energy>,
        renewable: Vec<Energy>,
        batteries: Vec<Battery>,
        grid_connected: Vec<bool>,
        grid_limits: Vec<Energy>,
        is_bs: Vec<bool>,
        cost: QuadraticCost,
        v: f64,
    }

    impl Fixture {
        fn input(&self) -> EnergyManagementInput<'_> {
            EnergyManagementInput {
                z: &self.z,
                demand: &self.demand,
                renewable: &self.renewable,
                batteries: &self.batteries,
                grid_connected: &self.grid_connected,
                grid_limits: &self.grid_limits,
                is_base_station: &self.is_bs,
                cost: &self.cost,
                v: self.v,
            }
        }
    }

    /// One BS with a half-full battery.
    fn one_bs(z: f64, demand: f64, renewable: f64) -> Fixture {
        Fixture {
            z: vec![z],
            demand: vec![kwh(demand)],
            renewable: vec![kwh(renewable)],
            batteries: vec![Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.1), kwh(0.5))],
            grid_connected: vec![true],
            grid_limits: vec![kwh(0.2)],
            is_bs: vec![true],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        }
    }

    /// `mode_discharge` as it was: a `sort_by` of the three sources.
    fn mode_discharge_reference(env: &NodeEnv, price: f64) -> Option<NodeSolution> {
        let mut sources = [
            (0.0, 0u8, env.renewable),
            (-env.z, 1u8, env.d_max),
            (price, 2u8, env.g_max),
        ];
        sources.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut need = env.demand;
        let mut taken = [0.0f64; 3];
        for &(_, which, cap) in &sources {
            let amount = need.min(cap);
            taken[which as usize] = amount;
            need -= amount;
            if need <= EPS {
                break;
            }
        }
        if need > FEAS_EPS {
            return None;
        }
        Some(NodeSolution {
            grid_to_demand: taken[2],
            grid_to_battery: 0.0,
            renewable_to_demand: taken[0],
            renewable_to_battery: 0.0,
            discharge: taken[1],
        })
    }

    /// `mode_charge` as it was: `min_by` over the candidates, evaluating
    /// both objectives per comparison.
    fn mode_charge_reference(env: &NodeEnv, price: f64) -> Option<NodeSolution> {
        let u_max = env.renewable.min(env.demand);
        let u_min = (env.demand - env.g_max).max(0.0);
        if u_min > u_max + FEAS_EPS {
            return None;
        }
        let u_min = u_min.min(u_max);
        let build = |u: f64| -> NodeSolution {
            let g = (env.demand - u).max(0.0);
            let leftover = env.renewable - u;
            let cr = if env.z < 0.0 {
                leftover.min(env.c_room)
            } else {
                0.0
            };
            let cg = if env.z * env.eta + price < 0.0 {
                (env.c_room - cr).min(env.g_max - g).max(0.0)
            } else {
                0.0
            };
            NodeSolution {
                grid_to_demand: g,
                grid_to_battery: cg,
                renewable_to_demand: u,
                renewable_to_battery: cr,
                discharge: 0.0,
            }
        };
        let mut candidates = [u_min, u_max, 0.0, 0.0];
        let mut count = 2;
        let saturation = env.renewable - env.c_room;
        if saturation > u_min && saturation < u_max {
            candidates[count] = saturation;
            count += 1;
        }
        let flip = env.demand - env.g_max + env.c_room;
        if flip > u_min && flip < u_max {
            candidates[count] = flip;
            count += 1;
        }
        candidates[..count]
            .iter()
            .copied()
            .map(build)
            .min_by(|a, b| {
                a.objective(env.z, price, env.eta)
                    .total_cmp(&b.objective(env.z, price, env.eta))
            })
    }

    fn solution_bits(sol: Option<NodeSolution>) -> Option<[u64; 5]> {
        sol.map(|s| {
            [
                s.grid_to_demand,
                s.grid_to_battery,
                s.renewable_to_demand,
                s.renewable_to_battery,
                s.discharge,
            ]
            .map(f64::to_bits)
        })
    }

    /// Both modes give their former `sort_by`/`min_by` answers bit for
    /// bit on random environments drawn from short lists: `z = ±0`,
    /// lossless and lossy batteries, zero demand, zero `g_max`, and prices
    /// at which discharge costs tie or every charge candidate's objective
    /// is zero.
    #[test]
    fn modes_match_their_sort_and_min_by_oracles() {
        let mut rng = greencell_stochastic::Rng::seed_from(5);
        let mut pick = |options: &[f64]| options[rng.index(options.len())];
        let mut seen = [0usize; 6];
        for _ in 0..50_000 {
            let env = NodeEnv {
                z: pick(&[0.0, -0.0, 1.0, -1.0, -2.5, 3.0, -1e-9]),
                demand: pick(&[0.0, 0.05, 0.1, 0.3]),
                renewable: pick(&[0.0, 0.05, 0.2]),
                g_max: pick(&[0.0, 0.1, 0.2]),
                d_max: pick(&[0.0, 0.1, 0.05]),
                c_room: pick(&[0.0, 0.1, 0.5, 0.15]),
                eta: pick(&[1.0, 0.9]),
            };
            let price = pick(&[0.0, -0.0, 0.5, 1.0, 2.5, 3.0, 2.25]);
            assert_eq!(
                solution_bits(mode_discharge(&env, price)),
                solution_bits(mode_discharge_reference(&env, price)),
                "discharge {env:?} at {price}"
            );
            assert_eq!(
                solution_bits(mode_charge(&env, price)),
                solution_bits(mode_charge_reference(&env, price)),
                "charge {env:?} at {price}"
            );
            for (k, hit) in [
                env.z == 0.0,
                env.eta < 1.0,
                env.demand == 0.0,
                env.g_max == 0.0,
                -env.z == price,
                env.z == 0.0 && price == 0.0,
            ]
            .into_iter()
            .enumerate()
            {
                seen[k] += usize::from(hit);
            }
        }
        assert!(seen.iter().all(|&n| n >= 100), "{seen:?}");
    }

    #[test]
    fn renewable_covers_demand_without_grid() {
        let f = one_bs(-10.0, 0.05, 0.2);
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        assert_eq!(d.renewable().to_demand(), kwh(0.05));
        assert_eq!(d.grid_to_demand(), Energy::ZERO);
        // z < 0 with plenty of leftover: charge from renewable (free)…
        assert!(d.renewable().to_battery() > Energy::ZERO);
    }

    #[test]
    fn positive_z_discharges_first() {
        let f = one_bs(5.0, 0.08, 0.0);
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        assert!((d.discharge().as_kilowatt_hours() - 0.08).abs() < 1e-9);
        assert_eq!(d.grid_to_demand(), Energy::ZERO);
        assert_eq!(out.grid_draw, Energy::ZERO);
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn very_negative_z_charges_from_grid() {
        // |z| = 10 ≫ V·f'(anything ≤ 0.3) ≈ 0.68: buy full charge capacity.
        let f = one_bs(-10.0, 0.0, 0.0);
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        assert!((d.grid_to_battery().as_kilowatt_hours() - 0.1).abs() < 1e-9);
        assert!((out.grid_draw.as_kilowatt_hours() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn mildly_negative_z_charges_partially_to_price_equilibrium() {
        // V·f'(P) = 1.6P + 0.2; |z| = 0.28 ⇒ target P = 0.05 kWh: a
        // *fractional* grid-charge buy.
        let f = one_bs(-0.28, 0.0, 0.0);
        let out = solve_energy_management(&f.input()).unwrap();
        assert!(
            (out.grid_draw.as_kilowatt_hours() - 0.05).abs() < 1e-6,
            "drew {}",
            out.grid_draw.as_kilowatt_hours()
        );
    }

    #[test]
    fn barely_negative_z_does_not_charge() {
        // |z| = 0.1 < V·f'(0) = 0.2: price never drops low enough.
        let f = one_bs(-0.1, 0.0, 0.0);
        let out = solve_energy_management(&f.input()).unwrap();
        assert_eq!(out.grid_draw, Energy::ZERO);
        assert_eq!(out.decisions[0].grid_to_battery(), Energy::ZERO);
    }

    #[test]
    fn grid_cap_forces_discharge() {
        // Demand 0.25 > p_max 0.2: must discharge 0.05 even though z < 0.
        let f = one_bs(-10.0, 0.25, 0.0);
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        assert!((d.discharge().as_kilowatt_hours() - 0.05).abs() < 1e-9);
        assert!((d.grid_to_demand().as_kilowatt_hours() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn expensive_grid_makes_discharge_substitute() {
        // z = −0.1 (battery mildly below shift) but V·f' at the base draw
        // is high: V = 10 ⇒ price at P = 0.08 is 10·(1.6·0.08+0.2) = 3.28 >
        // |z| = 0.1 ⇒ discharge to displace grid.
        let mut f = one_bs(-0.1, 0.08, 0.0);
        f.v = 10.0;
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        assert!(d.discharge() > Energy::ZERO);
        assert!(d.grid_to_demand() < kwh(0.08));
    }

    #[test]
    fn discharge_can_beat_renewable_charging() {
        // Regression for the property-test find: small |z| with leftover
        // renewable AND an expensive grid — giving up the tiny renewable
        // charge gain to discharge past the grid price wins.
        let mut f = one_bs(-0.05, 0.1, 0.04);
        f.v = 20.0; // V·f'(0.06) = 20·(1.6·0.06+0.2) ≈ 5.9 ≫ |z|
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        assert!(
            d.discharge() > Energy::ZERO,
            "should discharge instead of paying the expensive grid"
        );
        assert_eq!(d.renewable().to_battery(), Energy::ZERO, "mutual exclusion");
    }

    #[test]
    fn user_draws_do_not_enter_grid_total() {
        let f = Fixture {
            z: vec![-10.0],
            demand: vec![kwh(0.01)],
            renewable: vec![Energy::ZERO],
            batteries: vec![Battery::new(kwh(1.0), kwh(0.06), kwh(0.06))],
            grid_connected: vec![true],
            grid_limits: vec![kwh(0.2)],
            is_bs: vec![false],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        };
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        // User buys the full charge at price 0 and serves demand from grid.
        assert!((d.grid_to_battery().as_kilowatt_hours() - 0.06).abs() < 1e-9);
        assert_eq!(out.grid_draw, Energy::ZERO);
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn disconnected_user_lives_on_battery() {
        let f = Fixture {
            z: vec![3.0],
            demand: vec![kwh(0.02)],
            renewable: vec![kwh(0.005)],
            batteries: vec![Battery::with_level(
                kwh(1.0),
                kwh(0.06),
                kwh(0.06),
                kwh(0.5),
            )],
            grid_connected: vec![false],
            grid_limits: vec![kwh(0.2)],
            is_bs: vec![false],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        };
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        // z > 0 makes discharging the *cheapest* source (it earns z per
        // kWh in the Lyapunov objective), so the battery covers the whole
        // demand and the small renewable harvest is curtailed.
        assert!((d.discharge().as_kilowatt_hours() - 0.02).abs() < 1e-9);
        assert_eq!(d.renewable().curtailed(), kwh(0.005));
        assert_eq!(d.grid_total(), Energy::ZERO);
    }

    #[test]
    fn deficit_reported() {
        let f = Fixture {
            z: vec![0.0],
            demand: vec![kwh(0.5)],
            renewable: vec![Energy::ZERO],
            batteries: vec![Battery::new(kwh(1.0), kwh(0.06), kwh(0.06))], // empty
            grid_connected: vec![false],
            grid_limits: vec![kwh(0.2)],
            is_bs: vec![false],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        };
        assert!(matches!(
            solve_energy_management(&f.input()).unwrap_err(),
            EnergyManagementError::Deficit { node: 0, .. }
        ));
    }

    #[test]
    fn two_bs_share_the_price() {
        // Identical BSs with z = −0.28 and combined charge capacity 0.2:
        // equilibrium P = 0.05 shared between them.
        let f = Fixture {
            z: vec![-0.28, -0.28],
            demand: vec![Energy::ZERO, Energy::ZERO],
            renewable: vec![Energy::ZERO, Energy::ZERO],
            batteries: vec![Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.1), kwh(0.5)); 2],
            grid_connected: vec![true, true],
            grid_limits: vec![kwh(0.2), kwh(0.2)],
            is_bs: vec![true, true],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        };
        let out = solve_energy_management(&f.input()).unwrap();
        assert!(
            (out.grid_draw.as_kilowatt_hours() - 0.05).abs() < 1e-6,
            "total draw {}",
            out.grid_draw.as_kilowatt_hours()
        );
    }

    #[test]
    fn grid_only_never_beats_marginal_price() {
        for &(z, demand, renewable, v) in &[
            (-0.5, 0.05, 0.02, 1.0),
            (0.3, 0.08, 0.0, 1.0),
            (-2.0, 0.15, 0.05, 2.0),
        ] {
            let mut f = one_bs(z, demand, renewable);
            f.v = v;
            let smart = solve_energy_management(&f.input()).unwrap();
            let naive = solve_grid_only(&f.input()).unwrap();
            assert!(
                smart.objective <= naive.objective + 1e-9,
                "marginal price {} must not lose to grid-only {}",
                smart.objective,
                naive.objective
            );
        }
    }

    #[test]
    fn grid_only_discharges_only_when_forced() {
        // Demand above the grid cap: the remainder must come from storage.
        let f = one_bs(-1.0, 0.25, 0.0);
        let out = solve_grid_only(&f.input()).unwrap();
        let d = &out.decisions[0];
        assert!((d.grid_to_demand().as_kilowatt_hours() - 0.2).abs() < 1e-9);
        assert!((d.discharge().as_kilowatt_hours() - 0.05).abs() < 1e-9);
        assert_eq!(d.grid_to_battery(), Energy::ZERO);
        // Comfortable demand: no battery involvement at all.
        let f2 = one_bs(-1.0, 0.1, 0.0);
        let out2 = solve_grid_only(&f2.input()).unwrap();
        assert_eq!(out2.decisions[0].discharge(), Energy::ZERO);
    }

    #[test]
    fn safe_mode_reports_brownout_instead_of_failing() {
        // Disconnected node with an empty battery: marginal-price and
        // grid-only both error; safe mode serves the renewable sliver and
        // reports the rest as a deficit.
        let f = Fixture {
            z: vec![0.0],
            demand: vec![kwh(0.5)],
            renewable: vec![kwh(0.02)],
            batteries: vec![Battery::new(kwh(1.0), kwh(0.06), kwh(0.06))],
            grid_connected: vec![false],
            grid_limits: vec![kwh(0.2)],
            is_bs: vec![false],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        };
        assert!(solve_energy_management(&f.input()).is_err());
        assert!(solve_grid_only(&f.input()).is_err());
        let safe = solve_safe_mode(&f.input());
        assert_eq!(safe.deficits.len(), 1);
        let (node, short) = safe.deficits[0];
        assert_eq!(node, 0);
        assert!((short.as_kilowatt_hours() - 0.48).abs() < 1e-9);
        let d = &safe.outcome.decisions[0];
        assert_eq!(d.renewable().to_demand(), kwh(0.02));
        assert_eq!(d.grid_total(), Energy::ZERO);
        assert_eq!(safe.outcome.cost, 0.0);
    }

    #[test]
    fn safe_mode_matches_grid_only_when_feasible() {
        // Feasible instance: safe mode reports no deficit and draws exactly
        // what grid-only would (renewable → grid → battery fill order).
        let f = one_bs(-1.0, 0.25, 0.0);
        let safe = solve_safe_mode(&f.input());
        let naive = solve_grid_only(&f.input()).unwrap();
        assert!(safe.deficits.is_empty());
        assert_eq!(safe.outcome.decisions, naive.decisions);
        assert_eq!(safe.outcome.grid_draw, naive.grid_draw);
    }

    #[test]
    fn decision_error_converts_into_invalid() {
        assert!(matches!(
            EnergyManagementError::from(EnergyDecisionError::NegativeAmount),
            EnergyManagementError::Invalid(EnergyDecisionError::NegativeAmount)
        ));
    }

    /// Brute-force check: discretize one BS's decision space and verify the
    /// solver's objective is no worse than any grid point.
    #[test]
    fn matches_brute_force_on_single_bs() {
        for &(z, demand, renewable, v) in &[
            (-0.5, 0.05, 0.02, 1.0),
            (0.3, 0.08, 0.0, 1.0),
            (-0.28, 0.0, 0.0, 1.0),
            (-0.1, 0.08, 0.0, 10.0),
            (-2.0, 0.15, 0.05, 2.0),
            (-0.05, 0.1, 0.04, 20.0),
        ] {
            let mut f = one_bs(z, demand, renewable);
            f.v = v;
            let out = solve_energy_management(&f.input()).unwrap();
            let brute = brute_force_one_bs(&f);
            assert!(
                out.objective <= brute + 2e-3,
                "z={z} demand={demand}: solver {} vs brute {brute}",
                out.objective
            );
        }
    }

    /// Exhaustive grid over (renewable split, grid split, discharge).
    fn brute_force_one_bs(f: &Fixture) -> f64 {
        let steps = 60;
        let battery = &f.batteries[0];
        let e = f.demand[0].as_kilowatt_hours();
        let r = f.renewable[0].as_kilowatt_hours();
        let g_max = f.grid_limits[0].as_kilowatt_hours();
        let d_max = battery.max_discharge_now().as_kilowatt_hours();
        let c_room = battery.max_charge_now().as_kilowatt_hours();
        let mut best = f64::INFINITY;
        for di in 0..=steps {
            let d = d_max * di as f64 / steps as f64;
            for ri in 0..=steps {
                let r_dem = (r * ri as f64 / steps as f64).min(e);
                for ci in 0..=steps {
                    let cr = ((r - r_dem) * ci as f64 / steps as f64).min(c_room);
                    let g_dem = e - r_dem - d;
                    if g_dem < -1e-9 || g_dem > g_max + 1e-9 {
                        continue;
                    }
                    let g_dem = g_dem.max(0.0);
                    for gi in 0..=steps {
                        let cg =
                            ((g_max - g_dem).max(0.0) * gi as f64 / steps as f64).min(c_room - cr);
                        let c = cr + cg;
                        if c > 1e-9 && d > 1e-9 {
                            continue; // (9)
                        }
                        if c > c_room + 1e-9 {
                            continue;
                        }
                        let p = g_dem + cg;
                        let obj =
                            f.z[0] * (c - d) + f.v * f.cost.cost(Energy::from_kilowatt_hours(p));
                        best = best.min(obj);
                    }
                }
            }
        }
        best
    }

    /// Two identical BSs whose discharge economics tie exactly at the
    /// equilibrium (z = −0.4 ⇒ p* = 0.4, full batteries so c_room = 0):
    /// the fill must swing their tied knobs to land the total draw on
    /// `f'⁻¹(p*/V)` = (0.4 − 0.2)/1.6 = 0.125 kWh.
    fn tied_pair() -> Fixture {
        Fixture {
            z: vec![-0.4, -0.4],
            demand: vec![kwh(0.3), kwh(0.3)],
            renewable: vec![Energy::ZERO, Energy::ZERO],
            batteries: vec![Battery::with_level(kwh(1.0), kwh(0.3), kwh(0.3), kwh(1.0)); 2],
            grid_connected: vec![true, true],
            grid_limits: vec![kwh(0.3), kwh(0.3)],
            is_bs: vec![true, true],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        }
    }

    #[test]
    fn fill_lands_on_target_and_conserves_demand() {
        let f = tied_pair();
        let out = solve_energy_management(&f.input()).unwrap();
        assert!(
            (out.grid_draw.as_kilowatt_hours() - 0.125).abs() < 1e-9,
            "total draw {} should land on the 0.125 kWh target",
            out.grid_draw.as_kilowatt_hours()
        );
        // Regression for the incremental-total drift: after the fill every
        // node's served demand must still balance exactly.
        for (i, d) in out.decisions.iter().enumerate() {
            let served = d.grid_to_demand().as_kilowatt_hours()
                + d.renewable().to_demand().as_kilowatt_hours()
                + d.discharge().as_kilowatt_hours();
            assert!(
                (served - f.demand[i].as_kilowatt_hours()).abs() <= FEAS_EPS,
                "node {i}: served {served} vs demand {}",
                f.demand[i].as_kilowatt_hours()
            );
        }
        let p_star = out.equilibrium_price.expect("marginal-price outcome");
        assert!((p_star - 0.4).abs() < 1e-9, "p* {p_star}");
    }

    #[test]
    fn v_zero_skips_the_fill_instead_of_aiming_at_eps() {
        // V = 0 is a pure-stability run: p* ≈ 0 and f'⁻¹(p*/V) is
        // meaningless. A barely-negative z grid-charges (the stored η·|z|
        // beats the ~0 price); the former `v.max(EPS)` fill then aimed at
        // target 0 and *undid* that optimal charge (flipping the Lyapunov
        // term positive). The fill must not run.
        let mut f = one_bs(-1e-7, 0.1, 0.0);
        f.v = 0.0;
        let out = solve_energy_management(&f.input()).unwrap();
        let d = &out.decisions[0];
        assert_eq!(d.grid_to_battery(), kwh(0.1), "charge must survive");
        assert_eq!(d.discharge(), Energy::ZERO);
        assert!(
            out.objective < 0.0,
            "objective {} must keep the charging gain",
            out.objective
        );
    }

    #[test]
    fn tie_classification_is_scale_relative() {
        let env = |z: f64, eta: f64| NodeEnv {
            z,
            demand: 0.0,
            renewable: 0.0,
            g_max: 0.2,
            d_max: 0.1,
            c_room: 0.1,
            eta,
        };
        // Exact discharge tie, small and city scale.
        assert!(price_tied(&env(-0.4, 1.0), 0.4));
        assert!(price_tied(&env(-84_000.0, 1.0), 84_000.0));
        // Exact charge tie with a lossy battery: flips at −z·η.
        assert!(price_tied(&env(-84_000.0, 0.9), 75_600.0));
        // A few ulps off (what the price search actually produces): tied.
        assert!(price_tied(&env(-0.4, 1.0), 0.4f64.next_up()));
        assert!(price_tied(
            &env(-84_000.0, 1.0),
            84_000.0f64.next_up().next_up()
        ));
        // Distinctly off at 1e-3 relative: not tied, at either scale.
        assert!(!price_tied(&env(-0.4, 1.0), 0.4004));
        assert!(!price_tied(&env(-0.4, 1.0), 0.3996));
        // 0.05 absolute at city scale: inside the former absolute band
        // (1e-6·(1+84e3) ≈ 0.084) but a genuinely different node.
        assert!(!price_tied(&env(-84_000.0, 1.0), 83_999.95));
        assert!(!price_tied(&env(-84_000.05, 1.0), 84_000.0));
    }

    /// Runs the sweep and the reference on the same input, asserts the
    /// lockstep tolerances, and returns the sweep's result.
    fn sweep_vs_reference(f: &Fixture) -> Result<EnergyOutcome, EnergyManagementError> {
        let input = f.input();
        let mut ws = S4Workspace::new();
        let mut out = EnergyOutcome::empty();
        let got = solve_energy_management_into(&input, &mut ws, &mut out);
        let reference = solve_energy_management_reference(&input);
        let divergence =
            energy_lockstep_divergence(&input, got.as_ref().map(|()| &out), reference.as_ref());
        assert_eq!(divergence, None, "sweep diverged from the reference");
        got.map(|()| out)
    }

    fn price(out: &EnergyOutcome) -> f64 {
        out.equilibrium_price.expect("marginal-price outcome")
    }

    /// Every fixture in this module.
    fn all_fixtures() -> Vec<Fixture> {
        let mut fs = vec![
            one_bs(-10.0, 0.05, 0.2),
            one_bs(5.0, 0.08, 0.0),
            one_bs(-10.0, 0.0, 0.0),
            one_bs(-0.28, 0.0, 0.0),
            one_bs(-0.1, 0.0, 0.0),
            one_bs(-10.0, 0.25, 0.0),
            tied_pair(),
            interior_pair(),
            lossy(1.0),
            lossy(2.0),
        ];
        let mut expensive = one_bs(-0.1, 0.08, 0.0);
        expensive.v = 10.0;
        fs.push(expensive);
        let mut leftover = one_bs(-0.05, 0.1, 0.04);
        leftover.v = 20.0;
        fs.push(leftover);
        let mut v0 = one_bs(-1e-7, 0.1, 0.0);
        v0.v = 0.0;
        fs.push(v0);
        // Paper-scale V with a mixed BS/user population.
        fs.push(Fixture {
            z: vec![-84_000.0, -0.3, -83_900.0, 2.0],
            demand: vec![kwh(0.01), kwh(0.002), kwh(0.015), kwh(0.001)],
            renewable: vec![kwh(0.004), Energy::ZERO, kwh(0.001), kwh(0.002)],
            batteries: vec![Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.1), kwh(0.5)); 4],
            grid_connected: vec![true, true, true, false],
            grid_limits: vec![kwh(0.2); 4],
            is_bs: vec![true, false, true, false],
            cost: QuadraticCost::paper_default(),
            v: 1e5,
        });
        fs
    }

    #[test]
    fn sweep_matches_the_reference_on_every_fixture() {
        for (k, f) in all_fixtures().iter().enumerate() {
            let out = sweep_vs_reference(f).unwrap_or_else(|e| panic!("fixture #{k}: {e}"));
            // The sweep is stateless: a reused workspace gives the same
            // outcome bit for bit.
            let mut ws = S4Workspace::new();
            let mut again = EnergyOutcome::empty();
            for g in all_fixtures().iter().take(k) {
                let _ = solve_energy_management_into(&g.input(), &mut ws, &mut again);
            }
            solve_energy_management_into(&f.input(), &mut ws, &mut again).unwrap();
            assert_eq!(again, out, "fixture #{k} after a reused workspace");
        }
    }

    /// Two BSs: an empty-battery one that always buys its demand plus a
    /// full charge (z = −10 puts its flips above the bracket), and one
    /// that grid-charges only below its flip at 0.3. Below 0.3 the draw
    /// is 0.3 kWh (candidate 0.68); above it 0.2 kWh, whose candidate
    /// `V·f'(0.2) = 0.52` lies inside the piece.
    fn interior_pair() -> Fixture {
        Fixture {
            z: vec![-10.0, -0.3],
            demand: vec![kwh(0.1), Energy::ZERO],
            renewable: vec![Energy::ZERO, Energy::ZERO],
            batteries: vec![
                Battery::new(kwh(1.0), kwh(0.1), kwh(0.1)),
                Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.1), kwh(0.5)),
            ],
            grid_connected: vec![true, true],
            grid_limits: vec![kwh(0.2), kwh(0.2)],
            is_bs: vec![true, true],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        }
    }

    #[test]
    fn interior_root_is_the_piece_candidate() {
        let out = sweep_vs_reference(&interior_pair()).unwrap();
        let p_star = price(&out);
        assert_eq!(p_star, QuadraticCost::paper_default().marginal(kwh(0.2)));
        assert!((p_star - 0.52).abs() < 1e-12, "p* {p_star}");
        assert!((out.grid_draw.as_kilowatt_hours() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn root_on_a_discharge_flip_is_absorbed_by_the_fill() {
        // The tied pair jumps from 0.6 kWh (candidate 1.16) below its
        // discharge flip −z = 0.4 to 0 kWh (candidate 0.2) above it: the
        // root sits on the jump and the fill lands the draw on f'⁻¹(0.4).
        let out = sweep_vs_reference(&tied_pair()).unwrap();
        assert_eq!(price(&out), 0.4);
        assert!((out.grid_draw.as_kilowatt_hours() - 0.125).abs() < 1e-12);
    }

    /// One BS with a lossy battery (η = 0.8) at z = −0.5, so its charge
    /// flip `−z·η = 0.4` and its discharge flip `−z = 0.5` are distinct
    /// breakpoints. Draw: 0.15 kWh below 0.4 (demand plus a full grid
    /// charge), 0.05 kWh between the flips, 0 above 0.5 (discharge).
    fn lossy(v: f64) -> Fixture {
        let mut f = one_bs(-0.5, 0.05, 0.0);
        f.batteries =
            vec![
                Battery::try_from_parts(kwh(1.0), kwh(0.1), kwh(0.1), 0.8, kwh(0.5), false)
                    .expect("valid battery"),
            ];
        f.v = v;
        f
    }

    #[test]
    fn lossy_battery_flips_at_two_distinct_prices() {
        // V = 1: candidates 0.44 below 0.4 and 0.28 above, so the root is
        // the charge flip and the fill tops the grid charge up to 0.125.
        let out = sweep_vs_reference(&lossy(1.0)).unwrap();
        assert_eq!(price(&out), -(-0.5f64 * 0.8));
        assert!((out.grid_draw.as_kilowatt_hours() - 0.125).abs() < 1e-12);
        assert!(out.decisions[0].grid_to_battery() > Energy::ZERO);
        // V = 2: candidate 0.56 between the flips passes 0.5, and 0.4
        // above it falls short, so the root is the discharge flip and the
        // fill swings discharge in for grid to reach f'⁻¹(0.25) = 0.03125.
        let out = sweep_vs_reference(&lossy(2.0)).unwrap();
        assert_eq!(price(&out), 0.5);
        assert!((out.grid_draw.as_kilowatt_hours() - 0.031_25).abs() < 1e-12);
        assert!(out.decisions[0].discharge() > Energy::ZERO);
    }

    #[test]
    fn v_zero_prices_at_the_bracket_floor() {
        // p = 0·f'(P) has the root p* = 0 whatever the draw.
        let mut f = one_bs(-1e-7, 0.1, 0.0);
        f.v = 0.0;
        let out = sweep_vs_reference(&f).unwrap();
        assert_eq!(price(&out), 0.0);
        assert_eq!(out.decisions[0].grid_to_battery(), kwh(0.1));
    }

    #[test]
    fn errors_match_the_reference() {
        // Deficit: a disconnected node with an empty battery.
        let deficit = Fixture {
            z: vec![0.0],
            demand: vec![kwh(0.5)],
            renewable: vec![Energy::ZERO],
            batteries: vec![Battery::new(kwh(1.0), kwh(0.06), kwh(0.06))],
            grid_connected: vec![false],
            grid_limits: vec![kwh(0.2)],
            is_bs: vec![false],
            cost: QuadraticCost::paper_default(),
            v: 1.0,
        };
        let err = sweep_vs_reference(&deficit).unwrap_err();
        assert!(matches!(
            err,
            EnergyManagementError::Deficit { node: 0, .. }
        ));
        // PriceOverflow: a 1e308 price multiplier on the paper's tariff at
        // V = 10⁵.
        let mut overflow = one_bs(-10.0, 0.05, 0.0);
        overflow.cost = QuadraticCost::new(0.8e308, 0.2e308, 0.0);
        overflow.v = 1e5;
        let err = sweep_vs_reference(&overflow).unwrap_err();
        assert!(
            matches!(err, EnergyManagementError::PriceOverflow { hi, .. } if hi.is_infinite()),
            "got {err:?}"
        );
        // The storage-oblivious fallback never searches a price.
        assert!(solve_grid_only(&overflow.input()).is_ok());
    }

    #[test]
    fn equilibrium_price_is_solver_specific() {
        let f = one_bs(-0.28, 0.0, 0.0);
        let smart = solve_energy_management(&f.input()).unwrap();
        assert!(smart.equilibrium_price.is_some());
        let naive = solve_grid_only(&f.input()).unwrap();
        assert_eq!(naive.equilibrium_price, None);
        assert_eq!(solve_safe_mode(&f.input()).outcome.equilibrium_price, None);
        // A reused outcome buffer must not leak a stale price across
        // solver families.
        let mut out = smart.clone();
        solve_grid_only_into(&f.input(), &mut out).unwrap();
        assert_eq!(out.equilibrium_price, None);
    }
}
