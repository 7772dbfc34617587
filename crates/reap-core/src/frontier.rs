//! The precomputed budget→schedule frontier.
//!
//! The REAP LP has only two constraints, so its optimal value is a
//! *concave piecewise-linear* function of the energy budget, and the
//! optimal basis changes only at a handful of budget breakpoints (the
//! region boundaries of the paper's Fig. 5). This module precomputes that
//! structure once per `(points, alpha)` and answers every subsequent solve
//! with a binary search plus linear interpolation — `O(log K)` per call
//! with zero LP work.
//!
//! # Derivation
//!
//! Eliminate `t_off = TP - sum t_i` and divide by `TP`. Writing
//! `f_i = t_i / TP` for the fraction of the period spent at point `i`
//! (with `f_off` the off fraction), the problem becomes: choose a convex
//! combination of the "points" `(m_i, w_i)` — marginal power
//! `m_i = P_i - P_off` against objective weight `w_i = a_i^alpha` — plus
//! the off state `(0, 0)`, maximizing the combined weight subject to the
//! combined marginal power not exceeding `x = (Eb - P_off*TP) / TP`.
//!
//! The achievable set is the convex hull of `{(0,0)} ∪ {(m_i, w_i)}`, so
//! the optimum is the **upper concave hull** of those points evaluated at
//! `x`. Hull vertices are the LP's single-point vertex schedules: "run
//! one point for the whole period" (or stay off), and
//! every budget between two adjacent breakpoints mixes the two bracketing
//! vertices — which is why the LP optimum never activates more than two
//! points. Beyond the last vertex (the best-weight point) extra energy
//! buys nothing and the objective saturates.

use std::sync::Arc;

use reap_units::{Energy, Power, TimeSpan};

use crate::schedule::Allocation;
use crate::{OperatingPoint, ReapError, ReapProblem, Schedule};

/// One vertex of the concave frontier: a breakpoint budget together with
/// the full-period schedule that is optimal exactly there.
#[derive(Debug, Clone, PartialEq)]
struct FrontierVertex {
    /// Budget at which this vertex is the exact optimum (joules).
    budget_j: f64,
    /// Objective `J` at this vertex (`w_i`, or 0 for the off vertex).
    objective: f64,
    /// The point running the whole period here; `None` is the all-off
    /// vertex at the budget floor.
    point: Option<Arc<OperatingPoint>>,
}

/// Precomputed concave budget→schedule frontier for one `(points, alpha)`.
///
/// Construction is `O(N log N)` (sort + monotone hull scan); each
/// [`PlanFrontier::solve`] afterwards is `O(log K)` over the `K <= N + 1`
/// retained vertices and allocates nothing beyond the returned schedule's
/// one or two [`Allocation`]s. Equivalence with the tableau simplex is
/// enforced by unit and property tests (`|Δ objective| < 1e-9`).
///
/// The frontier is valid for the exact `(points, alpha, period, P_off)` it
/// was built from; [`ReapController`](crate::ReapController) caches one
/// and invalidates it when `set_alpha` changes the weights.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFrontier {
    vertices: Vec<FrontierVertex>,
    period: TimeSpan,
    off_power: Power,
    alpha: f64,
    min_budget_j: f64,
}

impl PlanFrontier {
    /// Builds the frontier for `problem` (infallible: the problem was
    /// validated at construction).
    #[must_use]
    pub fn new(problem: &ReapProblem) -> PlanFrontier {
        let tp = problem.period().seconds();
        let p_off = problem.off_power().watts();
        let alpha = problem.alpha();
        let min_budget_j = problem.min_budget().joules();

        // Candidates in (marginal power, weight) space, plus the off state
        // at the origin. Marginal powers are positive by construction
        // (problem validation rejects P_i <= P_off).
        let mut candidates: Vec<(f64, f64, Option<&Arc<OperatingPoint>>)> = problem
            .points()
            .iter()
            .map(|p| (p.power().watts() - p_off, p.weight(alpha), Some(p)))
            .collect();
        candidates.push((0.0, 0.0, None));
        candidates.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite powers")
                .then(b.1.partial_cmp(&a.1).expect("finite weights"))
        });

        // Upper concave hull, monotone-scan style. Dominated points (no
        // weight gain for the extra power) never enter; interior points of
        // a segment are popped when the incoming slope stops decreasing.
        let mut hull: Vec<(f64, f64, Option<&Arc<OperatingPoint>>)> = Vec::new();
        for cand in candidates {
            if let Some(last) = hull.last() {
                // Strictly more power for no strictly better weight.
                if cand.1 <= last.1 {
                    continue;
                }
            }
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Keep b only if the slope a→b strictly exceeds b→cand.
                let keep = (b.1 - a.1) * (cand.0 - b.0) > (cand.1 - b.1) * (b.0 - a.0);
                if keep {
                    break;
                }
                hull.pop();
            }
            hull.push(cand);
        }

        let vertices = hull
            .into_iter()
            .map(|(m, w, p)| FrontierVertex {
                budget_j: min_budget_j + m * tp,
                objective: w,
                point: p.cloned(),
            })
            .collect();
        PlanFrontier {
            vertices,
            period: problem.period(),
            off_power: problem.off_power(),
            alpha,
            min_budget_j,
        }
    }

    /// The `alpha` the frontier was built for.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The breakpoint budgets, ascending. The first is the budget floor
    /// `P_off * TP`; the last is the saturation budget beyond which the
    /// objective is constant. Between two adjacent breakpoints the optimal
    /// basis is fixed and the schedule interpolates linearly.
    #[must_use]
    pub fn breakpoints(&self) -> Vec<Energy> {
        self.vertices
            .iter()
            .map(|v| Energy::from_joules(v.budget_j))
            .collect()
    }

    /// The first breakpoint, the budget floor `P_off * TP`, in joules.
    pub(crate) fn floor_j(&self) -> f64 {
        self.min_budget_j
    }

    /// Number of frontier segments (breakpoints minus one).
    #[must_use]
    pub fn segments(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }

    /// Validates the budget and maps it to `(segment index, lambda)`:
    /// the optimum mixes `vertices[k]` (fraction `1 - lambda`) and
    /// `vertices[k + 1]` (fraction `lambda`). Saturated budgets clamp to
    /// the last vertex.
    fn locate(&self, budget: Energy) -> Result<(usize, f64), ReapError> {
        if !budget.is_finite() {
            return Err(ReapError::InvalidParameter(format!(
                "budget {budget} is not finite"
            )));
        }
        // Same float-dust tolerance as the other solvers: the paper
        // sweeps from exactly the 0.18 J floor.
        if budget.joules() < self.min_budget_j * (1.0 - 1e-12) {
            return Err(ReapError::BudgetTooSmall {
                budget,
                minimum: Energy::from_joules(self.min_budget_j),
            });
        }
        let b = budget.joules();
        let last = self.vertices.len() - 1;
        if last == 0 {
            // Degenerate frontier (every weight is zero): all-off is
            // optimal at every feasible budget.
            return Ok((0, 0.0));
        }
        if b >= self.vertices[last].budget_j {
            // Saturated: the last vertex runs the whole period.
            return Ok((last - 1, 1.0));
        }
        // First vertex with budget_j > b ends the bracketing segment.
        let hi_idx = self.vertices.partition_point(|v| v.budget_j <= b).max(1);
        let lo = &self.vertices[hi_idx - 1];
        let hi = &self.vertices[hi_idx];
        let lambda = ((b - lo.budget_j) / (hi.budget_j - lo.budget_j)).clamp(0.0, 1.0);
        Ok((hi_idx - 1, lambda))
    }

    /// Exact optimal objective `J` at `budget`, without materializing a
    /// schedule — the fast path for shadow-price probes and sweeps that
    /// only need the value function.
    ///
    /// # Errors
    ///
    /// Same as [`PlanFrontier::solve`].
    pub fn objective_at(&self, budget: Energy) -> Result<f64, ReapError> {
        let (k, lambda) = self.locate(budget)?;
        let lo = &self.vertices[k];
        let hi = &self.vertices[(k + 1).min(self.vertices.len() - 1)];
        Ok(lo.objective + lambda * (hi.objective - lo.objective))
    }

    /// Exact optimal schedule at `budget`: binary search for the segment,
    /// then linear interpolation between its two cached vertex schedules.
    ///
    /// # Errors
    ///
    /// * [`ReapError::BudgetTooSmall`] below the `P_off * TP` floor.
    /// * [`ReapError::InvalidParameter`] for a non-finite budget.
    pub fn solve(&self, budget: Energy) -> Result<Schedule, ReapError> {
        let (k, lambda) = self.locate(budget)?;
        let tp = self.period.seconds();
        let lo = &self.vertices[k];
        let hi = &self.vertices[(k + 1).min(self.vertices.len() - 1)];

        let mut allocations = Vec::with_capacity(2);
        let mut active = 0.0;
        if let Some(point) = &lo.point {
            let t = (1.0 - lambda) * tp;
            active += t;
            allocations.push(Allocation {
                point: Arc::clone(point),
                duration: TimeSpan::from_seconds(t),
            });
        }
        if lambda > 0.0 {
            if let Some(point) = &hi.point {
                let t = lambda * tp;
                active += t;
                allocations.push(Allocation {
                    point: Arc::clone(point),
                    duration: TimeSpan::from_seconds(t),
                });
            }
        }
        Ok(Schedule::new(
            allocations,
            TimeSpan::from_seconds((tp - active).max(0.0)),
            self.period,
            self.off_power,
        ))
    }
}

/// Scalar outcome of one frontier evaluation: exactly the aggregates the
/// corresponding [`Schedule`] would report, without materializing the
/// schedule (no allocations, no `Arc` clones).
///
/// Produced by [`FrontierTable::eval`]; the field arithmetic replicates
/// [`Schedule::expected_accuracy`], [`Schedule::active_time`], and
/// [`Schedule::energy`] term for term (including the sub-microsecond
/// allocation drop rule), so fleet engines that only need per-hour scalars
/// can skip schedule construction entirely.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanEval {
    /// Expected accuracy of the optimal schedule over the period.
    pub accuracy: f64,
    /// Active time of the optimal schedule, in seconds.
    pub active_s: f64,
    /// Total energy the optimal schedule consumes (active + off-state),
    /// in joules.
    pub energy_j: f64,
}

/// One operating point's share of a decided plan: run point `id` for
/// `seconds` of the period.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanShare {
    /// The operating point's id.
    pub id: u8,
    /// Seconds of the period spent at this point.
    pub seconds: f64,
}

/// A complete single-user allocation decision from a cached frontier:
/// the plan aggregates plus the blend of (at most two) operating points
/// realizing them. Produced by [`FrontierTable::decide`]; `Copy` and
/// heap-free so serving it costs one table walk and nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The plan aggregates, bit-identical to [`FrontierTable::eval`].
    pub eval: PlanEval,
    /// Seconds of the period spent in the off state.
    pub off_s: f64,
    shares: [PlanShare; 2],
    n_shares: u8,
}

impl Decision {
    /// The point shares of the blend (ascending point id, length 0–2).
    #[must_use]
    pub fn shares(&self) -> &[PlanShare] {
        &self.shares[..usize::from(self.n_shares)]
    }
}

/// One frontier breakpoint of a [`FrontierTable`]: the budget at which
/// the vertex is the exact optimum plus the scalars of the point running
/// the whole period there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableVertex {
    /// Breakpoint budget in joules.
    pub budget_j: f64,
    /// The vertex point's accuracy (0 for the all-off vertex).
    pub accuracy: f64,
    /// The vertex point's power draw in watts (0 for the all-off vertex).
    pub power_w: f64,
    /// The vertex point's id (0 for the all-off vertex).
    pub id: u8,
    /// Whether the vertex runs a point (`false` = the all-off vertex).
    pub has_point: bool,
}

/// Flat, pointer-free image of many [`PlanFrontier`]s for batched scalar
/// evaluation: one arena of [`TableVertex`]es, each frontier (a *cohort*)
/// a contiguous run of it, so a hot loop evaluating thousands of cached
/// frontiers touches only contiguous memory.
///
/// Every cohort shares the table's period and off power (and so its
/// budget floor); [`FrontierTable::push`] refuses a frontier built for
/// others. Each [`FrontierTable::eval`] is a short linear scan over the
/// cohort's `K <= N + 1` breakpoints (frontiers are tiny — a handful of
/// vertices — so the scan beats binary search) followed by the same
/// interpolation [`PlanFrontier::solve`] performs.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierTable {
    /// Every cohort's breakpoints, ascending within a cohort.
    vertices: Vec<TableVertex>,
    /// Cohort `c` is `vertices[offsets[c]..offsets[c + 1]]`
    /// (`cohorts + 1` entries).
    offsets: Vec<u32>,
    tp_s: f64,
    off_w: f64,
    min_budget_j: f64,
}

impl PlanFrontier {
    /// Flattens the frontier into a one-cohort [`FrontierTable`].
    #[must_use]
    pub fn table(&self) -> FrontierTable {
        let mut t = FrontierTable::new(self.period, self.off_power);
        t.append(self);
        t
    }
}

impl FrontierTable {
    /// An empty table for frontiers of activity period `period` and
    /// off-state power `off_power`.
    #[must_use]
    pub fn new(period: TimeSpan, off_power: Power) -> FrontierTable {
        FrontierTable {
            vertices: Vec::new(),
            offsets: vec![0],
            tp_s: period.seconds(),
            off_w: off_power.watts(),
            min_budget_j: (off_power * period).joules(),
        }
    }

    /// Appends `frontier` as a new cohort and returns its index.
    ///
    /// # Errors
    ///
    /// [`ReapError::InvalidParameter`] when the frontier's period or off
    /// power differs from the table's.
    pub fn push(&mut self, frontier: &PlanFrontier) -> Result<u32, ReapError> {
        if frontier.period.seconds() != self.tp_s || frontier.off_power.watts() != self.off_w {
            return Err(ReapError::InvalidParameter(format!(
                "frontier for period {} at off power {} does not fit a table for \
                 period {} s at off power {} W",
                frontier.period, frontier.off_power, self.tp_s, self.off_w
            )));
        }
        Ok(self.append(frontier))
    }

    fn append(&mut self, frontier: &PlanFrontier) -> u32 {
        self.vertices
            .extend(frontier.vertices.iter().map(|v| match &v.point {
                Some(p) => TableVertex {
                    budget_j: v.budget_j,
                    accuracy: p.accuracy(),
                    power_w: p.power().watts(),
                    id: p.id(),
                    has_point: true,
                },
                None => TableVertex {
                    budget_j: v.budget_j,
                    accuracy: 0.0,
                    power_w: 0.0,
                    id: 0,
                    has_point: false,
                },
            }));
        self.offsets.push(self.vertices.len() as u32);
        (self.offsets.len() - 2) as u32
    }

    /// Number of cohorts (pushed frontiers).
    #[must_use]
    pub fn cohorts(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Cohort `c`'s breakpoints, ascending; the first is the floor.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cohorts()`.
    #[inline]
    #[must_use]
    pub fn vertices(&self, c: u32) -> &[TableVertex] {
        let c = c as usize;
        &self.vertices[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// The budget floor `P_off * TP` in joules, shared by every cohort.
    #[must_use]
    pub fn min_budget_j(&self) -> f64 {
        self.min_budget_j
    }

    /// Cohort `c`'s saturation budget (its last breakpoint) in joules:
    /// every budget at or above it buys the same plan, so callers may
    /// cache `eval(c, max_budget_j(c))` and reuse it for any richer
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cohorts()`.
    #[must_use]
    pub fn max_budget_j(&self, c: u32) -> f64 {
        self.vertices(c)
            .last()
            .map_or(self.min_budget_j, |v| v.budget_j)
    }

    /// Evaluates cohort `c`'s optimal plan at `budget_j`, returning the
    /// schedule aggregates bit-for-bit equal to running
    /// [`ReapController::plan`](crate::ReapController::plan) and reading
    /// them off the returned [`Schedule`].
    ///
    /// Sub-floor (and non-finite) budgets clamp up to the floor, exactly
    /// like the controller's `budget.max(min_budget())` entry clamp —
    /// which is why this is infallible where [`PlanFrontier::solve`] is
    /// not: the controller never lets an out-of-domain budget reach the
    /// frontier.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cohorts()`.
    // Forced: the SoA fleet kernel calls this per user-hour off the
    // frontier's first segment, and a plain `#[inline]` left it a call
    // that cost fleet-month ~10% single-threaded.
    #[inline(always)]
    #[must_use]
    pub fn eval(&self, c: u32, budget_j: f64) -> PlanEval {
        self.blend(c, budget_j, |_| {}).0
    }

    /// Single-user decide: cohort `c`'s plan aggregates **plus** the (at
    /// most two) per-point time shares of the optimal blend, without
    /// allocating — the serving hot path, where a resident daemon
    /// answers `Decide {user}` from a cached cohort frontier and needs
    /// the full allocation (which points, for how long) rather than only
    /// the aggregates.
    ///
    /// The aggregates are [`FrontierTable::eval`]'s bit for bit (both
    /// run the same blend), and the shares are exactly the allocations
    /// [`PlanFrontier::solve`] would return after its sub-microsecond
    /// drop rule, in ascending point-id order.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cohorts()`.
    #[must_use]
    pub fn decide(&self, c: u32, budget_j: f64) -> Decision {
        let mut shares = [PlanShare::default(); 2];
        let mut m = 0usize;
        let (eval, off_s) = self.blend(c, budget_j, |share| {
            shares[m] = share;
            m += 1;
        });
        Decision {
            eval,
            off_s,
            shares,
            n_shares: m as u8,
        }
    }

    /// The optimal blend of cohort `c` at `budget_j`: its aggregates and
    /// off time, with every allocation that survives the drop rule
    /// reported to `share` in ascending point-id order.
    #[inline(always)]
    fn blend(&self, c: u32, budget_j: f64, mut share: impl FnMut(PlanShare)) -> (PlanEval, f64) {
        let v = self.vertices(c);
        // `f64::max` maps NaN to the floor too, matching `Energy::max`.
        let b = budget_j.max(self.min_budget_j);
        let last = v.len() - 1;
        let (k, lambda) = if last == 0 {
            (0, 0.0)
        } else if b >= v[last].budget_j {
            (last - 1, 1.0)
        } else {
            // First vertex with budget > b, as `locate`'s
            // `partition_point(..).max(1)`: counting over the ascending
            // budgets lands on the same index without a data-dependent
            // branch.
            let mut cnt = 0usize;
            for x in &v[1..last] {
                cnt += usize::from(x.budget_j <= b);
            }
            let hi = 1 + cnt;
            let lo_b = v[hi - 1].budget_j;
            (
                hi - 1,
                ((b - lo_b) / (v[hi].budget_j - lo_b)).clamp(0.0, 1.0),
            )
        };
        let hi_idx = (k + 1).min(last);
        let tp = self.tp_s;

        // Durations exactly as `PlanFrontier::solve` pushes them; the off
        // time complements the *raw* active time (drops below come after).
        let mut n = 0usize;
        let mut dur = [0.0f64; 2];
        let mut acc = [0.0f64; 2];
        let mut pow = [0.0f64; 2];
        let mut ids = [0u8; 2];
        let mut active_raw = 0.0;
        if v[k].has_point {
            let t = (1.0 - lambda) * tp;
            active_raw += t;
            dur[n] = t;
            acc[n] = v[k].accuracy;
            pow[n] = v[k].power_w;
            ids[n] = v[k].id;
            n = 1;
        }
        if lambda > 0.0 && v[hi_idx].has_point {
            let t = lambda * tp;
            active_raw += t;
            dur[n] = t;
            acc[n] = v[hi_idx].accuracy;
            pow[n] = v[hi_idx].power_w;
            ids[n] = v[hi_idx].id;
            n += 1;
        }
        let off_s = (tp - active_raw).max(0.0);

        // `Schedule::new` sorts by point id and drops sub-microsecond
        // allocations; the sums below run in the same (id) order.
        if n == 2 && ids[1] < ids[0] {
            dur.swap(0, 1);
            acc.swap(0, 1);
            pow.swap(0, 1);
            ids.swap(0, 1);
        }
        let mut accuracy = 0.0;
        let mut active_s = 0.0;
        let mut active_e = 0.0;
        for j in 0..n {
            if dur[j] > 1e-6 {
                accuracy += acc[j] * (dur[j] / tp);
                active_s += dur[j];
                active_e += pow[j] * dur[j];
                share(PlanShare {
                    id: ids[j],
                    seconds: dur[j],
                });
            }
        }
        (
            PlanEval {
                accuracy,
                active_s,
                energy_j: active_e + self.off_w * off_s,
            },
            off_s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(id: u8, acc: f64, mw: f64) -> OperatingPoint {
        OperatingPoint::new(id, format!("DP{id}"), acc, Power::from_milliwatts(mw)).unwrap()
    }

    fn paper_problem(alpha: f64) -> ReapProblem {
        ReapProblem::builder()
            .alpha(alpha)
            .points(vec![
                point(1, 0.94, 2.76),
                point(2, 0.93, 2.30),
                point(3, 0.92, 1.82),
                point(4, 0.90, 1.64),
                point(5, 0.76, 1.20),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn breakpoints_span_floor_to_saturation() {
        let p = paper_problem(1.0);
        let f = p.frontier();
        let bp = f.breakpoints();
        assert!(bp.len() >= 2);
        assert!((bp[0].joules() - p.min_budget().joules()).abs() < 1e-12);
        // The last breakpoint is where the best-weight point (DP1 at
        // alpha = 1) fills the period: exactly the saturation budget.
        assert!((bp.last().unwrap().joules() - p.saturation_budget().joules()).abs() < 1e-9);
        for w in bp.windows(2) {
            assert!(w[0] < w[1], "breakpoints not ascending: {bp:?}");
        }
        assert_eq!(f.segments(), bp.len() - 1);
    }

    #[test]
    fn matches_simplex_everywhere_including_breakpoints() {
        for alpha in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let p = paper_problem(alpha);
            let f = p.frontier();
            let mut budgets: Vec<f64> = vec![0.18, 0.5, 1.0, 3.0, 4.3, 5.0, 6.5, 9.936, 12.0];
            // Exactly at and just around every breakpoint.
            for b in f.breakpoints() {
                budgets.push(b.joules());
                budgets.push(b.joules() + 1e-6);
                budgets.push((b.joules() - 1e-6).max(p.min_budget().joules()));
            }
            for b in budgets {
                let budget = Energy::from_joules(b);
                let simplex = p.solve(budget).unwrap();
                let fast = f.solve(budget).unwrap();
                assert!(
                    (simplex.objective(alpha) - fast.objective(alpha)).abs() < 1e-9,
                    "alpha {alpha} budget {b}: simplex {} vs frontier {}",
                    simplex.objective(alpha),
                    fast.objective(alpha)
                );
                assert!(fast.is_feasible(budget, 1e-6), "infeasible at {b} J");
                assert!(
                    (f.objective_at(budget).unwrap() - fast.objective(alpha)).abs() < 1e-12,
                    "objective_at disagrees with solve at {b} J"
                );
            }
        }
    }

    #[test]
    fn mixes_at_most_two_points_and_respects_regions() {
        let p = paper_problem(1.0);
        let f = p.frontier();
        // Region 1: DP5 alone, duty-cycled.
        let s3 = f.solve(Energy::from_joules(3.0)).unwrap();
        assert_eq!(s3.allocations().len(), 1);
        assert_eq!(s3.allocations()[0].point.id(), 5);
        assert!(s3.off_time().seconds() > 0.0);
        // Region 2: the paper's 5 J checkpoint mixes DP4/DP5 42%/58%.
        let s5 = f.solve(Energy::from_joules(5.0)).unwrap();
        assert_eq!(s5.allocations().len(), 2);
        assert!((s5.fraction_for(4) - 0.42).abs() < 0.02);
        assert!((s5.fraction_for(5) - 0.58).abs() < 0.02);
        // Saturation: DP1 all period, and more budget changes nothing.
        let sat = f.solve(Energy::from_joules(11.0)).unwrap();
        assert!((sat.fraction_for(1) - 1.0).abs() < 1e-9);
        assert_eq!(sat, f.solve(Energy::from_joules(500.0)).unwrap());
    }

    #[test]
    fn rejects_bad_budgets() {
        let f = paper_problem(1.0).frontier();
        assert!(matches!(
            f.solve(Energy::from_joules(0.1)),
            Err(ReapError::BudgetTooSmall { .. })
        ));
        assert!(matches!(
            f.solve(Energy::from_joules(f64::NAN)),
            Err(ReapError::InvalidParameter(_))
        ));
        assert!(f.objective_at(Energy::from_joules(0.1)).is_err());
    }

    #[test]
    fn solve_many_equals_individual_solves() {
        let p = paper_problem(2.0);
        let budgets: Vec<Energy> = [0.18, 1.0, 4.0, 7.0, 12.0]
            .iter()
            .map(|&j| Energy::from_joules(j))
            .collect();
        let batch = p.solve_many(&budgets).unwrap();
        for (b, s) in budgets.iter().zip(&batch) {
            assert_eq!(s, &p.frontier().solve(*b).unwrap());
            assert!((s.objective(2.0) - p.solve(*b).unwrap().objective(2.0)).abs() < 1e-9);
        }
        // One bad budget fails the whole batch.
        assert!(p.solve_many(&[Energy::from_joules(0.01)]).is_err());
    }

    #[test]
    fn zero_weight_frontier_degenerates_to_off() {
        // accuracy 0 with alpha > 0 gives every point zero weight; the
        // frontier collapses to the off vertex and stays optimal (the
        // objective is 0 no matter what runs).
        let p = ReapProblem::builder()
            .alpha(2.0)
            .point(OperatingPoint::new(1, "Z", 0.0, Power::from_milliwatts(1.0)).unwrap())
            .build()
            .unwrap();
        let f = p.frontier();
        let s = f.solve(Energy::from_joules(5.0)).unwrap();
        assert!(s.allocations().is_empty());
        assert_eq!(f.objective_at(Energy::from_joules(5.0)).unwrap(), 0.0);
        assert_eq!(
            s.objective(2.0),
            p.solve(Energy::from_joules(5.0)).unwrap().objective(2.0)
        );
    }

    /// Every alpha's frontier in one arena, cohort `i` for `alphas[i]`.
    fn arena(alphas: &[f64]) -> FrontierTable {
        let mut t = paper_problem(alphas[0]).frontier().table();
        for &alpha in &alphas[1..] {
            let c = t.push(&paper_problem(alpha).frontier()).unwrap();
            assert_eq!(c + 1, t.cohorts());
        }
        t
    }

    #[test]
    fn table_eval_matches_solve_bit_for_bit() {
        // The table is the fleet hot path: its scalars must equal reading
        // the aggregates off the controller's schedule exactly — same
        // ops, same order — across alphas, budgets, breakpoints, the
        // saturated tail, and the sub-floor clamp. Each alpha is checked
        // alone and as one cohort of a shared arena.
        let alphas = [0.0, 0.5, 1.0, 2.0, 4.0];
        let shared = arena(&alphas);
        for (c, &alpha) in alphas.iter().enumerate() {
            let p = paper_problem(alpha);
            let f = p.frontier();
            let own = f.table();
            assert_eq!(own.cohorts(), 1);
            assert_eq!(own.vertices(0).len(), f.breakpoints().len());
            assert_eq!(own.vertices(0), shared.vertices(c as u32));
            assert_eq!(own.min_budget_j(), p.min_budget().joules());
            let mut budgets: Vec<f64> = vec![0.18, 0.19, 1.0, 3.7, 5.0, 9.936, 20.0];
            for b in f.breakpoints() {
                for d in [-1e-9, 0.0, 1e-9] {
                    budgets.push(b.joules() + d);
                }
            }
            // Sub-floor budgets clamp like the controller's entry clamp.
            budgets.push(0.0);
            budgets.push(0.05);
            for b in budgets {
                let mut controller =
                    crate::ReapController::with_solver(p.clone(), crate::SolverKind::Frontier);
                let s = controller.plan(Energy::from_joules(b)).unwrap();
                for (t, c) in [(&own, 0u32), (&shared, c as u32)] {
                    let e = t.eval(c, b);
                    assert_eq!(e.accuracy, s.expected_accuracy(), "accuracy at {b} J");
                    assert_eq!(e.active_s, s.active_time().seconds(), "active at {b} J");
                    assert_eq!(e.energy_j, s.energy().joules(), "energy at {b} J");
                }
            }
        }
    }

    #[test]
    fn table_decide_shares_match_solve_allocations() {
        // The decide path must serve exactly the schedule `solve` would
        // build: same point ids, same durations (post drop rule,
        // ascending id), same off time — and its aggregates are the
        // `eval` scalars (both run one blend). Each alpha is checked
        // alone and as one cohort of a shared arena.
        let alphas = [0.5, 1.0, 2.0];
        let shared = arena(&alphas);
        for (c, &alpha) in alphas.iter().enumerate() {
            let p = paper_problem(alpha);
            let f = p.frontier();
            let own = f.table();
            let mut budgets: Vec<f64> = vec![0.18, 1.0, 3.0, 5.0, 9.936, 20.0];
            for b in f.breakpoints() {
                budgets.push(b.joules());
                budgets.push(b.joules() + 1e-7);
            }
            for b in budgets {
                let s = f
                    .solve(Energy::from_joules(b.max(own.min_budget_j())))
                    .unwrap();
                let allocs = s.allocations();
                for (t, c) in [(&own, 0u32), (&shared, c as u32)] {
                    let d = t.decide(c, b);
                    assert_eq!(d.eval, t.eval(c, b), "aggregates diverged at {b} J");
                    assert_eq!(d.shares().len(), allocs.len(), "share count at {b} J");
                    for (share, alloc) in d.shares().iter().zip(allocs) {
                        assert_eq!(share.id, alloc.point.id(), "point id at {b} J");
                        assert_eq!(share.seconds, alloc.duration.seconds(), "duration at {b} J");
                    }
                    assert_eq!(d.off_s, s.off_time().seconds(), "off time at {b} J");
                }
            }
        }
    }

    #[test]
    fn table_push_rejects_a_foreign_period_or_off_power() {
        let mut t = paper_problem(1.0).frontier().table();
        let other = |builder: crate::ReapProblemBuilder| {
            builder
                .points(vec![point(1, 0.94, 2.76), point(5, 0.76, 1.20)])
                .build()
                .unwrap()
                .frontier()
        };
        let off = other(ReapProblem::builder().off_power(Power::from_microwatts(60.0)));
        assert!(matches!(t.push(&off), Err(ReapError::InvalidParameter(_))));
        let period = other(ReapProblem::builder().period(TimeSpan::from_minutes(30.0)));
        assert!(matches!(
            t.push(&period),
            Err(ReapError::InvalidParameter(_))
        ));
        // Refused frontiers leave the arena untouched.
        assert_eq!(t.cohorts(), 1);
        assert_eq!(t.push(&other(ReapProblem::builder())).unwrap(), 1);
    }

    #[test]
    fn table_eval_handles_degenerate_frontiers() {
        // Zero-weight frontier: single off vertex, every budget yields
        // the all-off plan (off-state energy only).
        let p = ReapProblem::builder()
            .alpha(2.0)
            .point(OperatingPoint::new(1, "Z", 0.0, Power::from_milliwatts(1.0)).unwrap())
            .build()
            .unwrap();
        let t = p.frontier().table();
        let e = t.eval(0, 5.0);
        assert_eq!(e.accuracy, 0.0);
        assert_eq!(e.active_s, 0.0);
        let s = p.frontier().solve(Energy::from_joules(5.0)).unwrap();
        assert_eq!(e.energy_j, s.energy().joules());
        // NaN budgets clamp to the floor, matching `Energy::max`.
        assert_eq!(t.eval(0, f64::NAN), t.eval(0, t.min_budget_j()));
    }

    #[test]
    fn dominated_and_duplicate_points_are_pruned() {
        // DP "bad" costs more power for less weight; "twin" duplicates
        // DP "good"'s power with lower accuracy. Neither may appear.
        let p = ReapProblem::builder()
            .points(vec![
                point(1, 0.90, 1.5),
                OperatingPoint::new(2, "bad", 0.5, Power::from_milliwatts(2.5)).unwrap(),
                OperatingPoint::new(3, "twin", 0.7, Power::from_milliwatts(1.5)).unwrap(),
            ])
            .build()
            .unwrap();
        let f = p.frontier();
        for b in [0.5, 2.0, 4.0, 6.0] {
            let s = f.solve(Energy::from_joules(b)).unwrap();
            for a in s.allocations() {
                assert_eq!(a.point.id(), 1, "dominated point ran at {b} J");
            }
            let simplex = p.solve(Energy::from_joules(b)).unwrap();
            assert!((s.objective(1.0) - simplex.objective(1.0)).abs() < 1e-9);
        }
    }
}
