//! Criterion bench for the Sec. 3.3 timing claim: the REAP solver takes
//! 1.5 ms at 5 design points and only 8 ms at 100 on the 47 MHz MCU —
//! i.e. runtime grows mildly with N. We verify that *shape* on the host
//! and compare the simplex against the precomputed frontier the runtime
//! controller uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reap_bench::synthetic_problem;
use reap_units::Energy;
use std::hint::black_box;

fn bench_simplex_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_scaling");
    group.sample_size(30);
    let budget = Energy::from_joules(5.0);
    for n in [5usize, 10, 25, 50, 100] {
        let problem = synthetic_problem(n);
        group.bench_with_input(BenchmarkId::new("simplex", n), &problem, |b, p| {
            b.iter(|| black_box(p.solve(black_box(budget)).expect("solvable")));
        });
        // The cached-frontier path the runtime controller and sweeps use:
        // build once, then O(log K) per solve.
        let frontier = problem.frontier();
        group.bench_with_input(BenchmarkId::new("frontier", n), &frontier, |b, f| {
            b.iter(|| black_box(f.solve(black_box(budget)).expect("solvable")));
        });
        group.bench_with_input(BenchmarkId::new("frontier_build", n), &problem, |b, p| {
            b.iter(|| black_box(p.frontier()));
        });
    }
    group.finish();
}

fn bench_budget_regimes(c: &mut Criterion) {
    // Pivot counts differ by regime: energy-limited (single point),
    // mixed (two points), saturated (time-limited).
    let mut group = c.benchmark_group("simplex_budget_regimes");
    group.sample_size(30);
    let problem = synthetic_problem(5);
    for (label, joules) in [("starved", 0.5), ("mixed", 5.0), ("saturated", 12.0)] {
        group.bench_function(label, |b| {
            let budget = Energy::from_joules(joules);
            b.iter(|| black_box(problem.solve(black_box(budget)).expect("solvable")));
        });
    }
    group.finish();
}

fn bench_horizon_planning(c: &mut Criterion) {
    // The 24-hour lookahead plan from the `reap-core` horizon planner (a
    // taut string through the battery tube, read off one frontier): how
    // much does joint planning cost compared to 24 independent simplex
    // solves? `joint_24h` builds all 24 schedules; `controller_24h` is the
    // receding-horizon hot path.
    use reap_core::{plan_horizon, RecedingHorizonController};
    let mut group = c.benchmark_group("horizon_planning");
    group.sample_size(20);
    let problem = synthetic_problem(5);
    // A day/night forecast.
    let forecast: Vec<Energy> = (0..24)
        .map(|h| {
            if (7..19).contains(&h) {
                Energy::from_joules(6.0)
            } else {
                Energy::ZERO
            }
        })
        .collect();
    group.bench_function("joint_24h", |b| {
        b.iter(|| {
            black_box(
                plan_horizon(
                    &problem,
                    black_box(&forecast),
                    Energy::from_joules(30.0),
                    Energy::from_joules(60.0),
                )
                .expect("plannable"),
            )
        });
    });
    // What MPC runs each hour: the controller re-plans a 24-hour window
    // slid one hour along the day/night cycle (new information, so every
    // call solves) and builds only the executed hour's schedule.
    let cycle: Vec<Energy> = forecast.iter().chain(&forecast).copied().collect();
    let mut mpc = RecedingHorizonController::new(problem.clone(), 24).expect("lookahead >= 1");
    let mut start = 0;
    group.bench_function("controller_24h", |b| {
        b.iter(|| {
            let window = &cycle[start..start + 24];
            start = (start + 1) % 24;
            black_box(
                mpc.plan(
                    black_box(window),
                    Energy::from_joules(30.0),
                    Energy::from_joules(60.0),
                )
                .expect("plannable"),
            )
        });
    });
    group.bench_function("myopic_24h", |b| {
        b.iter(|| {
            for &e in &forecast {
                let budget = e.max(problem.min_budget());
                black_box(problem.solve(black_box(budget)).expect("solvable"));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simplex_scaling,
    bench_budget_regimes,
    bench_horizon_planning
);
criterion_main!(benches);
