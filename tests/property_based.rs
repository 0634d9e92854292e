//! Randomized-sweep tests (formerly proptest) of the core invariants,
//! driven through the unified `Solver` facade.

use calu::matrix::{gen, ProcessGrid};
use calu::sched::{make_policy_with, nstatic_for, QueueDiscipline, SchedulerKind};
use calu::sim::{MachineConfig, NoiseConfig};
use calu::{MatrixSource, SimulatedBackend, Solver};
use calu_rand::Rng;

/// PA = LU holds for random sizes, block sizes and thread counts.
#[test]
fn calu_residual_small() {
    let mut rng = Rng::seed_from_u64(30);
    for _ in 0..24 {
        let n = rng.gen_range(8..80);
        let b = rng.gen_range(4..24);
        let threads = rng.gen_range(1..5);
        let dratio = rng.gen_range(0.0..=1.0);
        let seed = rng.next_u64() % 1000;
        let a = gen::uniform(n, n, seed);
        let report = Solver::new(a)
            .tile(b)
            .threads(threads)
            .dratio(dratio)
            .run()
            .unwrap();
        let resid = report.residual.unwrap();
        assert!(resid < 1e-11, "residual {resid}");
        // permutation must be a valid swap sequence over n rows
        let f = report.factorization.as_ref().unwrap();
        let explicit = f.perm.explicit(n);
        let mut sorted = explicit.clone();
        sorted.sort();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}

/// The simple reference agrees with the tiled executor on solves.
#[test]
fn simple_and_threaded_agree() {
    let mut rng = Rng::seed_from_u64(31);
    for _ in 0..16 {
        let n = rng.gen_range(12..64);
        let seed = rng.next_u64() % 500;
        let a = gen::uniform(n, n, seed);
        let rhs = gen::uniform(n, 1, seed + 1);
        let x1 = calu::core::calu_simple(&a, 8, 2).solve(&rhs);
        let report = Solver::new(a.clone()).tile(8).threads(2).run().unwrap();
        let x2 = report.factorization.unwrap().solve(&rhs);
        // both must solve the system; compare against each other loosely
        let e1 = calu::core::verify::backward_error(&a, &x1, &rhs);
        let e2 = calu::core::verify::backward_error(&a, &x2, &rhs);
        assert!(e1 < 1e-9, "simple backward error {e1}");
        assert!(e2 < 1e-9, "threaded backward error {e2}");
    }
}

/// Layout conversions round-trip exactly.
#[test]
fn layout_roundtrip() {
    use calu::matrix::{BclMatrix, CmTiles, TileStorage, TlbMatrix};
    let mut rng = Rng::seed_from_u64(32);
    for _ in 0..48 {
        let m = rng.gen_range(1..40);
        let n = rng.gen_range(1..40);
        let b = rng.gen_range(1..12);
        let pr = rng.gen_range(1..4);
        let pc = rng.gen_range(1..4);
        let seed = rng.next_u64() % 100;
        let a = gen::uniform(m, n, seed);
        let grid = ProcessGrid::new(pr, pc).unwrap();
        assert!(CmTiles::from_dense(&a, b).to_dense().approx_eq(&a, 0.0));
        assert!(BclMatrix::from_dense(&a, b, grid)
            .to_dense()
            .approx_eq(&a, 0.0));
        assert!(TlbMatrix::from_dense(&a, b, grid)
            .to_dense()
            .approx_eq(&a, 0.0));
    }
}

/// Every policy executes every task exactly once, regardless of the
/// matrix shape and grid.
#[test]
fn policies_complete_without_loss() {
    use calu::dag::TaskGraph;
    let mut rng = Rng::seed_from_u64(33);
    for _ in 0..12 {
        let mt = rng.gen_range(1..8);
        let nt = rng.gen_range(1..8);
        let pr = rng.gen_range(1..3);
        let pc = rng.gen_range(1..3);
        let dratio = rng.gen_range(0.0..=1.0);
        let g = TaskGraph::build_calu(mt * 50, nt * 50, 50, pr);
        let grid = ProcessGrid::new(pr, pc).unwrap();
        for kind in [
            SchedulerKind::Static,
            SchedulerKind::Dynamic,
            SchedulerKind::Hybrid { dratio },
            SchedulerKind::WorkStealing { seed: 3 },
        ] {
            let mut p = make_policy_with(kind, QueueDiscipline::Global, &g, grid);
            let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
            for t in g.initial_ready() {
                p.on_ready(t, None);
            }
            let mut seen = vec![false; g.len()];
            let mut done = 0;
            let mut stuck = 0;
            while done < g.len() {
                let mut progressed = false;
                for core in 0..grid.size() {
                    if let Some(popped) = p.pop(core) {
                        assert!(!seen[popped.task.idx()], "task executed twice");
                        seen[popped.task.idx()] = true;
                        done += 1;
                        progressed = true;
                        for &s in g.successors(popped.task) {
                            deps[s.idx()] -= 1;
                            if deps[s.idx()] == 0 {
                                p.on_ready(s, Some(core));
                            }
                        }
                    }
                }
                stuck = if progressed { 0 } else { stuck + 1 };
                assert!(stuck < 2, "policy starved");
            }
        }
    }
}

/// Simulator invariants through the facade: determinism across reruns
/// and the work lower bound.
#[test]
fn simulator_bounds() {
    let mach = MachineConfig::intel_xeon_16(NoiseConfig::off());
    let mut rng = Rng::seed_from_u64(34);
    for _ in 0..8 {
        let n = rng.gen_range(500..1500);
        let dratio = rng.gen_range(0.0..=1.0);
        let solver = Solver::new(MatrixSource::shape(n, n))
            .dratio(dratio)
            .backend(SimulatedBackend::new(mach.clone()));
        let r1 = solver.run().unwrap();
        let r2 = solver.run().unwrap();
        assert_eq!(r1.makespan, r2.makespan, "simulation must be deterministic");
        // nominal flops never exceed executed flops, so this bound holds
        let ideal = r1.nominal_flops / mach.peak_flops();
        assert!(r1.makespan >= ideal, "makespan below the work bound");
        assert!(r1.utilization() <= 1.0 + 1e-9);
    }
}

/// Hybrid extremes: dratio 0/1 split the DAG exactly like the pure
/// policies split it.
#[test]
fn nstatic_extremes() {
    for npanels in 1..200 {
        assert_eq!(nstatic_for(0.0, npanels), npanels);
        assert_eq!(nstatic_for(1.0, npanels), 0);
        assert!(nstatic_for(0.5, npanels) <= npanels);
    }
}
