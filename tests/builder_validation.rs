//! Builder validation: every bad knob surfaces as the unified
//! `calu::Error` with a message that says what to change — no panics,
//! no per-crate error types leaking through.

use calu::matrix::{gen, Layout};
use calu::sched::SchedulerKind;
use calu::sim::{MachineConfig, NoiseConfig};
use calu::{Algorithm, Error, FaultPlan, MatrixSource, SimulatedBackend, Solver, ThreadedBackend};

fn config_message(err: Error) -> String {
    match err {
        Error::Config(msg) => msg,
        other => panic!("expected Error::Config, got {other:?}"),
    }
}

#[test]
fn zero_tile_size_is_config_error() {
    let err = Solver::new(gen::uniform(16, 16, 1))
        .tile(0)
        .run()
        .unwrap_err();
    let msg = config_message(err);
    assert!(msg.contains("block size"), "actionable message, got: {msg}");
}

#[test]
fn zero_threads_is_config_error() {
    let err = Solver::new(gen::uniform(16, 16, 1))
        .tile(4)
        .threads(0)
        .run()
        .unwrap_err();
    let msg = config_message(err);
    assert!(msg.contains("thread"), "actionable message, got: {msg}");
}

#[test]
fn dratio_outside_unit_interval_is_config_error() {
    for bad in [-0.1, 1.5, f64::NAN] {
        let err = Solver::new(gen::uniform(16, 16, 1))
            .tile(4)
            .dratio(bad)
            .run()
            .unwrap_err();
        let msg = config_message(err);
        assert!(
            msg.contains("dratio"),
            "actionable message for {bad}, got: {msg}"
        );
    }
}

#[test]
fn zero_grouping_is_config_error() {
    let err = Solver::new(gen::uniform(16, 16, 1))
        .tile(4)
        .grouping(0)
        .run()
        .unwrap_err();
    let msg = config_message(err);
    assert!(msg.contains("group"), "actionable message, got: {msg}");
}

#[test]
fn grouping_conflicts_with_non_grouping_layouts() {
    for layout in [Layout::TwoLevelBlock, Layout::ColumnMajor] {
        let err = Solver::new(gen::uniform(32, 32, 1))
            .tile(8)
            .layout(layout)
            .grouping(3)
            .run()
            .unwrap_err();
        let msg = config_message(err);
        assert!(
            msg.contains("BlockCyclic") && msg.contains("grouping"),
            "{layout}: message must name the fix, got: {msg}"
        );
    }
}

#[test]
fn zero_tslu_leaves_is_config_error() {
    let err = Solver::new(gen::uniform(32, 32, 1))
        .tile(8)
        .tslu_leaves(0)
        .run()
        .unwrap_err();
    let msg = config_message(err);
    assert!(msg.contains("leaf") || msg.contains("leaves"), "got: {msg}");
}

#[test]
fn simulated_thread_mismatch_names_both_counts() {
    let err = Solver::new(MatrixSource::shape(400, 400))
        .threads(7)
        .backend(SimulatedBackend::new(MachineConfig::intel_xeon_16(
            NoiseConfig::off(),
        )))
        .run()
        .unwrap_err();
    let msg = config_message(err);
    assert!(msg.contains('7') && msg.contains("16"), "got: {msg}");
}

#[test]
fn threaded_needs_data_and_says_so() {
    let err = Solver::new(MatrixSource::shape(64, 64))
        .tile(16)
        .backend(ThreadedBackend)
        .run()
        .unwrap_err();
    let msg = config_message(err);
    assert!(
        msg.contains("DenseMatrix") || msg.contains("Uniform"),
        "got: {msg}"
    );
}

#[test]
fn unsupported_combinations_point_at_alternatives() {
    let err = Solver::new(gen::uniform(32, 32, 1))
        .tile(8)
        .scheduler(SchedulerKind::WorkStealing { seed: 1 })
        .run()
        .unwrap_err();
    match err {
        Error::Unsupported { backend, what } => {
            assert_eq!(backend, "threaded");
            assert!(what.contains("SimulatedBackend"), "got: {what}");
        }
        other => panic!("expected Error::Unsupported, got {other:?}"),
    }
    // one engine-route rule behind `run`, `batch` and `serve`: the
    // Cilk-deque baseline is refused on all three …
    let stealing = || {
        Solver::new(gen::uniform(32, 32, 1))
            .tile(8)
            .scheduler(SchedulerKind::WorkStealing { seed: 1 })
    };
    fn unsupported<T>(res: Result<T, Error>, who: &str, hint: &str) {
        match res {
            Err(Error::Unsupported { backend, what }) => {
                assert_eq!(backend, who);
                assert!(what.contains(hint), "{who}: got {what}");
            }
            Err(other) => panic!("{who}: expected Error::Unsupported, got {other:?}"),
            Ok(_) => panic!("{who}: expected Error::Unsupported, got a success"),
        }
    }
    let items = [MatrixSource::uniform(32, 2), MatrixSource::uniform(24, 3)];
    unsupported(stealing().run(), "threaded", "SimulatedBackend");
    unsupported(stealing().batch(&items), "threaded", "SimulatedBackend");
    unsupported(stealing().serve(), "serve", "SimulatedBackend");
    // … and the sequential reference drivers have no pool to serve on
    for algorithm in [Algorithm::Gepp, Algorithm::IncPiv] {
        let solver = Solver::new(gen::uniform(32, 32, 1))
            .tile(8)
            .algorithm(algorithm);
        unsupported(solver.serve(), "serve", "Solver::run");
        assert!(solver.run().is_ok(), "{algorithm} runs solo");
        assert_eq!(solver.batch(&items).unwrap().len(), 2, "{algorithm}");
    }
}

#[test]
fn a_slow_factor_whose_stall_overflows_is_config_error() {
    // a stall of (factor − 1) × a task's time must fit a Duration: the
    // plan is refused up front instead of panicking a worker mid-run
    let err = Solver::new(MatrixSource::uniform(256, 7))
        .tile(32)
        .threads(2)
        .fault_plan(FaultPlan::off().with_seed(1).slow_worker(0, 1e30))
        .run()
        .unwrap_err();
    let msg = config_message(err);
    assert!(msg.contains("slow-worker factor"), "got: {msg}");
}

#[test]
fn empty_matrix_is_a_factor_error() {
    let err = Solver::new(calu::matrix::DenseMatrix::zeros(0, 0))
        .tile(4)
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Factor(calu::core::CaluError::EmptyMatrix)
    ));
    assert!(err.to_string().contains("empty"));
}

#[test]
fn errors_display_the_unified_prefix() {
    let err = Solver::new(gen::uniform(8, 8, 1))
        .tile(0)
        .run()
        .unwrap_err();
    assert!(err.to_string().starts_with("invalid solver configuration"));
}
