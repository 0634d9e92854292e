//! Batched many-matrix sweeps on one worker pool.
//!
//! Serving-style workloads factor *many small matrices*, where the
//! per-call costs the solo driver happily amortizes over one large
//! factorization — planning, thread spawn/join, queue construction —
//! come to dominate. [`factor_batch`] queues the whole sweep as jobs on
//! one scoped engine (the crate-private `engine` module) and drains it:
//! the pool is spawned **once**, each worker keeps one packing arena
//! alive across every item it touches, **small** items (the co-schedule predicate,
//! [`CaluConfig::co_schedules`]) are claimed whole by one worker and
//! factored sequentially — items run in parallel with zero intra-item
//! synchronization, which beats splitting a tiny DAG across the pool —
//! and **large** items run the full hybrid static/dynamic schedule
//! co-operatively, pipelined: a worker whose own queues ran dry starts
//! item `j + 1` while the others finish the tail of item `j`.
//!
//! Scheduling never changes the math: every item factors
//! bitwise-identically to a solo [`crate::calu_factor`] call with the
//! same config — the facade's backend-parity suite pins this down.

use crate::config::CaluConfig;
use crate::engine::{run_jobs, BatchItem, Outcome};
use crate::error::CaluError;

/// Result of one [`factor_batch`] sweep.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-item outcomes, in input order.
    pub items: Vec<Outcome>,
    /// End-to-end wall time of the sweep (first queue → last join).
    pub wall_secs: f64,
    /// Seconds until the last pool worker entered its work loop — the
    /// one-off spawn cost the batch amortizes over all items.
    pub pool_spawn_secs: f64,
}

/// Factor a batch on one worker pool (see the module docs for the
/// scheduling model). All items share one [`CaluConfig`] — the batch
/// knobs ([`CaluConfig::batch_threads_per_item`],
/// [`CaluConfig::batch_small_cutoff`]) choose which items are
/// co-scheduled — and each [`BatchItem`] names its own
/// [`KernelSet`](crate::KernelSet), so one sweep — one pool spawn, one
/// scratch arena per worker — can interleave CALU and tiled Cholesky
/// factorizations. Per item the factors are bitwise-identical to the
/// matching solo call ([`crate::calu_factor`] /
/// [`crate::cholesky_factor`]) with the same config. An armed
/// [`CaluConfig::fault`] plan is honoured like anywhere else: survivors
/// rescue a lost worker's static backlog and redo the small item it
/// died in. Items are cloned into the engine — free for borrowed and
/// generator sources; lend dense data as [`Source::Dense`](crate::Source)
/// rather than moving it in.
pub fn factor_batch(items: &[BatchItem<'_>], cfg: &CaluConfig) -> Result<BatchOutcome, CaluError> {
    if items.is_empty() {
        return Err(CaluError::InvalidConfig(
            "a batch needs at least one matrix".into(),
        ));
    }
    if items.iter().any(|it| {
        let (m, n) = it.source.dims();
        m == 0 || n == 0
    }) {
        return Err(CaluError::EmptyMatrix);
    }
    run_jobs(cfg.clone(), items.iter().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Source;
    use crate::threaded::calu_factor;
    use calu_dag::TaskGraph;
    use calu_matrix::{gen, DenseMatrix};
    use calu_sched::QueueDiscipline;

    fn cfg4() -> CaluConfig {
        CaluConfig::new(16).with_threads(4).with_dratio(0.5)
    }

    /// One CALU item per borrowed matrix.
    fn lu_items<'a>(mats: &[&'a DenseMatrix]) -> Vec<BatchItem<'a>> {
        mats.iter()
            .map(|a| BatchItem::lu(Source::Dense(a)))
            .collect()
    }

    #[test]
    fn batch_items_match_solo_runs_bitwise() {
        // mixed small (co-scheduled) and large (co-operative) items
        let mats: Vec<DenseMatrix> = [(48usize, 1u64), (96, 2), (450, 3), (64, 4)]
            .iter()
            .map(|&(n, seed)| gen::uniform(n, n, seed))
            .collect();
        let refs: Vec<&DenseMatrix> = mats.iter().collect();
        let cfg = cfg4().with_batch_small_cutoff(100);
        let out = factor_batch(&lu_items(&refs), &cfg).unwrap();
        assert_eq!(out.items.len(), 4);
        assert!(out.wall_secs > 0.0 && out.pool_spawn_secs >= 0.0);
        for (i, (a, item)) in mats.iter().zip(&out.items).enumerate() {
            let solo = calu_factor(a, &cfg).unwrap();
            assert_eq!(
                item.factorization.lu.as_slice(),
                solo.lu.as_slice(),
                "item {i}: batch factors must match solo bitwise"
            );
            assert_eq!(item.factorization.perm.pivots(), solo.perm.pivots());
            assert!(item.factorization.residual(a) < 1e-12, "item {i}");
            assert_eq!(item.co_scheduled, a.rows() <= 100, "item {i}");
            assert!(item.makespan > 0.0 && item.makespan <= out.wall_secs);
        }
    }

    #[test]
    fn every_task_is_attributed_exactly_once() {
        let mats: Vec<DenseMatrix> = (0..6).map(|i| gen::uniform(80, 80, 50 + i)).collect();
        let refs: Vec<&DenseMatrix> = mats.iter().collect();
        for cutoff in [0usize, 1000] {
            // cutoff 0: all co-operative; cutoff 1000: all co-scheduled
            let cfg = cfg4().with_batch_small_cutoff(cutoff);
            let out = factor_batch(&lu_items(&refs), &cfg).unwrap();
            for (item, g) in out.items.iter().zip(&mats) {
                let expected = TaskGraph::build_calu(g.rows(), g.cols(), 16, 2).len();
                let popped: u64 = item
                    .stats
                    .iter()
                    .map(|s| s.local_pops + s.global_pops + s.steal_pops)
                    .sum();
                assert_eq!(popped as usize, expected, "cutoff {cutoff}");
                assert_eq!(item.timeline.spans().len(), expected, "cutoff {cutoff}");
                assert_eq!(item.co_scheduled, cutoff == 1000);
            }
        }
    }

    #[test]
    fn batch_runs_under_every_queue_discipline() {
        let mats: Vec<DenseMatrix> = (0..3).map(|i| gen::uniform(450, 450, 7 + i)).collect();
        let refs: Vec<&DenseMatrix> = mats.iter().collect();
        let mut packed: Vec<Vec<f64>> = Vec::new();
        for queue in [
            QueueDiscipline::Global,
            QueueDiscipline::sharded(),
            QueueDiscipline::lock_free(),
        ] {
            let cfg = cfg4().with_queue(queue).with_batch_small_cutoff(0);
            let out = factor_batch(&lu_items(&refs), &cfg).unwrap();
            packed.push(out.items[0].factorization.lu.as_slice().to_vec());
            for item in &out.items {
                assert!(!item.co_scheduled);
            }
        }
        assert_eq!(packed[0], packed[1], "global vs sharded");
        assert_eq!(packed[0], packed[2], "global vs lockfree");
    }

    #[test]
    fn empty_batch_and_empty_matrices_are_rejected() {
        assert!(matches!(
            factor_batch(&[], &cfg4()),
            Err(CaluError::InvalidConfig(_))
        ));
        let z = DenseMatrix::zeros(0, 4);
        assert!(matches!(
            factor_batch(&lu_items(&[&z]), &cfg4()),
            Err(CaluError::EmptyMatrix)
        ));
    }

    #[test]
    fn lazy_sources_match_dense_sources_bitwise() {
        // a Uniform source materialized on the claiming worker must
        // factor exactly like the same matrix passed in dense — for
        // both co-scheduled and co-operative routing
        let dims_seeds = [(48usize, 21u64), (96, 22), (450, 23)];
        let mats: Vec<DenseMatrix> = dims_seeds
            .iter()
            .map(|&(n, seed)| gen::uniform(n, n, seed))
            .collect();
        let refs: Vec<&DenseMatrix> = mats.iter().collect();
        let lazy: Vec<BatchItem<'_>> = dims_seeds
            .iter()
            .map(|&(n, seed)| BatchItem::lu(Source::Uniform { m: n, n, seed }))
            .collect();
        let cfg = cfg4().with_batch_small_cutoff(100);
        let dense_out = factor_batch(&lu_items(&refs), &cfg).unwrap();
        let lazy_out = factor_batch(&lazy, &cfg).unwrap();
        for (i, (d, l)) in dense_out.items.iter().zip(&lazy_out.items).enumerate() {
            assert_eq!(
                d.factorization.lu.as_slice(),
                l.factorization.lu.as_slice(),
                "item {i}"
            );
            assert_eq!(d.factorization.perm.pivots(), l.factorization.perm.pivots());
            assert_eq!(d.co_scheduled, l.co_scheduled, "item {i}");
        }
    }

    #[test]
    fn mixed_lu_and_cholesky_batch_matches_solo_bitwise() {
        // small (co-scheduled) and large (co-operative) items of both
        // kernel sets through one pool; each must match its solo driver
        let lu_mats: Vec<DenseMatrix> = [(48usize, 31u64), (450, 32)]
            .iter()
            .map(|&(n, seed)| gen::uniform(n, n, seed))
            .collect();
        let spd_mats: Vec<DenseMatrix> = [(64usize, 33u64), (300, 34)]
            .iter()
            .map(|&(n, seed)| gen::spd_uniform(n, seed))
            .collect();
        let items: Vec<BatchItem<'_>> = vec![
            BatchItem::lu(Source::Dense(&lu_mats[0])),
            BatchItem::cholesky(Source::Dense(&spd_mats[0])),
            BatchItem::lu(Source::Dense(&lu_mats[1])),
            BatchItem::cholesky(Source::Dense(&spd_mats[1])),
        ];
        let cfg = cfg4().with_batch_small_cutoff(100);
        let out = factor_batch(&items, &cfg).unwrap();
        assert_eq!(out.items.len(), 4);

        let solo_lu0 = calu_factor(&lu_mats[0], &cfg).unwrap();
        let solo_lu1 = calu_factor(&lu_mats[1], &cfg).unwrap();
        let solo_ch0 = crate::threaded::cholesky_factor(&spd_mats[0], &cfg).unwrap();
        let solo_ch1 = crate::threaded::cholesky_factor(&spd_mats[1], &cfg).unwrap();
        for (i, solo) in [solo_lu0, solo_ch0, solo_lu1, solo_ch1].iter().enumerate() {
            assert_eq!(
                out.items[i].factorization.lu.as_slice(),
                solo.lu.as_slice(),
                "item {i}: mixed batch must match solo bitwise"
            );
        }
        // Cholesky items: identity perm, tight reconstruction residual
        for (item, a) in [(&out.items[1], &spd_mats[0]), (&out.items[3], &spd_mats[1])] {
            assert!(item.factorization.perm.pivots().is_empty());
            let r = item.factorization.cholesky_residual(a);
            assert!(r < 1e-13, "cholesky residual {r}");
        }
        assert!(out.items[0].co_scheduled && out.items[1].co_scheduled);
        assert!(!out.items[2].co_scheduled && !out.items[3].co_scheduled);
    }

    #[test]
    fn spd_generator_items_match_dense_sources_bitwise() {
        let dims_seeds = [(64usize, 41u64), (300, 42)];
        let mats: Vec<DenseMatrix> = dims_seeds
            .iter()
            .map(|&(n, seed)| gen::spd_uniform(n, seed))
            .collect();
        let dense: Vec<BatchItem<'_>> = mats
            .iter()
            .map(|a| BatchItem::cholesky(Source::Dense(a)))
            .collect();
        let lazy: Vec<BatchItem<'_>> = dims_seeds
            .iter()
            .map(|&(n, seed)| BatchItem::cholesky(Source::SpdUniform { n, seed }))
            .collect();
        let cfg = cfg4().with_batch_small_cutoff(100);
        let d = factor_batch(&dense, &cfg).unwrap();
        let l = factor_batch(&lazy, &cfg).unwrap();
        for (i, (a, b)) in d.items.iter().zip(&l.items).enumerate() {
            assert_eq!(
                a.factorization.lu.as_slice(),
                b.factorization.lu.as_slice(),
                "item {i}"
            );
        }
    }

    #[test]
    fn cholesky_batch_item_rejects_rectangular_source() {
        let items = [BatchItem::cholesky(Source::Uniform {
            m: 40,
            n: 32,
            seed: 1,
        })];
        match factor_batch(&items, &cfg4()) {
            Err(CaluError::InvalidConfig(msg)) => {
                assert!(msg.contains("square"), "msg: {msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn single_item_batch_matches_solo() {
        let a = gen::uniform(72, 72, 9);
        let cfg = cfg4();
        let out = factor_batch(&lu_items(&[&a]), &cfg).unwrap();
        let solo = calu_factor(&a, &cfg).unwrap();
        assert_eq!(out.items[0].factorization.lu.as_slice(), solo.lu.as_slice());
        assert_eq!(out.items[0].factorization.perm.pivots(), solo.perm.pivots());
    }
}
