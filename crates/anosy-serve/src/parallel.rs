//! The sharded parallel solver driver.
//!
//! Branch-and-prune subtrees over disjoint sub-boxes are completely independent once the
//! predicate is an interned id, so the driver:
//!
//! 1. interns and simplifies the predicate once, in a template [`TermStore`] (warming its
//!    simplify/NNF memos);
//! 2. partitions the space into `workers × chunks_per_worker` sub-boxes
//!    ([`IntBox::split_chunks`]);
//! 3. submits one job per chunk, each seeding a private read-only snapshot of the template
//!    store ([`Solver::with_store`]) — share-nothing, no locks on the hot path; workers pull
//!    chunks from the shared queue, so load balances dynamically;
//! 4. merges the per-chunk results (sums for counting, conjunction for validity) and the
//!    per-chunk [`SolverStats`] into one aggregate, exactly as a sequential run would have
//!    reported.
//!
//! Results are deterministic and identical to the sequential procedures: model counts over a
//! partition sum to the whole-space count, and a predicate is valid on the space iff it is valid
//! on every chunk (the first counterexample in chunk order is returned, which is a
//! counterexample of the whole space).

use crate::ShardPool;
use anosy_logic::{IntBox, Point, Pred, TermStore};
use anosy_solver::{Solver, SolverConfig, SolverError, SolverStats, ValidityOutcome};
use std::sync::Arc;

/// How many chunks the space is oversplit into per worker. Each chunk is one pool job, so
/// workers pull chunks dynamically from the shared queue: a worker that drew an easy region
/// goes back for more while a hard region is still being searched. The value is deliberately
/// small because every chunk pays one search start-up and one store snapshot.
const CHUNKS_PER_WORKER: usize = 4;

/// The outcome of a sharded run: the merged value plus the aggregate search effort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sharded<T> {
    /// The merged result (identical to what the sequential procedure returns).
    pub value: T,
    /// Search statistics summed over all shards.
    pub stats: SolverStats,
    /// How many sub-boxes the space was split into.
    pub shards: usize,
}

fn prepare(pred: &Pred, space: &IntBox, workers: usize) -> (Arc<TermStore>, Vec<IntBox>) {
    let mut template = TermStore::new();
    let id = template.intern_pred(pred);
    let _ = template.simplify(id);
    let _ = template.negate_simplified(id);
    (Arc::new(template), space.split_chunks(workers * CHUNKS_PER_WORKER))
}

/// Counts the models of `pred` in `space` by sharding disjoint sub-boxes across the pool.
/// The count equals [`Solver::count_models`] on the whole space.
///
/// # Errors
///
/// Propagates the first [`SolverError`] any shard hits (budgets apply *per shard*, so a sharded
/// run can complete searches a sequential one cannot).
pub fn par_count_models(
    pool: &ShardPool,
    config: &SolverConfig,
    pred: &Pred,
    space: &IntBox,
) -> Result<Sharded<u128>, SolverError> {
    let (template, chunks) = prepare(pred, space, pool.workers());
    let shards = chunks.len();
    // One job per chunk: the pool's workers pull chunks dynamically, so an easy region frees
    // its worker for the remaining hard ones.
    let jobs: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let template = Arc::clone(&template);
            let config = config.clone();
            let pred = pred.clone();
            move || -> Result<(u128, SolverStats), SolverError> {
                let mut solver = Solver::with_store(config, template.snapshot());
                let id = solver.intern_simplified(&pred);
                let total = solver.count_models_id(id, &chunk)?;
                Ok((total, *solver.stats()))
            }
        })
        .collect();
    let mut value = 0u128;
    let mut stats = SolverStats::new();
    for slot in pool.scatter(jobs) {
        let (count, worker_stats) =
            slot.unwrap_or_else(|payload| std::panic::resume_unwind(payload))?;
        value += count;
        stats.absorb(&worker_stats);
    }
    Ok(Sharded { value, stats, shards })
}

/// Checks whether `pred` holds on every point of `space` by sharding sub-boxes across the pool.
/// The verdict agrees with [`Solver::check_validity`]: valid iff `pred` is valid on every shard.
/// When it is not, the result is the counterexample of the first failing shard in chunk order —
/// deterministic for a given pool width, but not necessarily the point the sequential solver
/// would report, since each shard searches its own sub-box.
///
/// # Errors
///
/// See [`par_count_models`].
pub fn par_check_validity(
    pool: &ShardPool,
    config: &SolverConfig,
    pred: &Pred,
    space: &IntBox,
) -> Result<Sharded<ValidityOutcome>, SolverError> {
    let (template, chunks) = prepare(pred, space, pool.workers());
    let shards = chunks.len();
    let jobs: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let template = Arc::clone(&template);
            let config = config.clone();
            let pred = pred.clone();
            move || -> Result<(Option<Point>, SolverStats), SolverError> {
                let mut solver = Solver::with_store(config, template.snapshot());
                let id = solver.intern_simplified(&pred);
                let found = match solver.check_validity_id(id, &chunk)? {
                    ValidityOutcome::CounterExample(point) => Some(point),
                    ValidityOutcome::Valid => None,
                };
                Ok((found, *solver.stats()))
            }
        })
        .collect();
    let mut stats = SolverStats::new();
    let mut counterexample: Option<Point> = None;
    let mut first_error: Option<SolverError> = None;
    for slot in pool.scatter(jobs) {
        match slot.unwrap_or_else(|payload| std::panic::resume_unwind(payload)) {
            Ok((found, worker_stats)) => {
                stats.absorb(&worker_stats);
                if counterexample.is_none() {
                    counterexample = found; // first chunk in submission order wins: deterministic
                }
            }
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    // A counterexample is a definitive answer even if some other shard blew its budget: the
    // predicate is refuted regardless of what that shard would have found.
    let value = match (counterexample, first_error) {
        (Some(point), _) => ValidityOutcome::CounterExample(point),
        (None, Some(e)) => return Err(e),
        (None, None) => ValidityOutcome::Valid,
    };
    Ok(Sharded { value, stats, shards })
}

/// `true` iff `pred` holds on every point of `space` (the boolean view of
/// [`par_check_validity`]).
///
/// # Errors
///
/// See [`par_count_models`].
pub fn par_is_valid(
    pool: &ShardPool,
    config: &SolverConfig,
    pred: &Pred,
    space: &IntBox,
) -> Result<bool, SolverError> {
    Ok(matches!(par_check_validity(pool, config, pred, space)?.value, ValidityOutcome::Valid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_logic::{IntExpr, SecretLayout};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn nearby(xo: i64, yo: i64) -> Pred {
        ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - yo).abs()).le(100)
    }

    #[test]
    fn sharded_count_equals_sequential() {
        let pool = ShardPool::new(4);
        let config = SolverConfig::for_tests();
        let space = layout().space();
        let mut sequential = Solver::with_config(config.clone());
        for pred in [nearby(200, 200), nearby(0, 0), Pred::True, Pred::False] {
            let expected = sequential.count_models(&pred, &space).unwrap();
            let sharded = par_count_models(&pool, &config, &pred, &space).unwrap();
            assert_eq!(sharded.value, expected, "count mismatch for {pred}");
            assert!(sharded.shards > 1);
            assert!(sharded.stats.queries >= sharded.shards as u64);
        }
    }

    #[test]
    fn sharded_validity_agrees_with_sequential_and_is_deterministic() {
        let pool = ShardPool::new(4);
        let config = SolverConfig::for_tests();
        let space = layout().space();
        // Valid on the whole space.
        let valid = (IntExpr::var(0) + IntExpr::var(1)).ge(0);
        assert!(par_is_valid(&pool, &config, &valid, &space).unwrap());
        // Invalid: both drivers find *a* counterexample; the parallel one is stable run-to-run.
        let invalid = IntExpr::var(0).le(100);
        let a = par_check_validity(&pool, &config, &invalid, &space).unwrap();
        let b = par_check_validity(&pool, &config, &invalid, &space).unwrap();
        assert_eq!(a.value, b.value);
        match a.value {
            ValidityOutcome::CounterExample(p) => {
                assert!(!invalid.eval(&p).unwrap(), "not a counterexample: {p}")
            }
            ValidityOutcome::Valid => panic!("x <= 100 is not valid on [0,400]^2"),
        }
    }

    #[test]
    fn single_worker_pool_still_works() {
        let pool = ShardPool::new(1);
        let config = SolverConfig::for_tests();
        let space = layout().space();
        let sharded = par_count_models(&pool, &config, &nearby(200, 200), &space).unwrap();
        let mut sequential = Solver::with_config(config);
        assert_eq!(sharded.value, sequential.count_models(&nearby(200, 200), &space).unwrap());
    }
}
