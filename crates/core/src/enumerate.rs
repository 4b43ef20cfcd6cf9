//! The naive enumeration baseline (§3.2.2's "simple way").
//!
//! Enumerates every cell of the attribute grid, determines the winning
//! class per cell, and covers each class's cells with rectangles. The
//! paper reports this approach took more than 24 hours on a medium data
//! set — it exists here as the correctness oracle and the baseline leg of
//! the derivation benchmarks. Grids above a configurable cell budget are
//! refused rather than silently attempted.

use crate::covering::cover_cells;
use crate::envelope::{DeriveStats, Envelope};
use crate::region::Region;
use crate::score_model::{BoundMode, RegionStatus, ScoreModel};
use crate::CoreError;
use mpq_types::{ClassId, Schema};

/// Default refusal threshold for grid enumeration.
pub const DEFAULT_CELL_LIMIT: u64 = 4_000_000;

/// Derives the envelope of `class` by full enumeration. Exact for point
/// tables (naive Bayes, discretized clustering), whose cells the kernel
/// decides; for the raw-sound interval tables a cell is covered iff the
/// class *can* win somewhere in it (no rival's floor beats its ceiling),
/// which is the tightest rectangle-expressible envelope.
pub fn derive_enumerate(
    model: &ScoreModel,
    schema: &Schema,
    class: ClassId,
    cell_limit: u64,
) -> Result<Envelope, CoreError> {
    let cells_total = schema.grid_cells();
    if cells_total > cell_limit {
        return Err(CoreError::GridTooLarge { cells: cells_total, limit: cell_limit });
    }
    let k = model.position(class);
    let mine: Vec<_> = Region::full(schema)
        .cells()
        .filter(|cell| {
            let status = model.region_status(&Region::cell(schema, cell), k, BoundMode::Basic);
            status != RegionStatus::MustLose
        })
        .collect();
    let regions = cover_cells(schema, &mine);
    Ok(Envelope {
        class,
        exact: model.is_point_model(),
        regions,
        stats: DeriveStats::default(),
        trace: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::DeriveOptions;
    use crate::topdown::derive_topdown;
    use mpq_models::{Classifier as _, NaiveBayes};

    fn table1() -> NaiveBayes {
        crate::paper_table1_model()
    }

    /// The point table Algorithm 1 derives `nb`'s envelopes over.
    fn table(nb: &NaiveBayes) -> ScoreModel {
        ScoreModel::from_proxy(&crate::ProxyScore::from_naive_bayes(nb).unwrap())
    }


    #[test]
    fn enumeration_is_exact_for_naive_bayes() {
        let nb = table1();
        let sm = table(&nb);
        for k in 0..3u16 {
            let env = derive_enumerate(&sm, nb.schema(), ClassId(k), DEFAULT_CELL_LIMIT).unwrap();
            assert!(env.exact);
            for cell in Region::full(nb.schema()).cells() {
                assert_eq!(
                    env.matches(&cell),
                    nb.predict(&cell) == ClassId(k),
                    "class {k} cell {cell:?}"
                );
            }
        }
    }

    #[test]
    fn topdown_envelope_contains_enumerated_truth() {
        // The top-down envelope may be looser than enumeration but must
        // cover everything enumeration marks as the class's.
        let nb = table1();
        let sm = table(&nb);
        for mode in [BoundMode::Basic, BoundMode::PairwiseRatio] {
            for k in 0..3u16 {
                let exact = derive_enumerate(&sm, nb.schema(), ClassId(k), DEFAULT_CELL_LIMIT).unwrap();
                let td = derive_topdown(
                    &sm,
                    nb.schema(),
                    ClassId(k),
                    &DeriveOptions { bound_mode: mode, ..Default::default() },
                );
                for cell in Region::full(nb.schema()).cells() {
                    if exact.matches(&cell) {
                        assert!(td.matches(&cell), "mode {mode:?} class {k} cell {cell:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_grids_are_refused() {
        let nb = table1();
        let sm = table(&nb);
        let err = derive_enumerate(&sm, nb.schema(), ClassId(0), 5).unwrap_err();
        assert!(matches!(err, CoreError::GridTooLarge { cells: 12, limit: 5 }));
    }
}
