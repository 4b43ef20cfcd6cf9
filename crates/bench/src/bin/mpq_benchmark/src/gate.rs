//! The correctness gate: before anything is timed, every distinct
//! statement must return the same rows from the reference configuration
//! (no envelopes, no model compilation, row-at-a-time interpreter,
//! serial), from the production path in-process, and from the
//! production path over the wire. The row counts it establishes are
//! what every timed response is checked against.

use crate::gen::Inputs;
use crate::system::{self, Spec, System};
use mpq_engine::{execute_opts, parse, Engine, ExecOptions, QueryGuard, RowId, SessionState};

/// Rows of `sql` under the reference configuration. The engine's
/// optimizer switches are engine-wide, so the caller brackets a batch
/// of these with [`set_reference`].
fn reference_rows(engine: &Engine, sql: &str) -> Result<Vec<RowId>, String> {
    let parsed = {
        let catalog = engine.catalog();
        parse(sql, &catalog).map_err(|e| format!("{sql}: {e}"))?
    };
    let plan = engine.plan_predicate(parsed.table, parsed.predicate);
    let catalog = engine.catalog();
    let opts = ExecOptions {
        vectorized: false,
        adaptive: false,
        ..ExecOptions::default()
    };
    execute_opts(&plan, &catalog, QueryGuard::unlimited(), &opts)
        .map(|r| r.rows)
        .map_err(|e| format!("{sql}: reference execution: {e}"))
}

fn set_reference(engine: &Engine, on: bool) {
    engine.set_use_envelopes(!on);
    engine.set_compile_models(!on);
}

/// Compares one statement's three row sets; the error names the first
/// difference.
pub fn check_statement(
    sql: &str,
    reference: &[RowId],
    in_process: &[RowId],
    wire: &[RowId],
) -> Result<usize, String> {
    for (path, rows) in [("in-process", in_process), ("over the wire", wire)] {
        if rows != reference {
            let at = rows.iter().zip(reference).position(|(a, b)| a != b);
            return Err(format!(
                "correctness gate: {path} returned {} rows, reference {} (first difference at \
                 position {:?}) for: {sql}",
                rows.len(),
                reference.len(),
                at.unwrap_or(rows.len().min(reference.len()))
            ));
        }
    }
    Ok(reference.len())
}

/// Runs the gate over the workload's statement pool and returns each
/// statement's expected row count.
pub fn run(system: &System, spec: &Spec, inputs: &Inputs) -> Result<Vec<usize>, String> {
    let engine = &system.engine;
    set_reference(engine, true);
    let reference: Result<Vec<Vec<RowId>>, String> = inputs
        .pool
        .iter()
        .map(|sql| reference_rows(engine, sql))
        .collect();
    set_reference(engine, false);
    let reference = reference?;

    let mut session = SessionState::new();
    session.set_parallelism(spec.dop);
    let mut client = system::connect(system.addr, spec.dop)?;
    let mut expected = Vec::with_capacity(inputs.pool.len());
    for (sql, reference) in inputs.pool.iter().zip(&reference) {
        let in_process = engine
            .query_in(sql, &session)
            .map_err(|e| format!("{sql}: {e}"))?;
        let wire = client
            .query(sql)
            .map_err(|e| format!("{sql}: over the wire: {e}"))?;
        expected.push(check_statement(
            sql,
            reference,
            &in_process.rows,
            &wire.rows,
        )?);
    }
    client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_row_sets_pass_and_give_the_count() {
        assert_eq!(
            check_statement("q", &[1, 5, 9], &[1, 5, 9], &[1, 5, 9]),
            Ok(3)
        );
        assert_eq!(check_statement("q", &[], &[], &[]), Ok(0));
    }

    #[test]
    fn any_divergence_trips_the_gate() {
        let reference = [1, 5, 9];
        assert!(check_statement("q", &reference, &[1, 5], &reference).is_err());
        assert!(check_statement("q", &reference, &reference, &[1, 6, 9]).is_err());
        let err = check_statement("q", &reference, &[1, 5, 9, 12], &reference).unwrap_err();
        assert!(
            err.contains("in-process") && err.contains("4 rows"),
            "{err}"
        );
    }
}
