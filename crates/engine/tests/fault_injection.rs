//! Fault-injection suite: every injected fault must surface as a typed
//! error or as a sound fallback whose row set equals the unoptimized
//! full-scan + residual plan. A panic must never escape `Engine::query`
//! or `Engine::execute_sql`, and the engine must stay usable afterwards.

use mpq_core::{paper_table1_model, DeriveOptions};
use mpq_engine::{
    choose_plan, execute_opts, AccessPath, Atom, AtomPred, Catalog, Engine, EngineError,
    ExecOptions, Expr, GuardResource, MiningPred, OptimizerOptions, QueryGuard, StatementOutcome,
    Table,
};
use mpq_models::Classifier as _;
use mpq_types::{AttrDomain, AttrId, Attribute, ClassId, Dataset, Schema};
use std::sync::Arc;
use std::time::Duration;

/// Engine with the paper's Table-1 naive-Bayes model over a skewed table
/// with single-column indexes — selective classes get index plans.
fn engine() -> Engine {
    let nb = paper_table1_model();
    let schema = nb.schema().clone();
    let mut ds = Dataset::new(schema);
    for m0 in 0..4u16 {
        for m1 in 0..3u16 {
            let copies = 1 + (m0 as usize * 3 + m1 as usize) * 7;
            for _ in 0..copies {
                ds.push_encoded(&[m0, m1]).unwrap();
            }
        }
    }
    let mut cat = Catalog::new();
    let t = cat.add_table(Table::from_dataset("t", &ds)).unwrap();
    cat.create_index(t, &[AttrId(0)]);
    cat.create_index(t, &[AttrId(1)]);
    cat.add_model("m", Arc::new(nb), DeriveOptions::default()).unwrap();
    Engine::new(cat)
}

/// Engine with a training table for `CREATE MINING MODEL` DDL.
fn ddl_engine() -> Engine {
    let schema = Schema::new(vec![
        Attribute::new("x", AttrDomain::binned(vec![5.0]).unwrap()),
        Attribute::new("f", AttrDomain::categorical(["a", "b"])),
        Attribute::new("outcome", AttrDomain::categorical(["lo", "hi"])),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for i in 0..400u16 {
        let x = i % 2;
        let f = (i / 2) % 2;
        let y = u16::from(x == 1 && f == 1);
        ds.push_encoded(&[x, f, y]).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add_table(Table::from_dataset("t", &ds)).unwrap();
    Engine::new(cat)
}

/// Row set of the unoptimized black-box plan (envelopes off).
fn baseline_rows(e: &mut Engine, sql: &str) -> Vec<u32> {
    let was_on = e.options().use_envelopes;
    e.set_use_envelopes(false);
    let rows = e.query(sql).expect("baseline plan must run").rows;
    e.set_use_envelopes(was_on);
    rows
}

#[test]
fn scorer_panic_becomes_typed_internal_error() {
    let e = engine();
    let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c1'";
    let healthy = e.query(sql).unwrap().rows;

    e.fault_injector().set_scorer_panic(true);
    match e.query(sql) {
        Err(EngineError::Internal { detail }) => {
            assert!(detail.contains("injected fault"), "detail: {detail}");
            assert!(detail.contains("scorer panicked"), "detail: {detail}");
        }
        other => panic!("expected Internal error, got {other:?}"),
    }

    // The engine must remain usable once the fault clears.
    e.fault_injector().reset();
    assert_eq!(e.query(sql).unwrap().rows, healthy);
}

#[test]
fn scorer_nan_becomes_typed_internal_error() {
    let e = engine();
    let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c2'";
    e.fault_injector().set_scorer_nan(true);
    match e.query(sql) {
        Err(EngineError::Internal { detail }) => {
            assert!(detail.contains("NaN"), "detail: {detail}");
        }
        other => panic!("expected Internal error, got {other:?}"),
    }
    e.fault_injector().reset();
    assert!(e.query(sql).is_ok());
}

#[test]
fn index_failure_falls_back_to_equivalent_scan() {
    let mut e = engine();
    for label in ["c1", "c2", "c3"] {
        let sql = format!("SELECT * FROM t WHERE PREDICT(m) = '{label}'");
        let expected = baseline_rows(&mut e, &sql);

        e.fault_injector().set_index_probe_failure(true);
        let out = e.query(&sql).expect("fallback must not error");
        e.fault_injector().reset();

        assert_eq!(out.rows, expected, "fallback row set must equal full scan for {label}");
    }
}

#[test]
fn derivation_timeout_degrades_create_model_visibly() {
    let e = ddl_engine();
    e.fault_injector().set_derive_timeout(true);

    let out = e
        .execute_sql("CREATE MINING MODEL risk ON t PREDICT outcome USING decision_tree")
        .expect("CREATE MINING MODEL must survive derivation failure");
    let StatementOutcome::ModelCreated { model, degraded, .. } = out else {
        panic!("expected ModelCreated");
    };
    let reason = degraded.expect("derivation failure must be reported");
    assert!(reason.contains("time budget"), "reason: {reason}");
    e.fault_injector().reset();

    // EXPLAIN surfaces the degradation.
    let plan = e.query("EXPLAIN SELECT * FROM t WHERE PREDICT(risk) = 'hi'").unwrap().plan;
    assert!(plan.contains("degraded"), "plan text: {plan}");
    assert!(plan.contains("risk"), "plan text: {plan}");

    // health() reports it too.
    let health = e.health();
    assert!(!health.all_healthy());
    let mh = &health.models[model];
    assert_eq!(mh.name, "risk");
    assert!(mh.degraded.is_some());
    assert!(health.to_string().contains("DEGRADED"));

    // Degraded queries are still exact: the deterministic concept means
    // PREDICT agrees with the stored label.
    let q = e.query("SELECT * FROM t WHERE PREDICT(risk) = 'hi'").unwrap();
    let stored = e.query("SELECT * FROM t WHERE outcome = 'hi'").unwrap();
    assert_eq!(q.rows, stored.rows);

    // Retraining with a (generous) budget clears the flag.
    let trained = e.catalog().model(model).model.clone();
    let opts = DeriveOptions {
        time_budget: Some(Duration::from_secs(3600)),
        ..DeriveOptions::default()
    };
    e.retrain_model_with(model, trained, opts).unwrap();
    assert!(e.health().all_healthy(), "successful retrain must clear degradation");
    let plan = e.query("EXPLAIN SELECT * FROM t WHERE PREDICT(risk) = 'hi'").unwrap().plan;
    assert!(!plan.contains("degraded"), "plan text: {plan}");
}

#[test]
fn grid_too_large_fault_degrades_registration() {
    let mut e = engine(); // already has healthy model "m"
    e.fault_injector().set_derive_grid_too_large(true);
    let id = e
        .register_model("m2", Arc::new(paper_table1_model()), DeriveOptions::default())
        .expect("registration must survive grid failure");
    e.fault_injector().reset();

    let reason =
        e.catalog().model(id).degraded.clone().expect("grid fault must degrade");
    assert!(reason.contains("grid"), "reason: {reason}");

    // The degraded model still answers exactly.
    for label in ["c1", "c2", "c3"] {
        let sql = format!("SELECT * FROM t WHERE PREDICT(m2) = '{label}'");
        let expected = baseline_rows(&mut e, &sql);
        assert_eq!(e.query(&sql).unwrap().rows, expected, "label {label}");
    }
}

#[test]
fn morsel_targeted_scorer_panic_only_hits_parallel_workers() {
    let e = engine();
    e.set_use_envelopes(false); // full scan → the residual runs per morsel
    let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c1'";
    let healthy = e.query(sql).unwrap().rows;

    e.fault_injector().set_scorer_panic_on_morsel(Some(1));

    // The serial executor has no morsels: the targeted fault never fires.
    e.set_parallelism(1);
    assert_eq!(e.query(sql).unwrap().rows, healthy);

    // The worker that picks up morsel 1 panics; the panic surfaces as a
    // typed error naming the morsel — not a poisoned lock or an abort.
    e.set_parallelism(4);
    match e.query(sql) {
        Err(EngineError::Internal { detail }) => {
            assert!(detail.contains("injected fault"), "detail: {detail}");
            assert!(detail.contains("morsel 1"), "detail: {detail}");
        }
        other => panic!("expected Internal error, got {other:?}"),
    }

    // The engine stays usable once the fault clears — still parallel.
    e.fault_injector().reset();
    assert_eq!(e.query(sql).unwrap().rows, healthy);
}

/// Like [`engine`] but with 256-byte pages, so the table spans many
/// heap pages and page-targeted faults have real targets.
fn paged_engine() -> Engine {
    let nb = paper_table1_model();
    let schema = nb.schema().clone();
    let mut ds = Dataset::new(schema);
    for m0 in 0..4u16 {
        for m1 in 0..3u16 {
            let copies = 1 + (m0 as usize * 3 + m1 as usize) * 7;
            for _ in 0..copies {
                ds.push_encoded(&[m0, m1]).unwrap();
            }
        }
    }
    let mut cat = Catalog::new();
    let t = cat.add_table(Table::with_page_bytes("t", &ds, 256)).unwrap();
    cat.create_index(t, &[AttrId(0)]);
    cat.create_index(t, &[AttrId(1)]);
    cat.add_model("m", Arc::new(nb), DeriveOptions::default()).unwrap();
    Engine::new(cat)
}

/// Fault parity across execution strategies: a page-targeted scorer
/// panic must fire on the same page — with the same message — whether
/// the residual runs through the production pipeline (at any degree of
/// parallelism) or the serial row-at-a-time reference.
#[test]
fn page_targeted_scorer_panic_fires_identically_across_strategies() {
    let e = paged_engine();
    e.set_use_envelopes(false); // full scan + black-box residual
    let plan =
        e.plan_predicate(0, Expr::Mining(MiningPred::ClassEq { model: 0, class: ClassId(0) }));
    let catalog = e.catalog();
    assert!(catalog.table(0).table.n_pages() > 3, "fixture must span pages");

    let reference = ExecOptions { vectorized: false, ..ExecOptions::default() };
    let healthy: Vec<_> = [ExecOptions::default(), reference]
        .into_iter()
        .map(|opts| {
            execute_opts(&plan, &catalog, QueryGuard::unlimited(), &opts)
                .expect("healthy run")
                .rows
        })
        .collect();
    assert_eq!(healthy[0], healthy[1]);

    e.fault_injector().set_scorer_panic_on_page(Some(2));
    // The reference interpreter propagates the raw panic (the engine
    // facade is what would catch it).
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = execute_opts(&plan, &catalog, QueryGuard::unlimited(), &reference);
    }))
    .expect_err("armed page fault must panic");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("injected fault") && msg.contains("heap page 2"), "reference: {msg}");
    // The pipeline catches the same panic and surfaces it typed, on the
    // calling thread (dop 1) exactly as in scoped workers.
    for dop in [1, 4] {
        let opts = ExecOptions::with_parallelism(dop);
        match execute_opts(&plan, &catalog, QueryGuard::unlimited(), &opts) {
            Err(EngineError::Internal { detail }) => {
                assert!(
                    detail.contains("injected fault") && detail.contains("heap page 2"),
                    "dop {dop}: {detail}"
                );
            }
            other => panic!("dop {dop}: expected Internal, got {other:?}"),
        }
    }

    // The engine facade passes the same typed error through, and stays
    // usable once the fault clears.
    let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c1'";
    match e.query(sql) {
        Err(EngineError::Internal { detail }) => {
            assert!(detail.contains("heap page 2"), "detail: {detail}");
        }
        other => panic!("expected Internal error, got {other:?}"),
    }
    e.fault_injector().reset();
    assert!(e.query(sql).is_ok());
}

/// An index-probe fault must degrade to the identical zone-pruned full
/// scan under both execution strategies: same rows, same fallback flag,
/// same heap/skip page accounting.
#[test]
fn index_fault_fallback_is_identical_across_strategies() {
    // A table big enough that the cost model sees many pages, with a
    // 0.1%-rare member 0 of attr 0: an index seek wins decisively.
    let schema = Schema::new(vec![
        Attribute::new("d0", AttrDomain::categorical(["m0", "m1", "m2", "m3"])),
        Attribute::new("d1", AttrDomain::categorical(["n0", "n1", "n2"])),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema.clone());
    for i in 0..20_000u32 {
        let m0 = if i % 1000 == 0 { 0 } else { 1 + (i % 3) as u16 };
        ds.push_encoded(&[m0, (i % 3) as u16]).unwrap();
    }
    let mut cat = Catalog::new();
    let t = cat.add_table(Table::with_page_bytes("t", &ds, 256)).unwrap();
    cat.create_index(t, &[AttrId(0)]);
    let e = Engine::new(cat);
    let catalog = e.catalog();
    // Build the plan with zone-map costing off so the access-path
    // choice is the index seek — the *fallback* scan still prunes via
    // zone maps, which both strategies must account identically.
    let no_zone = OptimizerOptions { use_zone_maps: false, ..OptimizerOptions::default() };
    let plan = choose_plan(
        Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Eq(0) }),
        0,
        &schema,
        &catalog,
        &no_zone,
    );
    assert!(
        matches!(plan.access, AccessPath::IndexSeek(_)),
        "fixture must yield an index seek, got {:?}",
        plan.access
    );

    e.fault_injector().set_index_probe_failure(true);
    let runs: Vec<_> = [true, false]
        .into_iter()
        .map(|v| {
            let opts = ExecOptions { vectorized: v, ..ExecOptions::default() };
            execute_opts(&plan, &catalog, QueryGuard::unlimited(), &opts)
                .expect("fallback must not error")
        })
        .collect();
    e.fault_injector().reset();

    let (vec_run, ref_run) = (&runs[0], &runs[1]);
    assert_eq!(vec_run.rows, ref_run.rows, "fallback row sets diverged");
    assert!(vec_run.metrics.index_fallback && ref_run.metrics.index_fallback);
    assert_eq!(vec_run.metrics.heap_pages_read, ref_run.metrics.heap_pages_read);
    assert_eq!(vec_run.metrics.pages_skipped, ref_run.metrics.pages_skipped);
    assert!(
        vec_run.metrics.pages_skipped > 0,
        "clustered member 0 must let the fallback scan prune pages"
    );
    assert_eq!(vec_run.metrics.rows_examined, ref_run.metrics.rows_examined);
    assert_eq!(vec_run.metrics.model_invocations, ref_run.metrics.model_invocations);
}

#[test]
fn guard_trips_each_resource_with_typed_error() {
    let trip = |guard: QueryGuard, sql: &str, envelopes: bool| -> EngineError {
        let e = engine();
        e.set_use_envelopes(envelopes);
        // The proxy cascade would satisfy most rows without a real
        // invocation; this test is about budget enforcement, so pin
        // the classic one-invocation-per-row path.
        e.set_compile_models(false);
        e.set_guard(guard);
        e.query(sql).expect_err("guard must trip")
    };
    let resource = |err: EngineError| match err {
        EngineError::BudgetExceeded { resource, spent, limit } => {
            // Wall-clock spent/limit are reported in whole milliseconds,
            // so a zero deadline can legitimately report spent == limit.
            assert!(spent >= limit, "breach must report spent {spent} >= limit {limit}");
            resource
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    };

    let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c1'";
    // Full scan (envelopes off) examines every row.
    let err = trip(QueryGuard::default().with_max_rows_examined(5), sql, false);
    assert_eq!(resource(err), GuardResource::RowsExamined);

    // Every examined row invokes the model once.
    let err = trip(QueryGuard::default().with_max_model_invocations(5), sql, false);
    assert_eq!(resource(err), GuardResource::ModelInvocations);

    // A zero-page budget trips on the first heap page.
    let err = trip(QueryGuard::default().with_max_pages(0), sql, false);
    assert_eq!(resource(err), GuardResource::PagesRead);

    // A zero deadline trips on wall clock.
    let err = trip(QueryGuard::default().with_deadline(Duration::ZERO), sql, false);
    assert_eq!(resource(err), GuardResource::WallClock);
}

/// A perturbed proxy table must never change a row set: the always-on
/// verification against a fresh rebuild catches the corruption, the
/// engine degrades to the sound envelope+residual scorer path, and the
/// disablement is visible as a typed health note. Clearing the fault
/// restores the cascade and clears the note.
#[test]
fn cascade_table_fault_degrades_to_sound_scorer_path() {
    let e = engine();
    e.set_use_envelopes(false); // full scan → every row reaches the scorer
    let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c1'";
    let healthy = e.query(sql).unwrap();
    let m = &healthy.metrics;
    assert!(m.cascade_accepts + m.cascade_rejects > 0, "fixture must exercise the cascade");

    e.fault_injector().set_cascade_table_perturb(true);
    let degraded = e.query(sql).unwrap();
    // Never a wrong row set.
    assert_eq!(degraded.rows, healthy.rows, "degradation must keep the row set sound");
    // The perturbed table fails verification, so no cascade decisions
    // are made at all — every row goes to the real scorer.
    assert_eq!(degraded.metrics.cascade_accepts, 0);
    assert_eq!(degraded.metrics.cascade_rejects, 0);
    assert_eq!(
        degraded.metrics.model_invocations, degraded.metrics.rows_examined,
        "fallback path must score every examined row"
    );
    // The disablement is a typed health note, not a silent downgrade.
    let health = e.health();
    let note = health.models[0].cascade_note.as_deref().expect("health must carry the note");
    assert!(note.contains("failed verification"), "note: {note}");
    assert!(health.to_string().contains(note), "display must surface the note");

    // Clearing the fault restores the cascade and clears the note.
    e.fault_injector().reset();
    let recovered = e.query(sql).unwrap();
    assert_eq!(recovered.rows, healthy.rows);
    let rm = &recovered.metrics;
    assert!(rm.cascade_accepts + rm.cascade_rejects > 0);
    assert_eq!(rm.model_invocations, 0, "a restored cascade scores no row");
    assert_eq!(e.health().models[0].cascade_note, None, "recovery must clear the note");
}

#[test]
fn guard_headroom_recorded_and_generous_guard_passes() {
    let e = engine();
    e.set_guard(
        QueryGuard::default()
            .with_max_rows_examined(1_000_000)
            .with_deadline(Duration::from_secs(60)),
    );
    let sql = "SELECT * FROM t WHERE PREDICT(m) = 'c1'";
    let out = e.query(sql).unwrap();
    let rows_left = out.metrics.guard.rows_remaining.expect("budget configured");
    assert_eq!(rows_left, 1_000_000 - out.metrics.rows_examined);
    assert!(out.metrics.guard.time_remaining_ms.is_some());
    assert_eq!(out.metrics.guard.pages_remaining, None, "pages were unlimited");
}

#[test]
fn budget_breach_returns_no_partial_rows() {
    let e = engine();
    e.set_guard(QueryGuard::default().with_max_rows_examined(5));
    e.set_use_envelopes(false);
    // A breach is an Err; QueryOutcome (and thus any row set) is never
    // produced — the typed error is the entire result.
    let res = e.query("SELECT * FROM t WHERE PREDICT(m) = 'c1'");
    assert!(matches!(res, Err(EngineError::BudgetExceeded { .. })));
    // Raising the guard re-runs cleanly.
    e.set_guard(QueryGuard::unlimited());
    assert!(!e.query("SELECT * FROM t WHERE PREDICT(m) = 'c1'").unwrap().rows.is_empty());
}
