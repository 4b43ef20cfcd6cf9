//! Rendering expressions and plans back to SQL-ish text (EXPLAIN).

use crate::catalog::Catalog;
use crate::expr::{Atom, AtomPred, Expr, MiningPred};
use crate::optimizer::{AccessPath, Plan};
use mpq_types::{AttrDomain, Schema};

/// Renders an expression as SQL text against the original value space.
pub fn expr_to_sql(e: &Expr, schema: &Schema, catalog: &Catalog) -> String {
    match e {
        Expr::Const(true) => "1=1".into(),
        Expr::Const(false) => "1=0".into(),
        Expr::Atom(a) => atom_to_sql(a, schema),
        Expr::And(ps) => ps
            .iter()
            .map(|p| maybe_paren(p, schema, catalog))
            .collect::<Vec<_>>()
            .join(" AND "),
        Expr::Or(ps) => ps
            .iter()
            .map(|p| maybe_paren(p, schema, catalog))
            .collect::<Vec<_>>()
            .join(" OR "),
        Expr::Not(p) => format!("NOT ({})", expr_to_sql(p, schema, catalog)),
        Expr::Mining(mp) => mining_to_sql(mp, schema, catalog),
    }
}

fn maybe_paren(e: &Expr, schema: &Schema, catalog: &Catalog) -> String {
    match e {
        Expr::And(_) | Expr::Or(_) => format!("({})", expr_to_sql(e, schema, catalog)),
        _ => expr_to_sql(e, schema, catalog),
    }
}

fn atom_to_sql(a: &Atom, schema: &Schema) -> String {
    let attr = schema.attr(a.attr);
    let name = &attr.name;
    match (&a.pred, &attr.domain) {
        (AtomPred::Eq(m), AttrDomain::Categorical { .. }) => {
            format!("{name} = '{}'", attr.domain.member_label(*m))
        }
        (AtomPred::Eq(m), AttrDomain::Binned { .. }) => range_sql(name, &attr.domain, *m, *m),
        (AtomPred::Range { lo, hi }, _) => range_sql(name, &attr.domain, *lo, *hi),
        (AtomPred::In(s), AttrDomain::Categorical { .. }) => {
            let members: Vec<String> =
                s.iter().map(|m| format!("'{}'", attr.domain.member_label(m))).collect();
            format!("{name} IN ({})", members.join(", "))
        }
        (AtomPred::In(s), AttrDomain::Binned { .. }) => {
            // Bin sets on ordered columns print as an OR of ranges.
            let parts: Vec<String> =
                s.iter().map(|m| range_sql(name, &attr.domain, m, m)).collect();
            if parts.len() == 1 {
                // Invariant-backed: guarded by the length check above.
                parts.into_iter().next().expect("one part")
            } else {
                format!("({})", parts.join(" OR "))
            }
        }
    }
}

fn range_sql(name: &str, domain: &AttrDomain, lo: u16, hi: u16) -> String {
    // Invariant-backed: range_sql is only called for Binned domains
    // (the match arms above dispatch on the domain kind).
    let (lo_bound, _) = domain.bin_interval(lo).expect("ordered");
    let (_, hi_bound) = domain.bin_interval(hi).expect("ordered");
    let mut parts = Vec::new();
    if lo_bound.is_finite() {
        parts.push(format!("{name} > {lo_bound}"));
    }
    if hi_bound.is_finite() {
        parts.push(format!("{name} <= {hi_bound}"));
    }
    if parts.is_empty() {
        "1=1".into()
    } else {
        parts.join(" AND ")
    }
}

fn mining_to_sql(mp: &MiningPred, schema: &Schema, catalog: &Catalog) -> String {
    match mp {
        MiningPred::ClassEq { model, class } => {
            let entry = catalog.model(*model);
            format!("PREDICT({}) = '{}'", entry.name, entry.model.class_name(*class))
        }
        MiningPred::ClassIn { model, classes } => {
            let entry = catalog.model(*model);
            let labels: Vec<String> =
                classes.iter().map(|c| format!("'{}'", entry.model.class_name(*c))).collect();
            format!("PREDICT({}) IN ({})", entry.name, labels.join(", "))
        }
        MiningPred::ModelsAgree { m1, m2 } => {
            format!("PREDICT({}) = PREDICT({})", catalog.model(*m1).name, catalog.model(*m2).name)
        }
        MiningPred::ClassEqColumn { model, column } => {
            format!("PREDICT({}) = {}", catalog.model(*model).name, schema.attr(*column).name)
        }
    }
}

fn seek_to_string(seek: &crate::optimizer::Seek, schema: &Schema, catalog: &Catalog, table_id: usize) -> String {
    let entry = catalog.table(table_id);
    let ix = &entry.indexes[seek.index];
    let cols: Vec<&str> =
        ix.columns().iter().map(|c| schema.attr(*c).name.as_str()).collect();
    let preds: Vec<String> = seek
        .preds
        .iter()
        .map(|(attr, pred)| atom_to_sql(&Atom { attr: *attr, pred: pred.clone() }, schema))
        .collect();
    format!("({}) [{}]", cols.join(","), preds.join(" AND "))
}

/// Renders a plan as a compact EXPLAIN block.
pub fn plan_to_string(plan: &Plan, schema: &Schema, catalog: &Catalog) -> String {
    let table = catalog.table(plan.table).table.name();
    let access = match &plan.access {
        AccessPath::FullScan => format!("Full Scan on {table}"),
        AccessPath::ConstantScan => "Constant Scan (predicate is unsatisfiable)".to_string(),
        AccessPath::IndexSeek(seek) => {
            format!("Index Seek on {table} {}", seek_to_string(seek, schema, catalog, plan.table))
        }
        AccessPath::IndexUnion(seeks) => {
            let parts: Vec<String> = seeks
                .iter()
                .map(|s| seek_to_string(s, schema, catalog, plan.table))
                .collect();
            format!("Index Union on {table} ({} seeks: {})", seeks.len(), parts.join(" | "))
        }
    };
    let mut text = format!(
        "{access}\n  est. cost: {:.2} pages, est. selectivity: {:.4}%\n  residual: {}",
        plan.est_cost,
        plan.est_selectivity * 100.0,
        expr_to_sql(&plan.residual, schema, catalog)
    );
    if plan.est_pages_skipped > 0 {
        text.push_str(&format!(
            "\n  zone maps: ~{} pages provably empty, skipped",
            plan.est_pages_skipped
        ));
    }
    if !plan.compiled_exact.is_empty() {
        let names: Vec<&str> =
            plan.compiled_exact.iter().map(|m| catalog.model(*m).name.as_str()).collect();
        text.push_str(&format!("\n  compiled: exact ({})", names.join(", ")));
    }
    for m in &plan.cascades {
        text.push_str(&format!("\n  cascade: model '{}'", catalog.model(*m).name));
    }
    for m in &plan.degraded_models {
        let entry = catalog.model(*m);
        let reason = entry.degraded.as_deref().unwrap_or("unknown");
        text.push_str(&format!(
            "\n  degraded: model '{}' envelope unavailable ({reason}); residual-only evaluation",
            entry.name
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use mpq_core::{paper_table1_model, DeriveOptions};
    use mpq_types::{AttrId, Attribute, ClassId, Dataset, MemberSet, Schema};
    use std::sync::Arc;

    fn setup() -> (Catalog, Schema) {
        let schema = Schema::new(vec![
            Attribute::new("age", AttrDomain::binned(vec![30.0, 63.0]).unwrap()),
            Attribute::new("color", AttrDomain::categorical(["red", "green"])),
        ])
        .unwrap();
        let ds = Dataset::from_rows(schema.clone(), vec![vec![0, 0]]).unwrap();
        let mut cat = Catalog::new();
        cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        cat.add_model("m", Arc::new(paper_table1_model()), DeriveOptions::default()).unwrap();
        (cat, schema)
    }

    #[test]
    fn atoms_render_in_value_space() {
        let (cat, schema) = setup();
        let e = Expr::and(vec![
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 2 } }),
            Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(1) }),
        ]);
        assert_eq!(expr_to_sql(&e, &schema, &cat), "age > 30 AND color = 'green'");
    }

    #[test]
    fn mining_predicates_render() {
        let (cat, schema) = setup();
        let e = Expr::Mining(MiningPred::ClassEq { model: 0, class: ClassId(1) });
        assert_eq!(expr_to_sql(&e, &schema, &cat), "PREDICT(m) = 'c2'");
        let e = Expr::Mining(MiningPred::ClassIn { model: 0, classes: vec![ClassId(0), ClassId(2)] });
        assert_eq!(expr_to_sql(&e, &schema, &cat), "PREDICT(m) IN ('c1', 'c3')");
    }

    #[test]
    fn nested_structure_parenthesizes() {
        let (cat, schema) = setup();
        let e = Expr::or(vec![
            Expr::and(vec![
                Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 0, hi: 0 } }),
                Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(0) }),
            ]),
            Expr::Not(Box::new(Expr::Atom(Atom {
                attr: AttrId(1),
                pred: AtomPred::In(MemberSet::of(2, [0])),
            }))),
        ]);
        let s = expr_to_sql(&e, &schema, &cat);
        assert_eq!(s, "(age <= 30 AND color = 'red') OR NOT (color IN ('red'))");
    }

    #[test]
    fn constants_render() {
        let (cat, schema) = setup();
        assert_eq!(expr_to_sql(&Expr::Const(true), &schema, &cat), "1=1");
        assert_eq!(expr_to_sql(&Expr::Const(false), &schema, &cat), "1=0");
    }
}
