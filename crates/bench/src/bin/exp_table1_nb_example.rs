//! Reproduces the paper's **Table 1** (the worked naive-Bayes example)
//! and the **Figure 2** derivation trace for class `c1`.

use mpq_core::{
    derive_topdown, envelope_to_sql, format_region, paper_table1_model, paper_table1_winners,
    BoundMode, DeriveOptions, ProxyScore, Region, ScoreModel, TraceStep,
};
use mpq_models::Classifier as _;
use mpq_types::ClassId;

fn main() {
    let nb = paper_table1_model();
    let schema = nb.schema();
    let sm = ScoreModel::from_proxy(&ProxyScore::from_naive_bayes(&nb).expect("finite table"));

    println!("== Table 1: naive Bayes example (K=3, d0 has 4 members, d1 has 3) ==\n");
    println!("priors: p(c1)=0.33  p(c2)=0.50  p(c3)=0.17\n");
    print!("{:8}", "");
    for m0 in 0..4 {
        print!("{:>24}", format!("m{m0}0"));
    }
    println!();
    for m1 in 0..3u16 {
        print!("{:8}", format!("m{m1}1"));
        for m0 in 0..4u16 {
            let scores: Vec<String> = (0..3)
                .map(|k| sm.position(ClassId(k)))
                .map(|p| format!("{:.4}", sm.cell_score_lo(&[m0, m1], p).exp()))
                .collect();
            let winner = nb.predict(&[m0, m1]);
            print!("{:>24}", format!("{} ({})", scores.join("/"), nb.class_name(winner)));
        }
        println!();
    }

    // Check against the winners printed in the paper.
    let expected = paper_table1_winners();
    let mut all_match = true;
    for (m0, row) in expected.iter().enumerate() {
        for (m1, &want) in row.iter().enumerate() {
            if nb.predict(&[m0 as u16, m1 as u16]) != ClassId(want) {
                all_match = false;
            }
        }
    }
    println!("\ncell winners match the paper's Table 1: {all_match}");

    println!("\n== Figure 2: top-down derivation trace for class c1 (Basic bounds) ==\n");
    let opts = DeriveOptions { bound_mode: BoundMode::Basic, trace: true, ..Default::default() };
    let env = derive_topdown(&sm, schema, ClassId(0), &opts);
    for step in &env.trace {
        match step {
            TraceStep::Evaluated { region, bounds, status } => {
                let min: Vec<String> = bounds.iter().map(|(lo, _)| format!("{:.4}", lo.exp())).collect();
                let max: Vec<String> = bounds.iter().map(|(_, hi)| format!("{:.4}", hi.exp())).collect();
                println!("region {region}");
                println!("  minProb: {}", min.join(", "));
                println!("  maxProb: {}", max.join(", "));
                println!("  status:  {status:?}");
            }
            TraceStep::Shrunk { dim, member } => {
                println!("  shrink: removed member {member} of d{dim} (MUST-LOSE slice)");
            }
            TraceStep::Split { dim, children } => {
                println!("  split along d{dim}: {} | {}", children.0, children.1);
            }
        }
    }

    println!("\n== Derived envelopes ==\n");
    for k in 0..3u16 {
        let env = derive_topdown(&sm, schema, ClassId(k), &DeriveOptions::default());
        let regions: Vec<String> =
            env.regions.iter().map(|r| format_region(schema, r)).collect();
        println!(
            "class {}: {} (exact: {})\n  SQL: WHERE {}",
            nb.class_name(ClassId(k)),
            regions.join(" OR "),
            env.exact,
            envelope_to_sql(schema, &env)
        );
    }

    // The paper works c1 by hand: (d0:[2..3], d1:[0..1]) ∨ (d1:[0..0]) in
    // its own indexing; with 0-based members and the corrected table it
    // is exactly d0 ∈ {m0,m1} ∧ d1 ∈ {m1,m2}.
    let env1 = derive_topdown(&sm, schema, ClassId(0), &DeriveOptions::default());
    let truth: Vec<Vec<u16>> =
        Region::full(schema).cells().filter(|c| nb.predict(c) == ClassId(0)).collect();
    let covered = truth.iter().all(|c| env1.matches(c));
    println!("\nc1 envelope covers exactly its cells: {}", covered && env1.exact);
}
