//! The top-down envelope derivation — the paper's Algorithm 1.
//!
//! Starting from the full grid, regions are classified MUST-WIN /
//! MUST-LOSE / AMBIGUOUS from efficiently computable score bounds;
//! ambiguous regions are *shrunk* (members whose pinned slice must lose
//! are dropped — only from the two ends on ordered dimensions, keeping
//! ranges contiguous) and then *split* at the entropy-minimizing
//! boundary, recursively, until every region is decided or the expansion
//! budget (the paper's threshold `t`) runs out. Surviving regions are
//! merged bottom-up into the final disjunction.
//!
//! Complexity: `O(t · n · m · K)` per class, versus `K · Π n_d` for the
//! naive enumeration (§3.2.2).

use crate::envelope::{DeriveOptions, DeriveStats, Envelope, TraceStep};
use crate::error::CoreError;
use crate::region::{DimSet, Region};
use crate::score_model::{RegionStatus, ScoreModel};
use mpq_types::{ClassId, MemberSet, Schema};

/// Derives the upper envelope of `class` from a score model using the
/// top-down bound-and-split algorithm, in the model's class positions.
///
/// Infallible surface: if `opts.time_budget` is set and exceeded, the
/// result degrades to the trivial `TRUE` envelope (sound, no pruning
/// power). Callers that need to *observe* the timeout should use
/// [`try_derive_topdown`].
pub fn derive_topdown(
    model: &ScoreModel,
    schema: &Schema,
    class: ClassId,
    opts: &DeriveOptions,
) -> Envelope {
    try_derive_topdown(model, schema, class, opts)
        .unwrap_or_else(|_| Envelope::trivial(class, schema))
}

/// Fallible top-down derivation: returns
/// [`CoreError::DeriveTimeout`] when `opts.time_budget` is exceeded
/// (checked cooperatively at every region expansion), instead of
/// silently degrading like [`derive_topdown`].
pub fn try_derive_topdown(
    model: &ScoreModel,
    schema: &Schema,
    class: ClassId,
    opts: &DeriveOptions,
) -> Result<Envelope, CoreError> {
    let started = std::time::Instant::now();
    let k = model.position(class);
    let mut stats = DeriveStats::default();
    let mut trace = Vec::new();
    let mut kept: Vec<Region> = Vec::new();
    let mut all_exact = true;

    // Best-first: expand the largest ambiguous region next, so a bounded
    // budget shaves volume where it matters most (a depth-first order
    // would leave entire untouched siblings behind when the budget runs
    // out).
    let mut queue = std::collections::BinaryHeap::new();
    let mut tiebreak = 0u64; // FIFO among equal-cardinality regions
    queue.push(Prio { size: Region::full(schema).cardinality(), order: u64::MAX, region: Region::full(schema) });
    while let Some(Prio { region, .. }) = queue.pop() {
        // Cooperative wall-clock check, once per popped region: the
        // per-region work (bounding, shrinking, splitting) is small and
        // bounded, so this is the natural preemption granularity.
        if let Some(budget) = opts.time_budget {
            if started.elapsed() >= budget {
                return Err(CoreError::DeriveTimeout { budget });
            }
        }
        let status = model.region_status(&region, k, opts.bound_mode);
        if opts.trace {
            trace.push(evaluated_step(model, schema, &region, status));
        }
        match status {
            RegionStatus::MustWin => kept.push(region),
            RegionStatus::MustLose => {}
            RegionStatus::Ambiguous => {
                if stats.expansions >= opts.max_expansions {
                    // Budget exhausted: no more splits, but shrinking is
                    // cheap (linear) and sound — tighten what we keep.
                    stats.thresholded_regions += 1;
                    all_exact = false;
                    if let Some(region) =
                        shrink(model, &region, k, opts, &mut stats, &mut trace)
                    {
                        kept.push(region);
                    }
                    continue;
                }
                stats.expansions += 1;
                // Shrink, re-check, then split.
                let Some(region) = shrink(model, &region, k, opts, &mut stats, &mut trace)
                else {
                    continue; // shrunk to empty: nothing of class k here
                };
                let status = model.region_status(&region, k, opts.bound_mode);
                match status {
                    RegionStatus::MustWin => {
                        kept.push(region);
                        continue;
                    }
                    RegionStatus::MustLose => continue,
                    RegionStatus::Ambiguous => {}
                }
                let chosen_split = match opts.split_heuristic {
                    crate::envelope::SplitHeuristic::Entropy => {
                        split(model, schema, &region, k)
                    }
                    crate::envelope::SplitHeuristic::RivalGap => {
                        split_rival_gap(model, schema, &region, k)
                            .or_else(|| split(model, schema, &region, k))
                    }
                };
                match chosen_split {
                    Some((a, b)) => {
                        if opts.trace {
                            let d = differing_dim(&a, &b);
                            trace.push(TraceStep::Split {
                                dim: d,
                                children: (format_region(schema, &a), format_region(schema, &b)),
                            });
                        }
                        tiebreak += 1;
                        queue.push(Prio { size: b.cardinality(), order: u64::MAX - tiebreak, region: b });
                        tiebreak += 1;
                        queue.push(Prio { size: a.cardinality(), order: u64::MAX - tiebreak, region: a });
                    }
                    None => {
                        // An ambiguous single cell: only an interval table
                        // leaves one (the kernel decides a point table's
                        // cells), so keep it, inexactly.
                        all_exact = false;
                        kept.push(region);
                    }
                }
            }
        }
    }

    // Bottom-up merge sweep: repeatedly merge any pair differing in one
    // dimension with a representable union.
    merge_regions(&mut kept, &mut stats);

    let mut env = Envelope { class, regions: kept, exact: all_exact, stats, trace };
    env.cap_disjuncts(opts.max_disjuncts, schema);
    Ok(env)
}

/// Priority-queue entry: largest region first, then insertion order.
struct Prio {
    size: u64,
    order: u64,
    region: Region,
}

impl PartialEq for Prio {
    fn eq(&self, other: &Self) -> bool {
        self.size == other.size && self.order == other.order
    }
}
impl Eq for Prio {}
impl PartialOrd for Prio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Prio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.size.cmp(&other.size).then(self.order.cmp(&other.order))
    }
}

fn evaluated_step(
    model: &ScoreModel,
    schema: &Schema,
    region: &Region,
    status: RegionStatus,
) -> TraceStep {
    let bounds = by_class(model)
        .map(|j| (model.region_score_min(region, j), model.region_score_max(region, j)))
        .collect();
    TraceStep::Evaluated { region: format_region(schema, region), bounds, status }
}

/// The model's positions in class-id order: what the trace reports in,
/// and the order the split heuristics accumulate and break ties in.
fn by_class(model: &ScoreModel) -> impl Iterator<Item = usize> + '_ {
    (0..model.n_classes() as u16).map(|c| model.position(ClassId(c)))
}

/// Renders a region like the paper: `(d0:[2..3], d1:[0..1])`.
pub fn format_region(schema: &Schema, region: &Region) -> String {
    let mut parts = Vec::new();
    for (d, attr) in schema.iter() {
        let ds = region.dim(d.index());
        if ds.is_full(attr.domain.cardinality()) {
            continue;
        }
        let desc = match ds {
            DimSet::Range { lo, hi } => format!("{}:[{}..{}]", attr.name, lo, hi),
            DimSet::Set(s) => {
                let members: Vec<String> = s.iter().map(|m| m.to_string()).collect();
                format!("{}:{{{}}}", attr.name, members.join(","))
            }
        };
        parts.push(desc);
    }
    if parts.is_empty() {
        "(*)".to_string()
    } else {
        format!("({})", parts.join(", "))
    }
}

fn differing_dim(a: &Region, b: &Region) -> usize {
    (0..a.n_dims()).find(|&d| a.dim(d) != b.dim(d)).unwrap_or(0)
}

/// The paper's shrink step: remove members whose pinned slice must lose,
/// to a fixpoint (batched per pass inside [`ScoreModel::shrink_region`]).
/// Ordered dimensions are only trimmed from the ends. Returns `None` if
/// the region empties.
fn shrink(
    model: &ScoreModel,
    region: &Region,
    k: usize,
    opts: &DeriveOptions,
    stats: &mut DeriveStats,
    trace: &mut Vec<TraceStep>,
) -> Option<Region> {
    let (shrunk, removed) = model.shrink_region(region, k, opts.bound_mode);
    stats.shrunk_members += removed.len();
    if opts.trace {
        for (dim, member) in removed {
            trace.push(TraceStep::Shrunk { dim, member });
        }
    }
    shrunk
}

/// The paper's split step: evaluate the entropy of the target-class
/// probability mass on each side of every candidate boundary and pick
/// the split minimizing the weighted average entropy. Ordered dimensions
/// admit prefix cuts; unordered dimensions are ordered by the class's
/// estimated posterior and then cut by prefix (the standard reduction of
/// subset search).
fn split(model: &ScoreModel, schema: &Schema, region: &Region, k: usize) -> Option<(Region, Region)> {
    let classes: Vec<usize> = by_class(model).collect();
    let mut best: Option<(f64, usize, Vec<u16>, Vec<u16>)> = None;
    for (d, attr) in schema.iter() {
        let d = d.index();
        let members: Vec<u16> = region.dim(d).iter().collect();
        if members.len() < 2 {
            continue;
        }
        // Per-member estimates: posterior mass of class k at the member
        // vs total mass, using interval midpoints. exp() is normalized by
        // the member-wise max to avoid underflow.
        let table = model.dim(d);
        let mid = |m: u16, j: usize| 0.5 * (table.lo(m, j) + table.hi(m, j));
        let max_mid = members
            .iter()
            .flat_map(|&m| classes.iter().map(move |&j| mid(m, j) + model.prior(j)))
            .fold(f64::NEG_INFINITY, f64::max);
        let pos: Vec<f64> = members
            .iter()
            .map(|&m| (mid(m, k) + model.prior(k) - max_mid).exp())
            .collect();
        let mass: Vec<f64> = members
            .iter()
            .map(|&m| classes.iter().map(|&j| (mid(m, j) + model.prior(j) - max_mid).exp()).sum())
            .collect();

        let order: Vec<usize> = if attr.domain.is_ordered() {
            (0..members.len()).collect()
        } else {
            let mut o: Vec<usize> = (0..members.len()).collect();
            let q = |i: usize| pos[i] / mass[i].max(f64::MIN_POSITIVE);
            o.sort_by(|&a, &b| q(b).partial_cmp(&q(a)).expect("finite posterior"));
            o
        };

        // Prefix scan in `order`.
        let total_pos: f64 = pos.iter().sum();
        let total_mass: f64 = mass.iter().sum();
        let mut acc_pos = 0.0;
        let mut acc_mass = 0.0;
        for cut in 0..order.len() - 1 {
            acc_pos += pos[order[cut]];
            acc_mass += mass[order[cut]];
            let (lp, lm) = (acc_pos, acc_mass);
            let (rp, rm) = (total_pos - acc_pos, total_mass - acc_mass);
            let w = (lm * binary_entropy(lp / lm.max(f64::MIN_POSITIVE))
                + rm * binary_entropy(rp / rm.max(f64::MIN_POSITIVE)))
                / total_mass.max(f64::MIN_POSITIVE);
            if best.as_ref().is_none_or(|(bw, ..)| w < *bw) {
                let left: Vec<u16> = order[..=cut].iter().map(|&i| members[i]).collect();
                let right: Vec<u16> = order[cut + 1..].iter().map(|&i| members[i]).collect();
                best = Some((w, d, left, right));
            }
        }
    }
    let (_, d, left, right) = best?;
    let mk = |ms: Vec<u16>| -> DimSet {
        if schema.attrs()[d].domain.is_ordered() {
            let lo = *ms.iter().min().expect("nonempty side");
            let hi = *ms.iter().max().expect("nonempty side");
            debug_assert_eq!(hi as usize - lo as usize + 1, ms.len(), "ordered side contiguous");
            DimSet::Range { lo, hi }
        } else {
            DimSet::Set(MemberSet::of(
                schema.attrs()[d].domain.cardinality(),
                ms.iter().copied(),
            ))
        }
    };
    Some((region.with_dim(d, mk(left)), region.with_dim(d, mk(right))))
}

/// Rival-targeted split: find the rival `j*` closest to dominating the
/// whole region (smallest `max(score_k − score_j)`), then choose the
/// (dimension, cut) that minimizes that maximum on one side — driving a
/// child toward MUST-LOSE as fast as possible. Entropy splits optimize
/// separating the *target* class; in many-class models the bottleneck is
/// instead proving all the *other* space lost, which this heuristic
/// attacks directly.
fn split_rival_gap(
    model: &ScoreModel,
    schema: &Schema,
    region: &Region,
    k: usize,
) -> Option<(Region, Region)> {
    // Rival closest to dominating (finite dmax required).
    let mut jstar: Option<(usize, f64)> = None;
    for j in by_class(model) {
        if j == k {
            continue;
        }
        let dmax = model.region_diff_max(region, k, j);
        if dmax.is_finite() && jstar.is_none_or(|(_, b)| dmax < b) {
            jstar = Some((j, dmax));
        }
    }
    let (j, _) = jstar?;

    // Per-dimension member values v_m = max diff contribution vs j*; the
    // split should isolate low-v members (where k loses to j*) from
    // high-v ones.
    let mut best: Option<(f64, usize, Vec<u16>, Vec<u16>)> = None; // (min side max, dim, left, right)
    for (did, attr) in schema.iter() {
        let d = did.index();
        let members: Vec<u16> = region.dim(d).iter().collect();
        if members.len() < 2 {
            continue;
        }
        let vals: Vec<f64> =
            members.iter().map(|&m| model.member_diff_range(d, m, k, j).1).collect();
        let order: Vec<usize> = if attr.domain.is_ordered() {
            (0..members.len()).collect()
        } else {
            let mut o: Vec<usize> = (0..members.len()).collect();
            o.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).expect("finite or inf"));
            o
        };
        // Prefix cuts in `order`: score = the smaller of the two sides'
        // max values (one side close to exclusion).
        for cut in 0..order.len() - 1 {
            let left_max =
                order[..=cut].iter().map(|&i| vals[i]).fold(f64::NEG_INFINITY, f64::max);
            let right_max =
                order[cut + 1..].iter().map(|&i| vals[i]).fold(f64::NEG_INFINITY, f64::max);
            let score = left_max.min(right_max);
            if best.as_ref().is_none_or(|(b, ..)| score < *b) {
                let left: Vec<u16> = order[..=cut].iter().map(|&i| members[i]).collect();
                let right: Vec<u16> = order[cut + 1..].iter().map(|&i| members[i]).collect();
                best = Some((score, d, left, right));
            }
        }
    }
    let (_, d, left, right) = best?;
    let mk = |ms: Vec<u16>| -> DimSet {
        if schema.attrs()[d].domain.is_ordered() {
            let lo = *ms.iter().min().expect("nonempty side");
            let hi = *ms.iter().max().expect("nonempty side");
            DimSet::Range { lo, hi }
        } else {
            DimSet::Set(MemberSet::of(schema.attrs()[d].domain.cardinality(), ms.iter().copied()))
        }
    };
    Some((region.with_dim(d, mk(left)), region.with_dim(d, mk(right))))
}

fn binary_entropy(p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let mut h = 0.0;
    if p > 0.0 {
        h -= p * p.ln();
    }
    if p < 1.0 {
        h -= (1.0 - p) * (1.0 - p).ln();
    }
    h
}

/// Iteratively merges regions pairwise until no pair can merge. Each
/// pass sweeps all pairs once (merging in place), so the whole sweep is
/// O(passes · R²) rather than restarting from scratch per merge.
pub fn merge_regions(regions: &mut Vec<Region>, stats: &mut DeriveStats) {
    loop {
        let mut merged_any = false;
        let mut i = 0;
        while i < regions.len() {
            let mut j = i + 1;
            while j < regions.len() {
                if let Some(m) = regions[i].try_merge(&regions[j]) {
                    regions[i] = m;
                    regions.swap_remove(j);
                    stats.merges += 1;
                    merged_any = true;
                    // regions[i] changed: re-scan the js from the start
                    // of the remaining suffix for more merges into it.
                    j = i + 1;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
        if !merged_any {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score_model::BoundMode;
    use mpq_models::{Classifier as _, NaiveBayes};
    use mpq_types::{AttrDomain, Attribute};

    fn table1() -> NaiveBayes {
        crate::paper_table1_model()
    }

    /// The point table Algorithm 1 derives `nb`'s envelopes over.
    fn table(nb: &NaiveBayes) -> ScoreModel {
        ScoreModel::from_proxy(&crate::ProxyScore::from_naive_bayes(nb).unwrap())
    }


    fn assert_sound_and_report_exact(nb: &NaiveBayes, opts: &DeriveOptions) {
        let sm = table(nb);
        let schema = nb.schema();
        for k in 0..nb.n_classes() {
            let class = ClassId(k as u16);
            let env = derive_topdown(&sm, schema, class, opts);
            for cell in Region::full(schema).cells() {
                let predicted = nb.predict(&cell) == class;
                if predicted {
                    assert!(
                        env.matches(&cell),
                        "UNSOUND: class {k} cell {cell:?} predicted but not covered ({opts:?})"
                    );
                }
                if env.exact && !predicted {
                    assert!(
                        !env.matches(&cell),
                        "claimed exact but covers foreign cell {cell:?} for class {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn table1_envelopes_sound_basic() {
        assert_sound_and_report_exact(
            &table1(),
            &DeriveOptions { bound_mode: BoundMode::Basic, ..Default::default() },
        );
    }

    #[test]
    fn table1_envelopes_sound_pairwise() {
        assert_sound_and_report_exact(
            &table1(),
            &DeriveOptions { bound_mode: BoundMode::PairwiseRatio, ..Default::default() },
        );
    }

    #[test]
    fn table1_envelopes_sound_with_tiny_budget() {
        for budget in [0, 1, 2, 3] {
            assert_sound_and_report_exact(
                &table1(),
                &DeriveOptions { max_expansions: budget, ..Default::default() },
            );
        }
    }

    #[test]
    fn table1_class_c1_envelope_is_exact_with_enough_budget() {
        // The paper works c1 by hand: it is exactly
        // (d0:{m0,m1}, d1:{m1,m2}) after one shrink and one split.
        let nb = table1();
        let sm = table(&nb);
        let env = derive_topdown(&sm, nb.schema(), ClassId(0), &DeriveOptions::default());
        assert!(env.exact, "c1's region is clean; derivation should prove it");
        let covered: Vec<Vec<u16>> = Region::full(nb.schema())
            .cells()
            .filter(|c| env.matches(c))
            .collect();
        let truth: Vec<Vec<u16>> = Region::full(nb.schema())
            .cells()
            .filter(|c| nb.predict(c) == ClassId(0))
            .collect();
        assert_eq!(covered, truth);
        assert_eq!(env.n_disjuncts(), 1, "c1 is a single rectangle");
    }

    #[test]
    fn zero_budget_envelope_is_shrunk_but_sound() {
        let nb = table1();
        let sm = table(&nb);
        let env = derive_topdown(
            &sm,
            nb.schema(),
            ClassId(2),
            &DeriveOptions { max_expansions: 0, ..Default::default() },
        );
        // With no split budget the region cannot be carved, but the
        // final shrink pass still trims MUST-LOSE members; the result is
        // a single (possibly loose) region covering all of c3's cells.
        assert!(!env.exact);
        assert_eq!(env.stats.thresholded_regions, 1);
        assert_eq!(env.n_disjuncts(), 1);
        for cell in Region::full(nb.schema()).cells() {
            if nb.predict(&cell) == ClassId(2) {
                assert!(env.matches(&cell), "cell {cell:?}");
            }
        }
        // c3 only wins inside d0 ∈ {m2,m3} × d1 = m2; shrink alone finds
        // a strictly smaller region than the grid.
        assert!(env.covered_cells() < 12);
    }

    #[test]
    fn trace_records_evaluations_and_splits() {
        let nb = table1();
        let sm = table(&nb);
        let env = derive_topdown(
            &sm,
            nb.schema(),
            ClassId(0),
            &DeriveOptions { bound_mode: BoundMode::Basic, trace: true, ..Default::default() },
        );
        assert!(
            env.trace.iter().any(|s| matches!(s, TraceStep::Evaluated { .. })),
            "trace must contain evaluations"
        );
        assert!(
            env.trace.iter().any(|s| matches!(s, TraceStep::Shrunk { dim: 1, member: 0 })),
            "Figure 2(b): d1's first member is shrunk away"
        );
    }

    #[test]
    fn merge_regions_collapses_adjacent() {
        let schema = Schema::new(vec![
            Attribute::new("x", AttrDomain::binned(vec![1.0, 2.0, 3.0]).unwrap()),
        ])
        .unwrap();
        let mut rs = vec![
            Region::full(&schema).with_dim(0, DimSet::Range { lo: 0, hi: 0 }),
            Region::full(&schema).with_dim(0, DimSet::Range { lo: 2, hi: 3 }),
            Region::full(&schema).with_dim(0, DimSet::Range { lo: 1, hi: 1 }),
        ];
        let mut stats = DeriveStats::default();
        merge_regions(&mut rs, &mut stats);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].is_full(&schema));
        assert_eq!(stats.merges, 2);
    }

    #[test]
    fn format_region_prints_constrained_dims_only() {
        let nb = table1();
        let r = Region::full(nb.schema())
            .with_dim(1, DimSet::Set(MemberSet::of(3, [0, 1])));
        let s = format_region(nb.schema(), &r);
        assert_eq!(s, "(d1:{0,1})");
        assert_eq!(format_region(nb.schema(), &Region::full(nb.schema())), "(*)");
    }
}
