//! DDL execution: `CREATE MINING MODEL` (§2.2's model-as-catalog-object
//! world, with training driven from SQL).
//!
//! Classification models are trained on a table with a designated label
//! column. The registered model is a [`ProjectedModel`]: it carries the
//! *full* table schema, ignores the label column at prediction time, and
//! lifts the inner model's envelopes by leaving the label dimension
//! unconstrained — so prediction joins and envelope rewriting against
//! the same table keep working without any column mapping.

use crate::persist::StoredModel;
use crate::sql::ModelAlgorithm;
use crate::{Catalog, EngineError};
use mpq_core::{DeriveOptions, Envelope, EnvelopeProvider, ProxyScore};
use mpq_pmml::PmmlModel;
use mpq_models::{
    Classifier, DecisionTree, Gmm, GmmParams, KMeans, KMeansParams, NaiveBayes, RuleSet,
    RuleSetParams, TreeParams,
};
use mpq_types::{AttrDomain, AttrId, ClassId, Dataset, LabeledDataset, Row, Schema};
use std::sync::Arc;

/// A model trained on a projection of a table (all columns except the
/// label), presented against the full table schema.
pub struct ProjectedModel {
    full_schema: Schema,
    /// Index of the ignored (label) column in the full schema.
    label: usize,
    inner: Arc<dyn EnvelopeProvider + Send + Sync>,
}

impl ProjectedModel {
    /// Wraps `inner` (trained on the schema without column `label`).
    pub fn new(
        full_schema: Schema,
        label: AttrId,
        inner: Arc<dyn EnvelopeProvider + Send + Sync>,
    ) -> ProjectedModel {
        debug_assert_eq!(inner.schema().len() + 1, full_schema.len());
        ProjectedModel { full_schema, label: label.index(), inner }
    }

    fn project(&self, row: &Row, buf: &mut Vec<u16>) {
        buf.clear();
        buf.extend(row.iter().enumerate().filter(|(d, _)| *d != self.label).map(|(_, &m)| m));
    }

    /// Lifts an inner-schema envelope into the full schema: each region
    /// gains an unconstrained label dimension.
    fn lift(&self, inner_env: Envelope) -> Envelope {
        let label_dim = {
            let attr = &self.full_schema.attrs()[self.label];
            mpq_core::DimSet::full(attr.domain.cardinality(), attr.domain.is_ordered())
        };
        let regions = inner_env
            .regions
            .into_iter()
            .map(|r| {
                let mut dims: Vec<mpq_core::DimSet> =
                    (0..r.n_dims()).map(|d| r.dim(d).clone()).collect();
                dims.insert(self.label, label_dim.clone());
                mpq_core::Region::from_dims(dims)
            })
            .collect();
        Envelope { regions, ..inner_env }
    }
}

impl Classifier for ProjectedModel {
    fn schema(&self) -> &Schema {
        &self.full_schema
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn class_name(&self, c: ClassId) -> &str {
        self.inner.class_name(c)
    }

    fn predict(&self, row: &Row) -> ClassId {
        let mut buf = Vec::with_capacity(row.len() - 1);
        self.project(row, &mut buf);
        self.inner.predict(&buf)
    }
}

impl EnvelopeProvider for ProjectedModel {
    fn envelope(&self, class: ClassId, opts: &DeriveOptions) -> Envelope {
        self.lift(self.inner.envelope(class, opts))
    }

    // Every derivation path forwards, so the inner model's own batch
    // derivation (one score table, classes on every core) and its time
    // budget apply unchanged.
    fn envelopes(&self, opts: &DeriveOptions) -> Vec<Envelope> {
        self.inner.envelopes(opts).into_iter().map(|e| self.lift(e)).collect()
    }

    fn try_envelope(
        &self,
        class: ClassId,
        opts: &DeriveOptions,
    ) -> Result<Envelope, mpq_core::CoreError> {
        Ok(self.lift(self.inner.try_envelope(class, opts)?))
    }

    fn try_envelopes(&self, opts: &DeriveOptions) -> Result<Vec<Envelope>, mpq_core::CoreError> {
        Ok(self.inner.try_envelopes(opts)?.into_iter().map(|e| self.lift(e)).collect())
    }

    fn proxy(&self) -> Option<ProxyScore> {
        // Mirror `lift`: the label dimension joins the table with
        // all-zero contributions, so full-row decisions equal the inner
        // model's decisions on projected rows.
        let card = self.full_schema.attrs()[self.label].domain.cardinality();
        Some(self.inner.proxy()?.with_zero_dim(self.label, card.into()))
    }
}

/// Builds the labeled training view of a table: all columns except
/// `label` become features; `label` (must be categorical) provides the
/// class names.
pub fn labeled_view(catalog: &Catalog, table: usize, label: AttrId) -> Result<LabeledDataset, EngineError> {
    let t = &catalog.table(table).table;
    let schema = t.schema();
    let AttrDomain::Categorical { members } = &schema.attr(label).domain else {
        return Err(EngineError::SchemaMismatch {
            detail: format!("label column {} must be categorical", schema.attr(label).name),
        });
    };
    let class_names = members.clone();
    let feature_attrs: Vec<_> = schema
        .iter()
        .filter(|(id, _)| *id != label)
        .map(|(_, a)| a.clone())
        .collect();
    let fschema = Schema::new(feature_attrs)
        .map_err(|e| EngineError::SchemaMismatch { detail: e.to_string() })?;
    let mut ds = Dataset::new(fschema);
    let mut labels = Vec::with_capacity(t.n_rows());
    let mut buf = Vec::with_capacity(schema.len() - 1);
    for r in 0..t.n_rows() as u32 {
        buf.clear();
        for d in 0..schema.len() {
            if d == label.index() {
                continue;
            }
            buf.push(t.cell(r, d));
        }
        ds.push_encoded(&buf)
            .map_err(|e| EngineError::SchemaMismatch { detail: e.to_string() })?;
        labels.push(ClassId(t.cell(r, label.index())));
    }
    LabeledDataset::new(ds, labels, class_names)
        .map_err(|e| EngineError::SchemaMismatch { detail: e.to_string() })
}

/// Serializes a freshly trained model as PMML. Training only produces
/// domain-consistent structures, so failure here means a bug, not bad
/// user input — surfaced as `Internal` rather than panicking.
fn export_trained(model: PmmlModel) -> Result<String, EngineError> {
    mpq_pmml::export(&model)
        .map_err(|e| EngineError::Internal { detail: format!("pmml export: {e}") })
}

/// Trains the requested model *without* registering it, returning the
/// live trait object, its durable serialized form (see
/// [`crate::persist::StoredModel`]), and its class count. The durable
/// mutation path logs the serialized form before the catalog applies it.
pub(crate) fn train_model_stored(
    catalog: &Catalog,
    table: usize,
    label: Option<AttrId>,
    clusters: Option<usize>,
    algorithm: ModelAlgorithm,
) -> Result<(Arc<dyn EnvelopeProvider + Send + Sync>, StoredModel, usize), EngineError> {
    let full_schema = catalog.table(table).table.schema().clone();
    match algorithm {
        ModelAlgorithm::DecisionTree | ModelAlgorithm::NaiveBayes | ModelAlgorithm::Rules => {
            // The SQL parser guarantees a label, but this is reachable
            // from public API: reject rather than panic on a direct call.
            let label = label.ok_or_else(|| EngineError::SchemaMismatch {
                detail: "classification algorithms need a label column".to_string(),
            })?;
            let train = labeled_view(catalog, table, label)?;
            let (inner, inner_xml): (Arc<dyn EnvelopeProvider + Send + Sync>, String) =
                match algorithm {
                    ModelAlgorithm::DecisionTree => {
                        let m = DecisionTree::train(&train, TreeParams::default())
                            .map_err(|e| EngineError::SchemaMismatch { detail: e.to_string() })?;
                        let xml = export_trained(PmmlModel::Tree(m.clone()))?;
                        (Arc::new(m), xml)
                    }
                    ModelAlgorithm::NaiveBayes => {
                        let m = NaiveBayes::train(&train)
                            .map_err(|e| EngineError::SchemaMismatch { detail: e.to_string() })?;
                        let xml = export_trained(PmmlModel::NaiveBayes(m.clone()))?;
                        (Arc::new(m), xml)
                    }
                    _ => {
                        let m = RuleSet::train(&train, RuleSetParams::default())
                            .map_err(|e| EngineError::SchemaMismatch { detail: e.to_string() })?;
                        let xml = export_trained(PmmlModel::Rules(m.clone()))?;
                        (Arc::new(m), xml)
                    }
                };
            let stored = StoredModel::Projected {
                label_name: full_schema.attrs()[label.index()].name.clone(),
                label_pos: label.index() as u32,
                inner_xml,
            };
            let model = Arc::new(ProjectedModel::new(full_schema, label, inner));
            let n_classes = model.n_classes();
            Ok((model, stored, n_classes))
        }
        ModelAlgorithm::KMeans => {
            let k = clusters.ok_or_else(|| EngineError::SchemaMismatch {
                detail: "clustering algorithms need a cluster count".to_string(),
            })?;
            let data = table_dataset(catalog, table);
            let m = KMeans::train_encoded(&data, KMeansParams { k, ..Default::default() })
                .map_err(|e| EngineError::SchemaMismatch { detail: e.to_string() })?;
            let stored = StoredModel::Plain { xml: export_trained(PmmlModel::KMeans(m.clone()))? };
            let n_classes = m.n_classes();
            Ok((Arc::new(m), stored, n_classes))
        }
        ModelAlgorithm::Gmm => {
            let k = clusters.ok_or_else(|| EngineError::SchemaMismatch {
                detail: "clustering algorithms need a cluster count".to_string(),
            })?;
            let data = table_dataset(catalog, table);
            let m = Gmm::train_encoded(&data, GmmParams { k, ..Default::default() })
                .map_err(|e| EngineError::SchemaMismatch { detail: e.to_string() })?;
            let stored = StoredModel::Plain { xml: export_trained(PmmlModel::Gmm(m.clone()))? };
            let n_classes = m.n_classes();
            Ok((Arc::new(m), stored, n_classes))
        }
    }
}

/// Trains the requested model and registers it in the catalog under
/// `name` (with its durable serialized form attached), returning the
/// model id and its class count.
pub fn create_model(
    catalog: &mut Catalog,
    name: &str,
    table: usize,
    label: Option<AttrId>,
    clusters: Option<usize>,
    algorithm: ModelAlgorithm,
    derive_opts: DeriveOptions,
) -> Result<(usize, usize), EngineError> {
    let (model, stored, n_classes) =
        train_model_stored(catalog, table, label, clusters, algorithm)?;
    let id = catalog.add_model_stored(name.to_string(), model, derive_opts, Some(stored))?;
    Ok((id, n_classes))
}

fn table_dataset(catalog: &Catalog, table: usize) -> Dataset {
    let t = &catalog.table(table).table;
    let mut ds = Dataset::new(t.schema().clone());
    for r in 0..t.n_rows() as u32 {
        // Invariant-backed: rows were validated against this same
        // schema when the table was built, so re-encoding cannot fail.
        ds.push_encoded(&t.row(r)).expect("stored rows are valid");
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;
    use mpq_types::Attribute;

    fn catalog_with_training_table() -> Catalog {
        let schema = Schema::new(vec![
            Attribute::new("x", AttrDomain::binned(vec![5.0]).unwrap()),
            Attribute::new("f", AttrDomain::categorical(["a", "b"])),
            Attribute::new("outcome", AttrDomain::categorical(["lo", "hi"])),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for i in 0..200u16 {
            let x = i % 2;
            let f = (i / 2) % 2;
            // outcome = hi iff x high and f = 'b'.
            let y = u16::from(x == 1 && f == 1);
            ds.push_encoded(&[x, f, y]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.add_table(Table::from_dataset("t", &ds)).unwrap();
        cat
    }

    #[test]
    fn labeled_view_splits_features_and_labels() {
        let cat = catalog_with_training_table();
        let label = cat.table(0).table.schema().attr_by_name("outcome").unwrap();
        let view = labeled_view(&cat, 0, label).unwrap();
        assert_eq!(view.data.schema().len(), 2);
        assert_eq!(view.n_classes(), 2);
        assert_eq!(view.class_names, vec!["lo".to_string(), "hi".to_string()]);
        assert_eq!(view.len(), 200);
    }

    #[test]
    fn labeled_view_rejects_numeric_labels() {
        let cat = catalog_with_training_table();
        let x = cat.table(0).table.schema().attr_by_name("x").unwrap();
        assert!(labeled_view(&cat, 0, x).is_err());
    }

    #[test]
    fn projected_model_predicts_against_full_rows() {
        let mut cat = catalog_with_training_table();
        let label = cat.table(0).table.schema().attr_by_name("outcome").unwrap();
        let (id, classes) = create_model(
            &mut cat,
            "m",
            0,
            Some(label),
            None,
            ModelAlgorithm::DecisionTree,
            DeriveOptions::default(),
        )
        .unwrap();
        assert_eq!(classes, 2);
        let model = &cat.model(id).model;
        // Full rows include the (ignored) label column.
        assert_eq!(model.predict(&[1, 1, 0]), ClassId(1), "x hi + f=b -> hi");
        assert_eq!(model.predict(&[0, 1, 1]), ClassId(0));
        // Envelopes are lifted over the full schema: they never constrain
        // the label column.
        let env = &cat.model(id).envelopes[1];
        assert!(env.matches(&[1, 1, 0]) && env.matches(&[1, 1, 1]));
        assert!(!env.matches(&[0, 0, 0]));
    }

    #[test]
    fn projected_model_lifts_the_inner_proxy() {
        let mut cat = catalog_with_training_table();
        let label = cat.table(0).table.schema().attr_by_name("outcome").unwrap();
        let (id, _) = create_model(
            &mut cat,
            "m",
            0,
            Some(label),
            None,
            ModelAlgorithm::NaiveBayes,
            DeriveOptions::default(),
        )
        .unwrap();
        let model = &cat.model(id).model;
        let proxy = model.proxy().expect("projected additive model must tabulate a proxy");
        assert_eq!(proxy.n_dims(), 3, "lifted proxy covers the full schema, label included");
        for x in 0..2u16 {
            for f in 0..2u16 {
                // The label column must not influence the decision...
                assert_eq!(proxy.decide(&[x, f, 0]), proxy.decide(&[x, f, 1]));
                for y in 0..2u16 {
                    // ...and decisions must be the model's prediction on
                    // the full row.
                    let row = [x, f, y];
                    assert_eq!(proxy.decide(&row), model.predict(&row), "row {row:?}");
                }
            }
        }
    }

    #[test]
    fn clustering_ddl_trains_on_all_columns() {
        let schema = Schema::new(vec![
            Attribute::new("x", AttrDomain::binned(vec![2.0, 4.0]).unwrap()),
            Attribute::new("y", AttrDomain::binned(vec![2.0, 4.0]).unwrap()),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for i in 0..100u16 {
            ds.push_encoded(&[(i % 3), ((i / 3) % 3)]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.add_table(Table::from_dataset("pts", &ds)).unwrap();
        let (id, k) = create_model(
            &mut cat,
            "c",
            0,
            None,
            Some(3),
            ModelAlgorithm::KMeans,
            DeriveOptions::default(),
        )
        .unwrap();
        assert_eq!(k, 3);
        assert_eq!(cat.model(id).envelopes.len(), 3);
    }
}
