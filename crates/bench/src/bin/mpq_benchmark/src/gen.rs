//! The benchmark's own input generator.
//!
//! Everything a workload feeds the program — tables, training tables,
//! model DDL, statement pools, the order statements are issued in,
//! subscriptions and INSERT batches — is derived here from `--seed`
//! with a splitmix64, never from `mpq-datagen` or `mpq_bench::setup`:
//! a later change to program code cannot change the load.
//!
//! Binned columns cut at multiples of 10, and every literal is written
//! as `10 * member + 5`, which lands strictly inside bin `member`
//! whatever snapping rule the comparison uses.

use mpq_engine::{Table, ASSUMED_COLUMN_BYTES, DEFAULT_PAGE_BYTES};
use mpq_types::{AttrDomain, Attribute, Member, Schema};

/// splitmix64 (Steele, Lea, Flood 2014): the whole generator state is
/// one `u64`, so equal seeds give equal streams on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is
    /// below 2^-40 and irrelevant to a load generator).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    fn member(&mut self, card: u16) -> Member {
        self.below(u64::from(card)) as Member
    }

    /// An independent stream for one purpose, so adding draws to one
    /// part of a workload never shifts another part's values.
    fn fork(&self, purpose: u64) -> Rng {
        let mut r = Rng(self.0 ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }
}

/// FNV-1a, for the determinism checks and the inputs hash in reports.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Table sizes. `Smoke` is the `--smoke` mode's: small enough for the
/// whole set to finish in seconds, same shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn rows(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => 20_000.min(full),
        }
    }
}

const SCAN_ROWS: usize = 100_000;
const WIRE_ROWS: usize = 48_000;
const MIXED_ROWS: usize = 20_000;
const TRAIN_ROWS: usize = 4_096;
/// Training tables are generated from this, not from `--seed`: a model's
/// envelopes are a function of its training rows, and letting them move
/// with the seed moved `scan_cascade`'s cost per statement by over 10%
/// between seeds — more than the bounds the runs are judged by. The
/// seed still decides every queried row, statement constant and order.
const TRAINING_SEED: u64 = 0x6d70_715f_6265_6e63;
pub const ROWS_PER_INSERT: usize = 8;
const N_SUBSCRIPTIONS: usize = 1_000;
/// Length of the seeded statement order; a connection cycles through it.
const SEQUENCE_LEN: usize = 4_096;
const INSERT_POOL: usize = 2_048;

/// One generated table: column-major members, as the program stores them.
#[derive(Debug, Clone)]
pub struct TableData {
    pub name: &'static str,
    pub schema: Schema,
    pub columns: Vec<Vec<Member>>,
}

impl TableData {
    pub fn n_rows(&self) -> usize {
        self.columns[0].len()
    }

    /// The program's table over these columns, paged as
    /// `Table::from_dataset` pages (the public constants give the same
    /// rows per page), without going through a row-major `Dataset`.
    pub fn to_table(&self) -> Table {
        let rows_per_page =
            (DEFAULT_PAGE_BYTES / (self.schema.len() * ASSUMED_COLUMN_BYTES)).max(1);
        Table::from_encoded_parts(
            self.name,
            self.schema.clone(),
            self.columns.clone(),
            rows_per_page,
        )
        .expect("generated members are within their domains")
    }

    fn hash_into(&self, h: &mut Fnv) {
        h.bytes(self.name.as_bytes());
        for col in &self.columns {
            for m in col {
                h.bytes(&m.to_le_bytes());
            }
        }
    }
}

/// How a model gets into the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSpec {
    /// A `CREATE MINING MODEL` statement: trained by the engine, default
    /// derivation options, durable on a durable engine.
    Sql(String),
    /// Trained through `mpq-models` on the training table and registered
    /// with the paper's disjunct threshold (section 4.2) set to
    /// `max_disjuncts`: the envelope stays a sound upper bound but is
    /// merged down to a few regions, so it is neither exact (the mining
    /// predicate stays in the plan) nor a several-thousand-node DNF that
    /// would make its own evaluation the whole workload.
    NaiveBayes {
        name: &'static str,
        label: u16,
        max_disjuncts: usize,
    },
    KMeans {
        name: &'static str,
        k: usize,
        max_disjuncts: usize,
    },
}

/// Everything one workload feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The queried table.
    pub table: TableData,
    /// Same schema, a few thousand rows: models are trained on it, so
    /// training cost does not grow with the queried table.
    pub train: TableData,
    /// Secondary indexes on `table`, each a column list.
    pub indexes: Vec<Vec<u16>>,
    pub models: Vec<ModelSpec>,
    /// The distinct query statements.
    pub pool: Vec<String>,
    /// Indices into `pool`: the order statements are issued in.
    pub sequence: Vec<u32>,
    /// `mixed_rw` only: the reader's standing subscriptions.
    pub subscriptions: Vec<String>,
    /// `mixed_rw` only: the writer's INSERT statements, cycled.
    pub inserts: Vec<String>,
}

impl Inputs {
    /// Hash of every generated value; equal iff the load is equal.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        self.table.hash_into(&mut h);
        self.train.hash_into(&mut h);
        for c in self.indexes.iter().flatten() {
            h.bytes(&c.to_le_bytes());
        }
        for m in &self.models {
            h.bytes(format!("{m:?}").as_bytes());
        }
        for s in self
            .pool
            .iter()
            .chain(&self.subscriptions)
            .chain(&self.inserts)
        {
            h.bytes(s.as_bytes());
            h.bytes(&[0]);
        }
        for i in &self.sequence {
            h.bytes(&i.to_le_bytes());
        }
        h.finish()
    }
}

fn binned(card: u16) -> AttrDomain {
    AttrDomain::binned((1..card).map(|b| f64::from(b) * 10.0).collect()).expect("ascending cuts")
}

fn categorical(prefix: &str, card: u16) -> AttrDomain {
    AttrDomain::categorical((0..card).map(|i| format!("{prefix}{i}")))
}

/// The literal that lands inside bin `m`.
fn lit(m: u64) -> u64 {
    10 * m + 5
}

/// The order statements are issued in: shuffled passes over the pool,
/// one after another. Every statement is issued equally often whatever
/// the seed, so the mix of cheap and dear statements in a window does
/// not move with it; only the order does.
fn sequence(rng: &mut Rng, pool_len: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(SEQUENCE_LEN);
    while out.len() < SEQUENCE_LEN {
        let mut pass: Vec<u32> = (0..pool_len as u32).collect();
        for i in (1..pass.len()).rev() {
            pass.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(pass);
    }
    out.truncate(SEQUENCE_LEN);
    out
}

// ---------------------------------------------------------------------
// scan_cascade
// ---------------------------------------------------------------------

const NOISE_CARD: u16 = 128;
const SCAN_MAX_DISJUNCTS: usize = 16;

fn scan_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("region", categorical("r", 8)),
        Attribute::new("band", binned(NOISE_CARD)),
        Attribute::new("c1", binned(NOISE_CARD)),
        Attribute::new("c2", binned(NOISE_CARD)),
        Attribute::new(
            "label",
            AttrDomain::categorical(["neg", "pos", "tie_a", "tie_b"]),
        ),
        Attribute::new("label2", AttrDomain::categorical(["neg", "pos"])),
    ])
    .expect("distinct column names")
}

/// The concept `label` follows. Bands below 8 belong to two classes
/// that the training table gives identical rows, so naive Bayes scores
/// them bit-equal there: those rows are the proxy cascade's uncertainty
/// band and reach the real scorer.
fn scan_label(region: Member, band: Member, parity: bool) -> Member {
    if band < 8 {
        2 + Member::from(parity)
    } else if band < 32 && region != 3 {
        1
    } else {
        0
    }
}

fn scan_row(rng: &mut Rng, region: Member, parity: bool) -> [Member; 6] {
    let band = rng.member(NOISE_CARD);
    let c1 = rng.member(NOISE_CARD);
    let c2 = rng.member(NOISE_CARD);
    let flip = rng.below(10) == 0;
    [
        region,
        band,
        c1,
        c2,
        scan_label(region, band, parity),
        Member::from((band < 32) ^ flip),
    ]
}

/// Training rows, laid out cell by cell over (label, label2). Inside a
/// cell `region`/`band` are drawn until they fit the label's concept;
/// `c2` sweeps its members evenly (cell sizes are multiples of its
/// cardinality) so it carries exactly no signal, while `c1` is drawn at
/// random and so carries a little sampling noise: enough that the
/// naive-Bayes envelopes are not exact and the mining predicates stay
/// in the plan. The two tie classes get the same rows, so their counts
/// are equal in every cell and their scores bit-equal on every row.
fn scan_train(rng: &mut Rng) -> Vec<Vec<Member>> {
    // (label, label2, blocks of NOISE_CARD rows): label2 mostly agrees
    // with `band < 320`, as in the queried table.
    const CELLS: [(Member, Member, usize); 6] = [
        (0, 0, 18),
        (0, 1, 2),
        (1, 1, 6),
        (1, 0, 1),
        (2, 1, 2),
        (2, 0, 1),
    ];
    let mut columns = vec![Vec::new(); 6];
    for (label, label2, blocks) in CELLS {
        let off2 = rng.below(128) as usize;
        for j in 0..blocks * usize::from(NOISE_CARD) {
            let (region, band) = loop {
                let (region, band) = (rng.member(8), rng.member(NOISE_CARD));
                if scan_label(region, band, false).min(2) == label {
                    break (region, band);
                }
            };
            let c1 = rng.member(NOISE_CARD);
            let c2 = ((j / 128 + j * 37 + off2) % 128) as Member;
            let labels: &[Member] = if label == 2 { &[2, 3] } else { &[label] };
            for &l in labels {
                for (col, m) in columns.iter_mut().zip([region, band, c1, c2, l, label2]) {
                    col.push(m);
                }
            }
        }
    }
    columns
}

pub fn scan_cascade(seed: u64, scale: Scale) -> Inputs {
    let root = Rng::new(seed);
    let n = scale.rows(SCAN_ROWS);
    let schema = scan_schema();

    // `region` is clustered (contiguous eighths) so zone maps have
    // something to prove; `c1`/`c2` are high-cardinality noise: with
    // 8 x 128^3 possible tuples nearly every row is distinct, far more
    // than the scorer memo holds.
    let mut rng = root.fork(1);
    let mut columns = (0..6).map(|_| Vec::with_capacity(n)).collect::<Vec<_>>();
    for i in 0..n {
        let row = scan_row(&mut rng, (i * 8 / n) as Member, i % 2 == 1);
        for (col, m) in columns.iter_mut().zip(row) {
            col.push(m);
        }
    }
    let table = TableData {
        name: "events",
        schema: schema.clone(),
        columns,
    };

    let train = TableData {
        name: "events_train",
        schema,
        columns: scan_train(&mut Rng::new(TRAINING_SEED).fork(2)),
    };

    let models = vec![
        ModelSpec::NaiveBayes {
            name: "nb",
            label: 4,
            max_disjuncts: SCAN_MAX_DISJUNCTS,
        },
        ModelSpec::NaiveBayes {
            name: "nb2",
            label: 5,
            max_disjuncts: SCAN_MAX_DISJUNCTS,
        },
        ModelSpec::KMeans {
            name: "km",
            k: 4,
            max_disjuncts: SCAN_MAX_DISJUNCTS,
        },
    ];

    // 16 statements whose mining predicates stay in the plan: naive
    // Bayes and k-means envelopes are not exact, and model agreement
    // never compiles.
    let mut rng = root.fork(3);
    let mut pool = Vec::new();
    // Half the noise column's members, wherever the seed puts them:
    // the same share of rows for every seed.
    let range = |rng: &mut Rng, col: &str| {
        let lo = rng.below(u64::from(NOISE_CARD) / 2);
        format!(
            "{col} BETWEEN {} AND {}",
            lit(lo),
            lit(lo + u64::from(NOISE_CARD) / 2 - 1)
        )
    };
    for classes in [
        "= 'neg'",
        "= 'pos'",
        "= 'tie_a'",
        "IN ('tie_a', 'pos')",
        "IN ('tie_a', 'neg')",
    ] {
        pool.push(format!(
            "SELECT * FROM events WHERE PREDICT(nb) {classes} AND {}",
            range(&mut rng, "c1")
        ));
    }
    // Every pair of clusters once, so each cluster is asked for
    // equally often however the seed-free training run sized them.
    for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)] {
        pool.push(format!(
            "SELECT * FROM events WHERE PREDICT(km) IN ('cluster_{a}', 'cluster_{b}') AND {}",
            range(&mut rng, "c2")
        ));
    }
    for _ in 0..5 {
        pool.push(format!(
            "SELECT * FROM events WHERE PREDICT(nb) = PREDICT(nb2) AND {}",
            range(&mut rng, "c1")
        ));
    }
    let sequence = sequence(&mut root.fork(4), pool.len());

    Inputs {
        table,
        train,
        indexes: Vec::new(),
        models,
        pool,
        sequence,
        subscriptions: Vec::new(),
        inserts: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// wire_point / wire_wide (one table, two statement pools)
// ---------------------------------------------------------------------

const K1_CARD: u16 = 1024;
const K2_CARD: u16 = 512;
const DAY_CARD: u16 = 256;
const AMOUNT_CARD: u16 = 64;

fn wire_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("k1", binned(K1_CARD)),
        Attribute::new("k2", binned(K2_CARD)),
        Attribute::new("day", binned(DAY_CARD)),
        Attribute::new("seg", categorical("s", 8)),
        Attribute::new("amount", binned(AMOUNT_CARD)),
        Attribute::new("label", AttrDomain::categorical(["lo", "hi"])),
    ])
    .expect("distinct column names")
}

fn wire_row(rng: &mut Rng, day: Member) -> [Member; 6] {
    let seg = rng.member(8);
    let amount = rng.member(AMOUNT_CARD);
    // A concept a decision tree learns exactly, so `PREDICT(risk)`
    // compiles out of every plan.
    let label = Member::from(amount >= 40 && seg != 3);
    // `k1` follows `day` (an order number next to its date): its rows
    // sit on a few neighbouring pages, so whichever access path the
    // optimizer picks for a `k1` lookup — index seek or zone-pruned
    // scan — the lookup reads a handful of pages.
    let k1 = day * (K1_CARD / DAY_CARD) + rng.member(K1_CARD / DAY_CARD);
    [k1, rng.member(K2_CARD), day, seg, amount, label]
}

fn wire_tables(root: &Rng, scale: Scale) -> (TableData, TableData) {
    let n = scale.rows(WIRE_ROWS);
    let schema = wire_schema();
    let mut rng = root.fork(1);
    let mut columns = (0..6).map(|_| Vec::with_capacity(n)).collect::<Vec<_>>();
    for i in 0..n {
        // `day` ascends with the row id: the clustered column.
        let row = wire_row(&mut rng, (i * usize::from(DAY_CARD) / n) as Member);
        for (col, m) in columns.iter_mut().zip(row) {
            col.push(m);
        }
    }
    let table = TableData {
        name: "accounts",
        schema: schema.clone(),
        columns,
    };
    let mut rng = Rng::new(TRAINING_SEED).fork(2);
    let mut columns = (0..6)
        .map(|_| Vec::with_capacity(TRAIN_ROWS))
        .collect::<Vec<_>>();
    for i in 0..TRAIN_ROWS {
        let row = wire_row(&mut rng, (i % usize::from(DAY_CARD)) as Member);
        for (col, m) in columns.iter_mut().zip(row) {
            col.push(m);
        }
    }
    (
        table,
        TableData {
            name: "accounts_train",
            schema,
            columns,
        },
    )
}

fn wire_inputs(
    seed: u64,
    scale: Scale,
    pool: impl FnOnce(&mut Rng, usize) -> Vec<String>,
) -> Inputs {
    let root = Rng::new(seed);
    let (table, train) = wire_tables(&root, scale);
    let pool = pool(&mut root.fork(3), table.n_rows());
    let sequence = sequence(&mut root.fork(4), pool.len());
    Inputs {
        table,
        train,
        // Composite: a seek then fetches only rows matching both
        // columns, which is what makes the optimizer prefer it to a
        // zone-pruned scan on these unclustered keys.
        indexes: vec![vec![0, 3], vec![1, 4]],
        models: vec![ModelSpec::Sql(
            "CREATE MINING MODEL risk ON accounts_train PREDICT label USING decision_tree"
                .to_string(),
        )],
        pool,
        sequence,
        subscriptions: Vec::new(),
        inserts: Vec::new(),
    }
}

/// Distinct members of `0..card`, in draw order.
fn distinct(rng: &mut Rng, card: u16, n: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(n);
    while out.len() < n {
        let m = rng.below(u64::from(card));
        if !out.contains(&m) {
            out.push(m);
        }
    }
    out
}

pub fn wire_point(seed: u64, scale: Scale) -> Inputs {
    wire_inputs(seed, scale, |rng, n_rows| {
        // Widths are chosen so a statement expects ~20 rows at any
        // table size (64 is the cap the workload promises).
        let per_k1_seg = n_rows as f64 / f64::from(K1_CARD) / 8.0;
        let per_day = n_rows as f64 / f64::from(DAY_CARD);
        let n_segs = (20.0 / per_k1_seg).clamp(1.0, 7.0) as usize;
        let seg_list = |first: usize| -> String {
            // Never 's3': the tree predicts 'lo' for all of it.
            let segs: Vec<String> = (0..n_segs)
                .map(|j| format!("'s{}'", [0, 1, 2, 4, 5, 6, 7][(first + j) % 7]))
                .collect();
            segs.join(", ")
        };
        let mut pool = Vec::with_capacity(64);
        // Lookups on `k1`, plain and under a tree predicate that
        // compiles out to two more atoms: seeks on the (k1, seg) index
        // or zone-pruned scans, as the optimizer's feedback decides.
        for (i, m) in distinct(rng, K1_CARD, 40).into_iter().enumerate() {
            let tree = if i < 24 {
                ""
            } else {
                "PREDICT(risk) = 'hi' AND "
            };
            pool.push(format!(
                "SELECT * FROM accounts WHERE {tree}k1 = {} AND seg IN ({})",
                lit(m),
                seg_list(i)
            ));
        }
        // Short ranges on the same key with a second filter.
        for m in distinct(rng, K1_CARD - 4, 12) {
            pool.push(format!(
                "SELECT * FROM accounts WHERE k1 BETWEEN {} AND {} AND amount = {}",
                lit(m),
                lit(m + 3),
                lit(rng.below(u64::from(AMOUNT_CARD)))
            ));
        }
        // Ranges the clustered column's zone maps prune to a few pages.
        let k2_width = ((20.0 / per_day) * f64::from(K2_CARD)).clamp(1.0, 511.0) as u64;
        for m in distinct(rng, DAY_CARD, 12) {
            let lo = rng.below(u64::from(K2_CARD) - k2_width);
            pool.push(format!(
                "SELECT * FROM accounts WHERE day = {} AND k2 BETWEEN {} AND {}",
                lit(m),
                lit(lo),
                lit(lo + k2_width - 1)
            ));
        }
        pool
    })
}

pub fn wire_wide(seed: u64, scale: Scale) -> Inputs {
    wire_inputs(seed, scale, |rng, _| {
        // 8 statements returning 10-50% of the table each, through
        // plain and compiled-out predicates: the scan is cheap next to
        // shipping the row ids. The share each returns is fixed; the
        // seed only moves where in the domain it sits.
        let seg = rng.below(8);
        let window = |rng: &mut Rng, col: &str, card: u16, share: u64| {
            let width = u64::from(card) * share / 100;
            let lo = rng.below(u64::from(card) - width + 1);
            format!("{col} BETWEEN {} AND {}", lit(lo), lit(lo + width - 1))
        };
        vec![
            format!(
                "SELECT * FROM accounts WHERE seg IN ('s{seg}', 's{}')",
                (seg + 3) % 8
            ),
            format!(
                "SELECT * FROM accounts WHERE {}",
                window(rng, "amount", AMOUNT_CARD, 25)
            ),
            "SELECT * FROM accounts WHERE PREDICT(risk) = 'hi'".to_string(),
            format!(
                "SELECT * FROM accounts WHERE {}",
                window(rng, "day", DAY_CARD, 25)
            ),
            format!(
                "SELECT * FROM accounts WHERE {}",
                window(rng, "k2", K2_CARD, 40)
            ),
            format!(
                "SELECT * FROM accounts WHERE PREDICT(risk) = 'lo' AND {}",
                window(rng, "k2", K2_CARD, 50)
            ),
            format!(
                "SELECT * FROM accounts WHERE PREDICT(risk) = 'hi' OR {}",
                window(rng, "k2", K2_CARD, 12)
            ),
            format!(
                "SELECT * FROM accounts WHERE {}",
                window(rng, "k1", K1_CARD, 15)
            ),
        ]
    })
}

// ---------------------------------------------------------------------
// mixed_rw
// ---------------------------------------------------------------------

const SEG_CARD: u16 = 64;
const BAND_CARD: u16 = 128;
const KEY_CARD: u16 = 1024;
/// Keys at or above this member are only ever inserted, never present
/// at set-up and never queried, so a read's row count does not depend
/// on how far the writer has got.
const KEY_INSERT_FROM: u16 = 896;

fn mixed_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("seg", categorical("s", SEG_CARD)),
        Attribute::new("band", binned(BAND_CARD)),
        Attribute::new("flag", AttrDomain::categorical(["no", "yes"])),
        Attribute::new("key", binned(KEY_CARD)),
        Attribute::new("label", AttrDomain::categorical(["neg", "pos"])),
    ])
    .expect("distinct column names")
}

fn mixed_row(rng: &mut Rng, key_from: u16, key_to: u16) -> [Member; 5] {
    let seg = rng.member(SEG_CARD);
    let band = rng.member(BAND_CARD);
    let label = Member::from(band < 32 && seg != 7);
    [
        seg,
        band,
        rng.member(2),
        key_from + rng.member(key_to - key_from),
        label,
    ]
}

fn mixed_table(rng: &mut Rng, name: &'static str, n: usize) -> TableData {
    let mut columns = (0..5).map(|_| Vec::with_capacity(n)).collect::<Vec<_>>();
    for _ in 0..n {
        for (col, m) in columns.iter_mut().zip(mixed_row(rng, 0, KEY_INSERT_FROM)) {
            col.push(m);
        }
    }
    TableData {
        name,
        schema: mixed_schema(),
        columns,
    }
}

/// Encoded size of one row as the program stores it (a `u16` member
/// per column): the "user bytes" of `stored_bytes_per_user_byte`.
pub fn mixed_row_bytes() -> u64 {
    5 * std::mem::size_of::<Member>() as u64
}

pub fn mixed_rw(seed: u64, scale: Scale) -> Inputs {
    let root = Rng::new(seed);
    let table = mixed_table(&mut root.fork(1), "events", scale.rows(MIXED_ROWS));
    let train = mixed_table(
        &mut Rng::new(TRAINING_SEED).fork(2),
        "events_train",
        TRAIN_ROWS,
    );

    // Reads: index seeks on `key` over the set-up key range.
    let mut rng = root.fork(3);
    let pool: Vec<String> = distinct(&mut rng, KEY_INSERT_FROM, 64)
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            let flag = ["no", "yes"][i % 2];
            format!(
                "SELECT * FROM events WHERE key = {} AND flag = '{flag}'",
                lit(m)
            )
        })
        .collect();
    let sequence = sequence(&mut root.fork(4), pool.len());

    // Subscriptions: each carries a one-member `seg` anchor the
    // inverted envelope index can post under, combined with plain band
    // ranges and compiled-out tree predicates in equal measure.
    let mut rng = root.fork(5);
    let subscriptions = (0..N_SUBSCRIPTIONS)
        .map(|i| {
            let seg = i % usize::from(SEG_CARD);
            let from = lit(rng.below(100));
            match i % 4 {
                0 => format!(
                    "SUBSCRIBE SELECT * FROM events WHERE seg = 's{seg}' AND band >= {from}"
                ),
                1 => format!(
                    "SUBSCRIBE SELECT * FROM events WHERE seg = 's{seg}' AND PREDICT(watch) = 'pos'"
                ),
                2 => format!(
                    "SUBSCRIBE SELECT * FROM events WHERE seg = 's{seg}' \
                     AND PREDICT(watch) = 'neg' AND flag = 'yes' AND band >= {from}"
                ),
                _ => format!(
                    "SUBSCRIBE SELECT * FROM events WHERE seg = 's{seg}' AND band <= {from} \
                     AND PREDICT(watch) = 'pos'"
                ),
            }
        })
        .collect();

    let mut rng = root.fork(6);
    let inserts = (0..INSERT_POOL)
        .map(|_| {
            let rows: Vec<String> = (0..ROWS_PER_INSERT)
                .map(|_| {
                    let [seg, band, flag, key, label] =
                        mixed_row(&mut rng, KEY_INSERT_FROM, KEY_CARD);
                    format!(
                        "('s{seg}', {}, '{}', {}, '{}')",
                        lit(u64::from(band)),
                        ["no", "yes"][usize::from(flag)],
                        lit(u64::from(key)),
                        ["neg", "pos"][usize::from(label)]
                    )
                })
                .collect();
            format!("INSERT INTO events VALUES {}", rows.join(", "))
        })
        .collect();

    Inputs {
        table,
        train,
        indexes: vec![vec![3, 2]],
        models: vec![ModelSpec::Sql(
            "CREATE MINING MODEL watch ON events_train PREDICT label USING decision_tree"
                .to_string(),
        )],
        pool,
        sequence,
        subscriptions,
        inserts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(7);
        for n in [1u64, 2, 3, 128, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }

    type Generator = fn(u64, Scale) -> Inputs;
    const GENERATORS: [(&str, Generator); 4] = [
        ("scan_cascade", scan_cascade),
        ("wire_point", wire_point),
        ("wire_wide", wire_wide),
        ("mixed_rw", mixed_rw),
    ];

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for (name, generate) in GENERATORS {
            let a = generate(11, Scale::Smoke);
            let b = generate(11, Scale::Smoke);
            let c = generate(12, Scale::Smoke);
            assert_eq!(a.hash(), b.hash(), "{name}: same seed must repeat");
            assert_eq!(a.table.columns, b.table.columns, "{name}");
            assert_eq!(a.sequence, b.sequence, "{name}");
            assert_ne!(a.hash(), c.hash(), "{name}: another seed must differ");
            assert_ne!(a.table.columns, c.table.columns, "{name}");
            assert_ne!(a.sequence, c.sequence, "{name}");
        }
    }

    #[test]
    fn pools_have_the_promised_sizes_and_no_duplicates() {
        for (name, generate) in GENERATORS {
            let inputs = generate(3, Scale::Smoke);
            let expect = match name {
                "scan_cascade" => 16,
                "wire_wide" => 8,
                _ => 64,
            };
            assert_eq!(inputs.pool.len(), expect, "{name}");
            let mut sorted = inputs.pool.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), expect, "{name}: statements must be distinct");
            assert!(inputs.sequence.iter().all(|&i| (i as usize) < expect));
        }
        let mixed = mixed_rw(3, Scale::Smoke);
        assert_eq!(mixed.subscriptions.len(), N_SUBSCRIPTIONS);
        assert_eq!(mixed.inserts.len(), INSERT_POOL);
    }

    #[test]
    fn tie_classes_get_identical_training_rows() {
        let inputs = scan_cascade(5, Scale::Smoke);
        let t = &inputs.train;
        let rows_of = |class: Member| -> Vec<Vec<Member>> {
            (0..t.n_rows())
                .filter(|&r| t.columns[4][r] == class)
                .map(|r| {
                    (0..6)
                        .filter(|&d| d != 4)
                        .map(|d| t.columns[d][r])
                        .collect()
                })
                .collect()
        };
        assert!(!rows_of(2).is_empty());
        assert_eq!(rows_of(2), rows_of(3));
    }
}
