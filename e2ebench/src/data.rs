//! Seeded inputs: the synthetic fact tables and the analyst predicate
//! streams. Everything here is a pure function of the workload seed.

use memdb::{Expr, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seedb_core::AnalystQuery;
use seedb_data::{Categorical, CategoricalSampler, Plant, SyntheticSpec};

/// Name of the analysed table in every workload.
pub const TABLE: &str = "synthetic";

/// Shape of one synthetic fact table.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rows at set-up.
    pub rows: usize,
    /// Dimension attributes `d0..`.
    pub dims: usize,
    /// Distinct values per dimension (Zipf 1.0).
    pub card: usize,
    /// Measure attributes `m0..`.
    pub measures: usize,
}

impl Shape {
    /// The generator spec: subset `d0 = 'd0_0'` with deviations planted
    /// on `d1`, `d2` and measure `m0`, the same plant the repository's
    /// criterion benches use.
    pub fn spec(&self, seed: u64) -> SyntheticSpec {
        SyntheticSpec::knobs(self.rows, self.dims, self.card, 1.0, self.measures, seed).with_plant(
            Plant {
                subset_dim: 0,
                subset_value: 0,
                deviating_dims: vec![1, 2],
                deviating_measures: vec![(0, 30.0)],
            },
        )
    }

    /// `count` extra rows from the same distribution, for appends.
    pub fn append_pool(&self, seed: u64, count: usize) -> Table {
        let mut spec = self.spec(seed);
        spec.rows = count;
        spec.generate()
    }
}

/// `dJ = 'dJ_v'` over one of the `values` most frequent labels.
fn eq_pred(rng: &mut StdRng, shape: &Shape, values: usize) -> Expr {
    let dim = rng.gen_range(0..shape.dims);
    let value = rng.gen_range(0..values.min(shape.card));
    Expr::col(&format!("d{dim}")).eq(format!("d{dim}_{value}"))
}

/// A measure threshold `mI > t` with `t` drawn uniformly from
/// `[70, 110)` (measures are N(100, 20)): unique per draw, so a predicate
/// that carries one is never repeated.
fn threshold(rng: &mut StdRng, measure: usize) -> Expr {
    let t: f64 = 70.0 + 40.0 * rng.gen::<f64>();
    Expr::col(&format!("m{measure}")).gt(Value::Float(t))
}

/// A pool of `size` distinct equality predicates (the "hot set" that
/// analysts keep coming back to), most popular first. The pool at
/// popularity rank `i` filters a distinct, seeded dimension on its
/// `i % 4`-th most frequent label, so every seed's pool mixes the same
/// subset sizes in the same popularity order: the seed only decides
/// which dimensions are filtered on.
pub fn hot_pool(seed: u64, shape: &Shape, size: usize) -> Vec<AnalystQuery> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    // A seeded Fisher-Yates shuffle of the dimensions.
    let mut dims: Vec<usize> = (0..shape.dims).collect();
    for i in (1..dims.len()).rev() {
        dims.swap(i, rng.gen_range(0..=i));
    }
    assert!(size <= dims.len(), "hot pool larger than the dimensions");
    dims.iter()
        .take(size)
        .enumerate()
        .map(|(rank, dim)| {
            let value = rank % 4.min(shape.card);
            let pred = Expr::col(&format!("d{dim}")).eq(format!("d{dim}_{value}"));
            AnalystQuery::new(TABLE, Some(pred))
        })
        .collect()
}

/// What one analyst asks next.
pub enum Stream {
    /// Zipf(1.0) draws from a fixed pool: repeated keys.
    Hot {
        /// The pool, most popular first.
        pool: Vec<AnalystQuery>,
        /// Zipf sampler over pool indexes.
        zipf: CategoricalSampler,
    },
    /// A fresh `dJ = v AND mI > t` every time: no key repeats.
    Distinct {
        /// Table shape the predicates range over.
        shape: Shape,
    },
}

impl Stream {
    /// Zipf-drawn requests over `pool`.
    pub fn hot(pool: Vec<AnalystQuery>) -> Stream {
        let zipf = Categorical::Zipf {
            k: pool.len(),
            s: 1.0,
        }
        .sampler();
        Stream::Hot { pool, zipf }
    }

    /// The next request.
    pub fn next(&self, rng: &mut StdRng) -> AnalystQuery {
        match self {
            Stream::Hot { pool, zipf } => pool[zipf.sample(rng)].clone(),
            Stream::Distinct { shape } => {
                let eq = eq_pred(rng, shape, 4);
                let m = rng.gen_range(0..shape.measures);
                AnalystQuery::new(TABLE, Some(eq.and(threshold(rng, m))))
            }
        }
    }
}

/// The RNG of analyst (or writer) `who` under workload seed `seed`.
pub fn rng_for(seed: u64, who: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ who.wrapping_add(1))
}

/// FNV-1a digest of rows `[lo, hi)` of `table`, value by value.
pub fn digest_rows(table: &Table, lo: usize, hi: usize) -> u64 {
    let mut rows = Vec::with_capacity(hi.saturating_sub(lo));
    for i in lo..hi {
        rows.push(table.row(i));
    }
    digest(&rows)
}

/// FNV-1a digest of `rows`.
pub fn digest(rows: &[Vec<Value>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in rows {
        for v in row {
            match v {
                Value::Null => eat(&[0]),
                Value::Int(i) => {
                    eat(&[1]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[2]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[3]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Bool(b) => eat(&[4, u8::from(*b)]),
            }
        }
    }
    h
}

/// Bytes of user data in `rows`: 8 per number, the UTF-8 length of each
/// string (the denominator of the store's write-amplification ratios).
pub fn user_bytes(rows: &[Vec<Value>]) -> u64 {
    rows.iter()
        .flatten()
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
        })
        .sum()
}
