//! Seeded workload inputs, generated before anything is timed.
//!
//! The server only ever sees text: the CSV table, the rules text (the
//! constraints' `Display` form, which parses back) and pre-rendered `APPLY`
//! lines. Deltas are drawn sequentially from one RNG: every delta inserts
//! fresh `cust` tuples (5% with a wrong area code, like the base data's
//! noise) and deletes rows sampled from a live-row list, so every delete
//! hits a row that is live when the delta applies.

use crate::workload::Workload;
use ecfd_core::ECfd;
use ecfd_datagen::constraints::workload_with_scaled_constraint;
use ecfd_datagen::cust::clean_tuple;
use ecfd_datagen::{cust_schema, generate, items, CustConfig, GeoCatalog};
use ecfd_relation::{Relation, Tuple};
use ecfd_serve::protocol::{render_value, Request, TupleOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Insertions per `APPLY`.
pub const INSERTS_PER_DELTA: usize = 8;
/// Deletions per `APPLY`.
pub const DELETES_PER_DELTA: usize = 4;
/// Noise rate of the base table and of inserted tuples.
const NOISE_PERCENT: f64 = 5.0;

/// One pre-rendered delta.
pub struct DeltaInput {
    /// The `APPLY …` request line.
    pub line: String,
    /// The same ops, for the oracle.
    pub ops: Vec<TupleOp>,
}

/// Everything a run sends to the server.
pub struct Inputs {
    /// The constraints the rules text renders.
    pub constraints: Vec<ECfd>,
    /// `--csv` file contents.
    pub csv: String,
    /// `--constraints` file contents.
    pub rules: String,
    /// Deltas in the order the writer connection sends them.
    pub deltas: Vec<DeltaInput>,
}

/// Seed of the scaled tableau. The constraint set is part of a workload's
/// definition, like its schema; `--seed` varies the data and the deltas.
const TABLEAU_SEED: u64 = 42;

/// The constraint set of a workload: the 10 base constraints with the first
/// tableau scaled to `tp` pattern tuples.
pub fn constraints_for(tp: usize) -> Vec<ECfd> {
    workload_with_scaled_constraint(tp, TABLEAU_SEED)
}

/// Renders constraints as the text `Session::register_text` parses.
fn rules_text(constraints: &[ECfd]) -> String {
    let mut text = constraints
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    text.push('\n');
    text
}

impl Inputs {
    /// Generates the table, the rules and `num_deltas` deltas from `seed`.
    pub fn generate(workload: &Workload, seed: u64, num_deltas: usize) -> Inputs {
        let config = CustConfig {
            size: workload.rows,
            noise_percent: NOISE_PERCENT,
            seed,
            ..CustConfig::default()
        };
        let (relation, _) = generate(&config);
        let constraints = constraints_for(workload.tp);
        let csv = ecfd_relation::csv::to_csv(&relation);
        let rules = rules_text(&constraints);
        let deltas = generate_deltas(&relation, &config, seed, num_deltas);
        Inputs {
            constraints,
            csv,
            rules,
            deltas,
        }
    }
}

fn generate_deltas(
    relation: &Relation,
    config: &CustConfig,
    seed: u64,
    num_deltas: usize,
) -> Vec<DeltaInput> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_de17_a000_0000);
    let geo = GeoCatalog::with_extra_cities(config.extra_cities);
    let item_catalog = items::item_catalog(config.num_items.max(3));
    let schema = cust_schema();
    let ac = schema.attr_id("AC").expect("cust has AC");
    let ct = schema.attr_id("CT").expect("cust has CT");
    let render = |t: &Tuple| t.values().iter().map(render_value).collect::<Vec<_>>();
    let mut live: Vec<Vec<String>> = relation.tuples().map(render).collect();

    let mut deltas = Vec::with_capacity(num_deltas);
    for _ in 0..num_deltas {
        let mut ops = Vec::with_capacity(INSERTS_PER_DELTA + DELETES_PER_DELTA);
        let mut inserted = Vec::with_capacity(INSERTS_PER_DELTA);
        for _ in 0..INSERTS_PER_DELTA {
            let mut tuple = clean_tuple(&geo, &item_catalog, &mut rng);
            if rng.gen_bool(NOISE_PERCENT / 100.0) {
                let city_name = tuple
                    .value(ct)
                    .as_str()
                    .expect("CT is a string")
                    .to_string();
                let city = geo.city(&city_name).expect("generated city exists");
                tuple.set(ac, geo.wrong_area_code(city, &mut rng).into());
            }
            let values = render(&tuple);
            ops.push(TupleOp::insert(values.clone()));
            inserted.push(values);
        }
        // Deletions target rows live *before* this delta, so no op depends
        // on the order of ops inside one APPLY.
        for _ in 0..DELETES_PER_DELTA.min(live.len()) {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(TupleOp::delete(victim));
        }
        live.extend(inserted);
        let line = Request::Apply { ops: ops.clone() }.render();
        deltas.push(DeltaInput { line, ops });
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn same_seed_same_inputs_and_rules_parse_back() {
        let workload = Workload::named("fresh_tp160_20k").unwrap().scaled_to(300);
        let a = Inputs::generate(&workload, 7, 20);
        let b = Inputs::generate(&workload, 7, 20);
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.rules, b.rules);
        assert!(a
            .deltas
            .iter()
            .zip(&b.deltas)
            .all(|(x, y)| x.line == y.line));
        let parsed = ecfd_core::parse_ecfds(&a.rules).unwrap();
        assert_eq!(parsed, a.constraints);
    }
}
