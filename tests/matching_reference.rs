//! Differential test of term matching. `Matcher::matches` runs on the
//! dictionary-encoded `MatchIndex`; the reference here is an independent
//! row-at-a-time matcher: row-level token postings, `contains_ci` on every
//! candidate row, and a `HashSet<Vec<Value>>` projection of the matching
//! rows onto the `pick_derived` key for unnormalized databases. Both must
//! produce identical `TermMatch` lists and the same `index.rows_verified`
//! / `index.tuples_matched` counters on every bundled database for
//! every term of T1–T8/A1–A8, every distinct stored token, and fixed-seed
//! random two-token phrases.

use std::collections::{BTreeMap, HashMap, HashSet};

use aqks::core::matching::pick_derived;
use aqks::core::{KeywordQuery, Matcher, TermMatch, TermRole};
use aqks::datasets::university;
use aqks::obs::Recorder;
use aqks::relational::{Database, NormalizedView, RelationSchema, Value};
use aqks_eval::workload::{
    acmdl_database, acmdl_prime_database, acmdl_queries, tpch_database, tpch_prime_database,
    tpch_queries, Scale,
};

fn tokenize(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty())
}

fn is_foreign_key_attr(rel: &RelationSchema, attr: &str) -> bool {
    rel.foreign_keys.iter().any(|fk| fk.attrs.iter().any(|a| a.eq_ignore_ascii_case(attr)))
}

/// The row-at-a-time reference matcher (value matches only; metadata
/// matching does not touch the index).
struct Reference<'a> {
    db: &'a Database,
    view: Option<NormalizedView>,
    /// token -> (relation, attribute) -> ascending row ids.
    postings: HashMap<String, HashMap<(usize, usize), Vec<usize>>>,
}

/// Value matches of one term plus the rows verified and matched.
struct Outcome {
    matches: Vec<TermMatch>,
    rows_verified: u64,
    tuples_matched: u64,
}

impl<'a> Reference<'a> {
    fn new(db: &'a Database) -> Self {
        let schema = db.schema();
        let view =
            (!NormalizedView::is_normalized(&schema)).then(|| NormalizedView::build(&schema));
        let mut postings: HashMap<String, HashMap<(usize, usize), Vec<usize>>> = HashMap::new();
        for (ri, table) in db.tables().iter().enumerate() {
            for (rowid, row) in table.rows().iter().enumerate() {
                for (ai, v) in row.iter().enumerate() {
                    if v.is_null() {
                        continue;
                    }
                    let text = v.to_string().to_lowercase();
                    let tokens: HashSet<&str> = tokenize(&text).collect();
                    for tok in tokens {
                        postings
                            .entry(tok.to_string())
                            .or_default()
                            .entry((ri, ai))
                            .or_default()
                            .push(rowid);
                    }
                }
            }
        }
        Reference { db, view, postings }
    }

    fn matcher(&self) -> Matcher {
        match &self.view {
            None => Matcher::normalized(self.db),
            Some(view) => Matcher::unnormalized(self.db, view.clone()),
        }
    }

    fn tokens(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.postings.keys().map(String::as_str).collect();
        out.sort_unstable();
        out
    }

    fn value_matches(&self, term: &str) -> Outcome {
        let mut outcome = Outcome { matches: Vec::new(), rows_verified: 0, tuples_matched: 0 };
        let lower = term.to_lowercase();
        let tokens: Vec<&str> = tokenize(&lower).collect();
        let Some((first, rest)) = tokens.split_first() else { return outcome };
        let Some(first) = self.postings.get(*first) else { return outcome };
        // (relation name, attribute name) -> matching rows, in name order.
        let mut hits: BTreeMap<(String, String), (usize, Vec<usize>)> = BTreeMap::new();
        for (&(ri, ai), rows) in first {
            let candidates: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|r| {
                    rest.iter().all(|t| {
                        self.postings
                            .get(*t)
                            .and_then(|p| p.get(&(ri, ai)))
                            .is_some_and(|rs| rs.binary_search(r).is_ok())
                    })
                })
                .collect();
            outcome.rows_verified += candidates.len() as u64;
            let table = &self.db.tables()[ri];
            let rows: Vec<usize> = candidates
                .into_iter()
                .filter(|&r| table.rows()[r][ai].contains_ci(&lower))
                .collect();
            outcome.tuples_matched += rows.len() as u64;
            if !rows.is_empty() {
                let attr = table.schema.attrs[ai].name.clone();
                hits.insert((table.schema.name.clone(), attr), (ri, rows));
            }
        }
        for ((relation, attribute), (ri, rows)) in hits {
            let table = &self.db.tables()[ri];
            let Some(view) = &self.view else {
                if !is_foreign_key_attr(&table.schema, &attribute) {
                    let tuple_count = rows.len();
                    outcome.matches.push(TermMatch::Value { relation, attribute, tuple_count });
                }
                continue;
            };
            if is_foreign_key_attr(&table.schema, &attribute) {
                continue;
            }
            let Some(derived) = pick_derived(view, &relation, &attribute) else { continue };
            let key: Vec<usize> = derived
                .schema
                .primary_key
                .iter()
                .map(|k| table.schema.attr_index(k).expect("derived key is a stored attribute"))
                .collect();
            let tuple_count = if key.is_empty() {
                rows.len()
            } else {
                let objects: HashSet<Vec<Value>> = rows
                    .iter()
                    .map(|&r| key.iter().map(|&i| table.rows()[r][i].clone()).collect())
                    .collect();
                objects.len()
            };
            let attribute =
                derived.schema.canonical_attr(&attribute).unwrap_or(&attribute).to_string();
            let relation = derived.schema.name.clone();
            outcome.matches.push(TermMatch::Value { relation, attribute, tuple_count });
        }
        outcome
    }
}

/// Runs `Matcher::matches` under a recording span and checks it against
/// the reference: metadata matches first, then exactly the reference's
/// value matches and index counters.
fn check(reference: &Reference<'_>, matcher: &Matcher, term: &str) {
    let rec = Recorder::enabled();
    let got = {
        let _s = rec.span("match");
        matcher.matches(reference.db, term, TermRole::Free)
    };
    let got = got.unwrap_or_else(|e| panic!("{term:?}: {e}"));
    let trace = rec.take();
    let span = trace.find("match").expect("match span recorded");
    let counter = |name: &str| span.counter(name).unwrap_or(0);
    let values: Vec<TermMatch> = got.iter().skip_while(|m| m.is_metadata()).cloned().collect();
    assert!(values.iter().all(|m| !m.is_metadata()), "{term:?}: metadata after values: {got:?}");
    let want = reference.value_matches(term);
    assert_eq!(values, want.matches, "{}: term {term:?}", reference.db.name);
    assert_eq!(counter("index.rows_verified"), want.rows_verified, "{term:?}");
    assert_eq!(counter("index.tuples_matched"), want.tuples_matched, "{term:?}");
}

/// xorshift64*: a fixed-seed generator, so every run checks the same
/// phrases.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

/// Two-token phrases: adjacent tokens of a random stored value (which
/// match when the value separates them by one space) and random token
/// pairs (which mostly share columns without forming the phrase).
fn random_phrases(db: &Database, tokens: &[&str], rng: &mut Rng, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(2 * n);
    let tables: Vec<_> = db.tables().iter().filter(|t| !t.is_empty()).collect();
    for _ in 0..20 * n {
        if out.len() == n {
            break;
        }
        let table = tables[rng.below(tables.len())];
        let row = &table.rows()[rng.below(table.len())];
        let text = row[rng.below(row.len())].to_string();
        let words: Vec<&str> = tokenize(&text).collect();
        if words.len() >= 2 {
            let i = rng.below(words.len() - 1);
            out.push(format!("{} {}", words[i], words[i + 1]));
        }
    }
    for _ in 0..n {
        out.push(format!(
            "{} {}",
            tokens[rng.below(tokens.len())],
            tokens[rng.below(tokens.len())]
        ));
    }
    out
}

fn databases() -> Vec<Database> {
    vec![
        university::normalized(),
        university::enrolment_fig8(),
        tpch_database(Scale::Small),
        tpch_prime_database(Scale::Small),
        acmdl_database(Scale::Small),
        acmdl_prime_database(Scale::Small),
    ]
}

#[test]
fn dictionary_matcher_agrees_with_row_at_a_time_reference() {
    let mut workload_terms: Vec<String> = Vec::new();
    for q in tpch_queries().iter().chain(&acmdl_queries()) {
        let parsed = KeywordQuery::parse(q.text).expect("workload query parses");
        workload_terms.extend(parsed.basic_terms().into_iter().map(|(_, t)| t.to_string()));
    }
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for db in databases() {
        let reference = Reference::new(&db);
        let matcher = reference.matcher();
        let tokens = reference.tokens();
        let phrases = random_phrases(&db, &tokens, &mut rng, 100);
        let terms = workload_terms.iter().map(String::as_str);
        for term in terms.chain(tokens.iter().copied()).chain(phrases.iter().map(String::as_str)) {
            check(&reference, &matcher, term);
        }
    }
}

/// The probe charges every candidate row to the row budget at
/// `index.verify`, as a row-at-a-time probe would: a cap one row below
/// what "supplier" verifies on TPC-H′ trips there, and the exact count
/// passes.
#[test]
fn row_budget_below_supplier_candidates_trips_at_index_verify() {
    let db = tpch_prime_database(Scale::Small);
    let reference = Reference::new(&db);
    let matcher = reference.matcher();
    let rows = reference.value_matches("supplier").rows_verified;
    assert!(rows > 1, "'supplier' matches every Ordering row");
    let run = |max_rows: u64| {
        let gov =
            aqks::guard::Governor::new(&aqks::guard::Budget::unlimited().with_max_rows(max_rows));
        let _g = aqks::guard::install(&gov);
        matcher.matches(&db, "supplier", TermRole::Free)
    };
    match run(rows - 1) {
        Err(aqks::relational::Error::Budget(t)) => {
            assert_eq!(t.kind, aqks::guard::BudgetKind::Rows);
            assert_eq!(t.site, "index.verify");
        }
        other => panic!("expected a row-budget trip, got {other:?}"),
    }
    assert!(run(rows).is_ok());
}
