//! Fixed-seed fuzz of the governed engine boundary: arbitrary keyword
//! strings — valid, malformed, adversarial — pushed through
//! [`Engine::run`] under a tight budget must always come
//! back as either a governed result or a *typed* error. In particular
//! `CoreError::Internal` (the panic shield's variant) must never appear:
//! that would mean some input panicked the pipeline.
//!
//! The generator is SplitMix64 with a fixed seed (the same style as
//! `tests/properties.rs`), so every run exercises the identical case
//! set and a failure reproduces deterministically.

use std::time::Duration;

use aqks::core::{AnswerRequest, Budget, CoreError, Engine};
use aqks::datasets::university;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Tokens mixing real university-dataset vocabulary, operators (legal
/// and dangling), unmatched junk, quotes, and pathological strings.
const TOKENS: [&str; 24] = [
    "Green",
    "George",
    "Java",
    "Credit",
    "Price",
    "Course",
    "Student",
    "Lecturer",
    "SUM",
    "COUNT",
    "AVG",
    "MIN",
    "MAX",
    "GROUPBY",
    "zebra",
    "\"royal",
    "olive\"",
    "\"\"",
    "&!@#$%",
    "0",
    "-1",
    "héllo",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    "GROUPBY GROUPBY",
];

fn arb_query(rng: &mut Rng) -> String {
    let n = rng.below(7); // 0..=6 tokens; empty queries included
    (0..n).map(|_| TOKENS[rng.below(TOKENS.len())]).collect::<Vec<_>>().join(" ")
}

#[test]
fn governed_answer_never_panics_on_arbitrary_input() {
    let engine = Engine::new(university::normalized()).unwrap();
    let budget = Budget::unlimited()
        .with_timeout(Duration::from_millis(50))
        .with_max_rows(10_000)
        .with_max_patterns(100)
        .with_max_interpretations(5);
    let req = AnswerRequest { k: 3, budget, trace: false };
    let mut rng = Rng(0xA7_5EED);
    let mut answered = 0;
    let mut exhausted = 0;
    let mut errored = 0;
    for case in 0..400 {
        let q = arb_query(&mut rng);
        match engine.run(&q, &req) {
            Ok(g) => {
                if g.exhaustion.is_some() {
                    exhausted += 1;
                } else {
                    answered += 1;
                }
                // Partiality bookkeeping stays coherent on junk input.
                if let Some(ex) = g.exhaustion {
                    assert_eq!(
                        ex.partial,
                        !g.interpretations.is_empty(),
                        "case {case} `{q}`: {ex:?}"
                    );
                }
            }
            Err(CoreError::Internal(m)) => {
                panic!("case {case} `{q}`: pipeline panicked under the shield: {m}")
            }
            Err(CoreError::Budget(t)) => {
                panic!("case {case} `{q}`: raw Budget error escaped the governed path: {t}")
            }
            Err(_) => errored += 1, // typed Parse/NoMatch/BadOperand/NoPattern…
        }
    }
    // The token mix must actually exercise all three regimes.
    assert!(answered > 0, "some fuzz cases answered ({answered}/{errored}/{exhausted})");
    assert!(errored > 0, "some fuzz cases errored ({answered}/{errored}/{exhausted})");
}

/// The same sweep under a zero deadline: every interpretable query
/// exhausts instead of erroring, and nothing panics.
#[test]
fn zero_deadline_fuzz_always_returns_structured_exhaustion() {
    let engine = Engine::new(university::normalized()).unwrap();
    let req = AnswerRequest {
        k: 2,
        budget: Budget::unlimited().with_timeout(Duration::ZERO),
        trace: false,
    };
    let mut rng = Rng(0xBEEF);
    for case in 0..200 {
        let q = arb_query(&mut rng);
        match engine.run(&q, &req) {
            Ok(g) => {
                if let Some(ex) = g.exhaustion {
                    assert_eq!(ex.kind, aqks::guard::BudgetKind::Deadline, "case {case} `{q}`");
                }
            }
            Err(CoreError::Internal(m)) => panic!("case {case} `{q}`: panic under shield: {m}"),
            Err(_) => {} // parse/match errors can fire before any checkpoint
        }
    }
}
