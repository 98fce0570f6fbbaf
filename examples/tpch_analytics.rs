//! The TPC-H workload of Table 3 (T1–T8) on the synthetic generator,
//! side by side: semantic engine vs SQAK. This is a human-readable
//! version of the `aqks repro table5` output, showing the SQL both engines
//! emit, not just the answers.
//!
//! ```text
//! cargo run --example tpch_analytics
//! ```

use aqks::core::Engine;
use aqks::datasets::{generate_tpch, TpchConfig};
use aqks::sqak::Sqak;

const QUERIES: &[(&str, &str)] = &[
    ("T1", "order AVG amount"),
    ("T2", "MAX COUNT order GROUPBY nation"),
    ("T3", r#"COUNT order "royal olive""#),
    ("T4", r#"supplier MAX acctbal "yellow tomato""#),
    ("T5", r#"COUNT supplier "Indian black chocolate""#),
    ("T6", "COUNT part GROUPBY supplier"),
    ("T7", "COUNT order SUM amount GROUPBY mktsegment"),
    ("T8", r#"COUNT supplier "pink rose" "white rose""#),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = generate_tpch(&TpchConfig::small());
    println!("synthetic TPC-H: {} tuples\n", db.total_rows());

    let engine = Engine::new(db.clone())?;
    let sqak = Sqak::new(db);

    for (id, query) in QUERIES {
        println!("==== {id}: {query} ====\n");
        match engine.answer(query, 1) {
            Ok(answers) => {
                let a = &answers[0];
                println!(
                    "[ours] {}\n       -> {} answer(s)",
                    a.sql_text.replace('\n', "\n       "),
                    a.result.len()
                );
                for row in a.result.rows.iter().take(4) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("          {}", cells.join(" | "));
                }
                if a.result.len() > 4 {
                    println!("          ... ({} more)", a.result.len() - 4);
                }
            }
            Err(e) => println!("[ours] error: {e}"),
        }
        match sqak.generate(query) {
            Ok(g) => {
                let r = sqak.answer(query)?;
                println!(
                    "[sqak] {}\n       -> {} answer(s)",
                    g.sql_text.replace('\n', "\n       "),
                    r.len()
                );
            }
            Err(e) => println!("[sqak] N.A.: {e}"),
        }
        println!();
    }
    Ok(())
}
