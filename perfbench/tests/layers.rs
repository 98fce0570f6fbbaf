//! Per-layer numbers are read back from the span tree: a span's self
//! time is its duration minus its child spans, and operator spans are
//! grafted from the executor's `ExecStats`.

use std::time::{Duration, Instant};

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_obs::Recorder;
use aqks_perfbench::trace::{by_kind, graft_ops, request_layers};

#[test]
fn self_time_is_span_minus_children() {
    let rec = Recorder::enabled();
    let t0 = Instant::now();
    let us = Duration::from_micros;
    let root = rec.record_span(None, "req:0 q", t0, us(1000), &[]);
    rec.record_span(Some(&root), "parse", t0, us(10), &[]);
    let exec = rec.record_span(Some(&root), "exec", t0, us(900), &[("result_rows", 2)]);
    // An aggregate over a join of two scans; wall times are inclusive.
    let agg = rec.record_span(Some(&exec), "op:HashAggregate", t0, us(800), &[("rows_out", 2)]);
    let join = rec.record_span(Some(&agg), "op:HashJoin", t0, us(700), &[("rows_out", 50)]);
    rec.record_span(Some(&join), "op:Scan", t0, us(200), &[("rows_out", 40)]);
    rec.record_span(Some(&join), "op:Scan", t0, us(150), &[("rows_out", 30)]);

    let layers = request_layers(&rec.take());
    assert_eq!(layers.len(), 1);
    let r = &layers[0];
    assert_eq!(r.stage_us["parse"], 10.0);
    assert_eq!(r.stage_us["exec"], 900.0);
    assert_eq!(r.counters["result_rows"], 2);
    let kinds = by_kind(&layers);
    // HashAggregate: 800 - 700; HashJoin: 700 - (200 + 150); scans are
    // leaves.
    assert_eq!(kinds["HashAggregate"], (100.0, 2, 0));
    assert_eq!(kinds["HashJoin"], (350.0, 50, 0));
    assert_eq!(kinds["Scan"], (350.0, 70, 0));
}

#[test]
fn grafted_operators_mirror_the_plan_and_its_stats() {
    let engine = Engine::new(university::normalized()).unwrap();
    let answers = engine.answer("Green SUM Credit", 1).unwrap();
    let stats = &answers[0].stats;
    let plan = aqks_sqlgen::plan(&answers[0].sql, engine.database()).unwrap();

    let rec = Recorder::enabled();
    let t0 = Instant::now();
    let root = rec.record_span(None, "req:0 q", t0, stats.wall, &[]);
    let exec = rec.record_span(Some(&root), "exec", t0, stats.wall, &[]);
    graft_ops(&rec, &exec, &plan, stats, t0);
    let layers = request_layers(&rec.take());

    let ops = &layers[0].ops;
    assert_eq!(ops.len(), plan.node_count());
    let rows: u64 = ops.iter().map(|o| o.rows_out).sum();
    assert_eq!(rows, stats.rows_flowed());
    let self_total: f64 = ops.iter().map(|o| o.self_us).sum();
    // Inclusive operator times nest, so self times add up to the root
    // operator's wall time (to the nanosecond rounding of each span).
    let root_us = stats.ops[plan.id].wall.as_secs_f64() * 1e6;
    assert!(
        (self_total - root_us).abs() < 0.01 * ops.len() as f64 + 1e-6,
        "{self_total} vs {root_us}"
    );
}
