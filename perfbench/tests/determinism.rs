//! The benchmark's own checks, at a tiny scale: count metrics repeat exactly
//! for a seed and move with it, metric names and units are well-formed, the
//! answer check passes, and the trace is a well-formed span tree.

use alvisp2p_perfbench::e2e::{self, Budget};
use alvisp2p_perfbench::report::Outcome;
use alvisp2p_perfbench::trace::{self, SpanName};
use alvisp2p_perfbench::workload::{Inputs, Shape, Workload};

const QUERIES: usize = 120;

/// Metrics that are counts of the program's work, not wall-clock times or
/// memory: they must repeat exactly for a seed.
fn counts(outcome: &Outcome) -> Vec<(String, u64)> {
    outcome
        .metrics
        .iter()
        .filter(|m| !matches!(m.unit, "ns" | "us" | "s" | "1/s" | "MB"))
        .filter(|m| m.name != "trace.spans")
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

fn untraced(workload: Workload, seed: u64) -> Outcome {
    let inputs = Inputs::generate(workload, Shape::tiny(), seed);
    e2e::run(&inputs, Budget::Queries(QUERIES), 2)
}

fn traced(workload: Workload, seed: u64) -> Outcome {
    let inputs = Inputs::generate(workload, Shape::tiny(), seed);
    trace::run(&inputs, Budget::Queries(QUERIES)).outcome
}

fn well_formed(outcome: &Outcome) {
    assert!(outcome.correct, "answer check failed: {outcome:?}");
    assert_eq!(outcome.attempted, QUERIES as u64);
    assert_eq!(outcome.failed, 0);
    for m in &outcome.metrics {
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "bad metric name {:?}",
            m.name
        );
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    let mut names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), outcome.metrics.len(), "duplicate metric names");
}

#[test]
fn count_metrics_repeat_for_a_seed_and_move_with_it() {
    for workload in Workload::ALL {
        for run in [untraced, traced] {
            let a = run(workload, 7);
            let b = run(workload, 7);
            let c = run(workload, 8);
            well_formed(&a);
            well_formed(&c);
            assert_eq!(
                counts(&a),
                counts(&b),
                "{} is not deterministic",
                workload.name()
            );
            assert_ne!(
                counts(&a),
                counts(&c),
                "{} ignores the seed",
                workload.name()
            );
        }
        let a = untraced(workload, 7);
        let c = untraced(workload, 8);
        assert_ne!(a.metric("bytes_per_query"), c.metric("bytes_per_query"));
    }
}

#[test]
fn untraced_run_reports_the_twelve_end_to_end_metrics() {
    let outcome = untraced(Workload::HdkMixed, 3);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "query_p50_us",
            "query_p99_us",
            "query_qps",
            "setup_s",
            "bytes_per_query",
            "messages_per_query",
            "hops_per_query",
            "recall_at_10",
            "complete_share",
            "index_bytes_per_doc",
            "storage_bytes_per_doc",
            "peak_rss_mb",
        ]
    );
    for m in &outcome.metrics {
        assert!(m.value > 0.0, "{} is zero", m.name);
    }
}

#[test]
fn lossy_workload_degrades_some_answers_and_still_passes_the_check() {
    let inputs = Inputs::generate(Workload::HdkLossy, Shape::tiny(), 5);
    for i in 0..4_000 {
        let crashed = inputs.crashed_at(i);
        assert_eq!(crashed.len(), 2);
        assert!(!crashed.contains(&inputs.origin(i)));
        assert!(inputs.origin(i) < Shape::tiny().peers);
    }
    let run = trace::run(&inputs, Budget::Queries(QUERIES));
    well_formed(&run.outcome);
    assert!(run.outcome.metric("fault.retries_per_query").unwrap() > 0.0);
}

#[test]
fn trace_is_a_span_tree_per_query() {
    let inputs = Inputs::generate(Workload::HdkMixed, Shape::tiny(), 4);
    let run = trace::run(&inputs, Budget::Queries(QUERIES));
    let spans = run.trace.spans();
    for name in SpanName::ALL {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no {} span",
            name.label()
        );
    }
    for s in spans {
        assert!(s.start <= s.end);
        match s.name {
            SpanName::Query => assert_eq!(s.parent, None),
            SpanName::Plan | SpanName::Probe | SpanName::Finish => {
                let parent = spans[s.parent.expect("child spans have a parent") as usize];
                assert_eq!(parent.name, SpanName::Query);
                assert_eq!(parent.query, s.query);
                assert!(parent.start <= s.start && s.end <= parent.end);
            }
            _ => {
                // Replays run after their query's spans closed.
                assert_eq!(s.parent, None);
                let root = spans
                    .iter()
                    .find(|r| r.name == SpanName::Query && r.query == s.query)
                    .expect("every replay belongs to a traced query");
                assert!(root.end <= s.start);
            }
        }
    }
    let queries = spans.iter().filter(|s| s.name == SpanName::Query).count();
    assert_eq!(queries, QUERIES);
}
