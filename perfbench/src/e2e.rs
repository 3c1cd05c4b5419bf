//! The untraced run: end-to-end metrics and the answer check.
//!
//! One client, one thread, closed loop: each query is sent through
//! `AlvisNetwork::execute` only after the previous one returned, with the
//! origin rotating over the live peers. Only `execute` is inside the timed
//! region; reference answers are computed before the loop and compared after
//! each query, outside its timing.

use crate::calib::{self, Calibration};
use crate::report::{median, peak_rss_mb, reset_peak_rss, LatencySummary, Metric, Outcome};
use crate::workload::{setup, Inputs, Variant};
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::request::{QueryRequest, ThresholdMode};
use alvisp2p_core::stats::overlap_at_k;
use alvisp2p_netsim::TrafficCategory;
use alvisp2p_textindex::bm25::ScoredDoc;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Top-k answers compared by the check: `k` of the default request.
pub const TOP_K: usize = 10;

/// How long a query loop runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Until this much wall-clock time has passed (at least one query).
    Time(Duration),
    /// Exactly this many queries.
    Queries(usize),
}

impl Budget {
    /// Whether the loop may start query number `done` at `elapsed`.
    pub fn allows(self, done: usize, elapsed: Duration) -> bool {
        match self {
            Budget::Time(limit) => done == 0 || elapsed < limit,
            Budget::Queries(n) => done < n,
        }
    }
}

/// The `i`-th request of the workload's closed loop.
pub fn request(inputs: &Inputs, i: usize) -> QueryRequest {
    let text = &inputs.queries[i % inputs.queries.len()];
    QueryRequest::new(text.clone()).from_peer(inputs.origin(i))
}

/// A ranked answer reduced to what the check compares: a hash of its doc ids
/// and score bits, in rank order.
pub fn answer_of(results: &[ScoredDoc]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in results {
        r.doc.hash(&mut h);
        r.score.to_bits().hash(&mut h);
    }
    results.len().hash(&mut h);
    h.finish()
}

/// What one query of the loop returned, reduced to what the run reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// [`answer_of`] the results; `None` when `execute` returned an error.
    pub answer: Option<u64>,
    /// Whether the answer covers its whole planned document frequency.
    pub complete: bool,
}

/// The result of a closed loop.
pub struct Loop {
    /// Per-query wall-clock latency in ns, rescaled to the nominal speed.
    pub latencies_ns: Vec<u64>,
    /// Per-query outcome.
    pub served: Vec<Served>,
    /// Sum of the per-query overlap@10 with the centralized engine.
    pub overlap_sum: f64,
    /// Overlay hops over all queries.
    pub hops: u64,
}

/// Reference top-10 of every distinct query text in the stream, from the
/// centralized engine.
pub fn references(net: &AlvisNetwork, inputs: &Inputs) -> BTreeMap<String, Vec<ScoredDoc>> {
    let mut refs = BTreeMap::new();
    for text in &inputs.queries {
        if !refs.contains_key(text) {
            refs.insert(text.clone(), net.reference_search(text, TOP_K));
        }
    }
    refs
}

/// Installs the fault plane of query `i` on a network that runs the
/// workload's faults, when a new crash phase starts there.
pub fn enter_phase(net: &mut AlvisNetwork, inputs: &Inputs, i: usize) {
    if inputs.phase_starts(i) {
        net.set_fault_plane(inputs.fault_plane(i));
    }
}

/// Runs the closed loop on `net` under `budget`. With `faults`, the
/// workload's fault plane follows the crash phases of the stream. With
/// `refs`, each answer's overlap@10 with its reference is summed.
pub fn run_loop(
    net: &mut AlvisNetwork,
    inputs: &Inputs,
    budget: Budget,
    faults: bool,
    refs: Option<&BTreeMap<String, Vec<ScoredDoc>>>,
) -> Loop {
    let start = Instant::now();
    let mut calibration = Calibration::new(start);
    let mut raw: Vec<(u64, u64)> = Vec::new();
    let mut served = Vec::new();
    let mut overlap_sum = 0.0;
    let mut hops = 0u64;
    while budget.allows(served.len(), start.elapsed()) {
        let i = served.len();
        if i.is_multiple_of(calib::EVERY) {
            calibration.sample();
        }
        if faults {
            enter_phase(net, inputs, i);
        }
        let req = request(inputs, i);
        let t0 = Instant::now();
        let response = net.execute(&req);
        let ns = t0.elapsed().as_nanos() as u64;
        raw.push(((t0 - start).as_nanos() as u64, ns));
        served.push(match response {
            Ok(r) => {
                if let Some(reference) = refs.and_then(|refs| refs.get(&req.text)) {
                    overlap_sum += overlap_at_k(&r.results, reference, TOP_K);
                }
                hops += r.hops as u64;
                Served {
                    answer: Some(answer_of(&r.results)),
                    complete: !r.completeness.is_degraded(),
                }
            }
            Err(_) => Served {
                answer: None,
                complete: false,
            },
        });
    }
    calibration.sample();
    let latencies_ns = raw
        .iter()
        .map(|&(at, ns)| calibration.rescale(at, ns))
        .collect();
    Loop {
        latencies_ns,
        served,
        overlap_sum,
        hops,
    }
}

/// Replays the requests of `served` on `twin` with thresholding off and
/// counts the answers that fail the check: an error on either side, or
/// different top-k. On the lossy workload only complete answers are
/// compared: a degraded answer may legitimately differ.
pub fn mismatches(twin: &mut AlvisNetwork, inputs: &Inputs, served: &[Served]) -> u64 {
    let mut count = 0;
    for (i, s) in served.iter().enumerate() {
        let req = request(inputs, i).threshold_mode(ThresholdMode::Off);
        let reference = twin.execute(&req).ok().map(|r| answer_of(&r.results));
        let compared = !inputs.workload.is_lossy() || s.complete;
        if s.answer.is_none() || reference.is_none() || (compared && s.answer != reference) {
            count += 1;
        }
    }
    count
}

/// Bytes of the setup-time categories (Indexing + Ranking + Overlay).
fn index_bytes(net: &AlvisNetwork) -> u64 {
    let t = net.traffic_snapshot();
    [
        TrafficCategory::Indexing,
        TrafficCategory::Ranking,
        TrafficCategory::Overlay,
    ]
    .iter()
    .map(|c| t.category(*c).bytes)
    .sum()
}

/// Runs the untraced benchmark: the subject's set-up and closed loop under
/// `budget`, then the answer check against a twin queried with
/// [`ThresholdMode::Off`], then more set-ups until `setups` have been timed
/// (`setup_s` is their median).
///
/// The twin is built exactly like the subject, so its set-up is one of the
/// timed ones; on the lossy workload it is then queried without the fault
/// plane ([`Variant::SameIndex`]).
pub fn run(inputs: &Inputs, budget: Budget, setups: usize) -> Outcome {
    reset_peak_rss();
    let (mut net, s) = setup(inputs, Variant::Subject);
    let mut setup_s = vec![s.total_s()];
    let index_bytes = index_bytes(&net);
    let refs = references(&net, inputs);

    let before = net.traffic_snapshot();
    let run = run_loop(&mut net, inputs, budget, true, Some(&refs));
    let traffic = net.traffic_snapshot().since(&before);
    let storage_bytes = net.global_index().total_storage_bytes();
    let peak_rss = peak_rss_mb().expect("/proc/self/status reports VmHWM");
    drop(net);

    let (mut twin, s) = setup(inputs, Variant::SameIndex);
    setup_s.push(s.total_s());
    let mismatches = mismatches(&mut twin, inputs, &run.served);
    drop(twin);
    while setup_s.len() < setups {
        setup_s.push(setup(inputs, Variant::Subject).1.total_s());
    }

    let n = run.served.len();
    let q = n as f64;
    let complete = run.served.iter().filter(|s| s.complete).count();
    let latency = LatencySummary::of(&run.latencies_ns);
    let docs = inputs.corpus.len() as f64;
    if mismatches > 0 {
        eprintln!(
            "perfbench: {mismatches} of {n} answers failed the check on {}",
            inputs.workload.name()
        );
    }
    let metrics = vec![
        Metric::new("query_p50_us", latency.p50_ns / 1e3, "us"),
        Metric::new("query_p99_us", latency.p99_ns / 1e3, "us"),
        Metric::new("query_qps", 1e9 / latency.mean_ns, "1/s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("bytes_per_query", traffic.bytes_sent() as f64 / q, "B"),
        Metric::new(
            "messages_per_query",
            traffic.messages_sent() as f64 / q,
            "count",
        ),
        Metric::new("hops_per_query", run.hops as f64 / q, "count"),
        Metric::new("recall_at_10", run.overlap_sum / q, "ratio"),
        Metric::new("complete_share", complete as f64 / q, "ratio"),
        Metric::new("index_bytes_per_doc", index_bytes as f64 / docs, "B"),
        Metric::new("storage_bytes_per_doc", storage_bytes as f64 / docs, "B"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    Outcome {
        correct: mismatches == 0,
        attempted: n as u64,
        failed: mismatches,
        metrics,
    }
}
