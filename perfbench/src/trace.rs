//! The traced run: spans around the calls into each layer, recorded from the
//! benchmark's own code, and the per-layer metrics derived from them.
//!
//! A query is driven through the pull-style pipeline `execute` is made of
//! (`plan`, `stream`, `next_event` per probe, `finish`), so each layer
//! boundary gets a span. After the query's spans close, the benchmark
//! replays the public functions of the layers the pipeline calls internally
//! (analysis, routing, codec, merge) on the same inputs and records each
//! replay as its own span; a replay is never subtracted from a blocking span.

use crate::calib::{self, Calibration};
use crate::e2e::{answer_of, enter_phase, request, run_loop, Budget, Served, TOP_K};
use crate::report::{quantile, ratio, Metric, Outcome};
use crate::workload::{setup, Inputs, Variant};
use alvisp2p_core::codec::{decode_list, encode_list};
use alvisp2p_core::key::TermKey;
use alvisp2p_core::lattice::NodeOutcome;
use alvisp2p_core::network::AlvisNetwork;
use alvisp2p_core::posting::TruncatedPostingList;
use alvisp2p_core::ranking::merge_retrieved;
use alvisp2p_netsim::{TrafficCategory, TrafficStats};
use alvisp2p_textindex::Analyzer;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    /// The whole query: plan, stream, probes, finish.
    Query,
    /// `AlvisNetwork::plan`.
    Plan,
    /// One `QueryStream::next_event` that yielded a probe.
    Probe,
    /// `QueryStream::finish`.
    Finish,
    /// Replay of `Analyzer::analyze_query_ids`.
    ReplayAnalyze,
    /// Replay of `GlobalIndex::estimate_hops` for one probe.
    ReplayRoute,
    /// Replay of `encode_list` on one stored list.
    ReplayEncode,
    /// Replay of `decode_list` on that frame.
    ReplayDecode,
    /// Replay of `merge_retrieved` over the decoded lists.
    ReplayMerge,
}

impl SpanName {
    /// Every span name, in report order.
    pub const ALL: [SpanName; 9] = [
        SpanName::Query,
        SpanName::Plan,
        SpanName::Probe,
        SpanName::Finish,
        SpanName::ReplayAnalyze,
        SpanName::ReplayRoute,
        SpanName::ReplayEncode,
        SpanName::ReplayDecode,
        SpanName::ReplayMerge,
    ];

    /// The name written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Query => "query",
            SpanName::Plan => "plan",
            SpanName::Probe => "probe",
            SpanName::Finish => "finish",
            SpanName::ReplayAnalyze => "replay.analyze",
            SpanName::ReplayRoute => "replay.route",
            SpanName::ReplayEncode => "replay.encode",
            SpanName::ReplayDecode => "replay.decode",
            SpanName::ReplayMerge => "replay.merge",
        }
    }
}

/// One recorded span. Times are ns since the trace's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the span covers.
    pub name: SpanName,
    /// The query the span belongs to (its index in the loop).
    pub query: u32,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans kept in memory for the whole run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace starting now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Trace::close`].
    fn open(&mut self, name: SpanName, query: u32, parent: Option<u32>) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            query,
            parent,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        let end = self.now();
        self.spans[span as usize].end = end;
    }

    /// Runs `f` inside a new span.
    fn time<T>(
        &mut self,
        name: SpanName,
        query: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, query, parent);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, rescaled by `calibration`: its duration
    /// minus the part its children cover (children never overlap each other
    /// in this single-threaded trace).
    pub fn self_ns(&self, calibration: &Calibration) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| calibration.rescale(s.start, s.ns()))
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(own[i]);
            }
        }
        own
    }

    /// Rescaled durations (ns) of the root `query` spans, sorted.
    pub fn query_ns_sorted(&self, calibration: &Calibration) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == SpanName::Query)
            .map(|s| calibration.rescale(s.start, s.ns()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tquery\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.query,
                s.name.label(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Counts gathered beside the spans.
#[derive(Default)]
struct Counts {
    queries: u64,
    scheduled: u64,
    probes: u64,
    found: u64,
    hops: u64,
    frames: u64,
    frame_bytes: u64,
    frame_refs: u64,
    stored_refs: u64,
    elided_bytes: u64,
    skipped_blocks: u64,
    retries: u64,
    failed_probes: u64,
    hedged: u64,
    completeness: f64,
}

/// One traced query: the pipeline under spans, then the replays.
fn traced_query(
    net: &mut AlvisNetwork,
    inputs: &Inputs,
    i: usize,
    trace: &mut Trace,
    counts: &mut Counts,
    analyzer: &Analyzer,
) -> Served {
    let failed = Served {
        answer: None,
        complete: false,
    };
    let req = request(inputs, i);
    let q = i as u32;
    let root = trace.open(SpanName::Query, q, None);
    let plan = trace.time(SpanName::Plan, q, Some(root), || net.plan(&req));
    let Ok(plan) = plan else {
        trace.close(root);
        return failed;
    };
    let scheduled = plan.scheduled_probes();
    let Ok(mut stream) = net.stream(plan, req.clone()) else {
        trace.close(root);
        return failed;
    };
    // (key, floor, found) of every probe, for the replays.
    let mut probes: Vec<(TermKey, Option<f64>, bool)> = Vec::new();
    let mut hops = 0u64;
    loop {
        let span = trace.open(SpanName::Probe, q, Some(root));
        let Some(event) = stream.next_event() else {
            // The call that found the schedule exhausted is not a probe.
            trace.spans.pop();
            break;
        };
        trace.close(span);
        let Ok(event) = event else { break };
        hops += event.hops as u64;
        let found = matches!(event.outcome, NodeOutcome::Found { .. });
        probes.push((event.key, event.score_floor, found));
    }
    let response = trace.time(SpanName::Finish, q, Some(root), || stream.finish());
    trace.close(root);
    let Ok(response) = response else {
        return failed;
    };

    counts.queries += 1;
    counts.scheduled += scheduled as u64;
    counts.probes += probes.len() as u64;
    counts.found += probes.iter().filter(|p| p.2).count() as u64;
    counts.hops += hops;
    counts.elided_bytes += response.trace.elided_bytes;
    counts.skipped_blocks += response.trace.skipped_blocks as u64;
    counts.retries += response.retries as u64;
    counts.failed_probes += response.failed_probes as u64;
    counts.hedged += response.hedged as u64;
    counts.completeness += response.completeness.fraction();

    // Replays, after the query's spans have closed.
    trace.time(SpanName::ReplayAnalyze, q, None, || {
        black_box(analyzer.analyze_query_ids(black_box(&req.text)))
    });
    let global = net.global_index();
    for (key, _, _) in &probes {
        trace.time(SpanName::ReplayRoute, q, None, || {
            black_box(global.estimate_hops(req.origin, black_box(key)).ok())
        });
    }
    let mut lists: Vec<(TermKey, TruncatedPostingList)> = Vec::new();
    for (key, floor, found) in &probes {
        let Some(entry) = global.peek(key).filter(|e| e.activated && *found) else {
            continue;
        };
        let frame = trace.time(SpanName::ReplayEncode, q, None, || {
            encode_list(black_box(&entry.postings), *floor)
        });
        let decoded = trace.time(SpanName::ReplayDecode, q, None, || {
            decode_list(black_box(&frame)).expect("a freshly encoded frame decodes")
        });
        counts.frames += 1;
        counts.frame_bytes += frame.len() as u64;
        counts.frame_refs += decoded.len() as u64;
        counts.stored_refs += entry.postings.len() as u64;
        lists.push((key.clone(), decoded));
    }
    trace.time(SpanName::ReplayMerge, q, None, || {
        black_box(merge_retrieved(black_box(&lists), TOP_K))
    });
    Served {
        answer: Some(answer_of(&response.results)),
        complete: !response.completeness.is_degraded(),
    }
}

/// Per-category traffic of the loop, per query.
fn traffic_metrics(traffic: &TrafficStats, queries: f64, metrics: &mut Vec<Metric>) {
    for category in [
        TrafficCategory::Retrieval,
        TrafficCategory::Routing,
        TrafficCategory::Indexing,
        TrafficCategory::Overlay,
        TrafficCategory::Ranking,
    ] {
        let c = traffic.category(category);
        let label = category.label();
        metrics.push(Metric::new(
            format!("netsim.{label}.bytes_per_query"),
            ratio(c.bytes as f64, queries),
            "B",
        ));
        metrics.push(Metric::new(
            format!("netsim.{label}.messages_per_query"),
            ratio(c.messages as f64, queries),
            "count",
        ));
    }
}

/// Complete answers in `served` that differ from a network built and
/// queried with no fault plane at all: answers a lost publication changed
/// although they report full completeness. Zero on fault-free workloads.
fn divergent_complete(inputs: &Inputs, served: &[Served]) -> u64 {
    if !inputs.workload.is_lossy() {
        return 0;
    }
    let (mut reference, _) = setup(inputs, Variant::FaultFree);
    let plain = run_loop(
        &mut reference,
        inputs,
        Budget::Queries(served.len()),
        false,
        None,
    );
    served
        .iter()
        .zip(&plain.served)
        .filter(|(s, p)| s.complete && s.answer != p.answer)
        .count() as u64
}

/// The traced run's result: the per-layer outcome and the spans.
pub struct TracedRun {
    /// Per-layer metrics and the answer check.
    pub outcome: Outcome,
    /// Every span recorded.
    pub trace: Trace,
}

/// Runs the traced benchmark: a traced closed loop under `budget` on one
/// network, then the same queries untraced on an identically built twin. The
/// twin's answers must equal the traced ones bit for bit (tracing drives the
/// same pipeline `execute` runs), and the difference of the two p50s is the
/// tracing overhead. Timings are rescaled like the untraced run's (see
/// [`crate::calib`]).
pub fn run(inputs: &Inputs, budget: Budget) -> TracedRun {
    let (mut net, build) = setup(inputs, Variant::Subject);
    let analyzer = Analyzer::default();
    let mut trace = Trace::new();
    let mut calibration = Calibration::new(trace.epoch);
    let mut counts = Counts::default();
    let mut served: Vec<Served> = Vec::new();
    let qdi_before = net.qdi_report();
    let traffic_before = net.traffic_snapshot();
    let start = Instant::now();
    while budget.allows(served.len(), start.elapsed()) {
        let i = served.len();
        if i.is_multiple_of(calib::EVERY) {
            calibration.sample();
        }
        enter_phase(&mut net, inputs, i);
        served.push(traced_query(
            &mut net,
            inputs,
            i,
            &mut trace,
            &mut counts,
            &analyzer,
        ));
    }
    calibration.sample();
    let traffic = net.traffic_snapshot().since(&traffic_before);
    let qdi = net.qdi_report();
    drop(net);

    let (mut twin, _) = setup(inputs, Variant::Subject);
    let untraced = run_loop(&mut twin, inputs, Budget::Queries(served.len()), true, None);
    drop(twin);
    let mismatches = served
        .iter()
        .zip(&untraced.served)
        .filter(|(traced, plain)| traced.answer.is_none() || traced != plain)
        .count() as u64;
    let divergent = divergent_complete(inputs, &served);
    let mut untraced_sorted = untraced.latencies_ns;
    untraced_sorted.sort_unstable();
    let traced_p50 = quantile(&trace.query_ns_sorted(&calibration), 0.5) as f64 / 1e3;
    let untraced_p50 = quantile(&untraced_sorted, 0.5) as f64 / 1e3;

    // Mean rescaled self time per span name.
    let self_ns = trace.self_ns(&calibration);
    let mean = |name: SpanName| {
        let (sum, n) = trace
            .spans()
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .fold((0u64, 0u64), |(sum, n), (_, &ns)| (sum + ns, n + 1));
        ratio(sum as f64, n as f64)
    };
    let q = counts.queries as f64;
    let props = inputs.log_properties();
    let per_query = |v: u64| ratio(v as f64, q);
    let mut metrics = vec![
        Metric::new("textindex.analyze_ns", mean(SpanName::ReplayAnalyze), "ns"),
        Metric::new("plan.plan_ns", mean(SpanName::Plan), "ns"),
        Metric::new(
            "plan.scheduled_probes",
            per_query(counts.scheduled),
            "count",
        ),
        Metric::new("exec.probe_ns", mean(SpanName::Probe), "ns"),
        Metric::new("exec.probes_per_query", per_query(counts.probes), "count"),
        Metric::new(
            "exec.found_ratio",
            ratio(counts.found as f64, counts.probes as f64),
            "ratio",
        ),
        Metric::new("exec.finish_ns", mean(SpanName::Finish), "ns"),
        Metric::new("exec.self_ns", mean(SpanName::Query), "ns"),
        Metric::new("dht.route_ns", mean(SpanName::ReplayRoute), "ns"),
        Metric::new(
            "dht.hops_per_probe",
            ratio(counts.hops as f64, counts.probes as f64),
            "count",
        ),
        Metric::new("codec.encode_ns", mean(SpanName::ReplayEncode), "ns"),
        Metric::new("codec.decode_ns", mean(SpanName::ReplayDecode), "ns"),
        Metric::new(
            "codec.frame_bytes_per_probe",
            ratio(counts.frame_bytes as f64, counts.frames as f64),
            "B",
        ),
        Metric::new(
            "codec.refs_per_frame",
            ratio(counts.frame_refs as f64, counts.frames as f64),
            "count",
        ),
        Metric::new(
            "codec.elided_bytes_per_query",
            per_query(counts.elided_bytes),
            "B",
        ),
        Metric::new(
            "codec.skipped_blocks_per_query",
            per_query(counts.skipped_blocks),
            "count",
        ),
        Metric::new("ranking.merge_ns", mean(SpanName::ReplayMerge), "ns"),
        Metric::new("ranking.lists_per_query", per_query(counts.frames), "count"),
        Metric::new(
            "ranking.refs_merged_per_query",
            per_query(counts.frame_refs),
            "count",
        ),
        Metric::new(
            "strategy.activations_per_query",
            per_query(qdi.activations - qdi_before.activations),
            "count",
        ),
        Metric::new(
            "strategy.evictions_per_query",
            per_query(qdi.evictions - qdi_before.evictions),
            "count",
        ),
        Metric::new(
            "strategy.acquisition_bytes_per_query",
            per_query(qdi.acquisition_bytes - qdi_before.acquisition_bytes),
            "B",
        ),
        Metric::new(
            "fault.retries_per_query",
            per_query(counts.retries),
            "count",
        ),
        Metric::new(
            "fault.failed_probes_per_query",
            per_query(counts.failed_probes),
            "count",
        ),
        Metric::new("fault.hedged_per_query", per_query(counts.hedged), "count"),
        Metric::new(
            "fault.completeness_mean",
            ratio(counts.completeness, q),
            "ratio",
        ),
        Metric::new(
            "fault.republish_rounds",
            build.republish_rounds as f64,
            "count",
        ),
        Metric::new("fault.lost_publishes", build.lost_publishes as f64, "count"),
        Metric::new(
            "fault.pending_publishes",
            build.pending_publishes as f64,
            "count",
        ),
        Metric::new(
            "fault.divergent_complete_share",
            ratio(divergent as f64, served.len() as f64),
            "ratio",
        ),
    ];
    traffic_metrics(&traffic, q, &mut metrics);
    metrics.extend([
        Metric::new("network.assemble_s", build.assemble_s, "s"),
        Metric::new("network.build_index_s", build.build_index_s, "s"),
        Metric::new(
            "network.activated_keys",
            build.report.activated_keys as f64,
            "count",
        ),
        Metric::new(
            "network.indexing_bytes",
            build.report.indexing_bytes as f64,
            "B",
        ),
        Metric::new(
            "network.ranking_bytes",
            build.report.ranking_bytes as f64,
            "B",
        ),
        Metric::new("trace.query_p50_us", traced_p50, "us"),
        Metric::new("trace.untraced_p50_us", untraced_p50, "us"),
        Metric::new("trace.overhead_us", traced_p50 - untraced_p50, "us"),
        Metric::new("trace.spans", trace.spans().len() as f64, "count"),
        Metric::new(
            "trace.calibration_kernel_ns",
            calibration.median_kernel_ns(),
            "ns",
        ),
        Metric::new("workload.distinct_share", props.distinct_share, "ratio"),
        Metric::new("workload.three_term_share", props.three_term_share, "ratio"),
        Metric::new(
            "workload.stored_list_len",
            ratio(counts.stored_refs as f64, counts.frames as f64),
            "count",
        ),
    ]);
    TracedRun {
        outcome: Outcome {
            correct: mismatches == 0,
            attempted: served.len() as u64,
            failed: mismatches,
            metrics,
        },
        trace,
    }
}
