//! The four workloads: their fixed shapes, input generation from a seed, and
//! network set-up.
//!
//! Input generation (corpus, query log, fault plane) happens here, before and
//! outside every timed region; set-up is timed by [`setup`].

use alvisp2p_bench::workloads;
use alvisp2p_core::fault::{FaultPlane, RetryPolicy};
use alvisp2p_core::network::{AlvisNetwork, IndexBuildReport};
use alvisp2p_core::strategy::{Hdk, Qdi, SingleTermFull, Strategy};
use alvisp2p_dht::{DhtConfig, HotKeyReplication};
use alvisp2p_netsim::SimRng;
use alvisp2p_textindex::{Analyzer, SyntheticCorpus};
use std::sync::Arc;
use std::time::Instant;

/// The named workloads, in the order the benchmark documents them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// HDK on the default corpus with mixed 2–3-term queries.
    HdkMixed,
    /// Single-term indexing with untruncated lists and head-term pair queries.
    LonglistPairs,
    /// QDI on the dense corpus with a drifting query log.
    QdiDrift,
    /// `HdkMixed`'s corpus and strategy under probe loss, publish loss and
    /// two crashed peers, with hot-key replication and retries.
    HdkLossy,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::HdkMixed,
        Workload::LonglistPairs,
        Workload::QdiDrift,
        Workload::HdkLossy,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HdkMixed => "hdk_mixed",
            Workload::LonglistPairs => "longlist_pairs",
            Workload::QdiDrift => "qdi_drift",
            Workload::HdkLossy => "hdk_lossy",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs under an active fault plane.
    pub fn is_lossy(self) -> bool {
        self == Workload::HdkLossy
    }
}

/// The size of a workload. Fixed per workload in the benchmark; the tests use
/// [`Shape::tiny`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Documents in the corpus.
    pub docs: usize,
    /// Peers in the network.
    pub peers: usize,
    /// Query instances in the stream (the closed loop cycles over it).
    pub log_len: usize,
    /// Independent query logs, of `log_len / sublogs` queries each, that
    /// the stream interleaves.
    pub sublogs: usize,
}

impl Shape {
    /// The benchmark's shape of `workload`.
    pub fn of(workload: Workload) -> Shape {
        let (log_len, sublogs) = match workload {
            Workload::HdkMixed => (20_000, 16),
            Workload::LonglistPairs => (3_000, 4),
            Workload::QdiDrift => (10_000, 8),
            Workload::HdkLossy => (12_000, 24),
        };
        Shape {
            docs: 1_200,
            peers: 64,
            log_len,
            sublogs,
        }
    }

    /// A small shape for tests.
    pub fn tiny() -> Shape {
        Shape {
            docs: 160,
            peers: 8,
            log_len: 240,
            sublogs: 2,
        }
    }
}

/// Seed of every workload's document collection, overlay and loss draws.
/// They are fixed, like a benchmark dataset and its deployment; the run
/// seed draws the query stream and `hdk_lossy`'s crashed peers.
pub const DATASET_SEED: u64 = workloads::DEFAULT_SEED;
/// Vocabulary cap of the dense corpus behind `longlist_pairs` and `qdi_drift`.
const DENSE_VOCAB: usize = 500;
/// Fault rates of `hdk_lossy`.
const PROBE_LOSS: f64 = 0.10;
const PUBLISH_LOSS: f64 = 0.05;
const CRASHED_PEERS: usize = 2;
/// Crashed pairs `hdk_lossy` rotates through, and queries per pair.
const CRASH_PHASES: usize = 16;
const PHASE_LEN: usize = 1_000;
/// Zipf exponent of `hdk_lossy`'s query log.
const LOSSY_ZIPF: f64 = 1.1;
/// Replication factor of `hdk_lossy`'s hot keys.
const REPLICAS: usize = 3;
/// Upper bound on re-publication rounds after a lossy build.
const MAX_REPUBLISH_ROUNDS: usize = 64;

/// Everything a run needs, generated from the seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Its shape.
    pub shape: Shape,
    /// The document collection.
    pub corpus: SyntheticCorpus,
    /// Query texts in stream order.
    pub queries: Vec<String>,
    /// The crashed peers of each phase of the stream (`hdk_lossy` only):
    /// query `i` runs in phase `(i / 1000) % phases`.
    pub crash_phases: Vec<Vec<usize>>,
}

impl Inputs {
    /// Generates the inputs of `workload` at `shape` from `seed`.
    pub fn generate(workload: Workload, shape: Shape, seed: u64) -> Inputs {
        let corpus = match workload {
            Workload::HdkMixed | Workload::HdkLossy => workloads::corpus(shape.docs, DATASET_SEED),
            Workload::LonglistPairs | Workload::QdiDrift => {
                workloads::dense_corpus(shape.docs, DENSE_VOCAB, DATASET_SEED)
            }
        };
        let sub_len = shape.log_len / shape.sublogs;
        let logs: Vec<Vec<String>> = (0..shape.sublogs as u64)
            .map(|j| {
                let seed = SimRng::new(seed).derive(j).gen_u64();
                let log = match workload {
                    Workload::HdkMixed => workloads::query_log(&corpus, sub_len, false, seed),
                    Workload::LonglistPairs => workloads::head_query_log(&corpus, sub_len, seed),
                    Workload::QdiDrift => workloads::query_log(&corpus, sub_len, true, seed),
                    Workload::HdkLossy => {
                        workloads::zipf_query_log(&corpus, sub_len, LOSSY_ZIPF, seed)
                    }
                };
                log.queries.into_iter().map(|q| q.text).collect()
            })
            .collect();
        // Round-robin, so every prefix of the stream samples every sub-log
        // equally and a drift point sits at the same place in all of them.
        let queries = (0..sub_len * shape.sublogs)
            .map(|i| logs[i % shape.sublogs][i / shape.sublogs].clone())
            .collect();
        let crash_phases = if workload.is_lossy() {
            let mut rng = SimRng::new(seed ^ 0xc4a5_4ed0);
            (0..CRASH_PHASES)
                .map(|_| {
                    let mut pair = rng.sample_indices(shape.peers, CRASHED_PEERS);
                    pair.sort_unstable();
                    pair
                })
                .collect()
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            shape,
            corpus,
            queries,
            crash_phases,
        }
    }

    /// The peers crashed while query `i` runs.
    pub fn crashed_at(&self, i: usize) -> &[usize] {
        if self.crash_phases.is_empty() {
            return &[];
        }
        &self.crash_phases[(i / PHASE_LEN) % self.crash_phases.len()]
    }

    /// Whether query `i` starts a new crash phase.
    pub fn phase_starts(&self, i: usize) -> bool {
        !self.crash_phases.is_empty() && i.is_multiple_of(PHASE_LEN)
    }

    /// The peer query `i` originates from: the origin rotates over the
    /// peers, skipping crashed ones (clients on dead machines are not part
    /// of the workload).
    pub fn origin(&self, i: usize) -> usize {
        let crashed = self.crashed_at(i);
        let live = self.shape.peers - crashed.len();
        let mut slot = i % live;
        for &peer in crashed {
            if peer <= slot {
                slot += 1;
            }
        }
        slot
    }

    /// The fault plane in force while query `i` runs (`NoFaults` on the
    /// fault-free workloads). Its loss draws are part of the fixed
    /// deployment, so every run builds the same index; which probes they hit
    /// depends on the stream, and the crashed pair on the run seed and the
    /// phase.
    pub fn fault_plane(&self, i: usize) -> FaultPlane {
        if !self.workload.is_lossy() {
            return FaultPlane::NoFaults;
        }
        let mut plane = FaultPlane::seeded(DATASET_SEED ^ 0xfa17)
            .with_loss(PROBE_LOSS)
            .with_publish_loss(PUBLISH_LOSS);
        for &peer in self.crashed_at(i) {
            plane.crash(peer);
        }
        plane
    }

    /// Properties of the query log that later claims may depend on.
    pub fn log_properties(&self) -> LogProperties {
        let mut distinct: Vec<&str> = self.queries.iter().map(String::as_str).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let analyzer = Analyzer::default();
        let multi = self
            .queries
            .iter()
            .filter(|q| analyzer.analyze_query(q).len() >= 3)
            .count();
        let n = self.queries.len().max(1) as f64;
        LogProperties {
            distinct_share: distinct.len() as f64 / n,
            three_term_share: multi as f64 / n,
        }
    }
}

/// Measured properties of a query log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogProperties {
    /// Distinct query texts over query instances.
    pub distinct_share: f64,
    /// Share of queries with three or more analyzed terms (non-laminar
    /// lattices).
    pub three_term_share: f64,
}

/// Which network of a workload to set up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The workload as specified (with its fault plane, if any).
    Subject,
    /// Built like the subject, so its index is the same, but the fault
    /// plane is removed before the first query: no probe is lost and no
    /// peer is down.
    SameIndex,
    /// Built and queried with no fault plane at all.
    FaultFree,
}

/// Wall-clock timings and reports of one set-up.
#[derive(Clone, Debug)]
pub struct Setup {
    /// `AlvisNetworkBuilder::build` (assembly plus corpus distribution).
    pub assemble_s: f64,
    /// `AlvisNetwork::build_index`.
    pub build_index_s: f64,
    /// Re-publication rounds until nothing is pending.
    pub republish_s: f64,
    /// Number of re-publication rounds run.
    pub republish_rounds: usize,
    /// Publications the fault plane dropped during `build_index`.
    pub lost_publishes: usize,
    /// Publications still pending when the rounds stopped.
    pub pending_publishes: usize,
    /// The index build report.
    pub report: IndexBuildReport,
}

impl Setup {
    /// Total set-up time.
    pub fn total_s(&self) -> f64 {
        self.assemble_s + self.build_index_s + self.republish_s
    }
}

fn strategy(workload: Workload) -> Arc<dyn Strategy> {
    match workload {
        Workload::HdkMixed | Workload::HdkLossy => Arc::new(Hdk::new(workloads::default_hdk())),
        Workload::LonglistPairs => Arc::new(SingleTermFull),
        Workload::QdiDrift => Arc::new(Qdi::new(workloads::default_qdi())),
    }
}

/// Builds, indexes and (under publish loss) repairs one network, timing each
/// step.
pub fn setup(inputs: &Inputs, variant: Variant) -> (AlvisNetwork, Setup) {
    let workload = inputs.workload;
    let mut builder = AlvisNetwork::builder()
        .peers(inputs.shape.peers)
        .dht(DhtConfig::default())
        .strategy_arc(strategy(workload))
        .seed(DATASET_SEED)
        .corpus(&inputs.corpus);
    if workload.is_lossy() {
        builder = builder
            .replication(Arc::new(HotKeyReplication::new(REPLICAS)))
            .retry_policy(RetryPolicy::default());
        if variant != Variant::FaultFree {
            builder = builder.faults(inputs.fault_plane(0));
        }
    }
    let t0 = Instant::now();
    let mut net = builder
        .build()
        .expect("benchmark network configuration is valid");
    let t1 = Instant::now();
    let report = net.build_index();
    let t2 = Instant::now();
    let lost_publishes = net.pending_publishes();
    let mut republish_rounds = 0;
    while net.pending_publishes() > 0 && republish_rounds < MAX_REPUBLISH_ROUNDS {
        net.republish_round();
        republish_rounds += 1;
    }
    let t3 = Instant::now();
    if variant == Variant::SameIndex {
        net.set_fault_plane(FaultPlane::NoFaults);
    }
    let setup = Setup {
        assemble_s: (t1 - t0).as_secs_f64(),
        build_index_s: (t2 - t1).as_secs_f64(),
        republish_s: (t3 - t2).as_secs_f64(),
        republish_rounds,
        lost_publishes,
        pending_publishes: net.pending_publishes(),
        report,
    };
    (net, setup)
}
