//! # alvisp2p-perfbench
//!
//! The end-to-end benchmark of the AlvisP2P reproduction. Four workloads
//! (see [`workload::Workload`]) are generated from a seed and driven through
//! the public APIs of `alvisp2p-core`, `-dht`, `-textindex` and `-netsim` by
//! one client in a closed loop. The untraced run ([`e2e`]) reports the
//! end-to-end metrics and checks every answer against a twin network; the
//! traced run ([`trace`]) reports per-layer metrics from spans recorded
//! around the calls into each layer. `README.md` beside this crate says why
//! each workload exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod e2e;
pub mod report;
pub mod trace;
pub mod workload;
