//! The unified error hierarchy of the public API.
//!
//! Every fallible operation on [`crate::network::AlvisNetwork`] and
//! [`crate::network::AlvisNetworkBuilder`] returns [`AlvisError`], which wraps
//! the overlay-level [`DhtError`] and adds the network- and request-level
//! failure modes. Callers match on one type instead of juggling per-layer
//! errors.

use crate::fault::FailureCause;
use alvisp2p_dht::DhtError;

/// Any error surfaced by the AlvisP2P public API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlvisError {
    /// The structured overlay failed (lookup exhaustion, empty network, bad
    /// origin node).
    Overlay(DhtError),
    /// A request referenced a peer index outside the network.
    NoSuchPeer {
        /// The requested origin peer.
        origin: usize,
        /// Number of peers in the network.
        peers: usize,
    },
    /// A [`crate::request::QueryRequest`] was malformed (e.g. `top_k == 0`).
    InvalidRequest(String),
    /// An [`crate::network::AlvisNetworkBuilder`] configuration was invalid.
    InvalidConfig(String),
    /// A single probe reached its key's responsible peer but returned no
    /// usable answer (see [`crate::global_index::GlobalIndex::probe`]).
    ProbeFailed(FailureCause),
}

impl From<DhtError> for AlvisError {
    fn from(e: DhtError) -> Self {
        AlvisError::Overlay(e)
    }
}

impl std::fmt::Display for AlvisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlvisError::Overlay(e) => write!(f, "overlay error: {e}"),
            AlvisError::NoSuchPeer { origin, peers } => {
                write!(f, "no such peer: {origin} (network has {peers} peers)")
            }
            AlvisError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            AlvisError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            AlvisError::ProbeFailed(cause) => write!(f, "probe failed: {cause}"),
        }
    }
}

impl std::error::Error for AlvisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlvisError::Overlay(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_overlay_errors() {
        let e: AlvisError = DhtError::EmptyNetwork.into();
        assert_eq!(e, AlvisError::Overlay(DhtError::EmptyNetwork));
        assert!(e.to_string().contains("overlay"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_is_informative() {
        let e = AlvisError::NoSuchPeer {
            origin: 9,
            peers: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = AlvisError::InvalidRequest("top_k must be positive".into());
        assert!(e.to_string().contains("top_k"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
