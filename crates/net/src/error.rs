//! Error type for the simulated network.

use crate::RETRY_ATTEMPTS;
use std::fmt;

/// Errors surfaced by the simulated cluster.
///
/// Most protocol mistakes (mismatched tags, deadlocks) are programming
/// errors inside the engine and abort via panic with diagnostics; this
/// type covers the conditions a caller can reasonably handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A receive waited longer than the configured timeout — almost always
    /// a protocol deadlock. Carries rank and the awaited description.
    RecvTimeout {
        /// Rank of the waiting node.
        rank: usize,
        /// Human-readable description of what was awaited.
        waiting_for: String,
    },
    /// Cluster was configured with zero nodes.
    EmptyCluster,
    /// `ClusterBuilder` rejected an invalid fault plan; carries the
    /// offending knob's message.
    InvalidFaultPlan(&'static str),
    /// `ClusterBuilder` was given a zero channel capacity for the thread
    /// backend (a rendezvous channel would deadlock the blocking
    /// tag-matched protocol).
    ZeroChannelCapacity,
    /// The reliable-delivery layer exhausted its retransmission budget:
    /// every one of the [`crate::RETRY_ATTEMPTS`] copies of a message was
    /// dropped by the active fault plan. Deterministic per (plan, message).
    Unreachable {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::RecvTimeout { rank, waiting_for } => {
                write!(f, "node {rank} timed out waiting for {waiting_for}")
            }
            NetError::EmptyCluster => write!(f, "cluster must have at least one node"),
            NetError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            NetError::ZeroChannelCapacity => {
                write!(f, "channel capacity must be at least 1 (got 0)")
            }
            NetError::Unreachable { src, dst } => write!(
                f,
                "node {src} could not deliver to node {dst}: all {RETRY_ATTEMPTS} attempts dropped by the fault plan"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// Why bytes received from a peer do not decode: every decoder of peer
/// bytes reads through [`crate::Reader`] and returns this, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A read wanted more bytes than were left.
    Truncated {
        /// Bytes the read wanted.
        needed: usize,
        /// Bytes left.
        left: usize,
    },
    /// Bytes left over after the message's last record.
    Trailing(usize),
    /// A format or message tag no encoder writes.
    UnknownTag(u8),
    /// A varint longer than 64 bits.
    VarintOverflow,
    /// A key, slot or vertex id outside the range it must lie in.
    OutOfRange {
        /// The decoded value.
        value: u64,
        /// The range's first value.
        lo: u64,
        /// The range's end (exclusive).
        hi: u64,
    },
}

impl CodecError {
    /// `value` if it lies in `lo..hi` (one compare), else `OutOfRange`.
    pub fn in_range(value: u64, lo: u64, hi: u64) -> Result<u64, CodecError> {
        match value.wrapping_sub(lo) < hi.wrapping_sub(lo) {
            true => Ok(value),
            false => Err(CodecError::OutOfRange { value, lo, hi }),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = NetError::RecvTimeout {
            rank: 3,
            waiting_for: "dep step 2".into(),
        };
        assert!(e.to_string().contains("node 3"));
        assert!(NetError::EmptyCluster.to_string().contains("at least one"));
        let u = NetError::Unreachable { src: 0, dst: 2 };
        assert!(u.to_string().contains("node 0"));
        assert!(u.to_string().contains("20 attempts"));
    }
}
