//! Error type for the simulated network.

use crate::{Tag, RETRY_ATTEMPTS};
use std::fmt;

/// Why [`crate::ClusterBuilder::build`] rejected a configuration. A
/// failure during a run is a [`RunError`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Cluster was configured with zero nodes.
    EmptyCluster,
    /// `ClusterBuilder` rejected an invalid fault plan; carries the
    /// offending knob's message.
    InvalidFaultPlan(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::EmptyCluster => write!(f, "cluster must have at least one node"),
            NetError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Why a node's run failed, and where: its rank, trace scope and the tag
/// it was moving. Built and raised only by [`crate::NodeCtx::fail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// The failing node.
    pub rank: usize,
    /// The iteration of the node's trace scope.
    pub iteration: u32,
    /// The circulant step of the node's trace scope.
    pub step: u32,
    /// The tag of the message being sent or awaited.
    pub tag: Tag,
    /// What went wrong.
    pub cause: Cause,
}

/// The failure classes of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cause {
    /// A receive from `peer` outlasted the receive timeout (a protocol
    /// deadlock).
    Timeout {
        /// The peer waited on.
        peer: usize,
        /// What the node had buffered, as sorted (source, tag) pairs.
        pending: Vec<(usize, Tag)>,
    },
    /// A send to `dst` found its bounded inbox full for longer than the
    /// receive timeout: the peer stopped receiving.
    Blocked {
        /// Destination rank.
        dst: usize,
    },
    /// A second message to `dst` under a tag this node already sent it:
    /// a tag names one message.
    TagReused {
        /// Destination rank.
        dst: usize,
    },
    /// The fault plan dropped all [`RETRY_ATTEMPTS`] copies of a message.
    Unreachable {
        /// Destination rank.
        dst: usize,
    },
    /// A message does not decode.
    Corrupt {
        /// Sending rank.
        src: usize,
        /// Why the bytes do not decode.
        err: CodecError,
    },
    /// A peer failed first: its poison envelope arrived.
    PeerFailed {
        /// The failed peer.
        peer: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RunError { rank, tag, .. } = self;
        let (iteration, step) = (self.iteration, self.step);
        write!(
            f,
            "node {rank} failed at iteration {iteration}, step {step}, {tag:?}: "
        )?;
        match &self.cause {
            Cause::Timeout { peer, pending } => write!(f, "timed out on node {peer} ({pending:?})"),
            Cause::Blocked { dst } => write!(f, "send to node {dst} blocked on a full inbox"),
            Cause::TagReused { dst } => write!(f, "tag reused: a second message to node {dst}"),
            Cause::Unreachable { dst } => write!(
                f,
                "node {dst} unreachable: all {RETRY_ATTEMPTS} attempts dropped"
            ),
            Cause::Corrupt { src, err } => {
                write!(f, "node {src} sent bytes that do not decode: {err}")
            }
            Cause::PeerFailed { peer } => write!(f, "peer {peer} failed"),
        }
    }
}

impl std::error::Error for RunError {}

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
    use crate::TagKind;

    #[test]
    fn display() {
        assert!(NetError::EmptyCluster.to_string().contains("at least one"));
        let u = RunError {
            rank: 0,
            iteration: 3,
            step: 1,
            tag: Tag::new(TagKind::Dep, 7, 0),
            cause: Cause::Unreachable { dst: 2 },
        };
        let msg = u.to_string();
        assert!(
            msg.starts_with("node 0 failed at iteration 3, step 1, Tag { kind: Dep"),
            "{msg}"
        );
        assert!(
            msg.ends_with("node 2 unreachable: all 20 attempts dropped"),
            "{msg}"
        );
        let blocked = RunError {
            cause: Cause::Blocked { dst: 1 },
            ..u
        };
        let msg = blocked.to_string();
        assert!(
            msg.ends_with("send to node 1 blocked on a full inbox"),
            "{msg}"
        );
        let reused = RunError {
            cause: Cause::TagReused { dst: 1 },
            ..u
        };
        let msg = reused.to_string();
        assert!(
            msg.ends_with("tag reused: a second message to node 1"),
            "{msg}"
        );
    }
}
