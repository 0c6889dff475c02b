//! Communication accounting.
//!
//! The paper's Table 6 breaks total communication into **update** messages
//! (mirror → master partial results, the only kind existing frameworks
//! have) and **dependency** messages (the new kind SympleGraph adds).
//! We additionally track **sync** traffic (frontier bitmaps, convergence
//! allreduces) which both systems pay identically, so normalised
//! comparisons remain faithful whether or not it is included.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::codec::{CodecStats, WireFormat};

/// Category of a message for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKind {
    /// Mirror → master partial results (signal output applied by slot).
    Update,
    /// Dependency state circulating between mirrors (SympleGraph only).
    Dependency,
    /// Frontier/state synchronisation and collectives.
    Sync,
}

/// All communication kinds, in display order.
pub const COMM_KINDS: [CommKind; 3] = [CommKind::Update, CommKind::Dependency, CommKind::Sync];

impl CommKind {
    fn index(self) -> usize {
        match self {
            CommKind::Update => 0,
            CommKind::Dependency => 1,
            CommKind::Sync => 2,
        }
    }

    /// The trace byte category every message of this kind is tagged with
    /// (sync traffic is collective traffic).
    pub fn byte_category(self) -> symple_trace::ByteCategory {
        match self {
            CommKind::Update => symple_trace::ByteCategory::Update,
            CommKind::Dependency => symple_trace::ByteCategory::Dependency,
            CommKind::Sync => symple_trace::ByteCategory::Collective,
        }
    }
}

impl fmt::Display for CommKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommKind::Update => "update",
            CommKind::Dependency => "dependency",
            CommKind::Sync => "sync",
        };
        f.write_str(s)
    }
}

/// Counters of the reliable-delivery layer (see `symple_net::FaultPlan`).
///
/// These are the only statistics allowed to differ between a faulted run
/// and its fault-free twin: the ack/retry protocol absorbs every injected
/// drop, duplicate, and reordering below the engine, and this is where
/// the absorbed damage is tallied. All zero when no fault plan is active.
/// Timeouts, retransmits, and duplicate injections are counted on the
/// sending node, where they are a pure function of the plan (and hence
/// deterministic); acks are counted on the receiving node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Retransmission timers that expired (one per dropped copy).
    pub timeouts: u64,
    /// Message copies resent after an ack timeout.
    pub retransmits: u64,
    /// Payload bytes carried by those resent copies.
    pub retransmit_bytes: u64,
    /// Duplicate copies injected by the plan (each is later discarded by
    /// the receiver's sequence-number filter).
    pub dup_drops: u64,
    /// Messages accepted and acknowledged by the receiver.
    pub acks: u64,
}

impl ReliableStats {
    /// Whether the reliable layer did any visible work.
    pub fn any(&self) -> bool {
        self.timeouts > 0 || self.retransmits > 0 || self.dup_drops > 0 || self.acks > 0
    }
}

impl AddAssign for ReliableStats {
    fn add_assign(&mut self, rhs: ReliableStats) {
        self.timeouts += rhs.timeouts;
        self.retransmits += rhs.retransmits;
        self.retransmit_bytes += rhs.retransmit_bytes;
        self.dup_drops += rhs.dup_drops;
        self.acks += rhs.acks;
    }
}

/// Byte and message counters per [`CommKind`].
///
/// # Example
///
/// ```
/// use symple_net::{CommKind, CommStats};
/// let mut s = CommStats::default();
/// s.record(CommKind::Update, 128);
/// s.record(CommKind::Dependency, 16);
/// assert_eq!(s.bytes(CommKind::Update), 128);
/// assert_eq!(s.total_bytes(), 144);
/// assert_eq!(s.messages(CommKind::Dependency), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    bytes: [u64; 3],
    messages: [u64; 3],
    /// Chosen-format histogram from the adaptive codec (bytes and encoded
    /// blocks per [`WireFormat`]). Flat-codec runs attribute every sent
    /// payload to [`WireFormat::Flat`], so the histogram always accounts
    /// for the engine's data traffic.
    formats: CodecStats,
    /// Reliable-delivery counters; all zero without a fault plan. Note the
    /// byte/message arrays above count each logical message exactly once,
    /// as in a fault-free run — retransmitted copies are tallied here, not
    /// there, which is what keeps comm accounting comparable across plans.
    pub(crate) reliable: ReliableStats,
}

impl CommStats {
    /// Records one sent message of `kind` carrying `bytes` payload bytes.
    pub fn record(&mut self, kind: CommKind, bytes: u64) {
        self.bytes[kind.index()] += bytes;
        self.messages[kind.index()] += 1;
    }

    /// Merges a codec encode's chosen-format histogram.
    pub fn record_formats(&mut self, formats: &CodecStats) {
        for f in WireFormat::ALL {
            self.formats.bytes[f.index()] += formats.bytes[f.index()];
            self.formats.blocks[f.index()] += formats.blocks[f.index()];
        }
    }

    /// Encoded bytes attributed to `fmt` by the codec.
    pub fn format_bytes(&self, fmt: WireFormat) -> u64 {
        self.formats.bytes[fmt.index()]
    }

    /// Payload bytes sent in `kind`.
    pub fn bytes(&self, kind: CommKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Messages sent in `kind`.
    pub fn messages(&self, kind: CommKind) -> u64 {
        self.messages[kind.index()]
    }

    /// Total payload bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total payload bytes excluding sync (the paper's Table 6 universe).
    pub fn data_bytes(&self) -> u64 {
        self.bytes(CommKind::Update) + self.bytes(CommKind::Dependency)
    }

    /// Total message count across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Reliable-delivery counters (all zero without a fault plan).
    pub fn reliable(&self) -> ReliableStats {
        self.reliable
    }
}

impl Add for CommStats {
    type Output = CommStats;
    fn add(mut self, rhs: CommStats) -> CommStats {
        self += rhs;
        self
    }
}

impl AddAssign for CommStats {
    fn add_assign(&mut self, rhs: CommStats) {
        for i in 0..3 {
            self.bytes[i] += rhs.bytes[i];
            self.messages[i] += rhs.messages[i];
        }
        self.record_formats(&rhs.formats);
        self.reliable += rhs.reliable;
    }
}

impl fmt::Display for CommStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "update {}B/{}msg, dependency {}B/{}msg, sync {}B/{}msg",
            self.bytes[0],
            self.messages[0],
            self.bytes[1],
            self.messages[1],
            self.bytes[2],
            self.messages[2]
        )?;
        if self.reliable.any() {
            write!(
                f,
                ", reliable [{} timeouts, {} retrans/{}B, {} dups, {} acks]",
                self.reliable.timeouts,
                self.reliable.retransmits,
                self.reliable.retransmit_bytes,
                self.reliable.dup_drops,
                self.reliable.acks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = CommStats::default();
        s.record(CommKind::Update, 10);
        s.record(CommKind::Update, 5);
        s.record(CommKind::Sync, 1);
        assert_eq!(s.bytes(CommKind::Update), 15);
        assert_eq!(s.messages(CommKind::Update), 2);
        assert_eq!(s.total_bytes(), 16);
        assert_eq!(s.data_bytes(), 15);
        assert_eq!(s.total_messages(), 3);
    }

    #[test]
    fn addition_is_componentwise() {
        let mut a = CommStats::default();
        a.record(CommKind::Dependency, 8);
        let mut b = CommStats::default();
        b.record(CommKind::Dependency, 4);
        b.record(CommKind::Update, 2);
        let c = a + b;
        assert_eq!(c.bytes(CommKind::Dependency), 12);
        assert_eq!(c.bytes(CommKind::Update), 2);
        assert_eq!(c.messages(CommKind::Dependency), 2);
    }

    #[test]
    fn format_histogram_merges_and_sums() {
        let mut cs = CodecStats::default();
        cs.bytes[WireFormat::Dense.index()] = 40;
        cs.blocks[WireFormat::Dense.index()] = 2;
        cs.bytes[WireFormat::Sparse.index()] = 7;
        cs.blocks[WireFormat::Sparse.index()] = 1;
        let mut a = CommStats::default();
        a.record_formats(&cs);
        a.record_formats(&cs);
        assert_eq!(a.format_bytes(WireFormat::Dense), 80);
        let b = a + CommStats::default();
        assert_eq!(b.format_bytes(WireFormat::Sparse), 14);
        assert_eq!(b.format_bytes(WireFormat::Flat), 0);
    }

    #[test]
    fn display_nonempty() {
        let s = CommStats::default().to_string();
        assert!(s.contains("update"));
        assert!(s.contains("dependency"));
    }

    #[test]
    fn kind_display() {
        assert_eq!(CommKind::Update.to_string(), "update");
        assert_eq!(COMM_KINDS.len(), 3);
    }

    #[test]
    fn reliable_counters_merge_and_display() {
        let mut a = CommStats::default();
        a.reliable.timeouts = 2;
        a.reliable.retransmits = 2;
        a.reliable.retransmit_bytes = 64;
        let mut b = CommStats::default();
        b.reliable.dup_drops = 1;
        b.reliable.acks = 5;
        let c = a + b;
        assert_eq!(c.reliable().timeouts, 2);
        assert_eq!(c.reliable().retransmits, 2);
        assert_eq!(c.reliable().retransmit_bytes, 64);
        assert_eq!(c.reliable().dup_drops, 1);
        assert_eq!(c.reliable().acks, 5);
        assert!(c.reliable().any());
        let shown = c.to_string();
        assert!(shown.contains("2 retrans/64B"));
        assert!(shown.contains("1 dups"));
        // Fault-free stats keep the historical display shape.
        assert!(!CommStats::default().reliable().any());
        assert!(!CommStats::default().to_string().contains("reliable"));
    }
}
