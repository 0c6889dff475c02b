//! Communication accounting.
//!
//! The paper's Table 6 breaks total communication into **update** messages
//! (mirror → master partial results, the only kind existing frameworks
//! have) and **dependency** messages (the new kind SympleGraph adds).
//! We additionally track **sync** traffic (frontier bitmaps, convergence
//! allreduces) which both systems pay identically, so normalised
//! comparisons remain faithful whether or not it is included.
//!
//! [`CommStats`] is only ever written by a [`crate::TraceRecorder`]: each
//! communication event is one recorder call, which counts it in the
//! machine's total and, at [`crate::TraceLevel::Metrics`] and above, in
//! the current cell.

use std::fmt;
use std::ops::{Add, AddAssign};

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
    pub(crate) fn index(self) -> usize {
        match self {
            CommKind::Update => 0,
            CommKind::Dependency => 1,
            CommKind::Sync => 2,
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

/// Byte and message counters per [`CommKind`], the wire-format histogram
/// and the reliable-delivery overlay: one machine's (or one cell's, or
/// one run's) communication ledger.
///
/// # Example
///
/// ```
/// use symple_trace::{CommKind, TraceLevel, TraceRecorder};
/// let mut rec = TraceRecorder::new(0, TraceLevel::Off);
/// rec.record_message(CommKind::Update, 128);
/// rec.record_message(CommKind::Dependency, 16);
/// let s = rec.finish().comm();
/// assert_eq!(s.bytes(CommKind::Update), 128);
/// assert_eq!(s.total_bytes(), 144);
/// assert_eq!(s.messages(CommKind::Dependency), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    pub(crate) bytes: [u64; 3],
    pub(crate) messages: [u64; 3],
    /// Encoded bytes per wire format the codec chose (flat / dense /
    /// sparse, in tag order). Flat-codec runs attribute every sent
    /// payload to flat, so the histogram always accounts for the engine's
    /// data traffic: the arrays above answer *what* was shipped, this one
    /// *how* it was encoded.
    pub(crate) formats: [u64; 3],
    /// Reliable-delivery counters; all zero without a fault plan. Note the
    /// byte/message arrays above count each logical message exactly once,
    /// as in a fault-free run — retransmitted copies are tallied here, not
    /// there, which is what keeps comm accounting comparable across plans.
    pub(crate) reliable: ReliableStats,
}

impl CommStats {
    /// Encoded bytes per wire format, in tag order (flat, dense, sparse).
    pub fn format_bytes(&self) -> [u64; 3] {
        self.formats
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
            self.formats[i] += rhs.formats[i];
        }
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

    fn stats(kinds: &[(CommKind, u64)], formats: [u64; 3]) -> CommStats {
        let mut s = CommStats {
            formats,
            ..CommStats::default()
        };
        for &(kind, bytes) in kinds {
            s.bytes[kind.index()] += bytes;
            s.messages[kind.index()] += 1;
        }
        s
    }

    #[test]
    fn totals_and_addition_are_componentwise() {
        let s = stats(
            &[
                (CommKind::Update, 10),
                (CommKind::Update, 5),
                (CommKind::Sync, 1),
            ],
            [0; 3],
        );
        assert_eq!(s.bytes(CommKind::Update), 15);
        assert_eq!(s.messages(CommKind::Update), 2);
        assert_eq!(s.total_bytes(), 16);
        assert_eq!(s.data_bytes(), 15);
        assert_eq!(s.total_messages(), 3);

        let a = stats(&[(CommKind::Dependency, 8)], [0, 40, 7]);
        let b = stats(
            &[(CommKind::Dependency, 4), (CommKind::Update, 2)],
            [1, 40, 7],
        );
        let c = a + b;
        assert_eq!(c.bytes(CommKind::Dependency), 12);
        assert_eq!(c.bytes(CommKind::Update), 2);
        assert_eq!(c.messages(CommKind::Dependency), 2);
        assert_eq!(c.format_bytes(), [1, 80, 14]);
    }

    #[test]
    fn kind_display() {
        assert_eq!(CommKind::Update.to_string(), "update");
        assert_eq!(CommKind::Sync.to_string(), "sync");
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
        let plain = CommStats::default().to_string();
        assert!(plain.contains("update") && plain.contains("dependency"));
    }
}
