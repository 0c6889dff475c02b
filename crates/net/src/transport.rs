//! The transport port: how cluster nodes exchange [`Envelope`]s.
//!
//! Each rank owns one [`Port`], built by [`connect`]: put an envelope on
//! the wire, take the next one off, and account for the wall-clock time
//! spent blocked doing either. Everything above the port — tag matching,
//! virtual-clock accounting, collectives, the reliable-delivery protocol,
//! tracing — lives in [`crate::NodeCtx`] and is identical for both
//! [`Backend`]s, which differ only in the discipline of the inbox:
//!
//! * [`Backend::Sim`] — an unbounded inbox: a send never blocks, so host
//!   wall time stays decoupled from the modelled virtual time (DESIGN.md
//!   §6).
//! * [`Backend::Thread`] — a bounded inbox: senders feel real
//!   backpressure, compute and communication overlap in wall-clock time,
//!   and the port records how long it sat blocked. A sender stuck on a
//!   full peer inbox keeps draining its own inbox (the MPI progress rule)
//!   so cyclic exchanges of full inboxes cannot deadlock.
//!
//! Outputs, `CommStats`, virtual time and trace cells are therefore
//! bit-identical across backends (per-source FIFO is not required; the
//! tag/seq machinery restores order); only the measured wall-clock numbers
//! differ.

use crate::Tag;
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bounded-inbox capacity (envelopes) of [`Backend::Thread`].
pub(crate) const DEFAULT_CHANNEL_CAPACITY: usize = 256;

/// How long a blocked bounded send waits between drain attempts.
const SEND_POLL: Duration = Duration::from_micros(200);

/// Which inbox discipline carries a cluster's messages. Selected through
/// `ClusterBuilder::backend` (or `EngineConfig::backend` one layer up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The deterministic virtual-time simulator (unbounded inboxes); the
    /// reference the thread backend is validated against.
    #[default]
    Sim,
    /// Real OS threads over bounded inboxes: real backpressure and
    /// measured wall-clock overlap of compute and communication.
    Thread,
}

impl Backend {
    /// Stable lower-case name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Thread => "thread",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One message on the wire: payload plus the routing and protocol
/// metadata the cluster layers need. The port moves envelopes opaquely —
/// every field is written and interpreted above it.
#[derive(Debug)]
pub(crate) struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag (kind + discriminators); see [`crate::Tag`].
    pub tag: Tag,
    /// Sender's virtual clock at departure (modelled seconds).
    pub depart: f64,
    /// Shared so collectives can broadcast one buffer without one clone
    /// per destination; the receiver unwraps it (or clones, if other
    /// references are still live) on arrival.
    pub payload: Arc<Vec<u8>>,
    /// Set when the sending node panicked: receivers fail fast instead of
    /// waiting out the deadlock timeout.
    pub poison: bool,
    /// Position in the per-(src, tag) stream, assigned by the reliable
    /// layer (always 0 when no fault plan is active).
    pub seq: u64,
}

/// The senders into every rank's inbox, in one of the two disciplines.
#[derive(Clone)]
enum Outbox {
    Unbounded(Vec<Sender<Envelope>>),
    Bounded(Vec<SyncSender<Envelope>>),
}

/// One rank's endpoint. The contract [`crate::NodeCtx`] relies on:
///
/// * [`Port::send`] eventually delivers the envelope to `dst`'s port (it
///   may block under backpressure, but keeps draining its own inbox while
///   blocked so cyclic exchanges make progress);
/// * [`Port::recv`] returns envelopes from this rank's inbox — any order
///   across sources, per-(src, seq) content unaltered;
/// * [`Port::comm_wall`] accumulates the real time spent blocked inside
///   `send`/`recv` (the measured communication wait, as opposed to the
///   modelled one on the virtual clock).
pub(crate) struct Port {
    outbox: Outbox,
    inbox: Receiver<Envelope>,
    /// Envelopes drained from our own inbox while blocked on a full peer;
    /// served FIFO ahead of the channel by `recv` (always empty on the
    /// unbounded inbox, whose sends never block).
    stash: VecDeque<Envelope>,
    blocked: Duration,
    deadline: Duration,
}

/// Wires `world` ranks together and returns one [`Port`] per rank,
/// indexed by rank. `capacity` (> 0) bounds each inbox of
/// [`Backend::Thread`] and is ignored by [`Backend::Sim`]; `deadline` is
/// the cluster's receive timeout, which also bounds a blocked send.
pub(crate) fn connect(
    world: usize,
    backend: Backend,
    capacity: usize,
    deadline: Duration,
) -> Vec<Port> {
    let (outbox, inboxes) = match backend {
        Backend::Sim => {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..world).map(|_| channel()).unzip();
            (Outbox::Unbounded(txs), rxs)
        }
        Backend::Thread => {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..world).map(|_| sync_channel(capacity)).unzip();
            (Outbox::Bounded(txs), rxs)
        }
    };
    inboxes
        .into_iter()
        .map(|inbox| Port {
            outbox: outbox.clone(),
            inbox,
            stash: VecDeque::new(),
            blocked: Duration::ZERO,
            deadline,
        })
        .collect()
}

impl Port {
    /// Puts `env` on the wire towards `dst`. Blocks under backpressure on
    /// a bounded inbox, and hands `env` back if it stays blocked past the
    /// deadline (a protocol deadlock); silently drops the envelope if `dst`
    /// has already torn down (the cluster is unwinding).
    pub fn send(&mut self, dst: usize, env: Envelope) -> Result<(), Envelope> {
        let txs = match &self.outbox {
            Outbox::Unbounded(txs) => {
                let _ = txs[dst].send(env);
                return Ok(());
            }
            Outbox::Bounded(txs) => txs,
        };
        let mut pending = match txs[dst].try_send(env) {
            Ok(()) | Err(TrySendError::Disconnected(_)) => return Ok(()),
            Err(TrySendError::Full(e)) => e,
        };
        // Backpressure: the peer's inbox is full. Keep draining our own
        // inbox while waiting (the MPI progress rule) so a cycle of
        // mutually-full inboxes resolves instead of deadlocking, and give
        // up after the cluster deadline like a blocked receive would.
        let start = Instant::now();
        loop {
            pending = match txs[dst].try_send(pending) {
                Ok(()) | Err(TrySendError::Disconnected(_)) => break,
                Err(TrySendError::Full(e)) => e,
            };
            if let Ok(incoming) = self.inbox.recv_timeout(SEND_POLL) {
                self.stash.push_back(incoming);
            }
            if start.elapsed() > self.deadline {
                return Err(pending);
            }
        }
        self.blocked += start.elapsed();
        Ok(())
    }

    /// Best-effort send used to poison peers during panic unwinding:
    /// never blocks, may drop the envelope (a peer whose bounded inbox is
    /// full is alive and will hit its own receive timeout soon enough).
    pub fn poison(&mut self, dst: usize, env: Envelope) {
        match &self.outbox {
            Outbox::Unbounded(txs) => {
                let _ = txs[dst].send(env);
            }
            Outbox::Bounded(txs) => {
                let _ = txs[dst].try_send(env);
            }
        }
    }

    /// Takes the next envelope off this rank's inbox, blocking up to
    /// `timeout`. `None` means nothing arrived in time (the caller
    /// diagnoses the deadlock).
    pub fn recv(&mut self, timeout: Duration) -> Option<Envelope> {
        if let Some(env) = self.stash.pop_front() {
            return Some(env);
        }
        let start = Instant::now();
        let got = self.inbox.recv_timeout(timeout).ok();
        self.blocked += start.elapsed();
        got
    }

    /// Takes the next envelope off this rank's inbox if one is already
    /// available; never blocks. The pipelined exchange uses this to drain
    /// arrived frames (relieving bounded-inbox backpressure) while the
    /// node still has its own work to do.
    pub fn try_recv(&mut self) -> Option<Envelope> {
        if let Some(env) = self.stash.pop_front() {
            return Some(env);
        }
        self.inbox.try_recv().ok()
    }

    /// Total wall-clock time this port has spent blocked in
    /// [`Port::send`] / [`Port::recv`].
    pub fn comm_wall(&self) -> Duration {
        self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TagKind;

    fn env(src: usize, a: u64, byte: u8) -> Envelope {
        Envelope {
            src,
            tag: Tag::new(TagKind::User, a, 0),
            depart: 0.0,
            payload: Arc::new(vec![byte]),
            poison: false,
            seq: 0,
        }
    }

    fn pair(backend: Backend, capacity: usize, deadline: Duration) -> (Port, Port) {
        let mut ports = connect(2, backend, capacity, deadline);
        let b = ports.pop().unwrap();
        (ports.pop().unwrap(), b)
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::default(), Backend::Sim);
        assert_eq!(Backend::Sim.to_string(), "sim");
        assert_eq!(Backend::Thread.to_string(), "thread");
    }

    #[test]
    fn sim_ports_deliver() {
        let (mut a, mut b) = pair(Backend::Sim, 1, Duration::from_secs(1));
        a.send(1, env(0, 3, 42)).unwrap();
        let got = b.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(*got.payload, vec![42]);
        assert!(b.recv(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn sim_send_never_blocks() {
        // Far more envelopes than any bounded capacity, none received yet:
        // every send returns at once and nothing counts as blocked.
        let (mut a, mut b) = pair(Backend::Sim, 1, Duration::from_millis(50));
        for i in 0..1000u32 {
            a.send(1, env(0, u64::from(i), i as u8)).unwrap();
        }
        assert_eq!(a.comm_wall(), Duration::ZERO);
        for i in 0..1000u32 {
            assert_eq!(*b.try_recv().unwrap().payload, vec![i as u8]);
        }
    }

    #[test]
    fn thread_ports_deliver_and_preserve_fifo() {
        let (mut a, mut b) = pair(Backend::Thread, 4, Duration::from_secs(1));
        for i in 0..3u8 {
            a.send(1, env(0, 0, i)).unwrap();
        }
        for i in 0..3u8 {
            assert_eq!(*b.recv(Duration::from_secs(1)).unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn thread_send_drains_own_inbox_under_backpressure() {
        // Capacity-1 inboxes, both sides send two messages before either
        // receives: without the drain-while-blocked rule this deadlocks.
        let (mut a, mut b) = pair(Backend::Thread, 1, Duration::from_secs(5));
        let t = std::thread::spawn(move || {
            b.send(0, env(1, 0, 10)).unwrap();
            b.send(0, env(1, 1, 11)).unwrap();
            let x = b.recv(Duration::from_secs(5)).unwrap();
            let y = b.recv(Duration::from_secs(5)).unwrap();
            (x.payload[0], y.payload[0])
        });
        a.send(1, env(0, 0, 20)).unwrap();
        a.send(1, env(0, 1, 21)).unwrap();
        let x = a.recv(Duration::from_secs(5)).unwrap();
        let y = a.recv(Duration::from_secs(5)).unwrap();
        assert_eq!((x.payload[0], y.payload[0]), (10, 11));
        assert_eq!(t.join().unwrap(), (20, 21));
    }

    #[test]
    fn thread_blocked_send_times_out_with_diagnostic() {
        let (mut a, _b) = pair(Backend::Thread, 1, Duration::from_millis(50));
        a.send(1, env(0, 0, 1)).unwrap();
        // Peer never drains: the second send must fail fast, not hang,
        // and hand its envelope back for the caller to name.
        let back = a.send(1, env(0, 1, 2)).unwrap_err();
        assert_eq!((back.tag.a, back.payload.as_slice()), (1, &[2][..]));
    }

    #[test]
    fn comm_wall_accumulates_blocked_time() {
        for backend in [Backend::Sim, Backend::Thread] {
            let mut p = connect(1, backend, 1, Duration::from_secs(1))
                .pop()
                .unwrap();
            assert!(p.recv(Duration::from_millis(20)).is_none());
            assert!(p.comm_wall() >= Duration::from_millis(20), "{backend}");
        }
    }
}
