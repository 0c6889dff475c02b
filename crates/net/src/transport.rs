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
//! bit-identical across backends (no delivery order is required: a tag
//! names one message, and receives match on it); only the measured
//! wall-clock numbers differ.

use crate::Tag;
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded-inbox capacity, in envelopes, of every rank under
/// [`Backend::Thread`] (the simulator's inboxes are unbounded).
pub const CHANNEL_CAPACITY: usize = 256;

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
    /// The message's modelled frame schedule: each frame's `(bytes,
    /// departure)`, departure in the sender's virtual seconds. One entry
    /// for an unframed message; the frames' bytes sum to the payload's.
    pub frames: Vec<(usize, f64)>,
    /// Shared so collectives can broadcast one buffer without one clone
    /// per destination; the receiver unwraps it (or clones, if other
    /// references are still live) on arrival.
    pub payload: Arc<Vec<u8>>,
    /// Set when the sending node panicked: receivers fail fast instead of
    /// waiting out the deadlock timeout.
    pub poison: bool,
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
/// * [`Port::recv`] returns envelopes from this rank's inbox — in any
///   order, each one's content unaltered;
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
    /// The cluster's receive timeout: it bounds a blocking receive
    /// ([`Port::timeout`]) and a blocked send alike.
    deadline: Duration,
}

/// Wires `world` ranks together and returns one [`Port`] per rank,
/// indexed by rank. [`CHANNEL_CAPACITY`] bounds each inbox of
/// [`Backend::Thread`]; `deadline` is the cluster's receive timeout,
/// which also bounds a blocked send.
pub(crate) fn connect(world: usize, backend: Backend, deadline: Duration) -> Vec<Port> {
    let (outbox, inboxes) = match backend {
        Backend::Sim => {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..world).map(|_| channel()).unzip();
            (Outbox::Unbounded(txs), rxs)
        }
        Backend::Thread => {
            let (txs, rxs): (Vec<_>, Vec<_>) =
                (0..world).map(|_| sync_channel(CHANNEL_CAPACITY)).unzip();
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
    /// available; never blocks. The engine's per-step drain
    /// (`NodeCtx::poll_drain`) uses it to move arrived messages into the
    /// pending buffer while the node still has its own work to do.
    pub fn try_recv(&mut self) -> Option<Envelope> {
        if let Some(env) = self.stash.pop_front() {
            return Some(env);
        }
        self.inbox.try_recv().ok()
    }

    /// The cluster's receive timeout: how long a receive may wait for an
    /// envelope before the run fails.
    pub fn timeout(&self) -> Duration {
        self.deadline
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
            frames: vec![(1, 0.0)],
            payload: Arc::new(vec![byte]),
            poison: false,
        }
    }

    fn pair(backend: Backend, deadline: Duration) -> (Port, Port) {
        let mut ports = connect(2, backend, deadline);
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
        let (mut a, mut b) = pair(Backend::Sim, Duration::from_secs(1));
        a.send(1, env(0, 3, 42)).unwrap();
        let got = b.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(*got.payload, vec![42]);
        assert!(b.recv(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn sim_send_never_blocks() {
        // Far more envelopes than the bounded capacity, none received yet:
        // every send returns at once and nothing counts as blocked.
        let (mut a, mut b) = pair(Backend::Sim, Duration::from_millis(50));
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
        let (mut a, mut b) = pair(Backend::Thread, Duration::from_secs(1));
        for i in 0..3u8 {
            a.send(1, env(0, 0, i)).unwrap();
        }
        for i in 0..3u8 {
            assert_eq!(*b.recv(Duration::from_secs(1)).unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn thread_send_drains_own_inbox_under_backpressure() {
        // Both sides send more than an inbox holds before either
        // receives: without the drain-while-blocked rule this deadlocks.
        let n = CHANNEL_CAPACITY as u64 + 8;
        let burst = move |port: &mut Port, src: usize, dst: usize| {
            for i in 0..n {
                port.send(dst, env(src, i, i as u8)).unwrap();
            }
            (0..n)
                .map(|_| port.recv(Duration::from_secs(5)).unwrap().tag.a)
                .collect::<Vec<u64>>()
        };
        let (mut a, mut b) = pair(Backend::Thread, Duration::from_secs(5));
        let t = std::thread::spawn(move || burst(&mut b, 1, 0));
        let in_order: Vec<u64> = (0..n).collect();
        assert_eq!(burst(&mut a, 0, 1), in_order);
        assert_eq!(t.join().unwrap(), in_order);
    }

    #[test]
    fn thread_blocked_send_times_out_with_diagnostic() {
        let (mut a, _b) = pair(Backend::Thread, Duration::from_millis(50));
        for i in 0..CHANNEL_CAPACITY as u64 {
            a.send(1, env(0, i, 1)).unwrap();
        }
        // Peer never drains: the send past a full inbox must fail fast,
        // not hang, and hand its envelope back for the caller to name.
        let back = a.send(1, env(0, 999, 2)).unwrap_err();
        assert_eq!((back.tag.a, back.payload.as_slice()), (999, &[2][..]));
    }

    #[test]
    fn comm_wall_accumulates_blocked_time() {
        for backend in [Backend::Sim, Backend::Thread] {
            let mut p = connect(1, backend, Duration::from_secs(1)).pop().unwrap();
            assert!(p.recv(Duration::from_millis(20)).is_none());
            assert!(p.comm_wall() >= Duration::from_millis(20), "{backend}");
        }
    }
}
