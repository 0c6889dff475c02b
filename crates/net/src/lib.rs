//! In-process distributed cluster for the SympleGraph reproduction.
//!
//! The paper evaluates on real clusters (16 × dual-Xeon nodes over 56 Gb/s
//! InfiniBand, MPI one-sided RDMA). This crate substitutes an **in-process
//! cluster**: each machine is a thread, every inter-machine message
//! travels through the machines' transport ports, and — crucially — every
//! node maintains a **virtual clock** advanced by a configurable
//! [`CostModel`].
//! Sends stamp the sender's clock; receives advance the receiver's clock
//! to the modelled arrival time. Because the engine's message protocol is
//! deterministic (blocking, point-to-point, tagged), the resulting virtual
//! times are an exact conservative simulation of the modelled network,
//! independent of host scheduling.
//!
//! The port has two inbox disciplines ([`Backend`]):
//! * [`Backend::Sim`] — unbounded inboxes, the bit-deterministic
//!   reference;
//! * [`Backend::Thread`] — bounded inboxes with real backpressure, so
//!   compute and communication genuinely overlap and per-node wall time
//!   becomes a *measured* signal next to the modelled virtual clock.
//!
//! Outputs, [`CommStats`], virtual time, and traces are bit-identical
//! across backends; only wall-clock measurements differ.
//!
//! What this preserves from the paper's testbed:
//! * exact byte counts per communication category (update vs dependency vs
//!   sync) — Table 6 is *measured*, not modelled;
//! * the latency/overlap structure that circulant scheduling, double
//!   buffering, and differentiated propagation exploit — their benefit
//!   shows up in virtual time for the same reasons it shows up on real
//!   hardware.
//!
//! What it does not preserve: absolute wall-clock numbers (the host here is
//! a single-core container).
//!
//! # Example
//!
//! ```
//! use symple_net::{Cluster, CostModel};
//!
//! let result = Cluster::builder(4).cost(CostModel::zero()).build().unwrap().run(|ctx| {
//!     // Every node contributes its rank; allreduce sums them.
//!     ctx.allreduce_u64_sum(ctx.rank() as u64)
//! });
//! assert!(result.outputs.iter().all(|&s| s == 0 + 1 + 2 + 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod codec;
mod cost;
mod error;
mod reliable;
mod transport;
mod wire;

pub use cluster::{Cluster, ClusterBuilder, ClusterResult, NodeCtx, Tag, TagKind};
pub use codec::{
    decode_dep_range, decode_updates, dep_range_sizes, dep_records, encode_dep_range,
    encode_updates, measure_updates, pack_bits, unpack_bits, varint_len, CodecStats, WireCodec,
    WireFormat,
};
pub use cost::CostModel;
pub use error::{Cause, CodecError, NetError, RunError};
pub use reliable::{Delivery, FaultPlan, RETRY_ATTEMPTS, RETRY_BACKOFF, RETRY_TIMEOUT_QUANTA};
pub use transport::{Backend, CHANNEL_CAPACITY};
pub use wire::{decode_vec, encode_slice, Reader, Wire};

// The tracing vocabulary is part of this crate's API surface
// (`ClusterBuilder::trace_level`, `ClusterResult::traces`,
// `NodeCtx::wait_until`), and so is the communication ledger the trace
// recorder keeps (`NodeCtx::send`'s `CommKind`, `Trace::comm`).
pub use symple_trace::{
    CommKind, CommStats, NodeTrace, ReliableStats, Span, SpanCategory, Trace, TraceLevel,
    COMM_KINDS,
};
